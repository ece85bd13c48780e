//! Benchmark of the autotuner's whole search, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-exhaustive|fine-pareto|fine-bnb> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` repeats the workload's searches untraced at `JOBS`
//! workers for `--seconds` seconds and prints the end-to-end metrics.
//! `--trace 1` runs the workload untraced at 1 and `JOBS` workers,
//! then traced (every layer timed from outside, see `layers`), prints
//! the layer table and the per-layer metrics. Both check every search
//! against the recorded optimum (seed 0) and against each other (any
//! seed). The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` (searches) and `metrics`.

mod layers;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use layers::{LayerCounts, LayerTable};
use workload::{check, run_task, setup, Outcome, Recorded, Setup, Workload, JOBS, RECORDED};

/// Fewest untraced searches a `--trace 0` run makes, however short
/// `--seconds` is.
const MIN_SEARCHES: usize = 3;

/// End-to-end metrics (`--trace 0`), as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] =
    [("search_s", "s"), ("configs_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("kernels.instantiate_s", "s"),
    ("kernels.instantiate_calls", "count"),
    ("kernels.calls_per_point", "ratio"),
    ("metrics.static_eval_s", "s"),
    ("metrics.static_eval_calls", "count"),
    ("metrics.invalid_frac", "ratio"),
    ("tuner.select_s", "s"),
    ("tuner.selected", "count"),
    ("ir.linearize_s", "s"),
    ("engine.key_s", "s"),
    ("engine.key_calls", "count"),
    ("engine.cache_hit_frac", "ratio"),
    ("sim.decode_s", "s"),
    ("sim.decode_calls", "count"),
    ("sim.simulate_s", "s"),
    ("sim.simulate_calls", "count"),
    ("sim.family_calls", "count"),
    ("sim.call_ms_p50", "ms"),
    ("sim.call_ms_tail", "ms"),
    ("sim.cycles_per_host_s", "1/s"),
    ("model.probe_s", "s"),
    ("engine.batches", "count"),
    ("pool.busy_frac", "ratio"),
    ("engine.other_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("best_ms", "sim_ms"),
    ("sims_to_best", "count"),
    ("unique_sims", "count"),
    ("failed_frac", "ratio"),
];

/// What this process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `--trace 0`: end-to-end metrics.
    Untraced,
    /// `--trace 1`: per-layer metrics.
    Traced,
    /// `--search-once`: one untraced repetition, printed as a `Sample`.
    SearchOnce,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

/// What a run measures: how to build its workload at a worker count,
/// and the optima it must reach. Tests substitute a small workload.
struct Bench<'a> {
    name: String,
    build: &'a dyn Fn(usize) -> Setup,
    recorded: Option<&'a [Recorded]>,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut mode) = (0u64, 10.0f64, Mode::Untraced);
    let mut search_once = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--search-once" => search_once = true,
            _ => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let bad = || format!("bad value `{value}` for {flag}");
                match flag.as_str() {
                    "--workload" => {
                        workload = Some(Workload::parse(value).ok_or_else(|| {
                            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                            format!("unknown workload `{value}` ({})", names.join("|"))
                        })?)
                    }
                    "--seed" => seed = value.parse().map_err(|_| bad())?,
                    "--seconds" => {
                        seconds = value.parse().map_err(|_| bad())?;
                        if !seconds.is_finite() || seconds <= 0.0 {
                            return Err(bad());
                        }
                    }
                    "--trace" => {
                        mode = match value.as_str() {
                            "0" => Mode::Untraced,
                            "1" => Mode::Traced,
                            _ => return Err(bad()),
                        }
                    }
                    other => return Err(format!("unknown flag `{other}`")),
                }
            }
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mode = if search_once { Mode::SearchOnce } else { mode };
    Ok(Args { workload, seed, seconds, mode })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let build = |jobs| setup(args.workload, args.seed, jobs);
    let bench = Bench {
        name: format!("{} seed {}", args.workload.name(), args.seed),
        build: &build,
        // Only seed 0 has recorded optima; other seeds are checked for
        // determinism alone.
        recorded: (args.seed == 0).then_some(RECORDED),
        seconds: args.seconds,
    };
    let result = match args.mode {
        Mode::SearchOnce => {
            print!("{}", Sample::measure(&bench).to_lines());
            return ExitCode::SUCCESS;
        }
        Mode::Traced => traced(&bench),
        Mode::Untraced => untraced(&bench, &|| sample_in_child(&args)),
    };
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The run's result line.
struct RunResult {
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                // JSON has no NaN or infinity; a degenerate value is an
                // error in the benchmark, shown as null.
                let v = if value.is_finite() { value.to_string() } else { "null".into() };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks every search's outcome, counting searches and failures.
struct Gate<'a> {
    recorded: Option<&'a [Recorded]>,
    attempted: usize,
    failed: usize,
    quarantined: usize,
    decided: usize,
}

impl<'a> Gate<'a> {
    fn new(recorded: Option<&'a [Recorded]>) -> Gate<'a> {
        Gate { recorded, attempted: 0, failed: 0, quarantined: 0, decided: 0 }
    }

    fn check(&mut self, what: &str, outcomes: &[Outcome], reference: Option<&[Outcome]>) {
        for (k, o) in outcomes.iter().enumerate() {
            let errors = check(o, reference.and_then(|r| r.get(k)), self.recorded);
            self.attempted += 1;
            self.quarantined += o.quarantined;
            self.decided += o.decided + o.quarantined;
            if !errors.is_empty() {
                self.failed += 1;
                for e in errors {
                    eprintln!("perfbench: {what}: {e}");
                }
            }
        }
        if reference.is_some_and(|r| r.len() != outcomes.len()) {
            eprintln!(
                "perfbench: {what}: {} searches, reference has a different count",
                outcomes.len()
            );
            self.failed += 1;
        }
    }

    /// Quarantined configurations plus failed searches, per
    /// configuration attempted.
    fn failed_frac(&self) -> f64 {
        (self.quarantined + self.failed) as f64 / self.decided.max(1) as f64
    }
}

/// One untraced repetition of a workload.
struct Sample {
    setup_s: f64,
    search_s: f64,
    peak_rss_mb: f64,
    outcomes: Vec<Outcome>,
}

impl Sample {
    /// Build the workload, run its searches, and read this process's
    /// peak resident set. Set-up is timed once per process, cold, as a
    /// `tune` run pays it.
    fn measure(bench: &Bench) -> Sample {
        let began = Instant::now();
        let built = (bench.build)(JOBS);
        let setup_s = began.elapsed().as_secs_f64();
        let (outcomes, search_s) = run_all(&built);
        Sample { setup_s, search_s, peak_rss_mb: peak_rss_mb(), outcomes }
    }

    /// The lines a `--search-once` child prints.
    fn to_lines(&self) -> String {
        let mut out =
            format!("sample\t{}\t{}\t{}\n", self.setup_s, self.search_s, self.peak_rss_mb);
        for o in &self.outcomes {
            out += &o.to_line();
            out.push('\n');
        }
        out
    }

    fn from_lines(text: &str) -> Option<Sample> {
        let mut lines = text.lines();
        let mut head = lines.next()?.strip_prefix("sample\t")?.split('\t');
        let setup_s = head.next()?.parse().ok()?;
        let search_s = head.next()?.parse().ok()?;
        let peak_rss_mb = head.next()?.parse().ok()?;
        let outcomes = lines.map(Outcome::from_line).collect::<Option<Vec<_>>>()?;
        Some(Sample { setup_s, search_s, peak_rss_mb, outcomes })
    }
}

/// `--trace 0`: the workload's searches repeated untraced until `--seconds` are spent, one repetition per `sample`
/// call.
fn untraced(bench: &Bench, sample: &dyn Fn() -> Result<Sample, String>) -> RunResult {
    let mut gate = Gate::new(bench.recorded);
    let mut samples: Vec<Sample> = Vec::new();
    let measuring = Instant::now();
    let search_s =
        |samples: &[Sample]| Summary::of(&samples.iter().map(|s| s.search_s).collect::<Vec<_>>());
    // Start another repetition only if it should end within `--seconds`.
    while samples.len() < MIN_SEARCHES
        || measuring.elapsed().as_secs_f64() + search_s(&samples).median < bench.seconds
    {
        let next = match sample() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return RunResult { attempted: 1, failed: 1, correct: false, metrics: Vec::new() };
            }
        };
        gate.check("untraced", &next.outcomes, samples.first().map(|s| &s.outcomes[..]));
        if samples.is_empty() {
            print_outcomes(&next.outcomes);
        }
        samples.push(next);
    }
    let decided: usize = samples[0].outcomes.iter().map(|o| o.decided).sum();
    let search = search_s(&samples);
    let setup = Summary::of(&samples.iter().map(|s| s.setup_s).collect::<Vec<_>>());
    let rss = Summary::of(&samples.iter().map(|s| s.peak_rss_mb).collect::<Vec<_>>());
    println!("workload {} jobs {JOBS}", bench.name);
    println!("search_s     {}", search.describe("s"));
    println!("setup_s      {}", setup.describe("s"));
    println!("peak_rss_mb  {}", rss.describe("MiB"));
    println!("configs decided per search {decided}");
    println!(
        "failed_frac {} ({} of {} searches failed the gate)",
        gate.failed_frac(),
        gate.failed,
        gate.attempted
    );
    RunResult {
        attempted: gate.attempted,
        failed: gate.failed,
        correct: gate.failed == 0 && gate.quarantined == 0,
        metrics: vec![
            ("search_s", "s", search.median),
            ("configs_per_s", "1/s", decided as f64 / search.median),
            ("setup_s", "s", setup.median),
            ("peak_rss_mb", "MiB", rss.median),
        ],
    }
}

/// One repetition in a fresh `--search-once` child process, so each
/// sample's peak resident set is that of one workload process.
fn sample_in_child(args: &Args) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--search-once",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a search process: {e}"))?;
    if !out.status.success() {
        return Err(format!("search process exited with {}", out.status));
    }
    Sample::from_lines(&String::from_utf8_lossy(&out.stdout))
        .ok_or_else(|| "search process printed no sample".to_string())
}

/// `--trace 1`: untraced passes at 1 and `JOBS` workers, sequential
/// traced passes for the layer table, and one traced pass at `JOBS`
/// workers for pool occupancy — all checked against each other.
fn traced(bench: &Bench) -> RunResult {
    let mut gate = Gate::new(bench.recorded);
    let measuring = Instant::now();
    let (sequential, sequential_s) = untraced_once(bench, 1);
    gate.check("untraced, 1 worker", &sequential, None);
    print_outcomes(&sequential);
    let (parallel, _) = untraced_once(bench, JOBS);
    gate.check(&format!("untraced, {JOBS} workers vs 1"), &parallel, Some(&sequential));

    // Sequential traced passes, so the layers split the wall clock;
    // the pass with the median wall time is reported.
    let mut passes = Vec::new();
    while passes.last().is_none_or(|p: &layers::Traced| {
        measuring.elapsed().as_secs_f64() + p.wall_s < bench.seconds
    }) {
        let built = (bench.build)(1);
        let pass = layers::traced_run(&built);
        gate.check("traced, 1 worker vs untraced", &pass.outcomes, Some(&sequential));
        layers::replay_internal_layers(&built, &pass);
        passes.push(pass);
    }
    passes.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let pass = passes.swap_remove(passes.len() / 2);

    let built = (bench.build)(JOBS);
    let pooled = layers::traced_run(&built);
    gate.check(&format!("traced, {JOBS} workers vs untraced"), &pooled.outcomes, Some(&sequential));
    let busy_frac = pooled.meter.busy_seconds() / (pooled.wall_s * JOBS as f64);

    let table = LayerTable::of(&pass);
    let counts = LayerCounts::of(&pass.meter);
    let sim_calls = Summary::of(&counts.sim_call_ms);
    println!(
        "workload {}: layer table of the median of {} sequential traced pass(es)",
        bench.name,
        passes.len() + 1
    );
    print!("{}", table.render());
    println!("sim call ms  {}", sim_calls.describe("ms"));
    println!("pool busy at {JOBS} workers {:.1}%", 100.0 * busy_frac);

    let seconds = |l| pass.meter.seconds(l);
    let calls = |l| pass.meter.calls(l) as f64;
    use layers::Layer as L;
    let sum = |f: fn(&Outcome) -> f64| pass.outcomes.iter().map(f).sum::<f64>();
    let metrics = vec![
        ("kernels.instantiate_s", "s", seconds(L::Instantiate)),
        ("kernels.instantiate_calls", "count", calls(L::Instantiate)),
        ("kernels.calls_per_point", "ratio", counts.calls_per_point),
        ("metrics.static_eval_s", "s", seconds(L::StaticEval)),
        ("metrics.static_eval_calls", "count", calls(L::StaticEval)),
        ("metrics.invalid_frac", "ratio", counts.invalid_frac),
        ("tuner.select_s", "s", seconds(L::Select)),
        ("tuner.selected", "count", counts.selected as f64),
        ("ir.linearize_s", "s", seconds(L::Linearize)),
        ("engine.key_s", "s", seconds(L::Key)),
        ("engine.key_calls", "count", calls(L::Key)),
        ("engine.cache_hit_frac", "ratio", pass.cache_hit_frac),
        ("sim.decode_s", "s", seconds(L::Decode)),
        ("sim.decode_calls", "count", calls(L::Decode)),
        ("sim.simulate_s", "s", seconds(L::Simulate)),
        ("sim.simulate_calls", "count", calls(L::Simulate) - counts.family_calls as f64),
        ("sim.family_calls", "count", counts.family_calls as f64),
        ("sim.call_ms_p50", "ms", sim_calls.median),
        ("sim.call_ms_tail", "ms", sim_calls.tail),
        ("sim.cycles_per_host_s", "1/s", counts.cycles_per_host_s),
        ("model.probe_s", "s", seconds(L::Probe)),
        ("engine.batches", "count", pass.batches as f64),
        ("pool.busy_frac", "ratio", busy_frac),
        ("engine.other_s", "s", table.unattributed_s),
        ("trace.overhead_frac", "ratio", pass.wall_s / sequential_s - 1.0),
        ("best_ms", "sim_ms", sum(|o| o.best_ms.unwrap_or(f64::NAN))),
        ("sims_to_best", "count", sum(|o| o.sims_to_best as f64)),
        ("unique_sims", "count", sum(|o| o.unique_sims as f64)),
        ("failed_frac", "ratio", gate.failed_frac()),
    ];
    RunResult {
        attempted: gate.attempted,
        failed: gate.failed,
        correct: gate.failed == 0 && gate.quarantined == 0,
        metrics,
    }
}

/// One untraced pass at `jobs` workers: outcomes and search wall time.
fn untraced_once(bench: &Bench, jobs: usize) -> (Vec<Outcome>, f64) {
    run_all(&(bench.build)(jobs))
}

/// Run every search of a built workload: outcomes and wall time from
/// the first engine call to the last finished report.
fn run_all(built: &Setup) -> (Vec<Outcome>, f64) {
    let started = Instant::now();
    let reports: Vec<_> = built.tasks.iter().map(|t| run_task(t, &built.spec)).collect();
    let wall = started.elapsed().as_secs_f64();
    (built.tasks.iter().zip(&reports).map(|(t, r)| Outcome::of(t, r)).collect(), wall)
}

fn print_outcomes(outcomes: &[Outcome]) {
    for o in outcomes {
        println!(
            "  {:<13} best {} at {} sim-ms; {} unique sims, best after {}, {} configs decided",
            o.task,
            o.best_label.as_deref().unwrap_or("-"),
            o.best_ms.map_or("-".into(), |t| t.to_string()),
            o.unique_sims,
            o.sims_to_best,
            o.decided
        );
    }
}

/// Median and tail of a sample.
struct Summary {
    n: usize,
    median: f64,
    /// The highest percentile with at least ten samples beyond it, or
    /// the maximum when the sample is too small to have one.
    tail: f64,
    tail_label: String,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary { n, median: f64::NAN, tail: f64::NAN, tail_label: "-".into() };
        }
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        let (tail, tail_label) = match [99.9, 99.0, 90.0, 50.0]
            .into_iter()
            .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
        {
            Some(p) => {
                let idx = ((p / 100.0) * n as f64).ceil() as usize;
                (v[idx.clamp(1, n) - 1], format!("p{p}"))
            }
            None => (v[n - 1], "max".into()),
        };
        Summary { n, median, tail, tail_label }
    }

    fn describe(&self, unit: &str) -> String {
        format!(
            "median {:.6} {unit}, {} {:.6} {unit}, n={}",
            self.median, self.tail_label, self.tail, self.n
        )
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::MachineSpec;
    use gpu_kernels::cp::Cp;
    use optspace::obs::json;
    use workload::{whole_space_task, Strategy};

    /// The smallest paper space, with its recorded optimum.
    fn cp_setup(jobs: usize) -> Setup {
        let app = Box::new(Cp::paper_problem());
        Setup {
            tasks: vec![whole_space_task("cp", app, Strategy::Exhaustive, jobs)],
            spec: MachineSpec::geforce_8800_gtx(),
        }
    }

    fn cp_bench<'a>(build: &'a dyn Fn(usize) -> Setup, recorded: &'a [Recorded]) -> Bench<'a> {
        Bench { name: "cp".into(), build, recorded: Some(recorded), seconds: 1e-3 }
    }

    fn valid(text: &str, extra: &str) -> bool {
        !text.is_empty()
            && text
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
    }

    /// The `metrics` object of a result line, as (name, unit) pairs.
    fn printed(result: &RunResult) -> Vec<(String, String)> {
        let line = json::parse(&result.to_json()).expect("the result line is JSON");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(line.get(key).is_some(), "result line lacks {key}");
        }
        let Some(json::Json::Obj(metrics)) = line.get("metrics") else { panic!("metrics object") };
        metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(json::Json::as_f64).is_some(),
                    "{name} has no value"
                );
                (
                    name.clone(),
                    m.get("unit").and_then(json::Json::as_str).expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn metric_names_and_units_are_valid_and_declared_in_benchmark_json() {
        let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid(name, "") && name.len() <= 64, "bad metric name {name}");
            assert!(valid(unit, "/%") && unit.len() <= 16, "bad unit {unit} of {name}");
            assert_eq!(all.iter().filter(|(n, _)| n == name).count(), 1, "{name} declared twice");
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let declared = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let names: Vec<(String, String)> = declared
                .get(key)
                .and_then(json::Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(json::Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(names, owned(list), "{key} in BENCHMARK.json");
        }
        let workloads: Vec<&str> = declared
            .get("workloads")
            .and_then(json::Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(json::Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn untraced_run_prints_every_end_to_end_metric_with_its_unit() {
        let bench = cp_bench(&cp_setup, RECORDED);
        let result = untraced(&bench, &|| Ok(Sample::measure(&bench)));
        assert!(result.correct, "cp reaches its recorded optimum");
        assert_eq!((result.attempted, result.failed), (MIN_SEARCHES, 0));
        assert_eq!(printed(&result), owned(&END_TO_END));
        assert!(result.metrics.iter().all(|m| m.2 > 0.0), "end-to-end metrics are never 0");
    }

    #[test]
    fn traced_layer_rows_add_up_to_the_wall_time() {
        let built = cp_setup(1);
        let pass = layers::traced_run(&built);
        layers::replay_internal_layers(&built, &pass);
        let table = LayerTable::of(&pass);
        let rows: f64 = table.rows.iter().map(|r| r.1).sum();
        assert!((rows + table.unattributed_s - pass.wall_s).abs() < 1e-9);
        assert!(table.rows.iter().all(|r| r.1 >= 0.0));
        let simulate = table.rows.iter().find(|r| r.0 == "sim.simulate_s").expect("row");
        assert_eq!(simulate.2, 36, "one simulator call per valid CP configuration");
        assert!(table.render().contains("unattributed"));
    }

    #[test]
    fn traced_run_prints_every_per_layer_metric_and_matches_untraced() {
        let bench = cp_bench(&cp_setup, RECORDED);
        let result = traced(&bench);
        assert!(result.correct, "traced, untraced, 1 and {JOBS} workers agree");
        assert_eq!(result.failed, 0);
        assert_eq!(printed(&result), owned(&PER_LAYER));
    }

    #[test]
    fn samples_round_trip_through_a_child_process_s_output() {
        let bench = cp_bench(&cp_setup, RECORDED);
        let sample = Sample::measure(&bench);
        let back = Sample::from_lines(&sample.to_lines()).expect("parses");
        assert_eq!(back.outcomes, sample.outcomes);
        assert_eq!(
            (back.setup_s, back.search_s, back.peak_rss_mb),
            (sample.setup_s, sample.search_s, sample.peak_rss_mb)
        );
        assert!(Sample::from_lines("sample\t1\t2\n").is_none());
    }

    #[test]
    fn a_wrong_recorded_optimum_fails_the_run() {
        let right = RECORDED.iter().find(|r| r.task == "cp").copied().expect("cp is recorded");
        let wrong_time = [Recorded { best_ms: right.best_ms * (1.0 + 1e-12), ..right }];
        let wrong_label = [Recorded { label: "b64/t16", ..right }];
        for recorded in [&wrong_time, &wrong_label] {
            let bench = cp_bench(&cp_setup, recorded);
            let result = untraced(&bench, &|| Ok(Sample::measure(&bench)));
            assert!(!result.correct);
            assert_eq!(result.failed, result.attempted);
            let traced_result = traced(&bench);
            assert!(!traced_result.correct);
            assert!(traced_result.failed > 0);
        }
    }

    #[test]
    fn seeds_pick_inputs_of_the_same_size_deterministically() {
        use gpu_kernels::matmul::MatMulFine;
        use gpu_kernels::App;
        let space = MatMulFine::reduced_problem().space();
        let slice = |seed| workload::fine_slice(&space, seed);
        assert!(slice(0).iter().all(|p| p.u32("tile") == 16 && p.u32("rect") == 4));
        for seed in [0, 1, 2] {
            assert_eq!(slice(seed).len(), workload::FINE_SLICE_POINTS);
            assert_eq!(slice(seed), slice(seed));
        }
        assert_ne!(slice(1), slice(2));
        let grid = |seed| workload::FineSubGrid::for_seed(seed).space();
        for seed in [0, 1, 2] {
            assert_eq!(grid(seed).len(), 12_800);
        }
        let unroll = |seed| grid(seed).axis("unroll").expect("axis").values().to_vec();
        assert_eq!(unroll(1), unroll(1));
        assert_ne!(unroll(1), unroll(2));
        let mut sorted = unroll(1);
        sorted.sort_by_key(|v| v.as_u32());
        assert_eq!(sorted, unroll(0), "other seeds reorder the seed-0 values");
    }
}
