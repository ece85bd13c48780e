//! The search-strategy zoo study: every iterative strategy, plus the
//! one-shot random baseline, scored against the known optimum of each
//! Table-4 application on sims-to-optimum, time-to-within-5%, and
//! wasted budget, at half the exhaustive timing budget. Scores are in
//! timed-simulation currency, the axis the convergence curves use. One
//! table per application is printed on every run.
//!
//! `--zoo-out <path>` writes the scores and curves as one JSON document:
//! `--jobs 2 --fine --zoo-out BENCH_pr9.json` reproduces the committed
//! file byte for byte. `--fine` adds the matmul fine grid, with
//! branch-and-bound supplying the ground truth. `--app matmul|cp|sad|mri`
//! restricts the study to one application; `--budget N` and `--seed S`
//! override the defaults (half the exhaustive timing budget, 256 on the
//! fine grid; seed 0). The engine flags of `table4` (`--jobs`,
//! `--sim-fuel`, `--retries`, ...) apply here too.

use gpu_arch::MachineSpec;
use gpu_kernels::matmul::MatMulFine;
use gpu_kernels::{by_name, App, AppInstantiator, SpaceSource};
use optspace::cli::{self, Args, EngineFlags};
use optspace::obs::Json;
use optspace::report::table;
use optspace::tuner::{
    BranchAndBound, ExhaustiveSearch, RandomSearch, SearchReport, SearchStrategy,
};
use optspace::zoo;
use optspace_bench::{run_zoo, suite};

/// Everything `zoo` reads from its flags.
struct Flags {
    engines: EngineFlags,
    zoo_out: Option<String>,
    /// `--app`: the one application the study is restricted to.
    only: Option<String>,
    budget: Option<usize>,
    seed: u64,
    fine: bool,
}

impl Flags {
    fn read(args: &mut Args) -> Result<Self, String> {
        let only = args.text("--app", "an app (matmul|cp|sad|mri)")?;
        if let Some(name) = &only {
            by_name(name, "default")?;
        }
        Ok(Flags {
            engines: args.engine_flags()?,
            zoo_out: args.output("--zoo-out")?,
            only,
            budget: args.positive("--budget", "a number >= 1")?,
            seed: args.number("--seed", "a number")?.unwrap_or(0),
            fine: args.switch("--fine"),
        })
    }

    /// The suite, restricted to `--app` when given.
    fn suite(&self) -> Vec<Box<dyn App>> {
        match &self.only {
            Some(name) => vec![by_name(name, "default").expect("checked when read")],
            None => suite(),
        }
    }
}

/// One strategy's run scored against the known optimum.
struct Score<'a> {
    report: &'a SearchReport,
    /// Timed simulations the run spent.
    total: u64,
    within_5pct: bool,
    sims_to_optimum: Option<u64>,
    sims_to_5pct: Option<u64>,
    /// Budget spent after the run's own final best was found buys
    /// nothing: that tail is the wasted fraction.
    wasted: Option<f64>,
}

impl<'a> Score<'a> {
    fn new(report: &'a SearchReport, truth_ms: f64) -> Self {
        let curve = &report.metrics.convergence;
        let total = curve.samples.last().map(|s| s.sims).unwrap_or(0);
        Score {
            report,
            total,
            within_5pct: report.best_time_ms().is_some_and(|b| b <= truth_ms * 1.05),
            sims_to_optimum: curve.sims_to_within(truth_ms),
            sims_to_5pct: curve.sims_to_within(truth_ms * 1.05),
            wasted: match (curve.sims_to_optimum(), total) {
                (Some(s), t) if t > 0 => Some((t - s) as f64 / t as f64),
                _ => None,
            },
        }
    }

    fn row(&self) -> Vec<String> {
        let or_dash = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
        vec![
            self.report.strategy.clone(),
            or_dash(self.report.best_time_ms().map(|b| format!("{b:.4} ms"))),
            if self.within_5pct { "yes" } else { "NO" }.to_string(),
            or_dash(self.sims_to_optimum.map(|s| s.to_string())),
            or_dash(self.sims_to_5pct.map(|s| s.to_string())),
            or_dash(self.wasted.map(|w| format!("{:.0}%", w * 100.0))),
        ]
    }

    fn to_json(&self) -> Json {
        let opt = |v: Option<Json>| v.unwrap_or(Json::Null);
        Json::obj([
            ("strategy", Json::from(self.report.strategy.as_str())),
            ("total_sims", Json::from(self.total)),
            ("best_time_ms", opt(self.report.best_time_ms().map(Json::from))),
            ("within_5pct", Json::from(self.within_5pct)),
            ("sims_to_optimum", opt(self.sims_to_optimum.map(Json::from))),
            ("sims_to_within_5pct", opt(self.sims_to_5pct.map(Json::from))),
            ("wasted_budget_fraction", opt(self.wasted.map(Json::from))),
            ("curve", self.report.metrics.convergence.to_json()),
        ])
    }
}

/// Run the zoo (plus the one-shot random baseline) over one app at a
/// fixed budget, print its table, and score every strategy against
/// `truth`'s optimum.
fn zoo_study(
    app: &dyn App,
    spec: &MachineSpec,
    engines: &EngineFlags,
    budget: usize,
    seed: u64,
    truth: &SearchReport,
    truth_strategy: &str,
) -> Json {
    let truth_ms = truth.best_time_ms().expect("ground truth found an optimum");
    let mut reports: Vec<SearchReport> = vec![RandomSearch::new(budget, seed).run_source(
        &engines.engine(),
        &SpaceSource::full(app),
        spec,
    )];
    for name in zoo::NAMES {
        reports.push(run_zoo(app, spec, &engines.engine(), name, budget, seed));
    }
    let scores: Vec<Score> = reports.iter().map(|r| Score::new(r, truth_ms)).collect();
    let header = ["strategy", "best", "within 5%", "sims to opt", "sims to 5%", "wasted"];
    let mut rows = vec![header.map(String::from).to_vec()];
    rows.extend(scores.iter().map(Score::row));
    println!(
        "== zoo study: {} (budget {budget}, truth {truth_strategy} {truth_ms:.4} ms) ==",
        app.name()
    );
    println!("{}", table(&rows));
    Json::obj([
        ("app", Json::from(app.name())),
        ("space", Json::from(app.space().len() as u64)),
        ("truth_strategy", Json::from(truth_strategy)),
        ("truth_best_ms", Json::from(truth_ms)),
        ("truth_sims", Json::from(truth.evaluated_count() as u64)),
        ("budget", Json::from(budget as u64)),
        ("seed", Json::from(seed)),
        ("strategies", Json::Arr(scores.iter().map(Score::to_json).collect())),
    ])
}

fn main() {
    let flags = cli::parse_env(Flags::read);
    let (engines, seed) = (&flags.engines, flags.seed);
    let spec = MachineSpec::geforce_8800_gtx();
    let mut apps: Vec<Json> = Vec::new();
    for app in flags.suite() {
        let truth =
            ExhaustiveSearch.run_source(&engines.engine(), &SpaceSource::full(app.as_ref()), &spec);
        let budget = flags.budget.unwrap_or_else(|| (truth.evaluated_count() / 2).max(1));
        apps.push(zoo_study(app.as_ref(), &spec, engines, budget, seed, &truth, "exhaustive"));
    }
    if flags.fine && flags.only.as_deref().is_none_or(|n| n == "matmul") {
        // The fine matmul grid is too large to exhaust here;
        // branch-and-bound certifies the same optimum with a fraction
        // of the simulations and supplies ground truth.
        let fine = MatMulFine::reduced_problem();
        let truth = BranchAndBound.run_space(
            &engines.engine(),
            &fine.space(),
            &AppInstantiator(&fine),
            &spec,
        );
        let budget = flags.budget.unwrap_or(256);
        apps.push(zoo_study(&fine, &spec, engines, budget, seed, &truth, "bnb"));
    }
    let Some(path) = &flags.zoo_out else { return };
    let doc = Json::obj([
        ("bench", Json::from("pr9")),
        (
            "description",
            Json::from(
                "search-strategy zoo: iterative optimizers scored against the known \
                 true optimum — convergence curves, sims-to-optimum, time-to-within-5%, \
                 and wasted budget at half the exhaustive timing allowance",
            ),
        ),
        ("apps", Json::Arr(apps)),
    ]);
    match std::fs::write(path, doc.to_string_pretty()) {
        Ok(()) => println!("zoo study -> {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}
