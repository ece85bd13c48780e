//! Profile the search stack over the four Table-4 applications: run the
//! paper's pruned search per app with an event sink attached and print
//! each run's engine-metrics summary — evaluation counts, cache
//! behaviour, the simulated stall breakdown, per-phase wall time, and
//! worker utilization.
//!
//! `--bench-out <path>` additionally writes every run's manifest into
//! one JSON document (the committed `BENCH_pr3.json` trajectory point).
//! `--bnb-out <path>` writes the exhaustive-vs-branch-and-bound
//! comparison — simulations to reach the optimum, and the subspaces the
//! bound discarded without instantiation — as the committed
//! `BENCH_pr6.json` trajectory point. `--convergence-out <path>` runs
//! every strategy (exhaustive, pruned, branch-and-bound, and the
//! iterative zoo) per app and writes their full convergence curves plus
//! sims-to-optimum — the committed `BENCH_pr8.json` trajectory point.
//! `--zoo-out <path>` runs the iterative-strategy study — every zoo
//! strategy scored against the exhaustively known optimum on
//! sims-to-optimum, time-to-within-5%, and wasted budget — as the
//! committed `BENCH_pr9.json` trajectory point (`--fine` adds the
//! matmul fine grid with branch-and-bound supplying the ground truth).
//! `--app matmul|cp|sad|mri` restricts every section to one
//! application; `--budget N` and `--seed S` override the zoo study's
//! defaults (half the exhaustive timing budget, seed 0). The engine
//! flags of `table4` (`--jobs`, `--sim-fuel`, `--retries`, ...) apply
//! here too.

use std::sync::Arc;

use gpu_arch::MachineSpec;
use gpu_kernels::matmul::MatMulFine;
use gpu_kernels::{by_name, App, AppInstantiator, SpaceSource};
use optspace::cli::{self, Args, EngineFlags};
use optspace::obs::{EventSink, Json, RunManifest};
use optspace::report::{profile_table, table};
use optspace::tuner::{
    BranchAndBound, ExhaustiveSearch, PrunedSearch, RandomSearch, SearchReport, SearchStrategy,
};
use optspace::zoo;
use optspace_bench::{run_zoo, suite};

/// Everything `profile` reads from its flags.
struct Flags {
    engines: EngineFlags,
    bench_out: Option<String>,
    bnb_out: Option<String>,
    convergence_out: Option<String>,
    zoo_out: Option<String>,
    /// `--app`: the one application every section is restricted to.
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
            bench_out: args.output("--bench-out")?,
            bnb_out: args.output("--bnb-out")?,
            convergence_out: args.output("--convergence-out")?,
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

/// Score one strategy's report against the known true optimum.
fn score_json(report: &SearchReport, truth_ms: f64) -> Json {
    let curve = &report.metrics.convergence;
    let total = curve.samples.last().map(|s| s.sims).unwrap_or(0);
    let best = report.best_time_ms();
    // Budget spent after the run's own final best was found buys
    // nothing: that tail is the wasted fraction.
    let wasted = match (curve.sims_to_optimum(), total) {
        (Some(s), t) if t > 0 => Some((t - s) as f64 / t as f64),
        _ => None,
    };
    Json::obj([
        ("strategy", Json::from(report.strategy.as_str())),
        ("total_sims", Json::from(total)),
        ("best_time_ms", best.map(Json::from).unwrap_or(Json::Null)),
        ("within_5pct", Json::from(best.map(|b| b <= truth_ms * 1.05).unwrap_or(false))),
        ("sims_to_optimum", curve.sims_to_within(truth_ms).map(Json::from).unwrap_or(Json::Null)),
        (
            "sims_to_within_5pct",
            curve.sims_to_within(truth_ms * 1.05).map(Json::from).unwrap_or(Json::Null),
        ),
        ("wasted_budget_fraction", wasted.map(Json::from).unwrap_or(Json::Null)),
        ("curve", curve.to_json()),
    ])
}

/// Run the zoo (plus the one-shot random baseline) over one app at a
/// fixed budget and score every strategy against `truth_ms`.
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
    let mut rows = vec![vec![
        "strategy".to_string(),
        "best".to_string(),
        "within 5%".to_string(),
        "sims to opt".to_string(),
        "sims to 5%".to_string(),
        "wasted".to_string(),
    ]];
    for report in &reports {
        let curve = &report.metrics.convergence;
        let total = curve.samples.last().map(|s| s.sims).unwrap_or(0);
        let own = curve.sims_to_optimum();
        rows.push(vec![
            report.strategy.clone(),
            report.best_time_ms().map(|b| format!("{b:.4} ms")).unwrap_or_else(|| "-".to_string()),
            report
                .best_time_ms()
                .map(|b| if b <= truth_ms * 1.05 { "yes" } else { "NO" })
                .unwrap_or("NO")
                .to_string(),
            curve
                .sims_to_within(truth_ms)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".to_string()),
            curve
                .sims_to_within(truth_ms * 1.05)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".to_string()),
            match (own, total) {
                (Some(s), t) if t > 0 => format!("{:.0}%", (t - s) as f64 / t as f64 * 100.0),
                _ => "-".to_string(),
            },
        ]);
    }
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
        ("strategies", Json::Arr(reports.iter().map(|r| score_json(r, truth_ms)).collect())),
    ])
}

fn main() {
    let flags = cli::parse_env(Flags::read);
    let (engines, seed, budget_override) = (&flags.engines, flags.seed, flags.budget);
    let spec = MachineSpec::geforce_8800_gtx();
    let mut manifests: Vec<Json> = Vec::new();
    for app in flags.suite() {
        // A fresh sink per app keeps wall-time and worker accounting
        // per-run instead of smearing across the suite.
        let sink = Arc::new(EventSink::new());
        let engine = engines.engine().with_sink(Arc::clone(&sink));
        let candidates = app.candidates();
        let report = PrunedSearch::default().run_with(&engine, &candidates, &spec);
        println!("== {} ({} configurations) ==", app.name(), candidates.len());
        println!("{}", profile_table(&report.metrics));
        manifests.push(RunManifest::from_search(app.name(), &report, &spec).to_json());
    }

    // Exhaustive vs branch-and-bound: how many unique simulations each
    // needs to certify the optimum, and how much of the space the bound
    // discarded before instantiation.
    let mut rows = vec![vec![
        "app".to_string(),
        "space".to_string(),
        "exhaustive sims".to_string(),
        "bnb sims".to_string(),
        "bnb static evals".to_string(),
        "pruned subspaces".to_string(),
        "pruned points".to_string(),
        "optimum".to_string(),
    ]];
    let mut comparisons: Vec<Json> = Vec::new();
    for app in flags.suite() {
        let engine = engines.engine();
        let space = app.space();
        let exhaustive = ExhaustiveSearch.run_source(
            &engine,
            &gpu_kernels::SpaceSource::full(app.as_ref()),
            &spec,
        );
        let bnb = BranchAndBound.run_space(&engine, &space, &AppInstantiator(app.as_ref()), &spec);
        let same = match (exhaustive.best_time_ms(), bnb.best_time_ms()) {
            (Some(a), Some(b)) => (b / a - 1.0).abs() < 1e-9,
            (None, None) => true,
            _ => false,
        };
        rows.push(vec![
            app.name().to_string(),
            space.len().to_string(),
            exhaustive.stats.unique_sims.to_string(),
            bnb.stats.unique_sims.to_string(),
            bnb.stats.static_evals.to_string(),
            bnb.stats.bound_pruned_subspaces.to_string(),
            bnb.stats.bound_pruned_points.to_string(),
            if same { "match".to_string() } else { "MISMATCH".to_string() },
        ]);
        comparisons.push(Json::obj([
            ("app", Json::from(app.name())),
            ("space", Json::from(space.len() as u64)),
            ("exhaustive_sims", Json::from(exhaustive.stats.unique_sims as u64)),
            ("bnb_sims", Json::from(bnb.stats.unique_sims as u64)),
            ("bnb_static_evals", Json::from(bnb.stats.static_evals as u64)),
            ("bound_pruned_subspaces", Json::from(bnb.stats.bound_pruned_subspaces as u64)),
            ("bound_pruned_points", Json::from(bnb.stats.bound_pruned_points as u64)),
            ("optimum_matches", Json::from(same)),
            ("best_time_ms", bnb.best_time_ms().map(Json::from).unwrap_or(Json::Null)),
        ]));
    }
    println!("== exhaustive vs branch-and-bound ==");
    println!("{}", table(&rows));

    if let Some(path) = &flags.bench_out {
        let doc = Json::obj([
            ("bench", Json::from("pr3")),
            (
                "description",
                Json::from("pruned-search run manifests for the four Table-4 applications"),
            ),
            ("manifests", Json::Arr(manifests)),
        ]);
        match std::fs::write(path, doc.to_string_pretty()) {
            Ok(()) => println!("manifests -> {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &flags.convergence_out {
        // Convergence trajectories: every strategy's curve per app. The
        // recorder is deterministic, so this document is reproducible
        // at any --jobs.
        let mut apps: Vec<Json> = Vec::new();
        for app in flags.suite() {
            let space = app.space();
            let candidates = app.candidates();
            let exhaustive = ExhaustiveSearch.run_source(
                &engines.engine(),
                &gpu_kernels::SpaceSource::full(app.as_ref()),
                &spec,
            );
            // Zoo strategies get the study's standard allowance: half
            // the exhaustive timing budget (or the explicit override).
            let budget =
                budget_override.unwrap_or_else(|| (exhaustive.evaluated_count() / 2).max(1));
            let mut runs: Vec<(&str, optspace::tuner::SearchReport)> = vec![
                ("exhaustive", exhaustive),
                ("pruned", PrunedSearch::default().run_with(&engines.engine(), &candidates, &spec)),
                (
                    "bnb",
                    BranchAndBound.run_space(
                        &engines.engine(),
                        &space,
                        &AppInstantiator(app.as_ref()),
                        &spec,
                    ),
                ),
            ];
            for name in zoo::NAMES {
                runs.push((
                    name,
                    run_zoo(app.as_ref(), &spec, &engines.engine(), name, budget, seed),
                ));
            }
            let strategies: Vec<Json> = runs
                .into_iter()
                .map(|(name, report)| {
                    let curve = &report.metrics.convergence;
                    Json::obj([
                        ("strategy", Json::from(name)),
                        ("timed", Json::from(report.evaluated_count() as u64)),
                        ("unique_sims", Json::from(report.stats.unique_sims as u64)),
                        (
                            "best_time_ms",
                            report.best_time_ms().map(Json::from).unwrap_or(Json::Null),
                        ),
                        (
                            "sims_to_optimum",
                            curve.sims_to_optimum().map(Json::from).unwrap_or(Json::Null),
                        ),
                        (
                            "unique_to_optimum",
                            curve.unique_to_optimum().map(Json::from).unwrap_or(Json::Null),
                        ),
                        ("curve", curve.to_json()),
                    ])
                })
                .collect();
            apps.push(Json::obj([
                ("app", Json::from(app.name())),
                ("space", Json::from(space.len() as u64)),
                ("strategies", Json::Arr(strategies)),
            ]));
        }
        let doc = Json::obj([
            ("bench", Json::from("pr8")),
            (
                "description",
                Json::from(
                    "convergence curves and simulations-to-optimum for exhaustive, pruned, \
                     and branch-and-bound search over the four Table-4 applications",
                ),
            ),
            ("apps", Json::Arr(apps)),
        ]);
        match std::fs::write(path, doc.to_string_pretty()) {
            Ok(()) => println!("convergence -> {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &flags.zoo_out {
        // The search-strategy zoo study: every iterative strategy (plus
        // the one-shot random baseline) scored against the exhaustively
        // known optimum at half the exhaustive timing budget. Scores
        // are in timed-simulation currency, the same axis the
        // convergence curves use.
        let mut apps: Vec<Json> = Vec::new();
        for app in flags.suite() {
            let truth = ExhaustiveSearch.run_source(
                &engines.engine(),
                &SpaceSource::full(app.as_ref()),
                &spec,
            );
            let budget = budget_override.unwrap_or_else(|| (truth.evaluated_count() / 2).max(1));
            apps.push(zoo_study(app.as_ref(), &spec, engines, budget, seed, &truth, "exhaustive"));
        }
        if flags.fine && flags.only.as_deref().is_none_or(|n| n == "matmul") {
            // The fine matmul grid is too large to exhaust here;
            // branch-and-bound certifies the same optimum with a
            // fraction of the simulations and supplies ground truth.
            let fine = MatMulFine::reduced_problem();
            let truth = BranchAndBound.run_space(
                &engines.engine(),
                &fine.space(),
                &AppInstantiator(&fine),
                &spec,
            );
            let budget = budget_override.unwrap_or(256);
            apps.push(zoo_study(&fine, &spec, engines, budget, seed, &truth, "bnb"));
        }
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
    if let Some(path) = &flags.bnb_out {
        let doc = Json::obj([
            ("bench", Json::from("pr6")),
            (
                "description",
                Json::from(
                    "exhaustive vs branch-and-bound simulations-to-optimum for the four \
                     Table-4 applications",
                ),
            ),
            ("comparisons", Json::Arr(comparisons)),
        ]);
        match std::fs::write(path, doc.to_string_pretty()) {
            Ok(()) => println!("comparison -> {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
