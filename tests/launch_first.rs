//! Launch-first static evaluation: an application that can tell a
//! point's launch geometry from its configuration (`App::launch`) lets
//! the engine classify an unlaunchable point — e.g. a fine-grid
//! `tile=32` block of 1,024 threads against Table 2's 512 — as an
//! invalid executable without generating its kernel.
//!
//! * **Contract** — `launch(point)` is exactly the generated
//!   candidate's launch, on every app.
//! * **No kernel for an unlaunchable point** — a counting wrapper sees
//!   static evaluation and the pruned, exhaustive and branch-and-bound
//!   searches generate none.
//! * **Identity** — each search's report, deterministic metrics and
//!   canonical trace equal those of the same app with `launch` hidden,
//!   at one and two workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::ir::build::KernelBuilder;
use gpu_autotune::ir::{Dim, Launch};
use gpu_autotune::kernels::matmul::MatMulFine;
use gpu_autotune::kernels::{by_name, App, AppInstantiator, SpaceSource, NAMES};
use gpu_autotune::optspace::engine::{
    EngineConfig, EvalBudget, EvalEngine, EvalErrorKind, MetricsEval, StaticEval,
};
use gpu_autotune::optspace::metrics::check_launch;
use gpu_autotune::optspace::obs::EventSink;
use gpu_autotune::optspace::space::{Point, Space, Value};
use gpu_autotune::optspace::tuner::{
    BranchAndBound, ExhaustiveSearch, PrunedSearch, SearchReport, SearchStrategy,
};
use gpu_autotune::optspace::Candidate;

fn g80() -> MachineSpec {
    MachineSpec::geforce_8800_gtx()
}

/// An app that counts the kernels it generates for unlaunchable points,
/// and shows or hides the wrapped app's `launch`.
struct Counted<'a> {
    app: &'a dyn App,
    show_launch: bool,
    unlaunchable_built: AtomicUsize,
}

impl<'a> Counted<'a> {
    fn new(app: &'a dyn App, show_launch: bool) -> Self {
        Counted { app, show_launch, unlaunchable_built: AtomicUsize::new(0) }
    }

    fn unlaunchable_built(&self) -> usize {
        self.unlaunchable_built.load(Ordering::Relaxed)
    }
}

impl App for Counted<'_> {
    fn name(&self) -> &'static str {
        self.app.name()
    }

    fn space(&self) -> Space {
        self.app.space()
    }

    fn instantiate(&self, point: &Point) -> Candidate {
        let candidate = self.app.instantiate(point);
        if check_launch(&candidate.launch, &g80()).is_err() {
            self.unlaunchable_built.fetch_add(1, Ordering::Relaxed);
        }
        candidate
    }

    fn launch(&self, point: &Point) -> Option<Launch> {
        if self.show_launch {
            self.app.launch(point)
        } else {
            None
        }
    }

    fn legalize(&self, space: &Space, values: &mut [Value]) {
        self.app.legalize(space, values);
    }
}

/// 1,024 points of the fine grid, one from each run of 100 consecutive
/// grid ranks, so every tile size is in — `tile=32` (ranks 81,920 and
/// up) in 204 of them.
fn fine_sample(space: &Space) -> Vec<Point> {
    (0..1_024)
        .map(|k| space.point_at_grid_rank(100 * k + (37 * k) % 100).expect("rank inside the grid"))
        .collect()
}

/// Report, deterministic metrics and canonical trace of one search.
fn fingerprint(report: &SearchReport, trace: String) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{}\n{trace}",
        report.statics,
        report.simulated,
        report.best,
        report.quarantined,
        report.stats,
        report.metrics.deterministic_json().to_string_compact(),
    )
}

/// Run `search` on a traced engine with `jobs` workers and a cap of
/// `max_sims` unique simulations (debug-build timing cost).
fn traced(
    jobs: usize,
    max_sims: usize,
    search: impl FnOnce(&EvalEngine) -> SearchReport,
) -> String {
    let sink = Arc::new(EventSink::new());
    let config = EngineConfig {
        jobs,
        budget: EvalBudget { max_sims: Some(max_sims), ..EvalBudget::UNLIMITED },
        ..Default::default()
    };
    let engine = EvalEngine::new(config).with_sink(Arc::clone(&sink));
    let report = search(&engine);
    fingerprint(&report, sink.drain().canonical_text())
}

#[test]
fn every_app_knows_its_launch_before_generating() {
    for name in NAMES {
        let app = by_name(name, "default").expect("a registered app");
        for point in app.space().points() {
            let want = app.instantiate(&point).launch;
            assert_eq!(app.launch(&point), Some(want), "{name} {point}");
        }
    }
    let fine: Box<dyn App> = Box::new(MatMulFine::reduced_problem());
    let space = fine.space();
    for rank in (0..space.grid_len()).step_by(97) {
        let point = space.point_at_grid_rank(rank).expect("rank inside the grid");
        assert_eq!(fine.launch(&point), Some(fine.instantiate(&point).launch), "fine {point}");
    }
}

#[test]
fn static_evaluation_generates_no_unlaunchable_point() {
    let fine = MatMulFine::reduced_problem();
    let points = fine_sample(&fine.space());
    let unlaunchable = points
        .iter()
        .filter(|p| check_launch(&fine.instantiate(p).launch, &g80()).is_err())
        .count();
    assert_eq!(unlaunchable, 204, "the sample's tile=32 stratum");

    let mut verdicts = Vec::new();
    for show_launch in [true, false] {
        let app = Counted::new(&fine, show_launch);
        let source = SpaceSource::new(&app, points.clone());
        let engine = EvalEngine::with_jobs(2);
        let mut stats = engine.stats_seed();
        let mut quarantine = Vec::new();
        let statics = engine.evaluate_statics(
            &MetricsEval::default(),
            &source,
            &g80(),
            &mut stats,
            &mut quarantine,
        );
        let built = if show_launch { 0 } else { unlaunchable };
        assert_eq!(app.unlaunchable_built(), built, "launch shown: {show_launch}");
        assert!(quarantine.is_empty());
        assert_eq!(stats.static_evals, points.len(), "rejected points count as evaluated");
        verdicts.push(statics);
    }
    assert_eq!(verdicts[0], verdicts[1]);
}

#[test]
fn an_unlaunchable_point_is_invalid_whatever_its_kernel() {
    // A malformed kernel under an over-sized block: the launch settles
    // it as an invalid executable before the verifier sees the kernel,
    // from an eager slice and through `MetricsEval` alike.
    let mut b = KernelBuilder::new("bad");
    let p = b.param(0);
    let ghost = b.fresh();
    let acc = b.mov(0.0f32);
    b.fmad_acc(ghost, 1.0f32, acc);
    b.st_global(p, 0, acc);
    let launch = Launch::new(Dim::new_1d(4), Dim::new_1d(1024));
    let cands = vec![Candidate::new("use-before-def/1024", b.finish(), launch)];
    let eval = MetricsEval { verify: true, ..Default::default() };
    let engine = EvalEngine::default();
    let mut stats = engine.stats_seed();
    let mut quarantine = Vec::new();
    let statics = engine.evaluate_statics(&eval, &cands, &g80(), &mut stats, &mut quarantine);
    assert_eq!(statics, vec![None]);
    assert!(quarantine.is_empty(), "{quarantine:?}");
    let err = eval.evaluate(&cands[0], &g80()).unwrap_err();
    assert_eq!(err.kind(), EvalErrorKind::Resource);
}

#[test]
fn one_shot_searches_skip_unlaunchable_kernels_and_keep_their_reports() {
    let fine = MatMulFine::reduced_problem();
    let points = fine_sample(&fine.space());
    let strategies: [&dyn SearchStrategy; 2] = [&PrunedSearch::default(), &ExhaustiveSearch];
    for strategy in strategies {
        for jobs in [1, 2] {
            let run = |show_launch: bool| {
                let app = Counted::new(&fine, show_launch);
                let source = SpaceSource::new(&app, points.clone());
                let out = traced(jobs, 6, |engine| strategy.run_source(engine, &source, &g80()));
                (out, app.unlaunchable_built())
            };
            let ctx = format!("{} at {jobs} workers", strategy.name());
            let (shown, shown_built) = run(true);
            let (hidden, hidden_built) = run(false);
            assert_eq!(shown_built, 0, "{ctx}");
            assert_eq!(hidden_built, 204, "{ctx}");
            assert_eq!(shown, hidden, "{ctx}");
        }
    }
}

/// A 48-point fine subspace with a `tile=32` slice, for
/// branch-and-bound. Its `legalize` moves bound-probe corners off
/// `tile=32` (no completion there is valid, so any floor is
/// admissible), so the probes generate no unlaunchable kernel and every
/// one the counter sees would be the engine's.
struct FineSubspace(MatMulFine);

impl App for FineSubspace {
    fn name(&self) -> &'static str {
        "fine subspace"
    }

    fn space(&self) -> Space {
        Space::builder()
            .axis("tile", [8u32, 16, 32])
            .axis("rect", [2u32, 4])
            .axis("unroll", [0u32, 2])
            .axis("ounroll", [1u32, 4])
            .axis("prefetch", [false, true])
            .axis("spill", [false])
            .label(|p| MatMulFine::config_of(p).to_string())
            .build()
    }

    fn instantiate(&self, point: &Point) -> Candidate {
        self.0.instantiate(point)
    }

    fn launch(&self, point: &Point) -> Option<Launch> {
        App::launch(&self.0, point)
    }

    fn legalize(&self, space: &Space, values: &mut [Value]) {
        let tile = space.axes().iter().position(|a| a.name() == "tile").expect("tile axis");
        if values[tile].as_u32() == Some(32) {
            values[tile] = Value::from(16u32);
        }
    }
}

#[test]
fn branch_and_bound_skips_unlaunchable_kernels_and_keeps_its_report() {
    let sub = FineSubspace(MatMulFine::reduced_problem());
    let space = sub.space();
    for jobs in [1, 2] {
        let run = |show_launch: bool| {
            let app = Counted::new(&sub, show_launch);
            let out = traced(jobs, 4, |engine| {
                BranchAndBound.run_space(engine, &space, &AppInstantiator(&app), &g80())
            });
            (out, app.unlaunchable_built())
        };
        let (shown, shown_built) = run(true);
        let (hidden, hidden_built) = run(false);
        assert_eq!(shown_built, 0, "bnb at {jobs} workers");
        assert!(hidden_built > 0, "bnb at {jobs} workers never reached tile=32");
        assert_eq!(shown, hidden, "bnb at {jobs} workers");
    }
}
