//! Branch-and-bound over partially specified points (ROADMAP item 2,
//! after Telamon's "prune subspaces, not candidates"): best-first search
//! guided by an admissible lower bound must return *exactly* the
//! optimum exhaustive evaluation finds — on every paper space — while
//! simulating strictly fewer configurations, and its reports must stay
//! byte-identical whatever `--jobs` is.
//!
//! The always-on tests run problem sizes scaled for debug builds; the
//! `#[ignore]`d tests run the full bench-scale spaces (run them with
//! `cargo test --release -- --ignored`).

use std::sync::Arc;

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::kernels::{
    cp::Cp, matmul::MatMul, mri_fhd::MriFhd, sad::Sad, App, AppInstantiator, SpaceSource,
};
use gpu_autotune::optspace::engine::{EngineConfig, EvalEngine};
use gpu_autotune::optspace::model::{LowerBound, MinFloorBound};
use gpu_autotune::optspace::obs::EventSink;
use gpu_autotune::optspace::space::Space;
use gpu_autotune::optspace::tuner::{BranchAndBound, ExhaustiveSearch, SearchStrategy};
use proptest::prelude::*;

fn engine_with_jobs(jobs: usize) -> EvalEngine {
    EvalEngine::new(EngineConfig { jobs, ..Default::default() })
}

/// B&B returns the exhaustive optimum with strictly fewer unique
/// simulations and a nonzero count of configurations eliminated before
/// instantiation.
fn assert_bnb_matches_exhaustive(app: &dyn App) {
    let spec = MachineSpec::geforce_8800_gtx();
    let engine = engine_with_jobs(1);
    let space = app.space();
    let exhaustive = ExhaustiveSearch.run_source(&engine, &SpaceSource::full(app), &spec);
    let bnb = BranchAndBound.run_space(&engine, &space, &AppInstantiator(app), &spec);

    let best = exhaustive.best_time_ms().expect("space has valid configs");
    let bnb_best = bnb.best_time_ms().expect("bnb times at least the optimum");
    assert!(
        (bnb_best / best - 1.0).abs() < 1e-9,
        "{}: bnb best {bnb_best} ms != exhaustive best {best} ms",
        app.name(),
    );
    // Same point, not merely the same time: the deterministic
    // tie-breaking must agree with exhaustive enumeration order.
    assert_eq!(bnb.best, exhaustive.best, "{}: best index drifted", app.name());
    assert!(
        bnb.stats.unique_sims < exhaustive.stats.unique_sims,
        "{}: bnb simulated {} of exhaustive's {} — no pruning happened",
        app.name(),
        bnb.stats.unique_sims,
        exhaustive.stats.unique_sims,
    );
    assert!(
        bnb.stats.bound_pruned_subspaces > 0 && bnb.stats.bound_pruned_points > 0,
        "{}: pruned {} subspaces / {} points — the bound never fired",
        app.name(),
        bnb.stats.bound_pruned_subspaces,
        bnb.stats.bound_pruned_points,
    );
}

#[test]
fn matmul_reduced() {
    assert_bnb_matches_exhaustive(&MatMul::new(256));
}

#[test]
fn cp_reduced() {
    assert_bnb_matches_exhaustive(&Cp::new(512, 64, 16));
}

#[test]
fn sad_reduced() {
    assert_bnb_matches_exhaustive(&Sad::test_problem());
}

#[test]
fn mri_reduced() {
    assert_bnb_matches_exhaustive(&MriFhd::new(8192, 1024));
}

#[test]
#[ignore = "bench-scale; run with --release -- --ignored"]
fn matmul_bench_scale() {
    assert_bnb_matches_exhaustive(&MatMul::reduced_problem());
}

#[test]
#[ignore = "bench-scale; run with --release -- --ignored"]
fn cp_bench_scale() {
    assert_bnb_matches_exhaustive(&Cp::paper_problem());
}

#[test]
#[ignore = "bench-scale; run with --release -- --ignored"]
fn sad_bench_scale() {
    assert_bnb_matches_exhaustive(&Sad::paper_problem());
}

#[test]
#[ignore = "bench-scale; run with --release -- --ignored"]
fn mri_bench_scale() {
    assert_bnb_matches_exhaustive(&MriFhd::paper_problem());
}

/// The whole deterministic report surface — best index, per-point
/// timings, engine counters, and the serialized deterministic metrics
/// JSON — is byte-identical at `--jobs` 1, 2, and 8.
#[test]
fn reports_are_byte_identical_across_jobs() {
    let spec = MachineSpec::geforce_8800_gtx();
    let app = Cp::new(512, 64, 16);
    let space = app.space();
    let baseline =
        BranchAndBound.run_space(&engine_with_jobs(1), &space, &AppInstantiator(&app), &spec);
    let base_json = baseline.metrics.deterministic_json().to_string_pretty();
    for jobs in [2usize, 8] {
        let r = BranchAndBound.run_space(
            &engine_with_jobs(jobs),
            &space,
            &AppInstantiator(&app),
            &spec,
        );
        assert_eq!(r.best, baseline.best, "best index drifted at jobs={jobs}");
        assert_eq!(r.simulated, baseline.simulated, "timings drifted at jobs={jobs}");
        assert_eq!(
            r.stats.bound_pruned_subspaces, baseline.stats.bound_pruned_subspaces,
            "prune accounting drifted at jobs={jobs}"
        );
        assert_eq!(r.stats.bound_pruned_points, baseline.stats.bound_pruned_points);
        assert_eq!(
            r.metrics.deterministic_json().to_string_pretty(),
            base_json,
            "deterministic metrics JSON not byte-identical at jobs={jobs}"
        );
    }
}

/// Trace events name a candidate by its index in the searched space,
/// not by its position in the round's batch: every `sim.done` event
/// points at the report entry holding the same timing.
#[test]
fn sim_done_events_name_space_indices() {
    let spec = MachineSpec::geforce_8800_gtx();
    let app = Cp::new(512, 64, 16);
    let sink = Arc::new(EventSink::new());
    let engine = engine_with_jobs(2).with_sink(Arc::clone(&sink));
    let report = BranchAndBound.run_space(&engine, &app.space(), &AppInstantiator(&app), &spec);
    let trace = sink.drain();
    let done = trace.named("sim.done");
    assert!(!done.is_empty(), "bnb timed nothing");
    for event in done {
        let field = |key: &str| {
            event.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v).expect("sim.done field")
        };
        let i = field("candidate").as_u64().expect("candidate index") as usize;
        let time_ms = field("time_ms").as_f64().expect("time");
        let timed = report.simulated.get(i).and_then(Option::as_ref);
        assert_eq!(timed.map(|t| t.time_ms), Some(time_ms), "sim.done names candidate #{i}");
    }
}

/// A closed-form per-point cost over a synthetic space: cheap enough
/// for the proptest to evaluate `MinFloorBound` exactly.
fn synthetic_space() -> Space {
    Space::builder()
        .axis("a", [1u32, 2, 4, 8])
        .axis("b", [1u32, 2, 3, 5, 7])
        .axis("c", [0u32, 1])
        .constraint("a stays below 8b", |p| p.u32("a") < 8 * p.u32("b"))
        .build()
}

fn synthetic_cost(a: u32, b: u32, c: u32) -> f64 {
    // Non-monotone in each axis so the minimum genuinely moves around.
    let waste = (a as f64 - 3.0).abs() + (b as f64 * 1.5 - 4.0).abs();
    waste + if c == 1 { 0.25 } else { 0.9 }
}

proptest! {
    /// The monotonicity contract, over random partial bindings: binding
    /// one more axis never *decreases* the bound, and on a fully bound
    /// point the bound equals (≤, and for `MinFloorBound` exactly) the
    /// true model cost.
    #[test]
    fn bound_is_monotone_under_random_bindings(
        a_idx in 0usize..4,
        b_idx in 0usize..5,
        c_idx in 0usize..2,
        order in 0usize..6,
    ) {
        let space = synthetic_space();
        let bound = MinFloorBound::new(|p| {
            synthetic_cost(p.u32("a"), p.u32("b"), p.u32("c"))
        });
        // One of the six axis orders, so bindings arrive in any order.
        let orders = [
            ["a", "b", "c"], ["a", "c", "b"], ["b", "a", "c"],
            ["b", "c", "a"], ["c", "a", "b"], ["c", "b", "a"],
        ];
        let idx_of = |name: &str| match name {
            "a" => a_idx,
            "b" => b_idx,
            _ => c_idx,
        };
        let mut partial = space.partial();
        let mut last = bound.bound_ms(&partial);
        for name in orders[order] {
            let axis = space.axis(name).expect("declared axis");
            let value = axis.values()[idx_of(name)];
            let next = partial.bind(name, value).expect("value from the declared domain");
            let next_bound = bound.bound_ms(&next);
            prop_assert!(
                next_bound >= last - 1e-12,
                "binding {name} dropped the bound: {last} -> {next_bound}"
            );
            partial = next;
            last = next_bound;
        }
        // A constraint-excluded assignment bounds to +inf (the minimum
        // over zero completions) — monotone, but with no cost to equal.
        if partial.admitted_count() == 0 {
            prop_assert!(last.is_infinite(), "empty subspace must bound to +inf, got {last}");
            continue;
        }
        // Fully bound and admitted: the bound is exact for MinFloorBound.
        let point = partial.as_point().expect("all axes bound");
        let truth = synthetic_cost(point.u32("a"), point.u32("b"), point.u32("c"));
        prop_assert!((last - truth).abs() < 1e-12, "leaf bound {last} != cost {truth}");
    }
}

/// Root-level sanity for the same contract: the root bound is the
/// minimum cost over the whole admitted space.
#[test]
fn root_bound_is_global_minimum() {
    let space = synthetic_space();
    let bound = MinFloorBound::new(|p| synthetic_cost(p.u32("a"), p.u32("b"), p.u32("c")));
    let root = bound.bound_ms(&space.partial());
    let min = space
        .points()
        .map(|p| synthetic_cost(p.u32("a"), p.u32("b"), p.u32("c")))
        .fold(f64::INFINITY, f64::min);
    assert!((root - min).abs() < 1e-12);
}
