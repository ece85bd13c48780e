//! Engine-level guarantees across real application spaces:
//!
//! * **Memoization** — the MRI-FHD space clusters into
//!   work-per-invocation families (Figure 6(b)); the engine must collapse
//!   its 175 configurations onto 25 unique timing simulations while
//!   reproducing, bit for bit, what a naive per-candidate simulate loop
//!   produces.
//! * **Determinism** — the worker count must not change a single field
//!   of the search report (MatMul and CP spaces at 1/4/8 workers).
//! * **Budgets** — `max_sims` and `deadline_ms` truncate the evaluation
//!   identically at every worker count, and the report records it.

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::ir::linear::linearize;
use gpu_autotune::kernels::{cp::Cp, matmul::MatMul, mri_fhd::MriFhd, App};
use gpu_autotune::optspace::candidate::Candidate;
use gpu_autotune::optspace::engine::{EngineConfig, EvalBudget, EvalEngine, LAUNCH_OVERHEAD_MS};
use gpu_autotune::optspace::tuner::{ExhaustiveSearch, SearchStrategy};
use gpu_autotune::sim::decode::decode;
use gpu_autotune::sim::timing::{simulate, TimingReport};

fn g80() -> MachineSpec {
    MachineSpec::geforce_8800_gtx()
}

/// The pre-engine sequential evaluation of one candidate: linearize,
/// simulate, scale by invocations. The engine must reproduce this
/// exactly, cache or no cache.
fn naive_simulate(c: &Candidate, spec: &MachineSpec) -> Option<TimingReport> {
    let e = c.evaluate(spec).ok()?;
    let prog = decode(&linearize(&c.kernel));
    let mut report = simulate(&prog, &c.launch, &e.kernel_profile.usage, spec, None).ok()?;
    let inv = f64::from(c.invocations);
    report.time_ms = report.time_ms * inv + LAUNCH_OVERHEAD_MS * inv;
    report.total_cycles = (report.total_cycles as f64 * inv).round() as u64;
    report.waves *= inv;
    Some(report)
}

#[test]
fn mri_invocation_clusters_collapse_onto_25_unique_simulations() {
    // 5 block sizes x 5 unroll factors x 7 work-per-invocation splits =
    // 175 configurations, but the 7 splits of each (block, unroll) pair
    // differ only in a top-level trip count — 25 families.
    let spec = g80();
    let cands = MriFhd::new(8192, 2048).candidates();
    assert_eq!(cands.len(), 175);

    let r = ExhaustiveSearch.run(&cands, &spec);
    assert_eq!(r.stats.static_evals, 175);
    assert_eq!(r.stats.timed, r.valid_count());
    assert_eq!(r.stats.unique_sims, 25, "one simulation per (block, unroll) family");
    assert_eq!(r.stats.cache_hits, r.stats.timed - 25);
    assert!(r.stats.cache_hits >= 150 - 25, "the splits must hit the cache");

    // Every report must match the naive per-candidate loop bit for bit.
    for (c, got) in cands.iter().zip(&r.simulated) {
        assert_eq!(got, &naive_simulate(c, &spec), "{}", c.label);
    }
}

#[test]
fn worker_count_does_not_change_search_reports() {
    let spec = g80();
    for (name, cands) in
        [("matmul", MatMul::new(256).candidates()), ("cp", Cp::new(512, 64, 16).candidates())]
    {
        let sequential = ExhaustiveSearch.run(&cands, &spec);
        // The sequential engine path must equal the naive loop...
        for (c, got) in cands.iter().zip(&sequential.simulated) {
            assert_eq!(got, &naive_simulate(c, &spec), "{name}: {}", c.label);
        }
        // ...and the parallel paths must equal the sequential one.
        for jobs in [4usize, 8] {
            let par = ExhaustiveSearch.run_with(&EvalEngine::with_jobs(jobs), &cands, &spec);
            assert_eq!(par.best, sequential.best, "{name} jobs={jobs}");
            assert_eq!(par.simulated, sequential.simulated, "{name} jobs={jobs}");
            assert_eq!(par.statics.len(), sequential.statics.len());
            assert_eq!(par.stats.unique_sims, sequential.stats.unique_sims);
            assert_eq!(par.stats.cache_hits, sequential.stats.cache_hits);
            assert_eq!(par.jobs, jobs);
        }
    }
}

#[test]
fn budgets_truncate_identically_at_every_worker_count() {
    let spec = g80();
    let cands = MatMul::new(256).candidates();

    // Unlimited reference: nothing truncated, budget recorded.
    let full = ExhaustiveSearch.run(&cands, &spec);
    assert!(!full.stats.budget_truncated);
    assert!(full.budget.is_unlimited());

    // max_sims: a hard cap on unique simulations.
    let cap = full.stats.unique_sims / 2;
    assert!(cap >= 1);
    let capped: Vec<_> = [1usize, 4, 8]
        .iter()
        .map(|&jobs| {
            let engine = EvalEngine::new(EngineConfig {
                jobs,
                budget: EvalBudget::with_max_sims(cap),
                ..Default::default()
            });
            ExhaustiveSearch.run_with(&engine, &cands, &spec)
        })
        .collect();
    for r in &capped {
        assert!(r.stats.budget_truncated);
        assert_eq!(r.stats.unique_sims, cap);
        assert_eq!(r.budget.max_sims, Some(cap));
        assert!(r.evaluated_count() < full.evaluated_count());
        assert_eq!(r.simulated, capped[0].simulated, "jobs must not change truncation");
    }

    // deadline_ms: stop once the accumulated simulated time crosses.
    let deadline = full.evaluation_time_ms() / 3.0;
    let dead: Vec<_> = [1usize, 4, 8]
        .iter()
        .map(|&jobs| {
            let engine = EvalEngine::new(EngineConfig {
                jobs,
                budget: EvalBudget::with_deadline_ms(deadline),
                ..Default::default()
            });
            ExhaustiveSearch.run_with(&engine, &cands, &spec)
        })
        .collect();
    for r in &dead {
        assert!(r.stats.budget_truncated);
        assert!(r.evaluated_count() < full.evaluated_count());
        assert!(r.evaluation_time_ms() >= deadline, "the crossing candidate is kept");
        assert_eq!(r.simulated, dead[0].simulated, "jobs must not change truncation");
    }
}
