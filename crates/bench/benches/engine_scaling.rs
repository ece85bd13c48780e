//! Evaluation-engine scaling: exhaustive-search throughput over the SAD
//! space at 1/2/4/8 workers. The report must be identical at every
//! worker count (the engine reassembles by candidate index); the point
//! of the sweep is the wall-clock curve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_arch::MachineSpec;
use gpu_kernels::sad::Sad;
use gpu_kernels::App;
use optspace::engine::EvalEngine;
use optspace::tuner::{ExhaustiveSearch, SearchStrategy};
use std::hint::black_box;

fn bench_engine_scaling(c: &mut Criterion) {
    let spec = MachineSpec::geforce_8800_gtx();
    let cands = Sad::paper_problem().candidates();

    // The multi-worker runs must land on the same best configuration as
    // the sequential reference — guard before measuring.
    let reference = ExhaustiveSearch.run(&cands, &spec);
    for jobs in [2usize, 4, 8] {
        let r = ExhaustiveSearch.run_with(&EvalEngine::with_jobs(jobs), &cands, &spec);
        assert_eq!(r.best, reference.best, "jobs={jobs} diverged from sequential best");
    }

    let mut g = c.benchmark_group("engine_scaling");
    g.sample_size(2);
    for jobs in [1usize, 2, 4, 8] {
        let engine = EvalEngine::with_jobs(jobs);
        g.bench_with_input(BenchmarkId::new("exhaustive sad", jobs), &engine, |b, engine| {
            b.iter(|| black_box(ExhaustiveSearch.run_with(engine, black_box(&cands), &spec)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engine_scaling);
criterion_main!(benches);
