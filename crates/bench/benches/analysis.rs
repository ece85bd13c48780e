//! Throughput of the static-analysis pipeline — the operations the
//! paper's methodology performs *per configuration* instead of a run:
//! "computing the efficiency and utilization metrics is relatively fast
//! ... allowing for fast exploration of the search space."

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_arch::MachineSpec;
use gpu_ir::analysis::{dynamic_counts, instruction_mix, register_pressure};
use gpu_ir::linear::linearize;
use gpu_kernels::matmul::{MatMul, MatMulConfig, MatMulFine, MatMulFineConfig};
use optspace::metrics::profile_kernel;
use optspace::pareto::{pareto_indices, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_analyses(c: &mut Criterion) {
    let mm = MatMul::paper_problem();
    let cfg = MatMulConfig { tile: 16, rect: 4, unroll: 0, prefetch: true, spill: false };
    let kernel = mm.generate(&cfg);
    let launch = mm.launch(&cfg);
    let spec = MachineSpec::geforce_8800_gtx();

    let mut g = c.benchmark_group("static-analysis");
    g.bench_function("dynamic_counts", |b| {
        b.iter(|| black_box(dynamic_counts(black_box(&kernel))))
    });
    g.bench_function("register_pressure", |b| {
        b.iter(|| black_box(register_pressure(black_box(&kernel))))
    });
    g.bench_function("instruction_mix", |b| {
        b.iter(|| black_box(instruction_mix(black_box(&kernel))))
    });
    g.bench_function("profile_kernel (full -ptx/-cubin analog)", |b| {
        b.iter(|| black_box(profile_kernel(black_box(&kernel), &launch, &spec)))
    });
    g.bench_function("linearize", |b| b.iter(|| black_box(linearize(black_box(&kernel)))));
    g.bench_function("generate (incl. pass pipeline)", |b| {
        b.iter(|| black_box(mm.generate(black_box(&cfg))))
    });
    g.finish();
}

/// Generation and static evaluation, the two layers a fine-grid search
/// pays per point, on the heaviest corners of the fine matmul grid: the
/// largest inner and outer unroll, with and without spilling, and a
/// remainder-unrolled shape.
fn bench_fine_points(c: &mut Criterion) {
    let fine = MatMulFine::reduced_problem();
    let spec = MachineSpec::geforce_8800_gtx();
    let cfg = |tile, rect, unroll, ounroll, spill| MatMulFineConfig {
        tile,
        rect,
        unroll,
        ounroll,
        prefetch: true,
        spill,
    };
    let points = [
        cfg(16, 4, 63, 16, false),
        cfg(16, 4, 63, 16, true),
        cfg(32, 2, 63, 16, true),
        cfg(16, 8, 7, 15, true),
    ];
    let mut g = c.benchmark_group("fine matmul generate + profile_kernel");
    for cfg in &points {
        let label = cfg.to_string();
        g.bench_with_input(BenchmarkId::new("generate", &label), cfg, |b, cfg| {
            b.iter(|| black_box(fine.generate(black_box(cfg))))
        });
        let kernel = fine.generate(cfg);
        let launch = fine.launch(cfg);
        g.bench_with_input(BenchmarkId::new("profile_kernel", &label), &kernel, |b, k| {
            b.iter(|| black_box(profile_kernel(black_box(k), &launch, &spec)))
        });
    }
    g.finish();
}

fn bench_pareto(c: &mut Criterion) {
    let mut g = c.benchmark_group("pareto");
    for n in [100usize, 1_000, 10_000] {
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<Point> =
            (0..n).map(|_| Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))).collect();
        g.bench_with_input(BenchmarkId::new("pareto_indices", n), &pts, |b, pts| {
            b.iter(|| black_box(pareto_indices(black_box(pts))))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_analyses, bench_fine_points, bench_pareto);
criterion_main!(benches);
