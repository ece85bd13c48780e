//! Throughput of the two execution engines: the cycle-approximate
//! timing simulator (our wall-clock stand-in) and the functional
//! interpreter (our correctness ground truth).

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_arch::MachineSpec;
use gpu_ir::linear::linearize;
use gpu_kernels::cp::{Cp, CpConfig};
use gpu_kernels::matmul::{MatMul, MatMulConfig};
use gpu_kernels::mri_fhd::{MriConfig, MriFhd};
use gpu_kernels::sad::{Sad, SadConfig};
use gpu_sim::decode::decode;
use gpu_sim::interp::run_kernel;
use gpu_sim::timing::simulate;
use optspace::candidate::Candidate;
use std::hint::black_box;

fn bench_timing(c: &mut Criterion) {
    let spec = MachineSpec::geforce_8800_gtx();
    let mut g = c.benchmark_group("timing-sim");
    g.sample_size(20);

    let mm = MatMul::reduced_problem();
    let cfg = MatMulConfig { tile: 16, rect: 1, unroll: 0, prefetch: false, spill: false };
    let cand = mm.candidate(&cfg);
    let e = cand.evaluate(&spec).expect("valid");
    let prog = linearize(&cand.kernel);
    g.bench_function("matmul 512 / 16x16 / complete unroll", |b| {
        b.iter(|| {
            black_box(
                simulate(&decode(&prog), &cand.launch, &e.kernel_profile.usage, &spec, None)
                    .expect("valid"),
            )
        })
    });

    let cp = Cp::paper_problem();
    let ccfg = CpConfig { block: 128, tiling: 4, coalesced_output: true };
    let ccand = cp.candidate(&ccfg);
    let ce = ccand.evaluate(&spec).expect("valid");
    let cprog = linearize(&ccand.kernel);
    g.bench_function("cp 512x512 / 128 threads / tiling 4", |b| {
        b.iter(|| {
            black_box(
                simulate(&decode(&cprog), &ccand.launch, &ce.kernel_profile.usage, &spec, None)
                    .expect("valid"),
            )
        })
    });
    g.finish();
}

/// One decoded-vs-legacy pair per paper application: the seed engine
/// (`gpu_sim::legacy`) re-walks the nested `LinearProgram` every step,
/// the decoded engine runs the flat op arena built once up front. The
/// decode itself is hoisted out of the measured loop on the decoded
/// side — the engine cache amortises it across a whole tuning run — so
/// the pair isolates the steady-state per-simulation cost.
fn bench_decoded_vs_legacy(c: &mut Criterion) {
    let spec = MachineSpec::geforce_8800_gtx();
    let mut g = c.benchmark_group("decoded-vs-legacy");
    g.sample_size(20);

    let cands: Vec<(&str, Candidate)> = vec![
        (
            "matmul",
            MatMul::reduced_problem().candidate(&MatMulConfig {
                tile: 16,
                rect: 1,
                unroll: 0,
                prefetch: false,
                spill: false,
            }),
        ),
        (
            "cp",
            Cp::paper_problem().candidate(&CpConfig {
                block: 128,
                tiling: 4,
                coalesced_output: true,
            }),
        ),
        (
            "sad",
            Sad::paper_problem().candidate(&SadConfig {
                tpb: 64,
                mb_tiling: 1,
                pos_unroll: 1,
                row_unroll: 1,
                col_unroll: 1,
            }),
        ),
        (
            "mri-fhd",
            MriFhd::paper_problem().candidate(&MriConfig { block: 128, unroll: 4, invocations: 1 }),
        ),
    ];

    for (name, cand) in &cands {
        let e = cand.evaluate(&spec).expect("valid");
        let usage = e.kernel_profile.usage;
        let prog = linearize(&cand.kernel);
        let dec = decode(&prog);
        g.bench_function(format!("{name} legacy"), |b| {
            b.iter(|| {
                black_box(
                    gpu_sim::legacy::timing::simulate(&prog, &cand.launch, &usage, &spec)
                        .expect("valid"),
                )
            })
        });
        g.bench_function(format!("{name} decoded"), |b| {
            b.iter(|| black_box(simulate(&dec, &cand.launch, &usage, &spec, None).expect("valid")))
        });
    }
    g.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let mut g = c.benchmark_group("interpreter");
    g.sample_size(10);
    let mm = MatMul::test_problem();
    let cfg = MatMulConfig { tile: 16, rect: 1, unroll: 0, prefetch: false, spill: false };
    let kernel = mm.generate(&cfg);
    let prog = linearize(&kernel);
    let launch = mm.launch(&cfg);
    let (mem0, params) = mm.setup(3);
    g.bench_function("matmul 64x64 functional run", |b| {
        b.iter(|| {
            let mut mem = mem0.clone();
            run_kernel(&prog, &launch, &params, &mut mem).expect("runs");
            black_box(mem.global[0])
        })
    });
    g.finish();
}

criterion_group!(benches, bench_timing, bench_decoded_vs_legacy, bench_interpreter);
criterion_main!(benches);
