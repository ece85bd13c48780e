//! Table 3: the application suite and speedup of the best GPU
//! configuration over the single-thread CPU reference.
//!
//! Paper shape to check: the ordering CP >> MRI-FHD >> MatMul ~ SAD.
//! Absolute factors differ (the CPU here is a modern core running the
//! Rust reference; the GPU is the simulated 2007-era G80, and — like
//! the paper — we run reduced inputs), but compute-dense kernels with
//! SFU-friendly math must show the largest wins.

use gpu_arch::MachineSpec;
use gpu_kernels::{cp::Cp, matmul::MatMul, mri_fhd::MriFhd, sad::Sad, App, SpaceSource};
use optspace::engine::EvalEngine;
use optspace::report::{fmt_ms, table};
use optspace::tuner::{ExhaustiveSearch, SearchStrategy};
use std::time::Instant;

fn time_cpu(mut f: impl FnMut()) -> f64 {
    // One warmup, then best of three.
    f();
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    optspace::cli::no_flags();
    let spec = MachineSpec::geforce_8800_gtx();
    let engine = EvalEngine::default();
    let mut rows = vec![vec![
        "Application".to_string(),
        "Space".to_string(),
        "CPU ref".to_string(),
        "GPU best (sim)".to_string(),
        "Speedup".to_string(),
    ]];

    let mut add = |name: &str, cpu_ms: f64, app: &dyn App| {
        // Space size comes from the declared space, never a hand count —
        // the same `Space::len()` every search strategy sees.
        let size = app.space().len();
        let r = ExhaustiveSearch.run_source(&engine, &SpaceSource::full(app), &spec);
        let Some(gpu_ms) = r.best_time_ms() else {
            rows.push(vec![
                name.to_string(),
                size.to_string(),
                fmt_ms(cpu_ms),
                "-".into(),
                "-".into(),
            ]);
            return;
        };
        rows.push(vec![
            name.to_string(),
            size.to_string(),
            fmt_ms(cpu_ms),
            fmt_ms(gpu_ms),
            format!("{:.1}x", cpu_ms / gpu_ms),
        ]);
    };

    {
        let mm = MatMul::reduced_problem();
        let (mem, _) = mm.setup(1);
        let cpu = time_cpu(|| {
            std::hint::black_box(mm.cpu_reference_fast(&mem));
        });
        add("Matrix Multiplication", cpu, &mm);
    }
    {
        let cp = Cp::paper_problem();
        let (mem, _) = cp.setup(1);
        let cpu = time_cpu(|| {
            std::hint::black_box(cp.cpu_reference(&mem));
        });
        add("CP", cpu, &cp);
    }
    {
        let sad = Sad::paper_problem();
        let (mem, _) = sad.setup(1);
        let cpu = time_cpu(|| {
            std::hint::black_box(sad.cpu_reference(&mem));
        });
        add("SAD", cpu, &sad);
    }
    {
        let mri = MriFhd::paper_problem();
        let (mem, _) = mri.setup(1);
        let cpu = time_cpu(|| {
            std::hint::black_box(mri.cpu_reference(&mem));
        });
        add("MRI-FHD", cpu, &mri);
    }
    println!("{}", table(&rows));
}
