//! Figure 5: CP metrics versus performance across the per-thread tiling
//! factor {1, 2, 4, 8, 16}.
//!
//! Paper shape to check: efficiency improves monotonically and closely
//! tracks execution time at tiling 1–8; utilization worsens
//! monotonically and collapses enough at 16 to counter further
//! efficiency gains. (Lower is better for the plotted reciprocals.)

use gpu_arch::MachineSpec;
use gpu_kernels::cp::{Cp, CpConfig};
use optspace::report::table;
use optspace::tuner::{ExhaustiveSearch, SearchStrategy};

fn main() {
    optspace::cli::no_flags();
    println!("--- full slice (512x512, 128 atoms): occupancy stays high, time keeps improving ---");
    run_sweep(&Cp::paper_problem());
    println!();
    println!(
        "--- narrow slice (512x64, 32 atoms): the paper's shape, optimum at 8, up-tick at 16 ---"
    );
    run_sweep(&Cp::new(512, 64, 32));
}

fn run_sweep(cp: &Cp) {
    let spec = MachineSpec::geforce_8800_gtx();
    let tilings = [1u32, 2, 4, 8, 16];
    let cands: Vec<_> = tilings
        .iter()
        .map(|&t| cp.candidate(&CpConfig { block: 128, tiling: t, coalesced_output: true }))
        .collect();
    let r = ExhaustiveSearch.run(&cands, &spec);

    // Normalise the reciprocals as the paper plots them.
    let evals: Vec<_> = r.statics.iter().flatten().collect();
    let max_inv_eff = evals.iter().map(|e| 1.0 / e.metrics.efficiency).fold(0.0, f64::max);
    let max_inv_util = evals.iter().map(|e| 1.0 / e.metrics.utilization).fold(0.0, f64::max);

    let mut rows = vec![vec![
        "tiling".to_string(),
        "time (ms)".to_string(),
        "1/Efficiency (norm)".to_string(),
        "1/Utilization (norm)".to_string(),
    ]];
    for (i, &t) in tilings.iter().enumerate() {
        let (Some(Some(e)), Some(Some(sim))) = (r.statics.get(i), r.simulated.get(i)) else {
            rows.push(vec![t.to_string(), "-".into(), "-".into(), "-".into()]);
            continue;
        };
        rows.push(vec![
            t.to_string(),
            format!("{:.2}", sim.time_ms),
            format!("{:.3}", (1.0 / e.metrics.efficiency) / max_inv_eff),
            format!("{:.3}", (1.0 / e.metrics.utilization) / max_inv_util),
        ]);
    }
    println!("{}", table(&rows));
    match r.best {
        Some(best) => println!("best tiling factor: {}", tilings[best]),
        None => println!("no tiling could be timed"),
    }
}
