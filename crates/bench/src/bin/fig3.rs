//! Figure 3: matrix multiplication performance across the abbreviated
//! optimization space (spill off): {8x8, 16x16} tiles x {1x1, 1x2, 1x4}
//! rectangular tiling x unroll {1, 2, 4, complete} x {normal, prefetch}.
//!
//! Paper shape to check: every 16x16 configuration beats every 8x8 one
//! (the 8x8 tiles are bandwidth-bound), and the best configuration is
//! 16x16 / 1x4 / complete unroll.

use gpu_arch::MachineSpec;
use gpu_kernels::matmul::MatMul;
use optspace::report::{fmt_ms, table};
use optspace::tuner::{ExhaustiveSearch, SearchStrategy};

fn main() {
    optspace::cli::no_flags();
    let spec = MachineSpec::geforce_8800_gtx();
    let mm = MatMul::paper_problem();
    let cfgs = mm.figure3_space();
    let cands: Vec<_> = cfgs.iter().map(|c| mm.candidate(c)).collect();
    let r = ExhaustiveSearch.run(&cands, &spec);

    let mut rows = vec![vec![
        "config".to_string(),
        "time".to_string(),
        "regs".to_string(),
        "B_SM".to_string(),
        "bw-bound".to_string(),
    ]];
    for (i, c) in cands.iter().enumerate() {
        let (time, regs, bsm, bound) = match (&r.statics[i], &r.simulated[i]) {
            (Some(e), Some(t)) => (
                fmt_ms(t.time_ms),
                e.kernel_profile.usage.regs_per_thread.to_string(),
                e.kernel_profile.occupancy.blocks_per_sm.to_string(),
                if e.bandwidth.is_bandwidth_bound() { "yes" } else { "" }.to_string(),
            ),
            _ => ("INVALID".into(), "-".into(), "-".into(), "-".into()),
        };
        rows.push(vec![c.label.clone(), time, regs, bsm, bound]);
    }
    println!("{}", table(&rows));
    if let (Some(best), Some(t)) = (r.best, r.best_time_ms()) {
        println!("optimal configuration: {} ({})", cands[best].label, fmt_ms(t));
    }
}
