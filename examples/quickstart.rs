//! Quickstart: statically evaluate one kernel configuration the way the
//! paper does with `nvcc -ptx`/`-cubin`, then time it on the simulated
//! GeForce 8800 GTX.
//!
//! Run with: `cargo run --release --example quickstart`

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::kernels::matmul::{MatMul, MatMulConfig};
use gpu_autotune::optspace::report::fmt_ms;

fn main() {
    let spec = MachineSpec::geforce_8800_gtx();

    // The section 4 worked example: 16x16 tiles, complete unroll.
    let mm = MatMul::paper_problem();
    let cfg = MatMulConfig { tile: 16, rect: 1, unroll: 0, prefetch: false, spill: false };
    let candidate = mm.candidate(&cfg);

    // Static evaluation: dynamic instruction count, blocking regions,
    // register/shared-memory usage, occupancy, and the two metrics.
    let eval = candidate.evaluate(&spec).expect("configuration is launchable");
    let p = &eval.kernel_profile;
    println!("configuration:        {}", candidate.label);
    println!("dynamic instructions: {}", p.profile.instr);
    println!("blocking regions:     {}", p.profile.regions);
    println!("registers/thread:     {}", p.usage.regs_per_thread);
    println!("shared mem/block:     {} bytes", p.usage.smem_per_block);
    println!("blocks per SM (B_SM): {}", p.occupancy.blocks_per_sm);
    println!("warps per block:      {}", p.profile.warps_per_block);
    println!("Efficiency:           {:.3e}", eval.metrics.efficiency);
    println!("Utilization:          {:.1}", eval.metrics.utilization);
    println!(
        "bandwidth pressure:   {:.2} ({})",
        eval.bandwidth.pressure(),
        if eval.bandwidth.is_bandwidth_bound() { "bandwidth-bound" } else { "compute-bound" }
    );

    // Timing simulation — the stand-in for a wall-clock run.
    let prog =
        gpu_autotune::sim::decode::decode(&gpu_autotune::ir::linear::linearize(&candidate.kernel));
    let report =
        gpu_autotune::sim::timing::simulate(&prog, &candidate.launch, &p.usage, &spec, None)
            .expect("launchable");
    println!("simulated time:       {}", fmt_ms(report.time_ms));
    println!("issue utilization:    {:.0}%", report.issue_utilization() * 100.0);

    // And the PTX-style listing a developer would inspect.
    println!("\n--- kernel head (PTX view) ---");
    let ptx = gpu_autotune::ir::print::to_ptx(&candidate.kernel);
    for line in ptx.lines().take(14) {
        println!("{line}");
    }
}
