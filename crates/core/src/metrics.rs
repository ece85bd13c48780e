//! The paper's two performance metrics (section 4).
//!
//! **Efficiency** (Equation 1) estimates how much total work a
//! configuration performs:
//!
//! ```text
//! Efficiency = 1 / (Instr × Threads)
//! ```
//!
//! **Utilization** (Equation 2) estimates how well the compute resources
//! stay fed while warps block:
//!
//! ```text
//! Utilization = (Instr / Regions) × [ (W_TB − 1)/2 + (B_SM − 1)·W_TB ]
//! ```
//!
//! `Instr` is dynamic instructions per thread, `Regions` the number of
//! blocking-delimited intervals, `W_TB` warps per block, `B_SM` resident
//! blocks per SM. "The relative values of these metrics among different
//! configurations is more meaningful than their absolute values."

use gpu_arch::{LaunchError, MachineSpec, Occupancy, ResourceUsage};
use gpu_ir::analysis::{dynamic_counts, instruction_mix, register_pressure, InstrMix};
use gpu_ir::{Kernel, Launch};

/// The static inputs to both metrics, extracted from `-ptx`/`-cubin`
/// analogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticProfile {
    /// Dynamic instructions per thread (`Instr`).
    pub instr: u64,
    /// Blocking-delimited intervals (`Regions`).
    pub regions: u64,
    /// Warps per thread block (`W_TB`).
    pub warps_per_block: u32,
    /// Resident blocks per SM (`B_SM`).
    pub blocks_per_sm: u32,
    /// Total threads launched (`Threads`).
    pub total_threads: u64,
}

/// Knobs for metric variants, used by the ablation benches and the
/// future-work extensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsOptions {
    /// Divide the same-block warp term by two (the paper's barrier
    /// half-progress argument). Disabling this is the `ablation_halfterm`
    /// experiment.
    pub barrier_half_term: bool,
    /// The paper's §7 second future-work item: "account for factors such
    /// as memory access coalescing ... so that they may be more
    /// effective predictors of performance". When set, every uncoalesced
    /// off-chip access is charged as the 16 serialized transactions the
    /// G80 actually issues per half-warp, inflating `Instr` (and thus
    /// deflating Efficiency) for layouts the hardware punishes.
    pub coalescing_aware: bool,
}

impl Default for MetricsOptions {
    fn default() -> Self {
        Self { barrier_half_term: true, coalescing_aware: false }
    }
}

/// The two metric values for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Equation 1. Higher is better.
    pub efficiency: f64,
    /// Equation 2. Higher is better.
    pub utilization: f64,
}

impl Metrics {
    /// Compute both metrics from a profile with default options.
    pub fn from_profile(p: &StaticProfile) -> Self {
        Self::from_profile_with(p, MetricsOptions::default())
    }

    /// Compute both metrics with explicit [`MetricsOptions`].
    pub fn from_profile_with(p: &StaticProfile, opts: MetricsOptions) -> Self {
        let efficiency = 1.0 / (p.instr as f64 * p.total_threads as f64);
        let wtb = f64::from(p.warps_per_block);
        let bsm = f64::from(p.blocks_per_sm);
        let same_block = if opts.barrier_half_term { (wtb - 1.0) / 2.0 } else { wtb - 1.0 };
        let other_blocks = (bsm - 1.0) * wtb;
        let utilization = p.instr as f64 / p.regions as f64 * (same_block + other_blocks);
        Self { efficiency, utilization }
    }

    /// The plotted point `(efficiency, utilization)`.
    pub fn point(&self) -> crate::pareto::Point {
        crate::pareto::Point { x: self.efficiency, y: self.utilization }
    }
}

/// Everything the static "compilation" of one kernel produces: the
/// analog of running `nvcc -ptx -cubin` and the occupancy arithmetic of
/// section 2.2.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Metric inputs.
    pub profile: StaticProfile,
    /// `-cubin`-style resource usage.
    pub usage: ResourceUsage,
    /// Resident-blocks calculation.
    pub occupancy: Occupancy,
    /// Dynamic instruction mix (for the bandwidth screen).
    pub mix: InstrMix,
}

/// Whether `launch` can run on `spec` at all, from its geometry alone:
/// a grid of at least one block, and a block Table 2 admits. This is
/// every [`LaunchError`] that needs no kernel, in the order
/// [`profile_kernel`] reports them, so a search can classify such a
/// configuration as an invalid executable before generating it.
///
/// # Errors
///
/// [`LaunchError::EmptyGrid`], [`LaunchError::EmptyBlock`] or
/// [`LaunchError::BlockTooLarge`], in that order.
pub fn check_launch(launch: &Launch, spec: &MachineSpec) -> Result<(), LaunchError> {
    // A zero-extent grid dimension runs no thread at all, and the
    // occupancy arithmetic never sees the grid, so it is rejected here.
    if launch.grid.is_empty() {
        return Err(LaunchError::EmptyGrid);
    }
    spec.check_block(launch.threads_per_block())
}

/// Statically profile `kernel` under `launch` on `spec`.
///
/// # Errors
///
/// Returns the [`check_launch`] or occupancy [`LaunchError`] for
/// configurations that cannot execute (the paper's "invalid
/// executable", e.g. prefetching pushing register usage past the file
/// size).
pub fn profile_kernel(
    kernel: &Kernel,
    launch: &Launch,
    spec: &MachineSpec,
) -> Result<KernelProfile, LaunchError> {
    check_launch(launch, spec)?;
    // The occupancy verdict needs only the register count, so a kernel
    // that exhausts registers or shared memory skips the counting passes.
    let pressure = register_pressure(kernel);
    let usage =
        ResourceUsage::new(launch.threads_per_block(), pressure.regs_per_thread, kernel.smem_bytes);
    let occupancy = spec.occupancy(&usage)?;
    let counts = dynamic_counts(kernel);
    let mix = instruction_mix(kernel);
    Ok(KernelProfile {
        profile: StaticProfile {
            instr: counts.instrs,
            regions: counts.regions(),
            warps_per_block: occupancy.warps_per_block,
            blocks_per_sm: occupancy.blocks_per_sm,
            total_threads: launch.total_threads(),
        },
        usage,
        occupancy,
        mix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::Dim;

    #[test]
    fn worked_example_matches_paper() {
        // Section 4: Instr = 15150, Regions = 769, W_TB = 8, B_SM = 2,
        // Threads = 2^24 -> Efficiency = 3.93e-12, Utilization = 227.
        let p = StaticProfile {
            instr: 15_150,
            regions: 769,
            warps_per_block: 8,
            blocks_per_sm: 2,
            total_threads: 1 << 24,
        };
        let m = Metrics::from_profile(&p);
        assert!((m.efficiency / 3.933e-12 - 1.0).abs() < 1e-3, "{}", m.efficiency);
        assert!((m.utilization - 226.56).abs() < 0.1, "{}", m.utilization);
    }

    #[test]
    fn efficiency_improves_with_fewer_instructions() {
        let mk = |instr| StaticProfile {
            instr,
            regions: 10,
            warps_per_block: 8,
            blocks_per_sm: 2,
            total_threads: 1 << 20,
        };
        let fast = Metrics::from_profile(&mk(1000));
        let slow = Metrics::from_profile(&mk(2000));
        assert!(fast.efficiency > slow.efficiency);
    }

    #[test]
    fn utilization_zero_when_single_warp_single_block() {
        let p = StaticProfile {
            instr: 1000,
            regions: 10,
            warps_per_block: 1,
            blocks_per_sm: 1,
            total_threads: 32,
        };
        let m = Metrics::from_profile(&p);
        assert_eq!(m.utilization, 0.0);
    }

    #[test]
    fn utilization_rewards_more_blocks() {
        let mk = |bsm| StaticProfile {
            instr: 1000,
            regions: 10,
            warps_per_block: 8,
            blocks_per_sm: bsm,
            total_threads: 1 << 20,
        };
        let one = Metrics::from_profile(&mk(1));
        let three = Metrics::from_profile(&mk(3));
        assert!(three.utilization > one.utilization);
    }

    #[test]
    fn half_term_ablation_changes_only_same_block_share() {
        let p = StaticProfile {
            instr: 1000,
            regions: 10,
            warps_per_block: 9,
            blocks_per_sm: 1,
            total_threads: 1 << 20,
        };
        let half = Metrics::from_profile(&p);
        let full = Metrics::from_profile_with(
            &p,
            MetricsOptions { barrier_half_term: false, ..Default::default() },
        );
        assert!((full.utilization / half.utilization - 2.0).abs() < 1e-12);
    }

    #[test]
    fn profile_kernel_pipeline_end_to_end() {
        let mut b = KernelBuilder::new("k");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(10, |b| {
            let x = b.ld_global(p, 0);
            b.fmad_acc(x, 2.0f32, acc);
            b.sync();
        });
        b.st_global(p, 0, acc);
        let k = b.finish();
        let launch = Launch::new(Dim::new_1d(64), Dim::new_1d(256));
        let spec = MachineSpec::geforce_8800_gtx();
        let kp = profile_kernel(&k, &launch, &spec).unwrap();
        assert_eq!(kp.profile.warps_per_block, 8);
        assert_eq!(kp.profile.total_threads, 64 * 256);
        // 2 prologue + 10 * (2 + 1 sync + 3 overhead) + 1 store
        assert_eq!(kp.profile.instr, 2 + 10 * 6 + 1);
        // one load unit + one sync per iteration + 1
        assert_eq!(kp.profile.regions, 21);
        assert!(kp.usage.regs_per_thread >= 2);
    }

    #[test]
    fn invalid_kernel_is_a_launch_error() {
        // Build a kernel with enormous register pressure at 512 threads.
        let mut b = KernelBuilder::new("fat");
        let p = b.param(0);
        let vals: Vec<_> = (0..40).map(|i| b.ld_global(p, i)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.fadd(acc, v);
        }
        b.st_global(p, 0, acc);
        let k = b.finish();
        let launch = Launch::new(Dim::new_1d(4), Dim::new_1d(512));
        let err = profile_kernel(&k, &launch, &MachineSpec::geforce_8800_gtx()).unwrap_err();
        assert!(matches!(err, LaunchError::RegistersExhausted { .. }));
    }

    #[test]
    fn check_launch_is_the_geometry_half_of_profile_kernel() {
        let spec = MachineSpec::geforce_8800_gtx();
        let k = KernelBuilder::new("k").finish();
        let cases = [
            (Dim::new_2d(4, 0), Dim::new_1d(0), Err(LaunchError::EmptyGrid)),
            (Dim::new_1d(4), Dim::new_2d(32, 0), Err(LaunchError::EmptyBlock)),
            (
                Dim::new_1d(4),
                Dim::new_2d(32, 32),
                Err(LaunchError::BlockTooLarge { threads: 1024, limit: 512 }),
            ),
            (Dim::new_1d(4), Dim::new_2d(16, 32), Ok(())),
        ];
        for (grid, block, want) in cases {
            let launch = Launch::new(grid, block);
            assert_eq!(check_launch(&launch, &spec), want, "{grid} blocks of {block}");
            let profiled = profile_kernel(&k, &launch, &spec).map(|_| ());
            assert_eq!(profiled, want, "{grid} blocks of {block}");
        }
    }
}
