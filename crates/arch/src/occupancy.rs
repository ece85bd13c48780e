//! The `-cubin`-style occupancy calculation of section 2.2.
//!
//! The CUDA runtime assigns to each SM the maximum number of thread blocks
//! — up to eight — that fits the block's register, shared-memory, and
//! thread budgets. A small change in per-thread register usage can
//! therefore change the resident block count discontinuously; this module
//! reproduces that calculation, including the section 2.2 worked example
//! (256 threads, 10 regs, 4 KB shared → 3 blocks; 11 regs → 2 blocks).

use crate::{LaunchError, MachineSpec};

/// Per-kernel resource usage as reported by `nvcc -cubin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceUsage {
    /// Threads in one thread block.
    pub threads_per_block: u32,
    /// 32-bit registers used by each thread.
    pub regs_per_thread: u32,
    /// Shared memory bytes used by each thread block.
    pub smem_per_block: u32,
}

impl ResourceUsage {
    /// Bundle the three `-cubin` outputs.
    pub fn new(threads_per_block: u32, regs_per_thread: u32, smem_per_block: u32) -> Self {
        Self { threads_per_block, regs_per_thread, smem_per_block }
    }

    /// Registers consumed by one whole block.
    pub fn regs_per_block(&self) -> u32 {
        self.regs_per_thread.saturating_mul(self.threads_per_block)
    }
}

/// Which per-SM budget capped the resident block count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitingFactor {
    /// The hard cap of 8 blocks per SM.
    BlockSlots,
    /// The 768-thread per-SM limit.
    Threads,
    /// The 8 192-register file.
    Registers,
    /// The 16 KB scratchpad.
    SharedMemory,
}

/// Result of the occupancy calculation for one kernel on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// `B_SM` of Equation 2: resident blocks per SM.
    pub blocks_per_sm: u32,
    /// `W_TB` of Equation 2: warps per thread block.
    pub warps_per_block: u32,
    /// Which resource stopped a `blocks_per_sm + 1`-th block from fitting.
    pub limited_by: LimitingFactor,
    /// Resident threads on the SM (`blocks_per_sm * threads_per_block`).
    pub threads_per_sm: u32,
}

impl Occupancy {
    /// Compute the resident block count for `usage` on `spec`.
    ///
    /// # Errors
    ///
    /// Returns a [`LaunchError`] when not even one block fits — the
    /// paper's "invalid executable" case — or when the block shape itself
    /// violates Table 2.
    pub fn compute(spec: &MachineSpec, usage: &ResourceUsage) -> Result<Self, LaunchError> {
        spec.check_block(usage.threads_per_block)?;
        if usage.regs_per_block() > spec.registers_per_sm {
            return Err(LaunchError::RegistersExhausted {
                required: usage.regs_per_block(),
                available: spec.registers_per_sm,
            });
        }
        if usage.smem_per_block > spec.shared_mem_per_sm {
            return Err(LaunchError::SharedMemExhausted {
                required: usage.smem_per_block,
                available: spec.shared_mem_per_sm,
            });
        }

        let by_threads = spec.max_threads_per_sm / usage.threads_per_block;
        let by_regs = spec.registers_per_sm.checked_div(usage.regs_per_block()).unwrap_or(u32::MAX);
        let by_smem = spec.shared_mem_per_sm.checked_div(usage.smem_per_block).unwrap_or(u32::MAX);
        let candidates = [
            (spec.max_blocks_per_sm, LimitingFactor::BlockSlots),
            (by_threads, LimitingFactor::Threads),
            (by_regs, LimitingFactor::Registers),
            (by_smem, LimitingFactor::SharedMemory),
        ];
        // min_by_key keeps the first minimum, so ties report the earlier
        // (coarser) factor; tests pin this ordering.
        let (blocks, limited_by) =
            candidates.into_iter().min_by_key(|&(n, _)| n).expect("candidate list is non-empty");
        debug_assert!(blocks >= 1, "single-block fit was checked above");

        Ok(Occupancy {
            blocks_per_sm: blocks,
            warps_per_block: spec.warps_per_block(usage.threads_per_block),
            limited_by,
            threads_per_sm: blocks * usage.threads_per_block,
        })
    }

    /// Total resident warps on the SM.
    pub fn warps_per_sm(&self) -> u32 {
        self.blocks_per_sm * self.warps_per_block
    }

    /// Fraction of the SM's thread capacity occupied, in `[0, 1]`.
    pub fn thread_occupancy(&self, spec: &MachineSpec) -> f64 {
        f64::from(self.threads_per_sm) / f64::from(spec.max_threads_per_sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g80() -> MachineSpec {
        MachineSpec::geforce_8800_gtx()
    }

    #[test]
    fn section_2_2_example_10_regs_gives_3_blocks() {
        let occ = g80().occupancy(&ResourceUsage::new(256, 10, 4096)).unwrap();
        assert_eq!(occ.blocks_per_sm, 3);
        assert_eq!(occ.threads_per_sm, 768);
        assert_eq!(occ.limited_by, LimitingFactor::Threads);
    }

    #[test]
    fn section_2_2_example_11_regs_drops_to_2_blocks() {
        // 3 blocks would need 3*256*11 = 8448 > 8192 registers.
        let occ = g80().occupancy(&ResourceUsage::new(256, 11, 4096)).unwrap();
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.threads_per_sm, 512);
        assert_eq!(occ.limited_by, LimitingFactor::Registers);
    }

    #[test]
    fn section_2_2_example_extra_smem_kb_does_not_drop_blocks() {
        // Raising the block's shared memory from 4 KB to 5 KB (a 25%
        // increase) still lets 3 blocks fit in 16 KB.
        let occ = g80().occupancy(&ResourceUsage::new(256, 10, 5120)).unwrap();
        assert_eq!(occ.blocks_per_sm, 3);
    }

    #[test]
    fn block_slot_cap_at_8() {
        let occ = g80().occupancy(&ResourceUsage::new(32, 4, 16)).unwrap();
        assert_eq!(occ.blocks_per_sm, 8);
        assert_eq!(occ.limited_by, LimitingFactor::BlockSlots);
    }

    #[test]
    fn matmul_16x16_unrolled_worked_example() {
        // Section 4: 13 registers, 2088 B shared, 256 threads -> B_SM = 2.
        let occ = g80().occupancy(&ResourceUsage::new(256, 13, 2088)).unwrap();
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.warps_per_block, 8);
        assert_eq!(occ.limited_by, LimitingFactor::Registers);
    }

    #[test]
    fn register_overflow_is_invalid_executable() {
        let err = g80().occupancy(&ResourceUsage::new(512, 17, 0)).unwrap_err();
        assert!(matches!(err, LaunchError::RegistersExhausted { .. }));
    }

    #[test]
    fn smem_overflow_is_invalid() {
        let err = g80().occupancy(&ResourceUsage::new(64, 8, 20_000)).unwrap_err();
        assert!(matches!(err, LaunchError::SharedMemExhausted { .. }));
    }

    #[test]
    fn oversized_block_is_invalid() {
        let err = g80().occupancy(&ResourceUsage::new(640, 4, 0)).unwrap_err();
        assert!(matches!(err, LaunchError::BlockTooLarge { .. }));
    }

    #[test]
    fn empty_block_is_invalid() {
        let err = g80().occupancy(&ResourceUsage::new(0, 4, 0)).unwrap_err();
        assert_eq!(err, LaunchError::EmptyBlock);
    }

    #[test]
    fn zero_register_kernel_is_thread_limited() {
        let occ = g80().occupancy(&ResourceUsage::new(512, 0, 0)).unwrap();
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.limited_by, LimitingFactor::Threads);
    }

    #[test]
    fn warps_per_sm_multiplies() {
        let occ = g80().occupancy(&ResourceUsage::new(128, 10, 1024)).unwrap();
        assert_eq!(occ.warps_per_sm(), occ.blocks_per_sm * 4);
    }

    #[test]
    fn thread_occupancy_fraction() {
        let occ = g80().occupancy(&ResourceUsage::new(256, 10, 4096)).unwrap();
        assert!((occ.thread_occupancy(&g80()) - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whenever occupancy succeeds, every per-SM budget is respected
        /// and one more block would break at least one budget.
        #[test]
        fn occupancy_is_maximal_and_feasible(
            threads in 1u32..=512,
            regs in 0u32..=64,
            smem in 0u32..=16_384,
        ) {
            let spec = MachineSpec::geforce_8800_gtx();
            let usage = ResourceUsage::new(threads, regs, smem);
            if let Ok(occ) = spec.occupancy(&usage) {
                let b = occ.blocks_per_sm;
                prop_assert!(b >= 1 && b <= spec.max_blocks_per_sm);
                prop_assert!(b * threads <= spec.max_threads_per_sm);
                prop_assert!(b * usage.regs_per_block() <= spec.registers_per_sm);
                prop_assert!(b * smem <= spec.shared_mem_per_sm);
                // Maximality: b+1 violates some budget (or the slot cap).
                let b1 = b + 1;
                let feasible = b1 <= spec.max_blocks_per_sm
                    && b1 * threads <= spec.max_threads_per_sm
                    && b1 * usage.regs_per_block() <= spec.registers_per_sm
                    && b1 * smem <= spec.shared_mem_per_sm;
                prop_assert!(!feasible);
            }
        }

        /// Increasing register usage never increases the block count.
        #[test]
        fn occupancy_monotone_in_registers(
            threads in 1u32..=512,
            regs in 0u32..=32,
            smem in 0u32..=8_192,
        ) {
            let spec = MachineSpec::geforce_8800_gtx();
            let lo = spec.occupancy(&ResourceUsage::new(threads, regs, smem));
            let hi = spec.occupancy(&ResourceUsage::new(threads, regs + 1, smem));
            match (lo, hi) {
                (Ok(a), Ok(b)) => prop_assert!(b.blocks_per_sm <= a.blocks_per_sm),
                (Err(_), Ok(_)) => prop_assert!(false, "more registers cannot fix a launch"),
                _ => {}
            }
        }
    }
}

/// One row of an occupancy table: how a kernel with fixed per-thread
/// resources occupies the SM at a given block size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyRow {
    /// Threads per block for this row.
    pub threads_per_block: u32,
    /// Resident blocks, zero when the configuration cannot launch.
    pub blocks_per_sm: u32,
    /// Resident warps.
    pub warps_per_sm: u32,
    /// Thread occupancy fraction in `[0, 1]`.
    pub occupancy: f64,
    /// The binding budget, when launchable.
    pub limited_by: Option<LimitingFactor>,
}

/// The CUDA-occupancy-calculator view: sweep block sizes (multiples of
/// the warp size up to the device limit) for a kernel using
/// `regs_per_thread` registers and `smem_per_block` shared bytes.
///
/// The section 3.2 question — "the granularity at which to spawn
/// threads, since each SM can host up to 768 threads" — is this table.
///
/// # Examples
///
/// ```
/// use gpu_arch::{occupancy_table, MachineSpec};
///
/// let spec = MachineSpec::geforce_8800_gtx();
/// let table = occupancy_table(&spec, 10, 4096);
/// // 256-thread blocks reach full occupancy (the §2.2 example).
/// let row = table.iter().find(|r| r.threads_per_block == 256).unwrap();
/// assert_eq!(row.blocks_per_sm, 3);
/// assert!((row.occupancy - 1.0).abs() < 1e-12);
/// ```
pub fn occupancy_table(
    spec: &MachineSpec,
    regs_per_thread: u32,
    smem_per_block: u32,
) -> Vec<OccupancyRow> {
    let mut rows = Vec::new();
    let mut threads = spec.warp_size;
    while threads <= spec.max_threads_per_block {
        let usage = ResourceUsage::new(threads, regs_per_thread, smem_per_block);
        let row = match spec.occupancy(&usage) {
            Ok(occ) => OccupancyRow {
                threads_per_block: threads,
                blocks_per_sm: occ.blocks_per_sm,
                warps_per_sm: occ.warps_per_sm(),
                occupancy: occ.thread_occupancy(spec),
                limited_by: Some(occ.limited_by),
            },
            Err(_) => OccupancyRow {
                threads_per_block: threads,
                blocks_per_sm: 0,
                warps_per_sm: 0,
                occupancy: 0.0,
                limited_by: None,
            },
        };
        rows.push(row);
        threads += spec.warp_size;
    }
    rows
}

#[cfg(test)]
mod table_tests {
    use super::*;

    #[test]
    fn table_covers_warp_multiples() {
        let spec = MachineSpec::geforce_8800_gtx();
        let t = occupancy_table(&spec, 10, 0);
        assert_eq!(t.len(), 16); // 32..512 step 32
        assert_eq!(t[0].threads_per_block, 32);
        assert_eq!(t[15].threads_per_block, 512);
    }

    #[test]
    fn invalid_rows_report_zero() {
        let spec = MachineSpec::geforce_8800_gtx();
        // 17 registers at 512 threads: the §2.2-style invalid case.
        let t = occupancy_table(&spec, 17, 0);
        let row = t.iter().find(|r| r.threads_per_block == 512).unwrap();
        assert_eq!(row.blocks_per_sm, 0);
        assert_eq!(row.limited_by, None);
    }

    #[test]
    fn small_blocks_hit_the_slot_cap() {
        let spec = MachineSpec::geforce_8800_gtx();
        let t = occupancy_table(&spec, 4, 0);
        let row = &t[0]; // 32-thread blocks
        assert_eq!(row.blocks_per_sm, 8);
        assert_eq!(row.limited_by, Some(LimitingFactor::BlockSlots));
        assert!(row.occupancy < 0.5);
    }

    #[test]
    fn occupancy_never_exceeds_one() {
        let spec = MachineSpec::geforce_8800_gtx();
        for regs in [0u32, 8, 16, 32] {
            for smem in [0u32, 4096, 12288] {
                for row in occupancy_table(&spec, regs, smem) {
                    assert!(row.occupancy <= 1.0 + 1e-12);
                }
            }
        }
    }
}
