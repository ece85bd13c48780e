//! Hardware constants of the modelled device.
//!
//! Table 2 of the paper lists the per-SM resource limits enforced by the
//! CUDA runtime; the prose of section 2.1 supplies clock rate, SM/SP
//! counts, memory latency, and off-chip bandwidth. All of those live in
//! [`MachineSpec`] so that the occupancy calculator, the timing simulator,
//! and the performance metrics all read from a single source of truth.

use crate::occupancy::{Occupancy, ResourceUsage};
use crate::LaunchError;

/// Static description of a CUDA-generation GPU.
///
/// The default construction, [`MachineSpec::geforce_8800_gtx`], encodes the
/// GeForce 8800 GTX studied by the paper. All fields are public because the
/// struct is a passive record of hardware constants (C-STRUCT-PRIVATE
/// exception for "C-spirit" data); invariants are checked by
/// [`MachineSpec::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Number of streaming multiprocessors. 16 on the 8800 GTX.
    pub num_sms: u32,
    /// Streaming processors (scalar cores) per SM. 8 on the 8800 GTX.
    pub sps_per_sm: u32,
    /// Special functional units per SM (rsqrt/sin/cos). 2 on the 8800 GTX.
    pub sfus_per_sm: u32,
    /// Shader clock in Hz. 1.35 GHz on the 8800 GTX.
    pub clock_hz: f64,
    /// SIMD width of a warp. 32 threads.
    pub warp_size: u32,
    /// Cycles for one warp instruction to issue across the SPs
    /// (32 threads / 8 SPs = 4 cycles).
    pub issue_cycles_per_warp: u32,

    // ---- Table 2: per-SM limits ----
    /// Maximum resident threads per SM (768).
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM (8).
    pub max_blocks_per_sm: u32,
    /// 32-bit registers per SM (8 192).
    pub registers_per_sm: u32,
    /// Shared memory bytes per SM (16 384).
    pub shared_mem_per_sm: u32,
    /// Maximum threads per thread block (512).
    pub max_threads_per_block: u32,

    // ---- Memory system (Table 1 prose + section 2.1) ----
    /// Off-chip global memory bandwidth in bytes/second (86.4 GB/s).
    pub global_bandwidth_bytes_per_sec: f64,
    /// Global (and texture-miss) memory latency in cycles; the paper quotes
    /// 200–300, we keep the range and let the simulator pick within it.
    pub global_latency_min: u32,
    /// Upper end of the global latency range.
    pub global_latency_max: u32,
    /// Dependent-use latency of register-to-register arithmetic, in cycles.
    /// G80's pipeline exposes roughly 24 cycles (hidden with ≥6 warps).
    pub arith_latency: u32,
    /// Latency of SFU transcendental operations, in cycles.
    pub sfu_latency: u32,
    /// Issue interval of SFU ops per warp (2 SFUs serve 32 lanes: 16 cycles).
    pub sfu_issue_cycles: u32,
    /// Shared-memory access latency; "~register latency" per Table 1.
    pub shared_latency: u32,
    /// Constant-cache hit latency; "~register latency" per Table 1.
    pub constant_latency: u32,
    /// Bytes fetched by one coalesced half-warp transaction (64).
    pub coalesced_transaction_bytes: u32,
    /// Bytes fetched by each serialized transaction when a half-warp's
    /// accesses cannot be coalesced (the G80 issues one ≥32-byte
    /// transaction per thread).
    pub uncoalesced_transaction_bytes: u32,
}

impl MachineSpec {
    /// The GeForce 8800 GTX exactly as characterised in the paper.
    ///
    /// # Examples
    ///
    /// ```
    /// let spec = gpu_arch::MachineSpec::geforce_8800_gtx();
    /// assert_eq!(spec.num_sms, 16);
    /// assert_eq!(spec.max_threads_per_sm, 768);
    /// // 16 SM * 18 FLOP/SM * 1.35 GHz = 388.8 GFLOPS (section 2.1)
    /// assert!((spec.peak_gflops() - 388.8).abs() < 1e-9);
    /// ```
    pub fn geforce_8800_gtx() -> Self {
        Self {
            num_sms: 16,
            sps_per_sm: 8,
            sfus_per_sm: 2,
            clock_hz: 1.35e9,
            warp_size: 32,
            issue_cycles_per_warp: 4,
            max_threads_per_sm: 768,
            max_blocks_per_sm: 8,
            registers_per_sm: 8_192,
            shared_mem_per_sm: 16_384,
            max_threads_per_block: 512,
            global_bandwidth_bytes_per_sec: 86.4e9,
            global_latency_min: 200,
            global_latency_max: 300,
            arith_latency: 24,
            sfu_latency: 36,
            sfu_issue_cycles: 16,
            shared_latency: 24,
            constant_latency: 24,
            coalesced_transaction_bytes: 64,
            uncoalesced_transaction_bytes: 32,
        }
    }

    /// A hypothetical next-generation part in the spirit of the GT200
    /// (GeForce GTX 280): more SMs, a register file twice the size,
    /// a deeper thread budget, and more DRAM bandwidth. The paper's
    /// introduction notes that "successive generations of architectures
    /// require a complete reapplication of the optimization process to
    /// achieve the maximum performance for the new system" — this spec
    /// exists so that claim can be demonstrated (see the `crossdevice`
    /// experiment).
    ///
    /// # Examples
    ///
    /// ```
    /// let next = gpu_arch::MachineSpec::gtx_280_like();
    /// assert_eq!(next.registers_per_sm, 16_384);
    /// next.validate().unwrap();
    /// ```
    pub fn gtx_280_like() -> Self {
        Self {
            num_sms: 30,
            sps_per_sm: 8,
            sfus_per_sm: 2,
            clock_hz: 1.296e9,
            warp_size: 32,
            issue_cycles_per_warp: 4,
            max_threads_per_sm: 1_024,
            max_blocks_per_sm: 8,
            registers_per_sm: 16_384,
            shared_mem_per_sm: 16_384,
            max_threads_per_block: 512,
            global_bandwidth_bytes_per_sec: 141.7e9,
            global_latency_min: 300,
            global_latency_max: 500,
            arith_latency: 24,
            sfu_latency: 36,
            sfu_issue_cycles: 16,
            shared_latency: 24,
            constant_latency: 24,
            coalesced_transaction_bytes: 64,
            uncoalesced_transaction_bytes: 32,
        }
    }

    /// Peak single-precision throughput in GFLOPS, counting the MAD on each
    /// SP as 2 FLOPs plus one MUL per SFU pair as in the paper's
    /// `16 SM * 18 FLOP/SM * 1.35 GHz` figure.
    pub fn peak_gflops(&self) -> f64 {
        let flop_per_sm_per_cycle = (self.sps_per_sm * 2 + self.sfus_per_sm) as f64;
        self.num_sms as f64 * flop_per_sm_per_cycle * self.clock_hz / 1e9
    }

    /// Number of warps a thread block of `threads` threads occupies
    /// (`W_TB` in the paper's Equation 2): `ceil(threads / 32)`.
    pub fn warps_per_block(&self, threads_per_block: u32) -> u32 {
        threads_per_block.div_ceil(self.warp_size)
    }

    /// Midpoint of the global-latency range; the timing simulator's
    /// deterministic default.
    pub fn global_latency_typ(&self) -> u32 {
        (self.global_latency_min + self.global_latency_max) / 2
    }

    /// Off-chip bandwidth expressed in bytes per shader cycle for the whole
    /// device (86.4 GB/s at 1.35 GHz = 64 bytes/cycle).
    pub fn bandwidth_bytes_per_cycle(&self) -> f64 {
        self.global_bandwidth_bytes_per_sec / self.clock_hz
    }

    /// Check a thread-block size against Table 2: a block must hold at
    /// least one thread and at most [`Self::max_threads_per_block`].
    ///
    /// # Errors
    ///
    /// [`LaunchError::EmptyBlock`] or [`LaunchError::BlockTooLarge`],
    /// in that order.
    pub fn check_block(&self, threads_per_block: u32) -> Result<(), LaunchError> {
        if threads_per_block == 0 {
            return Err(LaunchError::EmptyBlock);
        }
        if threads_per_block > self.max_threads_per_block {
            return Err(LaunchError::BlockTooLarge {
                threads: threads_per_block,
                limit: self.max_threads_per_block,
            });
        }
        Ok(())
    }

    /// Compute how many blocks of the given kernel fit on one SM.
    ///
    /// This is the `-cubin`-derived calculation of section 2.2. See
    /// [`crate::occupancy`] for the rules.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError`] when the kernel cannot run at all: zero
    /// threads, a block larger than [`Self::max_threads_per_block`], or a
    /// single block exceeding the register or shared-memory budget of one
    /// SM (the paper's "invalid executable").
    pub fn occupancy(&self, usage: &ResourceUsage) -> Result<Occupancy, LaunchError> {
        Occupancy::compute(self, usage)
    }

    /// Check internal consistency; panics are reserved for programming
    /// errors, so spec construction mistakes surface here instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 || self.sps_per_sm == 0 {
            return Err("device must have at least one SM and one SP".into());
        }
        if self.warp_size == 0 || !self.warp_size.is_multiple_of(self.sps_per_sm) {
            return Err("warp size must be a positive multiple of the SP count".into());
        }
        if self.max_threads_per_block > self.max_threads_per_sm {
            return Err("a single block may not exceed the per-SM thread limit".into());
        }
        if self.global_latency_min > self.global_latency_max {
            return Err("global latency range is inverted".into());
        }
        Ok(())
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        Self::geforce_8800_gtx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g80_constants_match_table_2() {
        let s = MachineSpec::geforce_8800_gtx();
        assert_eq!(s.max_threads_per_sm, 768);
        assert_eq!(s.max_blocks_per_sm, 8);
        assert_eq!(s.registers_per_sm, 8_192);
        assert_eq!(s.shared_mem_per_sm, 16_384);
        assert_eq!(s.max_threads_per_block, 512);
    }

    #[test]
    fn g80_peak_flops_matches_paper() {
        let s = MachineSpec::geforce_8800_gtx();
        assert!((s.peak_gflops() - 388.8).abs() < 1e-6);
    }

    #[test]
    fn warps_per_block_rounds_up() {
        let s = MachineSpec::geforce_8800_gtx();
        assert_eq!(s.warps_per_block(256), 8);
        assert_eq!(s.warps_per_block(1), 1);
        assert_eq!(s.warps_per_block(33), 2);
        assert_eq!(s.warps_per_block(512), 16);
    }

    #[test]
    fn bandwidth_is_64_bytes_per_cycle() {
        let s = MachineSpec::geforce_8800_gtx();
        assert!((s.bandwidth_bytes_per_cycle() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn default_spec_is_valid() {
        MachineSpec::default().validate().unwrap();
    }

    #[test]
    fn next_gen_spec_is_valid_and_bigger() {
        let g80 = MachineSpec::geforce_8800_gtx();
        let next = MachineSpec::gtx_280_like();
        next.validate().unwrap();
        assert!(next.registers_per_sm > g80.registers_per_sm);
        assert!(next.max_threads_per_sm > g80.max_threads_per_sm);
        assert!(next.global_bandwidth_bytes_per_sec > g80.global_bandwidth_bytes_per_sec);
    }

    #[test]
    fn validate_rejects_inverted_latency() {
        let mut s = MachineSpec::geforce_8800_gtx();
        s.global_latency_min = 400;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_oversized_block_limit() {
        let mut s = MachineSpec::geforce_8800_gtx();
        s.max_threads_per_block = 1024;
        assert!(s.validate().is_err());
    }
}
