//! Dense matrix multiplication (Figures 2 and 3; section 3.2's running
//! example; the section 4 worked example).
//!
//! `C = A × B` over `n × n` single-precision matrices. A thread block of
//! `tile × tile` threads computes a `tile × (rect·tile)` region of `C`:
//! square tiling follows Figure 2(a), the rectangular per-thread tiling
//! of Figure 2(b) makes each thread accumulate `rect` output elements so
//! the `As` loads amortise. Inner-product tiles stream through shared
//! memory with two barriers per tile, exactly the Figure 2 code shape.
//!
//! The optimization knobs are the paper's (Table 4 row 1): tile/block
//! size {8×8, 16×16}, rectangular tiling {1×1, 1×2, 1×4}, inner-loop
//! unrolling {1, 2, 4, complete}, prefetching {off, on}, and explicit
//! register spilling {off, on} — a 96-point grid whose resource-invalid
//! members reproduce the paper's "invalid executable" bars (93 valid
//! configurations in the paper's count).

use std::fmt;

use gpu_ir::build::KernelBuilder;
use gpu_ir::types::Special;
use gpu_ir::{Dim, Kernel, Launch};
use gpu_passes::{
    find_loops, fold_strided_addresses, innermost_loops, prefetch_global_loads, spill_candidates,
    spill_registers, unroll, unroll_with_remainder,
};
use gpu_sim::interp::{run_kernel_checked, DeviceMemory};
use gpu_sim::SimError;
use optspace::candidate::Candidate;
use optspace::space::{Point, Space};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::app::App;

/// Shared-memory bytes a real `cubin` charges beyond the declared
/// arrays (kernel parameters and launch geometry are staged in shared
/// memory on G80) — this is what makes the worked example's 16×16
/// kernel report 2088 rather than 2048 bytes.
pub const SMEM_ABI_OVERHEAD: u32 = 40;

/// The matrix-multiplication application: `C = A × B`, `n × n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatMul {
    /// Matrix dimension; must be a multiple of 64 so every
    /// tile × rect combination divides it.
    pub n: u32,
}

/// One optimization configuration of the matmul space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatMulConfig {
    /// Square tile / thread-block edge: 8 or 16.
    pub tile: u32,
    /// Rectangular tiling factor: outputs per thread (1, 2, 4).
    pub rect: u32,
    /// Inner-loop unroll factor; `0` means complete (factor = tile).
    pub unroll: u32,
    /// Prefetch next tile's global loads into registers (Figure 2(d)).
    pub prefetch: bool,
    /// Proactively spill the two longest-lived registers (section 3.1's
    /// resource-balancing example).
    pub spill: bool,
}

impl MatMulConfig {
    /// The effective unroll factor (resolving `0` = complete).
    pub fn unroll_factor(&self) -> u32 {
        if self.unroll == 0 {
            self.tile
        } else {
            self.unroll
        }
    }
}

impl fmt::Display for MatMulConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{t}x{t}/1x{r}/u{u}{p}{s}",
            t = self.tile,
            r = self.rect,
            u = if self.unroll == 0 { "C".to_string() } else { self.unroll.to_string() },
            p = if self.prefetch { "/pf" } else { "" },
            s = if self.spill { "/sp" } else { "" },
        )
    }
}

impl MatMul {
    /// A matmul instance of dimension `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 64 (so that every
    /// `tile × rect` block shape divides the matrix).
    pub fn new(n: u32) -> Self {
        assert!(n > 0 && n.is_multiple_of(64), "n must be a positive multiple of 64");
        Self { n }
    }

    /// The paper's 4k × 4k problem.
    pub fn paper_problem() -> Self {
        Self::new(4096)
    }

    /// A reduced problem for fast timing experiments (the paper itself
    /// ran "smaller inputs than those considered typical").
    pub fn reduced_problem() -> Self {
        Self::new(512)
    }

    /// A tiny problem for functional-equivalence tests.
    pub fn test_problem() -> Self {
        Self::new(64)
    }

    /// Decode one point of the declared space back into a typed
    /// configuration.
    pub fn config_of(point: &Point) -> MatMulConfig {
        MatMulConfig {
            tile: point.u32("tile"),
            rect: point.u32("rect"),
            unroll: point.u32("unroll"),
            prefetch: point.flag("prefetch"),
            spill: point.flag("spill"),
        }
    }

    /// The full 96-point configuration grid as typed configurations,
    /// decoded from the declarative [`App::space`] — Figure 3 ordering:
    /// tile, then rect, then unroll, then prefetch, then spill.
    pub fn configs(&self) -> Vec<MatMulConfig> {
        self.space().points().map(|p| Self::config_of(&p)).collect()
    }

    /// The abbreviated Figure 3 space (spill off): 48 bars.
    pub fn figure3_space(&self) -> Vec<MatMulConfig> {
        self.configs().into_iter().filter(|c| !c.spill).collect()
    }

    /// Launch geometry for one configuration.
    pub fn launch(&self, cfg: &MatMulConfig) -> Launch {
        Launch::new(
            Dim::new_2d(self.n / (cfg.rect * cfg.tile), self.n / cfg.tile),
            Dim::new_2d(cfg.tile, cfg.tile),
        )
    }

    /// Generate the kernel for `cfg`, applying the transformation
    /// pipeline (prefetch → unroll → address folding → spill).
    ///
    /// # Panics
    ///
    /// Panics if a pass rejects the generated shape — that would be a
    /// generator bug, not an invalid configuration (resource-invalid
    /// configurations still *generate*; they fail occupancy later).
    pub fn generate(&self, cfg: &MatMulConfig) -> Kernel {
        let mut k = self.generate_base(cfg);
        if cfg.prefetch {
            let outer = find_loops(&k).into_iter().next().expect("outer loop exists");
            prefetch_global_loads(&mut k, &outer).expect("matmul body starts with loads");
        }
        let inner = innermost_loops(&k).into_iter().next().expect("inner loop exists");
        unroll(&mut k, &inner, cfg.unroll_factor()).expect("factor divides tile");
        fold_strided_addresses(&mut k);
        if cfg.spill {
            let victims = spill_candidates(&k, 2);
            spill_registers(&mut k, &victims).expect("candidates exclude counters");
        }
        k
    }

    /// The untransformed Figure 2(a)/(b)-shaped kernel.
    fn generate_base(&self, cfg: &MatMulConfig) -> Kernel {
        let t = cfg.tile as i32;
        let r = cfg.rect as i32;
        let n = self.n as i32;
        let coalesced = cfg.tile >= 16;

        let mut b = KernelBuilder::new(format!("matmul_{cfg}"));
        let a_base = b.param(0);
        let b_base = b.param(1);
        let c_base = b.param(2);
        let tx = b.read_special(Special::TidX);
        let ty = b.read_special(Special::TidY);
        let bx = b.read_special(Special::CtaIdX);
        let by = b.read_special(Special::CtaIdY);

        // Shared tiles: As[t][t] then Bs[t][r*t].
        let as_base = b.alloc_shared((t * t) as u32 * 4);
        let bs_words_base = b.alloc_shared((t * t * r) as u32 * 4);
        assert_eq!(as_base, 0);
        assert_eq!(bs_words_base, t * t);
        b.alloc_shared(SMEM_ABI_OVERHEAD);

        // Global pointers (word addresses).
        let row = b.imad(by, t, ty);
        let a0 = b.imad(row, n, tx);
        let a_ptr = b.iadd(a0, a_base);
        let colg = b.imad(bx, r * t, tx);
        let b0 = b.imad(ty, n, colg);
        let b_ptr = b.iadd(b0, b_base);
        let c0 = b.imad(row, n, colg);
        let c_ptr = b.iadd(c0, c_base);

        // Shared-memory addresses.
        let as_st = b.imad(ty, t, tx); // As[ty][tx]
        let bs_st0 = b.imad(ty, r * t, tx);
        let bs_st = b.iadd(bs_st0, t * t); // Bs[ty][tx (+ j*t)]
        let as_rd = b.imul(ty, t); // As[ty][0], bumps +1 per inner iter
                                   // Per-column read pointers into Bs (induction-variable expansion,
                                   // as nvcc performs for rectangular tiles).
        let bs_rds: Vec<_> = (0..r).map(|j| b.iadd(tx, t * t + j * t)).collect();

        let accs: Vec<_> = (0..r).map(|_| b.mov(0.0f32)).collect();

        b.repeat(self.n / cfg.tile, |b| {
            // Tile loads first: one independent long-latency unit (the
            // worked example's "pairs of loads").
            let a_val =
                if coalesced { b.ld_global(a_ptr, 0) } else { b.ld_global_uncoalesced(a_ptr, 0) };
            let b_vals: Vec<_> = (0..r)
                .map(|j| {
                    if coalesced {
                        b.ld_global(b_ptr, j * t)
                    } else {
                        b.ld_global_uncoalesced(b_ptr, j * t)
                    }
                })
                .collect();
            b.st_shared(as_st, 0, a_val);
            for (j, &bv) in b_vals.iter().enumerate() {
                b.st_shared(bs_st, (j as i32) * t, bv);
            }
            // Induction updates (accumulate form: fold- and
            // prefetch-compatible).
            b.iadd_acc(a_ptr, t);
            b.iadd_acc(b_ptr, t * n);
            b.sync();
            // Inner product over the tile.
            b.repeat(cfg.tile, |b| {
                let a_s = b.ld_shared(as_rd, 0);
                for (j, &bs_rd) in bs_rds.iter().enumerate() {
                    let b_s = b.ld_shared(bs_rd, 0);
                    b.fmad_acc(a_s, b_s, accs[j]);
                }
                b.iadd_acc(as_rd, 1);
                for &bs_rd in &bs_rds {
                    b.iadd_acc(bs_rd, r * t);
                }
            });
            // Reset the read pointers for the next tile.
            b.iadd_acc(as_rd, -t);
            for &bs_rd in &bs_rds {
                b.iadd_acc(bs_rd, -(t * t * r));
            }
            b.sync();
        });
        for (j, &acc) in accs.iter().enumerate() {
            if coalesced {
                b.st_global(c_ptr, (j as i32) * t, acc);
            } else {
                b.st_global_uncoalesced(c_ptr, (j as i32) * t, acc);
            }
        }
        b.finish()
    }

    /// Paper-scale candidate for the tuner/bench harness.
    pub fn candidate(&self, cfg: &MatMulConfig) -> Candidate {
        Candidate::new(cfg.to_string(), self.generate(cfg), self.launch(cfg))
    }

    /// Word offsets of A, B, C in global memory.
    fn layout(&self) -> (i32, i32, i32) {
        let n2 = (self.n * self.n) as i32;
        (0, n2, 2 * n2)
    }

    /// Allocate device memory with random A and B (deterministic seed).
    pub fn setup(&self, seed: u64) -> (DeviceMemory, Vec<i32>) {
        let n2 = (self.n * self.n) as usize;
        let mut mem = DeviceMemory::new(3 * n2);
        let mut rng = StdRng::seed_from_u64(seed);
        for v in &mut mem.global[..2 * n2] {
            *v = rng.gen_range(-1.0..1.0);
        }
        let (a, bb, c) = self.layout();
        (mem, vec![a, bb, c])
    }

    /// Execute `cfg` functionally on the interpreter, with the dynamic
    /// shared-memory race oracle armed; returns `C`.
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults, including [`SimError::SharedRace`];
    /// generated configurations must not produce any.
    pub fn run_config(
        &self,
        cfg: &MatMulConfig,
        mem: &mut DeviceMemory,
        params: &[i32],
    ) -> Result<Vec<f32>, SimError> {
        let kernel = self.generate(cfg);
        let prog = gpu_ir::linear::linearize(&kernel);
        run_kernel_checked(&prog, &self.launch(cfg), params, mem)?;
        let n2 = (self.n * self.n) as usize;
        Ok(mem.global[2 * n2..3 * n2].to_vec())
    }

    /// Cache-friendly single-thread CPU implementation (i-k-j loop
    /// order, streaming rows of B) for the Table 3 timing baseline.
    /// The paper's baseline was MKL; this is the reasonable hand-written
    /// equivalent. Accumulation order differs from the kernels', so use
    /// [`MatMul::cpu_reference`] for bit-exact functional checks.
    pub fn cpu_reference_fast(&self, mem: &DeviceMemory) -> Vec<f32> {
        let n = self.n as usize;
        let a = &mem.global[..n * n];
        let b = &mem.global[n * n..2 * n * n];
        let mut c = vec![0.0f32; n * n];
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                let brow = &b[k * n..k * n + n];
                let crow = &mut c[i * n..i * n + n];
                for (cj, bj) in crow.iter_mut().zip(brow) {
                    *cj = aik.mul_add(*bj, *cj);
                }
            }
        }
        c
    }

    /// Single-thread CPU reference (Table 3's baseline), accumulating in
    /// the same k-order and with the same fused multiply-add the GPU
    /// kernels use, so results are bit-identical.
    pub fn cpu_reference(&self, mem: &DeviceMemory) -> Vec<f32> {
        let n = self.n as usize;
        let a = &mem.global[..n * n];
        let b = &mem.global[n * n..2 * n * n];
        let mut c = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc = a[i * n + k].mul_add(b[k * n + j], acc);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }
}

/// One configuration of the fine matmul grid (see [`MatMulFine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatMulFineConfig {
    /// Square tile / thread-block edge: 2–32.
    pub tile: u32,
    /// Rectangular tiling factor: outputs per thread (1–16).
    pub rect: u32,
    /// Inner-loop unroll factor; `0` means complete, factors past the
    /// trip count clamp to complete, non-dividing factors take the
    /// remainder-unroll path.
    pub unroll: u32,
    /// Outer (tile-stream) loop unroll factor, remainder allowed.
    pub ounroll: u32,
    /// Prefetch next tile's global loads into registers.
    pub prefetch: bool,
    /// Proactively spill the two longest-lived registers.
    pub spill: bool,
}

impl fmt::Display for MatMulFineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{t}x{t}/1x{r}/u{u}/o{o}{p}{s}",
            t = self.tile,
            r = self.rect,
            u = if self.unroll == 0 { "C".to_string() } else { self.unroll.to_string() },
            o = self.ounroll,
            p = if self.prefetch { "/pf" } else { "" },
            s = if self.spill { "/sp" } else { "" },
        )
    }
}

/// The `--grid fine` matmul space: the same kernel family as [`MatMul`]
/// over a much finer grid — tile ∈ {2..32}, rect ∈ {1..16}, an
/// open-ended inner unroll axis 0..=63 (remainder-unrolled, so factors
/// need not divide the tile; factors past the trip count clamp to
/// complete), an outer-loop unroll axis 1..=16, plus prefetch and
/// spill: 5 × 5 × 64 × 16 × 2 × 2 = 102 400 points. Eager
/// enumeration at this size is exactly what branch-and-bound makes
/// unnecessary; resource-invalid corners (e.g. 32×32 = 1024 threads per
/// block) stay in the grid and classify as invalid executables.
///
/// The declared grid assumes `n ≥ 512` (a multiple of 512) so that
/// every `tile × rect` block shape divides the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatMulFine {
    /// The underlying problem instance.
    pub base: MatMul,
}

impl MatMulFine {
    /// A fine-grid matmul of dimension `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 512 (the widest
    /// `tile × rect` shape in the grid).
    pub fn new(n: u32) -> Self {
        assert!(n > 0 && n.is_multiple_of(512), "n must be a positive multiple of 512");
        Self { base: MatMul::new(n) }
    }

    /// The reduced 512×512 problem the CLI's `--grid fine` runs.
    pub fn reduced_problem() -> Self {
        Self::new(512)
    }

    /// Decode one point of the declared space.
    pub fn config_of(point: &Point) -> MatMulFineConfig {
        MatMulFineConfig {
            tile: point.u32("tile"),
            rect: point.u32("rect"),
            unroll: point.u32("unroll"),
            ounroll: point.u32("ounroll"),
            prefetch: point.flag("prefetch"),
            spill: point.flag("spill"),
        }
    }

    /// Launch geometry for one configuration.
    pub fn launch(&self, cfg: &MatMulFineConfig) -> Launch {
        Launch::new(
            Dim::new_2d(self.base.n / (cfg.rect * cfg.tile), self.base.n / cfg.tile),
            Dim::new_2d(cfg.tile, cfg.tile),
        )
    }

    /// Generate the kernel for `cfg`: prefetch → remainder-unroll the
    /// inner product loop → remainder-unroll the outer tile loop →
    /// address folding → spill. Every grid tuple generates — there is
    /// no divisibility constraint to legalize.
    pub fn generate(&self, cfg: &MatMulFineConfig) -> Kernel {
        let proxy = MatMulConfig {
            tile: cfg.tile,
            rect: cfg.rect,
            unroll: 1,
            prefetch: false,
            spill: false,
        };
        let mut k = self.base.generate_base(&proxy);
        k.name = format!("matmul_{cfg}");
        if cfg.prefetch {
            let outer = find_loops(&k).into_iter().next().expect("outer loop exists");
            prefetch_global_loads(&mut k, &outer).expect("matmul body starts with loads");
        }
        let inner = innermost_loops(&k).into_iter().next().expect("inner loop exists");
        let factor = if cfg.unroll == 0 { cfg.tile } else { cfg.unroll };
        unroll_with_remainder(&mut k, &inner, factor).expect("any nonzero factor is accepted");
        let outer = find_loops(&k).into_iter().next().expect("outer loop survives");
        unroll_with_remainder(&mut k, &outer, cfg.ounroll).expect("any nonzero factor");
        fold_strided_addresses(&mut k);
        if cfg.spill {
            let victims = spill_candidates(&k, 2);
            spill_registers(&mut k, &victims).expect("candidates exclude counters");
        }
        k
    }

    /// Candidate for the tuner/bench harness.
    pub fn candidate(&self, cfg: &MatMulFineConfig) -> Candidate {
        Candidate::new(cfg.to_string(), self.generate(cfg), self.launch(cfg))
    }
}

impl App for MatMulFine {
    fn name(&self) -> &'static str {
        "Matrix Multiplication (fine)"
    }

    fn space(&self) -> Space {
        Space::builder()
            .axis("tile", [2u32, 4, 8, 16, 32])
            .axis("rect", [1u32, 2, 4, 8, 16])
            .axis("unroll", 0u32..=63)
            .axis("ounroll", 1u32..=16)
            .axis("prefetch", [false, true])
            .axis("spill", [false, true])
            .label(|p| MatMulFine::config_of(p).to_string())
            .build()
    }

    fn instantiate(&self, point: &Point) -> Candidate {
        self.candidate(&Self::config_of(point))
    }

    fn launch(&self, point: &Point) -> Option<Launch> {
        Some(self.launch(&Self::config_of(point)))
    }
}

impl App for MatMul {
    fn name(&self) -> &'static str {
        "Matrix Multiplication"
    }

    /// Table 4 row 1 as declared axes: tile/block size, rectangular
    /// tiling, inner-loop unrolling (`0` = complete), prefetching, and
    /// register spilling. No structural constraints — resource-invalid
    /// grid points stay in and fail occupancy, as in Figure 3.
    fn space(&self) -> Space {
        Space::builder()
            .axis("tile", [8u32, 16])
            .axis("rect", [1u32, 2, 4])
            .axis("unroll", [1u32, 2, 4, 0])
            .axis("prefetch", [false, true])
            .axis("spill", [false, true])
            .label(|p| MatMul::config_of(p).to_string())
            .build()
    }

    fn instantiate(&self, point: &Point) -> Candidate {
        self.candidate(&Self::config_of(point))
    }

    fn launch(&self, point: &Point) -> Option<Launch> {
        Some(self.launch(&Self::config_of(point)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::MachineSpec;
    use gpu_ir::analysis::{dynamic_counts, register_pressure};

    #[test]
    fn space_has_96_grid_points() {
        let mm = MatMul::test_problem();
        assert_eq!(mm.space().len(), 96);
        assert_eq!(mm.figure3_space().len(), 48);
    }

    #[test]
    fn fine_space_has_over_1e5_points_and_consistent_labels() {
        let mm = MatMulFine::reduced_problem();
        let space = mm.space();
        assert_eq!(space.len(), 102_400);
        assert!(space.len() >= 100_000);
        // Spot-check a corner's label round trip without instantiating
        // anything beyond one point.
        let p = space.points().next().unwrap();
        assert_eq!(p.to_string(), MatMulFine::config_of(&p).to_string());
        let c = mm.instantiate(&p);
        assert_eq!(c.label, p.to_string());
    }

    #[test]
    fn fine_configs_stay_functionally_correct() {
        // The fine pipeline (remainder unrolls on both loops) must agree
        // with the CPU reference, including factors that do not divide
        // the trip counts. 512×512 interpretation is too slow for a unit
        // test, so run the same generator on the 64-problem, restricted
        // to block shapes that divide 64.
        let mm = MatMulFine { base: MatMul::test_problem() };
        let (mem0, params) = mm.base.setup(11);
        let reference = mm.base.cpu_reference(&mem0);
        let picks = [
            MatMulFineConfig {
                tile: 8,
                rect: 2,
                unroll: 3,
                ounroll: 3,
                prefetch: false,
                spill: false,
            },
            MatMulFineConfig {
                tile: 16,
                rect: 2,
                unroll: 5,
                ounroll: 2,
                prefetch: true,
                spill: false,
            },
            MatMulFineConfig {
                tile: 4,
                rect: 4,
                unroll: 0,
                ounroll: 7,
                prefetch: false,
                spill: true,
            },
            MatMulFineConfig {
                tile: 8,
                rect: 1,
                unroll: 32,
                ounroll: 8,
                prefetch: true,
                spill: true,
            },
            MatMulFineConfig {
                tile: 2,
                rect: 1,
                unroll: 1,
                ounroll: 1,
                prefetch: false,
                spill: false,
            },
        ];
        for cfg in picks {
            let mut mem = mem0.clone();
            let kernel = mm.generate(&cfg);
            let prog = gpu_ir::linear::linearize(&kernel);
            gpu_sim::interp::run_kernel_checked(&prog, &mm.launch(&cfg), &params, &mut mem)
                .unwrap();
            let n2 = (mm.base.n * mm.base.n) as usize;
            assert_eq!(&mem.global[2 * n2..3 * n2], &reference[..], "config {cfg}");
        }
    }

    #[test]
    fn worked_example_structure() {
        // Section 4: 16x16, complete unroll, no prefetch/spill, 4k
        // matrices: Regions = 769 (256 load pairs + 512 barriers + 1),
        // Instr ~ 15150, 13 registers, 2088 B shared, B_SM = 2.
        let mm = MatMul::paper_problem();
        let cfg = MatMulConfig { tile: 16, rect: 1, unroll: 0, prefetch: false, spill: false };
        let k = mm.generate(&cfg);
        let counts = dynamic_counts(&k);
        assert_eq!(counts.regions(), 769);
        assert!(
            (15_000..=15_300).contains(&counts.instrs),
            "instr = {} (paper: 15150)",
            counts.instrs
        );
        assert_eq!(k.smem_bytes, 2088);
        let pressure = register_pressure(&k);
        assert!(
            (11..=16).contains(&pressure.regs_per_thread),
            "regs = {} (paper: 13)",
            pressure.regs_per_thread
        );
        let launch = mm.launch(&cfg);
        assert_eq!(launch.total_threads(), 1 << 24);
        let spec = MachineSpec::geforce_8800_gtx();
        let eval = mm.candidate(&cfg).evaluate(&spec).unwrap();
        assert_eq!(eval.kernel_profile.occupancy.blocks_per_sm, 2);
        assert_eq!(eval.kernel_profile.profile.warps_per_block, 8);
    }

    #[test]
    fn functional_equivalence_across_knob_extremes() {
        let mm = MatMul::test_problem();
        let (mem0, params) = mm.setup(7);
        let reference = mm.cpu_reference(&mem0);
        // Cover every knob at least once without running all 96 in a
        // debug test; the exhaustive sweep lives in the integration
        // suite.
        let picks = [
            MatMulConfig { tile: 16, rect: 1, unroll: 1, prefetch: false, spill: false },
            MatMulConfig { tile: 8, rect: 1, unroll: 1, prefetch: false, spill: false },
            MatMulConfig { tile: 16, rect: 2, unroll: 2, prefetch: false, spill: false },
            MatMulConfig { tile: 16, rect: 4, unroll: 0, prefetch: false, spill: false },
            MatMulConfig { tile: 8, rect: 4, unroll: 4, prefetch: true, spill: false },
            MatMulConfig { tile: 16, rect: 1, unroll: 0, prefetch: true, spill: true },
            MatMulConfig { tile: 8, rect: 2, unroll: 0, prefetch: false, spill: true },
        ];
        for cfg in picks {
            let mut mem = mem0.clone();
            let got = mm.run_config(&cfg, &mut mem, &params).unwrap();
            assert_eq!(got, reference, "config {cfg}");
        }
    }

    #[test]
    fn coalescing_tracks_tile_size() {
        let mm = MatMul::test_problem();
        let narrow = mm.generate(&MatMulConfig {
            tile: 8,
            rect: 1,
            unroll: 1,
            prefetch: false,
            spill: false,
        });
        let wide = mm.generate(&MatMulConfig {
            tile: 16,
            rect: 1,
            unroll: 1,
            prefetch: false,
            spill: false,
        });
        let mix_narrow = gpu_ir::analysis::instruction_mix(&narrow);
        let mix_wide = gpu_ir::analysis::instruction_mix(&wide);
        assert!(mix_narrow.uncoalesced_accesses > 0);
        assert_eq!(mix_wide.uncoalesced_accesses, 0);
    }

    #[test]
    fn unroll_reduces_instructions() {
        let mm = MatMul::reduced_problem();
        let base = MatMulConfig { tile: 16, rect: 1, unroll: 1, prefetch: false, spill: false };
        let full = MatMulConfig { tile: 16, rect: 1, unroll: 0, prefetch: false, spill: false };
        let i_base = dynamic_counts(&mm.generate(&base)).instrs;
        let i_full = dynamic_counts(&mm.generate(&full)).instrs;
        assert!(
            i_full * 3 < i_base * 2,
            "complete unroll {i_full} should be well under base {i_base}"
        );
    }

    #[test]
    fn rect_tiling_improves_per_output_instruction_count() {
        let mm = MatMul::reduced_problem();
        let mk = |rect| MatMulConfig { tile: 16, rect, unroll: 0, prefetch: false, spill: false };
        let per_output = |rect: u32| {
            let i = dynamic_counts(&mm.generate(&mk(rect))).instrs;
            i as f64 / f64::from(rect)
        };
        assert!(per_output(2) < per_output(1));
        assert!(per_output(4) < per_output(2));
    }

    #[test]
    fn prefetch_and_spill_shift_registers_oppositely() {
        let mm = MatMul::reduced_problem();
        let base = MatMulConfig { tile: 16, rect: 1, unroll: 0, prefetch: false, spill: false };
        let pf = MatMulConfig { prefetch: true, ..base };
        let sp = MatMulConfig { spill: true, ..base };
        let regs = |c: &MatMulConfig| register_pressure(&mm.generate(c)).regs_per_thread;
        assert!(regs(&pf) > regs(&base), "prefetch {} !> base {}", regs(&pf), regs(&base));
        assert!(regs(&sp) < regs(&base), "spill {} !< base {}", regs(&sp), regs(&base));
    }
}

#[cfg(test)]
mod fast_reference_tests {
    use super::*;

    #[test]
    fn fast_reference_matches_exact_reference_closely() {
        let mm = MatMul::test_problem();
        let (mem, _) = mm.setup(21);
        let exact = mm.cpu_reference(&mem);
        let fast = mm.cpu_reference_fast(&mem);
        for (i, (a, b)) in exact.iter().zip(&fast).enumerate() {
            assert!((a - b).abs() <= 1e-3 * a.abs().max(1.0), "element {i}: {a} vs {b}");
        }
    }
}
