//! Coulombic Potential (CP): "calculation of the electric potential at
//! every point in a 3D grid", derived from the "Unroll8y" kernel of
//! Stone et al. (Table 3 row 2; Figure 5; Figure 6(c)).
//!
//! Each thread computes the potential at `tiling` grid points sharing an
//! x coordinate (adjacent in y), looping over the atom list in constant
//! memory. Sharing the `dx² + dz²` term across the tile is the kernel's
//! efficiency lever; the per-point accumulators are its register
//! appetite — exactly the efficiency-vs-utilization tension Figure 5
//! plots against the tiling factor.
//!
//! Knobs (Table 4 row 2): thread-block size {64, 128, 256, 512} ×
//! per-thread tiling {1, 2, 4, 8, 16} × output coalescing {off, on} —
//! a 40-point grid. The largest tiles at 512 threads exceed the
//! register file and are invalid executables (36 launchable under our
//! register model; the paper counts 38).

use std::fmt;

use gpu_ir::build::KernelBuilder;
use gpu_ir::types::Special;
use gpu_ir::{Dim, Kernel, Launch};
use gpu_sim::interp::{run_kernel_checked, DeviceMemory};
use gpu_sim::SimError;
use optspace::candidate::Candidate;
use optspace::space::{Point, Space};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::app::App;

/// Grid spacing between potential lattice points, in the same length
/// units as the atom coordinates.
pub const GRID_SPACING: f32 = 0.5;

/// The CP application: potential over an `nx × ny` lattice slice at
/// `z = 0` from `atoms` point charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cp {
    /// Lattice width; must be a multiple of 512 (largest block).
    pub nx: u32,
    /// Lattice height; must be a multiple of 16 (largest tiling).
    pub ny: u32,
    /// Number of point charges (atom records in constant memory).
    pub atoms: u32,
}

/// One optimization configuration of the CP space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpConfig {
    /// Threads per (1-D) thread block.
    pub block: u32,
    /// Grid points computed per thread (the Figure 5 tiling factor).
    pub tiling: u32,
    /// Whether output stores are laid out for coalescing (row-major,
    /// thread-contiguous) or transposed (column-major, strided).
    pub coalesced_output: bool,
}

impl fmt::Display for CpConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b{}/t{}{}",
            self.block,
            self.tiling,
            if self.coalesced_output { "/co" } else { "/unco" }
        )
    }
}

impl Cp {
    /// A CP instance.
    ///
    /// # Panics
    ///
    /// Panics unless `nx` is a multiple of 512, `ny` a multiple of 16,
    /// and `atoms` positive.
    pub fn new(nx: u32, ny: u32, atoms: u32) -> Self {
        assert!(nx.is_multiple_of(512), "nx must be a multiple of 512");
        assert!(ny.is_multiple_of(16), "ny must be a multiple of 16");
        assert!(atoms > 0, "need at least one atom");
        Self { nx, ny, atoms }
    }

    /// Paper-flavoured problem: one 512×512 slice, 128 atoms.
    pub fn paper_problem() -> Self {
        Self::new(512, 512, 128)
    }

    /// Small instance for functional tests.
    pub fn test_problem() -> Self {
        Self::new(512, 16, 8)
    }

    /// Decode one point of the declared space back into a typed
    /// configuration.
    pub fn config_of(point: &Point) -> CpConfig {
        CpConfig {
            block: point.u32("block"),
            tiling: point.u32("tiling"),
            coalesced_output: point.flag("coalesced"),
        }
    }

    /// The 40-point configuration grid as typed configurations, decoded
    /// from the declarative [`App::space`].
    pub fn configs(&self) -> Vec<CpConfig> {
        self.space().points().map(|p| Self::config_of(&p)).collect()
    }

    /// Launch geometry: 1-D blocks along x, tiling groups along y.
    pub fn launch(&self, cfg: &CpConfig) -> Launch {
        Launch::new(Dim::new_2d(self.nx / cfg.block, self.ny / cfg.tiling), Dim::new_1d(cfg.block))
    }

    /// Generate the kernel for `cfg`.
    pub fn generate(&self, cfg: &CpConfig) -> Kernel {
        let w = cfg.tiling as i32;
        let mut b = KernelBuilder::new(format!("cp_{cfg}"));
        let out_base = b.param(0);
        let tx = b.read_special(Special::TidX);
        let bx = b.read_special(Special::CtaIdX);
        let by = b.read_special(Special::CtaIdY);
        let ntid = b.read_special(Special::NTidX);

        // Lattice coordinates.
        let xi = b.imad(bx, ntid, tx);
        let xif = b.i2f(xi);
        let px = b.fmul_imm(xif, GRID_SPACING);
        let row0 = b.imul(by, w);
        let row0f = b.i2f(row0);
        let py0 = b.fmul_imm(row0f, GRID_SPACING);

        let accs: Vec<_> = (0..w).map(|_| b.mov(0.0f32)).collect();
        let cp_ptr = b.mov(0i32); // cursor into the atom table

        b.repeat(self.atoms, |b| {
            let ax = b.ld_const(cp_ptr, 0);
            let ay = b.ld_const(cp_ptr, 1);
            let az = b.ld_const(cp_ptr, 2);
            let q = b.ld_const(cp_ptr, 3);
            let dx = b.fsub(px, ax);
            let dx2 = b.fmul(dx, dx);
            // dz = 0 - az on the z = 0 slice: dz² = az².
            let base = b.fmad(az, az, dx2);
            let dy0 = b.fsub(py0, ay);
            for (r, &acc) in accs.iter().enumerate() {
                let dyr = b.fadd(dy0, (r as f32) * GRID_SPACING);
                let r2 = b.fmad(dyr, dyr, base);
                let rin = b.rsqrt(r2);
                b.fmad_acc(q, rin, acc);
            }
            b.iadd_acc(cp_ptr, 4);
        });

        // Store the tile: row-major (coalesced across tx) or transposed
        // (column-major: stride ny — serialized transactions).
        for (r, &acc) in accs.iter().enumerate() {
            if cfg.coalesced_output {
                // out[(row0 + r) * nx + xi]
                let rowaddr = b.imad(row0, self.nx as i32, xi);
                let addr = b.iadd(rowaddr, out_base);
                b.st_global(addr, (r as i32) * self.nx as i32, acc);
            } else {
                // out[xi * ny + row0 + r]
                let coladdr = b.imad(xi, self.ny as i32, row0);
                let addr = b.iadd(coladdr, out_base);
                b.st_global_uncoalesced(addr, r as i32, acc);
            }
        }
        b.finish()
    }

    /// Paper-scale candidate.
    pub fn candidate(&self, cfg: &CpConfig) -> Candidate {
        Candidate::new(cfg.to_string(), self.generate(cfg), self.launch(cfg))
    }

    /// Device memory: atoms in the constant bank (x, y, z, q per atom),
    /// zeroed output lattice in global memory.
    pub fn setup(&self, seed: u64) -> (DeviceMemory, Vec<i32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut constant = Vec::with_capacity(self.atoms as usize * 4);
        for _ in 0..self.atoms {
            constant.push(rng.gen_range(0.0..self.nx as f32 * GRID_SPACING)); // x
            constant.push(rng.gen_range(0.0..self.ny as f32 * GRID_SPACING)); // y
            constant.push(rng.gen_range(0.1..4.0)); // z (off-slice: r² > 0)
            constant.push(rng.gen_range(-2.0..2.0)); // charge
        }
        let mem = DeviceMemory::with_constant((self.nx * self.ny) as usize, constant);
        (mem, vec![0])
    }

    /// Execute `cfg` functionally, with the dynamic shared-memory race
    /// oracle armed; returns the lattice in row-major order regardless
    /// of the store layout the config used.
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults, including [`SimError::SharedRace`].
    pub fn run_config(
        &self,
        cfg: &CpConfig,
        mem: &mut DeviceMemory,
        params: &[i32],
    ) -> Result<Vec<f32>, SimError> {
        let kernel = self.generate(cfg);
        let prog = gpu_ir::linear::linearize(&kernel);
        run_kernel_checked(&prog, &self.launch(cfg), params, mem)?;
        let (nx, ny) = (self.nx as usize, self.ny as usize);
        if cfg.coalesced_output {
            Ok(mem.global[..nx * ny].to_vec())
        } else {
            // De-transpose for comparison.
            let mut out = vec![0.0f32; nx * ny];
            for x in 0..nx {
                for y in 0..ny {
                    out[y * nx + x] = mem.global[x * ny + y];
                }
            }
            Ok(out)
        }
    }

    /// Single-thread CPU reference in the same accumulation order and
    /// with the same fused ops, for bit-exact comparison. The GPU's
    /// `rsqrt` maps to `1.0 / sqrt` exactly as the interpreter computes
    /// it.
    pub fn cpu_reference(&self, mem: &DeviceMemory) -> Vec<f32> {
        let (nx, ny) = (self.nx as usize, self.ny as usize);
        let mut out = vec![0.0f32; nx * ny];
        for y in 0..ny {
            for x in 0..nx {
                let px = x as f32 * GRID_SPACING;
                let py = y as f32 * GRID_SPACING;
                let mut acc = 0.0f32;
                for a in 0..self.atoms as usize {
                    let ax = mem.constant[a * 4];
                    let ay = mem.constant[a * 4 + 1];
                    let az = mem.constant[a * 4 + 2];
                    let q = mem.constant[a * 4 + 3];
                    let dx = px - ax;
                    let base = az.mul_add(az, dx * dx);
                    let dy = py - ay;
                    let r2 = dy.mul_add(dy, base);
                    acc = q.mul_add(1.0 / r2.sqrt(), acc);
                }
                out[y * nx + x] = acc;
            }
        }
        out
    }
}

impl App for Cp {
    fn name(&self) -> &'static str {
        "CP"
    }

    /// Table 4 row 2 as declared axes: thread-block size, per-thread
    /// tiling, output coalescing (coalesced first, matching the
    /// historical order). The register-file overflows at the largest
    /// tiles stay in the space as invalid executables.
    fn space(&self) -> Space {
        Space::builder()
            .axis("block", [64u32, 128, 256, 512])
            .axis("tiling", [1u32, 2, 4, 8, 16])
            .axis("coalesced", [true, false])
            .label(|p| Cp::config_of(p).to_string())
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

    #[test]
    fn space_is_40_grid_points_36_valid() {
        // The paper's Table 4 reports 38 launchable CP configurations
        // out of a larger grid. Our 40-point grid loses the four
        // largest-register configurations (tilings 8 and 16 at 512
        // threads overflow the 8192-register file), leaving 36 — the
        // same phenomenon, with our allocator's slightly higher
        // per-thread usage claiming one extra tiling level.
        let cp = Cp::paper_problem();
        let space = cp.configs();
        assert_eq!(space.len(), 40);
        let spec = MachineSpec::geforce_8800_gtx();
        let valid = space.iter().filter(|c| cp.candidate(c).evaluate(&spec).is_ok()).count();
        assert_eq!(valid, 36);
        for cfg in &space {
            let ok = cp.candidate(cfg).evaluate(&spec).is_ok();
            let expect_invalid = cfg.tiling >= 8 && cfg.block == 512;
            assert_eq!(ok, !expect_invalid, "{cfg}");
        }
    }

    #[test]
    fn functional_equivalence_across_tilings() {
        let cp = Cp::test_problem();
        let (mem0, params) = cp.setup(11);
        let reference = cp.cpu_reference(&mem0);
        for cfg in [
            CpConfig { block: 64, tiling: 1, coalesced_output: true },
            CpConfig { block: 128, tiling: 4, coalesced_output: true },
            CpConfig { block: 512, tiling: 2, coalesced_output: false },
            CpConfig { block: 256, tiling: 16, coalesced_output: true },
            CpConfig { block: 64, tiling: 8, coalesced_output: false },
        ] {
            let mut mem = mem0.clone();
            let got = cp.run_config(&cfg, &mut mem, &params).unwrap();
            assert_eq!(got, reference, "config {cfg}");
        }
    }

    #[test]
    fn tiling_improves_efficiency_but_degrades_utilization() {
        // The Figure 5 monotonicity: efficiency improves with the tiling
        // factor while utilization worsens.
        let cp = Cp::paper_problem();
        let spec = MachineSpec::geforce_8800_gtx();
        let evals: Vec<_> = [1u32, 2, 4, 8, 16]
            .iter()
            .map(|&t| {
                cp.candidate(&CpConfig { block: 128, tiling: t, coalesced_output: true })
                    .evaluate(&spec)
                    .unwrap()
            })
            .collect();
        for pair in evals.windows(2) {
            assert!(
                pair[1].metrics.efficiency > pair[0].metrics.efficiency,
                "efficiency must improve with tiling"
            );
            assert!(
                pair[1].metrics.utilization < pair[0].metrics.utilization,
                "utilization must degrade with tiling"
            );
        }
    }

    #[test]
    fn sfu_blocking_gives_cp_meaningful_regions() {
        // CP has no long-latency loads in its loop; the SFU rsqrt ops
        // must provide the blocking structure (section 4: "We consider
        // SFU instructions to have long latency when longer latency
        // operations are not present").
        let cp = Cp::paper_problem();
        let cfg = CpConfig { block: 128, tiling: 4, coalesced_output: true };
        let spec = MachineSpec::geforce_8800_gtx();
        let e = cp.candidate(&cfg).evaluate(&spec).unwrap();
        // 4 rsqrts per atom iteration.
        assert!(
            e.kernel_profile.profile.regions > u64::from(cp.atoms) * 4,
            "regions = {}",
            e.kernel_profile.profile.regions
        );
    }

    #[test]
    fn uncoalesced_output_shows_in_the_mix() {
        let cp = Cp::paper_problem();
        let co = cp.generate(&CpConfig { block: 128, tiling: 2, coalesced_output: true });
        let unco = cp.generate(&CpConfig { block: 128, tiling: 2, coalesced_output: false });
        assert_eq!(gpu_ir::analysis::instruction_mix(&co).uncoalesced_accesses, 0);
        assert_eq!(gpu_ir::analysis::instruction_mix(&unco).uncoalesced_accesses, 2);
    }
}
