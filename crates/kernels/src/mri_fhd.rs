//! MRI-FHD: "computation of an image-specific matrix F^H d, used in a 3D
//! magnetic resonance image reconstruction algorithm that operates on
//! scan data acquired in a non-Cartesian space" (Table 3 row 4; Figure
//! 6(b); the section 5.2/5.3 discussion).
//!
//! One thread owns one voxel; it walks the k-space sample list in
//! constant memory accumulating
//!
//! ```text
//! rFhd[n] += rd·cos(2π k·x) − id·sin(2π k·x)
//! iFhd[n] += id·cos(2π k·x) + rd·sin(2π k·x)
//! ```
//!
//! with `sin`/`cos` on the SFUs. Knobs (Table 4 row 4): thread-block
//! size {32, 64, 128, 256, 512} × k-loop unroll {1, 2, 4, 8, 16} ×
//! work per kernel invocation {1, 2, 4, 8, 16, 32, 64 splits} — the
//! paper's 175 configurations exactly. Splitting the sample list across
//! invocations leaves both metrics essentially unchanged (each
//! invocation reloads its accumulators, a rounding-level effect), which
//! is why Figure 6(b)'s points cluster in groups of seven.

use std::f32::consts::TAU;
use std::fmt;

use gpu_ir::build::KernelBuilder;
use gpu_ir::types::Special;
use gpu_ir::{Dim, Instr, Kernel, Launch, Op};
use gpu_passes::{innermost_loops, unroll};
use gpu_sim::interp::{run_kernel_checked, DeviceMemory};
use gpu_sim::SimError;
use optspace::candidate::Candidate;
use optspace::space::{Point, Space};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::app::App;

/// The MRI-FHD application: `voxels` image points, `samples` k-space
/// samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MriFhd {
    /// Image voxels; must be a multiple of 512 (largest block).
    pub voxels: u32,
    /// K-space samples; must be a multiple of 1024 so every
    /// unroll × invocation combination divides.
    pub samples: u32,
}

/// One optimization configuration of the MRI-FHD space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MriConfig {
    /// Threads per (1-D) thread block.
    pub block: u32,
    /// Unroll factor of the k-space loop.
    pub unroll: u32,
    /// Number of kernel invocations the sample list is split across.
    pub invocations: u32,
}

impl fmt::Display for MriConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}/u{}/inv{}", self.block, self.unroll, self.invocations)
    }
}

impl MriFhd {
    /// An MRI-FHD instance.
    ///
    /// # Panics
    ///
    /// Panics unless `voxels` is a multiple of 512 and `samples` a
    /// multiple of 1024.
    pub fn new(voxels: u32, samples: u32) -> Self {
        assert!(voxels.is_multiple_of(512), "voxels must be a multiple of 512");
        assert!(samples.is_multiple_of(1024), "samples must be a multiple of 1024");
        Self { voxels, samples }
    }

    /// Paper-flavoured problem: 32³ voxels, 2048 samples (40 KB of the
    /// 64 KB constant space).
    pub fn paper_problem() -> Self {
        Self::new(32_768, 2_048)
    }

    /// Small instance for functional tests.
    pub fn test_problem() -> Self {
        Self::new(512, 1_024)
    }

    /// Decode one point of the declared space back into a typed
    /// configuration.
    pub fn config_of(point: &Point) -> MriConfig {
        MriConfig {
            block: point.u32("block"),
            unroll: point.u32("unroll"),
            invocations: point.u32("inv"),
        }
    }

    /// The 175-point configuration grid (5 × 5 × 7) as typed
    /// configurations, decoded from the declarative [`App::space`].
    pub fn configs(&self) -> Vec<MriConfig> {
        self.space().points().map(|p| Self::config_of(&p)).collect()
    }

    /// Launch geometry (identical for every invocation).
    pub fn launch(&self, cfg: &MriConfig) -> Launch {
        Launch::new(Dim::new_1d(self.voxels / cfg.block), Dim::new_1d(cfg.block))
    }

    /// Samples processed by one invocation.
    pub fn samples_per_invocation(&self, cfg: &MriConfig) -> u32 {
        self.samples / cfg.invocations
    }

    /// Generate the per-invocation kernel for `cfg`.
    ///
    /// Parameter 5 is the constant-table word offset of this
    /// invocation's first sample, so the same kernel serves all
    /// invocations.
    pub fn generate(&self, cfg: &MriConfig) -> Kernel {
        let mut b = KernelBuilder::new(format!("mri_fhd_{cfg}"));
        let x_base = b.param(0);
        let y_base = b.param(1);
        let z_base = b.param(2);
        let r_base = b.param(3);
        let i_base = b.param(4);
        let k_off = b.param(5);

        let tx = b.read_special(Special::TidX);
        let bx = b.read_special(Special::CtaIdX);
        let ntid = b.read_special(Special::NTidX);
        let t = b.imad(bx, ntid, tx);

        // Voxel coordinates and running accumulators (reloaded per
        // invocation — the cost that separates the invocation variants).
        // Addresses first, then one batch of independent loads: a single
        // blocking unit, so the prologue contributes one region rather
        // than five and the per-invocation region count stays dominated
        // by the sample loop.
        let xa = b.iadd(x_base, t);
        let ya = b.iadd(y_base, t);
        let za = b.iadd(z_base, t);
        let ra = b.iadd(r_base, t);
        let ia = b.iadd(i_base, t);
        let x = b.ld_global(xa, 0);
        let y = b.ld_global(ya, 0);
        let z = b.ld_global(za, 0);
        let racc = b.ld_global(ra, 0);
        let iacc = b.ld_global(ia, 0);

        let kp = b.mov(k_off);
        b.repeat(self.samples_per_invocation(cfg), |b| {
            let kx = b.ld_const(kp, 0);
            let ky = b.ld_const(kp, 1);
            let kz = b.ld_const(kp, 2);
            let rd = b.ld_const(kp, 3);
            let id = b.ld_const(kp, 4);
            let p0 = b.fmul(kx, x);
            let p1 = b.fmad(ky, y, p0);
            let p2 = b.fmad(kz, z, p1);
            let ang = b.fmul_imm(p2, TAU);
            let c = b.cos(ang);
            let s = b.sin(ang);
            // racc += rd*c − id*s
            b.fmad_acc(rd, c, racc);
            let t1 = b.fmul(id, s);
            b.push_instr(Instr::new(Op::FSub, Some(racc), [racc.into(), t1.into()]));
            // iacc += id*c + rd*s
            b.fmad_acc(id, c, iacc);
            b.fmad_acc(rd, s, iacc);
            b.iadd_acc(kp, 5);
        });
        b.st_global(ra, 0, racc);
        b.st_global(ia, 0, iacc);
        let mut k = b.finish();

        let inner = innermost_loops(&k).into_iter().next().expect("k-loop exists");
        unroll(&mut k, &inner, cfg.unroll).expect("powers of two divide");
        gpu_passes::fold_strided_addresses(&mut k);
        k
    }

    /// Paper-scale candidate, carrying the invocation multiplier.
    pub fn candidate(&self, cfg: &MriConfig) -> Candidate {
        Candidate::new(cfg.to_string(), self.generate(cfg), self.launch(cfg))
            .with_invocations(cfg.invocations)
    }

    /// Device memory: voxel coordinates in global memory, k-space
    /// samples (kx, ky, kz, rd, id per sample) in the constant bank,
    /// zeroed accumulators.
    pub fn setup(&self, seed: u64) -> (DeviceMemory, Vec<i32>) {
        let n = self.voxels as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut constant = Vec::with_capacity(self.samples as usize * 5);
        for _ in 0..self.samples {
            for _ in 0..3 {
                constant.push(rng.gen_range(-0.5..0.5)); // k-space coords
            }
            constant.push(rng.gen_range(-1.0..1.0)); // rd
            constant.push(rng.gen_range(-1.0..1.0)); // id
        }
        let mut mem = DeviceMemory::with_constant(5 * n, constant);
        for v in &mut mem.global[..3 * n] {
            *v = rng.gen_range(-1.0..1.0); // voxel coordinates
        }
        let n = n as i32;
        (mem, vec![0, n, 2 * n, 3 * n, 4 * n])
    }

    /// Execute all invocations of `cfg` functionally, with the dynamic
    /// shared-memory race oracle armed; returns the concatenated
    /// `(rFhd, iFhd)` arrays.
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults, including [`SimError::SharedRace`].
    pub fn run_config(
        &self,
        cfg: &MriConfig,
        mem: &mut DeviceMemory,
        params: &[i32],
    ) -> Result<Vec<f32>, SimError> {
        let kernel = self.generate(cfg);
        let prog = gpu_ir::linear::linearize(&kernel);
        let launch = self.launch(cfg);
        let per_inv = self.samples_per_invocation(cfg);
        for g in 0..cfg.invocations {
            let mut p = params.to_vec();
            p.push((g * per_inv * 5) as i32);
            run_kernel_checked(&prog, &launch, &p, mem)?;
        }
        let n = self.voxels as usize;
        Ok(mem.global[3 * n..5 * n].to_vec())
    }

    /// Single-thread CPU reference, same sample order and fused ops.
    pub fn cpu_reference(&self, mem: &DeviceMemory) -> Vec<f32> {
        let n = self.voxels as usize;
        let mut out = vec![0.0f32; 2 * n];
        for v in 0..n {
            let (x, y, z) = (mem.global[v], mem.global[n + v], mem.global[2 * n + v]);
            let mut racc = 0.0f32;
            let mut iacc = 0.0f32;
            for s in 0..self.samples as usize {
                let kx = mem.constant[s * 5];
                let ky = mem.constant[s * 5 + 1];
                let kz = mem.constant[s * 5 + 2];
                let rd = mem.constant[s * 5 + 3];
                let id = mem.constant[s * 5 + 4];
                let ang = ky.mul_add(y, kx * x);
                let ang = kz.mul_add(z, ang) * TAU;
                let (c, si) = (ang.cos(), ang.sin());
                racc = rd.mul_add(c, racc);
                racc -= id * si;
                iacc = id.mul_add(c, iacc);
                iacc = rd.mul_add(si, iacc);
            }
            out[v] = racc;
            out[n + v] = iacc;
        }
        out
    }
}

impl App for MriFhd {
    fn name(&self) -> &'static str {
        "MRI-FHD"
    }

    /// Table 4 row 4 as declared axes: thread-block size, k-loop
    /// unroll, and invocation split — the paper's 175 configurations
    /// exactly, no structural constraints.
    fn space(&self) -> Space {
        Space::builder()
            .axis("block", [32u32, 64, 128, 256, 512])
            .axis("unroll", [1u32, 2, 4, 8, 16])
            .axis("inv", [1u32, 2, 4, 8, 16, 32, 64])
            .label(|p| MriFhd::config_of(p).to_string())
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
    fn space_is_175_all_valid() {
        let mri = MriFhd::paper_problem();
        let space = mri.configs();
        assert_eq!(space.len(), 175);
        let spec = MachineSpec::geforce_8800_gtx();
        let valid = space.iter().filter(|c| mri.candidate(c).evaluate(&spec).is_ok()).count();
        assert_eq!(valid, 175, "Table 4 reports 175 MRI-FHD configurations");
    }

    #[test]
    fn functional_equivalence_across_unroll_and_invocations() {
        let mri = MriFhd::test_problem();
        let (mem0, params) = mri.setup(5);
        let reference = mri.cpu_reference(&mem0);
        for cfg in [
            MriConfig { block: 64, unroll: 1, invocations: 1 },
            MriConfig { block: 128, unroll: 4, invocations: 2 },
            MriConfig { block: 512, unroll: 16, invocations: 8 },
            MriConfig { block: 32, unroll: 2, invocations: 64 },
        ] {
            let mut mem = mem0.clone();
            let got = mri.run_config(&cfg, &mut mem, &params).unwrap();
            assert_eq!(got, reference, "config {cfg}");
        }
    }

    #[test]
    fn invocation_variants_cluster_in_metric_space() {
        // Figure 6(b): "configurations tend to be clustered in groups of
        // seven because changing the [work-per-invocation] factor
        // affects neither the efficiency nor the utilization".
        let mri = MriFhd::paper_problem();
        let spec = MachineSpec::geforce_8800_gtx();
        let base = MriConfig { block: 128, unroll: 4, invocations: 1 };
        let e0 = mri.candidate(&base).evaluate(&spec).unwrap();
        for inv in [2u32, 4, 8, 16, 32, 64] {
            let e = mri.candidate(&MriConfig { invocations: inv, ..base }).evaluate(&spec).unwrap();
            let deff = (e.metrics.efficiency / e0.metrics.efficiency - 1.0).abs();
            let dutil = (e.metrics.utilization / e0.metrics.utilization - 1.0).abs();
            // "Indistinguishable at this resolution": the per-invocation
            // prologue (accumulator reload) leaves a few percent of
            // drift at the 64-way split, as the paper's up-to-7.1%
            // within-cluster runtime variation suggests.
            assert!(deff < 0.05, "efficiency moved {deff} at inv={inv}");
            assert!(dutil < 0.05, "utilization moved {dutil} at inv={inv}");
        }
    }

    #[test]
    fn unrolling_reduces_instructions_per_thread() {
        let mri = MriFhd::paper_problem();
        let spec = MachineSpec::geforce_8800_gtx();
        let mk = |u| MriConfig { block: 128, unroll: u, invocations: 1 };
        let i1 = mri.candidate(&mk(1)).evaluate(&spec).unwrap().kernel_profile.profile.instr;
        let i16 = mri.candidate(&mk(16)).evaluate(&spec).unwrap().kernel_profile.profile.instr;
        assert!(i16 < i1, "unroll 16 {i16} !< unroll 1 {i1}");
    }

    #[test]
    fn block_size_moves_utilization() {
        let mri = MriFhd::paper_problem();
        let spec = MachineSpec::geforce_8800_gtx();
        let mk = |blk| MriConfig { block: blk, unroll: 4, invocations: 1 };
        let utils: Vec<f64> = [32u32, 64, 128, 256, 512]
            .iter()
            .map(|&blk| mri.candidate(&mk(blk)).evaluate(&spec).unwrap().metrics.utilization)
            .collect();
        // Not all equal: the occupancy bracket must vary across blocks.
        let min = utils.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = utils.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.2, "utilization should vary: {utils:?}");
    }
}
