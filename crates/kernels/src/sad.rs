//! Sum of Absolute Differences (SAD): "SADs are computed between 4×4
//! pixel blocks in two QCIF-size images over a 32 pixel square search
//! area" (Table 3 row 3; Figure 4; Figure 6(d)).
//!
//! One thread block owns a group of `mb_tiling` vertically adjacent
//! macroblocks; its threads stride across the search positions. The
//! current macroblocks' pixels are staged in shared memory behind a
//! barrier; each position's 4×4 SAD walks a row loop and a column loop
//! over clamped reference-image coordinates.
//!
//! Knobs (Table 4 row 3): threads per block {32 … 384, the Figure 4
//! x-axis} × per-thread macroblock tiling {1, 2, 4} × unroll factors
//! for the three loops (position / row / column). The position loop's
//! trip count is `ceil(positions / threads)`, so not every unroll
//! factor is constructible for every block size — the space is the set
//! of constructible grid points, mirroring how the paper's 908 arise
//! from a larger parameter grid.

use std::fmt;

use gpu_ir::build::KernelBuilder;
use gpu_ir::types::Special;
use gpu_ir::{Dim, Instr, Kernel, Launch, Op};
use gpu_passes::{find_loops, unroll, LoopId};
use gpu_sim::interp::{run_kernel_checked, DeviceMemory};
use gpu_sim::SimError;
use optspace::candidate::Candidate;
use optspace::space::{Point, Space, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::app::App;

/// Macroblock edge in pixels (4×4 blocks, as in the paper).
pub const MB_DIM: u32 = 4;

/// The SAD application over a `width × height` frame pair with a
/// `search × search` search window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sad {
    /// Frame width in pixels; multiple of 4.
    pub width: u32,
    /// Frame height in pixels; multiple of 16 (so 4-high macroblock
    /// groups tile it).
    pub height: u32,
    /// Search-window edge; power of two (32 in the paper).
    pub search: u32,
}

/// One optimization configuration of the SAD space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SadConfig {
    /// Threads per (1-D) thread block.
    pub tpb: u32,
    /// Vertically adjacent macroblocks per block (per-thread tiling).
    pub mb_tiling: u32,
    /// Unroll factor of the per-thread position loop.
    pub pos_unroll: u32,
    /// Unroll factor of the 4-iteration row loop.
    pub row_unroll: u32,
    /// Unroll factor of the 4-iteration column loop.
    pub col_unroll: u32,
}

impl fmt::Display for SadConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tpb{}/mb{}/p{}r{}c{}",
            self.tpb, self.mb_tiling, self.pos_unroll, self.row_unroll, self.col_unroll
        )
    }
}

impl Sad {
    /// A SAD instance.
    ///
    /// # Panics
    ///
    /// Panics unless `width % 4 == 0`, `height % 16 == 0`, and `search`
    /// is a power of two.
    pub fn new(width: u32, height: u32, search: u32) -> Self {
        assert!(width.is_multiple_of(MB_DIM), "width must be a multiple of 4");
        assert!(height.is_multiple_of(4 * MB_DIM), "height must be a multiple of 16");
        assert!(search.is_power_of_two(), "search window must be a power of two");
        Self { width, height, search }
    }

    /// The paper's QCIF problem: 176×144 pixels, 32×32 search window.
    pub fn paper_problem() -> Self {
        Self::new(176, 144, 32)
    }

    /// Small instance for functional tests.
    pub fn test_problem() -> Self {
        Self::new(48, 16, 8)
    }

    /// Search positions per macroblock.
    pub fn positions(&self) -> u32 {
        self.search * self.search
    }

    /// Macroblock grid dimensions.
    pub fn mb_grid(&self) -> (u32, u32) {
        (self.width / MB_DIM, self.height / MB_DIM)
    }

    /// Position-loop trip count for a block size.
    pub fn pos_trips(&self, tpb: u32) -> u32 {
        self.positions().div_ceil(tpb)
    }

    /// Decode one point of the declared space back into a typed
    /// configuration.
    pub fn config_of(point: &Point) -> SadConfig {
        SadConfig {
            tpb: point.u32("tpb"),
            mb_tiling: point.u32("mb"),
            pos_unroll: point.u32("pos"),
            row_unroll: point.u32("row"),
            col_unroll: point.u32("col"),
        }
    }

    /// All constructible configurations as typed configurations, decoded
    /// from the declarative [`App::space`]: the full parameter grid
    /// restricted to position-unroll factors that divide the trip count.
    pub fn configs(&self) -> Vec<SadConfig> {
        self.space().points().map(|p| Self::config_of(&p)).collect()
    }

    /// Launch geometry: one block per horizontal macroblock ×
    /// vertical macroblock group.
    pub fn launch(&self, cfg: &SadConfig) -> Launch {
        let (mbx, mby) = self.mb_grid();
        Launch::new(Dim::new_2d(mbx, mby / cfg.mb_tiling), Dim::new_1d(cfg.tpb))
    }

    /// Generate the kernel for `cfg`.
    pub fn generate(&self, cfg: &SadConfig) -> Kernel {
        let v_count = cfg.mb_tiling as i32;
        let w = self.width as i32;
        let h = self.height as i32;
        let s = self.search as i32;
        let positions = (self.search * self.search) as i32;
        let npix = v_count * 16;

        let mut b = KernelBuilder::new(format!("sad_{cfg}"));
        let cur_base = b.param(0);
        let ref_base = b.param(1);
        let out_base = b.param(2);
        let tx = b.read_special(Special::TidX);
        let bx = b.read_special(Special::CtaIdX); // macroblock x
        let by = b.read_special(Special::CtaIdY); // macroblock group y

        b.alloc_shared(npix as u32 * 4);

        let mby0 = b.imul(by, v_count); // first macroblock row index
        let mbx4 = b.imul(bx, MB_DIM as i32); // pixel column of the block

        // ---- stage the current macroblocks' pixels in shared memory ----
        let load_trips = (npix as u32).div_ceil(cfg.tpb);
        let ldidx = b.mov(tx);
        b.repeat(load_trips, |b| {
            let idx = b.imin(ldidx, npix - 1);
            let vv = b.shr(idx, 4i32);
            let o = b.and(idx, 15i32);
            let r = b.shr(o, 2i32);
            let c = b.and(o, 3i32);
            let mbrow = b.iadd(mby0, vv);
            let prow0 = b.imul(mbrow, MB_DIM as i32);
            let prow = b.iadd(prow0, r);
            let pcol = b.iadd(mbx4, c);
            let a0 = b.imad(prow, w, pcol);
            let addr = b.iadd(a0, cur_base);
            let px = b.ld_global_uncoalesced(addr, 0);
            b.st_shared(idx, 0, px);
            b.iadd_acc(ldidx, cfg.tpb as i32);
        });
        b.sync();

        // Per-macroblock invariants (induction-variable expansion).
        let mut ref_rows = Vec::new(); // pixel row of each macroblock's top
        let mut out_bases = Vec::new(); // out + mb_linear * positions
        let (mbx_count, _) = self.mb_grid();
        for v in 0..v_count {
            let mbrow = b.iadd(mby0, v);
            let top = b.imul(mbrow, MB_DIM as i32);
            ref_rows.push(top);
            let lin = b.imad(mbrow, mbx_count as i32, bx);
            let scaled = b.imul(lin, positions);
            out_bases.push(b.iadd(scaled, out_base));
        }

        // ---- the three-deep search loop nest ----
        let posreg = b.mov(tx);
        b.repeat(self.pos_trips(cfg.tpb), |b| {
            let pos = b.imin(posreg, positions - 1);
            let sx0 = b.and(pos, s - 1);
            let sx = b.iadd(sx0, -(s / 2));
            let sy0 = b.shr(pos, s.trailing_zeros() as i32);
            let sy = b.iadd(sy0, -(s / 2));
            let accs: Vec<_> = (0..v_count).map(|_| b.mov(0.0f32)).collect();
            b.for_loop(MB_DIM, |b, r| {
                b.for_loop(MB_DIM, |b, c| {
                    let rx0 = b.iadd(mbx4, sx);
                    let rx1 = b.iadd(rx0, c);
                    let rx2 = b.imax(rx1, 0i32);
                    let rx = b.imin(rx2, w - 1);
                    for (vi, (&top, &acc)) in ref_rows.iter().zip(&accs).enumerate() {
                        let ry0 = b.iadd(top, sy);
                        let ry1 = b.iadd(ry0, r);
                        let ry2 = b.imax(ry1, 0i32);
                        let ry = b.imin(ry2, h - 1);
                        let ra0 = b.imad(ry, w, rx);
                        let raddr = b.iadd(ra0, ref_base);
                        let rp = b.ld_global(raddr, 0);
                        let so0 = b.imad(r, MB_DIM as i32, c);
                        let soff = b.iadd(so0, (vi as i32) * 16);
                        let cp = b.ld_shared(soff, 0);
                        let d = b.fsub(rp, cp);
                        let ad = b.fabs(d);
                        b.push_instr(Instr::new(Op::FAdd, Some(acc), [acc.into(), ad.into()]));
                    }
                });
            });
            for (&ob, &acc) in out_bases.iter().zip(&accs) {
                let addr = b.iadd(ob, pos);
                b.st_global(addr, 0, acc);
            }
            b.iadd_acc(posreg, cfg.tpb as i32);
        });
        let mut k = b.finish();

        // Unroll innermost-first: column (depth 3), row (depth 2),
        // position (depth 1, the second top-level loop).
        let by_depth = |k: &Kernel, depth: usize| -> Option<LoopId> {
            find_loops(k).into_iter().find(|id| id.depth() == depth)
        };
        let col = by_depth(&k, 3).expect("column loop exists");
        unroll(&mut k, &col, cfg.col_unroll).expect("divides 4");
        if let Some(row) = by_depth(&k, 2) {
            unroll(&mut k, &row, cfg.row_unroll).expect("divides 4");
        } else {
            // Column completely unrolled AND row had become depth 2's
            // only occupant — the row loop is still depth 2 unless the
            // col unroll was complete; in that case the row loop is now
            // the deepest.
            let row =
                find_loops(&k).into_iter().rfind(|id| id.depth() == 2).expect("row loop exists");
            unroll(&mut k, &row, cfg.row_unroll).expect("divides 4");
        }
        // Position loop: the last top-level loop.
        let pos =
            find_loops(&k).into_iter().rfind(|id| id.depth() == 1).expect("position loop exists");
        unroll(&mut k, &pos, cfg.pos_unroll).expect("the space constraint filtered divisibility");
        gpu_passes::fold_strided_addresses(&mut k);
        // Complete unrolls substitute the row/column counters with
        // constants; fold the resulting immediate address arithmetic
        // away — the instruction-count reduction Figure 2(c) is about.
        gpu_passes::fold_constants(&mut k);
        k
    }

    /// Paper-scale candidate.
    pub fn candidate(&self, cfg: &SadConfig) -> Candidate {
        Candidate::new(cfg.to_string(), self.generate(cfg), self.launch(cfg))
    }

    /// Word layout: current frame, reference frame, SAD output.
    fn layout(&self) -> (i32, i32, i32, usize) {
        let frame = (self.width * self.height) as i32;
        let (mbx, mby) = self.mb_grid();
        let out_len = (mbx * mby * self.positions()) as usize;
        (0, frame, 2 * frame, out_len)
    }

    /// Device memory with two random frames (pixel values 0..255).
    pub fn setup(&self, seed: u64) -> (DeviceMemory, Vec<i32>) {
        let (cur, rf, out, out_len) = self.layout();
        let mut mem = DeviceMemory::new(out as usize + out_len);
        let mut rng = StdRng::seed_from_u64(seed);
        for v in &mut mem.global[..out as usize] {
            *v = rng.gen_range(0..256) as f32;
        }
        (mem, vec![cur, rf, out])
    }

    /// Execute `cfg` functionally, with the dynamic shared-memory race
    /// oracle armed; returns the SAD table (`mb_linear × positions`).
    ///
    /// The staging loop's clamped tail writes the same value from
    /// several threads; the oracle's same-bits write/write exemption
    /// keeps that benign pattern legal.
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults, including [`SimError::SharedRace`].
    pub fn run_config(
        &self,
        cfg: &SadConfig,
        mem: &mut DeviceMemory,
        params: &[i32],
    ) -> Result<Vec<f32>, SimError> {
        let kernel = self.generate(cfg);
        let prog = gpu_ir::linear::linearize(&kernel);
        run_kernel_checked(&prog, &self.launch(cfg), params, mem)?;
        let (_, _, out, out_len) = self.layout();
        Ok(mem.global[out as usize..out as usize + out_len].to_vec())
    }

    /// Single-thread CPU reference with identical clamping and
    /// accumulation order.
    pub fn cpu_reference(&self, mem: &DeviceMemory) -> Vec<f32> {
        let w = self.width as i32;
        let h = self.height as i32;
        let s = self.search as i32;
        let (mbx_count, mby_count) = self.mb_grid();
        let positions = (s * s) as usize;
        let frame = (self.width * self.height) as usize;
        let cur = &mem.global[..frame];
        let rf = &mem.global[frame..2 * frame];
        let mut out = vec![0.0f32; mbx_count as usize * mby_count as usize * positions];

        for mby in 0..mby_count as i32 {
            for mbx in 0..mbx_count as i32 {
                let lin = (mby * mbx_count as i32 + mbx) as usize;
                for pos in 0..positions {
                    let sx = (pos as i32 & (s - 1)) - s / 2;
                    let sy = (pos as i32 >> s.trailing_zeros()) - s / 2;
                    let mut acc = 0.0f32;
                    for r in 0..MB_DIM as i32 {
                        for c in 0..MB_DIM as i32 {
                            let rx = (mbx * 4 + sx + c).clamp(0, w - 1);
                            let ry = (mby * 4 + sy + r).clamp(0, h - 1);
                            let rp = rf[(ry * w + rx) as usize];
                            let cp = cur[((mby * 4 + r) * w + mbx * 4 + c) as usize];
                            acc += (rp - cp).abs();
                        }
                    }
                    out[lin * positions + pos] = acc;
                }
            }
        }
        out
    }
}

impl App for Sad {
    fn name(&self) -> &'static str {
        "SAD"
    }

    /// Table 4 row 3 as declared axes plus one structural constraint:
    /// the position loop can only be unrolled by factors dividing its
    /// trip count, which depends on the block size — the constraint
    /// skips exactly the tuples the historical nested loop skipped, so
    /// enumeration order and the constructible count are unchanged.
    fn space(&self) -> Space {
        let app = *self;
        Space::builder()
            .axis("tpb", (1..=12u32).map(|k| k * 32))
            .axis("mb", [1u32, 2, 4])
            .axis("pos", [1u32, 2, 4])
            .axis("row", [1u32, 2, 4])
            .axis("col", [1u32, 2, 4])
            .constraint("pos unroll divides trip count", move |p| {
                app.pos_trips(p.u32("tpb")).is_multiple_of(p.u32("pos"))
            })
            .label(|p| Sad::config_of(p).to_string())
            .build()
    }

    fn instantiate(&self, point: &Point) -> Candidate {
        self.candidate(&Self::config_of(point))
    }

    fn launch(&self, point: &Point) -> Option<Launch> {
        Some(self.launch(&Self::config_of(point)))
    }

    /// Snap `pos` to the largest declared factor dividing the position
    /// loop's trip count for the assignment's `tpb`. Bound probes visit
    /// optimistic corners outside the constrained space; an unsnapped
    /// corner would panic in [`Sad::generate`]'s unroll.
    fn legalize(&self, space: &Space, values: &mut [Value]) {
        let idx = |name: &str| space.axes().iter().position(|a| a.name() == name);
        let (Some(ti), Some(pi)) = (idx("tpb"), idx("pos")) else { return };
        let Some(tpb) = values[ti].as_u32() else { return };
        let trips = self.pos_trips(tpb);
        let pos = values[pi].as_u32().unwrap_or(1);
        if !trips.is_multiple_of(pos) {
            let snapped = space.axes()[pi]
                .values()
                .iter()
                .filter_map(|v| v.as_u32())
                .filter(|&f| trips.is_multiple_of(f))
                .max()
                .unwrap_or(1);
            values[pi] = Value::from(snapped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_is_constructible_and_large() {
        let sad = Sad::paper_problem();
        let space = sad.configs();
        // 12 block sizes × 3 tilings × 9 row/col unroll pairs ×
        // divisible position unrolls (25 block/pos pairs) = 675.
        assert_eq!(space.len(), 675);
        // Every config's position unroll divides its trip count.
        for cfg in &space {
            assert!(sad.pos_trips(cfg.tpb).is_multiple_of(cfg.pos_unroll), "{cfg}");
        }
    }

    #[test]
    fn functional_equivalence_sampled() {
        let sad = Sad::test_problem();
        let (mem0, params) = sad.setup(3);
        let reference = sad.cpu_reference(&mem0);
        for cfg in [
            SadConfig { tpb: 32, mb_tiling: 1, pos_unroll: 1, row_unroll: 1, col_unroll: 1 },
            SadConfig { tpb: 64, mb_tiling: 2, pos_unroll: 1, row_unroll: 2, col_unroll: 4 },
            SadConfig { tpb: 96, mb_tiling: 4, pos_unroll: 1, row_unroll: 4, col_unroll: 2 },
        ] {
            let mut mem = mem0.clone();
            let got = sad.run_config(&cfg, &mut mem, &params).unwrap();
            assert_eq!(got, reference, "config {cfg}");
        }
    }

    #[test]
    fn pos_unroll_functional_equivalence() {
        // Pick a block size whose trip count admits unrolling on the
        // test problem: positions = 64, tpb = 32 -> trips = 2.
        let sad = Sad::test_problem();
        let (mem0, params) = sad.setup(9);
        let reference = sad.cpu_reference(&mem0);
        let cfg = SadConfig { tpb: 32, mb_tiling: 2, pos_unroll: 2, row_unroll: 2, col_unroll: 2 };
        let mut mem = mem0.clone();
        let got = sad.run_config(&cfg, &mut mem, &params).unwrap();
        assert_eq!(got, reference);
    }

    #[test]
    fn unrolling_all_loops_cuts_loop_overhead() {
        let sad = Sad::paper_problem();
        let base =
            SadConfig { tpb: 128, mb_tiling: 1, pos_unroll: 1, row_unroll: 1, col_unroll: 1 };
        let deep =
            SadConfig { tpb: 128, mb_tiling: 1, pos_unroll: 1, row_unroll: 4, col_unroll: 4 };
        let i0 = gpu_ir::analysis::dynamic_counts(&sad.generate(&base)).instrs;
        let i1 = gpu_ir::analysis::dynamic_counts(&sad.generate(&deep)).instrs;
        assert!(i1 < i0, "deep unroll {i1} !< base {i0}");
    }

    #[test]
    fn tiling_amortises_position_decode() {
        let sad = Sad::paper_problem();
        let per_mb_instr = |v: u32| {
            let cfg =
                SadConfig { tpb: 128, mb_tiling: v, pos_unroll: 1, row_unroll: 1, col_unroll: 1 };
            // Same total macroblocks, fewer blocks at higher tiling:
            // compare dynamic instructions per macroblock processed.
            let instr = gpu_ir::analysis::dynamic_counts(&sad.generate(&cfg)).instrs;
            instr as f64 / f64::from(v)
        };
        assert!(per_mb_instr(2) < per_mb_instr(1));
        assert!(per_mb_instr(4) < per_mb_instr(2));
    }
}
