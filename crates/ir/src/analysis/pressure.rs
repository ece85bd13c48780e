//! Register-pressure estimation — our `-cubin` register count.
//!
//! The CUDA runtime's register allocator is invisible to the programmer;
//! the paper reads its result out of `-cubin` and notes that "a small
//! change in code can result in resource usage that changes the number of
//! thread blocks executing on an SM". We model the allocator with a
//! linear-scan over an unrolled-twice flattening of the kernel:
//!
//! * loops are expanded **twice** so that loop-carried live ranges
//!   (accumulators, prefetch buffers, induction variables) span a back
//!   edge and are charged for the whole loop;
//! * each virtual register live range runs from its first definition to
//!   its last use; the register count is the maximum number of
//!   simultaneously live ranges plus a small reserved set
//!   ([`RESERVED_REGS`]) for the parameter/thread-id conventions real
//!   kernels always pay.

use crate::kernel::{Kernel, Loop, Stmt};
use crate::types::{Operand, VReg};

/// Registers reserved beyond the allocator's max-live figure, covering the
/// stack-pointer/param conventions present in every real `cubin`.
pub const RESERVED_REGS: u32 = 2;

/// Output of the pressure analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureReport {
    /// Maximum simultaneously-live virtual registers.
    pub max_live: u32,
    /// Total per-thread registers reported (`max_live + RESERVED_REGS`),
    /// the figure the occupancy calculation consumes.
    pub regs_per_thread: u32,
}

/// Iterations of `l` the flattening expands: two expose every
/// loop-carried range; a loop that runs once or never expands as such.
fn copies(l: &Loop) -> u32 {
    l.trip_count.min(2)
}

/// Walk the unrolled-twice flattening of `stmts`, calling
/// `event(def, uses)` for each def/use event in order. The events are
/// streamed, not collected: the analyses allocate per register and per
/// event index, never per event.
fn flatten(stmts: &[Stmt], event: &mut impl FnMut(Option<VReg>, &[Operand])) {
    for s in stmts {
        match s {
            Stmt::Op(i) => event(i.dst, &i.srcs),
            Stmt::Sync => {}
            Stmt::Loop(l) => {
                // Counter is defined at loop entry...
                if let Some(c) = l.counter {
                    event(Some(c), &[]);
                }
                // ...and the body runs (conceptually) many times; two
                // copies expose every loop-carried range.
                for _ in 0..copies(l) {
                    flatten(&l.body, event);
                    if let Some(c) = l.counter {
                        // The trip increment both reads and writes the
                        // counter, keeping it live across the back edge.
                        event(Some(c), &[Operand::Reg(c)]);
                    }
                }
            }
        }
    }
}

/// One live range of a virtual register in the flattened event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRange {
    /// The virtual register this range belongs to. A register re-defined
    /// by a killing definition owns several disjoint ranges.
    pub reg: VReg,
    /// Event index of the (re)definition.
    pub start: usize,
    /// Event index of the last touch.
    pub end: usize,
}

/// The multi-interval liveness of a kernel (the input to both the
/// pressure estimate and the linear-scan register allocator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveRanges {
    /// All ranges, in order of construction.
    pub ranges: Vec<LiveRange>,
}

/// Compute the live ranges of every virtual register over the
/// unrolled-twice flattening (see module docs). A def that does not
/// also read its destination *kills* the previous range — per-iteration
/// temporaries re-defined by the next unrolled copy are dead in
/// between, so a single first-def→last-touch interval would wildly
/// overestimate loop bodies.
pub fn live_ranges(kernel: &Kernel) -> LiveRanges {
    let mut ranges = Vec::new();
    for_each_live_range(kernel, |r| ranges.push(r));
    LiveRanges { ranges }
}

/// Report every live range of [`live_ranges`] to `range`, in the same
/// order: each killed range as its register is redefined, then the
/// ranges still open at the end, by register.
fn for_each_live_range(kernel: &Kernel, mut range: impl FnMut(LiveRange)) {
    #[derive(Clone, Copy)]
    struct Open {
        start: usize,
        last: usize,
    }
    let mut open: Vec<Option<Open>> = vec![None; kernel.num_vregs as usize];
    let mut idx = 0;
    flatten(&kernel.body, &mut |def, uses| {
        let is_accum = def.is_some_and(|d| uses.contains(&Operand::Reg(d)));
        for u in uses.iter().filter_map(Operand::reg) {
            let slot = &mut open[u.index()];
            match slot {
                Some(o) => o.last = idx,
                None => *slot = Some(Open { start: idx, last: idx }),
            }
        }
        if let Some(d) = def {
            if !is_accum {
                // Killing definition: close the old range, open a new one.
                if let Some(o) = open[d.index()].take() {
                    range(LiveRange { reg: d, start: o.start, end: o.last });
                }
                open[d.index()] = Some(Open { start: idx, last: idx });
            }
        }
        idx += 1;
    });
    for (i, o) in open.into_iter().enumerate() {
        if let Some(o) = o {
            range(LiveRange { reg: VReg(i as u32), start: o.start, end: o.last });
        }
    }
}

/// Estimate per-thread register usage for `kernel`.
///
/// # Examples
///
/// ```
/// use gpu_ir::build::KernelBuilder;
/// use gpu_ir::analysis::{register_pressure, RESERVED_REGS};
///
/// let mut b = KernelBuilder::new("k");
/// let x = b.mov(1.0f32);
/// let y = b.mov(2.0f32);
/// b.fadd(x, y); // x, y live together, then the sum: max 2 live at once
/// let p = register_pressure(&b.finish());
/// assert_eq!(p.max_live, 2);
/// assert_eq!(p.regs_per_thread, 2 + RESERVED_REGS);
/// ```
pub fn register_pressure(kernel: &Kernel) -> PressureReport {
    // Register need at instruction `idx` is max(live-in, live-out): a
    // destination may reuse the register of a source dying at the same
    // instruction (reads precede the write), exactly as a real allocator
    // coalesces `add r0, r0, 1`-style chains.
    //
    //   live-in(idx)  = #{range : start <  idx <= end}
    //   live-out(idx) = #{range : start <= idx <  end}
    //                 + point ranges at idx (defined, never used again)
    //
    // Ranges start and end at event indices below `len`, so per-event
    // difference arrays of `len + 1` entries cover them all.
    #[derive(Clone, Copy, Default)]
    struct Delta {
        din: i32,
        dout: i32,
        point: i32,
    }
    let mut len = 0;
    flatten(&kernel.body, &mut |_, _| len += 1);
    let mut delta = vec![Delta::default(); len + 1];
    for_each_live_range(kernel, |LiveRange { start: f, end: l, .. }| {
        if l > f {
            delta[f + 1].din += 1;
            delta[l + 1].din -= 1;
            delta[f].dout += 1;
            delta[l].dout -= 1;
        } else {
            delta[f].point += 1;
        }
    });
    let mut max_live = 0i32;
    let (mut live_in, mut live_out) = (0i32, 0i32);
    for d in &delta[..len] {
        live_in += d.din;
        live_out += d.dout;
        max_live = max_live.max(live_in).max(live_out + d.point);
    }

    let max_live = max_live as u32;
    PressureReport { max_live, regs_per_thread: max_live + RESERVED_REGS }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KernelBuilder;

    #[test]
    fn empty_kernel_uses_only_reserved() {
        let b = KernelBuilder::new("k");
        let p = register_pressure(&b.finish());
        assert_eq!(p.max_live, 0);
        assert_eq!(p.regs_per_thread, RESERVED_REGS);
    }

    #[test]
    fn sequential_reuse_keeps_pressure_low() {
        // A chain x -> y -> z where each value dies feeding the next: the
        // destination reuses the dying source's register, so the whole
        // chain needs a single register.
        let mut b = KernelBuilder::new("k");
        let x = b.mov(1.0f32);
        let y = b.fadd(x, 1.0f32);
        let z = b.fadd(y, 1.0f32);
        b.fadd(z, 1.0f32);
        let p = register_pressure(&b.finish());
        assert_eq!(p.max_live, 1);
    }

    #[test]
    fn fanin_raises_pressure() {
        let mut b = KernelBuilder::new("k");
        let vals: Vec<_> = (0..6).map(|i| b.mov(i as f32)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.fadd(acc, v);
        }
        let p = register_pressure(&b.finish());
        // All six initial values are live before the first add.
        assert_eq!(p.max_live, 6);
    }

    #[test]
    fn loop_carried_value_stays_live() {
        let mut b = KernelBuilder::new("k");
        let acc = b.mov(0.0f32);
        let stride = b.mov(16i32);
        b.repeat(8, |b| {
            // acc is both read and written each iteration; stride is read.
            b.fmad_acc(1.0f32, 2.0f32, acc);
            b.iadd(stride, 1i32);
        });
        b.st_global(stride, 0, acc);
        let p = register_pressure(&b.finish());
        // acc + stride + the iadd temp.
        assert!(p.max_live >= 3, "max_live = {}", p.max_live);
    }

    #[test]
    fn prefetch_style_buffer_spans_back_edge() {
        // load into t in iteration i, consume in iteration i+1: the
        // twice-unrolled flattening must keep t live across the boundary.
        let mut b = KernelBuilder::new("noprefetch");
        let base = b.param(0);
        b.repeat(8, |b| {
            let t = b.ld_global(base, 0);
            b.fadd(t, 1.0f32);
        });
        let no_prefetch = register_pressure(&b.finish());

        let mut b = KernelBuilder::new("prefetch");
        let base = b.param(0);
        let buf = b.ld_global(base, 0);
        b.repeat(8, |b| {
            let next = b.ld_global(base, 4);
            let v = b.fadd(buf, 0.0f32); // consume previous buffer
            b.fadd(v, 1.0f32);
            b.push_instr(crate::instr::Instr::new(
                crate::instr::Op::Mov,
                Some(buf),
                vec![next.into()],
            ));
        });
        let prefetch = register_pressure(&b.finish());
        assert!(
            prefetch.max_live > no_prefetch.max_live,
            "prefetch {} !> baseline {}",
            prefetch.max_live,
            no_prefetch.max_live
        );
    }

    #[test]
    fn counter_occupies_a_register() {
        let mut b = KernelBuilder::new("k");
        b.for_loop(4, |b, i| {
            b.iadd(i, 1i32);
        });
        let with_counter = register_pressure(&b.finish());

        let mut b = KernelBuilder::new("k");
        b.repeat(4, |b| {
            b.mov(1i32);
        });
        let without = register_pressure(&b.finish());
        assert!(with_counter.max_live > without.max_live);
    }

    #[test]
    fn zero_trip_loop_contributes_nothing() {
        let mut b = KernelBuilder::new("k");
        b.repeat(0, |b| {
            let x = b.mov(1.0f32);
            b.fadd(x, x);
        });
        let p = register_pressure(&b.finish());
        assert_eq!(p.max_live, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::build::KernelBuilder;
    use proptest::prelude::*;

    proptest! {
        /// Appending an instruction that defines a new always-live value
        /// never decreases pressure.
        #[test]
        fn pressure_monotone_under_new_live_values(n in 1usize..40) {
            let mut b = KernelBuilder::new("k");
            let vals: Vec<_> = (0..n).map(|i| b.mov(i as f32)).collect();
            // Use all of them at the end so all stay live.
            let mut acc = vals[0];
            for &v in &vals[1..] {
                acc = b.fadd(acc, v);
            }
            let _ = acc;
            let p = register_pressure(&b.finish());
            prop_assert_eq!(p.max_live as usize, n.max(1));
        }

        /// Pressure never exceeds the number of virtual registers.
        #[test]
        fn pressure_bounded_by_vreg_count(n in 1usize..30, chain in 0usize..30) {
            let mut b = KernelBuilder::new("k");
            let mut last = b.mov(0.0f32);
            for _ in 0..n {
                last = b.fadd(last, 1.0f32);
            }
            for _ in 0..chain {
                last = b.fmul(last, 2.0f32);
            }
            let k = b.finish();
            let p = register_pressure(&k);
            prop_assert!(p.max_live <= k.num_vregs);
            prop_assert!(p.max_live >= 1);
        }
    }
}
