//! Dynamic instruction and blocking-region counts (section 4).
//!
//! `Instr` in Equation 1 is "an estimate of the number of dynamic
//! instructions that will be executed per thread", obtained from PTX with
//! manually annotated loop trip counts. `Regions` in Equation 2 is "the
//! number of dynamic instruction intervals delimited by blocking
//! instructions or the start or end of the kernel", where blocking
//! instructions are long-latency memory operations and barriers, and
//! "sequences of independent, long-latency loads are considered a unit".
//!
//! Our IR carries exact trip counts, so the estimate is exact arithmetic:
//! a loop contributes `trips * (body + LOOP_OVERHEAD_INSTRS)` dynamic
//! instructions and `trips * body_blocking_units` blocking units.

use crate::instr::Instr;
use crate::kernel::{Kernel, Stmt};
use crate::types::VReg;
use crate::LOOP_OVERHEAD_INSTRS;

/// Result of the dynamic-count analysis for one thread's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DynCounts {
    /// Dynamic instructions per thread (the `Instr` of Equations 1–2),
    /// including loop-control overhead.
    pub instrs: u64,
    /// Dynamic blocking units: barriers plus groups of consecutive
    /// independent long-latency loads.
    pub blocking_units: u64,
    /// Dynamic `__syncthreads()` executed (a subset of `blocking_units`).
    pub syncs: u64,
    /// Dynamic long-latency (global/local/texture) loads, before grouping.
    pub long_latency_loads: u64,
}

impl DynCounts {
    /// The `Regions` term of Equation 2: blocking units plus one, since
    /// `n` delimiters cut the instruction stream into `n + 1` intervals.
    pub fn regions(&self) -> u64 {
        self.blocking_units + 1
    }
}

/// Tracks grouping of consecutive independent long-latency loads.
struct UnitState {
    /// Whether the previous statement continued a load unit.
    open: bool,
    /// Number of the current unit; every close starts a new one.
    unit: u32,
    /// Per register, the unit that last defined it: the registers with
    /// `unit_of_def[r] == unit` are the destinations defined inside the
    /// open unit, and a following load that reads one of these is
    /// *dependent* and starts a new unit. Dense by register index, so
    /// closing a unit is O(1).
    unit_of_def: Vec<u32>,
}

impl UnitState {
    fn new(num_vregs: u32) -> Self {
        Self { open: false, unit: 1, unit_of_def: vec![0; num_vregs as usize] }
    }

    fn close(&mut self) {
        self.open = false;
        self.unit += 1;
    }

    fn defined_in_unit(&self, r: VReg) -> bool {
        self.unit_of_def.get(r.index()) == Some(&self.unit)
    }

    fn define(&mut self, r: VReg) {
        if r.index() >= self.unit_of_def.len() {
            // A register past `num_vregs` (unverified IR): grow.
            self.unit_of_def.resize(r.index() + 1, 0);
        }
        self.unit_of_def[r.index()] = self.unit;
    }
}

fn instr_extends_unit(i: &Instr, st: &UnitState) -> bool {
    st.open && i.uses().all(|r| !st.defined_in_unit(r))
}

/// Which instruction classes delimit regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockRules {
    /// Treat SFU ops as blocking. Section 4: "We consider SFU
    /// instructions to have long latency when longer latency operations
    /// are not present" — i.e. for kernels like CP whose loops contain
    /// no off-chip loads.
    sfu_blocks: bool,
}

fn is_blocking(i: &Instr, rules: BlockRules) -> bool {
    i.is_blocking() || (rules.sfu_blocks && i.op.is_sfu())
}

fn walk(stmts: &[Stmt], counts: &mut DynCounts, st: &mut UnitState, rules: BlockRules) {
    for s in stmts {
        match s {
            Stmt::Op(i) => {
                counts.instrs += 1;
                if is_blocking(i, rules) && i.op.has_dst() {
                    counts.long_latency_loads += 1;
                    if instr_extends_unit(i, st) {
                        // Continues the open unit: no new blocking unit.
                    } else {
                        st.close();
                        st.open = true;
                        counts.blocking_units += 1;
                    }
                    if let Some(d) = i.dst {
                        st.define(d);
                    }
                } else {
                    st.close();
                }
            }
            Stmt::Sync => {
                st.close();
                counts.instrs += 1;
                counts.blocking_units += 1;
                counts.syncs += 1;
            }
            Stmt::Loop(l) => {
                // Grouping does not extend across a loop boundary, in
                // either direction.
                st.close();
                let mut body = DynCounts::default();
                walk(&l.body, &mut body, st, rules);
                st.close();
                let trips = u64::from(l.trip_count);
                counts.instrs += trips * (body.instrs + u64::from(LOOP_OVERHEAD_INSTRS));
                counts.blocking_units += trips * body.blocking_units;
                counts.syncs += trips * body.syncs;
                counts.long_latency_loads += trips * body.long_latency_loads;
            }
        }
    }
}

/// Compute the per-thread dynamic counts for a kernel.
///
/// # Examples
///
/// ```
/// use gpu_ir::build::KernelBuilder;
/// use gpu_ir::analysis::dynamic_counts;
///
/// let mut b = KernelBuilder::new("k");
/// let p = b.param(0);
/// b.repeat(10, |b| {
///     let x = b.ld_global(p, 0);
///     b.st_shared(p, 0, x);
///     b.sync();
/// });
/// let c = dynamic_counts(&b.finish());
/// // per iteration: ld + st + sync = 3 instrs, + 3 loop overhead,
/// // plus the one prologue mov.
/// assert_eq!(c.instrs, 1 + 10 * 6);
/// // per iteration: one load unit + one barrier.
/// assert_eq!(c.blocking_units, 20);
/// assert_eq!(c.regions(), 21);
/// ```
pub fn dynamic_counts(kernel: &Kernel) -> DynCounts {
    // SFU ops count as blocking when the *steady-state* instruction
    // stream — the loop bodies — contains no longer-latency loads
    // (the CP and MRI-FHD cases: a handful of prologue loads, then a
    // compute loop whose longest operations are SFU transcendentals).
    fn loop_has_offchip_load(stmts: &[Stmt], in_loop: bool) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Op(i) => in_loop && i.is_blocking() && i.op.has_dst(),
            Stmt::Sync => false,
            Stmt::Loop(l) => loop_has_offchip_load(&l.body, true),
        })
    }
    fn has_sfu(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Op(i) => i.op.is_sfu(),
            Stmt::Sync => false,
            Stmt::Loop(l) => has_sfu(&l.body),
        })
    }
    let sfu_blocks = !loop_has_offchip_load(&kernel.body, false) && has_sfu(&kernel.body);
    dynamic_counts_with(kernel, sfu_blocks)
}

/// [`dynamic_counts`] with explicit control over whether SFU
/// transcendentals count as blocking instructions.
pub fn dynamic_counts_with(kernel: &Kernel, sfu_blocks: bool) -> DynCounts {
    let mut counts = DynCounts::default();
    let mut st = UnitState::new(kernel.num_vregs);
    walk(&kernel.body, &mut counts, &mut st, BlockRules { sfu_blocks });
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KernelBuilder;

    #[test]
    fn straight_line_counts() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(1i32);
        let y = b.iadd(x, 2i32);
        b.imul(y, y);
        let c = dynamic_counts(&b.finish());
        assert_eq!(c.instrs, 3);
        assert_eq!(c.blocking_units, 0);
        assert_eq!(c.regions(), 1);
    }

    #[test]
    fn independent_load_pair_is_one_unit() {
        let mut b = KernelBuilder::new("k");
        let a = b.param(0);
        let c = b.param(1);
        let x = b.ld_global(a, 0);
        let y = b.ld_global(c, 0);
        b.fadd(x, y);
        let counts = dynamic_counts(&b.finish());
        assert_eq!(counts.long_latency_loads, 2);
        assert_eq!(counts.blocking_units, 1);
    }

    #[test]
    fn dependent_load_chain_is_two_units() {
        // Pointer chase: second load's address is the first load's result.
        let mut b = KernelBuilder::new("k");
        let a = b.param(0);
        let p = b.ld_global(a, 0);
        let pi = b.f2i(p); // intervening dependent op also closes the unit
        b.ld_global(pi, 0);
        let counts = dynamic_counts(&b.finish());
        assert_eq!(counts.blocking_units, 2);
    }

    #[test]
    fn directly_dependent_adjacent_loads_are_two_units() {
        let mut b = KernelBuilder::new("k");
        let a = b.param(0);
        let p = b.ld_global(a, 0);
        // Address depends on the previous load's destination.
        let dst = b.fresh();
        b.push_instr(crate::instr::Instr::new(
            crate::instr::Op::Ld(gpu_arch::MemorySpace::Global),
            Some(dst),
            vec![p.into()],
        ));
        let counts = dynamic_counts(&b.finish());
        assert_eq!(counts.blocking_units, 2);
    }

    #[test]
    fn shared_ops_do_not_block() {
        let mut b = KernelBuilder::new("k");
        let a = b.param(0);
        let x = b.ld_shared(a, 0);
        b.st_shared(a, 4, x);
        let counts = dynamic_counts(&b.finish());
        assert_eq!(counts.blocking_units, 0);
    }

    #[test]
    fn global_stores_do_not_block() {
        // Stores retire without stalling the warp; the paper's 769-region
        // matmul example confirms the final store opens no region.
        let mut b = KernelBuilder::new("k");
        let a = b.param(0);
        b.st_global(a, 0, 1.0f32);
        let counts = dynamic_counts(&b.finish());
        assert_eq!(counts.blocking_units, 0);
        assert_eq!(counts.regions(), 1);
    }

    #[test]
    fn loop_multiplies_and_adds_overhead() {
        let mut b = KernelBuilder::new("k");
        b.repeat(100, |b| {
            b.mov(0i32);
            b.mov(1i32);
        });
        let c = dynamic_counts(&b.finish());
        assert_eq!(c.instrs, 100 * (2 + 3));
    }

    #[test]
    fn nested_loops_multiply() {
        let mut b = KernelBuilder::new("k");
        b.repeat(10, |b| {
            b.repeat(5, |b| {
                b.mov(0i32);
            });
        });
        let c = dynamic_counts(&b.finish());
        // inner: 5*(1+3) = 20; outer: 10*(20+3) = 230.
        assert_eq!(c.instrs, 230);
    }

    #[test]
    fn loads_split_by_loop_boundary() {
        let mut b = KernelBuilder::new("k");
        let a = b.param(0);
        b.ld_global(a, 0);
        b.repeat(2, |b| {
            b.ld_global(a, 4);
        });
        let c = dynamic_counts(&b.finish());
        // prologue load: 1 unit; loop: one unit per iteration.
        assert_eq!(c.blocking_units, 3);
    }

    #[test]
    fn sync_counts_as_instruction_and_unit() {
        let mut b = KernelBuilder::new("k");
        b.sync();
        b.sync();
        let c = dynamic_counts(&b.finish());
        assert_eq!(c.instrs, 2);
        assert_eq!(c.syncs, 2);
        assert_eq!(c.blocking_units, 2);
        assert_eq!(c.regions(), 3);
    }

    #[test]
    fn zero_trip_loop_contributes_nothing() {
        let mut b = KernelBuilder::new("k");
        b.repeat(0, |b| {
            b.mov(0i32);
        });
        let c = dynamic_counts(&b.finish());
        assert_eq!(c.instrs, 0);
    }
}

#[cfg(test)]
mod sfu_rules_tests {
    use super::*;
    use crate::build::KernelBuilder;

    #[test]
    fn sfu_blocks_only_without_offchip_loads() {
        // Pure-SFU loop: rsqrts delimit regions automatically.
        let mut b = KernelBuilder::new("sfu_only");
        let out = b.param(0);
        let acc = b.mov(1.0f32);
        b.repeat(10, |b| {
            let r = b.rsqrt(acc);
            b.fmad_acc(r, 1.0f32, acc);
        });
        b.st_global(out, 0, acc);
        let k = b.finish();
        let c = dynamic_counts(&k);
        assert_eq!(c.blocking_units, 10);

        // Same loop plus a global load: the loads dominate and SFU ops
        // stop counting.
        let mut b = KernelBuilder::new("with_load");
        let out = b.param(0);
        let acc = b.mov(1.0f32);
        b.repeat(10, |b| {
            let v = b.ld_global(out, 0);
            let r = b.rsqrt(v);
            b.fmad_acc(r, 1.0f32, acc);
        });
        b.st_global(out, 0, acc);
        let k = b.finish();
        let c = dynamic_counts(&k);
        assert_eq!(c.blocking_units, 10); // loads only, not 20
        assert_eq!(c.long_latency_loads, 10);
    }

    #[test]
    fn explicit_override_forces_sfu_counting() {
        let mut b = KernelBuilder::new("force");
        let out = b.param(0);
        let v = b.ld_global(out, 0);
        let r = b.rsqrt(v);
        b.st_global(out, 0, r);
        let k = b.finish();
        assert_eq!(dynamic_counts_with(&k, false).blocking_units, 1);
        assert_eq!(dynamic_counts_with(&k, true).blocking_units, 2);
    }
}
