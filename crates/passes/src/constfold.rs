//! Constant folding, immediate propagation, and dead-code elimination.
//!
//! Complete unrolling substitutes loop counters with constants (Figure
//! 2(c): "replacing variable array indices with constants"); what makes
//! that profitable is the clean-up afterwards — `mad.lo.s32 %r, 2, 4, 1`
//! becomes an immediate, the immediate flows into its uses, and the
//! now-dead arithmetic disappears. nvcc performs this silently; here it
//! is an explicit pass so the instruction-count reductions the paper
//! attributes to unrolling are mechanistic and testable.
//!
//! Three sub-passes run to a fixed point:
//!
//! 1. **fold** — pure integer/float ops whose operands are all
//!    immediates are replaced by `mov imm`;
//! 2. **propagate** — a register holding a known immediate is replaced
//!    by the immediate at its use sites (within the region where the
//!    binding is valid);
//! 3. **dce** — instructions without side effects whose destination is
//!    never read afterwards are deleted.

use gpu_ir::types::Operand;
use gpu_ir::{Instr, Kernel, Op, Stmt};

/// Outcome of one [`fold_constants`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FoldReport {
    /// Instructions replaced by immediate moves.
    pub folded: u32,
    /// Operand slots rewritten to immediates.
    pub propagated: u32,
    /// Dead instructions removed.
    pub eliminated: u32,
}

impl FoldReport {
    fn any(&self) -> bool {
        self.folded > 0 || self.propagated > 0 || self.eliminated > 0
    }

    fn absorb(&mut self, other: FoldReport) {
        self.folded += other.folded;
        self.propagated += other.propagated;
        self.eliminated += other.eliminated;
    }
}

fn imm_i32(o: &Operand) -> Option<i32> {
    match o {
        Operand::ImmI32(v) => Some(*v),
        _ => None,
    }
}

fn imm_f32(o: &Operand) -> Option<f32> {
    match o {
        Operand::ImmF32(v) => Some(*v),
        _ => None,
    }
}

/// Evaluate a pure op over all-immediate operands, mirroring the
/// interpreter's semantics exactly.
fn eval(i: &Instr) -> Option<Operand> {
    use Op::*;
    let s = &i.srcs;
    Some(match i.op {
        IAdd => Operand::ImmI32(imm_i32(&s[0])?.wrapping_add(imm_i32(&s[1])?)),
        ISub => Operand::ImmI32(imm_i32(&s[0])?.wrapping_sub(imm_i32(&s[1])?)),
        IMul => Operand::ImmI32(imm_i32(&s[0])?.wrapping_mul(imm_i32(&s[1])?)),
        IMad => Operand::ImmI32(
            imm_i32(&s[0])?.wrapping_mul(imm_i32(&s[1])?).wrapping_add(imm_i32(&s[2])?),
        ),
        IDiv => {
            let (a, b) = (imm_i32(&s[0])?, imm_i32(&s[1])?);
            Operand::ImmI32(if b == 0 { 0 } else { a.wrapping_div(b) })
        }
        IRem => {
            let (a, b) = (imm_i32(&s[0])?, imm_i32(&s[1])?);
            Operand::ImmI32(if b == 0 { 0 } else { a.wrapping_rem(b) })
        }
        Shl => Operand::ImmI32(imm_i32(&s[0])?.wrapping_shl(imm_i32(&s[1])? as u32)),
        Shr => Operand::ImmI32(imm_i32(&s[0])?.wrapping_shr(imm_i32(&s[1])? as u32)),
        And => Operand::ImmI32(imm_i32(&s[0])? & imm_i32(&s[1])?),
        Or => Operand::ImmI32(imm_i32(&s[0])? | imm_i32(&s[1])?),
        Xor => Operand::ImmI32(imm_i32(&s[0])? ^ imm_i32(&s[1])?),
        IMin => Operand::ImmI32(imm_i32(&s[0])?.min(imm_i32(&s[1])?)),
        IMax => Operand::ImmI32(imm_i32(&s[0])?.max(imm_i32(&s[1])?)),
        FAdd => Operand::ImmF32(imm_f32(&s[0])? + imm_f32(&s[1])?),
        FSub => Operand::ImmF32(imm_f32(&s[0])? - imm_f32(&s[1])?),
        FMul => Operand::ImmF32(imm_f32(&s[0])? * imm_f32(&s[1])?),
        FMad => Operand::ImmF32(imm_f32(&s[0])?.mul_add(imm_f32(&s[1])?, imm_f32(&s[2])?)),
        FNeg => Operand::ImmF32(-imm_f32(&s[0])?),
        FAbs => Operand::ImmF32(imm_f32(&s[0])?.abs()),
        I2F => Operand::ImmF32(imm_i32(&s[0])? as f32),
        F2I => Operand::ImmI32(imm_f32(&s[0])? as i32),
        _ => return None,
    })
}

/// Fold and propagate within one statement list. `bindings` maps
/// registers (by index) to known immediates; loop bodies start with
/// bindings for values that are invariant across the loop (not
/// redefined inside).
fn fold_walk(stmts: &mut [Stmt], bindings: &mut [Option<Operand>], report: &mut FoldReport) {
    for s in stmts.iter_mut() {
        match s {
            Stmt::Op(i) => {
                // Propagate known immediates into operands.
                for src in &mut i.srcs {
                    if let Some(r) = src.reg() {
                        if let Some(imm) = bindings[r.index()] {
                            *src = imm;
                            report.propagated += 1;
                        }
                    }
                }
                // Fold all-immediate pure ops into movs.
                if i.op != Op::Mov {
                    if let Some(value) = eval(i) {
                        let dst = i.dst.expect("pure ops have destinations");
                        *i = Instr::new(Op::Mov, Some(dst), [value]);
                        report.folded += 1;
                    }
                }
                // Update bindings.
                if let Some(d) = i.dst {
                    bindings[d.index()] =
                        (i.op == Op::Mov && i.srcs[0].is_imm()).then_some(i.srcs[0]);
                }
            }
            Stmt::Sync => {}
            Stmt::Loop(l) => {
                // Bindings survive into the loop only for registers the
                // body never redefines.
                let mut defs = vec![false; bindings.len()];
                collect_defs(&l.body, &mut defs);
                if let Some(c) = l.counter {
                    defs[c.index()] = true;
                }
                let mut inner: Vec<Option<Operand>> = bindings
                    .iter()
                    .zip(&defs)
                    .map(|(b, &defined)| if defined { None } else { *b })
                    .collect();
                fold_walk(&mut l.body, &mut inner, report);
                // After the loop, anything the body defines is unknown.
                for (b, &defined) in bindings.iter_mut().zip(&defs) {
                    if defined {
                        *b = None;
                    }
                }
            }
        }
    }
}

fn collect_defs(stmts: &[Stmt], out: &mut [bool]) {
    for s in stmts {
        match s {
            Stmt::Op(i) => {
                if let Some(d) = i.dst {
                    out[d.index()] = true;
                }
            }
            Stmt::Sync => {}
            Stmt::Loop(l) => {
                if let Some(c) = l.counter {
                    out[c.index()] = true;
                }
                collect_defs(&l.body, out);
            }
        }
    }
}

fn collect_uses(stmts: &[Stmt], out: &mut [bool]) {
    for s in stmts {
        match s {
            Stmt::Op(i) => {
                for r in i.uses() {
                    out[r.index()] = true;
                }
            }
            Stmt::Sync => {}
            Stmt::Loop(l) => collect_uses(&l.body, out),
        }
    }
}

/// Remove side-effect-free instructions whose destination is dead.
fn dce(kernel: &mut Kernel) -> u32 {
    // Global "used anywhere" approximation — sound because a register
    // read anywhere might be reached by any def under loop iteration.
    let mut used = vec![false; kernel.num_vregs as usize];
    collect_uses(&kernel.body, &mut used);

    fn sweep(stmts: &mut Vec<Stmt>, used: &[bool], removed: &mut u32) {
        stmts.retain_mut(|s| match s {
            Stmt::Op(i) => {
                let side_effect = matches!(i.op, Op::St(_)) || matches!(i.op, Op::Ld(_));
                match i.dst {
                    Some(d) if !side_effect && !used[d.index()] => {
                        *removed += 1;
                        false
                    }
                    _ => true,
                }
            }
            Stmt::Sync => true,
            Stmt::Loop(l) => {
                sweep(&mut l.body, used, removed);
                true
            }
        });
    }
    let mut removed = 0;
    sweep(&mut kernel.body, &used, &mut removed);
    removed
}

/// Run fold → propagate → DCE to a fixed point.
///
/// Loads are never deleted (they can fault and their latency is part of
/// the modelled behaviour); stores always survive. Every register must
/// be below `kernel.num_vregs` (the invariant `gpu_ir::verify` checks).
pub fn fold_constants(kernel: &mut Kernel) -> FoldReport {
    let mut total = FoldReport::default();
    loop {
        let mut round = FoldReport::default();
        let mut bindings = vec![None; kernel.num_vregs as usize];
        fold_walk(&mut kernel.body, &mut bindings, &mut round);
        round.eliminated = dce(kernel);
        let progress = round.any();
        total.absorb(round);
        if !progress {
            return total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::find_loops;
    use crate::unroll::unroll;
    use gpu_ir::analysis::dynamic_counts;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Kernel, Launch};
    use gpu_sim::interp::{run_kernel, DeviceMemory};

    fn run_scalar(k: &Kernel, words: usize) -> Vec<f32> {
        let prog = linearize(k);
        let mut mem = DeviceMemory::new(words);
        for (i, v) in mem.global.iter_mut().enumerate() {
            *v = i as f32;
        }
        run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem)
            .expect("runs");
        mem.global
    }

    #[test]
    fn folds_immediate_arithmetic_chain() {
        let mut b = KernelBuilder::new("chain");
        let out = b.param(0);
        let a = b.iadd(2i32, 3i32); // 5
        let c = b.imul(a, 4i32); // 20
        let d = b.imad(c, 2i32, 1i32); // 41
        let f = b.i2f(d); // 41.0
        b.st_global(out, 0, f);
        let mut k = b.finish();
        let baseline = run_scalar(&k, 4);
        let report = fold_constants(&mut k);
        assert!(report.folded >= 4, "{report:?}");
        assert!(report.eliminated >= 3, "{report:?}");
        // Everything collapses to the param mov + a store of 41.0.
        assert!(k.static_instr_count() <= 3, "{}", k.static_instr_count());
        assert_eq!(run_scalar(&k, 4), baseline);
    }

    #[test]
    fn complete_unroll_plus_fold_removes_index_arithmetic() {
        // Counter-indexed shared addressing, the SAD inner-loop shape.
        let build = || {
            let mut b = KernelBuilder::new("idx");
            let out = b.param(0);
            b.alloc_shared(64);
            let acc = b.mov(0.0f32);
            b.for_loop(4, |b, r| {
                b.for_loop(4, |b, c| {
                    let o = b.imad(r, 4i32, c);
                    let x = b.ld_shared(o, 0);
                    b.fmad_acc(x, 1.0f32, acc);
                });
            });
            b.st_global(out, 0, acc);
            b.finish()
        };
        let mut k = build();
        // Unroll both loops completely (outer first: its id stays valid).
        let outer = find_loops(&k)[0].clone();
        unroll(&mut k, &outer, 4).unwrap();
        for _ in 0..4 {
            let inner = find_loops(&k)[0].clone();
            unroll(&mut k, &inner, 4).unwrap();
        }
        let before = dynamic_counts(&k).instrs;
        let report = fold_constants(&mut k);
        let after = dynamic_counts(&k).instrs;
        // All 16 imads fold away (their immediates flow into the loads).
        assert!(report.folded >= 16, "{report:?}");
        assert!(after + 16 <= before, "before {before}, after {after}");

        // And the result is unchanged.
        let baseline = {
            let mut fresh = build();
            let _ = &mut fresh;
            run_scalar(&fresh, 4)
        };
        assert_eq!(run_scalar(&k, 4), baseline);
    }

    #[test]
    fn loads_and_stores_are_never_deleted() {
        let mut b = KernelBuilder::new("mem");
        let out = b.param(0);
        let _unused = b.ld_global(out, 1); // result unused, load must stay
        b.st_global(out, 0, 7.0f32);
        let mut k = b.finish();
        fold_constants(&mut k);
        let mut loads = 0;
        k.visit_instrs(|i| {
            if matches!(i.op, Op::Ld(_)) {
                loads += 1;
            }
        });
        assert_eq!(loads, 1);
    }

    #[test]
    fn bindings_do_not_leak_across_loop_redefinitions() {
        // x is an immediate before the loop but redefined inside: uses
        // after the redefinition must not see the stale constant.
        let mut b = KernelBuilder::new("scope");
        let out = b.param(0);
        let x = b.mov(1.0f32);
        b.repeat(3, |b| {
            let y = b.ld_global(out, 1);
            b.push_instr(Instr::new(Op::FAdd, Some(x), vec![x.into(), y.into()]));
        });
        b.st_global(out, 0, x);
        let mut k = b.finish();
        let baseline = run_scalar(&k, 4);
        fold_constants(&mut k);
        assert_eq!(run_scalar(&k, 4), baseline);
    }

    #[test]
    fn division_by_zero_folds_to_zero_like_hardware() {
        let mut b = KernelBuilder::new("div0");
        let out = b.param(0);
        let d = b.idiv(7i32, 0i32);
        let f = b.i2f(d);
        b.st_global(out, 0, f);
        let mut k = b.finish();
        let baseline = run_scalar(&k, 2);
        fold_constants(&mut k);
        assert_eq!(run_scalar(&k, 2), baseline);
        assert_eq!(baseline[0], 0.0);
    }

    #[test]
    fn report_is_idempotent_at_fixed_point() {
        let mut b = KernelBuilder::new("fp");
        let out = b.param(0);
        let v = b.iadd(1i32, 2i32);
        let f = b.i2f(v);
        b.st_global(out, 0, f);
        let mut k = b.finish();
        let first = fold_constants(&mut k);
        assert!(first.any());
        let second = fold_constants(&mut k);
        assert_eq!(second, FoldReport::default());
    }
}
