//! Strength reduction of strided address updates.
//!
//! After unrolling, a loop body contains `f` copies of `index += stride`
//! with loads between them. The G80's `[reg + imm]` addressing makes all
//! but one of those adds redundant: fold the running stride into the
//! load/store offsets and keep a single `index += f * stride` at the end
//! of the body. Section 2.3 of the paper observes exactly this in nvcc's
//! PTX output: "the group of memory operations only need the single base
//! address calculation and use their constant offsets".

use std::collections::BTreeMap;

use gpu_ir::types::{Operand, VReg};
use gpu_ir::{Instr, Kernel, Op, Stmt};

/// Does this instruction have the accumulate shape `IAdd r, r, imm`?
fn accumulate_of(i: &Instr) -> Option<(VReg, i32)> {
    if i.op != Op::IAdd {
        return None;
    }
    let dst = i.dst?;
    match (&i.srcs[0], &i.srcs[1]) {
        (Operand::Reg(a), Operand::ImmI32(k)) if *a == dst => Some((dst, *k)),
        _ => None,
    }
}

/// Is `reg` the address operand (and nothing else) of this memory op?
fn only_address_use(i: &Instr, reg: VReg) -> bool {
    if i.op.mem_space().is_none() {
        return false;
    }
    let addr_is_reg = i.srcs[0].reg() == Some(reg);
    let other_uses = i.srcs[1..].iter().any(|s| s.reg() == Some(reg));
    addr_is_reg && !other_uses && i.dst != Some(reg)
}

/// A register's standing in [`eligible_regs`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Not written by an accumulate at the top level of the body.
    Unseen,
    /// Written only by accumulates so far, used only as an address.
    Accumulated,
    /// Appears in a role folding cannot rewrite.
    Disqualified,
}

/// Registers eligible for folding within one body, as a table indexed
/// by register: every write is an accumulate and every other appearance
/// is a memory-address use at the top level of this body.
fn eligible_regs(body: &[Stmt], num_vregs: u32) -> Vec<bool> {
    let mut role = vec![Role::Unseen; num_vregs as usize];
    let mut nested = vec![false; num_vregs as usize];

    // Any register mentioned inside a nested loop or in a non-foldable
    // role is disqualified.
    fn mentions(stmts: &[Stmt], out: &mut [bool]) {
        for s in stmts {
            match s {
                Stmt::Op(i) => {
                    for r in i.uses().chain(i.dst) {
                        out[r.index()] = true;
                    }
                }
                Stmt::Sync => {}
                Stmt::Loop(l) => {
                    if let Some(c) = l.counter {
                        out[c.index()] = true;
                    }
                    mentions(&l.body, out);
                }
            }
        }
    }

    for s in body {
        match s {
            Stmt::Op(i) => {
                if let Some((r, _)) = accumulate_of(i) {
                    let slot = &mut role[r.index()];
                    if *slot == Role::Unseen {
                        *slot = Role::Accumulated;
                    }
                    continue;
                }
                // Non-accumulate statement: every register it touches in
                // a non-address role is disqualified.
                for r in i.uses() {
                    if !only_address_use(i, r) {
                        role[r.index()] = Role::Disqualified;
                    }
                }
                if let Some(d) = i.dst {
                    role[d.index()] = Role::Disqualified;
                }
            }
            Stmt::Sync => {}
            Stmt::Loop(l) => {
                if let Some(c) = l.counter {
                    nested[c.index()] = true;
                }
                mentions(&l.body, &mut nested);
            }
        }
    }

    role.iter().zip(&nested).map(|(&r, &n)| r == Role::Accumulated && !n).collect()
}

/// Fold one body in place; returns the number of deleted instructions.
fn fold_body(body: &mut Vec<Stmt>, num_vregs: u32) -> u32 {
    // Recurse into nested loops first.
    let mut removed = 0;
    for s in body.iter_mut() {
        if let Stmt::Loop(l) = s {
            removed += fold_body(&mut l.body, num_vregs);
        }
    }

    let eligible = eligible_regs(body, num_vregs);
    if !eligible.contains(&true) {
        return removed;
    }

    // Ordered by register so the materialised accumulates come out in a
    // stable order — HashMap iteration order varies per process, and the
    // resulting instruction shuffle cascades into different spill choices
    // downstream.
    let mut delta: BTreeMap<VReg, i64> = BTreeMap::new();
    // In place: the body keeps its buffer, and statement order is kept.
    body.retain_mut(|s| {
        let Stmt::Op(i) = s else { return true };
        if let Some((r, k)) = accumulate_of(i) {
            if eligible[r.index()] {
                *delta.entry(r).or_insert(0) += i64::from(k);
                removed += 1;
                return false;
            }
        }
        if i.op.mem_space().is_some() {
            if let Some(r) = i.srcs[0].reg() {
                if let Some(d) = delta.get(&r) {
                    i.offset = (i64::from(i.offset) + d) as i32;
                }
            }
        }
        true
    });
    // Materialise each register's total stride once, at body end.
    for (r, d) in delta {
        if d != 0 {
            body.push(Stmt::Op(Instr::new(
                Op::IAdd,
                Some(r),
                [r.into(), Operand::ImmI32(d as i32)],
            )));
            removed -= 1;
        }
    }
    removed
}

/// Fold strided address updates in every loop body of `kernel`.
///
/// Returns the net number of instructions removed. Statements outside
/// loops are untouched (there is nothing repeated to fold). Every
/// register must be below `kernel.num_vregs` (the invariant
/// `gpu_ir::verify` checks).
pub fn fold_strided_addresses(kernel: &mut Kernel) -> u32 {
    let mut removed = 0;
    for s in kernel.body.iter_mut() {
        if let Stmt::Loop(l) = s {
            removed += fold_body(&mut l.body, kernel.num_vregs);
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::find_loops;
    use crate::unroll::unroll;
    use gpu_ir::analysis::dynamic_counts;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Launch};
    use gpu_sim::interp::{run_kernel, DeviceMemory};

    /// Strided copy: out[i] = in[i] for 16 words using pointer bumps.
    fn strided_copy() -> Kernel {
        let mut b = KernelBuilder::new("copy");
        let src = b.param(0);
        let dst = b.param(1);
        let ps = b.mov(src);
        let pd = b.mov(dst);
        b.repeat(16, |b| {
            let v = b.ld_global(ps, 0);
            b.st_global(pd, 0, v);
            b.iadd_acc(ps, 1i32);
            b.iadd_acc(pd, 1i32);
        });
        b.finish()
    }

    fn run_copy(k: &Kernel) -> Vec<f32> {
        let prog = linearize(k);
        let mut mem = DeviceMemory::new(32);
        for i in 0..16 {
            mem.global[i] = (i * 3) as f32;
        }
        run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0, 16], &mut mem)
            .unwrap();
        mem.global[16..].to_vec()
    }

    #[test]
    fn fold_alone_is_identity_on_single_accumulates() {
        // One accumulate per register per iteration: fold removes it and
        // reinserts an identical one — net zero, semantics identical.
        let baseline = run_copy(&strided_copy());
        let mut k = strided_copy();
        let removed = fold_strided_addresses(&mut k);
        assert_eq!(removed, 0);
        assert_eq!(run_copy(&k), baseline);
    }

    #[test]
    fn unroll_then_fold_collapses_address_arithmetic() {
        let baseline = run_copy(&strided_copy());

        let mut k = strided_copy();
        let id = find_loops(&k).remove(0);
        unroll(&mut k, &id, 4).unwrap();
        let before = dynamic_counts(&k).instrs;
        let removed = fold_strided_addresses(&mut k);
        let after = dynamic_counts(&k).instrs;

        // 4 copies × 2 accumulates collapse to 2: 6 removed per
        // iteration, 4 iterations = static 6, dynamic 24.
        assert_eq!(removed, 6);
        assert_eq!(before - after, 24);
        assert_eq!(run_copy(&k), baseline);

        // The folded loads carry constant offsets 0..3.
        let l = crate::loops::get_loop(&k, &id).unwrap();
        let offsets: Vec<i32> = l
            .body
            .iter()
            .filter_map(|s| s.as_instr())
            .filter(|i| matches!(i.op, Op::Ld(_)))
            .map(|i| i.offset)
            .collect();
        assert_eq!(offsets, vec![0, 1, 2, 3]);
    }

    #[test]
    fn complete_unroll_then_fold_deletes_all_updates() {
        let baseline = run_copy(&strided_copy());
        let mut k = strided_copy();
        let id = find_loops(&k).remove(0);
        unroll(&mut k, &id, 16).unwrap();
        // Completely unrolled code sits at kernel top level, not in a
        // loop: folding applies to loop bodies only, so the result must
        // still be correct and untouched.
        let removed = fold_strided_addresses(&mut k);
        assert_eq!(removed, 0);
        assert_eq!(run_copy(&k), baseline);
    }

    #[test]
    fn register_used_arithmetically_is_not_folded() {
        // The pointer is also an operand of an imul: folding must leave
        // its accumulates alone.
        let mut b = KernelBuilder::new("mixed");
        let dst = b.param(0);
        let p = b.mov(dst);
        let acc = b.mov(0.0f32);
        b.repeat(4, |b| {
            let v = b.ld_global(p, 0);
            b.fmad_acc(v, 1.0f32, acc);
            let scaled = b.imul(p, 2i32); // non-address use
            let f = b.i2f(scaled);
            b.fmad_acc(f, 0.0f32, acc);
            b.iadd_acc(p, 1i32);
        });
        b.st_global(dst, 0, acc);
        let mut k = b.finish();
        let before = k.clone();
        let removed = fold_strided_addresses(&mut k);
        assert_eq!(removed, 0);
        assert_eq!(k, before);
    }

    #[test]
    fn register_touched_in_nested_loop_is_not_folded() {
        let mut b = KernelBuilder::new("nested");
        let dst = b.param(0);
        let p = b.mov(dst);
        b.repeat(4, |b| {
            b.iadd_acc(p, 1i32);
            b.repeat(2, |b| {
                b.ld_global(p, 0);
            });
        });
        let mut k = b.finish();
        let before = k.clone();
        fold_strided_addresses(&mut k);
        assert_eq!(k, before);
    }

    #[test]
    fn fold_handles_interleaved_strides() {
        // load; p += 2; load; p += 3 → offsets 0 and 2, one p += 5.
        let mut b = KernelBuilder::new("interleave");
        let src = b.param(0);
        let acc = b.mov(0.0f32);
        let p = b.mov(src);
        b.repeat(3, |b| {
            let a = b.ld_global(p, 0);
            b.fmad_acc(a, 1.0f32, acc);
            b.iadd_acc(p, 2i32);
            let c = b.ld_global(p, 0);
            b.fmad_acc(c, 1.0f32, acc);
            b.iadd_acc(p, 3i32);
        });
        let out = b.param(1);
        b.st_global(out, 0, acc);
        let k0 = b.finish();

        let run = |k: &Kernel| {
            let prog = linearize(k);
            let mut mem = DeviceMemory::new(20);
            for i in 0..16 {
                mem.global[i] = (i + 1) as f32;
            }
            run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0, 16], &mut mem)
                .unwrap();
            mem.global[16]
        };

        let baseline = run(&k0);
        let mut k = k0.clone();
        let removed = fold_strided_addresses(&mut k);
        assert_eq!(removed, 1); // two accumulates -> one
        assert_eq!(run(&k), baseline);
    }
}
