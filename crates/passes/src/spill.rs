//! Proactive, explicit register spilling (section 3.1,
//! "resource-balancing").
//!
//! "By reducing register usage, often a critical resource, more thread
//! blocks may be assigned to each SM. The resulting application may have
//! much better performance, despite the added latency from memory access
//! and additional instructions." [`spill_registers`] rewrites chosen
//! registers through per-thread local memory: every definition is
//! followed by a `st.local`, every use is preceded by a `ld.local` into
//! a fresh short-lived temporary. [`spill_candidates`] ranks registers
//! by live-range length, the heuristic a programmer applying this
//! optimization by hand would follow.

use gpu_ir::instr::MAX_SRCS;
use gpu_ir::types::{Operand, VReg};
use gpu_ir::{Instr, Kernel, Op, Stmt};

use crate::PassError;

fn collect_counters(stmts: &[Stmt], out: &mut Vec<VReg>) {
    for s in stmts {
        if let Stmt::Loop(l) = s {
            if let Some(c) = l.counter {
                out.push(c);
            }
            collect_counters(&l.body, out);
        }
    }
}

/// Rewrite `stmts` so that every register with a slot (`slots`, indexed
/// by register) lives in local memory.
fn rewrite(stmts: Vec<Stmt>, slots: &[Option<i32>], next_reg: &mut u32) -> Vec<Stmt> {
    let slot_of = |r: VReg| slots.get(r.index()).copied().flatten();
    let mut out = Vec::with_capacity(stmts.len() * 2);
    for s in stmts {
        match s {
            Stmt::Op(mut i) => {
                // Reload each spilled register this instruction reads,
                // once however many operands read it.
                let mut reloaded = [(VReg(0), VReg(0)); MAX_SRCS];
                let mut n_reloaded = 0;
                for src in &mut i.srcs {
                    let Some(r) = src.reg() else { continue };
                    let Some(slot) = slot_of(r) else { continue };
                    let t = match reloaded[..n_reloaded].iter().find(|(from, _)| *from == r) {
                        Some(&(_, t)) => t,
                        None => {
                            let t = VReg(*next_reg);
                            *next_reg += 1;
                            out.push(Stmt::Op(Instr::new(
                                Op::Ld(gpu_arch::MemorySpace::Local),
                                Some(t),
                                [Operand::ImmI32(slot)],
                            )));
                            reloaded[n_reloaded] = (r, t);
                            n_reloaded += 1;
                            t
                        }
                    };
                    *src = Operand::Reg(t);
                }
                // A definition of a spilled register is renamed to a
                // fresh register and written straight through to local
                // memory, so the original long live range disappears
                // entirely — only short def→store segments remain.
                if let Some(slot) = i.dst.and_then(slot_of) {
                    let renamed = VReg(*next_reg);
                    *next_reg += 1;
                    i.dst = Some(renamed);
                    out.push(Stmt::Op(i));
                    out.push(Stmt::Op(Instr::new(
                        Op::St(gpu_arch::MemorySpace::Local),
                        None,
                        [Operand::ImmI32(slot), Operand::Reg(renamed)],
                    )));
                } else {
                    out.push(Stmt::Op(i));
                }
            }
            Stmt::Sync => out.push(Stmt::Sync),
            Stmt::Loop(mut l) => {
                l.body = rewrite(std::mem::take(&mut l.body), slots, next_reg);
                out.push(Stmt::Loop(l));
            }
        }
    }
    out
}

/// Spill `regs` through local memory, one word each.
///
/// Returns the number of local words used.
///
/// # Errors
///
/// [`PassError::CounterSpill`] if any requested register is a loop
/// counter (counters are maintained by loop control, not by code the
/// pass can instrument).
pub fn spill_registers(kernel: &mut Kernel, regs: &[VReg]) -> Result<u32, PassError> {
    if regs.is_empty() {
        return Ok(0);
    }
    let mut counters = Vec::new();
    collect_counters(&kernel.body, &mut counters);
    if regs.iter().any(|r| counters.contains(r)) {
        return Err(PassError::CounterSpill);
    }
    // Slot `k` for the `k`-th distinct register of `regs`, by first
    // occurrence, so every slot is below the word count. A register past
    // `num_vregs` occurs nowhere in the kernel, so it needs no table
    // entry, but still counts as a word.
    let mut slots = vec![None; kernel.num_vregs as usize];
    let mut words = 0u32;
    for (k, r) in regs.iter().enumerate() {
        if regs[..k].contains(r) {
            continue;
        }
        if let Some(slot) = slots.get_mut(r.index()) {
            *slot = Some(words as i32);
        }
        words += 1;
    }
    let mut next = kernel.num_vregs;
    kernel.body = rewrite(std::mem::take(&mut kernel.body), &slots, &mut next);
    kernel.num_vregs = next;
    Ok(words)
}

/// Rank registers by flattened live-range length (longest first) and
/// return up to `count` spill candidates. Loop counters are excluded.
/// Every register must be below `kernel.num_vregs` (the invariant
/// `gpu_ir::verify` checks).
pub fn spill_candidates(kernel: &Kernel, count: usize) -> Vec<VReg> {
    // Flatten in syntactic order, recording first/last touch positions
    // per register.
    fn walk(stmts: &[Stmt], pos: &mut usize, touch: &mut [Option<(usize, usize)>]) {
        for s in stmts {
            match s {
                Stmt::Op(i) => {
                    let p = *pos;
                    *pos += 1;
                    for r in i.uses().chain(i.dst) {
                        touch[r.index()].get_or_insert((p, p)).1 = p;
                    }
                }
                Stmt::Sync => *pos += 1,
                Stmt::Loop(l) => walk(&l.body, pos, touch),
            }
        }
    }
    let mut touch = vec![None; kernel.num_vregs as usize];
    let mut pos = 0;
    walk(&kernel.body, &mut pos, &mut touch);

    let mut counters = Vec::new();
    collect_counters(&kernel.body, &mut counters);

    let mut ranked: Vec<(usize, VReg)> = touch
        .into_iter()
        .enumerate()
        .filter_map(|(r, t)| Some((VReg(r as u32), t?)))
        .filter(|(r, _)| !counters.contains(r))
        .map(|(r, (f, l))| (l - f, r))
        .collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.into_iter().take(count).map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_ir::analysis::{instruction_mix, register_pressure};
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Launch};
    use gpu_sim::interp::{run_kernel, DeviceMemory};

    /// Kernel with several long-lived values: bases and an accumulator.
    fn long_lived() -> (gpu_ir::Kernel, Vec<VReg>) {
        let mut b = KernelBuilder::new("ll");
        let src = b.param(0);
        let out = b.param(1);
        let base_a = b.mov(src);
        let base_b = b.iadd(src, 8i32);
        let acc = b.mov(0.0f32);
        b.repeat(8, |b| {
            let x = b.ld_global(base_a, 0);
            let y = b.ld_global(base_b, 0);
            let s = b.fadd(x, y);
            b.fmad_acc(s, 1.0f32, acc);
            b.iadd_acc(base_a, 1i32);
            b.iadd_acc(base_b, 1i32);
        });
        b.st_global(out, 0, acc);
        (b.finish(), vec![base_a, base_b])
    }

    fn run_ll(k: &gpu_ir::Kernel) -> f32 {
        let prog = linearize(k);
        let mut mem = DeviceMemory::new(18);
        for i in 0..16 {
            mem.global[i] = (i * i) as f32;
        }
        run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0, 17], &mut mem)
            .unwrap();
        mem.global[17]
    }

    #[test]
    fn spilling_preserves_semantics() {
        let (k0, bases) = long_lived();
        let baseline = run_ll(&k0);
        let mut k = k0.clone();
        let words = spill_registers(&mut k, &bases).unwrap();
        assert_eq!(words, 2);
        assert_eq!(run_ll(&k), baseline);
    }

    #[test]
    fn spilling_reduces_register_pressure_and_adds_local_ops() {
        let (k0, bases) = long_lived();
        let before = register_pressure(&k0);
        let mix_before = instruction_mix(&k0);
        let mut k = k0.clone();
        spill_registers(&mut k, &bases).unwrap();
        let after = register_pressure(&k);
        let mix_after = instruction_mix(&k);
        assert!(
            after.max_live < before.max_live,
            "spilled {} !< original {}",
            after.max_live,
            before.max_live
        );
        // Local traffic appears (the paper's "added latency from memory
        // access and additional instructions").
        assert!(mix_after.offchip_loads > mix_before.offchip_loads);
        assert!(mix_after.instrs > mix_before.instrs);
    }

    #[test]
    fn spilling_float_accumulator_roundtrips() {
        let mut b = KernelBuilder::new("facc");
        let out = b.param(0);
        let acc = b.mov(1.5f32);
        b.repeat(4, |b| {
            b.fmad_acc(2.0f32, 1.0f32, acc);
        });
        b.st_global(out, 0, acc);
        let k0 = b.finish();
        let mut k = k0.clone();
        spill_registers(&mut k, &[acc]).unwrap();

        let run = |k: &gpu_ir::Kernel| {
            let prog = linearize(k);
            let mut mem = DeviceMemory::new(1);
            run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem)
                .unwrap();
            mem.global[0]
        };
        assert_eq!(run(&k), run(&k0));
        assert_eq!(run(&k), 1.5 + 4.0 * 2.0);
    }

    #[test]
    fn counter_spill_is_rejected() {
        let mut b = KernelBuilder::new("c");
        let mut counter = None;
        b.for_loop(4, |b, i| {
            counter = Some(i);
            b.iadd(i, 1i32);
        });
        let mut k = b.finish();
        let err = spill_registers(&mut k, &[counter.unwrap()]).unwrap_err();
        assert_eq!(err, PassError::CounterSpill);
    }

    #[test]
    fn empty_spill_list_is_noop() {
        let (k0, _) = long_lived();
        let mut k = k0.clone();
        assert_eq!(spill_registers(&mut k, &[]).unwrap(), 0);
        assert_eq!(k, k0);
    }

    #[test]
    fn candidates_prefer_long_ranges() {
        let (k, bases) = long_lived();
        let cands = spill_candidates(&k, 4);
        // The two base pointers and the accumulator all live across the
        // loop; they must rank above the per-iteration temporaries.
        assert!(cands.contains(&bases[0]), "{cands:?}");
        assert!(cands.contains(&bases[1]), "{cands:?}");
    }

    #[test]
    fn candidates_exclude_counters() {
        let mut b = KernelBuilder::new("c");
        let out = b.param(0);
        let acc = b.mov(0.0f32);
        b.for_loop(16, |b, i| {
            let f = b.i2f(i);
            b.fmad_acc(f, 1.0f32, acc);
        });
        b.st_global(out, 0, acc);
        let k = b.finish();
        let mut counters = Vec::new();
        collect_counters(&k.body, &mut counters);
        let cands = spill_candidates(&k, 10);
        assert!(cands.iter().all(|c| !counters.contains(c)));
    }

    #[test]
    fn repeated_register_gets_one_slot_below_the_word_count() {
        let mut b = KernelBuilder::new("repeat");
        let out = b.param(0);
        let x = b.mov(3.0f32);
        let y = b.fadd(x, 1.0f32);
        b.st_global(out, 0, y);
        let mut k = b.finish();
        let words = spill_registers(&mut k, &[x, x]).unwrap();
        assert_eq!(words, 1);
        let mut offsets = Vec::new();
        k.visit_instrs(|i| {
            if matches!(
                i.op,
                Op::Ld(gpu_arch::MemorySpace::Local) | Op::St(gpu_arch::MemorySpace::Local)
            ) {
                offsets.push(i.srcs[0]);
            }
        });
        assert_eq!(offsets.len(), 2, "one store and one reload of x");
        for offset in offsets {
            let Operand::ImmI32(word) = offset else { panic!("local offset {offset:?}") };
            assert!((0..words as i32).contains(&word), "offset {word} outside {words} words");
        }
    }

    #[test]
    fn spilled_register_used_twice_reloads_once() {
        let mut b = KernelBuilder::new("twice");
        let out = b.param(0);
        let x = b.mov(3.0f32);
        let y = b.fmul(x, x); // x used twice in one instruction
        b.st_global(out, 0, y);
        let mut k = b.finish();
        spill_registers(&mut k, &[x]).unwrap();
        let loads = {
            let mut n = 0;
            k.visit_instrs(|i| {
                if matches!(i.op, Op::Ld(gpu_arch::MemorySpace::Local)) {
                    n += 1;
                }
            });
            n
        };
        assert_eq!(loads, 1);

        let prog = linearize(&k);
        let mut mem = DeviceMemory::new(1);
        run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem).unwrap();
        assert_eq!(mem.global[0], 9.0);
    }
}
