//! Global-load prefetching (section 3.1, "intra-thread parallelism";
//! Figure 2(d)).
//!
//! The transformation rewrites a loop whose body *begins* with global
//! loads into a software pipeline: the first tile's loads are hoisted
//! before the loop into buffer registers; inside the body the consumers
//! read the buffers, the *next* iteration's loads are issued right after
//! the induction updates, and the body ends by moving the fresh values
//! into the buffers. Register pressure rises by one live range per
//! prefetched load — the "additional local variable (register)" the
//! paper describes — which is exactly the resource interaction the
//! optimization-space study cares about.
//!
//! # Contract
//!
//! The final iteration issues loads one stride beyond the data actually
//! consumed (as Figure 2(d)'s CUDA does). Callers must pad their
//! allocations by one tile; the kernel generators in `gpu-kernels` do.

use gpu_ir::types::{Operand, VReg};
use gpu_ir::{Instr, Kernel, Op, Stmt};

use crate::loops::{get_loop, get_parent_mut, LoopId};
use crate::{fresh_reg, PassError};

/// Does the instruction write any register in `regs`?
fn writes_any(stmts: &[Stmt], regs: &[VReg]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Op(i) => i.dst.map(|d| regs.contains(&d)).unwrap_or(false),
        Stmt::Sync => false,
        Stmt::Loop(l) => {
            l.counter.map(|c| regs.contains(&c)).unwrap_or(false) || writes_any(&l.body, regs)
        }
    })
}

/// Apply prefetching to the loop addressed by `id`.
///
/// Returns the number of loads prefetched.
///
/// # Errors
///
/// * [`PassError::LoopNotFound`] — bad loop id.
/// * [`PassError::NoPrefetchCandidate`] — the body does not begin with
///   global loads whose addresses are registers defined outside the
///   body, or the body rewrites those destinations elsewhere.
pub fn prefetch_global_loads(kernel: &mut Kernel, id: &LoopId) -> Result<u32, PassError> {
    let l = get_loop(kernel, id).ok_or(PassError::LoopNotFound)?;

    // 1. The leading run of long-latency loads.
    let mut leading: Vec<Instr> = Vec::new();
    for s in &l.body {
        match s {
            Stmt::Op(i) if i.op.is_long_latency_mem() && i.op.has_dst() => {
                leading.push(*i);
            }
            _ => break,
        }
    }
    if leading.is_empty() {
        return Err(PassError::NoPrefetchCandidate);
    }
    let dsts: Vec<VReg> = leading.iter().map(|i| i.dst.expect("loads have dsts")).collect();
    let addr_regs: Vec<VReg> = leading
        .iter()
        .map(|i| i.srcs[0].reg().ok_or(PassError::NoPrefetchCandidate))
        .collect::<Result<_, _>>()?;

    // 2. The rest of the body must not redefine the load destinations,
    //    and the addresses may only change via accumulate-form updates.
    let rest = &l.body[leading.len()..];
    if writes_any(rest, &dsts) {
        return Err(PassError::NoPrefetchCandidate);
    }
    let mut last_addr_update: Option<usize> = None;
    for (pos, s) in rest.iter().enumerate() {
        if let Stmt::Op(i) = s {
            if let Some(d) = i.dst {
                if addr_regs.contains(&d) {
                    let is_accum = i.op == Op::IAdd && i.srcs[0].reg() == Some(d);
                    if !is_accum {
                        return Err(PassError::NoPrefetchCandidate);
                    }
                    last_addr_update = Some(pos);
                }
            }
        } else if let Stmt::Loop(inner) = s {
            if writes_any(std::slice::from_ref(&Stmt::Loop(inner.clone())), &addr_regs) {
                return Err(PassError::NoPrefetchCandidate);
            }
        }
    }

    // 3. Allocate buffer and staging registers.
    let bufs: Vec<VReg> = dsts.iter().map(|_| fresh_reg(kernel)).collect();
    let tmps: Vec<VReg> = dsts.iter().map(|_| fresh_reg(kernel)).collect();

    // Re-borrow the loop mutably and rebuild the body.
    let l = crate::loops::get_loop_mut(kernel, id).ok_or(PassError::LoopNotFound)?;
    let rest: Vec<Stmt> = l.body[leading.len()..].to_vec();

    let mut body: Vec<Stmt> = Vec::with_capacity(rest.len() + 2 * leading.len());
    // Consumers read the buffers instead of the old destinations.
    let substitute = |stmt: &mut Stmt| {
        fn subst(stmts: &mut [Stmt], dsts: &[VReg], bufs: &[VReg]) {
            for s in stmts {
                match s {
                    Stmt::Op(i) => {
                        for src in &mut i.srcs {
                            if let Some(r) = src.reg() {
                                if let Some(k) = dsts.iter().position(|d| *d == r) {
                                    *src = Operand::Reg(bufs[k]);
                                }
                            }
                        }
                    }
                    Stmt::Sync => {}
                    Stmt::Loop(inner) => subst(&mut inner.body, dsts, bufs),
                }
            }
        }
        subst(std::slice::from_mut(stmt), &dsts, &bufs);
    };

    let insert_at = last_addr_update.map(|p| p + 1).unwrap_or(0);
    let rest_len = rest.len();
    let mut staged = false;
    let stage = |body: &mut Vec<Stmt>| {
        for (k, ld) in leading.iter().enumerate() {
            let mut clone = *ld;
            clone.dst = Some(tmps[k]);
            body.push(Stmt::Op(clone));
        }
    };
    for (pos, mut s) in rest.into_iter().enumerate() {
        if pos == insert_at {
            // Issue next iteration's loads into the staging registers.
            stage(&mut body);
            staged = true;
        }
        substitute(&mut s);
        body.push(s);
    }
    if !staged {
        // The address update was the body's last statement (or the rest
        // was empty): stage at the very end.
        debug_assert!(insert_at >= rest_len);
        stage(&mut body);
    }
    // Rotate staging into the buffers for the next iteration.
    for (k, _) in leading.iter().enumerate() {
        body.push(Stmt::Op(Instr::new(Op::Mov, Some(bufs[k]), [tmps[k].into()])));
    }
    l.body = body;

    // 4. Prologue: the first tile's loads, into the buffers.
    let (parent, idx) = get_parent_mut(kernel, id)?;
    let prologue: Vec<Stmt> = leading
        .iter()
        .zip(&bufs)
        .map(|(ld, b)| {
            let mut clone = *ld;
            clone.dst = Some(*b);
            Stmt::Op(clone)
        })
        .collect();
    parent.splice(idx..idx, prologue);

    Ok(leading.len() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::find_loops;
    use gpu_ir::analysis::register_pressure;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Kernel, Launch};
    use gpu_sim::interp::{run_kernel, DeviceMemory};

    /// Sum 8 strided pairs: acc += in[p] + in[p+8]; p += 1.
    /// Allocation is padded so the final prefetch stays in bounds.
    fn pair_sum() -> Kernel {
        let mut b = KernelBuilder::new("pairs");
        let src = b.param(0);
        let out = b.param(1);
        let p = b.mov(src);
        let acc = b.mov(0.0f32);
        b.repeat(8, |b| {
            let x = b.ld_global(p, 0);
            let y = b.ld_global(p, 8);
            b.fmad_acc(x, 1.0f32, acc);
            b.fmad_acc(y, 1.0f32, acc);
            b.iadd_acc(p, 1i32);
        });
        b.st_global(out, 0, acc);
        b.finish()
    }

    fn run_pairs(k: &Kernel) -> f32 {
        let prog = linearize(k);
        // 17 words of data + pad (last prefetch reads words 8 and 16).
        let mut mem = DeviceMemory::new(20);
        for i in 0..17 {
            mem.global[i] = i as f32;
        }
        run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0, 18], &mut mem)
            .unwrap();
        mem.global[18]
    }

    #[test]
    fn prefetch_preserves_semantics() {
        let baseline = run_pairs(&pair_sum());
        let mut k = pair_sum();
        let id = find_loops(&k).remove(0);
        let n = prefetch_global_loads(&mut k, &id).unwrap();
        assert_eq!(n, 2);
        assert_eq!(run_pairs(&k), baseline);
    }

    /// Tile-style loop (Figure 2 shape): loads feed shared memory, a
    /// barrier-delimited compute phase follows. The staged prefetch
    /// values stay live across the compute phase, which is where the
    /// paper's "prefetching generally increases register usage" bites.
    fn tile_style() -> Kernel {
        let mut b = KernelBuilder::new("tile");
        let src = b.param(0);
        let out = b.param(1);
        b.alloc_shared(8);
        let p = b.mov(src);
        let acc = b.mov(0.0f32);
        b.repeat(4, |b| {
            let x = b.ld_global(p, 0);
            let y = b.ld_global(p, 8);
            b.st_shared(0i32, 0, x);
            b.st_shared(1i32, 0, y);
            b.iadd_acc(p, 1i32);
            b.sync();
            let a = b.ld_shared(0i32, 0);
            let c = b.ld_shared(1i32, 0);
            let s = b.fadd(a, c);
            b.fmad_acc(s, 1.0f32, acc);
            b.sync();
        });
        b.st_global(out, 0, acc);
        b.finish()
    }

    #[test]
    fn prefetch_increases_register_pressure() {
        let base = register_pressure(&tile_style());
        let mut k = tile_style();
        let id = find_loops(&k).remove(0);
        prefetch_global_loads(&mut k, &id).unwrap();
        let pf = register_pressure(&k);
        assert!(pf.max_live > base.max_live, "prefetch {} !> base {}", pf.max_live, base.max_live);
    }

    #[test]
    fn prefetch_moves_loads_into_prologue() {
        let mut k = pair_sum();
        let id = find_loops(&k).remove(0);
        prefetch_global_loads(&mut k, &id).unwrap();
        // The two prologue loads now precede the loop statement.
        let loop_pos =
            k.body.iter().position(|s| matches!(s, Stmt::Loop(_))).expect("loop still present");
        let prologue_loads = k.body[..loop_pos]
            .iter()
            .filter_map(|s| s.as_instr())
            .filter(|i| i.op.is_long_latency_mem())
            .count();
        assert_eq!(prologue_loads, 2);
    }

    #[test]
    fn loop_without_leading_loads_is_rejected() {
        let mut b = KernelBuilder::new("none");
        let out = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(4, |b| {
            b.fmad_acc(1.0f32, 1.0f32, acc);
        });
        b.st_global(out, 0, acc);
        let mut k = b.finish();
        let id = find_loops(&k).remove(0);
        assert_eq!(prefetch_global_loads(&mut k, &id), Err(PassError::NoPrefetchCandidate));
    }

    #[test]
    fn non_accumulate_address_update_is_rejected() {
        let mut b = KernelBuilder::new("recompute");
        let src = b.param(0);
        let out = b.param(1);
        let p = b.mov(src);
        let acc = b.mov(0.0f32);
        b.for_loop(4, |b, i| {
            let v = b.ld_global(p, 0);
            b.fmad_acc(v, 1.0f32, acc);
            // p recomputed from scratch, not accumulated:
            let np = b.iadd(src, i);
            b.push_instr(Instr::new(Op::Mov, Some(p), vec![np.into()]));
        });
        b.st_global(out, 0, acc);
        let mut k = b.finish();
        let id = find_loops(&k).remove(0);
        assert_eq!(prefetch_global_loads(&mut k, &id), Err(PassError::NoPrefetchCandidate));
    }

    #[test]
    fn prefetch_interacts_with_barriers() {
        // Tile-style loop: load, store to shared, sync, consume, sync.
        let mut b = KernelBuilder::new("tile");
        let src = b.param(0);
        let out = b.param(1);
        b.alloc_shared(4);
        let p = b.mov(src);
        let acc = b.mov(0.0f32);
        b.repeat(4, |b| {
            let v = b.ld_global(p, 0);
            b.st_shared(0i32, 0, v);
            b.sync();
            let sv = b.ld_shared(0i32, 0);
            b.fmad_acc(sv, 2.0f32, acc);
            b.sync();
            b.iadd_acc(p, 1i32);
        });
        b.st_global(out, 0, acc);
        let k0 = b.finish();

        let run = |k: &Kernel| {
            let prog = linearize(k);
            let mut mem = DeviceMemory::new(8);
            for i in 0..5 {
                mem.global[i] = (i + 1) as f32;
            }
            run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0, 6], &mut mem)
                .unwrap();
            mem.global[6]
        };

        let baseline = run(&k0);
        let mut k = k0.clone();
        let id = find_loops(&k).remove(0);
        prefetch_global_loads(&mut k, &id).unwrap();
        assert_eq!(run(&k), baseline);
    }
}
