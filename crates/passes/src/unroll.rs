//! Loop unrolling (section 3.1, "instruction count reduction").
//!
//! Partial unrolling by a factor `f` replicates the body `f` times inside
//! a loop of `trips / f` iterations; copies that read the loop counter
//! receive a rescaled value (`counter * f + j`). Complete unrolling
//! (`f == trips`) splices the copies into the parent with the counter
//! substituted by **constants** — which is what lets the address-folding
//! pass delete the per-iteration address arithmetic, reproducing Figure
//! 2(c)'s "replacing variable array indices with constants".

use gpu_ir::types::{Operand, VReg};
use gpu_ir::{Instr, Kernel, Loop, Op, Stmt};

use crate::loops::{get_loop, get_parent_mut, LoopId};
use crate::{fresh_reg, PassError};

/// Substitute every read of `from` with `to` in a statement tree.
fn substitute(stmts: &mut [Stmt], from: VReg, to: Operand) {
    for s in stmts {
        match s {
            Stmt::Op(i) => {
                for src in &mut i.srcs {
                    if src.reg() == Some(from) {
                        *src = to;
                    }
                }
            }
            Stmt::Sync => {}
            Stmt::Loop(l) => substitute(&mut l.body, from, to),
        }
    }
}

/// Whether any statement (recursively) writes `reg`.
fn writes(stmts: &[Stmt], reg: VReg) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Op(i) => i.dst == Some(reg),
        Stmt::Sync => false,
        Stmt::Loop(l) => l.counter == Some(reg) || writes(&l.body, reg),
    })
}

/// Unroll the loop addressed by `id` by `factor`.
///
/// `factor == 1` is a no-op; `factor == trip_count` unrolls completely,
/// removing the loop (and its control overhead) entirely.
///
/// # Errors
///
/// * [`PassError::LoopNotFound`] — `id` does not address a loop.
/// * [`PassError::ZeroFactor`] — `factor == 0`.
/// * [`PassError::TripNotDivisible`] — `factor` does not divide the trip
///   count (the paper's configurations always divide evenly).
pub fn unroll(kernel: &mut Kernel, id: &LoopId, factor: u32) -> Result<(), PassError> {
    if factor == 0 {
        return Err(PassError::ZeroFactor);
    }
    let l = get_loop(kernel, id).ok_or(PassError::LoopNotFound)?;
    let trips = l.trip_count;
    if factor == 1 {
        return Ok(());
    }
    if !trips.is_multiple_of(factor) {
        return Err(PassError::TripNotDivisible { trips, factor });
    }
    let counter = l.counter;
    let template = l.body.clone();
    // A body that *writes* the counter would alias with our rescaling;
    // generated kernels never do (the builder owns the counter).
    if let Some(c) = counter {
        if writes(&template, c) {
            return Err(PassError::LoopNotFound);
        }
    }

    if factor == trips {
        // Complete unroll: splice constant-substituted copies in place.
        let mut replacement: Vec<Stmt> = Vec::with_capacity(template.len() * trips as usize);
        for j in 0..trips {
            let copy = replacement.len();
            replacement.extend_from_slice(&template);
            if let Some(c) = counter {
                substitute(&mut replacement[copy..], c, Operand::ImmI32(j as i32));
            }
        }
        let (parent, idx) = get_parent_mut(kernel, id)?;
        parent.splice(idx..=idx, replacement);
        return Ok(());
    }

    // Partial unroll: new body = f copies; copy j rescales the counter
    // into a fresh register (imad tmp = counter * f + j).
    let mut new_body: Vec<Stmt> = Vec::with_capacity((template.len() + 1) * factor as usize);
    let mut rescales: Vec<(u32, VReg)> = Vec::new();
    for j in 0..factor {
        let tmp = counter.map(|_| fresh_reg(kernel));
        if let Some(t) = tmp {
            rescales.push((j, t));
        }
        if let (Some(c), Some(t)) = (counter, tmp) {
            new_body.push(Stmt::Op(Instr::new(
                Op::IMad,
                Some(t),
                [c.into(), Operand::ImmI32(factor as i32), Operand::ImmI32(j as i32)],
            )));
        }
        let copy = new_body.len();
        new_body.extend_from_slice(&template);
        if let (Some(c), Some(t)) = (counter, tmp) {
            substitute(&mut new_body[copy..], c, Operand::Reg(t));
        }
    }

    let l = crate::loops::get_loop_mut(kernel, id).ok_or(PassError::LoopNotFound)?;
    *l = Loop { trip_count: trips / factor, counter, body: new_body };
    Ok(())
}

/// Unroll the loop addressed by `id` by `factor`, accepting factors
/// that do not divide the trip count.
///
/// The loop becomes `trips / factor` iterations of `factor` body
/// copies, followed by `trips % factor` constant-substituted epilogue
/// copies spliced after the loop. `factor >= trips` unrolls completely
/// (the fine-grid spaces clamp their open-ended unroll axis this way);
/// dividing factors delegate to [`unroll`] and produce no epilogue, so
/// the paper's original configurations are bit-identical through either
/// entry point.
///
/// # Errors
///
/// * [`PassError::LoopNotFound`] — `id` does not address a loop.
/// * [`PassError::ZeroFactor`] — `factor == 0`.
pub fn unroll_with_remainder(
    kernel: &mut Kernel,
    id: &LoopId,
    factor: u32,
) -> Result<(), PassError> {
    if factor == 0 {
        return Err(PassError::ZeroFactor);
    }
    let l = get_loop(kernel, id).ok_or(PassError::LoopNotFound)?;
    let trips = l.trip_count;
    if factor == 1 || trips == 0 {
        return Ok(());
    }
    if factor >= trips {
        return unroll(kernel, id, trips);
    }
    if trips.is_multiple_of(factor) {
        return unroll(kernel, id, factor);
    }
    let q = trips / factor;
    let r = trips % factor;
    let counter = l.counter;
    let template = l.body.clone();
    if let Some(c) = counter {
        if writes(&template, c) {
            return Err(PassError::LoopNotFound);
        }
    }
    // Epilogue: the trailing `r` iterations as constant-substituted
    // copies, exactly like a complete unroll of that tail.
    let mut epilogue: Vec<Stmt> = Vec::with_capacity(template.len() * r as usize);
    for j in 0..r {
        let copy = epilogue.len();
        epilogue.extend_from_slice(&template);
        if let Some(c) = counter {
            substitute(&mut epilogue[copy..], c, Operand::ImmI32((q * factor + j) as i32));
        }
    }
    // Splice the epilogue in first, while the loop still addresses its
    // slot — when `q == 1` the delegated unroll below removes the loop
    // entirely, and the epilogue keeps its place after the splice.
    let (parent, idx) = get_parent_mut(kernel, id)?;
    parent.splice(idx + 1..idx + 1, epilogue);
    // Main loop: trim to the divisible prefix, then unroll it (complete
    // when q == 1, partial otherwise).
    let l = crate::loops::get_loop_mut(kernel, id).ok_or(PassError::LoopNotFound)?;
    l.trip_count = q * factor;
    unroll(kernel, id, factor)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::find_loops;
    use gpu_ir::analysis::dynamic_counts;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Launch};
    use gpu_sim::interp::{run_kernel, DeviceMemory};

    /// out[i] = i*i for i in 0..16, via a counted loop.
    fn squares_kernel() -> Kernel {
        let mut b = KernelBuilder::new("sq");
        let dst = b.param(0);
        b.for_loop(16, |b, i| {
            let a = b.iadd(dst, i);
            let sq = b.imul(i, i);
            let f = b.i2f(sq);
            b.st_global(a, 0, f);
        });
        b.finish()
    }

    fn run(k: &Kernel) -> Vec<f32> {
        let prog = linearize(k);
        let mut mem = DeviceMemory::new(16);
        let launch = Launch::new(Dim::new_1d(1), Dim::new_1d(1));
        run_kernel(&prog, &launch, &[0], &mut mem).unwrap();
        mem.global
    }

    #[test]
    fn partial_unroll_preserves_semantics() {
        let baseline = run(&squares_kernel());
        for factor in [2, 4, 8] {
            let mut k = squares_kernel();
            let id = find_loops(&k).remove(0);
            unroll(&mut k, &id, factor).unwrap();
            assert_eq!(run(&k), baseline, "factor {factor}");
            let l = crate::loops::get_loop(&k, &id).unwrap();
            assert_eq!(l.trip_count, 16 / factor);
        }
    }

    #[test]
    fn complete_unroll_removes_loop() {
        let baseline = run(&squares_kernel());
        let mut k = squares_kernel();
        let id = find_loops(&k).remove(0);
        unroll(&mut k, &id, 16).unwrap();
        assert!(find_loops(&k).is_empty());
        assert_eq!(run(&k), baseline);
    }

    #[test]
    fn unroll_reduces_dynamic_loop_overhead() {
        let mut base = squares_kernel();
        let mut unrolled = squares_kernel();
        let id = find_loops(&base).remove(0);
        unroll(&mut unrolled, &id, 4).unwrap();
        let c0 = dynamic_counts(&base).instrs;
        let c1 = dynamic_counts(&unrolled).instrs;
        // 16 iterations of 3-instr overhead become 4, but each copy adds
        // one imad: 16*3 = 48 overhead -> 4*3 + 16 imad = 28.
        assert!(c1 < c0, "unrolled {c1} !< base {c0}");
        let _ = &mut base;
    }

    #[test]
    fn counterless_unroll_duplicates_body() {
        let mut b = KernelBuilder::new("acc");
        let dst = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(12, |b| {
            b.fmad_acc(2.0f32, 3.0f32, acc);
        });
        b.st_global(dst, 0, acc);
        let k0 = b.finish();

        let mut k = k0.clone();
        let id = find_loops(&k).remove(0);
        unroll(&mut k, &id, 3).unwrap();
        let prog = linearize(&k);
        let mut mem = DeviceMemory::new(1);
        run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem).unwrap();
        assert_eq!(mem.global[0], 72.0);
        // No imads inserted for counterless loops.
        let l = crate::loops::get_loop(&k, &id).unwrap();
        assert_eq!(l.body.len(), 3);
    }

    #[test]
    fn remainder_unroll_preserves_semantics_for_any_factor() {
        let baseline = run(&squares_kernel());
        for factor in 1..=20u32 {
            let mut k = squares_kernel();
            let id = find_loops(&k).remove(0);
            unroll_with_remainder(&mut k, &id, factor).unwrap();
            assert_eq!(run(&k), baseline, "factor {factor}");
            if factor >= 9 {
                // q = trips/factor = 1: the main loop unrolls away too,
                // leaving only straight-line code (plus the epilogue).
                assert!(find_loops(&k).is_empty(), "factor {factor} should fully unroll");
            } else if factor > 1 {
                let l = crate::loops::get_loop(&k, &id).unwrap();
                assert_eq!(l.trip_count, 16 / factor, "factor {factor}");
            }
        }
    }

    #[test]
    fn remainder_unroll_matches_strict_unroll_on_divisors() {
        for factor in [2u32, 4, 8, 16] {
            let mut a = squares_kernel();
            let mut b = squares_kernel();
            let id = find_loops(&a).remove(0);
            unroll(&mut a, &id, factor).unwrap();
            unroll_with_remainder(&mut b, &id, factor).unwrap();
            assert_eq!(a, b, "factor {factor}");
        }
    }

    #[test]
    fn remainder_unroll_rejects_zero_factor() {
        let mut k = squares_kernel();
        let id = find_loops(&k).remove(0);
        assert_eq!(unroll_with_remainder(&mut k, &id, 0), Err(PassError::ZeroFactor));
    }

    #[test]
    fn non_divisible_factor_rejected() {
        let mut k = squares_kernel();
        let id = find_loops(&k).remove(0);
        assert_eq!(
            unroll(&mut k, &id, 3),
            Err(PassError::TripNotDivisible { trips: 16, factor: 3 })
        );
    }

    #[test]
    fn zero_factor_rejected() {
        let mut k = squares_kernel();
        let id = find_loops(&k).remove(0);
        assert_eq!(unroll(&mut k, &id, 0), Err(PassError::ZeroFactor));
    }

    #[test]
    fn factor_one_is_noop() {
        let mut k = squares_kernel();
        let before = k.clone();
        let id = find_loops(&k).remove(0);
        unroll(&mut k, &id, 1).unwrap();
        assert_eq!(k, before);
    }

    #[test]
    fn unrolling_nested_inner_loop() {
        let mut b = KernelBuilder::new("nest");
        let dst = b.param(0);
        let acc = b.mov(0.0f32);
        b.for_loop(4, |b, i| {
            b.for_loop(6, |b, j| {
                let ij = b.imul(i, j);
                let f = b.i2f(ij);
                b.fmad_acc(f, 1.0f32, acc);
            });
        });
        b.st_global(dst, 0, acc);
        let k0 = b.finish();

        let expected = {
            let prog = linearize(&k0);
            let mut mem = DeviceMemory::new(1);
            run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem)
                .unwrap();
            mem.global[0]
        };

        let mut k = k0.clone();
        let inner = crate::loops::innermost_loops(&k).remove(0);
        unroll(&mut k, &inner, 2).unwrap();
        let prog = linearize(&k);
        let mut mem = DeviceMemory::new(1);
        run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem).unwrap();
        assert_eq!(mem.global[0], expected);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::loops::find_loops;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Launch};
    use gpu_sim::interp::{run_kernel, DeviceMemory};
    use proptest::prelude::*;

    proptest! {
        /// Unrolling by any divisor of the trip count preserves the
        /// result of a counter-dependent accumulation.
        #[test]
        fn unroll_preserves_sums(trips in 1u32..=24, seed in 0i32..100) {
            let build = || {
                let mut b = KernelBuilder::new("p");
                let dst = b.param(0);
                let acc = b.mov(0.0f32);
                b.for_loop(trips, |b, i| {
                    let shifted = b.iadd(i, seed);
                    let f = b.i2f(shifted);
                    b.fmad_acc(f, 2.0f32, acc);
                });
                b.st_global(dst, 0, acc);
                b.finish()
            };
            let run = |k: &gpu_ir::Kernel| {
                let prog = linearize(k);
                let mut mem = DeviceMemory::new(1);
                run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem)
                    .unwrap();
                mem.global[0]
            };
            let baseline = run(&build());
            for factor in 1..=trips {
                if !trips.is_multiple_of(factor) {
                    continue;
                }
                let mut k = build();
                let id = find_loops(&k).remove(0);
                unroll(&mut k, &id, factor).unwrap();
                prop_assert_eq!(run(&k), baseline);
            }
        }

        /// Remainder unrolling preserves the result for *every* factor,
        /// dividing or not, including factors past the trip count.
        #[test]
        fn remainder_unroll_preserves_sums(trips in 1u32..=24, factor in 1u32..=30, seed in 0i32..100) {
            let build = || {
                let mut b = KernelBuilder::new("p");
                let dst = b.param(0);
                let acc = b.mov(0.0f32);
                b.for_loop(trips, |b, i| {
                    let shifted = b.iadd(i, seed);
                    let f = b.i2f(shifted);
                    b.fmad_acc(f, 2.0f32, acc);
                });
                b.st_global(dst, 0, acc);
                b.finish()
            };
            let run = |k: &gpu_ir::Kernel| {
                let prog = linearize(k);
                let mut mem = DeviceMemory::new(1);
                run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem)
                    .unwrap();
                mem.global[0]
            };
            let baseline = run(&build());
            let mut k = build();
            let id = find_loops(&k).remove(0);
            unroll_with_remainder(&mut k, &id, factor).unwrap();
            prop_assert_eq!(run(&k), baseline);
        }
    }
}
