//! Property tests across crates: randomized kernels pushed through the
//! full pass pipeline must stay functionally identical on the
//! interpreter, and static analyses must stay consistent with what the
//! timing simulator executes.

use gpu_autotune::arch::{MachineSpec, ResourceUsage};
use gpu_autotune::ir::build::KernelBuilder;
use gpu_autotune::ir::linear::linearize;
use gpu_autotune::ir::{Dim, Kernel, Launch};
use gpu_autotune::passes::{
    find_loops, fold_strided_addresses, innermost_loops, prefetch_global_loads, spill_candidates,
    spill_registers, unroll,
};
use gpu_autotune::sim::interp::{run_kernel, DeviceMemory};
use proptest::prelude::*;

/// A randomized streaming kernel: one pass over `len` elements with a
/// configurable mix of arithmetic, strides, and a second pointer.
fn build_stream(len: u32, stride_b: i32, madd_chain: u32, use_shared: bool) -> Kernel {
    let mut b = KernelBuilder::new("stream");
    let src = b.param(0);
    let dst = b.param(1);
    if use_shared {
        b.alloc_shared(4);
    }
    let pa = b.mov(src);
    let pb = b.iadd(src, stride_b);
    let pd = b.mov(dst);
    let acc = b.mov(0.0f32);
    b.repeat(len, |b| {
        let x = b.ld_global(pa, 0);
        let y = b.ld_global(pb, 0);
        let mut v = b.fadd(x, y);
        for _ in 0..madd_chain {
            v = b.fmad(v, 0.5f32, 1.0f32);
        }
        b.fmad_acc(v, 1.0f32, acc);
        if use_shared {
            b.st_shared(0i32, 0, v);
            b.sync();
            let s = b.ld_shared(0i32, 0);
            b.fmad_acc(s, 0.25f32, acc);
            b.sync();
        }
        b.st_global(pd, 0, v);
        b.iadd_acc(pa, 1i32);
        b.iadd_acc(pb, 1i32);
        b.iadd_acc(pd, 1i32);
    });
    let out = b.iadd(dst, len as i32);
    b.st_global(out, 0, acc);
    b.finish()
}

fn run(k: &Kernel, len: u32, stride_b: i32) -> Vec<f32> {
    let prog = linearize(k);
    // Input region padded by one stride so prefetch's final loads land
    // in bounds.
    let in_words = (len as i32 + stride_b + 2) as usize;
    let mut mem = DeviceMemory::new(in_words + len as usize + 1);
    for i in 0..in_words {
        mem.global[i] = (i as f32 * 0.37).sin();
    }
    let launch = Launch::new(Dim::new_1d(1), Dim::new_1d(1));
    run_kernel(&prog, &launch, &[0, in_words as i32], &mut mem).expect("kernel runs");
    mem.global[in_words..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// unroll → fold → prefetch → spill, in any legal combination,
    /// preserves results exactly.
    #[test]
    fn pipeline_preserves_semantics(
        len_pow in 2u32..5,
        stride in 4i32..12,
        chain in 0u32..4,
        factor_pow in 0u32..3,
        do_prefetch in any::<bool>(),
        do_spill in any::<bool>(),
        use_shared in any::<bool>(),
    ) {
        let len = 1 << len_pow; // 4..16, divisible by all factors
        let factor = 1 << factor_pow;
        let baseline = run(&build_stream(len, stride, chain, use_shared), len, stride);

        let mut k = build_stream(len, stride, chain, use_shared);
        if do_prefetch {
            let outer = find_loops(&k).into_iter().next().expect("loop");
            prefetch_global_loads(&mut k, &outer).expect("leading loads exist");
        }
        let inner = innermost_loops(&k).into_iter().next().expect("loop");
        unroll(&mut k, &inner, factor).expect("divides");
        fold_strided_addresses(&mut k);
        if do_spill {
            let victims = spill_candidates(&k, 2);
            spill_registers(&mut k, &victims).expect("no counters picked");
        }
        prop_assert_eq!(run(&k, len, stride), baseline);
    }

    /// The timing simulator issues exactly the instruction count the
    /// static analysis predicts (per warp), for arbitrary pipeline
    /// outputs.
    #[test]
    fn simulator_issue_count_matches_static_analysis(
        len_pow in 2u32..5,
        chain in 0u32..3,
        factor_pow in 0u32..3,
    ) {
        let len = 1 << len_pow;
        let factor = 1 << factor_pow;
        let mut k = build_stream(len, 8, chain, false);
        let inner = innermost_loops(&k).into_iter().next().expect("loop");
        unroll(&mut k, &inner, factor).expect("divides");
        fold_strided_addresses(&mut k);

        let counts = gpu_autotune::ir::analysis::dynamic_counts(&k);
        let spec = MachineSpec::geforce_8800_gtx();
        let launch = Launch::new(Dim::new_1d(16), Dim::new_1d(32));
        let report = gpu_autotune::sim::timing::simulate(
            &gpu_autotune::sim::decode::decode(&linearize(&k)),
            &launch,
            &ResourceUsage::new(32, 12, k.smem_bytes),
            &spec,
            None,
        ).expect("valid");
        // One resident warp per SM here: per-warp issue slots equal the
        // per-thread dynamic instruction count.
        prop_assert_eq!(report.instructions_issued, counts.instrs);
    }
}
