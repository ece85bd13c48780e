//! The qualitative shapes of the paper's figures, asserted on the
//! timing simulator at debug-friendly problem sizes.

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::ir::linear::linearize;
use gpu_autotune::kernels::cp::{Cp, CpConfig};
use gpu_autotune::kernels::matmul::{MatMul, MatMulConfig};
use gpu_autotune::optspace::tuner::{ExhaustiveSearch, SearchStrategy};
use gpu_autotune::sim::decode::decode;

/// Figure 3 / section 5.3: "none of the 8x8 configurations perform
/// better than any of the 16x16 configurations due to memory bandwidth
/// issues".
#[test]
fn matmul_16x16_strictly_beats_8x8() {
    let spec = MachineSpec::geforce_8800_gtx();
    let mm = MatMul::new(256);
    let cfgs = mm.figure3_space();
    let cands: Vec<_> = cfgs.iter().map(|c| mm.candidate(c)).collect();
    let r = ExhaustiveSearch.run(&cands, &spec);

    let time_of = |i: usize| r.simulated[i].as_ref().map(|t| t.time_ms);
    let worst_16 = cfgs
        .iter()
        .enumerate()
        .filter(|(_, c)| c.tile == 16)
        .filter_map(|(i, _)| time_of(i))
        .fold(0.0f64, f64::max);
    let best_8 = cfgs
        .iter()
        .enumerate()
        .filter(|(_, c)| c.tile == 8)
        .filter_map(|(i, _)| time_of(i))
        .fold(f64::INFINITY, f64::min);
    assert!(worst_16 < best_8, "worst 16x16 ({worst_16} ms) must beat best 8x8 ({best_8} ms)");
}

/// Figure 3: within 16x16/1x1, deeper unrolling is monotonically faster
/// (instruction-count reduction with no occupancy loss).
#[test]
fn matmul_unroll_monotone_for_16x16() {
    let spec = MachineSpec::geforce_8800_gtx();
    let mm = MatMul::new(256);
    let times: Vec<f64> = [1u32, 2, 4, 0]
        .iter()
        .map(|&u| {
            let cfg = MatMulConfig { tile: 16, rect: 1, unroll: u, prefetch: false, spill: false };
            let c = mm.candidate(&cfg);
            let e = c.evaluate(&spec).expect("valid");
            gpu_autotune::sim::timing::simulate(
                &decode(&linearize(&c.kernel)),
                &c.launch,
                &e.kernel_profile.usage,
                &spec,
                None,
            )
            .expect("valid")
            .time_ms
        })
        .collect();
    for pair in times.windows(2) {
        assert!(pair[1] < pair[0], "times not monotone: {times:?}");
    }
}

/// Figure 3 / section 3.2: the optimum is a 16x16 / 1x4 / complete
/// unroll configuration ("contrary to the intuition of more concurrent
/// threads equaling better performance", it runs one block per SM).
#[test]
fn matmul_optimum_is_1x4_complete_unroll() {
    let spec = MachineSpec::geforce_8800_gtx();
    let mm = MatMul::new(256);
    let cfgs = mm.configs();
    let cands: Vec<_> = cfgs.iter().map(|c| mm.candidate(c)).collect();
    let r = ExhaustiveSearch.run(&cands, &spec);
    let best = &cfgs[r.best.expect("valid space")];
    assert_eq!(best.tile, 16, "best = {best}");
    assert_eq!(best.rect, 4, "best = {best}");
    assert_eq!(best.unroll, 0, "best = {best}");
    let e = r.statics[r.best.unwrap()].as_ref().expect("valid");
    assert_eq!(e.kernel_profile.occupancy.blocks_per_sm, 1);
}

/// Figure 5's exact shape: CP execution time improves with tiling up to
/// a factor of 8, then "utilization falls enough to bring down the
/// machine's throughput, countering further increases in efficiency" —
/// the time rises again at 16.
#[test]
fn cp_tiling_optimum_at_8_with_uptick_at_16() {
    let spec = MachineSpec::geforce_8800_gtx();
    let cp = Cp::new(512, 64, 32);
    let times: Vec<f64> = [1u32, 2, 4, 8, 16]
        .iter()
        .map(|&t| {
            let c = cp.candidate(&CpConfig { block: 128, tiling: t, coalesced_output: true });
            let e = c.evaluate(&spec).expect("valid");
            gpu_autotune::sim::timing::simulate(
                &decode(&linearize(&c.kernel)),
                &c.launch,
                &e.kernel_profile.usage,
                &spec,
                None,
            )
            .expect("valid")
            .time_ms
        })
        .collect();
    // Monotone improvement up to tiling 8...
    for pair in times[..4].windows(2) {
        assert!(pair[1] < pair[0], "times not monotone through 8: {times:?}");
    }
    // ...then the utilization collapse makes 16 slower again.
    assert!(times[4] > times[3], "expected an up-tick at tiling 16: {times:?}");
}

/// Section 3.1 resource balancing: spilling can *raise* occupancy.
#[test]
fn spilling_can_raise_occupancy() {
    let spec = MachineSpec::geforce_8800_gtx();
    let mm = MatMul::new(256);
    let base = MatMulConfig { tile: 16, rect: 1, unroll: 0, prefetch: false, spill: false };
    let spilled = MatMulConfig { spill: true, ..base };
    let b = mm.candidate(&base).evaluate(&spec).expect("valid");
    let s = mm.candidate(&spilled).evaluate(&spec).expect("valid");
    assert!(
        s.kernel_profile.occupancy.blocks_per_sm > b.kernel_profile.occupancy.blocks_per_sm,
        "spill: {} blocks vs base {} blocks",
        s.kernel_profile.occupancy.blocks_per_sm,
        b.kernel_profile.occupancy.blocks_per_sm
    );
}
