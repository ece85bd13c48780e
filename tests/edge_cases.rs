//! Edge cases across crate boundaries: degenerate launches, empty
//! spaces, pathological metric values, and interpreter corner cases.

use gpu_autotune::arch::{MachineSpec, ResourceUsage};
use gpu_autotune::ir::build::KernelBuilder;
use gpu_autotune::ir::linear::linearize;
use gpu_autotune::ir::types::Special;
use gpu_autotune::ir::{Dim, Launch};
use gpu_autotune::optspace::candidate::Candidate;
use gpu_autotune::optspace::pareto::{pareto_indices, Point};
use gpu_autotune::optspace::tuner::{ExhaustiveSearch, PrunedSearch, RandomSearch, SearchStrategy};
use gpu_autotune::sim::interp::{run_kernel, DeviceMemory};

fn g80() -> MachineSpec {
    MachineSpec::geforce_8800_gtx()
}

#[test]
fn searches_handle_empty_candidate_lists() {
    let spec = g80();
    let none: Vec<Candidate> = Vec::new();
    let r = ExhaustiveSearch.run(&none, &spec);
    assert_eq!(r.space_size, 0);
    assert_eq!(r.best, None);
    assert_eq!(r.best_time_ms(), None);
    let r = PrunedSearch::default().run(&none, &spec);
    assert_eq!(r.evaluated_count(), 0);
    let r = RandomSearch::new(5, 0).run(&none, &spec);
    assert_eq!(r.evaluated_count(), 0);
}

#[test]
fn searches_handle_all_invalid_spaces() {
    // Every candidate exceeds the register file.
    let spec = g80();
    let mk = || {
        let mut b = KernelBuilder::new("fat");
        let p = b.param(0);
        let vals: Vec<_> = (0..40).map(|i| b.ld_global(p, i)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.fadd(acc, v);
        }
        b.st_global(p, 0, acc);
        Candidate::new("fat", b.finish(), Launch::new(Dim::new_1d(4), Dim::new_1d(512)))
    };
    let cands = vec![mk(), mk()];
    let r = ExhaustiveSearch.run(&cands, &spec);
    assert_eq!(r.valid_count(), 0);
    assert_eq!(r.best, None);
    let r = PrunedSearch::default().run(&cands, &spec);
    assert_eq!(r.best, None);
    assert_eq!(r.space_reduction(), 0.0);
}

#[test]
fn pareto_with_nan_points_does_not_panic() {
    let pts = vec![Point::new(1.0, 1.0), Point::new(f64::NAN, 0.5), Point::new(0.5, f64::NAN)];
    // Sorting treats incomparable values as equal; we only require
    // no panic and that the clean point survives.
    let keep = pareto_indices(&pts);
    assert!(keep.contains(&0));
}

#[test]
fn one_thread_grid_runs() {
    let mut b = KernelBuilder::new("one");
    let p = b.param(0);
    b.st_global(p, 0, 5.0f32);
    let prog = linearize(&b.finish());
    let mut mem = DeviceMemory::new(1);
    run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem).expect("runs");
    assert_eq!(mem.global[0], 5.0);
}

#[test]
fn empty_kernel_simulates_to_near_zero() {
    let b = KernelBuilder::new("empty");
    let prog = linearize(&b.finish());
    let r = gpu_autotune::sim::timing::simulate(
        &gpu_autotune::sim::decode::decode(&prog),
        &Launch::new(Dim::new_1d(16), Dim::new_1d(32)),
        &ResourceUsage::new(32, 2, 0),
        &g80(),
        None,
    )
    .expect("valid");
    assert_eq!(r.instructions_issued, 0);
    assert_eq!(r.cycles_per_wave, 0);
}

#[test]
fn barrier_in_multiblock_2d_grid() {
    // Shared-memory rotation across a 2D grid of 2D blocks: every block
    // must observe only its own barrier group.
    let mut b = KernelBuilder::new("rot");
    let out = b.param(0);
    b.alloc_shared(16 * 4);
    let tx = b.read_special(Special::TidX);
    let ty = b.read_special(Special::TidY);
    let bx = b.read_special(Special::CtaIdX);
    let by = b.read_special(Special::CtaIdY);
    let lin = b.imad(ty, 4i32, tx); // 0..16 within block
    let f = b.i2f(lin);
    b.st_shared(lin, 0, f);
    b.sync();
    let next = b.iadd(lin, 1i32);
    let wrapped = b.irem(next, 16i32);
    let v = b.ld_shared(wrapped, 0);
    // global index: ((by*2+bx)*16 + lin)
    let blk = b.imad(by, 2i32, bx);
    let base = b.imul(blk, 16i32);
    let gi = b.iadd(base, lin);
    let addr = b.iadd(out, gi);
    b.st_global(addr, 0, v);
    let prog = linearize(&b.finish());
    let mut mem = DeviceMemory::new(64);
    let launch = Launch::new(Dim::new_2d(2, 2), Dim::new_2d(4, 4));
    run_kernel(&prog, &launch, &[0], &mut mem).expect("runs");
    for blk in 0..4 {
        for lin in 0..16 {
            let expect = ((lin + 1) % 16) as f32;
            assert_eq!(mem.global[blk * 16 + lin], expect, "block {blk}, lane {lin}");
        }
    }
}

#[test]
#[should_panic(expected = "budget >= 1")]
fn random_search_budget_zero_is_refused() {
    // A zero budget used to be accepted and silently time nothing; the
    // validated constructor refuses it up front.
    let _ = RandomSearch::new(0, 1);
}

#[test]
fn invocations_scale_time_linearly() {
    let spec = g80();
    let mk = |inv: u32| {
        let mut b = KernelBuilder::new("inv");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(64, |b| {
            b.fmad_acc(2.0f32, 2.0f32, acc);
        });
        b.st_global(p, 0, acc);
        Candidate::new("inv", b.finish(), Launch::new(Dim::new_1d(64), Dim::new_1d(128)))
            .with_invocations(inv)
    };
    let r1 = ExhaustiveSearch.run(&[mk(1)], &spec);
    let r4 = ExhaustiveSearch.run(&[mk(4)], &spec);
    let (t1, t4) = (r1.best_time_ms().expect("timed"), r4.best_time_ms().expect("timed"));
    assert!((t4 / t1 - 4.0).abs() < 0.05, "t4/t1 = {}", t4 / t1);
}

#[test]
fn metrics_scale_with_invocations_as_documented() {
    let spec = g80();
    let mut b = KernelBuilder::new("m");
    let p = b.param(0);
    let acc = b.mov(0.0f32);
    b.repeat(32, |b| {
        let x = b.ld_global(p, 0);
        b.fmad_acc(x, 1.0f32, acc);
    });
    b.st_global(p, 0, acc);
    let k = b.finish();
    let launch = Launch::new(Dim::new_1d(64), Dim::new_1d(128));
    let one = Candidate::new("x", k.clone(), launch).evaluate(&spec).expect("valid");
    let two = Candidate::new("x", k, launch).with_invocations(2).evaluate(&spec).expect("valid");
    assert_eq!(two.kernel_profile.profile.instr, one.kernel_profile.profile.instr * 2);
    // Utilization's Instr/Regions ratio is invariant.
    assert!((two.metrics.utilization / one.metrics.utilization - 1.0).abs() < 1e-12);
    // Efficiency halves (twice the total instructions).
    assert!((one.metrics.efficiency / two.metrics.efficiency - 2.0).abs() < 1e-12);
}
