//! Differential oracle for the decoded execution engine: on randomized
//! configurations of all four paper applications, and on fixed edge
//! cases, the decoded arena engines (`gpu_sim::interp`,
//! `gpu_sim::timing`) must be bit-identical to the pre-decode reference
//! engines retained in `gpu_sim::legacy` — functional results, cycle
//! counts, fuel consumption, and stall-lane attribution alike.

use gpu_autotune::arch::{MachineSpec, ResourceUsage};
use gpu_autotune::ir::build::KernelBuilder;
use gpu_autotune::ir::linear::linearize;
use gpu_autotune::ir::{Dim, Launch};
use gpu_autotune::kernels::cp::Cp;
use gpu_autotune::kernels::matmul::MatMul;
use gpu_autotune::kernels::mri_fhd::MriFhd;
use gpu_autotune::kernels::sad::Sad;
use gpu_autotune::optspace::candidate::Candidate;
use gpu_autotune::sim::interp::DeviceMemory;
use gpu_autotune::sim::{legacy, timing};
use proptest::prelude::*;

/// Run one candidate through both engine stacks and require bit
/// identity everywhere the stacks can be observed.
fn assert_parity(cand: &Candidate, mem0: &DeviceMemory, params: &[i32]) {
    let spec = MachineSpec::geforce_8800_gtx();
    let prog = linearize(&cand.kernel);

    // Functional: checked runs (race oracle armed) over the same data.
    let mut mem_dec = mem0.clone();
    let mut mem_leg = mem0.clone();
    let dec =
        gpu_autotune::sim::interp::run_kernel_checked(&prog, &cand.launch, params, &mut mem_dec);
    let leg = legacy::interp::run_kernel_checked(&prog, &cand.launch, params, &mut mem_leg);
    prop_assert_eq!(
        format!("{dec:?}"),
        format!("{leg:?}"),
        "functional outcome diverged on {}",
        cand.label
    );
    prop_assert_eq!(&mem_dec, &mem_leg, "device memory diverged on {}", cand.label);

    // Timing: only launchable configurations have a resource usage to
    // simulate with; the rest are the paper's invalid executables.
    let Ok(eval) = cand.evaluate(&spec) else { return };
    let usage = eval.kernel_profile.usage;
    let dec = timing::simulate_fueled(&prog, &cand.launch, &usage, &spec, None);
    let leg = legacy::timing::simulate_fueled(&prog, &cand.launch, &usage, &spec, None);
    prop_assert_eq!(
        format!("{dec:?}"),
        format!("{leg:?}"),
        "timing report diverged on {}",
        cand.label
    );

    // Fuel watchdog: truncating mid-run must burn identical fuel and
    // fail identically in both stacks.
    if let Ok(rep) = dec {
        if rep.steps > 1 {
            let fuel = Some(rep.steps / 2);
            let dec = timing::simulate_fueled(&prog, &cand.launch, &usage, &spec, fuel);
            let leg = legacy::timing::simulate_fueled(&prog, &cand.launch, &usage, &spec, fuel);
            prop_assert_eq!(
                format!("{dec:?}"),
                format!("{leg:?}"),
                "fuel accounting diverged on {}",
                cand.label
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn matmul_decoded_matches_legacy(pick in 0usize..1_000_000, seed in 0u64..1000) {
        let app = MatMul::test_problem();
        let cfgs = app.configs();
        let cand = app.candidate(&cfgs[pick % cfgs.len()]);
        let (mem, params) = app.setup(seed);
        assert_parity(&cand, &mem, &params);
    }

    #[test]
    fn cp_decoded_matches_legacy(pick in 0usize..1_000_000, seed in 0u64..1000) {
        let app = Cp::test_problem();
        let cfgs = app.configs();
        let cand = app.candidate(&cfgs[pick % cfgs.len()]);
        let (mem, params) = app.setup(seed);
        assert_parity(&cand, &mem, &params);
    }

    #[test]
    fn sad_decoded_matches_legacy(pick in 0usize..1_000_000, seed in 0u64..1000) {
        let app = Sad::test_problem();
        let cfgs = app.configs();
        let cand = app.candidate(&cfgs[pick % cfgs.len()]);
        let (mem, params) = app.setup(seed);
        assert_parity(&cand, &mem, &params);
    }

    #[test]
    fn mri_decoded_matches_legacy(pick in 0usize..1_000_000, seed in 0u64..1000) {
        let app = MriFhd::test_problem();
        let cfgs = app.configs();
        let cand = app.candidate(&cfgs[pick % cfgs.len()]);
        let (mem, params) = app.setup(seed);
        assert_parity(&cand, &mem, &params);
    }
}

/// Fixed edge case: a program whose last instruction is a barrier, so
/// every warp retires while parked at it.
#[test]
fn kernel_ending_at_a_barrier_matches_legacy() {
    let mut b = KernelBuilder::new("trailing-sync");
    let p = b.param(0);
    let acc = b.mov(0.0f32);
    b.fmad_acc(1.0f32, 1.0f32, acc);
    b.st_global(p, 0, acc);
    b.sync();
    let prog = linearize(&b.finish());
    let spec = MachineSpec::geforce_8800_gtx();
    let launch = Launch::new(Dim::new_1d(4), Dim::new_1d(64));
    let usage = ResourceUsage::new(64, 10, 0);
    let dec = timing::simulate_fueled(&prog, &launch, &usage, &spec, None);
    let leg = legacy::timing::simulate_fueled(&prog, &launch, &usage, &spec, None);
    assert!(dec.is_ok(), "the decoded engine runs the kernel: {dec:?}");
    assert_eq!(format!("{dec:?}"), format!("{leg:?}"));
}
