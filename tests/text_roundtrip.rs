//! The textual kernel format round-trips every generated application
//! kernel — all four apps, all configurations — and parsed kernels are
//! functionally identical to the originals.

use gpu_autotune::ir::text::{parse, to_text};
use gpu_autotune::kernels::{cp::Cp, matmul::MatMul, mri_fhd::MriFhd, sad::Sad, App};

#[test]
fn every_app_kernel_roundtrips() {
    for app in [
        &MatMul::test_problem() as &dyn App,
        &Cp::test_problem(),
        &Sad::test_problem(),
        &MriFhd::test_problem(),
    ] {
        for c in app.candidates() {
            let text = to_text(&c.kernel);
            let back = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", c.label));
            assert_eq!(back.body, c.kernel.body, "{}", c.label);
            assert_eq!(back.smem_bytes, c.kernel.smem_bytes, "{}", c.label);
            assert_eq!(back.num_params, c.kernel.num_params, "{}", c.label);
            // Analyses agree on the parsed kernel.
            let a0 = gpu_autotune::ir::analysis::dynamic_counts(&c.kernel);
            let a1 = gpu_autotune::ir::analysis::dynamic_counts(&back);
            assert_eq!(a0, a1, "{}", c.label);
        }
    }
}

#[test]
fn parsed_kernel_executes_identically() {
    let mm = MatMul::test_problem();
    let cfg = gpu_autotune::kernels::matmul::MatMulConfig {
        tile: 16,
        rect: 2,
        unroll: 2,
        prefetch: true,
        spill: false,
    };
    let kernel = mm.generate(&cfg);
    let parsed = parse(&to_text(&kernel)).expect("parses");

    let (mem0, params) = mm.setup(31);
    let launch = mm.launch(&cfg);
    let run = |k: &gpu_autotune::ir::Kernel| {
        let prog = gpu_autotune::ir::linear::linearize(k);
        let mut mem = mem0.clone();
        gpu_autotune::sim::interp::run_kernel(&prog, &launch, &params, &mut mem).expect("runs");
        mem.global
    };
    assert_eq!(run(&kernel), run(&parsed));
}

#[test]
fn more_operands_than_the_op_takes_is_a_parse_error() {
    // Five operands for a two-source op: more than an instruction can
    // hold inline, reported as the parser's arity error, not a panic.
    let text = ".kernel k\n.params 0\n.shared 0\n{\n    %r0 = add.f32 %r1, %r2, %r3, %r4\n}\n";
    let err = parse(text).expect_err("must fail");
    assert_eq!(err.line, 5);
    assert!(err.message.contains("expects 2 operands, got 4"), "{err}");
}
