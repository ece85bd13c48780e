//! The fine grid's ground truth on perfbench's fine-pareto slice
//! (`tune matmul --grid fine --filter tile=16 --filter rect=4`, 4,096
//! points): exhaustive search and the paper's Pareto pruning, each
//! pinned to its best label and the bits of its time.
//!
//! The paper's claim does not hold here: the Pareto front misses the
//! slice's optimum, `…/uC/o16/pf`, and settles for `…/uC/o1/pf`, which
//! dominates it on both static metrics by under 1%. This test keeps
//! that gap visible, and fails the day it closes or moves.
//!
//! Release only (about 3 s at 2 workers on a 2-vCPU machine; far slower
//! in a debug build):
//! `cargo test --release --test fine_ground_truth -- --ignored`.

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::kernels::matmul::MatMulFine;
use gpu_autotune::kernels::{App, SpaceSource};
use gpu_autotune::optspace::tuner::{ExhaustiveSearch, PrunedSearch, SearchStrategy};
use gpu_autotune::optspace::{EvalEngine, Filter, Selection};

/// Best label and `time_ms.to_bits()` of one search over the slice.
fn best_on_the_slice(strategy: &dyn SearchStrategy) -> (String, u64) {
    let app = MatMulFine::reduced_problem();
    let selection = Selection {
        filters: vec![
            Filter { axis: "tile".into(), value: "16".into() },
            Filter { axis: "rect".into(), value: "4".into() },
        ],
        sample: None,
    };
    let points = selection.apply(&app.space()).expect("the filters name declared axes");
    assert_eq!(points.len(), 4_096);
    let source = SpaceSource::new(&app, points);
    let report =
        strategy.run_source(&EvalEngine::with_jobs(2), &source, &MachineSpec::geforce_8800_gtx());
    let best = report.best.expect("the slice has valid configurations");
    (source.labels()[best].clone(), report.best_time_ms().expect("a best time").to_bits())
}

/// Exhaustive search's optimum of the slice.
const OPTIMUM: (&str, u64) = ("16x16/1x4/uC/o16/pf", 0x4000_0905_f95e_1567); // 2.0044 ms
/// What the Pareto-pruned search returns on the slice.
const PARETO: (&str, u64) = ("16x16/1x4/uC/o1/pf", 0x4000_7d88_22c8_5a20); // 2.0613 ms

#[test]
#[ignore = "release-scale search; run with --release -- --ignored"]
fn pareto_misses_the_fine_slice_optimum() {
    let (exhaustive, exhaustive_bits) = best_on_the_slice(&ExhaustiveSearch);
    let (pareto, pareto_bits) = best_on_the_slice(&PrunedSearch::default());
    assert_eq!((exhaustive.as_str(), exhaustive_bits), OPTIMUM, "exhaustive best moved");
    assert_eq!((pareto.as_str(), pareto_bits), PARETO, "pareto best moved");
    // The paper's claim fails on this slice, by 2.8%.
    assert!(f64::from_bits(pareto_bits) > f64::from_bits(exhaustive_bits));
}
