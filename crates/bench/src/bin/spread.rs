//! Section 1's motivation numbers: "For an MRI reconstruction
//! application with a space size of 175 configurations, the difference
//! in performance between a hand-optimized implementation and the
//! optimal configuration was 17% and the difference in performance
//! between the worst and optimal configurations was 235%."
//!
//! Per application: best / median / worst configuration time, the
//! worst-vs-best spread, and the gap of a "hand-optimized"
//! configuration — the one a sensible expert would write by intuition
//! (maximise occupancy, moderate unrolling) — to the true optimum.

use gpu_arch::MachineSpec;
use gpu_kernels::{
    cp::{Cp, CpConfig},
    matmul::{MatMul, MatMulConfig},
    mri_fhd::{MriConfig, MriFhd},
    sad::{Sad, SadConfig},
    App,
};
use optspace::report::{fmt_ms, table};
use optspace::tuner::{ExhaustiveSearch, SearchStrategy};

fn main() {
    optspace::cli::no_flags();
    let spec = MachineSpec::geforce_8800_gtx();
    let mut rows = vec![vec![
        "Kernel".to_string(),
        "best".to_string(),
        "median".to_string(),
        "worst".to_string(),
        "worst vs best".to_string(),
        "hand-opt vs best".to_string(),
    ]];

    // The intuition-driven picks: biggest tiles/occupancy, moderate
    // unrolling, no exotic knobs — what section 3.2 says a developer
    // reaches for before experimentation corrects them.
    let mm = MatMul::reduced_problem();
    let hand_mm = mm
        .configs()
        .iter()
        .position(|c| {
            *c == MatMulConfig { tile: 16, rect: 1, unroll: 2, prefetch: false, spill: false }
        })
        .expect("config in space");
    let cp = Cp::paper_problem();
    let hand_cp = cp
        .configs()
        .iter()
        .position(|c| *c == CpConfig { block: 128, tiling: 2, coalesced_output: true })
        .expect("config in space");
    let sad = Sad::paper_problem();
    let hand_sad = sad
        .configs()
        .iter()
        .position(|c| {
            *c == SadConfig { tpb: 128, mb_tiling: 1, pos_unroll: 1, row_unroll: 2, col_unroll: 2 }
        })
        .expect("config in space");
    let mri = MriFhd::paper_problem();
    let hand_mri = mri
        .configs()
        .iter()
        .position(|c| *c == MriConfig { block: 256, unroll: 2, invocations: 1 })
        .expect("config in space");

    let apps: [(&dyn App, usize); 4] =
        [(&mm, hand_mm), (&cp, hand_cp), (&sad, hand_sad), (&mri, hand_mri)];
    for (app, hand_idx) in apps {
        let r = ExhaustiveSearch.run(&app.candidates(), &spec);
        let mut times: Vec<f64> = r.simulated.iter().flatten().map(|t| t.time_ms).collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let best = times[0];
        let median = times[times.len() / 2];
        let worst = *times.last().expect("non-empty");
        let hand =
            r.simulated[hand_idx].as_ref().map(|t| t.time_ms).expect("hand-picked config valid");
        rows.push(vec![
            app.name().to_string(),
            fmt_ms(best),
            fmt_ms(median),
            fmt_ms(worst),
            format!("+{:.0}%", (worst / best - 1.0) * 100.0),
            format!("+{:.0}%", (hand / best - 1.0) * 100.0),
        ]);
    }
    println!("{}", table(&rows));
    println!("paper (§1, MRI-FHD): worst vs optimal +235%, hand-optimized vs optimal +17%");
}
