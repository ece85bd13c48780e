//! The paper's introduction claim: "successive generations of
//! architectures require a complete reapplication of the optimization
//! process to achieve the maximum performance for the new system."
//!
//! Tune matrix multiplication on the GeForce 8800 GTX and on a
//! GT200-generation device; compare the optima and measure how much a
//! developer loses by carrying the old configuration forward.

use gpu_arch::MachineSpec;
use gpu_kernels::matmul::MatMul;
use gpu_kernels::{App, SpaceSource};
use optspace::engine::EvalEngine;
use optspace::report::{fmt_ms, table};
use optspace::tuner::{ExhaustiveSearch, PrunedSearch, SearchStrategy};

fn main() {
    optspace::cli::no_flags();
    let g80 = MachineSpec::geforce_8800_gtx();
    let next = MachineSpec::gtx_280_like();
    let mm = MatMul::reduced_problem();
    // The space size and the candidate labels both come from the
    // declared space — `Space::len()`, not a hand-maintained count that
    // a finer grid could silently outgrow.
    let engine = EvalEngine::default();
    let source = SpaceSource::full(&mm);
    let labels = source.labels();
    println!("space: {} configurations (declared)", mm.space().len());

    let on_g80 = ExhaustiveSearch.run_source(&engine, &source, &g80);
    let on_next = ExhaustiveSearch.run_source(&engine, &source, &next);
    let (Some(best_g80), Some(best_next)) = (on_g80.best, on_next.best) else {
        println!("no configuration could be timed on one of the devices");
        return;
    };
    let (Some(g80_time), Some(fresh)) = (on_g80.best_time_ms(), on_next.best_time_ms()) else {
        println!("no configuration could be timed on one of the devices");
        return;
    };

    let mut rows = vec![vec![
        "device".to_string(),
        "optimal config".to_string(),
        "time".to_string(),
        "old optimum carried over".to_string(),
        "penalty".to_string(),
    ]];
    rows.push(vec![
        "8800 GTX".into(),
        labels[best_g80].clone(),
        fmt_ms(g80_time),
        "-".into(),
        "-".into(),
    ]);
    // The paper's point survives either way: carrying the old optimum
    // forward costs performance — or is not even launchable.
    let (carried, penalty) = match on_next.simulated[best_g80].as_ref() {
        Some(t) => (fmt_ms(t.time_ms), format!("+{:.1}%", (t.time_ms / fresh - 1.0) * 100.0)),
        None => ("invalid on new device".to_string(), "-".to_string()),
    };
    rows.push(vec![
        "GT200-like".into(),
        labels[best_next].clone(),
        fmt_ms(fresh),
        carried,
        penalty,
    ]);
    println!("{}", table(&rows));

    // And the pruned methodology transfers as-is.
    let pruned = PrunedSearch::default().run_source(&engine, &source, &next);
    let found = match pruned.best_time_ms() {
        Some(t) if (t / fresh - 1.0).abs() < 1e-9 => "yes",
        Some(_) => "NO",
        None => "NO (nothing timed)",
    };
    println!(
        "pruned search on the new device: {} configs timed ({:.0}% reduction), optimum found: {found}",
        pruned.evaluated_count(),
        pruned.space_reduction() * 100.0,
    );
}
