//! Navigating a large, ragged space: the SAD kernel's 675-configuration
//! space (Figure 4), searched three ways — exhaustively, with the
//! paper's Pareto pruning, and by random sampling with the same budget.
//!
//! Run with: `cargo run --release --example sad_search [-- --jobs N]`

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::kernels::sad::Sad;
use gpu_autotune::kernels::App;
use gpu_autotune::optspace::cli::{self, Args};
use gpu_autotune::optspace::engine::EvalEngine;
use gpu_autotune::optspace::report::fmt_ms;
use gpu_autotune::optspace::tuner::{ExhaustiveSearch, PrunedSearch, RandomSearch, SearchStrategy};

fn main() {
    let jobs = cli::parse_env(Args::jobs);
    let engine = EvalEngine::with_jobs(jobs);
    let spec = MachineSpec::geforce_8800_gtx();
    let sad = Sad::paper_problem();
    let candidates = sad.candidates();
    println!(
        "SAD: QCIF {}x{}, {} search positions, {} configurations ({} worker{})",
        sad.width,
        sad.height,
        sad.positions(),
        candidates.len(),
        jobs,
        if jobs == 1 { "" } else { "s" },
    );

    let exhaustive = ExhaustiveSearch.run_with(&engine, &candidates, &spec);
    let best_time = exhaustive.best_time_ms().expect("valid space");
    println!(
        "\nexhaustive: {} configs timed ({} unique sims, {} cache hits), {} total, \
         best = {} ({})",
        exhaustive.evaluated_count(),
        exhaustive.stats.unique_sims,
        exhaustive.stats.cache_hits,
        fmt_ms(exhaustive.evaluation_time_ms()),
        candidates[exhaustive.best.expect("valid")].label,
        fmt_ms(best_time),
    );

    let pruned = PrunedSearch::default().run_with(&engine, &candidates, &spec);
    println!(
        "pruned:     {} configs timed ({:.0}% reduction), best = {} ({})",
        pruned.evaluated_count(),
        pruned.space_reduction() * 100.0,
        candidates[pruned.best.expect("valid")].label,
        fmt_ms(pruned.best_time_ms().expect("valid")),
    );

    // Random sampling with the pruned budget: how often does it find
    // the optimum, and how far off is it on average?
    let budget = pruned.evaluated_count();
    let trials = 25;
    let mut hits = 0;
    let mut regret = 0.0;
    for seed in 0..trials {
        let r = RandomSearch::new(budget, seed).run_with(&engine, &candidates, &spec);
        let t = r.best_time_ms().expect("non-empty sample");
        if (t / best_time - 1.0).abs() < 1e-9 {
            hits += 1;
        }
        regret += t / best_time - 1.0;
    }
    println!(
        "random x{trials} (budget {budget}): optimum found {hits}/{trials} times, \
         mean gap +{:.1}%",
        regret / f64::from(trials as u32) * 100.0
    );
}
