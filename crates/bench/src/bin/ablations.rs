//! Ablation experiments for the design choices DESIGN.md calls out:
//!
//! * `random` — Pareto pruning vs random sampling of equal budget
//!   (the comparison the paper's future work proposes).
//! * `halfterm` — Utilization with vs without the ÷2 barrier term of
//!   Equation 2.
//! * `single` — ranking by one metric alone (section 5.1: "neither is
//!   sufficient in isolation").
//! * `bandwidth` — Pareto pruning with vs without the section 5.3
//!   bandwidth screen.

use gpu_arch::MachineSpec;
use optspace::cli::{self, Args};
use optspace::engine::EvalEngine;
use optspace::metrics::MetricsOptions;
use optspace::report::table;
use optspace::tuner::{ExhaustiveSearch, PrunedSearch, RandomSearch, SearchStrategy};
use optspace_bench::suite;

fn main() {
    let engine = EvalEngine::with_jobs(cli::parse_env(Args::jobs));
    let spec = MachineSpec::geforce_8800_gtx();
    let mut rows = vec![vec![
        "Kernel".to_string(),
        "pareto".to_string(),
        "no-screen".to_string(),
        "no-half".to_string(),
        "eff-only".to_string(),
        "util-only".to_string(),
        "random x20".to_string(),
    ]];

    for app in suite() {
        let cands = app.candidates();
        let exhaustive = ExhaustiveSearch.run_with(&engine, &cands, &spec);
        let Some(best) = exhaustive.best_time_ms() else {
            rows.push(vec![app.name().to_string(); 7]);
            continue;
        };
        let gap = |t: Option<f64>| match t {
            Some(t) => format!("+{:.1}%", (t / best - 1.0) * 100.0),
            None => "-".to_string(),
        };

        let pareto = PrunedSearch::default().run_with(&engine, &cands, &spec);
        let noscreen = PrunedSearch { screen_bandwidth: false, ..Default::default() }
            .run_with(&engine, &cands, &spec);
        let nohalf = PrunedSearch {
            options: MetricsOptions { barrier_half_term: false, ..Default::default() },
            ..Default::default()
        }
        .run_with(&engine, &cands, &spec);

        // Single-metric ranking: evaluate only the arg-max of one metric.
        let single = |pick_util: bool| -> Option<f64> {
            let statics: Vec<_> = cands.iter().map(|c| c.evaluate(&spec).ok()).collect();
            let best_idx = statics
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.as_ref().map(|e| (i, e)))
                .max_by(|a, b| {
                    let key = |e: &optspace::candidate::Evaluated| {
                        if pick_util {
                            e.metrics.utilization
                        } else {
                            e.metrics.efficiency
                        }
                    };
                    key(a.1).partial_cmp(&key(b.1)).expect("finite metrics")
                })
                .map(|(i, _)| i)?;
            exhaustive.simulated[best_idx].as_ref().map(|t| t.time_ms)
        };

        // Random sampling with the pruned search's budget, 20 seeds:
        // report the mean regret.
        let budget = pareto.evaluated_count();
        let mut regret = 0.0;
        for seed in 0..20 {
            let r = RandomSearch::new(budget, seed).run_with(&engine, &cands, &spec);
            let Some(t) = r.best_time_ms() else { continue };
            regret += t / best - 1.0;
        }
        let random = format!("+{:.1}%", regret / 20.0 * 100.0);

        rows.push(vec![
            app.name().to_string(),
            gap(pareto.best_time_ms()),
            gap(noscreen.best_time_ms()),
            gap(nohalf.best_time_ms()),
            gap(single(false)),
            gap(single(true)),
            random,
        ]);
    }
    println!("gap to the exhaustive optimum (0% = optimum found):\n");
    println!("{}", table(&rows));
}
