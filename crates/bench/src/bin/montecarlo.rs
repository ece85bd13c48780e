//! The paper's final future-work item: "we will compare the
//! effectiveness of our method to random sampling of the optimization
//! space." For each application, sweep the random-sampling budget and
//! report, over 40 seeds: the probability of hitting the exhaustive
//! optimum and the mean gap to it. The line to beat is the Pareto
//! search: its (budget, gap) point is printed alongside.

use gpu_arch::MachineSpec;
use optspace::cli::{self, Args};
use optspace::engine::EvalEngine;
use optspace::report::table;
use optspace::tuner::{ExhaustiveSearch, PrunedSearch, RandomSearch, SearchStrategy};
use optspace_bench::suite;

const SEEDS: u64 = 40;

fn main() {
    let engine = EvalEngine::with_jobs(cli::parse_env(Args::jobs));
    let spec = MachineSpec::geforce_8800_gtx();
    for app in suite() {
        let cands = app.candidates();
        let exhaustive = ExhaustiveSearch.run_with(&engine, &cands, &spec);
        let Some(best) = exhaustive.best_time_ms() else {
            println!("==== {}: no configuration could be timed ====", app.name());
            continue;
        };
        let pareto = PrunedSearch::default().run_with(&engine, &cands, &spec);
        let pareto_budget = pareto.evaluated_count();
        let pareto_gap = match pareto.best_time_ms() {
            Some(t) => format!("+{:.1}%", (t / best - 1.0) * 100.0),
            None => "-".to_string(),
        };

        println!(
            "==== {} (valid space {}, Pareto budget {}, Pareto gap {pareto_gap}) ====",
            app.name(),
            exhaustive.evaluated_count(),
            pareto_budget,
        );
        let mut rows = vec![vec![
            "budget".to_string(),
            "P(optimum found)".to_string(),
            "mean gap".to_string(),
            "worst gap".to_string(),
        ]];
        let budgets = [
            pareto_budget / 2,
            pareto_budget,
            pareto_budget * 2,
            pareto_budget * 4,
            pareto_budget * 8,
        ];
        for &budget in &budgets {
            if budget == 0 || budget > exhaustive.evaluated_count() {
                continue;
            }
            let mut hits = 0u32;
            let mut gap_sum = 0.0;
            let mut gap_max = 0.0f64;
            for seed in 0..SEEDS {
                let r = RandomSearch::new(budget, seed).run_with(&engine, &cands, &spec);
                let Some(t) = r.best_time_ms() else { continue };
                let gap = t / best - 1.0;
                if gap.abs() < 1e-9 {
                    hits += 1;
                }
                gap_sum += gap;
                gap_max = gap_max.max(gap);
            }
            rows.push(vec![
                budget.to_string(),
                format!("{:.0}%", f64::from(hits) / SEEDS as f64 * 100.0),
                format!("+{:.1}%", gap_sum / SEEDS as f64 * 100.0),
                format!("+{:.1}%", gap_max * 100.0),
            ]);
        }
        println!("{}", table(&rows));
    }
}
