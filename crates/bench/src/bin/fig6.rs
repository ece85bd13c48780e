//! Figure 6(a–d): normalized Efficiency–Utilization scatter per
//! application, with the Pareto-optimal subset (asterisks) and the true
//! optimum (O).
//!
//! Paper claim to check: the optimum lies on the Pareto curve for every
//! application (after screening bandwidth-bound points, section 5.3).

use gpu_arch::MachineSpec;
use optspace::cli::{self, Args};
use optspace::engine::EvalEngine;
use optspace::pareto::pareto_indices;
use optspace::report::ascii_scatter;
use optspace_bench::{compare_with, suite};

fn main() {
    let engine = EvalEngine::with_jobs(cli::parse_env(Args::jobs));
    let spec = MachineSpec::geforce_8800_gtx();
    for app in suite() {
        let c = compare_with(app.as_ref(), &spec, &engine);
        // Rebuild the plotted set: valid + not bandwidth-bound.
        let idx: Vec<usize> = c
            .exhaustive
            .statics
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (i, e)))
            .filter(|(_, e)| !e.bandwidth.is_bandwidth_bound())
            .map(|(i, _)| i)
            .collect();
        let points: Vec<_> = idx
            .iter()
            .map(|&i| c.exhaustive.statics[i].as_ref().unwrap().metrics.point())
            .collect();
        let pareto = pareto_indices(&points);
        let optimum = c.exhaustive.best.and_then(|b| idx.iter().position(|&i| i == b));

        println!(
            "==== {} ({} plotted, {} on the Pareto curve) ====",
            c.name,
            points.len(),
            pareto.len()
        );
        println!("{}", ascii_scatter(&points, &pareto, optimum, 64, 20));
        let on_curve = optimum.map(|o| pareto.contains(&o)).unwrap_or(false);
        println!(
            "optimum on curve: {}   pruned search found optimum: {}\n",
            if on_curve { "yes" } else { "NO" },
            if c.found_optimum() { "yes" } else { "NO" }
        );
    }
}
