//! How well do static predictors *order* each configuration space
//! against simulated time? Spearman rank correlation, per application,
//! for: the detailed roofline cost model (section 4's announced "more
//! detailed cost model"), Efficiency alone, Utilization alone.
//!
//! The paper's observation to reproduce: the two metrics are useful but
//! "not detailed enough to combine into a single robust cost function";
//! the detailed model orders spaces far better than either metric
//! alone.

use gpu_arch::MachineSpec;
use optspace::model::{predict_ms_static, rank_correlation};
use optspace::report::table;
use optspace::tuner::{ExhaustiveSearch, SearchStrategy};
use optspace_bench::suite;

fn main() {
    optspace::cli::no_flags();
    let spec = MachineSpec::geforce_8800_gtx();
    let mut rows = vec![vec![
        "Kernel".to_string(),
        "roofline model".to_string(),
        "1/Efficiency".to_string(),
        "1/Utilization".to_string(),
    ]];
    for app in suite() {
        let cands = app.candidates();
        let r = ExhaustiveSearch.run(&cands, &spec);
        let mut sim = Vec::new();
        let mut model = Vec::new();
        let mut inv_eff = Vec::new();
        let mut inv_util = Vec::new();
        for (e, t) in r.statics.iter().zip(&r.simulated) {
            let (Some(e), Some(t)) = (e, t) else {
                continue;
            };
            sim.push(t.time_ms);
            model.push(predict_ms_static(e, &spec));
            inv_eff.push(1.0 / e.metrics.efficiency);
            inv_util.push(1.0 / e.metrics.utilization.max(1e-12));
        }
        rows.push(vec![
            app.name().to_string(),
            format!("{:+.3}", rank_correlation(&model, &sim)),
            format!("{:+.3}", rank_correlation(&inv_eff, &sim)),
            format!("{:+.3}", rank_correlation(&inv_util, &sim)),
        ]);
    }
    println!("Spearman rank correlation with simulated execution time");
    println!("(+1 = perfect ordering; higher is a better predictor):\n");
    println!("{}", table(&rows));
}
