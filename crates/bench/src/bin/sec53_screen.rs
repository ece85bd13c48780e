//! Section 5.3's observation: built *without* the bandwidth screen,
//! the matmul Pareto curve picks up bandwidth-bound 8x8 configurations
//! (in the paper, every curve member except the optimum was 8x8) —
//! which is why the screen must run before the curve is drawn.

use gpu_arch::MachineSpec;
use gpu_kernels::{matmul::MatMul, App};
use optspace::metrics::MetricsOptions;
use optspace::pareto::pareto_indices;

fn main() {
    optspace::cli::no_flags();
    // Section 5.3: without the bandwidth screen, the matmul Pareto curve
    // is dominated by 8x8 configurations (all but the optimum, in the
    // paper).
    let spec = MachineSpec::geforce_8800_gtx();
    let cands = MatMul::reduced_problem().candidates();
    let evals: Vec<_> = cands.iter().map(|c| c.evaluate(&spec).ok()).collect();
    let idx: Vec<usize> =
        evals.iter().enumerate().filter_map(|(i, e)| e.as_ref().map(|_| i)).collect();
    let pts: Vec<_> = idx.iter().map(|&i| evals[i].as_ref().unwrap().metrics.point()).collect();
    let curve = pareto_indices(&pts);
    let labels: Vec<&str> = curve.iter().map(|&k| cands[idx[k]].label.as_str()).collect();
    let n8 = labels.iter().filter(|l| l.starts_with("8x8")).count();
    println!("unscreened curve: {} points, {} are 8x8: {:?}", labels.len(), n8, labels);

    // The §7 future-work fix: with coalescing-aware metrics the
    // bandwidth-punished 8x8 layouts sink on the efficiency axis and
    // fall off the curve without any screen at all.
    let opts = MetricsOptions { coalescing_aware: true, ..Default::default() };
    let evals2: Vec<_> = cands.iter().map(|c| c.evaluate_with(&spec, opts).ok()).collect();
    let pts2: Vec<_> = idx.iter().map(|&i| evals2[i].as_ref().unwrap().metrics.point()).collect();
    let curve2 = pareto_indices(&pts2);
    let labels2: Vec<&str> = curve2.iter().map(|&k| cands[idx[k]].label.as_str()).collect();
    let n8b = labels2.iter().filter(|l| l.starts_with("8x8")).count();
    println!(
        "coalescing-aware curve (no screen): {} points, {} are 8x8: {:?}",
        labels2.len(),
        n8b,
        labels2
    );
}
