//! Shared harness for the experiment regenerators.
//!
//! Each `src/bin/*.rs` binary regenerates one table or figure of the
//! paper's evaluation; this library holds the pieces they share: the
//! application suite at bench scale and the search-comparison runner.
//! The binaries read their flags through [`optspace::cli`], so each
//! rejects a flag it does not read.

use gpu_arch::MachineSpec;
use gpu_kernels::{App, SpaceSource};
use optspace::engine::EvalEngine;
use optspace::tuner::{ExhaustiveSearch, PrunedSearch, SearchReport, SearchStrategy};
use optspace::Selection;

/// The four applications at the scale the experiment binaries run them
/// (see [`gpu_kernels::by_name`]), in suite order.
pub fn suite() -> Vec<Box<dyn App>> {
    gpu_kernels::NAMES
        .iter()
        .map(|name| gpu_kernels::by_name(name, "default").expect("a registered app"))
        .collect()
}

/// Exhaustive vs pruned search for one application.
#[derive(Debug)]
pub struct Comparison {
    /// Application name.
    pub name: &'static str,
    /// Ground truth: every valid configuration simulated.
    pub exhaustive: SearchReport,
    /// The paper's Pareto-pruned search.
    pub pruned: SearchReport,
}

impl Comparison {
    /// Whether the pruned search found the exhaustive optimum (the
    /// paper's headline claim).
    pub fn found_optimum(&self) -> bool {
        match (self.exhaustive.best_time_ms(), self.pruned.best_time_ms()) {
            (Some(a), Some(b)) => (b / a - 1.0).abs() < 1e-9,
            _ => false,
        }
    }
}

/// Run both searches over one application on a default (sequential,
/// unlimited) engine.
pub fn compare(app: &dyn App, spec: &MachineSpec) -> Comparison {
    compare_with(app, spec, &EvalEngine::default())
}

/// Run both searches over one application on an explicit engine,
/// instantiating candidates lazily inside the engine's worker pool.
pub fn compare_with(app: &dyn App, spec: &MachineSpec, engine: &EvalEngine) -> Comparison {
    compare_selected(app, spec, engine, &Selection::default())
}

/// Run both searches over the part of one application's space a
/// selection keeps. Filters naming axes the app does not declare are
/// ignored (lenient application), so one `--filter tile=16` meant for
/// matmul doesn't empty the other suites' spaces. An empty selection
/// yields empty — but well-formed — reports, never a panic.
pub fn compare_selected(
    app: &dyn App,
    spec: &MachineSpec,
    engine: &EvalEngine,
    selection: &Selection,
) -> Comparison {
    let space = app.space();
    let points = selection.apply_lenient(&space);
    let matched = points.len();
    let source = SpaceSource::new(app, points);
    let mut exhaustive = ExhaustiveSearch.run_source(engine, &source, spec);
    let mut pruned = PrunedSearch::default().run_source(engine, &source, spec);
    if !selection.is_noop() {
        exhaustive.selection = Some(selection.record(matched));
        pruned.selection = Some(selection.record(matched));
    }
    Comparison { name: app.name(), exhaustive, pruned }
}

/// Run one named iterative zoo strategy over an application's full
/// space (iterative strategies require dense indices aligned with the
/// declared space, so no selection applies here).
///
/// # Panics
///
/// Panics if `name` is not one of [`optspace::zoo::NAMES`].
pub fn run_zoo(
    app: &dyn App,
    spec: &MachineSpec,
    engine: &EvalEngine,
    name: &str,
    budget: usize,
    seed: u64,
) -> SearchReport {
    let space = app.space();
    let source = SpaceSource::full(app);
    let mut strategy =
        optspace::zoo::by_name(name, &space, budget, seed).expect("a zoo strategy name");
    optspace::tuner::run_iterative(strategy.as_mut(), engine, &source, spec)
}
