//! Optimization-space pruning for a multithreaded GPU.
//!
//! This crate is the paper's contribution (Ryoo et al., CGO 2008):
//! given the full optimization-configuration space of a CUDA-style
//! kernel, compute two cheap **static** metrics per configuration and
//! prune the space to the configurations on the Pareto-optimal curve of
//! the metric plot — typically discarding 74–98 % of the space while
//! keeping the configuration that full (simulated) evaluation would
//! have found.
//!
//! * [`metrics`] — Efficiency (Equation 1) and Utilization (Equation 2),
//!   computed from the `-ptx`/`-cubin`-style analyses of `gpu-ir` and
//!   the occupancy model of `gpu-arch`.
//! * [`bandwidth`] — the section 4 precondition: configurations that are
//!   global-memory-bandwidth-bound must be screened away before the
//!   metrics are trusted.
//! * [`pareto`] — Pareto-optimal subset selection.
//! * [`candidate`] — one configuration: a generated kernel plus launch
//!   geometry, and its statically evaluated profile.
//! * [`space`] — the optimization space as a first-class object:
//!   declared axes and constraints ([`space::Space`]), typed points
//!   ([`space::Point`]), declarative selection (`--filter`/`--sample`),
//!   and the [`space::CandidateSource`] abstraction that lets the
//!   engine instantiate candidates lazily inside the worker pool.
//! * [`tuner`] — the three search strategies compared in the paper and
//!   its future work: exhaustive evaluation (ground truth), the pruned
//!   Pareto search, and random sampling — plus branch-and-bound, and the
//!   one search loop every strategy runs through
//!   ([`tuner::IterativeStrategy`]/[`tuner::run_iterative`]).
//! * [`zoo`] — the iterative optimizers themselves: hill climbing,
//!   simulated annealing, a genetic strategy, and a surrogate search
//!   over the static cost model.
//! * [`engine`] — the shared evaluation engine the strategies run on: a
//!   worker pool with deterministic reassembly, a content-addressed memo
//!   cache over simulation inputs, and evaluation budgets.
//! * [`model`] — the "more detailed cost model" the paper's section 4
//!   announces: a static roofline cycle predictor plus rank-correlation
//!   tooling to score predictors against simulated time.
//! * [`obs`] — observability: structured event tracing through the
//!   engine, aggregated [`obs::EngineMetrics`], and the machine-readable
//!   [`obs::RunManifest`] (all serialized with the in-tree JSON support).
//! * [`report`] — table and ASCII-scatter formatting for the experiment
//!   harness.
//! * [`cli`] — the command-line flag parser every front end shares.
//!
//! # Examples
//!
//! Computing the paper's worked example by hand (section 4, the
//! completely unrolled 16×16 matmul kernel):
//!
//! ```
//! use optspace::metrics::{Metrics, StaticProfile};
//!
//! let profile = StaticProfile {
//!     instr: 15_150,
//!     regions: 769,
//!     warps_per_block: 8,
//!     blocks_per_sm: 2,
//!     total_threads: 1 << 24,
//! };
//! let m = Metrics::from_profile(&profile);
//! assert!((m.efficiency / 3.93e-12 - 1.0).abs() < 1e-2);
//! assert!((m.utilization - 227.0).abs() < 1.0);
//! ```

pub mod bandwidth;
pub mod candidate;
pub mod cli;
pub mod engine;
pub mod metrics;
pub mod model;
pub mod obs;
pub mod pareto;
pub mod report;
pub mod space;
pub mod tuner;
pub mod zoo;

pub use bandwidth::BandwidthAssessment;
pub use candidate::{Candidate, Evaluated};
pub use engine::{
    CheckpointMeta, Checkpointer, EngineConfig, EngineStats, EvalBudget, EvalEngine, EvalError,
    EvalErrorKind, FaultPlan, Quarantine, ResultStore, RetryPolicy, StoreAudit,
};
pub use metrics::{Metrics, MetricsOptions, StaticProfile};
pub use obs::{EngineMetrics, EventSink, Json, RunManifest, RuntimeMetrics, Trace};
pub use pareto::{pareto_indices, Point};
pub use space::{
    Axis, CandidateSource, Filter, Sample, Selection, SelectionError, SelectionRecord, Space, Value,
};
pub use tuner::{
    run_iterative, ExhaustiveSearch, IterationContext, IterativeStrategy, Observation,
    PrunedSearch, RandomSearch, SearchReport, SearchStrategy,
};

/// Convenient glob import for examples and the bench harness.
pub mod prelude {
    pub use crate::bandwidth::BandwidthAssessment;
    pub use crate::candidate::{Candidate, Evaluated};
    pub use crate::engine::{
        CheckpointMeta, Checkpointer, EngineConfig, EngineStats, EvalBudget, EvalEngine, EvalError,
        EvalErrorKind, FaultPlan, Quarantine, ResultStore, RetryPolicy, StoreAudit,
    };
    pub use crate::metrics::{Metrics, MetricsOptions, StaticProfile};
    pub use crate::obs::{EngineMetrics, EventSink, Json, RunManifest, RuntimeMetrics, Trace};
    pub use crate::pareto::{pareto_indices, Point};
    pub use crate::space::{
        Axis, CandidateSource, Filter, Sample, Selection, SelectionError, SelectionRecord, Space,
        Value,
    };
    pub use crate::tuner::{
        run_iterative, ExhaustiveSearch, IterationContext, IterativeStrategy, Observation,
        PrunedSearch, RandomSearch, SearchReport, SearchStrategy,
    };
    pub use crate::zoo;
}
