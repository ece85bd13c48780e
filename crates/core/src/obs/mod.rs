//! Observability: structured event tracing, aggregated engine metrics,
//! and the machine-readable run manifest.
//!
//! The search stack is deterministic by construction — reports are
//! byte-identical at any worker count — and its instrumentation keeps
//! that property by splitting every record into deterministic *content*
//! and nondeterministic *timing*:
//!
//! * [`EventSink`] collects [`Event`]s from the orchestrator and the
//!   worker pool with per-thread shard locking. Search-scope events are
//!   emitted only from the single-threaded orchestrator, so their
//!   canonical projection ([`Trace::canonical_lines`]) is byte-identical
//!   at `--jobs 1` and `--jobs 8`; runtime-scope events (worker spawns,
//!   wall times) carry the nondeterministic story.
//! * [`EngineMetrics`] aggregates one search: cache behaviour, family
//!   forking, retries/quarantines, simulated-cycle and stall breakdowns
//!   (deterministic), plus per-phase wall time and worker utilization
//!   (runtime).
//! * [`RunManifest`] is the exportable run record — machine spec, space
//!   shape, budgets, metrics, result summary — serialized with the
//!   in-tree [`json`] support (the workspace is offline; no serde).
//! * Time-resolved telemetry rides on the same split: the
//!   [`ConvergenceCurve`] recorded by the engine is deterministic and
//!   travels inside [`EngineMetrics`]; per-phase wall time, worker
//!   utilization and latency [`Histogram`]s are runtime data, snapshot
//!   once per search into the `engine.runtime` record that [`timeline`]
//!   renders, while span and pool-item events feed the Perfetto lanes
//!   of [`chrome_trace`].

pub mod chrome;
pub mod convergence;
pub mod event;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod sink;
pub mod timeline;

pub use chrome::chrome_trace;
pub use convergence::{ConvergenceCurve, ConvergenceRecorder, ConvergenceSample};
pub use event::{Event, EventKind, Scope, TRACE_SCHEMA};
pub use json::Json;
pub use manifest::{BestSummary, MachineSummary, RunManifest, StoreSummary, MANIFEST_SCHEMA};
pub use metrics::{EngineMetrics, Histogram, RuntimeMetrics, HIST_BUCKETS};
pub use sink::{EventSink, LatencyLane, Phase, Trace};
pub use timeline::{format_summary, parse_jsonl, summarize, Rec, TraceSummary};
