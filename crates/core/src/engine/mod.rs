//! The evaluation engine: parallel, memoizing, fault-tolerant candidate
//! evaluation shared by every search strategy.
//!
//! The paper's search loop has two phases with very different costs:
//! cheap static evaluation (metrics + occupancy) of every configuration,
//! and expensive timing simulation of the configurations a strategy
//! selects. [`EvalEngine`] owns both phases:
//!
//! * **Worker pool** — both phases fan out over a fixed-size
//!   `std::thread` pool ([`pool`]); results are reassembled by candidate
//!   index, so reports are identical to a sequential run no matter how
//!   many workers are configured. Per-candidate work is panic-isolated
//!   and lost workers are respawned.
//! * **Memo cache** — timing work is deduplicated by a content hash of
//!   (linearized program, launch, resource usage, machine spec)
//!   ([`cache`]). Configurations differing only in top-level trip
//!   counts — any number of axes — form a *family* simulated in one
//!   forked run (`gpu_sim::timing::simulate_family_decoded`), so each
//!   MRI-FHD cluster of seven costs roughly one simulation. Failed
//!   evaluations are never cached: a family containing a failing member
//!   degrades to individual runs so the failure cannot poison its
//!   siblings.
//! * **Decode cache** — each unique program is lowered once into the
//!   simulator's flat op arena (`gpu_sim::decode`) during the
//!   sequential dedup pass; the arena is trip-independent, so family
//!   members and branch-and-bound probe corners sharing one masked
//!   structure share one decode (keyed by class hash, shared across
//!   engine clones).
//! * **Budget** — optional caps on unique simulations and on accumulated
//!   simulated milliseconds ([`budget`]), applied deterministically and
//!   recorded in the search report's [`EngineStats`].
//! * **Failure semantics** — every way a candidate can fail is a typed
//!   [`EvalError`] ([`error`]); transient failures are retried for up to
//!   [`RetryPolicy::max_attempts`] deterministic rounds, permanent ones
//!   are quarantined ([`Quarantine`]) and the search continues over the
//!   survivors. A deterministic [`FaultPlan`] ([`fault`]) can inject
//!   failures for testing, and a fuel watchdog bounds runaway
//!   simulations.
//!
//! The evaluators themselves are trait objects ([`StaticEval`],
//! [`TimingEval`]) so tests and future cost models can substitute the
//! metric computation or the simulator without touching the
//! orchestration.

pub mod budget;
pub mod cache;
pub mod checkpoint;
pub mod error;
pub mod fault;
pub mod pool;
pub mod store;

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpu_arch::{MachineSpec, ResourceUsage};
use gpu_ir::linear::linearize;
use gpu_ir::Launch;
use gpu_sim::decode::{DecodedArena, DecodedProgram};
use gpu_sim::timing::TimingReport;

use crate::candidate::{Candidate, Evaluated};
use crate::metrics::MetricsOptions;
use crate::obs::{ConvergenceRecorder, EventKind, EventSink, Json, LatencyLane, Phase};
use crate::space::CandidateSource;

pub use budget::EvalBudget;
pub use checkpoint::{
    install_signal_handler, interrupted, CheckpointMeta, Checkpointer, LoadedCheckpoint,
    ReplayEval, CHECKPOINT_SCHEMA, DEFAULT_CHECKPOINT_EVERY,
};
pub use error::{EvalError, EvalErrorKind, Quarantine};
pub use fault::{FaultPlan, InjectedFault};
pub use pool::PoolError;
pub use store::{ResultStore, StoreAudit};

/// Host-side overhead charged per kernel invocation (driver submission,
/// ~10 µs on the paper's CUDA 1.0 stack). This is what separates the
/// otherwise metric-identical work-per-invocation variants of MRI-FHD.
pub const LAUNCH_OVERHEAD_MS: f64 = 0.01;

/// Static evaluation of one candidate.
///
/// `Err(EvalError::ResourceExceeded)` marks the paper's "invalid
/// executable" cases — expected outcomes, not faults. Any other error
/// quarantines the candidate.
pub trait StaticEval: Sync {
    /// Evaluate one candidate.
    fn evaluate(&self, candidate: &Candidate, spec: &MachineSpec) -> Result<Evaluated, EvalError>;
}

/// The standard static evaluator: metrics, occupancy, and the bandwidth
/// screen via [`Candidate::evaluate_with`], optionally preceded by IR
/// verification.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsEval {
    /// Metric variant (ablations flow through here).
    pub options: MetricsOptions,
    /// Run the IR verifier on each kernel first; findings become
    /// [`EvalError::VerifyFailed`]. Off by default — the generators
    /// produce verified kernels, so this guards mutated or external IR.
    pub verify: bool,
    /// Run the static shared-memory race detector
    /// (`gpu_ir::analysis::races`) on each launchable kernel; findings
    /// become [`EvalError::RaceDetected`] and quarantine the candidate.
    /// This closes the soundness hole left by the sequential functional
    /// interpreter, which reproduces racy kernels deterministically.
    pub check_races: bool,
}

impl StaticEval for MetricsEval {
    fn evaluate(&self, candidate: &Candidate, spec: &MachineSpec) -> Result<Evaluated, EvalError> {
        if self.verify {
            let findings = gpu_ir::verify::verify(&candidate.kernel);
            if !findings.is_empty() {
                return Err(EvalError::from_verify(&findings));
            }
        }
        // Resource validity first: an unlaunchable configuration stays
        // classified as the paper's "invalid executable" even when its
        // kernel also races.
        let evaluated = candidate.evaluate_with(spec, self.options)?;
        if self.check_races {
            let races = gpu_ir::analysis::analyze_races(&candidate.kernel, &candidate.launch);
            if !races.is_race_free() {
                return Err(EvalError::from_races(&races));
            }
        }
        Ok(evaluated)
    }
}

/// Timing evaluation of one decoded program (a single invocation's
/// worth of work — the engine applies invocation scaling afterwards).
/// The engine decodes each unique program once, in the sequential dedup
/// phase, so evaluators receive the arena-backed form directly; the
/// original linear program stays reachable as
/// [`DecodedProgram::source`](gpu_sim::decode::DecodedProgram) for
/// evaluators that need it (content keys).
pub trait TimingEval: Sync {
    /// Simulate one program.
    fn simulate(
        &self,
        prog: &DecodedProgram,
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Result<TimingReport, EvalError>;

    /// Simulate a family of programs differing only in top-level trip
    /// counts, in one forked run. `None` means "unsupported, not
    /// actually a family, or the family run failed" — the engine falls
    /// back to individual [`TimingEval::simulate`] calls, which also
    /// attributes any failure to the member that caused it.
    fn simulate_family(
        &self,
        progs: &[&DecodedProgram],
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Option<Vec<TimingReport>> {
        let _ = (progs, launch, usage, spec);
        None
    }
}

/// The standard timing evaluator: the warp-level G80 simulator over the
/// decoded arena, with an optional fuel watchdog bounding every event
/// loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulatorEval {
    /// Scheduler-step limit per simulation; `None` is unbounded.
    pub fuel: Option<u64>,
}

impl SimulatorEval {
    /// Evaluator with the given fuel limit.
    pub fn with_fuel(fuel: Option<u64>) -> Self {
        Self { fuel }
    }

    /// Evaluator matching an engine configuration.
    pub fn from_config(config: &EngineConfig) -> Self {
        Self::with_fuel(config.sim_fuel)
    }
}

impl TimingEval for SimulatorEval {
    fn simulate(
        &self,
        prog: &DecodedProgram,
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Result<TimingReport, EvalError> {
        gpu_sim::timing::simulate_decoded_fueled(prog, launch, usage, spec, self.fuel)
            .map_err(Into::into)
    }

    fn simulate_family(
        &self,
        progs: &[&DecodedProgram],
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Option<Vec<TimingReport>> {
        gpu_sim::timing::simulate_family_decoded_fueled(progs, launch, usage, spec, self.fuel).ok()
    }
}

/// How transient failures are retried: attempt counts only — no
/// wall-clock backoff, so retry behavior is deterministic and identical
/// at every worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per evaluation (first try included). `1` disables
    /// retries.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

/// Engine configuration: parallelism, evaluation budget, and failure
/// handling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Worker threads for both evaluation phases. `1` (the default) runs
    /// strictly inline — the reference sequential path.
    pub jobs: usize,
    /// Budget on simulated work.
    pub budget: EvalBudget,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Fuel (scheduler-step) limit per timing simulation; `None` is
    /// unbounded.
    pub sim_fuel: Option<u64>,
    /// Deterministic fault injection; `None` (the default) injects
    /// nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Run the static shared-memory race detector during the static
    /// phase; racy candidates quarantine with
    /// [`EvalErrorKind::Race`] instead of
    /// flowing into selection. Off by default (the `--check-races` CLI
    /// flag turns it on).
    pub check_races: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            jobs: 1,
            budget: EvalBudget::UNLIMITED,
            retry: RetryPolicy::default(),
            sim_fuel: None,
            fault_plan: None,
            check_races: false,
        }
    }
}

/// Counters describing what the engine actually did during one search.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Budget the engine ran under.
    pub budget: EvalBudget,
    /// Candidates statically evaluated (valid or not).
    pub static_evals: usize,
    /// Candidates that received a timing result.
    pub timed: usize,
    /// Timing simulations actually executed (a forked family run counts
    /// once; failed and retried runs count each execution).
    pub unique_sims: usize,
    /// Timed candidates served from the memo cache / family forks
    /// instead of a fresh simulation.
    pub cache_hits: usize,
    /// Whether a budget limit cut the evaluation short.
    pub budget_truncated: bool,
    /// Evaluations re-attempted after a transient failure.
    pub retries: usize,
    /// Candidates quarantined after failing permanently (or exhausting
    /// their retries).
    pub quarantined: usize,
    /// Failures injected by the fault plan (each firing counts).
    pub injected_faults: usize,
    /// Work units actually simulated as one forked family run.
    pub family_forks: usize,
    /// Unique simulations covered by those forked runs.
    pub family_members: usize,
    /// Scheduler steps consumed by successful unique simulations.
    pub fuel_consumed: u64,
    /// Simulated cycles accumulated by successful unique simulations.
    pub sim_cycles: u64,
    /// Issue-port stall cycles attributed to in-flight global memory,
    /// summed over successful unique simulations.
    pub stall_mem_cycles: u64,
    /// Issue-port stall cycles attributed to the SFU port.
    pub stall_sfu_cycles: u64,
    /// Issue-port stall cycles attributed to arithmetic operands.
    pub stall_arith_cycles: u64,
    /// Issue-port stall cycles from control flow and barriers.
    pub stall_other_cycles: u64,
    /// Subspaces a branch-and-bound search discarded because their
    /// admissible lower bound exceeded the incumbent.
    pub bound_pruned_subspaces: usize,
    /// Configurations eliminated by bound pruning without ever being
    /// instantiated (admitted completions of pruned subspaces, minus
    /// the few corner points probed while computing bounds).
    pub bound_pruned_points: usize,
    /// Unique simulations served from the persistent result store
    /// instead of being run (never counted as `cache_hits`).
    pub store_hits: usize,
    /// Damaged records the store's corruption-tolerant loader skipped
    /// when the attached store was opened.
    pub store_records_dropped: usize,
}

/// The shared evaluation engine. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct EvalEngine {
    /// Parallelism, budget, and failure-handling settings.
    pub config: EngineConfig,
    /// Optional event sink; when attached, both phases emit search-scope
    /// trace events and runtime wall-time accounting.
    sink: Option<Arc<EventSink>>,
    /// Optional persistent result store, consulted before the memo
    /// cache dispatches fresh simulations and updated write-behind with
    /// this call's successes.
    store: Option<Arc<store::ResultStore>>,
    /// Optional checkpoint accumulator: completed results are recorded
    /// after each dispatch chunk and snapshots published every N units.
    checkpoint: Option<Arc<checkpoint::Checkpointer>>,
    /// Optional resume map: when set, the timing evaluator is wrapped in
    /// a [`checkpoint::ReplayEval`] serving these results in place of
    /// fresh simulations, so a resumed search replays byte-identically.
    replay: Option<Arc<HashMap<u64, TimingReport>>>,
    /// Always-on convergence recorder, fed from the single-threaded
    /// result-reassembly loop (so the curve is deterministic at any
    /// `jobs`). Shared by clones: a batched search accumulates one
    /// curve across its per-batch engine copies.
    convergence: Arc<ConvergenceRecorder>,
    /// Decoded-arena cache keyed by class hash: the arena is
    /// trip-independent, so every family member (and every
    /// branch-and-bound probe corner sharing the masked structure)
    /// reuses one decode. Shared by clones for the same reason the
    /// convergence recorder is; populated only from the sequential
    /// dedup loop, so its contents are deterministic at any `jobs`.
    decoded: Arc<Mutex<HashMap<u64, Arc<DecodedArena>>>>,
}

/// One deduplicated simulation input (the memo cache's value side).
struct UniqueSim {
    prog: DecodedProgram,
    launch: Launch,
    usage: ResourceUsage,
    exact: u64,
    class: cache::ClassKey,
}

/// A unit of simulation work dispatched to the pool.
enum WorkUnit {
    /// One unique program.
    Single(usize),
    /// Class-mates differing only in one top-level trip count, simulated
    /// in one forked run.
    Family(Vec<usize>),
}

impl WorkUnit {
    fn members(&self) -> &[usize] {
        match self {
            Self::Single(u) => std::slice::from_ref(u),
            Self::Family(v) => v,
        }
    }
}

/// A pool-level loss becomes a transient [`EvalError`]: the work may
/// simply have been unlucky (its worker died), so it deserves a retry.
fn pool_to_eval(e: PoolError) -> EvalError {
    match e {
        PoolError::Panicked(msg) => EvalError::WorkerLost { detail: msg },
        PoolError::WorkerLost => EvalError::worker_lost("worker died before reporting"),
    }
}

impl EvalEngine {
    /// Engine with explicit configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self { config, ..Default::default() }
    }

    /// Engine with `jobs` workers and default everything else.
    pub fn with_jobs(jobs: usize) -> Self {
        Self::new(EngineConfig { jobs: jobs.max(1), ..Default::default() })
    }

    /// Attach an event sink: both phases will emit trace events and
    /// runtime accounting into it.
    pub fn with_sink(mut self, sink: Arc<EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The attached event sink, if any.
    pub fn sink(&self) -> Option<&Arc<EventSink>> {
        self.sink.as_ref()
    }

    /// Attach a persistent result store: known results are served from
    /// disk (counted as `store_hits`) and fresh successes are persisted
    /// write-behind at the end of each timing phase.
    pub fn with_store(mut self, store: Arc<store::ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached result store, if any.
    pub fn store(&self) -> Option<&Arc<store::ResultStore>> {
        self.store.as_ref()
    }

    /// Attach a checkpointer: dispatch is chunked so completed results
    /// are recorded (and snapshots published) every N work units, and
    /// the engine stops scheduling new work once
    /// [`checkpoint::Checkpointer::should_stop`] turns true.
    pub fn with_checkpoint(mut self, ck: Arc<checkpoint::Checkpointer>) -> Self {
        self.checkpoint = Some(ck);
        self
    }

    /// The attached checkpointer, if any.
    pub fn checkpoint(&self) -> Option<&Arc<checkpoint::Checkpointer>> {
        self.checkpoint.as_ref()
    }

    /// Attach a resume map (a loaded checkpoint's results): every timing
    /// evaluation is first looked up here by exact content key, so the
    /// resumed search replays the original byte-identically.
    pub fn with_replay(mut self, results: Arc<HashMap<u64, TimingReport>>) -> Self {
        self.replay = Some(results);
        self
    }

    /// The engine's convergence recorder. Search strategies bracket a
    /// run with [`ConvergenceRecorder::reset`] and
    /// [`ConvergenceRecorder::finish`], then snapshot the curve into
    /// their report's metrics.
    pub fn convergence(&self) -> &ConvergenceRecorder {
        &self.convergence
    }

    /// Whether the engine has been told to stop scheduling new work
    /// (process interrupted or the checkpoint stop threshold hit).
    pub fn stop_requested(&self) -> bool {
        self.checkpoint.as_ref().is_some_and(|c| c.should_stop())
    }

    /// Emit a deterministic search-scope event (no-op without a sink).
    /// Public so the search strategies driving this engine can mark
    /// search-level spans in the same trace.
    pub fn emit(&self, kind: EventKind, name: &'static str, fields: Vec<(&'static str, Json)>) {
        if let Some(sink) = &self.sink {
            sink.search(kind, name, fields);
        }
    }

    fn observer(&self) -> Option<&EventSink> {
        self.sink.as_deref()
    }

    /// Fresh stats carrying this engine's configuration (and the
    /// attached store's load-time drop counter, so every report of a
    /// store-backed run surfaces the corruption it tolerated).
    pub fn stats_seed(&self) -> EngineStats {
        EngineStats {
            jobs: self.config.jobs,
            budget: self.config.budget,
            store_records_dropped: self.store.as_ref().map_or(0, |s| s.records_dropped()),
            ..Default::default()
        }
    }

    /// Statically evaluate every candidate on the worker pool. Output
    /// order matches the source's enumeration regardless of `jobs`.
    ///
    /// The `source` may be an eager slice (`&candidates`) or a lazy
    /// view that instantiates points on demand — workers call
    /// [`CandidateSource::get`], so for a lazy source kernel generation
    /// and the pass pipelines run inside the pool and the full space is
    /// never materialized up front.
    ///
    /// `None` entries are the paper's "invalid executable" cases
    /// (resource-exceeded) *and* candidates quarantined by any other
    /// failure; the latter are recorded in `quarantine`.
    pub fn evaluate_statics(
        &self,
        eval: &dyn StaticEval,
        source: &dyn CandidateSource,
        spec: &MachineSpec,
        stats: &mut EngineStats,
        quarantine: &mut Vec<Quarantine>,
    ) -> Vec<Option<Evaluated>> {
        let phase_started = Instant::now();
        self.emit(EventKind::Begin, "phase.static", vec![("candidates", Json::from(source.len()))]);
        stats.static_evals += source.len();
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut results: Vec<Result<Evaluated, EvalError>> = pool::run_indexed_observed(
            self.config.jobs,
            source.len(),
            |i| eval.evaluate(&source.get(i), spec),
            self.observer(),
            "static",
        )
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| Err(pool_to_eval(p))))
        .collect();
        let mut attempts: Vec<u32> = vec![1; source.len()];
        for attempt in 2..=max_attempts {
            let retry: Vec<usize> = results
                .iter()
                .enumerate()
                .filter(|(_, r)| matches!(r, Err(e) if e.is_transient()))
                .map(|(i, _)| i)
                .collect();
            if retry.is_empty() {
                break;
            }
            stats.retries += retry.len();
            self.emit(
                EventKind::Point,
                "retry.round",
                vec![
                    ("phase", Json::from("static")),
                    ("attempt", Json::from(attempt)),
                    ("count", Json::from(retry.len())),
                ],
            );
            let redo = pool::run_indexed_observed(
                self.config.jobs,
                retry.len(),
                |k| eval.evaluate(&source.get(retry[k]), spec),
                self.observer(),
                "static",
            );
            for (k, r) in redo.into_iter().enumerate() {
                attempts[retry[k]] = attempt;
                results[retry[k]] = r.unwrap_or_else(|p| Err(pool_to_eval(p)));
            }
        }
        let out: Vec<Option<Evaluated>> = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Ok(e) => Some(e),
                // Expected invalidity, not a fault: stays out of
                // quarantine so the paper's valid/invalid split is
                // unchanged.
                Err(EvalError::ResourceExceeded { .. }) => None,
                Err(e) => {
                    stats.quarantined += 1;
                    let label = source.label(i);
                    if e.kind() == EvalErrorKind::Race {
                        // Race findings get their own verify-stage event
                        // so trace consumers can tell soundness
                        // violations from resource/fault quarantines.
                        self.emit(
                            EventKind::Point,
                            "verify.race",
                            vec![
                                ("candidate", Json::from(i)),
                                ("label", Json::from(label.as_str())),
                                ("detail", Json::from(e.to_string())),
                            ],
                        );
                    }
                    self.emit(
                        EventKind::Point,
                        "quarantine",
                        vec![
                            ("phase", Json::from("static")),
                            ("candidate", Json::from(i)),
                            ("label", Json::from(label.as_str())),
                            ("kind", Json::from(e.kind().to_string())),
                            ("attempts", Json::from(attempts[i])),
                        ],
                    );
                    quarantine.push(Quarantine {
                        candidate: i,
                        label,
                        error: e,
                        attempts: attempts[i],
                    });
                    None
                }
            })
            .collect();
        let valid = out.iter().flatten().count();
        self.emit(
            EventKind::End,
            "phase.static",
            vec![("valid", Json::from(valid)), ("invalid", Json::from(out.len() - valid))],
        );
        if let Some(sink) = &self.sink {
            sink.add_phase_wall_us(Phase::Static, phase_started.elapsed().as_micros() as u64);
        }
        out
    }

    /// Timing-simulate the selected candidates: deduplicate through the
    /// memo cache, group work-per-invocation families, run the remaining
    /// unique work on the pool, and reassemble per-candidate reports
    /// (invocation scaling included) in candidate-index order.
    ///
    /// Selected candidates must be valid (have a `Some` static
    /// evaluation); invalid ones are skipped. Candidates whose
    /// simulation fails permanently (or exhausts its retries) are
    /// appended to `quarantine` and stay `None` in the output.
    // The two-phase search protocol genuinely threads this much state:
    // evaluator, space, static results, selection, machine, and the two
    // mutable accounting sinks.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_selected(
        &self,
        eval: &dyn TimingEval,
        source: &dyn CandidateSource,
        statics: &[Option<Evaluated>],
        selected: &[usize],
        spec: &MachineSpec,
        stats: &mut EngineStats,
        quarantine: &mut Vec<Quarantine>,
    ) -> Vec<Option<TimingReport>> {
        let phase_started = Instant::now();
        self.emit(EventKind::Begin, "phase.timing", vec![("selected", Json::from(selected.len()))]);
        // `stats` may arrive pre-populated (batched searches reuse one
        // accumulator across many calls), so the cache-hit derivation
        // at the end of the phase must work on this call's deltas.
        let (timed_at_entry, unique_at_entry, store_at_entry) =
            (stats.timed, stats.unique_sims, stats.store_hits);
        let mut simulated: Vec<Option<TimingReport>> = vec![None; source.len()];
        let plan = self.config.fault_plan;

        // Resume: wrap the evaluator so checkpointed results are served
        // in place of fresh simulations. Everything downstream — unit
        // grouping, retry rounds, accounting, events — is oblivious to
        // where a result came from, which is what makes a resumed run
        // byte-identical to an uninterrupted one.
        let replay_holder;
        let eval: &dyn TimingEval = match &self.replay {
            Some(map) => {
                replay_holder = checkpoint::ReplayEval::new(eval, Arc::clone(map));
                &replay_holder
            }
            None => eval,
        };

        // Phase 1a: instantiate and linearize the selected candidates on
        // the worker pool. For an eager slice source this merely borrows;
        // for a lazy point source this is where kernel generation and the
        // pass pipelines actually run — inside the pool, never
        // materialized up front. Pool dispatch emits only Runtime-scope
        // events, so the canonical (Search-scope) trace is unchanged.
        let eligible: Vec<usize> = selected
            .iter()
            .copied()
            .filter(|&i| statics.get(i).is_some_and(Option::is_some))
            .collect();
        let prepared = pool::run_indexed_observed(
            self.config.jobs,
            eligible.len(),
            |k| {
                let c = source.get(eligible[k]);
                (linearize(&c.kernel), c.launch, c.invocations)
            },
            self.observer(),
            "timing",
        );

        // Phase 1b: key and deduplicate. `uniques` keeps discovery order,
        // which makes every later ordering decision deterministic.
        let mut unique_of: HashMap<u64, usize> = HashMap::new();
        let mut uniques: Vec<UniqueSim> = Vec::new();
        // (candidate, unique, invocations)
        let mut assignments: Vec<(usize, usize, u32)> = Vec::new();
        for (&i, prep) in eligible.iter().zip(prepared) {
            let Some(e) = statics.get(i).and_then(|s| s.as_ref()) else { continue };
            let (prog, launch, invocations) = match prep {
                Ok(p) => p,
                // The prepare worker died (a panicking generator, say):
                // the candidate never reaches dedup, so quarantine it
                // here as worker-lost.
                Err(perr) => {
                    let err = pool_to_eval(perr);
                    stats.quarantined += 1;
                    let label = source.label(i);
                    self.emit(
                        EventKind::Point,
                        "quarantine",
                        vec![
                            ("phase", Json::from("timing")),
                            ("candidate", Json::from(i)),
                            ("label", Json::from(label.as_str())),
                            ("kind", Json::from(err.kind().to_string())),
                            ("attempts", Json::from(1u32)),
                        ],
                    );
                    quarantine.push(Quarantine { candidate: i, label, error: err, attempts: 1 });
                    continue;
                }
            };
            let usage = e.kernel_profile.usage;
            let lookup_started = Instant::now();
            let exact = cache::exact_key(&prog, &launch, &usage, spec);
            let hit = unique_of.get(&exact).copied();
            if let Some(sink) = &self.sink {
                sink.record_latency(
                    LatencyLane::CacheLookup,
                    lookup_started.elapsed().as_micros() as u64,
                );
            }
            let u = hit.unwrap_or(uniques.len());
            self.emit(
                EventKind::Point,
                if hit.is_some() { "cache.hit" } else { "cache.miss" },
                vec![("candidate", Json::from(i)), ("unique", Json::from(u))],
            );
            if hit.is_none() {
                let class = cache::class_key(&prog, &launch, &usage, spec);
                // Decode once per masked structure: the arena stores no
                // trip counts, so every family member (and every probe
                // corner sharing the class) reuses it verbatim — only
                // the per-program trip vector is rebuilt.
                let decode_started = Instant::now();
                let mut shared = self.decoded.lock().expect("decode cache poisoned");
                let (decoded, fresh) = match shared.get(&class.hash) {
                    Some(arena) => (DecodedProgram::with_arena(prog, Arc::clone(arena)), false),
                    None => {
                        let d = DecodedProgram::new(prog);
                        shared.insert(class.hash, Arc::clone(&d.arena));
                        (d, true)
                    }
                };
                drop(shared);
                if let Some(sink) = &self.sink {
                    sink.record_latency(
                        LatencyLane::Decode,
                        decode_started.elapsed().as_micros() as u64,
                    );
                }
                if fresh {
                    self.emit(
                        EventKind::Point,
                        "decode.done",
                        vec![
                            ("unique", Json::from(u)),
                            ("ops", Json::from(decoded.op_count())),
                            ("arena_bytes", Json::from(decoded.arena.arena_bytes())),
                        ],
                    );
                }
                uniques.push(UniqueSim { prog: decoded, launch, usage, exact, class });
                unique_of.insert(exact, u);
            }
            assignments.push((i, u, invocations));
        }

        // Phase 1c: consult the persistent result store before anything
        // is scheduled. A store-resolved unique never becomes a work
        // unit — on a fully warm store the pool dispatches nothing.
        // Replayed keys are exempt: a resume must account them exactly
        // as the original run did (fresh simulations), or the resumed
        // report would drift from the uninterrupted one.
        let mut outcomes_of: Vec<Option<Result<TimingReport, EvalError>>> =
            (0..uniques.len()).map(|_| None).collect();
        let mut from_store: Vec<bool> = vec![false; uniques.len()];
        if let Some(store) = &self.store {
            for (u, uq) in uniques.iter().enumerate() {
                if self.replay.as_ref().is_some_and(|r| r.contains_key(&uq.exact)) {
                    continue;
                }
                let read_started = Instant::now();
                let cached = store.get(uq.exact);
                if let Some(sink) = &self.sink {
                    sink.record_latency(
                        LatencyLane::StoreIo,
                        read_started.elapsed().as_micros() as u64,
                    );
                }
                if let Some(rep) = cached {
                    stats.store_hits += 1;
                    self.emit(EventKind::Point, "store.hit", vec![("unique", Json::from(u))]);
                    outcomes_of[u] = Some(Ok(rep));
                    from_store[u] = true;
                }
            }
        }

        // Phase 2: group uniques by class into work units. Members may
        // differ in any number of top-level trip counts — the forked run
        // varies every differing axis. A class containing a
        // fault-injected member degrades to singles, so one failure
        // cannot poison the rest of its family through the shared forked
        // run.
        let mut group_of: HashMap<u64, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (u, uq) in uniques.iter().enumerate() {
            if from_store[u] {
                continue;
            }
            let hash = uq.class.hash;
            match group_of.get(&hash) {
                Some(&g) => groups[g].push(u),
                None => {
                    group_of.insert(hash, groups.len());
                    groups.push(vec![u]);
                }
            }
        }
        let mut units: Vec<WorkUnit> = Vec::new();
        for members in groups {
            if members.len() == 1 {
                units.push(WorkUnit::Single(members[0]));
                continue;
            }
            let faulted = plan
                .is_some_and(|p| members.iter().any(|&m| p.fault_for(uniques[m].exact).is_some()));
            let forkable = !faulted
                && members[1..].iter().all(|&m| {
                    uniques[members[0]].class.family_compatible(&uniques[m].class)
                        && uniques[m].class.top_trips.iter().all(|&t| t >= 1)
                })
                && uniques[members[0]].class.top_trips.iter().all(|&t| t >= 1);
            if forkable {
                units.push(WorkUnit::Family(members));
            } else {
                units.extend(members.into_iter().map(WorkUnit::Single));
            }
        }

        // Phase 3: the `max_sims` half of the budget — drop whole units
        // past the cap, in discovery order.
        if let Some(cap) = self.config.budget.max_sims {
            if units.len() > cap {
                self.emit(
                    EventKind::Point,
                    "budget.truncate",
                    vec![("units", Json::from(units.len())), ("cap", Json::from(cap))],
                );
                units.truncate(cap);
                stats.budget_truncated = true;
            }
        }

        // Phase 4: run the units on the pool in deterministic retry
        // rounds. Round 1 dispatches every unit; each later round
        // re-dispatches (as singles) only the uniques whose failure was
        // transient, until the retry policy is exhausted. Failed results
        // are never stored as reusable cache entries — a retried unique
        // is always re-simulated from scratch.
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut attempts_of: Vec<u32> = vec![0; uniques.len()];
        let mut round_units = units;
        let mut attempt: u32 = 1;
        // Dispatch in chunks when a checkpointer is attached. The unit
        // list is fixed before dispatch and units are independent, so
        // outcomes are identical at any chunk size — chunking only
        // creates the between-chunk points where completed results are
        // recorded, snapshots published, and interruption observed.
        let chunk = self.checkpoint.as_ref().map_or(usize::MAX, |ck| ck.every().max(1));
        'rounds: while !round_units.is_empty() {
            if attempt >= 2 {
                self.emit(
                    EventKind::Point,
                    "retry.round",
                    vec![
                        ("phase", Json::from("timing")),
                        ("attempt", Json::from(attempt)),
                        ("count", Json::from(round_units.len())),
                    ],
                );
            }
            let mut retry: Vec<usize> = Vec::new();
            let mut start = 0;
            while start < round_units.len() {
                let end = round_units.len().min(start.saturating_add(chunk));
                let observer = self.observer();
                let outcomes = pool::run_indexed_observed(
                    self.config.jobs,
                    end - start,
                    |k| {
                        let sim_started = Instant::now();
                        let out = run_unit(
                            &round_units[start + k],
                            &uniques,
                            eval,
                            spec,
                            plan.as_ref(),
                            attempt,
                        );
                        if let Some(sink) = observer {
                            sink.record_latency(
                                LatencyLane::Sim,
                                sim_started.elapsed().as_micros() as u64,
                            );
                        }
                        out
                    },
                    observer,
                    "timing",
                );
                for (k, pooled) in outcomes.into_iter().enumerate() {
                    let k = start + k;
                    match pooled {
                        Ok((reports, sims_run, injected)) => {
                            stats.unique_sims += sims_run;
                            stats.injected_faults += injected;
                            // A family unit that came back from a single
                            // forked run actually collapsed its members —
                            // count the collapse (a degraded family runs its
                            // members individually and is not a fork).
                            if let WorkUnit::Family(members) = &round_units[k] {
                                if sims_run == 1 {
                                    stats.family_forks += 1;
                                    stats.family_members += members.len();
                                    self.emit(
                                        EventKind::Point,
                                        "family.fork",
                                        vec![("members", Json::from(members.len()))],
                                    );
                                }
                            }
                            for (u, r) in reports {
                                attempts_of[u] = attempt;
                                if matches!(&r, Err(e) if e.is_transient())
                                    && attempt < max_attempts
                                {
                                    retry.push(u);
                                }
                                outcomes_of[u] = Some(r);
                            }
                        }
                        // The whole unit's worker vanished: every member is
                        // transiently lost.
                        Err(perr) => {
                            let err = pool_to_eval(perr);
                            for &u in round_units[k].members() {
                                attempts_of[u] = attempt;
                                if attempt < max_attempts {
                                    retry.push(u);
                                }
                                outcomes_of[u] = Some(Err(err.clone()));
                            }
                        }
                    }
                }
                if let Some(ck) = &self.checkpoint {
                    for unit in &round_units[start..end] {
                        for &u in unit.members() {
                            if let Some(Ok(rep)) = &outcomes_of[u] {
                                ck.record(uniques[u].exact, rep);
                            }
                        }
                    }
                    if let Err(e) = ck.units_finished(end - start) {
                        eprintln!("checkpoint {}: periodic write failed: {e}", ck.path().display());
                    }
                    if ck.should_stop() {
                        // Stop scheduling; undispatched units stay None
                        // (treated like budget-truncated work). The CLI
                        // publishes the final snapshot and exits.
                        break 'rounds;
                    }
                }
                start = end;
            }
            retry.sort_unstable();
            retry.dedup();
            stats.retries += retry.len();
            round_units = retry.into_iter().map(WorkUnit::Single).collect();
            attempt += 1;
        }

        // Persist this call's fresh successes write-behind. Failures are
        // never stored, mirroring the memo cache's rule.
        if let Some(store) = &self.store {
            let write_started = Instant::now();
            for (u, uq) in uniques.iter().enumerate() {
                if !from_store[u] {
                    if let Some(Ok(rep)) = &outcomes_of[u] {
                        store.put(uq.exact, rep);
                    }
                }
            }
            if let Err(e) = store.flush() {
                eprintln!("result store {}: flush failed: {e}", store.dir().display());
            }
            if let Some(sink) = &self.sink {
                sink.record_latency(
                    LatencyLane::StoreIo,
                    write_started.elapsed().as_micros() as u64,
                );
            }
        }

        // Simulator-side accounting is per *unique* run, pre-scaling, so
        // it is independent of how many candidates share each entry.
        // Store-served results are excluded: this run burned no fuel or
        // cycles on them.
        for (u, out) in outcomes_of.iter().enumerate() {
            let Some(Ok(rep)) = out else { continue };
            if from_store[u] {
                continue;
            }
            stats.fuel_consumed += rep.steps;
            stats.sim_cycles += rep.total_cycles;
            stats.stall_mem_cycles += rep.stall_mem_cycles;
            stats.stall_sfu_cycles += rep.stall_sfu_cycles;
            stats.stall_arith_cycles += rep.stall_arith_cycles;
            stats.stall_other_cycles += rep.stall_other_cycles;
        }

        // Phase 5: reassemble per candidate in index order, applying
        // invocation scaling and the simulated-time deadline. Failures
        // quarantine every candidate mapped to the failed unique.
        assignments.sort_by_key(|&(i, _, _)| i);
        let mut meter = budget::DeadlineMeter::new(&self.config.budget);
        // Uniques whose first accepted candidate already advanced the
        // convergence recorder's fresh-simulation count.
        let mut fresh_counted: HashSet<usize> = HashSet::new();
        for (i, u, invocations) in assignments {
            match &outcomes_of[u] {
                // Budget-truncated before dispatch: not evaluated, not
                // quarantined.
                None => {}
                Some(Ok(rep)) => {
                    let scaled = scale_by_invocations(rep.clone(), invocations);
                    if meter.accept(scaled.time_ms) {
                        stats.timed += 1;
                        let fresh = !from_store[u] && fresh_counted.insert(u);
                        self.convergence.observe(
                            stats.timed as u64,
                            fresh,
                            scaled.time_ms,
                            stats.bound_pruned_points as u64,
                        );
                        self.emit(
                            EventKind::Point,
                            "sim.done",
                            vec![
                                ("candidate", Json::from(i)),
                                ("unique", Json::from(u)),
                                ("time_ms", Json::from(scaled.time_ms)),
                            ],
                        );
                        simulated[i] = Some(scaled);
                    } else {
                        self.emit(
                            EventKind::Point,
                            "budget.deadline",
                            vec![("candidate", Json::from(i))],
                        );
                        stats.budget_truncated = true;
                    }
                }
                Some(Err(e)) => {
                    stats.quarantined += 1;
                    let label = source.label(i);
                    self.emit(
                        EventKind::Point,
                        "quarantine",
                        vec![
                            ("phase", Json::from("timing")),
                            ("candidate", Json::from(i)),
                            ("label", Json::from(label.as_str())),
                            ("kind", Json::from(e.kind().to_string())),
                            ("attempts", Json::from(attempts_of[u])),
                        ],
                    );
                    quarantine.push(Quarantine {
                        candidate: i,
                        label,
                        error: e.clone(),
                        attempts: attempts_of[u],
                    });
                }
            }
        }
        // Every timed candidate was served by exactly one of: a fresh
        // simulation, a store hit, or memo-cache sharing — the remainder
        // after subtracting the first two is the cache-hit count.
        stats.cache_hits += (stats.timed - timed_at_entry)
            .saturating_sub(stats.unique_sims - unique_at_entry)
            .saturating_sub(stats.store_hits - store_at_entry);
        self.emit(
            EventKind::End,
            "phase.timing",
            vec![
                ("timed", Json::from(stats.timed)),
                ("unique_sims", Json::from(stats.unique_sims)),
            ],
        );
        if let Some(sink) = &self.sink {
            sink.add_phase_wall_us(Phase::Timing, phase_started.elapsed().as_micros() as u64);
        }
        simulated
    }
}

/// One work unit's outcome: per-unique results, simulations executed,
/// and faults injected.
type UnitOutcome = (Vec<(usize, Result<TimingReport, EvalError>)>, usize, usize);

/// Execute one work unit.
fn run_unit(
    unit: &WorkUnit,
    uniques: &[UniqueSim],
    eval: &dyn TimingEval,
    spec: &MachineSpec,
    plan: Option<&FaultPlan>,
    attempt: u32,
) -> UnitOutcome {
    match unit {
        WorkUnit::Single(u) => {
            let uq = &uniques[*u];
            if let Some(fault) = plan.and_then(|p| p.fault_for(uq.exact)) {
                if fault.fires_on(attempt) {
                    let err = EvalError::Injected { transient: !fault.is_permanent() };
                    return (vec![(*u, Err(err))], 0, 1);
                }
            }
            (vec![(*u, eval.simulate(&uq.prog, &uq.launch, &uq.usage, spec))], 1, 0)
        }
        WorkUnit::Family(members) => {
            let first = &uniques[members[0]];
            let progs: Vec<&DecodedProgram> = members.iter().map(|&m| &uniques[m].prog).collect();
            match eval.simulate_family(&progs, &first.launch, &first.usage, spec) {
                Some(reports) => {
                    (members.iter().copied().zip(reports.into_iter().map(Ok)).collect(), 1, 0)
                }
                // Not actually forkable, the evaluator does not support
                // families, or the shared run failed: simulate each
                // member on its own, attributing failures individually.
                None => (
                    members
                        .iter()
                        .map(|&m| {
                            let uq = &uniques[m];
                            (m, eval.simulate(&uq.prog, &uq.launch, &uq.usage, spec))
                        })
                        .collect(),
                    members.len(),
                    0,
                ),
            }
        }
    }
}

/// A multi-invocation configuration pays the kernel time and the launch
/// overhead once per invocation. Cached reports are per-invocation;
/// scaling happens after cache lookup so invocation variants share one
/// entry.
fn scale_by_invocations(mut report: TimingReport, invocations: u32) -> TimingReport {
    let inv = f64::from(invocations);
    report.time_ms = report.time_ms * inv + LAUNCH_OVERHEAD_MS * inv;
    report.total_cycles = (report.total_cycles as f64 * inv).round() as u64;
    report.waves *= inv;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::{Dim, Kernel};

    fn g80() -> MachineSpec {
        MachineSpec::geforce_8800_gtx()
    }

    fn loop_kernel(trips: u32, work: u32) -> Kernel {
        let mut b = KernelBuilder::new("k");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(trips, |b| {
            let x = b.ld_global(p, 0);
            for _ in 0..work {
                b.fmad_acc(x, 1.0f32, acc);
            }
        });
        b.st_global(p, 0, acc);
        b.finish()
    }

    fn candidate(trips: u32, work: u32, invocations: u32) -> Candidate {
        Candidate::new(
            format!("t{trips}/w{work}/i{invocations}"),
            loop_kernel(trips, work),
            Launch::new(Dim::new_1d(256), Dim::new_1d(128)),
        )
        .with_invocations(invocations)
    }

    fn run_exhaustive(
        engine: &EvalEngine,
        cands: &[Candidate],
    ) -> (Vec<Option<TimingReport>>, EngineStats, Vec<Quarantine>) {
        let spec = g80();
        let mut stats = engine.stats_seed();
        let mut quarantine = Vec::new();
        let statics = engine.evaluate_statics(
            &MetricsEval::default(),
            &cands,
            &spec,
            &mut stats,
            &mut quarantine,
        );
        let selected: Vec<usize> =
            statics.iter().enumerate().filter_map(|(i, e)| e.as_ref().map(|_| i)).collect();
        let sims = engine.simulate_selected(
            &SimulatorEval::default(),
            &cands,
            &statics,
            &selected,
            &spec,
            &mut stats,
            &mut quarantine,
        );
        (sims, stats, quarantine)
    }

    #[test]
    fn invocation_variants_hit_the_cache_and_match_standalone_results() {
        // 4 invocation splits of the same (work) kernel + 1 oddball:
        // the splits share a class, so 2 unique simulations cover 5
        // candidates.
        let total_trips = 48u32;
        let cands: Vec<Candidate> = [1u32, 2, 4, 8]
            .iter()
            .map(|&inv| candidate(total_trips / inv, 2, inv))
            .chain([candidate(48, 5, 1)])
            .collect();
        let (sims, stats, quarantine) = run_exhaustive(&EvalEngine::default(), &cands);
        assert_eq!(stats.timed, 5);
        assert_eq!(stats.unique_sims, 2);
        assert_eq!(stats.cache_hits, 3);
        assert!(quarantine.is_empty());
        // Every report must equal the standalone sequential result.
        let spec = g80();
        for (c, got) in cands.iter().zip(&sims) {
            let e = c.evaluate(&spec).unwrap();
            let prog = gpu_ir::linear::linearize(&c.kernel);
            let want = scale_by_invocations(
                gpu_sim::timing::simulate(&prog, &c.launch, &e.kernel_profile.usage, &spec)
                    .unwrap(),
                c.invocations,
            );
            assert_eq!(got.as_ref().unwrap(), &want, "{}", c.label);
        }
    }

    #[test]
    fn exact_duplicates_are_simulated_once() {
        let cands = vec![candidate(16, 2, 1), candidate(16, 2, 1), candidate(16, 2, 4)];
        let (sims, stats, _) = run_exhaustive(&EvalEngine::default(), &cands);
        assert_eq!(stats.unique_sims, 1);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(sims[0], sims[1]);
        // The inv=4 variant shares the cache entry but scales differently.
        assert!(sims[2].as_ref().unwrap().time_ms > sims[0].as_ref().unwrap().time_ms);
    }

    #[test]
    fn worker_counts_do_not_change_results() {
        let cands: Vec<Candidate> =
            (1..=6).map(|t| candidate(8 * t, t, 1)).chain([candidate(24, 3, 2)]).collect();
        let (base, base_stats, _) = run_exhaustive(&EvalEngine::default(), &cands);
        for jobs in [2, 4, 8] {
            let (got, stats, _) = run_exhaustive(&EvalEngine::with_jobs(jobs), &cands);
            assert_eq!(got, base, "jobs = {jobs}");
            assert_eq!(stats.unique_sims, base_stats.unique_sims);
            assert_eq!(stats.cache_hits, base_stats.cache_hits);
        }
    }

    #[test]
    fn max_sims_budget_truncates_deterministically() {
        let cands: Vec<Candidate> = (1..=5).map(|t| candidate(8 * t, t, 1)).collect();
        let engine = EvalEngine::new(EngineConfig {
            jobs: 1,
            budget: EvalBudget::with_max_sims(2),
            ..Default::default()
        });
        let (sims, stats, _) = run_exhaustive(&engine, &cands);
        assert!(stats.budget_truncated);
        assert_eq!(stats.unique_sims, 2);
        // The first two units (discovery order) ran; the rest did not.
        assert!(sims[0].is_some() && sims[1].is_some());
        assert!(sims[2].is_none() && sims[3].is_none() && sims[4].is_none());
        // Parallel run truncates identically.
        let par = EvalEngine::new(EngineConfig {
            jobs: 4,
            budget: EvalBudget::with_max_sims(2),
            ..Default::default()
        });
        let (par_sims, _, _) = run_exhaustive(&par, &cands);
        assert_eq!(par_sims, sims);
    }

    #[test]
    fn deadline_budget_keeps_the_crossing_candidate() {
        let cands: Vec<Candidate> = (1..=5).map(|t| candidate(8 * t, t, 1)).collect();
        let (all, _, _) = run_exhaustive(&EvalEngine::default(), &cands);
        let t0 = all[0].as_ref().unwrap().time_ms;
        let t1 = all[1].as_ref().unwrap().time_ms;
        // Deadline inside candidate 1: candidates 0 and 1 kept (1
        // crosses), 2.. dropped.
        let engine = EvalEngine::new(EngineConfig {
            jobs: 1,
            budget: EvalBudget::with_deadline_ms(t0 + t1 * 0.5),
            ..Default::default()
        });
        let (sims, stats, _) = run_exhaustive(&engine, &cands);
        assert!(stats.budget_truncated);
        assert_eq!(stats.timed, 2);
        assert!(sims[0].is_some() && sims[1].is_some());
        assert!(sims[2..].iter().all(Option::is_none));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::{Dim, Kernel};

    fn g80() -> MachineSpec {
        MachineSpec::geforce_8800_gtx()
    }

    fn loop_kernel(trips: u32, work: u32) -> Kernel {
        let mut b = KernelBuilder::new("k");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(trips, |b| {
            let x = b.ld_global(p, 0);
            for _ in 0..work {
                b.fmad_acc(x, 1.0f32, acc);
            }
        });
        b.st_global(p, 0, acc);
        b.finish()
    }

    fn candidate(trips: u32, work: u32, invocations: u32) -> Candidate {
        Candidate::new(
            format!("t{trips}/w{work}/i{invocations}"),
            loop_kernel(trips, work),
            Launch::new(Dim::new_1d(256), Dim::new_1d(128)),
        )
        .with_invocations(invocations)
    }

    fn run_with_engine(
        engine: &EvalEngine,
        cands: &[Candidate],
    ) -> (Vec<Option<TimingReport>>, EngineStats, Vec<Quarantine>) {
        let spec = g80();
        let mut stats = engine.stats_seed();
        let mut quarantine = Vec::new();
        let statics = engine.evaluate_statics(
            &MetricsEval::default(),
            &cands,
            &spec,
            &mut stats,
            &mut quarantine,
        );
        let selected: Vec<usize> =
            statics.iter().enumerate().filter_map(|(i, e)| e.as_ref().map(|_| i)).collect();
        let sims = engine.simulate_selected(
            &SimulatorEval::with_fuel(engine.config.sim_fuel),
            &cands,
            &statics,
            &selected,
            &spec,
            &mut stats,
            &mut quarantine,
        );
        (sims, stats, quarantine)
    }

    /// The exact content hash the engine will compute for a candidate.
    fn exact_of(c: &Candidate, spec: &MachineSpec) -> u64 {
        let e = c.evaluate(spec).unwrap();
        let prog = gpu_ir::linear::linearize(&c.kernel);
        cache::exact_key(&prog, &c.launch, &e.kernel_profile.usage, spec)
    }

    #[test]
    fn permanent_faults_quarantine_and_transient_faults_recover() {
        let spec = g80();
        let cands: Vec<Candidate> = (1..=8).map(|t| candidate(6 * t, t, 1)).collect();
        let hashes: Vec<u64> = cands.iter().map(|c| exact_of(c, &spec)).collect();

        // Find a seed injecting at least one permanent and one transient
        // fault into this space — deterministic, so the assertions below
        // are stable.
        let plan = (0..10_000u64)
            .map(FaultPlan::with_seed)
            .find(|p| {
                let faults: Vec<_> = hashes.iter().filter_map(|&h| p.fault_for(h)).collect();
                faults.iter().any(|f| f.is_permanent())
                    && faults.iter().any(|f| !f.is_permanent())
                    && faults.len() < hashes.len()
            })
            .expect("some seed exercises both fault flavors");

        let engine = EvalEngine::new(EngineConfig { fault_plan: Some(plan), ..Default::default() });
        let (sims, stats, quarantine) = run_with_engine(&engine, &cands);
        let (clean_sims, ..) = run_with_engine(&EvalEngine::default(), &cands);

        for (i, c) in cands.iter().enumerate() {
            match plan.fault_for(hashes[i]) {
                Some(f) if f.is_permanent() => {
                    assert!(sims[i].is_none(), "{} should be quarantined", c.label);
                    let q = quarantine
                        .iter()
                        .find(|q| q.candidate == i)
                        .expect("permanent fault is quarantined");
                    assert_eq!(q.error, EvalError::Injected { transient: false });
                    assert_eq!(q.attempts, 1, "permanent faults are not retried");
                }
                Some(_) => {
                    // Transient: retried to success, result identical to
                    // the fault-free run.
                    assert_eq!(sims[i], clean_sims[i], "{} should recover", c.label);
                    assert!(quarantine.iter().all(|q| q.candidate != i));
                }
                None => {
                    assert_eq!(sims[i], clean_sims[i], "{} untouched by the plan", c.label);
                }
            }
        }
        assert_eq!(stats.quarantined, quarantine.len());
        assert!(stats.injected_faults > 0);
        assert!(stats.retries > 0, "transient faults must be retried");
    }

    #[test]
    fn fault_injection_is_deterministic_across_worker_counts() {
        let cands: Vec<Candidate> = (1..=8).map(|t| candidate(6 * t, t, 1)).collect();
        let plan = FaultPlan { seed: 11, rate_per_mille: 400, transient_per_mille: 500 };
        let base = run_with_engine(
            &EvalEngine::new(EngineConfig { fault_plan: Some(plan), ..Default::default() }),
            &cands,
        );
        for jobs in [2usize, 8] {
            let par = run_with_engine(
                &EvalEngine::new(EngineConfig {
                    jobs,
                    fault_plan: Some(plan),
                    ..Default::default()
                }),
                &cands,
            );
            assert_eq!(par.0, base.0, "jobs = {jobs}");
            assert_eq!(par.2, base.2, "jobs = {jobs}");
            assert_eq!(par.1.unique_sims, base.1.unique_sims);
            assert_eq!(par.1.retries, base.1.retries);
            assert_eq!(par.1.injected_faults, base.1.injected_faults);
        }
    }

    #[test]
    fn a_faulted_family_member_does_not_poison_its_siblings() {
        // Four invocation splits of one kernel: a single family that the
        // engine would normally simulate in one forked run. Inject a
        // fault into exactly one member and the family must degrade to
        // singles — the siblings still produce their fault-free reports.
        let spec = g80();
        let total_trips = 48u32;
        let cands: Vec<Candidate> =
            [1u32, 2, 4, 8].iter().map(|&inv| candidate(total_trips / inv, 2, inv)).collect();
        let hashes: Vec<u64> = cands.iter().map(|c| exact_of(c, &spec)).collect();

        let plan = (0..100_000u64)
            .map(FaultPlan::with_seed)
            .find(|p| {
                let faulted: Vec<_> =
                    hashes.iter().filter(|&&h| p.fault_for(h).is_some()).collect();
                faulted.len() == 1 && p.fault_for(*faulted[0]).unwrap().is_permanent()
            })
            .expect("some seed faults exactly one member permanently");
        let victim = hashes
            .iter()
            .position(|&h| plan.fault_for(h).is_some())
            .expect("victim exists by construction");

        let (clean_sims, clean_stats, _) = run_with_engine(&EvalEngine::default(), &cands);
        assert_eq!(clean_stats.unique_sims, 1, "fault-free family forks in one run");

        let engine = EvalEngine::new(EngineConfig { fault_plan: Some(plan), ..Default::default() });
        let (sims, stats, quarantine) = run_with_engine(&engine, &cands);
        for (i, c) in cands.iter().enumerate() {
            if i == victim {
                assert!(sims[i].is_none());
                assert!(quarantine.iter().any(|q| q.candidate == i));
            } else {
                assert_eq!(sims[i], clean_sims[i], "sibling {} poisoned", c.label);
            }
        }
        // The degraded family runs its surviving members individually.
        assert_eq!(stats.unique_sims, cands.len() - 1);
        assert_eq!(quarantine.len(), 1);
    }

    #[test]
    fn a_panicking_evaluator_is_quarantined_not_fatal() {
        /// Panics on one specific program length, succeeds otherwise.
        struct PanickyEval {
            panic_on_trips: u32,
        }
        impl TimingEval for PanickyEval {
            fn simulate(
                &self,
                prog: &DecodedProgram,
                launch: &Launch,
                usage: &ResourceUsage,
                spec: &MachineSpec,
            ) -> Result<TimingReport, EvalError> {
                let trips = prog
                    .source
                    .code
                    .iter()
                    .find_map(|op| match op {
                        gpu_ir::linear::LinOp::LoopStart { trips, .. } => Some(*trips),
                        _ => None,
                    })
                    .unwrap_or(0);
                if trips == self.panic_on_trips {
                    panic!("deliberate test panic");
                }
                gpu_sim::timing::simulate_decoded(prog, launch, usage, spec).map_err(Into::into)
            }
        }

        let spec = g80();
        let cands: Vec<Candidate> = (1..=4).map(|t| candidate(10 * t, t, 1)).collect();
        for jobs in [1usize, 3] {
            let engine = EvalEngine::with_jobs(jobs);
            let mut stats = engine.stats_seed();
            let mut quarantine = Vec::new();
            let statics = engine.evaluate_statics(
                &MetricsEval::default(),
                &cands,
                &spec,
                &mut stats,
                &mut quarantine,
            );
            let selected: Vec<usize> = (0..cands.len()).collect();
            let sims = engine.simulate_selected(
                &PanickyEval { panic_on_trips: 20 },
                &cands,
                &statics,
                &selected,
                &spec,
                &mut stats,
                &mut quarantine,
            );
            // Candidate 1 (trips = 20) panics deterministically: retried
            // as transient, then quarantined as worker-lost.
            assert!(sims[1].is_none(), "jobs = {jobs}");
            let q = quarantine.iter().find(|q| q.candidate == 1).expect("panic quarantined");
            assert_eq!(q.error.kind(), EvalErrorKind::WorkerLost);
            assert_eq!(q.attempts, engine.config.retry.max_attempts);
            // Everyone else survives.
            for i in [0usize, 2, 3] {
                assert!(sims[i].is_some(), "jobs = {jobs}, candidate {i}");
            }
        }
    }

    #[test]
    fn fuel_exhaustion_quarantines_the_runaway_candidate() {
        let cands: Vec<Candidate> =
            vec![candidate(2, 1, 1), candidate(20_000, 2, 1), candidate(4, 3, 1)];
        let engine = EvalEngine::new(EngineConfig { sim_fuel: Some(20_000), ..Default::default() });
        let (sims, stats, quarantine) = run_with_engine(&engine, &cands);
        assert!(sims[0].is_some() && sims[2].is_some());
        assert!(sims[1].is_none());
        let q = quarantine.iter().find(|q| q.candidate == 1).expect("runaway quarantined");
        assert_eq!(q.error, EvalError::FuelExhausted { fuel: 20_000 });
        assert_eq!(q.attempts, 1, "fuel exhaustion is permanent, not retried");
        assert_eq!(stats.quarantined, 1);
    }

    #[test]
    fn verifying_static_eval_quarantines_malformed_kernels() {
        // A kernel that reads a register it never wrote.
        let mut b = KernelBuilder::new("bad");
        let p = b.param(0);
        let ghost = b.fresh();
        let acc = b.mov(0.0f32);
        b.fmad_acc(ghost, 1.0f32, acc);
        b.st_global(p, 0, acc);
        let bad = Candidate::new(
            "use-before-def",
            b.finish(),
            Launch::new(Dim::new_1d(16), Dim::new_1d(64)),
        );
        let good = candidate(4, 1, 1);
        let cands = vec![good, bad];

        let engine = EvalEngine::default();
        let mut stats = engine.stats_seed();
        let mut quarantine = Vec::new();
        let statics = engine.evaluate_statics(
            &MetricsEval { verify: true, ..Default::default() },
            &cands,
            &g80(),
            &mut stats,
            &mut quarantine,
        );
        assert!(statics[0].is_some());
        assert!(statics[1].is_none());
        assert_eq!(quarantine.len(), 1);
        assert_eq!(quarantine[0].candidate, 1);
        assert_eq!(quarantine[0].error.kind(), EvalErrorKind::Verify);
    }
}
