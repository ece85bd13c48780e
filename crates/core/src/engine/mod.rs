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
//!   many workers are configured. Per-candidate work is panic-isolated:
//!   a panic costs its candidate, never its worker.
//! * **Memo cache** — timing work is deduplicated by a content hash of
//!   (linearized program, launch, resource usage, machine spec)
//!   ([`cache`]), computed on the pool next to linearization and looked
//!   up sequentially in discovery order. Configurations differing only
//!   in top-level trip counts — any number of axes — form a *family*
//!   simulated in one forked run (`gpu_sim::timing::simulate_family`),
//!   so each MRI-FHD cluster of seven costs roughly one simulation. Failed
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
//!   simulated milliseconds ([`budget`]), applied deterministically; a
//!   cut shows as [`EngineStats::budget_truncated`].
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
    install_signal_handler, interrupted, CheckpointMeta, Checkpointer, CHECKPOINT_SCHEMA,
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
/// linear program is dropped once it is decoded and keyed.
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
        gpu_sim::timing::simulate(prog, launch, usage, spec, self.fuel).map_err(Into::into)
    }

    fn simulate_family(
        &self,
        progs: &[&DecodedProgram],
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Option<Vec<TimingReport>> {
        gpu_sim::timing::simulate_family(progs, launch, usage, spec, self.fuel).ok()
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
/// Every field is deterministic: identical at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
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
    /// Optional checkpoint: each work unit is admitted by it and records
    /// its results into it as it finishes, and the results it already
    /// holds are replayed in place of fresh simulations.
    checkpoint: Option<Arc<checkpoint::Checkpointer>>,
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
    /// The checkpoint's result for `exact`, replayed in place of the
    /// simulation that produced it.
    replay: Option<TimingReport>,
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
    // Inlined so the constructor is emitted next to its caller: a search
    // process builds its engine once, cold, and an out-of-line copy can
    // land on a code page nothing else has touched yet, a page fault
    // that measured as a third of fine-bnb's ~25 µs set-up.
    #[inline]
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

    /// Attach a checkpoint: every work unit is recorded and flushed as
    /// it finishes, results the checkpoint already holds are replayed as
    /// the fresh simulations they stand for (which makes a resumed
    /// search byte-identical to the original), and no unit starts once
    /// [`checkpoint::Checkpointer::should_stop`] turns true.
    pub fn with_checkpoint(mut self, ck: Arc<checkpoint::Checkpointer>) -> Self {
        self.checkpoint = Some(ck);
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

    /// Fresh stats carrying the attached store's load-time drop counter,
    /// so every report of a store-backed run surfaces the corruption it
    /// tolerated.
    pub fn stats_seed(&self) -> EngineStats {
        EngineStats {
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
        let mut results: Vec<Result<Evaluated, EvalError>> = pool::run_indexed(
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
            let redo = pool::run_indexed(
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
                Err(error) => {
                    let q = Quarantine::of(source, i, error, attempts[i]);
                    if q.error.kind() == EvalErrorKind::Race {
                        // Race findings get their own verify-stage event
                        // so trace consumers can tell soundness
                        // violations from resource/fault quarantines.
                        self.emit(
                            EventKind::Point,
                            "verify.race",
                            vec![
                                ("candidate", Json::from(q.candidate)),
                                ("label", Json::from(q.label.as_str())),
                                ("detail", Json::from(q.error.to_string())),
                            ],
                        );
                    }
                    self.quarantine("static", q, stats, quarantine);
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

        // Phase 1a: instantiate, linearize and key the selected
        // candidates on the worker pool. For an eager slice source this
        // merely borrows; for a lazy point source this is where kernel
        // generation and the pass pipelines actually run — inside the
        // pool, never materialized up front. The exact and class keys
        // come out of one walk over the fresh program, next to the
        // linearization that produced it. Pool dispatch emits only
        // Runtime-scope events, so the canonical (Search-scope) trace is
        // unchanged.
        let eligible: Vec<(usize, ResourceUsage)> = selected
            .iter()
            .filter_map(|&i| statics.get(i)?.as_ref().map(|e| (i, e.kernel_profile.usage)))
            .collect();
        let keyer = cache::KeyContext::new(spec);
        let sink = self.observer();
        let prepared = pool::run_indexed(
            self.config.jobs,
            eligible.len(),
            |k| {
                let (i, usage) = eligible[k];
                let c = source.get(i);
                let prog = linearize(&c.kernel);
                let key_started = Instant::now();
                let (exact, class) = keyer.keys(&prog, &c.launch, &usage);
                if let Some(sink) = sink {
                    sink.record_latency(
                        LatencyLane::CacheLookup,
                        key_started.elapsed().as_micros() as u64,
                    );
                }
                (prog, c.launch, c.invocations, exact, class)
            },
            sink,
            "timing",
        );

        // Phase 1b: deduplicate by exact key, sequentially. `uniques`
        // keeps discovery order, which makes every later ordering
        // decision deterministic.
        let fuel = self.config.sim_fuel;
        let mut unique_of: HashMap<u64, usize> = HashMap::new();
        let mut uniques: Vec<UniqueSim> = Vec::new();
        // (candidate, unique, invocations)
        let mut assignments: Vec<(usize, usize, u32)> = Vec::new();
        for (&(i, usage), prep) in eligible.iter().zip(prepared) {
            let (prog, launch, invocations, exact, class) = match prep {
                Ok(p) => p,
                // The prepare worker died (a panicking generator, say):
                // the candidate never reaches dedup, so quarantine it
                // here as worker-lost.
                Err(perr) => {
                    let q = Quarantine::of(source, i, pool_to_eval(perr), 1);
                    self.quarantine("timing", q, stats, quarantine);
                    continue;
                }
            };
            let hit = unique_of.get(&exact).copied();
            let u = hit.unwrap_or(uniques.len());
            self.emit(
                EventKind::Point,
                if hit.is_some() { "cache.hit" } else { "cache.miss" },
                vec![("candidate", Json::from(source.ordinal(i))), ("unique", Json::from(u))],
            );
            if hit.is_none() {
                // Decode once per masked structure: the arena stores no
                // trip counts, so every family member (and every probe
                // corner sharing the class) reuses it verbatim — only
                // the per-program trip vector is rebuilt.
                let decode_started = Instant::now();
                let mut shared = self.decoded.lock().expect("decode cache poisoned");
                let (decoded, fresh) = match shared.get(&class.hash) {
                    Some(arena) => (DecodedProgram::with_arena(&prog, Arc::clone(arena)), false),
                    None => {
                        let d = gpu_sim::decode::decode(&prog);
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
                // A unique the checkpoint holds is replayed by `run_unit`
                // as the fresh simulation it stands for, so resumed and
                // uninterrupted runs account alike.
                let replay = self.checkpoint.as_ref().and_then(|ck| serve(ck.store(), exact, fuel));
                uniques.push(UniqueSim { prog: decoded, launch, usage, exact, class, replay });
                unique_of.insert(exact, u);
            }
            assignments.push((i, u, invocations));
        }

        // Phase 1c: consult the persistent result store before anything
        // is scheduled, for the uniques the checkpoint does not replay. A
        // store-resolved unique never becomes a work unit — on a fully
        // warm store the pool dispatches nothing.
        let mut outcomes_of: Vec<Option<Result<TimingReport, EvalError>>> =
            (0..uniques.len()).map(|_| None).collect();
        let mut from_store: Vec<bool> = vec![false; uniques.len()];
        if let Some(store) = &self.store {
            for (u, uq) in uniques.iter().enumerate() {
                if uq.replay.is_some() {
                    continue;
                }
                let read_started = Instant::now();
                let cached = serve(store, uq.exact, fuel);
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
        // rounds, one pool call per round. Round 1 dispatches every unit;
        // each later round re-dispatches (as singles) only the uniques
        // whose failure was transient, until the retry policy is
        // exhausted. Failed results are never stored as reusable cache
        // entries — a retried unique is always re-simulated from scratch.
        // With a checkpoint attached, each unit asks it for admission
        // before running (a refused unit stays `None`, like
        // budget-truncated work) and records its successes into it as
        // soon as it finishes.
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut attempts_of: Vec<u32> = vec![0; uniques.len()];
        // The execution each unique's result came from, named by a unique:
        // a forked family's members share their first member's.
        let mut run_of: Vec<usize> = (0..uniques.len()).collect();
        let mut round_units = units;
        let mut attempt: u32 = 1;
        let ck = self.checkpoint.as_deref();
        let observer = self.observer();
        while !round_units.is_empty() {
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
            let outcomes = pool::run_indexed(
                self.config.jobs,
                round_units.len(),
                |k| {
                    if ck.is_some_and(|ck| !ck.admit()) {
                        return None;
                    }
                    let sim_started = Instant::now();
                    let out =
                        run_unit(&round_units[k], &uniques, eval, spec, plan.as_ref(), attempt);
                    if let Some(sink) = observer {
                        sink.record_latency(
                            LatencyLane::Sim,
                            sim_started.elapsed().as_micros() as u64,
                        );
                    }
                    if let Some(ck) = ck {
                        ck.record(
                            out.0
                                .iter()
                                .filter_map(|(u, r)| Some((uniques[*u].exact, r.as_ref().ok()?))),
                        );
                    }
                    Some(out)
                },
                observer,
                "timing",
            );
            let mut retry: Vec<usize> = Vec::new();
            for (k, pooled) in outcomes.into_iter().enumerate() {
                match pooled {
                    // Refused by the checkpoint: never ran.
                    Ok(None) => {}
                    Ok(Some((reports, sims_run, injected))) => {
                        stats.unique_sims += sims_run;
                        stats.injected_faults += injected;
                        // A family unit that came back from a single
                        // forked run actually collapsed its members —
                        // count the collapse (a degraded family runs its
                        // members individually and is not a fork).
                        let mut forked_from = None;
                        if let WorkUnit::Family(members) = &round_units[k] {
                            if sims_run == 1 {
                                stats.family_forks += 1;
                                stats.family_members += members.len();
                                forked_from = Some(members[0]);
                                self.emit(
                                    EventKind::Point,
                                    "family.fork",
                                    vec![("members", Json::from(members.len()))],
                                );
                            }
                        }
                        for (u, r) in reports {
                            attempts_of[u] = attempt;
                            run_of[u] = forked_from.unwrap_or(u);
                            if matches!(&r, Err(e) if e.is_transient()) && attempt < max_attempts {
                                retry.push(u);
                            }
                            outcomes_of[u] = Some(r);
                        }
                    }
                    // The unit panicked or its worker died: every member
                    // is transiently lost.
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
            if self.stop_requested() {
                // Stop scheduling; the CLI syncs the checkpoint and exits.
                break;
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
        // Executions whose first accepted candidate already advanced the
        // convergence recorder's fresh-simulation count, so the curve
        // counts runs as `unique_sims` does: one per forked family.
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
                        let fresh = !from_store[u] && fresh_counted.insert(run_of[u]);
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
                                ("candidate", Json::from(source.ordinal(i))),
                                ("unique", Json::from(u)),
                                ("time_ms", Json::from(scaled.time_ms)),
                            ],
                        );
                        simulated[i] = Some(scaled);
                    } else {
                        self.emit(
                            EventKind::Point,
                            "budget.deadline",
                            vec![("candidate", Json::from(source.ordinal(i)))],
                        );
                        stats.budget_truncated = true;
                    }
                }
                Some(Err(e)) => {
                    let q = Quarantine::of(source, i, e.clone(), attempts_of[u]);
                    self.quarantine("timing", q, stats, quarantine);
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

    /// Quarantine a candidate: count it, emit its `quarantine` event
    /// for `phase`, and record it.
    fn quarantine(
        &self,
        phase: &'static str,
        q: Quarantine,
        stats: &mut EngineStats,
        quarantine: &mut Vec<Quarantine>,
    ) {
        stats.quarantined += 1;
        self.emit(
            EventKind::Point,
            "quarantine",
            vec![
                ("phase", Json::from(phase)),
                ("candidate", Json::from(q.candidate)),
                ("label", Json::from(q.label.as_str())),
                ("kind", Json::from(q.error.kind().to_string())),
                ("attempts", Json::from(q.attempts)),
            ],
        );
        quarantine.push(q);
    }
}

/// A stored (or checkpointed) result, served only if a fresh simulation
/// under this run's fuel limit would finish too: the simulator refuses a
/// step once `steps >= fuel`, so exactly when `steps <= fuel`. A result
/// past the limit is a miss, simulated and quarantined as on a cold run.
fn serve(store: &store::ResultStore, key: u64, fuel: Option<u64>) -> Option<TimingReport> {
    store.get(key).filter(|r| fuel.is_none_or(|f| r.steps <= f))
}

/// One work unit's outcome: per-unique results, simulations executed,
/// and faults injected.
type UnitOutcome = (Vec<(usize, Result<TimingReport, EvalError>)>, usize, usize);

/// Execute one work unit. A unique with a checkpointed result replays
/// it, counted as the simulation that produced it.
fn run_unit(
    unit: &WorkUnit,
    uniques: &[UniqueSim],
    eval: &dyn TimingEval,
    spec: &MachineSpec,
    plan: Option<&FaultPlan>,
    attempt: u32,
) -> UnitOutcome {
    let simulate = |uq: &UniqueSim| match &uq.replay {
        Some(rep) => Ok(rep.clone()),
        None => eval.simulate(&uq.prog, &uq.launch, &uq.usage, spec),
    };
    match unit {
        WorkUnit::Single(u) => {
            let uq = &uniques[*u];
            if let Some(fault) = plan.and_then(|p| p.fault_for(uq.exact)) {
                if fault.fires_on(attempt) {
                    let err = EvalError::Injected { transient: !fault.is_permanent() };
                    return (vec![(*u, Err(err))], 0, 1);
                }
            }
            (vec![(*u, simulate(uq))], 1, 0)
        }
        WorkUnit::Family(members) => {
            // Units are checkpointed whole, so a family is replayed whole
            // (as the one forked run that produced it) or not at all.
            let first = &uniques[members[0]];
            let replayed: Option<Vec<TimingReport>> =
                members.iter().map(|&m| uniques[m].replay.clone()).collect();
            let forked = replayed.or_else(|| {
                let progs: Vec<&DecodedProgram> =
                    members.iter().map(|&m| &uniques[m].prog).collect();
                eval.simulate_family(&progs, &first.launch, &first.usage, spec)
            });
            match forked {
                Some(reports) => {
                    (members.iter().copied().zip(reports.into_iter().map(Ok)).collect(), 1, 0)
                }
                // Not actually forkable, the evaluator does not support
                // families, or the shared run failed: simulate each
                // member on its own, attributing failures individually.
                None => (
                    members.iter().map(|&m| (m, simulate(&uniques[m]))).collect(),
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
            let prog = gpu_sim::decode::decode(&gpu_ir::linear::linearize(&c.kernel));
            let want = scale_by_invocations(
                gpu_sim::timing::simulate(&prog, &c.launch, &e.kernel_profile.usage, &spec, None)
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
                let trips = prog.loop_trips.first().copied().unwrap_or(0);
                if trips == self.panic_on_trips {
                    panic!("deliberate test panic");
                }
                gpu_sim::timing::simulate(prog, launch, usage, spec, None).map_err(Into::into)
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
    fn a_persisted_result_is_served_exactly_when_a_fresh_run_fits_the_fuel() {
        let spec = g80();
        let c = candidate(16, 2, 1);
        let usage = c.evaluate(&spec).unwrap().kernel_profile.usage;
        let prog = gpu_sim::decode::decode(&linearize(&c.kernel));
        let run = |fuel| gpu_sim::timing::simulate(&prog, &c.launch, &usage, &spec, fuel);
        let report = run(None).unwrap();
        let steps = report.steps;
        assert_eq!(run(Some(steps)), Ok(report.clone()));
        assert_eq!(
            run(Some(steps - 1)),
            Err(gpu_sim::timing::TimingError::FuelExhausted { fuel: steps - 1 })
        );

        let dir =
            std::env::temp_dir().join(format!("optspace-engine-fuel-serve-{}", std::process::id()));
        let store = store::ResultStore::open(&dir).unwrap();
        store.put(9, &report);
        assert_eq!(serve(&store, 9, None), Some(report.clone()));
        assert_eq!(serve(&store, 9, Some(steps)), Some(report));
        assert_eq!(serve(&store, 9, Some(steps - 1)), None);
        std::fs::remove_dir_all(&dir).unwrap();
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
