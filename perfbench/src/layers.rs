//! The traced run: every layer timed from outside, by wrapping the
//! public traits the engine takes and by replaying the engine's
//! internal steps on the same inputs.
//!
//! Wrapped (timed in place): `CandidateSource`/`Instantiator` (kernel
//! generation and the pass pipeline), `StaticEval` (static metrics),
//! `TimingEval` (the timing simulator), strategy selection and the
//! branch-and-bound `ProbeBound`. Replayed after the search (the engine
//! calls them between the wrapped calls): `gpu_ir::linear::linearize`,
//! `engine::cache::{exact_key, class_key}` and the simulator's decode.
//! Whatever neither covers is the `unattributed` row.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gpu_arch::{MachineSpec, ResourceUsage};
use gpu_ir::linear::linearize;
use gpu_ir::Launch;
use gpu_kernels::AppInstantiator;
use gpu_sim::decode::DecodedProgram;
use gpu_sim::timing::TimingReport;
use optspace::candidate::{Candidate, Evaluated};
use optspace::engine::{
    cache, EngineStats, EvalError, MetricsEval, SimulatorEval, StaticEval, TimingEval,
};
use optspace::model::{LowerBound, ProbeBound};
use optspace::space::{
    CandidateSource, Instantiator, PartialPoint, Point, PointBatch, Space, Value,
};
use optspace::tuner::{ExhaustiveSearch, PrunedSearch};
use optspace::{EngineMetrics, SearchStrategy};

use crate::workload::{Outcome, Setup, Strategy, Task};

/// A layer row of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `gpu-kernels` generators and the `gpu-passes` pipeline.
    Instantiate,
    /// `optspace::candidate`/`metrics` through `StaticEval`.
    StaticEval,
    /// `optspace::tuner` selection.
    Select,
    /// `gpu_ir::linear` (replayed).
    Linearize,
    /// `optspace::engine::cache` keys (replayed).
    Key,
    /// `gpu_sim::decode` (replayed).
    Decode,
    /// `gpu_sim::timing` through `TimingEval`.
    Simulate,
    /// `optspace::model::ProbeBound`.
    Probe,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 8] = [
        Layer::Instantiate,
        Layer::StaticEval,
        Layer::Select,
        Layer::Linearize,
        Layer::Key,
        Layer::Decode,
        Layer::Simulate,
        Layer::Probe,
    ];

    /// Metric name of the layer's self time.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Instantiate => "kernels.instantiate_s",
            Layer::StaticEval => "metrics.static_eval_s",
            Layer::Select => "tuner.select_s",
            Layer::Linearize => "ir.linearize_s",
            Layer::Key => "engine.key_s",
            Layer::Decode => "sim.decode_s",
            Layer::Simulate => "sim.simulate_s",
            Layer::Probe => "model.probe_s",
        }
    }
}

thread_local! {
    /// Time spent in timed calls nested inside the innermost timed call
    /// open on this thread, so each layer is charged its self time.
    static NESTED_NS: Cell<u64> = const { Cell::new(0) };
}

/// Per-layer busy time and call counts, shared by every worker thread.
#[derive(Default)]
pub struct Meter {
    busy_ns: [AtomicU64; Layer::ALL.len()],
    calls: [AtomicU64; Layer::ALL.len()],
    family_calls: AtomicU64,
    invalid: AtomicU64,
    selected: AtomicU64,
    sim_cycles: AtomicU64,
    sim_call_ns: Mutex<Vec<u64>>,
    /// Distinct (task, point) pairs instantiated.
    points: Mutex<HashSet<(usize, usize)>>,
}

impl Meter {
    /// Run `f` as one call into `layer`, charging its self time.
    pub fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let outer = NESTED_NS.with(|n| n.replace(0));
        let started = Instant::now();
        let out = f();
        let total = started.elapsed().as_nanos() as u64;
        let nested = NESTED_NS.with(|n| n.replace(outer + total));
        self.busy_ns[layer as usize].fetch_add(total.saturating_sub(nested), Ordering::Relaxed);
        self.calls[layer as usize].fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Self time of a layer, seconds.
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.busy_ns[layer as usize].load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Calls into a layer.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize].load(Ordering::Relaxed)
    }

    /// Busy time summed over every layer, seconds.
    pub fn busy_seconds(&self) -> f64 {
        Layer::ALL.iter().map(|&l| self.seconds(l)).sum()
    }

    fn instantiated(&self, task: usize, point: usize) {
        self.points.lock().expect("point set poisoned").insert((task, point));
    }
}

/// `CandidateSource` wrapper timing every `get` as `Instantiate`.
struct TracedSource<'a> {
    inner: &'a dyn CandidateSource,
    meter: &'a Meter,
    task: usize,
}

impl CandidateSource for TracedSource<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn label(&self, index: usize) -> String {
        self.inner.label(index)
    }

    fn get(&self, index: usize) -> Cow<'_, Candidate> {
        self.meter.instantiated(self.task, index);
        self.meter.time(Layer::Instantiate, || self.inner.get(index))
    }
}

/// `Instantiator` wrapper timing every `instantiate` as `Instantiate`.
struct TracedInst<'a> {
    inner: &'a dyn Instantiator,
    meter: &'a Meter,
    task: usize,
}

impl Instantiator for TracedInst<'_> {
    fn instantiate(&self, point: &Point) -> Candidate {
        self.meter.instantiated(self.task, point.ordinal());
        self.meter.time(Layer::Instantiate, || self.inner.instantiate(point))
    }

    fn legalize(&self, space: &Space, values: &mut [Value]) {
        self.inner.legalize(space, values);
    }
}

/// `StaticEval` wrapper.
struct TracedStatic<'a> {
    inner: &'a dyn StaticEval,
    meter: &'a Meter,
}

impl StaticEval for TracedStatic<'_> {
    fn evaluate(&self, candidate: &Candidate, spec: &MachineSpec) -> Result<Evaluated, EvalError> {
        let out = self.meter.time(Layer::StaticEval, || self.inner.evaluate(candidate, spec));
        if out.is_err() {
            self.meter.invalid.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// `TimingEval` wrapper; also records per-call latency and simulated
/// cycles.
struct TracedTiming<'a> {
    inner: &'a dyn TimingEval,
    meter: &'a Meter,
}

impl TracedTiming<'_> {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = self.meter.time(Layer::Simulate, f);
        let ns = started.elapsed().as_nanos() as u64;
        self.meter.sim_call_ns.lock().expect("latency list poisoned").push(ns);
        out
    }
}

impl TimingEval for TracedTiming<'_> {
    fn simulate(
        &self,
        prog: &DecodedProgram,
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Result<TimingReport, EvalError> {
        let out = self.timed(|| self.inner.simulate(prog, launch, usage, spec));
        if let Ok(rep) = &out {
            self.meter.sim_cycles.fetch_add(rep.total_cycles, Ordering::Relaxed);
        }
        out
    }

    fn simulate_family(
        &self,
        progs: &[&DecodedProgram],
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Option<Vec<TimingReport>> {
        self.meter.family_calls.fetch_add(1, Ordering::Relaxed);
        let out = self.timed(|| self.inner.simulate_family(progs, launch, usage, spec));
        if let Some(reps) = &out {
            let cycles: u64 = reps.iter().map(|r| r.total_cycles).sum();
            self.meter.sim_cycles.fetch_add(cycles, Ordering::Relaxed);
        }
        out
    }
}

/// One `simulate_selected` call's timing inputs, kept for the replay:
/// the points it linearized and their static resource usage.
struct SimBatch {
    points: Vec<(usize, ResourceUsage)>,
}

/// Result of one traced pass over a workload.
pub struct Traced {
    /// Wall time from the first engine call to the last finished
    /// report, seconds.
    pub wall_s: f64,
    /// Per-layer accounting.
    pub meter: Meter,
    /// Outcome per task.
    pub outcomes: Vec<Outcome>,
    /// Engine batches (`evaluate_statics` + `simulate_selected` pairs).
    pub batches: u64,
    /// Memo-cache hit fraction from the engine's own counters.
    pub cache_hit_frac: f64,
    /// Replay inputs, per task.
    sim_batches: Vec<Vec<SimBatch>>,
}

/// Drive every task of `setup` with every layer wrapped. The search
/// loops mirror `SearchStrategy::run_source` and
/// `BranchAndBound::run_space` call for call, so the outcome must equal
/// the untraced run's (the gate checks it).
pub fn traced_run(setup: &Setup) -> Traced {
    let meter = Meter::default();
    let mut outcomes = Vec::new();
    let mut sim_batches = Vec::new();
    let (mut batches, mut timed, mut hits) = (0u64, 0usize, 0usize);
    let started = Instant::now();
    for (k, task) in setup.tasks.iter().enumerate() {
        let run = match task.strategy {
            Strategy::Bnb => drive_bnb(task, k, &setup.spec, &meter),
            _ => drive_one_shot(task, k, &setup.spec, &meter),
        };
        batches += run.sim_batches.len() as u64;
        timed += run.stats.timed;
        hits += run.stats.cache_hits;
        outcomes.push(run.outcome);
        sim_batches.push(run.sim_batches);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cache_hit_frac = if timed == 0 { 0.0 } else { hits as f64 / timed as f64 };
    Traced { wall_s, meter, outcomes, batches, cache_hit_frac, sim_batches }
}

struct TaskRun {
    outcome: Outcome,
    stats: EngineStats,
    sim_batches: Vec<SimBatch>,
}

fn drive_one_shot(task: &Task, k: usize, spec: &MachineSpec, meter: &Meter) -> TaskRun {
    let strategy: Box<dyn SearchStrategy> = match task.strategy {
        Strategy::Pareto => Box::new(PrunedSearch::default()),
        _ => Box::new(ExhaustiveSearch),
    };
    let engine = &task.engine;
    let inner = crate::workload::source(task);
    let source = TracedSource { inner: &inner, meter, task: k };
    engine.convergence().reset();
    let mut stats = engine.stats_seed();
    let mut quarantined = Vec::new();
    let metrics_eval = MetricsEval {
        options: strategy.metrics_options(),
        verify: false,
        check_races: engine.config.check_races,
    };
    let statics = engine.evaluate_statics(
        &TracedStatic { inner: &metrics_eval, meter },
        &source,
        spec,
        &mut stats,
        &mut quarantined,
    );
    let selected = meter.time(Layer::Select, || strategy.select(&statics));
    meter.selected.fetch_add(selected.len() as u64, Ordering::Relaxed);
    let sim_eval = SimulatorEval::from_config(&engine.config);
    let simulated = engine.simulate_selected(
        &TracedTiming { inner: &sim_eval, meter },
        &source,
        &statics,
        &selected,
        spec,
        &mut stats,
        &mut quarantined,
    );
    let batch = SimBatch { points: eligible(&selected, &statics) };
    finish(
        task,
        engine,
        stats,
        &simulated,
        quarantined.len(),
        |i| task.points[i].to_string(),
        vec![batch],
    )
}

/// Selected indices with a valid static evaluation, and their usage —
/// what the engine linearizes and keys.
fn eligible(selected: &[usize], statics: &[Option<Evaluated>]) -> Vec<(usize, ResourceUsage)> {
    selected
        .iter()
        .filter_map(|&i| statics.get(i)?.as_ref().map(|e| (i, e.kernel_profile.usage)))
        .collect()
}

/// The report's closing steps (`finish_report`): best by first minimum,
/// convergence finished, deterministic metrics.
fn finish(
    task: &Task,
    engine: &optspace::EvalEngine,
    stats: EngineStats,
    simulated: &[Option<TimingReport>],
    quarantined: usize,
    label_of: impl Fn(usize) -> String,
    sim_batches: Vec<SimBatch>,
) -> TaskRun {
    let best = simulated
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.as_ref().map(|t| (i, t.time_ms)))
        .min_by(|a, b| a.1.total_cmp(&b.1));
    engine.convergence().finish(stats.bound_pruned_points as u64);
    let metrics = EngineMetrics::from_stats(&stats).with_convergence(engine.convergence().curve());
    let outcome = Outcome {
        task: task.name.to_string(),
        best_label: best.map(|(i, _)| label_of(i)),
        best_ms: best.map(|(_, t)| t),
        deterministic: metrics.deterministic_json().to_string_compact(),
        unique_sims: stats.unique_sims,
        sims_to_best: metrics.convergence.unique_to_optimum().unwrap_or(0),
        quarantined,
        decided: simulated.len() - quarantined,
    };
    TaskRun { outcome, stats, sim_batches }
}

/// A frontier entry, ordered as a min-heap element on `(key, rank)`
/// like the library's branch-and-bound frontier.
struct Node {
    key: f64,
    rank: usize,
    partial: PartialPoint,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.total_cmp(&self.key).then_with(|| other.rank.cmp(&self.rank))
    }
}

/// `BranchAndBound::run_space` for an unconstrained space with no
/// budget, store or checkpoint — the configuration `fine-bnb` runs.
fn drive_bnb(task: &Task, k: usize, spec: &MachineSpec, meter: &Meter) -> TaskRun {
    let engine = &task.engine;
    let space = &task.space;
    assert_eq!(space.len(), space.grid_len(), "the traced bnb loop needs an unconstrained space");
    let app_inst = AppInstantiator(task.app.as_ref());
    let inst = TracedInst { inner: &app_inst, meter, task: k };
    engine.convergence().reset();
    let bound = meter.time(Layer::Probe, || ProbeBound::new(space, &inst, spec));
    let mut stats = engine.stats_seed();
    let mut quarantined = 0usize;
    let n = space.len();
    let mut simulated: Vec<Option<TimingReport>> = vec![None; n];
    let mut sim_batches = Vec::new();
    let metrics_eval = MetricsEval {
        options: Default::default(),
        verify: false,
        check_races: engine.config.check_races,
    };
    let static_eval = TracedStatic { inner: &metrics_eval, meter };
    let sim_eval = SimulatorEval::from_config(&engine.config);
    let timing_eval = TracedTiming { inner: &sim_eval, meter };

    let mut heap = BinaryHeap::new();
    if n > 0 {
        let root = space.partial();
        let key = meter.time(Layer::Probe, || bound.bound_ms(&root));
        heap.push(Node { key, rank: root.first_grid_rank(), partial: root });
    }
    let mut incumbent = f64::INFINITY;
    let mut pruned: Vec<PartialPoint> = Vec::new();
    while let Some(node) = heap.pop() {
        if node.key > incumbent {
            pruned.push(node.partial);
            pruned.extend(std::iter::from_fn(|| heap.pop()).map(|n| n.partial));
            break;
        }
        if node.partial.is_complete() {
            let mut points = vec![node.partial.as_point().expect("complete")];
            while heap.peek().is_some_and(|top| top.partial.is_complete() && top.key <= incumbent) {
                let leaf = heap.pop().expect("peeked");
                points.push(leaf.partial.as_point().expect("complete"));
            }
            let ranks: Vec<usize> = points.iter().map(Point::ordinal).collect();
            let batch = PointBatch::new(points, &inst);
            let mut batch_quarantine = Vec::new();
            let statics = engine.evaluate_statics(
                &static_eval,
                &batch,
                spec,
                &mut stats,
                &mut batch_quarantine,
            );
            let selected = meter.time(Layer::Select, || {
                statics
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|_| i))
                    .collect::<Vec<_>>()
            });
            meter.selected.fetch_add(selected.len() as u64, Ordering::Relaxed);
            let sims = engine.simulate_selected(
                &timing_eval,
                &batch,
                &statics,
                &selected,
                spec,
                &mut stats,
                &mut batch_quarantine,
            );
            quarantined += batch_quarantine.len();
            let mut replay = eligible(&selected, &statics);
            for entry in &mut replay {
                entry.0 = ranks[entry.0];
            }
            sim_batches.push(SimBatch { points: replay });
            for (local, rank) in ranks.into_iter().enumerate() {
                if let Some(t) = &sims[local] {
                    incumbent = incumbent.min(t.time_ms);
                }
                simulated[rank] = sims[local].clone();
            }
        } else {
            for child in node.partial.split() {
                let key = meter.time(Layer::Probe, || bound.bound_ms(&child)).max(node.key);
                heap.push(Node { key, rank: child.first_grid_rank(), partial: child });
            }
        }
    }
    meter.time(Layer::Probe, || {
        let probed = bound.instantiated_ranks();
        stats.bound_pruned_subspaces = pruned.len();
        for sub in &pruned {
            let inside = probed.iter().filter(|&&r| sub.contains_admitted_rank(r)).count();
            stats.bound_pruned_points += sub.admitted_count().saturating_sub(inside);
        }
    });
    let label_of =
        |i: usize| space.point_at_grid_rank(i).map(|p| p.to_string()).unwrap_or_default();
    finish(task, engine, stats, &simulated, quarantined, label_of, sim_batches)
}

/// Replay the engine's internal steps of a traced pass on the same
/// inputs — linearize, exact/class keys with the engine's per-call
/// dedup, decode once per class (shared across a task's batches) — and
/// charge them to their layers.
pub fn replay_internal_layers(setup: &Setup, traced: &Traced) {
    let meter = &traced.meter;
    for (task, batches) in setup.tasks.iter().zip(&traced.sim_batches) {
        let mut decoded: HashSet<u64> = HashSet::new();
        for batch in batches {
            let mut unique: HashSet<u64> = HashSet::new();
            for &(index, usage) in &batch.points {
                let candidate = instantiate(task, index);
                let prog = meter.time(Layer::Linearize, || linearize(&candidate.kernel));
                let launch = candidate.launch;
                let exact = meter
                    .time(Layer::Key, || cache::exact_key(&prog, &launch, &usage, &setup.spec));
                if !unique.insert(exact) {
                    continue;
                }
                let class = meter
                    .time(Layer::Key, || cache::class_key(&prog, &launch, &usage, &setup.spec));
                if decoded.insert(class.hash) {
                    std::hint::black_box(meter.time(Layer::Decode, || DecodedProgram::new(prog)));
                }
            }
        }
    }
}

/// The candidate behind a replay index: a point index for a point list,
/// a grid rank for a whole-space search.
fn instantiate(task: &Task, index: usize) -> Candidate {
    match task.strategy {
        Strategy::Bnb => {
            task.app.instantiate(&task.space.point_at_grid_rank(index).expect("rank in grid"))
        }
        _ => task.app.instantiate(&task.points[index]),
    }
}

/// The layer table of a sequential traced pass: every row's self time,
/// calls and share of `wall_s`, and an `unattributed` row holding the
/// rest, so the rows add up to the wall time.
pub struct LayerTable {
    /// `(metric name, self seconds, calls)` per layer.
    pub rows: Vec<(&'static str, f64, u64)>,
    /// Wall time not covered by any row. It can be slightly negative
    /// when a replayed layer runs slower in replay than it did inside
    /// the engine.
    pub unattributed_s: f64,
    /// Traced wall time.
    pub wall_s: f64,
}

impl LayerTable {
    /// Table of a traced pass.
    pub fn of(traced: &Traced) -> LayerTable {
        let rows: Vec<(&'static str, f64, u64)> = Layer::ALL
            .iter()
            .map(|&l| (l.metric(), traced.meter.seconds(l), traced.meter.calls(l)))
            .collect();
        let covered: f64 = rows.iter().map(|r| r.1).sum();
        LayerTable { rows, unattributed_s: traced.wall_s - covered, wall_s: traced.wall_s }
    }

    /// Rendered table.
    pub fn render(&self) -> String {
        let mut out = format!("{:<24} {:>12} {:>10} {:>8}\n", "layer", "self_s", "calls", "share");
        let share = |s: f64| if self.wall_s > 0.0 { 100.0 * s / self.wall_s } else { 0.0 };
        for &(name, s, calls) in &self.rows {
            out += &format!("{name:<24} {s:>12.4} {calls:>10} {:>7.1}%\n", share(s));
        }
        out += &format!(
            "{:<24} {:>12.4} {:>10} {:>7.1}%\n",
            "unattributed",
            self.unattributed_s,
            "-",
            share(self.unattributed_s)
        );
        out += &format!("{:<24} {:>12.4} {:>10} {:>7.1}%\n", "wall", self.wall_s, "-", 100.0);
        out
    }
}

/// Per-layer counters beyond self time, for the metrics line.
pub struct LayerCounts {
    /// Instantiate calls per distinct point.
    pub calls_per_point: f64,
    /// Static evaluations that rejected their candidate, per call.
    pub invalid_frac: f64,
    /// Candidates selected for timing.
    pub selected: u64,
    /// Family simulation calls.
    pub family_calls: u64,
    /// Simulated cycles per second of simulator time.
    pub cycles_per_host_s: f64,
    /// Simulator call latencies, ms, ascending.
    pub sim_call_ms: Vec<f64>,
}

impl LayerCounts {
    /// Counters of a traced pass.
    pub fn of(meter: &Meter) -> LayerCounts {
        let points = meter.points.lock().expect("point set poisoned").len().max(1);
        let statics = meter.calls(Layer::StaticEval).max(1);
        let mut sim_call_ms: Vec<f64> = meter
            .sim_call_ns
            .lock()
            .expect("latency list poisoned")
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        sim_call_ms.sort_by(f64::total_cmp);
        let sim_s = meter.seconds(Layer::Simulate);
        LayerCounts {
            calls_per_point: meter.calls(Layer::Instantiate) as f64 / points as f64,
            invalid_frac: meter.invalid.load(Ordering::Relaxed) as f64 / statics as f64,
            selected: meter.selected.load(Ordering::Relaxed),
            family_calls: meter.family_calls.load(Ordering::Relaxed),
            cycles_per_host_s: if sim_s > 0.0 {
                meter.sim_cycles.load(Ordering::Relaxed) as f64 / sim_s
            } else {
                0.0
            },
            sim_call_ms,
        }
    }
}
