//! Search strategies over a configuration space.
//!
//! * [`ExhaustiveSearch`] — simulate every valid configuration; the
//!   paper's ground truth ("full exploration of the optimization space
//!   based on wall-clock performance").
//! * [`PrunedSearch`] — the paper's contribution: statically evaluate
//!   everything, optionally screen bandwidth-bound points (section 5.3),
//!   keep the Pareto-optimal subset of the metric plot, and simulate
//!   only those.
//! * [`RandomSearch`] — the baseline the paper's future work proposes
//!   comparing against: simulate a random sample of equal budget.
//! * [`BranchAndBound`] — best-first search over subspaces, discarding
//!   whole subspaces an admissible bound proves slower than the
//!   incumbent.
//!
//! A strategy is only a *selection policy*: it names itself, picks a
//! metric variant, and chooses which candidate indices deserve timing
//! simulation. Everything mechanical — static evaluation, memoized and
//! parallel simulation, invocation scaling, budget enforcement — lives
//! in the shared [`EvalEngine`], which [`SearchStrategy::run_with`]
//! drives. [`SearchStrategy::run`] is the same thing on a default
//! (single-worker, unlimited) engine and reproduces the historical
//! sequential behavior exactly.
//!
//! Every search runs through one loop, [`run_iterative`], over one
//! protocol, [`IterativeStrategy`]: the strategy proposes a batch of
//! candidate indices, the loop evaluates and simulates it on the
//! engine, and the timings come back as [`Observation`]s before the
//! next batch. A one-shot [`SearchStrategy`] is a single-round proposer
//! of its selection; the feedback-driven zoo ([`crate::zoo`]) proposes
//! round after round; branch-and-bound proposes frontier leaves and is
//! statically evaluated only on those. Determinism contract: a
//! strategy's randomness per round must be a pure function of
//! `(strategy seed, round)`, so reports, canonical traces, and
//! convergence curves are byte-identical at any `--jobs`. Because a
//! rerun proposes exactly what the original run proposed, resuming a
//! checkpointed search is a replay of it.

use std::borrow::Cow;
use std::collections::BinaryHeap;

use gpu_arch::MachineSpec;
use gpu_ir::Launch;
use gpu_sim::timing::TimingReport;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::candidate::{Candidate, Evaluated};
use crate::engine::{EngineStats, EvalBudget, EvalEngine, MetricsEval, Quarantine, SimulatorEval};
use crate::metrics::MetricsOptions;
use crate::model::{LowerBound, ProbeBound};
use crate::obs::{EngineMetrics, EventKind, Json};
use crate::pareto::pareto_indices;
use crate::space::{CandidateSource, Instantiator, PartialPoint, Point, SelectionRecord, Space};

pub use crate::engine::LAUNCH_OVERHEAD_MS;

/// Outcome of one search over a candidate space.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Strategy name for report rows.
    pub strategy: String,
    /// Total configurations in the space (valid or not).
    pub space_size: usize,
    /// Static evaluation per candidate; `None` marks the paper's
    /// "invalid executable" cases and candidates quarantined during
    /// static evaluation.
    pub statics: Vec<Option<Evaluated>>,
    /// Timing simulation per candidate; `None` when the strategy did not
    /// simulate that configuration or quarantined it during timing.
    pub simulated: Vec<Option<TimingReport>>,
    /// Index of the fastest simulated configuration.
    pub best: Option<usize>,
    /// Candidates removed from the search by evaluation failures, in
    /// candidate-index order — the degraded-mode section of the report.
    /// The search result covers the rest of the space; each entry
    /// records what failed and after how many attempts.
    pub quarantined: Vec<Quarantine>,
    /// Worker threads the engine ran on.
    pub jobs: usize,
    /// Budget the engine ran under.
    pub budget: EvalBudget,
    /// What the evaluation engine did: unique simulations, memo-cache
    /// hits, budget status, retries, quarantines.
    pub stats: EngineStats,
    /// Aggregated metrics snapshot: `stats`, the convergence curve, and
    /// wall-clock runtime measurements when the engine carried an event
    /// sink.
    pub metrics: EngineMetrics,
    /// The declarative selection (`--filter`/`--sample`) this search ran
    /// under, when the caller narrowed the space before searching. The
    /// run manifest records it so a sharded sweep stays reconstructible.
    pub selection: Option<SelectionRecord>,
}

impl SearchReport {
    /// Number of valid (launchable) configurations.
    pub fn valid_count(&self) -> usize {
        self.statics.iter().flatten().count()
    }

    /// Number of configurations this strategy actually timed — the
    /// "Selected Configurations" column of Table 4.
    pub fn evaluated_count(&self) -> usize {
        self.simulated.iter().flatten().count()
    }

    /// Sum of simulated kernel times over the timed configurations — the
    /// "Evaluation Time" columns of Table 4 (time a developer would
    /// spend running them on hardware).
    pub fn evaluation_time_ms(&self) -> f64 {
        // fold, not sum: an empty f64 sum is -0.0, which would print as
        // "-0.0 us" for an empty selection.
        self.simulated.iter().flatten().map(|t| t.time_ms).fold(0.0, |a, b| a + b)
    }

    /// Best (minimum) simulated time.
    pub fn best_time_ms(&self) -> Option<f64> {
        self.best.and_then(|i| self.simulated[i].as_ref()).map(|t| t.time_ms)
    }

    /// Fraction of the valid space this strategy did *not* have to time —
    /// the "Space Reduction" column of Table 4.
    pub fn space_reduction(&self) -> f64 {
        let valid = self.valid_count();
        if valid == 0 {
            return 0.0;
        }
        1.0 - self.evaluated_count() as f64 / valid as f64
    }

    /// Number of candidates quarantined by evaluation failures.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// Fraction of the space with a definitive outcome (a result or a
    /// deliberate non-selection), i.e. everything except quarantined
    /// candidates. `1.0` means the search saw the whole space.
    pub fn coverage(&self) -> f64 {
        if self.space_size == 0 {
            return 1.0;
        }
        1.0 - self.quarantined.len() as f64 / self.space_size as f64
    }

    fn pick_best(&mut self) {
        self.best = self
            .simulated
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (i, t.time_ms)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i);
    }
}

/// A one-shot search strategy: a selection policy that sees the whole
/// space's static evaluations once and picks what to simulate. It runs
/// as a single-round proposer of [`run_iterative`].
pub trait SearchStrategy {
    /// Strategy name for report rows.
    fn name(&self) -> String;

    /// Metric variant used for static evaluation.
    fn metrics_options(&self) -> MetricsOptions {
        MetricsOptions::default()
    }

    /// Choose which candidate indices to timing-simulate, given the
    /// static evaluations. Returned indices must refer to valid
    /// (`Some`) entries of `statics`.
    fn select(&self, statics: &[Option<Evaluated>]) -> Vec<usize>;

    /// Run on a default engine: one worker, no budget — the reference
    /// sequential path.
    fn run(&self, candidates: &[Candidate], spec: &MachineSpec) -> SearchReport {
        self.run_with(&EvalEngine::default(), candidates, spec)
    }

    /// Run on an explicit engine over an eager, materialized slice.
    fn run_with(
        &self,
        engine: &EvalEngine,
        candidates: &[Candidate],
        spec: &MachineSpec,
    ) -> SearchReport {
        self.run_source(engine, &candidates, spec)
    }

    /// Run on an explicit engine over any [`CandidateSource`] — an eager
    /// slice or a lazy point view instantiating candidates inside the
    /// worker pool: statics of the whole source, then one round
    /// simulating the selection. Reports are byte-identical between
    /// eager and lazy sources of the same space.
    fn run_source(
        &self,
        engine: &EvalEngine,
        source: &dyn CandidateSource,
        spec: &MachineSpec,
    ) -> SearchReport {
        run_iterative(&mut OneShot { strategy: self, selection: Vec::new() }, engine, source, spec)
    }
}

/// A [`SearchStrategy`] as a proposer: it selects from the whole
/// source's statics in `begin` and proposes that selection once.
struct OneShot<'a, S: ?Sized> {
    strategy: &'a S,
    selection: Vec<usize>,
}

impl<S: SearchStrategy + ?Sized> IterativeStrategy for OneShot<'_, S> {
    fn name(&self) -> String {
        self.strategy.name()
    }

    fn metrics_options(&self) -> MetricsOptions {
        self.strategy.metrics_options()
    }

    fn begin(&mut self, ctx: &IterationContext) {
        self.selection = self.strategy.select(ctx.statics);
    }

    fn propose(&mut self, _observed: &[Observation]) -> Vec<usize> {
        std::mem::take(&mut self.selection)
    }
}

/// Close out a search: sort the quarantine section, pick the best
/// result, finish the convergence curve, attach metrics, and emit the
/// closing trace events.
fn finish_report(
    engine: &EvalEngine,
    strategy: String,
    space_size: usize,
    statics: Vec<Option<Evaluated>>,
    simulated: Vec<Option<TimingReport>>,
    mut quarantined: Vec<Quarantine>,
    stats: EngineStats,
) -> SearchReport {
    // Static- and timing-phase entries each arrive in index order;
    // merge them into one index-ordered section.
    quarantined.sort_by_key(|q| q.candidate);
    let mut report = SearchReport {
        strategy,
        space_size,
        statics,
        simulated,
        best: None,
        quarantined,
        jobs: engine.config.jobs,
        budget: engine.config.budget,
        stats,
        metrics: EngineMetrics::default(),
        selection: None,
    };
    report.pick_best();
    engine.convergence().finish(stats.bound_pruned_points as u64);
    report.metrics =
        EngineMetrics::from_stats(&stats).with_convergence(engine.convergence().curve());
    if let Some(sink) = engine.sink() {
        report.metrics.runtime = sink.runtime_metrics(engine.config.jobs);
        // Runtime scope: the canonical trace stays identical at any
        // `--jobs`, and `trace report` prints the `--profile` table.
        sink.runtime(EventKind::Counter, "engine.runtime", report.metrics.runtime.fields());
    }
    engine.emit(EventKind::Counter, "engine.metrics", report.metrics.deterministic_fields());
    engine.emit(
        EventKind::End,
        "search",
        vec![
            ("best", Json::from(report.best)),
            ("best_time_ms", Json::from(report.best_time_ms())),
            ("timed", Json::from(report.evaluated_count())),
        ],
    );
    report
}

/// What a strategy sees before its first proposal.
pub struct IterationContext<'a> {
    /// Static evaluation per candidate in dense enumeration order;
    /// `None` marks invalid candidates (the loop never dispatches
    /// them, so strategies should not waste proposals there) — and
    /// every candidate when the strategy does not take its statics up
    /// front.
    pub statics: &'a [Option<Evaluated>],
    /// The candidate source under search.
    pub source: &'a dyn CandidateSource,
    /// Machine model.
    pub spec: &'a MachineSpec,
}

/// The outcome of one candidate a strategy proposed, fed back before
/// its next batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Candidate index (dense enumeration ordinal of the source).
    pub candidate: usize,
    /// Scaled simulated time; `None` means the candidate failed
    /// permanently (it was quarantined) — the loop will never dispatch
    /// it again, so the strategy must write it off too.
    pub time_ms: Option<f64>,
}

/// The search protocol every strategy speaks: batches of candidate
/// proposals alternating with observed timing results.
///
/// Contract (enforced in part by [`run_iterative`]):
///
/// * **Per-round seeding** — any randomness inside `propose` must be a
///   pure function of `(strategy seed, round index)`, never of wall
///   clock or iteration timing, so runs are byte-identical at any
///   worker count.
/// * **No re-proposals** — every observation is final. A failed
///   (quarantined) candidate is observed with `time_ms: None` exactly
///   once and must be written off; the loop silently drops any index
///   it has already dispatched.
/// * **Termination** — an empty batch ends the search (the first round
///   always runs, so a one-shot search over an empty selection still
///   has its timing phase). Budgeted strategies stop proposing once
///   their budget is spent; the loop additionally ends when the
///   engine's sim/deadline budget trips or a stop is requested.
pub trait IterativeStrategy {
    /// Strategy name for report rows. Seeded strategies include their
    /// seed (`hill-64-s7`) so two runs differing only in seed stay
    /// distinguishable in manifests, BENCH keys, and checkpoints.
    fn name(&self) -> String;

    /// Metric variant used for static evaluation.
    fn metrics_options(&self) -> MetricsOptions {
        MetricsOptions::default()
    }

    /// Whether the loop statically evaluates the whole source before
    /// [`IterativeStrategy::begin`] (the default). A strategy answering
    /// `false` starts from no statics and has only the candidates it
    /// proposes evaluated, round by round.
    fn statics_up_front(&self) -> bool {
        true
    }

    /// Called once per search, before the first `propose`.
    fn begin(&mut self, ctx: &IterationContext);

    /// Next batch of candidate indices given the previous batch's
    /// decided outcomes (empty slice on the first call).
    fn propose(&mut self, observed: &[Observation]) -> Vec<usize>;

    /// Called once after the last round, before the report is
    /// assembled: a strategy that discarded candidates without
    /// proposing them accounts for them here.
    fn end(&mut self, stats: &mut EngineStats) {
        let _ = stats;
    }
}

/// The search loop. Statics (for the whole source, or per round for a
/// strategy that takes them on demand), then rounds of: the strategy's
/// proposal, sanitized; statics for proposed candidates that lack them;
/// simulation of the statically valid ones on an engine clone holding
/// the budget the search has left; and the outcomes fed back as
/// [`Observation`]s. It stops on an empty batch, a budget truncation,
/// or [`EvalEngine::stop_requested`], then assembles the report.
///
/// The memo cache, result store, checkpointer, fault plan and
/// convergence recorder are shared by the per-round engine clones, so
/// accounting threads through every round unchanged, and the assembled
/// report is byte-identical at any `jobs`. A stopped search leaves its
/// completed results in the checkpoint; resuming reruns this loop from
/// the start with those results served in place of simulations.
pub fn run_iterative(
    strategy: &mut dyn IterativeStrategy,
    engine: &EvalEngine,
    source: &dyn CandidateSource,
    spec: &MachineSpec,
) -> SearchReport {
    let n = source.len();
    engine.emit(
        EventKind::Begin,
        "search",
        vec![("strategy", Json::from(strategy.name())), ("space", Json::from(n))],
    );
    engine.convergence().reset();
    let mut stats = engine.stats_seed();
    let mut quarantined: Vec<Quarantine> = Vec::new();
    let static_eval = MetricsEval {
        options: strategy.metrics_options(),
        verify: false,
        check_races: engine.config.check_races,
    };
    let statics_of =
        |view: &dyn CandidateSource, stats: &mut EngineStats, quar: &mut Vec<Quarantine>| {
            engine.evaluate_statics(&static_eval, view, spec, stats, quar)
        };
    let timing_eval = SimulatorEval::from_config(&engine.config);

    let up_front = strategy.statics_up_front();
    let mut statics =
        if up_front { statics_of(source, &mut stats, &mut quarantined) } else { vec![None; n] };
    strategy.begin(&IterationContext { statics: &statics, source, spec });

    // Invalid candidates already have their verdict; everything else
    // gets one when it is first dispatched.
    let mut decided: Vec<bool> = statics.iter().map(|s| up_front && s.is_none()).collect();
    let mut simulated: Vec<Option<TimingReport>> = vec![None; n];
    let mut observed: Vec<Observation> = Vec::new();
    let mut spent_ms = 0.0f64;
    for round in 0usize.. {
        let batch = sanitize(strategy.propose(&observed), &mut decided);
        if batch.is_empty() && round > 0 {
            break;
        }
        engine.emit(
            EventKind::Point,
            "search.round",
            vec![("round", Json::from(round)), ("batch", Json::from(batch.len()))],
        );
        // Budgets are enforced per engine call; hand each round only
        // what the whole search has left.
        let mut round_engine = engine.clone();
        if let Some(cap) = engine.config.budget.max_sims {
            round_engine.config.budget.max_sims = Some(cap.saturating_sub(stats.unique_sims));
        }
        if let Some(deadline) = engine.config.budget.deadline_ms {
            round_engine.config.budget.deadline_ms = Some(deadline - spent_ms);
        }

        // The round's engine calls index the view its statics come
        // from: the whole source, or — statics on demand — the batch
        // itself, renumbered by position. Either way, events and
        // quarantine records name candidates by their index in `source`.
        let subset = Subset { source, indices: &batch };
        let mut round_quar: Vec<Quarantine> = Vec::new();
        let fresh =
            if up_front { Vec::new() } else { statics_of(&subset, &mut stats, &mut round_quar) };
        let valid = valid_indices(&fresh);
        let (view, view_statics, selected): (&dyn CandidateSource, &[Option<Evaluated>], &[usize]) =
            if up_front { (source, &statics, &batch) } else { (&subset, &fresh, &valid) };
        let mut sims = round_engine.simulate_selected(
            &timing_eval,
            view,
            view_statics,
            selected,
            spec,
            &mut stats,
            &mut round_quar,
        );
        if !up_front {
            for (&i, s) in batch.iter().zip(fresh) {
                statics[i] = s;
            }
        }

        let mut failed: Vec<usize> = round_quar.iter().map(|q| q.candidate).collect();
        failed.sort_unstable();
        observed.clear();
        for (k, &i) in batch.iter().enumerate() {
            let time_ms = match sims[if up_front { i } else { k }].take() {
                Some(t) => {
                    spent_ms += t.time_ms;
                    let time_ms = t.time_ms;
                    simulated[i] = Some(t);
                    Some(time_ms)
                }
                // Quarantined: a final verdict, observed as a failure.
                // Statically invalid and budget-truncated candidates
                // have no outcome to observe.
                None if failed.binary_search(&i).is_ok() => None,
                None => continue,
            };
            observed.push(Observation { candidate: i, time_ms });
        }
        quarantined.extend(round_quar);
        if stats.budget_truncated || engine.stop_requested() {
            break;
        }
    }
    strategy.end(&mut stats);
    finish_report(engine, strategy.name(), n, statics, simulated, quarantined, stats)
}

/// A proposed batch as the loop dispatches it: in-range, not yet
/// decided indices, each once, in proposal order. Every kept index is
/// marked decided as it is taken, so the pass is linear in the batch.
fn sanitize(proposed: Vec<usize>, decided: &mut [bool]) -> Vec<usize> {
    proposed
        .into_iter()
        .filter(|&i| i < decided.len() && !std::mem::replace(&mut decided[i], true))
        .collect()
}

/// The candidates at `indices` of `source`, renumbered by position;
/// events and quarantine records still name them by their index in
/// `source`.
struct Subset<'a> {
    source: &'a dyn CandidateSource,
    indices: &'a [usize],
}

impl CandidateSource for Subset<'_> {
    fn len(&self) -> usize {
        self.indices.len()
    }

    fn label(&self, index: usize) -> String {
        self.source.label(self.indices[index])
    }

    fn get(&self, index: usize) -> Cow<'_, Candidate> {
        self.source.get(self.indices[index])
    }

    fn launch(&self, index: usize) -> Option<Launch> {
        self.source.launch(self.indices[index])
    }

    fn ordinal(&self, index: usize) -> usize {
        self.source.ordinal(self.indices[index])
    }
}

/// All valid candidate indices, in order.
fn valid_indices(statics: &[Option<Evaluated>]) -> Vec<usize> {
    statics.iter().enumerate().filter_map(|(i, e)| e.as_ref().map(|_| i)).collect()
}

/// Simulate every valid configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSearch;

impl SearchStrategy for ExhaustiveSearch {
    fn name(&self) -> String {
        "exhaustive".into()
    }

    fn select(&self, statics: &[Option<Evaluated>]) -> Vec<usize> {
        valid_indices(statics)
    }
}

/// The paper's Pareto-pruned search.
#[derive(Debug, Clone, Copy)]
pub struct PrunedSearch {
    /// Screen bandwidth-bound configurations before building the curve
    /// (section 5.3). Disabling this is the `ablation_bandwidth`
    /// experiment.
    pub screen_bandwidth: bool,
    /// Metric variant.
    pub options: MetricsOptions,
}

impl Default for PrunedSearch {
    fn default() -> Self {
        Self { screen_bandwidth: true, options: MetricsOptions::default() }
    }
}

impl SearchStrategy for PrunedSearch {
    fn name(&self) -> String {
        "pareto-pruned".into()
    }

    fn metrics_options(&self) -> MetricsOptions {
        self.options
    }

    fn select(&self, statics: &[Option<Evaluated>]) -> Vec<usize> {
        // Candidates entering the plot: valid, and (optionally) not
        // bandwidth-bound. If the screen removes everything (a fully
        // bandwidth-bound space), fall back to the unscreened plot.
        // Carry the evaluation alongside its index so "eligible" cannot
        // drift out of sync with "valid" — no unwrap needed downstream.
        let eligible: Vec<(usize, &Evaluated)> = {
            let valid: Vec<(usize, &Evaluated)> =
                statics.iter().enumerate().filter_map(|(i, e)| Some((i, e.as_ref()?))).collect();
            let screened: Vec<(usize, &Evaluated)> = valid
                .iter()
                .copied()
                .filter(|(_, e)| !self.screen_bandwidth || !e.bandwidth.is_bandwidth_bound())
                .collect();
            if screened.is_empty() {
                valid
            } else {
                screened
            }
        };
        let points: Vec<crate::pareto::Point> =
            eligible.iter().map(|(_, e)| e.metrics.point()).collect();
        pareto_indices(&points).into_iter().map(|k| eligible[k].0).collect()
    }
}

/// Random sampling of the valid space with a fixed budget.
#[derive(Debug, Clone, Copy)]
pub struct RandomSearch {
    /// How many configurations to simulate.
    pub budget: usize,
    /// RNG seed (deterministic experiments).
    pub seed: u64,
}

impl RandomSearch {
    /// Validated constructor — the canonical entry point for CLI and
    /// bench wiring. A zero budget selects nothing and would report an
    /// empty search as if it had run; refuse it up front.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(budget: usize, seed: u64) -> Self {
        assert!(budget >= 1, "a budgeted strategy needs a budget >= 1");
        Self { budget, seed }
    }
}

impl SearchStrategy for RandomSearch {
    fn name(&self) -> String {
        // Budget *and* seed: two runs differing only in seed must stay
        // distinguishable in manifests, profiles, and BENCH json keys.
        format!("random-{}-s{}", self.budget, self.seed)
    }

    fn select(&self, statics: &[Option<Evaluated>]) -> Vec<usize> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut picks = valid_indices(statics);
        picks.shuffle(&mut rng);
        picks.truncate(self.budget);
        picks
    }
}

/// Best-first branch-and-bound over a structured [`Space`]: subspaces
/// ([`PartialPoint`]s) sit on a frontier keyed by an admissible
/// [`LowerBound`], and a subspace whose bound exceeds the incumbent
/// (best simulated time so far) is discarded *whole* — none of its
/// interior points is ever instantiated. This is the refactor the
/// Telamon line of work motivates: prune subspaces, not candidates.
///
/// The search is a proposer of [`run_iterative`] over partially
/// specified points: each round it proposes the maximal run of ready
/// frontier leaves, which the loop evaluates statically and simulates;
/// the observed times lower the incumbent before the next round.
///
/// Exactness: pruning is strictly `bound > incumbent`, so any point at
/// least as fast as the final optimum has `floor ≤ optimum ≤ incumbent`
/// at every moment and can never be pruned — it is simulated, and
/// `SearchReport::pick_best`'s first-index tie-break then matches
/// exhaustive search configuration-for-configuration.
///
/// Determinism: the frontier is a binary min-heap ordered by
/// `(bound, first_grid_rank)` — total on coexisting frontier nodes
/// because splitting always binds the first unbound axis, so two
/// coexisting subspaces differ somewhere in their common bound prefix
/// and thus in their first grid rank. The frontier is walked
/// sequentially; worker parallelism lives entirely inside the engine's
/// round calls, which reassemble in deterministic order. Reports are
/// therefore byte-identical at any `--jobs`.
///
/// A child's key is `max(parent key, child bound)`, which makes the
/// popped-key sequence non-decreasing even if a bound implementation
/// loses monotonicity to legalization; combined with a monotonically
/// non-increasing incumbent, the *first* prune decision ends the
/// search — everything still on the heap is pruned in one drain.
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchAndBound;

impl BranchAndBound {
    /// Run branch-and-bound over a structured space with the production
    /// [`ProbeBound`]. Only frontier leaves that survive bounding reach
    /// instantiation and simulation; everything else is accounted in
    /// `stats.bound_pruned_subspaces` / `stats.bound_pruned_points`.
    pub fn run_space(
        &self,
        engine: &EvalEngine,
        space: &Space,
        inst: &dyn Instantiator,
        spec: &MachineSpec,
    ) -> SearchReport {
        let grid = SpaceGrid::new(space, inst);
        let mut frontier = Frontier::new(engine, &grid, spec);
        run_iterative(&mut frontier, engine, &grid, spec)
    }
}

/// Every admitted point of a space as a lazy [`CandidateSource`] in
/// dense enumeration order; a point is built from its grid rank only
/// when a worker asks for its candidate.
struct SpaceGrid<'a> {
    space: &'a Space,
    inst: &'a dyn Instantiator,
    /// Full-grid rank per dense index (ascending) when constraints
    /// exclude points; `None` when the two coincide.
    ranks: Option<Vec<usize>>,
}

impl<'a> SpaceGrid<'a> {
    fn new(space: &'a Space, inst: &'a dyn Instantiator) -> Self {
        // Completions carry full-grid ranks; report vectors are indexed
        // by the dense admitted ordering (`Space::points`).
        let ranks = (space.len() != space.grid_len())
            .then(|| space.partial().completions().map(|p| p.ordinal()).collect());
        Self { space, inst, ranks }
    }

    fn dense_of(&self, grid_rank: usize) -> usize {
        match &self.ranks {
            Some(ranks) => ranks.binary_search(&grid_rank).expect("frontier leaves are admitted"),
            None => grid_rank,
        }
    }

    fn point(&self, dense: usize) -> Point {
        let rank = self.ranks.as_ref().map_or(dense, |ranks| ranks[dense]);
        self.space.point_at_grid_rank(rank).expect("dense index within the space")
    }
}

impl CandidateSource for SpaceGrid<'_> {
    fn len(&self) -> usize {
        self.ranks.as_ref().map_or_else(|| self.space.grid_len(), Vec::len)
    }

    fn label(&self, index: usize) -> String {
        self.point(index).to_string()
    }

    fn get(&self, index: usize) -> Cow<'_, Candidate> {
        Cow::Owned(self.inst.instantiate(&self.point(index)))
    }

    fn launch(&self, index: usize) -> Option<Launch> {
        self.inst.launch(&self.point(index))
    }
}

/// Branch-and-bound's proposer state: the frontier heap, the incumbent
/// and the subspaces pruned so far.
struct Frontier<'a> {
    engine: &'a EvalEngine,
    grid: &'a SpaceGrid<'a>,
    bound: ProbeBound<'a>,
    heap: BinaryHeap<FrontierNode>,
    incumbent: f64,
    pruned: Vec<PartialPoint>,
}

impl<'a> Frontier<'a> {
    fn new(engine: &'a EvalEngine, grid: &'a SpaceGrid<'a>, spec: &'a MachineSpec) -> Self {
        let bound = ProbeBound::new(grid.space, grid.inst, spec);
        let mut heap = BinaryHeap::new();
        if grid.len() > 0 {
            let root = grid.space.partial();
            let key = bound.bound_ms(&root);
            heap.push(FrontierNode { key, rank: root.first_grid_rank(), partial: root });
        }
        Self { engine, grid, bound, heap, incumbent: f64::INFINITY, pruned: Vec::new() }
    }
}

impl IterativeStrategy for Frontier<'_> {
    fn name(&self) -> String {
        "bnb".into()
    }

    fn statics_up_front(&self) -> bool {
        false
    }

    fn begin(&mut self, _ctx: &IterationContext) {}

    fn propose(&mut self, observed: &[Observation]) -> Vec<usize> {
        for time_ms in observed.iter().filter_map(|o| o.time_ms) {
            if time_ms < self.incumbent {
                self.incumbent = time_ms;
            }
        }
        while let Some(node) = self.heap.pop() {
            if node.key > self.incumbent {
                // Popped keys are non-decreasing and the incumbent only
                // improves, so the first prune decision is terminal:
                // everything still on the heap is at least as bounded.
                self.engine.emit(
                    EventKind::Point,
                    "bound.prune",
                    vec![
                        ("subspaces", Json::from(self.heap.len() + 1)),
                        ("first", Json::from(node.partial.to_string())),
                        ("bound_ms", Json::from(node.key)),
                        ("incumbent_ms", Json::from(self.incumbent)),
                    ],
                );
                self.pruned.push(node.partial);
                self.pruned.extend(self.heap.drain().map(|rest| rest.partial));
                break;
            }
            if node.partial.is_complete() {
                // Propose the maximal run of ready leaves so the
                // engine's per-call memoization and family forking see
                // as many related points together as possible. A
                // complete subspace's first grid rank is its point's.
                let mut leaves = vec![self.grid.dense_of(node.rank)];
                while let Some(top) = self.heap.peek() {
                    if !(top.partial.is_complete() && top.key <= self.incumbent) {
                        break;
                    }
                    let leaf = self.heap.pop().expect("peeked");
                    leaves.push(self.grid.dense_of(leaf.rank));
                }
                return leaves;
            }
            for child in node.partial.split() {
                if self.grid.ranks.is_some() && child.completions().next().is_none() {
                    // Constraint-empty, exactly the configurations
                    // exhaustive search never enumerates either.
                    continue;
                }
                let key = self.bound.bound_ms(&child).max(node.key);
                self.heap.push(FrontierNode { key, rank: child.first_grid_rank(), partial: child });
            }
        }
        Vec::new()
    }

    fn end(&mut self, stats: &mut EngineStats) {
        // Honest elimination accounting: of each pruned subspace's
        // admitted completions, the corners the bound itself probed
        // *were* instantiated — only the rest were eliminated sight
        // unseen.
        let probed = self.bound.instantiated_ranks();
        stats.bound_pruned_subspaces = self.pruned.len();
        for sub in &self.pruned {
            let probed_inside = probed.iter().filter(|&&r| sub.contains_admitted_rank(r)).count();
            stats.bound_pruned_points += sub.admitted_count().saturating_sub(probed_inside);
        }
    }
}

/// A frontier entry: a subspace and its heap key. Ordered as a
/// *min*-heap element on `(key, first grid rank)`.
struct FrontierNode {
    key: f64,
    rank: usize,
    partial: PartialPoint,
}

impl PartialEq for FrontierNode {
    fn eq(&self, other: &Self) -> bool {
        self.key.total_cmp(&other.key).is_eq() && self.rank == other.rank
    }
}
impl Eq for FrontierNode {}
impl PartialOrd for FrontierNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest
        // (bound, rank) on top.
        other.key.total_cmp(&self.key).then_with(|| other.rank.cmp(&self.rank))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::{Dim, Kernel, Launch};

    /// A small synthetic space: a compute loop whose per-thread work and
    /// register appetite vary with a "tiling" knob, so configurations
    /// genuinely trade efficiency against utilization.
    pub(super) fn synthetic_space_for_debug() -> Vec<Candidate> {
        synthetic_space()
    }
    fn synthetic_space() -> Vec<Candidate> {
        fn kernel(tile: u32, pad_regs: u32) -> Kernel {
            let mut b = KernelBuilder::new(format!("syn{tile}"));
            let p = b.param(0);
            // pad_regs long-lived values inflate register pressure.
            let pads: Vec<_> = (0..pad_regs).map(|i| b.mov(i as f32)).collect();
            let acc = b.mov(0.0f32);
            b.repeat(64 / tile, |b| {
                let x = b.ld_global(p, 0);
                for _ in 0..tile {
                    b.fmad_acc(x, 1.0f32, acc);
                }
                b.sync();
            });
            for pad in pads {
                b.fmad_acc(pad, 0.0f32, acc);
            }
            b.st_global(p, 0, acc);
            b.finish()
        }
        let mut out = Vec::new();
        for tile in [1u32, 2, 4, 8] {
            for pad in [0u32, 8, 20] {
                let total = 1u32 << 14;
                let tpb = 256;
                out.push(Candidate::new(
                    format!("tile={tile}/pad={pad}"),
                    kernel(tile, pad),
                    Launch::new(Dim::new_1d(total / tpb), Dim::new_1d(tpb)),
                ));
            }
        }
        // One deliberately invalid configuration: huge register demand
        // at 512 threads.
        out.push(Candidate::new(
            "invalid",
            kernel(1, 40),
            Launch::new(Dim::new_1d(32), Dim::new_1d(512)),
        ));
        out
    }

    fn g80() -> MachineSpec {
        MachineSpec::geforce_8800_gtx()
    }

    #[test]
    fn exhaustive_times_every_valid_config() {
        let space = synthetic_space();
        let r = ExhaustiveSearch.run(&space, &g80());
        assert_eq!(r.space_size, 13);
        assert_eq!(r.valid_count(), 12);
        assert_eq!(r.evaluated_count(), 12);
        assert!(r.best.is_some());
        assert_eq!(r.space_reduction(), 0.0);
        assert_eq!(r.stats.static_evals, 13);
        assert_eq!(r.stats.timed, 12);
    }

    #[test]
    fn pruned_search_times_a_subset_and_finds_the_optimum() {
        let space = synthetic_space();
        let exhaustive = ExhaustiveSearch.run(&space, &g80());
        let pruned = PrunedSearch::default().run(&space, &g80());
        assert!(pruned.evaluated_count() < exhaustive.evaluated_count());
        assert!(pruned.space_reduction() > 0.0);
        // The pruned search must land on the same optimum (the paper's
        // central claim, here on the synthetic space).
        let best_ex = exhaustive.best_time_ms().unwrap();
        let best_pr = pruned.best_time_ms().unwrap();
        assert!(
            (best_pr / best_ex - 1.0).abs() < 1e-9,
            "pruned best {best_pr} != exhaustive best {best_ex}"
        );
    }

    #[test]
    fn random_search_respects_budget_and_determinism() {
        let space = synthetic_space();
        let a = RandomSearch { budget: 5, seed: 42 }.run(&space, &g80());
        let b = RandomSearch { budget: 5, seed: 42 }.run(&space, &g80());
        assert_eq!(a.evaluated_count(), 5);
        assert_eq!(a.best, b.best);
        let c = RandomSearch { budget: 100, seed: 7 }.run(&space, &g80());
        assert_eq!(c.evaluated_count(), 12); // clamped to valid space
    }

    #[test]
    fn evaluation_time_sums_selected_only() {
        let space = synthetic_space();
        let pruned = PrunedSearch::default().run(&space, &g80());
        let exhaustive = ExhaustiveSearch.run(&space, &g80());
        assert!(pruned.evaluation_time_ms() < exhaustive.evaluation_time_ms());
        assert!(pruned.evaluation_time_ms() > 0.0);
    }

    #[test]
    fn invalid_configurations_are_never_simulated() {
        let space = synthetic_space();
        let r = ExhaustiveSearch.run(&space, &g80());
        assert!(r.statics[12].is_none());
        assert!(r.simulated[12].is_none());
    }

    /// The synthetic space as a structured `Space` + `Instantiator`,
    /// for exercising subspace search in-crate.
    pub(crate) struct SyntheticInst;

    impl crate::space::Instantiator for SyntheticInst {
        fn instantiate(&self, p: &crate::space::Point) -> Candidate {
            let space = synthetic_space();
            let (tile, pad) = (p.u32("tile"), p.u32("pad"));
            space
                .into_iter()
                .find(|c| c.label == format!("tile={tile}/pad={pad}"))
                .expect("point maps to a synthetic candidate")
        }
    }

    pub(crate) fn synthetic_structured() -> Space {
        Space::builder().axis("tile", [1u32, 2, 4, 8]).axis("pad", [0u32, 8, 20]).build()
    }

    #[test]
    fn branch_and_bound_matches_exhaustive_with_fewer_sims() {
        let spec = g80();
        let space = synthetic_structured();
        let inst = SyntheticInst;
        // Exhaustive over the same 12 candidates (the structured space
        // omits the deliberately-invalid 13th configuration).
        let eager: Vec<Candidate> = space.points().map(|p| inst.instantiate(&p)).collect();
        let ex = ExhaustiveSearch.run(&eager, &spec);
        let bb = BranchAndBound.run_space(&EvalEngine::default(), &space, &inst, &spec);
        assert_eq!(bb.strategy, "bnb");
        assert_eq!(bb.space_size, 12);
        assert_eq!(bb.best_time_ms(), ex.best_time_ms());
        assert_eq!(bb.best, ex.best);
        assert!(
            bb.stats.unique_sims < ex.stats.unique_sims,
            "bnb {} sims !< exhaustive {}",
            bb.stats.unique_sims,
            ex.stats.unique_sims
        );
        assert!(bb.stats.bound_pruned_subspaces > 0);
        // With only two axes, the conditioned calibration sweeps probe
        // every point of every pruned subspace, so the points counter
        // stays honest at zero here; `tests/branch_and_bound.rs` pins
        // it nonzero on the real (deeper) application spaces.
        assert!(bb.stats.bound_pruned_points + bb.evaluated_count() <= bb.space_size);
    }

    #[test]
    fn branch_and_bound_is_jobs_invariant() {
        let spec = g80();
        let space = synthetic_structured();
        let inst = SyntheticInst;
        let seq = BranchAndBound.run_space(&EvalEngine::default(), &space, &inst, &spec);
        for jobs in [2usize, 8] {
            let par = BranchAndBound.run_space(&EvalEngine::with_jobs(jobs), &space, &inst, &spec);
            assert_eq!(seq.best, par.best);
            assert_eq!(seq.simulated, par.simulated);
            assert_eq!(seq.stats.unique_sims, par.stats.unique_sims);
            assert_eq!(seq.stats.bound_pruned_subspaces, par.stats.bound_pruned_subspaces);
            assert_eq!(seq.stats.bound_pruned_points, par.stats.bound_pruned_points);
        }
    }

    #[test]
    fn branch_and_bound_respects_sim_budget() {
        let spec = g80();
        let space = synthetic_structured();
        let inst = SyntheticInst;
        let free = BranchAndBound.run_space(&EvalEngine::default(), &space, &inst, &spec);
        assert!(free.stats.unique_sims >= 1);
        // Cap the search below what it wants: it must stop at the cap
        // and say so.
        let cap = free.stats.unique_sims.saturating_sub(1);
        let mut engine = EvalEngine::default();
        engine.config.budget = crate::engine::EvalBudget::with_max_sims(cap);
        let r = BranchAndBound.run_space(&engine, &space, &inst, &spec);
        assert!(r.stats.unique_sims <= cap);
        assert!(r.stats.budget_truncated);
    }

    #[test]
    fn sanitize_keeps_each_undecided_in_range_index_once_in_proposal_order() {
        let mut decided = vec![false, true, false, false, false];
        let batch = sanitize(vec![4, 1, 2, 4, 9, 0, 2, 3, 5], &mut decided);
        assert_eq!(batch, vec![4, 2, 0, 3]);
        assert!(decided.iter().all(|&d| d), "every kept index is now decided");
        assert!(sanitize(vec![3, 0], &mut decided).is_empty(), "no index is dispatched twice");
    }

    /// The engine path with >1 worker must reproduce the sequential
    /// report field-for-field on every strategy.
    #[test]
    fn parallel_engine_reproduces_sequential_reports() {
        let space = synthetic_space();
        let spec = g80();
        let engine = EvalEngine::with_jobs(4);
        for strategy in [
            &ExhaustiveSearch as &dyn SearchStrategy,
            &PrunedSearch::default(),
            &RandomSearch { budget: 5, seed: 42 },
        ] {
            let seq = strategy.run(&space, &spec);
            let par = strategy.run_with(&engine, &space, &spec);
            assert_eq!(seq.best, par.best, "{}", seq.strategy);
            assert_eq!(seq.simulated, par.simulated, "{}", seq.strategy);
            assert_eq!(par.jobs, 4);
            assert_eq!(seq.stats.unique_sims, par.stats.unique_sims);
        }
    }
}

#[cfg(test)]
mod debug_dump {
    use super::tests::synthetic_space_for_debug;
    use super::*;
    use crate::obs::{EventSink, Scope};
    use std::sync::Arc;

    /// Dump the synthetic space through the event sink instead of ad-hoc
    /// `println!` formatting: one structured `debug.candidate` event per
    /// configuration, printed as the same JSONL the `--trace-out` flag
    /// writes. Run with `cargo test -p optspace dump -- --ignored
    /// --nocapture`.
    #[test]
    #[ignore]
    fn dump() {
        let space = synthetic_space_for_debug();
        let spec = MachineSpec::geforce_8800_gtx();
        let sink = Arc::new(EventSink::new());
        let engine = EvalEngine::with_jobs(1).with_sink(Arc::clone(&sink));
        let ex = ExhaustiveSearch.run_with(&engine, &space, &spec);
        for (i, c) in space.iter().enumerate() {
            let s = ex.statics[i].as_ref();
            let t = ex.simulated[i].as_ref();
            sink.search(
                EventKind::Point,
                "debug.candidate",
                vec![
                    ("label", Json::from(c.label.as_str())),
                    ("efficiency", Json::from(s.map(|e| e.metrics.efficiency))),
                    ("utilization", Json::from(s.map(|e| e.metrics.utilization))),
                    ("bandwidth_pressure", Json::from(s.map(|e| e.bandwidth.pressure()))),
                    ("bandwidth_bound", Json::from(s.map(|e| e.bandwidth.is_bandwidth_bound()))),
                    ("regs", Json::from(s.map(|e| e.kernel_profile.usage.regs_per_thread))),
                    (
                        "blocks_per_sm",
                        Json::from(s.map(|e| e.kernel_profile.occupancy.blocks_per_sm)),
                    ),
                    ("time_ms", Json::from(t.map(|t| t.time_ms))),
                ],
            );
        }
        let trace = sink.drain();
        for event in &trace.events {
            if event.scope == Scope::Search && event.name == "debug.candidate" {
                println!("{}", event.canonical_line());
            }
        }
    }
}
