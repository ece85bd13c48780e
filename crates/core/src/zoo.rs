//! The iterative search-strategy zoo: feedback-driven optimizers over
//! the [`Space`]/`Point` layer, executed through
//! [`crate::tuner::run_iterative`].
//!
//! Each strategy is a pure *policy*: it proposes batches of dense
//! candidate indices and digests the observed timing results; all
//! evaluation mechanics (parallel simulation, memoization, budgets,
//! fault handling) stay in the search loop. This is the study
//! of *Benchmarking optimization algorithms for auto-tuning GPU
//! kernels* (arXiv 2210.01465) with the simulator supplying ground
//! truth:
//!
//! * [`HillClimb`] — steepest-descent hill climbing with random
//!   restarts; the neighborhood is ±1 step per axis grid rank.
//! * [`Annealing`] — simulated annealing: a random-neighbor walk with
//!   Metropolis acceptance under a geometric cooling schedule.
//! * [`Genetic`] — a generational strategy with axis-wise crossover,
//!   ±1-step mutation, and random immigrants.
//! * [`Surrogate`] — rank every unvisited point by
//!   [`model::predict_ms_static`] and evaluate in predicted order.
//!
//! Determinism contract (shared with the search loop): all
//! randomness inside a round is drawn from `round_rng(seed, round)`
//! — a pure function of the strategy seed and the round index
//! — and every other piece of state evolves only from observed times,
//! which are themselves byte-identical at any worker count. Seeded
//! strategies put both budget and seed in their [`IterativeStrategy::name`].

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::candidate::Evaluated;
use crate::model;
use crate::space::Space;
use crate::tuner::{IterationContext, IterativeStrategy, Observation};

/// The zoo's CLI `--strategy` names, in table order.
pub const NAMES: [&str; 4] = ["hill", "anneal", "genetic", "surrogate"];

/// Construct a zoo strategy by its CLI name; `None` for names the zoo
/// does not know. `seed` is ignored by the deterministic [`Surrogate`].
///
/// # Panics
///
/// Panics if `budget` is zero (all zoo strategies are budgeted).
pub fn by_name(
    name: &str,
    space: &Space,
    budget: usize,
    seed: u64,
) -> Option<Box<dyn IterativeStrategy>> {
    Some(match name {
        "hill" => Box::new(HillClimb::new(space.clone(), budget, seed)),
        "anneal" => Box::new(Annealing::new(space.clone(), budget, seed)),
        "genetic" => Box::new(Genetic::new(space.clone(), budget, seed)),
        "surrogate" => Box::new(Surrogate::new(budget)),
        _ => return None,
    })
}

/// Per-round RNG: a pure function of `(seed, round)`. Strategies must
/// never carry RNG state across rounds — deriving each round's stream
/// fresh is what keeps replays and different `--jobs` runs
/// byte-identical.
fn round_rng(seed: u64, round: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (round + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn assert_budget(budget: usize) {
    assert!(budget >= 1, "a budgeted strategy needs a budget >= 1");
}

/// Mixed-radix decode of a full-grid rank into per-axis value indices
/// (last axis varies fastest, matching the space's enumeration order).
fn decode(mut rank: usize, radices: &[usize]) -> Vec<usize> {
    let mut coords = vec![0usize; radices.len()];
    for (i, &r) in radices.iter().enumerate().rev() {
        coords[i] = rank % r;
        rank /= r;
    }
    coords
}

/// Mixed-radix encode, the inverse of [`decode`].
fn encode(coords: &[usize], radices: &[usize]) -> usize {
    coords.iter().zip(radices).fold(0usize, |rank, (&c, &r)| rank * r + c)
}

/// The structured view every grid-walking strategy shares: dense
/// candidate indices mapped onto the axis grid, with validity taken
/// from the static phase (an invalid point is a wall, not a state).
struct Topology {
    /// Axis domain sizes (mixed radix).
    radices: Vec<usize>,
    /// Per dense index, axis value-index coordinates.
    coords: Vec<Vec<usize>>,
    /// Full-grid rank → dense index, admitted points only.
    dense_of: HashMap<usize, usize>,
    /// Valid dense indices, ascending.
    valid: Vec<usize>,
    /// Validity flag per dense index.
    is_valid: Vec<bool>,
}

impl Topology {
    fn build(space: &Space, statics: &[Option<Evaluated>]) -> Self {
        assert_eq!(
            space.len(),
            statics.len(),
            "iterative zoo strategies search the full declared space; \
             run them without --filter/--sample narrowing"
        );
        let radices: Vec<usize> = space.axes().iter().map(|a| a.values().len()).collect();
        let mut coords = Vec::with_capacity(space.len());
        let mut dense_of = HashMap::new();
        // Completions carry full-grid ranks; enumeration position is the
        // dense report index (the same mapping branch-and-bound uses).
        for (dense, p) in space.partial().completions().enumerate() {
            dense_of.insert(p.ordinal(), dense);
            coords.push(decode(p.ordinal(), &radices));
        }
        let is_valid: Vec<bool> = statics.iter().map(Option::is_some).collect();
        let valid = is_valid.iter().enumerate().filter_map(|(i, &v)| v.then_some(i)).collect();
        Self { radices, coords, dense_of, valid, is_valid }
    }

    /// Valid grid-adjacent neighbors (±1 value step on exactly one
    /// axis) of `dense`, in deterministic axis-major minus-then-plus
    /// order. Constraint-excluded and statically invalid points are
    /// skipped.
    fn neighbors(&self, dense: usize) -> Vec<usize> {
        let coords = &self.coords[dense];
        let mut out = Vec::new();
        for axis in 0..self.radices.len() {
            for delta in [-1i64, 1] {
                let moved = coords[axis] as i64 + delta;
                if moved < 0 || moved >= self.radices[axis] as i64 {
                    continue;
                }
                let mut n = coords.clone();
                n[axis] = moved as usize;
                if let Some(&d) = self.dense_of.get(&encode(&n, &self.radices)) {
                    if self.is_valid[d] {
                        out.push(d);
                    }
                }
            }
        }
        out
    }

    /// Valid indices not yet in `proposed`, ascending.
    fn fresh(&self, proposed: &HashSet<usize>) -> Vec<usize> {
        self.valid.iter().copied().filter(|i| !proposed.contains(i)).collect()
    }
}

/// Steepest-descent hill climbing with random restarts.
///
/// Each climb proposes *all* unvisited neighbors of the current point
/// in one batch (they time in parallel), moves to the best observed
/// improvement, and restarts from a fresh random point when the
/// neighborhood offers none. A failed (quarantined) start or neighbor
/// is simply a wall.
pub struct HillClimb {
    space: Space,
    budget: usize,
    seed: u64,
    topo: Option<Topology>,
    round: u64,
    left: usize,
    proposed: HashSet<usize>,
    /// Current position and its observed time; `None` while starting
    /// or restarting.
    current: Option<(usize, f64)>,
    /// A fresh start proposed last round, awaiting its observation.
    starting: Option<usize>,
}

impl HillClimb {
    /// Validated constructor.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(space: Space, budget: usize, seed: u64) -> Self {
        assert_budget(budget);
        Self {
            space,
            budget,
            seed,
            topo: None,
            round: 0,
            left: budget,
            proposed: HashSet::new(),
            current: None,
            starting: None,
        }
    }
}

impl IterativeStrategy for HillClimb {
    fn name(&self) -> String {
        format!("hill-{}-s{}", self.budget, self.seed)
    }

    fn begin(&mut self, ctx: &IterationContext) {
        self.topo = Some(Topology::build(&self.space, ctx.statics));
        self.round = 0;
        self.left = self.budget;
        self.proposed.clear();
        self.current = None;
        self.starting = None;
    }

    fn propose(&mut self, observed: &[Observation]) -> Vec<usize> {
        let topo = self.topo.as_ref().expect("begin() before propose()");
        let rng = &mut round_rng(self.seed, self.round);
        self.round += 1;
        // Digest the previous round.
        if let Some(start) = self.starting.take() {
            if let Some(t) = observed.iter().find(|o| o.candidate == start).and_then(|o| o.time_ms)
            {
                self.current = Some((start, t));
            }
        } else if let Some((_, cur_t)) = self.current {
            let best = observed
                .iter()
                .filter_map(|o| o.time_ms.map(|t| (o.candidate, t)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            match best {
                Some((i, t)) if t < cur_t => self.current = Some((i, t)),
                // No improving neighbor: a local optimum — restart.
                _ => self.current = None,
            }
        }
        // Produce the next batch: climb, or restart on a fresh point.
        loop {
            if self.left == 0 {
                return Vec::new();
            }
            match self.current {
                Some((at, _)) => {
                    let mut batch: Vec<usize> = topo
                        .neighbors(at)
                        .into_iter()
                        .filter(|n| !self.proposed.contains(n))
                        .collect();
                    batch.truncate(self.left);
                    if batch.is_empty() {
                        // Fully explored neighborhood: restart.
                        self.current = None;
                        continue;
                    }
                    self.left -= batch.len();
                    self.proposed.extend(batch.iter().copied());
                    return batch;
                }
                None => {
                    let fresh = topo.fresh(&self.proposed);
                    if fresh.is_empty() {
                        return Vec::new();
                    }
                    let pick = fresh[rng.gen_range(0..fresh.len())];
                    self.proposed.insert(pick);
                    self.left -= 1;
                    self.starting = Some(pick);
                    return vec![pick];
                }
            }
        }
    }
}

/// Simulated annealing: a random-neighbor walk with Metropolis
/// acceptance on *relative* time deltas (`exp(-(t/cur - 1)/T)`, so one
/// temperature schedule serves every application's time scale) and a
/// geometric cooling schedule.
///
/// The chain warm-starts from the best of a small random init batch —
/// on large grids a cold single chain diffuses a few ±1 steps from
/// wherever it happened to land and never leaves a bad basin.
/// Already-evaluated neighbors are revisited from the strategy's own
/// memory — the protocol forbids re-proposing decided candidates — so
/// each round walks until it reaches a point the engine has not timed
/// yet; a walk stuck in known territory jumps back to the incumbent
/// best first and to a fresh random point after that.
pub struct Annealing {
    space: Space,
    budget: usize,
    seed: u64,
    /// Initial relative temperature.
    t0: f64,
    /// Geometric cooling factor per round.
    cooling: f64,
    topo: Option<Topology>,
    round: u64,
    left: usize,
    proposed: HashSet<usize>,
    /// Every decided outcome seen so far (`None` = failed), the walk's
    /// memory for in-place Metropolis steps over known points.
    times: HashMap<usize, Option<f64>>,
    current: Option<(usize, f64)>,
    /// Best observed result so far (the incumbent a stuck walk
    /// restarts from).
    best: Option<(usize, f64)>,
    /// Proposal awaiting its observation.
    pending: Option<usize>,
    /// Whether the warm-start init batch has been proposed.
    warmed: bool,
}

/// In-memory walk steps per round before the walk jumps to a fresh
/// random point instead (guards against circling a fully-known basin).
const MAX_WALK: usize = 64;

impl Annealing {
    /// Validated constructor with the default schedule
    /// (`T₀ = 0.25`, cooling `0.92`).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(space: Space, budget: usize, seed: u64) -> Self {
        assert_budget(budget);
        Self {
            space,
            budget,
            seed,
            t0: 0.25,
            cooling: 0.92,
            topo: None,
            round: 0,
            left: budget,
            proposed: HashSet::new(),
            times: HashMap::new(),
            current: None,
            best: None,
            pending: None,
            warmed: false,
        }
    }

    fn accept(&mut self, cand: usize, t: f64, temp: f64, rng: &mut StdRng) {
        let accept = match self.current {
            None => true,
            Some((_, cur)) => t <= cur || rng.gen_range(0.0..1.0) < (-(t / cur - 1.0) / temp).exp(),
        };
        if accept {
            self.current = Some((cand, t));
        }
    }
}

impl IterativeStrategy for Annealing {
    fn name(&self) -> String {
        format!("anneal-{}-s{}", self.budget, self.seed)
    }

    fn begin(&mut self, ctx: &IterationContext) {
        self.topo = Some(Topology::build(&self.space, ctx.statics));
        self.round = 0;
        self.left = self.budget;
        self.proposed.clear();
        self.times.clear();
        self.current = None;
        self.best = None;
        self.pending = None;
        self.warmed = false;
    }

    fn propose(&mut self, observed: &[Observation]) -> Vec<usize> {
        let rng = &mut round_rng(self.seed, self.round);
        self.round += 1;
        let temp = (self.t0 * self.cooling.powi(self.round as i32)).max(1e-6);
        for o in observed {
            self.times.insert(o.candidate, o.time_ms);
            if let Some(t) = o.time_ms {
                if self.best.is_none_or(|(_, b)| t < b) {
                    self.best = Some((o.candidate, t));
                }
            }
        }
        if !self.warmed {
            // Warm start: a small random init batch; the chain begins
            // from its best member next round.
            self.warmed = true;
            let topo = self.topo.as_ref().expect("begin() before propose()");
            let mut fresh = topo.fresh(&self.proposed);
            fresh.shuffle(rng);
            fresh.truncate(8.min(self.left));
            self.left -= fresh.len();
            self.proposed.extend(fresh.iter().copied());
            return fresh;
        }
        // Metropolis-decide the proposal from last round (a failure is
        // a rejected move: the walk stays put).
        if let Some(p) = self.pending.take() {
            if let Some(t) = self.times.get(&p).copied().flatten() {
                self.accept(p, t, temp, rng);
            }
        }
        if self.current.is_none() {
            // Adopt the incumbent (post-warm-start, or after every
            // observed proposal failed).
            self.current = self.best;
        }
        let mut steps = 0usize;
        let mut jumps = 0usize;
        loop {
            if self.left == 0 {
                return Vec::new();
            }
            let Some((at, _)) = self.current else {
                let topo = self.topo.as_ref().expect("begin() before propose()");
                let fresh = topo.fresh(&self.proposed);
                if fresh.is_empty() {
                    return Vec::new();
                }
                let pick = fresh[rng.gen_range(0..fresh.len())];
                self.proposed.insert(pick);
                self.left -= 1;
                self.pending = Some(pick);
                return vec![pick];
            };
            if steps >= MAX_WALK {
                // Circling known territory: restart from the incumbent
                // best once, then jump to a fresh random point.
                steps = 0;
                jumps += 1;
                self.current = if jumps == 1 { self.best } else { None };
                continue;
            }
            steps += 1;
            let topo = self.topo.as_ref().expect("begin() before propose()");
            let neighbors = topo.neighbors(at);
            if neighbors.is_empty() {
                self.current = None;
                continue;
            }
            let next = neighbors[rng.gen_range(0..neighbors.len())];
            match self.times.get(&next) {
                // Known result: take the Metropolis step in place and
                // keep walking — no engine round needed.
                Some(Some(t)) => {
                    let t = *t;
                    self.accept(next, t, temp, rng);
                }
                // Known failure: a rejected move.
                Some(None) => {}
                None => {
                    if self.proposed.contains(&next) {
                        // Proposed but never decided (budget-cut round):
                        // not re-proposable; treat as a wall.
                        continue;
                    }
                    self.proposed.insert(next);
                    self.left -= 1;
                    self.pending = Some(next);
                    return vec![next];
                }
            }
        }
    }
}

/// A generational genetic strategy: parents are the best half of every
/// result so far, children come from axis-wise crossover plus ±1-step
/// mutation, and random immigrants top up generations the operators
/// cannot fill (including the whole first one).
pub struct Genetic {
    space: Space,
    budget: usize,
    seed: u64,
    /// Generation size.
    population: usize,
    topo: Option<Topology>,
    round: u64,
    left: usize,
    proposed: HashSet<usize>,
    /// Evaluated successes `(dense index, time)` in observation order.
    fitness: Vec<(usize, f64)>,
}

impl Genetic {
    /// Validated constructor with the default generation size (12).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(space: Space, budget: usize, seed: u64) -> Self {
        assert_budget(budget);
        Self {
            space,
            budget,
            seed,
            population: 12,
            topo: None,
            round: 0,
            left: budget,
            proposed: HashSet::new(),
            fitness: Vec::new(),
        }
    }
}

impl IterativeStrategy for Genetic {
    fn name(&self) -> String {
        format!("genetic-{}-s{}", self.budget, self.seed)
    }

    fn begin(&mut self, ctx: &IterationContext) {
        self.topo = Some(Topology::build(&self.space, ctx.statics));
        self.round = 0;
        self.left = self.budget;
        self.proposed.clear();
        self.fitness.clear();
    }

    fn propose(&mut self, observed: &[Observation]) -> Vec<usize> {
        let topo = self.topo.as_ref().expect("begin() before propose()");
        let rng = &mut round_rng(self.seed, self.round);
        self.round += 1;
        for o in observed {
            if let Some(t) = o.time_ms {
                self.fitness.push((o.candidate, t));
            }
        }
        if self.left == 0 {
            return Vec::new();
        }
        let want = self.population.min(self.left);
        let mut batch: Vec<usize> = Vec::new();
        if self.fitness.len() >= 2 {
            let mut ranked = self.fitness.clone();
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            ranked.truncate(self.population.div_ceil(2).max(2));
            let axes = topo.radices.len();
            let mut attempts = 0usize;
            while batch.len() < want && attempts < want * 20 {
                attempts += 1;
                let pa = &topo.coords[ranked[rng.gen_range(0..ranked.len())].0];
                let pb = &topo.coords[ranked[rng.gen_range(0..ranked.len())].0];
                // Axis-wise crossover...
                let mut child: Vec<usize> = pa
                    .iter()
                    .zip(pb)
                    .map(|(&a, &b)| if rng.gen_range(0..2u32) == 0 { a } else { b })
                    .collect();
                // ...then ±1-step mutation per axis with probability
                // 1/axes (one expected step per child).
                for (axis, c) in child.iter_mut().enumerate() {
                    if rng.gen_range(0.0..1.0) < 1.0 / axes as f64 {
                        let delta = if rng.gen_range(0..2u32) == 0 { -1i64 } else { 1 };
                        let moved = *c as i64 + delta;
                        if moved >= 0 && moved < topo.radices[axis] as i64 {
                            *c = moved as usize;
                        }
                    }
                }
                if let Some(&d) = topo.dense_of.get(&encode(&child, &topo.radices)) {
                    if topo.is_valid[d] && !self.proposed.contains(&d) && !batch.contains(&d) {
                        batch.push(d);
                    }
                }
            }
        }
        if batch.len() < want {
            // Immigrants: fresh uniform blood — and the entire first
            // generation.
            let mut fresh: Vec<usize> =
                topo.fresh(&self.proposed).into_iter().filter(|i| !batch.contains(i)).collect();
            fresh.shuffle(rng);
            batch.extend(fresh.into_iter().take(want - batch.len()));
        }
        if batch.is_empty() {
            return Vec::new();
        }
        self.left -= batch.len();
        self.proposed.extend(batch.iter().copied());
        batch
    }
}

/// Surrogate search: rank every valid point by the static cost model's
/// [`model::predict_ms_static`] and evaluate in predicted order, a
/// fixed batch per round. Fully deterministic — no seed, so none in the
/// name.
pub struct Surrogate {
    budget: usize,
    /// Proposals per round.
    batch: usize,
    ranking: Vec<usize>,
    cursor: usize,
    left: usize,
}

impl Surrogate {
    /// Validated constructor with the default batch size (8).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(budget: usize) -> Self {
        assert_budget(budget);
        Self { budget, batch: 8, ranking: Vec::new(), cursor: 0, left: budget }
    }
}

impl IterativeStrategy for Surrogate {
    fn name(&self) -> String {
        format!("surrogate-{}", self.budget)
    }

    fn begin(&mut self, ctx: &IterationContext) {
        let mut ranked: Vec<(usize, f64)> = ctx
            .statics
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (i, model::predict_ms_static(e, ctx.spec))))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        self.ranking = ranked.into_iter().map(|(i, _)| i).collect();
        self.cursor = 0;
        self.left = self.budget;
    }

    fn propose(&mut self, _observed: &[Observation]) -> Vec<usize> {
        let take = self.batch.min(self.left).min(self.ranking.len() - self.cursor);
        let batch = self.ranking[self.cursor..self.cursor + take].to_vec();
        self.cursor += take;
        self.left -= take;
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalEngine;
    use crate::space::PointBatch;
    use crate::tuner::{run_iterative, ExhaustiveSearch, SearchStrategy};
    use gpu_arch::MachineSpec;

    fn grid() -> Space {
        Space::builder()
            .axis("a", [0u32, 1, 2])
            .axis("b", [0u32, 1])
            .constraint("no (2,1)", |p| !(p.u32("a") == 2 && p.u32("b") == 1))
            .build()
    }

    #[test]
    fn topology_neighbors_respect_grid_and_constraints() {
        let space = grid();
        // 5 admitted points: (0,0) (0,1) (1,0) (1,1) (2,0).
        assert_eq!(space.len(), 5);
        let statics_len = space.len();
        // All valid for this test.
        let fake: Vec<Option<Evaluated>> = (0..statics_len).map(|_| None).collect();
        // Topology validity comes from statics; build with all-None and
        // check only the grid structure via dense_of/coords.
        let topo = Topology::build(&space, &fake);
        assert_eq!(topo.coords.len(), 5);
        // Dense 0 = (a=0,b=0): grid neighbors (0,1) and (1,0) exist but
        // are invalid (statics all None) — so none survive.
        assert!(topo.neighbors(0).is_empty());
        // Mark everything valid and re-check adjacency.
        let topo = Topology { is_valid: vec![true; 5], valid: (0..5).collect(), ..topo };
        // Dense order is lexicographic: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3 (2,0)=4.
        assert_eq!(topo.neighbors(0), vec![2, 1]);
        // (1,1) has neighbors (0,1), (1,0); (2,1) is constraint-excluded.
        assert_eq!(topo.neighbors(3), vec![1, 2]);
        // (2,0) has neighbor (1,0) only; (2,1) excluded.
        assert_eq!(topo.neighbors(4), vec![2]);
    }

    #[test]
    fn decode_encode_round_trip() {
        let radices = [3usize, 2, 4];
        for rank in 0..24 {
            assert_eq!(encode(&decode(rank, &radices), &radices), rank);
        }
    }

    #[test]
    #[should_panic(expected = "budget >= 1")]
    fn zero_budget_is_refused() {
        let _ = Surrogate::new(0);
    }

    #[test]
    fn zoo_finds_the_synthetic_optimum_with_a_full_budget() {
        let spec = MachineSpec::geforce_8800_gtx();
        let space = crate::tuner::tests::synthetic_structured();
        let inst = crate::tuner::tests::SyntheticInst;
        let source = PointBatch::new(space.points().collect(), &inst);
        let truth = ExhaustiveSearch
            .run_source(&EvalEngine::default(), &source, &spec)
            .best_time_ms()
            .expect("synthetic space has an optimum");
        for name in NAMES {
            let mut s = by_name(name, &space, space.len(), 0).expect("zoo name");
            let r = run_iterative(s.as_mut(), &EvalEngine::default(), &source, &spec);
            let got = r.best_time_ms().expect("found something");
            assert!(
                (got / truth - 1.0).abs() < 1e-9,
                "{name}: best {got} != exhaustive optimum {truth}"
            );
        }
    }
}
