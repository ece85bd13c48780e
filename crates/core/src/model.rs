//! A more detailed static cost model (section 4: "We are developing a
//! more detailed cost model to achieve more precise results").
//!
//! The paper's metrics deliberately stop at a partial order — Efficiency
//! and Utilization "are not detailed enough to combine into a single
//! robust cost function". This module builds the next step the authors
//! describe: a closed-form, latency- and bandwidth-aware cycle
//! predictor over the same static inputs. One SM-wave is bounded below
//! by three rooflines:
//!
//! * **issue**: every warp instruction occupies the single issue port
//!   for 4 cycles — `warps × Instr × 4`;
//! * **latency**: one warp cannot finish faster than its own critical
//!   path — `Instr × 4 + blocking_units × L`;
//! * **bandwidth**: the wave's DRAM traffic over the SM's share of the
//!   86.4 GB/s.
//!
//! The predicted wave time is the maximum of the three, scaled by the
//! grid's wave count. [`rank_correlation`] (Spearman) quantifies how
//! well any scalar predictor orders a space against simulated time —
//! the `costmodel` experiment compares this model with each paper
//! metric used alone.

use std::cell::RefCell;
use std::collections::HashMap;

use gpu_arch::MachineSpec;

use crate::candidate::{Candidate, Evaluated};
use crate::space::{Instantiator, PartialPoint, Point, Space, Value};

/// Predicted execution time in milliseconds for one candidate, from its
/// static evaluation only (no simulation). The launch figures travel
/// inside [`Evaluated`], so the candidate itself is not needed.
pub fn predict_ms_static(e: &Evaluated, spec: &MachineSpec) -> f64 {
    let p = &e.kernel_profile.profile;
    let occ = &e.kernel_profile.occupancy;
    let issue = f64::from(spec.issue_cycles_per_warp);

    // Per-invocation figures (the Evaluated profile is whole-app).
    let inv = f64::from(e.invocations);
    let instr = p.instr as f64 / inv;
    let units = (p.regions.saturating_sub(1)) as f64 / inv;

    let warps = f64::from(occ.warps_per_sm());
    let threads_per_sm = f64::from(occ.threads_per_sm);

    // Roofline 1: issue throughput.
    let issue_bound = warps * instr * issue;

    // Roofline 2: one warp's critical path, with blocking stalls. The
    // stall length depends on what delimits the regions: off-chip loads
    // (200–300 cycles) for memory kernels, the SFU pipeline for pure
    // compute kernels like CP (where the section 4 rule made SFU ops the
    // blocking instructions).
    let latency = if e.kernel_profile.mix.offchip_loads == 0 {
        f64::from(spec.sfu_latency)
    } else {
        f64::from(spec.global_latency_typ())
    };
    let latency_bound = instr * issue + units * latency;

    // Roofline 3: DRAM bandwidth for the wave's resident threads.
    let traffic = e.kernel_profile.mix.dram_traffic_bytes(spec);
    let bw_share = spec.bandwidth_bytes_per_cycle() / f64::from(spec.num_sms);
    let bandwidth_bound = threads_per_sm * traffic / bw_share;

    let wave = issue_bound.max(latency_bound).max(bandwidth_bound);
    let capacity = f64::from(spec.num_sms) * f64::from(occ.blocks_per_sm);
    let waves = (e.total_blocks as f64 / capacity).max(1.0);
    let cycles = wave * waves * inv;
    cycles / spec.clock_hz * 1e3 + crate::tuner::LAUNCH_OVERHEAD_MS * inv
}

/// An *admissible* floor (in milliseconds) on the engine-reported
/// simulated time of one candidate, from its IR and launch geometry
/// alone — no occupancy calculation, no simulation.
///
/// The simulated wave can never beat the issue port: every resident
/// warp issues each of its `dynamic_counts` instructions for
/// `issue_cycles_per_warp` cycles on a single port per SM, and the
/// wave count scales that busy time back up to the whole grid, so
///
/// ```text
/// time >= instrs * (total_threads / warp_size) * issue / num_sms
/// ```
///
/// cycles per invocation. One cycle of slack per invocation absorbs
/// the simulator's round-to-integer wave scaling, and the engine's
/// per-invocation launch overhead is added back (it is charged to
/// every configuration identically). Because the derivation only
/// drops terms the simulator *adds* (latency stalls, bandwidth queue
/// delays, barrier joins, replay slots, partial warps), the floor is
/// a true lower bound on every valid configuration's reported time.
pub fn issue_floor_ms(c: &Candidate, spec: &MachineSpec) -> f64 {
    let counts = gpu_ir::analysis::dynamic_counts(&c.kernel);
    let inv = f64::from(c.invocations);
    let warps = c.launch.total_threads() as f64 / f64::from(spec.warp_size);
    let per_inv_cycles = counts.instrs as f64 * warps * f64::from(spec.issue_cycles_per_warp)
        / f64::from(spec.num_sms);
    ((per_inv_cycles - 1.0).max(0.0) * inv) / spec.clock_hz * 1e3
        + crate::tuner::LAUNCH_OVERHEAD_MS * inv
}

/// An admissible cost bound over partially specified points.
///
/// `bound_ms(partial)` must not exceed the engine-reported simulated
/// time of any constraint-admitted completion of `partial` (it is
/// `f64::INFINITY` when the subspace is empty). The contract a
/// branch-and-bound search relies on, checked by the monotonicity
/// proptest in `tests/branch_and_bound.rs`:
///
/// * **monotone** — binding an axis never decreases the bound;
/// * **admissible at the leaf** — on a fully-bound point the bound is
///   at most the true model cost of that point.
///
/// [`BranchAndBound`](crate::tuner::BranchAndBound) additionally
/// enforces monotonicity structurally (a child's frontier key is the
/// max of its own bound and its parent's), so a bound that is merely
/// admissible still yields a correct best-first order.
pub trait LowerBound {
    /// Lower bound (ms) over all admitted completions of `partial`.
    fn bound_ms(&self, partial: &PartialPoint) -> f64;
}

/// The reference [`LowerBound`]: the exact minimum of a per-point cost
/// over all admitted completions.
///
/// Admissible and monotone *by construction* — shrinking a subspace
/// can only raise its minimum — which makes it the oracle the
/// monotonicity proptest checks cheaper bounds against. It enumerates
/// every completion, so it is only for small spaces and tests; the
/// production bound is [`ProbeBound`].
pub struct MinFloorBound<F> {
    cost: F,
}

impl<F: Fn(&Point) -> f64> MinFloorBound<F> {
    /// Wrap a per-point cost function.
    pub fn new(cost: F) -> Self {
        Self { cost }
    }
}

impl<F: Fn(&Point) -> f64> LowerBound for MinFloorBound<F> {
    fn bound_ms(&self, partial: &PartialPoint) -> f64 {
        partial.completions().map(|p| (self.cost)(&p)).fold(f64::INFINITY, f64::min)
    }
}

/// The production [`LowerBound`]: instantiate one optimistic *corner*
/// per axis-0 slice of the subspace and take its [`issue_floor_ms`].
///
/// The first declared axis is the strongest coupler (matmul's tile
/// changes every other axis's effect, and can even degenerate an
/// unroll domain), so all calibration is *conditioned* on it: for each
/// axis-0 value the bound sweeps every other axis one-dimensionally
/// with axis 0 pinned and records the value index minimizing the floor
/// — that value's *cheap table* (computed lazily, once per value). A
/// subspace that has bound axis 0 is bounded by the floor of the
/// corner keeping every bound axis at its bound value and every
/// unbound axis at its conditioned cheap value, after
/// [`Instantiator::legalize`] snaps the tuple to something the
/// generator accepts. While axis 0 is *unbound* the subspace is the
/// disjoint union of its axis-0 slices, so its bound is the **min** of
/// the slice corners — a single cross-slice corner is not sound, since
/// no one axis-0 value yields a floor below every slice. Corners are
/// memoized by full-grid rank, so a search instantiates a handful of
/// probe points per subspace instead of any of its interior.
///
/// Within a slice the corner is a lower bound on the slice's floor
/// when the floor decomposes per axis (each axis's cheap setting stays
/// cheapest whatever the other axes do) — true for the
/// instruction-count and thread-count products the paper's knobs
/// control once the dominant coupler is pinned. That decomposition is
/// an empirical property of the application spaces, not a theorem; the
/// exactness tests in `tests/branch_and_bound.rs` pin it on all four
/// paper spaces, and the fully-bound case is unconditionally
/// admissible because the corner *is* the point.
pub struct ProbeBound<'a> {
    space: &'a Space,
    inst: &'a dyn Instantiator,
    spec: &'a MachineSpec,
    /// Cheap tables calibrated with axis 0 pinned, keyed by its value
    /// index and filled on first use. Entry `i` of a table is the
    /// value index minimizing the floor in the 1-D sweep of axis `i`
    /// off that pinned base.
    conditioned: RefCell<HashMap<usize, Vec<usize>>>,
    /// Floor per instantiated corner, keyed by full-grid rank.
    memo: RefCell<HashMap<usize, f64>>,
}

impl<'a> ProbeBound<'a> {
    /// Build the bound. Calibration is lazy — the first bound request
    /// touching an axis-0 value runs that value's sweeps
    /// (`sum(domain sizes)` probe instantiations, all memoized).
    pub fn new(space: &'a Space, inst: &'a dyn Instantiator, spec: &'a MachineSpec) -> Self {
        ProbeBound {
            space,
            inst,
            spec,
            conditioned: RefCell::new(HashMap::new()),
            memo: RefCell::new(HashMap::new()),
        }
    }

    /// Sweep each axis past 0 one-dimensionally off the base
    /// assignment with axis 0 pinned to `pin`, and record the value
    /// index minimizing the floor (first on ties).
    fn calibrate(&self, pin: usize) -> Vec<usize> {
        let n = self.space.axes().len();
        let root = self.space.partial();
        let mut cheap = vec![0usize; n];
        cheap[0] = pin;
        for (i, axis) in self.space.axes().iter().enumerate().skip(1) {
            let mut best = f64::INFINITY;
            for j in 0..axis.values().len() {
                let mut fill = vec![0usize; n];
                fill[0] = pin;
                fill[i] = j;
                let floor = self.probe(root.corner_values(&fill));
                if floor < best {
                    best = floor;
                    cheap[i] = j;
                }
            }
        }
        cheap
    }

    /// The cheap table conditioned on axis-0 value index `idx0`,
    /// calibrated on first use.
    fn cheap_for(&self, idx0: usize) -> Vec<usize> {
        if let Some(table) = self.conditioned.borrow().get(&idx0) {
            return table.clone();
        }
        let table = self.calibrate(idx0);
        self.conditioned.borrow_mut().insert(idx0, table.clone());
        table
    }

    /// Floor of the slice corner: every bound axis at its bound value,
    /// every unbound axis at its cheap value conditioned on `idx0`
    /// (axis 0's value in this slice).
    fn slice_corner(&self, partial: &PartialPoint, idx0: usize) -> f64 {
        let mut fill = self.cheap_for(idx0);
        fill[0] = idx0;
        self.probe(partial.corner_values(&fill))
    }

    /// Floor of one explicit assignment, legalized and memoized.
    fn probe(&self, mut values: Vec<Value>) -> f64 {
        self.inst.legalize(self.space, &mut values);
        let point = self.space.probe_point(values);
        let rank = point.ordinal();
        if let Some(&floor) = self.memo.borrow().get(&rank) {
            return floor;
        }
        let floor = issue_floor_ms(&self.inst.instantiate(&point), self.spec);
        self.memo.borrow_mut().insert(rank, floor);
        floor
    }

    /// Grid ranks instantiated as probes so far, in unspecified order.
    pub fn instantiated_ranks(&self) -> Vec<usize> {
        self.memo.borrow().keys().copied().collect()
    }

    /// Number of distinct corners instantiated so far.
    pub fn probes(&self) -> usize {
        self.memo.borrow().len()
    }
}

impl LowerBound for ProbeBound<'_> {
    fn bound_ms(&self, partial: &PartialPoint) -> f64 {
        if let Some(idx0) = partial.binding(0) {
            return self.slice_corner(partial, idx0);
        }
        // Axis 0 unbound: the subspace is the union of its axis-0
        // slices, and a bound on a union is the min of the slice
        // bounds. Probing one cross-slice corner instead would *not*
        // be admissible — no single axis-0 value floors every slice.
        (0..self.space.axes()[0].values().len())
            .map(|idx0| self.slice_corner(partial, idx0))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Spearman rank correlation between two paired samples.
///
/// Returns a value in `[-1, 1]`; `NaN`-free as long as either sample has
/// at least two distinct values. Ties receive averaged ranks.
pub fn rank_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "samples must pair up");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ranks = |xs: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        // total_cmp keeps the sort well-defined even if a cost model
        // hands us NaN (sorted to the end, tied with itself).
        idx.sort_by(|&i, &j| xs[i].total_cmp(&xs[j]));
        let mut out = vec![0.0; xs.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &idx[i..=j] {
                out[k] = avg;
            }
            i = j + 1;
        }
        out
    };
    let (ra, rb) = (ranks(a), ranks(b));
    let mean = (n as f64 + 1.0) / 2.0;
    let (mut num, mut da, mut db) = (0.0, 0.0, 0.0);
    for k in 0..n {
        let (x, y) = (ra[k] - mean, rb[k] - mean);
        num += x * y;
        da += x * x;
        db += y * y;
    }
    if da == 0.0 || db == 0.0 {
        return 0.0;
    }
    num / (da * db).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::{Dim, Launch};

    #[test]
    fn rank_correlation_basics() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((rank_correlation(&a, &[10.0, 20.0, 30.0, 40.0]) - 1.0).abs() < 1e-12);
        assert!((rank_correlation(&a, &[4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        // Constant sample: defined as 0.
        assert_eq!(rank_correlation(&a, &[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn rank_correlation_handles_ties() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [1.0, 1.0, 2.0, 3.0];
        assert!((rank_correlation(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn mismatched_lengths_panic() {
        let _ = rank_correlation(&[1.0], &[1.0, 2.0]);
    }

    fn candidate(iters: u32, tpb: u32) -> Candidate {
        let mut b = KernelBuilder::new("m");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(iters, |b| {
            let x = b.ld_global(p, 0);
            b.fmad_acc(x, 1.0f32, acc);
        });
        b.st_global(p, 0, acc);
        Candidate::new(
            format!("i{iters}/t{tpb}"),
            b.finish(),
            Launch::new(Dim::new_1d(4096 / tpb), Dim::new_1d(tpb)),
        )
    }

    #[test]
    fn prediction_orders_work_correctly() {
        let spec = MachineSpec::geforce_8800_gtx();
        let small = candidate(10, 128);
        let big = candidate(100, 128);
        let es = small.evaluate(&spec).unwrap();
        let eb = big.evaluate(&spec).unwrap();
        assert!(predict_ms_static(&eb, &spec) > predict_ms_static(&es, &spec));
    }

    #[test]
    fn issue_floor_never_exceeds_simulated_time() {
        let spec = MachineSpec::geforce_8800_gtx();
        for &it in &[1u32, 10, 20, 40, 80] {
            for &t in &[32u32, 64, 128, 256] {
                let c = candidate(it, t);
                let e = c.evaluate(&spec).unwrap();
                let prog = gpu_sim::decode::decode(&gpu_ir::linear::linearize(&c.kernel));
                let sim = gpu_sim::timing::simulate(
                    &prog,
                    &c.launch,
                    &e.kernel_profile.usage,
                    &spec,
                    None,
                )
                .unwrap();
                // The engine reports sim time plus the launch overhead;
                // the floor includes the same overhead term.
                let reported = sim.time_ms + crate::tuner::LAUNCH_OVERHEAD_MS;
                let floor = issue_floor_ms(&c, &spec);
                assert!(floor <= reported, "floor {floor} > reported {reported} for i{it}/t{t}");
                assert!(floor > 0.0);
            }
        }
    }

    #[test]
    fn min_floor_bound_is_monotone_and_tight_on_leaves() {
        let s = Space::builder()
            .axis("a", [1u32, 2, 4])
            .axis("b", [1u32, 3])
            .constraint("skip 4/3", |p| !(p.u32("a") == 4 && p.u32("b") == 3))
            .build();
        // A closed-form "cost": cheap corner is a=1, b=1.
        let cost = |p: &Point| f64::from(p.u32("a") * 10 + p.u32("b"));
        let bound = MinFloorBound::new(cost);
        let root = s.partial();
        assert_eq!(bound.bound_ms(&root), 11.0);
        // Binding never decreases the bound.
        let a4 = root.bind("a", Value::U32(4)).unwrap();
        assert_eq!(bound.bound_ms(&a4), 41.0);
        let leaf = a4.bind("b", Value::U32(1)).unwrap();
        assert_eq!(bound.bound_ms(&leaf), cost(&leaf.as_point().unwrap()));
        // The constraint-excluded completion never drives the bound.
        let b3 = root.bind("b", Value::U32(3)).unwrap();
        assert_eq!(bound.bound_ms(&b3), 13.0);
        assert_eq!(bound.bound_ms(&b3.bind("a", Value::U32(4)).unwrap()), f64::INFINITY);
    }

    #[test]
    fn prediction_tracks_simulated_time_reasonably() {
        // Rank correlation with the simulator over a small sweep must be
        // strongly positive.
        let spec = MachineSpec::geforce_8800_gtx();
        let cands: Vec<Candidate> = [10u32, 20, 40, 80]
            .iter()
            .flat_map(|&it| [64u32, 128, 256].iter().map(move |&t| candidate(it, t)))
            .collect();
        let mut predicted = Vec::new();
        let mut simulated = Vec::new();
        for c in &cands {
            let e = c.evaluate(&spec).unwrap();
            predicted.push(predict_ms_static(&e, &spec));
            let prog = gpu_sim::decode::decode(&gpu_ir::linear::linearize(&c.kernel));
            let t =
                gpu_sim::timing::simulate(&prog, &c.launch, &e.kernel_profile.usage, &spec, None)
                    .unwrap();
            simulated.push(t.time_ms);
        }
        let rho = rank_correlation(&predicted, &simulated);
        assert!(rho > 0.8, "rho = {rho}");
    }
}
