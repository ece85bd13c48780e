//! First-class configuration spaces.
//!
//! The paper's premise is that an optimization *space* — tile size,
//! rectangular tiling, unroll factors, prefetching, register spilling,
//! work per invocation (Table 4) — is a structured object worth
//! reasoning about. This module gives it a concrete representation:
//!
//! - [`Axis`]: one named knob with an ordered list of [`Value`]s;
//! - [`Space`]: the cross product of axes, narrowed by structural
//!   [constraints](SpaceBuilder::constraint), enumerated in a fixed
//!   lexicographic order (last axis fastest);
//! - [`PartialPoint`]: a *partially* specified assignment — some axes
//!   bound to one value, the rest still carrying their full domains —
//!   with [`bind`](PartialPoint::bind), [`split`](PartialPoint::split)
//!   and [`completions`](PartialPoint::completions) operations;
//! - [`Point`]: the fully-bound special case — one typed assignment of
//!   every axis, whose `Display` reproduces the application's label
//!   format;
//! - [`Selection`]: declarative narrowing (`--filter axis=value`,
//!   `--sample n --sample-seed s`) applied to a space before a search;
//! - [`CandidateSource`]: the engine-facing abstraction that lets a
//!   search run either over an eager `&[Candidate]` slice or over
//!   points instantiated lazily inside the worker pool;
//! - [`Instantiator`]: the point-to-candidate hook that lets subspace
//!   searches ([`BranchAndBound`](crate::tuner::BranchAndBound))
//!   instantiate frontier leaves and probe corners on demand.
//!
//! Enumeration order is part of the contract: candidate indices,
//! report layouts, and trace events all key off a point's ordinal, so
//! [`Space::points`] visits the full grid in lexicographic axis order
//! and merely skips constraint-violating tuples, exactly like the
//! hand-rolled nested loops it replaces.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::candidate::Candidate;
use crate::obs::Json;

/// One setting of one knob: the typed payload carried by an axis slot.
///
/// Values render through `Display` (`16`, `true`) and filters compare
/// against that printed form, so `--filter tile=16` needs no type
/// annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// A numeric knob (tile width, unroll factor, threads per block…).
    U32(u32),
    /// An on/off knob (prefetching, register spilling…).
    Bool(bool),
}

impl Value {
    /// The numeric payload, if this is a numeric knob.
    pub fn as_u32(self) -> Option<u32> {
        match self {
            Value::U32(v) => Some(v),
            Value::Bool(_) => None,
        }
    }

    /// The boolean payload, if this is an on/off knob.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(v),
            Value::U32(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U32(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U32(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One named knob and the ordered values it may take.
///
/// The declaration order of values is the enumeration order: an axis
/// declared `[8, 16]` visits 8 before 16, and the *last* declared axis
/// of a space varies fastest, mirroring the innermost hand-rolled loop.
#[derive(Debug, Clone)]
pub struct Axis {
    name: &'static str,
    values: Vec<Value>,
}

impl Axis {
    /// Build an axis from anything whose items convert into [`Value`].
    pub fn new<V: Into<Value>>(name: &'static str, values: impl IntoIterator<Item = V>) -> Self {
        Axis { name, values: values.into_iter().map(Into::into).collect() }
    }

    /// The axis name, as used by `Point` accessors and `--filter`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The ordered values this axis may take.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

type PredFn = dyn Fn(&Point) -> bool + Send + Sync;
type LabelFn = dyn Fn(&Point) -> String + Send + Sync;

/// A named structural constraint: a predicate over full points.
///
/// Constraints never change enumeration *order* — the grid is walked
/// in full and violating tuples are skipped, which is exactly what a
/// `continue` in a hand-rolled nested loop did.
struct Constraint {
    name: &'static str,
    pred: Arc<PredFn>,
}

struct SpaceCore {
    axes: Vec<Axis>,
    constraints: Vec<Constraint>,
    label: Option<Arc<LabelFn>>,
}

impl SpaceCore {
    fn axis_index(&self, name: &str) -> Option<usize> {
        self.axes.iter().position(|a| a.name == name)
    }

    fn admits(&self, point: &Point) -> bool {
        self.constraints.iter().all(|c| (c.pred)(point))
    }

    /// Mixed-radix rank of a full grid assignment (one value index per
    /// axis), in enumeration order: last axis fastest.
    fn rank_of(&self, counters: &[usize]) -> usize {
        let mut rank = 0usize;
        for (c, a) in counters.iter().zip(&self.axes) {
            rank = rank * a.values.len() + c;
        }
        rank
    }

    /// Inverse of [`rank_of`]: decode a full-grid rank back into one
    /// value index per axis.
    fn counters_of(&self, rank: usize) -> Vec<usize> {
        let mut counters = vec![0usize; self.axes.len()];
        let mut r = rank;
        for slot in (0..self.axes.len()).rev() {
            let n = self.axes[slot].values.len();
            counters[slot] = r % n;
            r /= n;
        }
        counters
    }
}

impl fmt::Debug for SpaceCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Space")
            .field("axes", &self.axes)
            .field("constraints", &self.constraints.iter().map(|c| c.name).collect::<Vec<_>>())
            .finish()
    }
}

/// A declarative optimization space: axes, constraints, and a label
/// scheme. Cheap to clone (the definition is shared behind an `Arc`).
#[derive(Clone, Debug)]
pub struct Space {
    core: Arc<SpaceCore>,
}

impl Space {
    /// Start declaring a space.
    pub fn builder() -> SpaceBuilder {
        SpaceBuilder { axes: Vec::new(), constraints: Vec::new(), label: None }
    }

    /// The declared axes, in enumeration order (last varies fastest).
    pub fn axes(&self) -> &[Axis] {
        &self.core.axes
    }

    /// Look up an axis by name.
    pub fn axis(&self, name: &str) -> Option<&Axis> {
        self.core.axis_index(name).map(|i| &self.core.axes[i])
    }

    /// The size of the full cross product, before constraints.
    pub fn grid_len(&self) -> usize {
        self.core.axes.iter().map(|a| a.values.len()).product()
    }

    /// The number of points that satisfy every constraint.
    pub fn len(&self) -> usize {
        if self.core.constraints.is_empty() {
            self.grid_len()
        } else {
            self.points().count()
        }
    }

    /// Whether no point satisfies the constraints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate the constraint-satisfying points in lexicographic
    /// order over the declared axes.
    ///
    /// This is the dense renumbering of
    /// [`partial().completions()`](PartialPoint::completions): the
    /// fully-unbound partial point's completions are the whole space,
    /// and `points()` assigns them consecutive ordinals.
    pub fn points(&self) -> Points {
        Points { inner: self.partial().completions(), ordinal: 0 }
    }

    /// The fully-unbound partial assignment over this space: the root
    /// subspace a branch-and-bound search starts from.
    pub fn partial(&self) -> PartialPoint {
        PartialPoint { bound: vec![None; self.core.axes.len()], core: Arc::clone(&self.core) }
    }

    /// A probe point at an explicit full assignment. Its ordinal is the
    /// assignment's full-grid rank, *not* a dense enumeration ordinal,
    /// and the assignment is **not** checked against the constraints —
    /// bound probes deliberately evaluate corners the space excludes.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not assign every axis a value from that
    /// axis's domain — probe corners are always built from domain
    /// values, so a mismatch is a programming error.
    pub fn probe_point(&self, values: Vec<Value>) -> Point {
        assert_eq!(values.len(), self.core.axes.len(), "probe point must assign every axis");
        let counters: Vec<usize> = values
            .iter()
            .zip(&self.core.axes)
            .map(|(v, a)| {
                a.values.iter().position(|w| w == v).unwrap_or_else(|| {
                    panic!("probe value {v} is outside the domain of axis `{}`", a.name)
                })
            })
            .collect();
        Point { values, ordinal: self.core.rank_of(&counters), core: Arc::clone(&self.core) }
    }

    /// Decode a full-grid rank back into its point, or `None` when the
    /// rank is outside the grid. The point's ordinal is `rank` itself
    /// (as for [`probe_point`](Self::probe_point)); constraints are
    /// **not** checked — the caller knows which ranks it admitted.
    pub fn point_at_grid_rank(&self, rank: usize) -> Option<Point> {
        if rank >= self.grid_len() || self.core.axes.is_empty() {
            return None;
        }
        let counters = self.core.counters_of(rank);
        Some(Point {
            values: counters.iter().zip(&self.core.axes).map(|(&c, a)| a.values[c]).collect(),
            ordinal: rank,
            core: Arc::clone(&self.core),
        })
    }

    /// Mixed-radix rank of a full grid assignment (one value index per
    /// axis), in enumeration order: last axis fastest.
    pub(crate) fn rank_of(&self, counters: &[usize]) -> usize {
        self.core.rank_of(counters)
    }

    /// Inverse of [`rank_of`](Self::rank_of): one value index per axis
    /// of a full-grid rank.
    pub(crate) fn counters_of(&self, rank: usize) -> Vec<usize> {
        self.core.counters_of(rank)
    }
}

/// Builder for [`Space`]; axes enumerate in declaration order.
pub struct SpaceBuilder {
    axes: Vec<Axis>,
    constraints: Vec<Constraint>,
    label: Option<Arc<LabelFn>>,
}

impl SpaceBuilder {
    /// Declare the next axis. Later axes vary faster.
    pub fn axis<V: Into<Value>>(
        mut self,
        name: &'static str,
        values: impl IntoIterator<Item = V>,
    ) -> Self {
        self.axes.push(Axis::new(name, values));
        self
    }

    /// Add a named structural constraint over full points.
    pub fn constraint(
        mut self,
        name: &'static str,
        pred: impl Fn(&Point) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.constraints.push(Constraint { name, pred: Arc::new(pred) });
        self
    }

    /// Install the label scheme `Point::to_string` renders with. When
    /// absent, points print as `axis=value/axis=value/…`.
    pub fn label(mut self, f: impl Fn(&Point) -> String + Send + Sync + 'static) -> Self {
        self.label = Some(Arc::new(f));
        self
    }

    /// Finish the declaration.
    pub fn build(self) -> Space {
        Space {
            core: Arc::new(SpaceCore {
                axes: self.axes,
                constraints: self.constraints,
                label: self.label,
            }),
        }
    }
}

/// One typed assignment of every axis in a space.
///
/// A point remembers its `ordinal` — its position in the space's
/// enumeration — so lazily instantiated candidates line up with the
/// indices an eager `candidates()` vector would have used.
#[derive(Clone)]
pub struct Point {
    values: Vec<Value>,
    ordinal: usize,
    core: Arc<SpaceCore>,
}

impl Point {
    /// The value assigned to `name`, if the axis exists.
    pub fn value(&self, name: &str) -> Option<Value> {
        self.core.axis_index(name).map(|i| self.values[i])
    }

    /// The numeric value of axis `name`.
    ///
    /// # Panics
    /// Panics if the axis does not exist or is not numeric — both are
    /// programming errors in a space declaration, not runtime inputs.
    pub fn u32(&self, name: &str) -> u32 {
        self.value(name)
            .and_then(Value::as_u32)
            .unwrap_or_else(|| panic!("space has no u32 axis named `{name}`"))
    }

    /// The boolean value of axis `name`.
    ///
    /// # Panics
    /// Panics if the axis does not exist or is not boolean.
    pub fn flag(&self, name: &str) -> bool {
        self.value(name)
            .and_then(Value::as_bool)
            .unwrap_or_else(|| panic!("space has no bool axis named `{name}`"))
    }

    /// This point's position in the space's enumeration order.
    pub fn ordinal(&self) -> usize {
        self.ordinal
    }

    /// The values in axis declaration order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// View this point as the fully-bound partial point it is: every
    /// axis bound to this point's value.
    pub fn to_partial(&self) -> PartialPoint {
        let bound = self
            .values
            .iter()
            .zip(&self.core.axes)
            .map(|(v, a)| Some(a.values.iter().position(|w| w == v).expect("value in domain")))
            .collect();
        PartialPoint { bound, core: Arc::clone(&self.core) }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.core.label {
            Some(label) => f.write_str(&label(self)),
            None => {
                for (i, (axis, value)) in self.core.axes.iter().zip(&self.values).enumerate() {
                    if i > 0 {
                        f.write_str("/")?;
                    }
                    write!(f, "{}={}", axis.name, value)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point#{}({})", self.ordinal, self)
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
            && self.core.axes.iter().zip(&other.core.axes).all(|(a, b)| a.name == b.name)
    }
}

/// A partially specified point: a typed set of bound axes plus the
/// unbound axes' full domains. A [`Point`] is the fully-bound special
/// case (see [`Point::to_partial`] / [`PartialPoint::as_point`]).
///
/// Partial points denote *subspaces* — the set of
/// [`completions`](PartialPoint::completions) obtained by assigning
/// every unbound axis — and are the unit a branch-and-bound search
/// bounds and prunes. The canonical refinement order is deterministic:
/// [`split`](PartialPoint::split) always binds the **first unbound
/// axis in declaration order**, producing one child per domain value
/// in declaration order, so the subspace tree (and any frontier keyed
/// on it) is identical from run to run.
#[derive(Clone)]
pub struct PartialPoint {
    /// Per axis: `Some(value index)` when bound, `None` when unbound.
    bound: Vec<Option<usize>>,
    core: Arc<SpaceCore>,
}

impl PartialPoint {
    /// The declared axes, in enumeration order.
    pub fn axes(&self) -> &[Axis] {
        &self.core.axes
    }

    /// Whether every axis is bound (the subspace is a single point).
    pub fn is_complete(&self) -> bool {
        self.bound.iter().all(Option::is_some)
    }

    /// How many axes are still unbound.
    pub fn unbound_len(&self) -> usize {
        self.bound.iter().filter(|b| b.is_none()).count()
    }

    /// The value bound to axis `name`, or `None` while it is unbound
    /// (or the axis does not exist).
    pub fn value(&self, name: &str) -> Option<Value> {
        let i = self.core.axis_index(name)?;
        self.bound[i].map(|v| self.core.axes[i].values[v])
    }

    /// The value *index* bound to axis `axis` (by position), or `None`
    /// while it is unbound or out of range.
    pub fn binding(&self, axis: usize) -> Option<usize> {
        self.bound.get(axis).copied().flatten()
    }

    /// Bind axis `name` to `value`, narrowing the subspace. Returns
    /// `None` if the axis does not exist or `value` is outside its
    /// domain; re-binding a bound axis to a different value also
    /// returns `None` (the subspace would be empty).
    pub fn bind(&self, name: &str, value: Value) -> Option<PartialPoint> {
        let axis = self.core.axis_index(name)?;
        let idx = self.core.axes[axis].values.iter().position(|w| *w == value)?;
        match self.bound[axis] {
            Some(prev) if prev != idx => None,
            _ => Some(self.bind_index(axis, idx)),
        }
    }

    fn bind_index(&self, axis: usize, idx: usize) -> PartialPoint {
        let mut next = self.clone();
        next.bound[axis] = Some(idx);
        next
    }

    /// The axis index [`split`](Self::split) will bind: the first
    /// unbound axis in declaration order. `None` when complete.
    pub fn split_axis(&self) -> Option<usize> {
        self.bound.iter().position(Option::is_none)
    }

    /// Partition this subspace along the first unbound axis: one child
    /// per domain value, in declaration order. Complete points return
    /// an empty vector.
    pub fn split(&self) -> Vec<PartialPoint> {
        let Some(axis) = self.split_axis() else {
            return Vec::new();
        };
        (0..self.core.axes[axis].values.len()).map(|idx| self.bind_index(axis, idx)).collect()
    }

    /// Enumerate the constraint-admitted completions of this subspace
    /// in lexicographic order (last unbound axis fastest). Each yielded
    /// point's ordinal is its **full-grid rank**, not a dense index —
    /// [`Space::points`] is the dense renumbering of the root partial's
    /// completions.
    pub fn completions(&self) -> Completions {
        let counters: Vec<usize> = self.bound.iter().map(|b| b.unwrap_or(0)).collect();
        let done = self.grid_count() == 0;
        Completions { partial: self.clone(), counters, done }
    }

    /// The number of grid tuples in this subspace, before constraints.
    pub fn grid_count(&self) -> usize {
        self.bound
            .iter()
            .zip(&self.core.axes)
            .map(|(b, a)| if b.is_some() { 1 } else { a.values.len() })
            .product()
    }

    /// The number of constraint-admitted completions.
    pub fn admitted_count(&self) -> usize {
        if self.core.constraints.is_empty() {
            self.grid_count()
        } else {
            self.completions().count()
        }
    }

    /// The full-grid rank of this subspace's lexicographically first
    /// tuple — the canonical tie-breaking key for frontier ordering.
    pub fn first_grid_rank(&self) -> usize {
        let counters: Vec<usize> = self.bound.iter().map(|b| b.unwrap_or(0)).collect();
        self.core.rank_of(&counters)
    }

    /// The single point this subspace denotes, when complete. Its
    /// ordinal is the full-grid rank (as for completions).
    pub fn as_point(&self) -> Option<Point> {
        if !self.is_complete() {
            return None;
        }
        let counters: Vec<usize> = self.bound.iter().map(|b| b.expect("complete")).collect();
        Some(Point {
            values: counters.iter().zip(&self.core.axes).map(|(&c, a)| a.values[c]).collect(),
            ordinal: self.core.rank_of(&counters),
            core: Arc::clone(&self.core),
        })
    }

    /// Whether the full-grid tuple at `rank` lies inside this subspace
    /// *and* satisfies the space's constraints. Branch-and-bound
    /// accounting uses this to avoid counting an already-probed corner
    /// as "eliminated without instantiation" when its subspace is
    /// pruned.
    pub fn contains_admitted_rank(&self, rank: usize) -> bool {
        let total: usize = self.core.axes.iter().map(|a| a.values.len()).product();
        if rank >= total {
            return false;
        }
        let counters = self.core.counters_of(rank);
        if !self.bound.iter().zip(&counters).all(|(b, &c)| b.is_none_or(|b| b == c)) {
            return false;
        }
        let point = Point {
            values: counters.iter().zip(&self.core.axes).map(|(&c, a)| a.values[c]).collect(),
            ordinal: rank,
            core: Arc::clone(&self.core),
        };
        self.core.admits(&point)
    }

    /// A full assignment with bound axes at their bound value and each
    /// unbound axis `i` at value index `fill[i]` — the optimistic
    /// "corner" a bound probe evaluates.
    ///
    /// # Panics
    ///
    /// Panics if `fill` is shorter than the axis list or a fill index
    /// is outside its axis domain.
    pub fn corner_values(&self, fill: &[usize]) -> Vec<Value> {
        self.bound
            .iter()
            .zip(&self.core.axes)
            .enumerate()
            .map(|(i, (b, a))| a.values[b.unwrap_or(fill[i])])
            .collect()
    }
}

impl fmt::Display for PartialPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (axis, b)) in self.core.axes.iter().zip(&self.bound).enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            match b {
                Some(idx) => write!(f, "{}={}", axis.name, axis.values[*idx])?,
                None => write!(f, "{}=*", axis.name)?,
            }
        }
        Ok(())
    }
}

impl fmt::Debug for PartialPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PartialPoint({self})")
    }
}

/// Iterator over a subspace's admitted completions. See
/// [`PartialPoint::completions`].
pub struct Completions {
    partial: PartialPoint,
    counters: Vec<usize>,
    done: bool,
}

impl Completions {
    fn advance(&mut self) -> bool {
        for slot in (0..self.counters.len()).rev() {
            if self.partial.bound[slot].is_some() {
                continue;
            }
            self.counters[slot] += 1;
            if self.counters[slot] < self.partial.core.axes[slot].values.len() {
                return true;
            }
            self.counters[slot] = 0;
        }
        false
    }
}

impl Iterator for Completions {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        while !self.done {
            let core = &self.partial.core;
            let point = Point {
                values: self.counters.iter().zip(&core.axes).map(|(&c, a)| a.values[c]).collect(),
                ordinal: core.rank_of(&self.counters),
                core: Arc::clone(core),
            };
            self.done = !self.advance();
            if self.partial.core.admits(&point) {
                return Some(point);
            }
        }
        None
    }
}

/// Iterator over a space's constraint-satisfying points. See
/// [`Space::points`].
pub struct Points {
    inner: Completions,
    ordinal: usize,
}

impl Iterator for Points {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let mut point = self.inner.next()?;
        point.ordinal = self.ordinal;
        self.ordinal += 1;
        Some(point)
    }
}

/// One `--filter axis=value` clause. The value is kept as the raw
/// string and compared against each point value's printed form, so
/// `tile=16` and `prefetch=true` need no type annotations and a value
/// outside the axis (`tile=17`) simply matches nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    /// Axis name to constrain.
    pub axis: String,
    /// Required printed value.
    pub value: String,
}

impl Filter {
    /// Parse an `axis=value` clause.
    pub fn parse(raw: &str) -> Result<Filter, SelectionError> {
        match raw.split_once('=') {
            Some((axis, value)) if !axis.is_empty() && !value.is_empty() => {
                Ok(Filter { axis: axis.to_string(), value: value.to_string() })
            }
            _ => Err(SelectionError::BadFilter { raw: raw.to_string() }),
        }
    }

    fn matches(&self, point: &Point) -> bool {
        point.value(&self.axis).is_some_and(|v| v.to_string() == self.value)
    }
}

/// A seeded random subset request: `--sample n --sample-seed s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// How many surviving points to keep.
    pub count: usize,
    /// Seed for the shuffle that picks them.
    pub seed: u64,
}

/// Declarative narrowing of a space before a search: conjunction of
/// filters, then an optional seeded sample. Sampled points are
/// re-sorted by ordinal, so the selected subsequence preserves the
/// space's enumeration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Selection {
    /// All filters must match (conjunction).
    pub filters: Vec<Filter>,
    /// Optional seeded subset of the filter survivors.
    pub sample: Option<Sample>,
}

impl Selection {
    /// True when this selection keeps the whole space.
    pub fn is_noop(&self) -> bool {
        self.filters.is_empty() && self.sample.is_none()
    }

    /// Apply to a space, *strictly*: a filter naming an axis the space
    /// does not declare is an error (almost certainly a typo). A value
    /// outside the axis's range yields an empty selection, not an
    /// error — "nothing matches" is an answer.
    pub fn apply(&self, space: &Space) -> Result<Vec<Point>, SelectionError> {
        for f in &self.filters {
            if space.axis(&f.axis).is_none() {
                return Err(SelectionError::UnknownAxis {
                    axis: f.axis.clone(),
                    available: space.axes().iter().map(Axis::name).collect(),
                });
            }
        }
        Ok(self.narrow(space))
    }

    /// Apply to a space, *leniently*: filters naming axes the space
    /// does not declare are ignored. Multi-app sweeps use this so a
    /// `--filter tile=16` meant for matmul doesn't empty the CP space.
    pub fn apply_lenient(&self, space: &Space) -> Vec<Point> {
        let known: Vec<&Filter> =
            self.filters.iter().filter(|f| space.axis(&f.axis).is_some()).collect();
        let narrowed =
            Selection { filters: known.into_iter().cloned().collect(), sample: self.sample };
        narrowed.narrow(space)
    }

    fn narrow(&self, space: &Space) -> Vec<Point> {
        let mut points: Vec<Point> =
            space.points().filter(|p| self.filters.iter().all(|f| f.matches(p))).collect();
        if let Some(sample) = self.sample {
            let mut picks: Vec<usize> = (0..points.len()).collect();
            let mut rng = StdRng::seed_from_u64(sample.seed);
            picks.shuffle(&mut rng);
            picks.truncate(sample.count);
            picks.sort_unstable();
            points = picks.into_iter().map(|i| points[i].clone()).collect();
        }
        points
    }

    /// Summarize this selection for a report manifest.
    pub fn record(&self, matched: usize) -> SelectionRecord {
        SelectionRecord {
            filters: self.filters.iter().map(|f| (f.axis.clone(), f.value.clone())).collect(),
            sample: self.sample.map(|s| (s.count as u64, s.seed)),
            matched: matched as u64,
        }
    }
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for filter in &self.filters {
            write!(f, "{sep}{}={}", filter.axis, filter.value)?;
            sep = ", ";
        }
        if let Some(s) = self.sample {
            write!(f, "{sep}sample {} (seed {})", s.count, s.seed)?;
        }
        Ok(())
    }
}

/// Why a selection could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionError {
    /// A filter named an axis the space does not declare.
    UnknownAxis {
        /// The unrecognised axis name.
        axis: String,
        /// The axes the space does declare.
        available: Vec<&'static str>,
    },
    /// A `--filter` clause was not of the form `axis=value`.
    BadFilter {
        /// The malformed clause.
        raw: String,
    },
}

impl fmt::Display for SelectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionError::UnknownAxis { axis, available } => {
                write!(f, "unknown axis `{axis}` (space has: {})", available.join(", "))
            }
            SelectionError::BadFilter { raw } => {
                write!(f, "bad filter `{raw}` (expected axis=value)")
            }
        }
    }
}

impl std::error::Error for SelectionError {}

/// The selection a report was produced under, as recorded in its
/// manifest: filter clauses, sample parameters, and how many points
/// survived.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectionRecord {
    /// `(axis, value)` filter clauses.
    pub filters: Vec<(String, String)>,
    /// `(count, seed)` of the sample, if one was taken.
    pub sample: Option<(u64, u64)>,
    /// How many points the selection matched.
    pub matched: u64,
}

impl SelectionRecord {
    /// Serialize for embedding in a run manifest.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "filters",
                Json::Arr(
                    self.filters.iter().map(|(a, v)| Json::from(format!("{a}={v}"))).collect(),
                ),
            ),
            (
                "sample",
                match self.sample {
                    None => Json::Null,
                    Some((count, seed)) => {
                        Json::obj([("count", Json::from(count)), ("seed", Json::from(seed))])
                    }
                },
            ),
            ("matched", Json::from(self.matched)),
        ])
    }

    /// Parse back from manifest JSON.
    pub fn from_json(json: &Json) -> Option<SelectionRecord> {
        let filters = json
            .get("filters")?
            .as_arr()?
            .iter()
            .map(|j| {
                let (a, v) = j.as_str()?.split_once('=')?;
                Some((a.to_string(), v.to_string()))
            })
            .collect::<Option<Vec<_>>>()?;
        let sample = match json.get("sample")? {
            Json::Null => None,
            s => Some((s.get("count")?.as_u64()?, s.get("seed")?.as_u64()?)),
        };
        Some(SelectionRecord { filters, sample, matched: json.get("matched")?.as_u64()? })
    }
}

/// Where a search gets its candidates: either an eager, materialized
/// slice, or a lazy view that instantiates points on demand inside
/// the worker pool.
///
/// The contract that makes eager and lazy reports byte-identical:
/// `get(i)` must return the same candidate every time it is called
/// for a given `i`, and `label(i)` must equal `get(i).label`.
pub trait CandidateSource: Sync {
    /// Number of candidates (the search's `space_size`).
    fn len(&self) -> usize;

    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The label of candidate `index` without instantiating it.
    fn label(&self, index: usize) -> String;

    /// Candidate `index`: borrowed from an eager slice, or built on
    /// the calling (worker) thread for a lazy source.
    fn get(&self, index: usize) -> Cow<'_, Candidate>;

    /// The search's index for candidate `index`: what trace events and
    /// quarantine records name it by. A view over part of a larger
    /// source maps its local index back to the larger source's; every
    /// other source is its own numbering.
    fn ordinal(&self, index: usize) -> usize {
        index
    }
}

impl CandidateSource for [Candidate] {
    fn len(&self) -> usize {
        <[Candidate]>::len(self)
    }

    fn label(&self, index: usize) -> String {
        self[index].label.clone()
    }

    fn get(&self, index: usize) -> Cow<'_, Candidate> {
        Cow::Borrowed(&self[index])
    }
}

// `[Candidate]` is unsized, so it cannot itself coerce to a
// `&dyn CandidateSource`; these sized carriers are what call sites
// actually pass (`&candidates` for a `Vec`, `&slice` for a slice).
impl CandidateSource for &[Candidate] {
    fn len(&self) -> usize {
        <[Candidate]>::len(self)
    }

    fn label(&self, index: usize) -> String {
        self[index].label.clone()
    }

    fn get(&self, index: usize) -> Cow<'_, Candidate> {
        Cow::Borrowed(&self[index])
    }
}

impl CandidateSource for Vec<Candidate> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn label(&self, index: usize) -> String {
        self[index].label.clone()
    }

    fn get(&self, index: usize) -> Cow<'_, Candidate> {
        Cow::Borrowed(&self[index])
    }
}

/// Point-to-candidate instantiation, as a capability a subspace search
/// can invoke on demand — for frontier leaves it is about to evaluate
/// and for the optimistic corners a lower bound probes.
///
/// The contract mirrors [`CandidateSource`]: `instantiate` must be
/// deterministic (the same point always yields the same candidate), and
/// the candidate's label must equal the point's `Display` form.
pub trait Instantiator: Sync {
    /// Build the candidate for a (fully bound) point.
    fn instantiate(&self, point: &Point) -> Candidate;

    /// Adjust an arbitrary grid assignment to one the generator can
    /// build. Bound probes evaluate per-axis-optimistic corners that
    /// may violate a space's structural constraints (e.g. an unroll
    /// factor that does not divide a trip count); an application whose
    /// generator rejects such tuples overrides this to snap the
    /// offending axes to the nearest buildable — and no more costly —
    /// setting. The default accepts every assignment unchanged.
    fn legalize(&self, space: &Space, values: &mut [Value]) {
        let _ = (space, values);
    }
}

/// A lazy [`CandidateSource`] over an explicit list of points — the
/// frontier leaves a branch-and-bound wave hands to the engine.
/// Candidates are instantiated on the calling (worker) thread.
pub struct PointBatch<'a> {
    points: Vec<Point>,
    inst: &'a dyn Instantiator,
}

impl<'a> PointBatch<'a> {
    /// Wrap a batch of points and their instantiator.
    pub fn new(points: Vec<Point>, inst: &'a dyn Instantiator) -> Self {
        PointBatch { points, inst }
    }

    /// The points in this batch, in submission order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }
}

impl CandidateSource for PointBatch<'_> {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn label(&self, index: usize) -> String {
        self.points[index].to_string()
    }

    fn get(&self, index: usize) -> Cow<'_, Candidate> {
        Cow::Owned(self.inst.instantiate(&self.points[index]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_space() -> Space {
        Space::builder()
            .axis("tile", [8u32, 16])
            .axis("unroll", [1u32, 2, 4])
            .axis("prefetch", [false, true])
            .build()
    }

    #[test]
    fn enumeration_is_lexicographic_last_axis_fastest() {
        let s = toy_space();
        assert_eq!(s.grid_len(), 12);
        assert_eq!(s.len(), 12);
        let pts: Vec<Point> = s.points().collect();
        assert_eq!(pts.len(), 12);
        assert_eq!(pts[0].u32("tile"), 8);
        assert_eq!(pts[0].u32("unroll"), 1);
        assert!(!pts[0].flag("prefetch"));
        assert!(pts[1].flag("prefetch"));
        assert_eq!(pts[2].u32("unroll"), 2);
        assert_eq!(pts[6].u32("tile"), 16);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.ordinal(), i);
        }
    }

    #[test]
    fn grid_rank_round_trips_through_point_at_grid_rank() {
        let s = toy_space();
        // Every admitted point decodes back to itself from its ordinal
        // (which is dense here: no constraints, so ordinal == grid rank
        // only for the unconstrained space's probe ranks).
        for rank in 0..s.grid_len() {
            let p = s.point_at_grid_rank(rank).expect("in range");
            assert_eq!(p.ordinal(), rank);
            assert_eq!(s.probe_point(p.values().to_vec()).ordinal(), rank);
        }
        assert!(s.point_at_grid_rank(s.grid_len()).is_none());
    }

    #[test]
    fn constraints_skip_tuples_without_reordering() {
        let s = Space::builder()
            .axis("a", [1u32, 2, 3])
            .axis("b", [1u32, 2, 3])
            .constraint("a divides b", |p| p.u32("b").is_multiple_of(p.u32("a")))
            .build();
        assert_eq!(s.grid_len(), 9);
        let got: Vec<(u32, u32)> = s.points().map(|p| (p.u32("a"), p.u32("b"))).collect();
        assert_eq!(got, vec![(1, 1), (1, 2), (1, 3), (2, 2), (3, 3)]);
        assert_eq!(s.len(), 5);
        // Ordinals number the *surviving* sequence densely.
        let ords: Vec<usize> = s.points().map(|p| p.ordinal()).collect();
        assert_eq!(ords, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn default_label_and_custom_label() {
        let s = toy_space();
        let p = s.points().next().unwrap();
        assert_eq!(p.to_string(), "tile=8/unroll=1/prefetch=false");

        let labelled = Space::builder()
            .axis("tile", [8u32])
            .label(|p| format!("{0}x{0}", p.u32("tile")))
            .build();
        let p = labelled.points().next().unwrap();
        assert_eq!(p.to_string(), "8x8");
    }

    #[test]
    fn filters_narrow_by_printed_value() {
        let s = toy_space();
        let sel = Selection { filters: vec![Filter::parse("tile=16").unwrap()], sample: None };
        let pts = sel.apply(&s).unwrap();
        assert_eq!(pts.len(), 6);
        assert!(pts.iter().all(|p| p.u32("tile") == 16));
        // Enumeration order survives the narrowing.
        let ords: Vec<usize> = pts.iter().map(Point::ordinal).collect();
        let mut sorted = ords.clone();
        sorted.sort_unstable();
        assert_eq!(ords, sorted);

        let sel =
            Selection { filters: vec![Filter::parse("prefetch=true").unwrap()], sample: None };
        assert_eq!(sel.apply(&s).unwrap().len(), 6);
    }

    #[test]
    fn out_of_range_value_is_empty_unknown_axis_is_error() {
        let s = toy_space();
        let empty = Selection { filters: vec![Filter::parse("tile=17").unwrap()], sample: None };
        assert!(empty.apply(&s).unwrap().is_empty());

        let contradictory = Selection {
            filters: vec![Filter::parse("tile=8").unwrap(), Filter::parse("tile=16").unwrap()],
            sample: None,
        };
        assert!(contradictory.apply(&s).unwrap().is_empty());

        let typo = Selection { filters: vec![Filter::parse("tyle=16").unwrap()], sample: None };
        match typo.apply(&s) {
            Err(SelectionError::UnknownAxis { axis, available }) => {
                assert_eq!(axis, "tyle");
                assert_eq!(available, vec!["tile", "unroll", "prefetch"]);
            }
            other => panic!("expected UnknownAxis, got {other:?}"),
        }
        // The lenient variant ignores the typo'd clause entirely.
        assert_eq!(typo.apply_lenient(&s).len(), 12);
    }

    #[test]
    fn sampling_is_seeded_and_order_preserving() {
        let s = toy_space();
        let sel = |seed| Selection { filters: Vec::new(), sample: Some(Sample { count: 5, seed }) };
        let a = sel(7).apply(&s).unwrap();
        let b = sel(7).apply(&s).unwrap();
        assert_eq!(a, b, "same seed, same subset");
        assert_eq!(a.len(), 5);
        let ords: Vec<usize> = a.iter().map(Point::ordinal).collect();
        let mut sorted = ords.clone();
        sorted.sort_unstable();
        assert_eq!(ords, sorted, "sample preserves enumeration order");
        let c = sel(8).apply(&s).unwrap();
        assert_ne!(a, c, "different seed, different subset");

        // Oversized samples keep everything.
        let all = Selection { filters: Vec::new(), sample: Some(Sample { count: 99, seed: 0 }) };
        assert_eq!(all.apply(&s).unwrap().len(), 12);
    }

    #[test]
    fn bad_filter_syntax_is_rejected() {
        assert!(Filter::parse("tile").is_err());
        assert!(Filter::parse("=16").is_err());
        assert!(Filter::parse("tile=").is_err());
        assert_eq!(
            Filter::parse("tile=16").unwrap(),
            Filter { axis: "tile".into(), value: "16".into() }
        );
    }

    #[test]
    fn selection_record_round_trips_through_json() {
        let rec = SelectionRecord {
            filters: vec![("tile".into(), "16".into()), ("prefetch".into(), "true".into())],
            sample: Some((10, 42)),
            matched: 7,
        };
        let back = SelectionRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(rec, back);

        let plain = SelectionRecord { filters: Vec::new(), sample: None, matched: 96 };
        assert_eq!(SelectionRecord::from_json(&plain.to_json()).unwrap(), plain);
        // The writer always emits `sample`, `null` when there is none.
        let mut j = plain.to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "sample");
        }
        assert_eq!(SelectionRecord::from_json(&j), None);
    }

    #[test]
    fn partial_bind_split_and_completions() {
        let s = toy_space();
        let root = s.partial();
        assert!(!root.is_complete());
        assert_eq!(root.unbound_len(), 3);
        assert_eq!(root.grid_count(), 12);
        assert_eq!(root.admitted_count(), 12);
        assert_eq!(root.first_grid_rank(), 0);
        assert_eq!(root.to_string(), "tile=*/unroll=*/prefetch=*");

        // Split binds the first unbound axis, children in value order.
        let children = root.split();
        assert_eq!(children.len(), 2);
        assert_eq!(children[0].value("tile"), Some(Value::U32(8)));
        assert_eq!(children[1].value("tile"), Some(Value::U32(16)));
        assert_eq!(children[1].first_grid_rank(), 6);
        assert_eq!(children[1].grid_count(), 6);

        // Completions enumerate in full-grid order with grid-rank
        // ordinals, restricted to the subspace.
        let ranks: Vec<usize> = children[1].completions().map(|p| p.ordinal()).collect();
        assert_eq!(ranks, vec![6, 7, 8, 9, 10, 11]);

        // bind() narrows by value; bad binds are None.
        let narrowed = root.bind("unroll", Value::U32(4)).unwrap();
        assert_eq!(narrowed.grid_count(), 4);
        assert!(root.bind("unroll", Value::U32(3)).is_none());
        assert!(root.bind("missing", Value::U32(1)).is_none());
        let rebound = narrowed.bind("unroll", Value::U32(4)).unwrap();
        assert_eq!(rebound.grid_count(), 4);
        assert!(narrowed.bind("unroll", Value::U32(2)).is_none());

        // Fully binding reaches the Point special case.
        let leaf = narrowed
            .bind("tile", Value::U32(16))
            .unwrap()
            .bind("prefetch", Value::Bool(true))
            .unwrap();
        assert!(leaf.is_complete());
        assert!(leaf.split().is_empty());
        let p = leaf.as_point().unwrap();
        assert_eq!(p.u32("tile"), 16);
        assert_eq!(p.u32("unroll"), 4);
        assert!(p.flag("prefetch"));
        assert_eq!(p.ordinal(), 11);
        // Round trip through the fully-bound view.
        assert_eq!(p.to_partial().as_point().unwrap(), p);
    }

    #[test]
    fn partial_completions_respect_constraints() {
        let s = Space::builder()
            .axis("a", [1u32, 2, 3])
            .axis("b", [1u32, 2, 3])
            .constraint("a divides b", |p| p.u32("b").is_multiple_of(p.u32("a")))
            .build();
        let sub = s.partial().bind("a", Value::U32(2)).unwrap();
        assert_eq!(sub.grid_count(), 3);
        assert_eq!(sub.admitted_count(), 1);
        let got: Vec<(u32, u32)> = sub.completions().map(|p| (p.u32("a"), p.u32("b"))).collect();
        assert_eq!(got, vec![(2, 2)]);
        // The root's completions are the space, with grid-rank
        // ordinals where points() renumbers densely.
        let grid_ranks: Vec<usize> = s.partial().completions().map(|p| p.ordinal()).collect();
        assert_eq!(grid_ranks, vec![0, 1, 2, 4, 8]);
        let dense: Vec<usize> = s.points().map(|p| p.ordinal()).collect();
        assert_eq!(dense, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn contains_admitted_rank_matches_completions() {
        let s = Space::builder()
            .axis("a", [1u32, 2, 3])
            .axis("b", [1u32, 2, 3])
            .constraint("a divides b", |p| p.u32("b").is_multiple_of(p.u32("a")))
            .build();
        let sub = s.partial().bind("a", Value::U32(2)).unwrap();
        let admitted: Vec<usize> = sub.completions().map(|p| p.ordinal()).collect();
        for rank in 0..s.grid_len() {
            assert_eq!(sub.contains_admitted_rank(rank), admitted.contains(&rank), "rank {rank}");
        }
        assert!(!sub.contains_admitted_rank(999));
    }

    #[test]
    fn corner_values_and_probe_points() {
        let s = toy_space();
        let sub = s.partial().bind("unroll", Value::U32(2)).unwrap();
        // Fill indices: tile -> 1 (16), prefetch -> 0 (false); the
        // bound axis keeps its value regardless of the fill.
        let corner = sub.corner_values(&[1, 9, 0]);
        assert_eq!(corner, vec![Value::U32(16), Value::U32(2), Value::Bool(false)]);
        let probe = s.probe_point(corner);
        assert_eq!(probe.u32("tile"), 16);
        assert_eq!(probe.u32("unroll"), 2);
        assert_eq!(probe.ordinal(), 8, "probe ordinal is the full-grid rank");
    }

    #[test]
    fn slice_source_borrows() {
        use crate::candidate::Candidate;
        use gpu_ir::build::KernelBuilder;
        use gpu_ir::{Dim, Launch};
        let k = KernelBuilder::new("noop").finish();
        let cands = vec![Candidate::new("only", k, Launch::new(Dim::new_1d(1), Dim::new_1d(1)))];
        let src: &dyn CandidateSource = &cands;
        assert_eq!(src.len(), 1);
        assert!(!src.is_empty());
        assert_eq!(src.label(0), "only");
        assert!(matches!(src.get(0), Cow::Borrowed(_)));
    }
}
