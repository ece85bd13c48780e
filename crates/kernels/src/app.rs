//! Object-safe interface over the four applications, for harness code
//! that iterates the whole suite (Table 4, Figure 6).
//!
//! An application exposes its optimization space *declaratively* — a
//! [`Space`] of named axes and constraints — plus an [`App::instantiate`]
//! hook that turns one [`Point`] into a ready-to-evaluate [`Candidate`].
//! The eager [`App::candidates`] view is a default method composing the
//! two, and [`SpaceSource`] adapts an app into the engine's lazy
//! [`CandidateSource`], so candidates are generated on demand inside
//! the worker pool instead of being materialized up front.

use std::borrow::Cow;

use gpu_ir::Launch;
use optspace::candidate::Candidate;
use optspace::space::{CandidateSource, Instantiator, Point, Space, Value};

/// A tunable application: a name, a declared configuration space, and a
/// generator from points to candidates.
pub trait App: Sync {
    /// Application name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// The declared optimization space (Table 4's "Parameters Varied"),
    /// in the application's historical enumeration order. Configurations
    /// that violate hardware limits are *included* — static evaluation
    /// classifies them as invalid executables, as the paper's far-right
    /// Figure 3 bar shows.
    fn space(&self) -> Space;

    /// Generate the candidate for one point of [`App::space`]. The
    /// candidate's label must equal `point.to_string()`.
    fn instantiate(&self, point: &Point) -> Candidate;

    /// The launch geometry of `point`'s candidate, from its
    /// configuration alone: when `Some`, it must equal
    /// `instantiate(point).launch`. Static evaluation then settles an
    /// unlaunchable point (e.g. a block past Table 2's thread limit)
    /// without generating its kernel. The default, `None`, leaves every
    /// point to be generated, so wrappers that implement only the
    /// required methods keep working unchanged.
    fn launch(&self, point: &Point) -> Option<Launch> {
        let _ = point;
        None
    }

    /// Every configuration of the space as a [`Candidate`], in
    /// enumeration order — the eager view, equivalent point-for-point to
    /// lazy instantiation through [`SpaceSource`].
    fn candidates(&self) -> Vec<Candidate> {
        self.space().points().map(|p| self.instantiate(&p)).collect()
    }

    /// Snap an arbitrary grid assignment to one [`App::instantiate`]
    /// accepts (see [`Instantiator::legalize`]); bound probes evaluate
    /// optimistic corners that may violate structural constraints. The
    /// default accepts everything unchanged — apps whose generators
    /// panic on such corners (e.g. SAD's `pos`-divides-trips rule)
    /// override this.
    fn legalize(&self, space: &Space, values: &mut [Value]) {
        let _ = (space, values);
    }
}

/// An [`App`] as an [`Instantiator`], for subspace searches
/// (`optspace` cannot name `App`, and a blanket foreign-trait impl is
/// not ours to write).
pub struct AppInstantiator<'a>(pub &'a dyn App);

impl Instantiator for AppInstantiator<'_> {
    fn instantiate(&self, point: &Point) -> Candidate {
        self.0.instantiate(point)
    }

    fn launch(&self, point: &Point) -> Option<Launch> {
        self.0.launch(point)
    }

    fn legalize(&self, space: &Space, values: &mut [Value]) {
        self.0.legalize(space, values);
    }
}

/// A lazy [`CandidateSource`] over an application's points: `get`
/// instantiates the candidate on the calling (worker) thread, so kernel
/// generation and the pass pipelines parallelize across the pool and
/// the space is never materialized up front.
pub struct SpaceSource<'a> {
    app: &'a dyn App,
    points: Vec<Point>,
}

impl<'a> SpaceSource<'a> {
    /// Source over an explicit point selection (e.g. the survivors of a
    /// `--filter`/`--sample` narrowing).
    pub fn new(app: &'a dyn App, points: Vec<Point>) -> Self {
        Self { app, points }
    }

    /// Source over the app's full space.
    pub fn full(app: &'a dyn App) -> Self {
        let points = app.space().points().collect();
        Self { app, points }
    }

    /// The points this source will instantiate, in enumeration order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The labels of every point, without instantiating any kernel.
    pub fn labels(&self) -> Vec<String> {
        self.points.iter().map(Point::to_string).collect()
    }
}

impl CandidateSource for SpaceSource<'_> {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn label(&self, index: usize) -> String {
        self.points[index].to_string()
    }

    fn get(&self, index: usize) -> Cow<'_, Candidate> {
        Cow::Owned(self.app.instantiate(&self.points[index]))
    }

    fn launch(&self, index: usize) -> Option<Launch> {
        self.app.launch(&self.points[index])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::{Dim, Launch};

    struct Dummy;
    impl App for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn space(&self) -> Space {
            Space::builder().axis("knob", [1u32, 2]).build()
        }
        fn instantiate(&self, point: &Point) -> Candidate {
            Candidate::new(
                point.to_string(),
                KernelBuilder::new("d").finish(),
                Launch::new(Dim::new_1d(point.u32("knob")), Dim::new_1d(32)),
            )
        }
    }

    #[test]
    fn trait_is_object_safe_and_candidates_compose() {
        let apps: Vec<Box<dyn App>> = vec![Box::new(Dummy)];
        assert_eq!(apps[0].name(), "dummy");
        let cands = apps[0].candidates();
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].label, "knob=1");
    }

    #[test]
    fn space_source_instantiates_lazily_and_matches_eager() {
        let eager = Dummy.candidates();
        let source = SpaceSource::full(&Dummy);
        assert_eq!(source.len(), eager.len());
        assert_eq!(source.labels(), vec!["knob=1", "knob=2"]);
        for (i, want) in eager.iter().enumerate() {
            assert_eq!(source.label(i), want.label);
            assert_eq!(source.get(i).as_ref(), want);
        }
    }
}
