//! The benchmark's workloads: which spaces each one searches, with
//! which strategy, and the optimum each search must reach.
//!
//! Everything here goes through the library's public entry points
//! (`App`, `SpaceSource`, `SearchStrategy::run_source`,
//! `BranchAndBound::run_space`), exactly as `gpu-autotune tune` does.

use gpu_arch::MachineSpec;
use gpu_kernels::cp::Cp;
use gpu_kernels::matmul::{MatMul, MatMulFine};
use gpu_kernels::mri_fhd::MriFhd;
use gpu_kernels::sad::Sad;
use gpu_kernels::{App, AppInstantiator, SpaceSource};
use optspace::engine::{EngineConfig, EvalEngine};
use optspace::space::{Filter, Point, Selection, Space};
use optspace::tuner::{BranchAndBound, ExhaustiveSearch, PrunedSearch, SearchReport};
use optspace::SearchStrategy;

/// Worker threads of every workload's searches: the measuring machine
/// has two cores.
pub const JOBS: usize = 2;

/// Points in a `fine-pareto` slice (64 unroll × 16 ounroll × 2 × 2).
pub const FINE_SLICE_POINTS: usize = 4096;

/// The named workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exhaustive search over the four Table-4 paper spaces.
    PaperExhaustive,
    /// Pareto-pruned search over a 4,096-point slice of the fine grid.
    FinePareto,
    /// Branch-and-bound over a 12,800-point sub-grid of the fine grid.
    FineBnb,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::PaperExhaustive, Workload::FinePareto, Workload::FineBnb];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperExhaustive => "paper-exhaustive",
            Workload::FinePareto => "fine-pareto",
            Workload::FineBnb => "fine-bnb",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a task searches its space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// `ExhaustiveSearch` through `run_source`.
    Exhaustive,
    /// `PrunedSearch::default()` through `run_source`.
    Pareto,
    /// `BranchAndBound::run_space` over the app's whole space.
    Bnb,
}

/// One search of a workload: an app, its points, a strategy, and the
/// engine it runs on.
pub struct Task {
    /// Short name used in tables and in the recorded optima.
    pub name: &'static str,
    /// The application the points belong to.
    pub app: Box<dyn App>,
    /// The app's declared space.
    pub space: Space,
    /// Points to search (`Exhaustive`/`Pareto`); `Bnb` searches `space`.
    pub points: Vec<Point>,
    /// Search strategy.
    pub strategy: Strategy,
    /// A fresh engine per task: its decode cache starts cold, as in a
    /// `tune` process.
    pub engine: EvalEngine,
}

/// Everything built before the first engine call.
pub struct Setup {
    /// The workload's searches, run in order.
    pub tasks: Vec<Task>,
    /// The machine the searches target.
    pub spec: MachineSpec,
}

/// Build a workload's apps, spaces, selections and engines.
pub fn setup(workload: Workload, seed: u64, jobs: usize) -> Setup {
    let tasks = match workload {
        Workload::PaperExhaustive => {
            let apps: [(&'static str, Box<dyn App>); 4] = [
                ("matmul", Box::new(MatMul::reduced_problem())),
                ("cp", Box::new(Cp::paper_problem())),
                ("sad", Box::new(Sad::paper_problem())),
                ("mri", Box::new(MriFhd::paper_problem())),
            ];
            apps.into_iter()
                .map(|(name, app)| whole_space_task(name, app, Strategy::Exhaustive, jobs))
                .collect()
        }
        Workload::FinePareto => {
            let app = MatMulFine::reduced_problem();
            let space = app.space();
            let points = fine_slice(&space, seed);
            vec![Task {
                name: "fine-slice",
                app: Box::new(app),
                space,
                points,
                strategy: Strategy::Pareto,
                engine: engine(jobs),
            }]
        }
        Workload::FineBnb => {
            let app = FineSubGrid::for_seed(seed);
            vec![whole_space_task("fine-subgrid", Box::new(app), Strategy::Bnb, jobs)]
        }
    };
    Setup { tasks, spec: MachineSpec::geforce_8800_gtx() }
}

/// A task over every point of an app's space.
pub fn whole_space_task(
    name: &'static str,
    app: Box<dyn App>,
    strategy: Strategy,
    jobs: usize,
) -> Task {
    let space = app.space();
    let points = if strategy == Strategy::Bnb { Vec::new() } else { space.points().collect() };
    Task { name, app, space, points, strategy, engine: engine(jobs) }
}

fn engine(jobs: usize) -> EvalEngine {
    EvalEngine::new(EngineConfig { jobs, ..Default::default() })
}

/// The `fine-pareto` points. Seed 0 is the `tile=16, rect=4` slice
/// (`tune matmul --grid fine --filter tile=16 --filter rect=4`). Any
/// other seed draws one point from each run of 25 consecutive grid
/// ranks (102,400 / 4,096), so every seed's slice mixes kernel shapes
/// in the same proportions and costs about the same to search.
pub fn fine_slice(space: &Space, seed: u64) -> Vec<Point> {
    if seed == 0 {
        let selection = Selection {
            filters: vec![
                Filter { axis: "tile".into(), value: "16".into() },
                Filter { axis: "rect".into(), value: "4".into() },
            ],
            sample: None,
        };
        return selection.apply(space).expect("the filters name declared axes");
    }
    let stride = space.grid_len() / FINE_SLICE_POINTS;
    let mut rng = SplitMix64(seed);
    (0..FINE_SLICE_POINTS)
        .map(|k| {
            let rank = k * stride + (rng.next() % stride as u64) as usize;
            space.point_at_grid_rank(rank).expect("rank inside the grid")
        })
        .collect()
}

/// A sub-grid of the fine matmul grid with the fine grid's axis names:
/// every `tile`, `rect`, `prefetch` and `spill` value, `unroll` 0–15
/// and `ounroll` 1–8 (12,800 points). Kernels come from `MatMulFine`
/// itself.
pub struct FineSubGrid {
    fine: MatMulFine,
    unroll: Vec<u32>,
    ounroll: Vec<u32>,
}

impl FineSubGrid {
    /// Seed 0 declares the `unroll` and `ounroll` values in ascending
    /// order. Other seeds declare the same values in a seeded order, so
    /// the points get other grid ranks and branch-and-bound splits,
    /// probes and breaks ties along another path to the same optimal
    /// time. Drawing other values instead moved the peak resident set
    /// by up to half between seeds, too much for one memory bound.
    pub fn for_seed(seed: u64) -> Self {
        let mut unroll: Vec<u32> = (0..16).collect();
        let mut ounroll: Vec<u32> = (1..=8).collect();
        if seed != 0 {
            let mut rng = SplitMix64(seed);
            rng.shuffle(&mut unroll);
            rng.shuffle(&mut ounroll);
        }
        FineSubGrid { fine: MatMulFine::reduced_problem(), unroll, ounroll }
    }
}

impl App for FineSubGrid {
    fn name(&self) -> &'static str {
        "Matrix Multiplication (fine sub-grid)"
    }

    fn space(&self) -> Space {
        Space::builder()
            .axis("tile", [2u32, 4, 8, 16, 32])
            .axis("rect", [1u32, 2, 4, 8, 16])
            .axis("unroll", self.unroll.clone())
            .axis("ounroll", self.ounroll.clone())
            .axis("prefetch", [false, true])
            .axis("spill", [false, true])
            .label(|p| MatMulFine::config_of(p).to_string())
            .build()
    }

    fn instantiate(&self, point: &Point) -> optspace::Candidate {
        self.fine.instantiate(point)
    }
}

/// Small deterministic generator for seed-dependent inputs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    fn shuffle(&mut self, values: &mut [u32]) {
        for i in (1..values.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            values.swap(i, j);
        }
    }
}

/// Run one task untraced through the library's search entry point.
pub fn run_task(task: &Task, spec: &MachineSpec) -> SearchReport {
    match task.strategy {
        Strategy::Exhaustive => ExhaustiveSearch.run_source(&task.engine, &source(task), spec),
        Strategy::Pareto => PrunedSearch::default().run_source(&task.engine, &source(task), spec),
        Strategy::Bnb => BranchAndBound.run_space(
            &task.engine,
            &task.space,
            &AppInstantiator(task.app.as_ref()),
            spec,
        ),
    }
}

/// The lazy candidate source `tune` builds for a point list.
pub fn source(task: &Task) -> SpaceSource<'_> {
    SpaceSource::new(task.app.as_ref(), task.points.clone())
}

/// What a finished search decided, reduced to what the gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Task name.
    pub task: String,
    /// Label of the best configuration.
    pub best_label: Option<String>,
    /// Its simulated time (ms).
    pub best_ms: Option<f64>,
    /// `metrics.deterministic_json()`, compact.
    pub deterministic: String,
    /// Timing simulations executed.
    pub unique_sims: usize,
    /// Fresh simulations until the final best first appeared.
    pub sims_to_best: u64,
    /// Quarantined configurations.
    pub quarantined: usize,
    /// Configurations with a verdict: simulated, rejected statically
    /// (invalid or off the Pareto front), or bound-pruned.
    pub decided: usize,
}

impl Outcome {
    /// Reduce a report of `task`.
    pub fn of(task: &Task, report: &SearchReport) -> Outcome {
        // Report index `i` is the `i`-th point searched: of the point
        // list, or of the whole space for branch-and-bound.
        let best_label = report.best.map(|i| match task.strategy {
            Strategy::Bnb => task.space.points().nth(i).map(|p| p.to_string()).unwrap_or_default(),
            _ => task.points[i].to_string(),
        });
        Outcome {
            task: task.name.to_string(),
            best_label,
            best_ms: report.best_time_ms(),
            deterministic: report.metrics.deterministic_json().to_string_compact(),
            unique_sims: report.stats.unique_sims,
            sims_to_best: report.metrics.convergence.unique_to_optimum().unwrap_or(0),
            quarantined: report.quarantined_count(),
            decided: report.space_size - report.quarantined_count(),
        }
    }

    /// One tab-separated line, as a `--search-once` child prints it.
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.task,
            self.best_label.as_deref().unwrap_or(""),
            self.best_ms.map_or(String::new(), |t| t.to_string()),
            self.unique_sims,
            self.sims_to_best,
            self.quarantined,
            self.decided,
            self.deterministic
        )
    }

    /// Parse [`Outcome::to_line`].
    pub fn from_line(line: &str) -> Option<Outcome> {
        let f: Vec<&str> = line.splitn(8, '\t').collect();
        let [task, label, best_ms, unique, to_best, quarantined, decided, deterministic] = f[..]
        else {
            return None;
        };
        Some(Outcome {
            task: task.to_string(),
            best_label: (!label.is_empty()).then(|| label.to_string()),
            best_ms: if best_ms.is_empty() { None } else { Some(best_ms.parse().ok()?) },
            deterministic: deterministic.to_string(),
            unique_sims: unique.parse().ok()?,
            sims_to_best: to_best.parse().ok()?,
            quarantined: quarantined.parse().ok()?,
            decided: decided.parse().ok()?,
        })
    }
}

/// The optimum a seed-0 search must reach.
#[derive(Debug, Clone, Copy)]
pub struct Recorded {
    /// Task name.
    pub task: &'static str,
    /// Best configuration's label.
    pub label: &'static str,
    /// Its simulated time (ms), exactly.
    pub best_ms: f64,
}

/// Recorded seed-0 optima of every task.
pub const RECORDED: &[Recorded] = &[
    Recorded { task: "matmul", label: "16x16/1x4/uC/pf", best_ms: 2.061294814814815 },
    Recorded { task: "cp", label: "b64/t16/co", best_ms: 0.9572592592592593 },
    Recorded { task: "sad", label: "tpb64/mb2/p4r4c4", best_ms: 2.0486140740740737 },
    Recorded { task: "mri", label: "b64/u16/inv1", best_ms: 6.329199999999999 },
    Recorded { task: "fine-slice", label: "16x16/1x4/uC/o1/pf", best_ms: 2.061294814814815 },
    Recorded { task: "fine-subgrid", label: "16x16/1x4/uC/o8/pf", best_ms: 2.0081985185185185 },
];

/// Check one search's outcome: no quarantined configuration, the same
/// outcome as the reference run (same seed, another repetition, trace
/// setting or worker count), and, when given, the recorded optimum.
/// Returns one message per mismatch.
pub fn check(
    o: &Outcome,
    reference: Option<&Outcome>,
    recorded: Option<&[Recorded]>,
) -> Vec<String> {
    let mut errors = Vec::new();
    if o.quarantined > 0 {
        errors.push(format!("{}: {} configurations quarantined", o.task, o.quarantined));
    }
    if let Some(want) = reference.filter(|&want| o != want) {
        errors.push(format!(
            "{}: report differs from the reference run (best {:?} {:?} vs {:?} {:?})",
            o.task, o.best_label, o.best_ms, want.best_label, want.best_ms
        ));
    }
    if let Some(recorded) = recorded {
        match recorded.iter().find(|r| r.task == o.task) {
            Some(r) if o.best_label.as_deref() == Some(r.label) && o.best_ms == Some(r.best_ms) => {
            }
            Some(r) => errors.push(format!(
                "{}: best {:?} at {:?} ms, recorded {} at {} ms",
                o.task, o.best_label, o.best_ms, r.label, r.best_ms
            )),
            None => errors.push(format!("{}: no recorded optimum", o.task)),
        }
    }
    errors
}
