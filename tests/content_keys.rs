//! The memo cache's content keys over the real applications.
//!
//! * **Golden values** — the exact and class keys of one fixed point of
//!   each app are pinned. They are the on-disk key of the result store
//!   and of checkpoints, so a change to any of them must come with a
//!   bump of `cache::KEY_SCHEME`.
//! * **Equivalence** — over every point of the four Table-4 spaces, two
//!   candidates share an exact key iff their (linearized program,
//!   launch, resource usage) compare equal, and share a class hash iff
//!   they compare equal once top-level trip counts are masked: the
//!   encoding neither merges distinct programs nor splits equal ones.

use gpu_autotune::arch::{MachineSpec, ResourceUsage};
use gpu_autotune::ir::analysis::register_pressure;
use gpu_autotune::ir::linear::{linearize, LinOp, LinearProgram};
use gpu_autotune::ir::Launch;
use gpu_autotune::kernels::{by_name, NAMES};
use gpu_autotune::optspace::candidate::Candidate;
use gpu_autotune::optspace::engine::cache::{self, ClassKey};

/// One keyed simulation input.
struct Keyed {
    label: String,
    prog: LinearProgram,
    /// `prog` with every top-level loop's trip count zeroed.
    masked: LinearProgram,
    launch: Launch,
    usage: ResourceUsage,
    exact: u64,
    class: ClassKey,
}

impl Keyed {
    /// Key `c` the way the engine does. The usage is computed directly
    /// (not through static evaluation) so unlaunchable points are keyed
    /// too.
    fn of(c: &Candidate, spec: &MachineSpec) -> Self {
        let prog = linearize(&c.kernel);
        let usage = ResourceUsage::new(
            c.launch.threads_per_block(),
            register_pressure(&c.kernel).regs_per_thread,
            c.kernel.smem_bytes,
        );
        let (exact, class) = cache::keys(&prog, &c.launch, &usage, spec);
        let masked = mask_top_trips(&prog);
        Self { label: c.label.clone(), prog, masked, launch: c.launch, usage, exact, class }
    }

    fn content_eq(&self, other: &Self) -> bool {
        self.prog == other.prog && self.launch == other.launch && self.usage == other.usage
    }

    fn masked_eq(&self, other: &Self) -> bool {
        self.masked == other.masked && self.launch == other.launch && self.usage == other.usage
    }
}

fn mask_top_trips(prog: &LinearProgram) -> LinearProgram {
    let mut masked = prog.clone();
    let mut depth = 0usize;
    for op in &mut masked.code {
        match op {
            LinOp::LoopStart { trips, .. } => {
                if depth == 0 {
                    *trips = 0;
                }
                depth += 1;
            }
            LinOp::LoopEnd { .. } => depth -= 1,
            LinOp::Instr(_) | LinOp::Sync => {}
        }
    }
    masked
}

/// These are the keys persisted stores and checkpoints hold. If they
/// change while the generated programs do not, the key scheme changed:
/// bump `cache::KEY_SCHEME` with them.
#[test]
fn golden_keys_of_one_point_per_app() {
    let spec = MachineSpec::geforce_8800_gtx();
    // (app, point ordinal, exact key, class hash, top-level trips)
    let golden: [(&str, usize, u64, u64, &[u32]); 4] = [
        ("matmul", 0, 0x446f_ed1e_7bc8_e220, 0x90cb_d3a9_6f01_0008, &[64]),
        ("cp", 0, 0x924f_babc_d027_69d6, 0x82ed_42ea_45a7_42c2, &[128]),
        ("sad", 0, 0x114d_63ae_2bee_8831, 0xe748_2474_a8db_5f60, &[1, 32]),
        ("mri", 0, 0x2d51_0bfb_4250_5648, 0x09ac_ce0a_4ce8_189a, &[2048]),
    ];
    let actual: Vec<(&str, usize, u64, u64, Vec<u32>)> = golden
        .iter()
        .map(|&(name, ordinal, ..)| {
            let app = by_name(name, "default").expect("registered app");
            let point = app.space().points().nth(ordinal).expect("point in space");
            let k = Keyed::of(&app.instantiate(&point), &spec);
            (name, ordinal, k.exact, k.class.hash, k.class.top_trips)
        })
        .collect();
    let golden: Vec<_> = golden.iter().map(|&(n, o, e, c, t)| (n, o, e, c, t.to_vec())).collect();
    assert_eq!(actual, golden);
}

#[test]
fn keys_agree_exactly_with_content_equality_over_the_table4_spaces() {
    let spec = MachineSpec::geforce_8800_gtx();
    let mut keyed: Vec<Keyed> = Vec::new();
    for name in NAMES {
        let app = by_name(name, "default").expect("registered app");
        keyed.extend(app.space().points().map(|p| Keyed::of(&app.instantiate(&p), &spec)));
    }
    assert_eq!(keyed.len(), 986, "the four Table-4 spaces");

    let mut class_pairs = 0usize;
    for (i, a) in keyed.iter().enumerate() {
        for b in &keyed[i + 1..] {
            let same_exact = a.exact == b.exact;
            let content = a.content_eq(b);
            assert_eq!(same_exact, content, "exact key vs content: {} / {}", a.label, b.label);
            let same_class = a.class.hash == b.class.hash;
            let masked = a.masked_eq(b);
            assert_eq!(
                same_class, masked,
                "class hash vs masked content: {} / {}",
                a.label, b.label
            );
            if same_class {
                assert_eq!(a.class.top_trips.len(), b.class.top_trips.len());
            }
            class_pairs += usize::from(masked);
        }
    }
    // The spaces hold families differing only in top-level trip counts
    // (MRI-FHD's work-per-invocation variants), so the class relation is
    // exercised beyond exact equality.
    assert!(class_pairs > 0, "no trip-count families in the spaces");
}
