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
//! * **Golden digests** — one digest per app of every point's exact key,
//!   register count and metric bits, over the Table-4 spaces and a
//!   stride of the fine matmul grid: every generated program and static
//!   figure is pinned, not just one point per app.

use gpu_autotune::arch::{MachineSpec, ResourceUsage};
use gpu_autotune::ir::analysis::register_pressure;
use gpu_autotune::ir::linear::{linearize, LinOp, LinearProgram};
use gpu_autotune::ir::Launch;
use gpu_autotune::kernels::{by_name, App, NAMES};
use gpu_autotune::optspace::candidate::Candidate;
use gpu_autotune::optspace::engine::cache::{self, ClassKey};
use gpu_autotune::optspace::space::Point;

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

/// Order-sensitive digest of 64-bit words (the SplitMix64 finalizer
/// chain the key scheme uses, from its own seed).
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        let mut z = self.0 ^ w;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

/// Fold what generation and static evaluation produce for `points` of
/// `app` into one digest: per point, the exact key (the whole linearized
/// program, launch and usage), the register count, and the bits of
/// Efficiency and Utilization (a fixed marker for invalid executables).
fn generated_digest(
    app: &dyn App,
    points: impl Iterator<Item = Point>,
    spec: &MachineSpec,
) -> (usize, u64) {
    let mut d = Digest(0x243f_6a88_85a3_08d3);
    let mut n = 0;
    for p in points {
        let c = app.instantiate(&p);
        let regs = register_pressure(&c.kernel).regs_per_thread;
        let usage = ResourceUsage::new(c.launch.threads_per_block(), regs, c.kernel.smem_bytes);
        d.word(cache::exact_key(&linearize(&c.kernel), &c.launch, &usage, spec));
        d.word(u64::from(regs));
        match c.evaluate(spec) {
            Ok(e) => {
                d.word(e.metrics.efficiency.to_bits());
                d.word(e.metrics.utilization.to_bits());
            }
            Err(_) => d.word(u64::MAX),
        }
        n += 1;
    }
    (n, d.0)
}

/// Every generated program and static figure, pinned. A change to the
/// IR, the passes or the analyses that moves any generated kernel or
/// metric of these points fails here. The digests fold in scheme-2
/// exact keys, so a `cache::KEY_SCHEME` bump re-records them along with
/// the golden keys above.
#[test]
fn golden_digests_of_generated_code_and_static_metrics() {
    let spec = MachineSpec::geforce_8800_gtx();
    let mut actual: Vec<(String, usize, u64)> = NAMES
        .iter()
        .map(|&name| {
            let app = by_name(name, "default").expect("registered app");
            let (n, digest) = generated_digest(app.as_ref(), app.space().points(), &spec);
            (name.to_string(), n, digest)
        })
        .collect();

    // A fixed stride of the 102,400-point fine grid. 399 is odd and
    // steps through every axis, so the sample holds both prefetch and
    // spill settings and the unroll = 0 / 63 and ounroll = 16 corners.
    let fine = by_name("matmul", "fine").expect("matmul declares a fine grid");
    let sample: Vec<_> = fine.space().points().step_by(399).take(256).collect();
    for (axis, value) in [("unroll", 0), ("unroll", 63), ("ounroll", 16)] {
        assert!(sample.iter().any(|p| p.u32(axis) == value), "sample misses {axis} = {value}");
    }
    for axis in ["prefetch", "spill"] {
        assert!(sample.iter().any(|p| p.flag(axis)), "sample never sets {axis}");
        assert!(sample.iter().any(|p| !p.flag(axis)), "sample always sets {axis}");
    }
    let (n, digest) = generated_digest(fine.as_ref(), sample.into_iter(), &spec);
    actual.push(("matmul-fine".to_string(), n, digest));

    let golden: [(&str, usize, u64); 5] = [
        ("matmul", 96, 0x4f28_6ed0_3f9f_d4fc),
        ("cp", 40, 0x73e4_bb6a_ec49_db7d),
        ("sad", 675, 0xe1af_e976_00c5_c8ff),
        ("mri", 175, 0x5819_c261_1c62_08a9),
        ("matmul-fine", 256, 0x986a_cf64_fb23_789b),
    ];
    let golden: Vec<(String, usize, u64)> =
        golden.iter().map(|&(name, n, d)| (name.to_string(), n, d)).collect();
    assert_eq!(actual, golden);
}
