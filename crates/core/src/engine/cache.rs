//! Content-addressed keys for the timing-simulation memo cache.
//!
//! A simulation's result is a pure function of the linearized program,
//! the launch geometry, the per-thread resource usage, and the machine
//! spec — and of nothing else. (The invocation count deliberately stays
//! *out* of the key: it scales a cached per-invocation report
//! arithmetically, so work-per-invocation variants share one entry.)
//!
//! Two keys per input, computed in one walk ([`keys`]):
//!
//! * the **exact key** — hash of everything above. Equal keys ⇒
//!   identical simulation, the report is reused outright.
//! * the **class key** ([`ClassKey`]) — the same hash with every
//!   **top-level** loop's trip count masked out, plus the masked trip
//!   counts as data. Inputs that agree on the class hash but differ in
//!   top-level trip counts form a *family* that
//!   `gpu_sim::timing::simulate_family` evaluates in a single forked run
//!   (the MRI-FHD invocation clusters of Figure 6(b)); any number of
//!   top-level axes may vary across the members.
//!
//! # Key scheme
//!
//! The exact key is also the on-disk key of the result store and of
//! checkpoints, so its value is specified here rather than left to a
//! std hasher, and versioned by [`KEY_SCHEME`]:
//!
//! 1. The input is encoded field by field into 64-bit words, without
//!    allocating: the machine spec (floats via `f64::to_bits`), the
//!    launch and usage, the program header and op count, then one short
//!    word group per op — op kind, destination, offset, `coalesced`,
//!    `replay_ways` and each operand (float immediates via
//!    `f32::to_bits`, so `0.0`/`-0.0` and distinct NaN payloads stay
//!    apart), or a loop header's counter, end and trip count, or a back
//!    edge's start. A top-level loop header is encoded *without* its trip
//!    count, under a tag of its own.
//! 2. The words are absorbed in order, from a fixed seed, as
//!    `h = mix(h ^ word)`, where `mix` is the SplitMix64 finalizer. The
//!    state after the last op is the class hash. Absorbing a trailer —
//!    a tag, the number of top-level trip counts and the counts
//!    themselves — yields the exact key.
//!
//! Every encoding is prefix-free (counts precede variable-length parts),
//! so distinct inputs are distinct word sequences. Changing any key
//! value — the encoding, the hash, or the order — requires bumping
//! [`KEY_SCHEME`]; the golden tests pin the values.

use gpu_arch::{MachineSpec, MemorySpace, ResourceUsage};
use gpu_ir::linear::{LinOp, LinearProgram};
use gpu_ir::{Instr, Launch, Op, Operand, Special};

/// Version of the key scheme described in the module docs. Persisted
/// with every stored key (result-store records, checkpoints); keys
/// written under another scheme are ignored rather than trusted.
/// Scheme 1 was the unversioned, `Debug`-string, `DefaultHasher` key of
/// earlier builds.
pub const KEY_SCHEME: u64 = 2;

/// Class identity of a simulation input: the structural hash with
/// top-level trip counts masked, and those trip counts as a vector (in
/// code order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassKey {
    /// Hash of the trip-count-masked structure.
    pub hash: u64,
    /// The masked top-level trip counts, in code order.
    pub top_trips: Vec<u32>,
}

impl ClassKey {
    /// Whether `self` and `other` agree on the trip-masked structure —
    /// the shape `simulate_family` can fork. Members may differ in any
    /// number of top-level trip counts: the forked run varies every
    /// differing axis. (Same hash and same trips means exact duplicates,
    /// which also qualifies.)
    pub fn family_compatible(&self, other: &Self) -> bool {
        self.hash == other.hash && self.top_trips.len() == other.top_trips.len()
    }
}

/// The key hash: 64-bit words absorbed one at a time as
/// `h = mix(h ^ word)` from a fixed seed, where `mix` is the SplitMix64
/// finalizer. `mix` is a bijection with full avalanche, so two inputs
/// differing in a single word never collide.
#[derive(Debug, Clone, Copy)]
struct KeyHash(u64);

impl KeyHash {
    /// The first 64 fractional bits of √2.
    const SEED: u64 = 0x6a09_e667_f3bc_c908;

    fn word(&mut self, w: u64) {
        let mut z = self.0 ^ w;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    /// Two 32-bit fields as one word.
    fn pair(&mut self, lo: u32, hi: u32) {
        self.word(u64::from(lo) | u64::from(hi) << 32);
    }
}

/// Word-group tags (low byte of an op's first word).
const TAG_INSTR: u64 = 1;
const TAG_SYNC: u64 = 2;
const TAG_LOOP: u64 = 3;
const TAG_LOOP_MASKED: u64 = 4;
const TAG_LOOP_END: u64 = 5;
const TAG_TOP_TRIPS: u64 = 6;

fn space_code(s: MemorySpace) -> u64 {
    match s {
        MemorySpace::Global => 0,
        MemorySpace::Shared => 1,
        MemorySpace::Constant => 2,
        MemorySpace::Texture => 3,
        MemorySpace::Local => 4,
    }
}

fn op_code(op: Op) -> u64 {
    match op {
        Op::FAdd => 0,
        Op::FSub => 1,
        Op::FMul => 2,
        Op::FMad => 3,
        Op::FMin => 4,
        Op::FMax => 5,
        Op::FNeg => 6,
        Op::FAbs => 7,
        Op::Rcp => 8,
        Op::Rsqrt => 9,
        Op::Sqrt => 10,
        Op::Sin => 11,
        Op::Cos => 12,
        Op::Ex2 => 13,
        Op::IAdd => 14,
        Op::ISub => 15,
        Op::IMul => 16,
        Op::IMad => 17,
        Op::IDiv => 18,
        Op::IRem => 19,
        Op::Shl => 20,
        Op::Shr => 21,
        Op::And => 22,
        Op::Or => 23,
        Op::Xor => 24,
        Op::IMin => 25,
        Op::IMax => 26,
        Op::Mov => 27,
        Op::F2I => 28,
        Op::I2F => 29,
        Op::SetLt => 30,
        Op::SetLe => 31,
        Op::SetEq => 32,
        Op::SetNe => 33,
        Op::Selp => 34,
        Op::Ld(s) => 64 + space_code(s),
        Op::St(s) => 80 + space_code(s),
    }
}

fn special_code(s: Special) -> u32 {
    match s {
        Special::TidX => 0,
        Special::TidY => 1,
        Special::CtaIdX => 2,
        Special::CtaIdY => 3,
        Special::NTidX => 4,
        Special::NTidY => 5,
        Special::NCtaIdX => 6,
        Special::NCtaIdY => 7,
    }
}

fn hash_instr(h: &mut KeyHash, i: &Instr) {
    let Instr { op, dst, srcs, offset, coalesced, replay_ways } = i;
    h.word(
        TAG_INSTR
            | op_code(*op) << 8
            | u64::from(dst.is_some()) << 16
            | u64::from(*coalesced) << 17
            | u64::from(*replay_ways) << 24
            | (srcs.len() as u64) << 32,
    );
    h.pair(dst.map_or(0, |d| d.0), *offset as u32);
    for src in srcs {
        match *src {
            Operand::Reg(r) => h.pair(0, r.0),
            Operand::ImmF32(x) => h.pair(1, x.to_bits()),
            Operand::ImmI32(x) => h.pair(2, x as u32),
            Operand::Special(s) => h.pair(3, special_code(s)),
            Operand::Param(p) => h.pair(4, p),
        }
    }
}

/// The per-search part of the key: the hash state after absorbing the
/// machine spec, built once and shared by every candidate keyed against
/// that spec.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyContext(KeyHash);

impl KeyContext {
    /// Absorb `spec` (every field, floats via `to_bits`).
    pub(crate) fn new(spec: &MachineSpec) -> Self {
        let MachineSpec {
            num_sms,
            sps_per_sm,
            sfus_per_sm,
            clock_hz,
            warp_size,
            issue_cycles_per_warp,
            max_threads_per_sm,
            max_blocks_per_sm,
            registers_per_sm,
            shared_mem_per_sm,
            max_threads_per_block,
            global_bandwidth_bytes_per_sec,
            global_latency_min,
            global_latency_max,
            arith_latency,
            sfu_latency,
            sfu_issue_cycles,
            shared_latency,
            constant_latency,
            coalesced_transaction_bytes,
            uncoalesced_transaction_bytes,
        } = *spec;
        let mut h = KeyHash(KeyHash::SEED);
        h.pair(num_sms, sps_per_sm);
        h.pair(sfus_per_sm, warp_size);
        h.word(clock_hz.to_bits());
        h.pair(issue_cycles_per_warp, max_threads_per_sm);
        h.pair(max_blocks_per_sm, registers_per_sm);
        h.pair(shared_mem_per_sm, max_threads_per_block);
        h.word(global_bandwidth_bytes_per_sec.to_bits());
        h.pair(global_latency_min, global_latency_max);
        h.pair(arith_latency, sfu_latency);
        h.pair(sfu_issue_cycles, shared_latency);
        h.pair(constant_latency, coalesced_transaction_bytes);
        h.word(u64::from(uncoalesced_transaction_bytes));
        Self(h)
    }

    /// The exact key and the class key of one simulation input, in a
    /// single walk over its code.
    pub(crate) fn keys(
        &self,
        prog: &LinearProgram,
        launch: &Launch,
        usage: &ResourceUsage,
    ) -> (u64, ClassKey) {
        let mut h = self.0;
        h.pair(launch.grid.x, launch.grid.y);
        h.pair(launch.block.x, launch.block.y);
        h.pair(usage.threads_per_block, usage.regs_per_thread);
        h.word(u64::from(usage.smem_per_block));
        h.pair(prog.num_vregs, prog.smem_words);
        h.word(u64::from(prog.num_params));
        h.word(prog.code.len() as u64);
        let mut top_trips = Vec::new();
        let mut depth = 0usize;
        for op in &prog.code {
            match op {
                LinOp::Instr(i) => hash_instr(&mut h, i),
                LinOp::Sync => h.word(TAG_SYNC),
                LinOp::LoopStart { counter, trips, end } => {
                    let tag = if depth == 0 { TAG_LOOP_MASKED } else { TAG_LOOP };
                    h.word(
                        tag | u64::from(counter.is_some()) << 8
                            | u64::from(counter.map_or(0, |c| c.0)) << 32,
                    );
                    h.word(*end as u64);
                    if depth == 0 {
                        top_trips.push(*trips);
                    } else {
                        h.word(u64::from(*trips));
                    }
                    depth += 1;
                }
                LinOp::LoopEnd { start } => {
                    depth -= 1;
                    h.word(TAG_LOOP_END | (*start as u64) << 8);
                }
            }
        }
        let class = h.0;
        h.word(TAG_TOP_TRIPS | (top_trips.len() as u64) << 8);
        for &t in &top_trips {
            h.word(u64::from(t));
        }
        (h.0, ClassKey { hash: class, top_trips })
    }
}

/// The exact key and the class key of one simulation input, in a
/// single walk over its code (the spec absorbed afresh; the engine
/// absorbs it once per call).
pub fn keys(
    prog: &LinearProgram,
    launch: &Launch,
    usage: &ResourceUsage,
    spec: &MachineSpec,
) -> (u64, ClassKey) {
    KeyContext::new(spec).keys(prog, launch, usage)
}

/// Full content hash: equal keys mean the timing simulation would replay
/// identically.
pub fn exact_key(
    prog: &LinearProgram,
    launch: &Launch,
    usage: &ResourceUsage,
    spec: &MachineSpec,
) -> u64 {
    keys(prog, launch, usage, spec).0
}

/// Family identity: the content hash with top-level trip counts masked.
pub fn class_key(
    prog: &LinearProgram,
    launch: &Launch,
    usage: &ResourceUsage,
    spec: &MachineSpec,
) -> ClassKey {
    keys(prog, launch, usage, spec).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Kernel};

    fn kernel(trips: u32, inner_trips: u32, imm: f32) -> Kernel {
        let mut b = KernelBuilder::new("k");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(trips, |b| {
            let x = b.ld_global(p, 0);
            b.repeat(inner_trips, |b| {
                b.fmad_acc(x, imm, acc);
            });
        });
        b.st_global(p, 0, acc);
        b.finish()
    }

    fn ctx() -> (Launch, ResourceUsage, MachineSpec) {
        (
            Launch::new(Dim::new_1d(64), Dim::new_1d(128)),
            ResourceUsage::new(128, 10, 0),
            MachineSpec::geforce_8800_gtx(),
        )
    }

    #[test]
    fn identical_inputs_agree_on_both_keys() {
        let (launch, usage, spec) = ctx();
        let a = linearize(&kernel(8, 3, 1.5));
        let b = linearize(&kernel(8, 3, 1.5));
        assert_eq!(exact_key(&a, &launch, &usage, &spec), exact_key(&b, &launch, &usage, &spec));
        assert_eq!(class_key(&a, &launch, &usage, &spec), class_key(&b, &launch, &usage, &spec));
    }

    #[test]
    fn top_level_trip_variants_share_a_class_but_not_an_exact_key() {
        let (launch, usage, spec) = ctx();
        let a = linearize(&kernel(8, 3, 1.5));
        let b = linearize(&kernel(4, 3, 1.5));
        assert_ne!(exact_key(&a, &launch, &usage, &spec), exact_key(&b, &launch, &usage, &spec));
        let ca = class_key(&a, &launch, &usage, &spec);
        let cb = class_key(&b, &launch, &usage, &spec);
        assert_eq!(ca.hash, cb.hash);
        assert!(ca.family_compatible(&cb));
        assert_eq!(ca.top_trips, vec![8]);
        assert_eq!(cb.top_trips, vec![4]);
    }

    #[test]
    fn multiple_differing_top_level_trips_stay_family_compatible() {
        let ca = ClassKey { hash: 7, top_trips: vec![8, 3] };
        let cb = ClassKey { hash: 7, top_trips: vec![4, 9] };
        assert!(ca.family_compatible(&cb), "every top-level axis may vary");
        assert!(!ca.family_compatible(&ClassKey { hash: 8, top_trips: vec![8, 3] }));
        assert!(!ca.family_compatible(&ClassKey { hash: 7, top_trips: vec![8] }));
    }

    #[test]
    fn inner_trip_counts_and_immediates_split_classes() {
        let (launch, usage, spec) = ctx();
        let a = class_key(&linearize(&kernel(8, 3, 1.5)), &launch, &usage, &spec);
        let inner = class_key(&linearize(&kernel(8, 5, 1.5)), &launch, &usage, &spec);
        let imm = class_key(&linearize(&kernel(8, 3, 1.5000001)), &launch, &usage, &spec);
        assert_ne!(a.hash, inner.hash, "inner trips are not masked");
        assert_ne!(a.hash, imm.hash, "float immediates are hashed exactly");
    }

    /// Changing these values requires bumping [`KEY_SCHEME`]: they are
    /// the keys persisted stores and checkpoints hold.
    #[test]
    fn golden_keys_of_the_test_kernel() {
        let (launch, usage, spec) = ctx();
        let (exact, class) = keys(&linearize(&kernel(8, 3, 1.5)), &launch, &usage, &spec);
        assert_eq!((exact, class.hash), (0x1a70_cb11_c1c4_6e1f, 0x5222_e1b2_4ae1_7ee3));
        assert_eq!(class.top_trips, vec![8]);
    }

    #[test]
    fn float_immediates_are_keyed_by_their_bits() {
        let (launch, usage, spec) = ctx();
        let key = |imm: f32| exact_key(&linearize(&kernel(8, 3, imm)), &launch, &usage, &spec);
        // Equal under `==`, yet distinguishable by a simulation (1/x).
        assert_ne!(key(0.0), key(-0.0));
        let (nan_a, nan_b) = (f32::from_bits(0x7fc0_0000), f32::from_bits(0x7fc0_0001));
        assert!(nan_a.is_nan() && nan_b.is_nan());
        assert_ne!(key(nan_a), key(nan_b), "NaN payloads stay apart");
        assert_eq!(key(nan_a), key(nan_a), "a NaN still keys deterministically");
    }

    #[test]
    fn launch_usage_and_spec_are_part_of_the_key() {
        let (launch, usage, spec) = ctx();
        let prog = linearize(&kernel(8, 3, 1.5));
        let base = exact_key(&prog, &launch, &usage, &spec);
        let other_launch = Launch::new(Dim::new_1d(128), Dim::new_1d(128));
        let other_usage = ResourceUsage::new(128, 11, 0);
        let other_spec = MachineSpec::gtx_280_like();
        assert_ne!(base, exact_key(&prog, &other_launch, &usage, &spec));
        assert_ne!(base, exact_key(&prog, &launch, &other_usage, &spec));
        assert_ne!(base, exact_key(&prog, &launch, &usage, &other_spec));
    }
}
