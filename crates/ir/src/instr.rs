//! The instruction set: G80-flavoured PTX operations.

use gpu_arch::MemorySpace;
use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::types::{Operand, VReg};

/// Operation kinds. Arity and operand meanings are documented per variant;
/// [`Op::arity`] is enforced by [`Instr::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    // ---- 32-bit float arithmetic (SP units) ----
    /// `d = a + b`
    FAdd,
    /// `d = a - b`
    FSub,
    /// `d = a * b`
    FMul,
    /// `d = a * b + c` — the G80's bread-and-butter multiply-add.
    FMad,
    /// `d = min(a, b)`
    FMin,
    /// `d = max(a, b)`
    FMax,
    /// `d = -a`
    FNeg,
    /// `d = |a|`
    FAbs,

    // ---- SFU transcendental ops ----
    /// `d = 1 / a`
    Rcp,
    /// `d = 1 / sqrt(a)`
    Rsqrt,
    /// `d = sqrt(a)`
    Sqrt,
    /// `d = sin(a)`
    Sin,
    /// `d = cos(a)`
    Cos,
    /// `d = 2^a`
    Ex2,

    // ---- 32-bit integer arithmetic ----
    /// `d = a + b`
    IAdd,
    /// `d = a - b`
    ISub,
    /// `d = a * b` (low 32 bits)
    IMul,
    /// `d = a * b + c`
    IMad,
    /// `d = a / b` (truncating; UB-free: x/0 = 0 as in SASS emulation)
    IDiv,
    /// `d = a % b` (x % 0 = 0)
    IRem,
    /// `d = a << b`
    Shl,
    /// `d = a >> b` (arithmetic)
    Shr,
    /// `d = a & b`
    And,
    /// `d = a | b`
    Or,
    /// `d = a ^ b`
    Xor,
    /// `d = min(a, b)` (signed)
    IMin,
    /// `d = max(a, b)` (signed)
    IMax,

    // ---- moves / conversions ----
    /// `d = a` (also used for `ld.param` and reading special registers)
    Mov,
    /// float → int (truncate)
    F2I,
    /// int → float
    I2F,

    // ---- predicates / select ----
    /// `d = (a < b)` as integer 0/1; float compare if operands are float.
    SetLt,
    /// `d = (a <= b)`
    SetLe,
    /// `d = (a == b)`
    SetEq,
    /// `d = (a != b)`
    SetNe,
    /// `d = c != 0 ? a : b`
    Selp,

    // ---- memory ----
    /// Load one 32-bit word: `d = space[addr + offset]`.
    Ld(MemorySpace),
    /// Store one 32-bit word: `space[addr + offset] = value`.
    St(MemorySpace),
}

impl Op {
    /// Number of source operands the op takes (memory offset excluded).
    pub fn arity(self) -> usize {
        match self {
            Op::FNeg
            | Op::FAbs
            | Op::Rcp
            | Op::Rsqrt
            | Op::Sqrt
            | Op::Sin
            | Op::Cos
            | Op::Ex2
            | Op::Mov
            | Op::F2I
            | Op::I2F => 1,
            Op::FAdd
            | Op::FSub
            | Op::FMul
            | Op::FMin
            | Op::FMax
            | Op::IAdd
            | Op::ISub
            | Op::IMul
            | Op::IDiv
            | Op::IRem
            | Op::Shl
            | Op::Shr
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::IMin
            | Op::IMax
            | Op::SetLt
            | Op::SetLe
            | Op::SetEq
            | Op::SetNe => 2,
            Op::FMad | Op::IMad | Op::Selp => 3,
            Op::Ld(_) => 1, // address
            Op::St(_) => 2, // address, value
        }
    }

    /// Whether the op executes on the special functional units
    /// (longer latency, 16-cycle issue on G80).
    pub fn is_sfu(self) -> bool {
        matches!(self, Op::Rcp | Op::Rsqrt | Op::Sqrt | Op::Sin | Op::Cos | Op::Ex2)
    }

    /// Whether the op is a floating-point arithmetic operation, and how
    /// many FLOPs it performs (MAD counts 2).
    pub fn flops(self) -> u32 {
        match self {
            Op::FMad => 2,
            Op::FAdd
            | Op::FSub
            | Op::FMul
            | Op::FMin
            | Op::FMax
            | Op::FNeg
            | Op::FAbs
            | Op::Rcp
            | Op::Rsqrt
            | Op::Sqrt
            | Op::Sin
            | Op::Cos
            | Op::Ex2 => 1,
            _ => 0,
        }
    }

    /// Whether the op produces a result register.
    pub fn has_dst(self) -> bool {
        !matches!(self, Op::St(_))
    }

    /// The memory space accessed, if this is a load or store.
    pub fn mem_space(self) -> Option<MemorySpace> {
        match self {
            Op::Ld(s) | Op::St(s) => Some(s),
            _ => None,
        }
    }

    /// Long-latency (off-chip / texture) memory operation — one of the
    /// paper's "blocking instructions" (section 4).
    pub fn is_long_latency_mem(self) -> bool {
        self.mem_space().is_some_and(MemorySpace::is_long_latency)
    }

    /// PTX-style mnemonic.
    pub fn mnemonic(self) -> String {
        match self {
            Op::FAdd => "add.f32".into(),
            Op::FSub => "sub.f32".into(),
            Op::FMul => "mul.f32".into(),
            Op::FMad => "mad.f32".into(),
            Op::FMin => "min.f32".into(),
            Op::FMax => "max.f32".into(),
            Op::FNeg => "neg.f32".into(),
            Op::FAbs => "abs.f32".into(),
            Op::Rcp => "rcp.f32".into(),
            Op::Rsqrt => "rsqrt.f32".into(),
            Op::Sqrt => "sqrt.f32".into(),
            Op::Sin => "sin.f32".into(),
            Op::Cos => "cos.f32".into(),
            Op::Ex2 => "ex2.f32".into(),
            Op::IAdd => "add.s32".into(),
            Op::ISub => "sub.s32".into(),
            Op::IMul => "mul.lo.s32".into(),
            Op::IMad => "mad.lo.s32".into(),
            Op::IDiv => "div.s32".into(),
            Op::IRem => "rem.s32".into(),
            Op::Shl => "shl.b32".into(),
            Op::Shr => "shr.s32".into(),
            Op::And => "and.b32".into(),
            Op::Or => "or.b32".into(),
            Op::Xor => "xor.b32".into(),
            Op::IMin => "min.s32".into(),
            Op::IMax => "max.s32".into(),
            Op::Mov => "mov.b32".into(),
            Op::F2I => "cvt.rzi.s32.f32".into(),
            Op::I2F => "cvt.rn.f32.s32".into(),
            Op::SetLt => "set.lt".into(),
            Op::SetLe => "set.le".into(),
            Op::SetEq => "set.eq".into(),
            Op::SetNe => "set.ne".into(),
            Op::Selp => "selp.b32".into(),
            Op::Ld(s) => format!("ld.{s}.f32"),
            Op::St(s) => format!("st.{s}.f32"),
        }
    }
}

/// Most source operands any [`Op`] takes (`mad`, `selp`).
pub const MAX_SRCS: usize = 3;

/// The source operands of one instruction, stored inline: an
/// instruction owns no heap memory, so copying or rewriting a kernel
/// body allocates per statement list, not per instruction. Derefs to
/// the live `[Operand]` prefix.
#[derive(Clone, Copy)]
pub struct Srcs {
    ops: [Operand; MAX_SRCS],
    len: u8,
}

impl Srcs {
    /// Copy `srcs` inline.
    ///
    /// # Panics
    ///
    /// Panics if `srcs` holds more than [`MAX_SRCS`] operands; callers
    /// check arity first.
    fn new(srcs: &[Operand]) -> Self {
        let mut ops = [Operand::ImmI32(0); MAX_SRCS];
        ops[..srcs.len()].copy_from_slice(srcs);
        Self { ops, len: srcs.len() as u8 }
    }
}

impl Deref for Srcs {
    type Target = [Operand];

    fn deref(&self) -> &[Operand] {
        &self.ops[..usize::from(self.len)]
    }
}

impl DerefMut for Srcs {
    fn deref_mut(&mut self) -> &mut [Operand] {
        &mut self.ops[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a Srcs {
    type Item = &'a Operand;
    type IntoIter = std::slice::Iter<'a, Operand>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut Srcs {
    type Item = &'a mut Operand;
    type IntoIter = std::slice::IterMut<'a, Operand>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl PartialEq for Srcs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Srcs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One IR instruction. It is `Copy` and owns no heap memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instr {
    /// Operation.
    pub op: Op,
    /// Destination register; `None` for stores.
    pub dst: Option<VReg>,
    /// Source operands; length equals `op.arity()`.
    pub srcs: Srcs,
    /// Immediate address offset, used by `Ld`/`St` (`[reg + offset]`
    /// addressing — the form unrolling folds strided accesses into).
    pub offset: i32,
    /// For global/local memory ops: whether the access pattern of the
    /// containing half-warp coalesces into one transaction. Set by the
    /// kernel generator, which knows the data layout; consumed by the
    /// timing simulator's bandwidth model.
    pub coalesced: bool,
    /// Intra-warp serialization degree for on-chip memory ops: shared
    /// accesses hitting the same bank, or constant-cache reads to
    /// *different* addresses ("the cache is single-ported, so
    /// simultaneous requests within an SM must be to the same address or
    /// delays will occur", Table 1). 1 = conflict-free; `n` replays the
    /// access `n` times. Set by the generator, which knows the layout;
    /// charged by the timing simulator and — deliberately — invisible to
    /// the paper's metrics (the section 5.3 blind spot).
    pub replay_ways: u8,
}

// An instruction stays `Copy` and small, so no field can bring back a
// per-instruction heap allocation: such a field fails to compile here.
const _: () = {
    const fn is_copy<T: Copy>() {}
    is_copy::<Instr>();
    assert!(std::mem::size_of::<Instr>() <= 48);
};

impl Instr {
    /// Construct an instruction, checking arity.
    ///
    /// # Panics
    ///
    /// Panics if `srcs.len() != op.arity()` or if a store carries a
    /// destination / a non-store lacks one. Malformed IR is a programming
    /// error in a generator, not a runtime condition.
    pub fn new(op: Op, dst: Option<VReg>, srcs: impl AsRef<[Operand]>) -> Self {
        let srcs = srcs.as_ref();
        assert_eq!(srcs.len(), op.arity(), "{op:?} expects {} sources", op.arity());
        assert_eq!(dst.is_some(), op.has_dst(), "{op:?} dst mismatch");
        Self { op, dst, srcs: Srcs::new(srcs), offset: 0, coalesced: true, replay_ways: 1 }
    }

    /// Builder-style setter for the memory offset.
    pub fn with_offset(mut self, offset: i32) -> Self {
        self.offset = offset;
        self
    }

    /// Builder-style setter for the coalescing flag.
    pub fn with_coalesced(mut self, coalesced: bool) -> Self {
        self.coalesced = coalesced;
        self
    }

    /// Builder-style setter for the on-chip serialization degree.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero (an access happens at least once).
    pub fn with_replays(mut self, ways: u8) -> Self {
        assert!(ways >= 1, "an access executes at least once");
        self.replay_ways = ways;
        self
    }

    /// Registers read by this instruction.
    pub fn uses(&self) -> impl Iterator<Item = VReg> + '_ {
        self.srcs.iter().filter_map(Operand::reg)
    }

    /// Whether this is one of the paper's blocking instructions
    /// (long-latency memory op; barriers are statements, not instructions).
    pub fn is_blocking(&self) -> bool {
        self.op.is_long_latency_mem()
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<18}", self.op.mnemonic())?;
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
            if !self.srcs.is_empty() {
                write!(f, ",")?;
            }
        }
        match self.op {
            Op::Ld(_) => {
                write!(f, " [{}{:+}]", self.srcs[0], self.offset)?;
            }
            Op::St(_) => {
                write!(f, " [{}{:+}], {}", self.srcs[0], self.offset, self.srcs[1])?;
            }
            _ => {
                let parts: Vec<String> = self.srcs.iter().map(|s| s.to_string()).collect();
                write!(f, " {}", parts.join(", "))?;
            }
        }
        if self.op.mem_space() == Some(MemorySpace::Global) && !self.coalesced {
            write!(f, "  // uncoalesced")?;
        }
        if self.replay_ways > 1 {
            write!(f, "  // {}-way conflict", self.replay_ways)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srcs_deref_to_the_live_operands() {
        let mut i = Instr::new(Op::FAdd, Some(VReg(0)), [VReg(1).into(), 2.0f32.into()]);
        assert_eq!(&*i.srcs, &[Operand::Reg(VReg(1)), Operand::ImmF32(2.0)]);
        for s in &mut i.srcs {
            *s = Operand::ImmI32(7);
        }
        assert_eq!(i.srcs.len(), 2);
        assert!(i.srcs.iter().all(|s| *s == Operand::ImmI32(7)));
        let mov = Instr::new(Op::Mov, Some(VReg(0)), [Operand::ImmI32(7)]);
        assert_ne!(i.srcs, mov.srcs);
    }

    #[test]
    fn arity_enforced() {
        let i = Instr::new(Op::FAdd, Some(VReg(0)), vec![VReg(1).into(), VReg(2).into()]);
        assert_eq!(i.uses().count(), 2);
    }

    #[test]
    #[should_panic(expected = "expects 2 sources")]
    fn wrong_arity_panics() {
        let _ = Instr::new(Op::FAdd, Some(VReg(0)), vec![VReg(1).into()]);
    }

    #[test]
    #[should_panic(expected = "dst mismatch")]
    fn store_with_dst_panics() {
        let _ = Instr::new(
            Op::St(MemorySpace::Global),
            Some(VReg(0)),
            vec![VReg(1).into(), VReg(2).into()],
        );
    }

    #[test]
    fn blocking_classification() {
        let ld_g = Instr::new(Op::Ld(MemorySpace::Global), Some(VReg(0)), vec![VReg(1).into()]);
        assert!(ld_g.is_blocking());
        let ld_s = Instr::new(Op::Ld(MemorySpace::Shared), Some(VReg(0)), vec![VReg(1).into()]);
        assert!(!ld_s.is_blocking());
        let ld_l = Instr::new(Op::Ld(MemorySpace::Local), Some(VReg(0)), vec![VReg(1).into()]);
        assert!(ld_l.is_blocking());
    }

    #[test]
    fn sfu_and_flop_classification() {
        assert!(Op::Rsqrt.is_sfu());
        assert!(!Op::FMad.is_sfu());
        assert_eq!(Op::FMad.flops(), 2);
        assert_eq!(Op::FMul.flops(), 1);
        assert_eq!(Op::IAdd.flops(), 0);
    }

    #[test]
    fn display_load_shows_offset() {
        let i = Instr::new(Op::Ld(MemorySpace::Shared), Some(VReg(4)), vec![VReg(2).into()])
            .with_offset(16);
        let s = i.to_string();
        assert!(s.contains("ld.shared.f32"), "{s}");
        assert!(s.contains("[%r2+16]"), "{s}");
    }

    #[test]
    fn display_marks_uncoalesced() {
        let i = Instr::new(Op::Ld(MemorySpace::Global), Some(VReg(4)), vec![VReg(2).into()])
            .with_coalesced(false);
        assert!(i.to_string().contains("uncoalesced"));
    }

    #[test]
    fn every_op_has_distinct_mnemonic_prefix() {
        // Smoke-check a few mnemonics stay PTX-flavoured.
        assert_eq!(Op::FMad.mnemonic(), "mad.f32");
        assert_eq!(Op::Ld(MemorySpace::Global).mnemonic(), "ld.global.f32");
        assert_eq!(Op::St(MemorySpace::Shared).mnemonic(), "st.shared.f32");
    }
}
