//! Functional interpretation of linearized kernels.
//!
//! Executes every thread of every block on real data: global memory is a
//! flat array of `f32` words, each block gets a zeroed shared-memory
//! scratchpad, and `__syncthreads` is honoured by running threads in
//! barrier-delimited segments. The engine is deliberately simple and
//! sequential — its job is *correctness ground truth* for the generated
//! kernels, not speed.
//!
//! Execution runs on the pre-decoded form from [`crate::decode`]: an
//! index walk over the flat op arena, with every thread's registers and
//! loop frames held in per-block slabs that are reused across blocks.
//! The structured-[`LinOp`] reference interpreter lives in
//! [`crate::legacy`] and is held bit-identical to this one by the
//! differential test suite.
//!
//! [`LinOp`]: gpu_ir::linear::LinOp

use gpu_arch::MemorySpace;
use gpu_ir::linear::LinearProgram;
use gpu_ir::types::Special;
use gpu_ir::{Launch, Op};

use crate::decode::{decode, DecKind, DecodedOp, DecodedProgram, Slot, NO_REG};
use crate::error::SimError;

/// Default per-block step budget; generated kernels are counted loops so
/// this only trips on generator bugs.
pub const DEFAULT_STEP_BUDGET: u64 = 1 << 32;

/// Device memory visible to a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceMemory {
    /// Global (off-chip) memory, word-addressed.
    pub global: Vec<f32>,
    /// Constant memory (read-only from kernels).
    pub constant: Vec<f32>,
}

impl DeviceMemory {
    /// Allocate `global_words` of zeroed global memory and no constants.
    pub fn new(global_words: usize) -> Self {
        Self { global: vec![0.0; global_words], constant: Vec::new() }
    }

    /// Allocate global memory and a constant bank.
    pub fn with_constant(global_words: usize, constant: Vec<f32>) -> Self {
        Self { global: vec![0.0; global_words], constant }
    }
}

/// A runtime register value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Value {
    F32(f32),
    I32(i32),
}

impl Value {
    pub(crate) fn as_f32(self, op: Op) -> Result<f32, SimError> {
        match self {
            Value::F32(v) => Ok(v),
            Value::I32(_) => Err(SimError::TypeMismatch { op: op.mnemonic() }),
        }
    }

    pub(crate) fn as_i32(self, op: Op) -> Result<i32, SimError> {
        match self {
            Value::I32(v) => Ok(v),
            Value::F32(_) => Err(SimError::TypeMismatch { op: op.mnemonic() }),
        }
    }
}

/// Thread-geometry values for one thread.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry {
    pub(crate) tid: (u32, u32),
    pub(crate) ctaid: (u32, u32),
    pub(crate) ntid: (u32, u32),
    pub(crate) nctaid: (u32, u32),
}

impl Geometry {
    pub(crate) fn special(&self, s: Special) -> i32 {
        let v = match s {
            Special::TidX => self.tid.0,
            Special::TidY => self.tid.1,
            Special::CtaIdX => self.ctaid.0,
            Special::CtaIdY => self.ctaid.1,
            Special::NTidX => self.ntid.0,
            Special::NTidY => self.ntid.1,
            Special::NCtaIdX => self.nctaid.0,
            Special::NCtaIdY => self.nctaid.1,
        };
        v as i32
    }
}

const ZERO_GEOM: Geometry = Geometry { tid: (0, 0), ctaid: (0, 0), ntid: (0, 0), nctaid: (0, 0) };

/// Where a thread stopped at the end of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    AtBarrier(usize),
    Done,
}

/// Per-word access record for the dynamic race oracle, epoch-stamped so
/// a barrier resets every word in O(1): a record is live only while its
/// `epoch` matches the tracker's current epoch.
#[derive(Debug, Clone, Copy)]
struct WordAccess {
    epoch: u64,
    /// First thread that wrote this word this segment.
    writer: Option<u32>,
    /// Bit pattern of the last recorded write.
    write_bits: u32,
    /// A second *distinct* thread that also wrote this word — necessarily
    /// with the same bit pattern, or the tracker would already have
    /// reported a race.
    other_writer: Option<u32>,
    /// First thread that read this word this segment.
    reader: Option<u32>,
    /// A second distinct thread that read this word this segment.
    other_reader: Option<u32>,
}

const EMPTY_WORD: WordAccess = WordAccess {
    epoch: 0,
    writer: None,
    write_bits: 0,
    other_writer: None,
    reader: None,
    other_reader: None,
};

/// The dynamic shared-memory race oracle for one thread block.
///
/// Tracks which threads read and wrote each shared-memory word within the
/// current barrier-delimited segment and reports the first conflict
/// between distinct threads as [`SimError::SharedRace`]. Write/write
/// collisions that store the *same* bit pattern are benign — the word's
/// final value is the same under any interleaving — and are tolerated
/// (the clamped staging loops of the SAD kernel rely on this); the
/// static detector in `gpu_ir::analysis::races` applies the same
/// exemption so the two stay comparable.
#[derive(Debug)]
pub(crate) struct RaceTracker {
    words: Vec<WordAccess>,
    epoch: u64,
}

impl RaceTracker {
    pub(crate) fn new(words: usize) -> Self {
        Self { words: vec![EMPTY_WORD; words], epoch: 1 }
    }

    /// Start a new barrier-delimited segment, forgetting all accesses.
    pub(crate) fn advance(&mut self) {
        self.epoch += 1;
    }

    fn slot(&mut self, addr: usize) -> &mut WordAccess {
        let w = &mut self.words[addr];
        if w.epoch != self.epoch {
            *w = WordAccess { epoch: self.epoch, ..EMPTY_WORD };
        }
        w
    }

    /// Record a read of shared word `addr` by thread `lane`.
    pub(crate) fn on_read(&mut self, addr: usize, lane: u32) -> Result<(), SimError> {
        let w = self.slot(addr);
        if let Some(t) = [w.writer, w.other_writer].into_iter().flatten().find(|&t| t != lane) {
            return Err(SimError::SharedRace { addr, first: t, second: lane, kind: "read/write" });
        }
        match w.reader {
            None => w.reader = Some(lane),
            Some(r) if r != lane && w.other_reader.is_none() => w.other_reader = Some(lane),
            Some(_) => {}
        }
        Ok(())
    }

    /// Record a write of bit pattern `bits` to shared word `addr` by
    /// thread `lane`.
    pub(crate) fn on_write(&mut self, addr: usize, lane: u32, bits: u32) -> Result<(), SimError> {
        let w = self.slot(addr);
        if let Some(t) = [w.reader, w.other_reader].into_iter().flatten().find(|&t| t != lane) {
            return Err(SimError::SharedRace { addr, first: t, second: lane, kind: "read/write" });
        }
        match w.writer {
            None => {
                w.writer = Some(lane);
                w.write_bits = bits;
            }
            Some(prev) => {
                if bits != w.write_bits {
                    // A different value makes every earlier write by any
                    // *other* thread order-dependent.
                    if let Some(t) =
                        [Some(prev), w.other_writer].into_iter().flatten().find(|&t| t != lane)
                    {
                        return Err(SimError::SharedRace {
                            addr,
                            first: t,
                            second: lane,
                            kind: "write/write",
                        });
                    }
                    w.write_bits = bits;
                } else if prev != lane && w.other_writer.is_none() {
                    w.other_writer = Some(lane);
                }
            }
        }
        Ok(())
    }
}

/// One open loop of one thread: which loop, trips left, and the value of
/// its counter register (re-materialized each back edge).
#[derive(Debug, Clone, Copy)]
struct FrameI {
    loop_id: u32,
    remaining: u32,
    iter: i32,
}

const EMPTY_FRAME: FrameI = FrameI { loop_id: NO_REG, remaining: 0, iter: 0 };

/// All threads of one block, struct-of-arrays: every thread's registers
/// share one `thread × num_vregs` slab and loop frames one
/// `thread × depth` slab, reused (reset, not reallocated) from block to
/// block.
struct BlockThreads {
    /// Registers per thread — the slab stride.
    nv: usize,
    /// Loop-frame capacity per thread (the arena's max nesting depth).
    depth_cap: usize,
    regs: Vec<Value>,
    pc: Vec<u32>,
    frames: Vec<FrameI>,
    flen: Vec<u32>,
    /// Private spill space, per thread. Typed, because register spilling
    /// moves both float and integer registers through local memory; a
    /// nested `Vec` because spilling is rare and usually tiny.
    local: Vec<Vec<Value>>,
    geom: Vec<Geometry>,
}

impl BlockThreads {
    fn new(nt: usize, num_vregs: u32, depth_cap: usize) -> Self {
        let nv = num_vregs as usize;
        Self {
            nv,
            depth_cap,
            regs: vec![Value::I32(0); nt * nv],
            pc: vec![0; nt],
            frames: vec![EMPTY_FRAME; nt * depth_cap],
            flen: vec![0; nt],
            local: vec![Vec::new(); nt],
            geom: vec![ZERO_GEOM; nt],
        }
    }

    /// Re-arm the slabs for the block at `(cx, cy)`, ty-major thread
    /// order (linear lane index `ty * bx + tx`).
    fn reset(&mut self, (cx, cy): (u32, u32), (bx, by): (u32, u32), (gx, gy): (u32, u32)) {
        self.regs.fill(Value::I32(0));
        self.pc.fill(0);
        self.flen.fill(0);
        for l in &mut self.local {
            l.clear();
        }
        let mut ti = 0;
        for ty in 0..by {
            for tx in 0..bx {
                self.geom[ti] =
                    Geometry { tid: (tx, ty), ctaid: (cx, cy), ntid: (bx, by), nctaid: (gx, gy) };
                ti += 1;
            }
        }
    }

    fn slot_value(
        &self,
        base: usize,
        ti: usize,
        s: Slot,
        params: &[i32],
    ) -> Result<Value, SimError> {
        match s {
            Slot::Reg(r) => Ok(self.regs[base + r as usize]),
            Slot::ImmF(v) => Ok(Value::F32(v)),
            Slot::ImmI(v) => Ok(Value::I32(v)),
            Slot::Special(sp) => Ok(Value::I32(self.geom[ti].special(sp))),
            Slot::Param(i) => params
                .get(i as usize)
                .map(|v| Value::I32(*v))
                .ok_or(SimError::MissingParam { index: i }),
            Slot::None => unreachable!("operand slot beyond the op's arity"),
        }
    }

    /// Execute thread `ti` until the next barrier or the end of the
    /// program.
    ///
    /// `race` is the block's race oracle (when enabled) and `lane` this
    /// thread's linear index `tid.y * ntid.x + tid.x` within the block.
    #[allow(clippy::too_many_arguments)]
    fn run_segment(
        &mut self,
        ti: usize,
        prog: &DecodedProgram,
        params: &[i32],
        mem: &mut DeviceMemory,
        shared: &mut [f32],
        budget: &mut u64,
        mut race: Option<&mut RaceTracker>,
        lane: u32,
    ) -> Result<Stop, SimError> {
        let ops = &prog.arena.ops;
        let n_ops = ops.len() as u32;
        let base = ti * self.nv;
        loop {
            let pc = self.pc[ti];
            if pc >= n_ops {
                return Ok(Stop::Done);
            }
            if *budget == 0 {
                return Err(SimError::StepBudgetExhausted);
            }
            *budget -= 1;
            let op = &ops[pc as usize];
            match op.kind {
                DecKind::Sync => {
                    self.pc[ti] = pc + 1;
                    return Ok(Stop::AtBarrier(pc as usize));
                }
                DecKind::LoopStart => {
                    let trips = prog.loop_trips[op.loop_id as usize];
                    if trips == 0 {
                        self.pc[ti] = op.target;
                    } else {
                        if op.counter != NO_REG {
                            self.regs[base + op.counter as usize] = Value::I32(0);
                        }
                        let slot = ti * self.depth_cap + self.flen[ti] as usize;
                        self.frames[slot] =
                            FrameI { loop_id: op.loop_id, remaining: trips, iter: 0 };
                        self.flen[ti] += 1;
                        self.pc[ti] = pc + 1;
                    }
                }
                DecKind::LoopEnd => {
                    let len = self.flen[ti] as usize;
                    debug_assert!(len > 0, "loop frame underflow");
                    let frame = &mut self.frames[ti * self.depth_cap + len - 1];
                    debug_assert_eq!(frame.loop_id, op.loop_id);
                    frame.remaining -= 1;
                    if frame.remaining > 0 {
                        frame.iter += 1;
                        let iter = frame.iter;
                        if op.counter != NO_REG {
                            self.regs[base + op.counter as usize] = Value::I32(iter);
                        }
                        self.pc[ti] = op.target;
                    } else {
                        self.flen[ti] -= 1;
                        self.pc[ti] = pc + 1;
                    }
                }
                DecKind::Instr => {
                    self.exec(ti, op, params, mem, shared, race.as_deref_mut(), lane)?;
                    self.pc[ti] = pc + 1;
                }
            }
        }
    }

    fn addr_of(&self, ti: usize, op: &DecodedOp, params: &[i32]) -> Result<i64, SimError> {
        let base = self.slot_value(ti * self.nv, ti, op.srcs[0], params)?.as_i32(op.op)?;
        Ok(i64::from(base) + i64::from(op.offset))
    }

    #[allow(clippy::too_many_arguments)]
    fn load(
        &mut self,
        ti: usize,
        space: MemorySpace,
        addr: i64,
        mem: &DeviceMemory,
        shared: &[f32],
        race: Option<&mut RaceTracker>,
        lane: u32,
    ) -> Result<Value, SimError> {
        let fetch = |buf: &[f32], name: &'static str| -> Result<Value, SimError> {
            usize::try_from(addr)
                .ok()
                .and_then(|a| buf.get(a).copied())
                .map(Value::F32)
                .ok_or(SimError::OutOfBounds { space: name, addr, len: buf.len() })
        };
        match space {
            MemorySpace::Global | MemorySpace::Texture => fetch(&mem.global, "global"),
            MemorySpace::Constant => fetch(&mem.constant, "const"),
            MemorySpace::Shared => {
                let v = fetch(shared, "shared")?;
                if let Some(t) = race {
                    // The fetch succeeded, so `addr` fits in usize.
                    t.on_read(addr as usize, lane)?;
                }
                Ok(v)
            }
            MemorySpace::Local => {
                // Local memory grows on demand: it is private spill space.
                let local = &self.local[ti];
                let a = usize::try_from(addr).map_err(|_| SimError::OutOfBounds {
                    space: "local",
                    addr,
                    len: local.len(),
                })?;
                Ok(local.get(a).copied().unwrap_or(Value::F32(0.0)))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn store(
        &mut self,
        ti: usize,
        space: MemorySpace,
        addr: i64,
        value: Value,
        mem: &mut DeviceMemory,
        shared: &mut [f32],
        op: Op,
        race: Option<&mut RaceTracker>,
        lane: u32,
    ) -> Result<(), SimError> {
        match space {
            MemorySpace::Global => {
                let len = mem.global.len();
                let slot = usize::try_from(addr)
                    .ok()
                    .and_then(|a| mem.global.get_mut(a))
                    .ok_or(SimError::OutOfBounds { space: "global", addr, len })?;
                *slot = value.as_f32(op)?;
            }
            MemorySpace::Shared => {
                let len = shared.len();
                let slot = usize::try_from(addr)
                    .ok()
                    .and_then(|a| shared.get_mut(a))
                    .ok_or(SimError::OutOfBounds { space: "shared", addr, len })?;
                let v = value.as_f32(op)?;
                *slot = v;
                if let Some(t) = race {
                    // The bounds check passed, so `addr` fits in usize.
                    t.on_write(addr as usize, lane, v.to_bits())?;
                }
            }
            MemorySpace::Local => {
                let local = &mut self.local[ti];
                let a = usize::try_from(addr).map_err(|_| SimError::OutOfBounds {
                    space: "local",
                    addr,
                    len: local.len(),
                })?;
                if a >= local.len() {
                    local.resize(a + 1, Value::F32(0.0));
                }
                local[a] = value;
            }
            MemorySpace::Constant | MemorySpace::Texture => {
                return Err(SimError::TypeMismatch { op: format!("st.{space}") });
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec(
        &mut self,
        ti: usize,
        op: &DecodedOp,
        params: &[i32],
        mem: &mut DeviceMemory,
        shared: &mut [f32],
        race: Option<&mut RaceTracker>,
        lane: u32,
    ) -> Result<(), SimError> {
        use Op::*;
        let base = ti * self.nv;
        let o = op.op;
        let v = |t: &Self, n: usize| t.slot_value(base, ti, op.srcs[n], params);

        let result: Value = match o {
            FAdd => Value::F32(v(self, 0)?.as_f32(o)? + v(self, 1)?.as_f32(o)?),
            FSub => Value::F32(v(self, 0)?.as_f32(o)? - v(self, 1)?.as_f32(o)?),
            FMul => Value::F32(v(self, 0)?.as_f32(o)? * v(self, 1)?.as_f32(o)?),
            FMad => Value::F32(
                v(self, 0)?.as_f32(o)?.mul_add(v(self, 1)?.as_f32(o)?, v(self, 2)?.as_f32(o)?),
            ),
            FMin => Value::F32(v(self, 0)?.as_f32(o)?.min(v(self, 1)?.as_f32(o)?)),
            FMax => Value::F32(v(self, 0)?.as_f32(o)?.max(v(self, 1)?.as_f32(o)?)),
            FNeg => Value::F32(-v(self, 0)?.as_f32(o)?),
            FAbs => Value::F32(v(self, 0)?.as_f32(o)?.abs()),
            Rcp => Value::F32(1.0 / v(self, 0)?.as_f32(o)?),
            Rsqrt => Value::F32(1.0 / v(self, 0)?.as_f32(o)?.sqrt()),
            Sqrt => Value::F32(v(self, 0)?.as_f32(o)?.sqrt()),
            Sin => Value::F32(v(self, 0)?.as_f32(o)?.sin()),
            Cos => Value::F32(v(self, 0)?.as_f32(o)?.cos()),
            Ex2 => Value::F32(v(self, 0)?.as_f32(o)?.exp2()),
            IAdd => Value::I32(v(self, 0)?.as_i32(o)?.wrapping_add(v(self, 1)?.as_i32(o)?)),
            ISub => Value::I32(v(self, 0)?.as_i32(o)?.wrapping_sub(v(self, 1)?.as_i32(o)?)),
            IMul => Value::I32(v(self, 0)?.as_i32(o)?.wrapping_mul(v(self, 1)?.as_i32(o)?)),
            IMad => Value::I32(
                v(self, 0)?
                    .as_i32(o)?
                    .wrapping_mul(v(self, 1)?.as_i32(o)?)
                    .wrapping_add(v(self, 2)?.as_i32(o)?),
            ),
            IDiv => {
                let (a, b) = (v(self, 0)?.as_i32(o)?, v(self, 1)?.as_i32(o)?);
                Value::I32(if b == 0 { 0 } else { a.wrapping_div(b) })
            }
            IRem => {
                let (a, b) = (v(self, 0)?.as_i32(o)?, v(self, 1)?.as_i32(o)?);
                Value::I32(if b == 0 { 0 } else { a.wrapping_rem(b) })
            }
            Shl => Value::I32(v(self, 0)?.as_i32(o)?.wrapping_shl(v(self, 1)?.as_i32(o)? as u32)),
            Shr => Value::I32(v(self, 0)?.as_i32(o)?.wrapping_shr(v(self, 1)?.as_i32(o)? as u32)),
            And => Value::I32(v(self, 0)?.as_i32(o)? & v(self, 1)?.as_i32(o)?),
            Or => Value::I32(v(self, 0)?.as_i32(o)? | v(self, 1)?.as_i32(o)?),
            Xor => Value::I32(v(self, 0)?.as_i32(o)? ^ v(self, 1)?.as_i32(o)?),
            IMin => Value::I32(v(self, 0)?.as_i32(o)?.min(v(self, 1)?.as_i32(o)?)),
            IMax => Value::I32(v(self, 0)?.as_i32(o)?.max(v(self, 1)?.as_i32(o)?)),
            Mov => v(self, 0)?,
            F2I => Value::I32(v(self, 0)?.as_f32(o)? as i32),
            I2F => Value::F32(v(self, 0)?.as_i32(o)? as f32),
            SetLt | SetLe | SetEq | SetNe => {
                let (a, b) = (v(self, 0)?, v(self, 1)?);
                let ord = match (a, b) {
                    (Value::F32(x), Value::F32(y)) => x.partial_cmp(&y),
                    (Value::I32(x), Value::I32(y)) => Some(x.cmp(&y)),
                    _ => return Err(SimError::TypeMismatch { op: o.mnemonic() }),
                };
                let t = match (o, ord) {
                    (SetLt, Some(ord)) => ord.is_lt(),
                    (SetLe, Some(ord)) => ord.is_le(),
                    (SetEq, Some(ord)) => ord.is_eq(),
                    (SetNe, Some(ord)) => ord.is_ne(),
                    (SetNe, None) => true, // NaN != anything
                    (_, None) => false,
                    _ => unreachable!("outer match restricts the op"),
                };
                Value::I32(i32::from(t))
            }
            Selp => {
                let c = v(self, 2)?.as_i32(o)?;
                if c != 0 {
                    v(self, 0)?
                } else {
                    v(self, 1)?
                }
            }
            Ld(space) => {
                let addr = self.addr_of(ti, op, params)?;
                self.load(ti, space, addr, mem, shared, race, lane)?
            }
            St(space) => {
                let addr = self.addr_of(ti, op, params)?;
                let value = self.slot_value(base, ti, op.srcs[1], params)?;
                self.store(ti, space, addr, value, mem, shared, o, race, lane)?;
                return Ok(());
            }
        };
        debug_assert!(op.dst != NO_REG, "non-store ops have destinations");
        self.regs[base + op.dst as usize] = result;
        Ok(())
    }
}

/// Execute `prog` over the whole `launch` grid against `mem`.
///
/// `params` are the kernel's launch-time scalar parameters (word
/// addresses and sizes), indexed by `Operand::Param`. `prog` is decoded
/// into the flat op arena first, and every block runs under
/// [`DEFAULT_STEP_BUDGET`].
///
/// # Errors
///
/// Propagates any [`SimError`] raised by a thread: out-of-bounds
/// accesses, type mismatches, missing parameters, or divergent barriers;
/// [`SimError::StepBudgetExhausted`] when a block exceeds the budget.
pub fn run_kernel(
    prog: &LinearProgram,
    launch: &Launch,
    params: &[i32],
    mem: &mut DeviceMemory,
) -> Result<(), SimError> {
    run_grid(&decode(prog), launch, params, mem, DEFAULT_STEP_BUDGET, false)
}

/// [`run_kernel`] with the dynamic shared-memory race oracle enabled.
///
/// In addition to executing the kernel, every shared-memory access is
/// recorded in a per-block, per-barrier-segment access set; the first
/// conflict between distinct threads (read/write, or write/write with
/// different bit patterns) aborts the run. This is the ground truth the
/// static detector in `gpu_ir::analysis::races` is validated against.
///
/// # Errors
///
/// As [`run_kernel`], plus [`SimError::SharedRace`] on the first
/// shared-memory conflict.
pub fn run_kernel_checked(
    prog: &LinearProgram,
    launch: &Launch,
    params: &[i32],
    mem: &mut DeviceMemory,
) -> Result<(), SimError> {
    run_grid(&decode(prog), launch, params, mem, DEFAULT_STEP_BUDGET, true)
}

/// Run every block of `launch` in turn, each under a step budget of
/// `budget`, with the race oracle armed when `check_races` is set.
fn run_grid(
    prog: &DecodedProgram,
    launch: &Launch,
    params: &[i32],
    mem: &mut DeviceMemory,
    budget: u64,
    check_races: bool,
) -> Result<(), SimError> {
    if launch.grid.count() == 0 || launch.block.count() == 0 {
        return Err(SimError::EmptyLaunch);
    }
    let (gx, gy) = (launch.grid.x, launch.grid.y);
    let (bx, by) = (launch.block.x, launch.block.y);
    let nt = (bx * by) as usize;

    let mut threads = BlockThreads::new(nt, prog.arena.num_vregs, prog.arena.max_loop_depth);
    let mut shared = vec![0.0f32; prog.arena.smem_words as usize];
    let mut tracker = check_races.then(|| RaceTracker::new(prog.arena.smem_words as usize));
    let mut stops: Vec<Stop> = Vec::with_capacity(nt);

    for cy in 0..gy {
        for cx in 0..gx {
            threads.reset((cx, cy), (bx, by), (gx, gy));
            shared.fill(0.0);
            if let Some(t) = tracker.as_mut() {
                // Epoch bump == fresh tracker: stale records from the
                // previous block are dead on arrival.
                t.advance();
            }

            let mut block_budget = budget;
            loop {
                stops.clear();
                for ti in 0..nt {
                    stops.push(threads.run_segment(
                        ti,
                        prog,
                        params,
                        mem,
                        &mut shared,
                        &mut block_budget,
                        tracker.as_mut(),
                        ti as u32,
                    )?);
                }
                // Non-empty: zero-extent launches were rejected above.
                let first = stops[0];
                if stops.iter().any(|s| *s != first) {
                    return Err(SimError::BarrierDivergence);
                }
                if first == Stop::Done {
                    break;
                }
                if let Some(t) = tracker.as_mut() {
                    t.advance();
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Launch};

    fn launch_1d(blocks: u32, threads: u32) -> Launch {
        Launch::new(Dim::new_1d(blocks), Dim::new_1d(threads))
    }

    #[test]
    fn global_copy_across_blocks() {
        // out[g] = in[g] for 4 blocks of 8 threads.
        let mut b = KernelBuilder::new("copy");
        let src = b.param(0);
        let dst = b.param(1);
        let tid = b.read_special(Special::TidX);
        let cta = b.read_special(Special::CtaIdX);
        let ntid = b.read_special(Special::NTidX);
        let g = b.imad(cta, ntid, tid);
        let sa = b.iadd(src, g);
        let da = b.iadd(dst, g);
        let v = b.ld_global(sa, 0);
        b.st_global(da, 0, v);
        let prog = linearize(&b.finish());

        let mut mem = DeviceMemory::new(64);
        for i in 0..32 {
            mem.global[i] = (i * i) as f32;
        }
        run_kernel(&prog, &launch_1d(4, 8), &[0, 32], &mut mem).unwrap();
        for i in 0..32 {
            assert_eq!(mem.global[32 + i], (i * i) as f32);
        }
    }

    use gpu_ir::types::Special;

    #[test]
    fn shared_memory_reversal_with_barrier() {
        // Each thread writes shared[tid] = in[tid]; after the barrier
        // reads shared[N-1-tid].
        let n = 16;
        let mut b = KernelBuilder::new("rev");
        let src = b.param(0);
        let dst = b.param(1);
        b.alloc_shared(n * 4);
        let tid = b.read_special(Special::TidX);
        let sa = b.iadd(src, tid);
        let v = b.ld_global(sa, 0);
        b.st_shared(tid, 0, v);
        b.sync();
        let ni = b.mov((n as i32) - 1);
        let rev = b.isub(ni, tid);
        let rv = b.ld_shared(rev, 0);
        let da = b.iadd(dst, tid);
        b.st_global(da, 0, rv);
        let prog = linearize(&b.finish());

        let mut mem = DeviceMemory::new(2 * n as usize);
        for i in 0..n as usize {
            mem.global[i] = i as f32;
        }
        run_kernel(&prog, &launch_1d(1, n), &[0, n as i32], &mut mem).unwrap();
        for i in 0..n as usize {
            assert_eq!(mem.global[n as usize + i], (n as usize - 1 - i) as f32);
        }
    }

    #[test]
    fn loop_counter_values_are_sequential() {
        // out[i] = i via a loop writing global[counter].
        let mut b = KernelBuilder::new("iota");
        let dst = b.param(0);
        b.for_loop(10, |b, i| {
            let addr = b.iadd(dst, i);
            let fi = b.i2f(i);
            b.st_global(addr, 0, fi);
        });
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(10);
        run_kernel(&prog, &launch_1d(1, 1), &[0], &mut mem).unwrap();
        let got: Vec<f32> = mem.global.clone();
        let want: Vec<f32> = (0..10).map(|i| i as f32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn nested_loops_execute_product_of_trips() {
        let mut b = KernelBuilder::new("acc");
        let dst = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(7, |b| {
            b.repeat(5, |b| {
                b.fmad_acc(1.0f32, 1.0f32, acc);
            });
        });
        b.st_global(dst, 0, acc);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(1);
        run_kernel(&prog, &launch_1d(1, 1), &[0], &mut mem).unwrap();
        assert_eq!(mem.global[0], 35.0);
    }

    #[test]
    fn zero_trip_loop_skips_body() {
        let mut b = KernelBuilder::new("z");
        let dst = b.param(0);
        b.repeat(0, |b| {
            b.st_global(0i32, 0, 99.0f32);
        });
        b.st_global(dst, 0, 1.0f32);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(1);
        run_kernel(&prog, &launch_1d(1, 1), &[0], &mut mem).unwrap();
        assert_eq!(mem.global[0], 1.0);
    }

    #[test]
    fn local_memory_spill_roundtrip() {
        let mut b = KernelBuilder::new("spill");
        let dst = b.param(0);
        let x = b.mov(42.5f32);
        b.st_local(0i32, 3, x);
        let y = b.ld_local(0i32, 3);
        b.st_global(dst, 0, y);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(1);
        run_kernel(&prog, &launch_1d(1, 1), &[0], &mut mem).unwrap();
        assert_eq!(mem.global[0], 42.5);
    }

    #[test]
    fn constant_memory_reads() {
        let mut b = KernelBuilder::new("c");
        let dst = b.param(0);
        let v = b.ld_const(2i32, 0);
        b.st_global(dst, 0, v);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::with_constant(1, vec![1.0, 2.0, 3.0]);
        run_kernel(&prog, &launch_1d(1, 1), &[0], &mut mem).unwrap();
        assert_eq!(mem.global[0], 3.0);
    }

    #[test]
    fn out_of_bounds_global_is_reported() {
        let mut b = KernelBuilder::new("oob");
        b.ld_global(100i32, 0);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(4);
        let err = run_kernel(&prog, &launch_1d(1, 1), &[], &mut mem).unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { space: "global", .. }));
    }

    #[test]
    fn type_mismatch_is_reported() {
        let mut b = KernelBuilder::new("tm");
        let x = b.mov(1i32);
        b.fadd(x, 1.0f32); // float add on integer register
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(1);
        let err = run_kernel(&prog, &launch_1d(1, 1), &[], &mut mem).unwrap_err();
        assert!(matches!(err, SimError::TypeMismatch { .. }));
    }

    #[test]
    fn missing_param_is_reported() {
        let mut b = KernelBuilder::new("mp");
        let p = b.param(5);
        b.st_global(p, 0, 0.0f32);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(1);
        let err = run_kernel(&prog, &launch_1d(1, 1), &[0, 1], &mut mem).unwrap_err();
        assert_eq!(err, SimError::MissingParam { index: 5 });
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut b = KernelBuilder::new("long");
        b.repeat(1000, |b| {
            b.mov(0i32);
        });
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(1);
        let err =
            run_grid(&decode(&prog), &launch_1d(1, 1), &[], &mut mem, 100, false).unwrap_err();
        assert_eq!(err, SimError::StepBudgetExhausted);
    }

    #[test]
    fn predicates_and_select() {
        let mut b = KernelBuilder::new("sel");
        let dst = b.param(0);
        let p = b.set_lt(3i32, 5i32);
        let v = b.selp(10.0f32, 20.0f32, p);
        b.st_global(dst, 0, v);
        let q = b.set_lt(5i32, 3i32);
        let w = b.selp(10.0f32, 20.0f32, q);
        b.st_global(dst, 1, w);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(2);
        run_kernel(&prog, &launch_1d(1, 1), &[0], &mut mem).unwrap();
        assert_eq!(mem.global, vec![10.0, 20.0]);
    }

    #[test]
    fn integer_division_by_zero_yields_zero() {
        let mut b = KernelBuilder::new("div0");
        let dst = b.param(0);
        let d = b.idiv(7i32, 0i32);
        let r = b.irem(7i32, 0i32);
        let s = b.iadd(d, r);
        let f = b.i2f(s);
        b.st_global(dst, 0, f);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(1);
        run_kernel(&prog, &launch_1d(1, 1), &[0], &mut mem).unwrap();
        assert_eq!(mem.global[0], 0.0);
    }

    #[test]
    fn two_dimensional_geometry() {
        // out[ty*4+tx] = ctaid.y*1000 + tid.y*4 + tid.x over a 4x2 block.
        let mut b = KernelBuilder::new("geom");
        let dst = b.param(0);
        let tx = b.read_special(Special::TidX);
        let ty = b.read_special(Special::TidY);
        let idx = b.imad(ty, 4i32, tx);
        let addr = b.iadd(dst, idx);
        let f = b.i2f(idx);
        b.st_global(addr, 0, f);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(8);
        let launch = Launch::new(Dim::new_1d(1), Dim::new_2d(4, 2));
        run_kernel(&prog, &launch, &[0], &mut mem).unwrap();
        let want: Vec<f32> = (0..8).map(|i| i as f32).collect();
        assert_eq!(mem.global, want);
    }

    #[test]
    fn empty_block_is_an_error_not_a_panic() {
        let mut b = KernelBuilder::new("empty");
        b.mov(0i32);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(1);
        let err = run_kernel(&prog, &launch_1d(1, 0), &[], &mut mem).unwrap_err();
        assert_eq!(err, SimError::EmptyLaunch);
        let err = run_kernel(&prog, &launch_1d(0, 4), &[], &mut mem).unwrap_err();
        assert_eq!(err, SimError::EmptyLaunch);
        let launch = Launch::new(Dim::new_2d(1, 0), Dim::new_1d(4));
        let err = run_kernel(&prog, &launch, &[], &mut mem).unwrap_err();
        assert_eq!(err, SimError::EmptyLaunch);
    }

    /// Reversal kernel *without* the barrier: thread t writes shared[t]
    /// and reads shared[N-1-t] — a read/write race the sequential
    /// interpreter silently masks.
    fn racy_reversal(n: u32) -> LinearProgram {
        let mut b = KernelBuilder::new("racy_rev");
        let src = b.param(0);
        let dst = b.param(1);
        b.alloc_shared(n * 4);
        let tid = b.read_special(Special::TidX);
        let sa = b.iadd(src, tid);
        let v = b.ld_global(sa, 0);
        b.st_shared(tid, 0, v);
        // missing b.sync()
        let ni = b.mov((n as i32) - 1);
        let rev = b.isub(ni, tid);
        let rv = b.ld_shared(rev, 0);
        let da = b.iadd(dst, tid);
        b.st_global(da, 0, rv);
        linearize(&b.finish())
    }

    #[test]
    fn race_oracle_flags_read_write_conflict() {
        let n = 16u32;
        let prog = racy_reversal(n);
        let mut mem = DeviceMemory::new(2 * n as usize);
        // The plain interpreter accepts the racy kernel (the soundness
        // hole the oracle closes)...
        run_kernel(&prog, &launch_1d(1, n), &[0, n as i32], &mut mem).unwrap();
        // ...while the oracle reports the conflict.
        let err =
            run_kernel_checked(&prog, &launch_1d(1, n), &[0, n as i32], &mut mem).unwrap_err();
        assert!(matches!(err, SimError::SharedRace { kind: "read/write", .. }), "got {err:?}");
    }

    #[test]
    fn race_oracle_accepts_barrier_separated_accesses() {
        // The well-synchronized reversal from
        // `shared_memory_reversal_with_barrier`.
        let n = 16u32;
        let mut b = KernelBuilder::new("rev");
        let src = b.param(0);
        let dst = b.param(1);
        b.alloc_shared(n * 4);
        let tid = b.read_special(Special::TidX);
        let sa = b.iadd(src, tid);
        let v = b.ld_global(sa, 0);
        b.st_shared(tid, 0, v);
        b.sync();
        let ni = b.mov((n as i32) - 1);
        let rev = b.isub(ni, tid);
        let rv = b.ld_shared(rev, 0);
        let da = b.iadd(dst, tid);
        b.st_global(da, 0, rv);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(2 * n as usize);
        for i in 0..n as usize {
            mem.global[i] = i as f32;
        }
        run_kernel_checked(&prog, &launch_1d(1, n), &[0, n as i32], &mut mem).unwrap();
        for i in 0..n as usize {
            assert_eq!(mem.global[n as usize + i], (n as usize - 1 - i) as f32);
        }
    }

    #[test]
    fn race_oracle_flags_write_write_of_distinct_values() {
        // Every thread writes its own tid to shared word 0.
        let mut b = KernelBuilder::new("ww");
        b.alloc_shared(4);
        let tid = b.read_special(Special::TidX);
        let f = b.i2f(tid);
        b.st_shared(0i32, 0, f);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(1);
        let err = run_kernel_checked(&prog, &launch_1d(1, 4), &[], &mut mem).unwrap_err();
        assert!(matches!(err, SimError::SharedRace { kind: "write/write", addr: 0, .. }));
    }

    #[test]
    fn race_oracle_tolerates_same_value_write_write() {
        // Every thread writes the same constant to shared word 0 — the
        // final value is interleaving-independent, so this is benign
        // (SAD's clamped staging loop depends on this exemption).
        let mut b = KernelBuilder::new("ww_benign");
        let dst = b.param(0);
        b.alloc_shared(4);
        b.st_shared(0i32, 0, 7.5f32);
        b.sync();
        let v = b.ld_shared(0i32, 0);
        let tid = b.read_special(Special::TidX);
        let da = b.iadd(dst, tid);
        b.st_global(da, 0, v);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(4);
        run_kernel_checked(&prog, &launch_1d(1, 4), &[0], &mut mem).unwrap();
        assert_eq!(mem.global, vec![7.5; 4]);
    }

    #[test]
    fn race_oracle_resets_at_barriers() {
        // Thread t writes shared[t] in segment 1 and shared[(t+1)%n] in
        // segment 2: same words touched by different threads, but never
        // within one segment.
        let n = 8u32;
        let mut b = KernelBuilder::new("rotate");
        b.alloc_shared(n * 4);
        let tid = b.read_special(Special::TidX);
        let f = b.i2f(tid);
        b.st_shared(tid, 0, f);
        b.sync();
        let shifted = b.iadd(tid, 1i32);
        let wrapped = b.irem(shifted, n as i32);
        b.st_shared(wrapped, 0, f);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(1);
        run_kernel_checked(&prog, &launch_1d(1, n), &[], &mut mem).unwrap();
    }

    #[test]
    fn sfu_ops_compute() {
        let mut b = KernelBuilder::new("sfu");
        let dst = b.param(0);
        let r = b.rsqrt(4.0f32);
        b.st_global(dst, 0, r);
        let c = b.cos(0.0f32);
        b.st_global(dst, 1, c);
        let prog = linearize(&b.finish());
        let mut mem = DeviceMemory::new(2);
        run_kernel(&prog, &launch_1d(1, 1), &[0], &mut mem).unwrap();
        assert!((mem.global[0] - 0.5).abs() < 1e-6);
        assert!((mem.global[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn decoded_run_matches_legacy_run() {
        // A kernel touching every execution feature: geometry, shared
        // memory with a barrier, nested counted loops, predication,
        // and local spill.
        let n = 8u32;
        let mut b = KernelBuilder::new("all");
        let src = b.param(0);
        let dst = b.param(1);
        b.alloc_shared(n * 4);
        let tid = b.read_special(Special::TidX);
        let sa = b.iadd(src, tid);
        let v = b.ld_global(sa, 0);
        b.st_shared(tid, 0, v);
        b.sync();
        let acc = b.mov(0.0f32);
        b.for_loop(4, |b, i| {
            let w = b.irem(i, n as i32);
            let sv = b.ld_shared(w, 0);
            b.fmad_acc(sv, 0.5f32, acc);
        });
        let p = b.set_lt(tid, 4i32);
        let sel = b.selp(acc, 0.0f32, p);
        b.st_local(0i32, 0, sel);
        let back = b.ld_local(0i32, 0);
        let da = b.iadd(dst, tid);
        b.st_global(da, 0, back);
        let prog = linearize(&b.finish());

        let launch = launch_1d(2, n);
        let params = [0, n as i32];
        let mut mem_new = DeviceMemory::new(2 * n as usize);
        let mut mem_old = DeviceMemory::new(2 * n as usize);
        for i in 0..n as usize {
            mem_new.global[i] = (i * 3) as f32;
            mem_old.global[i] = (i * 3) as f32;
        }
        run_kernel(&prog, &launch, &params, &mut mem_new).unwrap();
        crate::legacy::interp::run_kernel(&prog, &launch, &params, &mut mem_old).unwrap();
        assert_eq!(mem_new, mem_old);
    }
}
