//! Ergonomic construction of kernel bodies.
//!
//! [`KernelBuilder`] hands out fresh virtual registers, tracks shared
//! memory allocation, and scopes loop bodies with closures, so the kernel
//! generators in `gpu-kernels` read like the CUDA sources in Figure 2 of
//! the paper.

use gpu_arch::MemorySpace;

use crate::instr::{Instr, Op};
use crate::kernel::{Kernel, Loop, Stmt};
use crate::types::{Operand, Special, VReg};

/// Builder for [`Kernel`] bodies.
///
/// # Examples
///
/// ```
/// use gpu_ir::build::KernelBuilder;
/// use gpu_ir::types::Special;
///
/// let mut b = KernelBuilder::new("scale");
/// let base = b.param(0);
/// let tid = b.read_special(Special::TidX);
/// let addr = b.iadd(base, tid);
/// let x = b.ld_global(addr, 0);
/// let y = b.fmul_imm(x, 3.0);
/// b.st_global(addr, 0, y);
/// let k = b.finish();
/// assert_eq!(k.static_instr_count(), 6);
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    next_reg: u32,
    num_params: u32,
    smem_bytes: u32,
    /// Stack of statement lists; the bottom frame is the kernel body and
    /// each open loop pushes a frame.
    frames: Vec<Vec<Stmt>>,
}

impl KernelBuilder {
    /// Start a new kernel.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            next_reg: 0,
            num_params: 0,
            smem_bytes: 0,
            frames: vec![Vec::new()],
        }
    }

    /// Allocate a fresh virtual register.
    pub fn fresh(&mut self) -> VReg {
        let r = VReg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Reserve `bytes` of shared memory, returning the word-aligned base
    /// offset (in 32-bit words) of the allocation.
    pub fn alloc_shared(&mut self, bytes: u32) -> i32 {
        let base_words = (self.smem_bytes / 4) as i32;
        self.smem_bytes += bytes.next_multiple_of(4);
        base_words
    }

    /// Append a raw statement to the innermost open scope.
    pub fn push(&mut self, stmt: Stmt) {
        self.frames.last_mut().expect("builder always has an open frame").push(stmt);
    }

    /// Append an instruction.
    pub fn push_instr(&mut self, instr: Instr) {
        self.push(Stmt::Op(instr));
    }

    /// Emit an op with a fresh destination register.
    pub fn emit(&mut self, op: Op, srcs: impl AsRef<[Operand]>) -> VReg {
        let dst = self.fresh();
        self.push_instr(Instr::new(op, Some(dst), srcs));
        dst
    }

    // ---- moves, params, specials ----

    /// `dst = src`
    pub fn mov(&mut self, src: impl Into<Operand>) -> VReg {
        self.emit(Op::Mov, [src.into()])
    }

    /// Read kernel parameter `i` into a register (`ld.param`).
    pub fn param(&mut self, i: u32) -> VReg {
        self.num_params = self.num_params.max(i + 1);
        self.emit(Op::Mov, [Operand::Param(i)])
    }

    /// Read a special (thread-geometry) register into a register.
    pub fn read_special(&mut self, s: Special) -> VReg {
        self.emit(Op::Mov, [Operand::Special(s)])
    }

    // ---- float arithmetic ----

    /// `a + b`
    pub fn fadd(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::FAdd, [a.into(), b.into()])
    }

    /// `a - b`
    pub fn fsub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::FSub, [a.into(), b.into()])
    }

    /// `a * b`
    pub fn fmul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::FMul, [a.into(), b.into()])
    }

    /// `a * imm`
    pub fn fmul_imm(&mut self, a: impl Into<Operand>, imm: f32) -> VReg {
        self.emit(Op::FMul, [a.into(), imm.into()])
    }

    /// `a * b + c`
    pub fn fmad(
        &mut self,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> VReg {
        self.emit(Op::FMad, [a.into(), b.into(), c.into()])
    }

    /// `a * b + c` accumulated **in place** into an existing register
    /// (`acc = a * b + acc` with `dst == acc`), the idiom of the matmul
    /// inner loops. Reusing the destination keeps the live range of the
    /// accumulator to a single register, as the hardware MAD does.
    pub fn fmad_acc(&mut self, a: impl Into<Operand>, b: impl Into<Operand>, acc: VReg) {
        self.push_instr(Instr::new(Op::FMad, Some(acc), [a.into(), b.into(), acc.into()]));
    }

    /// `min(a, b)`
    pub fn fmin(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::FMin, [a.into(), b.into()])
    }

    /// `max(a, b)`
    pub fn fmax(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::FMax, [a.into(), b.into()])
    }

    /// `|a|`
    pub fn fabs(&mut self, a: impl Into<Operand>) -> VReg {
        self.emit(Op::FAbs, [a.into()])
    }

    // ---- SFU ----

    /// `1 / sqrt(a)` (SFU)
    pub fn rsqrt(&mut self, a: impl Into<Operand>) -> VReg {
        self.emit(Op::Rsqrt, [a.into()])
    }

    /// `1 / a` (SFU)
    pub fn rcp(&mut self, a: impl Into<Operand>) -> VReg {
        self.emit(Op::Rcp, [a.into()])
    }

    /// `sqrt(a)` (SFU)
    pub fn sqrt(&mut self, a: impl Into<Operand>) -> VReg {
        self.emit(Op::Sqrt, [a.into()])
    }

    /// `sin(a)` (SFU)
    pub fn sin(&mut self, a: impl Into<Operand>) -> VReg {
        self.emit(Op::Sin, [a.into()])
    }

    /// `cos(a)` (SFU)
    pub fn cos(&mut self, a: impl Into<Operand>) -> VReg {
        self.emit(Op::Cos, [a.into()])
    }

    // ---- integer arithmetic ----

    /// `a + b`
    pub fn iadd(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::IAdd, [a.into(), b.into()])
    }

    /// `a + b` accumulated in place (`dst == a`), the `index += stride`
    /// idiom of Figure 2.
    pub fn iadd_acc(&mut self, acc: VReg, b: impl Into<Operand>) {
        self.push_instr(Instr::new(Op::IAdd, Some(acc), [acc.into(), b.into()]));
    }

    /// `a - b`
    pub fn isub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::ISub, [a.into(), b.into()])
    }

    /// `a * b`
    pub fn imul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::IMul, [a.into(), b.into()])
    }

    /// `a * b + c`
    pub fn imad(
        &mut self,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> VReg {
        self.emit(Op::IMad, [a.into(), b.into(), c.into()])
    }

    /// `a / b`
    pub fn idiv(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::IDiv, [a.into(), b.into()])
    }

    /// `a % b`
    pub fn irem(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::IRem, [a.into(), b.into()])
    }

    /// `min(a, b)` signed
    pub fn imin(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::IMin, [a.into(), b.into()])
    }

    /// `a << b`
    pub fn shl(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::Shl, [a.into(), b.into()])
    }

    /// `a >> b` (arithmetic)
    pub fn shr(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::Shr, [a.into(), b.into()])
    }

    /// `a & b`
    pub fn and(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::And, [a.into(), b.into()])
    }

    /// `a | b`
    pub fn or(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::Or, [a.into(), b.into()])
    }

    /// `max(a, b)` signed
    pub fn imax(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::IMax, [a.into(), b.into()])
    }

    // ---- conversions, predicates ----

    /// int → float
    pub fn i2f(&mut self, a: impl Into<Operand>) -> VReg {
        self.emit(Op::I2F, [a.into()])
    }

    /// float → int (truncating)
    pub fn f2i(&mut self, a: impl Into<Operand>) -> VReg {
        self.emit(Op::F2I, [a.into()])
    }

    /// `(a < b) ? 1 : 0`
    pub fn set_lt(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.emit(Op::SetLt, [a.into(), b.into()])
    }

    /// `c != 0 ? a : b`
    pub fn selp(
        &mut self,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> VReg {
        self.emit(Op::Selp, [a.into(), b.into(), c.into()])
    }

    // ---- memory ----

    /// Load from `space[addr + offset]`.
    pub fn ld(&mut self, space: MemorySpace, addr: impl Into<Operand>, offset: i32) -> VReg {
        let dst = self.fresh();
        self.push_instr(Instr::new(Op::Ld(space), Some(dst), [addr.into()]).with_offset(offset));
        dst
    }

    /// Coalesced global load.
    pub fn ld_global(&mut self, addr: impl Into<Operand>, offset: i32) -> VReg {
        self.ld(MemorySpace::Global, addr, offset)
    }

    /// Global load whose half-warp pattern does **not** coalesce.
    pub fn ld_global_uncoalesced(&mut self, addr: impl Into<Operand>, offset: i32) -> VReg {
        let dst = self.fresh();
        self.push_instr(
            Instr::new(Op::Ld(MemorySpace::Global), Some(dst), [addr.into()])
                .with_offset(offset)
                .with_coalesced(false),
        );
        dst
    }

    /// Shared-memory load.
    pub fn ld_shared(&mut self, addr: impl Into<Operand>, offset: i32) -> VReg {
        self.ld(MemorySpace::Shared, addr, offset)
    }

    /// Constant-cache load.
    pub fn ld_const(&mut self, addr: impl Into<Operand>, offset: i32) -> VReg {
        self.ld(MemorySpace::Constant, addr, offset)
    }

    /// Store to `space[addr + offset]`.
    pub fn st(
        &mut self,
        space: MemorySpace,
        addr: impl Into<Operand>,
        offset: i32,
        value: impl Into<Operand>,
    ) {
        self.push_instr(
            Instr::new(Op::St(space), None, [addr.into(), value.into()]).with_offset(offset),
        );
    }

    /// Coalesced global store.
    pub fn st_global(&mut self, addr: impl Into<Operand>, offset: i32, value: impl Into<Operand>) {
        self.st(MemorySpace::Global, addr, offset, value);
    }

    /// Global store whose half-warp pattern does not coalesce.
    pub fn st_global_uncoalesced(
        &mut self,
        addr: impl Into<Operand>,
        offset: i32,
        value: impl Into<Operand>,
    ) {
        self.push_instr(
            Instr::new(Op::St(MemorySpace::Global), None, [addr.into(), value.into()])
                .with_offset(offset)
                .with_coalesced(false),
        );
    }

    /// Shared-memory store.
    pub fn st_shared(&mut self, addr: impl Into<Operand>, offset: i32, value: impl Into<Operand>) {
        self.st(MemorySpace::Shared, addr, offset, value);
    }

    /// Local-memory (spill) store.
    pub fn st_local(&mut self, addr: impl Into<Operand>, offset: i32, value: impl Into<Operand>) {
        self.st(MemorySpace::Local, addr, offset, value);
    }

    /// Local-memory (spill) load.
    pub fn ld_local(&mut self, addr: impl Into<Operand>, offset: i32) -> VReg {
        self.ld(MemorySpace::Local, addr, offset)
    }

    // ---- control ----

    /// `__syncthreads()`.
    pub fn sync(&mut self) {
        self.push(Stmt::Sync);
    }

    /// A counted loop; the closure receives the builder and the loop
    /// counter register (holding 0, 1, …, `trips - 1`).
    pub fn for_loop(&mut self, trips: u32, f: impl FnOnce(&mut Self, VReg)) {
        let counter = self.fresh();
        self.frames.push(Vec::new());
        f(self, counter);
        let body = self.frames.pop().expect("loop frame just pushed");
        self.push(Stmt::Loop(Loop { trip_count: trips, counter: Some(counter), body }));
    }

    /// A counted loop whose body does not read the iteration index.
    pub fn repeat(&mut self, trips: u32, f: impl FnOnce(&mut Self)) {
        self.frames.push(Vec::new());
        f(self);
        let body = self.frames.pop().expect("loop frame just pushed");
        self.push(Stmt::Loop(Loop { trip_count: trips, counter: None, body }));
    }

    /// Finish, producing the kernel.
    ///
    /// # Panics
    ///
    /// Panics if a loop frame is still open (a generator bug).
    pub fn finish(mut self) -> Kernel {
        assert_eq!(self.frames.len(), 1, "unclosed loop frame");
        Kernel {
            name: self.name,
            body: self.frames.pop().expect("base frame"),
            smem_bytes: self.smem_bytes,
            num_params: self.num_params,
            num_vregs: self.next_reg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Stmt;

    #[test]
    fn fresh_registers_are_distinct() {
        let mut b = KernelBuilder::new("t");
        let r0 = b.fresh();
        let r1 = b.fresh();
        assert_ne!(r0, r1);
    }

    #[test]
    fn loop_scoping_produces_nested_body() {
        let mut b = KernelBuilder::new("t");
        let x = b.mov(1i32);
        b.repeat(4, |b| {
            b.iadd(x, 1i32);
            b.repeat(2, |b| {
                b.iadd(x, 2i32);
            });
        });
        let k = b.finish();
        assert_eq!(k.body.len(), 2);
        assert_eq!(k.loop_depth(), 2);
        match &k.body[1] {
            Stmt::Loop(l) => {
                assert_eq!(l.trip_count, 4);
                assert_eq!(l.body.len(), 2);
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn for_loop_provides_counter() {
        let mut b = KernelBuilder::new("t");
        b.for_loop(8, |b, i| {
            b.iadd(i, 1i32);
        });
        let k = b.finish();
        match &k.body[0] {
            Stmt::Loop(l) => assert!(l.counter.is_some()),
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn shared_allocation_is_word_addressed() {
        let mut b = KernelBuilder::new("t");
        let a = b.alloc_shared(16 * 16 * 4);
        let c = b.alloc_shared(10); // padded to 12
        assert_eq!(a, 0);
        assert_eq!(c, 256);
        let k = b.finish();
        assert_eq!(k.smem_bytes, 1024 + 12);
    }

    #[test]
    fn params_tracked_by_max_index() {
        let mut b = KernelBuilder::new("t");
        b.param(3);
        b.param(1);
        let k = b.finish();
        assert_eq!(k.num_params, 4);
    }

    #[test]
    #[should_panic(expected = "unclosed loop frame")]
    fn unbalanced_frames_panic() {
        let mut b = KernelBuilder::new("t");
        b.frames.push(Vec::new());
        let _ = b.finish();
    }

    #[test]
    fn accumulate_forms_reuse_dst() {
        let mut b = KernelBuilder::new("t");
        let acc = b.mov(0.0f32);
        b.fmad_acc(1.0f32, 2.0f32, acc);
        let idx = b.mov(0i32);
        b.iadd_acc(idx, 16i32);
        let k = b.finish();
        // 4 instructions, but only 2 registers defined.
        assert_eq!(k.static_instr_count(), 4);
        assert_eq!(k.num_vregs, 2);
    }
}
