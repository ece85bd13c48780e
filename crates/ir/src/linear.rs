//! Flattening structured kernels into branch-explicit linear programs.
//!
//! Both execution engines in `gpu-sim` — the functional interpreter and
//! the warp-level timing simulator — run over a [`LinearProgram`]: a flat
//! instruction vector where loops have become explicit
//! [`LinOp::LoopStart`]/[`LinOp::LoopEnd`] markers with pre-resolved jump
//! targets. Loop control costs [`crate::LOOP_OVERHEAD_INSTRS`] issue
//! slots per iteration, the same figure the static analyses charge, so
//! the metrics and the simulated machine agree.

use crate::instr::Instr;
use crate::kernel::{Kernel, Stmt};
use crate::types::VReg;

/// One element of a linearized kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum LinOp {
    /// An ordinary instruction.
    Instr(Instr),
    /// Thread-block barrier.
    Sync,
    /// Loop header. Execution: initialise the counter (if any) to zero;
    /// if `trips == 0`, jump past `end` immediately.
    LoopStart {
        /// Register holding the iteration index.
        counter: Option<VReg>,
        /// Total iterations.
        trips: u32,
        /// Index of the matching [`LinOp::LoopEnd`].
        end: usize,
    },
    /// Loop back edge. Execution: increment trip/counter; jump back to
    /// `start + 1` unless the trip count is exhausted.
    LoopEnd {
        /// Index of the matching [`LinOp::LoopStart`].
        start: usize,
    },
}

/// A kernel flattened for execution.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearProgram {
    /// Flat code with resolved loop targets.
    pub code: Vec<LinOp>,
    /// Virtual registers needed by an executor's register file.
    pub num_vregs: u32,
    /// Shared memory words per block.
    pub smem_words: u32,
    /// Number of kernel parameters.
    pub num_params: u32,
}

fn lower(stmts: &[Stmt], code: &mut Vec<LinOp>) {
    for s in stmts {
        match s {
            Stmt::Op(i) => code.push(LinOp::Instr(*i)),
            Stmt::Sync => code.push(LinOp::Sync),
            Stmt::Loop(l) => {
                let start = code.len();
                code.push(LinOp::LoopStart { counter: l.counter, trips: l.trip_count, end: 0 });
                lower(&l.body, code);
                let end = code.len();
                code.push(LinOp::LoopEnd { start });
                match &mut code[start] {
                    LinOp::LoopStart { end: e, .. } => *e = end,
                    _ => unreachable!("start index points at the header just pushed"),
                }
            }
        }
    }
}

/// Flatten `kernel` into a [`LinearProgram`].
///
/// # Examples
///
/// ```
/// use gpu_ir::build::KernelBuilder;
/// use gpu_ir::linear::{linearize, LinOp};
///
/// let mut b = KernelBuilder::new("k");
/// b.repeat(3, |b| { b.mov(1i32); });
/// let prog = linearize(&b.finish());
/// assert!(matches!(prog.code[0], LinOp::LoopStart { trips: 3, end: 2, .. }));
/// assert!(matches!(prog.code[2], LinOp::LoopEnd { start: 0 }));
/// ```
pub fn linearize(kernel: &Kernel) -> LinearProgram {
    let mut code = Vec::with_capacity(kernel.static_instr_count() * 2);
    lower(&kernel.body, &mut code);
    LinearProgram {
        code,
        num_vregs: kernel.num_vregs,
        smem_words: kernel.smem_bytes.div_ceil(4),
        num_params: kernel.num_params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KernelBuilder;

    #[test]
    fn nested_loops_resolve_targets() {
        let mut b = KernelBuilder::new("k");
        b.repeat(2, |b| {
            b.mov(0i32);
            b.repeat(3, |b| {
                b.mov(1i32);
            });
            b.mov(2i32);
        });
        let p = linearize(&b.finish());
        // layout: 0 LoopStart, 1 mov, 2 LoopStart, 3 mov, 4 LoopEnd,
        //         5 mov, 6 LoopEnd
        assert_eq!(p.code.len(), 7);
        assert!(matches!(p.code[0], LinOp::LoopStart { end: 6, .. }));
        assert!(matches!(p.code[2], LinOp::LoopStart { end: 4, .. }));
        assert!(matches!(p.code[4], LinOp::LoopEnd { start: 2 }));
        assert!(matches!(p.code[6], LinOp::LoopEnd { start: 0 }));
    }

    #[test]
    fn straight_line_passes_through() {
        let mut b = KernelBuilder::new("k");
        b.mov(0i32);
        b.sync();
        b.mov(1i32);
        let p = linearize(&b.finish());
        assert_eq!(p.code.len(), 3);
        assert!(matches!(p.code[1], LinOp::Sync));
    }

    #[test]
    fn smem_words_round_up() {
        let mut b = KernelBuilder::new("k");
        b.alloc_shared(10);
        let p = linearize(&b.finish());
        assert_eq!(p.smem_words, 3);
    }
}
