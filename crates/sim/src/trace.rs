//! Execution tracing over the functional interpreter.
//!
//! [`trace_kernel`] runs a kernel and records the dynamic path its
//! threads take, every retired instruction in order — the tool a
//! developer reaches for when a configuration computes the wrong answer
//! and `-ptx` staring stops helping. Control flow is warp-uniform, so
//! one path stands for every thread. Traces can be pretty-printed;
//! memory traffic is summarised per space.

use gpu_arch::MemorySpace;
use gpu_ir::linear::{LinOp, LinearProgram};
use gpu_ir::{Launch, Op};

use crate::error::SimError;
use crate::interp::{run_kernel, DeviceMemory};

/// One retired instruction in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Position in the linear program.
    pub pc: usize,
    /// Rendered instruction.
    pub text: String,
    /// Dynamic sequence number for this thread.
    pub step: u64,
}

/// Summary statistics of one thread's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Instructions retired.
    pub retired: u64,
    /// Barriers crossed.
    pub barriers: u64,
    /// Loads per memory space: global, shared, constant, texture, local.
    pub loads: [u64; 5],
    /// Stores per memory space (same order).
    pub stores: [u64; 5],
    /// Back-edges taken.
    pub back_edges: u64,
}

impl TraceSummary {
    fn space_index(space: MemorySpace) -> usize {
        match space {
            MemorySpace::Global => 0,
            MemorySpace::Shared => 1,
            MemorySpace::Constant => 2,
            MemorySpace::Texture => 3,
            MemorySpace::Local => 4,
        }
    }
}

/// A recorded single-thread trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Retired-instruction events, in order. Capped by the `limit` given
    /// to [`trace_kernel`]; `truncated` reports whether the cap was hit.
    pub events: Vec<TraceEvent>,
    /// Whether `events` hit the recording cap.
    pub truncated: bool,
    /// Whole-execution statistics (never truncated).
    pub summary: TraceSummary,
}

impl Trace {
    /// Render the first `n` events, one per line.
    pub fn head(&self, n: usize) -> String {
        self.events
            .iter()
            .take(n)
            .map(|e| format!("#{:<6} pc={:<5} {}", e.step, e.pc, e.text))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Execute the whole launch and record its dynamic path, keeping at
/// most `limit` events.
///
/// The path is the one every thread takes: control flow is
/// warp-uniform and trip counts are static, so it is walked from the
/// program alone. The launch then runs for real through
/// [`run_kernel`], so `mem` reflects the execution that was traced.
///
/// # Errors
///
/// Propagates any interpreter fault.
pub fn trace_kernel(
    prog: &LinearProgram,
    launch: &Launch,
    params: &[i32],
    mem: &mut DeviceMemory,
    limit: usize,
) -> Result<Trace, SimError> {
    // First, a dry pass for the summary and the dynamic path: walk the
    // linear program with a control-only cursor (trip counts are static,
    // so the path needs no data).
    let mut summary = TraceSummary::default();
    let mut events = Vec::new();
    let mut truncated = false;

    let code = &prog.code;
    let mut pc = 0usize;
    let mut frames: Vec<(usize, u32)> = Vec::new(); // (body_start, remaining)
    let mut step: u64 = 0;
    while pc < code.len() {
        match &code[pc] {
            LinOp::Instr(i) => {
                step += 1;
                summary.retired += 1;
                match i.op {
                    Op::Ld(space) => {
                        summary.loads[TraceSummary::space_index(space)] += 1;
                    }
                    Op::St(space) => {
                        summary.stores[TraceSummary::space_index(space)] += 1;
                    }
                    _ => {}
                }
                if events.len() < limit {
                    events.push(TraceEvent { pc, text: i.to_string(), step });
                } else {
                    truncated = true;
                }
                pc += 1;
            }
            LinOp::Sync => {
                step += 1;
                summary.retired += 1;
                summary.barriers += 1;
                if events.len() < limit {
                    events.push(TraceEvent { pc, text: "bar.sync".into(), step });
                } else {
                    truncated = true;
                }
                pc += 1;
            }
            LinOp::LoopStart { trips, end, .. } => {
                if *trips == 0 {
                    pc = end + 1;
                } else {
                    frames.push((pc + 1, *trips));
                    pc += 1;
                }
            }
            LinOp::LoopEnd { .. } => {
                let (start, remaining) = frames.last_mut().expect("balanced loops");
                *remaining -= 1;
                if *remaining > 0 {
                    summary.back_edges += 1;
                    pc = *start;
                } else {
                    frames.pop();
                    pc += 1;
                }
            }
        }
    }

    // Then the real functional run, so the caller's memory reflects the
    // execution they traced.
    run_kernel(prog, launch, params, mem)?;
    Ok(Trace { events, truncated, summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::types::Special;
    use gpu_ir::Dim;

    fn traced_kernel() -> (LinearProgram, Launch) {
        let mut b = KernelBuilder::new("t");
        let p = b.param(0);
        b.alloc_shared(8);
        let tid = b.read_special(Special::TidX);
        let a = b.iadd(p, tid);
        let acc = b.mov(0.0f32);
        b.repeat(3, |b| {
            let x = b.ld_global(a, 0);
            b.fmad_acc(x, 1.0f32, acc);
            b.st_shared(0i32, 0, x);
            b.sync();
        });
        b.st_global(a, 4, acc);
        (linearize(&b.finish()), Launch::new(Dim::new_1d(1), Dim::new_1d(4)))
    }

    #[test]
    fn trace_counts_dynamic_events() {
        let (prog, launch) = traced_kernel();
        let mut mem = DeviceMemory::new(16);
        let t = trace_kernel(&prog, &launch, &[0], &mut mem, 1000).expect("runs");
        assert_eq!(t.summary.barriers, 3);
        assert_eq!(t.summary.loads[0], 3); // global
        assert_eq!(t.summary.stores[1], 3); // shared
        assert_eq!(t.summary.stores[0], 1); // final global store
        assert_eq!(t.summary.back_edges, 2);
        assert!(!t.truncated);
        // Dynamic count matches the static analysis minus loop overhead
        // (the tracer records instructions, not control slots).
        assert_eq!(t.summary.retired, 4 + 3 * 4 + 1);
    }

    #[test]
    fn trace_limit_truncates_events_but_not_summary() {
        let (prog, launch) = traced_kernel();
        let mut mem = DeviceMemory::new(16);
        let t = trace_kernel(&prog, &launch, &[0], &mut mem, 5).expect("runs");
        assert_eq!(t.events.len(), 5);
        assert!(t.truncated);
        assert_eq!(t.summary.retired, 17);
    }

    #[test]
    fn trace_runs_the_kernel_for_real() {
        let (prog, launch) = traced_kernel();
        let mut mem = DeviceMemory::new(16);
        for i in 0..4 {
            mem.global[i] = (i + 1) as f32;
        }
        trace_kernel(&prog, &launch, &[0], &mut mem, 10).expect("runs");
        // Thread 0 accumulated its input three times.
        assert_eq!(mem.global[4], 3.0);
    }

    #[test]
    fn head_renders_readably() {
        let (prog, launch) = traced_kernel();
        let mut mem = DeviceMemory::new(16);
        let t = trace_kernel(&prog, &launch, &[0], &mut mem, 100).expect("runs");
        let head = t.head(3);
        assert_eq!(head.lines().count(), 3);
        assert!(head.contains("mov.b32"), "{head}");
    }
}
