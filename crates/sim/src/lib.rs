//! Execution engines for the G80 machine model.
//!
//! The paper validates its static metrics against wall-clock runs on a
//! GeForce 8800 GTX. Lacking that hardware, this crate supplies two
//! engines over the `gpu-ir` linear program:
//!
//! * [`interp`] — a **functional interpreter**: executes every thread of
//!   every block on real `f32` data, with shared memory and
//!   `__syncthreads` semantics. It exists so the test suite can prove
//!   that every optimization configuration of every generated kernel
//!   computes the same answer as the single-thread CPU reference. Its
//!   [`interp::run_kernel_checked`] variant adds a dynamic shared-memory
//!   race oracle (threads run sequentially, so an unchecked run would
//!   mask races behind deterministic-but-GPU-wrong results).
//! * [`timing`] — a **cycle-approximate warp-level timing simulator**:
//!   one SM hosting the occupancy-determined number of blocks, a
//!   single-issue port (one warp instruction per 4 cycles), scoreboarded
//!   register dependences, SFU throughput limits, barrier join
//!   semantics, and a global-memory queue enforcing both the 200–300
//!   cycle latency and the 86.4 GB/s bandwidth with G80 coalescing
//!   rules. This is the stand-in for the paper's wall-clock ground
//!   truth.
//! * [`trace`] — execution-path tracing for debugging generated
//!   configurations.
//!
//! Each engine has one way in. The interpreter is [`run_kernel`] (and
//! its race-checked twin [`run_kernel_checked`]) over a
//! [`LinearProgram`](gpu_ir::linear::LinearProgram). The timing
//! simulator is [`simulate`] for one program and [`simulate_family`]
//! for trip-count siblings forked from one run; a single program is a
//! family of one, so the two drive the same event loop, take the same
//! optional fuel limit and fail with one error type, [`TimingError`].
//! Tracing is [`trace_kernel`].
//!
//! Both engines execute the pre-decoded form from [`decode`]: a
//! [`LinearProgram`](gpu_ir::linear::LinearProgram) is lowered once into
//! a flat arena of fixed-width ops ([`DecodedProgram`]), and the hot
//! loops walk that arena by index. Timing callers decode with
//! [`decode::decode`] and may share one decode across many simulations.
//! The pre-decode reference engines are retained in [`legacy`] as the
//! behavioural oracle — the differential test suite holds the two stacks
//! bit-identical.
//!
//! # Examples
//!
//! ```
//! use gpu_ir::{build::KernelBuilder, linear::linearize, Dim, Launch};
//! use gpu_ir::types::Special;
//! use gpu_sim::interp::{run_kernel, DeviceMemory};
//!
//! // y[i] = x[i] * 2 over one 32-thread block.
//! let mut b = KernelBuilder::new("scale");
//! let x = b.param(0);
//! let y = b.param(1);
//! let tid = b.read_special(Special::TidX);
//! let xa = b.iadd(x, tid);
//! let ya = b.iadd(y, tid);
//! let v = b.ld_global(xa, 0);
//! let v2 = b.fmul_imm(v, 2.0);
//! b.st_global(ya, 0, v2);
//! let prog = linearize(&b.finish());
//!
//! let mut mem = DeviceMemory::new(64);
//! for i in 0..32 { mem.global[i] = i as f32; }
//! let launch = Launch::new(Dim::new_1d(1), Dim::new_1d(32));
//! run_kernel(&prog, &launch, &[0, 32], &mut mem).unwrap();
//! assert_eq!(mem.global[32 + 7], 14.0);
//! ```

pub mod decode;
pub mod error;
pub mod interp;
pub mod legacy;
pub mod timing;
pub mod trace;

pub use decode::{DecodedArena, DecodedProgram};
pub use error::SimError;
pub use interp::{run_kernel, run_kernel_checked, DeviceMemory};
pub use timing::{simulate, simulate_family, TimingError, TimingReport};
pub use trace::{trace_kernel, Trace};
