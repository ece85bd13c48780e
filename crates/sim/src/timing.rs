//! Cycle-approximate warp-level timing simulation.
//!
//! This is the stand-in for the paper's wall-clock measurements. One SM
//! is simulated hosting the occupancy-determined number of thread blocks
//! (`B_SM` from `gpu-arch`); the whole-device time is the per-"wave"
//! time multiplied by the number of waves of blocks the grid supplies
//! (`ceil(grid / (16 · B_SM))`). First-order G80 behaviours modelled:
//!
//! * **Single issue port**: one warp instruction per 4 cycles per SM;
//!   zero-overhead switching between ready warps (section 2.1).
//! * **Scoreboarded dependences**: a global load does not block issue —
//!   only the first *use* of its destination waits, so independent
//!   instructions (unrolling, prefetching) hide latency.
//! * **SFU throughput**: transcendental ops share two SFUs, issuing one
//!   warp op per 16 cycles.
//! * **Barrier join**: `__syncthreads` blocks a warp until every warp of
//!   its block arrives (warps of *other* blocks keep issuing — the
//!   paper's main argument for multiple resident blocks).
//! * **Global-memory queue**: each off-chip access consumes the SM's
//!   share of the 86.4 GB/s DRAM bandwidth; a coalesced warp access
//!   moves 2×64-byte transactions, an uncoalesced one 32×32-byte
//!   transactions (section 2 of Table 1). Queue pressure delays
//!   completions, which is what makes the 8×8-tile matmul
//!   configurations bandwidth-bound.
//! * **Loop control**: each back edge charges
//!   [`gpu_ir::LOOP_OVERHEAD_INSTRS`] issue slots, matching the static
//!   instruction counts.
//!
//! Control flow is assumed warp-uniform: the paper's four kernels are
//! generated with no data-dependent branches (predication via `selp`
//! only), so divergence modelling is unnecessary.
//!
//! # Execution representation
//!
//! The event loop runs on the pre-decoded form from [`crate::decode`]:
//! an index walk over a flat `Vec<DecodedOp>` with warp state held as
//! struct-of-arrays (per-warp scalars in parallel vectors, all register
//! scoreboards in one contiguous slab). The structured-[`LinOp`]
//! reference engine lives in [`crate::legacy`] and is held bit-identical
//! to this one by the differential test suite.
//!
//! [`LinOp`]: gpu_ir::linear::LinOp

use gpu_arch::{LaunchError, MachineSpec, Occupancy, ResourceUsage};
use gpu_ir::{Launch, LOOP_OVERHEAD_INSTRS};

use crate::decode::{DecKind, DecodedArena, DecodedOp, DecodedProgram, LatClass, NO_REG};

/// Result of a timing simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Cycles for one wave of blocks on one SM.
    pub cycles_per_wave: u64,
    /// Waves of blocks needed to drain the grid across all SMs,
    /// fractional: a grid of 64 blocks on a 48-block wave capacity is
    /// 1⅓ waves (the hardware load-balances the tail, so integer
    /// rounding would punish high-occupancy configurations on grids
    /// that are not capacity multiples).
    pub waves: f64,
    /// Estimated total kernel cycles (`cycles_per_wave * waves`).
    pub total_cycles: u64,
    /// Wall-clock estimate in milliseconds at the spec's shader clock.
    pub time_ms: f64,
    /// Warp instructions issued during the simulated wave (loop control
    /// included).
    pub instructions_issued: u64,
    /// Cycles the issue port was occupied during the wave.
    pub busy_cycles: u64,
    /// DRAM bytes moved by the simulated wave (one SM's traffic).
    pub dram_bytes: u64,
    /// Fraction of the SM's DRAM-bandwidth share consumed, in `[0, 1]`.
    pub bandwidth_utilization: f64,
    /// The occupancy used for the simulation.
    pub occupancy: Occupancy,
    /// Scheduler steps the event loop took — the fuel this simulation
    /// consumed.
    pub steps: u64,
    /// Issue-port idle cycles attributed to waiting on an in-flight
    /// global-memory load.
    pub stall_mem_cycles: u64,
    /// Issue-port idle cycles attributed to the SFU issue port.
    pub stall_sfu_cycles: u64,
    /// Issue-port idle cycles attributed to waiting on an arithmetic /
    /// on-chip result.
    pub stall_arith_cycles: u64,
    /// Issue-port idle cycles attributed to control flow and barriers.
    pub stall_other_cycles: u64,
}

impl TimingReport {
    /// Issue-port utilisation for the wave, in `[0, 1]`.
    pub fn issue_utilization(&self) -> f64 {
        if self.cycles_per_wave == 0 {
            return 0.0;
        }
        self.busy_cycles as f64 / self.cycles_per_wave as f64
    }

    /// Total attributed issue-port stall cycles for the wave.
    pub fn stall_total_cycles(&self) -> u64 {
        self.stall_mem_cycles
            + self.stall_sfu_cycles
            + self.stall_arith_cycles
            + self.stall_other_cycles
    }
}

/// Bytes one warp's off-chip access moves over DRAM.
pub(crate) fn warp_transaction_bytes(spec: &MachineSpec, coalesced: bool) -> u64 {
    if coalesced {
        // Two half-warps, one transaction each.
        2 * u64::from(spec.coalesced_transaction_bytes)
    } else {
        // One transaction per thread.
        u64::from(spec.warp_size) * u64::from(spec.uncoalesced_transaction_bytes)
    }
}

/// Launch-derived constants shared by every state of one simulation:
/// residency, issue width, and the SM's bandwidth share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimSetup {
    pub(crate) occ: Occupancy,
    pub(crate) wpb: usize,
    pub(crate) bsm: usize,
    pub(crate) issue: u64,
    pub(crate) bw_per_cycle: f64,
}

impl SimSetup {
    pub(crate) fn new(
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Result<Self, LaunchError> {
        let occ = spec.occupancy(usage)?;
        let wpb = occ.warps_per_block as usize;
        // Resident blocks: capped by occupancy AND by what the grid
        // actually supplies per SM — a 16-block grid on 16 SMs hosts one
        // block each no matter how many would fit.
        let supply = launch.total_blocks().div_ceil(u64::from(spec.num_sms)).max(1) as usize;
        let bsm = (occ.blocks_per_sm as usize).min(supply);
        Ok(Self {
            occ,
            wpb,
            bsm,
            issue: u64::from(spec.issue_cycles_per_warp),
            bw_per_cycle: spec.bandwidth_bytes_per_cycle() / f64::from(spec.num_sms),
        })
    }
}

/// Outcome of scheduling: the next issuable warp, a completed kernel,
/// or a wedged one (every live warp is blocked at a barrier that can
/// never release).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pick {
    Ready(u64, usize),
    Done,
    Deadlock,
}

/// One open loop of one warp: which loop (by decoded loop id) and how
/// many trips remain.
#[derive(Debug, Clone, Copy)]
struct FrameD {
    loop_id: u32,
    remaining: u32,
}

const EMPTY_FRAME: FrameD = FrameD { loop_id: NO_REG, remaining: 0 };

/// All resident warps of one simulation, struct-of-arrays: per-warp
/// scalars live in parallel vectors and every warp's register
/// scoreboard shares one contiguous slab (`warp × num_vregs`), so the
/// scheduler's hot reads stride through flat memory instead of chasing
/// one heap allocation per warp.
#[derive(Debug, Clone)]
struct WarpSoA {
    /// Registers per warp — the slab stride.
    nv: usize,
    /// Loop-frame capacity per warp (the arena's max nesting depth).
    depth_cap: usize,
    pc: Vec<u32>,
    stall_until: Vec<u64>,
    blocked: Vec<bool>,
    done: Vec<bool>,
    block: Vec<u32>,
    /// `warp × nv` slab: cycle each register's pending value lands.
    reg_ready: Vec<u64>,
    /// `warp × nv` slab: whether each register's pending value comes
    /// from a long-latency (off-chip) load — drives the mem/arith split
    /// of operand stalls.
    reg_from_mem: Vec<bool>,
    /// `warp × depth_cap` slab of open loop frames.
    frames: Vec<FrameD>,
    frame_len: Vec<u32>,
    /// Cached earliest issue time of each warp's current op,
    /// `max(stall_until, operands_ready)`. Registers are per-warp, so
    /// this only changes when the warp itself steps or its block's
    /// barrier releases; the scheduler reads it instead of re-deriving
    /// operand readiness every pick. Retired and barrier-parked warps
    /// hold [`u64::MAX`], so the scan skips them on the same load.
    ready_at: Vec<u64>,
    /// Whether each warp's current op contends for the SFU issue port
    /// (the one cross-warp constraint `ready_at` cannot absorb).
    next_sfu: Vec<bool>,
}

impl WarpSoA {
    fn new(n: usize, num_vregs: u32, depth_cap: usize, block_of: impl Fn(usize) -> u32) -> Self {
        let nv = num_vregs as usize;
        Self {
            nv,
            depth_cap,
            pc: vec![0; n],
            stall_until: vec![0; n],
            blocked: vec![false; n],
            done: vec![false; n],
            block: (0..n).map(block_of).collect(),
            reg_ready: vec![0; n * nv],
            reg_from_mem: vec![false; n * nv],
            frames: vec![EMPTY_FRAME; n * depth_cap],
            frame_len: vec![0; n],
            ready_at: vec![0; n],
            next_sfu: vec![false; n],
        }
    }

    fn len(&self) -> usize {
        self.pc.len()
    }

    /// Skip warp `wi` through zero-cost control ops (loop headers,
    /// zero-trip skips) and mark completion. Trip counts come from
    /// `trips` (indexed by loop id), not the arena — the family driver
    /// varies them per state.
    /// On return the warp is either retired (`done`) or parked on an
    /// issuable op with its cached `ready_at`/`next_sfu` re-derived from
    /// that op — the scheduler's scan never touches the arena.
    fn fast_forward(&mut self, wi: usize, arena: &DecodedArena, trips: &[u32]) {
        let n_ops = arena.ops.len() as u32;
        let mut pc = self.pc[wi];
        loop {
            if pc >= n_ops {
                self.pc[wi] = pc;
                self.done[wi] = true;
                self.ready_at[wi] = u64::MAX;
                return;
            }
            let op = &arena.ops[pc as usize];
            if op.kind != DecKind::LoopStart {
                self.pc[wi] = pc;
                self.ready_at[wi] = self.stall_until[wi].max(self.operands_ready(wi, op));
                self.next_sfu[wi] = op.kind == DecKind::Instr && op.lat == LatClass::Sfu;
                return;
            }
            let t = trips[op.loop_id as usize];
            if t == 0 {
                pc = op.target;
            } else {
                let base = wi * self.depth_cap;
                let len = self.frame_len[wi] as usize;
                self.frames[base + len] = FrameD { loop_id: op.loop_id, remaining: t };
                self.frame_len[wi] += 1;
                pc += 1;
            }
        }
    }

    /// Earliest cycle at which the operands of `op` (the op at warp
    /// `wi`'s pc) are ready.
    fn operands_ready(&self, wi: usize, op: &DecodedOp) -> u64 {
        if op.kind != DecKind::Instr {
            return 0;
        }
        let base = wi * self.nv;
        let mut ready = 0u64;
        for &r in &op.src_regs {
            if r != NO_REG {
                ready = ready.max(self.reg_ready[base + r as usize]);
            }
        }
        ready
    }

    /// The topmost open loop frame of warp `wi`.
    fn top_frame(&self, wi: usize) -> &FrameD {
        let len = self.frame_len[wi] as usize;
        &self.frames[wi * self.depth_cap + len - 1]
    }

    /// Re-derive the cached `ready_at`/`next_sfu` of warp `wi` from the
    /// op at its pc — used when a barrier release revives a parked warp
    /// (its sentinel must give way to a real issue time again).
    fn refresh_ready(&mut self, wi: usize, arena: &DecodedArena) {
        let op = &arena.ops[self.pc[wi] as usize];
        self.ready_at[wi] = self.stall_until[wi].max(self.operands_ready(wi, op));
        self.next_sfu[wi] = op.kind == DecKind::Instr && op.lat == LatClass::Sfu;
    }
}

/// Complete mid-flight state of the event loop. Cloneable so a run can
/// be forked at a checkpoint and finished against a sibling trip-count
/// assignment (see [`simulate_family`]).
#[derive(Debug, Clone)]
struct SimState {
    warps: WarpSoA,
    barrier_arrived: Vec<usize>,
    issue_free: u64,
    sfu_free: u64,
    mem_free: f64,
    busy: u64,
    issued: u64,
    dram_bytes: u64,
    finish_time: u64,
    last_pick: usize,
    remaining: usize,
    /// Scheduler steps taken so far — the fuel meter. Forked clones
    /// inherit the master's count, which equals what their standalone
    /// run would have accumulated over the identical prefix.
    steps: u64,
    /// Issue-port idle gaps attributed to their binding constraint.
    /// Cloned with the state, so family forks report the same breakdown
    /// a standalone run would.
    stall_mem: u64,
    stall_sfu: u64,
    stall_arith: u64,
    stall_other: u64,
}

impl SimState {
    fn new(arena: &DecodedArena, trips: &[u32], num_vregs: u32, setup: &SimSetup) -> Self {
        let n = setup.bsm * setup.wpb;
        let wpb = setup.wpb;
        let mut warps = WarpSoA::new(n, num_vregs, arena.max_loop_depth, |wi| (wi / wpb) as u32);
        for wi in 0..n {
            warps.fast_forward(wi, arena, trips);
        }
        let remaining = warps.done.iter().filter(|d| !**d).count();
        Self {
            warps,
            barrier_arrived: vec![0; setup.bsm],
            issue_free: 0,
            sfu_free: 0,
            mem_free: 0.0,
            busy: 0,
            issued: 0,
            dram_bytes: 0,
            finish_time: 0,
            last_pick: 0,
            remaining,
            steps: 0,
            stall_mem: 0,
            stall_sfu: 0,
            stall_arith: 0,
            stall_other: 0,
        }
    }

    /// Pick the schedulable warp with the earliest possible issue time,
    /// round-robin from the last pick for fairness.
    ///
    /// The scan reads the cached per-warp `ready_at` instead of
    /// re-deriving operand readiness, and stops at the first warp whose
    /// issue time clamps to `issue_free`: every candidate is maxed up to
    /// `issue_free`, so nothing later in round-robin order can be
    /// *strictly* earlier, and ties already go to the first warp
    /// scanned. Both are pure strength reductions — the selected warp
    /// and its issue time are identical to the exhaustive per-step scan
    /// the legacy engine performs.
    fn pick(&self) -> Pick {
        if self.remaining == 0 {
            return Pick::Done;
        }
        let n = self.warps.len();
        let start = self.last_pick + 1;
        let mut best: Option<(u64, usize)> = None;
        for k in 0..n {
            let mut idx = start + k;
            if idx >= n {
                idx -= n;
            }
            let mut t = self.warps.ready_at[idx];
            if t == u64::MAX {
                // Retired or barrier-parked — not schedulable.
                continue;
            }
            if self.warps.next_sfu[idx] {
                t = t.max(self.sfu_free);
            }
            if t <= self.issue_free {
                return Pick::Ready(self.issue_free, idx);
            }
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, idx));
            }
        }
        match best {
            Some((t, idx)) => Pick::Ready(t, idx),
            // Live warps remain but every one is parked at a barrier
            // that can never release — a malformed kernel, not a
            // simulator invariant, so it surfaces as an error.
            None => Pick::Deadlock,
        }
    }

    /// Attribute an issue-port idle gap (the port sat idle for `gap`
    /// cycles before warp `idx` could issue at `t`) to the binding
    /// constraint: an operand still in flight (split by whether it comes
    /// from a global load), the SFU port, or control flow / barriers.
    fn attribute_stall(&mut self, op: &DecodedOp, t: u64, idx: usize) {
        let gap = t.saturating_sub(self.issue_free);
        if gap == 0 {
            return;
        }
        let operands = self.warps.operands_ready(idx, op);
        let is_sfu = op.kind == DecKind::Instr && op.lat == LatClass::Sfu;
        let sfu = if is_sfu { self.sfu_free } else { 0 };
        // `t` is the max of the constraints and the (smaller) issue_free,
        // so the largest constraint is what the port waited on.
        if operands >= sfu && operands >= self.warps.stall_until[idx] {
            let from_mem = if op.kind == DecKind::Instr {
                let base = idx * self.warps.nv;
                op.src_regs.iter().any(|&r| {
                    r != NO_REG
                        && self.warps.reg_ready[base + r as usize] == operands
                        && self.warps.reg_from_mem[base + r as usize]
                })
            } else {
                false
            };
            if from_mem {
                self.stall_mem += gap;
            } else {
                self.stall_arith += gap;
            }
        } else if sfu >= self.warps.stall_until[idx] {
            self.stall_sfu += gap;
        } else {
            self.stall_other += gap;
        }
    }

    /// Issue the op of warp `idx` at time `t` and advance the state.
    fn step(
        &mut self,
        arena: &DecodedArena,
        trips: &[u32],
        setup: &SimSetup,
        spec: &MachineSpec,
        t: u64,
        idx: usize,
    ) {
        let op = arena.ops[self.warps.pc[idx] as usize];
        self.attribute_stall(&op, t, idx);
        self.steps += 1;
        self.last_pick = idx;
        let issue = setup.issue;
        match op.kind {
            DecKind::Instr => {
                self.issue_free = t + issue;
                self.busy += issue;
                self.issued += 1;
                let done_at = match op.lat {
                    LatClass::MemLd => {
                        let bytes = warp_transaction_bytes(spec, op.coalesced);
                        self.dram_bytes += bytes;
                        let service = bytes as f64 / setup.bw_per_cycle;
                        let start = self.mem_free.max(t as f64);
                        self.mem_free = start + service;
                        self.mem_free as u64 + u64::from(spec.global_latency_typ())
                    }
                    LatClass::MemSt => {
                        // Fire-and-forget, but it consumes bandwidth.
                        let bytes = warp_transaction_bytes(spec, op.coalesced);
                        self.dram_bytes += bytes;
                        let service = bytes as f64 / setup.bw_per_cycle;
                        let start = self.mem_free.max(t as f64);
                        self.mem_free = start + service;
                        t + issue
                    }
                    LatClass::OnChip => {
                        // On-chip accesses with bank or constant-cache
                        // conflicts replay once per conflicting subset.
                        if op.replay_ways > 1 {
                            let extra = u64::from(op.replay_ways - 1) * issue;
                            self.issue_free += extra;
                            self.busy += extra;
                        }
                        t + u64::from(spec.shared_latency)
                    }
                    LatClass::Sfu => {
                        self.sfu_free = t + u64::from(spec.sfu_issue_cycles);
                        t + u64::from(spec.sfu_latency)
                    }
                    LatClass::Arith | LatClass::Control => t + u64::from(spec.arith_latency),
                };
                if op.dst != NO_REG {
                    let r = idx * self.warps.nv + op.dst as usize;
                    self.warps.reg_ready[r] = done_at;
                    self.warps.reg_from_mem[r] = op.lat == LatClass::MemLd;
                }
                self.warps.stall_until[idx] = t + issue;
                self.warps.pc[idx] += 1;
            }
            DecKind::Sync => {
                self.issue_free = t + issue;
                self.busy += issue;
                self.issued += 1;
                let block = self.warps.block[idx];
                self.warps.pc[idx] += 1;
                self.barrier_arrived[block as usize] += 1;
                if self.barrier_arrived[block as usize] == setup.wpb {
                    self.barrier_arrived[block as usize] = 0;
                    let release = t + issue;
                    for wi in 0..self.warps.len() {
                        if self.warps.block[wi] != block {
                            continue;
                        }
                        self.warps.stall_until[wi] = self.warps.stall_until[wi].max(release);
                        if self.warps.blocked[wi] {
                            // Revived: replace the parked sentinel with
                            // the warp's real issue time again — unless
                            // the barrier was its last op and it has
                            // already retired.
                            self.warps.blocked[wi] = false;
                            if !self.warps.done[wi] {
                                self.warps.refresh_ready(wi, arena);
                            }
                        }
                    }
                } else {
                    self.warps.blocked[idx] = true;
                }
            }
            DecKind::LoopEnd => {
                // Loop control: add/setp/bra issue slots.
                let slots = u64::from(LOOP_OVERHEAD_INSTRS) * issue;
                self.issue_free = t + slots;
                self.busy += slots;
                self.issued += u64::from(LOOP_OVERHEAD_INSTRS);
                let len = self.warps.frame_len[idx] as usize;
                debug_assert!(len > 0, "back edge without frame");
                let slot = idx * self.warps.depth_cap + len - 1;
                debug_assert_eq!(self.warps.frames[slot].loop_id, op.loop_id);
                self.warps.frames[slot].remaining -= 1;
                if self.warps.frames[slot].remaining > 0 {
                    self.warps.pc[idx] = op.target;
                } else {
                    self.warps.frame_len[idx] -= 1;
                    self.warps.pc[idx] += 1;
                }
                self.warps.stall_until[idx] = t + slots;
            }
            DecKind::LoopStart => {
                unreachable!("fast_forward consumes loop headers")
            }
        }

        self.warps.fast_forward(idx, arena, trips);
        if self.warps.done[idx] {
            self.remaining -= 1;
            self.finish_time = self.finish_time.max(self.warps.stall_until[idx]);
        } else if self.warps.blocked[idx] {
            self.warps.ready_at[idx] = u64::MAX;
        }
    }

    /// Subtract `delta` remaining trips from every open frame of loop
    /// `loop_id`, re-basing a forked clone onto a shorter member.
    fn rebase_frames(&mut self, loop_id: u32, delta: u32) {
        for wi in 0..self.warps.len() {
            let base = wi * self.warps.depth_cap;
            for f in &mut self.warps.frames[base..base + self.warps.frame_len[wi] as usize] {
                if f.loop_id == loop_id {
                    f.remaining -= delta;
                }
            }
        }
    }

    /// Summarise a completed run.
    fn report(&self, launch: &Launch, setup: &SimSetup, spec: &MachineSpec) -> TimingReport {
        let cycles_per_wave = self.finish_time.max(self.issue_free).max(self.mem_free as u64);
        let blocks = launch.total_blocks();
        let per_wave_capacity = u64::from(spec.num_sms) * setup.bsm as u64;
        let waves = (blocks as f64 / per_wave_capacity as f64).max(1.0);
        let total_cycles = (cycles_per_wave as f64 * waves).round() as u64;
        let time_ms = total_cycles as f64 / spec.clock_hz * 1e3;
        let bandwidth_utilization = if cycles_per_wave == 0 {
            0.0
        } else {
            (self.dram_bytes as f64 / cycles_per_wave as f64) / setup.bw_per_cycle
        };
        TimingReport {
            cycles_per_wave,
            waves,
            total_cycles,
            time_ms,
            instructions_issued: self.issued,
            busy_cycles: self.busy,
            dram_bytes: self.dram_bytes,
            bandwidth_utilization,
            occupancy: setup.occ,
            steps: self.steps,
            stall_mem_cycles: self.stall_mem,
            stall_sfu_cycles: self.stall_sfu,
            stall_arith_cycles: self.stall_arith,
            stall_other_cycles: self.stall_other,
        }
    }
}

/// Why a timing simulation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimingError {
    /// The configuration cannot execute at all (the paper's "invalid
    /// executable").
    Launch(LaunchError),
    /// The programs given to [`simulate_family`] do not differ in exactly
    /// the supported way (only in top-level loop trip counts, every
    /// member at least one trip on each varying loop); simulate them
    /// individually instead.
    NotAFamily,
    /// The event loop took `fuel` scheduler steps without retiring every
    /// warp — a runaway or mis-built kernel. A family's master run may
    /// exhaust the fuel where a shorter member alone would not; callers
    /// should fall back to individual [`simulate`] runs so each member
    /// gets its own fuel accounting.
    FuelExhausted {
        /// The fuel limit that was exceeded.
        fuel: u64,
    },
    /// Every live warp is parked at a barrier that can never release.
    BarrierDeadlock,
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Launch(e) => write!(f, "launch invalid: {e}"),
            Self::NotAFamily => write!(f, "programs do not form a varying-trip-count family"),
            Self::FuelExhausted { fuel } => {
                write!(f, "simulation exceeded its fuel limit of {fuel} steps")
            }
            Self::BarrierDeadlock => write!(f, "barrier deadlock: not all warps arrived"),
        }
    }
}

impl std::error::Error for TimingError {}

impl From<LaunchError> for TimingError {
    fn from(e: LaunchError) -> Self {
        Self::Launch(e)
    }
}

/// Simulate `prog` under `launch` on `spec`, with per-thread resource
/// usage `usage` determining residency.
///
/// A **fuel watchdog** bounds the event loop to `fuel` scheduler steps
/// (unbounded when `None`), so a runaway kernel terminates instead of
/// hanging its worker. A program is a family of one: this is
/// [`simulate_family`] over a single member, through the same event
/// loop. Callers holding a [`LinearProgram`](gpu_ir::linear::LinearProgram)
/// decode it first with [`crate::decode::decode`].
///
/// # Errors
///
/// [`TimingError::Launch`] from the occupancy calculation when the
/// configuration cannot execute at all (the paper's "invalid
/// executable"); [`TimingError::FuelExhausted`] when the fuel runs dry;
/// [`TimingError::BarrierDeadlock`] when every live warp is parked at a
/// barrier that can never release.
pub fn simulate(
    prog: &DecodedProgram,
    launch: &Launch,
    usage: &ResourceUsage,
    spec: &MachineSpec,
    fuel: Option<u64>,
) -> Result<TimingReport, TimingError> {
    simulate_family(&[prog], launch, usage, spec, fuel).map(|mut reports| reports.swap_remove(0))
}

/// Simulate a *family* of programs — structurally identical kernels
/// that differ only in the trip counts of **top-level loops** (e.g. the
/// same generated kernel at different work-per-invocation splits) — for
/// the cost of roughly one simulation of the longest member.
///
/// The event loop of a `T`-trip program is event-identical to a
/// `k`-trip run (`k < T`) until the first warp finishes its `k`-th
/// iteration of that loop: up to that point every back edge takes the
/// same branch and charges the same cycles. So one *master* run (at the
/// element-wise maximum trip counts across the members) is enough; at
/// each such checkpoint the complete machine state is cloned, the open
/// frames of that loop are re-based to `k` remaining trips, and the
/// clone drains against the member's own trip counts — recursively, so
/// members differing on **several** top-level loops fork axis by axis.
/// Each returned report is bit-identical to what a standalone
/// [`simulate`] of that member produces. Members sharing one
/// [`DecodedArena`] (via [`DecodedProgram::with_arena`]) skip the
/// structural comparison. The fuel watchdog of [`simulate`] applies to
/// the master run and every fork.
///
/// # Errors
///
/// As [`simulate`], plus [`TimingError::NotAFamily`] when the programs
/// differ other than in top-level trip counts, or a varying loop has a
/// zero-trip member (callers should fall back to individual
/// [`simulate`] calls).
pub fn simulate_family(
    progs: &[&DecodedProgram],
    launch: &Launch,
    usage: &ResourceUsage,
    spec: &MachineSpec,
    fuel: Option<u64>,
) -> Result<Vec<TimingReport>, TimingError> {
    if progs.is_empty() {
        return Ok(Vec::new());
    }
    let setup = SimSetup::new(launch, usage, spec)?;
    let first = progs[0];
    for p in &progs[1..] {
        let same_shape = p.source.num_vregs == first.source.num_vregs
            && p.source.smem_words == first.source.smem_words
            && p.source.num_params == first.source.num_params;
        let same_arena = std::sync::Arc::ptr_eq(&p.arena, &first.arena) || *p.arena == *first.arena;
        if !same_shape || !same_arena {
            return Err(TimingError::NotAFamily);
        }
    }
    let mut axes: Vec<u32> = Vec::new();
    for (j, &t0) in first.loop_trips.iter().enumerate() {
        if progs[1..].iter().any(|p| p.loop_trips[j] != t0) {
            axes.push(j as u32);
        }
    }
    for &a in &axes {
        // A varying loop must be top-level (it then runs at most once
        // per warp, so "first warp completes its k-th iteration" is a
        // single well-defined checkpoint per k), and every member must
        // actually enter it for the checkpoint to exist.
        let any_zero = progs.iter().any(|p| p.loop_trips[a as usize] == 0);
        if !first.arena.loops[a as usize].top_level || any_zero {
            return Err(TimingError::NotAFamily);
        }
    }
    // The master runs at the element-wise maximum trip counts; members
    // peel off axis by axis as the leading warp passes their counts.
    // With no varying axis (a single program, or identical members) the
    // master is every member and one run serves them all.
    let mut master: Vec<u32> = first.loop_trips.clone();
    for p in &progs[1..] {
        for (m, &t) in master.iter_mut().zip(&p.loop_trips) {
            *m = (*m).max(t);
        }
    }
    let st = SimState::new(&first.arena, &master, first.num_vregs(), &setup);
    let n_axes = axes.len();
    let mut run = FamilyRun {
        arena: &first.arena,
        setup: &setup,
        spec,
        launch,
        fuel,
        member_trips: progs.iter().map(|p| p.loop_trips.as_slice()).collect(),
        axes,
        reports: vec![None; progs.len()],
    };
    run.drive(st, master, (0..progs.len()).collect(), vec![0; n_axes])?;
    Ok(run.reports.into_iter().map(|r| r.expect("every member trip count checkpointed")).collect())
}

/// Shared context of one family evaluation: everything that does not
/// change across forks.
struct FamilyRun<'a> {
    arena: &'a DecodedArena,
    setup: &'a SimSetup,
    spec: &'a MachineSpec,
    launch: &'a Launch,
    fuel: Option<u64>,
    /// Trip counts per member, indexed by loop id.
    member_trips: Vec<&'a [u32]>,
    /// Varying loop ids.
    axes: Vec<u32>,
    reports: Vec<Option<TimingReport>>,
}

impl FamilyRun<'_> {
    /// Drive `st` (running at trip counts `cur`) to completion,
    /// peeling `members` off onto forked clones whenever the leading
    /// warp completes an iteration count some of them stop at. This is
    /// the simulator's one event loop: a lone program is a family with
    /// no varying axis, whose run never forks.
    ///
    /// At a checkpoint for loop `a` at `completed` trips, no warp has
    /// exited loop `a` yet (exiting requires completing `cur[a] >
    /// completed` trips, which would have fired this checkpoint
    /// earlier), so re-basing every open frame of `a` by
    /// `cur[a] - completed` lands the clone exactly on the state a
    /// standalone run of the shorter member would be in.
    fn drive(
        &mut self,
        mut st: SimState,
        cur: Vec<u32>,
        mut members: Vec<usize>,
        mut max_completed: Vec<u32>,
    ) -> Result<(), TimingError> {
        loop {
            if members.is_empty() {
                // Every member of this branch forked off; the rest of
                // the run would report to nobody.
                return Ok(());
            }
            let (t, idx) = match st.pick() {
                Pick::Done => break,
                Pick::Deadlock => return Err(TimingError::BarrierDeadlock),
                Pick::Ready(t, idx) => (t, idx),
            };
            if self.fuel.is_some_and(|f| st.steps >= f) {
                return Err(TimingError::FuelExhausted { fuel: self.fuel.unwrap_or(u64::MAX) });
            }
            // A back edge of a varying loop: the warp is about to finish
            // iteration `cur - remaining + 1`. The first time any warp
            // reaches iteration `k` of a shorter member is exactly where
            // that member's own run would exit the loop — fork it there.
            let op = &self.arena.ops[st.warps.pc[idx] as usize];
            if op.kind == DecKind::LoopEnd {
                if let Some(axis) = self.axes.iter().position(|&a| a == op.loop_id) {
                    let lid = op.loop_id as usize;
                    let completed = cur[lid] - st.warps.top_frame(idx).remaining + 1;
                    if completed > max_completed[axis] {
                        max_completed[axis] = completed;
                        if completed < cur[lid] {
                            let sub: Vec<usize> = members
                                .iter()
                                .copied()
                                .filter(|&m| self.member_trips[m][lid] == completed)
                                .collect();
                            if !sub.is_empty() {
                                members.retain(|&m| self.member_trips[m][lid] != completed);
                                let mut clone = st.clone();
                                clone.rebase_frames(op.loop_id, cur[lid] - completed);
                                let mut sub_cur = cur.clone();
                                sub_cur[lid] = completed;
                                self.drive(clone, sub_cur, sub, max_completed.clone())?;
                            }
                        }
                    }
                }
            }
            st.step(self.arena, &cur, self.setup, self.spec, t, idx);
        }
        let rep = st.report(self.launch, self.setup, self.spec);
        for &m in &members {
            self.reports[m] = Some(rep.clone());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Kernel, Launch};

    fn g80() -> MachineSpec {
        MachineSpec::geforce_8800_gtx()
    }

    fn launch_1d(blocks: u32, threads: u32) -> Launch {
        Launch::new(Dim::new_1d(blocks), Dim::new_1d(threads))
    }

    /// A compute loop with a dependent chain: `iters` fmads on an
    /// accumulator.
    fn compute_kernel(iters: u32) -> Kernel {
        let mut b = KernelBuilder::new("compute");
        let acc = b.mov(0.0f32);
        b.repeat(iters, |b| {
            b.fmad_acc(1.5f32, 2.5f32, acc);
        });
        let p = b.param(0);
        b.st_global(p, 0, acc);
        b.finish()
    }

    /// A memory loop: one global load consumed immediately per iteration.
    fn memory_kernel(iters: u32, coalesced: bool) -> Kernel {
        let mut b = KernelBuilder::new("memory");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(iters, |b| {
            let v = if coalesced { b.ld_global(p, 0) } else { b.ld_global_uncoalesced(p, 0) };
            b.fmad_acc(v, 1.0f32, acc);
        });
        b.st_global(p, 0, acc);
        b.finish()
    }

    #[test]
    fn single_warp_dependent_chain_pays_latency() {
        let k = compute_kernel(100);
        let prog = decode(&linearize(&k));
        let usage = ResourceUsage::new(32, 8, 0);
        let r = simulate(&prog, &launch_1d(1, 32), &usage, &g80(), None).unwrap();
        // Each fmad waits ~arith_latency for the previous one: at least
        // 100 * 24 cycles.
        assert!(r.cycles_per_wave >= 2400, "cycles = {}", r.cycles_per_wave);
    }

    #[test]
    fn more_warps_hide_latency() {
        let k = compute_kernel(200);
        let prog = decode(&linearize(&k));
        // Force a single resident block via shared memory so the warp
        // counts really are 1 vs 8.
        let one =
            simulate(&prog, &launch_1d(16, 32), &ResourceUsage::new(32, 8, 12_000), &g80(), None)
                .unwrap();
        let eight =
            simulate(&prog, &launch_1d(16, 256), &ResourceUsage::new(256, 8, 12_000), &g80(), None)
                .unwrap();
        assert_eq!(one.occupancy.warps_per_sm(), 1);
        assert_eq!(eight.occupancy.warps_per_sm(), 8);
        // Eight warps interleave in the dependent-chain bubbles: the lone
        // warp leaves the port idle while its accumulator is in flight,
        // the eight-warp block saturates it.
        assert!(
            eight.issue_utilization() > 0.9 && one.issue_utilization() < 0.75,
            "eight {:.3} vs one {:.3}",
            eight.issue_utilization(),
            one.issue_utilization()
        );
        // Per unit of work (8x the warps per wave), eight is faster.
        assert!(eight.cycles_per_wave / 8 < one.cycles_per_wave);
    }

    #[test]
    fn uncoalesced_memory_is_slower() {
        let co = simulate(
            &decode(&linearize(&memory_kernel(100, true))),
            &launch_1d(16, 256),
            &ResourceUsage::new(256, 10, 0),
            &g80(),
            None,
        )
        .unwrap();
        let unco = simulate(
            &decode(&linearize(&memory_kernel(100, false))),
            &launch_1d(16, 256),
            &ResourceUsage::new(256, 10, 0),
            &g80(),
            None,
        )
        .unwrap();
        assert!(
            unco.cycles_per_wave > co.cycles_per_wave * 2,
            "uncoalesced {} vs coalesced {}",
            unco.cycles_per_wave,
            co.cycles_per_wave
        );
        assert!(unco.bandwidth_utilization > co.bandwidth_utilization);
        // Loads inflate 8x (1024 vs 128 bytes per warp access); the final
        // store stays coalesced in both, so total traffic sits just
        // under 8x.
        assert!(unco.dram_bytes > co.dram_bytes * 7);
        assert!(unco.dram_bytes < co.dram_bytes * 8);
    }

    #[test]
    fn invalid_usage_propagates_launch_error() {
        let k = compute_kernel(1);
        let prog = decode(&linearize(&k));
        let err =
            simulate(&prog, &launch_1d(1, 512), &ResourceUsage::new(512, 17, 0), &g80(), None)
                .unwrap_err();
        assert!(matches!(err, TimingError::Launch(LaunchError::RegistersExhausted { .. })));
    }

    #[test]
    fn waves_scale_with_grid() {
        let k = compute_kernel(10);
        let prog = decode(&linearize(&k));
        let usage = ResourceUsage::new(256, 10, 0);
        let small = simulate(&prog, &launch_1d(48, 256), &usage, &g80(), None).unwrap();
        let big = simulate(&prog, &launch_1d(480, 256), &usage, &g80(), None).unwrap();
        assert_eq!(small.cycles_per_wave, big.cycles_per_wave);
        assert!((big.waves / small.waves - 10.0).abs() < 1e-9);
        assert!((big.time_ms / small.time_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn barrier_with_single_resident_block_serializes() {
        // A kernel alternating compute and barriers; with one block the
        // barrier drains the pipeline, with two blocks the other block's
        // warps fill the gap — the core of the paper's occupancy story.
        fn barrier_kernel() -> Kernel {
            let mut b = KernelBuilder::new("bar");
            let p = b.param(0);
            let acc = b.mov(0.0f32);
            b.repeat(50, |b| {
                let v = b.ld_global(p, 0);
                b.fmad_acc(v, 1.0f32, acc);
                b.sync();
            });
            b.st_global(p, 0, acc);
            b.finish()
        }
        let prog = decode(&linearize(&barrier_kernel()));
        // 256 threads/block; smem chosen so either 1 or 2 blocks fit.
        let one_block = simulate(
            &prog,
            &launch_1d(32, 256),
            &ResourceUsage::new(256, 10, 12_000),
            &g80(),
            None,
        )
        .unwrap();
        let two_blocks =
            simulate(&prog, &launch_1d(32, 256), &ResourceUsage::new(256, 10, 8_000), &g80(), None)
                .unwrap();
        assert_eq!(one_block.occupancy.blocks_per_sm, 1);
        assert_eq!(two_blocks.occupancy.blocks_per_sm, 2);
        // Two resident blocks keep the port busier.
        assert!(two_blocks.issue_utilization() > one_block.issue_utilization());
        // But need twice as many waves for the same grid.
        assert!((one_block.waves - 2.0).abs() < 1e-9);
        assert!((two_blocks.waves - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sfu_ops_respect_throughput() {
        fn sfu_kernel(n: u32) -> Kernel {
            let mut b = KernelBuilder::new("sfu");
            let x = b.mov(2.0f32);
            let mut acc = x;
            for _ in 0..n {
                acc = b.rsqrt(acc);
            }
            let p = b.param(0);
            b.st_global(p, 0, acc);
            b.finish()
        }
        // Dependent rsqrt chain: sfu_latency each.
        let prog = decode(&linearize(&sfu_kernel(64)));
        let r = simulate(&prog, &launch_1d(1, 32), &ResourceUsage::new(32, 8, 0), &g80(), None)
            .unwrap();
        assert!(r.cycles_per_wave >= 64 * 36, "cycles = {}", r.cycles_per_wave);
    }

    #[test]
    fn report_invariants() {
        let k = memory_kernel(20, true);
        let prog = decode(&linearize(&k));
        let r =
            simulate(&prog, &launch_1d(16, 128), &ResourceUsage::new(128, 12, 256), &g80(), None)
                .unwrap();
        assert!(r.busy_cycles <= r.cycles_per_wave);
        assert!(r.issue_utilization() <= 1.0);
        assert!(r.bandwidth_utilization <= 1.0 + 1e-9);
        assert!(r.time_ms > 0.0);
        assert_eq!(r.total_cycles, (r.cycles_per_wave as f64 * r.waves).round() as u64);
        // Busy time and attributed stall gaps are disjoint intervals of
        // the issue port's timeline.
        assert!(r.busy_cycles + r.stall_total_cycles() <= r.cycles_per_wave);
        assert!(r.steps > 0);
    }

    #[test]
    fn stall_attribution_separates_memory_from_arithmetic() {
        let usage = ResourceUsage::new(32, 10, 0);
        // A single warp running a dependent fmad chain: every gap is an
        // arithmetic-operand wait; no loads are in flight.
        let compute = simulate(
            &decode(&linearize(&compute_kernel(100))),
            &launch_1d(1, 32),
            &usage,
            &g80(),
            None,
        )
        .unwrap();
        assert!(compute.stall_arith_cycles > 0, "dependent chain must stall on operands");
        assert_eq!(compute.stall_mem_cycles, 0, "no global loads to wait on");
        assert_eq!(compute.stall_sfu_cycles, 0);
        // A single warp consuming each global load immediately: the
        // long-latency load dominates every operand wait.
        let mem = simulate(
            &decode(&linearize(&memory_kernel(100, true))),
            &launch_1d(1, 32),
            &usage,
            &g80(),
            None,
        )
        .unwrap();
        assert!(
            mem.stall_mem_cycles > mem.stall_arith_cycles,
            "mem {} !> arith {}",
            mem.stall_mem_cycles,
            mem.stall_arith_cycles
        );
        assert!(mem.stall_mem_cycles > compute.stall_mem_cycles);
        for r in [&compute, &mem] {
            assert!(r.busy_cycles + r.stall_total_cycles() <= r.cycles_per_wave);
        }
    }

    #[test]
    fn independent_loads_overlap_latency() {
        // Two kernels with 2 loads per iteration: one consumes each load
        // immediately (dependent), one loads both then consumes
        // (independent pair). The pair version should be faster with a
        // single warp because the second load overlaps the first's
        // latency.
        fn dependent() -> Kernel {
            let mut b = KernelBuilder::new("dep");
            let p = b.param(0);
            let acc = b.mov(0.0f32);
            b.repeat(50, |b| {
                let a = b.ld_global(p, 0);
                b.fmad_acc(a, 1.0f32, acc);
                let c = b.ld_global(p, 64);
                b.fmad_acc(c, 1.0f32, acc);
            });
            b.st_global(p, 0, acc);
            b.finish()
        }
        fn paired() -> Kernel {
            let mut b = KernelBuilder::new("pair");
            let p = b.param(0);
            let acc = b.mov(0.0f32);
            b.repeat(50, |b| {
                let a = b.ld_global(p, 0);
                let c = b.ld_global(p, 64);
                b.fmad_acc(a, 1.0f32, acc);
                b.fmad_acc(c, 1.0f32, acc);
            });
            b.st_global(p, 0, acc);
            b.finish()
        }
        let usage = ResourceUsage::new(32, 10, 0);
        let dep =
            simulate(&decode(&linearize(&dependent())), &launch_1d(1, 32), &usage, &g80(), None)
                .unwrap();
        let pair =
            simulate(&decode(&linearize(&paired())), &launch_1d(1, 32), &usage, &g80(), None)
                .unwrap();
        assert!(
            pair.cycles_per_wave < dep.cycles_per_wave,
            "paired {} !< dependent {}",
            pair.cycles_per_wave,
            dep.cycles_per_wave
        );
    }
}

#[cfg(test)]
mod family_tests {
    use super::*;
    use crate::decode::decode;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::{linearize, LinearProgram};
    use gpu_ir::{Dim, Kernel, Launch};

    fn g80() -> MachineSpec {
        MachineSpec::geforce_8800_gtx()
    }

    /// A kernel exercising every event type: prologue loads, a varying
    /// top-level loop containing memory, SFU work, a nested loop, and a
    /// barrier, plus an epilogue store.
    fn member(trips: u32) -> Kernel {
        let mut b = KernelBuilder::new("fam");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        let seed = b.ld_global(p, 0);
        b.repeat(trips, |b| {
            let x = b.ld_global(p, 0);
            let r = b.rsqrt(x);
            b.repeat(3, |b| {
                b.fmad_acc(r, 1.0f32, acc);
            });
            b.sync();
        });
        b.fmad_acc(seed, 1.0f32, acc);
        b.st_global(p, 0, acc);
        b.finish()
    }

    /// A kernel with **two** top-level loops; the family driver must
    /// fork on both axes independently.
    fn member2(trips_a: u32, trips_b: u32) -> Kernel {
        let mut b = KernelBuilder::new("fam2");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(trips_a, |b| {
            let x = b.ld_global(p, 0);
            b.fmad_acc(x, 1.0f32, acc);
            b.sync();
        });
        b.repeat(trips_b, |b| {
            let r = b.rsqrt(acc);
            b.fmad_acc(r, 0.5f32, acc);
        });
        b.st_global(p, 0, acc);
        b.finish()
    }

    #[test]
    fn family_reports_match_standalone_runs() {
        let spec = g80();
        let launch = Launch::new(Dim::new_1d(64), Dim::new_1d(128));
        let usage = ResourceUsage::new(128, 10, 2_000);
        let trip_counts = [48u32, 11, 5, 1, 48];
        let kernels: Vec<Kernel> = trip_counts.iter().map(|&t| member(t)).collect();
        let progs: Vec<_> = kernels.iter().map(|k| decode(&linearize(k))).collect();
        let refs: Vec<&DecodedProgram> = progs.iter().collect();

        let family = simulate_family(&refs, &launch, &usage, &spec, None).unwrap();
        for (i, prog) in progs.iter().enumerate() {
            let standalone = simulate(prog, &launch, &usage, &spec, None).unwrap();
            assert_eq!(
                family[i], standalone,
                "family member with {} trips diverged from its standalone run",
                trip_counts[i]
            );
        }
    }

    #[test]
    fn multi_axis_family_matches_standalone_runs() {
        let spec = g80();
        let launch = Launch::new(Dim::new_1d(64), Dim::new_1d(128));
        let usage = ResourceUsage::new(128, 10, 2_000);
        // Both axes vary; no member matches the element-wise maximum
        // (9, 8), so the synthetic master reports to nobody directly.
        let combos = [(9u32, 2u32), (4, 8), (4, 2), (9, 2), (2, 5)];
        let kernels: Vec<Kernel> = combos.iter().map(|&(a, b)| member2(a, b)).collect();
        let progs: Vec<_> = kernels.iter().map(|k| decode(&linearize(k))).collect();
        let refs: Vec<&DecodedProgram> = progs.iter().collect();

        let family = simulate_family(&refs, &launch, &usage, &spec, None).unwrap();
        for (i, prog) in progs.iter().enumerate() {
            let standalone = simulate(prog, &launch, &usage, &spec, None).unwrap();
            assert_eq!(
                family[i], standalone,
                "family member {:?} diverged from its standalone run",
                combos[i]
            );
        }
    }

    #[test]
    fn identical_members_share_one_run() {
        let spec = g80();
        let launch = Launch::new(Dim::new_1d(64), Dim::new_1d(128));
        let usage = ResourceUsage::new(128, 10, 0);
        let k = member(7);
        let prog = decode(&linearize(&k));
        let family = simulate_family(&[&prog, &prog], &launch, &usage, &spec, None).unwrap();
        let standalone = simulate(&prog, &launch, &usage, &spec, None).unwrap();
        assert_eq!(family, vec![standalone.clone(), standalone]);
    }

    #[test]
    fn structurally_different_programs_are_rejected() {
        let spec = g80();
        let launch = Launch::new(Dim::new_1d(64), Dim::new_1d(128));
        let usage = ResourceUsage::new(128, 10, 0);
        let a = decode(&linearize(&member(4)));
        let mut other = KernelBuilder::new("other");
        let p = other.param(0);
        let acc = other.mov(1.0f32);
        other.repeat(4, |b| {
            b.fmad_acc(acc, 2.0f32, acc);
        });
        other.st_global(p, 0, acc);
        let b = decode(&linearize(&other.finish()));
        assert_eq!(
            simulate_family(&[&a, &b], &launch, &usage, &spec, None).unwrap_err(),
            TimingError::NotAFamily
        );
    }

    #[test]
    fn zero_trip_members_are_rejected() {
        let spec = g80();
        let launch = Launch::new(Dim::new_1d(64), Dim::new_1d(128));
        let usage = ResourceUsage::new(128, 10, 0);
        let a = decode(&linearize(&member(4)));
        let z = decode(&linearize(&member(0)));
        assert_eq!(
            simulate_family(&[&a, &z], &launch, &usage, &spec, None).unwrap_err(),
            TimingError::NotAFamily
        );
    }

    #[test]
    fn varying_nested_loops_are_rejected() {
        let spec = g80();
        let launch = Launch::new(Dim::new_1d(64), Dim::new_1d(128));
        let usage = ResourceUsage::new(128, 10, 0);
        // member() nests a 3-trip loop inside the varying loop; build a
        // sibling whose *nested* trip count differs instead.
        fn nested(trips_inner: u32) -> Kernel {
            let mut b = KernelBuilder::new("nest");
            let p = b.param(0);
            let acc = b.mov(0.0f32);
            b.repeat(4, |b| {
                b.repeat(trips_inner, |b| {
                    b.fmad_acc(1.0f32, 1.0f32, acc);
                });
            });
            b.st_global(p, 0, acc);
            b.finish()
        }
        let a = decode(&linearize(&nested(3)));
        let b = decode(&linearize(&nested(5)));
        assert_eq!(
            simulate_family(&[&a, &b], &launch, &usage, &spec, None).unwrap_err(),
            TimingError::NotAFamily
        );
    }

    #[test]
    fn launch_errors_surface_as_family_errors() {
        let spec = g80();
        let launch = Launch::new(Dim::new_1d(1), Dim::new_1d(512));
        let usage = ResourceUsage::new(512, 17, 0);
        let a = decode(&linearize(&member(4)));
        assert!(matches!(
            simulate_family(&[&a], &launch, &usage, &spec, None).unwrap_err(),
            TimingError::Launch(LaunchError::RegistersExhausted { .. })
        ));
    }

    /// The parallel evaluation engine moves these across worker threads.
    #[test]
    fn simulation_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TimingReport>();
        assert_send_sync::<LinearProgram>();
        assert_send_sync::<DecodedProgram>();
        assert_send_sync::<MachineSpec>();
        assert_send_sync::<ResourceUsage>();
        assert_send_sync::<Launch>();
        assert_send_sync::<TimingError>();
    }
}

#[cfg(test)]
mod fuel_tests {
    use super::*;
    use crate::decode::decode;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Kernel, Launch};

    fn g80() -> MachineSpec {
        MachineSpec::geforce_8800_gtx()
    }

    fn launch_1d(blocks: u32, threads: u32) -> Launch {
        Launch::new(Dim::new_1d(blocks), Dim::new_1d(threads))
    }

    /// A kernel whose event loop takes at least `iters` steps.
    fn long_kernel(iters: u32) -> Kernel {
        let mut b = KernelBuilder::new("long");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(iters, |b| {
            b.fmad_acc(1.5f32, 2.5f32, acc);
        });
        b.st_global(p, 0, acc);
        b.finish()
    }

    #[test]
    fn a_runaway_kernel_terminates_with_fuel_exhausted() {
        let prog = decode(&linearize(&long_kernel(100_000)));
        let usage = ResourceUsage::new(32, 8, 0);
        let err = simulate(&prog, &launch_1d(1, 32), &usage, &g80(), Some(1_000)).unwrap_err();
        assert_eq!(err, TimingError::FuelExhausted { fuel: 1_000 });
    }

    #[test]
    fn generous_fuel_reproduces_the_unfueled_report() {
        let prog = decode(&linearize(&long_kernel(50)));
        let usage = ResourceUsage::new(32, 8, 0);
        let unfueled = simulate(&prog, &launch_1d(4, 64), &usage, &g80(), None).unwrap();
        let fueled = simulate(&prog, &launch_1d(4, 64), &usage, &g80(), Some(1 << 30)).unwrap();
        assert_eq!(unfueled, fueled);
    }

    #[test]
    fn launch_errors_take_precedence_over_fuel() {
        let prog = decode(&linearize(&long_kernel(4)));
        let usage = ResourceUsage::new(512, 17, 0);
        let err = simulate(&prog, &launch_1d(1, 512), &usage, &g80(), Some(10)).unwrap_err();
        assert!(matches!(err, TimingError::Launch(LaunchError::RegistersExhausted { .. })));
    }

    #[test]
    fn family_runs_respect_fuel_and_match_standalone_when_generous() {
        let spec = g80();
        let launch = launch_1d(16, 128);
        let usage = ResourceUsage::new(128, 10, 0);
        let kernels: Vec<Kernel> = [12u32, 5, 3].iter().map(|&t| long_kernel(t)).collect();
        let progs: Vec<_> = kernels.iter().map(|k| decode(&linearize(k))).collect();
        let refs: Vec<&DecodedProgram> = progs.iter().collect();

        // Generous fuel: bit-identical to the unfueled family run.
        let generous = simulate_family(&refs, &launch, &usage, &spec, Some(1 << 30));
        assert_eq!(
            generous.unwrap(),
            simulate_family(&refs, &launch, &usage, &spec, None).unwrap()
        );

        // Starved fuel: the family run reports exhaustion rather than
        // silently truncating.
        let starved = simulate_family(&refs, &launch, &usage, &spec, Some(10));
        assert_eq!(starved.unwrap_err(), TimingError::FuelExhausted { fuel: 10 });
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use crate::decode::decode;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Launch};

    /// A shared-memory-heavy loop with a configurable conflict degree.
    fn conflicted(ways: u8) -> gpu_ir::Kernel {
        let mut b = KernelBuilder::new("bank");
        b.alloc_shared(64 * 4);
        let out = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(100, |b| {
            let dst = b.fresh();
            b.push_instr(
                gpu_ir::Instr::new(
                    gpu_ir::Op::Ld(gpu_arch::MemorySpace::Shared),
                    Some(dst),
                    vec![0i32.into()],
                )
                .with_replays(ways),
            );
            b.fmad_acc(dst, 1.0f32, acc);
        });
        b.st_global(out, 0, acc);
        b.finish()
    }

    #[test]
    fn bank_conflicts_serialize_issue() {
        let spec = MachineSpec::geforce_8800_gtx();
        let launch = Launch::new(Dim::new_1d(16), Dim::new_1d(256));
        let usage = ResourceUsage::new(256, 8, 256);
        let clean =
            simulate(&decode(&linearize(&conflicted(1))), &launch, &usage, &spec, None).unwrap();
        let eight =
            simulate(&decode(&linearize(&conflicted(8))), &launch, &usage, &spec, None).unwrap();
        let sixteen =
            simulate(&decode(&linearize(&conflicted(16))), &launch, &usage, &spec, None).unwrap();
        assert!(eight.cycles_per_wave > clean.cycles_per_wave);
        assert!(sixteen.cycles_per_wave > eight.cycles_per_wave);
        // The replays occupy the issue port: busy cycles grow too.
        assert!(sixteen.busy_cycles > clean.busy_cycles * 3);
    }

    #[test]
    fn replays_do_not_change_functional_results() {
        use crate::interp::{run_kernel, DeviceMemory};
        let launch = Launch::new(Dim::new_1d(1), Dim::new_1d(1));
        let run = |k: &gpu_ir::Kernel| {
            let mut mem = DeviceMemory::new(1);
            run_kernel(&linearize(k), &launch, &[0], &mut mem).unwrap();
            mem.global[0]
        };
        assert_eq!(run(&conflicted(1)), run(&conflicted(16)));
    }
}

#[cfg(test)]
mod legacy_parity_tests {
    //! Spot checks that the decoded engine and the [`crate::legacy`]
    //! reference produce bit-identical reports. The exhaustive
    //! randomized comparison lives in the workspace-level
    //! `decoded_parity` differential suite.

    use super::*;
    use crate::decode::decode;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::{linearize, LinearProgram};
    use gpu_ir::{Dim, Launch};

    fn mixed(trips: u32) -> LinearProgram {
        let mut b = KernelBuilder::new("mix");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        let seed = b.ld_global(p, 0);
        b.repeat(trips, |b| {
            let x = b.ld_global(p, 4);
            let r = b.rsqrt(x);
            b.repeat(2, |b| {
                b.fmad_acc(r, 1.0f32, acc);
            });
            b.sync();
        });
        b.fmad_acc(seed, 1.0f32, acc);
        b.st_global(p, 0, acc);
        linearize(&b.finish())
    }

    #[test]
    fn decoded_report_equals_legacy_report() {
        let spec = MachineSpec::geforce_8800_gtx();
        let launch = Launch::new(Dim::new_1d(64), Dim::new_1d(128));
        let usage = ResourceUsage::new(128, 10, 2_000);
        let prog = mixed(17);
        let new = simulate(&decode(&prog), &launch, &usage, &spec, None).unwrap();
        let old = crate::legacy::timing::simulate(&prog, &launch, &usage, &spec).unwrap();
        assert_eq!(new, old);
    }

    #[test]
    fn decoded_family_equals_legacy_family_on_single_axis() {
        let spec = MachineSpec::geforce_8800_gtx();
        let launch = Launch::new(Dim::new_1d(64), Dim::new_1d(128));
        let usage = ResourceUsage::new(128, 10, 2_000);
        let progs: Vec<LinearProgram> = [13u32, 4, 1].iter().map(|&t| mixed(t)).collect();
        let refs: Vec<&LinearProgram> = progs.iter().collect();
        let decoded: Vec<DecodedProgram> = progs.iter().map(decode).collect();
        let decoded_refs: Vec<&DecodedProgram> = decoded.iter().collect();
        let new = simulate_family(&decoded_refs, &launch, &usage, &spec, None).unwrap();
        let old =
            crate::legacy::timing::simulate_family_fueled(&refs, &launch, &usage, &spec, None)
                .unwrap();
        assert_eq!(new, old);
    }

    #[test]
    fn decoded_fuel_accounting_equals_legacy() {
        let spec = MachineSpec::geforce_8800_gtx();
        let launch = Launch::new(Dim::new_1d(4), Dim::new_1d(64));
        let usage = ResourceUsage::new(64, 10, 0);
        let prog = mixed(40);
        let new = simulate(&decode(&prog), &launch, &usage, &spec, Some(500)).unwrap_err();
        let old = crate::legacy::timing::simulate_fueled(&prog, &launch, &usage, &spec, Some(500))
            .unwrap_err();
        assert_eq!(new, old);
        assert_eq!(new, TimingError::FuelExhausted { fuel: 500 });
    }
}
