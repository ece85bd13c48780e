//! Pressure-aware list scheduling — the paper's first future-work item:
//! "we would like to achieve better control of scheduling and thus
//! register usage, so that the performance of applications after small
//! code changes does not radically change".
//!
//! [`schedule_for_pressure`] reorders the instructions of each
//! straight-line region (no reordering across barriers or loop
//! boundaries) to shorten live ranges: a Sethi–Ullman-flavoured
//! demand-first schedule that walks the dependence DAG from each sink,
//! materialising short-lived operands immediately before their
//! consumers. Memory operations keep their relative order (the IR
//! carries no alias information), so functional behaviour is untouched
//! — property-tested against the interpreter — and the pass keeps the
//! original order whenever the reordering would not lower max-live.

use std::collections::HashMap;

use gpu_ir::types::VReg;
use gpu_ir::{Instr, Kernel, Stmt};

/// Outcome of scheduling one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScheduleReport {
    /// Straight-line regions processed.
    pub regions: u32,
    /// Instructions that changed position.
    pub moved: u32,
}

/// Dependence edges within one straight-line region.
fn build_deps(instrs: &[Instr]) -> Vec<Vec<usize>> {
    let mut last_def: HashMap<VReg, usize> = HashMap::new();
    let mut last_uses: HashMap<VReg, Vec<usize>> = HashMap::new();
    let mut last_mem: Option<usize> = None;
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); instrs.len()];

    for (i, ins) in instrs.iter().enumerate() {
        let mut pred = Vec::new();
        // RAW: reads wait for the defining instruction.
        for r in ins.uses() {
            if let Some(&d) = last_def.get(&r) {
                pred.push(d);
            }
        }
        if let Some(d) = ins.dst {
            // WAR: a write waits for earlier reads of the register.
            if let Some(users) = last_uses.get(&d) {
                pred.extend(users.iter().copied());
            }
            // WAW: and for the earlier write.
            if let Some(&w) = last_def.get(&d) {
                pred.push(w);
            }
        }
        // Memory operations stay in order (no alias analysis).
        if ins.op.mem_space().is_some() {
            if let Some(m) = last_mem {
                pred.push(m);
            }
            last_mem = Some(i);
        }
        pred.sort_unstable();
        pred.dedup();
        deps[i] = pred;

        for r in ins.uses() {
            last_uses.entry(r).or_default().push(i);
        }
        if let Some(d) = ins.dst {
            last_def.insert(d, i);
            last_uses.remove(&d);
        }
    }
    deps
}

/// Schedule one straight-line region demand-first (Sethi–Ullman
/// flavoured): walk the dependence DAG depth-first from each sink in
/// original order, emitting an instruction right after the producers it
/// needs — so short-lived operands materialise immediately before their
/// consumer instead of piling up.
fn schedule_region(instrs: Vec<Instr>) -> (Vec<Instr>, u32) {
    let n = instrs.len();
    if n < 3 {
        return (instrs, 0);
    }
    let mut deps = build_deps(&instrs);
    let mut has_succ = vec![false; n];
    for pred in deps.iter() {
        for &p in pred {
            has_succ[p] = true;
        }
    }

    // Sethi–Ullman ordering: visit the *deeper* operand subtree first so
    // shallow, short-lived operands materialise right before their
    // consumer. Dependences always point backwards, so depths compute in
    // index order.
    let mut depth = vec![0u32; n];
    for i in 0..n {
        depth[i] = deps[i].iter().map(|&p| depth[p] + 1).max().unwrap_or(0);
    }
    for pred in deps.iter_mut() {
        // Equal depths (e.g. a load serialised behind the memory chain
        // vs the compute chain consuming it): visit the later
        // instruction's subtree first so the earlier, shallow producer
        // lands right before its consumer.
        pred.sort_by_key(|&p| (std::cmp::Reverse(depth[p]), std::cmp::Reverse(p)));
    }

    let mut emitted = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    // Iterative post-order DFS over predecessors.
    let visit = |root: usize, emitted: &mut Vec<bool>, order: &mut Vec<usize>| {
        if emitted[root] {
            return;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if emitted[node] {
                stack.pop();
                continue;
            }
            if *next < deps[node].len() {
                let p = deps[node][*next];
                *next += 1;
                if !emitted[p] {
                    stack.push((p, 0));
                }
            } else {
                emitted[node] = true;
                order.push(node);
                stack.pop();
            }
        }
    };
    // Sinks first (in original order), then anything unreachable from a
    // sink (dead code) in original order.
    for (i, _) in has_succ.iter().enumerate().filter(|(_, &hs)| !hs) {
        visit(i, &mut emitted, &mut order);
    }
    for i in 0..n {
        visit(i, &mut emitted, &mut order);
    }
    debug_assert_eq!(order.len(), n);

    let moved = order.iter().enumerate().filter(|&(pos, &orig)| pos != orig).count() as u32;
    let out = order.into_iter().map(|i| instrs[i]).collect();
    (out, moved)
}

fn walk(stmts: Vec<Stmt>, report: &mut ScheduleReport) -> Vec<Stmt> {
    // Split into runs of Stmt::Op separated by Sync/Loop; schedule each
    // run independently (values defined in a run and consumed later are
    // sinks' predecessors or dead-at-region-end and stay scheduled —
    // dependence edges keep them before nothing, so they simply retain
    // relative order among themselves).
    let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
    let mut run: Vec<Instr> = Vec::new();
    let flush = |run: &mut Vec<Instr>, out: &mut Vec<Stmt>, report: &mut ScheduleReport| {
        if !run.is_empty() {
            report.regions += 1;
            let (sched, moved) = schedule_region(std::mem::take(run));
            report.moved += moved;
            out.extend(sched.into_iter().map(Stmt::Op));
        }
    };

    for s in stmts {
        match s {
            Stmt::Op(i) => run.push(i),
            Stmt::Sync => {
                flush(&mut run, &mut out, report);
                out.push(Stmt::Sync);
            }
            Stmt::Loop(mut l) => {
                flush(&mut run, &mut out, report);
                l.body = walk(std::mem::take(&mut l.body), report);
                out.push(Stmt::Loop(l));
            }
        }
    }
    flush(&mut run, &mut out, report);
    out
}

/// Reschedule every straight-line region of `kernel` to reduce register
/// pressure, keeping the original schedule whenever the reordering does
/// not actually lower the max-live figure — so the pass never makes a
/// kernel worse (the predictability the paper's future work asks for).
///
/// Functional behaviour is preserved: dependences and memory order are
/// respected within regions, and nothing moves across barriers or loop
/// boundaries.
pub fn schedule_for_pressure(kernel: &mut Kernel) -> ScheduleReport {
    let before = crate::schedule_support::pressure_of(kernel);
    let original = kernel.body.clone();
    let mut report = ScheduleReport::default();
    kernel.body = walk(std::mem::take(&mut kernel.body), &mut report);
    let after = crate::schedule_support::pressure_of(kernel);
    if after >= before {
        kernel.body = original;
        report.moved = 0;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_ir::analysis::register_pressure;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Launch};
    use gpu_sim::interp::{run_kernel, DeviceMemory};

    /// All values produced up front, consumed at the end — the worst
    /// case for pressure, fully repairable by scheduling.
    fn batched_kernel(n: usize) -> Kernel {
        let mut b = KernelBuilder::new("batched");
        let out = b.param(0);
        let vals: Vec<_> = (0..n).map(|i| b.mov(i as f32 + 1.0)).collect();
        let mut acc = b.mov(0.0f32);
        for v in vals {
            acc = b.fadd(acc, v);
        }
        b.st_global(out, 0, acc);
        b.finish()
    }

    fn run_scalar(k: &Kernel) -> f32 {
        let prog = linearize(k);
        let mut mem = DeviceMemory::new(1);
        run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem)
            .expect("runs");
        mem.global[0]
    }

    #[test]
    fn scheduling_reduces_pressure_on_batched_defs() {
        let k0 = batched_kernel(12);
        let before = register_pressure(&k0);
        let baseline = run_scalar(&k0);

        let mut k = k0.clone();
        let report = schedule_for_pressure(&mut k);
        let after = register_pressure(&k);
        assert!(report.moved > 0);
        assert!(
            after.max_live < before.max_live,
            "scheduled {} !< original {}",
            after.max_live,
            before.max_live
        );
        assert_eq!(run_scalar(&k), baseline);
    }

    #[test]
    fn memory_order_is_preserved() {
        // st a; ld a; st a — any reorder changes the result.
        let mut b = KernelBuilder::new("mem");
        let out = b.param(0);
        b.st_global(out, 0, 1.0f32);
        let x = b.ld_global(out, 0);
        let y = b.fadd(x, 1.0f32);
        b.st_global(out, 0, y);
        let z = b.ld_global(out, 0);
        b.st_global(out, 1, z);
        let k0 = b.finish();
        let baseline = {
            let prog = linearize(&k0);
            let mut mem = DeviceMemory::new(2);
            run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem)
                .expect("runs");
            mem.global.clone()
        };
        let mut k = k0.clone();
        schedule_for_pressure(&mut k);
        let prog = linearize(&k);
        let mut mem = DeviceMemory::new(2);
        run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem)
            .expect("runs");
        assert_eq!(mem.global, baseline);
        assert_eq!(mem.global[1], 2.0);
    }

    #[test]
    fn loop_bodies_schedule_independently() {
        let mut b = KernelBuilder::new("loopy");
        let out = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(4, |b| {
            let xs: Vec<_> = (0..6).map(|i| b.mov(i as f32)).collect();
            for x in xs {
                b.fmad_acc(x, 1.0f32, acc);
            }
        });
        b.st_global(out, 0, acc);
        let k0 = b.finish();
        let baseline = run_scalar(&k0);
        let mut k = k0.clone();
        let r = schedule_for_pressure(&mut k);
        assert!(r.regions >= 2); // prologue+epilogue region and loop body
        assert_eq!(run_scalar(&k), baseline);
    }

    #[test]
    fn values_live_past_a_barrier_are_respected() {
        let mut b = KernelBuilder::new("barrier");
        let out = b.param(0);
        b.alloc_shared(4);
        let keep = b.mov(7.0f32); // used after the sync
        let tmp = b.mov(1.0f32);
        b.st_shared(0i32, 0, tmp);
        b.sync();
        let s = b.ld_shared(0i32, 0);
        let sum = b.fadd(s, keep);
        b.st_global(out, 0, sum);
        let k0 = b.finish();
        let mut k = k0.clone();
        schedule_for_pressure(&mut k);
        // 32 threads so the barrier is a real join.
        let prog = linearize(&k);
        let mut mem = DeviceMemory::new(1);
        run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(32)), &[0], &mut mem)
            .expect("runs");
        assert_eq!(mem.global[0], 8.0);
    }

    #[test]
    fn tiny_regions_untouched() {
        let mut b = KernelBuilder::new("tiny");
        let out = b.param(0);
        b.st_global(out, 0, 1.0f32);
        let k0 = b.finish();
        let mut k = k0.clone();
        let r = schedule_for_pressure(&mut k);
        assert_eq!(r.moved, 0);
        assert_eq!(k, k0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Launch};
    use gpu_sim::interp::{run_kernel, DeviceMemory};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Scheduling never raises pressure and never changes results on
        /// randomized mixed compute/memory kernels.
        #[test]
        fn schedule_safe_and_never_worse(
            widths in proptest::collection::vec(1usize..6, 1..5),
            trips in 1u32..6,
            seed in 0u64..1000,
        ) {
            let mut b = KernelBuilder::new("rand");
            let out = b.param(0);
            let acc = b.mov(0.0f32);
            let mut salt = seed;
            b.repeat(trips, |b| {
                for &w in &widths {
                    let vals: Vec<_> = (0..w)
                        .map(|i| {
                            salt = salt.wrapping_mul(6364136223846793005).wrapping_add(1);
                            b.mov((salt % 13) as f32 + i as f32)
                        })
                        .collect();
                    for v in vals {
                        b.fmad_acc(v, 0.5f32, acc);
                    }
                    b.st_global(out, 1, acc);
                }
            });
            b.st_global(out, 0, acc);
            let k0 = b.finish();

            let run = |k: &gpu_ir::Kernel| {
                let prog = linearize(k);
                let mut mem = DeviceMemory::new(2);
                run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0], &mut mem)
                    .expect("runs");
                mem.global.clone()
            };
            let baseline = run(&k0);
            let p0 = gpu_ir::analysis::register_pressure(&k0);

            let mut k = k0.clone();
            schedule_for_pressure(&mut k);
            prop_assert_eq!(run(&k), baseline);
            let p1 = gpu_ir::analysis::register_pressure(&k);
            prop_assert!(p1.max_live <= p0.max_live,
                "scheduling raised pressure {} -> {}", p0.max_live, p1.max_live);
        }
    }
}
