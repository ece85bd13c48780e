//! The section 5.3 anecdote: "a preliminary version of the MRI-FHD
//! kernel had steadily decreasing performance as the tiling factor
//! increased, although efficiency and utilization metrics remained
//! constant ... the layout of the data in the caches was causing
//! frequent misses. Changing the data layout yielded a kernel that is
//! insensitive to changes in the tiling factor and 17% faster than the
//! previous best configuration."
//!
//! We rebuild both layouts of a tiled constant-table kernel: in the bad
//! layout each thread of a warp reads a *different* constant address
//! (the single-ported cache serializes, Table 1) with the divergence
//! growing with the tiling factor; in the good layout every thread
//! reads the same address (broadcast). The metrics cannot tell the
//! layouts apart — exactly the blind spot the paper describes — while
//! the simulated clock can.

use gpu_arch::{MachineSpec, MemorySpace};
use gpu_ir::build::KernelBuilder;
use gpu_ir::types::Special;
use gpu_ir::{Dim, Instr, Kernel, Launch, Op};
use optspace::candidate::Candidate;
use optspace::report::table;
use optspace::tuner::{ExhaustiveSearch, SearchStrategy};

const SAMPLES: u32 = 512;

/// A tiled kernel accumulating over a constant table; `divergent`
/// controls whether warp lanes read scattered addresses.
fn kernel(tiling: u32, divergent: bool) -> Kernel {
    let mut b = KernelBuilder::new(format!("layout_t{tiling}_{divergent}"));
    let out = b.param(0);
    let tx = b.read_special(Special::TidX);
    let bx = b.read_special(Special::CtaIdX);
    let ntid = b.read_special(Special::NTidX);
    let t = b.imad(bx, ntid, tx);
    let accs: Vec<_> = (0..tiling).map(|_| b.mov(0.0f32)).collect();
    let cp = b.mov(0i32);
    // The bad layout interleaves the per-tile fields so lanes diverge
    // across the cache line; divergence grows with the tile.
    let ways = if divergent { (tiling * 2).min(16) as u8 } else { 1 };
    b.repeat(SAMPLES / tiling, |b| {
        for &acc in &accs {
            let dst = b.fresh();
            b.push_instr(
                Instr::new(Op::Ld(MemorySpace::Constant), Some(dst), vec![cp.into()])
                    .with_replays(ways),
            );
            b.fmad_acc(dst, 1.0f32, acc);
            b.iadd_acc(cp, 1i32);
        }
    });
    let base = b.iadd(out, t);
    for (r, &acc) in accs.iter().enumerate() {
        b.st_global(base, r as i32, acc);
    }
    b.finish()
}

fn main() {
    optspace::cli::no_flags();
    let spec = MachineSpec::geforce_8800_gtx();
    let tilings = [1u32, 2, 4, 8];
    let mut rows = vec![vec![
        "tiling".to_string(),
        "bad layout (ms)".to_string(),
        "good layout (ms)".to_string(),
        "Efficiency (bad)".to_string(),
        "Efficiency (good)".to_string(),
    ]];
    for &t in &tilings {
        let launch = Launch::new(Dim::new_1d(64), Dim::new_1d(128));
        let bad = Candidate::new(format!("bad/t{t}"), kernel(t, true), launch);
        let good = Candidate::new(format!("good/t{t}"), kernel(t, false), launch);
        let r = ExhaustiveSearch.run(&[bad, good], &spec);
        let eb = r.statics[0].as_ref().expect("valid");
        let eg = r.statics[1].as_ref().expect("valid");
        rows.push(vec![
            t.to_string(),
            format!("{:.3}", r.simulated[0].as_ref().expect("timed").time_ms),
            format!("{:.3}", r.simulated[1].as_ref().expect("timed").time_ms),
            format!("{:.3e}", eb.metrics.efficiency),
            format!("{:.3e}", eg.metrics.efficiency),
        ]);
    }
    println!("{}", table(&rows));
    println!(
        "the metrics are identical per row — \"factors that are not usually first-order\n\
         performance determinants\" (§5.3) — while the simulated clock exposes the\n\
         cache-conflicted layout, which degrades as the tiling factor grows."
    );
}
