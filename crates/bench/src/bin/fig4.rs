//! Figure 4: the SAD optimization space — execution time versus threads
//! per block, one line per setting of the remaining parameters.
//!
//! Paper shape to check: a large, ragged space (hundreds of
//! configurations) whose response to block size is non-monotonic and
//! parameter-dependent.

use gpu_arch::MachineSpec;
use gpu_kernels::sad::Sad;
use optspace::tuner::{ExhaustiveSearch, SearchStrategy};
use std::collections::BTreeMap;

/// One Figure 4 line: the fixed (mb, pos, row, col) unroll settings.
type LineKey = (u32, u32, u32, u32);

fn main() {
    optspace::cli::no_flags();
    let spec = MachineSpec::geforce_8800_gtx();
    let sad = Sad::paper_problem();
    let cfgs = sad.configs();
    let cands: Vec<_> = cfgs.iter().map(|c| sad.candidate(c)).collect();
    let r = ExhaustiveSearch.run(&cands, &spec);

    // Group into lines keyed by (mb, pos_u, row_u, col_u).
    let mut lines: BTreeMap<LineKey, Vec<(u32, f64)>> = BTreeMap::new();
    for (i, cfg) in cfgs.iter().enumerate() {
        if let Some(t) = &r.simulated[i] {
            lines
                .entry((cfg.mb_tiling, cfg.pos_unroll, cfg.row_unroll, cfg.col_unroll))
                .or_default()
                .push((cfg.tpb, t.time_ms));
        }
    }
    println!("valid configurations: {} of {}", r.evaluated_count(), cfgs.len());
    println!("lines (mb/pos/row/col): {}", lines.len());
    println!();
    print!("{:18}", "mb/p/r/c \\ tpb");
    for tpb in (1..=12).map(|k| k * 32) {
        print!("{tpb:>8}");
    }
    println!();
    for ((mb, p, rw, cl), mut pts) in lines {
        pts.sort_unstable_by_key(|&(tpb, _)| tpb);
        print!("{:18}", format!("{mb}/{p}/{rw}/{cl}"));
        let mut col = 0;
        for (tpb, ms) in pts {
            let want = tpb / 32;
            while col + 1 < want {
                print!("{:>8}", "-");
                col += 1;
            }
            print!("{ms:>8.2}");
            col += 1;
        }
        while col < 12 {
            print!("{:>8}", "-");
            col += 1;
        }
        println!();
    }
    if let Some(best) = r.best {
        println!(
            "\noptimal configuration: {} ({:.2} ms)",
            cands[best].label,
            r.best_time_ms().unwrap()
        );
    }
}
