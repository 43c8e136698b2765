//! **Table 1** — average number of updates between two consecutive
//! reconstructions for the simple A(k) algorithm (5 % growth trigger)
//! over 2000 mixed updates, on XMark and IMDB, k = 2..5.
//!
//! The paper's numbers: XMark 18.6 / 25.8 / 46.6 / 85.2 and IMDB 32.2 /
//! 69 / 126.4 / 142.2 for k = 2..5 — reconstructions become rarer as k
//! grows because the minimum index itself is larger and fragments
//! relatively less.
//!
//! Usage: `table1_ak_reconstruction [--scale 1.0] [--pairs 1000]
//!         [--seed 42] [--out table1.csv]`

#![forbid(unsafe_code)]

use xsi_bench::{run_mixed_updates_ak, AlgoAk, Args, Table};
use xsi_workload::{generate_imdb, generate_xmark, EdgePool, ImdbParams, XmarkParams};

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 1.0);
    let pairs = args.usize("pairs", 1000); // 2000 updates, like the paper
    let seed = args.u64("seed", 42);
    let out = args.str("out");
    args.finish();

    let mut t = Table::new(
        "Table 1: avg updates between reconstructions (simple algorithm)",
        &["dataset", "A(2)", "A(3)", "A(4)", "A(5)"],
    );
    for dataset in ["XMark", "IMDB"] {
        let mut cells = vec![dataset.to_string()];
        for k in 2..=5 {
            let mut g = match dataset {
                "XMark" => generate_xmark(&XmarkParams::new(scale, 1.0, seed)),
                _ => generate_imdb(&ImdbParams::new(scale, seed)),
            };
            let mut pool = EdgePool::extract(&mut g, 0.2, seed);
            let s = run_mixed_updates_ak(
                &mut g,
                k,
                &mut pool,
                pairs,
                pairs + 1,
                AlgoAk::SimpleWithRebuild,
            );
            let avg = if s.rebuild_count == 0 {
                f64::INFINITY
            } else {
                s.updates as f64 / s.rebuild_count as f64
            };
            cells.push(if avg.is_finite() {
                format!("{avg:.1}")
            } else {
                "∞".to_string()
            });
            eprintln!(
                "{dataset} k={k}: {} rebuilds over {} updates",
                s.rebuild_count, s.updates
            );
        }
        t.row(&cells);
    }
    t.print();
    if let Some(out) = out {
        xsi_bench::write_csv(&t, std::path::Path::new(out)).expect("write csv");
    }
}
