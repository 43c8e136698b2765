//! **Table 2** — average per-update running times of the A(k) update
//! algorithms over 2000 mixed updates (XMark and IMDB, k = 2..5).
//!
//! The paper's result: split/merge is barely affected by k (31→44 ms on
//! XMark in their Java setup) while simple+reconstruction grows steeply
//! (42→675 ms); split/merge wins everywhere. Absolute numbers differ on
//! this substrate — the *shape* (flat vs steeply growing, split/merge
//! always faster) is the reproduction target.
//!
//! Usage: `table2_ak_times [--scale 1.0] [--pairs 1000] [--seed 42]
//!         [--out table2.csv]`

#![forbid(unsafe_code)]

use xsi_bench::{run_mixed_updates_ak, AlgoAk, Args, Table};
use xsi_workload::{generate_imdb, generate_xmark, EdgePool, ImdbParams, XmarkParams};

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 1.0);
    let pairs = args.usize("pairs", 1000);
    let seed = args.u64("seed", 42);
    let out = args.str("out");
    args.finish();

    let mut t = Table::new(
        "Table 2: avg per-update time (µs) of A(k) algorithms",
        &["algorithm (dataset)", "k=2", "k=3", "k=4", "k=5"],
    );
    for dataset in ["XMark", "IMDB"] {
        for (name, algo) in [
            ("split/merge", AlgoAk::SplitMerge),
            ("simple+reconstruction", AlgoAk::SimpleWithRebuild),
        ] {
            let mut cells = vec![format!("{name} ({dataset})")];
            for k in 2..=5 {
                let mut g = match dataset {
                    "XMark" => generate_xmark(&XmarkParams::new(scale, 1.0, seed)),
                    _ => generate_imdb(&ImdbParams::new(scale, seed)),
                };
                let mut pool = EdgePool::extract(&mut g, 0.2, seed);
                let s = run_mixed_updates_ak(&mut g, k, &mut pool, pairs, pairs + 1, algo);
                cells.push(format!(
                    "{:.1}",
                    s.avg_update_with_rebuild().as_secs_f64() * 1e6
                ));
                eprintln!("{dataset} {name} k={k} done");
            }
            t.row(&cells);
        }
    }
    t.print();
    if let Some(out) = out {
        xsi_bench::write_csv(&t, std::path::Path::new(out)).expect("write csv");
    }
}
