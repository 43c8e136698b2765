//! **Figure 10** — 1-index quality over mixed edge insertions and
//! deletions on XMark(c) for cyclicity c ∈ {1, 0.5, 0.2, 0}.
//!
//! The paper's result: split/merge stays essentially at zero (< 0.5 %) on
//! every cyclicity; propagate grows roughly linearly, and the growth rate
//! increases as cyclicity decreases (more regular graph ⇒ smaller minimum
//! index ⇒ more merge opportunities missed).
//!
//! Usage: `fig10_xmark_quality [--scale 1.0] [--pairs 5000]
//!         [--sample-every 200] [--seed 42] [--out fig10.csv]`

#![forbid(unsafe_code)]

use xsi_bench::{run_mixed_updates_1index, Algo1, Args, Table};
use xsi_workload::{generate_xmark, EdgePool, XmarkParams};

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 1.0);
    let pairs = args.usize("pairs", 5000);
    let sample_every = args.usize("sample-every", (pairs / 25).max(1));
    let seed = args.u64("seed", 42);
    let out = args.str("out");
    args.finish();

    let mut t = Table::new(
        "Figure 10: 1-index quality over mixed updates, XMark(c)",
        &[
            "dataset",
            "algorithm",
            "updates",
            "index",
            "minimum",
            "quality",
        ],
    );
    for c in [1.0, 0.5, 0.2, 0.0] {
        for (name, algo) in [
            ("split/merge", Algo1::SplitMerge),
            ("propagate", Algo1::Propagate),
        ] {
            let mut g = generate_xmark(&XmarkParams::new(scale, c, seed));
            let mut pool = EdgePool::extract(&mut g, 0.2, seed);
            let s = run_mixed_updates_1index(&mut g, &mut pool, pairs, sample_every, algo);
            for q in &s.samples {
                t.row(&[
                    format!("XMark({c})"),
                    name.to_string(),
                    q.updates.to_string(),
                    q.index_size.to_string(),
                    q.minimum_size.to_string(),
                    format!("{:.4}", q.quality),
                ]);
            }
            eprintln!(
                "XMark({c}) {name}: final quality {:.4}",
                s.samples.last().map(|q| q.quality).unwrap_or(0.0)
            );
        }
    }
    t.print();
    if let Some(out) = out {
        xsi_bench::write_csv(&t, std::path::Path::new(out)).expect("write csv");
    }
}
