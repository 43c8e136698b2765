//! **Figure 13** — A(k)-index quality of the *simple* update algorithm
//! (no reconstructions) over mixed edge insertions and deletions on
//! XMark, for k = 2..5.
//!
//! The paper's result: the simple algorithm blows the index up rapidly,
//! worst for small k (a coarse index fragments relative to a small
//! minimum). The split/merge algorithm holds quality at exactly 0
//! (Theorem 2) and is included as the reference series.
//!
//! Usage: `fig13_ak_simple_quality [--scale 1.0] [--pairs 1000]
//!         [--sample-every 50] [--seed 42] [--out fig13.csv]`

#![forbid(unsafe_code)]

use xsi_bench::{run_mixed_updates_ak, AlgoAk, Args, Table};
use xsi_workload::{generate_xmark, EdgePool, XmarkParams};

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 1.0);
    let pairs = args.usize("pairs", 1000);
    let sample_every = args.usize("sample-every", (pairs / 20).max(1));
    let seed = args.u64("seed", 42);
    let out = args.str("out");
    args.finish();

    let mut t = Table::new(
        "Figure 13: A(k)-index quality of the simple algorithm, XMark",
        &["k", "algorithm", "updates", "index", "minimum", "quality"],
    );
    for k in 2..=5 {
        for (name, algo) in [
            ("simple", AlgoAk::Simple),
            ("split/merge", AlgoAk::SplitMerge),
        ] {
            let mut g = generate_xmark(&XmarkParams::new(scale, 1.0, seed));
            let mut pool = EdgePool::extract(&mut g, 0.2, seed);
            let s = run_mixed_updates_ak(&mut g, k, &mut pool, pairs, sample_every, algo);
            for q in &s.samples {
                t.row(&[
                    k.to_string(),
                    name.to_string(),
                    q.updates.to_string(),
                    q.index_size.to_string(),
                    q.minimum_size.to_string(),
                    format!("{:.4}", q.quality),
                ]);
            }
            eprintln!(
                "k={k} {name}: final quality {:.4}",
                s.samples.last().map(|q| q.quality).unwrap_or(0.0)
            );
        }
    }
    t.print();
    if let Some(out) = out {
        xsi_bench::write_csv(&t, std::path::Path::new(out)).expect("write csv");
    }
}
