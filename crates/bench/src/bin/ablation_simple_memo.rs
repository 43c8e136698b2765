//! **Ablation** — signature memoization in the *simple* A(k) baseline.
//!
//! The paper observes that the simple algorithm's recomputation of
//! k-bisimilarity "by definition" from the data graph is **exponential in
//! k** (every ancestor path up to depth k is explored). Our Table 1/2
//! runs memoize signatures per update to keep wall-clock sane; this
//! ablation measures both variants side by side, reproducing the paper's
//! original cost curve and quantifying what the memo hides.
//!
//! Results are identical either way (asserted); only time differs.
//!
//! Usage: `ablation_simple_memo [--scale 0.1] [--pairs 100] [--seed 42]
//!         [--out ablation_memo.csv]`

#![forbid(unsafe_code)]

use std::time::Instant;
use xsi_bench::{Args, Table};
use xsi_core::SimpleAkIndex;
use xsi_graph::EdgeKind;
use xsi_workload::{generate_xmark, EdgePool, XmarkParams};

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 0.1);
    let pairs = args.usize("pairs", 100);
    let seed = args.u64("seed", 42);
    let out = args.str("out");
    args.finish();

    let mut t = Table::new(
        "Ablation: simple-baseline signature memoization (µs per update)",
        &["k", "memoized", "non-memoized (paper)", "slowdown"],
    );
    for k in 2..=5 {
        let mut times = Vec::new();
        for memoize in [true, false] {
            let mut g = generate_xmark(&XmarkParams::new(scale, 1.0, seed));
            let mut pool = EdgePool::extract(&mut g, 0.2, seed);
            let mut idx = SimpleAkIndex::build(&g, k).with_memoization(memoize);
            let start = Instant::now();
            for _ in 0..pairs {
                let (u, v) = pool.next_insert().expect("pool non-empty");
                idx.insert_edge(&mut g, u, v, EdgeKind::IdRef)
                    .expect("insert");
                let (u, v) = pool.next_delete().expect("idrefs present");
                idx.delete_edge(&mut g, u, v).expect("delete");
            }
            let per_update = start.elapsed().as_secs_f64() * 1e6 / (2 * pairs) as f64;
            times.push((per_update, idx.block_count()));
            eprintln!("k={k} memoize={memoize} done ({per_update:.0} µs/update)");
        }
        // Identical trajectories ⇒ identical final sizes.
        assert_eq!(
            times[0].1, times[1].1,
            "memoization must not change results"
        );
        t.row(&[
            k.to_string(),
            format!("{:.1}", times[0].0),
            format!("{:.1}", times[1].0),
            format!("{:.1}x", times[1].0 / times[0].0.max(1e-9)),
        ]);
    }
    t.print();
    println!("\nThe non-memoized column grows super-linearly in k — the paper's");
    println!("\"cost of this simple algorithm is exponential in k\".");
    if let Some(out) = out {
        xsi_bench::write_csv(&t, std::path::Path::new(out)).expect("write csv");
    }
}
