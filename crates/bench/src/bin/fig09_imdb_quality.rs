//! **Figure 9** — 1-index quality over mixed edge insertions and
//! deletions on IMDB.
//!
//! The paper's result: *propagate* degrades almost linearly (≈5 % after
//! 500 updates, triggering reconstruction about every 500 updates under
//! the 5 % heuristic), while split/merge never exceeds ~3 %.
//!
//! Usage: `fig09_imdb_quality [--scale 1.0] [--pairs 5000]
//!         [--sample-every 100] [--seed 42] [--out fig09.csv]`

#![forbid(unsafe_code)]

use xsi_bench::{run_mixed_updates_1index, Algo1, Args, Table};
use xsi_workload::{generate_imdb, EdgePool, ImdbParams};

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 1.0);
    let pairs = args.usize("pairs", 5000);
    let sample_every = args.usize("sample-every", (pairs / 25).max(1));
    let seed = args.u64("seed", 42);
    let out = args.str("out");
    args.finish();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut summaries = Vec::new();
    for (name, algo) in [
        ("split/merge", Algo1::SplitMerge),
        ("propagate", Algo1::Propagate),
        ("propagate+rebuild", Algo1::PropagateWithRebuild),
    ] {
        let mut g = generate_imdb(&ImdbParams::new(scale, seed));
        let mut pool = EdgePool::extract(&mut g, 0.2, seed);
        let s = run_mixed_updates_1index(&mut g, &mut pool, pairs, sample_every, algo);
        for q in &s.samples {
            rows.push(vec![
                name.to_string(),
                q.updates.to_string(),
                q.index_size.to_string(),
                q.minimum_size.to_string(),
                format!("{:.4}", q.quality),
            ]);
        }
        summaries.push((name, s));
    }

    let mut t = Table::new(
        "Figure 9: 1-index quality over mixed updates, IMDB",
        &["algorithm", "updates", "index", "minimum", "quality"],
    );
    for r in &rows {
        t.row(r);
    }
    t.print();
    println!();
    for (name, s) in &summaries {
        println!(
            "{name}: final quality {:.4}, avg update {:?}, reconstructions {}",
            s.samples.last().map(|q| q.quality).unwrap_or(0.0),
            s.avg_update(),
            s.rebuild_count
        );
    }
    if let Some(out) = out {
        xsi_bench::write_csv(&t, std::path::Path::new(out)).expect("write csv");
    }
}
