//! **Theorem 1 at scale** (ablation beyond the paper's tables): on an
//! acyclic bibliography database, the maintained 1-index must equal the
//! unique minimum after *every* update — not just stay minimal. This
//! binary drives a long mixed-update run on the DBLP-style generator and
//! compares the maintained partition against a fresh construction at
//! every sample point, reporting any divergence (there must be none).
//!
//! Usage: `theorem1_check [--scale 0.5] [--pairs 2000] [--check-every 100]
//!         [--seed 42] [--out theorem1.csv]`

#![forbid(unsafe_code)]

use xsi_bench::{Args, Table};
use xsi_core::OneIndex;
use xsi_graph::{is_acyclic, EdgeKind};
use xsi_workload::{generate_dblp, DblpParams, EdgePool};

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 0.5);
    let pairs = args.usize("pairs", 2000);
    let check_every = args.usize("check-every", (pairs / 20).max(1));
    let seed = args.u64("seed", 42);
    let out = args.str("out");
    args.finish();

    let mut g = generate_dblp(&DblpParams::new(scale, seed));
    assert!(is_acyclic(&g), "DBLP generator must produce a DAG");
    let mut pool = EdgePool::extract(&mut g, 0.2, seed);
    let mut idx = OneIndex::build(&g);
    println!(
        "DBLP: {} dnodes, {} dedges, minimum 1-index {} inodes",
        g.node_count(),
        g.edge_count(),
        idx.block_count()
    );

    let mut t = Table::new(
        "Theorem 1 check: maintained vs rebuilt minimum (acyclic DBLP)",
        &[
            "updates",
            "maintained",
            "rebuilt minimum",
            "identical partitions",
        ],
    );
    let mut divergences = 0usize;
    for pair in 1..=pairs {
        let (u, v) = pool.next_insert().expect("pool non-empty");
        idx.insert_edge(&mut g, u, v, EdgeKind::IdRef)
            .expect("insert");
        let (u, v) = pool.next_delete().expect("idrefs present");
        idx.delete_edge(&mut g, u, v).expect("delete");
        if pair % check_every == 0 || pair == pairs {
            let fresh = OneIndex::build(&g);
            let identical = idx.canonical() == fresh.canonical();
            if !identical {
                divergences += 1;
            }
            t.row(&[
                (2 * pair).to_string(),
                idx.block_count().to_string(),
                fresh.block_count().to_string(),
                identical.to_string(),
            ]);
        }
    }
    t.print();
    if divergences == 0 {
        println!("\nTheorem 1 holds: the maintained index was the exact minimum at every sample.");
    } else {
        println!("\nVIOLATION: {divergences} samples diverged from the minimum!");
        std::process::exit(1);
    }
    if let Some(out) = out {
        xsi_bench::write_csv(&t, std::path::Path::new(out)).expect("write csv");
    }
}
