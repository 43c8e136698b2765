//! **Figure 12** — 1-index quality during a sequence of subgraph
//! additions (plus the Section 7.1 running-cost comparison).
//!
//! Protocol (Section 7.1): extract random auction subtrees without
//! traversing IDREF edges, delete them all, then re-add them one by one.
//! Three alternatives are compared:
//!
//! 1. the paper's `add_1_index_subgraph` (Figure 6, split/merge);
//! 2. the same algorithm with *propagate* instead of
//!    `insert_1_index_edge` — quality keeps increasing;
//! 3. full index reconstruction after every subgraph — quality 0 but
//!    "more than 100 times slower".
//!
//! Usage: `fig12_subgraph [--scale 1.0] [--subgraphs 500]
//!         [--sample-every 25] [--seed 42] [--out fig12.csv]`

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};
use xsi_bench::{Args, Table};
use xsi_core::{check, OneIndex};
use xsi_graph::{extract_subtree, DetachedSubgraph, Graph};
use xsi_workload::{collect_subtree_roots, generate_xmark, XmarkParams};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    SplitMerge,
    Propagate,
    Reconstruct,
}

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 1.0);
    let count = args.usize("subgraphs", 500);
    let sample_every = args.usize("sample-every", (count / 20).max(1));
    let seed = args.u64("seed", 42);
    let out = args.str("out");
    args.finish();

    let mut t = Table::new(
        "Figure 12: 1-index quality during subgraph additions",
        &[
            "algorithm",
            "subgraphs added",
            "index",
            "minimum",
            "quality",
        ],
    );
    let mut timing: Vec<(&str, Duration, usize)> = Vec::new();
    for (name, mode) in [
        ("split/merge", Mode::SplitMerge),
        ("propagate", Mode::Propagate),
        ("reconstruction", Mode::Reconstruct),
    ] {
        // Build the dataset, extract the subgraphs, remove them all.
        let mut g = generate_xmark(&XmarkParams::new(scale, 1.0, seed));
        let roots = collect_subtree_roots(&g, "open_auction", count, seed);
        let mut idx = OneIndex::build(&g);
        let mut subs: Vec<DetachedSubgraph> = Vec::with_capacity(roots.len());
        for &r in &roots {
            let (sub, members) = extract_subtree(&g, r);
            idx.remove_subgraph(&mut g, &members).expect("removal");
            subs.push(sub);
        }
        // Re-add one by one with the chosen algorithm.
        let mut spent = Duration::ZERO;
        for (i, sub) in subs.iter().enumerate() {
            let start = Instant::now();
            match mode {
                Mode::SplitMerge => {
                    idx.add_subgraph(&mut g, sub).expect("addition");
                }
                Mode::Propagate => {
                    idx.propagate_add_subgraph(&mut g, sub).expect("addition");
                }
                Mode::Reconstruct => {
                    // Materialize the subgraph + boundary edges directly,
                    // then rebuild the index from scratch ([8]'s approach).
                    add_subgraph_plain(&mut g, sub);
                    idx = OneIndex::build(&g);
                }
            }
            spent += start.elapsed();
            let added = i + 1;
            if added % sample_every == 0 || added == subs.len() {
                let minimum = OneIndex::build(&g).block_count();
                t.row(&[
                    name.to_string(),
                    added.to_string(),
                    idx.block_count().to_string(),
                    minimum.to_string(),
                    format!("{:.4}", check::quality(idx.block_count(), minimum)),
                ]);
            }
        }
        timing.push((name, spent, subs.len()));
        eprintln!("{name} done ({} subgraphs)", subs.len());
    }
    t.print();
    println!();
    for (name, spent, n) in &timing {
        println!(
            "{name}: {:.2} ms per subgraph addition",
            spent.as_secs_f64() * 1e3 / (*n).max(1) as f64
        );
    }
    if let Some(out) = out {
        xsi_bench::write_csv(&t, std::path::Path::new(out)).expect("write csv");
    }
}

/// Inserts a detached subgraph and its boundary edges into the graph
/// without any index maintenance (used by the reconstruction baseline).
fn add_subgraph_plain(g: &mut Graph, sub: &DetachedSubgraph) {
    let map = sub.instantiate(g).expect("instantiate");
    for &(host, local, kind) in &sub.incoming {
        g.insert_edge(host, map[local as usize], kind)
            .expect("incoming boundary edge");
    }
    for &(local, host, kind) in &sub.outgoing {
        g.insert_edge(map[local as usize], host, kind)
            .expect("outgoing boundary edge");
    }
}
