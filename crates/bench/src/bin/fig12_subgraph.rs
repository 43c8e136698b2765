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
//! Every row removes its subtrees as `RemoveNode` batches through an
//! engine holding the split/merge 1-index, then re-adds them through an
//! engine holding the row's family (none for reconstruction).
//!
//! Usage: `fig12_subgraph [--scale 1.0] [--subgraphs 500]
//!         [--sample-every 25] [--seed 42] [--out fig12.csv]`

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};
use xsi_bench::{Args, Table};
use xsi_core::{check, OneIndex, PropagateOneIndex, StructuralIndex, UpdateEngine, UpdateOp};
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
        let (g, one, subs) = carve(scale, count, seed);
        let mut engine = UpdateEngine::new(g);
        let index: Option<Box<dyn StructuralIndex>> = match mode {
            Mode::SplitMerge => Some(Box::new(one)),
            Mode::Propagate => Some(Box::new(PropagateOneIndex(one))),
            Mode::Reconstruct => None,
        };
        let h = index.map(|idx| engine.register(idx));
        // Re-add one by one with the chosen algorithm.
        let mut rebuilt_blocks = 0;
        let mut spent = Duration::ZERO;
        for (i, sub) in subs.iter().enumerate() {
            let start = Instant::now();
            engine.add_subgraph(sub).expect("addition");
            if h.is_none() {
                // [8]'s approach: rebuild the index from scratch.
                rebuilt_blocks = OneIndex::build(engine.graph()).block_count();
            }
            spent += start.elapsed();
            let added = i + 1;
            if added % sample_every == 0 || added == subs.len() {
                let blocks = h.map_or(rebuilt_blocks, |h| engine.index(h).block_count());
                let minimum = OneIndex::build(engine.graph()).block_count();
                t.row(&[
                    name.to_string(),
                    added.to_string(),
                    blocks.to_string(),
                    minimum.to_string(),
                    format!("{:.4}", check::quality(blocks, minimum)),
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

/// Generates the dataset and removes its subtrees through an engine
/// holding the split/merge 1-index, one `RemoveNode` batch each.
/// Returns the graph, that index and the removed subtrees.
fn carve(scale: f64, count: usize, seed: u64) -> (Graph, OneIndex, Vec<DetachedSubgraph>) {
    let g = generate_xmark(&XmarkParams::new(scale, 1.0, seed));
    let roots = collect_subtree_roots(&g, "open_auction", count, seed);
    let mut engine = UpdateEngine::new(g);
    let h = engine.register(Box::new(OneIndex::build(engine.graph())));
    let mut subs = Vec::with_capacity(roots.len());
    for &r in &roots {
        let (sub, members) = extract_subtree(engine.graph(), r);
        let removal: Vec<UpdateOp> = members
            .into_iter()
            .map(|node| UpdateOp::RemoveNode { node })
            .collect();
        engine.apply_batch(&removal).expect("removal");
        subs.push(sub);
    }
    let one = engine.index(h).as_any().downcast_ref::<OneIndex>().cloned();
    let (g, _) = engine.into_parts();
    (g, one.expect("the registered 1-index"), subs)
}
