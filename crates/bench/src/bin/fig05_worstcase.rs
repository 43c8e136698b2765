//! **Figure 5** — the worst-case intermediate blow-up of the split phase.
//!
//! The paper's construction: twin subtrees with identical structure whose
//! inodes are shared in the old index; one edge insertion forces the
//! split phase to tear every shared inode apart (Ω(n) splits) before the
//! merge phase folds almost all of them back. The intermediate index Φ₁
//! is Ω(n) larger than both the old and the new index — but the paper
//! (and our Figures 9–11) observe this is "rather contrived and rare in
//! practice".
//!
//! We reproduce it with three chain-shaped subtrees: T₁ and T₂ hang under
//! the root and share all inodes; T₃ hangs under the root *and* under a
//! witness node `w`. Inserting the dedge (w, root-of-T₁) splits T₁ off
//! T₂ link by link, then the merge phase folds T₁ onto T₃.
//!
//! Usage: `fig05_worstcase [--depths 10,100,1000,10000] [--out fig05.csv]`

#![forbid(unsafe_code)]

use xsi_bench::{Args, Table};
use xsi_core::OneIndex;
use xsi_graph::{EdgeKind, Graph, NodeId};

/// Builds the three-chain worst-case graph of depth `d`; returns the
/// graph, the witness `w`, and the root of T₁.
fn build(d: usize) -> (Graph, NodeId, NodeId) {
    let mut g = Graph::new();
    let root = g.root();
    let w = g.add_node("w", None);
    g.insert_edge(root, w, EdgeKind::Child).unwrap();
    let chain = |g: &mut Graph, under_w: bool| -> NodeId {
        let top = g.add_node("t0", None);
        g.insert_edge(g.root(), top, EdgeKind::Child).unwrap();
        if under_w {
            g.insert_edge(w, top, EdgeKind::Child).unwrap();
        }
        let mut prev = top;
        for i in 1..d {
            let n = g.add_node(&format!("t{i}"), None);
            g.insert_edge(prev, n, EdgeKind::Child).unwrap();
            prev = n;
        }
        top
    };
    let t1 = chain(&mut g, false);
    let _t2 = chain(&mut g, false);
    let _t3 = chain(&mut g, true);
    (g, w, t1)
}

fn main() {
    let args = Args::parse_env();
    let depths: Vec<usize> = args
        .str("depths")
        .unwrap_or("10,100,1000,10000")
        .split(',')
        .map(|s| s.trim().parse().expect("--depths expects integers"))
        .collect();
    let out = args.str("out");
    args.finish();

    let mut t = Table::new(
        "Figure 5: worst-case intermediate index blow-up",
        &[
            "chain depth",
            "old index",
            "intermediate",
            "final",
            "splits",
            "merges",
            "blow-up",
        ],
    );
    for d in depths {
        let (mut g, w, t1) = build(d);
        let mut idx = OneIndex::build(&g);
        let old = idx.block_count();
        let stats = idx.insert_edge(&mut g, w, t1, EdgeKind::IdRef).unwrap();
        t.row(&[
            d.to_string(),
            old.to_string(),
            stats.intermediate_blocks.to_string(),
            stats.final_blocks.to_string(),
            stats.splits.to_string(),
            stats.merges.to_string(),
            format!(
                "{}",
                stats.intermediate_blocks - old.max(stats.final_blocks)
            ),
        ]);
    }
    t.print();
    println!("\nThe blow-up column grows linearly with the chain depth: Ω(n).");
    if let Some(out) = out {
        xsi_bench::write_csv(&t, std::path::Path::new(out)).expect("write csv");
    }
}
