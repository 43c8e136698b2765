//! Regression test for the 1-index merge phase's partner search
//! (`Partition::find_merge_partner`): every legal twin of a block is a
//! child of *every* index parent of that block, so the search anchors on
//! the parent with the fewest children. An update's merge-side work must
//! therefore not grow with the fan-out of a hub parent whose many
//! same-label children cannot merge.

use xsi_core::check::{is_minimal_1index, minimality_violation};
use xsi_core::obs::span::{self, SpanKind, SpanTree};
use xsi_core::OneIndex;
use xsi_graph::{EdgeKind, Graph};

/// Merge-side work of one update: the number of merge work items (the
/// `CompoundProcess` spans under `Merge` spans), the candidate blocks
/// they examined (`elems`) and the blocks they folded (`blocks`).
fn merge_side(tree: &SpanTree) -> (usize, u64, u64) {
    let mut out = (0, 0, 0);
    for s in &tree.spans {
        let under_merge = tree
            .get(s.parent)
            .is_some_and(|p| p.kind == SpanKind::Merge);
        if s.kind == SpanKind::CompoundProcess && under_merge {
            out.0 += 1;
            out.1 += s.counters.elems;
            out.2 += s.counters.blocks;
        }
    }
    out
}

/// Root children `P` (the hub), `Q`, `Z` and `R₁..R_n`. `P` has `n`
/// children `x₁..x_n` (label x), each with its own second parent `Rᵢ`
/// (label rᵢ), so no two of them can merge. `s` and `t` (label x) are
/// children of both `P` and `Q`, and `Z → s` is an IDREF. Deleting it
/// starts the merge phase at `I[s]`, whose parents are `{P, Q}`: `Q` has
/// two children, `s` and its twin `t`. Returns the update's merge count
/// and merge-side work.
fn hub_update_work(n: usize) -> (usize, (usize, u64, u64)) {
    let mut g = Graph::new();
    let root = g.root();
    let child = |g: &mut Graph, parent, label: &str| {
        let c = g.add_node(label, None);
        g.insert_edge(parent, c, EdgeKind::Child).unwrap();
        c
    };
    let p = child(&mut g, root, "p");
    let q = child(&mut g, root, "q");
    let z = child(&mut g, root, "z");
    for i in 0..n {
        let r = child(&mut g, root, &format!("r{i}"));
        let x = child(&mut g, p, "x");
        g.insert_edge(r, x, EdgeKind::Child).unwrap();
    }
    let s = child(&mut g, p, "x");
    let t = child(&mut g, p, "x");
    for v in [s, t] {
        g.insert_edge(q, v, EdgeKind::Child).unwrap();
    }
    g.insert_edge(z, s, EdgeKind::IdRef).unwrap();

    let mut idx = OneIndex::build(&g);
    // The hub is the older block: a smallest-id anchor would scan it.
    assert!(idx.block_of(p) < idx.block_of(q));
    assert_ne!(idx.block_of(s), idx.block_of(t));
    assert_eq!(idx.block_count(), 2 * n + 6);

    g.delete_edge(z, s).unwrap();
    span::begin_collection();
    let stats = idx.notify_edge_deleted(&g, z, s);
    let tree = span::end_collection();

    idx.partition().check_consistency(&g).unwrap();
    assert!(
        is_minimal_1index(&g, idx.partition()),
        "{:?}",
        minimality_violation(&g, idx.partition())
    );
    assert_eq!(idx.block_of(s), idx.block_of(t), "s merged with its twin");
    assert_eq!(tree.dropped, 0);
    (stats.merges, merge_side(&tree))
}

#[test]
fn merge_phase_work_is_independent_of_hub_fan_out() {
    let small = hub_update_work(10);
    let large = hub_update_work(10_000);
    assert_eq!(small.0, 1, "one merge: s with its twin t");
    // The partner search examines Q's two children; the fold then serves
    // the merged block, which has no successors.
    assert_eq!(small.1, (2, 2, 2));
    assert_eq!(
        small, large,
        "merges and merge-side (items, elems, blocks) grew with the hub's fan-out"
    );
}
