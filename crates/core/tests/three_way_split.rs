//! Regression tests for the compound loop's Paige–Tarjan three-way
//! split (`kernel::process_compounds`): the second splitter
//! `Succ(I) ∩ Succ(S − I)` is carved out of `Succ(I)` by a parent probe,
//! so an update's kernel work must not grow with the size of the block it
//! splits, and the probe must see `S − I` as it was popped even when the
//! first stabilization splits one of its blocks.

use xsi_core::check::{is_minimal_1index, minimality_violation};
use xsi_core::obs::span::{self, SpanKind};
use xsi_core::obs::{folded_stacks, FoldWeight};
use xsi_core::{reference, AkIndex, OneIndex, UpdateEngine};
use xsi_graph::{EdgeKind, Graph, GraphBuilder, NodeId};

/// Kernel work of one IDREF insert `x → b₀` and its delete, where `b₀`
/// shares its inode with `n − 1` siblings (root → a → bᵢ → cᵢ, plus a
/// lone x under the root), through an engine running the 1-index and
/// A(3). Returns the KernelScan (spans, elems, blocks) totals and the
/// Count-weighted folded stacks of the whole update.
fn sibling_update_work(n: usize) -> ((usize, u64, u64), String) {
    let mut g = Graph::new();
    let root = g.root();
    let a = g.add_node("a", None);
    g.insert_edge(root, a, EdgeKind::Child).unwrap();
    let x = g.add_node("x", None);
    g.insert_edge(root, x, EdgeKind::Child).unwrap();
    let mut siblings = Vec::with_capacity(n);
    for _ in 0..n {
        let b = g.add_node("b", None);
        g.insert_edge(a, b, EdgeKind::Child).unwrap();
        let c = g.add_node("c", None);
        g.insert_edge(b, c, EdgeKind::Child).unwrap();
        siblings.push(b);
    }
    let b0 = siblings[0];
    let mut engine = UpdateEngine::new(g);
    engine.register(Box::new(OneIndex::build(engine.graph())));
    engine.register(Box::new(AkIndex::build(engine.graph(), 3)));

    span::begin_collection();
    engine.insert_edge(x, b0, EdgeKind::IdRef).unwrap();
    engine.delete_edge(x, b0).unwrap();
    let tree = span::end_collection();
    engine.check().unwrap();

    let scans = tree.kind_counters(SpanKind::KernelScan);
    let counts = (
        tree.kind_count(SpanKind::KernelScan),
        scans.elems,
        scans.blocks,
    );
    let folded = folded_stacks(&tree, engine.obs().families(), FoldWeight::Count);
    (counts, folded)
}

#[test]
fn update_kernel_work_is_independent_of_sibling_count() {
    let (small, small_folded) = sibling_update_work(10);
    let (large, large_folded) = sibling_update_work(10_000);
    assert!(small.0 > 0, "the update ran no kernel scan");
    assert_eq!(
        small, large,
        "KernelScan (spans, elems, blocks) grew with the split block's size"
    );
    assert_eq!(small_folded, large_folded);
}

/// v, r1, r2 (label P) form one inode: all three are root children and
/// sit on the cycle v → r2 → r1 → v. x, y (label Q) form another: v → x,
/// v → y, r2 → x. z (label Z) is a lone root child.
fn cyclic_graph() -> (Graph, std::collections::BTreeMap<u64, NodeId>) {
    GraphBuilder::new()
        .nodes(&[(1, "P"), (2, "P"), (3, "P"), (4, "Q"), (5, "Q"), (6, "Z")])
        .idref_edges(&[(1, 3), (3, 2), (2, 1), (1, 4), (1, 5), (3, 4)])
        .root_to(1)
        .root_to(2)
        .root_to(3)
        .root_to(6)
        .build_with_ids()
}

fn assert_one_index_minimal(g: &Graph, idx: &OneIndex) {
    idx.partition().check_consistency(g).unwrap();
    assert!(
        is_minimal_1index(g, idx.partition()),
        "{:?}",
        minimality_violation(g, idx.partition())
    );
}

fn assert_ak_minimum(g: &Graph, idx: &AkIndex) {
    idx.check_consistency(g).unwrap();
    let oracle = reference::k_bisim_chain(g, idx.k());
    let chain = idx.chain_assignments(g);
    for level in 0..=idx.k() {
        assert_eq!(
            reference::canonical_partition(g, &chain[level]),
            reference::canonical_partition(g, &oracle[level]),
            "k = {}, level {level}",
            idx.k()
        );
    }
}

/// Inserting z → v singles v out of {v, r1, r2}. The first compound pop
/// has I = {v} and S − I = {r1, r2}; stabilizing against
/// Succ(v) = {r2, x, y} splits r2 away from r1, and only r2 separates x
/// (a child of r2) from y. A second splitter probed against the shrunk
/// block {r1} would leave {x, y} together, and the queued {r1}/{r2}
/// compound serves {r1} first, whose probe cannot see x either.
#[test]
fn cyclic_split_of_the_remainder_keeps_the_popped_splitter() {
    let (mut g, ids) = cyclic_graph();
    let (v, r1, r2, x, y, z) = (ids[&1], ids[&2], ids[&3], ids[&4], ids[&5], ids[&6]);

    let mut one = OneIndex::build(&g);
    assert_eq!(one.block_of(v), one.block_of(r1));
    assert_eq!(one.block_of(v), one.block_of(r2));
    assert_eq!(one.block_of(x), one.block_of(y));
    let mut aks: Vec<AkIndex> = (1..=4).map(|k| AkIndex::build(&g, k)).collect();

    g.insert_edge(z, v, EdgeKind::IdRef).unwrap();
    one.notify_edge_inserted(&g, z, v);
    assert_one_index_minimal(&g, &one);
    assert_ne!(one.block_of(x), one.block_of(y));
    for ak in &mut aks {
        ak.notify_edge_inserted(&g, z, v);
        assert_ak_minimum(&g, ak);
    }

    g.delete_edge(z, v).unwrap();
    one.notify_edge_deleted(&g, z, v);
    // Minimal, not minimum: on this cycle the merge phase cannot rejoin
    // v, r1 and r2 (Lemma 3 promises no more).
    assert_one_index_minimal(&g, &one);
    for ak in &mut aks {
        ak.notify_edge_deleted(&g, z, v);
        assert_ak_minimum(&g, ak);
    }
}
