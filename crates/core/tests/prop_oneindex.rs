//! Randomized tests: the 1-index split/merge maintenance versus the
//! naive fixpoint oracle, on randomized graphs and update sequences.
//!
//! These encode the paper's theorems directly:
//! * Lemma 3 / Theorem 1 (cyclic clause): after any update the index is a
//!   valid, **minimal** 1-index;
//! * Theorem 1 (acyclic clause): on DAGs the maintained index *equals*
//!   the unique minimum 1-index (the oracle's fixpoint partition).
//!
//! Driven by the in-repo seeded PRNG so tier-1 runs fully offline.

use xsi_core::check::{is_valid_1index, minimality_violation};
use xsi_core::reference;
use xsi_core::{
    AkIndex, IndexHandle, OneIndex, PropagateOneIndex, SimpleAkIndex, StructuralIndex,
    UpdateEngine, UpdateOp,
};
use xsi_graph::{is_acyclic, EdgeKind, Graph, NodeId};
use xsi_workload::SplitMix64;

/// The A(k) horizon of the subgraph churn.
const K: usize = 2;

/// A small random graph description: node labels from a tiny alphabet and
/// candidate edges as (from, to) index pairs.
#[derive(Debug, Clone)]
struct RandomGraphSpec {
    labels: Vec<u8>,
    edges: Vec<(usize, usize)>,
    /// Updates: (edge index into `all_pairs`, insert?) toggles.
    toggles: Vec<usize>,
}

fn random_spec(
    rng: &mut SplitMix64,
    max_nodes: usize,
    max_edges: usize,
    max_toggles: usize,
) -> RandomGraphSpec {
    let n = rng.random_range(2..=max_nodes);
    let labels = (0..n).map(|_| rng.random_range(0..4usize) as u8).collect();
    let edges = (0..rng.random_range(0..=max_edges))
        .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
        .collect();
    let toggles = (0..rng.random_range(1..=max_toggles))
        .map(|_| rng.random_range(0..n * n))
        .collect();
    RandomGraphSpec {
        labels,
        edges,
        toggles,
    }
}

/// Materializes the spec: nodes (each connected from the root so the graph
/// is rooted), then the initial edge set (dedup, no self-loops), every
/// second one an IDREF, so an extracted subtree has IDREF boundary edges.
fn build_graph(spec: &RandomGraphSpec) -> (Graph, Vec<NodeId>) {
    let mut g = Graph::new();
    let labels = ["a", "b", "c", "d"];
    let nodes: Vec<NodeId> = spec
        .labels
        .iter()
        .map(|&l| g.add_node(labels[l as usize], None))
        .collect();
    let root = g.root();
    for &n in &nodes {
        g.insert_edge(root, n, EdgeKind::Child).unwrap();
    }
    for (i, &(u, v)) in spec.edges.iter().enumerate() {
        let kind = [EdgeKind::Child, EdgeKind::IdRef][i % 2];
        if u != v {
            let _ = g.insert_edge(nodes[u], nodes[v], kind);
        }
    }
    (g, nodes)
}

fn assert_minimal_and_tracking(g: &Graph, idx: &OneIndex) {
    idx.partition().check_consistency(g).unwrap();
    assert!(is_valid_1index(g, idx.partition()));
    if let Some(v) = minimality_violation(g, idx.partition()) {
        panic!(
            "index not minimal: {v}\ngraph: {g:?}\nindex: {:?}",
            idx.partition()
        );
    }
    if is_acyclic(g) {
        let classes = reference::bisim_classes(g);
        assert_eq!(
            idx.canonical(),
            reference::canonical_partition(g, &classes),
            "DAG index must be the minimum 1-index\ngraph: {g:?}"
        );
    }
}

/// Construction matches the oracle on arbitrary (cyclic) graphs.
#[test]
fn construction_matches_oracle() {
    for case in 0..192u64 {
        let mut rng = SplitMix64::seed_from_u64(0x1C0D + case);
        let spec = random_spec(&mut rng, 8, 20, 1);
        let (g, _) = build_graph(&spec);
        let idx = OneIndex::build(&g);
        idx.partition().check_consistency(&g).unwrap();
        let classes = reference::bisim_classes(&g);
        assert_eq!(
            idx.canonical(),
            reference::canonical_partition(&g, &classes),
            "case {case}"
        );
    }
}

/// Toggling random edges (insert if absent, delete if present) keeps
/// the maintained index minimal, and minimum on DAGs.
#[test]
fn updates_preserve_minimality() {
    for case in 0..192u64 {
        let mut rng = SplitMix64::seed_from_u64(0x2C0D + case);
        let spec = random_spec(&mut rng, 7, 12, 24);
        let (mut g, nodes) = build_graph(&spec);
        let mut idx = OneIndex::build(&g);
        let n = nodes.len();
        for &t in &spec.toggles {
            let (u, v) = (nodes[t / n], nodes[t % n]);
            if u == v {
                continue;
            }
            if g.has_edge(u, v) {
                // Never disconnect the root edges; they are part of the
                // fixture. Toggle only non-root edges.
                idx.delete_edge(&mut g, u, v).unwrap();
            } else {
                idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap();
            }
            assert_minimal_and_tracking(&g, &idx);
        }
    }
}

/// Propagate (split-only) always keeps the index *valid*, and a final
/// merge-capable update sequence... propagate's guarantee is only
/// safety: verify validity after every toggle.
#[test]
fn propagate_preserves_validity() {
    for case in 0..192u64 {
        let mut rng = SplitMix64::seed_from_u64(0x3C0D + case);
        let spec = random_spec(&mut rng, 7, 12, 16);
        let (mut g, nodes) = build_graph(&spec);
        let mut idx = PropagateOneIndex::build(&g);
        let n = nodes.len();
        for &t in &spec.toggles {
            let (u, v) = (nodes[t / n], nodes[t % n]);
            if u == v {
                continue;
            }
            if g.has_edge(u, v) {
                g.delete_edge(u, v).unwrap();
                idx.on_edge_deleted(&g, u, v);
            } else {
                g.insert_edge(u, v, EdgeKind::IdRef).unwrap();
                idx.on_edge_inserted(&g, u, v);
            }
            let p = idx.inner().partition();
            p.check_consistency(&g).unwrap();
            assert!(is_valid_1index(&g, p), "case {case}");
            // Propagate never drops below the minimum size.
            let min = reference::partition_size(&g, &reference::bisim_classes(&g));
            assert!(idx.block_count() >= min, "case {case}");
        }
    }
}

/// Asserts what each family guarantees after a subgraph step: the
/// 1-index is minimal (minimum on DAGs), the propagate family valid, the
/// A(k) chain the minimum chain (Theorem 2), and the simple baseline a
/// refinement of it.
fn assert_families(engine: &UpdateEngine, hs: &[IndexHandle; 4], case: u64) {
    let g = engine.graph();
    let any = |h: IndexHandle| engine.index(h).as_any();
    let one = any(hs[0]).downcast_ref::<OneIndex>().unwrap();
    assert_minimal_and_tracking(g, one);
    let prop = any(hs[1]).downcast_ref::<PropagateOneIndex>().unwrap();
    prop.inner().partition().check_consistency(g).unwrap();
    assert!(is_valid_1index(g, prop.inner().partition()), "case {case}");
    let ak = any(hs[2]).downcast_ref::<AkIndex>().unwrap();
    ak.check_consistency(g).unwrap();
    assert_eq!(
        ak.canonical(),
        AkIndex::build(g, K).canonical(),
        "case {case}"
    );
    let simple = any(hs[3]).downcast_ref::<SimpleAkIndex>().unwrap();
    let classes = simple.assignment(g);
    let mut block_of_class = std::collections::BTreeMap::new();
    for n in g.nodes() {
        let b = ak.block_of(n);
        let prev = *block_of_class.entry(classes[n.index()]).or_insert(b);
        assert_eq!(prev, b, "case {case}: a simple class straddles A(k) blocks");
    }
}

/// Subgraph round-trip through one engine holding all four families:
/// removing a random subtree as a `RemoveNode` batch and adding it back
/// keeps every family's guarantee (Corollary 1 for the 1-index). The
/// subtree's boundary edges other than into its root reach the last
/// part of Figure 6.
#[test]
fn subgraph_removal_and_addition() {
    for case in 0..192u64 {
        let mut rng = SplitMix64::seed_from_u64(0x4C0D + case);
        let spec = random_spec(&mut rng, 8, 16, 1);
        let pick = rng.random_range(0..8usize);
        let (g, nodes) = build_graph(&spec);
        let mut engine = UpdateEngine::new(g);
        let hs = [
            engine.register(Box::new(OneIndex::build(engine.graph()))),
            engine.register(Box::new(PropagateOneIndex::build(engine.graph()))),
            engine.register(Box::new(AkIndex::build(engine.graph(), K))),
            engine.register(Box::new(SimpleAkIndex::build(engine.graph(), K))),
        ];
        let root_pick = nodes[pick % nodes.len()];
        let (sub, members) = xsi_graph::extract_subtree(engine.graph(), root_pick);
        let removal: Vec<UpdateOp> = members
            .into_iter()
            .map(|node| UpdateOp::RemoveNode { node })
            .collect();
        engine.apply_batch(&removal).unwrap();
        assert_families(&engine, &hs, case);
        engine.add_subgraph(&sub).unwrap();
        assert_families(&engine, &hs, case);
    }
}
