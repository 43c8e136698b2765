//! Cross-crate integration tests: generated workloads flow through XML
//! serialization, index construction, long mixed-update sequences, and
//! subgraph churn, with the theorems' guarantees checked along the way.

use xsi_core::{
    check, reference, AkIndex, IndexHandle, OneIndex, SimpleAkIndex, UpdateEngine, UpdateOp,
};
use xsi_graph::{extract_subtree, is_acyclic, EdgeKind};
use xsi_workload::{
    collect_subtree_roots, generate_imdb, generate_xmark, EdgePool, ImdbParams, XmarkParams,
};
use xsi_xml::{parse_str, serialize, ParseOptions, SerializeOptions};

/// A long mixed-update run on cyclic XMark keeps the 1-index minimal and
/// (empirically, per Figure 10) minimum.
#[test]
fn xmark_mixed_updates_keep_1index_minimal() {
    let mut g = generate_xmark(&XmarkParams::new(0.02, 1.0, 3));
    let mut pool = EdgePool::extract(&mut g, 0.2, 3);
    let mut idx = OneIndex::build(&g);
    for step in 0..150 {
        let (u, v) = pool.next_insert().unwrap();
        idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap();
        let (u, v) = pool.next_delete().unwrap();
        idx.delete_edge(&mut g, u, v).unwrap();
        if step % 25 == 0 {
            idx.partition().check_consistency(&g).unwrap();
            assert!(check::is_minimal_1index(&g, idx.partition()));
        }
    }
    // Final state: compare against a fresh construction.
    assert_eq!(idx.canonical(), OneIndex::build(&g).canonical());
}

/// On the acyclic XMark(0), every intermediate state must equal the
/// unique minimum (Theorem 1).
#[test]
fn acyclic_xmark_updates_maintain_minimum() {
    let mut g = generate_xmark(&XmarkParams::new(0.02, 0.0, 4));
    assert!(is_acyclic(&g));
    let mut pool = EdgePool::extract(&mut g, 0.2, 4);
    let mut idx = OneIndex::build(&g);
    for _ in 0..60 {
        let (u, v) = pool.next_insert().unwrap();
        idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap();
        // Re-inserted IDREFs can close cycles only via watch edges, which
        // XMark(0) has none of; the graph stays acyclic.
        assert_eq!(idx.canonical(), OneIndex::build(&g).canonical());
        let (u, v) = pool.next_delete().unwrap();
        idx.delete_edge(&mut g, u, v).unwrap();
        assert_eq!(idx.canonical(), OneIndex::build(&g).canonical());
    }
}

/// The A(k) chain equals the from-scratch minimum chain after a mixed run
/// on the clustered cyclic IMDB graph (Theorem 2).
#[test]
fn imdb_mixed_updates_keep_ak_minimum() {
    let mut g = generate_imdb(&ImdbParams::new(0.01, 5));
    let mut pool = EdgePool::extract(&mut g, 0.2, 5);
    let mut idx = AkIndex::build(&g, 3);
    for _ in 0..80 {
        let (u, v) = pool.next_insert().unwrap();
        idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap();
        let (u, v) = pool.next_delete().unwrap();
        idx.delete_edge(&mut g, u, v).unwrap();
    }
    idx.check_consistency(&g).unwrap();
    assert_eq!(idx.canonical(), AkIndex::build(&g, 3).canonical());
    let chain = idx.chain_assignments(&g);
    assert!(check::is_valid_ak_chain(&g, &chain));
}

/// Subgraph churn on XMark: retire and re-list auctions through the
/// engine; the 1-index tracks the fresh construction (Corollary 1
/// behaviour on real data).
#[test]
fn subgraph_churn_tracks_construction() {
    let g = generate_xmark(&XmarkParams::new(0.02, 1.0, 6));
    let roots = collect_subtree_roots(&g, "open_auction", 10, 6);
    assert!(!roots.is_empty());
    let mut engine = UpdateEngine::new(g);
    let h = engine.register(Box::new(OneIndex::build(engine.graph())));
    fn one(e: &UpdateEngine, h: IndexHandle) -> &OneIndex {
        let idx = e.index(h).as_any().downcast_ref();
        idx.expect("the registered 1-index")
    }
    let mut subs = Vec::new();
    for &r in &roots {
        let (sub, members) = extract_subtree(engine.graph(), r);
        let removal: Vec<UpdateOp> = members
            .into_iter()
            .map(|node| UpdateOp::RemoveNode { node })
            .collect();
        engine.apply_batch(&removal).unwrap();
        subs.push(sub);
    }
    let idx = one(&engine, h);
    idx.partition().check_consistency(engine.graph()).unwrap();
    assert!(check::is_minimal_1index(engine.graph(), idx.partition()));
    for sub in &subs {
        engine.add_subgraph(sub).unwrap();
    }
    let idx = one(&engine, h);
    idx.partition().check_consistency(engine.graph()).unwrap();
    assert_eq!(idx.canonical(), OneIndex::build(engine.graph()).canonical());
}

/// Serialize a generated (tree + IDREF) graph to XML, parse it back, and
/// verify the round trip produces a graph whose minimum 1-index has the
/// same size — i.e. the XML layer loses no structural information.
#[test]
fn xml_round_trip_preserves_index_structure() {
    let g = generate_xmark(&XmarkParams::new(0.005, 1.0, 8));
    let xml = serialize(&g, &SerializeOptions::default()).unwrap();
    let reparsed = parse_str(&xml, &ParseOptions::default()).unwrap();
    assert_eq!(reparsed.graph.node_count(), g.node_count());
    assert_eq!(reparsed.graph.edge_count(), g.edge_count());
    assert_eq!(
        reparsed.graph.edge_count_of_kind(EdgeKind::IdRef),
        g.edge_count_of_kind(EdgeKind::IdRef)
    );
    let a = OneIndex::build(&g);
    let b = OneIndex::build(&reparsed.graph);
    assert_eq!(a.block_count(), b.block_count());
}

/// The simple baseline drifts up while split/merge holds the minimum —
/// the Figure 13 contrast, asserted end to end at test scale.
#[test]
fn simple_baseline_drifts_while_split_merge_holds() {
    let mut g1 = generate_xmark(&XmarkParams::new(0.01, 1.0, 9));
    let mut g2 = g1.clone();
    let mut pool1 = EdgePool::extract(&mut g1, 0.2, 9);
    let mut pool2 = EdgePool::extract(&mut g2, 0.2, 9);
    let mut exact = AkIndex::build(&g1, 2);
    let mut simple = SimpleAkIndex::build(&g2, 2);
    for _ in 0..100 {
        let (u, v) = pool1.next_insert().unwrap();
        exact.insert_edge(&mut g1, u, v, EdgeKind::IdRef).unwrap();
        let (u, v) = pool1.next_delete().unwrap();
        exact.delete_edge(&mut g1, u, v).unwrap();
        let (u, v) = pool2.next_insert().unwrap();
        simple.insert_edge(&mut g2, u, v, EdgeKind::IdRef).unwrap();
        let (u, v) = pool2.next_delete().unwrap();
        simple.delete_edge(&mut g2, u, v).unwrap();
    }
    let min1 = AkIndex::build(&g1, 2).block_count();
    assert_eq!(exact.block_count(), min1, "split/merge = minimum");
    let min2 = AkIndex::build(&g2, 2).block_count();
    assert!(
        simple.block_count() > min2,
        "simple should have drifted above the minimum ({} vs {min2})",
        simple.block_count()
    );
}

/// Reference oracle and production construction agree on both generated
/// datasets (sampled sizes).
#[test]
fn construction_matches_oracle_on_generated_data() {
    let g = generate_xmark(&XmarkParams::new(0.01, 1.0, 10));
    let idx = OneIndex::build(&g);
    let classes = reference::bisim_classes(&g);
    assert_eq!(idx.block_count(), reference::partition_size(&g, &classes));
    let g = generate_imdb(&ImdbParams::new(0.005, 10));
    let idx = AkIndex::build(&g, 4);
    let oracle = reference::k_bisim_chain(&g, 4);
    assert_eq!(idx.block_count(), reference::partition_size(&g, &oracle[4]));
}
