//! Heavy stress tests, `#[ignore]`d by default — run with
//! `cargo test --release --test stress -- --ignored`.
//!
//! These push the theorems at dataset scale: thousands of updates over
//! tens of thousands of nodes with exact-equality verification against
//! fresh constructions, far beyond what the per-commit suite can afford.

use xsi_core::{check, AkIndex, OneIndex, PropagateOneIndex, StructuralIndex};
use xsi_graph::EdgeKind;
use xsi_workload::{
    generate_dblp, generate_imdb, generate_xmark, DblpParams, EdgePool, ImdbParams, XmarkParams,
};

/// Theorem 1 on a ~100 k-node DAG: exact minimum at every checkpoint.
#[test]
#[ignore = "heavy: run with --ignored"]
fn theorem1_dblp_large() {
    let mut g = generate_dblp(&DblpParams::new(0.4, 99));
    let mut pool = EdgePool::extract(&mut g, 0.2, 99);
    let mut idx = OneIndex::build(&g);
    for pair in 1..=1000 {
        let (u, v) = pool.next_insert().unwrap();
        idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap();
        let (u, v) = pool.next_delete().unwrap();
        idx.delete_edge(&mut g, u, v).unwrap();
        if pair % 200 == 0 {
            assert_eq!(idx.canonical(), OneIndex::build(&g).canonical());
            idx.partition().check_consistency(&g).unwrap();
        }
    }
}

/// Theorem 2 on cyclic XMark: the A(3) chain equals the rebuilt minimum
/// chain at every checkpoint.
#[test]
#[ignore = "heavy: run with --ignored"]
fn theorem2_xmark_large() {
    let mut g = generate_xmark(&XmarkParams::new(0.3, 1.0, 99));
    let mut pool = EdgePool::extract(&mut g, 0.2, 99);
    let mut idx = AkIndex::build(&g, 3);
    for pair in 1..=1000 {
        let (u, v) = pool.next_insert().unwrap();
        idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap();
        let (u, v) = pool.next_delete().unwrap();
        idx.delete_edge(&mut g, u, v).unwrap();
        if pair % 250 == 0 {
            idx.check_consistency(&g).unwrap();
            assert_eq!(idx.canonical(), AkIndex::build(&g, 3).canonical());
        }
    }
}

/// Minimality invariant (Lemma 3) on cyclic IMDB, with a full
/// from-first-principles check every 100 pairs.
#[test]
#[ignore = "heavy: run with --ignored"]
fn lemma3_imdb_minimality() {
    let mut g = generate_imdb(&ImdbParams::new(0.2, 99));
    let mut pool = EdgePool::extract(&mut g, 0.2, 99);
    let mut idx = OneIndex::build(&g);
    for pair in 1..=500 {
        let (u, v) = pool.next_insert().unwrap();
        idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap();
        let (u, v) = pool.next_delete().unwrap();
        idx.delete_edge(&mut g, u, v).unwrap();
        if pair % 100 == 0 {
            idx.partition().check_consistency(&g).unwrap();
            assert!(
                check::is_minimal_1index(&g, idx.partition()),
                "minimality violated at pair {pair}"
            );
        }
    }
}

/// Snapshot round trips at scale, including a drifted (propagate) state,
/// and maintenance continuing seamlessly after a load.
#[test]
#[ignore = "heavy: run with --ignored"]
fn snapshots_at_scale() {
    let mut g = generate_xmark(&XmarkParams::new(0.3, 1.0, 99));
    let mut pool = EdgePool::extract(&mut g, 0.2, 99);
    let mut propagate = PropagateOneIndex::build(&g);
    for _ in 0..200 {
        let (u, v) = pool.next_insert().unwrap();
        g.insert_edge(u, v, EdgeKind::IdRef).unwrap();
        propagate.on_edge_inserted(&g, u, v);
        let (u, v) = pool.next_delete().unwrap();
        g.delete_edge(u, v).unwrap();
        propagate.on_edge_deleted(&g, u, v);
    }
    let idx = propagate.inner();
    let bytes = idx.to_snapshot();
    let mut restored = OneIndex::from_snapshot(&g, &bytes).unwrap();
    assert_eq!(restored.canonical(), idx.canonical());
    // Maintenance continues on the restored index.
    for _ in 0..50 {
        let (u, v) = pool.next_insert().unwrap();
        restored.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap();
    }
    restored.partition().check_consistency(&g).unwrap();
}
