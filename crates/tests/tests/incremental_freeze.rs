//! Oracle for the incremental freeze: a freeze that builds on the
//! previous snapshot of the same index must equal a full freeze of that
//! index, by content and by raw slot id.
//!
//! An engine over XMark and IMDB (scale 0.05, seed 42) with a 1-index, a
//! propagate 1-index, an A(2) and an A(3) is churned with single pooled
//! IDREF updates and with batches that add and remove node fragments,
//! so slots are released and recycled. The previous round's snapshots
//! are held throughout, so every freeze after the first builds on a
//! base; after every engine call the engine's snapshots are compared
//! with base-less freezes of the same indexes. The `paranoid` engine
//! (armed for this crate) asserts the same equality inside every
//! freeze.
//!
//! The other cases: a dropped base falls back to a full freeze; a base
//! from a clone, from a rebuilt index or from a restored one is never
//! reused; and a metrics-enabled freeze reports exactly the snapshot's
//! retained bytes. The stamp-sequence wrap is covered by the core unit
//! test `view::tests::a_base_from_before_the_stamp_wrap_is_ignored`.

use xsi_core::obs::{HeapUse, IndexFamily, MetricKey};
use xsi_core::{
    AkIndex, IndexHandle, IndexQueryView, IndexSnapshot, NodeRef, OneIndex, PropagateOneIndex,
    StructuralIndex, UpdateEngine, UpdateOp,
};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_workload::{generate_imdb, generate_xmark, EdgePool, ImdbParams, XmarkParams};

const SEED: u64 = 42;
const SCALE: f64 = 0.05;
/// Churn rounds per dataset: each is two single inserts, two single
/// deletes and one batch.
const ROUNDS: usize = 6;
/// Fragment nodes a batch adds; removed again two rounds later.
const FRAGMENT: usize = 3;

fn datasets() -> Vec<(&'static str, Graph)> {
    vec![
        ("xmark", generate_xmark(&XmarkParams::new(SCALE, 1.0, SEED))),
        ("imdb", generate_imdb(&ImdbParams::new(SCALE, SEED))),
    ]
}

fn engine_over(g: Graph) -> (UpdateEngine, Vec<IndexHandle>) {
    let mut engine = UpdateEngine::new(g);
    let handles = vec![
        engine.register(Box::new(OneIndex::build(engine.graph()))),
        engine.register(Box::new(PropagateOneIndex::build(engine.graph()))),
        engine.register(Box::new(AkIndex::build(engine.graph(), 2))),
        engine.register(Box::new(AkIndex::build(engine.graph(), 3))),
    ];
    (engine, handles)
}

/// Totals over the checked freezes: (frozen blocks, rebuilt blocks).
#[derive(Default)]
struct Tally {
    frozen: usize,
    rebuilt: usize,
}

/// Freezes through the engine and checks every snapshot against a
/// base-less freeze of the same index. The snapshots then replace
/// `held`, so they are the next freeze's base.
fn freeze_and_check(
    engine: &mut UpdateEngine,
    handles: &[IndexHandle],
    tally: &mut Tally,
    what: &str,
    held: &mut Vec<Option<IndexSnapshot>>,
) {
    let snaps = engine.freeze();
    for (&h, snap) in handles.iter().zip(&snaps) {
        let idx = engine.index(h);
        let snap = snap.as_ref().expect("every registered family freezes");
        let full = idx
            .freeze(engine.graph(), None)
            .expect("every registered family freezes");
        let name = idx.describe();
        assert_eq!(*snap, full, "{what}: {name} differs from a full freeze");
        assert!(
            snap.block_ids().eq(full.block_ids()),
            "{what}: {name} block ids"
        );
        assert_eq!(snap.slot_bound(), full.slot_bound(), "{what}: {name}");
        assert_eq!(snap.start_block(), full.start_block(), "{what}: {name}");
        assert_eq!(full.rebuilt_blocks(), full.block_count());
        tally.frozen += snap.block_count();
        tally.rebuilt += snap.rebuilt_blocks();
    }
    *held = snaps;
}

/// One batch: a fresh fragment hung under the root's first child, a
/// pooled insert and delete, and the removal of an earlier fragment.
fn batch(g: &Graph, pool: &mut EdgePool, old_fragment: Option<Vec<NodeId>>) -> Vec<UpdateOp> {
    let anchor = g.succ(g.root()).next().expect("the root has a child");
    let mut ops: Vec<UpdateOp> = (0..FRAGMENT)
        .map(|i| UpdateOp::AddNode {
            label: ["bidder", "date", "increase"][i % 3].into(),
        })
        .collect();
    ops.push(UpdateOp::InsertEdge {
        from: NodeRef::Existing(anchor),
        to: NodeRef::New(0),
        kind: EdgeKind::Child,
    });
    for i in 1..FRAGMENT {
        ops.push(UpdateOp::InsertEdge {
            from: NodeRef::New(0),
            to: NodeRef::New(i),
            kind: EdgeKind::Child,
        });
    }
    if let Some((u, v)) = pool.next_insert() {
        ops.push(UpdateOp::InsertEdge {
            from: NodeRef::Existing(u),
            to: NodeRef::Existing(v),
            kind: EdgeKind::IdRef,
        });
    }
    if let Some((u, v)) = pool.next_delete() {
        ops.push(UpdateOp::DeleteEdge { from: u, to: v });
    }
    for node in old_fragment.into_iter().flatten() {
        ops.push(UpdateOp::RemoveNode { node });
    }
    ops
}

#[test]
fn every_incremental_freeze_equals_a_full_freeze() {
    for (name, mut g) in datasets() {
        let mut pool = EdgePool::extract(&mut g, 0.2, SEED);
        let (mut engine, handles) = engine_over(g);
        let mut tally = Tally::default();
        let mut held = Vec::new();
        freeze_and_check(&mut engine, &handles, &mut tally, name, &mut held);
        assert_eq!(tally.rebuilt, tally.frozen, "the first freeze has no base");
        let first = tally.frozen;
        let mut fragments: Vec<Vec<NodeId>> = Vec::new();
        for round in 0..ROUNDS {
            let what = format!("{name} round {round}");
            for _ in 0..2 {
                if let Some((u, v)) = pool.next_insert() {
                    engine
                        .insert_edge(u, v, EdgeKind::IdRef)
                        .expect("pooled insert");
                    freeze_and_check(&mut engine, &handles, &mut tally, &what, &mut held);
                }
                if let Some((u, v)) = pool.next_delete() {
                    engine.delete_edge(u, v).expect("pooled delete");
                    freeze_and_check(&mut engine, &handles, &mut tally, &what, &mut held);
                }
            }
            let old = (fragments.len() >= 2).then(|| fragments.remove(0));
            let ops = batch(engine.graph(), &mut pool, old);
            let result = engine.apply_batch(&ops).expect("valid batch");
            fragments.push(result.created);
            freeze_and_check(&mut engine, &handles, &mut tally, &what, &mut held);
        }
        let (frozen, rebuilt) = (tally.frozen - first, tally.rebuilt - first);
        assert!(
            rebuilt * 4 < frozen,
            "{name}: incremental freezes rebuilt {rebuilt} of {frozen} blocks"
        );
    }
}

#[test]
fn a_dropped_base_falls_back_to_a_full_freeze() {
    let (_, g) = datasets().swap_remove(0);
    let (mut engine, handles) = engine_over(g);
    let held = engine.freeze();
    let again = engine.freeze();
    for snap in again.iter().flatten() {
        assert_eq!(snap.rebuilt_blocks(), 0, "nothing changed, nothing rebuilt");
    }
    drop((held, again));
    let fresh = engine.freeze();
    for (&h, snap) in handles.iter().zip(fresh.iter().flatten()) {
        assert_eq!(snap.rebuilt_blocks(), snap.block_count(), "no base left");
        let full = engine.index(h).freeze(engine.graph(), None);
        assert_eq!(Some(snap), full.as_ref());
    }
}

/// Freezes `idx` on `base` and asserts that nothing was carried over.
fn assert_ignores(g: &Graph, idx: &dyn StructuralIndex, base: &IndexSnapshot, how: &str) {
    let snap = idx.freeze(g, Some(base)).expect("freezes");
    assert_eq!(
        snap.rebuilt_blocks(),
        snap.block_count(),
        "{}: a base from {how} was reused",
        idx.describe()
    );
    assert_eq!(Some(snap), idx.freeze(g, None));
}

#[test]
fn a_base_from_another_instance_is_never_reused() {
    let (_, g) = datasets().swap_remove(0);
    let originals: Vec<Box<dyn StructuralIndex>> = vec![
        Box::new(OneIndex::build(&g)),
        Box::new(AkIndex::build(&g, 3)),
    ];
    for original in originals {
        let base = original.freeze(&g, None).expect("freezes");
        assert_eq!(
            original.freeze(&g, Some(&base)).map(|s| s.rebuilt_blocks()),
            Some(0),
            "the same instance reuses every block"
        );
        let any = original.as_any();
        let (clone, restored): (Box<dyn StructuralIndex>, Box<dyn StructuralIndex>) =
            if let Some(one) = any.downcast_ref::<OneIndex>() {
                let bytes = one.to_snapshot();
                let restored = OneIndex::from_snapshot(&g, &bytes).expect("round trip");
                (Box::new(one.clone()), Box::new(restored))
            } else {
                let ak = any.downcast_ref::<AkIndex>().expect("an A(k)-index");
                let bytes = ak.to_snapshot();
                let restored = AkIndex::from_snapshot(&g, &bytes).expect("round trip");
                (Box::new(ak.clone()), Box::new(restored))
            };
        assert_ignores(&g, clone.as_ref(), &base, "a clone");
        assert_ignores(&g, restored.as_ref(), &base, "a restore");
        let mut rebuilt = original;
        rebuilt.rebuild(&g);
        assert_ignores(&g, rebuilt.as_ref(), &base, "before a rebuild");
    }
}

#[test]
fn a_policy_rebuild_retires_the_engines_base() {
    let (_, mut g) = datasets().swap_remove(0);
    let mut pool = EdgePool::extract(&mut g, 0.2, SEED);
    let mut engine = UpdateEngine::new(g);
    let h = engine.register_with_policy(Box::new(PropagateOneIndex::build(engine.graph())));
    let mut held = engine.freeze();
    while engine.stats().rebuilds == 0 {
        let (u, v) = pool.next_insert().expect("the pool drifts the index first");
        engine
            .insert_edge(u, v, EdgeKind::IdRef)
            .expect("pooled insert");
        if engine.stats().rebuilds == 0 {
            held = engine.freeze();
        }
    }
    let after = engine.freeze();
    let snap = after[0].as_ref().expect("freezes");
    assert_eq!(snap.rebuilt_blocks(), snap.block_count());
    assert_eq!(
        Some(snap),
        engine.index(h).freeze(engine.graph(), None).as_ref()
    );
    drop(held);
}

#[test]
fn retained_bytes_gauge_equals_the_snapshots_heap_use() {
    let (_, mut g) = datasets().swap_remove(0);
    let mut pool = EdgePool::extract(&mut g, 0.2, SEED);
    let (mut engine, _) = engine_over(g);
    engine.obs_mut().enable_metrics();
    let _held = engine.freeze();
    let (u, v) = pool.next_insert().expect("pooled edge");
    engine
        .insert_edge(u, v, EdgeKind::IdRef)
        .expect("pooled insert");
    let snaps = engine.freeze();
    let m = engine.obs().metrics().expect("metrics enabled");
    for (i, snap) in snaps.iter().enumerate() {
        let snap = snap.as_ref().expect("freezes");
        assert!(
            snap.rebuilt_blocks() < snap.block_count(),
            "built on a base"
        );
        let key = MetricKey::named("snapshot_retained_bytes").family(IndexFamily(i as u16));
        assert_eq!(m.gauge_value(&key), Some(snap.heap_use() as f64));
    }
}
