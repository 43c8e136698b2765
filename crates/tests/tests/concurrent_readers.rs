//! Satellite: concurrent readers — a writer thread churns the
//! [`UpdateEngine`] and rotates Arc-shared frozen bundles while ≥ 4
//! reader threads continuously re-evaluate queries over whichever
//! bundle is current. Every bundle carries the answers recorded at its
//! freeze instant, so a reader detecting any drift proves the writer's
//! copy-on-write mutations leaked into a shared extent run.
//!
//! [`IndexSnapshot`] is plain owned data behind `Arc`s (`Send + Sync`),
//! so no locking guards the snapshots themselves — only the rotation
//! slot is behind an `RwLock`. A reader panic (stale data, poisoned
//! lock, anything) fails the test through the join handle.
//!
//! Deterministic workload (seed-pinned via `XSI_TEST_SEED`), time-boxed
//! writer, and every reader must get through at least one full check.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use xsi_core::{
    AkIndex, IndexSnapshot, OneIndex, PropagateOneIndex, SimpleAkIndex, UpdateEngine, UpdateOp,
};
use xsi_graph::{EdgeKind, NodeId};
use xsi_query::{eval_index_raw, PathExpr};
use xsi_workload::{test_seed, SplitMix64};

const LABELS: [&str; 4] = ["a", "b", "c", "d"];
const K: usize = 2;
const READERS: usize = 4;
const QUERIES: [&str; 5] = ["/a", "//b", "/a/b", "//c//*", "//d/a"];

/// One rotation: the four family snapshots plus the raw answers each
/// gave at the freeze instant, `expected[slot][query]`.
struct FreezeBundle {
    id: usize,
    snaps: Vec<IndexSnapshot>,
    expected: Vec<Vec<Vec<NodeId>>>,
}

fn freeze_bundle(engine: &mut UpdateEngine, id: usize, exprs: &[PathExpr]) -> FreezeBundle {
    let snaps: Vec<IndexSnapshot> = engine
        .freeze()
        .into_iter()
        .map(|s| s.expect("every registered family freezes"))
        .collect();
    let expected = snaps
        .iter()
        .map(|snap| exprs.iter().map(|e| eval_index_raw(snap, e)).collect())
        .collect();
    FreezeBundle {
        id,
        snaps,
        expected,
    }
}

#[test]
fn frozen_views_survive_concurrent_writer_churn() {
    let seed = test_seed(0xC0C0);
    let mut rng = SplitMix64::seed_from_u64(seed);

    // Base graph: root + a spray of labelled children, so the families
    // start with shared multi-node extent runs for churn to split.
    let mut g = xsi_graph::Graph::new();
    let mut handles = vec![g.root()];
    for i in 0..16usize {
        let n = g.add_node(LABELS[i % LABELS.len()], None);
        let p = handles[rng.random_range(0..handles.len())];
        g.insert_edge(p, n, EdgeKind::Child).unwrap();
        handles.push(n);
    }

    let mut engine = UpdateEngine::new(g.clone());
    engine.register(Box::new(OneIndex::build(&g)));
    engine.register(Box::new(PropagateOneIndex::build(&g)));
    engine.register(Box::new(AkIndex::build(&g, K)));
    engine.register(Box::new(SimpleAkIndex::build(&g, K)));

    let exprs: Vec<PathExpr> = QUERIES
        .iter()
        .map(|q| PathExpr::parse(q).unwrap())
        .collect();

    // Publish an initial bundle before any reader starts, so every
    // reader is guaranteed at least one full check.
    let current: Arc<RwLock<Arc<FreezeBundle>>> =
        Arc::new(RwLock::new(Arc::new(freeze_bundle(&mut engine, 0, &exprs))));
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let current = Arc::clone(&current);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let exprs: Vec<PathExpr> = QUERIES
                    .iter()
                    .map(|q| PathExpr::parse(q).unwrap())
                    .collect();
                let mut checks = 0usize;
                let mut last_seen;
                loop {
                    let stop_after = done.load(Ordering::Acquire);
                    let bundle = Arc::clone(&current.read().unwrap());
                    for (slot, snap) in bundle.snaps.iter().enumerate() {
                        for (qi, expr) in exprs.iter().enumerate() {
                            assert_eq!(
                                eval_index_raw(snap, expr),
                                bundle.expected[slot][qi],
                                "reader {r}: bundle {} slot {slot} drifted on {expr} \
                                 while the writer churned",
                                bundle.id
                            );
                        }
                    }
                    checks += 1;
                    last_seen = bundle.id;
                    if stop_after {
                        break;
                    }
                }
                (checks, last_seen)
            })
        })
        .collect();

    // Writer: random churn, freezing + rotating the bundle every few
    // ops. Time-boxed so a scheduling hiccup can't hang the suite.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut published = 0usize;
    for step in 0..400usize {
        match rng.random_range(0..8usize) {
            0 => {
                let l = LABELS[rng.random_range(0..LABELS.len())];
                handles.push(engine.add_node(l, None));
            }
            1..=4 => {
                let u = handles[rng.random_range(0..handles.len())];
                let v = handles[rng.random_range(0..handles.len())];
                let kind = if rng.random_bool(0.4) {
                    EdgeKind::IdRef
                } else {
                    EdgeKind::Child
                };
                let _ = engine.insert_edge(u, v, kind);
            }
            5 | 6 => {
                let u = handles[rng.random_range(0..handles.len())];
                let v = handles[rng.random_range(0..handles.len())];
                let _ = engine.delete_edge(u, v);
            }
            _ => {
                let n = handles[rng.random_range(0..handles.len())];
                if engine.apply(&UpdateOp::RemoveNode { node: n }).is_ok() {
                    handles.retain(|&h| h != n);
                }
            }
        }
        handles.retain(|&h| engine.graph().is_alive(h));
        if step % 10 == 9 {
            published += 1;
            let bundle = Arc::new(freeze_bundle(&mut engine, published, &exprs));
            *current.write().unwrap() = bundle;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    done.store(true, Ordering::Release);

    let mut total_checks = 0usize;
    for (r, h) in readers.into_iter().enumerate() {
        let (checks, last_seen) = h.join().unwrap_or_else(|_| {
            panic!("reader {r} panicked: a frozen view drifted under writer churn")
        });
        assert!(checks > 0, "reader {r} never completed a check");
        assert!(
            last_seen <= published,
            "reader {r} saw an impossible bundle"
        );
        total_checks += checks;
    }
    assert!(published >= 10, "writer only rotated {published} bundles");
    assert!(
        total_checks >= READERS,
        "readers only completed {total_checks} checks"
    );
}
