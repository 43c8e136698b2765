//! Satellite: snapshot isolation — a frozen [`IndexSnapshot`] answers
//! every query byte-identically to the live index at its freeze point,
//! and keeps returning those exact answers while the writer churns the
//! engine underneath it. The copy-on-write discipline is what makes
//! this hold: the writer's next mutation of a frozen block clones that
//! block's extent run instead of mutating the shared one in place.
//!
//! Every freeze point is checked twice:
//!
//! 1. **at freeze** — `eval_index_raw` over the snapshot equals the same
//!    walk over the live family's own query view, exactly as the
//!    in-harness oracle does;
//! 2. **at the end** — after all remaining churn, the snapshot's
//!    answers are byte-identical to what was recorded at freeze time.
//!
//! Runs both acyclic and cyclic churn (back-edges are `IdRef`, like the
//! paper's cyclicity knob), all four registered families.
//!
//! Seed-pinned: rerun one failing case with `XSI_TEST_SEED=<seed>`.

use xsi_core::{
    AkIndex, IndexHandle, IndexSnapshot, OneIndex, PropagateOneIndex, SimpleAkIndex, UpdateEngine,
    UpdateOp,
};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_query::{eval_index_raw, PathExpr};
use xsi_workload::{test_seed, SplitMix64};

const LABELS: [&str; 4] = ["a", "b", "c", "d"];
const K: usize = 2;
const SLOTS: [&str; 4] = ["1-index", "propagate", "ak", "simple"];

/// Per-slot, per-query sorted answers recorded at a freeze instant.
type AtFreeze = Vec<Vec<Vec<NodeId>>>;

/// Random root-reachable base graph; cyclic when asked.
fn random_base(rng: &mut SplitMix64, cyclic: bool) -> (Graph, Vec<NodeId>) {
    let mut g = Graph::new();
    let mut handles = vec![g.root()];
    let n_nodes = rng.random_range(4..12usize);
    for i in 0..n_nodes {
        let l = LABELS[rng.random_range(0..LABELS.len())];
        let n = g.add_node(l, None);
        let p = handles[rng.random_range(0..=i)];
        g.insert_edge(p, n, EdgeKind::Child).unwrap();
        handles.push(n);
    }
    for _ in 0..rng.random_range(2..8usize) {
        let (mut i, mut j) = (
            rng.random_range(0..handles.len()),
            rng.random_range(1..handles.len()),
        );
        if !cyclic && i > j {
            std::mem::swap(&mut i, &mut j);
        }
        if i == j {
            continue;
        }
        let kind = if i > j {
            EdgeKind::IdRef
        } else {
            EdgeKind::Child
        };
        let _ = g.insert_edge(handles[i], handles[j], kind);
    }
    (g, handles)
}

/// One random engine mutation (the same mix the query-equivalence suite
/// churns with, taken a single step at a time so freezes interleave).
fn churn_step(engine: &mut UpdateEngine, handles: &mut Vec<NodeId>, rng: &mut SplitMix64) {
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
}

/// Predicate-free random query (the raw block walk needs no validation
/// pass, and both sides of every comparison run the identical walk).
fn random_query(rng: &mut SplitMix64) -> String {
    let steps = rng.random_range(1..=3usize);
    let mut q = String::new();
    for _ in 0..steps {
        q.push_str(if rng.random_bool(0.35) { "//" } else { "/" });
        if rng.random_bool(0.2) {
            q.push('*');
        } else {
            q.push_str(LABELS[rng.random_range(0..LABELS.len())]);
        }
    }
    q
}

/// The live-side raw answers for slot `slot`: the family's own query
/// view, mirroring the conformance harness's at-freeze oracle.
fn live_raw(
    engine: &UpdateEngine,
    handles: &[IndexHandle; 4],
    slot: usize,
    expr: &PathExpr,
) -> Vec<NodeId> {
    let g = engine.graph();
    eval_index_raw(&*engine.index(handles[slot]).query_view(g), expr)
}

#[test]
fn frozen_views_answer_identically_under_churn() {
    let base = test_seed(0xF5EE);
    let mut saw_cow_clone = false;
    for case in 0..30u64 {
        let case = base.wrapping_add(case); // replay one case: XSI_TEST_SEED=<case>
        let mut rng = SplitMix64::seed_from_u64(case);
        let cyclic = case % 2 == 1;
        let (g0, mut handles) = random_base(&mut rng, cyclic);

        let mut engine = UpdateEngine::new(g0.clone());
        let hs = [
            engine.register(Box::new(OneIndex::build(&g0))),
            engine.register(Box::new(PropagateOneIndex::build(&g0))),
            engine.register(Box::new(AkIndex::build(&g0, K))),
            engine.register(Box::new(SimpleAkIndex::build(&g0, K))),
        ];

        let exprs: Vec<PathExpr> = (0..5)
            .map(|_| {
                let q = random_query(&mut rng);
                PathExpr::parse(&q).unwrap_or_else(|e| panic!("seed {case:#x}: {q:?}: {e}"))
            })
            .collect();

        // Interleave churn with freeze points; remember every frozen
        // view together with the answers it gave at its freeze instant.
        let mut held: Vec<(Vec<IndexSnapshot>, AtFreeze)> = Vec::new();
        for step in 0..32usize {
            churn_step(&mut engine, &mut handles, &mut rng);
            if step % 8 != 7 {
                continue;
            }
            let snaps: Vec<IndexSnapshot> = engine
                .freeze()
                .into_iter()
                .map(|s| s.expect("every registered family freezes"))
                .collect();
            let mut at_freeze: AtFreeze = Vec::new();
            for (slot, snap) in snaps.iter().enumerate() {
                let per_query: Vec<Vec<NodeId>> = exprs
                    .iter()
                    .map(|expr| {
                        let frozen = eval_index_raw(snap, expr);
                        let live = live_raw(&engine, &hs, slot, expr);
                        assert_eq!(
                            frozen, live,
                            "seed {case:#x} step {step}: {} frozen view disagrees \
                             with the live index at the freeze point on {expr}",
                            SLOTS[slot]
                        );
                        frozen
                    })
                    .collect();
                at_freeze.push(per_query);
            }
            held.push((snaps, at_freeze));
        }
        assert!(!held.is_empty());

        // All churn is done; every snapshot held across it must still
        // answer byte-identically to what it answered when frozen.
        for (fp, (snaps, at_freeze)) in held.iter().enumerate() {
            for (slot, snap) in snaps.iter().enumerate() {
                for (qi, expr) in exprs.iter().enumerate() {
                    assert_eq!(
                        eval_index_raw(snap, expr),
                        at_freeze[slot][qi],
                        "seed {case:#x} freeze {fp}: writer churn leaked into the \
                         frozen {} view on {expr}",
                        SLOTS[slot]
                    );
                }
            }
        }

        // The isolation above must come from copy-on-write actually
        // firing somewhere, not from a workload too tame to collide
        // with a frozen run.
        for h in hs {
            if engine.index(h).cow_clones() > 0 {
                saw_cow_clone = true;
            }
        }
    }
    assert!(
        saw_cow_clone,
        "workload too tame: no writer mutation ever hit a frozen extent run"
    );
}
