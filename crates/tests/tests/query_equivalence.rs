//! Satellite: query-equivalence — for every index family, evaluating a
//! random path expression through [`xsi_query::eval_index`] over the
//! family's [`IndexQueryView`] returns exactly the naive data-graph
//! answer, on graphs that have been churned through the [`UpdateEngine`]
//! first (so the views reflect *maintained* state, not fresh builds).
//!
//! Families and why their views are exact:
//!
//! * `OneIndex` — bisimulation quotient: every linear path is precise;
//!   predicated paths trigger the validation pass.
//! * `PropagateOneIndex` — drifts from minimality but stays a *valid*
//!   refinement, and any valid 1-index answers linear paths exactly.
//! * `AkIndex` — precise up to `k`; longer paths and predicates are
//!   validated by `eval_index` automatically.
//! * `SimpleAkIndex` — keeps extents only; its view is the block graph
//!   its class assignment induces, with horizon `Some(k)`, sound because
//!   the baseline is always a refinement of the true A(k) partition.
//!
//! Seed-pinned: rerun one failing case with `XSI_TEST_SEED=<seed>`.

use xsi_core::{AkIndex, OneIndex, PropagateOneIndex, SimpleAkIndex, UpdateEngine, UpdateOp};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_query::{eval_graph, eval_index, PathExpr};
use xsi_workload::{test_seed, SplitMix64};

const LABELS: [&str; 4] = ["a", "b", "c", "d"];
const K: usize = 2;

/// Random root-reachable base graph; cyclic when asked (back-edges are
/// `IdRef`, like the paper's cyclicity knob).
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
    for _ in 0..rng.random_range(2..10usize) {
        let (mut i, mut j) = (
            rng.random_range(0..handles.len()),
            rng.random_range(1..handles.len()),
        );
        if !cyclic && i > j {
            std::mem::swap(&mut i, &mut j); // forward edges keep it acyclic
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

/// Churn the engine (and its registered indexes) with random edge flips
/// and node adds so the maintained views are genuinely post-update state.
fn churn(engine: &mut UpdateEngine, handles: &mut Vec<NodeId>, rng: &mut SplitMix64) {
    for _ in 0..24 {
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
    }
    handles.retain(|&h| engine.graph().is_alive(h));
}

/// Random query: 1–3 steps, `/`/`//` axes, labels or `*`, and an
/// occasional existence predicate to force the validation pass.
fn random_query(rng: &mut SplitMix64) -> String {
    let steps = rng.random_range(1..=3usize);
    let mut q = String::new();
    for s in 0..steps {
        q.push_str(if rng.random_bool(0.35) { "//" } else { "/" });
        if rng.random_bool(0.2) {
            q.push('*');
        } else {
            q.push_str(LABELS[rng.random_range(0..LABELS.len())]);
        }
        if s == 0 && rng.random_bool(0.25) {
            q.push('[');
            q.push_str(LABELS[rng.random_range(0..LABELS.len())]);
            q.push(']');
        }
    }
    q
}

#[test]
fn index_query_views_agree_with_naive_evaluation() {
    let base = test_seed(0x9E41);
    for case in 0..40u64 {
        let case = base.wrapping_add(case); // replay one case: XSI_TEST_SEED=<case>
        let mut rng = SplitMix64::seed_from_u64(case);
        let (g0, mut handles) = random_base(&mut rng, case % 2 == 1);

        let mut engine = UpdateEngine::new(g0.clone());
        let h_one = engine.register(Box::new(OneIndex::build(&g0)));
        let h_prop = engine.register(Box::new(PropagateOneIndex::build(&g0)));
        let h_ak = engine.register(Box::new(AkIndex::build(&g0, K)));
        let h_simple = engine.register(Box::new(SimpleAkIndex::build(&g0, K)));
        churn(&mut engine, &mut handles, &mut rng);

        let queries: Vec<PathExpr> = (0..6)
            .map(|_| {
                let q = random_query(&mut rng);
                PathExpr::parse(&q).unwrap_or_else(|e| panic!("seed {case:#x}: {q:?}: {e}"))
            })
            .collect();

        let g = engine.graph();
        for expr in &queries {
            let truth = eval_graph(g, expr);
            for h in [h_one, h_prop, h_ak, h_simple] {
                let idx = engine.index(h);
                assert_eq!(
                    eval_index(g, &*idx.query_view(g), expr),
                    truth,
                    "seed {case:#x}: {} disagrees on {expr}",
                    idx.describe()
                );
            }
        }
    }
}

/// The drifted propagate baseline (strictly more blocks than the
/// minimum) still answers queries exactly: validity, not minimality, is
/// what query correctness rests on.
#[test]
fn drifted_propagate_index_still_answers_exactly() {
    let base = test_seed(0xD21F);
    let mut saw_drift = 0usize;
    for case in 0..24u64 {
        let case = base.wrapping_add(case);
        let mut rng = SplitMix64::seed_from_u64(case);
        let (g0, mut handles) = random_base(&mut rng, true);
        let mut engine = UpdateEngine::new(g0.clone());
        let h_prop = engine.register(Box::new(PropagateOneIndex::build(&g0)));
        churn(&mut engine, &mut handles, &mut rng);

        let g = engine.graph();
        let prop = engine.index(h_prop);
        if prop.block_count() > prop.minimum_block_count(g) {
            saw_drift += 1;
        }
        for _ in 0..6 {
            let q = random_query(&mut rng);
            let expr = PathExpr::parse(&q).unwrap();
            assert_eq!(
                eval_index(g, &*prop.query_view(g), &expr),
                eval_graph(g, &expr),
                "seed {case:#x}: drifted propagate disagrees on {q}"
            );
        }
    }
    assert!(
        saw_drift >= 4,
        "workload too tame: only {saw_drift} drifted cases"
    );
}
