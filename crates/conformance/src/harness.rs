//! The differential oracle harness: run one [`Scenario`] and convict
//! the first divergence.
//!
//! All four index families are registered in one [`UpdateEngine`] and
//! observe the same mutation stream; after **every** applied operation
//! the harness cross-examines them against independent oracles (see
//! crate docs for the soundness argument behind each check):
//!
//! | check               | applies to        | oracle                              |
//! |---------------------|-------------------|-------------------------------------|
//! | `graph-consistency` | the data graph    | `Graph::check_consistency`          |
//! | `engine-check`      | every index       | `StructuralIndex::check` (validity) |
//! | `one-minimality`    | split/merge 1-idx | Definition 5 (`check.rs`), any graph|
//! | `one-exact-acyclic` | split/merge 1-idx | naive bisimulation, acyclic only    |
//! | `one-bounds`        | split/merge 1-idx | minimum ≤ blocks ≤ nodes            |
//! | `prop-bounds`       | propagate 1-idx   | minimum ≤ blocks ≤ nodes            |
//! | `ak-exact`          | A(k) split/merge  | fresh rebuild, any graph (Thm 2)    |
//! | `ak-chain-oracle`   | A(k) split/merge  | naive k-bisim chain, any graph      |
//! | `simple-refinement` | simple A(k)       | refines exact k-bisim classes       |
//! | `query-*`           | every view        | naive data-graph evaluation         |
//! | `freeze-live-*`     | every frozen view | live view at the freeze point       |
//! | `freeze-replay-*`   | every frozen view | replica replayed to the freeze point|
//! | `final-*`           | every index       | rebuild restores the minimum        |
//!
//! The `Freeze` scenario op freezes every registered index into an
//! in-memory [`xsi_core::IndexSnapshot`]. Frozen views are validated
//! twice: immediately (their raw query answers must match the live
//! views'), and again at the *end* of the run — after arbitrary write
//! churn — against a replica engine replayed to the same op prefix
//! (`freeze-replay`: snapshot content equality plus query-answer
//! equality). Together these prove snapshot isolation: the writer's
//! post-freeze mutations never leak into a frozen view.
//!
//! Panics anywhere in the pipeline (including the engine's own
//! `paranoid`-feature self-checks) are caught per-operation and turned
//! into ordinary, shrinkable [`Failure`]s.

use crate::fault::{one_index_canonical, one_index_partition, FaultyOneIndex};
use crate::scenario::{Scenario, ScenarioOp};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use xsi_core::obs::{LabeledSpan, SpanKind, SpanLabel, SpanRecord};
use xsi_core::{
    check, reference, AkIndex, FlightRecorder, IndexHandle, IndexSnapshot, NodeRef, OneIndex,
    PropagateOneIndex, SimpleAkIndex, StructuralIndex, UpdateEngine, UpdateOp,
};
use xsi_graph::{is_acyclic, EdgeKind, Graph, NodeId};
use xsi_query::{eval_graph, eval_index, eval_index_raw, PathExpr};

/// A convicted divergence: which step (by op index; `None` for the
/// final rebuild phase), which check, and the oracle's explanation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// Index into `Scenario::ops` of the op whose checks failed, or
    /// `None` when the final rebuild phase failed.
    pub step: Option<usize>,
    /// Stable check name (`one-minimality`, `panic`, `query-ak`, …).
    pub check: String,
    /// Human-readable detail from the oracle.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.step {
            Some(i) => write!(f, "[op {i}] {}: {}", self.check, self.detail),
            None => write!(f, "[final] {}: {}", self.check, self.detail),
        }
    }
}

/// Summary of a passing run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Ops that mutated the graph.
    pub applied: usize,
    /// Ops skipped by the deterministic applicability rules.
    pub skipped: usize,
    /// Total oracle check passes executed.
    pub checks: usize,
}

struct Handles {
    one: IndexHandle,
    prop: IndexHandle,
    ak: IndexHandle,
    simple: IndexHandle,
}

/// How many flight-recorder records a traced run retains (and therefore
/// how many `trace` lines a reproducer can carry).
pub const TRACE_CAP: usize = 256;

/// Runs `scenario` end to end. `Ok` means every per-op and final oracle
/// agreed; `Err` carries the first divergence.
pub fn run_scenario(scenario: &Scenario) -> Result<RunReport, Failure> {
    run_scenario_impl(scenario, false).0
}

/// Like [`run_scenario`], but with the engine's flight recorder enabled
/// ([`TRACE_CAP`] records). Returns the run outcome together with the
/// engine's own account of the tail of the run: the retained records'
/// deterministic [`stable_line`](xsi_core::obs::event::stable_line)
/// projections (timestamps excluded), oldest first. The trace is
/// captured just before the final rebuild phase — on a conviction it
/// ends with the `OracleCheck ... failed=true` record for the failing
/// op — and is byte-identical across replays of the same scenario.
pub fn run_scenario_traced(scenario: &Scenario) -> (Result<RunReport, Failure>, Vec<String>) {
    run_scenario_impl(scenario, true)
}

/// Builds the lab engine for a scenario: base graph, handle list, all
/// four families registered (slot 0 possibly fault-injected). Shared by
/// the main run and the freeze oracle's prefix replicas, so both evolve
/// bit-identically from the same op stream.
fn build_lab_engine(scenario: &Scenario, traced: bool) -> (UpdateEngine, Vec<NodeId>, Handles) {
    let mut g = Graph::new();
    let mut handles: Vec<NodeId> = vec![g.root()];
    for label in &scenario.base_labels {
        handles.push(g.add_node(label, None));
    }
    for &(u, v, kind) in &scenario.base_edges {
        if u < handles.len() && v < handles.len() && u != v {
            // Tolerate (skip) edges the graph rejects so hand-edited
            // replay files degrade deterministically instead of erroring.
            let _ = g.insert_edge(handles[u], handles[v], kind);
        }
    }
    let one: Box<dyn StructuralIndex> = match scenario.fault {
        Some(fault) => Box::new(FaultyOneIndex::build(&g, fault)),
        None => Box::new(OneIndex::build(&g)),
    };
    let prop = PropagateOneIndex::build(&g);
    let ak = AkIndex::build(&g, scenario.k);
    let simple = SimpleAkIndex::build(&g, scenario.k);

    let mut engine = UpdateEngine::new(g);
    if traced {
        engine
            .obs_mut()
            .set_recorder(Box::new(FlightRecorder::new(TRACE_CAP)));
    }
    let hs = Handles {
        one: engine.register(one),
        prop: engine.register(Box::new(prop)),
        ak: engine.register(Box::new(ak)),
        simple: engine.register(Box::new(simple)),
    };
    (engine, handles, hs)
}

/// Applies one scenario op to the engine (translate → batch), keeping
/// the handle list in sync. Returns whether the graph was mutated;
/// `Freeze` and deterministically inapplicable ops return `false`.
fn apply_scenario_op(
    engine: &mut UpdateEngine,
    handles: &mut Vec<NodeId>,
    op: &ScenarioOp,
) -> bool {
    let Some(batch) = translate(op, handles, engine.graph()) else {
        return false;
    };
    match engine.apply_batch(&batch) {
        Ok(result) => {
            handles.retain(|&h| engine.graph().is_alive(h));
            handles.extend(result.created);
            true
        }
        // Structurally rejected batches leave all state untouched; count
        // them as (deterministic) skips.
        Err(_) => false,
    }
}

fn run_scenario_impl(
    scenario: &Scenario,
    traced: bool,
) -> (Result<RunReport, Failure>, Vec<String>) {
    let queries: Vec<(String, PathExpr)> = scenario
        .queries
        .iter()
        .filter_map(|q| PathExpr::parse(q).ok().map(|e| (q.clone(), e)))
        .collect();
    let (mut engine, mut handles, hs) = build_lab_engine(scenario, traced);

    let mut report = RunReport::default();
    // Frozen views captured at `Freeze` ops, held across all subsequent
    // churn: (op index, per-slot snapshots in registration order).
    let mut frozen: Vec<(usize, Vec<Option<IndexSnapshot>>)> = Vec::new();

    for (i, op) in scenario.ops.iter().enumerate() {
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<bool, Failure> {
            if matches!(op, ScenarioOp::Freeze) {
                let snaps = engine.freeze();
                let checks = check_freeze_live(&engine, &hs, &queries, &snaps).map_err(
                    |(check, detail)| Failure {
                        step: Some(i),
                        check,
                        detail,
                    },
                )?;
                report.checks += checks;
                frozen.push((i, snaps));
                return Ok(true);
            }
            if !apply_scenario_op(&mut engine, &mut handles, op) {
                return Ok(false);
            }
            let checks =
                check_all(&engine, &hs, scenario.k, &queries).map_err(|(check, detail)| {
                    Failure {
                        step: Some(i),
                        check,
                        detail,
                    }
                })?;
            report.checks += checks;
            Ok(true)
        }));
        // One OracleCheck record per attempted op (skips included): the
        // reproducer trace shows exactly how far the oracles got.
        // Built here, not opened as a span: it carries no timestamp.
        engine.obs_mut().record(&LabeledSpan {
            span: SpanRecord::new(SpanKind::OracleCheck),
            label: SpanLabel::Oracle {
                checks: report.checks as u64,
                failed: !matches!(outcome, Ok(Ok(_))),
            },
        });
        match outcome {
            Ok(Ok(true)) => report.applied += 1,
            Ok(Ok(false)) => report.skipped += 1,
            Ok(Err(failure)) => {
                let trace = engine.obs().stable_trace();
                return (Err(failure), trace);
            }
            Err(payload) => {
                let trace = engine.obs().stable_trace();
                return (
                    Err(Failure {
                        step: Some(i),
                        check: "panic".into(),
                        detail: panic_message(payload),
                    }),
                    trace,
                );
            }
        }
    }

    // The final phase consumes the engine; snapshot the trace first.
    let trace = engine.obs().stable_trace();

    // Freeze oracle: every view frozen mid-run must — after all the
    // churn above — still equal a replica index replayed to its freeze
    // point, in content and in query answers (snapshot isolation).
    for (i, snaps) in &frozen {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            check_freeze_replay(scenario, *i, snaps, &queries)
        }));
        match outcome {
            Ok(Ok(checks)) => report.checks += checks,
            Ok(Err((check, detail))) => {
                return (
                    Err(Failure {
                        step: Some(*i),
                        check,
                        detail,
                    }),
                    trace,
                );
            }
            Err(payload) => {
                return (
                    Err(Failure {
                        step: Some(*i),
                        check: "panic".into(),
                        detail: panic_message(payload),
                    }),
                    trace,
                );
            }
        }
    }

    // Final phase: rebuild must restore the family minimum everywhere.
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<usize, Failure> {
        final_checks(engine).map_err(|(check, detail)| Failure {
            step: None,
            check,
            detail,
        })
    }));
    let result = match outcome {
        Ok(Ok(checks)) => {
            report.checks += checks;
            Ok(report)
        }
        Ok(Err(failure)) => Err(failure),
        Err(payload) => Err(Failure {
            step: None,
            check: "panic".into(),
            detail: panic_message(payload),
        }),
    };
    (result, trace)
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Lowers a [`ScenarioOp`] to an engine batch, or `None` when the op is
/// deterministically inapplicable in the current state (see the
/// scenario module docs for the rules).
fn translate(op: &ScenarioOp, handles: &[NodeId], g: &Graph) -> Option<Vec<UpdateOp>> {
    let resolve = |raw: usize| handles[raw % handles.len()];
    match op {
        ScenarioOp::AddNode { label } => Some(vec![UpdateOp::AddNode {
            label: label.clone(),
        }]),
        ScenarioOp::InsertEdge { from, to, kind } => {
            let (u, v) = (resolve(*from), resolve(*to));
            if u == v || v == g.root() || g.has_edge(u, v) {
                return None;
            }
            Some(vec![UpdateOp::InsertEdge {
                from: NodeRef::Existing(u),
                to: NodeRef::Existing(v),
                kind: *kind,
            }])
        }
        ScenarioOp::DeleteEdge { from, to } => {
            let (u, v) = (resolve(*from), resolve(*to));
            if !g.has_edge(u, v) {
                return None;
            }
            Some(vec![UpdateOp::DeleteEdge { from: u, to: v }])
        }
        ScenarioOp::RemoveNode { node } => {
            let n = resolve(*node);
            if n == g.root() {
                return None;
            }
            Some(vec![UpdateOp::RemoveNode { node: n }])
        }
        ScenarioOp::AddSubtree { parent, nodes } => {
            let p = resolve(*parent);
            let mut batch: Vec<UpdateOp> = nodes
                .iter()
                .map(|(label, _)| UpdateOp::AddNode {
                    label: label.clone(),
                })
                .collect();
            for (i, (_, local_parent)) in nodes.iter().enumerate() {
                let from = if i == 0 {
                    NodeRef::Existing(p)
                } else {
                    NodeRef::New(*local_parent)
                };
                batch.push(UpdateOp::InsertEdge {
                    from,
                    to: NodeRef::New(i),
                    kind: EdgeKind::Child,
                });
            }
            Some(batch)
        }
        ScenarioOp::RemoveSubtree { root } => {
            let r = resolve(*root);
            if r == g.root() {
                return None;
            }
            // Child-reachable closure (the paper's subtree extraction
            // follows containment edges only).
            let mut seen: HashSet<NodeId> = HashSet::new();
            let mut order = vec![r];
            seen.insert(r);
            let mut head = 0;
            while head < order.len() {
                let u = order[head];
                head += 1;
                for (v, kind) in g.succ_with_kind(u) {
                    if kind == EdgeKind::Child && seen.insert(v) {
                        order.push(v);
                    }
                }
            }
            Some(
                order
                    .into_iter()
                    .map(|node| UpdateOp::RemoveNode { node })
                    .collect(),
            )
        }
        // Freeze never mutates the graph; the op loop handles it before
        // translation (and prefix replicas simply skip it).
        ScenarioOp::Freeze => None,
    }
}

/// All per-op oracle checks; returns the number of checks that passed.
fn check_all(
    engine: &UpdateEngine,
    hs: &Handles,
    k: usize,
    queries: &[(String, PathExpr)],
) -> Result<usize, (String, String)> {
    let mut passed = 0usize;
    let g = engine.graph();

    g.check_consistency()
        .map_err(|e| ("graph-consistency".to_string(), e))?;
    passed += 1;
    engine
        .check()
        .map_err(|e| ("engine-check".to_string(), e))?;
    passed += 1;

    let bisim = reference::bisim_classes(g);
    let minimum = reference::partition_size(g, &bisim);
    let nodes = g.node_count();
    let acyclic = is_acyclic(g);

    // --- split/merge 1-index slot (possibly fault-injected) ---
    let one = engine.index(hs.one);
    let partition = one_index_partition(one).expect("slot 0 holds a 1-index family object");
    if let Some(v) = check::minimality_violation(g, partition) {
        return Err(("one-minimality".into(), v));
    }
    passed += 1;
    let blocks = one.block_count();
    if blocks < minimum || blocks > nodes {
        return Err((
            "one-bounds".into(),
            format!("{blocks} blocks outside [{minimum}, {nodes}]"),
        ));
    }
    passed += 1;
    if acyclic {
        let canon = one_index_canonical(one).expect("1-index family object");
        let expected = reference::canonical_partition(g, &bisim);
        if canon != expected {
            return Err((
                "one-exact-acyclic".into(),
                format!(
                    "maintained partition ({} blocks) != bisimulation oracle ({} blocks)",
                    canon.len(),
                    expected.len()
                ),
            ));
        }
        passed += 1;
    }

    // --- propagate baseline: valid (engine-check) + size-bounded ---
    let prop_blocks = engine.index(hs.prop).block_count();
    if prop_blocks < minimum || prop_blocks > nodes {
        return Err((
            "prop-bounds".into(),
            format!("{prop_blocks} blocks outside [{minimum}, {nodes}]"),
        ));
    }
    passed += 1;

    // --- A(k) split/merge: exact on ANY graph (Theorem 2) ---
    let ak = engine
        .index(hs.ak)
        .as_any()
        .downcast_ref::<AkIndex>()
        .expect("slot 2 holds the A(k)-index");
    let fresh = AkIndex::build(g, k);
    if ak.canonical() != fresh.canonical() {
        return Err((
            "ak-exact".into(),
            format!(
                "maintained A({k}) has {} blocks, fresh build {}",
                ak.block_count(),
                fresh.block_count()
            ),
        ));
    }
    passed += 1;
    let chain = ak.chain_assignments(g);
    let ref_chain = reference::k_bisim_chain(g, k);
    for (level, (got, want)) in chain.iter().zip(ref_chain.iter()).enumerate() {
        if reference::canonical_partition(g, got) != reference::canonical_partition(g, want) {
            return Err((
                "ak-chain-oracle".into(),
                format!("A({level}) level disagrees with the naive k-bisimulation chain"),
            ));
        }
    }
    passed += 1;

    // --- simple baseline: must refine the exact k-bisim classes ---
    let simple = engine
        .index(hs.simple)
        .as_any()
        .downcast_ref::<SimpleAkIndex>()
        .expect("slot 3 holds the simple A(k) baseline");
    let assignment = simple.assignment(g);
    let exact = ref_chain.last().expect("chain has k+1 levels");
    let mut class_map: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for n in g.nodes() {
        let (s, e) = (assignment[n.index()], exact[n.index()]);
        match class_map.insert(s, e) {
            Some(prev) if prev != e => {
                return Err((
                    "simple-refinement".into(),
                    format!("simple class {s} straddles exact k-bisim classes {prev} and {e}"),
                ));
            }
            _ => {}
        }
    }
    passed += 1;

    // --- query agreement across every view ---
    let views = [hs.one, hs.prop, hs.ak, hs.simple].map(|h| engine.index(h).query_view(g));
    for (text, expr) in queries {
        let mut expected = eval_graph(g, expr);
        expected.sort_unstable();
        expected.dedup();
        for (name, view) in SLOT_NAMES.iter().zip(&views) {
            let mut got = eval_index(g, view.as_ref(), expr);
            got.sort_unstable();
            got.dedup();
            if got != expected {
                return Err((
                    format!("query-{name}"),
                    format!(
                        "{text}: index answered {} nodes, data graph {}",
                        got.len(),
                        expected.len()
                    ),
                ));
            }
            passed += 1;
        }
    }

    Ok(passed)
}

/// Registration-order slot names for freeze-check conviction messages.
const SLOT_NAMES: [&str; 4] = ["one", "prop", "ak", "simple"];

/// At-freeze validation: every frozen view's *raw* (graph-free) query
/// answers must match the corresponding live view's raw answers at the
/// freeze point. Returns the number of checks that passed.
fn check_freeze_live(
    engine: &UpdateEngine,
    hs: &Handles,
    queries: &[(String, PathExpr)],
    snaps: &[Option<IndexSnapshot>],
) -> Result<usize, (String, String)> {
    let mut passed = 0usize;
    let g = engine.graph();
    let slots = [hs.one, hs.prop, hs.ak, hs.simple];
    for (slot, (&handle, name)) in slots.iter().zip(SLOT_NAMES).enumerate() {
        let Some(snap) = snaps.get(slot).and_then(Option::as_ref) else {
            continue;
        };
        if snap.block_count() == 0 {
            return Err((
                format!("freeze-live-{name}"),
                "frozen view has no blocks".into(),
            ));
        }
        passed += 1;
        // The live reference view: the index's own query view (faulty
        // slot-0 indexes expose their inner view).
        let live = engine.index(handle).query_view(g);
        for (text, expr) in queries {
            let frozen_ans = eval_index_raw(snap, expr);
            let live_ans = eval_index_raw(live.as_ref(), expr);
            if frozen_ans != live_ans {
                return Err((
                    format!("freeze-live-{name}"),
                    format!(
                        "{text}: frozen view answered {} nodes, live view {}",
                        frozen_ans.len(),
                        live_ans.len()
                    ),
                ));
            }
            passed += 1;
        }
    }
    Ok(passed)
}

/// End-of-run freeze oracle: replays a fresh replica engine to the
/// freeze point (same base graph, same families, same fault, `Freeze`
/// prefix ops skipped), freezes it, and demands (a) snapshot content
/// equality and (b) raw query-answer equality per family. The original
/// snapshots were held across all post-freeze churn, so any CoW leak in
/// the live index shows up here. Returns the number of passed checks.
fn check_freeze_replay(
    scenario: &Scenario,
    freeze_op: usize,
    snaps: &[Option<IndexSnapshot>],
    queries: &[(String, PathExpr)],
) -> Result<usize, (String, String)> {
    let mut passed = 0usize;
    let (mut engine, mut handles, _hs) = build_lab_engine(scenario, false);
    for op in scenario.ops.iter().take(freeze_op) {
        apply_scenario_op(&mut engine, &mut handles, op);
    }
    let replica = engine.freeze();
    if replica.len() != snaps.len() {
        return Err((
            "freeze-replay".into(),
            format!(
                "replica froze {} slots, original {}",
                replica.len(),
                snaps.len()
            ),
        ));
    }
    for (slot, name) in SLOT_NAMES.iter().enumerate() {
        let (orig, rep) = (&snaps[slot], &replica[slot]); // xsi-lint: allow(slice-index, both vecs hold one entry per registered slot)
        if orig != rep {
            let describe = |s: &Option<IndexSnapshot>| match s {
                Some(s) => format!("{} blocks", s.block_count()),
                None => "no snapshot".into(),
            };
            return Err((
                format!("freeze-replay-{name}"),
                format!(
                    "frozen view diverged from the replay-to-freeze-point replica \
                     (original: {}, replica: {})",
                    describe(orig),
                    describe(rep)
                ),
            ));
        }
        passed += 1;
        if let (Some(orig), Some(rep)) = (orig.as_ref(), rep.as_ref()) {
            for (text, expr) in queries {
                let a = eval_index_raw(orig, expr);
                let b = eval_index_raw(rep, expr);
                if a != b {
                    return Err((
                        format!("freeze-replay-{name}"),
                        format!(
                            "{text}: frozen view answered {} nodes, replica {}",
                            a.len(),
                            b.len()
                        ),
                    ));
                }
                passed += 1;
            }
        }
    }
    Ok(passed)
}

/// Consumes the engine and verifies that `rebuild` restores the family
/// minimum for every registered index.
fn final_checks(engine: UpdateEngine) -> Result<usize, (String, String)> {
    let mut passed = 0usize;
    let (g, mut indexes) = engine.into_parts();
    let acyclic = is_acyclic(&g);
    for idx in &mut indexes {
        let name = idx.describe();
        idx.rebuild(&g);
        idx.check(&g)
            .map_err(|e| ("final-check".to_string(), format!("{name}: {e}")))?;
        passed += 1;
        let minimum = idx.minimum_block_count(&g);
        if idx.block_count() != minimum {
            return Err((
                "final-rebuild-minimum".into(),
                format!(
                    "{name}: rebuilt to {} blocks, minimum is {minimum}",
                    idx.block_count()
                ),
            ));
        }
        passed += 1;
    }
    // On acyclic graphs the minimum 1-index is unique, so the rebuilt
    // slot-0 partition must equal a from-scratch build exactly.
    if acyclic {
        let canon = one_index_canonical(indexes[0].as_ref()).expect("1-index family object");
        if canon != OneIndex::build(&g).canonical() {
            return Err((
                "final-one-exact".into(),
                "rebuilt 1-index differs from a fresh Paige–Tarjan build".into(),
            ));
        }
        passed += 1;
    }
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_scenario, GenConfig};

    #[test]
    fn empty_scenario_passes() {
        let s = Scenario {
            seed: 0,
            k: 2,
            fault: None,
            base_labels: vec!["a".into()],
            base_edges: vec![(0, 1, EdgeKind::Child)],
            queries: vec!["/a".into()],
            ops: vec![],
        };
        let report = run_scenario(&s).unwrap();
        assert_eq!(report.applied, 0);
        assert!(report.checks > 0);
    }

    #[test]
    fn small_generated_scenarios_pass() {
        for seed in 0..6u64 {
            let s = generate_scenario(seed, &GenConfig::small(seed % 2 == 1));
            if let Err(f) = run_scenario(&s) {
                panic!("seed {seed} (replay with XSI_TEST_SEED={seed}): {f}");
            }
        }
    }

    #[test]
    fn skipped_ops_are_deterministic() {
        // Deleting a non-existent edge and removing the root are skips.
        let s = Scenario {
            seed: 1,
            k: 1,
            fault: None,
            base_labels: vec!["a".into(), "b".into()],
            base_edges: vec![(0, 1, EdgeKind::Child), (1, 2, EdgeKind::Child)],
            queries: vec![],
            ops: vec![
                ScenarioOp::DeleteEdge { from: 2, to: 1 }, // absent edge
                ScenarioOp::RemoveNode { node: 0 },        // the root
                ScenarioOp::RemoveNode { node: 3 },        // 3 % 3 = 0 → root
            ],
        };
        let report = run_scenario(&s).unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(report.skipped, 3);
    }

    /// Freezes interleave with real churn: at-freeze validation and the
    /// end-of-run prefix-replay oracle both pass, and freeze checks are
    /// counted.
    #[test]
    fn freeze_ops_validate_against_the_replay_oracle() {
        let s = Scenario {
            seed: 3,
            k: 2,
            fault: None,
            base_labels: vec!["a".into(), "a".into(), "b".into(), "b".into()],
            base_edges: vec![
                (0, 1, EdgeKind::Child),
                (0, 2, EdgeKind::Child),
                (1, 3, EdgeKind::Child),
                (2, 4, EdgeKind::Child),
            ],
            queries: vec!["/a/b".into(), "//b".into(), "//*".into()],
            ops: vec![
                ScenarioOp::Freeze,                        // freeze the base state
                ScenarioOp::DeleteEdge { from: 1, to: 3 }, // splits {b,b}
                ScenarioOp::Freeze,                        // freeze mid-churn
                ScenarioOp::AddSubtree {
                    parent: 2,
                    nodes: vec![("b".into(), 0), ("c".into(), 0)],
                },
                ScenarioOp::InsertEdge {
                    from: 1,
                    to: 4,
                    kind: EdgeKind::IdRef,
                },
                ScenarioOp::Freeze, // freeze again, then more churn
                ScenarioOp::RemoveSubtree { root: 2 },
            ],
        };
        let report = run_scenario(&s).unwrap();
        // Freezes count as applied ops alongside the four mutations.
        assert_eq!(report.applied, 7);
        assert_eq!(report.skipped, 0);
        assert!(report.checks > 0);
    }

    /// Freeze ops survive generation → replay → run in fault-injected
    /// scenarios too (the replica replays the same faulty behaviour, so
    /// the freeze oracle itself stays quiet while the planted fault is
    /// convicted by the maintenance oracles).
    #[test]
    fn freeze_coexists_with_fault_injection() {
        use crate::fault::FaultSpec;
        let s = Scenario {
            seed: 4,
            k: 1,
            fault: Some(FaultSpec::SkipMerge),
            base_labels: vec!["a".into(), "b".into(), "b".into()],
            base_edges: vec![
                (0, 1, EdgeKind::Child),
                (1, 2, EdgeKind::Child),
                (1, 3, EdgeKind::Child),
            ],
            queries: vec!["//b".into()],
            ops: vec![
                ScenarioOp::Freeze,
                ScenarioOp::InsertEdge {
                    from: 0,
                    to: 2,
                    kind: EdgeKind::IdRef,
                },
                ScenarioOp::Freeze,
                ScenarioOp::DeleteEdge { from: 0, to: 2 },
            ],
        };
        let err = run_scenario(&s).unwrap_err();
        // The skip-merge fault is convicted by the minimality oracle at
        // the delete — not misattributed to the freeze machinery.
        assert_eq!(err.check, "one-minimality", "{err}");
    }

    #[test]
    fn subtree_ops_round_trip() {
        let s = Scenario {
            seed: 2,
            k: 2,
            fault: None,
            base_labels: vec!["a".into()],
            base_edges: vec![(0, 1, EdgeKind::Child)],
            queries: vec!["//b".into(), "/a/b/c".into()],
            ops: vec![
                ScenarioOp::AddSubtree {
                    parent: 1,
                    nodes: vec![("b".into(), 0), ("c".into(), 0), ("c".into(), 1)],
                },
                ScenarioOp::RemoveSubtree { root: 2 },
            ],
        };
        let report = run_scenario(&s).unwrap();
        assert_eq!(report.applied, 2);
    }
}
