//! Satellite: engine-equivalence — random update sequences applied
//! through the single-writer [`UpdateEngine`] must leave every registered
//! index in exactly the state produced by (a) per-index sequential
//! maintenance over a twin graph, and (b) where the family guarantees it,
//! a rebuild from scratch; validity is additionally cross-checked against
//! the `reference` fixpoint oracles via the trait-level checkers.

use std::collections::HashMap;
use xsi_core::obs::json::Json;
use xsi_core::{
    check, reference, AkIndex, FlightRecorder, NodeRef, OneIndex, SimpleAkIndex, UpdateEngine,
    UpdateOp,
};
use xsi_graph::{is_acyclic, EdgeKind, Graph, NodeId};
use xsi_workload::{test_seed, SplitMix64};

const LABELS: [&str; 4] = ["a", "b", "c", "d"];
const K: usize = 2;

/// A random **acyclic** base graph: a handful of labeled nodes, edges
/// only from earlier to later handles. Acyclicity keeps the minimal
/// 1-index unique (Theorem 1's minimum), so the equivalence assertions
/// below can demand exact partition equality — on cyclic graphs several
/// distinct minimal 1-indexes exist and the merge order may pick any.
fn random_base(rng: &mut SplitMix64) -> (Graph, Vec<NodeId>) {
    let mut g = Graph::new();
    let mut handles = vec![g.root()];
    let n_nodes = rng.random_range(3..10usize);
    for _ in 0..n_nodes {
        let l = LABELS[rng.random_range(0..LABELS.len())];
        handles.push(g.add_node(l, None));
    }
    let n_edges = rng.random_range(2..16usize);
    for _ in 0..n_edges {
        let (i, j) = (
            rng.random_range(0..handles.len()),
            rng.random_range(0..handles.len()),
        );
        if i == j {
            continue;
        }
        let (u, v) = (handles[i.min(j)], handles[i.max(j)]);
        let kind = if rng.random_bool(0.7) {
            EdgeKind::Child
        } else {
            EdgeKind::IdRef
        };
        let _ = g.insert_edge(u, v, kind); // dups/root-in rejected
    }
    (g, handles)
}

#[derive(Debug, Clone, Copy)]
enum Op {
    AddNode(usize),
    InsertEdge(usize, usize),
    DeleteEdge(usize, usize),
    RemoveNode(usize),
}

fn random_ops(rng: &mut SplitMix64, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.random_range(0..8usize) {
            0 => Op::AddNode(rng.random_range(0..LABELS.len())),
            1..=3 => Op::InsertEdge(rng.random_range(0..32usize), rng.random_range(0..32usize)),
            4 | 5 => Op::DeleteEdge(rng.random_range(0..32usize), rng.random_range(0..32usize)),
            _ => Op::RemoveNode(rng.random_range(0..32usize)),
        })
        .collect()
}

/// Sequential twin: one graph, the three indexes notified one after the
/// other through the same hook contract the engine uses.
struct Sequential {
    g: Graph,
    one: OneIndex,
    ak: AkIndex,
    simple: SimpleAkIndex,
}

impl Sequential {
    fn new(g: Graph) -> Self {
        let one = OneIndex::build(&g);
        let ak = AkIndex::build(&g, K);
        let simple = SimpleAkIndex::build(&g, K);
        Sequential { g, one, ak, simple }
    }

    fn add_node(&mut self, label: &str) -> NodeId {
        let n = self.g.add_node(label, None);
        self.one.on_node_added(&self.g, n);
        self.ak.on_node_added(&self.g, n);
        SimpleAkIndex::on_node_added(&mut self.simple, &self.g, n);
        n
    }

    fn insert_edge(&mut self, u: NodeId, v: NodeId, kind: EdgeKind) -> bool {
        if self.g.insert_edge(u, v, kind).is_err() {
            return false;
        }
        self.one.notify_edge_inserted(&self.g, u, v);
        self.ak.notify_edge_inserted(&self.g, u, v);
        self.simple.notify_edge_inserted(&self.g, u, v);
        true
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.g.delete_edge(u, v).is_err() {
            return false;
        }
        self.one.notify_edge_deleted(&self.g, u, v);
        self.ak.notify_edge_deleted(&self.g, u, v);
        self.simple.notify_edge_deleted(&self.g, u, v);
        true
    }

    fn remove_node(&mut self, n: NodeId) -> bool {
        if !self.g.is_alive(n) || n == self.g.root() {
            return false;
        }
        let parents: Vec<NodeId> = self.g.pred(n).collect();
        for p in parents {
            assert!(self.delete_edge(p, n));
        }
        let children: Vec<NodeId> = self.g.succ(n).collect();
        for c in children {
            assert!(self.delete_edge(n, c));
        }
        self.one.on_node_removing(&self.g, n);
        self.ak.on_node_removing(&self.g, n);
        SimpleAkIndex::on_node_removing(&mut self.simple, &self.g, n);
        self.g.remove_node(n).expect("edgeless non-root node");
        true
    }
}

#[test]
fn engine_equals_sequential_equals_rebuild() {
    let base = test_seed(0xE9E9);
    for case in 0..64u64 {
        let case = base.wrapping_add(case); // replay one case: XSI_TEST_SEED=<case>
        let mut rng = SplitMix64::seed_from_u64(case);
        let (g0, mut handles) = random_base(&mut rng);

        let mut engine = UpdateEngine::new(g0.clone());
        let h_one = engine.register(Box::new(OneIndex::build(&g0)));
        let h_ak = engine.register(Box::new(AkIndex::build(&g0, K)));
        let h_simple = engine.register(Box::new(SimpleAkIndex::build(&g0, K)));
        let mut seq = Sequential::new(g0);

        for op in random_ops(&mut rng, 40) {
            match op {
                Op::AddNode(l) => {
                    let n_engine = engine.add_node(LABELS[l], None);
                    let n_seq = seq.add_node(LABELS[l]);
                    // Same deterministic id allocation on both twins.
                    assert_eq!(n_engine, n_seq, "case {case}");
                    handles.push(n_engine);
                }
                Op::InsertEdge(i, j) => {
                    let (i, j) = (i % handles.len(), j % handles.len());
                    if i == j {
                        continue;
                    }
                    // Forward edges only — keeps the graph acyclic.
                    let (u, v) = (handles[i.min(j)], handles[i.max(j)]);
                    let engine_ok = engine.insert_edge(u, v, EdgeKind::IdRef).is_ok();
                    let seq_ok = seq.insert_edge(u, v, EdgeKind::IdRef);
                    assert_eq!(engine_ok, seq_ok, "case {case}");
                }
                Op::DeleteEdge(i, j) => {
                    let (u, v) = (handles[i % handles.len()], handles[j % handles.len()]);
                    let engine_ok = engine.delete_edge(u, v).is_ok();
                    let seq_ok = seq.delete_edge(u, v);
                    assert_eq!(engine_ok, seq_ok, "case {case}");
                }
                Op::RemoveNode(i) => {
                    let n = handles[i % handles.len()];
                    let engine_ok = engine.apply(&UpdateOp::RemoveNode { node: n }).is_ok();
                    let seq_ok = seq.remove_node(n);
                    assert_eq!(engine_ok, seq_ok, "case {case}");
                }
            }
            // The two graphs stay identical.
            assert_eq!(
                engine.graph().node_count(),
                seq.g.node_count(),
                "case {case}"
            );
            assert_eq!(
                engine.graph().edge_count(),
                seq.g.edge_count(),
                "case {case}"
            );
        }

        // Every registered index passes its own validity checker.
        engine
            .check()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));

        // Engine ≡ sequential, exactly (canonical partitions).
        let g = seq.g;
        let e_one = engine
            .index(h_one)
            .as_any()
            .downcast_ref::<OneIndex>()
            .unwrap();
        let e_ak = engine
            .index(h_ak)
            .as_any()
            .downcast_ref::<AkIndex>()
            .unwrap();
        let e_simple = engine
            .index(h_simple)
            .as_any()
            .downcast_ref::<SimpleAkIndex>()
            .unwrap();
        assert_eq!(e_one.canonical(), seq.one.canonical(), "case {case}");
        assert_eq!(e_ak.canonical(), seq.ak.canonical(), "case {case}");
        assert_eq!(
            e_simple.canonical(&g),
            seq.simple.canonical(&g),
            "case {case}"
        );

        // ≡ rebuild-from-scratch where the theorems promise it:
        // Theorem 2 — A(k) split/merge keeps the minimum chain on any graph.
        assert_eq!(
            e_ak.canonical(),
            AkIndex::build(&g, K).canonical(),
            "case {case}"
        );
        // Theorem 1 — the 1-index stays minimal (and valid) everywhere;
        // on acyclic graphs (our workload) it is the unique minimum,
        // i.e. exactly the fresh Paige–Tarjan build.
        assert!(check::is_valid_1index(&g, e_one.partition()), "case {case}");
        assert!(
            check::is_minimal_1index(&g, e_one.partition()),
            "case {case}"
        );
        assert_eq!(
            e_one.canonical(),
            OneIndex::build(&g).canonical(),
            "case {case}"
        );

        // The simple baseline is a refinement (safe) of the true A(k).
        let exact = AkIndex::build(&g, K);
        assert!(e_simple.block_count() >= exact.block_count(), "case {case}");
        let sa = e_simple.assignment(&g);
        let ea = exact.assignment(&g, K);
        let mut map: HashMap<u32, u32> = HashMap::new();
        for n in g.nodes() {
            let entry = map.entry(sa[n.index()]).or_insert(ea[n.index()]);
            assert_eq!(
                *entry,
                ea[n.index()],
                "case {case}: simple not a refinement"
            );
        }
    }
}

/// A random base graph that may contain **cycles**: a root-reachable
/// spanning tree plus extra edges in either handle direction, back-edges
/// carried as `IdRef` (the paper's cyclicity knob: person→auction
/// references meeting auction→person references).
fn random_cyclic_base(rng: &mut SplitMix64) -> (Graph, Vec<NodeId>) {
    let mut g = Graph::new();
    let mut handles = vec![g.root()];
    let n_nodes = rng.random_range(3..10usize);
    for i in 0..n_nodes {
        let l = LABELS[rng.random_range(0..LABELS.len())];
        let n = g.add_node(l, None);
        // Tree edge from an earlier handle keeps everything reachable.
        let p = handles[rng.random_range(0..=i)];
        g.insert_edge(p, n, EdgeKind::Child).unwrap();
        handles.push(n);
    }
    let n_edges = rng.random_range(2..12usize);
    for _ in 0..n_edges {
        let (i, j) = (
            rng.random_range(0..handles.len()),
            rng.random_range(1..handles.len()),
        );
        if i == j {
            continue;
        }
        // Back-edges (i > j) close cycles and are always IdRef; forward
        // edges are IdRef half the time (short-circuit keeps the RNG
        // stream unchanged).
        let kind = if i > j || rng.random_bool(0.5) {
            EdgeKind::IdRef
        } else {
            EdgeKind::Child
        };
        let _ = g.insert_edge(handles[i], handles[j], kind);
    }
    (g, handles)
}

/// Satellite: the equivalence suite on **cyclic** base graphs. Exact
/// partition equality against a fresh build is unsound for the 1-index
/// here (several distinct minimal 1-indexes exist, and the merge order
/// may realize any of them), so the sound contract is asserted instead:
///
/// * engine ≡ sequential twin, exactly (same algorithm, same stream);
/// * 1-index: valid + minimal (Theorem 1) + `minimum ≤ blocks ≤ nodes`,
///   with exact oracle equality whenever the evolved graph happens to be
///   acyclic — and exact **size** equality after a rebuild (any graph);
/// * A(k): exact equality with a fresh build on any graph (Theorem 2);
/// * simple baseline: refinement of the exact A(k) classes.
#[test]
fn engine_equals_sequential_on_cyclic_graphs() {
    let base = test_seed(0xC1C1);
    let mut saw_cyclic = 0usize;
    for case in 0..48u64 {
        let case = base.wrapping_add(case); // replay one case: XSI_TEST_SEED=<case>
        let mut rng = SplitMix64::seed_from_u64(case);
        let (g0, mut handles) = random_cyclic_base(&mut rng);

        let mut engine = UpdateEngine::new(g0.clone());
        let h_one = engine.register(Box::new(OneIndex::build(&g0)));
        let h_ak = engine.register(Box::new(AkIndex::build(&g0, K)));
        let h_simple = engine.register(Box::new(SimpleAkIndex::build(&g0, K)));
        let mut seq = Sequential::new(g0);

        for op in random_ops(&mut rng, 40) {
            match op {
                Op::AddNode(l) => {
                    let n_engine = engine.add_node(LABELS[l], None);
                    let n_seq = seq.add_node(LABELS[l]);
                    assert_eq!(n_engine, n_seq, "seed {case:#x}");
                    handles.push(n_engine);
                }
                Op::InsertEdge(i, j) => {
                    // Any direction — cycles are the point here.
                    let (u, v) = (handles[i % handles.len()], handles[j % handles.len()]);
                    let engine_ok = engine.insert_edge(u, v, EdgeKind::IdRef).is_ok();
                    let seq_ok = seq.insert_edge(u, v, EdgeKind::IdRef);
                    assert_eq!(engine_ok, seq_ok, "seed {case:#x}");
                }
                Op::DeleteEdge(i, j) => {
                    let (u, v) = (handles[i % handles.len()], handles[j % handles.len()]);
                    let engine_ok = engine.delete_edge(u, v).is_ok();
                    let seq_ok = seq.delete_edge(u, v);
                    assert_eq!(engine_ok, seq_ok, "seed {case:#x}");
                }
                Op::RemoveNode(i) => {
                    let n = handles[i % handles.len()];
                    let engine_ok = engine.apply(&UpdateOp::RemoveNode { node: n }).is_ok();
                    let seq_ok = seq.remove_node(n);
                    assert_eq!(engine_ok, seq_ok, "seed {case:#x}");
                }
            }
        }

        engine
            .check()
            .unwrap_or_else(|e| panic!("seed {case:#x}: {e}"));

        let g = seq.g;
        if !is_acyclic(&g) {
            saw_cyclic += 1;
        }
        let e_one = engine
            .index(h_one)
            .as_any()
            .downcast_ref::<OneIndex>()
            .unwrap();
        let e_ak = engine
            .index(h_ak)
            .as_any()
            .downcast_ref::<AkIndex>()
            .unwrap();
        let e_simple = engine
            .index(h_simple)
            .as_any()
            .downcast_ref::<SimpleAkIndex>()
            .unwrap();

        // Engine ≡ sequential twin, exactly — cyclic or not.
        assert_eq!(e_one.canonical(), seq.one.canonical(), "seed {case:#x}");
        assert_eq!(e_ak.canonical(), seq.ak.canonical(), "seed {case:#x}");
        assert_eq!(
            e_simple.canonical(&g),
            seq.simple.canonical(&g),
            "seed {case:#x}"
        );

        // 1-index: sound contract on any graph…
        assert!(
            check::is_valid_1index(&g, e_one.partition()),
            "seed {case:#x}"
        );
        assert!(
            check::is_minimal_1index(&g, e_one.partition()),
            "seed {case:#x}"
        );
        let minimum = reference::partition_size(&g, &reference::bisim_classes(&g));
        assert!(
            minimum <= e_one.block_count() && e_one.block_count() <= g.node_count(),
            "seed {case:#x}: {} blocks outside [{minimum}, {}]",
            e_one.block_count(),
            g.node_count()
        );
        // …and exact equality exactly when acyclicity makes it sound.
        if is_acyclic(&g) {
            assert_eq!(
                e_one.canonical(),
                OneIndex::build(&g).canonical(),
                "seed {case:#x}"
            );
        }

        // A(k): exact against a fresh build on ANY graph (Theorem 2).
        assert_eq!(
            e_ak.canonical(),
            AkIndex::build(&g, K).canonical(),
            "seed {case:#x}"
        );

        // Simple baseline: refinement of the exact A(k) classes.
        let exact = AkIndex::build(&g, K);
        let sa = e_simple.assignment(&g);
        let ea = exact.assignment(&g, K);
        let mut map: HashMap<u32, u32> = HashMap::new();
        for n in g.nodes() {
            let entry = map.entry(sa[n.index()]).or_insert(ea[n.index()]);
            assert_eq!(
                *entry,
                ea[n.index()],
                "seed {case:#x}: simple not a refinement"
            );
        }

        // Rebuild restores exact size-minimality for every family, even
        // where the realized minimal index was a different one.
        let (g, mut indexes) = engine.into_parts();
        for idx in &mut indexes {
            let name = idx.describe();
            idx.rebuild(&g);
            idx.check(&g)
                .unwrap_or_else(|e| panic!("seed {case:#x}: {name}: {e}"));
            assert_eq!(
                idx.block_count(),
                idx.minimum_block_count(&g),
                "seed {case:#x}: {name} rebuild must land on the minimum"
            );
        }
    }
    // The workload must actually exercise cycles, not just permit them.
    assert!(
        saw_cyclic >= 8,
        "only {saw_cyclic}/48 cases ended cyclic — generator drifted"
    );
}

/// An engine over `g0` with all three maintained families registered and
/// the obs hub fully on (flight recorder big enough to keep every event,
/// plus metrics).
fn traced_engine(g0: &Graph) -> UpdateEngine {
    let mut engine = UpdateEngine::new(g0.clone());
    engine
        .obs_mut()
        .set_recorder(Box::new(FlightRecorder::new(1 << 14)));
    engine.obs_mut().enable_metrics();
    engine.register(Box::new(OneIndex::build(g0)));
    engine.register(Box::new(AkIndex::build(g0, K)));
    engine.register(Box::new(SimpleAkIndex::build(g0, K)));
    engine
}

/// Canonical forms of the three families [`traced_engine`] registers.
fn canonical_forms(engine: UpdateEngine) -> String {
    let (g, indexes) = engine.into_parts();
    let any = |i: usize| indexes[i].as_any();
    format!(
        "{:?}|{:?}|{:?}",
        any(0).downcast_ref::<OneIndex>().unwrap().canonical(),
        any(1).downcast_ref::<AkIndex>().unwrap().canonical(),
        any(2)
            .downcast_ref::<SimpleAkIndex>()
            .unwrap()
            .canonical(&g)
    )
}

/// Removes `n` through single ops: its incoming edges (`pred` order),
/// then its outgoing edges (`succ` order), then the edgeless node.
fn remove_by_single_ops(engine: &mut UpdateEngine, n: NodeId) -> bool {
    let g = engine.graph();
    if !g.is_alive(n) || n == g.root() {
        return false;
    }
    let parents: Vec<NodeId> = g.pred(n).collect();
    let children: Vec<NodeId> = g.succ(n).collect();
    for p in parents {
        engine.delete_edge(p, n).unwrap();
    }
    for c in children {
        engine.delete_edge(n, c).unwrap();
    }
    engine.apply(&UpdateOp::RemoveNode { node: n }).is_ok()
}

/// The deterministic metrics minus the batch-only `batch_*` series.
fn metrics_without_batch_series(engine: &UpdateEngine) -> Vec<Json> {
    let doc = Json::parse(&engine.obs().metrics_deterministic_json()).unwrap();
    ["counters", "gauges", "histograms"]
        .iter()
        .flat_map(|k| doc.get(k).and_then(Json::as_arr).unwrap().to_vec())
        .filter(|series| {
            let name = series.get("name").and_then(Json::as_str).unwrap();
            !name.starts_with("batch_")
        })
        .collect()
}

/// The stable trace minus `batch-segment` lines, with sequence numbers
/// dropped (segment events take sequence numbers too).
fn trace_without_batch_segments(engine: &UpdateEngine) -> Vec<String> {
    assert!(engine.obs().events_emitted() < 1 << 14, "recorder wrapped");
    engine
        .obs()
        .stable_trace()
        .into_iter()
        .map(|line| line.split_once(' ').unwrap().1.to_string())
        .filter(|line| !line.starts_with("batch-segment "))
        .collect()
}

/// The engine's single-op entry points and its batch path run through
/// one fan-out core: a batch of new-node inserts, then a random stream
/// of node adds, edge inserts, edge deletes and node removals, applied
/// as single-op calls on one engine and as one-op `apply` calls on its
/// twin, leave identical index states, `EngineStats`, deterministic
/// metrics (minus the `batch_*` series) and stable traces (minus the
/// `batch-segment` lines). A removal through single ops is its incident
/// edge deletions followed by the removal of the edgeless node, so the
/// traces also pin where a removal's `op-received` event falls.
#[test]
fn engine_batch_path_matches_single_ops() {
    let base = test_seed(0xBA7C);
    for case in 0..32u64 {
        let case = base.wrapping_add(case); // replay one case: XSI_TEST_SEED=<case>
        let mut rng = SplitMix64::seed_from_u64(case);
        let (g0, mut handles) = random_base(&mut rng);

        let mut via_batch = traced_engine(&g0);
        let mut via_singles = traced_engine(&g0);

        // A batch of inserts that are valid by construction.
        let mut ops = vec![UpdateOp::AddNode { label: "e".into() }];
        let mut expected_new_edges = 0;
        for &u in handles.iter().take(3) {
            if u != g0.root() {
                ops.push(UpdateOp::InsertEdge {
                    from: NodeRef::New(0),
                    to: NodeRef::Existing(u),
                    kind: EdgeKind::IdRef,
                });
                expected_new_edges += 1;
            }
        }
        let result = via_batch.apply_batch(&ops).unwrap();
        assert_eq!(result.ops_applied, 1 + expected_new_edges, "case {case}");

        let n = via_singles.add_node("e", None);
        assert_eq!(n, result.created[0], "case {case}");
        for &u in handles.iter().take(3) {
            if u != g0.root() {
                via_singles.insert_edge(n, u, EdgeKind::IdRef).unwrap();
            }
        }
        handles.push(n);

        for op in random_ops(&mut rng, 40) {
            match op {
                Op::AddNode(l) => {
                    let label = LABELS[l];
                    let n = via_singles.add_node(label, None);
                    let r = via_batch
                        .apply(&UpdateOp::AddNode {
                            label: label.into(),
                        })
                        .unwrap();
                    assert_eq!(r.created, [n], "case {case}");
                    handles.push(n);
                }
                Op::InsertEdge(i, j) => {
                    let (u, v) = (handles[i % handles.len()], handles[j % handles.len()]);
                    let singles_ok = via_singles.insert_edge(u, v, EdgeKind::IdRef).is_ok();
                    let batch_ok = via_batch
                        .apply(&UpdateOp::InsertEdge {
                            from: NodeRef::Existing(u),
                            to: NodeRef::Existing(v),
                            kind: EdgeKind::IdRef,
                        })
                        .is_ok();
                    assert_eq!(singles_ok, batch_ok, "case {case}");
                }
                Op::DeleteEdge(i, j) => {
                    let (u, v) = (handles[i % handles.len()], handles[j % handles.len()]);
                    let singles_ok = via_singles.delete_edge(u, v).is_ok();
                    let batch_ok = via_batch
                        .apply(&UpdateOp::DeleteEdge { from: u, to: v })
                        .is_ok();
                    assert_eq!(singles_ok, batch_ok, "case {case}");
                }
                Op::RemoveNode(i) => {
                    let n = handles[i % handles.len()];
                    let singles_ok = remove_by_single_ops(&mut via_singles, n);
                    let batch_ok = via_batch.apply(&UpdateOp::RemoveNode { node: n }).is_ok();
                    assert_eq!(singles_ok, batch_ok, "case {case}");
                }
            }
        }

        via_batch.check().unwrap();
        via_singles.check().unwrap();
        let (b, s) = (via_batch.stats(), via_singles.stats());
        assert_eq!(
            (b.ops, b.splits, b.merges, b.touched_blocks),
            (s.ops, s.splits, s.merges, s.touched_blocks),
            "case {case}"
        );
        assert_eq!(
            metrics_without_batch_series(&via_batch),
            metrics_without_batch_series(&via_singles),
            "case {case}"
        );
        assert_eq!(
            trace_without_batch_segments(&via_batch),
            trace_without_batch_segments(&via_singles),
            "case {case}"
        );
        assert_eq!(
            canonical_forms(via_batch),
            canonical_forms(via_singles),
            "case {case}"
        );
    }
}
