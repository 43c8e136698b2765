//! Shared run machinery: the run context, the system under test behind
//! its public calls, the end-of-run verification, and the direct
//! per-family replays the traced run uses for per-layer attribution.

use crate::input::{idref_sample, Query};
use crate::stats::Fnv;
use crate::trace::Tracer;
use xsi_core::obs::span::{self, SpanKind, SpanTree};
use xsi_core::{
    AkIndex, BatchResult, IndexHandle, IndexSnapshot, NodeRef, OneIndex, StructuralIndex,
    UpdateEngine, UpdateOp, UpdateStats,
};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_query::{eval_graph, eval_index_raw};

/// The A(k) parameter of every A(k)-index the benchmark registers.
pub const K: usize = 3;

/// Failure messages kept per run (the count is always exact).
const MAX_FAILURE_MESSAGES: usize = 8;

/// One primitive mutation as the engine applied it, logged for the
/// direct replays.
#[derive(Clone, Debug)]
pub enum PrimOp {
    AddNode { label: String, id: NodeId },
    Insert(NodeId, NodeId, EdgeKind),
    Delete(NodeId, NodeId),
    RemoveNode(NodeId),
}

/// A logged mutation and whether it came from a per-op engine call
/// (`insert_edge`/`delete_edge`) rather than from a batch.
#[derive(Clone, Debug)]
pub struct Logged {
    pub op: PrimOp,
    pub engine_call: bool,
}

/// Counters the per-layer metrics need beyond span durations.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    pub batch_calls: u64,
    pub batch_ops: u64,
    pub freezes: u64,
    pub frozen_blocks: u64,
    pub cow_clones: u64,
    pub queries: u64,
    pub answer_nodes: u64,
    pub snapshot_bytes: u64,
    pub snapshot_nodes: u64,
}

/// Everything one run accumulates.
pub struct Ctx {
    pub tr: Tracer,
    /// Mutation log for the direct replays (traced runs only).
    pub log: Option<Vec<Logged>>,
    /// Latencies of the workload's primary and secondary operations, ns.
    pub primary: Vec<u64>,
    pub secondary: Vec<u64>,
    /// Busy time of every completed loop step (its primary and
    /// secondary latencies together), ns.
    pub steps: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Digest of every op's (splits, merges).
    pub split_merge: Fnv,
    /// Digest of every query answer and verified block count.
    pub answers: Fnv,
    pub layer: LayerCounts,
}

impl Ctx {
    pub fn new(tr: Tracer) -> Self {
        Ctx {
            tr,
            log: None,
            primary: Vec::new(),
            secondary: Vec::new(),
            steps: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            split_merge: Fnv::default(),
            answers: Fnv::default(),
            layer: LayerCounts::default(),
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(what);
        }
    }

    /// Counts one attempted check and, if it failed, one failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Folds in the attempts and failures of a side context (warm-up).
    pub fn absorb_failures(&mut self, other: Ctx) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < MAX_FAILURE_MESSAGES {
                self.failures.push(f);
            }
        }
    }

    fn log(&mut self, op: PrimOp, engine_call: bool) {
        if let Some(log) = &mut self.log {
            log.push(Logged { op, engine_call });
        }
    }
}

/// Span names of one index family's calls.
pub struct Family {
    pub build: &'static str,
    pub check: &'static str,
    pub minimum: &'static str,
    pub inserted: &'static str,
    pub deleted: &'static str,
    pub added: &'static str,
    pub removing: &'static str,
    pub count_pass: &'static str,
}

pub const ONE: Family = Family {
    build: "oneindex.build",
    check: "oneindex.check",
    minimum: "oneindex.minimum_block_count",
    inserted: "oneindex.on_edge_inserted",
    deleted: "oneindex.on_edge_deleted",
    added: "oneindex.on_node_added",
    removing: "oneindex.on_node_removing",
    count_pass: "kernel.oneindex_count_pass",
};

pub const AK: Family = Family {
    build: "akindex.build",
    check: "akindex.check",
    minimum: "akindex.minimum_block_count",
    inserted: "akindex.on_edge_inserted",
    deleted: "akindex.on_edge_deleted",
    added: "akindex.on_node_added",
    removing: "akindex.on_node_removing",
    count_pass: "kernel.akindex_count_pass",
};

/// Families in registration order: the 1-index, then A(K) if present.
pub const FAMILIES: [&Family; 2] = [&ONE, &AK];

/// A pooled IDREF edge update.
#[derive(Clone, Copy, Debug)]
pub enum EdgeOp {
    Insert(NodeId, NodeId),
    Delete(NodeId, NodeId),
}

/// Snapshot bytes of a 1-index and, optionally, an A(K)-index.
pub struct Snapshots {
    pub one: Vec<u8>,
    pub ak: Option<Vec<u8>>,
}

impl Snapshots {
    pub fn bytes(&self) -> usize {
        self.one.len() + self.ak.as_ref().map_or(0, Vec::len)
    }
}

/// Parses the workload's document (`xsi_xml::parse_str`).
pub fn parse(doc: &str, tr: &mut Tracer) -> Result<(Graph, u64), String> {
    let (parsed, ns) = tr.time("xml.parse_str", || {
        xsi_xml::parse_str(doc, &xsi_xml::ParseOptions::default())
    });
    parsed.map(|p| (p.graph, ns)).map_err(|e| e.to_string())
}

/// Drops `v` inside a span, so freeing large structures is attributed.
pub fn drop_in<T>(tr: &mut Tracer, name: &'static str, v: T) {
    tr.time(name, move || drop(v));
}

/// The system under test: one engine and the handles of its indexes.
pub struct Sut {
    pub engine: UpdateEngine,
    pub handles: Vec<IndexHandle>,
}

impl Sut {
    /// Builds the 1-index (and A(K)) over `g` and registers them.
    /// Returns the system and the time its calls took.
    pub fn build(g: Graph, with_ak: bool, tr: &mut Tracer) -> (Sut, u64) {
        let (one, mut ns) = tr.time(ONE.build, || OneIndex::build(&g));
        let ak = with_ak.then(|| {
            let (ak, t) = tr.time(AK.build, || AkIndex::build(&g, K));
            ns += t;
            ak
        });
        let (sut, t) = tr.time("engine.register", || Sut::register(g, one, ak));
        (sut, ns + t)
    }

    /// Decodes both indexes from snapshot bytes over `g` and registers
    /// them.
    pub fn restore(g: Graph, snaps: &Snapshots, tr: &mut Tracer) -> Result<(Sut, u64), String> {
        let (one, mut ns) = tr.time("snapshot.from_snapshot", || {
            OneIndex::from_snapshot(&g, &snaps.one)
        });
        let one = one.map_err(|e| format!("1-index snapshot: {e}"))?;
        let ak = match &snaps.ak {
            Some(bytes) => {
                let (ak, t) = tr.time("snapshot.from_snapshot", || {
                    AkIndex::from_snapshot(&g, bytes)
                });
                ns += t;
                Some(ak.map_err(|e| format!("A(k) snapshot: {e}"))?)
            }
            None => None,
        };
        let (sut, t) = tr.time("engine.register", || Sut::register(g, one, ak));
        Ok((sut, ns + t))
    }

    fn register(g: Graph, one: OneIndex, ak: Option<AkIndex>) -> Sut {
        let mut engine = UpdateEngine::new(g);
        let mut handles = vec![engine.register(Box::new(one))];
        if let Some(ak) = ak {
            handles.push(engine.register(Box::new(ak)));
        }
        Sut { engine, handles }
    }

    /// Encodes every registered index (`to_snapshot`).
    pub fn encode(&self, tr: &mut Tracer) -> (Snapshots, u64) {
        let (one, mut ns) = tr.time("snapshot.to_snapshot", || self.one().to_snapshot());
        let ak = self.ak().map(|ak| {
            let (bytes, t) = tr.time("snapshot.to_snapshot", || ak.to_snapshot());
            ns += t;
            bytes
        });
        (Snapshots { one, ak }, ns)
    }

    pub fn one(&self) -> &OneIndex {
        self.engine
            .index(self.handles[0])
            .as_any()
            .downcast_ref::<OneIndex>()
            .expect("the first registered index is the 1-index")
    }

    pub fn ak(&self) -> Option<&AkIndex> {
        self.handles.get(1).map(|&h| {
            self.engine
                .index(h)
                .as_any()
                .downcast_ref::<AkIndex>()
                .expect("the second registered index is the A(k)-index")
        })
    }

    pub fn block_counts(&self) -> Vec<usize> {
        self.handles
            .iter()
            .map(|&h| self.engine.index(h).block_count())
            .collect()
    }

    fn cow_clones(&self) -> u64 {
        self.handles
            .iter()
            .map(|&h| self.engine.index(h).cow_clones())
            .sum()
    }

    /// One per-op engine call; returns its latency on success.
    pub fn edge_op(&mut self, op: EdgeOp, ctx: &mut Ctx) -> Option<u64> {
        ctx.attempted += 1;
        let (result, ns) = match op {
            EdgeOp::Insert(u, v) => ctx.tr.time("engine.insert_edge", || {
                self.engine.insert_edge(u, v, EdgeKind::IdRef)
            }),
            EdgeOp::Delete(u, v) => ctx.tr.time("engine.delete_edge", || {
                self.engine.delete_edge(u, v).map(|(s, _)| s)
            }),
        };
        match result {
            Ok(stats) => {
                fold_stats(&mut ctx.split_merge, &stats);
                let prim = match op {
                    EdgeOp::Insert(u, v) => PrimOp::Insert(u, v, EdgeKind::IdRef),
                    EdgeOp::Delete(u, v) => PrimOp::Delete(u, v),
                };
                ctx.log(prim, true);
                Some(ns)
            }
            Err(e) => {
                ctx.fail(format!("{op:?}: {e}"));
                None
            }
        }
    }

    /// `apply_batch`; returns the result and its latency on success.
    pub fn commit(&mut self, batch: &[UpdateOp], ctx: &mut Ctx) -> Option<(BatchResult, u64)> {
        ctx.attempted += 1;
        let clones_before = self.cow_clones();
        let (result, ns) = ctx
            .tr
            .time("batch.apply_batch", || self.engine.apply_batch(batch));
        ctx.layer.cow_clones += self.cow_clones() - clones_before;
        match result {
            Ok(r) => {
                ctx.layer.batch_calls += 1;
                ctx.layer.batch_ops += r.ops_applied as u64;
                fold_stats(&mut ctx.split_merge, &r.stats);
                log_batch(batch, &r.created, ctx);
                Some((r, ns))
            }
            Err(e) => {
                ctx.fail(format!("apply_batch: {e}"));
                None
            }
        }
    }

    /// `freeze()`: immutable views of every index, and the latency.
    pub fn freeze(&mut self, ctx: &mut Ctx) -> (Vec<Option<IndexSnapshot>>, u64) {
        let (snaps, ns) = ctx.tr.time("view.freeze", || self.engine.freeze());
        ctx.layer.freezes += 1;
        for s in snaps.iter().flatten() {
            ctx.layer.frozen_blocks += s.block_count() as u64;
        }
        ctx.check(snaps.iter().all(Option::is_some), || {
            "freeze returned no view for a registered index".into()
        });
        (snaps, ns)
    }
}

fn fold_stats(h: &mut Fnv, s: &UpdateStats) {
    h.u64(s.splits as u64);
    h.u64(s.merges as u64);
}

/// Logs a successful batch in the engine's phase order: node additions,
/// edge insertions, edge deletions, node removals.
fn log_batch(batch: &[UpdateOp], created: &[NodeId], ctx: &mut Ctx) {
    if ctx.log.is_none() {
        return;
    }
    let resolve = |r: &NodeRef| match *r {
        NodeRef::Existing(n) => n,
        NodeRef::New(i) => created[i],
    };
    let mut new = created.iter();
    let mut phases: [Vec<PrimOp>; 4] = Default::default();
    for op in batch {
        match op {
            UpdateOp::AddNode { label } => phases[0].push(PrimOp::AddNode {
                label: label.clone(),
                id: *new.next().expect("one created id per AddNode"),
            }),
            UpdateOp::InsertEdge { from, to, kind } => {
                phases[1].push(PrimOp::Insert(resolve(from), resolve(to), *kind))
            }
            UpdateOp::DeleteEdge { from, to } => phases[2].push(PrimOp::Delete(*from, *to)),
            UpdateOp::RemoveNode { node } => phases[3].push(PrimOp::RemoveNode(*node)),
        }
    }
    for op in phases.into_iter().flatten() {
        ctx.log(op, false);
    }
}

/// Evaluates the query set on frozen views (`eval_index_raw`; the A(K)
/// view for paths it answers exactly, the 1-index view otherwise). With
/// `oracle`, first evaluates every query on that graph (`eval_graph`)
/// and counts each differing answer as a failure. Returns the index
/// latencies and a digest of the answers.
pub fn query_round(
    snaps: &[Option<IndexSnapshot>],
    queries: &[Query],
    oracle: Option<&Graph>,
    ctx: &mut Ctx,
) -> (Vec<u64>, u64) {
    let expected: Vec<Vec<NodeId>> = match oracle {
        Some(g) => queries
            .iter()
            .map(|q| ctx.tr.time("query.eval_graph", || eval_graph(g, &q.expr)).0)
            .collect(),
        None => Vec::new(),
    };
    let mut digest = Fnv::default();
    let mut latencies = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let exact_on_ak = q.expr.max_length().is_some_and(|l| l <= K);
        let view = match (exact_on_ak, snaps.get(1)) {
            (true, Some(Some(ak))) => ak,
            _ => match snaps.first() {
                Some(Some(one)) => one,
                _ => {
                    ctx.fail("no frozen 1-index view to query".into());
                    return (latencies, digest.0);
                }
            },
        };
        let (answer, ns) = ctx
            .tr
            .time("query.eval_index_raw", || eval_index_raw(view, &q.expr));
        latencies.push(ns);
        ctx.layer.queries += 1;
        ctx.layer.answer_nodes += answer.len() as u64;
        digest.u64(answer.len() as u64);
        digest.u64(answer.iter().fold(0u64, |acc, n| {
            acc.wrapping_mul(31).wrapping_add(u64::from(n.0))
        }));
        if let Some(want) = expected.get(i) {
            ctx.check(&answer == want, || {
                format!(
                    "{}: frozen view answered {} nodes, eval_graph {}",
                    q.text,
                    answer.len(),
                    want.len()
                )
            });
        }
    }
    (latencies, digest.0)
}

/// Per-op engine calls in the verification phase (delete + re-insert).
const VERIFY_PAIRS: usize = 32;
/// Edges per verification batch.
const VERIFY_GROUP: usize = 16;
/// Verification batches: each group is deleted, then re-inserted.
const VERIFY_GROUPS: usize = 2;
const VERIFY_SALT: u64 = 0x005e_ed0f_7e51;

/// What the verification phase measured on the final state.
pub struct Verdict {
    /// Σ deep index bytes (`mem_report`) over live nodes.
    pub bytes_per_node: f64,
    /// Max over families of blocks / `minimum_block_count`.
    pub blocks_over_minimum: f64,
    /// Digest of the verification's answers and block counts.
    pub digest: u64,
}

/// End-of-run verification, identical for every workload: per-op engine
/// calls, batches that are frozen and queried against the `eval_graph`
/// oracle, a snapshot round trip, `UpdateEngine::check`, and the index
/// size and quality the end-to-end metrics report. Leaves the graph as
/// it found it.
pub fn verify(sut: &mut Sut, queries: &[Query], seed: u64, ctx: &mut Ctx) -> Verdict {
    let (sample, _) = ctx.tr.time("graph.edges", || {
        idref_sample(
            sut.engine.graph(),
            VERIFY_PAIRS + VERIFY_GROUPS * VERIFY_GROUP,
            seed ^ VERIFY_SALT,
        )
    });
    let (pairs, groups) = sample.split_at(VERIFY_PAIRS.min(sample.len()));
    let mut digest = Fnv::default();
    for &(u, v) in pairs {
        sut.edge_op(EdgeOp::Delete(u, v), ctx);
        sut.edge_op(EdgeOp::Insert(u, v), ctx);
    }
    // Each snapshot stays alive across the next batch, so the writer
    // pays its copy-on-write clones as a serving system would.
    let mut held = None;
    for group in groups.chunks(VERIFY_GROUP) {
        for insert in [false, true] {
            let batch: Vec<UpdateOp> = group
                .iter()
                .map(|&(u, v)| match insert {
                    true => UpdateOp::InsertEdge {
                        from: NodeRef::Existing(u),
                        to: NodeRef::Existing(v),
                        kind: EdgeKind::IdRef,
                    },
                    false => UpdateOp::DeleteEdge { from: u, to: v },
                })
                .collect();
            sut.commit(&batch, ctx);
            let (snaps, _) = sut.freeze(ctx);
            let (_, d) = query_round(&snaps, queries, Some(sut.engine.graph()), ctx);
            digest.u64(d);
            if let Some(old) = held.replace(snaps) {
                drop_in(&mut ctx.tr, "view.drop", old);
            }
        }
    }
    if let Some(old) = held {
        drop_in(&mut ctx.tr, "view.drop", old);
    }
    round_trip(sut, ctx);
    let (checked, _) = ctx.tr.time("engine.check", || sut.engine.check());
    ctx.check(checked.is_ok(), || {
        format!("UpdateEngine::check: {checked:?}")
    });

    let g = sut.engine.graph();
    let mut bytes = 0u64;
    let mut worst = 0.0f64;
    for (&h, fam) in sut.handles.iter().zip(FAMILIES) {
        let idx = sut.engine.index(h);
        let blocks = idx.block_count();
        let (minimum, _) = ctx.tr.time(fam.minimum, || idx.minimum_block_count(g));
        worst = worst.max(blocks as f64 / minimum.max(1) as f64);
        let (report, _) = ctx.tr.time("mem.mem_report", || idx.mem_report());
        bytes += report.map_or(0, |r| r.total_bytes());
        digest.u64(blocks as u64);
        digest.u64(minimum as u64);
    }
    ctx.answers.u64(digest.0);
    Verdict {
        bytes_per_node: bytes as f64 / g.node_count().max(1) as f64,
        blocks_over_minimum: worst,
        digest: digest.0,
    }
}

/// Encodes every index, decodes it over the live graph, and checks the
/// decoded index is consistent and the same size as the live one.
fn round_trip(sut: &Sut, ctx: &mut Ctx) {
    let (snaps, _) = sut.encode(&mut ctx.tr);
    let g = sut.engine.graph();
    ctx.layer.snapshot_bytes += snaps.bytes() as u64;
    ctx.layer.snapshot_nodes += g.node_count() as u64;
    let live = sut.block_counts();
    let (decoded, _) = ctx.tr.time("snapshot.from_snapshot", || {
        OneIndex::from_snapshot(g, &snaps.one)
    });
    match decoded {
        Ok(idx) => {
            let (ok, _) = ctx.tr.time(ONE.check, || StructuralIndex::check(&idx, g));
            ctx.check(ok.is_ok() && idx.block_count() == live[0], || {
                format!(
                    "1-index snapshot round trip: {ok:?}, {} vs {} blocks",
                    idx.block_count(),
                    live[0]
                )
            });
            drop_in(&mut ctx.tr, "snapshot.drop", idx);
        }
        Err(e) => ctx.fail(format!("1-index snapshot round trip: {e}")),
    }
    if let Some(bytes) = &snaps.ak {
        let (decoded, _) = ctx.tr.time("snapshot.from_snapshot", || {
            AkIndex::from_snapshot(g, bytes)
        });
        match decoded {
            Ok(idx) => {
                let (ok, _) = ctx.tr.time(AK.check, || StructuralIndex::check(&idx, g));
                ctx.check(ok.is_ok() && idx.block_count() == live[1], || {
                    format!(
                        "A(k) snapshot round trip: {ok:?}, {} vs {} blocks",
                        idx.block_count(),
                        live[1]
                    )
                });
                drop_in(&mut ctx.tr, "snapshot.drop", idx);
            }
            Err(e) => ctx.fail(format!("A(k) snapshot round trip: {e}")),
        }
    }
}

/// §5.1 splitter-scan work, read from the `xsi_core::obs::span`
/// collector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounts {
    pub scans: u64,
    pub elems: u64,
    pub blocks: u64,
}

impl KernelCounts {
    fn absorb(&mut self, tree: &SpanTree) {
        let scans = tree.kind_counters(SpanKind::KernelScan);
        self.scans += tree.kind_count(SpanKind::KernelScan) as u64;
        self.elems += scans.elems;
        self.blocks += scans.blocks;
    }
}

/// Outcome of replaying the log on one family directly.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Edge-hook latencies (timed pass).
    pub hook_ns: Vec<u64>,
    /// Edge-hook latencies of the ops that came from per-op engine calls.
    pub engine_call_ns: Vec<u64>,
    /// Edge hooks called.
    pub ops: u64,
    pub splits: u64,
    pub merges: u64,
    pub noops: u64,
    pub levels_touched: u64,
    /// Max over ops of intermediate − final blocks (the Fig. 5 blow-up).
    pub blowup_max: u64,
    pub kernel: KernelCounts,
    /// Blocks and deep bytes (`mem_report`) after the replay.
    pub blocks: usize,
    pub mem_bytes: u64,
}

impl Replay {
    fn absorb(&mut self, s: &UpdateStats, ns: u64, engine_call: bool, timed: bool) {
        self.ops += 1;
        if timed {
            self.hook_ns.push(ns);
            if engine_call {
                self.engine_call_ns.push(ns);
            }
        }
        self.splits += s.splits as u64;
        self.merges += s.merges as u64;
        self.noops += u64::from(s.no_op);
        self.levels_touched += s.levels_touched as u64;
        self.blowup_max = self
            .blowup_max
            .max(s.intermediate_blocks.saturating_sub(s.final_blocks) as u64);
    }
}

/// Applies a log to one graph + index the way the engine applied it.
/// The timed pass records a span around every graph mutation and index
/// hook; the count pass records none (the caller times the whole pass)
/// and reads kernel counters per hook instead.
struct Replayer<'a> {
    g: &'a mut Graph,
    idx: &'a mut dyn StructuralIndex,
    fam: &'a Family,
    count: bool,
    out: Replay,
}

impl Replayer<'_> {
    fn graph<R>(
        &mut self,
        ctx: &mut Ctx,
        name: &'static str,
        f: impl FnOnce(&mut Graph) -> R,
    ) -> R {
        if self.count {
            f(self.g)
        } else {
            ctx.tr.time(name, || f(self.g)).0
        }
    }

    fn hook<R>(
        &mut self,
        ctx: &mut Ctx,
        name: &'static str,
        f: impl FnOnce(&Graph, &mut dyn StructuralIndex) -> R,
    ) -> (R, u64) {
        let (g, idx) = (&*self.g, &mut *self.idx);
        if self.count {
            span::begin_collection();
            let r = f(g, idx);
            self.out.kernel.absorb(&span::end_collection());
            (r, 0)
        } else {
            ctx.tr.time(name, || f(g, idx))
        }
    }

    fn edge(
        &mut self,
        ctx: &mut Ctx,
        u: NodeId,
        v: NodeId,
        insert: Option<EdgeKind>,
        engine_call: bool,
    ) {
        let mutated = match insert {
            Some(kind) => self.graph(ctx, "graph.insert_edge", |g| g.insert_edge(u, v, kind)),
            None => self.graph(ctx, "graph.delete_edge", |g| {
                g.delete_edge(u, v).map(|_| ())
            }),
        };
        if let Err(e) = mutated {
            ctx.fail(format!("{} replay: {e}", self.fam.build));
            return;
        }
        let (stats, ns) = match insert {
            Some(_) => self.hook(ctx, self.fam.inserted, |g, idx| {
                idx.on_edge_inserted(g, u, v)
            }),
            None => self.hook(ctx, self.fam.deleted, |g, idx| idx.on_edge_deleted(g, u, v)),
        };
        self.out.absorb(&stats, ns, engine_call, !self.count);
    }

    fn apply(&mut self, ctx: &mut Ctx, logged: &Logged) {
        match &logged.op {
            PrimOp::Insert(u, v, kind) => self.edge(ctx, *u, *v, Some(*kind), logged.engine_call),
            PrimOp::Delete(u, v) => self.edge(ctx, *u, *v, None, logged.engine_call),
            PrimOp::AddNode { label, id } => {
                let n = self.graph(ctx, "graph.add_node", |g| g.add_node(label, None));
                ctx.check(n == *id, || format!("replayed node id {n} != logged {id}"));
                self.hook(ctx, self.fam.added, |g, idx| idx.on_node_added(g, n));
            }
            PrimOp::RemoveNode(n) => {
                let n = *n;
                let parents: Vec<NodeId> = self.g.pred(n).collect();
                for p in parents {
                    self.edge(ctx, p, n, None, false);
                }
                let children: Vec<NodeId> = self.g.succ(n).collect();
                for c in children {
                    self.edge(ctx, n, c, None, false);
                }
                self.hook(ctx, self.fam.removing, |g, idx| idx.on_node_removing(g, n));
                if let Err(e) = self.graph(ctx, "graph.remove_node", |g| g.remove_node(n)) {
                    ctx.fail(format!("{} replay: {e}", self.fam.build));
                }
            }
        }
    }
}

/// Replays `log` on `g` + `idx`: the timed pass (`count == false`) or
/// the kernel count pass.
pub fn replay(
    g: &mut Graph,
    idx: &mut dyn StructuralIndex,
    fam: &Family,
    log: &[Logged],
    count: bool,
    ctx: &mut Ctx,
) -> Replay {
    let mut r = Replayer {
        g,
        idx,
        fam,
        count,
        out: Replay::default(),
    };
    for logged in log {
        r.apply(ctx, logged);
    }
    r.out
}
