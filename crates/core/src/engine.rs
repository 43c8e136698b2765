//! The single-writer [`UpdateEngine`] — one mutation pipeline for a
//! graph and every structural index over it.
//!
//! The paper's algorithms are described per index, but a system keeps
//! *several* indexes over one document (a 1-index for long paths, an
//! A(k) for short ones, a baseline for comparison …). Before the engine,
//! each caller had to mutate the graph once and remember to notify each
//! index in the right order — easy to get wrong (mutate twice, notify
//! before mutating, forget an index). The engine makes the invariant
//! structural:
//!
//! * it **owns** the [`Graph`] — the only `&mut` path to it goes through
//!   [`UpdateEngine::apply`] and friends, so every mutation is applied
//!   exactly once;
//! * registered [`StructuralIndex`] trait objects are notified in
//!   registration order, after the graph change (the hook contract of
//!   [`crate::index`]);
//! * one private fan-out core, `UpdateEngine::fan_out`, is the only
//!   copy of the per-op instrumentation: the `Op` span, one
//!   `IndexDispatch` span per index labelled with its [`UpdateStats`],
//!   and the booking of per-index cumulative [`UpdateStats`] and
//!   engine-wide [`EngineStats`] (ops, splits, merges, touched blocks,
//!   latency). `add_node`, `insert_edge`, `delete_edge`, the four
//!   batch phases and the three parts of a subgraph addition all call
//!   it, each passing a closure that runs its own hook;
//! * while the obs hub is active, every public mutation and `freeze`
//!   runs under a span `Recording` that hands the call's closed pipeline
//!   spans to [`ObsHub::record`] — the engine's only way of feeding the
//!   flight recorder and the metrics (DESIGN.md §8);
//! * an optional per-index [`RebuildPolicy`] triggers the paper's
//!   5 %-growth reconstruction through [`StructuralIndex::rebuild`]
//!   after every edge op and every batch, with the time booked
//!   separately — exactly the accounting the Section 7 experiments need.
//!
//! Node removal exists once, as batch phase 4 (reach it for one node
//! with [`UpdateEngine::apply`]`(&UpdateOp::RemoveNode { .. })`), and is
//! decomposed the way Section 1 prescribes ("based on" edge deletion):
//! the engine deletes each incident edge through the normal fan-out,
//! then runs `on_node_removing` on every index, then removes the node
//! from the graph. A subgraph removal is a batch of `RemoveNode`s.
//!
//! Subgraph addition exists once too, as [`UpdateEngine::add_subgraph`]:
//! Figure 6 in three fan-out parts.
//!
//! With the `paranoid` cargo feature the engine additionally re-runs the
//! trait-level consistency checker ([`UpdateEngine::check`]) and the
//! graph's own invariant check after every mutation, and compares every
//! freeze that built on a base snapshot with a full freeze of the same
//! index, panicking on the first violation — the conformance lab's and
//! test suite's safety net (see `crates/conformance`). The checks are
//! compiled out entirely in default builds.

use crate::batch::{self, BatchError, BatchResult, SubgraphPlan, UpdateOp};
use crate::index::StructuralIndex;
use crate::obs::event::{BatchSegment, IndexFamily, OpKind, SpanLabel};
use crate::obs::mem::{self, HeapUse};
use crate::obs::metrics::MetricKey;
use crate::obs::span::{Recording, SpanGuard, SpanKind};
use crate::obs::ObsHub;
use crate::rebuild::RebuildPolicy;
use crate::stats::UpdateStats;
use crate::view::{IndexSnapshot, WeakSnapshot};
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};
use xsi_graph::{DetachedSubgraph, EdgeKind, Graph, GraphError, NodeId};

/// Handle to an index registered with an [`UpdateEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexHandle(usize);

/// Engine-wide aggregate counters across all operations and indexes.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Ops fanned out: each graph mutation applied (an edge op counts 1;
    /// a node removal 1 plus one per incident edge deleted; a subgraph
    /// addition one per node and edge), plus a subgraph addition's
    /// `AddSubgraph` hand-over when a registered family takes it whole.
    pub ops: usize,
    /// Total block splits across all indexes.
    pub splits: usize,
    /// Total block merges across all indexes.
    pub merges: usize,
    /// Blocks touched by maintenance, summed over ops and indexes:
    /// every split and merge touches one block, plus the updated node's
    /// block for each non-no-op observation. (Derived from per-op
    /// [`UpdateStats`]; no-op fast paths touch nothing.)
    pub touched_blocks: usize,
    /// Wall-clock time inside index maintenance hooks, read around the
    /// fan-out core's per-index loop — for batches too, so graph
    /// mutation, batch validation and rebuilds are not included. One of
    /// the engine's two clock pairs: the Fig. 11 and Table 2
    /// experiments read it with the obs hub off, when no span is
    /// recorded.
    pub update_time: Duration,
    /// Wall-clock time inside policy-triggered reconstructions (the
    /// other clock pair, read for the same experiments).
    pub rebuild_time: Duration,
    /// Number of policy-triggered reconstructions.
    pub rebuilds: usize,
}

impl EngineStats {
    fn absorb_op(&mut self, s: &UpdateStats) {
        self.splits += s.splits;
        self.merges += s.merges;
        self.touched_blocks += s.splits + s.merges + usize::from(!s.no_op);
    }
}

struct Entry {
    index: Box<dyn StructuralIndex>,
    /// Cumulative stats since registration (absorbed per op).
    stats: UpdateStats,
    policy: Option<RebuildPolicy>,
    /// The index's [`IndexFamily`] handle in the engine's [`ObsHub`].
    family: IndexFamily,
    /// The index's last snapshot, found only while a reader still holds
    /// it: the base its next freeze builds on.
    last_freeze: WeakSnapshot,
}

/// Owns a [`Graph`] and fans every mutation out to its registered
/// indexes. See the module docs for the design rationale.
pub struct UpdateEngine {
    g: Graph,
    entries: Vec<Entry>,
    stats: EngineStats,
    /// The observability hub: flight recorder / JSONL tracing + metrics
    /// (disabled by default — see [`crate::obs`]).
    obs: ObsHub,
}

impl UpdateEngine {
    /// Wraps a graph. Indexes are registered afterwards so they can be
    /// built against `engine.graph()`.
    pub fn new(g: Graph) -> Self {
        UpdateEngine {
            g,
            entries: Vec::new(),
            stats: EngineStats::default(),
            obs: ObsHub::disabled(),
        }
    }

    /// Read access to the observability hub.
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// Mutable access to the observability hub — install a recorder
    /// ([`ObsHub::set_recorder`]) or enable metrics
    /// ([`ObsHub::enable_metrics`]) before applying updates.
    pub fn obs_mut(&mut self) -> &mut ObsHub {
        &mut self.obs
    }

    /// Registers an index (already built over this engine's graph).
    // xsi-lint: allow(obs-coverage, thin delegate; register_inner books the registration through the obs hub)
    pub fn register(&mut self, index: Box<dyn StructuralIndex>) -> IndexHandle {
        self.register_inner(index, None)
    }

    /// Registers an index together with the 5 %-growth reconstruction
    /// policy: after any operation that leaves the index more than the
    /// threshold above its last-rebuilt size, the engine calls
    /// [`StructuralIndex::rebuild`] and books the time separately.
    // xsi-lint: allow(obs-coverage, thin delegate; register_inner books the registration through the obs hub)
    pub fn register_with_policy(&mut self, index: Box<dyn StructuralIndex>) -> IndexHandle {
        let policy = RebuildPolicy::new(index.block_count());
        self.register_inner(index, Some(policy))
    }

    fn register_inner(
        &mut self,
        index: Box<dyn StructuralIndex>,
        policy: Option<RebuildPolicy>,
    ) -> IndexHandle {
        debug_assert!(
            index.check(&self.g).is_ok(),
            "registered index inconsistent with the engine's graph"
        );
        let family = self.obs.register_family(&index.describe());
        self.entries.push(Entry {
            index,
            // Cumulative per-index stats fold from the absorb identity so
            // `no_op` means "every op so far was a no-op" (satellite 1).
            stats: UpdateStats::identity(),
            policy,
            family,
            last_freeze: WeakSnapshot::default(),
        });
        IndexHandle(self.entries.len() - 1)
    }

    /// Read access to the graph. There is intentionally no `&mut Graph`
    /// accessor — mutations go through the engine.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// Read access to a registered index.
    // `index(&self, handle)` is the natural name for handle-based lookup;
    // `std::ops::Index` cannot be implemented here because the return type
    // is an unsized trait object behind a `Box` we must not expose.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, h: IndexHandle) -> &dyn StructuralIndex {
        &*self.entries[h.0].index
    }

    /// Cumulative per-index statistics since registration.
    pub fn index_stats(&self, h: IndexHandle) -> &UpdateStats {
        &self.entries[h.0].stats
    }

    /// Engine-wide aggregate counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Number of registered indexes.
    pub fn index_count(&self) -> usize {
        self.entries.len()
    }

    /// Disassembles the engine, returning the graph and the indexes
    /// (registration order).
    pub fn into_parts(self) -> (Graph, Vec<Box<dyn StructuralIndex>>) {
        (self.g, self.entries.into_iter().map(|e| e.index).collect())
    }

    /// Adds a node and registers it with every index.
    pub fn add_node(&mut self, label: &str, value: Option<String>) -> NodeId {
        self.traced(|e| {
            let n = e.g.add_node(label, value);
            e.fan_out(OpKind::AddNode, all, |idx, g| {
                idx.on_node_added(g, n);
                None
            });
            e.paranoid_check("add_node");
            n
        })
    }

    /// Inserts an edge and fans the observation out. Returns the stats
    /// aggregated over all indexes for this one operation.
    pub fn insert_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        kind: EdgeKind,
    ) -> Result<UpdateStats, GraphError> {
        self.traced(|e| {
            e.g.insert_edge(u, v, kind)?;
            let stats = e.fan_out(OpKind::InsertEdge, all, |idx, g| {
                Some(idx.on_edge_inserted(g, u, v))
            });
            e.run_policies();
            e.paranoid_check("insert_edge");
            Ok(stats)
        })
    }

    /// Deletes an edge and fans the observation out. Returns the removed
    /// edge's kind alongside the aggregated stats.
    pub fn delete_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
    ) -> Result<(UpdateStats, EdgeKind), GraphError> {
        self.traced(|e| {
            let kind = e.g.delete_edge(u, v)?;
            let stats = e.fan_out(OpKind::DeleteEdge, all, |idx, g| {
                Some(idx.on_edge_deleted(g, u, v))
            });
            e.run_policies();
            e.paranoid_check("delete_edge");
            Ok((stats, kind))
        })
    }

    /// Applies one [`UpdateOp`] — the single-op entry point for node
    /// removal. `AddNode` ids are returned through the result's
    /// `created`; use [`UpdateEngine::apply_batch`] when ops reference
    /// each other's new nodes.
    // xsi-lint: allow(obs-coverage, one-op shim over apply_batch, which carries the full obs instrumentation)
    pub fn apply(&mut self, op: &UpdateOp) -> Result<BatchResult, BatchError> {
        self.apply_batch(std::slice::from_ref(op))
    }

    /// Applies a batch: validates it, then runs it in phase order (add
    /// nodes → insert edges → delete edges → remove nodes; batch order
    /// within a phase), every primitive mutation through the fan-out
    /// core. A node removal is the paper's §1 decomposition: delete the
    /// node's remaining incoming edges (`g.pred` order), then its
    /// outgoing edges (`g.succ` order), each as an ordinary edge
    /// deletion, then notify `on_node_removing`, then remove the node.
    /// So a batch may mix explicit `DeleteEdge`s of a node's edges with
    /// its `RemoveNode`.
    ///
    /// A batch that fails validation leaves graph and indexes untouched.
    /// A graph-level failure mid-batch (e.g. a duplicate edge insert)
    /// aborts with the error; the ops already applied stay applied and
    /// booked in the engine and per-index stats, and every index is
    /// consistent with the graph at every step.
    pub fn apply_batch(&mut self, ops: &[UpdateOp]) -> Result<BatchResult, BatchError> {
        batch::validate(&self.g, ops)?;
        self.traced(|e| {
            let mut result = BatchResult {
                stats: UpdateStats::identity(),
                ..BatchResult::default()
            };
            let applied = e.apply_phases(ops, &mut result);
            e.run_policies();
            e.paranoid_check("apply_batch");
            applied.map(|()| result)
        })
    }

    /// Adds a detached subgraph in Figure 6's order, in three parts. Its
    /// nodes (with values), internal edges and edges into its root go op
    /// by op to the families that take a subgraph op by op. That part
    /// then goes whole, as one `AddSubgraph` op, to the families whose
    /// [`StructuralIndex::takes_subgraph_whole`] answers `true`. Every
    /// other boundary edge (`sub.incoming`, then `sub.outgoing`) goes op
    /// by op to all. `created` holds the new nodes' ids in local order.
    ///
    /// Every edge is checked before the first write, so a rejected
    /// addition leaves graph and indexes untouched: a local id past the
    /// subgraph is [`BatchError::BadNewRef`], a dead host
    /// [`BatchError::DeadNode`], and an edge into the graph root, a
    /// self-loop or a duplicate [`BatchError::Graph`].
    pub fn add_subgraph(&mut self, sub: &DetachedSubgraph) -> Result<BatchResult, BatchError> {
        let plan = batch::plan_subgraph(&self.g, sub)?;
        self.traced(|e| {
            let mut result = BatchResult {
                stats: UpdateStats::identity(),
                ..BatchResult::default()
            };
            let applied = e.apply_subgraph(sub, &plan, &mut result);
            e.run_policies();
            e.paranoid_check("add_subgraph");
            applied.map(|()| result)
        })
    }

    /// Freezes every registered index into an immutable
    /// [`IndexSnapshot`] (registration order; `None` for families that
    /// cannot freeze). Extent runs are `Arc`-shared, not copied — the
    /// writer's next mutation of a frozen block clones only that
    /// block's run. While a reader still holds an index's previous
    /// snapshot, the freeze builds on it and rebuilds only the blocks
    /// that changed since (O(changed chunks)); otherwise it builds
    /// every block (O(blocks)). The engine keeps only a weak handle to
    /// that snapshot, so dropped views are not retained. Each index's
    /// freeze runs under one family-tagged `Freeze` span carrying the
    /// frozen blocks, the rebuilt blocks (`elems`) and the index's
    /// cumulative CoW clone count (→ `snapshots_total`,
    /// `snapshot_freeze_nanos`, `snapshot_blocks`,
    /// `snapshot_cow_clones`); snapshots are returned either way.
    pub fn freeze(&mut self) -> Vec<Option<IndexSnapshot>> {
        self.traced(|e| {
            let mut out = Vec::with_capacity(e.entries.len());
            for entry in &mut e.entries {
                let sp = SpanGuard::enter_family(SpanKind::Freeze, entry.family);
                let base = entry.last_freeze.upgrade();
                let snap = entry.index.freeze(&e.g, base.as_ref());
                sp.add_cow_clones(entry.index.cow_clones());
                if let Some(s) = snap.as_ref() {
                    sp.add_blocks(s.block_count() as u64);
                    sp.add_elems(s.rebuilt_blocks() as u64);
                    entry.last_freeze = s.downgrade();
                }
                drop(sp);
                #[cfg(feature = "paranoid")]
                if let (Some(_), Some(s)) = (base.as_ref(), snap.as_ref()) {
                    paranoid_freeze_check(entry.index.as_ref(), &e.g, s);
                }
                drop(base);
                // Snapshot retention is attributed to the snapshot side
                // (the live index's MemReport reports the same runs as
                // "shared"); the gauge tracks the latest freeze.
                if let (Some(m), Some(s)) = (e.obs.metrics_mut(), snap.as_ref()) {
                    m.gauge_set(
                        MetricKey::named("snapshot_retained_bytes").family(entry.family),
                        s.heap_use() as f64,
                    );
                }
                out.push(snap);
            }
            out
        })
    }

    /// Consistency check of every registered index against the graph.
    pub fn check(&self) -> Result<(), String> {
        for e in &self.entries {
            e.index
                .check(&self.g)
                .map_err(|err| format!("{}: {err}", e.index.describe()))?;
        }
        Ok(())
    }

    /// Runs one public engine call; while the obs hub is active, under
    /// a [`Recording`] whose closed pipeline spans go to
    /// [`ObsHub::record`] in open order when the call returns — or
    /// unwinds: a panicking call (a paranoid check, a broken index
    /// invariant) still leaves its account in the flight recorder
    /// before the panic resumes.
    fn traced<R>(&mut self, call: impl FnOnce(&mut Self) -> R) -> R {
        if !self.obs.is_active() {
            return call(self);
        }
        let recording = Recording::start();
        let out = panic::catch_unwind(AssertUnwindSafe(|| call(self)));
        recording.finish(|span| self.obs.record(span));
        out.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// The fan-out core, and the only copy of the per-op instrumentation:
    /// one `Op` span per graph mutation (already applied) or subgraph
    /// hand-over, an `IndexDispatch` span per registered index that `to`
    /// picks (registration order) around `hook`, and the op's count and
    /// time booked into [`EngineStats`]. Edge and subgraph hooks return
    /// `Some(stats)`: each index's stats label its dispatch span and are
    /// absorbed into the per-index and engine stats. Node hooks return
    /// `None`. Returns the op's stats folded over the picked indexes.
    fn fan_out(
        &mut self,
        op: OpKind,
        to: impl Fn(&dyn StructuralIndex) -> bool,
        mut hook: impl FnMut(&mut dyn StructuralIndex, &Graph) -> Option<UpdateStats>,
    ) -> UpdateStats {
        let op_span = SpanGuard::enter(SpanKind::Op);
        op_span.set_label(SpanLabel::Op(op));
        let t = Instant::now();
        // Fold from the absorb identity: the aggregate's `no_op` is true
        // iff every index took its no-op fast path.
        let mut total = UpdateStats::identity();
        for e in self.entries.iter_mut().filter(|e| to(e.index.as_ref())) {
            let dispatch = SpanGuard::enter_family(SpanKind::IndexDispatch, e.family);
            let stats = hook(e.index.as_mut(), &self.g);
            dispatch.set_label(SpanLabel::Dispatch(op, stats));
            let Some(s) = stats else {
                continue;
            };
            dispatch.add_blocks(s.splits as u64 + s.merges as u64);
            dispatch.set_queue_depth(s.queue_peak as u64);
            drop(dispatch);
            e.stats.absorb(&s);
            self.stats.absorb_op(&s);
            total.absorb(&s);
        }
        drop(op_span);
        self.stats.update_time += t.elapsed();
        self.stats.ops += 1;
        total
    }

    /// The batch phases of [`UpdateEngine::apply_batch`]: each phase
    /// the batch has ops for runs under a `BatchSegment` span counting
    /// the primitive mutations it applied (as `elems`). Stops at the
    /// first graph error.
    fn apply_phases(&mut self, ops: &[UpdateOp], r: &mut BatchResult) -> Result<(), BatchError> {
        use BatchSegment::{AddNodes, DeleteEdges, InsertEdges, RemoveNodes};
        for phase in [AddNodes, InsertEdges, DeleteEdges, RemoveNodes] {
            if !ops.iter().any(|op| op.segment() == phase) {
                continue;
            }
            let seg_span = SpanGuard::enter(SpanKind::BatchSegment);
            seg_span.set_label(SpanLabel::Segment(phase));
            let before = r.ops_applied;
            let applied = self.apply_segment(phase, ops, r);
            seg_span.add_elems((r.ops_applied - before) as u64);
            applied?;
        }
        Ok(())
    }

    /// The ops of one batch phase, in batch order.
    fn apply_segment(
        &mut self,
        phase: BatchSegment,
        ops: &[UpdateOp],
        r: &mut BatchResult,
    ) -> Result<(), BatchError> {
        for op in ops.iter().filter(|op| op.segment() == phase) {
            match op {
                UpdateOp::AddNode { label } => {
                    let n = self.g.add_node(label, None);
                    self.fan_out(OpKind::AddNode, all, |idx, g| {
                        idx.on_node_added(g, n);
                        None
                    });
                    r.created.push(n);
                    r.ops_applied += 1;
                }
                UpdateOp::InsertEdge { from, to, kind } => {
                    let (u, v) = (from.resolve(&r.created)?, to.resolve(&r.created)?);
                    self.batch_insert_edge(u, v, *kind, all, r)?;
                }
                UpdateOp::DeleteEdge { from, to } => {
                    self.batch_delete_edge(*from, *to, r)?;
                }
                UpdateOp::RemoveNode { node } => {
                    let n = *node;
                    let parents: Vec<NodeId> = self.g.pred(n).collect();
                    for p in parents {
                        self.batch_delete_edge(p, n, r)?;
                    }
                    let children: Vec<NodeId> = self.g.succ(n).collect();
                    for c in children {
                        self.batch_delete_edge(n, c, r)?;
                    }
                    self.fan_out(OpKind::RemoveNode, all, |idx, g| {
                        idx.on_node_removing(g, n);
                        None
                    });
                    self.g.remove_node(n)?;
                    r.ops_applied += 1;
                }
            }
        }
        Ok(())
    }

    /// The three parts of [`UpdateEngine::add_subgraph`].
    fn apply_subgraph(
        &mut self,
        sub: &DetachedSubgraph,
        plan: &SubgraphPlan,
        r: &mut BatchResult,
    ) -> Result<(), BatchError> {
        let per_op = |idx: &dyn StructuralIndex| !idx.takes_subgraph_whole();
        for (label, value) in sub.nodes() {
            let n = self.g.add_node(label, value.map(String::from));
            self.fan_out(OpKind::AddNode, per_op, |idx, g| {
                idx.on_node_added(g, n);
                None
            });
            r.created.push(n);
            r.ops_applied += 1;
        }
        debug_assert_eq!(r.created, plan.nodes, "validation predicted the ids");
        for &(u, v, kind) in &plan.first {
            self.batch_insert_edge(u, v, kind, per_op, r)?;
        }
        if self.entries.iter().any(|e| e.index.takes_subgraph_whole()) {
            let whole = |idx: &dyn StructuralIndex| idx.takes_subgraph_whole();
            let s = self.fan_out(OpKind::AddSubgraph, whole, |idx, g| {
                Some(idx.on_subgraph_added(g, &plan.nodes))
            });
            r.stats.absorb(&s);
        }
        for &(u, v, kind) in &plan.rest {
            self.batch_insert_edge(u, v, kind, all, r)?;
        }
        Ok(())
    }

    /// One edge insertion of a batch or a subgraph addition.
    fn batch_insert_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        kind: EdgeKind,
        to: impl Fn(&dyn StructuralIndex) -> bool,
        r: &mut BatchResult,
    ) -> Result<(), BatchError> {
        self.g.insert_edge(u, v, kind)?;
        let s = self.fan_out(OpKind::InsertEdge, to, |idx, g| {
            Some(idx.on_edge_inserted(g, u, v))
        });
        r.stats.absorb(&s);
        r.ops_applied += 1;
        Ok(())
    }

    /// One edge deletion inside a batch (phase 3, or a removal's
    /// incident edge in phase 4).
    fn batch_delete_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        r: &mut BatchResult,
    ) -> Result<(), BatchError> {
        self.g.delete_edge(u, v)?;
        let s = self.fan_out(OpKind::DeleteEdge, all, |idx, g| {
            Some(idx.on_edge_deleted(g, u, v))
        });
        r.stats.absorb(&s);
        r.ops_applied += 1;
        Ok(())
    }

    /// `paranoid` feature: full self-check after every mutation. Panics
    /// on the first violation so the failing operation is caught at the
    /// op that corrupted state, not at the end of a long sequence. A
    /// no-op (compiled out) without the feature.
    #[inline]
    fn paranoid_check(&self, _context: &str) {
        #[cfg(feature = "paranoid")]
        {
            if let Err(e) = self.g.check_consistency() {
                panic!("paranoid ({_context}): graph inconsistent: {e}");
            }
            if let Err(e) = self.check() {
                panic!("paranoid ({_context}): index check failed: {e}");
            }
        }
    }

    /// Triggers policy-driven reconstructions where the growth threshold
    /// is exceeded.
    fn run_policies(&mut self) {
        for e in &mut self.entries {
            if let Some(policy) = &mut e.policy {
                if policy.should_rebuild(e.index.block_count()) {
                    let sp = SpanGuard::enter_family(SpanKind::Rebuild, e.family);
                    sp.add_blocks(e.index.block_count() as u64);
                    let t = Instant::now();
                    e.index.rebuild(&self.g);
                    self.stats.rebuild_time += t.elapsed();
                    self.stats.rebuilds += 1;
                    let after = e.index.block_count();
                    sp.set_label(SpanLabel::Rebuild {
                        blocks_after: after as u64,
                    });
                    policy.on_rebuilt(after);
                }
            }
        }
    }
}

/// The fan-out filter that picks every registered index.
fn all(_: &dyn StructuralIndex) -> bool {
    true
}

/// `paranoid` feature: a freeze that built on a base snapshot must equal
/// a full freeze of the same index, slot for slot.
#[cfg(feature = "paranoid")]
fn paranoid_freeze_check(index: &dyn StructuralIndex, g: &Graph, snap: &IndexSnapshot) {
    use crate::index::IndexQueryView;
    let full = index.freeze(g, None);
    let same = full
        .as_ref()
        .is_some_and(|f| f == snap && f.slot_bound() == snap.slot_bound());
    if !same {
        panic!(
            "paranoid (freeze): {} differs from a full freeze",
            index.describe()
        );
    }
}

impl HeapUse for UpdateEngine {
    /// The registration-table shell plus each registered index's deep
    /// bytes (via its mem report). The graph, per-index stats and the
    /// obs hub itself are deliberately uncounted — see DESIGN.md §13.
    fn heap_use(&self) -> usize {
        mem::vec_cap_heap(&self.entries)
            + self
                .entries
                .iter()
                .filter_map(|e| e.index.mem_report())
                .map(|r| r.total_bytes() as usize)
                .sum::<usize>()
    }
}

impl std::fmt::Debug for UpdateEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateEngine")
            .field("nodes", &self.g.node_count())
            .field("edges", &self.g.edge_count())
            .field(
                "indexes",
                &self
                    .entries
                    .iter()
                    .map(|e| e.index.describe())
                    .collect::<Vec<_>>(),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::is_minimal_1index;
    use crate::index::PropagateOneIndex;
    use crate::{AkIndex, OneIndex, SimpleAkIndex};
    use xsi_graph::GraphBuilder;

    fn host() -> (Graph, std::collections::BTreeMap<u64, NodeId>) {
        GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "person"), (3, "person"), (4, "auction")])
            .edges(&[(1, 2), (1, 3), (1, 4)])
            .idref_edges(&[(4, 2)])
            .root_to(1)
            .build_with_ids()
    }

    #[test]
    fn engine_maintains_two_index_families_at_once() {
        let (g, ids) = host();
        let one = OneIndex::build(&g);
        let ak = AkIndex::build(&g, 2);
        let mut engine = UpdateEngine::new(g);
        let h1 = engine.register(Box::new(one));
        let h2 = engine.register(Box::new(ak));
        assert_eq!(engine.index_count(), 2);

        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        engine
            .insert_edge(ids[&4], ids[&3], EdgeKind::IdRef)
            .unwrap();
        let n = engine.add_node("bid", None);
        engine.insert_edge(ids[&4], n, EdgeKind::Child).unwrap();
        engine.check().unwrap();

        // Both indexes land exactly on a from-scratch rebuild, and the
        // engine collected aggregate stats across both families.
        assert_eq!(
            engine.index(h1).block_count(),
            OneIndex::build(engine.graph()).block_count()
        );
        assert_eq!(
            engine.index(h2).block_count(),
            AkIndex::build(engine.graph(), 2).block_count()
        );
        assert_eq!(engine.stats().ops, 4);
        assert!(engine.stats().touched_blocks > 0);
    }

    #[test]
    fn engine_equals_sequential_per_index_maintenance() {
        let (g0, ids) = host();
        // Engine path.
        let mut engine = UpdateEngine::new(g0.clone());
        let h_one = engine.register(Box::new(OneIndex::build(&g0)));
        let h_ak = engine.register(Box::new(AkIndex::build(&g0, 2)));
        // Sequential path.
        let mut g = g0.clone();
        let mut one = OneIndex::build(&g);
        let mut ak = AkIndex::build(&g, 2);

        let steps = [(4u64, 3u64, true), (4, 2, false), (1, 2, false)];
        for &(a, b, insert) in &steps {
            if insert {
                engine
                    .insert_edge(ids[&a], ids[&b], EdgeKind::IdRef)
                    .unwrap();
                g.insert_edge(ids[&a], ids[&b], EdgeKind::IdRef).unwrap();
                one.notify_edge_inserted(&g, ids[&a], ids[&b]);
                ak.notify_edge_inserted(&g, ids[&a], ids[&b]);
            } else {
                engine.delete_edge(ids[&a], ids[&b]).unwrap();
                g.delete_edge(ids[&a], ids[&b]).unwrap();
                one.notify_edge_deleted(&g, ids[&a], ids[&b]);
                ak.notify_edge_deleted(&g, ids[&a], ids[&b]);
            }
        }
        engine.check().unwrap();
        assert_eq!(engine.index(h_one).block_count(), one.block_count());
        assert_eq!(engine.index(h_ak).block_count(), ak.block_count());
        assert!(is_minimal_1index(engine.graph(), one.partition()));
    }

    #[test]
    fn node_removal_decomposes_into_edge_deletions() {
        let (g, ids) = host();
        let edges_of_2 = g.in_degree(ids[&2]) + g.out_degree(ids[&2]);
        let mut engine = UpdateEngine::new(g);
        let h = engine.register(Box::new(OneIndex::build(engine.graph())));
        let ops_before = engine.stats().ops;
        let result = engine
            .apply(&UpdateOp::RemoveNode { node: ids[&2] })
            .unwrap();
        // One op per incident edge + the removal itself.
        assert_eq!(result.ops_applied, edges_of_2 + 1);
        assert_eq!(engine.stats().ops - ops_before, edges_of_2 + 1);
        engine.check().unwrap();
        assert!(!engine.graph().is_alive(ids[&2]));
        assert_eq!(
            engine.index(h).block_count(),
            OneIndex::build(engine.graph()).block_count()
        );
    }

    /// A batch that fails partway books the ops it applied: the engine
    /// stats, the per-index stats and the `ops_total` metric all count
    /// the insert that landed before the duplicate was rejected.
    #[test]
    fn failed_batch_books_the_ops_it_applied() {
        use crate::batch::NodeRef;
        use crate::obs::MetricKey;
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        engine.obs_mut().enable_metrics();
        let h = engine.register(Box::new(OneIndex::build(engine.graph())));
        let insert = UpdateOp::InsertEdge {
            from: NodeRef::Existing(ids[&4]),
            to: NodeRef::Existing(ids[&3]),
            kind: EdgeKind::IdRef,
        };
        let err = engine.apply_batch(&[insert.clone(), insert]).unwrap_err();
        assert_eq!(
            err,
            BatchError::Graph(GraphError::DuplicateEdge(ids[&4], ids[&3]))
        );
        assert!(engine.graph().has_edge(ids[&4], ids[&3]));
        let m = engine.obs().metrics().unwrap();
        let ops_total = m.counter_value(&MetricKey::named("ops_total").op("insert-edge"));
        assert_eq!(ops_total, 1);
        assert_eq!(engine.stats().ops as u64, ops_total);
        assert!(engine.stats().update_time > Duration::ZERO);
        // The applied insert gives person 3 person 2's parents, merging
        // their blocks: the 1-index's stats and the engine's carry it.
        let idx = engine.index_stats(h);
        assert!(!idx.no_op);
        assert_eq!(idx.merges, 1);
        assert_eq!(engine.stats().merges, 1);
        engine.check().unwrap();
    }

    /// A 1-index whose insert hook panics.
    struct PanicsOnInsert(OneIndex);

    impl StructuralIndex for PanicsOnInsert {
        fn describe(&self) -> String {
            "panics-on-insert".into()
        }
        fn block_count(&self) -> usize {
            self.0.block_count()
        }
        fn on_node_added(&mut self, g: &Graph, n: NodeId) {
            self.0.on_node_added(g, n);
        }
        fn on_node_removing(&mut self, g: &Graph, n: NodeId) {
            self.0.on_node_removing(g, n);
        }
        fn on_edge_inserted(&mut self, _: &Graph, _: NodeId, _: NodeId) -> UpdateStats {
            panic!("planted: insert hook");
        }
        fn on_edge_deleted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
            self.0.notify_edge_deleted(g, u, v)
        }
        fn rebuild(&mut self, g: &Graph) {
            self.0 = OneIndex::build(g);
        }
        fn minimum_block_count(&self, g: &Graph) -> usize {
            OneIndex::build(g).block_count()
        }
        fn check(&self, g: &Graph) -> Result<(), String> {
            StructuralIndex::check(&self.0, g)
        }
        fn query_view<'a>(&'a self, g: &'a Graph) -> Box<dyn crate::IndexQueryView + 'a> {
            self.0.query_view(g)
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// An engine call that panics still hands the spans it closed to
    /// the hub before the panic leaves the engine, and the next call
    /// records normally.
    #[test]
    fn an_unwinding_call_still_hands_its_records_over() {
        use crate::obs::FlightRecorder;
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        engine
            .obs_mut()
            .set_recorder(Box::new(FlightRecorder::new(64)));
        engine.register(Box::new(OneIndex::build(engine.graph())));
        let faulty = PanicsOnInsert(OneIndex::build(engine.graph()));
        engine.register(Box::new(faulty));
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
            engine.insert_edge(ids[&4], ids[&3], EdgeKind::IdRef)
        }));
        assert!(unwound.is_err());
        let kinds = |e: &UpdateEngine| -> Vec<(SpanKind, IndexFamily)> {
            e.obs()
                .flight_records()
                .iter()
                .map(|(_, rec)| (rec.span.kind, rec.span.family))
                .collect()
        };
        let recorded = kinds(&engine);
        assert_eq!(recorded.first(), Some(&(SpanKind::Op, IndexFamily::NONE)));
        assert!(recorded.contains(&(SpanKind::IndexDispatch, IndexFamily(0))));
        assert_eq!(
            recorded.last(),
            Some(&(SpanKind::IndexDispatch, IndexFamily(1))),
            "the panicking dispatch closed during the unwind: {recorded:?}"
        );
        engine.freeze();
        let after = kinds(&engine);
        assert_eq!(after.len(), recorded.len() + 2);
        assert_eq!(after.last(), Some(&(SpanKind::Freeze, IndexFamily(1))));
    }

    /// A JSONL trace names an index registered after the writer was
    /// installed: the hub passes its family table with every record.
    #[test]
    fn jsonl_trace_names_families_registered_after_the_writer() {
        use crate::obs::JsonlWriter;
        use std::cell::RefCell;
        use std::rc::Rc;

        /// A writer whose bytes the test can still read once the hub
        /// owns it.
        #[derive(Clone, Default)]
        struct Shared(Rc<RefCell<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        let out = Shared::default();
        engine
            .obs_mut()
            .set_recorder(Box::new(JsonlWriter::new(out.clone())));
        engine.register(Box::new(OneIndex::build(engine.graph())));
        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        engine.obs_mut().flush().unwrap();
        let text = String::from_utf8(out.0.borrow().clone()).unwrap();
        let dispatch = text
            .lines()
            .find(|l| l.contains("\"kind\":\"IndexDispatch\""))
            .expect("the delete was dispatched to the 1-index");
        assert!(dispatch.contains("\"family\":\"1-index\""), "{dispatch}");
    }

    /// An engine over `host()` holding all four families.
    fn four_families() -> (UpdateEngine, std::collections::BTreeMap<u64, NodeId>) {
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        engine.register(Box::new(OneIndex::build(engine.graph())));
        engine.register(Box::new(PropagateOneIndex::build(engine.graph())));
        engine.register(Box::new(AkIndex::build(engine.graph(), 2)));
        engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2)));
        (engine, ids)
    }

    /// What a rejected call must leave as it was: the graph's node and
    /// edge counts, the engine's op count, and every index's block count
    /// and check.
    fn untouched_state(engine: &UpdateEngine) -> (usize, usize, usize, Vec<(usize, bool)>) {
        let indexes = engine
            .entries
            .iter()
            .map(|e| (e.index.block_count(), e.index.check(&engine.g).is_ok()))
            .collect();
        let g = engine.graph();
        (g.node_count(), g.edge_count(), engine.stats().ops, indexes)
    }

    fn assert_rejected(engine: &mut UpdateEngine, sub: &DetachedSubgraph, expected: BatchError) {
        let before = untouched_state(engine);
        assert_eq!(engine.add_subgraph(sub).unwrap_err(), expected);
        assert_eq!(untouched_state(engine), before);
    }

    /// A one-node subgraph under the site element.
    fn watcher(ids: &std::collections::BTreeMap<u64, NodeId>) -> DetachedSubgraph {
        let mut sub = DetachedSubgraph::new();
        let w = sub.add_node("watcher", None);
        sub.incoming.push((ids[&1], w, EdgeKind::Child));
        sub
    }

    #[test]
    fn subgraph_with_a_local_id_past_its_nodes_is_rejected() {
        let (mut engine, ids) = four_families();
        let mut sub = watcher(&ids);
        sub.outgoing.push((5, ids[&2], EdgeKind::IdRef));
        assert_rejected(&mut engine, &sub, BatchError::BadNewRef(5));
        let mut sub = watcher(&ids);
        sub.incoming.push((ids[&3], 1, EdgeKind::IdRef));
        assert_rejected(&mut engine, &sub, BatchError::BadNewRef(1));
    }

    #[test]
    fn subgraph_with_a_dead_host_is_rejected() {
        let (mut engine, ids) = four_families();
        // Person 3's freed id is the one the watcher would get.
        engine
            .apply(&UpdateOp::RemoveNode { node: ids[&3] })
            .unwrap();
        let mut sub = watcher(&ids);
        sub.outgoing.push((0, ids[&3], EdgeKind::IdRef));
        assert_rejected(&mut engine, &sub, BatchError::DeadNode(ids[&3]));
    }

    #[test]
    fn subgraph_edge_into_the_graph_root_is_rejected() {
        let (mut engine, ids) = four_families();
        let mut sub = watcher(&ids);
        sub.outgoing
            .push((0, engine.graph().root(), EdgeKind::IdRef));
        let expected = BatchError::Graph(GraphError::RootViolation);
        assert_rejected(&mut engine, &sub, expected);
    }

    #[test]
    fn subgraph_self_loop_is_rejected() {
        let (mut engine, ids) = four_families();
        let mut sub = watcher(&ids);
        sub.add_edge(0, 0, EdgeKind::IdRef);
        let w = engine.graph().next_node_ids(1)[0];
        let expected = BatchError::Graph(GraphError::SelfLoop(w));
        assert_rejected(&mut engine, &sub, expected);
    }

    #[test]
    fn subgraph_duplicate_edge_is_rejected() {
        let (mut engine, ids) = four_families();
        let next = engine.graph().next_node_ids(2);
        let mut sub = watcher(&ids);
        sub.incoming.push((ids[&1], 0, EdgeKind::IdRef));
        let expected = BatchError::Graph(GraphError::DuplicateEdge(ids[&1], next[0]));
        assert_rejected(&mut engine, &sub, expected);
        let mut sub = watcher(&ids);
        let item = sub.add_node("item", None);
        sub.add_edge(0, item, EdgeKind::Child);
        sub.add_edge(0, item, EdgeKind::IdRef);
        let expected = BatchError::Graph(GraphError::DuplicateEdge(next[0], next[1]));
        assert_rejected(&mut engine, &sub, expected);
    }

    /// Deleting an edge at an id past the node table is an error, not a
    /// panic, and books nothing.
    #[test]
    fn delete_edge_past_the_node_table_is_rejected() {
        let (mut engine, ids) = four_families();
        let before = untouched_state(&engine);
        let far = NodeId(1_000_000);
        let dead = Err(GraphError::DeadNode(far));
        assert_eq!(engine.delete_edge(far, ids[&2]), dead);
        assert_eq!(engine.delete_edge(ids[&1], far), dead);
        assert_eq!(untouched_state(&engine), before);
        assert_eq!(engine.stats().update_time, Duration::ZERO);
    }

    /// An addition writes the subgraph's nodes, values and internal
    /// edges as they were extracted.
    #[test]
    fn subgraph_addition_round_trips_structure() {
        // auction -> {item, price}, item -> name; a person outside.
        let (g, ids) = GraphBuilder::new()
            .nodes(&[(1, "auction"), (2, "item"), (3, "price"), (4, "name")])
            .nodes(&[(5, "person")])
            .edges(&[(1, 2), (1, 3), (2, 4)])
            .idref_edges(&[(5, 1), (2, 5)])
            .root_to(1)
            .root_to(5)
            .build_with_ids();
        let (mut sub, _) = xsi_graph::extract_subtree(&g, ids[&1]);
        sub.incoming.clear();
        sub.outgoing.clear();
        let title = sub.add_node("title", Some("Moby-Dick".into()));
        sub.add_edge(sub.root_local(), title, EdgeKind::Child);
        let mut engine = UpdateEngine::new(Graph::new());
        let created = engine.add_subgraph(&sub).unwrap().created;
        let g2 = engine.graph();
        assert_eq!(g2.node_count(), 1 + sub.node_count()); // + ROOT
        assert_eq!(g2.edge_count(), sub.edge_count());
        // The auction->item->name chain survives, and so does the value.
        let root_host = created[sub.root_local() as usize];
        assert_eq!(g2.label_name(root_host), "auction");
        let item = g2
            .succ(root_host)
            .find(|&n| g2.label_name(n) == "item")
            .unwrap();
        assert!(g2.succ(item).any(|n| g2.label_name(n) == "name"));
        assert_eq!(g2.value(created[title as usize]), Some("Moby-Dick"));
        g2.check_consistency().unwrap();
    }

    /// An addition goes op by op to A(k) and the simple baseline and
    /// whole to the 1-index families, keeps all four in step, and books
    /// one op per node and edge plus one `AddSubgraph` hand-over.
    #[test]
    fn subgraph_addition_keeps_four_families_in_step() {
        use crate::obs::{FlightRecorder, MetricKey};
        let (mut engine, ids) = four_families();
        engine.obs_mut().enable_metrics();
        engine
            .obs_mut()
            .set_recorder(Box::new(FlightRecorder::new(256)));
        let mut sub = DetachedSubgraph::new();
        let auction = sub.add_node("auction", None);
        let bidder = sub.add_node("bidder", None);
        sub.add_edge(auction, bidder, EdgeKind::Child);
        sub.incoming.push((ids[&1], auction, EdgeKind::Child));
        sub.incoming.push((ids[&3], auction, EdgeKind::IdRef));
        sub.incoming.push((ids[&3], bidder, EdgeKind::IdRef));
        sub.outgoing.push((bidder, ids[&2], EdgeKind::IdRef));
        let result = engine.add_subgraph(&sub).unwrap();
        assert_eq!(result.ops_applied, 2 + 5);
        assert_eq!(engine.stats().ops, result.ops_applied + 1);
        assert!(!result.stats.no_op);
        let m = engine.obs().metrics().unwrap();
        let hand_overs = m.counter_value(&MetricKey::named("ops_total").op("add-subgraph"));
        assert_eq!(hand_overs, 1);
        // Who saw what: the hand-over went to the 1-index families
        // (0, 1) only, the new nodes to the A(k) families (2, 3) only.
        let dispatched = |op: OpKind| -> Vec<u16> {
            let records = engine.obs().flight_records();
            records
                .iter()
                .filter(|(_, r)| matches!(r.label, SpanLabel::Dispatch(o, _) if o == op))
                .map(|(_, r)| r.span.family.0)
                .collect()
        };
        assert_eq!(dispatched(OpKind::AddSubgraph), vec![0, 1]);
        assert_eq!(dispatched(OpKind::AddNode), vec![2, 3, 2, 3]);
        assert_eq!(dispatched(OpKind::InsertEdge).len(), 2 * 3 + 4 * 2);
        // Every family keeps its guarantee on this acyclic graph.
        engine.check().unwrap();
        let g = engine.graph();
        let any = |h: usize| engine.index(IndexHandle(h)).as_any();
        let one = any(0).downcast_ref::<OneIndex>().unwrap();
        assert_eq!(one.canonical(), OneIndex::build(g).canonical());
        let ak = any(2).downcast_ref::<AkIndex>().unwrap();
        assert_eq!(ak.canonical(), AkIndex::build(g, 2).canonical());
        assert!(!engine.index_stats(IndexHandle(0)).no_op);
    }

    #[test]
    fn policy_rebuild_bounds_baseline_drift() {
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        let h = engine.register_with_policy(Box::new(PropagateOneIndex::build(engine.graph())));
        // Toggle edges until propagate drift would exceed 5 %.
        for _ in 0..6 {
            engine.delete_edge(ids[&4], ids[&2]).unwrap();
            engine
                .insert_edge(ids[&4], ids[&2], EdgeKind::IdRef)
                .unwrap();
        }
        let minimum = engine.index(h).minimum_block_count(engine.graph());
        let size = engine.index(h).block_count();
        assert!(
            (size as f64) <= (minimum as f64) * 1.05 + 1.0,
            "policy failed to bound drift: {size} vs minimum {minimum}"
        );
        engine.check().unwrap();
    }

    /// The dense-store telemetry rides the mem report — the numbers the
    /// `xsi-mem-v1` artifact exports: per family, the iedge maps in the
    /// inline and the spilled representation.
    #[test]
    fn store_reports_land_in_metrics() {
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        let h_one = engine.register(Box::new(OneIndex::build(engine.graph())));
        let h_sim = engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2)));
        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        let report = |h| engine.index(h).mem_report().expect("both families report");
        // The 1-index keeps two iedge maps per live block; a tiny
        // graph's maps are all inline.
        let one = report(h_one);
        assert!(one.iedge_inline_maps > 0);
        assert_eq!(one.iedge_inline_maps, 2 * one.blocks);
        assert_eq!(one.iedge_spilled_maps, 0);
        // The simple baseline keeps no iedge maps.
        let sim = report(h_sim);
        assert_eq!((sim.iedge_inline_maps, sim.iedge_spilled_maps), (0, 0));
    }

    /// Every registered family's mem report (the `xsi-mem-v1` artifact's
    /// source) covers its live blocks and maps, and the engine's heap
    /// use is the sum of the reports.
    #[test]
    fn mem_reports_land_in_metrics() {
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        let handles = [
            engine.register(Box::new(OneIndex::build(engine.graph()))),
            engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2))),
        ];
        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        let mut totals = 0;
        for h in handles {
            let index = engine.index(h);
            let r = index.mem_report().expect("every registered family reports");
            assert!(r.total_bytes() > 0);
            assert!(index.minimum_block_count(engine.graph()) > 0);
            // One extent-length sample per live block.
            assert_eq!(
                r.extent_len_hist.iter().sum::<u64>(),
                index.block_count() as u64
            );
            // One inline-occupancy sample per inline map (none for the
            // simple baseline, which keeps no iedge maps).
            assert_eq!(
                r.inline_occupancy_hist.iter().sum::<u64>(),
                r.iedge_inline_maps
            );
            totals += r.total_bytes() as usize;
        }
        // Engine-level accounting sums the per-index totals.
        assert_eq!(
            engine.heap_use(),
            mem::vec_cap_heap(&engine.entries) + totals
        );
    }

    #[test]
    fn freeze_returns_snapshots_and_lands_in_metrics() {
        use crate::obs::event::IndexFamily;
        use crate::obs::MetricKey;
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        engine.obs_mut().enable_metrics();
        engine.register(Box::new(OneIndex::build(engine.graph())));
        engine.register(Box::new(AkIndex::build(engine.graph(), 2)));
        let snaps = engine.freeze();
        assert_eq!(snaps.len(), 2);
        for (snap, expected) in snaps.iter().zip(["1-index", "A(2)-index"]) {
            let snap = snap.as_ref().expect("both families freeze");
            assert_eq!(snap.family(), expected);
            assert!(snap.block_count() > 0);
        }
        // The frozen 1-index view answers while the writer churns.
        use crate::index::IndexQueryView;
        let frozen = snaps[0].as_ref().unwrap();
        let root_extent: Vec<NodeId> = frozen.extent(frozen.start_block()).to_vec();
        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        assert_eq!(frozen.extent(frozen.start_block()), &root_extent[..]);

        let m = engine.obs().metrics().unwrap();
        for fam in [IndexFamily(0), IndexFamily(1)] {
            assert_eq!(
                m.counter_value(&MetricKey::named("snapshots_total").family(fam)),
                1
            );
            let h = m
                .histogram(&MetricKey::named("snapshot_freeze_nanos").family(fam))
                .expect("freeze timing histogram recorded");
            assert_eq!(h.count, 1);
            assert_eq!(
                m.gauge_value(&MetricKey::named("snapshot_cow_clones").family(fam)),
                Some(0.0),
                "freeze copies no extent runs up front"
            );
            let retained = m
                .gauge_value(&MetricKey::named("snapshot_retained_bytes").family(fam))
                .expect("snapshot retention gauge recorded");
            assert!(retained > 0.0);
        }
        // Freezing with the hub inactive still returns snapshots but
        // records nothing.
        let mut silent = UpdateEngine::new(host().0);
        silent.register(Box::new(OneIndex::build(silent.graph())));
        let snaps = silent.freeze();
        assert!(snaps[0].is_some());
        assert_eq!(silent.obs().events_emitted(), 0);
    }

    #[test]
    fn stats_accumulate_across_indexes() {
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        let h_one = engine.register(Box::new(OneIndex::build(engine.graph())));
        let _h_sim = engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2)));
        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        engine
            .insert_edge(ids[&4], ids[&3], EdgeKind::IdRef)
            .unwrap();
        assert_eq!(engine.stats().ops, 2);
        assert!(engine.stats().update_time > Duration::ZERO);
        // Per-index stats recorded (the 1-index split on the asymmetric
        // IDREF change).
        assert!(engine.index_stats(h_one).splits + engine.index_stats(h_one).merges > 0);
        assert!(engine.stats().touched_blocks > 0);
    }
}
