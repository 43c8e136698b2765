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
//!   copy of the per-op instrumentation: the `op-received` event, the
//!   `Op`/`IndexDispatch` spans, dispatch timing, and the booking of
//!   per-index cumulative [`UpdateStats`] and engine-wide
//!   [`EngineStats`] (ops, splits, merges, touched blocks, latency).
//!   `add_node`, `insert_edge`, `delete_edge` and the four batch phases
//!   all call it, each passing a closure that runs its own hook;
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
//! from the graph.
//!
//! With the `paranoid` cargo feature the engine additionally re-runs the
//! trait-level consistency checker ([`UpdateEngine::check`]) and the
//! graph's own invariant check after every mutation, panicking on the
//! first violation — the conformance lab's and test suite's safety net
//! (see `crates/conformance`). The checks are compiled out entirely in
//! default builds.

use crate::batch::{self, BatchError, BatchResult, UpdateOp};
use crate::index::StructuralIndex;
use crate::obs::event::{BatchSegment, EventPayload, IndexFamily, OpKind};
use crate::obs::mem::{self, HeapUse};
use crate::obs::metrics::MetricKey;
use crate::obs::span::{SpanGuard, SpanKind};
use crate::obs::{clamp32, ObsHub};
use crate::rebuild::RebuildPolicy;
use crate::stats::UpdateStats;
use crate::view::IndexSnapshot;
use std::time::{Duration, Instant};
use xsi_graph::{EdgeKind, Graph, GraphError, NodeId};

/// Handle to an index registered with an [`UpdateEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexHandle(usize);

/// Engine-wide aggregate counters across all operations and indexes.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Graph mutations applied (an edge op counts 1; a node removal
    /// counts 1 plus one per incident edge deleted).
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
    /// mutation, batch validation and rebuilds are not included.
    pub update_time: Duration,
    /// Wall-clock time inside policy-triggered reconstructions.
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
    // xsi-lint: allow(obs-coverage, thin delegate; the fan_out core books the op through the obs hub)
    pub fn add_node(&mut self, label: &str, value: Option<String>) -> NodeId {
        let n = self.g.add_node(label, value);
        self.fan_out(OpKind::AddNode, |idx, g| {
            idx.on_node_added(g, n);
            None
        });
        self.paranoid_check("add_node");
        n
    }

    /// Inserts an edge and fans the observation out. Returns the stats
    /// aggregated over all indexes for this one operation.
    pub fn insert_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        kind: EdgeKind,
    ) -> Result<UpdateStats, GraphError> {
        self.g.insert_edge(u, v, kind)?;
        let stats = self.fan_out(OpKind::InsertEdge, |idx, g| {
            Some(idx.on_edge_inserted(g, u, v))
        });
        self.run_policies();
        self.paranoid_check("insert_edge");
        Ok(stats)
    }

    /// Deletes an edge and fans the observation out. Returns the removed
    /// edge's kind alongside the aggregated stats.
    pub fn delete_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
    ) -> Result<(UpdateStats, EdgeKind), GraphError> {
        let kind = self.g.delete_edge(u, v)?;
        let stats = self.fan_out(OpKind::DeleteEdge, |idx, g| {
            Some(idx.on_edge_deleted(g, u, v))
        });
        self.run_policies();
        self.paranoid_check("delete_edge");
        Ok((stats, kind))
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
        let mut result = BatchResult {
            stats: UpdateStats::identity(),
            ..BatchResult::default()
        };
        let applied = self.apply_phases(ops, &mut result);
        self.run_policies();
        self.paranoid_check("apply_batch");
        applied.map(|()| result)
    }

    /// Publishes one `store-report` event per registered index that
    /// keeps dense iedge maps ([`StructuralIndex::store_report`]):
    /// inline vs spilled map populations, cumulative spill events, and
    /// probe lengths land in the metrics registry as `store_*` gauges
    /// plus the `store_probe_len` histogram. On-demand rather than
    /// per-op — the report walks every live block, so callers (bench
    /// drivers, exporters) sample it at export points. A no-op while
    /// the obs hub is inactive.
    pub fn publish_store_reports(&mut self) {
        if !self.obs.is_active() {
            return;
        }
        for e in &self.entries {
            if let Some(r) = e.index.store_report() {
                self.obs.emit(EventPayload::StoreReport {
                    family: e.family,
                    inline_maps: clamp32(r.inline_maps as usize),
                    spilled_maps: clamp32(r.spilled_maps as usize),
                    spill_events: clamp32(r.spill_events as usize),
                    entries: clamp32(r.entries as usize),
                    max_entries: clamp32(r.max_entries as usize),
                    probe_total: r.probe_total,
                });
            }
        }
    }

    /// Publishes one `mem-report` event per registered index with
    /// memory accounting ([`StructuralIndex::mem_report`]): deep byte
    /// categories and the quality telemetry (live blocks vs the
    /// rebuild-to-minimum oracle) land as `mem_*`/`quality_*` gauges,
    /// and the report's extent-length and inline-occupancy histograms
    /// are transplanted into the registry bucket-for-bucket. On-demand,
    /// like [`UpdateEngine::publish_store_reports`]: the report walks
    /// every slot, and `minimum_block_count` *rebuilds* the index — this
    /// is an export-point operation, never a per-op one. A no-op while
    /// the obs hub is inactive.
    pub fn publish_mem_reports(&mut self) {
        if !self.obs.is_active() {
            return;
        }
        for e in &self.entries {
            let Some(r) = e.index.mem_report() else {
                continue;
            };
            let family = e.family;
            let blocks = e.index.block_count();
            let minimum = e.index.minimum_block_count(&self.g);
            if let Some(m) = self.obs.metrics_mut() {
                for (b, &c) in r.extent_len_hist.iter().enumerate() {
                    m.observe_n(
                        MetricKey::named("mem_extent_len").family(family),
                        mem::pow2_bucket_floor(b),
                        c,
                    );
                }
                for (occ, &c) in r.inline_occupancy_hist.iter().enumerate() {
                    m.observe_n(
                        MetricKey::named("mem_iedge_inline_occupancy").family(family),
                        occ as u64,
                        c,
                    );
                }
            }
            self.obs.emit(EventPayload::MemReport {
                family,
                total_bytes: r.total_bytes(),
                extent_owned_bytes: r.extent_owned_bytes,
                extent_shared_bytes: r.extent_shared_bytes,
                iedge_spilled_bytes: r.iedge_spilled_bytes,
                inline_maps: clamp32(r.iedge_inline_maps as usize),
                spilled_maps: clamp32(r.iedge_spilled_maps as usize),
                shared_extents: clamp32(r.shared_extents as usize),
                blocks: clamp32(blocks),
                minimum_blocks: clamp32(minimum),
            });
        }
    }

    /// One-stop metrics export: publishes store and mem reports first
    /// (so the `store_probe_len`/spill telemetry the ROADMAP IedgeMap
    /// sweep needs — and the `mem_*`/`quality_*` attribution — is
    /// always current, not only when a caller remembered the publish
    /// calls), then renders the metrics registry as JSON. Returns
    /// `None` when metrics were never enabled.
    pub fn export_metrics_json(&mut self) -> Option<String> {
        self.obs.metrics()?;
        self.publish_store_reports();
        self.publish_mem_reports();
        Some(self.obs.metrics_json())
    }

    /// Freezes every registered index into an immutable
    /// [`IndexSnapshot`] (registration order; `None` for families that
    /// cannot freeze). O(blocks) per index: extent runs are
    /// `Arc`-shared, not copied — the writer's next mutation of a
    /// frozen block clones only that block's run. Emits one
    /// `snapshot-freeze` event per frozen index when the obs hub is
    /// active (→ `snapshots_total`, `snapshot_freeze_nanos`,
    /// `snapshot_cow_clones`); snapshots are returned either way.
    pub fn freeze(&mut self) -> Vec<Option<IndexSnapshot>> {
        let active = self.obs.is_active();
        let mut out = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            // Family-attributed wrapper; the view-level block walk opens
            // its own (nested) Freeze span carrying the block counter.
            let sp = SpanGuard::enter_family(SpanKind::Freeze, e.family);
            let t = if active { Some(Instant::now()) } else { None };
            let snap = e.index.freeze(&self.g);
            sp.add_cow_clones(e.index.cow_clones());
            if let Some(s) = snap.as_ref() {
                sp.add_blocks(s.block_count() as u64);
            }
            drop(sp);
            if let (Some(t), Some(s)) = (t, snap.as_ref()) {
                self.obs.emit(EventPayload::SnapshotFreeze {
                    family: e.family,
                    blocks: clamp32(s.block_count()),
                    cow_clones: e.index.cow_clones(),
                    nanos: t.elapsed().as_nanos() as u64,
                });
                // Snapshot retention is attributed to the snapshot side
                // (the live index's MemReport reports the same runs as
                // "shared"); the gauge tracks the latest freeze.
                let retained = s.heap_use();
                if let Some(m) = self.obs.metrics_mut() {
                    m.gauge_set(
                        MetricKey::named("snapshot_retained_bytes").family(e.family),
                        retained as f64,
                    );
                }
            }
            out.push(snap);
        }
        out
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

    /// The fan-out core, and the only copy of the per-op instrumentation:
    /// one `op-received` event and one `Op` span per graph mutation
    /// (already applied), an `IndexDispatch` span per registered index
    /// (registration order) around `hook`, and the op's count and time
    /// booked into [`EngineStats`]. Edge hooks return `Some(stats)`: each
    /// index's observation is then timed into an `index-dispatch` event
    /// when the hub is active and absorbed into the per-index and engine
    /// stats. Node hooks return `None`. Returns the op's stats folded
    /// over all indexes.
    fn fan_out(
        &mut self,
        op: OpKind,
        mut hook: impl FnMut(&mut dyn StructuralIndex, &Graph) -> Option<UpdateStats>,
    ) -> UpdateStats {
        let active = self.obs.is_active();
        if active {
            self.obs.emit(EventPayload::OpReceived { op });
        }
        let op_span = SpanGuard::enter(SpanKind::Op);
        let t = Instant::now();
        // Fold from the absorb identity: the aggregate's `no_op` is true
        // iff every index took its no-op fast path.
        let mut total = UpdateStats::identity();
        for e in &mut self.entries {
            let t_idx = active.then(Instant::now);
            let dispatch = SpanGuard::enter_family(SpanKind::IndexDispatch, e.family);
            let Some(s) = hook(e.index.as_mut(), &self.g) else {
                continue;
            };
            dispatch.add_blocks(s.splits as u64 + s.merges as u64);
            dispatch.set_queue_depth(s.queue_peak as u64);
            drop(dispatch);
            if let Some(t_idx) = t_idx {
                self.obs.observe_index_dispatch(
                    e.family,
                    op,
                    &s,
                    t_idx.elapsed().as_nanos() as u64,
                );
            }
            e.stats.absorb(&s);
            self.stats.absorb_op(&s);
            total.absorb(&s);
        }
        drop(op_span);
        self.stats.update_time += t.elapsed();
        self.stats.ops += 1;
        total
    }

    /// The batch phases of [`UpdateEngine::apply_batch`], each under a
    /// `BatchSegment` span and, when it applied anything, one
    /// `batch-segment` event. Stops at the first graph error.
    fn apply_phases(&mut self, ops: &[UpdateOp], r: &mut BatchResult) -> Result<(), BatchError> {
        use BatchSegment::{AddNodes, DeleteEdges, InsertEdges, RemoveNodes};
        for phase in [AddNodes, InsertEdges, DeleteEdges, RemoveNodes] {
            let seg_span = SpanGuard::enter(SpanKind::BatchSegment);
            let before = r.ops_applied;
            for op in ops {
                match (phase, op) {
                    (AddNodes, UpdateOp::AddNode { label }) => {
                        let n = self.g.add_node(label, None);
                        self.fan_out(OpKind::AddNode, |idx, g| {
                            idx.on_node_added(g, n);
                            None
                        });
                        r.created.push(n);
                        r.ops_applied += 1;
                    }
                    (InsertEdges, UpdateOp::InsertEdge { from, to, kind }) => {
                        let (u, v) = (from.resolve(&r.created)?, to.resolve(&r.created)?);
                        self.g.insert_edge(u, v, *kind)?;
                        let s = self.fan_out(OpKind::InsertEdge, |idx, g| {
                            Some(idx.on_edge_inserted(g, u, v))
                        });
                        r.stats.absorb(&s);
                        r.ops_applied += 1;
                    }
                    (DeleteEdges, UpdateOp::DeleteEdge { from, to }) => {
                        self.batch_delete_edge(*from, *to, r)?;
                    }
                    (RemoveNodes, UpdateOp::RemoveNode { node }) => {
                        let n = *node;
                        let parents: Vec<NodeId> = self.g.pred(n).collect();
                        for p in parents {
                            self.batch_delete_edge(p, n, r)?;
                        }
                        let children: Vec<NodeId> = self.g.succ(n).collect();
                        for c in children {
                            self.batch_delete_edge(n, c, r)?;
                        }
                        self.fan_out(OpKind::RemoveNode, |idx, g| {
                            idx.on_node_removing(g, n);
                            None
                        });
                        self.g.remove_node(n)?;
                        r.ops_applied += 1;
                    }
                    _ => {}
                }
            }
            let seg_ops = r.ops_applied - before;
            seg_span.add_elems(seg_ops as u64);
            drop(seg_span);
            if seg_ops > 0 {
                self.obs.emit(EventPayload::BatchSegment {
                    segment: phase,
                    ops: clamp32(seg_ops),
                });
            }
        }
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
        let s = self.fan_out(OpKind::DeleteEdge, |idx, g| {
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
                    let before = e.index.block_count();
                    let sp = SpanGuard::enter_family(SpanKind::Rebuild, e.family);
                    sp.add_blocks(before as u64);
                    let t = Instant::now();
                    e.index.rebuild(&self.g);
                    let elapsed = t.elapsed();
                    drop(sp);
                    self.stats.rebuild_time += elapsed;
                    self.stats.rebuilds += 1;
                    let after = e.index.block_count();
                    policy.on_rebuilt(after);
                    self.obs.emit(EventPayload::RebuildTriggered {
                        family: e.family,
                        blocks_before: clamp32(before),
                        blocks_after: clamp32(after),
                        nanos: elapsed.as_nanos() as u64,
                    });
                }
            }
        }
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

    #[test]
    fn store_reports_land_in_metrics() {
        use crate::obs::event::IndexFamily;
        use crate::obs::MetricKey;
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        engine.obs_mut().enable_metrics();
        let _h_one = engine.register(Box::new(OneIndex::build(engine.graph())));
        let _h_sim = engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2)));
        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        engine.publish_store_reports();
        let m = engine.obs().metrics().unwrap();
        // The 1-index (family 0) keeps iedge maps and reports them.
        let one = IndexFamily(0);
        let inline = m
            .gauge_value(&MetricKey::named("store_inline_maps").family(one))
            .expect("1-index publishes a store report");
        assert!(inline > 0.0, "a tiny graph's maps are all inline");
        assert_eq!(
            m.gauge_value(&MetricKey::named("store_spilled_maps").family(one)),
            Some(0.0)
        );
        let probe = m
            .histogram(&MetricKey::named("store_probe_len").family(one))
            .expect("probe-length histogram recorded");
        assert_eq!(probe.count, 1);
        // The simple baseline keeps no iedge maps: no series for family 1.
        let sim = IndexFamily(1);
        assert_eq!(
            m.gauge_value(&MetricKey::named("store_inline_maps").family(sim)),
            None
        );
        // Publishing with the hub inactive is a no-op.
        let mut silent = UpdateEngine::new(host().0);
        silent.register(Box::new(OneIndex::build(silent.graph())));
        silent.publish_store_reports();
        assert_eq!(silent.obs().events_emitted(), 0);
    }

    #[test]
    fn mem_reports_land_in_metrics() {
        use crate::obs::event::IndexFamily;
        use crate::obs::MetricKey;
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        engine.obs_mut().enable_metrics();
        engine.register(Box::new(OneIndex::build(engine.graph())));
        engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2)));
        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        engine.publish_mem_reports();
        let m = engine.obs().metrics().unwrap();
        for fam in [IndexFamily(0), IndexFamily(1)] {
            let total = m
                .gauge_value(&MetricKey::named("mem_total_bytes").family(fam))
                .expect("every registered family publishes a mem report");
            assert!(total > 0.0);
            let blocks = m
                .gauge_value(&MetricKey::named("mem_blocks").family(fam))
                .unwrap();
            let minimum = m
                .gauge_value(&MetricKey::named("quality_minimum_blocks").family(fam))
                .unwrap();
            let over = m
                .gauge_value(&MetricKey::named("quality_blocks_over_minimum").family(fam))
                .unwrap();
            assert!(minimum > 0.0);
            assert_eq!(over, (blocks - minimum).max(0.0));
            let hist = m
                .histogram(&MetricKey::named("mem_extent_len").family(fam))
                .expect("extent-length histogram transplanted");
            assert_eq!(hist.count, blocks as u64, "one sample per live block");
        }
        // Only the 1-index keeps iedge maps; its inline-occupancy
        // histogram has one sample per live map (2 maps per block).
        let one = IndexFamily(0);
        let occ = m
            .histogram(&MetricKey::named("mem_iedge_inline_occupancy").family(one))
            .unwrap();
        let inline = m
            .gauge_value(&MetricKey::named("mem_iedge_inline_maps").family(one))
            .unwrap();
        assert_eq!(occ.count, inline as u64);
        assert!(m
            .gauge_value(&MetricKey::named("mem_iedge_inline_occupancy").family(IndexFamily(1)))
            .is_none());
        // Engine-level accounting sums the per-index totals.
        let t0 = m
            .gauge_value(&MetricKey::named("mem_total_bytes").family(IndexFamily(0)))
            .unwrap();
        let t1 = m
            .gauge_value(&MetricKey::named("mem_total_bytes").family(IndexFamily(1)))
            .unwrap();
        assert_eq!(
            engine.heap_use(),
            mem::vec_cap_heap(&engine.entries) + t0 as usize + t1 as usize
        );
        // Publishing with the hub inactive is a no-op.
        let mut silent = UpdateEngine::new(host().0);
        silent.register(Box::new(OneIndex::build(silent.graph())));
        silent.publish_mem_reports();
        assert_eq!(silent.obs().events_emitted(), 0);
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
        // emits nothing.
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
