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
//!   latency). `add_node`, `insert_edge`, `delete_edge` and the four
//!   batch phases all call it, each passing a closure that runs its own
//!   hook;
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
use crate::obs::event::{BatchSegment, IndexFamily, OpKind, SpanLabel};
use crate::obs::mem::{self, HeapUse};
use crate::obs::metrics::MetricKey;
use crate::obs::span::{Recording, SpanGuard, SpanKind};
use crate::obs::ObsHub;
use crate::rebuild::RebuildPolicy;
use crate::stats::UpdateStats;
use crate::view::IndexSnapshot;
use std::panic::{self, AssertUnwindSafe};
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
    pub fn add_node(&mut self, label: &str, value: Option<String>) -> NodeId {
        self.traced(|e| {
            let n = e.g.add_node(label, value);
            e.fan_out(OpKind::AddNode, |idx, g| {
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
            let stats = e.fan_out(OpKind::InsertEdge, |idx, g| {
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
            let stats = e.fan_out(OpKind::DeleteEdge, |idx, g| {
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

    /// Writes one index-memory report per registered index with memory
    /// accounting ([`StructuralIndex::mem_report`]) into the metrics
    /// registry: deep byte categories, iedge inline/spilled map counts
    /// and the quality telemetry (live blocks vs the rebuild-to-minimum
    /// oracle) as `mem_*`/`quality_*` gauges, and the report's
    /// extent-length and inline-occupancy histograms transplanted
    /// bucket-for-bucket. On-demand: the report walks every slot, and
    /// `minimum_block_count` *rebuilds* the index — this is an
    /// export-point operation, never a per-op one. A no-op while
    /// metrics are off.
    pub fn publish_mem_reports(&mut self) {
        let Some(m) = self.obs.metrics_mut() else {
            return;
        };
        for e in &self.entries {
            let Some(r) = e.index.mem_report() else {
                continue;
            };
            let key = |name| MetricKey::named(name).family(e.family);
            for (b, &c) in r.extent_len_hist.iter().enumerate() {
                m.observe_n(key("mem_extent_len"), mem::pow2_bucket_floor(b), c);
            }
            for (occ, &c) in r.inline_occupancy_hist.iter().enumerate() {
                m.observe_n(key("mem_iedge_inline_occupancy"), occ as u64, c);
            }
            let blocks = e.index.block_count() as f64;
            let minimum = e.index.minimum_block_count(&self.g) as f64;
            let extent_total = r.extent_owned_bytes + r.extent_shared_bytes;
            for (name, v) in [
                ("mem_total_bytes", r.total_bytes() as f64),
                ("mem_extent_owned_bytes", r.extent_owned_bytes as f64),
                ("mem_extent_shared_bytes", r.extent_shared_bytes as f64),
                ("mem_iedge_spilled_bytes", r.iedge_spilled_bytes as f64),
                ("mem_iedge_inline_maps", r.iedge_inline_maps as f64),
                ("mem_iedge_spilled_maps", r.iedge_spilled_maps as f64),
                ("mem_shared_extents", r.shared_extents as f64),
                ("mem_blocks", blocks),
                // Quality telemetry: the rebuild-to-minimum oracle's
                // denominator and the excess over it (0 = minimum).
                ("quality_minimum_blocks", minimum),
                ("quality_blocks_over_minimum", (blocks - minimum).max(0.0)),
            ] {
                m.gauge_set(key(name), v);
            }
            if extent_total > 0 {
                let ratio = r.extent_shared_bytes as f64 / extent_total as f64;
                m.gauge_set(key("mem_sharing_ratio"), ratio);
            }
        }
    }

    /// One-stop metrics export: publishes the mem reports first (so the
    /// `mem_*`/`quality_*` attribution is always current, not only when
    /// a caller remembered the publish call), then renders the metrics
    /// registry as JSON. Returns `None` when metrics were never enabled.
    pub fn export_metrics_json(&mut self) -> Option<String> {
        self.obs.metrics()?;
        self.publish_mem_reports();
        Some(self.obs.metrics_json())
    }

    /// Freezes every registered index into an immutable
    /// [`IndexSnapshot`] (registration order; `None` for families that
    /// cannot freeze). O(blocks) per index: extent runs are
    /// `Arc`-shared, not copied — the writer's next mutation of a
    /// frozen block clones only that block's run. Each index's freeze
    /// runs under one family-tagged `Freeze` span carrying the frozen
    /// blocks and the index's cumulative CoW clone count (→
    /// `snapshots_total`, `snapshot_freeze_nanos`, `snapshot_blocks`,
    /// `snapshot_cow_clones`); snapshots are returned either way.
    pub fn freeze(&mut self) -> Vec<Option<IndexSnapshot>> {
        self.traced(|e| {
            let mut out = Vec::with_capacity(e.entries.len());
            for entry in &e.entries {
                let sp = SpanGuard::enter_family(SpanKind::Freeze, entry.family);
                let snap = entry.index.freeze(&e.g);
                sp.add_cow_clones(entry.index.cow_clones());
                if let Some(s) = snap.as_ref() {
                    sp.add_blocks(s.block_count() as u64);
                }
                drop(sp);
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
    /// one `Op` span per graph mutation (already applied), an
    /// `IndexDispatch` span per registered index (registration order)
    /// around `hook`, and the op's count and time booked into
    /// [`EngineStats`]. Edge hooks return `Some(stats)`: each index's
    /// stats label its dispatch span and are absorbed into the
    /// per-index and engine stats. Node hooks return `None`. Returns the
    /// op's stats folded over all indexes.
    fn fan_out(
        &mut self,
        op: OpKind,
        mut hook: impl FnMut(&mut dyn StructuralIndex, &Graph) -> Option<UpdateStats>,
    ) -> UpdateStats {
        let op_span = SpanGuard::enter(SpanKind::Op);
        op_span.set_label(SpanLabel::Op(op));
        let t = Instant::now();
        // Fold from the absorb identity: the aggregate's `no_op` is true
        // iff every index took its no-op fast path.
        let mut total = UpdateStats::identity();
        for e in &mut self.entries {
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
                    self.fan_out(OpKind::AddNode, |idx, g| {
                        idx.on_node_added(g, n);
                        None
                    });
                    r.created.push(n);
                    r.ops_applied += 1;
                }
                UpdateOp::InsertEdge { from, to, kind } => {
                    let (u, v) = (from.resolve(&r.created)?, to.resolve(&r.created)?);
                    self.g.insert_edge(u, v, *kind)?;
                    let s = self.fan_out(OpKind::InsertEdge, |idx, g| {
                        Some(idx.on_edge_inserted(g, u, v))
                    });
                    r.stats.absorb(&s);
                    r.ops_applied += 1;
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
                    self.fan_out(OpKind::RemoveNode, |idx, g| {
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

    /// The dense-store telemetry rides the mem report: per family, the
    /// iedge maps in the inline and the spilled representation.
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
        engine.publish_mem_reports();
        let m = engine.obs().metrics().unwrap();
        let gauge = |name, f| m.gauge_value(&MetricKey::named(name).family(IndexFamily(f)));
        // The 1-index keeps two iedge maps per live block; a tiny
        // graph's maps are all inline.
        let inline = gauge("mem_iedge_inline_maps", 0).expect("1-index map counts");
        assert!(inline > 0.0);
        assert_eq!(Some(inline), gauge("mem_blocks", 0).map(|b| 2.0 * b));
        assert_eq!(gauge("mem_iedge_spilled_maps", 0), Some(0.0));
        // The simple baseline keeps no iedge maps.
        assert_eq!(gauge("mem_iedge_inline_maps", 1), Some(0.0));
        assert_eq!(gauge("mem_iedge_spilled_maps", 1), Some(0.0));
        // Publishing with metrics off is a no-op.
        let mut silent = UpdateEngine::new(host().0);
        silent.register(Box::new(OneIndex::build(silent.graph())));
        silent.publish_mem_reports();
        assert!(silent.obs().metrics().is_none());
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
        // Publishing with metrics off is a no-op.
        let mut silent = UpdateEngine::new(host().0);
        silent.register(Box::new(OneIndex::build(silent.graph())));
        silent.publish_mem_reports();
        assert!(silent.obs().metrics().is_none());
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
