//! The [`StructuralIndex`] trait — one maintenance interface for every
//! index in this crate.
//!
//! The paper studies three maintenance algorithms over two index families
//! (split/merge and propagate over the 1-index; split/merge and the
//! simple BFS-repartition baseline over the A(k)-index). Before this
//! trait existed the repo carried three parallel dispatch paths — a
//! macro in `batch.rs`, `enum` matches in the bench driver, and separate
//! query entry points. The trait collapses them:
//!
//! * **mutation fan-out** — the [`crate::engine::UpdateEngine`] applies
//!   each graph mutation exactly once and notifies every registered index
//!   through the object-safe hooks below;
//! * **batching** — [`crate::UpdateEngine::apply_batch`] runs a batch's
//!   phases through the same fan-out core as the single ops;
//! * **query evaluation** — every family answers
//!   [`StructuralIndex::query_view`], so `xsi-query` has a single
//!   block-walk and no family needs a special case;
//! * **reconstruction** — [`StructuralIndex::rebuild`] gives the 5 %-growth
//!   [`crate::rebuild::RebuildPolicy`] a uniform trigger target.
//!
//! ### Hook contract
//!
//! The hooks are *post-mutation observers*: the caller mutates the
//! [`Graph`] first and notifies afterwards (`on_edge_inserted` runs with
//! the edge present, `on_edge_deleted` with it absent, `on_node_added`
//! with the node alive and edgeless, `on_node_removing` with the node
//! still alive but already edgeless — the graph removal happens after).
//! This is the only ordering that lets several indexes observe one
//! mutation. Convenience mutators like [`OneIndex::insert_edge`] remain
//! for the single-index case and are equivalent to mutate-then-notify.

use crate::akindex::{AkIndex, SimpleAkIndex};
use crate::check;
use crate::obs::mem::MemReport;
use crate::oneindex::OneIndex;
use crate::rebuild::reconstruct_1index;
use crate::stats::UpdateStats;
use crate::view::IndexSnapshot;
use xsi_graph::{Graph, NodeId};

/// A structural index over a [`Graph`] it does not own, maintainable
/// through object-safe post-mutation hooks.
pub trait StructuralIndex {
    /// A short human-readable description, e.g. `"1-index"` or
    /// `"A(3)-index"`. Used in engine stats and experiment output.
    fn describe(&self) -> String;

    /// Number of inodes (blocks) in the index partition.
    fn block_count(&self) -> usize;

    /// Observer for a freshly added node. The node must be alive in `g`
    /// and have no edges yet.
    fn on_node_added(&mut self, g: &Graph, n: NodeId);

    /// Observer for a node about to be removed. All of the node's edges
    /// must already have been deleted (and observed); `g.remove_node`
    /// happens after this hook returns.
    fn on_node_removing(&mut self, g: &Graph, n: NodeId);

    /// Observer for an edge insertion already applied to `g`.
    fn on_edge_inserted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats;

    /// Observer for an edge deletion already applied to `g`.
    fn on_edge_deleted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats;

    /// Reconstructs the index from scratch (or via the index graph where
    /// the family supports it) so that it is the minimum index of `g`.
    /// This is the [`crate::rebuild::RebuildPolicy`] target.
    fn rebuild(&mut self, g: &Graph);

    /// The size of the freshly built *minimum* index of the same family
    /// and parameters — the denominator of the paper's quality metric
    /// `size / minimum − 1`. Not charged to maintenance time.
    fn minimum_block_count(&self, g: &Graph) -> usize;

    /// Internal consistency + validity oracle (test/debug aid): verifies
    /// the index's invariants against `g` and returns a description of
    /// the first violation.
    fn check(&self, g: &Graph) -> Result<(), String>;

    /// A uniform read-only view of the index's iedge graph for query
    /// evaluation. Families that keep no iedges (the simple baseline
    /// maintains extents only) answer with the block graph their class
    /// assignment induces.
    fn query_view<'a>(&'a self, g: &'a Graph) -> Box<dyn IndexQueryView + 'a>;

    /// A point-in-time deep-memory attribution of the index (extent
    /// bytes split shared/owned, iedge inline/spill split, side tables,
    /// slab shell, dead-slot retention — see [`MemReport`] and DESIGN.md
    /// §13), or `None` for families without accounting. The report's
    /// `total_bytes()` equals the structure's deep `heap_use()` exactly.
    fn mem_report(&self) -> Option<MemReport> {
        None
    }

    /// Freezes an immutable in-memory [`IndexSnapshot`] of the index in
    /// O(blocks) — extent runs are `Arc`-shared, not copied (see
    /// [`crate::view`]). `None` for families that cannot produce a
    /// self-contained queryable view.
    fn freeze(&self, _g: &Graph) -> Option<IndexSnapshot> {
        None
    }

    /// Cumulative count of extent runs the writer has had to clone
    /// because a frozen snapshot still shared them (exported as
    /// `snapshot_cow_clones`). Always 0 for families whose freeze
    /// materializes rather than shares.
    fn cow_clones(&self) -> u64 {
        0
    }

    /// Escape hatch to the concrete type (for tests and tools that need
    /// family-specific APIs on an index registered as a trait object).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Block-level navigation over an index graph: everything the generic
/// query evaluator needs, with raw `u32` block ids so one object-safe
/// interface covers [`crate::partition::BlockId`] and
/// [`crate::akindex::ABlockId`] alike.
pub trait IndexQueryView {
    /// The block containing the graph root.
    fn start_block(&self) -> u32;
    /// Iedge successors of a block.
    fn isucc(&self, b: u32) -> Vec<u32>;
    /// The label name shared by the block's extent.
    fn label_name(&self, b: u32) -> &str;
    /// The block's extent of dnodes, borrowed from the index — extent
    /// iteration over matched blocks allocates nothing.
    fn extent(&self, b: u32) -> &[NodeId];
    /// Maximum predicate-free path length the index answers *exactly*;
    /// `None` means unbounded (the 1-index). Longer paths are safe
    /// over-approximations that need validation.
    fn precise_up_to(&self) -> Option<usize>;
}

// ---------------------------------------------------------------------------
// 1-index (split/merge)
// ---------------------------------------------------------------------------

impl StructuralIndex for OneIndex {
    fn describe(&self) -> String {
        "1-index".into()
    }

    fn block_count(&self) -> usize {
        OneIndex::block_count(self)
    }

    fn on_node_added(&mut self, g: &Graph, n: NodeId) {
        OneIndex::on_node_added(self, g, n);
    }

    fn on_node_removing(&mut self, g: &Graph, n: NodeId) {
        OneIndex::on_node_removing(self, g, n);
    }

    fn on_edge_inserted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        self.notify_edge_inserted(g, u, v)
    }

    fn on_edge_deleted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        self.notify_edge_deleted(g, u, v)
    }

    fn rebuild(&mut self, g: &Graph) {
        // The maintained index is always a refinement of the minimum
        // (Lemma 1), so the cheap index-graph reconstruction applies.
        *self = reconstruct_1index(g, self);
    }

    fn minimum_block_count(&self, g: &Graph) -> usize {
        OneIndex::build(g).block_count()
    }

    fn check(&self, g: &Graph) -> Result<(), String> {
        self.partition().check_consistency(g)?;
        if let Some(v) = check::validity_violation(g, self.partition()) {
            return Err(v);
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn query_view<'a>(&'a self, g: &'a Graph) -> Box<dyn IndexQueryView + 'a> {
        Box::new(OneIndexView { idx: self, g })
    }

    fn mem_report(&self) -> Option<MemReport> {
        Some(self.partition().mem_report())
    }

    fn freeze(&self, g: &Graph) -> Option<IndexSnapshot> {
        Some(IndexSnapshot::from_one_index(g, self, self.describe()))
    }

    fn cow_clones(&self) -> u64 {
        self.partition().cow_clone_count()
    }
}

struct OneIndexView<'a> {
    idx: &'a OneIndex,
    g: &'a Graph,
}

impl IndexQueryView for OneIndexView<'_> {
    fn start_block(&self) -> u32 {
        self.idx.block_of(self.g.root()).raw()
    }

    fn isucc(&self, b: u32) -> Vec<u32> {
        // Raw view ids are slot indexes; reconstruct the live
        // generation-checked handle before touching the partition.
        let b = self.idx.partition().handle(b);
        self.idx.isucc(b).map(|c| c.raw()).collect()
    }

    fn label_name(&self, b: u32) -> &str {
        let b = self.idx.partition().handle(b);
        self.g.labels().name(self.idx.label(b))
    }

    fn extent(&self, b: u32) -> &[NodeId] {
        self.idx.extent(self.idx.partition().handle(b))
    }

    fn precise_up_to(&self) -> Option<usize> {
        None // bisimulation answers every linear path exactly
    }
}

// ---------------------------------------------------------------------------
// 1-index (propagate baseline)
// ---------------------------------------------------------------------------

/// The *propagate* baseline viewed as a [`StructuralIndex`]: the same
/// [`OneIndex`] state, but edge observers run the split phase only (no
/// merges), so the index drifts away from minimality — the behaviour the
/// 5 %-growth [`crate::rebuild::RebuildPolicy`] exists to bound.
#[derive(Clone, Debug)]
pub struct PropagateOneIndex(pub OneIndex);

impl PropagateOneIndex {
    /// Builds the minimum 1-index to start from.
    pub fn build(g: &Graph) -> Self {
        PropagateOneIndex(OneIndex::build(g))
    }

    /// The wrapped index.
    pub fn inner(&self) -> &OneIndex {
        &self.0
    }
}

impl StructuralIndex for PropagateOneIndex {
    fn describe(&self) -> String {
        "1-index(propagate)".into()
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

    fn on_edge_inserted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        debug_assert!(g.has_edge(u, v), "notify before mutating the graph");
        self.0.apply_insert(g, u, v, false)
    }

    fn on_edge_deleted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        debug_assert!(!g.has_edge(u, v), "notify after mutating the graph");
        self.0.apply_delete(g, u, v, false)
    }

    fn rebuild(&mut self, g: &Graph) {
        // Propagate keeps the index a refinement of the minimum, so the
        // paper's index-graph reconstruction (Section 7.1) applies.
        self.0 = reconstruct_1index(g, &self.0);
    }

    fn minimum_block_count(&self, g: &Graph) -> usize {
        OneIndex::build(g).block_count()
    }

    fn check(&self, g: &Graph) -> Result<(), String> {
        self.0.partition().check_consistency(g)?;
        if let Some(v) = check::validity_violation(g, self.0.partition()) {
            return Err(v);
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn query_view<'a>(&'a self, g: &'a Graph) -> Box<dyn IndexQueryView + 'a> {
        Box::new(OneIndexView { idx: &self.0, g })
    }

    fn mem_report(&self) -> Option<MemReport> {
        Some(self.0.partition().mem_report())
    }

    fn freeze(&self, g: &Graph) -> Option<IndexSnapshot> {
        Some(IndexSnapshot::from_one_index(g, &self.0, self.describe()))
    }

    fn cow_clones(&self) -> u64 {
        self.0.partition().cow_clone_count()
    }
}

// ---------------------------------------------------------------------------
// A(k)-index (split/merge on the refinement tree)
// ---------------------------------------------------------------------------

impl StructuralIndex for AkIndex {
    fn describe(&self) -> String {
        format!("A({})-index", self.k())
    }

    fn block_count(&self) -> usize {
        AkIndex::block_count(self)
    }

    fn on_node_added(&mut self, g: &Graph, n: NodeId) {
        AkIndex::on_node_added(self, g, n);
    }

    fn on_node_removing(&mut self, g: &Graph, n: NodeId) {
        AkIndex::on_node_removing(self, g, n);
    }

    fn on_edge_inserted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        self.notify_edge_inserted(g, u, v)
    }

    fn on_edge_deleted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        self.notify_edge_deleted(g, u, v)
    }

    fn rebuild(&mut self, g: &Graph) {
        *self = AkIndex::build(g, self.k());
    }

    fn minimum_block_count(&self, g: &Graph) -> usize {
        AkIndex::build(g, self.k()).block_count()
    }

    fn check(&self, g: &Graph) -> Result<(), String> {
        self.check_consistency(g)?;
        let chain = self.chain_assignments(g);
        if let Some(v) = check::ak_chain_violation(g, &chain) {
            return Err(v);
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn query_view<'a>(&'a self, g: &'a Graph) -> Box<dyn IndexQueryView + 'a> {
        Box::new(AkIndexView { idx: self, g })
    }

    fn mem_report(&self) -> Option<MemReport> {
        Some(AkIndex::mem_report(self))
    }

    fn freeze(&self, g: &Graph) -> Option<IndexSnapshot> {
        Some(IndexSnapshot::from_ak_index(g, self, self.describe()))
    }

    fn cow_clones(&self) -> u64 {
        self.cow_clone_count()
    }
}

struct AkIndexView<'a> {
    idx: &'a AkIndex,
    g: &'a Graph,
}

impl IndexQueryView for AkIndexView<'_> {
    fn start_block(&self) -> u32 {
        self.idx.block_of(self.g.root()).raw()
    }

    fn isucc(&self, b: u32) -> Vec<u32> {
        self.idx
            .isucc(self.idx.handle(b))
            .map(|c| c.raw())
            .collect()
    }

    fn label_name(&self, b: u32) -> &str {
        self.g.labels().name(self.idx.label(self.idx.handle(b)))
    }

    fn extent(&self, b: u32) -> &[NodeId] {
        self.idx.extent(self.idx.handle(b))
    }

    fn precise_up_to(&self) -> Option<usize> {
        Some(self.idx.k())
    }
}

// ---------------------------------------------------------------------------
// A(k)-index (simple BFS-repartition baseline)
// ---------------------------------------------------------------------------

impl StructuralIndex for SimpleAkIndex {
    fn describe(&self) -> String {
        format!("A({})-index(simple)", self.k())
    }

    fn block_count(&self) -> usize {
        SimpleAkIndex::block_count(self)
    }

    fn on_node_added(&mut self, g: &Graph, n: NodeId) {
        SimpleAkIndex::on_node_added(self, g, n);
    }

    fn on_node_removing(&mut self, g: &Graph, n: NodeId) {
        SimpleAkIndex::on_node_removing(self, g, n);
    }

    fn on_edge_inserted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        self.notify_edge_inserted(g, u, v)
    }

    fn on_edge_deleted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        self.notify_edge_deleted(g, u, v)
    }

    fn rebuild(&mut self, g: &Graph) {
        let memoize = self.memoize();
        *self = SimpleAkIndex::build(g, self.k()).with_memoization(memoize);
    }

    fn minimum_block_count(&self, g: &Graph) -> usize {
        AkIndex::build(g, self.k()).block_count()
    }

    fn check(&self, g: &Graph) -> Result<(), String> {
        self.check_consistency(g)
    }

    fn mem_report(&self) -> Option<MemReport> {
        Some(SimpleAkIndex::mem_report(self))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    // The simple baseline maintains extents only, no iedges: its query
    // view is the block graph its class assignment induces, derived in
    // O(n + m) — the same image a freeze takes (a documented deviation
    // from the O(blocks) views of the iedge-bearing families). Horizon
    // `Some(k)` is sound because the baseline always refines the exact
    // k-bisimulation.
    fn query_view<'a>(&'a self, g: &'a Graph) -> Box<dyn IndexQueryView + 'a> {
        Box::new(IndexSnapshot::from_simple_ak(g, self, self.describe()))
    }

    fn freeze(&self, g: &Graph) -> Option<IndexSnapshot> {
        Some(IndexSnapshot::from_simple_ak(g, self, self.describe()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsi_graph::{EdgeKind, GraphBuilder};

    fn host() -> Graph {
        let (g, _) = GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "a"), (3, "a"), (4, "b")])
            .edges(&[(1, 2), (1, 3), (2, 4)])
            .root_to(1)
            .build_with_ids();
        g
    }

    /// All four implementations observe one mutation stream identically
    /// to their concrete mutators.
    #[test]
    fn trait_hooks_match_concrete_mutators() {
        let g0 = host();
        let mut indexes: Vec<Box<dyn StructuralIndex>> = vec![
            Box::new(OneIndex::build(&g0)),
            Box::new(PropagateOneIndex::build(&g0)),
            Box::new(AkIndex::build(&g0, 2)),
            Box::new(SimpleAkIndex::build(&g0, 2)),
        ];
        let mut g = g0.clone();
        let n = g.add_node("c", None);
        for idx in &mut indexes {
            idx.on_node_added(&g, n);
        }
        let anchor = g.nodes().find(|&x| g.label_name(x) == "b").unwrap();
        g.insert_edge(anchor, n, EdgeKind::Child).unwrap();
        for idx in &mut indexes {
            let stats = idx.on_edge_inserted(&g, anchor, n);
            // The split/merge indexes do real work for a brand-new iedge;
            // the simple baseline may legitimately report a no-op when the
            // BFS-repartition leaves its (singleton) blocks unchanged.
            if !idx.describe().contains("simple") {
                assert!(!stats.no_op, "{}: new iedge is not a no-op", idx.describe());
            }
            idx.check(&g)
                .unwrap_or_else(|e| panic!("{}: {e}", idx.describe()));
        }
        g.delete_edge(anchor, n).unwrap();
        for idx in &mut indexes {
            idx.on_edge_deleted(&g, anchor, n);
            idx.check(&g)
                .unwrap_or_else(|e| panic!("{}: {e}", idx.describe()));
        }
        for idx in &mut indexes {
            idx.on_node_removing(&g, n);
        }
        g.remove_node(n).unwrap();
        for idx in &mut indexes {
            idx.check(&g)
                .unwrap_or_else(|e| panic!("{}: {e}", idx.describe()));
        }
    }

    #[test]
    fn rebuild_restores_minimum_for_every_family() {
        let g = host();
        let mut indexes: Vec<Box<dyn StructuralIndex>> = vec![
            Box::new(OneIndex::build(&g)),
            Box::new(PropagateOneIndex::build(&g)),
            Box::new(AkIndex::build(&g, 2)),
            Box::new(SimpleAkIndex::build(&g, 2)),
        ];
        for idx in &mut indexes {
            idx.rebuild(&g);
            assert_eq!(
                idx.block_count(),
                idx.minimum_block_count(&g),
                "{}",
                idx.describe()
            );
            idx.check(&g).unwrap();
        }
    }

    #[test]
    fn query_views_exist_where_expected() {
        let g = host();
        let one = OneIndex::build(&g);
        let ak = AkIndex::build(&g, 2);
        let simple = SimpleAkIndex::build(&g, 2);
        let view = StructuralIndex::query_view(&one, &g);
        assert_eq!(view.label_name(view.start_block()), "ROOT");
        assert!(view.precise_up_to().is_none());
        let akview = StructuralIndex::query_view(&ak, &g);
        assert_eq!(akview.precise_up_to(), Some(2));
        // The extent-only simple baseline answers through the block graph
        // its assignment induces, with the same horizon as A(k).
        let simple_view = StructuralIndex::query_view(&simple, &g);
        assert_eq!(simple_view.label_name(simple_view.start_block()), "ROOT");
        assert_eq!(simple_view.precise_up_to(), Some(2));
        let a_block = simple_view
            .isucc(simple_view.isucc(simple_view.start_block())[0])
            .into_iter()
            .find(|&b| simple_view.label_name(b) == "a")
            .expect("site has an a child block");
        assert_eq!(
            simple_view.extent(a_block).len(),
            2,
            "a nodes share a block"
        );
    }
}
