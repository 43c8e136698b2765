//! Fault injection: deliberately broken 1-index maintenance.
//!
//! The conformance lab is only trustworthy if it demonstrably *catches*
//! maintenance bugs. [`FaultyOneIndex`] registers in the engine slot the
//! harness treats as "the split/merge 1-index" but runs corrupted
//! maintenance, so a mutation-smoke run must (a) fail, (b) shrink to a
//! tiny reproducer, and (c) replay deterministically. Two fault modes
//! cover the two detection paths:
//!
//! * [`FaultSpec::SkipMerge`] — runs the split phase only (the
//!   `propagate` baseline's behaviour wearing the full algorithm's
//!   badge). The index stays *valid*, so trait-level checks pass; only
//!   the harness's Definition-5 **minimality** oracle can convict it —
//!   exactly the class of bug (a forgotten merge step) the paper's
//!   Figure 3 deletion algorithm exists to prevent.
//! * [`FaultSpec::DropEdgeDelete`] — silently drops every `period`-th
//!   edge-deletion observation, leaving stale partition state. This
//!   corrupts **validity**/consistency, so the trait-level
//!   `StructuralIndex::check` (and, under the `paranoid` feature, the
//!   engine's own per-mutation self-check) fires.

use xsi_core::{
    IndexQueryView, OneIndex, Partition, PropagateOneIndex, StructuralIndex, UpdateStats,
};
use xsi_graph::{Graph, NodeId};

/// Which maintenance bug to plant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// Never merge: run split-only maintenance while claiming to be the
    /// full split/merge algorithm. Detected by the minimality oracle.
    SkipMerge,
    /// Drop every `period`-th edge-deletion observation (1-based count).
    /// Detected by validity/consistency checks.
    DropEdgeDelete {
        /// Drop the `period`-th, `2·period`-th, … deletion observations.
        period: usize,
    },
}

enum Flavor {
    /// Full split/merge index (used by `DropEdgeDelete`, which corrupts
    /// it by withholding observations).
    Full(OneIndex),
    /// Split-only maintenance (used by `SkipMerge`).
    SplitOnly(PropagateOneIndex),
}

/// A 1-index with a planted maintenance bug (see [`FaultSpec`]).
pub struct FaultyOneIndex {
    flavor: Flavor,
    fault: FaultSpec,
    deletes_seen: usize,
}

impl FaultyOneIndex {
    /// Builds the (initially correct) minimum 1-index of `g`; the fault
    /// manifests only during maintenance.
    pub fn build(g: &Graph, fault: FaultSpec) -> Self {
        let flavor = match fault {
            FaultSpec::SkipMerge => Flavor::SplitOnly(PropagateOneIndex::build(g)),
            FaultSpec::DropEdgeDelete { .. } => Flavor::Full(OneIndex::build(g)),
        };
        FaultyOneIndex {
            flavor,
            fault,
            deletes_seen: 0,
        }
    }

    /// The underlying partition (for the harness's minimality oracle).
    pub fn partition(&self) -> &Partition {
        match &self.flavor {
            Flavor::Full(idx) => idx.partition(),
            Flavor::SplitOnly(idx) => idx.inner().partition(),
        }
    }

    /// Canonical sorted extents, like [`OneIndex::canonical`].
    pub fn canonical(&self) -> Vec<Vec<NodeId>> {
        match &self.flavor {
            Flavor::Full(idx) => idx.canonical(),
            Flavor::SplitOnly(idx) => idx.inner().canonical(),
        }
    }

    fn as_dyn(&self) -> &dyn StructuralIndex {
        match &self.flavor {
            Flavor::Full(idx) => idx,
            Flavor::SplitOnly(idx) => idx,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn StructuralIndex {
        match &mut self.flavor {
            Flavor::Full(idx) => idx,
            Flavor::SplitOnly(idx) => idx,
        }
    }
}

impl StructuralIndex for FaultyOneIndex {
    fn describe(&self) -> String {
        match self.fault {
            FaultSpec::SkipMerge => "1-index(fault:skip-merge)".into(),
            FaultSpec::DropEdgeDelete { period } => {
                format!("1-index(fault:drop-edge-delete/{period})")
            }
        }
    }

    fn block_count(&self) -> usize {
        self.as_dyn().block_count()
    }

    fn on_node_added(&mut self, g: &Graph, n: NodeId) {
        self.as_dyn_mut().on_node_added(g, n);
    }

    fn on_node_removing(&mut self, g: &Graph, n: NodeId) {
        self.as_dyn_mut().on_node_removing(g, n);
    }

    fn on_edge_inserted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        self.as_dyn_mut().on_edge_inserted(g, u, v)
    }

    fn takes_subgraph_whole(&self) -> bool {
        self.as_dyn().takes_subgraph_whole()
    }

    fn on_subgraph_added(&mut self, g: &Graph, nodes: &[NodeId]) -> UpdateStats {
        self.as_dyn_mut().on_subgraph_added(g, nodes)
    }

    fn on_edge_deleted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        if let FaultSpec::DropEdgeDelete { period } = self.fault {
            self.deletes_seen += 1;
            if period > 0 && self.deletes_seen.is_multiple_of(period) {
                // The planted bug: pretend the deletion never happened.
                return UpdateStats::default();
            }
        }
        self.as_dyn_mut().on_edge_deleted(g, u, v)
    }

    fn rebuild(&mut self, g: &Graph) {
        // Rebuild genuinely repairs the index — the realistic behaviour
        // for an incremental-maintenance bug (mutation-smoke detection
        // therefore must come from the per-op oracles, not the final
        // rebuild pass).
        self.as_dyn_mut().rebuild(g);
    }

    fn minimum_block_count(&self, g: &Graph) -> usize {
        OneIndex::build(g).block_count()
    }

    fn check(&self, g: &Graph) -> Result<(), String> {
        self.as_dyn().check(g)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn query_view<'a>(&'a self, g: &'a Graph) -> Box<dyn IndexQueryView + 'a> {
        self.as_dyn().query_view(g)
    }

    // Freezes delegate to the (corrupted) inner index: the harness's
    // prefix-replay freeze oracle must hold even for a faulty index,
    // since the replica replays the identical faulty behaviour.
    fn freeze(
        &self,
        g: &Graph,
        base: Option<&xsi_core::IndexSnapshot>,
    ) -> Option<xsi_core::IndexSnapshot> {
        self.as_dyn().freeze(g, base)
    }

    fn cow_clones(&self) -> u64 {
        self.as_dyn().cow_clones()
    }
}

/// Downcasts any registered 1-index-family trait object (real,
/// propagate-baseline or fault-injected) to its [`Partition`].
pub fn one_index_partition(idx: &dyn StructuralIndex) -> Option<&Partition> {
    let any = idx.as_any();
    if let Some(one) = any.downcast_ref::<OneIndex>() {
        Some(one.partition())
    } else if let Some(prop) = any.downcast_ref::<PropagateOneIndex>() {
        Some(prop.inner().partition())
    } else {
        any.downcast_ref::<FaultyOneIndex>().map(|f| f.partition())
    }
}

/// Canonical sorted extents of any registered 1-index-family object.
pub fn one_index_canonical(idx: &dyn StructuralIndex) -> Option<Vec<Vec<NodeId>>> {
    let any = idx.as_any();
    if let Some(one) = any.downcast_ref::<OneIndex>() {
        Some(one.canonical())
    } else if let Some(prop) = any.downcast_ref::<PropagateOneIndex>() {
        Some(prop.inner().canonical())
    } else {
        any.downcast_ref::<FaultyOneIndex>().map(|f| f.canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsi_core::check;
    use xsi_graph::EdgeKind;

    /// The skip-merge fault leaves the index valid but (after a
    /// split-then-unsplit update pair) non-minimal.
    #[test]
    fn skip_merge_breaks_minimality_not_validity() {
        let mut g = Graph::new();
        let r = g.root();
        let a = g.add_node("a", None);
        let b1 = g.add_node("b", None);
        let b2 = g.add_node("b", None);
        g.insert_edge(r, a, EdgeKind::Child).unwrap();
        g.insert_edge(a, b1, EdgeKind::Child).unwrap();
        g.insert_edge(a, b2, EdgeKind::Child).unwrap();
        let c = g.add_node("c", None);
        g.insert_edge(r, c, EdgeKind::Child).unwrap();

        let mut idx = FaultyOneIndex::build(&g, FaultSpec::SkipMerge);
        // Split {b1,b2}: b1 gains a second parent...
        g.insert_edge(c, b1, EdgeKind::IdRef).unwrap();
        idx.on_edge_inserted(&g, c, b1);
        // ...then lose it again: merge is required but skipped.
        g.delete_edge(c, b1).unwrap();
        idx.on_edge_deleted(&g, c, b1);

        assert!(idx.check(&g).is_ok(), "fault keeps the index valid");
        assert!(
            check::minimality_violation(&g, idx.partition()).is_some(),
            "skip-merge must leave mergeable blocks behind"
        );
    }

    /// The drop-edge-delete fault corrupts validity.
    #[test]
    fn drop_edge_delete_breaks_validity() {
        let mut g = Graph::new();
        let r = g.root();
        let a = g.add_node("a", None);
        let b1 = g.add_node("b", None);
        let b2 = g.add_node("b", None);
        g.insert_edge(r, a, EdgeKind::Child).unwrap();
        g.insert_edge(a, b1, EdgeKind::Child).unwrap();
        g.insert_edge(a, b2, EdgeKind::Child).unwrap();
        g.insert_edge(r, b1, EdgeKind::IdRef).unwrap();

        // Every deletion observation is dropped (period 1).
        let mut idx = FaultyOneIndex::build(&g, FaultSpec::DropEdgeDelete { period: 1 });
        g.delete_edge(r, b1).unwrap();
        idx.on_edge_deleted(&g, r, b1);
        assert!(
            idx.check(&g).is_err(),
            "stale partition after a dropped deletion must fail validity"
        );
    }
}
