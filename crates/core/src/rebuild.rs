//! Index reconstruction — the fallback that baseline algorithms need
//! periodically (Section 7.1).
//!
//! The paper adopts the "index reconstruction" idea of Kaushik et al.:
//! *run the construction algorithm on top of the index graph (treating it
//! as a data graph), and then blow up each inode of the new index by
//! replacing each inode of the old index with its extent of dnodes.* This
//! is valid because the current index is always a refinement of the
//! minimum (Lemma 1), and it is much cheaper than reconstructing from the
//! data graph when the index is small.
//!
//! [`RebuildPolicy`] implements the triggering heuristic used in the
//! experiments: *remember the size of the index when it was last
//! reconstructed, and reconstruct whenever the current index is more than
//! 5 % larger than that.*

use crate::oneindex::OneIndex;
use crate::partition::{BlockId, Partition};
use std::collections::BTreeMap;
use xsi_graph::{EdgeKind, Graph, NodeId};

/// Reconstructs the minimum 1-index from a (valid) current index by
/// building an index over the index graph and expanding extents.
pub fn reconstruct_1index(g: &Graph, current: &OneIndex) -> OneIndex {
    // A block whose extent has internal dedges carries a self-loop
    // iedge — possible only on cyclic data (e.g. two mutually-referencing
    // bisimilar nodes sharing a block). [`Graph`] cannot represent
    // self-loops (Section 5.1 assumes self-cycle-free *data*, and the
    // index graph here is recycled as a data graph), so the
    // index-of-index shortcut is unavailable; reconstruct from the data
    // graph instead. Found by the conformance lab (xsi-fuzz seed 0x32):
    // the old code panicked on `insert_edge(..) == Err(SelfLoop)`.
    if current.blocks().any(|b| current.has_iedge(b, b)) {
        return OneIndex::build(g);
    }
    // Materialize the index graph: one node per inode, labels preserved,
    // one edge per iedge.
    let mut ig = Graph::new();
    let mut inode_of_block: BTreeMap<BlockId, NodeId> = BTreeMap::new();
    for b in current.blocks() {
        let name = g.labels().name(current.label(b)).to_string();
        let n = ig.add_node(&name, None);
        inode_of_block.insert(b, n);
    }
    for b in current.blocks() {
        for c in current.isucc(b) {
            ig.insert_edge(inode_of_block[&b], inode_of_block[&c], EdgeKind::Child)
                .expect("invariant: the rebuilt index has simple iedges");
        }
    }
    // Index the index graph. Its ROOT meta-node is isolated and harmless:
    // the real ROOT inode keeps its distinguished label.
    let meta = OneIndex::build(&ig);

    // Blow up: two old inodes land in the same new inode iff their meta
    // nodes share a meta block.
    let mut p = Partition::new(g);
    let mut new_block_of_meta: BTreeMap<BlockId, BlockId> = BTreeMap::new();
    for b in current.blocks() {
        let meta_block = meta.block_of(inode_of_block[&b]);
        let nb = *new_block_of_meta
            .entry(meta_block)
            .or_insert_with(|| p.new_block(current.label(b)));
        for &n in current.extent(b) {
            p.attach_node(n, nb);
        }
    }
    p.rebuild_counts(g);
    OneIndex { p }
}

/// The 5 %-growth reconstruction trigger used by the experiments for both
/// the *propagate* 1-index baseline and the *simple* A(k) baseline.
#[derive(Clone, Copy, Debug)]
pub struct RebuildPolicy {
    /// Index size right after the last reconstruction.
    pub last_rebuilt_size: usize,
    /// Growth factor that triggers reconstruction (paper: 0.05).
    pub threshold: f64,
    /// Number of reconstructions triggered so far.
    pub rebuild_count: usize,
}

impl RebuildPolicy {
    /// Creates a policy with the paper's 5 % threshold.
    pub fn new(initial_size: usize) -> Self {
        RebuildPolicy {
            last_rebuilt_size: initial_size,
            threshold: 0.05,
            rebuild_count: 0,
        }
    }

    /// Whether the current size exceeds the last rebuilt size by more than
    /// the threshold.
    pub fn should_rebuild(&self, current_size: usize) -> bool {
        current_size as f64 > self.last_rebuilt_size as f64 * (1.0 + self.threshold)
    }

    /// Records that a reconstruction happened, yielding `new_size` inodes.
    pub fn on_rebuilt(&mut self, new_size: usize) {
        self.last_rebuilt_size = new_size;
        self.rebuild_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::is_minimal_1index;
    use crate::reference;
    use crate::{PropagateOneIndex, StructuralIndex};
    use xsi_graph::GraphBuilder;

    #[test]
    fn reconstruct_collapses_propagate_drift() {
        // Figure 2 graph; drive propagate updates until non-minimal, then
        // reconstruct and compare against the reference minimum.
        let (mut g, ids) = GraphBuilder::new()
            .nodes(&[(1, "A"), (2, "B"), (3, "C"), (4, "C"), (5, "C")])
            .nodes(&[(6, "D"), (7, "D"), (8, "D")])
            .edges(&[
                (1, 2),
                (1, 5),
                (2, 3),
                (2, 4),
                (2, 5),
                (3, 6),
                (4, 7),
                (5, 8),
            ])
            .root_to(1)
            .build_with_ids();
        let mut idx = PropagateOneIndex::build(&g);
        g.insert_edge(ids[&1], ids[&4], EdgeKind::IdRef).unwrap();
        idx.on_edge_inserted(&g, ids[&1], ids[&4]);
        assert!(!is_minimal_1index(&g, idx.inner().partition()));

        let rebuilt = reconstruct_1index(&g, idx.inner());
        rebuilt.partition().check_consistency(&g).unwrap();
        let classes = reference::bisim_classes(&g);
        assert_eq!(
            rebuilt.canonical(),
            reference::canonical_partition(&g, &classes)
        );
    }

    #[test]
    fn reconstruct_of_minimum_is_identity() {
        let (g, _) = GraphBuilder::new()
            .nodes(&[(1, "A"), (2, "B"), (3, "B")])
            .edges(&[(1, 2), (1, 3)])
            .root_to(1)
            .build_with_ids();
        let idx = OneIndex::build(&g);
        let rebuilt = reconstruct_1index(&g, &idx);
        assert_eq!(rebuilt.canonical(), idx.canonical());
    }

    #[test]
    fn policy_triggers_at_5_percent() {
        let mut policy = RebuildPolicy::new(1000);
        assert!(!policy.should_rebuild(1000));
        assert!(!policy.should_rebuild(1050));
        assert!(policy.should_rebuild(1051));
        policy.on_rebuilt(1100);
        assert_eq!(policy.rebuild_count, 1);
        assert!(!policy.should_rebuild(1150));
        assert!(policy.should_rebuild(1156));
    }
}

#[cfg(test)]
mod cyclic_tests {
    use super::*;
    use crate::reference;
    use crate::{PropagateOneIndex, StructuralIndex};
    use xsi_graph::{EdgeKind, GraphBuilder};

    /// Reconstruction via the index graph also lands on the minimum for
    /// cyclic data: the index-of-index collapse is idempotent on any
    /// valid (refinement-of-minimum) index.
    #[test]
    fn reconstruct_cyclic_drifted_index() {
        let (mut g, ids) = GraphBuilder::new()
            .nodes(&[(1, "P"), (2, "O"), (3, "P"), (4, "O"), (5, "P"), (6, "O")])
            .edges(&[(1, 2), (3, 4), (5, 6)])
            .idref_edges(&[(2, 1), (4, 3), (6, 5)])
            .root_to(1)
            .root_to(3)
            .root_to(5)
            .build_with_ids();
        let mut idx = PropagateOneIndex::build(&g);
        // Drift with propagate: cut and restore a cycle edge.
        let (u, v) = (ids[&2], ids[&1]);
        g.delete_edge(u, v).unwrap();
        idx.on_edge_deleted(&g, u, v);
        g.insert_edge(u, v, EdgeKind::IdRef).unwrap();
        idx.on_edge_inserted(&g, u, v);
        let min = reference::partition_size(&g, &reference::bisim_classes(&g));
        assert!(idx.block_count() > min, "propagate should have drifted");
        let rebuilt = reconstruct_1index(&g, idx.inner());
        assert_eq!(rebuilt.block_count(), min);
        rebuilt.partition().check_consistency(&g).unwrap();
    }

    /// Regression (found by the conformance lab, xsi-fuzz seed 0x32):
    /// two mutually-referencing bisimilar nodes share a block, giving
    /// the minimum index a self-loop iedge. Reconstruction used to
    /// panic materializing it (`Graph` forbids self-loops); it must
    /// fall back to a data-graph build instead.
    #[test]
    fn reconstruct_handles_self_loop_iedges() {
        let (g, _) = GraphBuilder::new()
            .nodes(&[(1, "c"), (2, "c")])
            .edges(&[(1, 2)])
            .idref_edges(&[(2, 1)])
            .root_to(1)
            .root_to(2)
            .build_with_ids();
        let idx = OneIndex::build(&g);
        // The two "c" nodes are bisimilar ⇒ one block with a self-loop.
        assert_eq!(idx.block_count(), 2);
        let b = idx.blocks().find(|&b| idx.extent(b).len() == 2).unwrap();
        assert!(idx.has_iedge(b, b), "precondition: self-loop iedge");
        let rebuilt = reconstruct_1index(&g, &idx);
        rebuilt.partition().check_consistency(&g).unwrap();
        assert_eq!(rebuilt.canonical(), idx.canonical());
    }
}
