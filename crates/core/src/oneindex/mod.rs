//! The 1-index (Milo & Suciu): bisimulation-based structural index, with
//! Paige–Tarjan construction and the paper's split/merge incremental
//! maintenance.
//!
//! Module layout:
//! * [`mod@self`] — the [`OneIndex`] type, from-scratch construction, node
//!   add/remove, and read-only queries;
//! * [`maintain`] — edge insertion/deletion with split **and** merge
//!   phases (Figure 3; Lemma 3/Theorem 1 guarantees);
//! * [`subgraph`] — Figure 6's batched subgraph addition, the hook
//!   [`crate::UpdateEngine::add_subgraph`] hands a subgraph to whole.
//!
//! Construction and both phases run the refinement loops of
//! [`crate::kernel`] directly on the index's [`Partition`]. The
//! split-only *propagate* baseline of Kaushik et al. is the same index
//! with the merge phase off: [`crate::PropagateOneIndex`].

pub mod maintain;
pub mod subgraph;

use crate::kernel;
use crate::partition::{BlockId, Partition};
use xsi_graph::{Graph, Label, NodeId};

/// A 1-index over a [`Graph`].
///
/// The index does not own the graph. The edge mutators take the graph
/// too and apply the change themselves; node removal, subgraph addition
/// and several indexes over one graph go through [`crate::UpdateEngine`].
/// Read queries (`extent`, `block_of`, `isucc`, …) go through the
/// embedded [`Partition`].
///
/// Constructed by [`OneIndex::build`] the index is the **minimum** 1-index;
/// maintained through [`OneIndex::insert_edge`] / [`OneIndex::delete_edge`]
/// or the engine it stays **minimal** (minimum on acyclic graphs —
/// Theorem 1; Corollary 1 for subgraph additions).
#[derive(Clone, Debug)]
pub struct OneIndex {
    pub(crate) p: Partition,
}

impl OneIndex {
    /// Builds the minimum 1-index of `g` by partition refinement: start
    /// from the label partition (A(0)) and split against every block's
    /// successor set until the partition is stable with respect to itself,
    /// re-queuing both halves of every split (Paige–Tarjan \[12\] worklist).
    /// The refinement moves nodes without iedge counts; every iedge is
    /// counted once, after the partition is final.
    pub fn build(g: &Graph) -> Self {
        let mut p = Partition::new(g);
        // Label blocks are minted in order of their first node.
        let mut by_label = vec![BlockId::default(); g.labels().len()];
        for n in g.nodes() {
            let label = g.label(n);
            // xsi-lint: allow(slice-index, every node label is interned in the graph, so its index is below labels().len())
            let b = &mut by_label[label.index()];
            if !p.is_live(*b) {
                *b = p.new_block(label);
            }
            p.attach_node(n, *b);
        }
        let seeds: Vec<BlockId> = p.blocks().collect();
        kernel::refine_to_fixpoint(&mut p, g, &seeds);
        p.rebuild_counts(g);
        OneIndex { p }
    }

    /// Number of inodes.
    pub fn block_count(&self) -> usize {
        self.p.block_count()
    }

    /// The inode containing dnode `n` — the paper's `I[n]`.
    pub fn block_of(&self, n: NodeId) -> BlockId {
        self.p.block_of(n)
    }

    /// The extent of an inode.
    pub fn extent(&self, b: BlockId) -> &[NodeId] {
        self.p.extent(b)
    }

    /// The label shared by an inode's extent.
    pub fn label(&self, b: BlockId) -> Label {
        self.p.label(b)
    }

    /// Iterates over live inode ids.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.p.blocks()
    }

    /// Index successors `ISucc(b)`.
    pub fn isucc(&self, b: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        self.p.children(b).map(|(c, _)| c)
    }

    /// Index parents of `b`.
    pub fn iparents(&self, b: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        self.p.parents(b).map(|(c, _)| c)
    }

    /// Whether the iedge `from → to` exists.
    pub fn has_iedge(&self, from: BlockId, to: BlockId) -> bool {
        self.p.has_iedge(from, to)
    }

    /// Read access to the underlying partition (checkers, experiments).
    pub fn partition(&self) -> &Partition {
        &self.p
    }

    /// Canonical sorted extents, for partition-equality assertions.
    pub fn canonical(&self) -> Vec<Vec<NodeId>> {
        self.p.canonical()
    }

    /// Registers a freshly added node (which must not have any edges yet).
    /// The node gets its own inode, which is immediately merged with a
    /// label-equal parentless inode if one exists, preserving minimality.
    pub fn on_node_added(&mut self, g: &Graph, n: NodeId) {
        self.p.ensure_capacity(g);
        debug_assert_eq!(g.in_degree(n) + g.out_degree(n), 0);
        let b = self.p.new_block(g.label(n));
        self.p.attach_node(n, b);
        if let (Some(partner), _) = self.p.find_merge_partner(b) {
            self.p.merge_blocks(partner, b);
        }
    }

    /// Unregisters a node about to be removed (all of its edges must have
    /// been deleted through [`OneIndex::delete_edge`] already). Call
    /// *before* `Graph::remove_node`.
    pub fn on_node_removing(&mut self, g: &Graph, n: NodeId) {
        debug_assert_eq!(g.in_degree(n) + g.out_degree(n), 0);
        let b = self.p.detach_node(n);
        if self.p.size(b) == 0 {
            self.p.release_block(b);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::check::{is_minimal_1index, is_valid_1index, minimality_violation};
    use crate::reference;
    use xsi_graph::GraphBuilder;

    /// The Figure 2(a) data graph (without the dashed edge), reverse-
    /// engineered from the paper's narrative: index before update is
    /// {1},{2},{3,4},{5},{6,7},{8}.
    pub(crate) fn figure2_graph() -> (Graph, std::collections::BTreeMap<u64, NodeId>) {
        GraphBuilder::new()
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
            .build_with_ids()
    }

    #[test]
    fn build_matches_reference_on_figure2() {
        let (g, ids) = figure2_graph();
        let idx = OneIndex::build(&g);
        let classes = reference::bisim_classes(&g);
        assert_eq!(
            idx.canonical(),
            reference::canonical_partition(&g, &classes)
        );
        // Narrative check: {3,4} together, {5} apart, {6,7} together.
        assert_eq!(idx.block_of(ids[&3]), idx.block_of(ids[&4]));
        assert_ne!(idx.block_of(ids[&3]), idx.block_of(ids[&5]));
        assert_eq!(idx.block_of(ids[&6]), idx.block_of(ids[&7]));
        assert_ne!(idx.block_of(ids[&6]), idx.block_of(ids[&8]));
    }

    #[test]
    fn build_is_valid_and_minimal() {
        let (g, _) = figure2_graph();
        let idx = OneIndex::build(&g);
        assert!(is_valid_1index(&g, idx.partition()));
        assert!(
            is_minimal_1index(&g, idx.partition()),
            "{:?}",
            minimality_violation(&g, idx.partition())
        );
        idx.partition().check_consistency(&g).unwrap();
    }

    #[test]
    fn build_on_cyclic_graph_matches_reference() {
        let (g, _) = GraphBuilder::new()
            .nodes(&[(1, "A"), (2, "B"), (3, "A"), (4, "B"), (5, "C")])
            .edges(&[(1, 2), (3, 4), (4, 5)])
            .idref_edges(&[(2, 1), (4, 3), (5, 1)])
            .root_to(1)
            .root_to(3)
            .build_with_ids();
        let idx = OneIndex::build(&g);
        let classes = reference::bisim_classes(&g);
        assert_eq!(
            idx.canonical(),
            reference::canonical_partition(&g, &classes)
        );
        idx.partition().check_consistency(&g).unwrap();
    }

    #[test]
    fn iedges_reflect_dedges() {
        let (g, ids) = figure2_graph();
        let idx = OneIndex::build(&g);
        let b1 = idx.block_of(ids[&1]);
        let b2 = idx.block_of(ids[&2]);
        let b34 = idx.block_of(ids[&3]);
        assert!(idx.has_iedge(b1, b2));
        assert!(idx.has_iedge(b2, b34));
        assert!(!idx.has_iedge(b34, b2));
        assert!(idx.isucc(b2).count() >= 2); // {3,4} and {5}
        assert!(idx.iparents(b2).any(|p| p == b1));
    }

    #[test]
    fn node_add_and_remove_round_trip() {
        let (mut g, _) = figure2_graph();
        let mut idx = OneIndex::build(&g);
        let before = idx.canonical();
        let n = g.add_node("E", None);
        idx.on_node_added(&g, n);
        assert_eq!(idx.block_count(), before.len() + 1);
        idx.partition().check_consistency(&g).unwrap();
        idx.on_node_removing(&g, n);
        g.remove_node(n).unwrap();
        assert_eq!(idx.canonical(), before);
        idx.partition().check_consistency(&g).unwrap();
    }

    #[test]
    fn added_node_merges_with_parentless_twin() {
        let (mut g, _) = figure2_graph();
        let mut idx = OneIndex::build(&g);
        let n1 = g.add_node("E", None);
        idx.on_node_added(&g, n1);
        let n2 = g.add_node("E", None);
        idx.on_node_added(&g, n2);
        assert_eq!(
            idx.block_of(n1),
            idx.block_of(n2),
            "two parentless E-nodes are bisimilar"
        );
        assert!(is_minimal_1index(&g, idx.partition()));
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::new();
        let idx = OneIndex::build(&g);
        assert_eq!(idx.block_count(), 1);
        assert!(is_valid_1index(&g, idx.partition()));
    }
}
