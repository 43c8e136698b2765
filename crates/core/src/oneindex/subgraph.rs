//! Subgraph addition for the 1-index: the batched step of Figure 6.
//!
//! [`crate::UpdateEngine::add_subgraph`] writes the subgraph's nodes,
//! its internal edges and the edges into its root, then hands them to
//! the 1-index whole. The index builds the subgraph's own 1-index in
//! place: its blocks are simply unioned into the host index, since no
//! other boundary edge exists yet. It singles the root out, as the
//! edges into it require, and runs the merge phase just once. The
//! engine then feeds every remaining boundary edge through the
//! ordinary edge insertion. Corollary 1: the result is minimal (minimum
//! on DAGs).
//!
//! Removal needs no code of its own: a `RemoveNode` batch deletes each
//! member's edges through the maintained edge deletion, then the
//! isolated node, so the index stays minimal throughout.

use crate::kernel;
use crate::obs::span::{SpanGuard, SpanKind};
use crate::partition::BlockId;
use crate::stats::UpdateStats;
use std::collections::HashMap;
use xsi_graph::{Graph, Label, NodeId};

use super::OneIndex;

impl OneIndex {
    /// Figure 6's batched step over a subgraph already in `g`: `nodes`
    /// (its root first), their internal edges and the edges into the
    /// root, none of which the index has seen. `do_merge` is off for the
    /// *propagate* baseline, which keeps the index correct but lets it
    /// drift from minimal.
    pub(crate) fn apply_subgraph(
        &mut self,
        g: &Graph,
        nodes: &[NodeId],
        do_merge: bool,
    ) -> UpdateStats {
        self.p.ensure_capacity(g);
        let mut stats = UpdateStats {
            no_op: false,
            ..UpdateStats::default()
        };
        let Some(&root) = nodes.first() else {
            return stats;
        };
        // Label-partition the new nodes into fresh blocks. Sort the
        // fresh blocks before refining: worklist order decides the
        // order splits allocate new blocks, so it must not depend on
        // hash state for block ids to be reproducible.
        let mut by_label: HashMap<Label, BlockId> = HashMap::new();
        for &n in nodes {
            let b = *by_label
                .entry(g.label(n))
                .or_insert_with(|| self.p.new_block(g.label(n)));
            self.p.attach_node(n, b);
        }
        let mut fresh: Vec<BlockId> = by_label.values().copied().collect();
        fresh.sort_unstable();
        // Register every edge into the new nodes before any of them
        // moves: refinement re-homes the counts of the edges the graph
        // holds. Only the root has parents outside the fresh blocks.
        let mut root_has_host_parent = false;
        for &n in nodes {
            for p in g.pred(n) {
                self.p.on_edge_inserted(p, n);
                root_has_host_parent |= !fresh.contains(&self.p.block_of(p));
            }
        }
        {
            let sp = SpanGuard::enter(SpanKind::Split);
            // Refine the fresh blocks to a self-stable fixpoint. Their
            // successors all lie inside the subgraph, so this is exactly
            // "build Φ'(G') and union it with Φ(G)".
            kernel::refine_to_fixpoint(&mut self.p, g, &fresh);
            // The edges into the root can only require singling the root
            // out (Section 5.2).
            if root_has_host_parent {
                self.split_phase(g, root, &mut stats);
            }
            sp.add_blocks(stats.splits as u64);
            sp.set_queue_depth(stats.queue_peak as u64);
        }
        stats.intermediate_blocks = self.p.block_count();
        if do_merge {
            let sp = SpanGuard::enter(SpanKind::Merge);
            self.merge_phase(self.p.block_of(root), &mut stats);
            sp.add_blocks(stats.merges as u64);
        }
        stats.final_blocks = self.p.block_count();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::figure2_graph;
    use super::*;
    use crate::check::{is_minimal_1index, minimality_violation};
    use crate::{reference, IndexHandle, UpdateEngine, UpdateOp};
    use xsi_graph::{extract_subtree, DetachedSubgraph, EdgeKind};

    /// An engine over `g` with the split/merge 1-index registered.
    fn engine_over(g: Graph) -> (UpdateEngine, IndexHandle) {
        let mut engine = UpdateEngine::new(g);
        let h = engine.register(Box::new(OneIndex::build(engine.graph())));
        (engine, h)
    }

    fn one(engine: &UpdateEngine, h: IndexHandle) -> &OneIndex {
        engine.index(h).as_any().downcast_ref().unwrap()
    }

    /// A subgraph removal: one `RemoveNode` batch over its members.
    fn remove(engine: &mut UpdateEngine, members: &[NodeId]) {
        let batch: Vec<UpdateOp> = members
            .iter()
            .map(|&node| UpdateOp::RemoveNode { node })
            .collect();
        engine.apply_batch(&batch).unwrap();
    }

    fn assert_minimum(engine: &UpdateEngine, h: IndexHandle) {
        let (g, idx) = (engine.graph(), one(engine, h));
        idx.partition().check_consistency(g).unwrap();
        assert!(
            is_minimal_1index(g, idx.partition()),
            "{:?}",
            minimality_violation(g, idx.partition())
        );
        let classes = reference::bisim_classes(g);
        assert_eq!(idx.canonical(), reference::canonical_partition(g, &classes));
    }

    #[test]
    fn add_detached_tree() {
        let (g, ids) = figure2_graph();
        let (mut engine, h) = engine_over(g);
        // New subgraph: C -> D (mirrors the existing 5→8 shape) hung
        // under node 2 — after addition it should merge with {5} and {8}.
        let mut sub = DetachedSubgraph::new();
        let c = sub.add_node("C", None);
        let d = sub.add_node("D", None);
        sub.add_edge(c, d, EdgeKind::Child);
        sub.incoming.push((ids[&1], c, EdgeKind::Child));
        sub.incoming.push((ids[&2], c, EdgeKind::Child));
        let result = engine.add_subgraph(&sub).unwrap();
        assert!(!result.stats.no_op);
        // New C has parents {1, 2} just like 5.
        let (map, idx) = (&result.created, one(&engine, h));
        assert_eq!(idx.block_of(map[0]), idx.block_of(ids[&5]));
        assert_eq!(idx.block_of(map[1]), idx.block_of(ids[&8]));
        assert_minimum(&engine, h);
    }

    #[test]
    fn extract_remove_re_add_round_trip() {
        let (g, ids) = figure2_graph();
        let (mut engine, h) = engine_over(g);
        let nodes_before = engine.graph().node_count();
        let canon_before = one(&engine, h).canonical();

        let (sub, members) = extract_subtree(engine.graph(), ids[&2]);
        assert_eq!(sub.node_count(), 7); // 2,3,4,5 and leaves 6,7,8
        remove(&mut engine, &members);
        assert_minimum(&engine, h);
        assert_eq!(engine.graph().node_count(), nodes_before - sub.node_count());

        engine.add_subgraph(&sub).unwrap();
        assert_eq!(engine.graph().node_count(), nodes_before);
        assert_minimum(&engine, h);
        // The re-added index must have the same shape (sizes) as before.
        let mut sizes_before: Vec<usize> = canon_before.iter().map(|e| e.len()).collect();
        sizes_before.sort_unstable();
        let canon_after = one(&engine, h).canonical();
        let mut sizes_after: Vec<usize> = canon_after.iter().map(|e| e.len()).collect();
        sizes_after.sort_unstable();
        assert_eq!(sizes_before, sizes_after);
    }

    #[test]
    fn add_subgraph_with_outgoing_idrefs() {
        let (g, ids) = figure2_graph();
        let (mut engine, h) = engine_over(g);
        let mut sub = DetachedSubgraph::new();
        let a = sub.add_node("auction", None);
        let i = sub.add_node("itemref", None);
        sub.add_edge(a, i, EdgeKind::Child);
        sub.incoming
            .push((engine.graph().root(), a, EdgeKind::Child));
        sub.outgoing.push((i, ids[&6], EdgeKind::IdRef));
        let map = engine.add_subgraph(&sub).unwrap().created;
        assert!(engine.graph().has_edge(map[1], ids[&6]));
        assert_minimum(&engine, h);
    }

    #[test]
    fn removing_everything_leaves_root_index() {
        let (g, ids) = figure2_graph();
        let (mut engine, h) = engine_over(g);
        let (_, members) = extract_subtree(engine.graph(), ids[&1]);
        assert_eq!(members.len(), 8);
        remove(&mut engine, &members);
        assert_eq!(engine.graph().node_count(), 1);
        assert_eq!(one(&engine, h).block_count(), 1);
        assert_minimum(&engine, h);
    }
}
