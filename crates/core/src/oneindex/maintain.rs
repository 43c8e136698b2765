//! Incremental split/merge maintenance of the 1-index — the paper's core
//! contribution (Figure 3).
//!
//! Each edge update runs two phases:
//!
//! * the **split phase** restores correctness: if the updated node `v` is
//!   no longer bisimilar to the rest of its inode, it is singled out, and
//!   the split is propagated with Paige–Tarjan compound-block processing
//!   (a three-way split against the small half `I` and the rest
//!   `𝓘 − {I}` that scans only `Succ(I)`);
//! * the **merge phase** restores minimality: starting from `I[v]`, merge
//!   any inode with a label-and-index-parent twin, then iteratively
//!   consider the index successors of freshly merged inodes.
//!
//! Lemma 3: if the index was minimal before the update, it is minimal
//! after. Combined with Lemma 4 this maintains the *minimum* 1-index on
//! acyclic data graphs (Theorem 1).
//!
//! ### Deletion guard
//!
//! The paper's printed deletion pseudocode returns early whenever *any*
//! dedge remains between `I[u]` and `I[v]`. Read literally that forfeits
//! both correctness (if `v` lost its last parent in `I[u]` while a sibling
//! kept one, `I[v]` is unstable w.r.t. `I[u]`) and minimality (if the
//! iedge vanished entirely, `I[v]`'s parent set changed and a merge may
//! have become possible). We implement the semantics the Lemma 3 proof
//! requires: return early only when `v` itself still has a parent in
//! `I[u]`; otherwise split `v` out iff the iedge survives through a
//! sibling, and always run the merge phase from `I[v]`.

use crate::kernel::{self, CompoundQueue};
use crate::obs::span::{SpanGuard, SpanKind};
use crate::partition::BlockId;
use crate::stats::UpdateStats;
use xsi_graph::{EdgeKind, Graph, GraphError, NodeId};

use super::OneIndex;

impl OneIndex {
    /// Inserts the dedge `(u, v)` into the graph and maintains the index
    /// (Figure 3). Returns per-update statistics.
    ///
    /// Both endpoints must already be indexed (see
    /// [`OneIndex::on_node_added`] for fresh nodes).
    // xsi-lint: allow(obs-coverage, delegates to apply_insert, which opens the Split/Merge spans)
    pub fn insert_edge(
        &mut self,
        g: &mut Graph,
        u: NodeId,
        v: NodeId,
        kind: EdgeKind,
    ) -> Result<UpdateStats, GraphError> {
        g.insert_edge(u, v, kind)?;
        Ok(self.apply_insert(g, u, v, true))
    }

    /// Deletes the dedge `(u, v)` from the graph and maintains the index.
    /// Returns the removed edge's kind alongside the statistics.
    // xsi-lint: allow(obs-coverage, delegates to apply_delete, which opens the Split/Merge spans)
    pub fn delete_edge(
        &mut self,
        g: &mut Graph,
        u: NodeId,
        v: NodeId,
    ) -> Result<(UpdateStats, EdgeKind), GraphError> {
        let kind = g.delete_edge(u, v)?;
        Ok((self.apply_delete(g, u, v, true), kind))
    }

    /// Maintenance hook for an edge insertion already applied to `g` by
    /// the caller — for running several indexes over one graph (mutate
    /// the graph once, notify each index). Equivalent to
    /// [`OneIndex::insert_edge`] minus the graph mutation.
    // xsi-lint: allow(obs-coverage, delegates to apply_insert, which opens the Split/Merge spans)
    pub fn notify_edge_inserted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        debug_assert!(g.has_edge(u, v), "notify before mutating the graph");
        self.apply_insert(g, u, v, true)
    }

    /// Maintenance hook for an edge deletion already applied to `g` by
    /// the caller; see [`OneIndex::notify_edge_inserted`].
    // xsi-lint: allow(obs-coverage, delegates to apply_delete, which opens the Split/Merge spans)
    pub fn notify_edge_deleted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        debug_assert!(!g.has_edge(u, v), "notify after mutating the graph");
        self.apply_delete(g, u, v, true)
    }

    /// Index maintenance for an edge insertion already applied to `g`.
    /// `do_merge` distinguishes split/merge from the *propagate* baseline.
    pub(crate) fn apply_insert(
        &mut self,
        g: &Graph,
        u: NodeId,
        v: NodeId,
        do_merge: bool,
    ) -> UpdateStats {
        let bu = self.p.block_of(u);
        let bv = self.p.block_of(v);
        let had_iedge = self.p.has_iedge(bu, bv);
        self.p.on_edge_inserted(u, v);
        let mut stats = UpdateStats {
            intermediate_blocks: self.p.block_count(),
            final_blocks: self.p.block_count(),
            no_op: true,
            ..UpdateStats::default()
        };
        if had_iedge {
            // Every dnode of I[v] already had a parent in I[u]; v gaining
            // one more changes no index parent set.
            return stats;
        }
        stats.no_op = false;
        {
            let sp = SpanGuard::enter(SpanKind::Split);
            self.split_phase(g, v, &mut stats);
            sp.add_blocks(stats.splits as u64);
            sp.set_queue_depth(stats.queue_peak as u64);
        }
        stats.intermediate_blocks = self.p.block_count();
        if do_merge {
            let sp = SpanGuard::enter(SpanKind::Merge);
            self.merge_phase(self.p.block_of(v), &mut stats);
            sp.add_blocks(stats.merges as u64);
        }
        stats.final_blocks = self.p.block_count();
        stats
    }

    /// Index maintenance for an edge deletion already applied to `g`.
    pub(crate) fn apply_delete(
        &mut self,
        g: &Graph,
        u: NodeId,
        v: NodeId,
        do_merge: bool,
    ) -> UpdateStats {
        let bu = self.p.block_of(u);
        self.p.on_edge_deleted(u, v);
        let mut stats = UpdateStats {
            intermediate_blocks: self.p.block_count(),
            final_blocks: self.p.block_count(),
            no_op: true,
            ..UpdateStats::default()
        };
        if g.pred(v).any(|p| self.p.block_of(p) == bu) {
            // v keeps a parent in I[u]: no index parent set changed.
            return stats;
        }
        stats.no_op = false;
        let bv = self.p.block_of(v);
        if self.p.has_iedge(bu, bv) {
            // Some sibling of v still has a parent in I[u], so v is no
            // longer bisimilar to it: single v out and propagate.
            let sp = SpanGuard::enter(SpanKind::Split);
            self.split_phase(g, v, &mut stats);
            sp.add_blocks(stats.splits as u64);
            sp.set_queue_depth(stats.queue_peak as u64);
        }
        // Either way I[v]'s parent set shrank — a merge may have opened up.
        stats.intermediate_blocks = self.p.block_count();
        if do_merge {
            let sp = SpanGuard::enter(SpanKind::Merge);
            self.merge_phase(self.p.block_of(v), &mut stats);
            sp.add_blocks(stats.merges as u64);
        }
        stats.final_blocks = self.p.block_count();
        stats
    }

    /// The split phase: single `v` out of its inode and run the
    /// [`kernel::process_compounds`] propagation loop.
    pub(crate) fn split_phase(&mut self, g: &Graph, v: NodeId, stats: &mut UpdateStats) {
        let bv = self.p.block_of(v);
        if self.p.size(bv) <= 1 {
            return;
        }
        // The initial single-out is the phase's first work item (it
        // seeds the compound queue); closed before process_compounds so
        // CompoundProcess spans never self-nest.
        let sp = SpanGuard::enter(SpanKind::CompoundProcess);
        let nb = self.p.new_block(self.p.label(bv));
        self.p.move_node(g, v, nb);
        stats.splits += 1;
        let mut cq = CompoundQueue::default();
        cq.push(vec![bv, nb]);
        sp.add_blocks(2);
        drop(sp);
        kernel::process_compounds(&mut self.p, g, &mut cq, stats);
    }

    /// The merge phase: try to merge `start` with a twin, then fold
    /// merges iteratively among the index successors of every freshly
    /// merged inode ([`kernel::merge_fold`] over the (label, index-parent
    /// set) equivalence).
    pub(crate) fn merge_phase(&mut self, start: BlockId, stats: &mut UpdateStats) {
        // The seed twin-search is its own work item (the fold's served
        // blocks open their own CompoundProcess spans); closed before
        // merge_fold so CompoundProcess spans never self-nest. Its elems
        // counter is the candidate blocks the search examined.
        let sp = SpanGuard::enter(SpanKind::CompoundProcess);
        let (partner, examined) = self.p.find_merge_partner(start);
        sp.add_elems(examined as u64);
        let Some(partner) = partner else {
            return;
        };
        sp.add_blocks(2);
        let merged = self.p.merge_group(&[start, partner]);
        stats.merges += 1;
        drop(sp);
        kernel::merge_fold(&mut self.p, merged, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::figure2_graph;
    use super::*;
    use crate::check::{is_minimal_1index, minimality_violation};
    use crate::reference;

    fn assert_minimal(g: &Graph, idx: &OneIndex) {
        idx.partition().check_consistency(g).unwrap();
        assert!(
            is_minimal_1index(g, idx.partition()),
            "not minimal: {:?}\n{:?}",
            minimality_violation(g, idx.partition()),
            idx.partition()
        );
    }

    fn assert_matches_reference(g: &Graph, idx: &OneIndex) {
        let classes = reference::bisim_classes(g);
        assert_eq!(
            idx.canonical(),
            reference::canonical_partition(g, &classes),
            "index differs from the minimum 1-index"
        );
    }

    /// The paper's worked example (Figure 2): inserting the dashed edge
    /// (1, 4) splits {3,4} then {6,7}, and the merge phase produces
    /// {4,5} and {7,8}.
    #[test]
    fn figure2_example() {
        let (mut g, ids) = figure2_graph();
        let mut idx = OneIndex::build(&g);
        assert_eq!(idx.block_count(), 7); // ROOT,{1},{2},{3,4},{5},{6,7},{8}
        let stats = idx
            .insert_edge(&mut g, ids[&1], ids[&4], EdgeKind::IdRef)
            .unwrap();
        assert!(!stats.no_op);
        // Figure 2(f): ROOT,{1},{2},{3},{4,5},{6},{7,8}.
        assert_eq!(idx.block_count(), 7);
        assert_eq!(idx.block_of(ids[&4]), idx.block_of(ids[&5]));
        assert_ne!(idx.block_of(ids[&3]), idx.block_of(ids[&4]));
        assert_eq!(idx.block_of(ids[&7]), idx.block_of(ids[&8]));
        assert_ne!(idx.block_of(ids[&6]), idx.block_of(ids[&7]));
        // Both splits (c)-(d) and both merges (e)-(f) happened.
        assert_eq!(stats.splits, 2);
        assert_eq!(stats.merges, 2);
        assert_minimal(&g, &idx);
        assert_matches_reference(&g, &idx); // acyclic ⇒ minimum
    }

    #[test]
    fn figure2_delete_reverses_insert() {
        let (mut g, ids) = figure2_graph();
        let mut idx = OneIndex::build(&g);
        let before = idx.canonical();
        idx.insert_edge(&mut g, ids[&1], ids[&4], EdgeKind::IdRef)
            .unwrap();
        let (stats, kind) = idx.delete_edge(&mut g, ids[&1], ids[&4]).unwrap();
        assert_eq!(kind, EdgeKind::IdRef);
        assert!(!stats.no_op);
        assert_eq!(idx.canonical(), before, "delete must restore the minimum");
        assert_minimal(&g, &idx);
    }

    /// No-op scenarios for insertion and deletion: the iedge between the
    /// endpoint inodes is supported by more than one dedge.
    #[test]
    fn noop_cases() {
        // Graph: r → a1, a2 (both label A); a1 → b, a2 → b (label B).
        // I[A] = {a1,a2}, I[b] = {b}; iedge I[A]→I[b] supported twice.
        let (mut g, ids) = xsi_graph::GraphBuilder::new()
            .nodes(&[(1, "A"), (2, "A"), (3, "B"), (4, "B")])
            .edges(&[(1, 3), (2, 3)])
            .root_to(1)
            .root_to(2)
            .build_with_ids();
        // Node 4 dangles off a1 and a2 too so it groups with... keep it
        // simple: give 4 the same parents as 3.
        g.insert_edge(ids[&1], ids[&4], EdgeKind::Child).unwrap();
        g.insert_edge(ids[&2], ids[&4], EdgeKind::Child).unwrap();
        let mut idx = OneIndex::build(&g);
        assert_eq!(idx.block_count(), 3); // ROOT, {a1,a2}, {b3,b4}
        let before = idx.canonical();

        // Deletion no-op: delete a1→b3; b3 still has parent a2 ∈ I[A].
        let (stats, _) = idx.delete_edge(&mut g, ids[&1], ids[&3]).unwrap();
        assert!(stats.no_op);
        assert_eq!(idx.canonical(), before);
        assert_minimal(&g, &idx);

        // Insertion no-op: re-insert a1→b3; iedge I[A]→I[B] already there.
        let stats = idx
            .insert_edge(&mut g, ids[&1], ids[&3], EdgeKind::Child)
            .unwrap();
        assert!(stats.no_op);
        assert_eq!(idx.canonical(), before);
        assert_minimal(&g, &idx);
    }

    /// Deletion where v loses its last parent in I[u] while a sibling
    /// keeps one — the case the paper's printed guard would miss.
    #[test]
    fn delete_splits_when_sibling_keeps_parent() {
        let (mut g, ids) = xsi_graph::GraphBuilder::new()
            .nodes(&[(1, "A"), (2, "B"), (3, "B")])
            .edges(&[(1, 2), (1, 3)])
            .root_to(1)
            .root_to(2)
            .root_to(3)
            .build_with_ids();
        let mut idx = OneIndex::build(&g);
        assert_eq!(idx.block_of(ids[&2]), idx.block_of(ids[&3]));
        // Delete 1→3: 3's parents become {ROOT}, 2 keeps {ROOT, 1}.
        let (stats, _) = idx.delete_edge(&mut g, ids[&1], ids[&3]).unwrap();
        assert!(!stats.no_op);
        assert_ne!(idx.block_of(ids[&2]), idx.block_of(ids[&3]));
        assert_minimal(&g, &idx);
        assert_matches_reference(&g, &idx);
    }

    /// Deletion removing the whole iedge must still trigger merges.
    #[test]
    fn delete_enables_merge() {
        // r → a → b1; r → b2. b1 parents {a}, b2 parents {r}: separate.
        // Deleting a→b1 leaves b1 parentless... instead: give b1 parents
        // {r, a} so deletion of a→b1 equalizes with b2.
        let (mut g, ids) = xsi_graph::GraphBuilder::new()
            .nodes(&[(1, "A"), (2, "B"), (3, "B")])
            .edges(&[(1, 2)])
            .root_to(1)
            .root_to(2)
            .root_to(3)
            .build_with_ids();
        let mut idx = OneIndex::build(&g);
        assert_ne!(idx.block_of(ids[&2]), idx.block_of(ids[&3]));
        let (stats, _) = idx.delete_edge(&mut g, ids[&1], ids[&2]).unwrap();
        assert!(!stats.no_op);
        assert_eq!(stats.merges, 1);
        assert_eq!(idx.block_of(ids[&2]), idx.block_of(ids[&3]));
        assert_minimal(&g, &idx);
        assert_matches_reference(&g, &idx);
    }

    /// A chain of updates on a DAG always equals the rebuilt minimum
    /// (Theorem 1).
    #[test]
    fn update_sequence_tracks_minimum_on_dag() {
        let (mut g, ids) = figure2_graph();
        let mut idx = OneIndex::build(&g);
        let updates: Vec<(u64, u64)> = vec![(1, 4), (1, 3), (2, 6), (3, 8), (1, 6)];
        for &(u, v) in &updates {
            idx.insert_edge(&mut g, ids[&u], ids[&v], EdgeKind::IdRef)
                .unwrap();
            assert_minimal(&g, &idx);
            assert_matches_reference(&g, &idx);
        }
        for &(u, v) in updates.iter().rev() {
            idx.delete_edge(&mut g, ids[&u], ids[&v]).unwrap();
            assert_minimal(&g, &idx);
            assert_matches_reference(&g, &idx);
        }
    }

    /// Updates on a cyclic graph keep the index minimal (Theorem 1's
    /// cyclic clause); this particular sequence also stays minimum.
    #[test]
    fn cyclic_updates_stay_minimal() {
        let (mut g, ids) = xsi_graph::GraphBuilder::new()
            .nodes(&[(1, "P"), (2, "O"), (3, "P"), (4, "O"), (5, "P"), (6, "O")])
            .edges(&[(1, 2), (3, 4), (5, 6)])
            .root_to(1)
            .root_to(3)
            .root_to(5)
            .build_with_ids();
        let mut idx = OneIndex::build(&g);
        // Create person→auction→person cycles one at a time.
        for &(u, v) in &[(2u64, 3u64), (4, 5), (6, 1)] {
            idx.insert_edge(&mut g, ids[&u], ids[&v], EdgeKind::IdRef)
                .unwrap();
            assert_minimal(&g, &idx);
        }
        for &(u, v) in &[(2u64, 3u64), (4, 5), (6, 1)] {
            idx.delete_edge(&mut g, ids[&u], ids[&v]).unwrap();
            assert_minimal(&g, &idx);
        }
        assert_matches_reference(&g, &idx);
    }
}

#[cfg(test)]
mod node_op_tests {
    use super::super::tests::figure2_graph;
    use crate::check::is_minimal_1index;
    use crate::reference;
    use crate::{IndexHandle, OneIndex, UpdateEngine, UpdateOp};
    use xsi_graph::{EdgeKind, NodeId};

    /// Node deletion is a `RemoveNode` op: the engine deletes the node's
    /// edges through edge-deletion maintenance, then the node (§1).
    fn remove_node(engine: &mut UpdateEngine, node: NodeId) {
        engine.apply(&UpdateOp::RemoveNode { node }).unwrap();
    }

    fn one(engine: &UpdateEngine, h: IndexHandle) -> &OneIndex {
        engine.index(h).as_any().downcast_ref().unwrap()
    }

    #[test]
    fn delete_node_keeps_minimum_on_dag() {
        let (g, ids) = figure2_graph();
        let mut engine = UpdateEngine::new(g);
        let h = engine.register(Box::new(OneIndex::build(engine.graph())));
        remove_node(&mut engine, ids[&4]);
        let (g, idx) = (engine.graph(), one(&engine, h));
        idx.partition().check_consistency(g).unwrap();
        assert!(is_minimal_1index(g, idx.partition()));
        let classes = reference::bisim_classes(g);
        assert_eq!(idx.canonical(), reference::canonical_partition(g, &classes));
        assert!(!g.is_alive(ids[&4]));
    }

    #[test]
    fn add_then_delete_node_round_trips() {
        let (g, ids) = figure2_graph();
        let mut engine = UpdateEngine::new(g);
        let h = engine.register(Box::new(OneIndex::build(engine.graph())));
        let before = one(&engine, h).canonical();
        let n = engine.add_node("C", None);
        engine.insert_edge(ids[&2], n, EdgeKind::Child).unwrap();
        engine.insert_edge(n, ids[&8], EdgeKind::IdRef).unwrap();
        remove_node(&mut engine, n);
        let idx = one(&engine, h);
        assert_eq!(idx.canonical(), before);
        idx.partition().check_consistency(engine.graph()).unwrap();
    }
}

#[cfg(test)]
mod worstcase_tests {
    use crate::OneIndex;
    use xsi_graph::{EdgeKind, Graph};

    /// Figure 5: twin chains shared in the old index are torn apart by
    /// the split phase (Ω(n) intermediate blow-up) and folded back by the
    /// merge phase onto a third, pre-separated chain.
    #[test]
    fn figure5_intermediate_blowup_and_recovery() {
        let d = 20;
        let mut g = Graph::new();
        let root = g.root();
        let w = g.add_node("w", None);
        g.insert_edge(root, w, EdgeKind::Child).unwrap();
        let chain = |g: &mut Graph, under_w: bool| {
            let top = g.add_node("t0", None);
            g.insert_edge(g.root(), top, EdgeKind::Child).unwrap();
            if under_w {
                g.insert_edge(w, top, EdgeKind::Child).unwrap();
            }
            let mut prev = top;
            for i in 1..d {
                let n = g.add_node(&format!("t{i}"), None);
                g.insert_edge(prev, n, EdgeKind::Child).unwrap();
                prev = n;
            }
            top
        };
        let t1 = chain(&mut g, false);
        let _t2 = chain(&mut g, false);
        let _t3 = chain(&mut g, true);

        let mut idx = OneIndex::build(&g);
        let old = idx.block_count();
        assert_eq!(old, 2 * d + 2); // root, w, shared chain, t3 chain
        let stats = idx.insert_edge(&mut g, w, t1, EdgeKind::IdRef).unwrap();
        assert_eq!(stats.intermediate_blocks, 3 * d + 2, "Ω(n) blow-up");
        assert_eq!(stats.final_blocks, old, "merge phase recovers fully");
        assert_eq!(stats.splits, d);
        assert_eq!(stats.merges, d);
        idx.partition().check_consistency(&g).unwrap();
        assert!(crate::check::is_minimal_1index(&g, idx.partition()));
    }
}
