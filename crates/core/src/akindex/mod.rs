//! The A(k)-index (Kaushik et al., ICDE'02): a structural index based on
//! k-bisimilarity, maintained incrementally per Section 6 of the paper.
//!
//! Following the paper's implementation strategy, the whole chain
//! `A(0), A(1), …, A(k)` is kept in one **refinement tree**:
//!
//! * level-`k` blocks own dnode extents and the intra-level iedges used
//!   for query evaluation;
//! * levels `0..k` are interior tree nodes whose extents are implied by
//!   their descendant leaves (each `A(i)` block links to the `A(i+1)`
//!   blocks it contains);
//! * between consecutive levels we keep the "inter-iedges" the maintenance
//!   algorithm needs: `E_i(S@i → T@i+1)` counts the dedges `(u, v)` with
//!   `u ∈ S` and `v ∈ T`, stored on both endpoints (`succ_cross` /
//!   `pred_cross`). The A(i)-index parents of an A(i+1) block — the
//!   minimality test of Definition 6 — are exactly its `pred_cross` keys.
//!
//! Storage lives on the dense data plane of [`crate::store`] (DESIGN.md
//! §10): blocks sit in a generation-checked [`SlotMap`] (stale
//! [`ABlockId`]s held across a release are caught by `debug_assert`),
//! every count map is an adaptive [`IedgeMap`] whose iteration is sorted
//! in both representations, and tree children are a `BTreeSet` — so no
//! iteration order anywhere in this module depends on hash state.
//!
//! Module layout: this file defines the tree and its primitive mutations
//! (count registration, chain moves, block merges); [`maintain`]
//! implements the Figure 7 split/merge update algorithm; [`simple`]
//! implements the baseline updater the paper compares against.

pub mod maintain;
pub mod simple;
pub mod storage;
pub mod subgraph;

pub use simple::SimpleAkIndex;
pub use storage::StorageReport;

use crate::obs::mem::{btree_set_heap, vec_cap_heap, HeapUse, MemReport};
use crate::store::iedge::key_set_sig;
use crate::store::{CowVec, IedgeMap, ScratchTable, SlotKey, SlotMap};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;
use xsi_graph::{Graph, Label, NodeId};

/// Identifier of a block at any level of the refinement tree: a slot
/// index plus the generation it was minted with (see [`SlotKey`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ABlockId {
    idx: u32,
    generation: u32,
}

impl ABlockId {
    const INVALID: ABlockId = ABlockId {
        idx: u32::MAX,
        generation: u32::MAX,
    };

    /// Dense index for side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The raw slot index — the stable `u32` form used by query views,
    /// snapshots, and class assignments. Rehydrate with
    /// [`AkIndex::handle`].
    #[inline]
    pub fn raw(self) -> u32 {
        self.idx
    }
}

impl SlotKey for ABlockId {
    fn from_raw_parts(idx: u32, gen: u32) -> Self {
        ABlockId {
            idx,
            generation: gen,
        }
    }
    fn idx(self) -> u32 {
        self.idx
    }
    fn gen(self) -> u32 {
        self.generation
    }
}

impl Default for ABlockId {
    fn default() -> Self {
        Self::INVALID
    }
}

impl fmt::Debug for ABlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.idx)
    }
}

#[derive(Clone, Debug)]
struct ABlock {
    level: u8,
    label: Label,
    /// Number of dnodes in the (implied) extent — maintained at every
    /// level so split decisions never need to materialize extents.
    weight: u32,
    /// Refinement-tree parent (level−1); INVALID at level 0.
    tree_parent: ABlockId,
    /// Refinement-tree children (level+1); empty at level k. Sorted, so
    /// tree traversals are deterministic without per-visit sorting.
    tree_children: BTreeSet<ABlockId>,
    /// Extent; populated only at level k. `Arc`-shared with frozen
    /// snapshots (`core::view`): writes go through `CowVec::make_mut`
    /// and clone only when a snapshot holds the run.
    extent: CowVec<NodeId>,
    /// `E_{level−1}` reversed: dedge counts from level−1 blocks into self.
    pred_cross: IedgeMap<ABlockId>,
    /// `E_level`: dedge counts from self into level+1 blocks (level < k).
    succ_cross: IedgeMap<ABlockId>,
    /// Intra-level-k iedges (query structure); level k only.
    succ_intra: IedgeMap<ABlockId>,
    pred_intra: IedgeMap<ABlockId>,
}

impl Default for ABlock {
    fn default() -> Self {
        ABlock {
            level: 0,
            label: Label::from_index(0),
            weight: 0,
            tree_parent: ABlockId::INVALID,
            tree_children: BTreeSet::new(),
            extent: CowVec::new(),
            pred_cross: IedgeMap::new(),
            succ_cross: IedgeMap::new(),
            succ_intra: IedgeMap::new(),
            pred_intra: IedgeMap::new(),
        }
    }
}

impl HeapUse for ABlock {
    /// The block's heap payload: extent run, all four iedge maps, and
    /// the refinement-tree child set. The struct itself is slab-resident.
    fn heap_use(&self) -> usize {
        self.extent.heap_bytes()
            + self.pred_cross.heap_use()
            + self.succ_cross.heap_use()
            + self.pred_intra.heap_use()
            + self.succ_intra.heap_use()
            + btree_set_heap::<ABlockId>(self.tree_children.len())
    }
}

/// The A(k)-index with its full A(0)..A(k) refinement tree.
///
/// Built by [`AkIndex::build`] this is the minimum chain; maintained via
/// [`AkIndex::insert_edge`] / [`AkIndex::delete_edge`] it stays the
/// **minimum** chain on any data graph (Theorem 2).
#[derive(Clone)]
pub struct AkIndex {
    k: usize,
    blocks: SlotMap<ABlockId, ABlock>,
    /// Live block count per level (index = level).
    level_counts: Vec<usize>,
    /// dnode → level-k block.
    node_block: Vec<ABlockId>,
    node_pos: Vec<u32>,
    /// Scratch marks for dedup scans.
    mark: Vec<u32>,
    epoch: u32,
    /// Split-pass scratch (indexed by block slot), reused across updates
    /// so the hot `split_levels_by` path allocates nothing per call.
    /// Between splits the compound loop's parent probe borrows
    /// `split_full` to mark the probed blocks.
    split_counts: ScratchTable<u32>,
    split_full: ScratchTable<bool>,
    split_partner: ScratchTable<ABlockId>,
    /// Cumulative count of extent runs cloned because a frozen snapshot
    /// still shared them (exported as `snapshot_cow_clones`).
    cow_clones: u64,
}

impl AkIndex {
    /// Builds the minimum A(k)-index chain: level 0 groups by label, and
    /// each level `i` refines level `i−1` by the set of level-`i−1`
    /// classes of a node's parents (k-bisimilarity), as in the O(km)
    /// construction of Kaushik et al.
    pub fn build(g: &Graph, k: usize) -> Self {
        assert!(k < u8::MAX as usize, "k too large");
        // Compute class assignments per level.
        let mut levels: Vec<Vec<u32>> = Vec::with_capacity(k + 1);
        {
            let mut classes = vec![u32::MAX; g.capacity()];
            let mut ids: HashMap<Label, u32> = HashMap::new();
            for n in g.nodes() {
                let next = ids.len() as u32;
                classes[n.index()] = *ids.entry(g.label(n)).or_insert(next);
            }
            levels.push(classes);
        }
        for _ in 1..=k {
            let prev = levels
                .last()
                .expect("invariant: construction always creates level 0");
            let mut ids: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
            let mut classes = vec![u32::MAX; g.capacity()];
            for n in g.nodes() {
                let mut parents: Vec<u32> = g.pred(n).map(|p| prev[p.index()]).collect();
                parents.sort_unstable();
                parents.dedup();
                let next = ids.len() as u32;
                classes[n.index()] = *ids.entry((prev[n.index()], parents)).or_insert(next);
            }
            levels.push(classes);
        }
        Self::from_assignments(g, k, &levels)
    }

    /// Materializes an index from per-level class assignments (each level
    /// must refine the previous). Used by `build` and by tests.
    pub(crate) fn from_assignments(g: &Graph, k: usize, levels: &[Vec<u32>]) -> Self {
        let mut idx = AkIndex {
            k,
            blocks: SlotMap::new(),
            level_counts: vec![0; k + 1],
            node_block: vec![ABlockId::INVALID; g.capacity()],
            node_pos: vec![0; g.capacity()],
            mark: vec![0; g.capacity()],
            epoch: 0,
            split_counts: ScratchTable::new(),
            split_full: ScratchTable::new(),
            split_partner: ScratchTable::new(),
            cow_clones: 0,
        };
        // Create blocks per (level, class) and link the tree.
        let mut block_of_class: Vec<HashMap<u32, ABlockId>> = vec![HashMap::new(); k + 1];
        for n in g.nodes() {
            let mut parent = ABlockId::INVALID;
            for (level, assignment) in levels.iter().enumerate() {
                let class = assignment[n.index()];
                let b = match block_of_class[level].get(&class) {
                    Some(&b) => b,
                    None => {
                        let b = idx.new_block(level as u8, g.label(n));
                        block_of_class[level].insert(class, b);
                        if parent != ABlockId::INVALID {
                            idx.link_tree(parent, b);
                        }
                        b
                    }
                };
                idx.blocks[b].weight += 1;
                if level == k {
                    idx.node_block[n.index()] = b;
                    idx.node_pos[n.index()] = idx.blocks[b].extent.len() as u32;
                    idx.blocks[b].extent.make_mut(&mut idx.cow_clones).push(n);
                }
                parent = b;
            }
        }
        // Register every dedge at every level pair.
        for u in g.nodes() {
            for v in g.succ(u) {
                idx.register_edge(u, v);
            }
        }
        idx
    }

    /// The `k` of this A(k)-index.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of inodes in the A(level)-index.
    pub fn level_count(&self, level: usize) -> usize {
        self.level_counts[level]
    }

    /// Number of inodes in the A(k)-index proper (the level-k partition).
    pub fn block_count(&self) -> usize {
        self.level_counts[self.k]
    }

    /// Total blocks across all levels (refinement-tree size).
    pub fn total_blocks(&self) -> usize {
        self.level_counts.iter().sum()
    }

    /// The level-k inode containing `n`.
    pub fn block_of(&self, n: NodeId) -> ABlockId {
        let b = self.node_block[n.index()];
        debug_assert!(b != ABlockId::INVALID, "node {n:?} not indexed");
        b
    }

    /// The level-`level` inode containing `n` (walks the refinement tree).
    pub fn block_of_at(&self, n: NodeId, level: usize) -> ABlockId {
        let mut b = self.block_of(n);
        for _ in level..self.k {
            b = self.blocks[b].tree_parent;
        }
        b
    }

    /// The extent of a level-k inode.
    pub fn extent(&self, b: ABlockId) -> &[NodeId] {
        debug_assert_eq!(self.blocks[b].level as usize, self.k);
        &self.blocks[b].extent
    }

    /// Mutable extent access for the maintainer modules, routed through
    /// the copy-on-write gate: a run still shared with a frozen
    /// snapshot is cloned before the `&mut` is handed out.
    fn extent_mut(&mut self, b: ABlockId) -> &mut Vec<NodeId> {
        debug_assert_eq!(self.blocks[b].level as usize, self.k);
        self.blocks[b].extent.make_mut(&mut self.cow_clones)
    }

    /// Shares a level-k inode's extent run with a frozen snapshot:
    /// O(1), no node ids copied. The writer's next mutation of `b`
    /// clones the run (counted in [`AkIndex::cow_clone_count`]).
    pub fn share_extent(&self, b: ABlockId) -> Arc<Vec<NodeId>> {
        debug_assert_eq!(self.blocks[b].level as usize, self.k); // xsi-lint: allow(slice-index, caller passes a live level-k handle)
        self.blocks[b].extent.share() // xsi-lint: allow(slice-index, caller passes a live level-k handle)
    }

    /// Cumulative count of extent runs cloned because a frozen snapshot
    /// still shared them.
    pub fn cow_clone_count(&self) -> u64 {
        self.cow_clones
    }

    /// Label of a block.
    pub fn label(&self, b: ABlockId) -> Label {
        self.blocks[b].label
    }

    /// Level of a block.
    pub fn level(&self, b: ABlockId) -> usize {
        self.blocks[b].level as usize
    }

    /// Number of dnodes under a block (at any level).
    pub fn weight(&self, b: ABlockId) -> usize {
        self.blocks[b].weight as usize
    }

    /// Whether `b` is a live, current-generation handle.
    pub fn is_live(&self, b: ABlockId) -> bool {
        self.blocks.is_current(b)
    }

    /// The live handle for slot `idx` — for rehydrating the raw `u32`
    /// ids that query views, snapshots, and assignments carry.
    ///
    /// # Panics
    /// If the slot is dead or out of range.
    pub fn handle(&self, idx: u32) -> ABlockId {
        self.blocks
            .handle_at(idx)
            .unwrap_or_else(|| panic!("no live A-block at slot {idx}"))
    }

    /// Refinement-tree parent (the A(level−1) block containing this one).
    pub fn tree_parent(&self, b: ABlockId) -> Option<ABlockId> {
        let p = self.blocks[b].tree_parent;
        (p != ABlockId::INVALID).then_some(p)
    }

    /// Refinement-tree children, in ascending id order.
    pub fn tree_children(&self, b: ABlockId) -> impl Iterator<Item = ABlockId> + '_ {
        self.blocks[b].tree_children.iter().copied()
    }

    /// Live blocks at a level, in slot order.
    pub fn blocks_at(&self, level: usize) -> impl Iterator<Item = ABlockId> + '_ {
        self.blocks
            .iter()
            .filter(move |(_, blk)| blk.level as usize == level)
            .map(|(b, _)| b)
    }

    /// Intra-level-k index successors of a level-k block (the iedges used
    /// by query evaluation), in ascending id order.
    pub fn isucc(&self, b: ABlockId) -> impl Iterator<Item = ABlockId> + '_ {
        debug_assert_eq!(self.blocks[b].level as usize, self.k);
        self.blocks[b].succ_intra.keys()
    }

    /// Intra-level-k index parents of a level-k block, in ascending id
    /// order.
    pub fn ipred(&self, b: ABlockId) -> impl Iterator<Item = ABlockId> + '_ {
        debug_assert_eq!(self.blocks[b].level as usize, self.k);
        self.blocks[b].pred_intra.keys()
    }

    /// The A(level−1)-index parents of a block (keys of `pred_cross`) —
    /// the Definition 6 merge test compares these sets. Ascending id
    /// order.
    pub fn cross_parents(&self, b: ABlockId) -> impl Iterator<Item = ABlockId> + '_ {
        self.blocks[b].pred_cross.keys()
    }

    /// Whether two same-level blocks have identical A(level−1)-index
    /// parent sets. Rejects on parent count or signature in O(1);
    /// otherwise both key iterations are sorted, so the exact check is
    /// one linear sweep.
    pub fn same_cross_parents(&self, a: ABlockId, b: ABlockId) -> bool {
        self.blocks[a]
            .pred_cross
            .same_keys(&self.blocks[b].pred_cross)
    }

    /// The class assignment of the A(level)-index, in
    /// [`crate::reference::ClassAssignment`] form (block raw ids as class
    /// ids, `u32::MAX` for unindexed slots).
    pub fn assignment(&self, g: &Graph, level: usize) -> Vec<u32> {
        let mut out = vec![u32::MAX; g.capacity()];
        for n in g.nodes() {
            out[n.index()] = self.block_of_at(n, level).raw();
        }
        out
    }

    /// All per-level assignments — the chain handed to
    /// [`crate::check::is_valid_ak_chain`].
    pub fn chain_assignments(&self, g: &Graph) -> Vec<Vec<u32>> {
        (0..=self.k).map(|l| self.assignment(g, l)).collect()
    }

    /// Canonical sorted extents of the level-k partition.
    pub fn canonical(&self) -> Vec<Vec<NodeId>> {
        let mut out: Vec<Vec<NodeId>> = self
            .blocks_at(self.k)
            .map(|b| {
                let mut e = self.extent(b).to_vec();
                e.sort_unstable();
                e
            })
            .collect();
        out.sort();
        out
    }

    /// Deep heap bytes owned by the refinement tree (capacity-based);
    /// the decomposed view is [`AkIndex::mem_report`].
    pub fn heap_use(&self) -> usize {
        self.blocks.heap_use()
            + vec_cap_heap(&self.level_counts)
            + vec_cap_heap(&self.node_block)
            + vec_cap_heap(&self.node_pos)
            + vec_cap_heap(&self.mark)
            + self.split_counts.heap_use()
            + self.split_full.heap_use()
            + self.split_partner.heap_use()
    }

    /// A point-in-time deep-memory attribution of the whole tree, per
    /// the accounting contract in DESIGN.md §13. Level-`k` blocks land
    /// in the extent histogram; interior blocks carry placeholder runs
    /// whose bytes are attributed without a histogram entry.
    /// [`MemReport::total_bytes`] equals [`AkIndex::heap_use`] exactly.
    pub fn mem_report(&self) -> MemReport {
        let mut r = MemReport::default();
        let mut live_payload = 0usize;
        for (_, blk) in self.blocks.iter() {
            r.blocks += 1;
            if blk.level as usize == self.k {
                r.record_extent(
                    blk.extent.len(),
                    blk.extent.heap_bytes(),
                    blk.extent.is_shared(),
                );
            } else {
                r.add_extent_bytes(blk.extent.heap_bytes(), blk.extent.is_shared());
            }
            for m in [
                &blk.pred_cross,
                &blk.succ_cross,
                &blk.pred_intra,
                &blk.succ_intra,
            ] {
                match m.inline_occupancy() {
                    Some(occ) => r.record_inline_map(occ),
                    None => r.record_spilled_map(m.heap_use()),
                }
            }
            r.side_table_bytes += btree_set_heap::<ABlockId>(blk.tree_children.len()) as u64;
            live_payload += blk.heap_use();
        }
        let all_payload: usize = self.blocks.iter_all_slots().map(ABlock::heap_use).sum();
        r.dead_retained_bytes = (all_payload - live_payload) as u64;
        r.slab_bytes = self.blocks.shell_bytes() as u64;
        r.side_table_bytes += (vec_cap_heap(&self.level_counts)
            + vec_cap_heap(&self.node_block)
            + vec_cap_heap(&self.node_pos)
            + vec_cap_heap(&self.mark)) as u64;
        r.scratch_bytes = (self.split_counts.heap_use()
            + self.split_full.heap_use()
            + self.split_partner.heap_use()) as u64;
        r
    }

    // ------------------------------------------------------------------
    // Primitive mutations (used by `maintain`).
    // ------------------------------------------------------------------

    pub(crate) fn new_block(&mut self, level: u8, label: Label) -> ABlockId {
        self.level_counts[level as usize] += 1;
        let (id, blk) = self.blocks.alloc();
        blk.level = level;
        blk.label = label;
        blk.weight = 0;
        blk.tree_parent = ABlockId::INVALID;
        debug_assert!(blk.tree_children.is_empty() && blk.extent.is_empty());
        // Recycled maps are empty but may sit in the spilled
        // representation; clearing resets them to inline.
        blk.pred_cross.clear();
        blk.succ_cross.clear();
        blk.pred_intra.clear();
        blk.succ_intra.clear();
        id
    }

    pub(crate) fn release_block(&mut self, b: ABlockId) {
        // Hot path: debug_assert keeps the checks out of release builds;
        // the release-debug-asserts CI job still exercises them compiled in.
        let blk = &self.blocks[b];
        debug_assert_eq!(blk.weight, 0, "releasing non-empty block {b:?}");
        debug_assert!(blk.extent.is_empty());
        debug_assert!(blk.tree_children.is_empty());
        debug_assert!(blk.pred_cross.is_empty() && blk.succ_cross.is_empty());
        debug_assert!(blk.pred_intra.is_empty() && blk.succ_intra.is_empty());
        let level = blk.level as usize;
        self.level_counts[level] -= 1;
        self.blocks.release(b);
    }

    /// Makes `child` a refinement-tree child of `parent` (detaching it
    /// from its previous parent if any). Weights are **not** adjusted —
    /// callers move weight explicitly.
    pub(crate) fn link_tree(&mut self, parent: ABlockId, child: ABlockId) {
        debug_assert_eq!(self.blocks[parent].level + 1, self.blocks[child].level);
        let old = self.blocks[child].tree_parent;
        if old == parent {
            return;
        }
        if old != ABlockId::INVALID {
            self.blocks[old].tree_children.remove(&child);
        }
        self.blocks[child].tree_parent = parent;
        self.blocks[parent].tree_children.insert(child);
    }

    /// The chain `[A(0)[n], …, A(k)[n]]` of blocks containing `n`.
    pub(crate) fn chain_of(&self, n: NodeId) -> Vec<ABlockId> {
        let mut chain = vec![ABlockId::INVALID; self.k + 1];
        let mut b = self.block_of(n);
        for level in (0..=self.k).rev() {
            chain[level] = b;
            b = self.blocks[b].tree_parent;
        }
        chain
    }

    /// Registers the dedge `(u, v)` in every cross-level map and the
    /// intra-k maps. Call after the graph gained the edge (or during
    /// construction).
    pub(crate) fn register_edge(&mut self, u: NodeId, v: NodeId) {
        let cu = self.chain_of(u);
        let cv = self.chain_of(v);
        for i in 0..self.k {
            self.inc_cross(cu[i], cv[i + 1]);
        }
        self.inc_intra(cu[self.k], cv[self.k]);
    }

    /// Unregisters the dedge `(u, v)` from every map. Call after the graph
    /// lost the edge but before any block reorganization.
    pub(crate) fn unregister_edge(&mut self, u: NodeId, v: NodeId) {
        let cu = self.chain_of(u);
        let cv = self.chain_of(v);
        for i in 0..self.k {
            self.dec_cross(cu[i], cv[i + 1]);
        }
        self.dec_intra(cu[self.k], cv[self.k]);
    }

    fn inc_cross(&mut self, from: ABlockId, to: ABlockId) {
        self.blocks[from].succ_cross.add(to, 1);
        self.blocks[to].pred_cross.add(from, 1);
    }

    fn dec_cross(&mut self, from: ABlockId, to: ABlockId) {
        // IedgeMap::sub debug-asserts the increment/decrement invariant.
        self.blocks[from].succ_cross.sub(to, 1);
        self.blocks[to].pred_cross.sub(from, 1);
    }

    fn inc_intra(&mut self, from: ABlockId, to: ABlockId) {
        self.blocks[from].succ_intra.add(to, 1);
        self.blocks[to].pred_intra.add(from, 1);
    }

    fn dec_intra(&mut self, from: ABlockId, to: ABlockId) {
        self.blocks[from].succ_intra.sub(to, 1);
        self.blocks[to].pred_intra.sub(from, 1);
    }

    /// Moves node `n` from its current chain to `new_chain` (which must
    /// agree on a prefix and diverge from some level on; diverging blocks
    /// must exist and be tree-linked already). Updates extents, weights,
    /// and every affected edge count. O(deg(n) · k).
    pub(crate) fn move_node_chain(&mut self, g: &Graph, n: NodeId, new_chain: &[ABlockId]) {
        let old_chain = self.chain_of(n);
        debug_assert_eq!(new_chain.len(), self.k + 1);
        // First divergence level.
        let Some(d) = (0..=self.k).find(|&l| old_chain[l] != new_chain[l]) else {
            return;
        };
        // Weights.
        for l in d..=self.k {
            if old_chain[l] != new_chain[l] {
                self.blocks[old_chain[l]].weight -= 1;
                self.blocks[new_chain[l]].weight += 1;
            }
        }
        // Extent at level k.
        if old_chain[self.k] != new_chain[self.k] {
            let pos = self.node_pos[n.index()] as usize;
            let extent = self.blocks[old_chain[self.k]]
                .extent
                .make_mut(&mut self.cow_clones);
            debug_assert_eq!(extent[pos], n);
            extent.swap_remove(pos);
            if let Some(&moved) = extent.get(pos) {
                self.node_pos[moved.index()] = pos as u32;
            }
            let blk = &mut self.blocks[new_chain[self.k]];
            self.node_block[n.index()] = new_chain[self.k];
            self.node_pos[n.index()] = blk.extent.len() as u32;
            blk.extent.make_mut(&mut self.cow_clones).push(n);
        }
        // Edge counts: n as target (its parents' cross edges), n as source.
        for p in g.pred(n) {
            let cp = self.chain_of(p);
            for l in d.max(1)..=self.k {
                if old_chain[l] != new_chain[l] {
                    self.dec_cross(cp[l - 1], old_chain[l]);
                    self.inc_cross(cp[l - 1], new_chain[l]);
                }
            }
            if old_chain[self.k] != new_chain[self.k] {
                self.dec_intra(cp[self.k], old_chain[self.k]);
                self.inc_intra(cp[self.k], new_chain[self.k]);
            }
        }
        for c in g.succ(n) {
            let cc = self.chain_of(c);
            for l in d..self.k {
                if old_chain[l] != new_chain[l] {
                    self.dec_cross(old_chain[l], cc[l + 1]);
                    self.inc_cross(new_chain[l], cc[l + 1]);
                }
            }
            if old_chain[self.k] != new_chain[self.k] {
                self.dec_intra(old_chain[self.k], cc[self.k]);
                self.inc_intra(new_chain[self.k], cc[self.k]);
            }
        }
    }

    /// Merges block `src` into `dst` (same level, same tree parent):
    /// extents/children are transferred and all edge-count maps re-keyed.
    pub(crate) fn merge_blocks(&mut self, dst: ABlockId, src: ABlockId) {
        assert_ne!(dst, src);
        let level = self.blocks[src].level;
        debug_assert_eq!(self.blocks[dst].level, level);
        debug_assert_eq!(self.blocks[dst].label, self.blocks[src].label);
        let k = self.k as u8;

        // Extent or tree children.
        if level == k {
            // xsi-lint: allow(cow-discipline, take swaps in a fresh empty run; the taken handle still shares with any snapshot reading it)
            let src_extent = std::mem::take(&mut self.blocks[src].extent);
            for &n in src_extent.iter() {
                let blk = &mut self.blocks[dst];
                self.node_block[n.index()] = dst;
                self.node_pos[n.index()] = blk.extent.len() as u32;
                blk.extent.make_mut(&mut self.cow_clones).push(n);
            }
            // Hand the drained allocation back to the recycled slot so
            // the next block minted there starts with capacity — unless
            // a frozen snapshot still shares the run, in which case the
            // snapshot keeps the nodes and the slot starts fresh.
            if let Some(mut e) = src_extent.take_unique() {
                e.clear();
                // xsi-lint: allow(cow-discipline, take_unique proved the run unshared; no snapshot can observe the swap)
                self.blocks[src].extent = e.into();
            }
        } else {
            let kids = std::mem::take(&mut self.blocks[src].tree_children);
            for child in kids {
                self.blocks[child].tree_parent = dst;
                self.blocks[dst].tree_children.insert(child);
            }
        }
        let w = self.blocks[src].weight;
        self.blocks[dst].weight += w;
        self.blocks[src].weight = 0;

        // Cross maps: endpoints sit on different levels, so no self
        // entries can occur. Sorted drains keep re-key order canonical.
        let src_pred = self.blocks[src].pred_cross.drain_sorted();
        for &(p, _) in &src_pred {
            self.blocks[p].succ_cross.remove(src);
        }
        for (p, cnt) in src_pred {
            self.blocks[p].succ_cross.add(dst, cnt);
            self.blocks[dst].pred_cross.add(p, cnt);
        }
        let src_succ = self.blocks[src].succ_cross.drain_sorted();
        for &(c, _) in &src_succ {
            self.blocks[c].pred_cross.remove(src);
        }
        for (c, cnt) in src_succ {
            self.blocks[c].pred_cross.add(dst, cnt);
            self.blocks[dst].succ_cross.add(c, cnt);
        }

        // Intra maps (level k only): handle the src↔src self entry once.
        if level == k {
            let mut src_pred_i = self.blocks[src].pred_intra.drain_sorted();
            let mut src_succ_i = self.blocks[src].succ_intra.drain_sorted();
            let self_cnt = match src_pred_i.iter().position(|&(p, _)| p == src) {
                Some(i) => src_pred_i.remove(i).1,
                None => 0,
            };
            let self_cnt2 = match src_succ_i.iter().position(|&(c, _)| c == src) {
                Some(i) => src_succ_i.remove(i).1,
                None => 0,
            };
            debug_assert_eq!(self_cnt, self_cnt2);
            for &(p, _) in &src_pred_i {
                self.blocks[p].succ_intra.remove(src);
            }
            for &(c, _) in &src_succ_i {
                self.blocks[c].pred_intra.remove(src);
            }
            for (p, cnt) in src_pred_i {
                self.blocks[p].succ_intra.add(dst, cnt);
                self.blocks[dst].pred_intra.add(p, cnt);
            }
            for (c, cnt) in src_succ_i {
                self.blocks[c].pred_intra.add(dst, cnt);
                self.blocks[dst].succ_intra.add(c, cnt);
            }
            if self_cnt > 0 {
                self.blocks[dst].succ_intra.add(dst, self_cnt);
                self.blocks[dst].pred_intra.add(dst, self_cnt);
            }
        }

        // Detach src from the tree and free it.
        let parent = self.blocks[src].tree_parent;
        if parent != ABlockId::INVALID {
            self.blocks[parent].tree_children.remove(&src);
            self.blocks[src].tree_parent = ABlockId::INVALID;
        }
        self.release_block(src);
    }

    /// Collects the deduplicated dnode successors of the extents under
    /// block `root` (any level).
    pub(crate) fn collect_succ(&mut self, g: &Graph, root: ABlockId) -> Vec<NodeId> {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut out = Vec::new();
        let mut stack: Vec<ABlockId> = vec![root];
        while let Some(b) = stack.pop() {
            if self.blocks[b].level as usize == self.k {
                for i in 0..self.blocks[b].extent.len() {
                    let u = self.blocks[b].extent[i];
                    for v in g.succ(u) {
                        if self.mark[v.index()] != epoch {
                            self.mark[v.index()] = epoch;
                            out.push(v);
                        }
                    }
                }
            } else {
                // The emitted node order decides which fresh partner block
                // a later split allocates first, i.e. it reaches block-id
                // assignment — `tree_children` iterates sorted, so the
                // traversal is reproducible by construction.
                stack.extend(self.blocks[b].tree_children.iter().copied());
            }
        }
        out
    }

    /// Derives the intra-level iedges of the A(level)-index from the
    /// cross-level maps, in O(|E_level|): an iedge `I@level → J@level`
    /// exists iff some `E_level` entry points from `I` into a tree child
    /// of `J`. This is the paper's optional "intra-iedges inside the
    /// A(i)-indexes for i < k", materialized on demand instead of stored.
    ///
    /// For `level == k` the stored intra maps are returned directly.
    pub fn intra_iedges_at(&self, level: usize) -> Vec<(ABlockId, ABlockId)> {
        assert!(level <= self.k, "level out of range");
        let mut out: BTreeSet<(ABlockId, ABlockId)> = BTreeSet::new();
        if level == self.k {
            for b in self.blocks_at(self.k) {
                for c in self.blocks[b].succ_intra.keys() {
                    out.insert((b, c));
                }
            }
        } else {
            for b in self.blocks_at(level) {
                for t in self.blocks[b].succ_cross.keys() {
                    out.insert((b, self.blocks[t].tree_parent));
                }
            }
        }
        out.into_iter().collect()
    }

    /// The extent of a block at any level (materialized by walking the
    /// refinement tree to the leaves; prefer [`AkIndex::extent`] at level
    /// k, which is free).
    pub fn extent_at(&self, b: ABlockId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.weight(b));
        let mut stack = vec![b];
        while let Some(x) = stack.pop() {
            if self.blocks[x].level as usize == self.k {
                out.extend_from_slice(&self.blocks[x].extent);
            } else {
                // Sorted child order keeps the materialized extent
                // reproducible across runs (it escapes to callers).
                stack.extend(self.blocks[x].tree_children.iter().copied());
            }
        }
        out
    }

    /// Grows per-node side tables after graph node additions.
    pub fn ensure_capacity(&mut self, g: &Graph) {
        let cap = g.capacity();
        if cap > self.node_block.len() {
            self.node_block.resize(cap, ABlockId::INVALID);
            self.node_pos.resize(cap, 0);
            self.mark.resize(cap, 0);
        }
    }

    /// Exhaustive structural verification for tests: tree shape, weights,
    /// extents, handle currency, and every count map against a recount.
    /// O((n + m)·k).
    pub fn check_consistency(&self, g: &Graph) -> Result<(), String> {
        // Extents partition live nodes at level k.
        let mut seen = 0usize;
        for b in self.blocks_at(self.k) {
            for (pos, &n) in self.blocks[b].extent.iter().enumerate() {
                if self.node_block[n.index()] != b {
                    return Err(format!("node {n:?} extent/map mismatch"));
                }
                if self.node_pos[n.index()] as usize != pos {
                    return Err(format!("node {n:?} position mismatch"));
                }
                if g.label(n) != self.blocks[b].label {
                    return Err(format!("label mismatch in {b:?}"));
                }
                seen += 1;
            }
        }
        let live = g.nodes().count();
        if seen != live {
            return Err(format!("{seen} nodes in extents, {live} live"));
        }
        // Tree: parents/children mirror; levels consistent; weights add up.
        let mut level_counts = vec![0usize; self.k + 1];
        for (b, blk) in self.blocks.iter() {
            level_counts[blk.level as usize] += 1;
            if blk.level as usize == self.k {
                if blk.weight as usize != blk.extent.len() {
                    return Err(format!("leaf weight mismatch at {b:?}"));
                }
                if !blk.tree_children.is_empty() {
                    return Err(format!("leaf {b:?} has tree children"));
                }
            } else {
                let mut sum = 0u32;
                for &c in &blk.tree_children {
                    if !self.blocks.is_current(c) {
                        return Err(format!("tree child {c:?} of {b:?} is stale"));
                    }
                    sum += self.blocks[c].weight;
                    if self.blocks[c].tree_parent != b {
                        return Err(format!("tree link {b:?}→{c:?} not mirrored"));
                    }
                    if self.blocks[c].level != blk.level + 1 {
                        return Err(format!("tree link {b:?}→{c:?} level skew"));
                    }
                    if self.blocks[c].label != blk.label {
                        return Err(format!("tree link {b:?}→{c:?} label mismatch"));
                    }
                }
                if sum != blk.weight {
                    return Err(format!("interior weight mismatch at {b:?}"));
                }
            }
            if blk.level == 0 && blk.tree_parent != ABlockId::INVALID {
                return Err(format!("level-0 block {b:?} has a parent"));
            }
            if blk.level > 0 {
                if blk.tree_parent == ABlockId::INVALID {
                    return Err(format!("block {b:?} at level {} orphaned", blk.level));
                }
                if !self.blocks.is_current(blk.tree_parent) {
                    return Err(format!("tree parent of {b:?} is stale"));
                }
            }
            if blk.weight == 0 {
                return Err(format!("live block {b:?} has weight 0"));
            }
            for m in [
                &blk.pred_cross,
                &blk.succ_cross,
                &blk.pred_intra,
                &blk.succ_intra,
            ] {
                if m.key_sig() != key_set_sig(m.keys()) {
                    return Err(format!("an iedge map signature of {b:?} is stale"));
                }
            }
        }
        if level_counts != self.level_counts {
            return Err(format!(
                "level counts {level_counts:?} != cached {:?}",
                self.level_counts
            ));
        }
        // Recount all maps.
        let mut cross: BTreeMap<(ABlockId, ABlockId), u32> = BTreeMap::new();
        let mut intra: BTreeMap<(ABlockId, ABlockId), u32> = BTreeMap::new();
        for u in g.nodes() {
            let cu = self.chain_of(u);
            for v in g.succ(u) {
                let cv = self.chain_of(v);
                for i in 0..self.k {
                    *cross.entry((cu[i], cv[i + 1])).or_insert(0) += 1;
                }
                *intra.entry((cu[self.k], cv[self.k])).or_insert(0) += 1;
            }
        }
        let mut stored_cross = 0usize;
        let mut stored_intra = 0usize;
        for (b, blk) in self.blocks.iter() {
            for (c, cnt) in blk.succ_cross.iter() {
                if !self.blocks.is_current(c) {
                    return Err(format!("succ_cross of {b:?} holds stale handle {c:?}"));
                }
                if cross.get(&(b, c)) != Some(&cnt) {
                    return Err(format!("succ_cross ({b:?}→{c:?}) = {cnt} wrong"));
                }
                if self.blocks[c].pred_cross.get(b) != Some(cnt) {
                    return Err(format!("cross edge ({b:?}→{c:?}) not mirrored"));
                }
                stored_cross += 1;
            }
            for (c, cnt) in blk.succ_intra.iter() {
                if !self.blocks.is_current(c) {
                    return Err(format!("succ_intra of {b:?} holds stale handle {c:?}"));
                }
                if intra.get(&(b, c)) != Some(&cnt) {
                    return Err(format!("succ_intra ({b:?}→{c:?}) = {cnt} wrong"));
                }
                if self.blocks[c].pred_intra.get(b) != Some(cnt) {
                    return Err(format!("intra edge ({b:?}→{c:?}) not mirrored"));
                }
                stored_intra += 1;
            }
        }
        if stored_cross != cross.len() {
            return Err(format!(
                "{stored_cross} stored cross edges, recount {}",
                cross.len()
            ));
        }
        if stored_intra != intra.len() {
            return Err(format!(
                "{stored_intra} stored intra edges, recount {}",
                intra.len()
            ));
        }
        Ok(())
    }
}

impl fmt::Debug for AkIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "AkIndex {{ k={}, per-level {:?}",
            self.k, self.level_counts
        )?;
        for level in 0..=self.k {
            write!(f, "  A({level}):")?;
            for b in self.blocks_at(level) {
                if level == self.k {
                    write!(f, " {:?}{:?}", b, self.extent(b))?;
                } else {
                    write!(
                        f,
                        " {:?}(w={},kids={})",
                        b,
                        self.weight(b),
                        self.blocks[b].tree_children.len()
                    )?;
                }
            }
            writeln!(f)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{ak_chain_violation, is_valid_ak_chain};
    use crate::reference;
    use xsi_graph::GraphBuilder;

    fn sample() -> Graph {
        // Two similar substructures the A-chain distinguishes only deeply.
        let (g, _) = GraphBuilder::new()
            .nodes(&[(1, "A"), (2, "B"), (3, "C"), (4, "A"), (5, "B"), (6, "C")])
            .nodes(&[(7, "D"), (8, "D")])
            .edges(&[(1, 2), (2, 3), (4, 5), (5, 6), (3, 7), (6, 8), (1, 5)])
            .root_to(1)
            .root_to(4)
            .build_with_ids();
        g
    }

    #[test]
    fn build_matches_reference_chain() {
        let g = sample();
        for k in 0..=4 {
            let idx = AkIndex::build(&g, k);
            idx.check_consistency(&g).unwrap();
            let chain = idx.chain_assignments(&g);
            assert!(
                is_valid_ak_chain(&g, &chain),
                "k={k}: {:?}",
                ak_chain_violation(&g, &chain)
            );
            let oracle = reference::k_bisim_chain(&g, k);
            for level in 0..=k {
                assert_eq!(
                    reference::canonical_partition(&g, &chain[level]),
                    reference::canonical_partition(&g, &oracle[level]),
                    "k={k} level {level} differs from the minimum"
                );
            }
        }
    }

    #[test]
    fn level_counts_monotone() {
        let g = sample();
        let idx = AkIndex::build(&g, 4);
        for l in 1..=4 {
            assert!(idx.level_count(l) >= idx.level_count(l - 1));
        }
        assert_eq!(
            idx.total_blocks(),
            (0..=4).map(|l| idx.level_count(l)).sum::<usize>()
        );
    }

    #[test]
    fn chain_of_walks_tree() {
        let g = sample();
        let idx = AkIndex::build(&g, 3);
        for n in g.nodes() {
            let chain = idx.chain_of(n);
            assert_eq!(chain.len(), 4);
            assert_eq!(chain[3], idx.block_of(n));
            for l in 0..3 {
                assert_eq!(idx.level(chain[l]), l);
                assert_eq!(idx.block_of_at(n, l), chain[l]);
                assert_eq!(idx.tree_parent(chain[l + 1]), Some(chain[l]));
            }
        }
    }

    #[test]
    fn register_unregister_round_trip() {
        let mut g = sample();
        let mut idx = AkIndex::build(&g, 3);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let (u, v) = (nodes[2], nodes[8]);
        assert!(!g.has_edge(u, v), "test expects (u, v) absent");
        g.insert_edge(u, v, xsi_graph::EdgeKind::IdRef).unwrap();
        idx.register_edge(u, v);
        idx.check_consistency(&g).unwrap();
        g.delete_edge(u, v).unwrap();
        idx.unregister_edge(u, v);
        idx.check_consistency(&g).unwrap();
    }

    #[test]
    fn a0_is_label_partition() {
        let g = sample();
        let idx = AkIndex::build(&g, 2);
        let mut labels = std::collections::HashSet::new();
        for n in g.nodes() {
            labels.insert(g.label(n));
        }
        assert_eq!(idx.level_count(0), labels.len());
    }

    #[test]
    fn k_zero_index() {
        let g = sample();
        let idx = AkIndex::build(&g, 0);
        idx.check_consistency(&g).unwrap();
        assert_eq!(idx.block_count(), idx.level_count(0));
    }

    #[test]
    fn handle_rehydrates_raw_ids() {
        let g = sample();
        let idx = AkIndex::build(&g, 2);
        for b in idx.blocks_at(2) {
            assert_eq!(idx.handle(b.raw()), b);
            assert!(idx.is_live(b));
        }
    }

    #[test]
    fn mem_report_covers_all_maps() {
        let g = sample();
        let idx = AkIndex::build(&g, 2);
        let r = idx.mem_report();
        assert_eq!(r.blocks as usize, idx.total_blocks());
        assert_eq!(r.iedge_inline_maps + r.iedge_spilled_maps, r.blocks * 4);
        assert!(r.inline_occupancy_hist.iter().skip(1).sum::<u64>() > 0);
    }
}

#[cfg(test)]
mod intra_level_tests {
    use super::*;
    use xsi_graph::GraphBuilder;

    /// The derived A(i) intra-iedges must equal the stored intra-iedges
    /// of an A(k)-index built directly with k = i.
    #[test]
    fn derived_intra_iedges_match_direct_build() {
        let (g, _) = GraphBuilder::new()
            .nodes(&[(1, "a"), (2, "b"), (3, "b"), (4, "c"), (5, "c"), (6, "d")])
            .edges(&[(1, 2), (1, 3), (2, 4), (3, 5), (4, 6)])
            .idref_edges(&[(6, 3)])
            .root_to(1)
            .build_with_ids();
        let deep = AkIndex::build(&g, 4);
        for level in 0..=4 {
            let shallow = AkIndex::build(&g, level);
            // Compare as (sorted extent, sorted extent) pairs since block
            // ids differ between the two indexes.
            let canon = |idx: &AkIndex, pairs: Vec<(ABlockId, ABlockId)>, at_k: bool| {
                let mut out: Vec<(Vec<NodeId>, Vec<NodeId>)> = pairs
                    .into_iter()
                    .map(|(a, b)| {
                        let (mut ea, mut eb) = if at_k {
                            (idx.extent(a).to_vec(), idx.extent(b).to_vec())
                        } else {
                            (idx.extent_at(a), idx.extent_at(b))
                        };
                        ea.sort_unstable();
                        eb.sort_unstable();
                        (ea, eb)
                    })
                    .collect();
                out.sort();
                out
            };
            let derived = canon(&deep, deep.intra_iedges_at(level), false);
            let direct = canon(&shallow, shallow.intra_iedges_at(level), true);
            assert_eq!(derived, direct, "level {level}");
        }
    }

    #[test]
    fn extent_at_partitions_nodes() {
        let (g, _) = GraphBuilder::new()
            .nodes(&[(1, "a"), (2, "b"), (3, "b")])
            .edges(&[(1, 2), (1, 3)])
            .root_to(1)
            .build_with_ids();
        let idx = AkIndex::build(&g, 3);
        for level in 0..=3 {
            let mut all: Vec<NodeId> = idx
                .blocks_at(level)
                .flat_map(|b| idx.extent_at(b))
                .collect();
            all.sort_unstable();
            let mut live: Vec<NodeId> = g.nodes().collect();
            live.sort_unstable();
            assert_eq!(all, live, "level {level}");
        }
    }
}
