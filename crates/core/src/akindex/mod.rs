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
//! The primitives stamp a slot ([`ChangeStamps`]) whenever a frozen view
//! of it would change: a level-k block's extent, intra-level successor
//! key set, label or liveness (DESIGN.md §11.2). Interior blocks are
//! never frozen, so their changes are not stamped.
//!
//! Module layout: this file defines the tree and its primitive mutations
//! (count registration, chain moves); [`maintain`] implements the
//! Figure 7 update algorithm as one placement sweep; [`simple`]
//! implements the baseline updater the paper compares against.

pub mod maintain;
pub mod simple;
pub mod storage;

pub use simple::SimpleAkIndex;
pub use storage::StorageReport;

use crate::obs::mem::{btree_set_heap, vec_cap_heap, HeapUse, MemReport};
use crate::obs::span::{SpanGuard, SpanKind};
use crate::store::iedge::{count_runs, key_set_sig, slot_pair};
use crate::store::{ChangeStamps, CowVec, IedgeMap, SlotKey, SlotMap};
use crate::view::IndexSnapshot;
use std::collections::{BTreeMap, BTreeSet};
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
        }
    }
}

impl HeapUse for ABlock {
    /// The block's heap payload: extent run, all three iedge maps, and
    /// the refinement-tree child set. The struct itself is slab-resident.
    fn heap_use(&self) -> usize {
        self.extent.heap_bytes()
            + self.pred_cross.heap_use()
            + self.succ_cross.heap_use()
            + self.succ_intra.heap_use()
            + btree_set_heap::<ABlockId>(self.tree_children.len())
    }
}

/// The A(k)-index with its full A(0)..A(k) refinement tree.
///
/// Built by [`AkIndex::build`] this is the minimum chain; maintained via
/// [`AkIndex::insert_edge`] / [`AkIndex::delete_edge`] it stays the
/// **minimum** chain on any data graph (Theorem 2). Node removal and
/// subgraph addition (§6) run through [`crate::UpdateEngine`], which
/// hands them to the chain as node and edge ops.
#[derive(Clone)]
pub struct AkIndex {
    k: usize,
    blocks: SlotMap<ABlockId, ABlock>,
    /// Live block count per level (index = level).
    level_counts: Vec<usize>,
    /// dnode → level-k block.
    node_block: Vec<ABlockId>,
    node_pos: Vec<u32>,
    /// The maintenance sweep's candidate marks, versioned by epoch
    /// ([`crate::store::next_epoch`] handles the wrap).
    mark: Vec<u32>,
    epoch: u32,
    /// The maintenance sweep's working set, reused across updates.
    sweep: maintain::Sweep,
    /// Cumulative count of extent runs cloned because a frozen snapshot
    /// still shared them (exported as `snapshot_cow_clones`).
    cow_clones: u64,
    /// Per-slot change stamps for the incremental freeze.
    stamps: ChangeStamps,
}

impl AkIndex {
    /// Builds the minimum A(k)-index chain: level 0 groups by label, and
    /// each level `i` refines level `i−1` by the set of level-`i−1`
    /// classes of a node's parents (k-bisimilarity), one pass over the
    /// edges per level as in the O(km) construction of Kaushik et al.
    /// (see `split_level`). One aggregate `KernelScan` span covers the
    /// levels: its blocks counter is the classes scanned as splitters,
    /// its elems counter the successor edges read.
    pub fn build(g: &Graph, k: usize) -> Self {
        assert!(k < u8::MAX as usize, "k too large");
        let flat = FlatGraph::new(g);
        let mut labels = vec![u32::MAX; g.capacity()];
        for &n in &flat.nodes {
            labels[n.index()] = g.label(n).index() as u32; // xsi-lint: allow(slice-index, labels has a slot per node id)
        }
        let (mut levels, mut top, mut count) =
            (Vec::with_capacity(k + 1), labels, g.labels().len());
        let span = SpanGuard::enter(SpanKind::KernelScan);
        for _ in 0..k {
            let (next, next_count, edges) = split_level(&flat, &top, count);
            span.add_blocks(count as u64);
            span.add_elems(edges);
            levels.push(std::mem::replace(&mut top, next));
            count = next_count;
        }
        drop(span);
        levels.push(top);
        Self::from_assignments(g, &flat, k, &levels)
    }

    /// Materializes an index from per-level class assignments (each level
    /// must refine the previous; every live node has a class). Blocks are
    /// minted in `g.nodes()` order, levels 0 to k per node, through one
    /// dense (class → block) table per level; then every dedge is counted
    /// once per level pair, in one sorted pass each ([`count_runs`]).
    /// Used by `build` and the snapshot decoder.
    pub(crate) fn from_assignments(
        g: &Graph,
        flat: &FlatGraph,
        k: usize,
        levels: &[Vec<u32>],
    ) -> Self {
        let mut idx = AkIndex {
            k,
            blocks: SlotMap::new(),
            level_counts: vec![0; k + 1],
            node_block: vec![ABlockId::INVALID; g.capacity()],
            node_pos: vec![0; g.capacity()],
            mark: vec![0; g.capacity()],
            epoch: 0,
            sweep: maintain::Sweep::default(),
            cow_clones: 0,
            stamps: ChangeStamps::default(),
        };
        // (level, class) → block, and node → block slot per level.
        let mut block_of_class: Vec<Vec<ABlockId>> = levels
            .iter()
            .map(|classes| {
                let bound = flat.nodes.iter().map(|n| classes[n.index()] as usize + 1); // xsi-lint: allow(slice-index, every level has a class slot per node id)
                vec![ABlockId::INVALID; bound.max().unwrap_or(0)]
            })
            .collect();
        let mut slot_at: Vec<Vec<u32>> = vec![vec![u32::MAX; g.capacity()]; k + 1];
        for &n in &flat.nodes {
            let mut parent = ABlockId::INVALID;
            for (level, classes) in levels.iter().enumerate() {
                // xsi-lint: allow(slice-index, the tables are sized by the level count and the class bound above)
                let known = &mut block_of_class[level][classes[n.index()] as usize];
                let b = if *known == ABlockId::INVALID {
                    let b = idx.new_block(level as u8, g.label(n));
                    *known = b;
                    if parent != ABlockId::INVALID {
                        idx.link_tree(parent, b);
                    }
                    b
                } else {
                    *known
                };
                idx.blocks[b].weight += 1;
                slot_at[level][n.index()] = b.idx; // xsi-lint: allow(slice-index, one slot table per level, each with a slot per node id)
                if level == k {
                    idx.node_block[n.index()] = b;
                    idx.node_pos[n.index()] = idx.blocks[b].extent.len() as u32;
                    idx.blocks[b].extent.make_mut(&mut idx.cow_clones).push(n);
                }
                parent = b;
            }
        }
        // E_level for every level below k, then the intra-level-k iedges.
        let mut pairs: Vec<u64> = Vec::with_capacity(flat.succ.len());
        for level in 0..=k {
            // xsi-lint: allow(slice-index, level and level + 1 capped at k index the k + 1 slot tables)
            let (from, to) = (&slot_at[level], &slot_at[(level + 1).min(k)]);
            pairs.clear();
            for &u in &flat.nodes {
                let fu = from[u.index()]; // xsi-lint: allow(slice-index, slot tables have a slot per node id)
                                          // xsi-lint: allow(slice-index, slot tables have a slot per node id)
                pairs.extend(flat.succ_of(u).iter().map(|v| slot_pair(fu, to[v.index()])));
            }
            for (fb, tb, count) in count_runs(&mut pairs) {
                let (fb, tb) = (idx.handle(fb), idx.handle(tb));
                if level < k {
                    idx.blocks[fb].succ_cross.add(tb, count);
                    idx.blocks[tb].pred_cross.add(fb, count);
                } else {
                    idx.blocks[fb].succ_intra.add(tb, count);
                }
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
        self.stamps.stamp(b.idx);
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

    /// The per-slot change stamps a freeze reads.
    pub(crate) fn stamps(&self) -> &ChangeStamps {
        &self.stamps
    }

    /// The live level-k handle at raw slot index `idx`, if that slot
    /// holds a live level-k block.
    pub(crate) fn leaf_at(&self, idx: u32) -> Option<ABlockId> {
        self.blocks
            .handle_at(idx)
            .filter(|&b| self.blocks[b].level as usize == self.k) // xsi-lint: allow(slice-index, handle_at returned a live handle)
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

    /// One past the largest slot index a block id of any level can
    /// carry (live and free slots): the bound for dense tables keyed by
    /// raw block id.
    pub fn slot_bound(&self) -> usize {
        self.blocks.capacity()
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

    /// The A(level−1)-index parents of a block (keys of `pred_cross`) —
    /// the Definition 6 merge test compares these sets. Ascending id
    /// order.
    pub fn cross_parents(&self, b: ABlockId) -> impl Iterator<Item = ABlockId> + '_ {
        self.blocks[b].pred_cross.keys()
    }

    /// `E_{level−1}` reversed: the dedge counts from each level−1 block
    /// into `b`.
    pub(crate) fn pred_cross(&self, b: ABlockId) -> &IedgeMap<ABlockId> {
        &self.blocks[b].pred_cross
    }

    /// `E_level`: the dedge counts from `b` into each level+1 block.
    pub(crate) fn succ_cross(&self, b: ABlockId) -> &IedgeMap<ABlockId> {
        &self.blocks[b].succ_cross
    }

    /// Number of refinement-tree children.
    pub(crate) fn child_count(&self, b: ABlockId) -> usize {
        self.blocks[b].tree_children.len()
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

    /// The A(level)-index embedded at `level` of this chain as a query
    /// view: the block graph the level's class assignment induces (the
    /// one derived view, shared with the simple baseline), precise for
    /// paths of length ≤ `level`, safe otherwise. Derived in O(n + m)
    /// per call: only level k stores its iedges, so this is how a
    /// shorter query gets a coarser view without building a separate
    /// A(level)-index.
    pub fn level_view(&self, g: &Graph, level: usize) -> IndexSnapshot {
        assert!(level <= self.k, "level out of range");
        let classes = self.assignment(g, level);
        IndexSnapshot::from_assignment(g, &classes, level, format!("A({level})-index"))
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
            + self.sweep.heap_use()
            + self.stamps.heap_use()
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
            for m in [&blk.pred_cross, &blk.succ_cross, &blk.succ_intra] {
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
            + vec_cap_heap(&self.mark)
            + self.stamps.heap_use()) as u64;
        r.scratch_bytes = self.sweep.heap_use() as u64;
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
        blk.succ_intra.clear();
        // Only level-k blocks are frozen: an interior block coming or
        // going leaves every frozen image as it was.
        if level as usize == self.k {
            self.stamps.stamp(id.idx);
        }
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
        debug_assert!(blk.succ_intra.is_empty());
        let level = blk.level as usize;
        self.level_counts[level] -= 1;
        self.blocks.release(b);
        if level == self.k {
            self.stamps.stamp(b.idx);
        }
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
        if self.blocks[from].succ_intra.add(to, 1) == 1 {
            self.stamps.stamp(from.idx);
        }
    }

    fn dec_intra(&mut self, from: ABlockId, to: ABlockId) {
        if self.blocks[from].succ_intra.sub(to, 1) == 0 {
            self.stamps.stamp(from.idx);
        }
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
        let (from, to) = (old_chain[self.k], new_chain[self.k]);
        if from != to {
            let pos = self.node_pos[n.index()] as usize;
            let extent = self.blocks[from].extent.make_mut(&mut self.cow_clones);
            debug_assert_eq!(extent[pos], n);
            extent.swap_remove(pos);
            if let Some(&moved) = extent.get(pos) {
                self.node_pos[moved.index()] = pos as u32;
            }
            let blk = &mut self.blocks[to];
            self.node_block[n.index()] = to;
            self.node_pos[n.index()] = blk.extent.len() as u32;
            blk.extent.make_mut(&mut self.cow_clones).push(n);
            self.stamps.stamp(from.idx);
            self.stamps.stamp(to.idx);
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
            for m in [&blk.pred_cross, &blk.succ_cross, &blk.succ_intra] {
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

/// A flat copy of a graph's live nodes and successor lists, built once
/// per construction or decode. The level splits and the count passes
/// read the successors k + 1 times, and visit nodes class by class; the
/// graph's per-node records and successor `Vec`s would cost a pointer
/// chase per node on every pass.
pub(crate) struct FlatGraph {
    /// Live nodes in `g.nodes()` order.
    nodes: Vec<NodeId>,
    /// `succ[start[u]..start[u + 1]]` are the successors of node id `u`
    /// (an empty range for ids that are not live).
    start: Vec<usize>,
    succ: Vec<NodeId>,
}

impl FlatGraph {
    pub(crate) fn new(g: &Graph) -> Self {
        let mut flat = FlatGraph {
            nodes: Vec::with_capacity(g.node_count()),
            start: Vec::with_capacity(g.capacity() + 1),
            succ: Vec::with_capacity(g.edge_count()),
        };
        for n in g.nodes() {
            flat.start.resize(n.index() + 1, flat.succ.len());
            flat.nodes.push(n);
            flat.succ.extend(g.succ(n));
        }
        flat.start.resize(g.capacity() + 1, flat.succ.len());
        flat
    }

    /// The successors of `u`.
    fn succ_of(&self, u: NodeId) -> &[NodeId] {
        let range = self.start.get(u.index()).zip(self.start.get(u.index() + 1));
        range
            .and_then(|(&from, &to)| self.succ.get(from..to))
            .unwrap_or(&[])
    }
}

/// Level `i + 1` of the chain from level `i` (`prev`, class ids below
/// `count`), by splitting: level `i + 1` starts as a copy of level `i`;
/// then for every level-`i` class `B`, every node with a parent in `B`
/// (deduplicated with epoch marks) moves to a fresh class, one per
/// (current class, `B`). Two nodes end up together iff they share their
/// level-`i` class and the set of their parents' level-`i` classes —
/// the k-bisimulation step. The splitters are fixed for the level, so
/// no compound queue is needed.
///
/// Returns the new classes, renumbered densely in `g.nodes()` order,
/// their count, and the successor edges read. One pass over the edges,
/// with no hashing and no allocation per node.
fn split_level(flat: &FlatGraph, prev: &[u32], count: usize) -> (Vec<u32>, usize, u64) {
    // Every table below has a slot per node id (`prev`, `next`, `mark`)
    // or per class (`start`, `moved`, `dense`; level-i classes are below
    // `count`, fresh ones below `moved.len()`).
    //
    // The members of every level-i class, grouped by a counting sort:
    // class c's are `members[start[c]..start[c + 1]]`.
    let mut start = vec![0usize; count + 1];
    for &n in &flat.nodes {
        start[prev[n.index()] as usize + 1] += 1; // xsi-lint: allow(slice-index, see the table note above)
    }
    let mut total = 0;
    for s in &mut start {
        total += *s;
        *s = total;
    }
    let mut fill = start.clone();
    let mut members = vec![NodeId(0); flat.nodes.len()];
    for &n in &flat.nodes {
        let at = &mut fill[prev[n.index()] as usize]; // xsi-lint: allow(slice-index, see the table note above)
        members[*at] = n; // xsi-lint: allow(slice-index, the counting sort gives every node its own position)
        *at += 1;
    }
    // Splitting. `moved[c]` is (the last splitter that moved members of
    // class `c`, the fresh class they moved to).
    let mut next = prev.to_vec();
    let mut mark = vec![u32::MAX; prev.len()];
    let mut moved = vec![(u32::MAX, 0u32); count];
    let mut edges = 0u64;
    for (b, range) in start.windows(2).enumerate() {
        let b = b as u32;
        // xsi-lint: allow(slice-index, the counting sort's offsets index members)
        for &u in &members[range[0]..range[1]] {
            for &v in flat.succ_of(u) {
                edges += 1;
                let seen = &mut mark[v.index()]; // xsi-lint: allow(slice-index, see the table note above)
                if *seen == b {
                    continue;
                }
                *seen = b;
                let class = &mut next[v.index()]; // xsi-lint: allow(slice-index, see the table note above)
                let fresh = moved.len() as u32;
                let split = &mut moved[*class as usize]; // xsi-lint: allow(slice-index, see the table note above)
                if split.0 != b {
                    *split = (b, fresh);
                }
                *class = split.1;
                if *class == fresh {
                    moved.push((u32::MAX, 0));
                }
            }
        }
    }
    // Dense ids, in order of each class's first node.
    let mut dense = vec![u32::MAX; moved.len()];
    let mut classes = 0usize;
    for &n in &flat.nodes {
        let class = &mut next[n.index()]; // xsi-lint: allow(slice-index, see the table note above)
        let id = &mut dense[*class as usize]; // xsi-lint: allow(slice-index, see the table note above)
        if *id == u32::MAX {
            *id = classes as u32;
            classes += 1;
        }
        *class = *id;
    }
    (next, classes, edges)
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

    /// The build against the oracle's chain, level by level, on the
    /// sample and on scale-0.01 XMark, IMDB and DBLP documents.
    #[test]
    fn build_matches_reference_chain() {
        use xsi_workload::{
            generate_dblp, generate_imdb, generate_xmark, DblpParams, ImdbParams, XmarkParams,
        };
        let graphs = [
            ("sample", sample()),
            ("xmark", generate_xmark(&XmarkParams::new(0.01, 1.0, 42))),
            ("imdb", generate_imdb(&ImdbParams::new(0.01, 42))),
            ("dblp", generate_dblp(&DblpParams::new(0.01, 42))),
        ];
        for (name, g) in &graphs {
            let oracle = reference::k_bisim_chain(g, 5);
            for k in 0..=5 {
                let idx = AkIndex::build(g, k);
                idx.check_consistency(g).unwrap();
                let chain = idx.chain_assignments(g);
                assert!(
                    is_valid_ak_chain(g, &chain),
                    "{name} k={k}: {:?}",
                    ak_chain_violation(g, &chain)
                );
                for level in 0..=k {
                    assert_eq!(
                        reference::canonical_partition(g, &chain[level]),
                        reference::canonical_partition(g, &oracle[level]),
                        "{name} k={k} level {level} differs from the minimum"
                    );
                }
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
        assert_eq!(r.iedge_inline_maps + r.iedge_spilled_maps, r.blocks * 3);
        assert!(r.inline_occupancy_hist.iter().skip(1).sum::<u64>() > 0);
    }

    /// The intra-level-k counts have no mirror map, so the recount
    /// against the graph is their one check: it must catch a wrong count
    /// and a missing entry.
    #[test]
    fn intra_recount_catches_a_wrong_count_and_a_missing_entry() {
        let g = sample();
        let idx = AkIndex::build(&g, 2);
        idx.check_consistency(&g).unwrap();
        let (b, c) = idx
            .blocks_at(2)
            .find_map(|b| idx.isucc(b).next().map(|c| (b, c)))
            .expect("the sample has an intra-level-k iedge");

        let mut bumped = idx.clone();
        bumped.blocks[b].succ_intra.add(c, 1);
        let err = bumped.check_consistency(&g).unwrap_err();
        assert!(err.contains("succ_intra"), "{err}");

        let mut dropped = idx.clone();
        dropped.blocks[b].succ_intra.remove(c);
        let err = dropped.check_consistency(&g).unwrap_err();
        assert!(err.contains("stored intra edges, recount"), "{err}");
    }

    /// The maintenance sweep's candidate marks survive the epoch wrap:
    /// an update whose first gather wraps the epoch still gathers every
    /// candidate, even nodes whose stale stamp equals the first epoch
    /// after the wrap.
    #[test]
    fn sweep_marks_survive_the_epoch_wrap() {
        let (mut g, ids) = GraphBuilder::new()
            .nodes(&[(1, "a"), (2, "b"), (3, "c"), (4, "a"), (5, "b"), (6, "c")])
            .nodes(&[(7, "x")])
            .edges(&[(1, 2), (2, 3), (4, 5), (5, 6)])
            .root_to(1)
            .root_to(4)
            .root_to(7)
            .build_with_ids();
        let mut idx = AkIndex::build(&g, 3);
        idx.epoch = u32::MAX;
        idx.mark.fill(1);
        // 7 → 2 separates 2 from 5 at level 1, so level 2 gathers 2 and
        // its child 3 — the first gather of the update, across the wrap.
        let kind = xsi_graph::EdgeKind::IdRef;
        for _ in 0..2 {
            let stats = idx.insert_edge(&mut g, ids[&7], ids[&2], kind).unwrap();
            assert_eq!(stats.levels_touched, 3);
            idx.check_consistency(&g).unwrap();
            assert_eq!(idx.canonical(), AkIndex::build(&g, 3).canonical());
            idx.delete_edge(&mut g, ids[&7], ids[&2]).unwrap();
            idx.check_consistency(&g).unwrap();
            assert_eq!(idx.canonical(), AkIndex::build(&g, 3).canonical());
        }
        assert!(idx.epoch < 100, "the updates crossed the wrap");
    }
}

#[cfg(test)]
mod subgraph {
    //! Subgraph addition and removal on the chain, both through the
    //! engine: it hands the chain an addition as node and edge ops, and a
    //! removal is a `RemoveNode` batch, so Theorem 2 holds at every step.
    mod tests {
        use crate::{AkIndex, IndexHandle, UpdateEngine, UpdateOp};
        use xsi_graph::{extract_subtree, DetachedSubgraph, EdgeKind, Graph, GraphBuilder, NodeId};

        fn engine_over(g: Graph, k: usize) -> (UpdateEngine, IndexHandle) {
            let mut engine = UpdateEngine::new(g);
            let h = engine.register(Box::new(AkIndex::build(engine.graph(), k)));
            (engine, h)
        }

        fn ak(engine: &UpdateEngine, h: IndexHandle) -> &AkIndex {
            engine.index(h).as_any().downcast_ref().unwrap()
        }

        fn remove(engine: &mut UpdateEngine, members: &[NodeId]) {
            let batch: Vec<UpdateOp> = members
                .iter()
                .map(|&node| UpdateOp::RemoveNode { node })
                .collect();
            engine.apply_batch(&batch).unwrap();
        }

        fn assert_minimum(engine: &UpdateEngine, h: IndexHandle) {
            let (g, idx) = (engine.graph(), ak(engine, h));
            idx.check_consistency(g).unwrap();
            assert_eq!(idx.canonical(), AkIndex::build(g, idx.k()).canonical());
        }

        fn host() -> (Graph, std::collections::BTreeMap<u64, NodeId>) {
            GraphBuilder::new()
                .nodes(&[
                    (1, "site"),
                    (2, "auction"),
                    (3, "item"),
                    (4, "auction"),
                    (5, "item"),
                ])
                .edges(&[(1, 2), (2, 3), (1, 4), (4, 5)])
                .idref_edges(&[(3, 4)])
                .root_to(1)
                .build_with_ids()
        }

        #[test]
        fn add_twin_auction_merges_into_existing_blocks() {
            let (g, ids) = host();
            for k in 1..=3 {
                let (mut engine, h) = engine_over(g.clone(), k);
                let mut sub = DetachedSubgraph::new();
                let a = sub.add_node("auction", None);
                let i = sub.add_node("item", None);
                sub.add_edge(a, i, EdgeKind::Child);
                sub.incoming.push((ids[&1], a, EdgeKind::Child));
                let result = engine.add_subgraph(&sub).unwrap();
                assert!(!result.stats.no_op);
                assert_minimum(&engine, h);
                // The new auction has the same k-context as auction 2
                // (child of site, no IDREF in-edges — auction 4 has one
                // from item 3).
                let idx = ak(&engine, h);
                assert_eq!(idx.block_of(result.created[0]), idx.block_of(ids[&2]));
            }
        }

        #[test]
        fn extract_remove_re_add_round_trip() {
            let (g, ids) = host();
            let (mut engine, h) = engine_over(g, 2);
            let sizes_before: usize = ak(&engine, h).block_count();
            let (sub, members) = extract_subtree(engine.graph(), ids[&2]);
            remove(&mut engine, &members);
            assert_minimum(&engine, h);
            engine.add_subgraph(&sub).unwrap();
            assert_minimum(&engine, h);
            assert_eq!(ak(&engine, h).block_count(), sizes_before);
        }

        #[test]
        fn remove_everything_leaves_root() {
            let (g, ids) = host();
            let (mut engine, h) = engine_over(g, 3);
            let (_, members) = extract_subtree(engine.graph(), ids[&1]);
            remove(&mut engine, &members);
            assert_eq!(engine.graph().node_count(), 1);
            assert_eq!(ak(&engine, h).block_count(), 1);
            assert_minimum(&engine, h);
        }

        #[test]
        fn subgraph_with_outgoing_refs() {
            let (g, ids) = host();
            let (mut engine, h) = engine_over(g, 2);
            let mut sub = DetachedSubgraph::new();
            let w = sub.add_node("watcher", None);
            sub.incoming.push((ids[&1], w, EdgeKind::Child));
            sub.outgoing.push((w, ids[&2], EdgeKind::IdRef));
            sub.outgoing.push((w, ids[&4], EdgeKind::IdRef));
            engine.add_subgraph(&sub).unwrap();
            assert_minimum(&engine, h);
        }
    }
}
