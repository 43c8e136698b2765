//! The partition engine: dnode blocks (inode extents) with O(1) node moves
//! and iedge multiplicity maps.
//!
//! Every structural index in this crate is "completely determined by its
//! partition of the dnodes" (Section 3 of the paper), so this module owns
//! the mechanics shared by construction and maintenance:
//!
//! * **extents** — each block stores its dnodes in a `Vec`, with a global
//!   position table enabling O(1) swap-remove moves (the inner loop of
//!   Paige–Tarjan refinement and of the incremental split phase);
//! * **iedge multiplicity maps** — each block counts, per neighbor block,
//!   the number of dedges between the extents, in an adaptive
//!   [`IedgeMap`] (inline sorted array for the common low-degree case,
//!   sorted-map spill above the threshold — see `core::store`). An iedge
//!   exists iff its count is positive; the maps answer the two questions
//!   maintenance asks constantly: "is there an iedge from `I[u]` to
//!   `I[v]`?" and "do these two inodes have the same set of index
//!   parents?" (the minimality test of Definition 5);
//! * **split/merge primitives** — [`Partition::split_by_set`] implements
//!   the stabilize-against-a-splitter step (splitting *all* touched blocks
//!   in one scan of the splitter's successor set, the implementation note
//!   at the end of Section 5.1), and [`Partition::merge_blocks`] folds one
//!   block into another, rewriting neighbor maps.
//!
//! A partition is born without iedge counts: construction and snapshot
//! decoding attach nodes, and construction refines, before
//! [`Partition::rebuild_counts`] counts every iedge once. From then on
//! every primitive keeps the counts (and the orphan set they imply).
//!
//! Blocks live in a generation-checked [`SlotMap`]: recycled ids get a
//! fresh generation, so a handle held across [`Partition::release_block`]
//! is caught by the debug-build generation checks instead of silently
//! aliasing the block that reused the slot.
//!
//! Every primitive that changes what a frozen view shows of a block —
//! its extent, its successor key set, its label or its liveness —
//! stamps the block's slot in [`ChangeStamps`], so a freeze can rebuild
//! only the slots that changed since an earlier snapshot (DESIGN.md
//! §11.2). Count changes that keep the key set are not stamped.

use crate::obs::mem::{btree_set_heap, vec_cap_heap, HeapUse, MemReport};
use crate::store::iedge::{count_runs, key_set_sig, slot_pair};
use crate::store::{next_epoch, ChangeStamps, CowVec, IedgeMap, ScratchTable, SlotKey, SlotMap};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use xsi_graph::{Graph, Label, NodeId};

/// Identifier of a block (an inode's extent): a dense slot index plus
/// the generation it was minted with. Ids are recycled after
/// [`Partition::release_block`] with a bumped generation, so stale
/// handles never compare equal to the slot's new tenant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId {
    idx: u32,
    generation: u32,
}

impl BlockId {
    const INVALID: BlockId = BlockId {
        idx: u32::MAX,
        generation: u32::MAX,
    };

    /// Dense index for array-backed side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The raw slot index, for serialization and raw-`u32` query views.
    /// Reconstruct a live handle with [`Partition::handle`].
    #[inline]
    pub fn raw(self) -> u32 {
        self.idx
    }
}

impl Default for BlockId {
    fn default() -> Self {
        BlockId::INVALID
    }
}

impl SlotKey for BlockId {
    fn from_raw_parts(idx: u32, generation: u32) -> Self {
        BlockId { idx, generation }
    }
    fn idx(self) -> u32 {
        self.idx
    }
    fn gen(self) -> u32 {
        self.generation
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.idx)
    }
}

#[derive(Clone, Debug)]
struct Block {
    label: Label,
    /// The extent run, `Arc`-shared with frozen snapshots
    /// (`core::view`): reads deref to a slice, writes go through
    /// `CowVec::make_mut` and clone only when a snapshot holds the run.
    extent: CowVec<NodeId>,
    /// `parents[P]` = number of dedges (u, v) with `u ∈ P`, `v ∈ self`.
    parents: IedgeMap<BlockId>,
    /// `children[C]` = number of dedges (u, v) with `u ∈ self`, `v ∈ C`.
    children: IedgeMap<BlockId>,
}

impl Default for Block {
    fn default() -> Self {
        Block {
            label: Label::from_index(0),
            extent: CowVec::new(),
            parents: IedgeMap::new(),
            children: IedgeMap::new(),
        }
    }
}

impl HeapUse for Block {
    /// The block's heap payload: the extent run plus both iedge maps.
    /// The `Block` struct itself lives inside the slot arena and is
    /// charged to the slab shell.
    fn heap_use(&self) -> usize {
        self.extent.heap_bytes() + self.parents.heap_use() + self.children.heap_use()
    }
}

/// A partition of (a subset of) a graph's dnodes into labeled blocks, with
/// iedge multiplicity maps kept consistent under node moves, edge updates,
/// splits and merges.
#[derive(Clone, Default)]
pub struct Partition {
    blocks: SlotMap<BlockId, Block>,
    /// dnode → block, `BlockId::INVALID` when the node is not indexed.
    node_block: Vec<BlockId>,
    /// dnode → position inside its block's extent.
    node_pos: Vec<u32>,
    /// Live blocks whose parent map is empty (candidates for merging with
    /// other parentless blocks; normally just the root block). Sorted, so
    /// partner probes iterate deterministically.
    orphans: BTreeSet<BlockId>,
    /// Scratch marks for dedup scans, versioned by epoch so clearing is
    /// O(1) ([`next_epoch`] handles the wrap).
    mark: Vec<u32>,
    epoch: u32,
    /// Per-split scratch: |K ∩ marked| by block slot index.
    split_counts: ScratchTable<u32>,
    /// Per-split scratch: the frozen "this block properly intersects"
    /// decision by block slot index. Between splits,
    /// [`Partition::with_parent_in`] borrows it to mark probed blocks.
    split_flag: ScratchTable<bool>,
    /// Per-split scratch: partner block by split block slot index.
    split_partner: ScratchTable<BlockId>,
    /// Cumulative count of extent runs cloned because a frozen snapshot
    /// still shared them (exported as `snapshot_cow_clones`).
    cow_clones: u64,
    /// Per-slot change stamps for the incremental freeze.
    stamps: ChangeStamps,
    /// Whether the iedge maps and the orphan set are kept. False from
    /// [`Partition::new`] until the first [`Partition::rebuild_counts`]:
    /// until then node moves leave the (empty) maps alone.
    counted: bool,
}

impl Partition {
    /// Creates an empty partition sized for `g`, without iedge counts
    /// until [`Partition::rebuild_counts`] first runs.
    pub fn new(g: &Graph) -> Self {
        let cap = g.capacity();
        Partition {
            blocks: SlotMap::new(),
            node_block: vec![BlockId::INVALID; cap],
            node_pos: vec![0; cap],
            orphans: BTreeSet::new(),
            mark: vec![0; cap],
            epoch: 0,
            split_counts: ScratchTable::new(),
            split_flag: ScratchTable::new(),
            split_partner: ScratchTable::new(),
            cow_clones: 0,
            stamps: ChangeStamps::default(),
            counted: false,
        }
    }

    /// Grows per-node side tables to cover node ids up to `g.capacity()`.
    /// Call after adding nodes to the graph.
    pub fn ensure_capacity(&mut self, g: &Graph) {
        let cap = g.capacity();
        if cap > self.node_block.len() {
            self.node_block.resize(cap, BlockId::INVALID);
            self.node_pos.resize(cap, 0);
            self.mark.resize(cap, 0);
        }
    }

    /// Number of live blocks — the paper's "number of inodes in the index".
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Whether `n` is assigned to a block.
    #[inline]
    pub fn is_indexed(&self, n: NodeId) -> bool {
        self.node_block
            .get(n.index())
            .is_some_and(|&b| b != BlockId::INVALID)
    }

    /// The block containing dnode `n` — the paper's `I[n]`.
    ///
    /// # Panics
    /// Panics if `n` is not indexed.
    #[inline]
    pub fn block_of(&self, n: NodeId) -> BlockId {
        let b = self.node_block[n.index()];
        debug_assert!(b != BlockId::INVALID, "node {n:?} is not indexed");
        b
    }

    /// Whether `b` refers to a live, current-generation block.
    #[inline]
    pub fn is_live(&self, b: BlockId) -> bool {
        self.blocks.is_current(b)
    }

    /// The live handle for raw slot index `idx` (from a query view or a
    /// snapshot).
    ///
    /// # Panics
    /// Panics if the slot is dead or out of range.
    #[inline]
    pub fn handle(&self, idx: u32) -> BlockId {
        self.blocks
            .handle_at(idx)
            .unwrap_or_else(|| panic!("no live block at slot {idx}"))
    }

    /// One past the largest slot index a block id can carry (live and
    /// free slots): the bound for dense tables keyed by raw block id.
    #[inline]
    pub(crate) fn slot_bound(&self) -> usize {
        self.blocks.capacity()
    }

    /// The extent of block `b`.
    #[inline]
    pub fn extent(&self, b: BlockId) -> &[NodeId] {
        &self.blocks[b].extent
    }

    /// Shares block `b`'s extent run with a frozen snapshot: O(1), no
    /// node ids copied. The writer's next mutation of `b` clones the
    /// run (counted in [`Partition::cow_clone_count`]); the snapshot
    /// keeps this version.
    #[inline]
    pub fn share_extent(&self, b: BlockId) -> Arc<Vec<NodeId>> {
        self.blocks[b].extent.share() // xsi-lint: allow(slice-index, caller passes a live block handle)
    }

    /// Cumulative count of extent runs cloned because a frozen snapshot
    /// still shared them. Starts at 0 and stays 0 until a mutation
    /// actually lands on a frozen block.
    #[inline]
    pub fn cow_clone_count(&self) -> u64 {
        self.cow_clones
    }

    /// The per-slot change stamps a freeze reads.
    #[inline]
    pub(crate) fn stamps(&self) -> &ChangeStamps {
        &self.stamps
    }

    /// Test hook: the stamps, to move their sequence.
    #[cfg(test)]
    pub(crate) fn stamps_mut(&mut self) -> &mut ChangeStamps {
        &mut self.stamps
    }

    /// The live handle at raw slot index `idx`, if the slot is live.
    #[inline]
    pub(crate) fn live_at(&self, idx: u32) -> Option<BlockId> {
        self.blocks.handle_at(idx)
    }

    /// `|b|`: the number of dnodes in block `b`.
    #[inline]
    pub fn size(&self, b: BlockId) -> usize {
        self.blocks[b].extent.len()
    }

    /// The label shared by all dnodes of block `b`.
    #[inline]
    pub fn label(&self, b: BlockId) -> Label {
        self.blocks[b].label
    }

    /// Iterates over live block ids in slot order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks.keys()
    }

    /// Index parents of `b` with dedge multiplicities, in ascending
    /// block-id order (both `IedgeMap` representations are sorted).
    pub fn parents(&self, b: BlockId) -> impl Iterator<Item = (BlockId, u32)> + '_ {
        self.blocks[b].parents.iter()
    }

    /// Index successors `ISucc(b)` with dedge multiplicities, in
    /// ascending block-id order.
    pub fn children(&self, b: BlockId) -> impl Iterator<Item = (BlockId, u32)> + '_ {
        self.blocks[b].children.iter()
    }

    /// Number of distinct index parents of `b`.
    pub fn parent_count(&self, b: BlockId) -> usize {
        self.blocks[b].parents.len()
    }

    /// Number of distinct iedges out of `b`.
    pub fn child_count(&self, b: BlockId) -> usize {
        self.blocks[b].children.len()
    }

    /// Whether the iedge `from → to` exists (≥1 supporting dedge).
    pub fn has_iedge(&self, from: BlockId, to: BlockId) -> bool {
        self.blocks[from].children.contains_key(to)
    }

    /// Whether `a` and `b` have exactly the same set of index parents —
    /// together with label equality, the merge-legality test that makes an
    /// index minimal (Definition 5 and the remark following it). Rejects
    /// on parent count or parent-set signature in O(1); otherwise both
    /// key sequences are sorted, so the exact check is one linear pass.
    pub fn same_parent_set(&self, a: BlockId, b: BlockId) -> bool {
        self.blocks[a].parents.same_keys(&self.blocks[b].parents)
    }

    /// The merge fold's `Copy` bucket of `b`: (label, parent count,
    /// parent-set signature). Blocks that may merge always share a
    /// bucket; blocks sharing one may merge only if
    /// [`Partition::merge_cmp`] says so.
    pub(crate) fn merge_bucket(&self, b: BlockId) -> (u32, u32, u32) {
        let blk = &self.blocks[b]; // xsi-lint: allow(slice-index, merge candidates are children of a live block, hence live)
        (
            blk.label.index() as u32,
            blk.parents.len() as u32,
            blk.parents.key_sig(),
        )
    }

    /// The exact merge-key order of the 1-index: label, then the sorted
    /// index-parent sequence compared lexicographically. `Equal` iff `a`
    /// and `b` may merge (Definition 5).
    pub(crate) fn merge_cmp(&self, a: BlockId, b: BlockId) -> Ordering {
        // xsi-lint: allow(slice-index, merge candidates are children of a live block, hence live)
        let (x, y) = (&self.blocks[a], &self.blocks[b]);
        x.label
            .index()
            .cmp(&y.label.index())
            .then_with(|| x.parents.keys().cmp(y.parents.keys()))
    }

    /// Allocates a fresh, empty, live block with the given label.
    /// Recycles released slots (with a bumped generation) and reuses
    /// their extent/map allocations.
    pub fn new_block(&mut self, label: Label) -> BlockId {
        let (id, blk) = self.blocks.alloc();
        blk.label = label;
        debug_assert!(blk.extent.is_empty(), "recycled slot kept its extent");
        // Normalize recycled maps back to the inline representation
        // (they are empty per the release contract, but a spilled map
        // stays spilled until cleared).
        blk.parents.clear();
        blk.children.clear();
        if self.counted {
            self.orphans.insert(id); // no parents yet
        }
        self.stamps.stamp(id.idx);
        id
    }

    /// Releases an **empty** block (no extent; neighbor maps must already
    /// be clear, which follows from emptiness when counts are consistent).
    /// The id — every copy of it — becomes stale.
    pub fn release_block(&mut self, b: BlockId) {
        // Hot path: debug_assert keeps the checks out of release builds;
        // the release-debug-asserts CI job still exercises them compiled in.
        debug_assert!(
            self.blocks[b].extent.is_empty(),
            "releasing non-empty block {b:?}"
        );
        debug_assert!(
            self.blocks[b].parents.is_empty(),
            "released block has parent iedges"
        );
        debug_assert!(
            self.blocks[b].children.is_empty(),
            "released block has child iedges"
        );
        self.orphans.remove(&b);
        self.blocks.release(b);
        self.stamps.stamp(b.idx);
    }

    /// Places an unindexed node into a block **without** touching iedge
    /// counts. Sound when the node has no edges yet (incremental node
    /// addition) or when the caller finishes with [`Partition::rebuild_counts`]
    /// (bulk construction).
    pub fn attach_node(&mut self, n: NodeId, b: BlockId) {
        debug_assert!(!self.is_indexed(n), "attach of already-indexed {n:?}");
        let blk = &mut self.blocks[b];
        self.node_block[n.index()] = b;
        self.node_pos[n.index()] = blk.extent.len() as u32;
        blk.extent.make_mut(&mut self.cow_clones).push(n);
        self.stamps.stamp(b.idx);
    }

    /// Removes a node from its block **without** touching iedge counts —
    /// the counterpart of [`Partition::attach_node`], for deleting a node
    /// that has no remaining edges. Returns the block it was removed from.
    pub fn detach_node(&mut self, n: NodeId) -> BlockId {
        let b = self.block_of(n);
        self.remove_from_extent(n, b);
        self.node_block[n.index()] = BlockId::INVALID;
        b
    }

    fn remove_from_extent(&mut self, n: NodeId, b: BlockId) {
        let pos = self.node_pos[n.index()] as usize;
        let extent = self.blocks[b].extent.make_mut(&mut self.cow_clones);
        debug_assert_eq!(extent[pos], n);
        extent.swap_remove(pos);
        if let Some(&moved) = extent.get(pos) {
            self.node_pos[moved.index()] = pos as u32;
        }
        self.stamps.stamp(b.idx);
    }

    /// Moves node `n` from its current block to `to`, keeping all iedge
    /// counts consistent. O(deg(n)) on a counted partition, O(1) before
    /// the first [`Partition::rebuild_counts`].
    pub fn move_node(&mut self, g: &Graph, n: NodeId, to: BlockId) {
        let from = self.block_of(n);
        if from == to {
            return;
        }
        self.remove_from_extent(n, from);
        let blk = &mut self.blocks[to];
        self.node_block[n.index()] = to;
        self.node_pos[n.index()] = blk.extent.len() as u32;
        blk.extent.make_mut(&mut self.cow_clones).push(n);
        self.stamps.stamp(to.idx);
        if !self.counted {
            return;
        }
        // Re-home the counts of every dedge incident to n. Other endpoints
        // are stationary, and self-loops are impossible, so their blocks
        // are well-defined throughout.
        for p in g.pred(n) {
            let bp = self.block_of(p);
            self.dec_edge(bp, from);
            self.inc_edge(bp, to);
        }
        for c in g.succ(n) {
            let bc = self.block_of(c);
            self.dec_edge(from, bc);
            self.inc_edge(to, bc);
        }
    }

    /// Registers the dedge `(u, v)` after it was inserted into the graph.
    pub fn on_edge_inserted(&mut self, u: NodeId, v: NodeId) {
        let (bu, bv) = (self.block_of(u), self.block_of(v));
        self.inc_edge(bu, bv);
    }

    /// Unregisters the dedge `(u, v)` after it was deleted from the graph.
    /// `u` and `v` must still be in their pre-deletion blocks.
    pub fn on_edge_deleted(&mut self, u: NodeId, v: NodeId) {
        let (bu, bv) = (self.block_of(u), self.block_of(v));
        self.dec_edge(bu, bv);
    }

    fn inc_edge(&mut self, from: BlockId, to: BlockId) {
        if self.blocks[from].children.add(to, 1) == 1 {
            self.stamps.stamp(from.idx);
        }
        let parents = &mut self.blocks[to].parents;
        if parents.is_empty() {
            self.orphans.remove(&to);
        }
        parents.add(from, 1);
    }

    fn dec_edge(&mut self, from: BlockId, to: BlockId) {
        // `IedgeMap::sub` debug-asserts the entry exists (dec_edge only
        // removes iedges inc_edge recorded) and drops it at zero.
        if self.blocks[from].children.sub(to, 1) == 0 {
            self.stamps.stamp(from.idx);
        }
        let parents = &mut self.blocks[to].parents;
        parents.sub(from, 1);
        if parents.is_empty() && self.blocks.is_current(to) {
            self.orphans.insert(to);
        }
    }

    /// Collects `Succ(b)` — the deduplicated dnode successors of block
    /// `b`'s extent — in one scan, as required by the splitter steps of
    /// both construction and incremental maintenance.
    pub fn collect_succ(&mut self, g: &Graph, b: BlockId) -> Vec<NodeId> {
        let epoch = next_epoch(&mut self.epoch, &mut self.mark);
        let mut out = Vec::new();
        for i in 0..self.blocks[b].extent.len() {
            let u = self.blocks[b].extent[i];
            for v in g.succ(u) {
                if self.mark[v.index()] != epoch {
                    self.mark[v.index()] = epoch;
                    out.push(v);
                }
            }
        }
        out
    }

    /// The members of `cands` with a dnode parent in one of `blocks` —
    /// `cands ∩ Succ(blocks)` — in `cands` order, plus the number of
    /// parent edges probed. The compound loop's second splitter: it
    /// costs the candidates' in-degrees, not a scan of `blocks`.
    pub(crate) fn with_parent_in(
        &mut self,
        g: &Graph,
        cands: &[NodeId],
        blocks: &[BlockId],
    ) -> (Vec<NodeId>, u64) {
        self.split_flag.begin();
        for &b in blocks {
            self.split_flag.set(b.idx(), true);
        }
        let mut out = Vec::new();
        let mut probed = 0u64;
        for &x in cands {
            for p in g.pred(x) {
                probed += 1;
                let hit = self
                    .node_block
                    .get(p.index())
                    .is_some_and(|b| self.split_flag.get(b.idx()) == Some(true));
                if hit {
                    out.push(x);
                    break;
                }
            }
        }
        (out, probed)
    }

    /// Stabilizes the whole partition against the node set `marked`
    /// (typically `Succ` of a splitter): every block is split into its
    /// intersection with `marked` and the remainder; blocks entirely inside
    /// or entirely outside are untouched.
    ///
    /// `marked` must be duplicate-free and contain only indexed nodes.
    /// Returns the `(remainder, intersection)` block-id pairs of every
    /// block actually split. Cost: two scans of `marked` plus O(deg) per
    /// moved node — independent of the number of untouched blocks, with
    /// no per-call allocation (epoch-stamped scratch tables).
    pub fn split_by_set(&mut self, g: &Graph, marked: &[NodeId]) -> Vec<(BlockId, BlockId)> {
        // Pass 1: count |K ∩ marked| per touched block and freeze the
        // decision against the block's *current* size (moves in pass 2
        // shrink extents, so deciding lazily would mis-detect full blocks).
        self.split_counts.begin();
        for &w in marked {
            let b = self.block_of(w);
            self.split_counts.update(b.idx(), |c| *c += 1);
        }
        self.split_flag.begin();
        let mut any = false;
        for ti in 0..self.split_counts.touched_len() {
            let idx = self.split_counts.touched()[ti];
            let b = self.handle(idx);
            let c = self.split_counts.get(idx).unwrap_or(0);
            if (c as usize) < self.size(b) {
                self.split_flag.set(idx, true);
                any = true;
            }
        }
        if !any {
            return Vec::new();
        }
        // Pass 2: move marked nodes of properly-intersected blocks into
        // fresh partner blocks. Partner slots can only come from dead
        // slots (never touched above) or fresh ones, so the scratch
        // tables cannot confuse a partner with a splitting block.
        self.split_partner.begin();
        let mut pairs: Vec<(BlockId, BlockId)> = Vec::new();
        for &w in marked {
            // `w` has not moved yet (each marked node is visited once), so
            // `block_of` still names its original block.
            let b = self.block_of(w);
            if self.split_flag.get(b.idx()) != Some(true) {
                continue;
            }
            let partner = match self.split_partner.get(b.idx()) {
                Some(p) => p,
                None => {
                    let p = self.new_block(self.label(b));
                    self.split_partner.set(b.idx(), p);
                    pairs.push((b, p));
                    p
                }
            };
            self.move_node(g, w, partner);
        }
        // Return the split pairs in sorted order: callers feed them into
        // counter-queues and traces, so the order must stay canonical
        // regardless of the order `marked` visits blocks.
        pairs.sort_unstable();
        pairs
    }

    /// Merges block `src` into block `dst` (Definition 5's merge
    /// operation): extents are concatenated and all iedge counts are
    /// re-keyed from `src` to `dst`. `src` is released (its id goes
    /// stale).
    ///
    /// Cost: O(|src extent| + iedges incident to src). Callers should pass
    /// the smaller block as `src`.
    pub fn merge_blocks(&mut self, dst: BlockId, src: BlockId) {
        // A self-merge would silently destroy the extent via the drain
        // below, so this guard must survive into release builds.
        // xsi-lint: allow(hot-assert, self-merge corrupts the extent irrecoverably; cost is one compare per merge)
        assert_ne!(dst, src, "merging a block with itself");
        debug_assert_eq!(self.label(dst), self.label(src), "label mismatch in merge");
        // Extent transfer.
        // xsi-lint: allow(cow-discipline, take swaps in a fresh empty run; the taken handle still shares with any snapshot reading it)
        let src_extent = std::mem::take(&mut self.blocks[src].extent);
        for &n in src_extent.iter() {
            let blk = &mut self.blocks[dst];
            self.node_block[n.index()] = dst;
            self.node_pos[n.index()] = blk.extent.len() as u32;
            blk.extent.make_mut(&mut self.cow_clones).push(n);
        }
        self.stamps.stamp(dst.idx);
        // Reuse the drained run's allocation for src's next life — unless
        // a frozen snapshot still shares it, in which case the snapshot
        // keeps the nodes and src starts from the fresh empty run that
        // `take` left behind.
        if let Some(mut recycled) = src_extent.take_unique() {
            recycled.clear();
            // xsi-lint: allow(cow-discipline, take_unique proved the run unshared; no snapshot can observe the swap)
            self.blocks[src].extent = recycled.into();
        }
        // Count transfer. Drain src's maps (sorted; the drain leaves them
        // empty and inline for the slot's next tenant), remove the src↔src
        // self entry (it appears in both maps but describes the same
        // dedges), then replay every count onto dst with src re-keyed to
        // dst.
        let mut src_parents = self.blocks[src].parents.drain_sorted();
        let mut src_children = self.blocks[src].children.drain_sorted();
        let self_cnt = src_parents
            .iter()
            .position(|&(p, _)| p == src)
            .map(|i| src_parents.remove(i).1)
            .unwrap_or(0);
        let self_cnt2 = src_children
            .iter()
            .position(|&(c, _)| c == src)
            .map(|i| src_children.remove(i).1)
            .unwrap_or(0);
        debug_assert_eq!(self_cnt, self_cnt2, "src self-iedge maps disagree");
        // Drop src from every neighbor's map (re-added under dst below).
        for &(p, _) in &src_parents {
            self.blocks[p].children.remove(src);
            self.stamps.stamp(p.idx);
        }
        for &(c, _) in &src_children {
            self.blocks[c].parents.remove(src);
        }
        for (p, cnt) in src_parents {
            let p = if p == src { dst } else { p };
            self.add_edge_count(p, dst, cnt);
        }
        for (c, cnt) in src_children {
            let c = if c == src { dst } else { c };
            self.add_edge_count(dst, c, cnt);
        }
        if self_cnt > 0 {
            self.add_edge_count(dst, dst, self_cnt);
        }
        // Neighbors whose parent map temporarily lost src still have dst,
        // so orphan status can only change for dst itself.
        if self.blocks[dst].parents.is_empty() {
            self.orphans.insert(dst);
        } else {
            self.orphans.remove(&dst);
        }
        self.release_block(src);
    }

    fn add_edge_count(&mut self, from: BlockId, to: BlockId, cnt: u32) {
        if cnt == 0 {
            return;
        }
        if self.blocks[from].children.add(to, cnt) == cnt {
            self.stamps.stamp(from.idx);
        }
        let parents = &mut self.blocks[to].parents;
        if parents.is_empty() {
            self.orphans.remove(&to);
        }
        parents.add(from, cnt);
    }

    /// Merges every block of `group` into its largest member, returning the
    /// survivor. All members must be live, label-equal and distinct.
    pub fn merge_group(&mut self, group: &[BlockId]) -> BlockId {
        debug_assert!(group.len() >= 2);
        let dst = *group
            .iter()
            .max_by_key(|&&b| self.size(b))
            .expect("checked: merge_group callers pass at least two blocks");
        for &b in group {
            if b != dst {
                self.merge_blocks(dst, b);
            }
        }
        dst
    }

    /// Looks for a live block that could legally merge with `b`: same
    /// label, same set of index parents (the merge-phase probe of
    /// Figure 3). Searches only `b`'s siblings (blocks sharing an index
    /// parent), or other orphan blocks when `b` has no parents. Returns
    /// the partner, if any, and the number of candidate blocks examined.
    pub fn find_merge_partner(&self, b: BlockId) -> (Option<BlockId>, usize) {
        let label = self.label(b);
        let parents = &self.blocks[b].parents;
        // Every legal partner shares *every* parent of `b`, so the
        // children of any one parent hold all of them: anchor on the
        // parent with the fewest children (ties to the smaller id) and
        // take the `min` partner, which is the same whichever parent
        // anchors. `same_parent_set` rejects a non-twin's parent set by
        // length or signature in O(1).
        let anchor = parents
            .keys()
            // xsi-lint: allow(slice-index, parent keys of a live block name live blocks)
            .min_by_key(|&p| (self.blocks[p].children.len(), p));
        if let Some(p) = anchor {
            // xsi-lint: allow(slice-index, the anchor is a parent key of a live block)
            let siblings = &self.blocks[p].children;
            let partner = siblings
                .keys()
                .filter(|&cand| {
                    cand != b
                        && self.is_live(cand)
                        && self.label(cand) == label
                        && self.same_parent_set(cand, b)
                })
                .min();
            (partner, siblings.len())
        } else {
            let partner = self
                .orphans
                .iter()
                .copied()
                .filter(|&cand| cand != b && self.label(cand) == label)
                .min();
            (partner, self.orphans.len())
        }
    }

    /// Counts every iedge from the graph in one sorted pass (one
    /// `(from slot, to slot)` pair per dedge, see `store::iedge::count_runs`), writes
    /// each map in ascending key order, and derives the orphan set from
    /// the empty parent maps. Used after bulk [`Partition::attach_node`]
    /// loops and the count-free refinement of construction; from then on
    /// every primitive keeps the counts.
    pub fn rebuild_counts(&mut self, g: &Graph) {
        let live: Vec<BlockId> = self.blocks().collect();
        for &b in &live {
            // Before the first count no primitive has written a map.
            if self.counted {
                self.blocks[b].parents.clear();
                self.blocks[b].children.clear();
            }
            self.stamps.stamp(b.idx);
        }
        let slot_of = |n: NodeId| {
            self.node_block
                .get(n.index())
                .filter(|&&b| b != BlockId::INVALID)
                .map(|b| b.idx)
        };
        let mut pairs: Vec<u64> = Vec::with_capacity(g.edge_count());
        for u in g.nodes() {
            let Some(from) = slot_of(u) else {
                continue;
            };
            pairs.extend(g.succ(u).filter_map(|v| Some(slot_pair(from, slot_of(v)?))));
        }
        for (from, to, count) in count_runs(&mut pairs) {
            let (Some(from), Some(to)) = (self.live_at(from), self.live_at(to)) else {
                continue;
            };
            // xsi-lint: allow(slice-index, live_at returned a live handle)
            self.blocks[from].children.add(to, count);
            // xsi-lint: allow(slice-index, live_at returned a live handle)
            self.blocks[to].parents.add(from, count);
        }
        self.orphans = live
            .into_iter()
            .filter(|&b| self.blocks.get(b).is_some_and(|blk| blk.parents.is_empty()))
            .collect();
        self.counted = true;
    }

    /// Deep heap bytes owned by the partition (capacity-based); the
    /// decomposed view is [`Partition::mem_report`].
    pub fn heap_use(&self) -> usize {
        self.blocks.heap_use()
            + vec_cap_heap(&self.node_block)
            + vec_cap_heap(&self.node_pos)
            + vec_cap_heap(&self.mark)
            + btree_set_heap::<BlockId>(self.orphans.len())
            + self.split_counts.heap_use()
            + self.split_flag.heap_use()
            + self.split_partner.heap_use()
            + self.stamps.heap_use()
    }

    /// A point-in-time deep-memory attribution of the partition, per the
    /// accounting contract in DESIGN.md §13. One pass over the block
    /// table; [`MemReport::total_bytes`] equals this partition's
    /// [`HeapUse::heap_use`] exactly (the walker-oracle test pins it).
    pub fn mem_report(&self) -> MemReport {
        let mut r = MemReport::default();
        let mut live_payload = 0usize;
        for (_, blk) in self.blocks.iter() {
            r.blocks += 1;
            r.record_extent(
                blk.extent.len(),
                blk.extent.heap_bytes(),
                blk.extent.is_shared(),
            );
            for m in [&blk.parents, &blk.children] {
                match m.inline_occupancy() {
                    Some(occ) => r.record_inline_map(occ),
                    None => r.record_spilled_map(m.heap_use()),
                }
            }
            live_payload += blk.heap_use();
        }
        let all_payload: usize = self.blocks.iter_all_slots().map(Block::heap_use).sum();
        r.dead_retained_bytes = (all_payload - live_payload) as u64;
        r.slab_bytes = self.blocks.shell_bytes() as u64;
        r.side_table_bytes = (vec_cap_heap(&self.node_block)
            + vec_cap_heap(&self.node_pos)
            + vec_cap_heap(&self.mark)
            + btree_set_heap::<BlockId>(self.orphans.len())
            + self.stamps.heap_use()) as u64;
        r.scratch_bytes = (self.split_counts.heap_use()
            + self.split_flag.heap_use()
            + self.split_partner.heap_use()) as u64;
        r
    }

    /// The partition as a canonical sorted list of sorted extents — the
    /// right form for comparing two partitions for set equality in tests.
    pub fn canonical(&self) -> Vec<Vec<NodeId>> {
        let mut out: Vec<Vec<NodeId>> = self
            .blocks()
            .map(|b| {
                let mut e = self.extent(b).to_vec();
                e.sort_unstable();
                e
            })
            .collect();
        out.sort();
        out
    }

    /// Exhaustive structural verification: extents are disjoint and agree
    /// with the node→block map, labels are homogeneous, iedge counts match
    /// a recount from the graph, and the orphan set is exact. Intended for
    /// tests; O(n + m).
    pub fn check_consistency(&self, g: &Graph) -> Result<(), String> {
        let mut seen_nodes = 0usize;
        let mut live = 0usize;
        for (b, blk) in self.blocks.iter() {
            live += 1;
            if blk.extent.is_empty() {
                return Err(format!("live block {b:?} has empty extent"));
            }
            for (pos, &n) in blk.extent.iter().enumerate() {
                if self.node_block[n.index()] != b {
                    return Err(format!(
                        "node {n:?} in extent of {b:?} but mapped elsewhere"
                    ));
                }
                if self.node_pos[n.index()] as usize != pos {
                    return Err(format!("node {n:?} position table out of sync"));
                }
                if g.label(n) != blk.label {
                    return Err(format!("label mismatch in block {b:?} at node {n:?}"));
                }
                seen_nodes += 1;
            }
            if self.orphans.contains(&b) != blk.parents.is_empty() {
                return Err(format!("orphan set wrong for {b:?}"));
            }
            for (side, m) in [("parent", &blk.parents), ("child", &blk.children)] {
                if m.key_sig() != key_set_sig(m.keys()) {
                    return Err(format!("{side} map signature of {b:?} is stale"));
                }
            }
        }
        if live != self.blocks.len() {
            return Err(format!(
                "live block counter {} != actual {live}",
                self.blocks.len()
            ));
        }
        let indexed = g.nodes().filter(|&n| self.is_indexed(n)).count();
        if indexed != seen_nodes {
            return Err(format!(
                "{indexed} indexed nodes but {seen_nodes} across extents"
            ));
        }
        // Recount iedges.
        let mut recount: std::collections::BTreeMap<(BlockId, BlockId), u32> =
            std::collections::BTreeMap::new();
        for u in g.nodes() {
            if !self.is_indexed(u) {
                continue;
            }
            for v in g.succ(u) {
                if self.is_indexed(v) {
                    *recount
                        .entry((self.block_of(u), self.block_of(v)))
                        .or_insert(0) += 1;
                }
            }
        }
        let mut stored = 0usize;
        for (b, blk) in self.blocks.iter() {
            for (c, cnt) in blk.children.iter() {
                if recount.get(&(b, c)) != Some(&cnt) {
                    return Err(format!(
                        "child count ({b:?}→{c:?})={cnt} disagrees with recount {:?}",
                        recount.get(&(b, c))
                    ));
                }
                stored += 1;
                // xsi-lint: allow(slice-index, c is a key of a live block map entry)
                if self.blocks[c].parents.get(b) != Some(cnt) {
                    return Err(format!("parent map of {c:?} out of sync with {b:?}"));
                }
            }
            for p in blk.parents.keys() {
                // xsi-lint: allow(slice-index, p is a key of a live block map entry)
                if !self.blocks[p].children.contains_key(b) {
                    return Err(format!("parent entry {p:?} of {b:?} not mirrored"));
                }
            }
        }
        if stored != recount.len() {
            return Err(format!(
                "{stored} stored iedges but recount has {}",
                recount.len()
            ));
        }
        Ok(())
    }
}

impl fmt::Debug for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Partition {{ {} blocks", self.blocks.len())?;
        for b in self.blocks() {
            let ps: Vec<BlockId> = self.blocks[b].parents.keys().collect(); // xsi-lint: allow(slice-index, b comes from the live-blocks iterator)
            writeln!(f, "  {:?}: {:?} parents={:?}", b, self.extent(b), ps)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsi_graph::{EdgeKind, GraphBuilder};

    /// root -> a -> {b1, b2}; returns partition {root} {a} {b1,b2}.
    fn small() -> (Graph, Partition, BlockId, BlockId, BlockId) {
        let (g, ids) = GraphBuilder::new()
            .nodes(&[(1, "a"), (2, "b"), (3, "b")])
            .edges(&[(1, 2), (1, 3)])
            .root_to(1)
            .build_with_ids();
        let mut p = Partition::new(&g);
        let broot = p.new_block(g.label(g.root()));
        p.attach_node(g.root(), broot);
        let ba = p.new_block(g.label(ids[&1]));
        p.attach_node(ids[&1], ba);
        let bb = p.new_block(g.label(ids[&2]));
        p.attach_node(ids[&2], bb);
        p.attach_node(ids[&3], bb);
        p.rebuild_counts(&g);
        (g, p, broot, ba, bb)
    }

    #[test]
    fn build_and_counts() {
        let (g, p, broot, ba, bb) = small();
        assert_eq!(p.block_count(), 3);
        assert!(p.has_iedge(broot, ba));
        assert!(p.has_iedge(ba, bb));
        assert!(!p.has_iedge(bb, ba));
        assert_eq!(
            p.children(ba).collect::<Vec<_>>(),
            vec![(bb, 2)],
            "two dedges support the a→b iedge"
        );
        p.check_consistency(&g).unwrap();
    }

    #[test]
    fn move_node_updates_counts() {
        let (g, mut p, _, ba, bb) = small();
        let b2 = g.nodes().find(|&n| g.label_name(n) == "b").unwrap();
        let fresh = p.new_block(g.label(b2));
        p.move_node(&g, b2, fresh);
        assert_eq!(p.size(bb), 1);
        assert_eq!(p.size(fresh), 1);
        assert!(p.has_iedge(ba, fresh));
        assert!(p.has_iedge(ba, bb));
        p.check_consistency(&g).unwrap();
    }

    #[test]
    fn split_by_set_splits_proper_intersections() {
        let (g, mut p, _, _, bb) = small();
        // Mark only b1: bb properly intersects → splits.
        let b1 = p.extent(bb)[0];
        let pairs = p.split_by_set(&g, &[b1]);
        assert_eq!(pairs.len(), 1);
        let (old, new) = pairs[0];
        assert_eq!(old, bb);
        assert_eq!(p.extent(new), &[b1]);
        assert_eq!(p.size(old), 1);
        p.check_consistency(&g).unwrap();
    }

    #[test]
    fn split_by_set_ignores_full_and_disjoint_blocks() {
        let (g, mut p, _, _, bb) = small();
        // Mark the whole extent of bb: no proper intersection anywhere.
        let marked: Vec<NodeId> = p.extent(bb).to_vec();
        assert!(p.split_by_set(&g, &marked).is_empty());
        assert_eq!(p.block_count(), 3);
        p.check_consistency(&g).unwrap();
    }

    #[test]
    fn merge_reverses_split() {
        let (g, mut p, _, _, bb) = small();
        let before = p.canonical();
        let b1 = p.extent(bb)[0];
        let pairs = p.split_by_set(&g, &[b1]);
        let (old, new) = pairs[0];
        p.merge_blocks(old, new);
        assert_eq!(p.canonical(), before);
        p.check_consistency(&g).unwrap();
    }

    #[test]
    fn merge_with_self_iedges() {
        // a1 -> a2 inside one block: the block has a self iedge; splitting
        // and re-merging must keep counts consistent.
        let (g, ids) = GraphBuilder::new()
            .nodes(&[(1, "a"), (2, "a")])
            .edges(&[(1, 2)])
            .root_to(1)
            .build_with_ids();
        let mut p = Partition::new(&g);
        let br = p.new_block(g.label(g.root()));
        p.attach_node(g.root(), br);
        let ba = p.new_block(g.label(ids[&1]));
        p.attach_node(ids[&1], ba);
        p.attach_node(ids[&2], ba);
        p.rebuild_counts(&g);
        assert!(p.has_iedge(ba, ba));
        let pairs = p.split_by_set(&g, &[ids[&2]]);
        assert_eq!(pairs.len(), 1);
        let (old, new) = pairs[0];
        assert!(p.has_iedge(old, new));
        p.check_consistency(&g).unwrap();
        p.merge_blocks(old, new);
        assert!(p.has_iedge(old, old));
        p.check_consistency(&g).unwrap();
    }

    /// The splitter-scan marks survive the epoch wrap: scans across the
    /// 2^32-th one still see every successor, including nodes never
    /// marked before (whose stamp is the initial 0).
    #[test]
    fn collect_succ_survives_the_epoch_wrap() {
        let (g, ids) = GraphBuilder::new()
            .nodes(&[(1, "a"), (2, "b"), (3, "c")])
            .edges(&[(1, 2), (2, 3)])
            .root_to(1)
            .build_with_ids();
        let mut p = Partition::new(&g);
        for n in g.nodes() {
            let b = p.new_block(g.label(n));
            p.attach_node(n, b);
        }
        p.rebuild_counts(&g);
        p.epoch = u32::MAX - 1;
        for (scanned, succ) in [(g.root(), ids[&1]), (ids[&1], ids[&2]), (ids[&2], ids[&3])] {
            let b = p.block_of(scanned);
            assert_eq!(p.collect_succ(&g, b), vec![succ], "scan of {scanned:?}");
        }
    }

    #[test]
    fn edge_insert_delete_hooks() {
        let (mut g, mut p, broot, _, bb) = small();
        let b1 = p.extent(bb)[0];
        g.insert_edge(g.root(), b1, EdgeKind::IdRef).unwrap();
        p.on_edge_inserted(g.root(), b1);
        assert!(p.has_iedge(broot, bb));
        p.check_consistency(&g).unwrap();
        g.delete_edge(g.root(), b1).unwrap();
        p.on_edge_deleted(g.root(), b1);
        assert!(!p.has_iedge(broot, bb));
        p.check_consistency(&g).unwrap();
    }

    #[test]
    fn orphan_tracking() {
        let (mut g, mut p, broot, ba, _) = small();
        assert!(
            p.find_merge_partner(broot).0.is_none(),
            "root is lone orphan"
        );
        // Cut a's only incoming edge: ba becomes an orphan.
        let a = p.extent(ba)[0];
        g.delete_edge(g.root(), a).unwrap();
        p.on_edge_deleted(g.root(), a);
        // ba now parentless; the only other orphan is root with a different
        // label, so still no partner.
        assert!(p.find_merge_partner(ba).0.is_none());
        p.check_consistency(&g).unwrap();
    }

    #[test]
    fn find_merge_partner_same_parents() {
        // root -> {a1}, root -> {a2}: split apart, they are partners.
        let (g, ids) = GraphBuilder::new()
            .nodes(&[(1, "a"), (2, "a")])
            .root_to(1)
            .root_to(2)
            .build_with_ids();
        let mut p = Partition::new(&g);
        let br = p.new_block(g.label(g.root()));
        p.attach_node(g.root(), br);
        let b1 = p.new_block(g.label(ids[&1]));
        p.attach_node(ids[&1], b1);
        let b2 = p.new_block(g.label(ids[&2]));
        p.attach_node(ids[&2], b2);
        p.rebuild_counts(&g);
        // The root anchors both searches and has two children to examine.
        assert_eq!(p.find_merge_partner(b1), (Some(b2), 2));
        assert_eq!(p.find_merge_partner(b2), (Some(b1), 2));
    }

    #[test]
    fn detach_and_release() {
        let (g, mut p, _, _, bb) = small();
        // Detach both b-nodes (pretend their edges were removed first —
        // counts go stale, so rebuild afterwards).
        let nodes: Vec<NodeId> = p.extent(bb).to_vec();
        for n in nodes {
            p.detach_node(n);
        }
        assert_eq!(p.size(bb), 0);
        p.rebuild_counts(&g);
        p.release_block(bb);
        assert_eq!(p.block_count(), 2);
        assert!(!p.is_live(bb));
    }

    #[test]
    fn canonical_is_stable_under_block_renaming() {
        let (_, p1, ..) = small();
        let (_, p2, ..) = small();
        assert_eq!(p1.canonical(), p2.canonical());
    }

    #[test]
    fn released_id_goes_stale_and_recycles_with_new_generation() {
        let (g, mut p, _, _, bb) = small();
        let nodes: Vec<NodeId> = p.extent(bb).to_vec();
        for n in nodes {
            p.detach_node(n);
        }
        p.rebuild_counts(&g);
        p.release_block(bb);
        assert!(!p.is_live(bb));
        // The slot is recycled with a fresh generation: the old handle
        // stays stale, the new one is live, and they are not equal.
        let fresh = p.new_block(g.label(g.root()));
        assert_eq!(fresh.raw(), bb.raw(), "LIFO slot reuse");
        assert_ne!(fresh, bb, "generation distinguishes the tenants");
        assert!(p.is_live(fresh));
        assert!(!p.is_live(bb));
        assert_eq!(p.handle(bb.raw()), fresh);
    }

    #[test]
    fn cow_clones_count_only_mutations_of_shared_runs() {
        let (g, mut p, _, _, bb) = small();
        assert_eq!(p.cow_clone_count(), 0);
        let snap = p.share_extent(bb);
        assert_eq!(p.cow_clone_count(), 0, "sharing alone never clones");
        // Unshared blocks keep mutating in place.
        let b1 = p.extent(bb)[0];
        let pairs = p.split_by_set(&g, &[b1]);
        assert_eq!(pairs.len(), 1);
        assert!(
            p.cow_clone_count() >= 1,
            "mutating a frozen block must clone its run"
        );
        assert_eq!(snap.len(), 2, "the frozen run keeps its pre-split content");
        assert_eq!(p.size(bb), 1, "the live block moved on");
    }

    #[test]
    fn mem_report_counts_maps() {
        let (_, p, ..) = small();
        let r = p.mem_report();
        assert_eq!(r.blocks, 3);
        assert_eq!(
            r.iedge_inline_maps + r.iedge_spilled_maps,
            6,
            "two maps per block"
        );
        assert_eq!(r.iedge_spilled_maps, 0, "tiny partition stays inline");
        // root→a and a→b fill one entry on each side of both edges.
        let filled: u64 = r.inline_occupancy_hist.iter().skip(1).sum();
        assert_eq!(filled, 4);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use xsi_graph::GraphBuilder;

    /// Diamond: root -> a -> {b1, b2} -> c (both b's point at c).
    fn diamond() -> (Graph, Partition, Vec<BlockId>) {
        let (g, ids) = GraphBuilder::new()
            .nodes(&[(1, "a"), (2, "b"), (3, "b"), (4, "c")])
            .edges(&[(1, 2), (1, 3), (2, 4), (3, 4)])
            .root_to(1)
            .build_with_ids();
        let mut p = Partition::new(&g);
        let mut blocks = Vec::new();
        for key in [0u64, 1, 2, 3, 4] {
            let n = if key == 0 { g.root() } else { ids[&key] };
            let b = p.new_block(g.label(n));
            p.attach_node(n, b);
            blocks.push(b);
        }
        p.rebuild_counts(&g);
        (g, p, blocks)
    }

    #[test]
    fn merge_group_picks_largest_survivor() {
        let (g, mut p, blocks) = diamond();
        // Merge the two singleton b-blocks; then grow one and merge again
        // to observe survivor selection.
        let survivor = p.merge_group(&[blocks[2], blocks[3]]);
        assert!(p.is_live(survivor));
        assert_eq!(p.size(survivor), 2);
        p.check_consistency(&g).unwrap();
        // The c block now has exactly one parent (the merged b block).
        assert_eq!(p.parent_count(blocks[4]), 1);
        assert!(p.has_iedge(survivor, blocks[4]));
    }

    #[test]
    fn collect_succ_deduplicates() {
        let (g, mut p, blocks) = diamond();
        let merged = p.merge_group(&[blocks[2], blocks[3]]);
        // Succ of the merged b-block = {c} exactly once, despite two
        // supporting dedges.
        let succ = p.collect_succ(&g, merged);
        assert_eq!(succ.len(), 1);
        // Succ of a's block = {b1, b2}: distinct successors all appear.
        let succ = p.collect_succ(&g, blocks[1]);
        assert_eq!(succ.len(), 2);
    }

    #[test]
    fn with_parent_in_keeps_candidates_with_a_parent_in_the_blocks() {
        let (g, mut p, blocks) = diamond();
        // Candidates: every non-root node. Parents in {a}: b1, b2.
        let cands: Vec<NodeId> = blocks[1..].iter().map(|&b| p.extent(b)[0]).collect();
        let (hits, probed) = p.with_parent_in(&g, &cands, &[blocks[1]]);
        assert_eq!(hits, vec![cands[1], cands[2]]);
        // a (1 parent), b1 and b2 (hit on their only parent), c (2 misses).
        assert_eq!(probed, 5);
        // Parents in {b2} ∪ {root}: a and c, each found on some edge.
        let (hits, _) = p.with_parent_in(&g, &cands, &[blocks[0], blocks[3]]);
        assert_eq!(hits, vec![cands[0], cands[3]]);
    }

    #[test]
    fn multiplicity_counts_track_supporting_edges() {
        let (g, mut p, blocks) = diamond();
        let merged = p.merge_group(&[blocks[2], blocks[3]]);
        let (_, count) = p.children(merged).next().unwrap();
        assert_eq!(count, 2, "two dedges support the merged→c iedge");
        let _ = g;
    }

    #[test]
    fn same_parent_set_respects_content_not_counts() {
        let (g, mut p, blocks) = diamond();
        // b1 and b2 both have exactly {a} as parent set.
        assert!(p.same_parent_set(blocks[2], blocks[3]));
        // c's parent set is {b1, b2} — different from b1's {a}.
        assert!(!p.same_parent_set(blocks[4], blocks[2]));
        let merged = p.merge_group(&[blocks[2], blocks[3]]);
        // After the merge, c has parent set {merged}.
        let parents: Vec<BlockId> = p.parents(blocks[4]).map(|(x, _)| x).collect();
        assert_eq!(parents, vec![merged]);
        let _ = g;
    }
}
