//! # `core::view` — frozen in-memory index views (DESIGN.md §11)
//!
//! An [`IndexSnapshot`] is a point-in-time, immutable image of a live
//! structural index: a table of `Arc`-shared chunks of
//! [`FREEZE_CHUNK`] slots, each live slot holding a [`FrozenBlock`]
//! whose extent run is an `Arc` clone of the live run
//! ([`crate::store::CowVec::share`]) — no node id is copied. The writer
//! keeps mutating the live index; its first mutation of a block whose
//! run a snapshot still shares clones exactly that run (copy-on-write),
//! leaving the snapshot's image untouched. The cumulative clone count is
//! exported as `snapshot_cow_clones` through the obs layer, and the
//! freeze itself as `snapshot_freeze_nanos`.
//!
//! **Incremental freeze.** A freeze may be handed a *base*: an earlier
//! snapshot of the same live index instance. The live index stamps a
//! slot whenever its frozen image changes ([`crate::store::ChangeStamps`])
//! and every snapshot records the point it was frozen at, so the freeze
//! shares each base chunk with no newer stamp, copies the unchanged
//! blocks of the other chunks by `Arc` bumps, and rebuilds only the
//! stamped slots: O(changed chunks), not O(blocks). Without a usable
//! base — the first freeze, a base from another instance (a clone, a
//! rebuilt index, a restore) or from before a stamp wrap — the same
//! function rebuilds every slot. [`crate::UpdateEngine::freeze`] passes
//! each family's previous snapshot as the base for as long as a reader
//! still holds it.
//!
//! The snapshot implements [`IndexQueryView`], so `xsi-query`'s
//! block-walk evaluator runs against a frozen view exactly as it does
//! against a live one — and because the snapshot holds only `Arc`s (no
//! borrows into the index or graph), it is `Send + Sync`: reader threads
//! can evaluate queries against it while the single writer churns (see
//! the `concurrent_readers` stress test in `crates/tests`). Cloning a
//! snapshot is one `Arc` bump.
//!
//! Not to be confused with [`crate::snapshot`], which is *binary
//! persistence* — serializing an index to bytes for storage and
//! reload. A `view::IndexSnapshot` never leaves memory and shares
//! storage with the live index; a `snapshot` file is a standalone
//! byte-exact encoding. See DESIGN.md §11 for the naming rationale.
//!
//! Snapshots compare with `==` by *content* (start block, precision,
//! and per raw slot id the label, extent and iedge list); where a
//! snapshot was frozen from and what it shares are not part of it. The
//! conformance lab freezes a replica index replayed to the same op
//! prefix and asserts snapshot equality — the oracle behind the
//! `Freeze` scenario op.

use crate::akindex::AkIndex;
use crate::index::IndexQueryView;
use crate::obs::mem::{arc_vec_heap, vec_cap_heap, HeapUse, ARC_HEADER};
use crate::oneindex::OneIndex;
use crate::partition::Partition;
use crate::store::{ChangeStamps, FreezePoint, FREEZE_CHUNK};
use std::mem::size_of;
use std::sync::{Arc, Weak};
use xsi_graph::{Graph, NodeId};

/// One frozen block: the label name (shared with the graph's label
/// table), the `Arc`-shared extent run, and the raw iedge successor
/// ids. Every field is an `Arc`, so a block that did not change since
/// the base snapshot is carried over by reference-count bumps. Equality
/// is by content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenBlock {
    /// The label name shared by the block's extent.
    // xsi-lint: allow(mem-accounting, the name belongs to the graph's label table; the block holds a reference)
    pub label: Arc<str>,
    /// The extent run, shared with the live index at freeze time. The
    /// writer clones the run on its next mutation of this block, so
    /// this image never changes.
    pub extent: Arc<Vec<NodeId>>,
    /// Raw slot ids of iedge successors, in sorted order.
    pub isucc: Arc<[u32]>,
}

impl HeapUse for FrozenBlock {
    /// The (possibly shared) extent run at full size, plus the successor
    /// list. Whether the live index still co-holds the run is the
    /// sharing question the live side's `MemReport` answers; the
    /// snapshot always retains it. The label belongs to the graph's
    /// label table, and empty successor lists share one allocation per
    /// freeze: neither is charged.
    fn heap_use(&self) -> usize {
        // xsi-lint: allow(store-discipline, read-only size probe of FrozenBlock's own field, not arena storage)
        let extent = arc_vec_heap(&self.extent);
        let succ = if self.isucc.is_empty() {
            0
        } else {
            ARC_HEADER + self.isucc.len() * size_of::<u32>()
        };
        extent + succ
    }
}

/// [`FREEZE_CHUNK`] consecutive slots of a snapshot. Snapshots of one
/// index share every chunk none of whose slots changed between them.
#[derive(Debug, Default)]
struct Chunk {
    slots: [Option<FrozenBlock>; FREEZE_CHUNK],
    /// Live blocks among `slots`.
    blocks: usize,
    /// The chunk's retained bytes: its allocation plus its blocks'
    /// [`HeapUse`], summed once when the chunk is built.
    heap: usize,
}

impl Chunk {
    fn put(&mut self, j: usize, block: Option<FrozenBlock>) {
        if let Some(b) = &block {
            self.blocks += 1;
            self.heap += b.heap_use();
        }
        if let Some(slot) = self.slots.get_mut(j) {
            *slot = block;
        }
    }

    fn seal(mut self) -> Arc<Chunk> {
        self.heap += ARC_HEADER + size_of::<Chunk>();
        Arc::new(self)
    }
}

#[derive(Debug)]
struct Frozen {
    /// [`crate::index::StructuralIndex::describe`] of the source index.
    family: String,
    /// Raw slot id of the block containing the graph root.
    start: u32,
    /// Precision horizon (`None` = 1-index, `Some(k)` = A(k)).
    precise: Option<usize>,
    /// One past the largest raw slot id the source index could hand out.
    slot_bound: usize,
    /// The slot table, [`FREEZE_CHUNK`] slots per chunk.
    chunks: Vec<Arc<Chunk>>,
    /// Number of live (frozen) blocks.
    block_count: usize,
    /// Blocks this freeze built rather than carried over from its base.
    rebuilt: usize,
    /// Deep bytes retained, summed from the chunks at freeze time.
    heap: usize,
    /// The live instance and stamp sequence this was frozen at; `None`
    /// for derived views, which no freeze can build on.
    origin: Option<FreezePoint>,
}

/// An immutable point-in-time image of one structural index, keyed by
/// the live index's raw slot ids so frozen block ids remain meaningful
/// across the [`IndexQueryView`] interface.
#[derive(Clone, Debug)]
pub struct IndexSnapshot(Arc<Frozen>);

/// A handle to a snapshot that does not keep it alive: what the engine
/// holds to find the base of a family's next freeze.
#[derive(Clone, Debug, Default)]
pub(crate) struct WeakSnapshot(Weak<Frozen>);

impl WeakSnapshot {
    /// The snapshot, if some reader still holds it.
    pub(crate) fn upgrade(&self) -> Option<IndexSnapshot> {
        self.0.upgrade().map(IndexSnapshot)
    }
}

/// What the freeze reads from a live slot table: the stamps, and the
/// frozen image of one slot. Implemented by the 1-index partition and
/// the A(k) refinement tree.
trait FreezeSource {
    fn stamps(&self) -> &ChangeStamps;
    fn slot_bound(&self) -> usize;
    /// The frozen image of `slot`, or `None` when it holds no queryable
    /// block.
    fn freeze_slot(&self, g: &Graph, slot: u32, parts: &mut Parts) -> Option<FrozenBlock>;
}

/// Per-freeze scratch: the successor buffer and the shared empty list.
struct Parts {
    succ: Vec<u32>,
    empty: Arc<[u32]>,
}

impl Parts {
    fn fresh() -> Self {
        Parts {
            succ: Vec::new(),
            empty: Arc::from(Vec::new()),
        }
    }

    fn image(
        &mut self,
        label: Arc<str>,
        extent: Arc<Vec<NodeId>>,
        succ: impl Iterator<Item = u32>,
    ) -> FrozenBlock {
        self.succ.clear();
        self.succ.extend(succ);
        let isucc = if self.succ.is_empty() {
            Arc::clone(&self.empty)
        } else {
            Arc::from(self.succ.as_slice())
        };
        FrozenBlock {
            label,
            extent,
            isucc,
        }
    }
}

impl FreezeSource for Partition {
    fn stamps(&self) -> &ChangeStamps {
        Partition::stamps(self)
    }

    fn slot_bound(&self) -> usize {
        Partition::slot_bound(self)
    }

    fn freeze_slot(&self, g: &Graph, slot: u32, parts: &mut Parts) -> Option<FrozenBlock> {
        let b = self.live_at(slot)?;
        Some(parts.image(
            g.labels().shared_name(self.label(b)),
            self.share_extent(b),
            self.children(b).map(|(c, _)| c.raw()),
        ))
    }
}

impl FreezeSource for AkIndex {
    fn stamps(&self) -> &ChangeStamps {
        AkIndex::stamps(self)
    }

    fn slot_bound(&self) -> usize {
        AkIndex::slot_bound(self)
    }

    fn freeze_slot(&self, g: &Graph, slot: u32, parts: &mut Parts) -> Option<FrozenBlock> {
        let b = self.leaf_at(slot)?;
        Some(parts.image(
            g.labels().shared_name(self.label(b)),
            self.share_extent(b),
            self.isucc(b).map(|c| c.raw()),
        ))
    }
}

impl IndexSnapshot {
    /// Freezes a (split/merge or propagate) 1-index, building on `base`
    /// where it is a snapshot of the same instance.
    pub(crate) fn from_one_index(
        g: &Graph,
        idx: &OneIndex,
        family: String,
        base: Option<&IndexSnapshot>,
    ) -> IndexSnapshot {
        let start = idx.block_of(g.root()).raw();
        Self::freeze_from(g, idx.partition(), family, start, None, base)
    }

    /// Freezes an A(k)-index's level-k layer (the query-bearing rank),
    /// building on `base` where it is a snapshot of the same instance.
    pub(crate) fn from_ak_index(
        g: &Graph,
        idx: &AkIndex,
        family: String,
        base: Option<&IndexSnapshot>,
    ) -> IndexSnapshot {
        let start = idx.block_of(g.root()).raw();
        Self::freeze_from(g, idx, family, start, Some(idx.k()), base)
    }

    /// The one freeze: walks the slot table chunk by chunk, sharing a
    /// base chunk with no slot stamped since the base was frozen,
    /// carrying over the unstamped slots of the other chunks, and
    /// building the rest from the live index. With no usable base every
    /// slot is built.
    fn freeze_from(
        g: &Graph,
        src: &impl FreezeSource,
        family: String,
        start: u32,
        precise: Option<usize>,
        base: Option<&IndexSnapshot>,
    ) -> IndexSnapshot {
        let stamps = src.stamps();
        let base = base.and_then(|b| Some((&*b.0, stamps.since(b.0.origin?)?)));
        let bound = src.slot_bound();
        let mut parts = Parts::fresh();
        let mut chunks = Vec::with_capacity(bound.div_ceil(FREEZE_CHUNK));
        let mut rebuilt = 0;
        for (c, lo) in (0..bound).step_by(FREEZE_CHUNK).enumerate() {
            let hi = (lo + FREEZE_CHUNK).min(bound);
            let prev = base.and_then(|(b, since)| {
                let chunk = b.chunks.get(c)?;
                Some((chunk, since, b.slot_bound))
            });
            if let Some((chunk, since, old_bound)) = prev {
                if hi <= old_bound && !stamps.chunk_changed(c, since) {
                    chunks.push(Arc::clone(chunk));
                    continue;
                }
            }
            let mut chunk = Chunk::default();
            for s in lo..hi {
                let kept = prev.and_then(|(old, since, old_bound)| {
                    (s < old_bound && !stamps.slot_changed(s, since))
                        .then(|| old.slots.get(s - lo).cloned().flatten())
                });
                let block = kept.unwrap_or_else(|| {
                    let b = src.freeze_slot(g, s as u32, &mut parts);
                    rebuilt += usize::from(b.is_some());
                    b
                });
                chunk.put(s - lo, block);
            }
            chunks.push(chunk.seal());
        }
        let origin = Some(stamps.point());
        Self::assemble(family, start, precise, bound, chunks, rebuilt, origin)
    }

    fn assemble(
        family: String,
        start: u32,
        precise: Option<usize>,
        slot_bound: usize,
        chunks: Vec<Arc<Chunk>>,
        rebuilt: usize,
        origin: Option<FreezePoint>,
    ) -> IndexSnapshot {
        let block_count = chunks.iter().map(|c| c.blocks).sum();
        let heap = ARC_HEADER
            + size_of::<Frozen>()
            + family.capacity()
            + vec_cap_heap(&chunks)
            + chunks.iter().map(|c| c.heap).sum::<usize>();
        IndexSnapshot(Arc::new(Frozen {
            family,
            start,
            precise,
            slot_bound,
            chunks,
            block_count,
            rebuilt,
            heap,
            origin,
        }))
    }

    /// *Derives* the block graph a class assignment induces on the data
    /// graph (`classes` is capacity-sized, one class id per live node):
    /// one block per class, an iedge wherever a data edge crosses
    /// classes, precise up to paths of length `horizon`. This is the one
    /// derived query view. It serves the simple BFS-repartition baseline
    /// (which maintains extents only, no iedges), whose freeze is
    /// therefore O(n + m), not O(changed blocks), with a CoW clone count
    /// of always 0, and one level of an A(k) chain
    /// ([`AkIndex::level_view`]). A derived view is never a freeze base.
    pub(crate) fn from_assignment(
        g: &Graph,
        classes: &[u32],
        horizon: usize,
        family: String,
    ) -> IndexSnapshot {
        // Compress the (arbitrary) class ids of live nodes to dense ids,
        // assigned in node-iteration order — deterministic.
        let mut dense: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut extents: Vec<Vec<NodeId>> = Vec::new();
        let mut labels: Vec<Arc<str>> = Vec::new();
        let mut of = vec![u32::MAX; g.capacity()];
        for n in g.nodes() {
            let c = classes[n.index()]; // xsi-lint: allow(slice-index, classes is capacity-sized)
            let id = *dense.entry(c).or_insert_with(|| {
                extents.push(Vec::new());
                labels.push(g.labels().shared_name(g.label(n)));
                (extents.len() - 1) as u32
            });
            extents[id as usize].push(n); // xsi-lint: allow(slice-index, id was just minted from extents.len())
            of[n.index()] = id; // xsi-lint: allow(slice-index, of is capacity-sized)
        }
        let mut isucc: Vec<std::collections::BTreeSet<u32>> =
            vec![Default::default(); extents.len()];
        for (u, v, _) in g.edges() {
            isucc[of[u.index()] as usize].insert(of[v.index()]); // xsi-lint: allow(slice-index, every live endpoint was assigned a dense id in the node loop)
        }
        let start = of[g.root().index()]; // xsi-lint: allow(slice-index, of is capacity-sized and the root is live)
        let slot_bound = extents.len();
        let mut parts = Parts::fresh();
        let mut blocks = extents
            .into_iter()
            .zip(labels)
            .zip(isucc)
            .map(|((e, label), s)| parts.image(label, Arc::new(e), s.into_iter()));
        let mut chunks = Vec::with_capacity(slot_bound.div_ceil(FREEZE_CHUNK));
        for lo in (0..slot_bound).step_by(FREEZE_CHUNK) {
            let mut chunk = Chunk::default();
            for j in 0..(slot_bound - lo).min(FREEZE_CHUNK) {
                chunk.put(j, blocks.next());
            }
            chunks.push(chunk.seal());
        }
        // Every class is a block, and every block is built.
        let rebuilt = slot_bound;
        Self::assemble(
            family,
            start,
            Some(horizon),
            slot_bound,
            chunks,
            rebuilt,
            None,
        )
    }

    /// [`crate::index::StructuralIndex::describe`] of the frozen index.
    pub fn family(&self) -> &str {
        &self.0.family
    }

    /// Number of frozen blocks.
    pub fn block_count(&self) -> usize {
        self.0.block_count
    }

    /// Number of blocks this freeze built from the live index; the rest
    /// were carried over from its base snapshot. Equals
    /// [`IndexSnapshot::block_count`] for a freeze without a base.
    pub fn rebuilt_blocks(&self) -> usize {
        self.0.rebuilt
    }

    /// Raw slot ids of the frozen blocks, ascending.
    pub fn block_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            chunk
                .slots
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_some())
                .map(move |(j, _)| (c * FREEZE_CHUNK + j) as u32)
        })
    }

    /// The frozen block at a raw slot id, if that slot was live at
    /// freeze time.
    #[inline]
    pub fn block(&self, b: u32) -> Option<&FrozenBlock> {
        let b = b as usize;
        self.0
            .chunks
            .get(b / FREEZE_CHUNK)?
            .slots
            .get(b % FREEZE_CHUNK)?
            .as_ref()
    }

    /// A handle that finds this snapshot while a reader holds it.
    pub(crate) fn downgrade(&self) -> WeakSnapshot {
        WeakSnapshot(Arc::downgrade(&self.0))
    }
}

impl PartialEq for IndexSnapshot {
    /// By content and raw slot id. Chunks two snapshots share compare
    /// by pointer; a chunk only one table reaches must be empty.
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        a.family == b.family
            && a.start == b.start
            && a.precise == b.precise
            && a.block_count == b.block_count
            && (0..a.chunks.len().max(b.chunks.len())).all(|c| {
                match (a.chunks.get(c), b.chunks.get(c)) {
                    (Some(x), Some(y)) => Arc::ptr_eq(x, y) || x.slots == y.slots,
                    (Some(only), None) | (None, Some(only)) => only.blocks == 0,
                    (None, None) => true,
                }
            })
    }
}

impl Eq for IndexSnapshot {}

impl HeapUse for IndexSnapshot {
    /// Deep bytes retained by the snapshot — exported as the
    /// `snapshot_retained_bytes` gauge at freeze time. Summed per chunk
    /// when the snapshot was built, so this reads no block. A chunk
    /// shared with another snapshot is charged in full to each.
    fn heap_use(&self) -> usize {
        self.0.heap
    }
}

impl IndexQueryView for IndexSnapshot {
    fn start_block(&self) -> u32 {
        self.0.start
    }

    fn slot_bound(&self) -> usize {
        self.0.slot_bound
    }

    fn for_each_isucc(&self, b: u32, f: &mut dyn FnMut(u32)) {
        let block = self
            .block(b)
            .expect("invariant: walker only visits live frozen block ids");
        for &c in block.isucc.iter() {
            f(c);
        }
    }

    fn label_name(&self, b: u32) -> &str {
        &self
            .block(b)
            .expect("invariant: walker only visits live frozen block ids")
            .label
    }

    fn extent(&self, b: u32) -> &[NodeId] {
        &self
            .block(b)
            .expect("invariant: walker only visits live frozen block ids")
            // xsi-lint: allow(store-discipline, FrozenBlock's own field on an immutable snapshot — not the live arena the accessors guard)
            .extent
    }

    fn precise_up_to(&self) -> Option<usize> {
        self.0.precise
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::akindex::SimpleAkIndex;
    use crate::index::{PropagateOneIndex, StructuralIndex};
    use xsi_graph::{EdgeKind, GraphBuilder};

    /// `a2` and `a3` are bisimilar, so `b4` and `b5` share a block —
    /// deleting one of the `a→b` edges forces a split of that (frozen)
    /// extent.
    fn host() -> (Graph, std::collections::BTreeMap<u64, NodeId>) {
        GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "a"), (3, "a"), (4, "b"), (5, "b")])
            .edges(&[(1, 2), (1, 3), (2, 4), (3, 5)])
            .root_to(1)
            .build_with_ids()
    }

    /// Frozen views are plain owned data: sharable across threads.
    #[test]
    fn snapshots_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IndexSnapshot>();
        assert_send_sync::<FrozenBlock>();
    }

    /// The acceptance-criteria unit test: `freeze()` copies no extent
    /// node runs up front — the CoW clone count starts at 0 and stays 0
    /// until the writer actually mutates a frozen block.
    #[test]
    fn freeze_copies_nothing_up_front() {
        let (mut g, ids) = host();
        let mut idx = OneIndex::build(&g);
        let snap = StructuralIndex::freeze(&idx, &g, None).unwrap();
        assert_eq!(StructuralIndex::cow_clones(&idx), 0, "freeze is copy-free");
        assert_eq!(snap.block_count(), idx.block_count());

        // First post-freeze mutation of a frozen block clones its run.
        g.delete_edge(ids[&2], ids[&4]).unwrap();
        idx.notify_edge_deleted(&g, ids[&2], ids[&4]);
        assert!(
            StructuralIndex::cow_clones(&idx) > 0,
            "writer mutation of a shared run must clone it"
        );
        // A second freeze starts sharing again without copying more.
        let before = StructuralIndex::cow_clones(&idx);
        let _snap2 = StructuralIndex::freeze(&idx, &g, None).unwrap();
        assert_eq!(StructuralIndex::cow_clones(&idx), before);
        drop(snap);
    }

    /// A frozen view's answers never change while the writer churns.
    #[test]
    fn frozen_views_are_isolated_from_writer_churn() {
        let (mut g, ids) = host();
        let mut one = OneIndex::build(&g);
        let mut ak = AkIndex::build(&g, 2);
        let snap_one = StructuralIndex::freeze(&one, &g, None).unwrap();
        let snap_ak = StructuralIndex::freeze(&ak, &g, None).unwrap();
        let frozen_extent: Vec<NodeId> = snap_one.extent(snap_one.start_block()).to_vec();
        let b_blocks: Vec<u32> = snap_one
            .block_ids()
            .filter(|&b| snap_one.label_name(b) == "b")
            .collect();
        assert_eq!(b_blocks.len(), 1);
        let frozen_b: Vec<NodeId> = snap_one.extent(b_blocks[0]).to_vec();

        // Churn: delete and re-insert edges, add a node.
        g.delete_edge(ids[&2], ids[&4]).unwrap();
        one.notify_edge_deleted(&g, ids[&2], ids[&4]);
        ak.notify_edge_deleted(&g, ids[&2], ids[&4]);
        let n = g.add_node("b", None);
        one.on_node_added(&g, n);
        ak.on_node_added(&g, n);
        g.insert_edge(ids[&3], n, EdgeKind::Child).unwrap();
        one.notify_edge_inserted(&g, ids[&3], n);
        ak.notify_edge_inserted(&g, ids[&3], n);

        assert_eq!(snap_one.extent(snap_one.start_block()), &frozen_extent[..]);
        assert_eq!(snap_one.extent(b_blocks[0]), &frozen_b[..]);
        assert!(
            !snap_one.extent(b_blocks[0]).contains(&n),
            "post-freeze node must not appear in the frozen view"
        );
        assert_eq!(snap_ak.precise_up_to(), Some(2));
        for b in snap_ak.block_ids() {
            assert!(!snap_ak.extent(b).contains(&n));
        }
    }

    /// Snapshot equality is by content: two identically built indexes
    /// freeze to equal snapshots; diverging the writer breaks equality
    /// with a fresh freeze but not with the old one.
    #[test]
    fn snapshot_equality_is_by_content() {
        let (g, ids) = host();
        let idx_a = OneIndex::build(&g);
        let idx_b = OneIndex::build(&g);
        let snap_a = StructuralIndex::freeze(&idx_a, &g, None).unwrap();
        let snap_b = StructuralIndex::freeze(&idx_b, &g, None).unwrap();
        assert_eq!(snap_a, snap_b);

        let mut g2 = g.clone();
        let mut idx_c = OneIndex::build(&g);
        g2.delete_edge(ids[&3], ids[&5]).unwrap();
        idx_c.notify_edge_deleted(&g2, ids[&3], ids[&5]);
        let snap_c = StructuralIndex::freeze(&idx_c, &g2, None).unwrap();
        assert_ne!(snap_a, snap_c);
    }

    /// A freeze on a base shares the clean chunks, rebuilds only the
    /// stamped blocks, and equals a full freeze.
    #[test]
    fn a_freeze_on_a_base_rebuilds_only_changed_blocks() {
        let (mut g, ids) = host();
        let mut idx = OneIndex::build(&g);
        let base = StructuralIndex::freeze(&idx, &g, None).unwrap();
        assert_eq!(base.rebuilt_blocks(), base.block_count());
        let same = StructuralIndex::freeze(&idx, &g, Some(&base)).unwrap();
        assert_eq!(same.rebuilt_blocks(), 0, "nothing changed");
        assert!(Arc::ptr_eq(&same.0.chunks[0], &base.0.chunks[0]));

        // Splits the b block; the root block keeps its extent and
        // successors.
        g.delete_edge(ids[&2], ids[&4]).unwrap();
        idx.notify_edge_deleted(&g, ids[&2], ids[&4]);
        let next = StructuralIndex::freeze(&idx, &g, Some(&base)).unwrap();
        assert_eq!(next, StructuralIndex::freeze(&idx, &g, None).unwrap());
        assert_eq!(next.block_count(), 5);
        let rebuilt = next.rebuilt_blocks();
        assert!(
            (2..5).contains(&rebuilt),
            "both b blocks, not all: {rebuilt}"
        );
        let root = next.start_block();
        assert!(Arc::ptr_eq(
            &next.block(root).unwrap().isucc,
            &base.block(root).unwrap().isucc
        ));
    }

    /// A base frozen before the stamp sequence wrapped is never read;
    /// after the wrap, freezes build on post-wrap bases again.
    #[test]
    fn a_base_from_before_the_stamp_wrap_is_ignored() {
        let (mut g, ids) = host();
        let mut idx = OneIndex::build(&g);
        idx.p.stamps_mut().set_seq(u32::MAX - 1);
        let before = StructuralIndex::freeze(&idx, &g, None).unwrap();
        g.delete_edge(ids[&2], ids[&4]).unwrap();
        idx.notify_edge_deleted(&g, ids[&2], ids[&4]);
        let across = StructuralIndex::freeze(&idx, &g, Some(&before)).unwrap();
        assert_eq!(across.rebuilt_blocks(), across.block_count());
        assert_eq!(across, StructuralIndex::freeze(&idx, &g, None).unwrap());

        g.insert_edge(ids[&2], ids[&4], EdgeKind::Child).unwrap();
        idx.notify_edge_inserted(&g, ids[&2], ids[&4]);
        let after = StructuralIndex::freeze(&idx, &g, Some(&across)).unwrap();
        assert!(after.rebuilt_blocks() < after.block_count());
        assert_eq!(after, StructuralIndex::freeze(&idx, &g, None).unwrap());
    }

    /// The retained bytes summed per chunk at freeze time equal a walk
    /// over every chunk and block.
    #[test]
    fn retained_bytes_sum_the_chunks_and_blocks() {
        let (g, _) = host();
        for idx in [
            Box::new(OneIndex::build(&g)) as Box<dyn StructuralIndex>,
            Box::new(AkIndex::build(&g, 2)),
            Box::new(SimpleAkIndex::build(&g, 2)),
        ] {
            let snap = idx.freeze(&g, None).unwrap();
            let f = &*snap.0;
            let chunks: usize = f
                .chunks
                .iter()
                .map(|c| {
                    let blocks: usize = c.slots.iter().flatten().map(HeapUse::heap_use).sum();
                    ARC_HEADER + size_of::<Chunk>() + blocks
                })
                .sum();
            let walk = ARC_HEADER
                + size_of::<Frozen>()
                + f.family.capacity()
                + f.chunks.capacity() * size_of::<Arc<Chunk>>()
                + chunks;
            assert_eq!(snap.heap_use(), walk, "{}", idx.describe());
        }
    }

    /// All four families freeze; the propagate wrapper and the simple
    /// baseline carry their own family strings and precision horizons.
    #[test]
    fn all_four_families_freeze() {
        let (g, _) = host();
        let indexes: Vec<Box<dyn StructuralIndex>> = vec![
            Box::new(OneIndex::build(&g)),
            Box::new(PropagateOneIndex::build(&g)),
            Box::new(AkIndex::build(&g, 2)),
            Box::new(SimpleAkIndex::build(&g, 2)),
        ];
        for idx in &indexes {
            let snap = idx.freeze(&g, None).unwrap_or_else(|| {
                panic!("{} must support freeze", idx.describe());
            });
            assert_eq!(snap.family(), idx.describe());
            assert!(snap.block_count() > 0);
            assert_eq!(
                snap.label_name(snap.start_block()),
                "ROOT",
                "{}",
                idx.describe()
            );
        }
    }
}
