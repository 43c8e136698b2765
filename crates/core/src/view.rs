//! # `core::view` — frozen in-memory index views (DESIGN.md §11)
//!
//! An [`IndexSnapshot`] is a point-in-time, immutable image of a live
//! structural index, frozen in **O(blocks)**: the freeze walks the live
//! block table once and takes an `Arc` clone of each block's extent run
//! ([`crate::store::CowVec::share`]) — no node id is copied up front.
//! The writer keeps mutating the live index; its first mutation of a
//! block whose run a snapshot still shares clones exactly that run
//! (copy-on-write), leaving the snapshot's image untouched. The
//! cumulative clone count is exported as `snapshot_cow_clones` through
//! the obs layer, and the freeze itself as `snapshot_freeze_nanos`.
//!
//! The snapshot implements [`IndexQueryView`], so `xsi-query`'s
//! block-walk evaluator runs against a frozen view exactly as it does
//! against a live one — and because the snapshot owns its label strings
//! and `Arc`s (no borrows into the index or graph), it is `Send + Sync`:
//! reader threads can evaluate queries against it while the single
//! writer churns (see the `concurrent_readers` stress test in
//! `crates/tests`).
//!
//! Not to be confused with [`crate::snapshot`], which is *binary
//! persistence* — serializing an index to bytes for storage and
//! reload. A `view::IndexSnapshot` never leaves memory and shares
//! storage with the live index; a `snapshot` file is a standalone
//! byte-exact encoding. See DESIGN.md §11 for the naming rationale.
//!
//! Snapshots compare with `==` by *content* (start block, per-slot
//! label, extent, and iedge list): the conformance lab freezes a
//! replica index replayed to the same op prefix and asserts snapshot
//! equality — the oracle behind the `Freeze` scenario op.

use crate::akindex::AkIndex;
use crate::index::IndexQueryView;
use crate::oneindex::OneIndex;
use std::sync::Arc;
use xsi_graph::{Graph, NodeId};

/// One frozen block: owned label, `Arc`-shared extent run, raw iedge
/// successor ids. Equality is by content (`Arc<Vec<_>>` compares the
/// pointed-to vectors).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenBlock {
    /// The label name shared by the block's extent (owned: the snapshot
    /// outlives any borrow of the graph's label table).
    pub label: String,
    /// The extent run, shared with the live index at freeze time. The
    /// writer clones the run on its next mutation of this block, so
    /// this image never changes.
    pub extent: Arc<Vec<NodeId>>,
    /// Raw slot ids of iedge successors, in sorted order.
    pub isucc: Vec<u32>,
}

/// An immutable point-in-time image of one structural index, keyed by
/// the live index's raw slot ids so frozen block ids remain meaningful
/// across the [`IndexQueryView`] interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexSnapshot {
    /// [`crate::index::StructuralIndex::describe`] of the source index.
    family: String,
    /// Raw slot id of the block containing the graph root.
    start: u32,
    /// Precision horizon (`None` = 1-index, `Some(k)` = A(k)).
    precise: Option<usize>,
    /// Frozen blocks keyed by raw slot id; `None` for dead slots.
    blocks: Vec<Option<FrozenBlock>>,
    /// Number of live (frozen) blocks.
    block_count: usize,
}

impl IndexSnapshot {
    /// Freezes a (split/merge or propagate) 1-index. O(blocks): one
    /// `Arc` clone per extent run, no node ids copied.
    pub fn from_one_index(g: &Graph, idx: &OneIndex, family: String) -> IndexSnapshot {
        let p = idx.partition();
        let mut blocks: Vec<Option<FrozenBlock>> = Vec::new();
        let mut block_count = 0;
        for b in p.blocks() {
            let slot = b.raw() as usize;
            if blocks.len() <= slot {
                blocks.resize(slot + 1, None);
            }
            let frozen = FrozenBlock {
                label: g.labels().name(p.label(b)).to_string(),
                extent: p.share_extent(b),
                isucc: idx.isucc(b).map(|c| c.raw()).collect(),
            };
            *blocks
                .get_mut(slot)
                .expect("invariant: resized to slot + 1 just above") = Some(frozen);
            block_count += 1;
        }
        IndexSnapshot {
            family,
            start: idx.block_of(g.root()).raw(),
            precise: None,
            blocks,
            block_count,
        }
    }

    /// Freezes an A(k)-index's level-k layer (the query-bearing rank).
    /// O(level-k blocks), one `Arc` clone per extent run.
    pub fn from_ak_index(g: &Graph, idx: &AkIndex, family: String) -> IndexSnapshot {
        let mut blocks: Vec<Option<FrozenBlock>> = Vec::new();
        let mut block_count = 0;
        for b in idx.blocks_at(idx.k()) {
            let slot = b.raw() as usize;
            if blocks.len() <= slot {
                blocks.resize(slot + 1, None);
            }
            let frozen = FrozenBlock {
                label: g.labels().name(idx.label(b)).to_string(),
                extent: idx.share_extent(b),
                isucc: idx.isucc(b).map(|c| c.raw()).collect(),
            };
            *blocks
                .get_mut(slot)
                .expect("invariant: resized to slot + 1 just above") = Some(frozen);
            block_count += 1;
        }
        IndexSnapshot {
            family,
            start: idx.block_of(g.root()).raw(),
            precise: Some(idx.k()),
            blocks,
            block_count,
        }
    }

    /// *Derives* the block graph a class assignment induces on the data
    /// graph (`classes` is capacity-sized, one class id per live node):
    /// one block per class, an iedge wherever a data edge crosses
    /// classes, precise up to paths of length `horizon`. This is the one
    /// derived query view. It serves the simple BFS-repartition baseline
    /// (which maintains extents only, no iedges), whose freeze is
    /// therefore O(n + m), not O(blocks), with a CoW clone count of
    /// always 0, and one level of an A(k) chain
    /// ([`AkIndex::level_view`]).
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
        let mut labels: Vec<String> = Vec::new();
        let mut of = vec![u32::MAX; g.capacity()];
        for n in g.nodes() {
            let c = classes[n.index()]; // xsi-lint: allow(slice-index, classes is capacity-sized)
            let id = *dense.entry(c).or_insert_with(|| {
                extents.push(Vec::new());
                labels.push(g.label_name(n).to_string());
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
        let block_count = extents.len();
        let blocks = extents
            .into_iter()
            .zip(labels)
            .zip(isucc)
            .map(|((e, label), s)| {
                Some(FrozenBlock {
                    label,
                    extent: Arc::new(e),
                    isucc: s.into_iter().collect(),
                })
            })
            .collect();
        IndexSnapshot {
            family,
            start,
            precise: Some(horizon),
            blocks,
            block_count,
        }
    }

    /// [`crate::index::StructuralIndex::describe`] of the frozen index.
    pub fn family(&self) -> &str {
        &self.family
    }

    /// Number of frozen blocks.
    pub fn block_count(&self) -> usize {
        self.block_count
    }

    /// Raw slot ids of the frozen blocks, ascending.
    pub fn block_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_some())
            .map(|(i, _)| i as u32)
    }

    /// The frozen block at a raw slot id, if that slot was live at
    /// freeze time.
    pub fn block(&self, b: u32) -> Option<&FrozenBlock> {
        self.blocks.get(b as usize).and_then(Option::as_ref)
    }
}

impl crate::obs::mem::HeapUse for FrozenBlock {
    /// Label string, the (possibly shared) extent run, and the successor
    /// list. The extent `Arc` is charged here at full size — whether the
    /// live index still co-holds it is the sharing question the live
    /// side's `MemReport` answers; the snapshot always retains it.
    fn heap_use(&self) -> usize {
        self.label.capacity()
            + crate::obs::mem::arc_vec_heap(&self.extent) // xsi-lint: allow(store-discipline, read-only size probe of FrozenBlock's own field, not arena storage)
            + crate::obs::mem::vec_cap_heap(&self.isucc)
    }
}

impl crate::obs::mem::HeapUse for IndexSnapshot {
    /// Deep bytes retained by the snapshot — exported as the
    /// `snapshot_retained_bytes` gauge at freeze time.
    fn heap_use(&self) -> usize {
        self.family.capacity()
            + crate::obs::mem::vec_cap_heap(&self.blocks)
            + self
                .blocks
                .iter()
                .flatten()
                .map(crate::obs::mem::HeapUse::heap_use)
                .sum::<usize>()
    }
}

impl IndexQueryView for IndexSnapshot {
    fn start_block(&self) -> u32 {
        self.start
    }

    fn slot_bound(&self) -> usize {
        self.blocks.len()
    }

    fn for_each_isucc(&self, b: u32, f: &mut dyn FnMut(u32)) {
        let block = self
            .block(b)
            .expect("invariant: walker only visits live frozen block ids");
        for &c in &block.isucc {
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
        self.precise
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
        let snap = StructuralIndex::freeze(&idx, &g).unwrap();
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
        let _snap2 = StructuralIndex::freeze(&idx, &g).unwrap();
        assert_eq!(StructuralIndex::cow_clones(&idx), before);
        drop(snap);
    }

    /// A frozen view's answers never change while the writer churns.
    #[test]
    fn frozen_views_are_isolated_from_writer_churn() {
        let (mut g, ids) = host();
        let mut one = OneIndex::build(&g);
        let mut ak = AkIndex::build(&g, 2);
        let snap_one = StructuralIndex::freeze(&one, &g).unwrap();
        let snap_ak = StructuralIndex::freeze(&ak, &g).unwrap();
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
        let snap_a = StructuralIndex::freeze(&idx_a, &g).unwrap();
        let snap_b = StructuralIndex::freeze(&idx_b, &g).unwrap();
        assert_eq!(snap_a, snap_b);

        let mut g2 = g.clone();
        let mut idx_c = OneIndex::build(&g);
        g2.delete_edge(ids[&3], ids[&5]).unwrap();
        idx_c.notify_edge_deleted(&g2, ids[&3], ids[&5]);
        let snap_c = StructuralIndex::freeze(&idx_c, &g2).unwrap();
        assert_ne!(snap_a, snap_c);
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
            let snap = idx.freeze(&g).unwrap_or_else(|| {
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
