//! # `obs::mem` — deep heap accounting and the `mem-report` (DESIGN.md §13)
//!
//! The paper's central claim is that incrementally maintained indexes
//! stay *small*; this module makes "small" observable without allocator
//! hooks or unsafe code. [`HeapUse`] is a capacity-based deep-byte
//! estimate: every structure sums the heap its own fields *reserve*
//! (`Vec::capacity`, not `len`), plus documented per-entry estimates
//! for the node-based containers (`BTreeMap`/`BTreeSet`/`HashMap`)
//! whose real layout the standard library does not expose. The
//! estimates are deterministic functions of `len`/`capacity`, so an
//! independent walker recomputing them from the same fields must agree
//! *exactly* — that equality is a test oracle, not an approximation
//! bound.
//!
//! [`MemReport`] is the attribution side: one pass over an index's
//! block table splits the same total into categories the sizing
//! decisions need — owned vs `Arc`-shared extent bytes (a shared run is
//! counted once per `Arc`, on the index that references it), spilled
//! iedge-map bytes, side tables, scratch, slab shell, and bytes
//! retained in recycled (dead) slots — plus two distributions: a
//! power-of-two extent-length histogram and an inline-map occupancy
//! histogram (the datum the ROADMAP `INLINE_CAP` sweep needs).
//! `MemReport::total_bytes()` must equal the structure's `heap_use()`;
//! both index families assert that in tests.
//!
//! ## What is deliberately uncounted
//!
//! * allocator metadata and malloc bucket rounding;
//! * the `Graph` itself (it is not index storage);
//! * transient per-update structures (`SignatureMemo`, queue buffers)
//!   that do not survive an operation;
//! * stack-inline storage (an inline `IedgeMap` representation costs 0
//!   heap bytes by construction — that is the point of it).

use std::mem::size_of;

/// Deep heap bytes reserved by a structure, capacity-based. See the
/// module docs for the accounting contract.
pub trait HeapUse {
    /// Total heap bytes reachable from (and owned by) `self`, excluding
    /// `size_of::<Self>()` itself.
    fn heap_use(&self) -> usize;
}

/// Heap bytes reserved by a `Vec`'s buffer (capacity, not length).
#[inline]
pub fn vec_cap_heap<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Documented per-entry estimate for `BTreeMap`/`BTreeSet` nodes: key +
/// value payload plus a fixed per-entry share of node headers and edge
/// pointers. The standard library does not expose its B-tree layout, so
/// this is a *defined constant of the accounting contract*, not a
/// measurement — the walker oracle uses the same formula.
pub const BTREE_ENTRY_OVERHEAD: usize = 16;

/// Estimated heap bytes of a `BTreeMap<K, V>` with `len` entries.
#[inline]
pub fn btree_map_heap<K, V>(len: usize) -> usize {
    len * (size_of::<K>() + size_of::<V>() + BTREE_ENTRY_OVERHEAD)
}

/// Estimated heap bytes of a `BTreeSet<T>` with `len` entries.
#[inline]
pub fn btree_set_heap<T>(len: usize) -> usize {
    len * (size_of::<T>() + BTREE_ENTRY_OVERHEAD)
}

/// Estimated heap bytes of a `std::collections::HashMap<K, V>` table
/// with the given capacity: one `(K, V)` slot plus one control byte per
/// bucket (the hashbrown layout, capacity-based like everything else).
#[inline]
pub fn hash_map_heap<K, V>(capacity: usize) -> usize {
    capacity * (size_of::<(K, V)>() + 1)
}

/// Header bytes of any `Arc` allocation: the strong and weak counts.
pub const ARC_HEADER: usize = 2 * size_of::<usize>();

/// Header bytes of an `Arc<Vec<T>>` allocation: two reference counts
/// plus the inline `Vec` triple. The element buffer is accounted
/// separately from the vector's capacity.
pub const ARC_VEC_HEADER: usize = 5 * size_of::<usize>();

/// Estimated heap bytes of an `Arc<Vec<T>>`: header allocation plus the
/// element buffer.
#[inline]
pub fn arc_vec_heap<T>(v: &std::sync::Arc<Vec<T>>) -> usize {
    ARC_VEC_HEADER + v.capacity() * size_of::<T>()
}

/// Power-of-two buckets for extent lengths: bucket 0 holds `{0}`,
/// bucket `i` holds `[2^(i-1), 2^i)` — the same law as the metrics
/// registry's histograms, capped at the last bucket.
pub const EXTENT_BUCKETS: usize = 33;

/// Inline-map occupancy buckets: one per occupancy `0..=64`, wider than
/// any inline capacity the store uses, so the `xsi-mem-v1` schema does
/// not depend on it.
pub const OCCUPANCY_BUCKETS: usize = 65;

/// The bucket index for a value under the power-of-two law.
#[inline]
pub fn pow2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(EXTENT_BUCKETS - 1)
    }
}

/// A point-in-time deep-memory attribution of one index structure. All
/// byte categories are disjoint; [`MemReport::total_bytes`] is their
/// sum and must equal the structure's [`HeapUse::heap_use`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemReport {
    /// Live blocks scanned (all levels, for the A(k) refinement tree).
    pub blocks: u64,
    /// Extent-run bytes whose `Arc` is held only by the live index.
    pub extent_owned_bytes: u64,
    /// Extent-run bytes co-held by at least one frozen snapshot.
    /// Counted **once per `Arc`** — within one index every run belongs
    /// to exactly one block, so this sum never double counts.
    pub extent_shared_bytes: u64,
    /// Extent runs currently shared with a snapshot.
    pub shared_extents: u64,
    /// Extent runs owned solely by the live index.
    pub owned_extents: u64,
    /// Live iedge maps in the inline (zero-heap) representation.
    pub iedge_inline_maps: u64,
    /// Live iedge maps spilled to the sorted-map representation.
    pub iedge_spilled_maps: u64,
    /// Estimated heap bytes of the spilled maps.
    pub iedge_spilled_bytes: u64,
    /// Per-node side tables (assignment, position, mark) and small
    /// bookkeeping sets (orphans, level counts, tree-child sets).
    pub side_table_bytes: u64,
    /// Epoch-stamped scratch tables retained between operations.
    pub scratch_bytes: u64,
    /// The slot arena's shell: slot array capacity plus the free list.
    pub slab_bytes: u64,
    /// Heap retained inside dead (recycled) slots — extent capacity and
    /// map allocations kept for the slot's next tenant.
    pub dead_retained_bytes: u64,
    /// Anything else the structure owns (e.g. the simple baseline's
    /// extent hash map shell).
    pub other_bytes: u64,
    /// Power-of-two histogram of live extent lengths (extent-bearing
    /// blocks only; the A(k) tree's interior blocks are excluded).
    pub extent_len_hist: [u64; EXTENT_BUCKETS],
    /// Histogram of inline-map occupancies (entry count per live inline
    /// map) — the `INLINE_CAP` sizing datum.
    pub inline_occupancy_hist: [u64; OCCUPANCY_BUCKETS],
}

impl Default for MemReport {
    fn default() -> Self {
        MemReport {
            blocks: 0,
            extent_owned_bytes: 0,
            extent_shared_bytes: 0,
            shared_extents: 0,
            owned_extents: 0,
            iedge_inline_maps: 0,
            iedge_spilled_maps: 0,
            iedge_spilled_bytes: 0,
            side_table_bytes: 0,
            scratch_bytes: 0,
            slab_bytes: 0,
            dead_retained_bytes: 0,
            other_bytes: 0,
            extent_len_hist: [0; EXTENT_BUCKETS],
            inline_occupancy_hist: [0; OCCUPANCY_BUCKETS],
        }
    }
}

impl MemReport {
    /// A zeroed report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one live, extent-bearing block's run: length lands in
    /// the extent histogram, bytes in the owned or shared category.
    pub fn record_extent(&mut self, len: usize, heap_bytes: usize, shared: bool) {
        self.extent_len_hist[pow2_bucket(len as u64)] += 1;
        self.add_extent_bytes(heap_bytes, shared);
    }

    /// Attributes extent-run bytes without a histogram entry (interior
    /// refinement-tree blocks, whose extents are empty placeholders).
    pub fn add_extent_bytes(&mut self, heap_bytes: usize, shared: bool) {
        if shared {
            self.extent_shared_bytes += heap_bytes as u64;
            self.shared_extents += 1;
        } else {
            self.extent_owned_bytes += heap_bytes as u64;
            self.owned_extents += 1;
        }
    }

    /// Records one live inline iedge map's occupancy.
    pub fn record_inline_map(&mut self, occupancy: usize) {
        self.iedge_inline_maps += 1;
        self.inline_occupancy_hist[occupancy.min(OCCUPANCY_BUCKETS - 1)] += 1;
    }

    /// Records one live spilled iedge map and its estimated bytes.
    pub fn record_spilled_map(&mut self, heap_bytes: usize) {
        self.iedge_spilled_maps += 1;
        self.iedge_spilled_bytes += heap_bytes as u64;
    }

    /// Sharing ratio: shared extent bytes over all extent bytes, in
    /// `[0, 1]`; `0.0` when there are no extent bytes at all.
    pub fn sharing_ratio(&self) -> f64 {
        let total = self.extent_owned_bytes + self.extent_shared_bytes;
        if total == 0 {
            0.0
        } else {
            self.extent_shared_bytes as f64 / total as f64
        }
    }

    /// The sum of every byte category — the contract requires this to
    /// equal the structure's [`HeapUse::heap_use`].
    pub fn total_bytes(&self) -> u64 {
        self.extent_owned_bytes
            + self.extent_shared_bytes
            + self.iedge_spilled_bytes
            + self.side_table_bytes
            + self.scratch_bytes
            + self.slab_bytes
            + self.dead_retained_bytes
            + self.other_bytes
    }

    /// Merges another report (per-level or per-shard accumulation).
    pub fn merge(&mut self, other: &MemReport) {
        self.blocks += other.blocks;
        self.extent_owned_bytes += other.extent_owned_bytes;
        self.extent_shared_bytes += other.extent_shared_bytes;
        self.shared_extents += other.shared_extents;
        self.owned_extents += other.owned_extents;
        self.iedge_inline_maps += other.iedge_inline_maps;
        self.iedge_spilled_maps += other.iedge_spilled_maps;
        self.iedge_spilled_bytes += other.iedge_spilled_bytes;
        self.side_table_bytes += other.side_table_bytes;
        self.scratch_bytes += other.scratch_bytes;
        self.slab_bytes += other.slab_bytes;
        self.dead_retained_bytes += other.dead_retained_bytes;
        self.other_bytes += other.other_bytes;
        for i in 0..EXTENT_BUCKETS {
            self.extent_len_hist[i] += other.extent_len_hist[i];
        }
        for i in 0..OCCUPANCY_BUCKETS {
            self.inline_occupancy_hist[i] += other.inline_occupancy_hist[i];
        }
    }
}

// Blanket impls for the plain containers the indexes compose.

impl<T> HeapUse for Vec<T> {
    fn heap_use(&self) -> usize {
        vec_cap_heap(self)
    }
}

impl HeapUse for String {
    fn heap_use(&self) -> usize {
        self.capacity()
    }
}

impl<T> HeapUse for std::collections::BTreeSet<T> {
    fn heap_use(&self) -> usize {
        btree_set_heap::<T>(self.len())
    }
}

impl<K, V> HeapUse for std::collections::BTreeMap<K, V> {
    fn heap_use(&self) -> usize {
        btree_map_heap::<K, V>(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_buckets_follow_the_metrics_law() {
        assert_eq!(pow2_bucket(0), 0);
        assert_eq!(pow2_bucket(1), 1);
        assert_eq!(pow2_bucket(2), 2);
        assert_eq!(pow2_bucket(3), 2);
        assert_eq!(pow2_bucket(4), 3);
        assert_eq!(pow2_bucket(1 << 20), 21);
    }

    #[test]
    fn report_total_is_category_sum() {
        let mut r = MemReport::new();
        r.record_extent(4, 100, false);
        r.record_extent(8, 50, true);
        r.record_inline_map(3);
        r.record_spilled_map(200);
        r.side_table_bytes = 10;
        r.scratch_bytes = 20;
        r.slab_bytes = 30;
        r.dead_retained_bytes = 5;
        r.other_bytes = 7;
        assert_eq!(r.total_bytes(), 100 + 50 + 200 + 10 + 20 + 30 + 5 + 7);
        assert_eq!(r.shared_extents, 1);
        assert_eq!(r.owned_extents, 1);
        assert!((r.sharing_ratio() - 50.0 / 150.0).abs() < 1e-12);
        assert_eq!(r.extent_len_hist[pow2_bucket(4)], 1);
        assert_eq!(r.inline_occupancy_hist[3], 1);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = MemReport::new();
        a.record_extent(2, 16, false);
        let mut b = MemReport::new();
        b.record_extent(2, 16, true);
        b.record_inline_map(1);
        a.merge(&b);
        assert_eq!(a.extent_len_hist[pow2_bucket(2)], 2);
        assert_eq!(a.shared_extents, 1);
        assert_eq!(a.owned_extents, 1);
        assert_eq!(a.iedge_inline_maps, 1);
        assert_eq!(a.total_bytes(), 32);
    }

    #[test]
    fn container_impls_are_capacity_based() {
        let mut v: Vec<u64> = Vec::with_capacity(10);
        v.push(1);
        assert_eq!(v.heap_use(), 10 * 8);
        let s = String::with_capacity(7);
        assert_eq!(s.heap_use(), 7);
        let mut m: std::collections::BTreeMap<u32, u32> = Default::default();
        m.insert(1, 2);
        assert_eq!(m.heap_use(), 8 + BTREE_ENTRY_OVERHEAD);
    }
}
