//! Adaptive iedge-multiplicity maps: inline sorted array for the
//! common low-degree case, spilling to a `BTreeMap` above
//! [`INLINE_CAP`] entries.
//!
//! A block's `parents`/`children` maps hold one `(neighbor block,
//! dedge count)` entry per distinct neighbor. In XML block graphs the
//! degree distribution is sharply skewed toward small: almost every
//! block has a handful of neighbor blocks, and the maintenance loops
//! hammer those maps with point increments/decrements. The inline
//! representation keeps the entries in two parallel fixed arrays
//! (sorted by key, binary-searched), so the hot case is a few
//! comparisons inside one or two cache lines with no pointer chasing —
//! and iteration is sorted in *both* representations, which removes
//! hash-iteration order from the bug surface entirely (the PR 2/PR 4
//! incident class).

use super::slot::SlotKey;
use std::collections::BTreeMap;

/// Entries held inline before spilling. Chosen to cover the bulk of
/// the degree distribution while keeping the struct within a few cache
/// lines; see DESIGN.md §10 for the measurement notes and
/// EXPERIMENTS.md for the 8/16/32 sweep that confirmed the default.
///
/// Overridable at *compile time* via the `XSI_INLINE_CAP` environment
/// variable (`option_env!`), clamped to `1..=64` — the upper bound
/// keeps `len: u8` honest and matches the inline-occupancy histogram's
/// bucket range. Invalid values fall back to the default of 8.
pub const INLINE_CAP: usize = parse_inline_cap(option_env!("XSI_INLINE_CAP"));

/// Const-parses the `XSI_INLINE_CAP` override; default 8, clamp 1..=64.
const fn parse_inline_cap(env: Option<&str>) -> usize {
    let Some(s) = env else { return 8 };
    let bytes = s.as_bytes();
    if bytes.is_empty() {
        return 8;
    }
    let mut v: usize = 0;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b < b'0' || b > b'9' {
            return 8;
        }
        v = v * 10 + (b - b'0') as usize;
        if v > 64 {
            return 64;
        }
        i += 1;
    }
    if v == 0 {
        1
    } else {
        v
    }
}

/// Which representation a map currently uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IedgeRepr {
    /// Sorted parallel arrays, ≤ [`INLINE_CAP`] entries.
    Inline,
    /// Sorted map, > [`INLINE_CAP`] entries (sticky until `clear`).
    Spilled,
}

#[derive(Clone, Debug)]
enum Repr<K: SlotKey> {
    Inline {
        len: u8,
        keys: [K; INLINE_CAP],
        counts: [u32; INLINE_CAP],
    },
    Spilled(BTreeMap<K, u32>),
}

/// A count-valued map keyed by block handles, with an adaptive
/// representation. Zero counts are never stored: `dec` removes the
/// entry when it reaches zero, mirroring the old `HashMap` call sites.
#[derive(Clone, Debug)]
pub struct IedgeMap<K: SlotKey> {
    repr: Repr<K>,
}

impl<K: SlotKey> Default for IedgeMap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: SlotKey> IedgeMap<K> {
    /// An empty map in the inline representation.
    pub fn new() -> Self {
        IedgeMap {
            repr: Repr::Inline {
                len: 0,
                keys: [K::dangling(); INLINE_CAP],
                counts: [0; INLINE_CAP],
            },
        }
    }

    /// Number of entries (distinct neighbor blocks).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spilled(m) => m.len(),
        }
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current representation.
    pub fn repr(&self) -> IedgeRepr {
        match &self.repr {
            Repr::Inline { .. } => IedgeRepr::Inline,
            Repr::Spilled(_) => IedgeRepr::Spilled,
        }
    }

    /// `Some(entries)` while the map is inline (0..=[`INLINE_CAP`]),
    /// `None` once spilled — feeds the mem-report's inline-occupancy
    /// histogram, which is what the INLINE_CAP sweep reads.
    pub fn inline_occupancy(&self) -> Option<usize> {
        match &self.repr {
            Repr::Inline { len, .. } => Some(*len as usize),
            Repr::Spilled(_) => None,
        }
    }

    /// The count for `k`, or `None` if absent.
    pub fn get(&self, k: K) -> Option<u32> {
        match &self.repr {
            Repr::Inline { len, keys, counts } => {
                keys[..*len as usize] // xsi-lint: allow(slice-index, len is at most INLINE_CAP)
                    .binary_search(&k)
                    .ok()
                    // xsi-lint: allow(slice-index, i is a binary_search hit within len)
                    .map(|i| counts[i])
            }
            Repr::Spilled(m) => m.get(&k).copied(),
        }
    }

    /// Does the map hold an entry for `k`?
    pub fn contains_key(&self, k: K) -> bool {
        self.get(k).is_some()
    }

    /// Adds `delta` to `k`'s count (inserting at 0), returning the new
    /// count. Spills to the sorted-map representation when the inline
    /// capacity is exceeded.
    pub fn add(&mut self, k: K, delta: u32) -> u32 {
        match &mut self.repr {
            Repr::Inline { len, keys, counts } => {
                let n = *len as usize;
                // xsi-lint: allow(slice-index, n = len is at most INLINE_CAP)
                match keys[..n].binary_search(&k) {
                    Ok(i) => {
                        counts[i] += delta; // xsi-lint: allow(slice-index, i is a binary_search hit within n)
                        counts[i] // xsi-lint: allow(slice-index, i is a binary_search hit within n)
                    }
                    Err(i) if n < INLINE_CAP => {
                        keys.copy_within(i..n, i + 1);
                        counts.copy_within(i..n, i + 1);
                        keys[i] = k; // xsi-lint: allow(slice-index, insertion point i is at most n, n < INLINE_CAP)
                        counts[i] = delta; // xsi-lint: allow(slice-index, insertion point i is at most n, n < INLINE_CAP)
                        *len += 1;
                        delta
                    }
                    Err(_) => {
                        self.spill();
                        self.add(k, delta)
                    }
                }
            }
            Repr::Spilled(m) => {
                let c = m.entry(k).or_insert(0);
                *c += delta;
                *c
            }
        }
    }

    /// Subtracts `delta` from `k`'s count, removing the entry when it
    /// reaches zero. Returns the new count.
    ///
    /// # Panics
    /// Debug-asserts the entry exists with count ≥ `delta` (count
    /// underflow is a maintenance-invariant violation).
    pub fn sub(&mut self, k: K, delta: u32) -> u32 {
        match &mut self.repr {
            Repr::Inline { len, keys, counts } => {
                let n = *len as usize;
                // xsi-lint: allow(slice-index, n = len is at most INLINE_CAP)
                let i = match keys[..n].binary_search(&k) {
                    Ok(i) => i,
                    Err(_) => {
                        debug_assert!(false, "iedge count underflow: missing entry {k:?}");
                        return 0;
                    }
                };
                debug_assert!(counts[i] >= delta, "iedge count underflow for {k:?}"); // xsi-lint: allow(slice-index, i is a binary_search hit within n)
                counts[i] = counts[i].saturating_sub(delta); // xsi-lint: allow(slice-index, i is a binary_search hit within n)
                                                             // xsi-lint: allow(slice-index, i is a binary_search hit within n)
                if counts[i] == 0 {
                    keys.copy_within(i + 1..n, i);
                    counts.copy_within(i + 1..n, i);
                    *len -= 1;
                    keys[*len as usize] = K::dangling(); // xsi-lint: allow(slice-index, len was just decremented below INLINE_CAP)
                    0
                } else {
                    counts[i] // xsi-lint: allow(slice-index, i is a binary_search hit within n)
                }
            }
            Repr::Spilled(m) => {
                let Some(c) = m.get_mut(&k) else {
                    debug_assert!(false, "iedge count underflow: missing entry {k:?}");
                    return 0;
                };
                debug_assert!(*c >= delta, "iedge count underflow for {k:?}");
                *c = c.saturating_sub(delta);
                if *c == 0 {
                    m.remove(&k);
                    0
                } else {
                    *c
                }
            }
        }
    }

    /// Sets `k`'s count to `v` (which must be > 0), returning the
    /// previous count if any.
    pub fn insert(&mut self, k: K, v: u32) -> Option<u32> {
        debug_assert!(v > 0, "zero counts are never stored");
        match &mut self.repr {
            Repr::Inline { len, keys, counts } => {
                let n = *len as usize;
                // xsi-lint: allow(slice-index, n = len is at most INLINE_CAP)
                match keys[..n].binary_search(&k) {
                    Ok(i) => Some(std::mem::replace(&mut counts[i], v)), // xsi-lint: allow(slice-index, i is a binary_search hit within n)
                    Err(i) if n < INLINE_CAP => {
                        keys.copy_within(i..n, i + 1);
                        counts.copy_within(i..n, i + 1);
                        keys[i] = k; // xsi-lint: allow(slice-index, insertion point i is at most n, n < INLINE_CAP)
                        counts[i] = v; // xsi-lint: allow(slice-index, insertion point i is at most n, n < INLINE_CAP)
                        *len += 1;
                        None
                    }
                    Err(_) => {
                        self.spill();
                        self.insert(k, v)
                    }
                }
            }
            Repr::Spilled(m) => m.insert(k, v),
        }
    }

    /// Removes `k`'s entry, returning its count if present.
    pub fn remove(&mut self, k: K) -> Option<u32> {
        match &mut self.repr {
            Repr::Inline { len, keys, counts } => {
                let n = *len as usize;
                let i = keys[..n].binary_search(&k).ok()?; // xsi-lint: allow(slice-index, n = len is at most INLINE_CAP)
                let c = counts[i]; // xsi-lint: allow(slice-index, i is a binary_search hit within n)
                keys.copy_within(i + 1..n, i);
                counts.copy_within(i + 1..n, i);
                *len -= 1;
                keys[*len as usize] = K::dangling(); // xsi-lint: allow(slice-index, len was just decremented below INLINE_CAP)
                Some(c)
            }
            Repr::Spilled(m) => m.remove(&k),
        }
    }

    /// Empties the map and returns it to the inline representation
    /// (the cumulative spill count is retained).
    pub fn clear(&mut self) {
        self.repr = Repr::Inline {
            len: 0,
            keys: [K::dangling(); INLINE_CAP],
            counts: [0; INLINE_CAP],
        };
    }

    /// Entries in ascending key order — in both representations.
    pub fn iter(&self) -> IedgeIter<'_, K> {
        match &self.repr {
            Repr::Inline { len, keys, counts } => IedgeIter::Inline {
                keys: &keys[..*len as usize], // xsi-lint: allow(slice-index, len is at most INLINE_CAP)
                counts: &counts[..*len as usize], // xsi-lint: allow(slice-index, len is at most INLINE_CAP)
                i: 0,
            },
            Repr::Spilled(m) => IedgeIter::Spilled(m.iter()),
        }
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Drains every entry (ascending key order), leaving the map empty
    /// and inline.
    pub fn drain_sorted(&mut self) -> Vec<(K, u32)> {
        let out: Vec<(K, u32)> = self.iter().collect();
        self.clear();
        out
    }

    fn spill(&mut self) {
        if let Repr::Inline { len, keys, counts } = &self.repr {
            let m: BTreeMap<K, u32> = keys[..*len as usize] // xsi-lint: allow(slice-index, len is at most INLINE_CAP)
                .iter()
                .copied()
                .zip(counts[..*len as usize].iter().copied()) // xsi-lint: allow(slice-index, len is at most INLINE_CAP)
                .collect();
            self.repr = Repr::Spilled(m);
        }
    }
}

impl<K: SlotKey> crate::obs::mem::HeapUse for IedgeMap<K> {
    /// Inline maps own no heap at all (the arrays live in the struct);
    /// spilled maps are charged per entry at the documented `BTreeMap`
    /// estimate.
    fn heap_use(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Spilled(m) => crate::obs::mem::btree_map_heap::<K, u32>(m.len()),
        }
    }
}

/// Sorted entry iterator over either representation.
pub enum IedgeIter<'a, K: SlotKey> {
    /// Inline: parallel slices.
    Inline {
        /// Sorted keys.
        keys: &'a [K],
        /// Counts parallel to `keys`.
        counts: &'a [u32],
        /// Cursor.
        i: usize,
    },
    /// Spilled: the underlying sorted-map iterator.
    Spilled(std::collections::btree_map::Iter<'a, K, u32>),
}

impl<K: SlotKey> Iterator for IedgeIter<'_, K> {
    type Item = (K, u32);
    fn next(&mut self) -> Option<(K, u32)> {
        match self {
            IedgeIter::Inline { keys, counts, i } => {
                let k = *keys.get(*i)?;
                let c = counts[*i]; // xsi-lint: allow(slice-index, counts is parallel to keys and the keys get succeeded)
                *i += 1;
                Some((k, c))
            }
            IedgeIter::Spilled(it) => it.next().map(|(k, c)| (*k, *c)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    struct Key(u32);
    impl SlotKey for Key {
        fn from_raw_parts(idx: u32, _gen: u32) -> Self {
            Key(idx)
        }
        fn idx(self) -> u32 {
            self.0
        }
        fn gen(self) -> u32 {
            0
        }
    }

    #[test]
    fn add_sub_roundtrip_inline() {
        let mut m: IedgeMap<Key> = IedgeMap::new();
        assert_eq!(m.add(Key(3), 2), 2);
        assert_eq!(m.add(Key(1), 1), 1);
        assert_eq!(m.add(Key(3), 1), 3);
        assert_eq!(m.get(Key(3)), Some(3));
        assert_eq!(m.sub(Key(3), 2), 1);
        assert_eq!(m.sub(Key(3), 1), 0);
        assert_eq!(m.get(Key(3)), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.repr(), IedgeRepr::Inline);
    }

    #[test]
    fn iteration_is_sorted_in_both_representations() {
        let mut m: IedgeMap<Key> = IedgeMap::new();
        for k in [9u32, 2, 7, 4, 0, 5, 1, 8] {
            m.add(Key(k), k + 1);
        }
        assert_eq!(m.repr(), IedgeRepr::Inline);
        let inline_order: Vec<u32> = m.keys().map(|k| k.0).collect();
        assert_eq!(inline_order, vec![0, 1, 2, 4, 5, 7, 8, 9]);

        m.add(Key(3), 10); // ninth distinct key: spills
        assert_eq!(m.repr(), IedgeRepr::Spilled);
        let spilled_order: Vec<u32> = m.keys().map(|k| k.0).collect();
        assert_eq!(spilled_order, vec![0, 1, 2, 3, 4, 5, 7, 8, 9]);
        // Entries survive the spill with their counts.
        for k in [9u32, 2, 7, 4, 0, 5, 1, 8] {
            assert_eq!(m.get(Key(k)), Some(k + 1));
        }
        assert_eq!(m.get(Key(3)), Some(10));
    }

    #[test]
    fn clear_returns_to_inline() {
        let mut m: IedgeMap<Key> = IedgeMap::new();
        for k in 0..=INLINE_CAP as u32 {
            m.add(Key(k), 1);
        }
        assert_eq!(m.repr(), IedgeRepr::Spilled);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.repr(), IedgeRepr::Inline);
    }

    #[test]
    fn insert_and_remove_match_map_semantics() {
        let mut m: IedgeMap<Key> = IedgeMap::new();
        assert_eq!(m.insert(Key(5), 4), None);
        assert_eq!(m.insert(Key(5), 9), Some(4));
        assert_eq!(m.remove(Key(5)), Some(9));
        assert_eq!(m.remove(Key(5)), None);
    }

    #[test]
    fn drain_sorted_empties() {
        let mut m: IedgeMap<Key> = IedgeMap::new();
        for k in [5u32, 1, 3] {
            m.add(Key(k), k);
        }
        let drained = m.drain_sorted();
        assert_eq!(drained, vec![(Key(1), 1), (Key(3), 3), (Key(5), 5)]);
        assert!(m.is_empty());
    }
}
