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
//!
//! Every map also carries a **key-set signature** ([`IedgeMap::key_sig`]):
//! the wrapping sum of [`key_hash`] over its keys, updated on every key
//! insertion and removal in both representations. Two maps with
//! different signatures hold different key sets, so the merge phase's
//! parent-set comparisons reject most non-twins in O(1); equal
//! signatures are always confirmed by [`IedgeMap::same_keys`]'s exact
//! comparison. The signature sits in the inline variant's padding, so
//! it costs no space (DESIGN.md §10.2).

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

/// The fixed hash behind the key-set signature: a SplitMix64 finalizer
/// over the key's (slot, generation), folded to 32 bits. It depends on
/// nothing but the key (no per-process seed), so a signature is the
/// same in every run, and a recycled slot's new tenant hashes apart
/// from its stale handle.
#[inline]
pub fn key_hash<K: SlotKey>(k: K) -> u32 {
    let mut z = (((k.idx() as u64) << 32) | k.gen() as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 32) as u32
}

/// The signature of a key set, recomputed from scratch: what
/// [`IedgeMap::key_sig`] must equal for the map's `keys()`.
pub(crate) fn key_set_sig<K: SlotKey>(keys: impl IntoIterator<Item = K>) -> u32 {
    keys.into_iter()
        .fold(0u32, |sig, k| sig.wrapping_add(key_hash(k)))
}

// Both variants carry the signature: a field beside the enum would
// grow the map by 8 B, while inside the inline variant it fills the
// padding after `len`.
#[derive(Clone, Debug)]
enum Repr<K: SlotKey> {
    Inline {
        len: u8,
        sig: u32,
        keys: [K; INLINE_CAP],
        counts: [u32; INLINE_CAP],
    },
    Spilled {
        map: BTreeMap<K, u32>,
        sig: u32,
    },
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
                sig: 0,
                keys: [K::dangling(); INLINE_CAP],
                counts: [0; INLINE_CAP],
            },
        }
    }

    /// Number of entries (distinct neighbor blocks).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spilled { map, .. } => map.len(),
        }
    }

    /// The key-set signature: the wrapping sum of [`key_hash`] over the
    /// keys. Equal key sets have equal signatures; the converse holds
    /// only with high probability, so use it to reject, never to accept.
    #[inline]
    pub fn key_sig(&self) -> u32 {
        match &self.repr {
            Repr::Inline { sig, .. } | Repr::Spilled { sig, .. } => *sig,
        }
    }

    /// Whether both maps hold exactly the same key set (counts are
    /// ignored). Rejects on length or signature in O(1), then confirms
    /// with one linear pass over the sorted keys.
    pub fn same_keys(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.key_sig() == other.key_sig()
            && self.keys().eq(other.keys())
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current representation.
    pub fn repr(&self) -> IedgeRepr {
        match &self.repr {
            Repr::Inline { .. } => IedgeRepr::Inline,
            Repr::Spilled { .. } => IedgeRepr::Spilled,
        }
    }

    /// `Some(entries)` while the map is inline (0..=[`INLINE_CAP`]),
    /// `None` once spilled — feeds the mem-report's inline-occupancy
    /// histogram, which is what the INLINE_CAP sweep reads.
    pub fn inline_occupancy(&self) -> Option<usize> {
        match &self.repr {
            Repr::Inline { len, .. } => Some(*len as usize),
            Repr::Spilled { .. } => None,
        }
    }

    /// The count for `k`, or `None` if absent.
    pub fn get(&self, k: K) -> Option<u32> {
        match &self.repr {
            Repr::Inline {
                len, keys, counts, ..
            } => {
                keys[..*len as usize] // xsi-lint: allow(slice-index, len is at most INLINE_CAP)
                    .binary_search(&k)
                    .ok()
                    // xsi-lint: allow(slice-index, i is a binary_search hit within len)
                    .map(|i| counts[i])
            }
            Repr::Spilled { map, .. } => map.get(&k).copied(),
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
            Repr::Inline {
                len,
                sig,
                keys,
                counts,
            } => {
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
                        *sig = sig.wrapping_add(key_hash(k));
                        delta
                    }
                    Err(_) => {
                        self.spill();
                        self.add(k, delta)
                    }
                }
            }
            Repr::Spilled { map, sig } => {
                let c = map.entry(k).or_insert(0);
                if *c == 0 {
                    // Zero counts are never stored: the key is new.
                    *sig = sig.wrapping_add(key_hash(k));
                }
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
            Repr::Inline {
                len,
                sig,
                keys,
                counts,
            } => {
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
                    *sig = sig.wrapping_sub(key_hash(k));
                    0
                } else {
                    counts[i] // xsi-lint: allow(slice-index, i is a binary_search hit within n)
                }
            }
            Repr::Spilled { map, sig } => {
                let Some(c) = map.get_mut(&k) else {
                    debug_assert!(false, "iedge count underflow: missing entry {k:?}");
                    return 0;
                };
                debug_assert!(*c >= delta, "iedge count underflow for {k:?}");
                *c = c.saturating_sub(delta);
                if *c == 0 {
                    map.remove(&k);
                    *sig = sig.wrapping_sub(key_hash(k));
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
            Repr::Inline {
                len,
                sig,
                keys,
                counts,
            } => {
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
                        *sig = sig.wrapping_add(key_hash(k));
                        None
                    }
                    Err(_) => {
                        self.spill();
                        self.insert(k, v)
                    }
                }
            }
            Repr::Spilled { map, sig } => {
                let prev = map.insert(k, v);
                if prev.is_none() {
                    *sig = sig.wrapping_add(key_hash(k));
                }
                prev
            }
        }
    }

    /// Removes `k`'s entry, returning its count if present.
    pub fn remove(&mut self, k: K) -> Option<u32> {
        let (sig, c) = match &mut self.repr {
            Repr::Inline {
                len,
                sig,
                keys,
                counts,
            } => {
                let n = *len as usize;
                let i = keys[..n].binary_search(&k).ok()?; // xsi-lint: allow(slice-index, n = len is at most INLINE_CAP)
                let c = counts[i]; // xsi-lint: allow(slice-index, i is a binary_search hit within n)
                keys.copy_within(i + 1..n, i);
                counts.copy_within(i + 1..n, i);
                *len -= 1;
                keys[*len as usize] = K::dangling(); // xsi-lint: allow(slice-index, len was just decremented below INLINE_CAP)
                (sig, c)
            }
            Repr::Spilled { map, sig } => (sig, map.remove(&k)?),
        };
        *sig = sig.wrapping_sub(key_hash(k));
        Some(c)
    }

    /// Empties the map and returns it to the inline representation
    /// (signature 0).
    pub fn clear(&mut self) {
        self.repr = Repr::Inline {
            len: 0,
            sig: 0,
            keys: [K::dangling(); INLINE_CAP],
            counts: [0; INLINE_CAP],
        };
    }

    /// Entries in ascending key order — in both representations.
    pub fn iter(&self) -> IedgeIter<'_, K> {
        match &self.repr {
            Repr::Inline {
                len, keys, counts, ..
            } => IedgeIter::Inline {
                keys: &keys[..*len as usize], // xsi-lint: allow(slice-index, len is at most INLINE_CAP)
                counts: &counts[..*len as usize], // xsi-lint: allow(slice-index, len is at most INLINE_CAP)
                i: 0,
            },
            Repr::Spilled { map, .. } => IedgeIter::Spilled(map.iter()),
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
        if let Repr::Inline {
            len,
            sig,
            keys,
            counts,
        } = &self.repr
        {
            let map: BTreeMap<K, u32> = keys[..*len as usize] // xsi-lint: allow(slice-index, len is at most INLINE_CAP)
                .iter()
                .copied()
                .zip(counts[..*len as usize].iter().copied()) // xsi-lint: allow(slice-index, len is at most INLINE_CAP)
                .collect();
            self.repr = Repr::Spilled { map, sig: *sig };
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
            Repr::Spilled { map, .. } => crate::obs::mem::btree_map_heap::<K, u32>(map.len()),
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

    /// A seeded random walk over every mutating call that crosses the
    /// inline→spilled boundary both ways: after each call the stored
    /// signature equals the one recomputed from `keys()`, and
    /// `same_keys` agrees with an exact key comparison.
    #[test]
    fn key_sig_tracks_the_key_set_through_every_call() {
        use xsi_workload::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(0x5eed);
        // Uniform in 0..n.
        let mut pick = |n: u32| rng.random_range(0..u64::from(n)) as u32;
        let mut m: IedgeMap<Key> = IedgeMap::new();
        let mut twin: IedgeMap<Key> = IedgeMap::new();
        let universe = 3 * INLINE_CAP as u32;
        let (mut spills, mut unspills) = (0, 0);
        for step in 0..20_000 {
            let k = Key(pick(universe));
            let before = m.repr();
            match pick(100) {
                0..=34 => {
                    m.add(k, 1 + pick(3));
                }
                35..=59 => {
                    if let Some(c) = m.get(k) {
                        m.sub(k, 1 + pick(c));
                    }
                }
                60..=74 => {
                    m.insert(k, 1 + pick(8));
                }
                75..=94 => {
                    m.remove(k);
                }
                95..=97 => m.clear(),
                _ => {
                    let drained = m.drain_sorted();
                    assert!(drained.windows(2).all(|w| w[0].0 < w[1].0));
                }
            }
            if before == IedgeRepr::Inline && m.repr() == IedgeRepr::Spilled {
                spills += 1;
            }
            if before == IedgeRepr::Spilled && m.repr() == IedgeRepr::Inline {
                unspills += 1;
            }
            assert_eq!(m.key_sig(), key_set_sig(m.keys()), "step {step}");
            // The twin holds the same key set under other counts, in
            // whatever representation its own history left it.
            twin.clear();
            for key in m.keys() {
                twin.insert(key, 7);
            }
            assert!(m.same_keys(&twin) && twin.same_keys(&m), "step {step}");
            twin.add(Key(universe), 1);
            assert!(!m.same_keys(&twin), "step {step}");
        }
        assert!(
            spills > 10 && unspills > 10,
            "{spills} spills, {unspills} returns"
        );
    }

    #[test]
    fn key_hash_is_a_fixed_function_of_slot_and_generation() {
        use crate::partition::BlockId;
        let a = BlockId::from_raw_parts(3, 0);
        let recycled = BlockId::from_raw_parts(3, 1);
        assert_eq!(key_hash(a), key_hash(BlockId::from_raw_parts(3, 0)));
        assert_ne!(key_hash(a), key_hash(recycled));
        // Pinned, so the hash cannot silently pick up a per-process seed.
        assert_eq!(key_hash(a), 0x4fad_8879);
    }

    /// The signature lives in padding: the map stays 104 B for both
    /// handle types under the default capacity.
    #[test]
    fn map_size_is_unchanged_by_the_signature() {
        if INLINE_CAP == 8 {
            assert_eq!(
                std::mem::size_of::<IedgeMap<crate::partition::BlockId>>(),
                104
            );
            assert_eq!(
                std::mem::size_of::<IedgeMap<crate::akindex::ABlockId>>(),
                104
            );
        }
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
