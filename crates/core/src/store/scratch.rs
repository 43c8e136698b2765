//! Epoch-stamped dense scratch tables for per-operation maps keyed by
//! slot index.
//!
//! `split_by_set` used to allocate two `HashMap`s and a `HashSet` per
//! call — on the hottest path in the system. A [`ScratchTable`] lives
//! inside the owning structure and is reset in O(1) by bumping an
//! epoch stamp; entries written under an older epoch read as absent.
//! The touched-key list preserves first-write order, so callers get a
//! deterministic iteration order for free (and sort it when a
//! different order is part of the contract).

/// Advances `epoch` to a value no entry of `stamps` holds, so every
/// stamp written under an earlier epoch reads as stale. Fresh stamps
/// are 0 and 0 is never handed out; once per 2^32 calls the counter
/// would wrap, so the stamps are cleared for real and counting restarts
/// at 1. The one epoch rule of every stamped table in the crate.
pub(crate) fn next_epoch(epoch: &mut u32, stamps: &mut [u32]) -> u32 {
    *epoch = match epoch.checked_add(1) {
        Some(e) => e,
        None => {
            stamps.fill(0);
            1
        }
    };
    *epoch
}

/// A dense `u32 → V` map with O(1) bulk reset via epoch stamps.
#[derive(Clone, Debug, Default)]
pub struct ScratchTable<V: Copy + Default> {
    stamp: Vec<u32>,
    vals: Vec<V>,
    touched: Vec<u32>,
    epoch: u32,
}

impl<V: Copy + Default> ScratchTable<V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a fresh use of the table: previous entries become absent.
    pub fn begin(&mut self) {
        self.touched.clear();
        next_epoch(&mut self.epoch, &mut self.stamp);
    }

    /// Grows the key space to cover indexes `< n`.
    pub fn ensure_len(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.vals.resize(n, V::default());
        }
    }

    /// The value at `i`, if written since the last `begin`. Indexes
    /// beyond the reserved key space read as absent.
    pub fn get(&self, i: u32) -> Option<V> {
        let i = i as usize;
        (self.stamp.get(i) == Some(&self.epoch)).then(|| self.vals[i]) // xsi-lint: allow(slice-index, the stamp check proves i is within the resized tables)
    }

    /// Writes `v` at `i` (growing the key space if needed), recording
    /// first-writes in the touched list.
    pub fn set(&mut self, i: u32, v: V) {
        self.ensure_len(i as usize + 1);
        // xsi-lint: allow(slice-index, ensure_len grew stamp and vals past i)
        if self.stamp[i as usize] != self.epoch {
            self.stamp[i as usize] = self.epoch; // xsi-lint: allow(slice-index, ensure_len grew stamp and vals past i)
            self.touched.push(i);
        }
        self.vals[i as usize] = v; // xsi-lint: allow(slice-index, ensure_len grew stamp and vals past i)
    }

    /// Mutates the entry at `i` through `f`, initializing absent
    /// entries to `V::default()` first.
    pub fn update(&mut self, i: u32, f: impl FnOnce(&mut V)) {
        self.ensure_len(i as usize + 1);
        // xsi-lint: allow(slice-index, ensure_len grew stamp and vals past i)
        if self.stamp[i as usize] != self.epoch {
            self.stamp[i as usize] = self.epoch; // xsi-lint: allow(slice-index, ensure_len grew stamp and vals past i)
            self.vals[i as usize] = V::default(); // xsi-lint: allow(slice-index, ensure_len grew stamp and vals past i)
            self.touched.push(i);
        }
        f(&mut self.vals[i as usize]); // xsi-lint: allow(slice-index, ensure_len grew stamp and vals past i)
    }

    /// Keys written since the last `begin`, in first-write order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Number of distinct keys written since the last `begin`.
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }
}

impl<V: Copy + Default> crate::obs::mem::HeapUse for ScratchTable<V> {
    /// The three backing vectors, capacity-based. Scratch tables are
    /// long-lived per-index allocations (that is the point of them), so
    /// they are part of the persistent footprint.
    fn heap_use(&self) -> usize {
        crate::obs::mem::vec_cap_heap(&self.stamp)
            + crate::obs::mem::vec_cap_heap(&self.vals)
            + crate::obs::mem::vec_cap_heap(&self.touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_resets_in_o1() {
        let mut t: ScratchTable<u32> = ScratchTable::new();
        t.begin();
        t.set(4, 10);
        t.update(4, |v| *v += 1);
        t.update(9, |v| *v += 5);
        assert_eq!(t.get(4), Some(11));
        assert_eq!(t.get(9), Some(5));
        assert_eq!(t.touched(), &[4, 9]);
        t.begin();
        assert_eq!(t.get(4), None);
        assert_eq!(t.get(9), None);
        assert_eq!(t.touched(), &[] as &[u32]);
        t.set(4, 1);
        assert_eq!(t.get(4), Some(1));
    }

    #[test]
    fn out_of_range_reads_absent() {
        let mut t: ScratchTable<u32> = ScratchTable::new();
        t.begin();
        assert_eq!(t.get(1000), None);
        t.set(2, 3);
        assert_eq!(t.get(1000), None);
    }
}
