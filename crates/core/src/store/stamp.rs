//! Per-slot change stamps: what lets a freeze rebuild only the blocks
//! that changed since an earlier snapshot (DESIGN.md §11.2).
//!
//! A live index stamps a slot whenever the block in it changes in a way
//! a frozen view can see: its extent, its iedge-successor key set, its
//! label or its liveness. Every stamp takes the next value of one
//! per-index sequence, so a snapshot that records the sequence it was
//! frozen at ([`FreezePoint`]) can tell, for every slot, whether the
//! block changed since: its stamp is larger. Stamps are also kept per
//! [`FREEZE_CHUNK`]-slot chunk (the largest stamp in the chunk), so a
//! freeze skips a clean chunk without reading its slots.
//!
//! Stamps are written only once the instance has been frozen: before
//! its first snapshot no base can be read against them, so building an
//! index, and churning one nobody freezes, pays nothing for them.
//!
//! A stamp only means something against a snapshot of the same index
//! instance. Every `ChangeStamps` carries a process-unique instance id;
//! a clone mints a fresh one, so a copied index never reads a snapshot
//! of the original as its own. The sequence is a `u32` that wraps by the
//! [`next_epoch`] rule: the stamps are cleared and counting restarts at
//! 1 — and the instance id is re-minted, so no snapshot frozen before
//! the wrap can be read against the restarted sequence.

use super::scratch::next_epoch;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Slots per frozen chunk: the unit a freeze shares or rebuilds. Chosen
/// by the sweep in EXPERIMENTS.md ("Snapshot freeze cost"): smaller
/// chunks carry fewer clean blocks over, larger ones bump fewer chunk
/// handles; 4 and 8 were fastest on the serving round, and 8 halves the
/// chunk count of a full freeze.
pub const FREEZE_CHUNK: usize = 8;

static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

fn mint_instance() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// Where a snapshot was frozen from: a live index instance and the last
/// stamp that instance had handed out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreezePoint {
    instance: u64,
    seq: u32,
}

/// Change stamps of one live slot table. See the module docs.
#[derive(Debug)]
pub struct ChangeStamps {
    instance: u64,
    /// Set when the first freeze point is taken; until then no stamp is
    /// written. Atomic because a freeze reads the index by `&self`.
    armed: AtomicBool,
    /// The last stamp handed out.
    seq: u32,
    /// Per slot: the stamp of its last visible change.
    slot: Vec<u32>,
    /// Per chunk of [`FREEZE_CHUNK`] slots: the largest slot stamp.
    chunk: Vec<u32>,
}

impl Default for ChangeStamps {
    fn default() -> Self {
        ChangeStamps {
            instance: mint_instance(),
            armed: AtomicBool::new(false),
            seq: 0,
            slot: Vec::new(),
            chunk: Vec::new(),
        }
    }
}

impl Clone for ChangeStamps {
    /// The copy is a new instance: no snapshot of the original is ever
    /// read against it, and it has no snapshot of its own yet.
    fn clone(&self) -> Self {
        ChangeStamps {
            instance: mint_instance(),
            armed: AtomicBool::new(false),
            seq: self.seq,
            slot: self.slot.clone(),
            chunk: self.chunk.clone(),
        }
    }
}

impl ChangeStamps {
    /// Records a visible change of the block in `slot` (a no-op until
    /// the instance is first frozen).
    #[inline]
    pub fn stamp(&mut self, slot: u32) {
        if !*self.armed.get_mut() {
            return;
        }
        let wraps = self.seq == u32::MAX;
        next_epoch(&mut self.seq, &mut self.slot);
        if wraps {
            // The wrap just cleared every slot stamp: clear the chunk
            // stamps too and retire every earlier snapshot's claim on
            // this instance.
            self.chunk.fill(0);
            self.instance = mint_instance();
        }
        let (s, c) = (slot as usize, slot as usize / FREEZE_CHUNK);
        if self.slot.len() <= s {
            self.slot.resize(s + 1, 0);
        }
        if self.chunk.len() <= c {
            self.chunk.resize(c + 1, 0);
        }
        self.slot[s] = self.seq; // xsi-lint: allow(slice-index, resized past s just above)
        self.chunk[c] = self.seq; // xsi-lint: allow(slice-index, resized past c just above)
    }

    /// The point a snapshot frozen now records. Arms the stamps: every
    /// later change is stamped.
    pub fn point(&self) -> FreezePoint {
        self.armed.store(true, Ordering::Relaxed);
        FreezePoint {
            instance: self.instance,
            seq: self.seq,
        }
    }

    /// The sequence a snapshot frozen at `at` can be compared against,
    /// or `None` when `at` is from another instance (or from before a
    /// wrap).
    pub fn since(&self, at: FreezePoint) -> Option<u32> {
        (at.instance == self.instance).then_some(at.seq)
    }

    /// Whether any slot of chunk `c` changed after sequence `since`. A
    /// chunk never stamped has not changed: it never held a frozen
    /// block (callers still rebuild slots the base did not cover).
    #[inline]
    pub fn chunk_changed(&self, c: usize, since: u32) -> bool {
        self.chunk.get(c).is_some_and(|&s| s > since)
    }

    /// Whether the block in `slot` changed after sequence `since`; a
    /// slot never stamped has not.
    #[inline]
    pub fn slot_changed(&self, slot: usize, since: u32) -> bool {
        self.slot.get(slot).is_some_and(|&s| s > since)
    }

    /// Heap bytes of the two stamp tables.
    pub fn heap_use(&self) -> usize {
        crate::obs::mem::vec_cap_heap(&self.slot) + crate::obs::mem::vec_cap_heap(&self.chunk)
    }

    /// Test hook: moves the sequence to `seq`, e.g. near the wrap.
    #[cfg(test)]
    pub(crate) fn set_seq(&mut self, seq: u32) {
        self.seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_order_changes_against_a_freeze_point() {
        let mut st = ChangeStamps::default();
        st.stamp(3);
        assert!(st.slot.is_empty(), "nothing is stamped before a freeze");
        st.point();
        st.stamp(3);
        let at = st.point();
        let since = st.since(at).expect("own point");
        assert!(!st.slot_changed(3, since));
        assert!(!st.chunk_changed(0, since));
        st.stamp(FREEZE_CHUNK as u32 + 1);
        assert!(!st.slot_changed(3, since), "slot 3 did not change");
        assert!(st.slot_changed(FREEZE_CHUNK + 1, since));
        assert!(!st.chunk_changed(0, since));
        assert!(st.chunk_changed(1, since));
        assert!(!st.slot_changed(99, since), "a slot never stamped");
    }

    #[test]
    fn clones_and_wraps_retire_earlier_points() {
        let mut st = ChangeStamps::default();
        let at = st.point();
        st.stamp(0);
        assert!(st.since(at).is_some(), "the first stamp keeps the point");
        assert_eq!(st.clone().since(at), None, "a clone is a new instance");
        st.set_seq(u32::MAX - 1);
        st.stamp(1);
        assert!(st.since(at).is_some(), "no wrap yet");
        st.stamp(2);
        assert_eq!(st.since(at), None, "the wrap retires every earlier point");
        let after = st.since(st.point()).expect("own point");
        assert_eq!(after, 1, "counting restarts at 1");
        assert!(!st.slot_changed(1, after), "cleared stamps read unchanged");
        assert!(!st.slot_changed(2, after));
    }
}
