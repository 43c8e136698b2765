//! Per-update statistics, used by the efficiency analysis of Section 5.1
//! ("the numbers of split and merge operations are |Φ₁| − |Φ₀| and
//! |Φ₁| − |Φ₂|") and by the Figure 5 worst-case experiment.

/// Counters describing what one incremental update did to an index.
///
/// Besides the paper's split/merge counts, maintenance algorithms record
/// the peak Paige–Tarjan work-queue size (`queue_peak`) and — for A(k)
/// — how many refinement-chain levels the update touched
/// (`levels_touched`). The engine hands one op's stats to the
/// observability layer ([`crate::obs`]) as the label of its
/// `IndexDispatch` span; phase time is the `Split`/`Merge` span
/// duration, not a field here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Number of block splits performed (|Φ₁(G₂)| − |Φ₀(G₀)|).
    pub splits: usize,
    /// Number of block merges performed (|Φ₁(G₂)| − |Φ₂(G₂)|).
    pub merges: usize,
    /// Index size after the split phase, before the merge phase — the
    /// intermediate index Φ₁ whose potential blow-up Figure 5 illustrates.
    pub intermediate_blocks: usize,
    /// Index size after the whole update (|Φ₂|).
    pub final_blocks: usize,
    /// Whether the update was a no-op for the index (the early-return cases
    /// of Figure 3: the iedge already existed / still exists). On an
    /// aggregate built with [`UpdateStats::absorb`], this means *every*
    /// absorbed op was a no-op — accumulators must start from
    /// [`UpdateStats::identity`], not [`Default::default`], for the flag
    /// to mean anything (`Default` is a non-no-op leaf value).
    pub no_op: bool,
    /// Peak work-queue size during split propagation (blocks enqueued in
    /// compound slots). Aggregates keep the maximum.
    pub queue_peak: usize,
    /// Refinement-chain levels touched by an A(k) update (k − j₀ + 1; 0
    /// for non-chain indexes). Aggregates keep the maximum.
    pub levels_touched: usize,
}

impl UpdateStats {
    /// The identity element of [`UpdateStats::absorb`]: all counters
    /// zero and `no_op: true` (absorbing any `s` into it yields `s`'s
    /// semantics). Workload accumulators **must** start here — starting
    /// from `Default::default()` (`no_op: false`) would report a
    /// workload of pure no-ops as "did something", the bug this
    /// constructor fixed.
    pub fn identity() -> Self {
        UpdateStats {
            no_op: true,
            ..UpdateStats::default()
        }
    }

    /// Accumulates another update's counters into `self` (for workload
    /// totals): splits/merges add, `intermediate_blocks` and
    /// `queue_peak`/`levels_touched` keep the maximum, `final_blocks`
    /// keeps the last value, and `no_op` stays `true` only while every
    /// absorbed op was a no-op (fold from [`UpdateStats::identity`]).
    pub fn absorb(&mut self, other: &UpdateStats) {
        self.splits += other.splits;
        self.merges += other.merges;
        self.intermediate_blocks = self.intermediate_blocks.max(other.intermediate_blocks);
        self.final_blocks = other.final_blocks;
        self.no_op &= other.no_op;
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        self.levels_touched = self.levels_touched.max(other.levels_touched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = UpdateStats {
            splits: 1,
            merges: 2,
            intermediate_blocks: 10,
            final_blocks: 8,
            no_op: true,
            queue_peak: 2,
            levels_touched: 1,
        };
        let b = UpdateStats {
            splits: 3,
            merges: 1,
            intermediate_blocks: 7,
            final_blocks: 9,
            no_op: false,
            queue_peak: 5,
            levels_touched: 3,
        };
        a.absorb(&b);
        assert_eq!(a.splits, 4);
        assert_eq!(a.merges, 3);
        assert_eq!(a.intermediate_blocks, 10);
        assert_eq!(a.final_blocks, 9);
        assert!(!a.no_op);
        assert_eq!(a.queue_peak, 5);
        assert_eq!(a.levels_touched, 3);
    }

    /// The satellite-1 regression: folding only no-ops from the identity
    /// must report `no_op = true`; `Default` is *not* the identity.
    #[test]
    fn identity_preserves_all_no_op_workloads() {
        let noop = UpdateStats {
            final_blocks: 4,
            ..UpdateStats::identity()
        };
        let mut total = UpdateStats::identity();
        for _ in 0..3 {
            total.absorb(&noop);
        }
        assert!(total.no_op, "a workload of pure no-ops is a no-op");
        assert_eq!(total.final_blocks, 4);

        // One real op flips the aggregate and it stays flipped.
        let real = UpdateStats {
            splits: 1,
            ..UpdateStats::default()
        };
        total.absorb(&real);
        total.absorb(&noop);
        assert!(!total.no_op);

        // absorb(identity) is the identity operation on no_op.
        let mut x = UpdateStats::default();
        x.absorb(&UpdateStats::identity());
        assert!(!x.no_op);
    }
}
