//! The shared refinement kernel (DESIGN.md §10.3): one implementation of
//! the Paige–Tarjan compound-queue split propagation and of the iterative
//! merge fold. The 1-index (and its propagate baseline) is its one
//! driver; the A(k) chain places each changed node straight into its
//! final class instead (`akindex/maintain.rs`), since A(l) is a function
//! of A(l−1) and the graph alone.
//!
//! The kernel factors the mechanics into two small traits, so they stay
//! apart from the flat partition's primitive operations:
//!
//! * [`SplitDriver`] — weights, the splitter scan `Succ(I)`, the
//!   parent probe that carves `Succ(I) ∩ Succ(S − I)` out of it, and the
//!   stabilization primitive (`split_by_set`). [`process_compounds`]
//!   runs the propagation loop over a FIFO [`CompoundQueue`];
//!   [`refine_to_fixpoint`] layers from-scratch refinement (construction,
//!   rebuild) on the same stabilization primitive with one scan per
//!   queued block.
//! * [`MergeDriver`] — successor enumeration, a `Copy` bucket that
//!   coarsens the merge-equivalence key, the exact key order, and the
//!   group merge. [`merge_fold`] runs the worklist.
//!
//! Everything here iterates in sorted or explicitly-queued order —
//! `CompoundQueue` tracks membership in a `BTreeMap`, `merge_fold` sorts
//! successors by bucket and folds the merge classes in exact key order —
//! so the kernel adds no hash-order nondeterminism on top of the
//! drivers. (A bucket's key-set signature is a fixed function of the
//! block handles, and it only filters.)

use crate::obs::span::{SpanGuard, SpanKind};
use crate::stats::UpdateStats;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Debug;
use xsi_graph::{Graph, NodeId};

/// The Paige–Tarjan compound-block queue: groups of blocks that
/// resulted from splitting what used to be a single block, against
/// whose *union* the rest of the partition is still known to be stable,
/// served first in, first out.
///
/// A block belongs to at most one compound. When a member splits, its
/// new half joins the same compound ("replace K in 𝓙 with the inodes in
/// 𝓚"); when a block splits outside any compound, a fresh two-member
/// compound is enqueued.
#[derive(Debug)]
pub struct CompoundQueue<K: Copy + Ord + Debug> {
    /// Queued compounds, oldest first.
    fifo: VecDeque<Vec<K>>,
    /// Compounds popped so far: the compound with sequence number `s`
    /// sits at `fifo[s - popped]`.
    popped: usize,
    /// Block → sequence number of the compound holding it.
    member: BTreeMap<K, usize>,
}

impl<K: Copy + Ord + Debug> CompoundQueue<K> {
    /// An empty queue.
    pub fn new() -> Self {
        CompoundQueue {
            fifo: VecDeque::new(),
            popped: 0,
            member: BTreeMap::new(),
        }
    }

    /// Enqueues a compound of (≥2) blocks.
    pub fn push(&mut self, compound: Vec<K>) {
        debug_assert!(compound.len() >= 2);
        let seq = self.popped + self.fifo.len();
        for &b in &compound {
            let prev = self.member.insert(b, seq);
            debug_assert!(prev.is_none(), "{b:?} already in a compound");
        }
        self.fifo.push_back(compound);
    }

    /// Current work-queue size: blocks enqueued in live compounds (peak
    /// recorded into [`UpdateStats::queue_peak`]).
    pub fn work_size(&self) -> usize {
        self.member.len()
    }

    /// True when no compound is queued.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Dequeues the oldest compound, unregistering its members.
    pub fn pop(&mut self) -> Option<Vec<K>> {
        let compound = self.fifo.pop_front()?;
        self.popped += 1;
        for b in &compound {
            self.member.remove(b);
        }
        Some(compound)
    }

    /// A real split of `old` produced `new`: grow `old`'s compound or
    /// open a fresh one.
    pub fn on_split(&mut self, old: K, new: K) {
        match self.member.get(&old).copied() {
            Some(seq) => {
                if let Some(compound) = self.fifo.get_mut(seq - self.popped) {
                    compound.push(new);
                }
                self.member.insert(new, seq);
            }
            None => self.push(vec![old, new]),
        }
    }

    /// `old` was wholly replaced by `new` (it is about to be released):
    /// swap the id inside its compound, if any.
    pub fn replace(&mut self, old: K, new: K) {
        if let Some(seq) = self.member.remove(&old) {
            let compound = self.fifo.get_mut(seq - self.popped);
            if let Some(b) = compound.and_then(|c| c.iter_mut().find(|b| **b == old)) {
                *b = new;
            }
            self.member.insert(new, seq);
        }
    }
}

impl<K: Copy + Ord + Debug> Default for CompoundQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// The primitive operations [`process_compounds`] needs from an index
/// family. `stabilize` is the family's partition-splitting primitive: it
/// must split every block with a proper intersection against `marked`
/// and report the resulting splits back into the queue (`on_split` for a
/// partial split, `replace` when the original dies).
pub trait SplitDriver {
    /// The family's block handle.
    type Block: Copy + Ord + Debug;
    /// Number of dnodes under `b` (extent size or subtree weight).
    fn weight_of(&self, b: Self::Block) -> usize;
    /// The deduplicated dnode successors of the extent under `b` — the
    /// splitter set `Succ(b)`.
    fn scan_succ(&mut self, g: &Graph, b: Self::Block) -> Vec<NodeId>;
    /// The members of `cands` with a dnode parent under one of the
    /// blocks `blocks`, in `cands` order, plus the number of parent
    /// edges probed. Costs the candidates' in-degrees, never a scan of
    /// `blocks`' extents.
    fn with_parent_in(
        &mut self,
        g: &Graph,
        cands: &[NodeId],
        blocks: &[Self::Block],
    ) -> (Vec<NodeId>, u64);
    /// Stabilizes the partition against `marked`.
    fn stabilize(
        &mut self,
        g: &Graph,
        marked: &[NodeId],
        cq: &mut CompoundQueue<Self::Block>,
        stats: &mut UpdateStats,
    );
}

/// The Paige–Tarjan propagation loop: repeatedly extract the oldest
/// compound `S`, remove a small member `I`, re-enqueue the
/// rest if still compound, and split the partition three ways against
/// `I` and `S − I` while scanning only the small half `Succ(I)`.
///
/// The loop invariant is that every block is stable w.r.t. the *union*
/// of each queued compound, so every block lies wholly inside or wholly
/// outside `Succ(S)`. After stabilizing against `Succ(I)`, a block
/// outside `Succ(I)` is therefore inside or outside `Succ(S − I)` as a
/// whole, and a block inside `Succ(I)` meets `Succ(S − I)` in exactly
/// `Succ(I) ∩ Succ(S − I)`. Stabilizing against that intersection — the
/// members of `Succ(I)` with a parent in `S − I` — moves the same nodes
/// as stabilizing against `Succ(S − I)`, without touching the (large)
/// remainder's extents: the paper's K₁₁/K₁₂/K₂ split at `O(|Succ(I)|)`
/// plus the probed parent edges.
///
/// The probe runs before the first stabilization: on a cyclic graph
/// `Succ(I)` can split a block of `S − I`, and the second splitter must
/// be taken against the node set `S − I` as it was popped.
pub fn process_compounds<D: SplitDriver>(
    d: &mut D,
    g: &Graph,
    cq: &mut CompoundQueue<D::Block>,
    stats: &mut UpdateStats,
) {
    stats.queue_peak = stats.queue_peak.max(cq.work_size());
    while !cq.is_empty() {
        // One CompoundProcess span per Fig. 7 iteration: the whole
        // extract/re-enqueue/scan/probe/stabilize body, the pop
        // included, is in-span so the span sum accounts for (nearly)
        // the whole split phase.
        let sp = SpanGuard::enter(SpanKind::CompoundProcess);
        let Some(mut compound) = cq.pop() else {
            break;
        };
        sp.add_blocks(compound.len() as u64);
        sp.set_queue_depth(cq.work_size() as u64);
        // Pick I with |I| ≤ ½ Σ|J| — the smallest member qualifies.
        let (min_pos, _) = compound
            .iter()
            .enumerate()
            .min_by_key(|&(_, &b)| d.weight_of(b))
            .expect("invariant: compound splitters contain at least one block");
        let small = compound.swap_remove(min_pos);
        let rest = compound;
        let splitter = {
            let scan = SpanGuard::enter(SpanKind::KernelScan);
            let splitter = d.scan_succ(g, small);
            scan.add_blocks(1);
            scan.add_elems(splitter.len() as u64);
            sp.add_elems(splitter.len() as u64);
            splitter
        };
        let second = {
            // The probe's own work: `rest` blocks marked, parent edges
            // probed — so the §5.1 counters still account for every
            // kernel step.
            let probe = SpanGuard::enter(SpanKind::KernelScan);
            let (second, probed) = d.with_parent_in(g, &splitter, &rest);
            probe.add_blocks(rest.len() as u64);
            probe.add_elems(probed);
            sp.add_elems(probed);
            second
        };
        if rest.len() >= 2 {
            cq.push(rest);
        }
        d.stabilize(g, &splitter, cq, stats);
        // `second ⊆ splitter`; when they are equal every block inside
        // `Succ(I)` is already inside `Succ(S − I)`.
        if second.len() < splitter.len() {
            d.stabilize(g, &second, cq, stats);
        }
        stats.queue_peak = stats.queue_peak.max(cq.work_size());
    }
}

/// From-scratch refinement: a plain worklist that scans one block per
/// iteration and requeues both halves of every split, to the coarsest
/// refinement of the seed partition stable w.r.t. itself. Used by
/// 1-index construction and subgraph addition.
///
/// This deliberately does NOT go through [`process_compounds`]: the
/// compound loop's three-way split is sound only under the queue
/// invariant of *maintenance* — stability w.r.t. each compound's union —
/// which lets it derive the `S − I` splitter from `Succ(I)` alone. From
/// scratch no such invariant exists (the seed blocks are not stable
/// w.r.t. one another), so every block must be scanned as a splitter in
/// its own right. Single-block scans keep construction at one scan per
/// queued block. Splits the driver reports into `cq` are drained back
/// into the worklist after every stabilization, so `cq` leaves empty.
pub fn refine_to_fixpoint<D: SplitDriver>(
    d: &mut D,
    g: &Graph,
    seeds: &[D::Block],
    cq: &mut CompoundQueue<D::Block>,
    stats: &mut UpdateStats,
) {
    // One aggregate KernelScan span for the whole fixpoint run: builds
    // scan thousands of blocks, so per-block spans would dominate the
    // collection; the counters carry the volume instead.
    let span = SpanGuard::enter(SpanKind::KernelScan);
    let mut work: VecDeque<D::Block> = seeds.iter().copied().collect();
    while let Some(b) = work.pop_front() {
        if d.weight_of(b) == 0 {
            continue;
        }
        let splitter = d.scan_succ(g, b);
        span.add_blocks(1);
        span.add_elems(splitter.len() as u64);
        d.stabilize(g, &splitter, cq, stats);
        stats.queue_peak = stats.queue_peak.max(work.len() + cq.work_size());
        // Pure splitting never retires a block id (the remainder keeps
        // the old handle), so flattening compounds into the FIFO is
        // sound: every member is live and just needs its own scan.
        while let Some(compound) = cq.pop() {
            work.extend(compound);
        }
    }
}

/// The primitive operations [`merge_fold`] needs from an index family.
pub trait MergeDriver {
    /// The family's block handle.
    type Block: Copy + Ord + Debug;
    /// A cheap coarsening of the merge-equivalence key (label +
    /// index-parent set for the 1-index; tree parent + cross-parent set
    /// for the A(k) chain) that replaces the parent set by its size and
    /// key-set signature. Merge-equivalent blocks always share a bucket;
    /// blocks sharing a bucket are equivalent only if
    /// [`MergeDriver::merge_cmp`] returns `Equal`.
    type Bucket: Copy + Ord;
    /// The index successors of `b` to consider for merging.
    fn merge_successors(&self, b: Self::Block) -> Vec<Self::Block>;
    /// The merge bucket of `b`.
    fn merge_bucket(&self, b: Self::Block) -> Self::Bucket;
    /// The exact merge-key order: the first key component, then the
    /// sorted parent set compared lexicographically. `Equal` iff `a` and
    /// `b` are merge-equivalent.
    fn merge_cmp(&self, a: Self::Block, b: Self::Block) -> Ordering;
    /// Whether `b` is still a live, current handle (queued blocks can be
    /// merged away before they are served).
    fn is_live(&self, b: Self::Block) -> bool;
    /// Merges a group of (≥2, sorted) equivalent blocks, returning the
    /// survivor and accounting the merges in `stats`.
    fn merge_group(&mut self, group: &[Self::Block], stats: &mut UpdateStats) -> Self::Block;
    /// Whether the survivor's own successors should be reconsidered.
    fn requeue(&self, survivor: Self::Block) -> bool;
}

/// The iterative merge fold: starting from `seed`, split each served
/// block's successors into merge classes, fold every class of ≥2 into
/// one survivor, and requeue survivors whose successors may now merge in
/// turn. Classes fold in exact key order with their members ascending,
/// so merge order — and therefore surviving block ids — is
/// deterministic.
pub fn merge_fold<D: MergeDriver>(d: &mut D, seed: D::Block, stats: &mut UpdateStats) {
    let mut queue: VecDeque<D::Block> = VecDeque::new();
    let mut queued: BTreeSet<D::Block> = BTreeSet::new();
    queue.push_back(seed);
    queued.insert(seed);
    while let Some(&i) = queue.front() {
        if !d.is_live(i) {
            // Merged away after being enqueued: skipped without a span.
            queue.pop_front();
            queued.remove(&i);
            continue;
        }
        // One CompoundProcess span per served work item (the merge-side
        // analogue of the split loop's compound iteration), the pop
        // included; its elems counter is the successors examined, its
        // blocks counter sums the folded groups.
        let sp = SpanGuard::enter(SpanKind::CompoundProcess);
        sp.set_queue_depth(queue.len() as u64);
        queue.pop_front();
        queued.remove(&i);
        let succ = d.merge_successors(i);
        sp.add_elems(succ.len() as u64);
        for group in merge_classes(d, succ) {
            sp.add_blocks(group.len() as u64);
            let survivor = d.merge_group(&group, stats);
            if d.requeue(survivor) && queued.insert(survivor) {
                queue.push_back(survivor);
            }
        }
    }
}

/// The merge classes of two or more members among `succ`, all decided
/// before any merge: sort by bucket, cut each bucket of ≥2 into exact
/// classes (more than one only on a signature collision), and order the
/// classes by exact key with members ascending — the order of grouping
/// by the full key in a sorted map.
fn merge_classes<D: MergeDriver>(d: &D, succ: Vec<D::Block>) -> Vec<Vec<D::Block>> {
    let mut keyed: Vec<(D::Bucket, D::Block)> =
        succ.into_iter().map(|b| (d.merge_bucket(b), b)).collect();
    keyed.sort_unstable();
    let mut classes: Vec<(D::Block, Vec<D::Block>)> = Vec::new();
    for bucket in keyed.chunk_by(|x, y| x.0 == y.0) {
        if bucket.len() < 2 {
            continue;
        }
        let first = classes.len();
        for &(_, b) in bucket {
            // Members arrive ascending, so each class's first member is
            // its smallest and its members stay sorted.
            match classes[first..] // xsi-lint: allow(slice-index, first was classes.len() before this bucket's pushes)
                .iter_mut()
                .find(|(rep, _)| d.merge_cmp(*rep, b) == Ordering::Equal)
            {
                Some((_, members)) => members.push(b),
                None => classes.push((b, vec![b])),
            }
        }
    }
    classes.retain(|(_, members)| members.len() >= 2);
    classes.sort_by(|x, y| d.merge_cmp(x.0, y.0));
    classes.into_iter().map(|(_, members)| members).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compound_queue_grow_and_replace_semantics() {
        let mut cq: CompoundQueue<u32> = CompoundQueue::new();
        cq.push(vec![1, 2]);
        cq.on_split(1, 3); // 1 in a compound → same compound grows
        cq.on_split(4, 5); // 4 not in a compound → new compound
        assert_eq!(cq.work_size(), 5);
        let first = cq.pop().unwrap();
        assert_eq!(first, vec![1, 2, 3]);
        cq.replace(4, 9); // 4 dies, 9 takes its place in the compound
        cq.on_split(9, 6); // the compound is found after a pop
        let second = cq.pop().unwrap();
        assert_eq!(second, vec![9, 5, 6]);
        assert!(cq.pop().is_none());
        assert!(cq.is_empty());
    }

    #[test]
    fn replace_outside_any_compound_is_a_noop() {
        let mut cq: CompoundQueue<u32> = CompoundQueue::new();
        cq.replace(7, 8);
        assert!(cq.is_empty());
    }
}
