//! The 1-index's refinement loops (DESIGN.md §10.3), run directly on the
//! flat [`Partition`]: the Paige–Tarjan compound-queue split propagation
//! ([`process_compounds`]), from-scratch refinement to a self-stable
//! fixpoint ([`refine_to_fixpoint`], for construction and subgraph
//! addition) and the iterative merge fold ([`merge_fold`]). The 1-index
//! and its propagate baseline are their one user; the A(k) chain places
//! each changed node straight into its final class instead
//! (`akindex/maintain.rs`), since A(l) is a function of A(l−1) and the
//! graph alone.
//!
//! Everything here iterates in sorted or explicitly-queued order —
//! [`CompoundQueue`] tracks membership in a `BTreeMap`, `split_by_set`
//! returns its pairs sorted, `merge_fold` sorts successors by bucket and
//! folds the merge classes in exact key order — so the loops add no
//! hash-order nondeterminism to the partition's own. (A bucket's key-set
//! signature is a fixed function of the block handles, and it only
//! filters.)

use crate::obs::span::{SpanGuard, SpanKind};
use crate::partition::{BlockId, Partition};
use crate::stats::UpdateStats;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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
#[derive(Debug, Default)]
pub struct CompoundQueue {
    /// Queued compounds, oldest first.
    fifo: VecDeque<Vec<BlockId>>,
    /// Compounds popped so far: the compound with sequence number `s`
    /// sits at `fifo[s - popped]`.
    popped: usize,
    /// Block → sequence number of the compound holding it.
    member: BTreeMap<BlockId, usize>,
}

impl CompoundQueue {
    /// Enqueues a compound of (≥2) blocks.
    pub fn push(&mut self, compound: Vec<BlockId>) {
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
    pub fn pop(&mut self) -> Option<Vec<BlockId>> {
        let compound = self.fifo.pop_front()?;
        self.popped += 1;
        for b in &compound {
            self.member.remove(b);
        }
        Some(compound)
    }

    /// A real split of `old` produced `new`: grow `old`'s compound or
    /// open a fresh one.
    pub fn on_split(&mut self, old: BlockId, new: BlockId) {
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
pub fn process_compounds(
    p: &mut Partition,
    g: &Graph,
    cq: &mut CompoundQueue,
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
            .min_by_key(|&(_, &b)| p.size(b))
            .expect("invariant: compound splitters contain at least one block");
        let small = compound.swap_remove(min_pos);
        let rest = compound;
        let splitter = {
            let scan = SpanGuard::enter(SpanKind::KernelScan);
            let splitter = p.collect_succ(g, small);
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
            let (second, probed) = p.with_parent_in(g, &splitter, &rest);
            probe.add_blocks(rest.len() as u64);
            probe.add_elems(probed);
            sp.add_elems(probed);
            second
        };
        if rest.len() >= 2 {
            cq.push(rest);
        }
        // Stabilize against `marked`, reporting every real split.
        let mut stabilize = |marked: &[NodeId]| {
            for (old, new) in p.split_by_set(g, marked) {
                stats.splits += 1;
                cq.on_split(old, new);
            }
        };
        stabilize(&splitter);
        // `second ⊆ splitter`; when they are equal every block inside
        // `Succ(I)` is already inside `Succ(S − I)`.
        if second.len() < splitter.len() {
            stabilize(&second);
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
/// queued block.
pub fn refine_to_fixpoint(p: &mut Partition, g: &Graph, seeds: &[BlockId]) {
    // One aggregate KernelScan span for the whole fixpoint run: builds
    // scan thousands of blocks, so per-block spans would dominate the
    // collection; the counters carry the volume instead.
    let span = SpanGuard::enter(SpanKind::KernelScan);
    let mut work: VecDeque<BlockId> = seeds.iter().copied().collect();
    while let Some(b) = work.pop_front() {
        if p.size(b) == 0 {
            continue;
        }
        let splitter = p.collect_succ(g, b);
        span.add_blocks(1);
        span.add_elems(splitter.len() as u64);
        // Pure splitting never retires a block id (the remainder keeps
        // the old handle), so both halves of every split are live and
        // just need a scan of their own. The pairs arrive sorted.
        for (old, new) in p.split_by_set(g, &splitter) {
            work.push_back(old);
            work.push_back(new);
        }
    }
}

/// The iterative merge fold: starting from `seed`, split each served
/// block's index successors into merge classes, fold every class of ≥2
/// into one survivor, and requeue survivors, whose successors may now
/// merge in turn. Classes fold in exact key order with their members
/// ascending, so merge order — and therefore surviving block ids — is
/// deterministic.
pub fn merge_fold(p: &mut Partition, seed: BlockId, stats: &mut UpdateStats) {
    let mut queue: VecDeque<BlockId> = VecDeque::new();
    let mut queued: BTreeSet<BlockId> = BTreeSet::new();
    queue.push_back(seed);
    queued.insert(seed);
    while let Some(&i) = queue.front() {
        if !p.is_live(i) {
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
        let succ: Vec<BlockId> = p.children(i).map(|(c, _)| c).collect();
        sp.add_elems(succ.len() as u64);
        for group in merge_classes(p, succ) {
            sp.add_blocks(group.len() as u64);
            let survivor = p.merge_group(&group);
            stats.merges += group.len() - 1;
            if queued.insert(survivor) {
                queue.push_back(survivor);
            }
        }
    }
}

/// The merge classes of two or more members among `succ`, all decided
/// before any merge: sort by bucket — (label, parent count, parent-set
/// signature), a coarsening of Lemma 3's (label, index-parent set) merge
/// equivalence — cut each bucket of ≥2 into exact classes (more than one
/// only on a signature collision), and order the classes by exact key
/// with members ascending — the order of grouping by the full key in a
/// sorted map.
fn merge_classes(p: &Partition, succ: Vec<BlockId>) -> Vec<Vec<BlockId>> {
    let mut keyed: Vec<((u32, u32, u32), BlockId)> =
        succ.into_iter().map(|b| (p.merge_bucket(b), b)).collect();
    keyed.sort_unstable();
    let mut classes: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
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
                .find(|(rep, _)| p.merge_cmp(*rep, b) == Ordering::Equal)
            {
                Some((_, members)) => members.push(b),
                None => classes.push((b, vec![b])),
            }
        }
    }
    classes.retain(|(_, members)| members.len() >= 2);
    classes.sort_by(|x, y| p.merge_cmp(x.0, y.0));
    classes.into_iter().map(|(_, members)| members).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compound_queue_grow_and_fifo_semantics() {
        let g = Graph::new();
        let mut p = Partition::new(&g);
        let b: Vec<BlockId> = (0..6).map(|_| p.new_block(g.label(g.root()))).collect();
        let mut cq = CompoundQueue::default();
        cq.push(vec![b[0], b[1]]);
        cq.on_split(b[0], b[2]); // b0 in a compound → same compound grows
        cq.on_split(b[3], b[4]); // b3 not in a compound → new compound
        assert_eq!(cq.work_size(), 5);
        let first = cq.pop().unwrap();
        assert_eq!(first, vec![b[0], b[1], b[2]]);
        cq.on_split(b[4], b[5]); // the compound is found after a pop
        let second = cq.pop().unwrap();
        assert_eq!(second, vec![b[3], b[4], b[5]]);
        assert!(cq.pop().is_none());
        assert!(cq.is_empty());
    }
}
