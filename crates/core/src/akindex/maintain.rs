//! Incremental maintenance of the A(k)-index chain — Figure 7 of the
//! paper — as one level-ordered placement sweep.
//!
//! An edge update `(u, v)` proceeds in three steps:
//!
//! 1. **Affected range.** Find the largest `i` with `v ∈ Succ(I⁽ⁱ⁾[u])`
//!    (for insertions, ignoring the new edge itself). Levels `≤ i+1` are
//!    untouched; from `j0 = i+2` on, `v`'s key set has changed.
//! 2. **Placement sweep** (the `Split` span). A(l) is a function of
//!    A(l−1) and the graph alone, so level by level from `j0` up, every
//!    node whose level-`l` class can change gets its final class before
//!    anything moves. These *candidates* are `v` at `j0`, and above it
//!    the nodes whose class changed at level `l−1` and their successors;
//!    every other member of a block is *settled* and keeps its class.
//!    (If `v` keeps its class at `j0`, it is alone in its block, so no
//!    class above can change and the sweep stops.) A candidate's key set
//!    is the set of its parents' final level-(l−1) classes, and its
//!    final class is the child of its final level-(l−1) class whose
//!    settled members have the same key set. When there is none, one
//!    class is minted per distinct (parent, key set) — unless it takes
//!    every member of one old block under the same tree parent, in which
//!    case it keeps that block's slot.
//! 3. **Apply** (the `Merge` span). Each changed node moves once, by
//!    `move_node_chain`, straight into its final chain; the blocks the
//!    moves empty are released deepest first.
//!
//! Lemmas 5/6 and Theorem 2: this maintains the unique minimal — hence
//! **minimum** — set of A(i)-indexes on any data graph.
//!
//! A settled block's key set is read off its `pred_cross` map: the keys
//! whose whole count comes from the candidates' own parent edges drop
//! out. Block lookups are sorted-vector searches over the candidates, so
//! the sweep's cost is the candidates' in-degrees times `k`, never a
//! scan of the blocks they leave.
//!
//! ### The paper's counts, counted rather than built
//!
//! [`UpdateStats`] keeps Section 5.1's definitions: `splits` is
//! |Φ₁| − |Φ₀| and `merges` is |Φ₁| − |Φ₂|. Φ₁ is the intermediate index
//! of Figure 7's split phase: the coarsest stable refinement of the old
//! chain with `v` isolated at levels `j0..k`. It does not depend on
//! processing order, so the sweep tracks each candidate's Φ₁ part beside
//! its final class and counts parts instead of building them. Within an
//! old block, the candidates' parts are their distinct (Φ₁ parent, Φ₁
//! key set) signatures; the settled members form one more part unless a
//! candidate shares their signature. The part that keeps the old id is
//! the settled one, or else the one holding the smallest node id; every
//! other part gets a fresh `Part` id that only the sweep sees. A node
//! whose Φ₁ part moved is a candidate at the next level too, so the
//! settled members of every block share one signature.
//!
//! `v` needs no isolating of its own. At `j0` it is the only candidate,
//! and its key set differs from its block's settled one (no other parent
//! of `v` shares `u`'s class at `j0 − 1`), so it is a part by itself;
//! above `j0` its Φ₁ parent is that part, which holds `v` alone.

use super::{ABlockId, AkIndex};
use crate::obs::mem::{vec_cap_heap, HeapUse};
use crate::obs::span::{SpanGuard, SpanKind};
use crate::stats::UpdateStats;
use crate::store::iedge::key_hash;
use crate::store::next_epoch;
use std::cmp::Reverse;
use xsi_graph::{EdgeKind, Graph, GraphError, NodeId};

/// A Φ₁ part at one level: the old block's raw slot id for the part that
/// keeps it, `SPLIT_OFF + n` for the `n`-th part split off in the update.
type Part = u64;

const SPLIT_OFF: Part = 1 << 32;

/// The Φ₁ part that keeps `b`'s id.
fn kept(b: ABlockId) -> Part {
    Part::from(b.raw())
}

/// One candidate of the sweep at level `l`.
#[derive(Clone, Copy, Debug)]
struct Cand {
    node: NodeId,
    /// Its old level-`l` block.
    old: ABlockId,
    /// Its final and Φ₁ level-(l−1) classes.
    fin_parent: ABlockId,
    phi_parent: Part,
    /// Its parents' final and Φ₁ level-(l−1) classes: ranges into
    /// `Sweep::keys` and `Sweep::phi_keys`, each sorted and deduplicated.
    keys: (u32, u32),
    phi_keys: (u32, u32),
    /// Its final and Φ₁ level-`l` classes.
    fin: ABlockId,
    phi: Part,
}

impl Cand {
    fn new(node: NodeId) -> Self {
        Cand {
            node,
            old: ABlockId::INVALID,
            fin_parent: ABlockId::INVALID,
            phi_parent: 0,
            keys: (0, 0),
            phi_keys: (0, 0),
            fin: ABlockId::INVALID,
            phi: 0,
        }
    }

    /// Whether its final or its Φ₁ class left the old block.
    fn changed(&self) -> bool {
        self.fin != self.old || self.phi != kept(self.old)
    }
}

/// An old block holding candidates at the current level.
#[derive(Clone, Copy, Debug)]
struct Held {
    block: ABlockId,
    /// Candidates among its members.
    cands: u32,
    /// Whether it has settled members too.
    settled: bool,
    /// The settled members' key set: the block's `pred_cross` keys minus
    /// `Sweep::dropped[drop.0..drop.1]`, with its size and signature.
    drop: (u32, u32),
    len: u32,
    sig: u32,
}

/// The sweep's per-update working set, kept on the index so an update
/// reuses its buffers instead of allocating them. Nothing in it is
/// indexed by node or block: every table is keyed by candidate.
#[derive(Clone, Debug, Default)]
pub(crate) struct Sweep {
    /// The previous level's candidates, sorted by node: where a parent's
    /// level-(l−1) classes are looked up.
    prev: Vec<Cand>,
    /// This level's candidates; each step sorts them as it needs.
    cur: Vec<Cand>,
    keys: Vec<ABlockId>,
    phi_keys: Vec<Part>,
    /// (old block, old parent class) of every probed parent edge.
    contrib: Vec<(ABlockId, ABlockId)>,
    /// Old blocks holding candidates, sorted by block.
    held: Vec<Held>,
    dropped: Vec<ABlockId>,
    /// A moved node's final chain, and the blocks the moves emptied.
    chain: Vec<ABlockId>,
    emptied: Vec<ABlockId>,
}

impl HeapUse for Sweep {
    fn heap_use(&self) -> usize {
        vec_cap_heap(&self.prev)
            + vec_cap_heap(&self.cur)
            + vec_cap_heap(&self.keys)
            + vec_cap_heap(&self.phi_keys)
            + vec_cap_heap(&self.contrib)
            + vec_cap_heap(&self.held)
            + vec_cap_heap(&self.dropped)
            + vec_cap_heap(&self.chain)
            + vec_cap_heap(&self.emptied)
    }
}

/// The candidate for node `n`, if `n` is one.
fn lookup(cands: &[Cand], n: NodeId) -> Option<&Cand> {
    let i = cands.binary_search_by_key(&n, |c| c.node).ok()?;
    cands.get(i)
}

/// The sub-slice `v[r.0..r.1]`.
fn range<T>(v: &[T], r: (u32, u32)) -> &[T] {
    v.get(r.0 as usize..r.1 as usize).unwrap_or_default()
}

/// Sorts and deduplicates `v[start..]` in place and returns its range.
fn sorted_set<T: Ord + Copy>(v: &mut Vec<T>, start: usize) -> (u32, u32) {
    let mut len = 0;
    if let Some(tail) = v.get_mut(start..) {
        tail.sort_unstable();
        for r in 0..tail.len() {
            if len == 0 || tail.get(r) != tail.get(len - 1) {
                tail.swap(len, r);
                len += 1;
            }
        }
    }
    v.truncate(start + len);
    (start as u32, v.len() as u32)
}

impl AkIndex {
    /// Inserts the dedge `(u, v)` and maintains the A(0)..A(k) chain
    /// (Figure 7). Returns per-update statistics (block counts refer to
    /// the level-k index).
    // xsi-lint: allow(obs-coverage, delegates to update_levels, which opens the Split/Merge spans)
    pub fn insert_edge(
        &mut self,
        g: &mut Graph,
        u: NodeId,
        v: NodeId,
        kind: EdgeKind,
    ) -> Result<UpdateStats, GraphError> {
        g.insert_edge(u, v, kind)?;
        // Largest i with v ∈ Succ(I⁽ⁱ⁾[u]) *excluding the new edge* — the
        // single (u, v) dedge is the one we skip below.
        let j0 = self.affected_from(g, u, v, true);
        self.register_edge(u, v);
        Ok(self.update_levels(g, v, j0))
    }

    /// Deletes the dedge `(u, v)` and maintains the chain.
    // xsi-lint: allow(obs-coverage, delegates to update_levels, which opens the Split/Merge spans)
    pub fn delete_edge(
        &mut self,
        g: &mut Graph,
        u: NodeId,
        v: NodeId,
    ) -> Result<(UpdateStats, EdgeKind), GraphError> {
        let kind = g.delete_edge(u, v)?;
        self.unregister_edge(u, v);
        let j0 = self.affected_from(g, u, v, false);
        Ok((self.update_levels(g, v, j0), kind))
    }

    /// Maintenance hook for an edge insertion already applied to `g` by
    /// the caller — for running several indexes over one graph. Equivalent
    /// to [`AkIndex::insert_edge`] minus the graph mutation.
    // xsi-lint: allow(obs-coverage, delegates to update_levels, which opens the Split/Merge spans)
    pub fn notify_edge_inserted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        debug_assert!(g.has_edge(u, v), "notify before mutating the graph");
        let j0 = self.affected_from(g, u, v, true);
        self.register_edge(u, v);
        self.update_levels(g, v, j0)
    }

    /// Maintenance hook for an edge deletion already applied to `g` by
    /// the caller; see [`AkIndex::notify_edge_inserted`].
    // xsi-lint: allow(obs-coverage, delegates to update_levels, which opens the Split/Merge spans)
    pub fn notify_edge_deleted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        debug_assert!(!g.has_edge(u, v), "notify after mutating the graph");
        self.unregister_edge(u, v);
        let j0 = self.affected_from(g, u, v, false);
        self.update_levels(g, v, j0)
    }

    /// Computes `i* + 2`, the first affected level: `i*` is the deepest
    /// level at which some *other* parent of `v` shares `u`'s inode.
    fn affected_from(&self, g: &Graph, u: NodeId, v: NodeId, exclude_u: bool) -> usize {
        let cu = self.chain_of(u);
        let mut istar: isize = -1;
        for p in g.pred(v) {
            if exclude_u && p == u {
                continue;
            }
            let cp = self.chain_of(p);
            let mut common: isize = -1;
            for l in 0..=self.k() {
                if cp[l] == cu[l] {
                    common = l as isize;
                } else {
                    break;
                }
            }
            istar = istar.max(common);
            if istar == self.k() as isize {
                break;
            }
        }
        (istar + 2) as usize
    }

    /// Runs the placement sweep and applies it for an update whose first
    /// affected level is `j0` (no-op when `j0 > k`).
    fn update_levels(&mut self, g: &Graph, v: NodeId, j0: usize) -> UpdateStats {
        let mut stats = UpdateStats {
            intermediate_blocks: self.block_count(),
            final_blocks: self.block_count(),
            no_op: true,
            ..UpdateStats::default()
        };
        if j0 > self.k() {
            return stats;
        }
        stats.no_op = false;
        // Refinement-chain accounting for the observability layer: the
        // update touches ranks j0 ..= k of the A(0)..A(k) chain.
        stats.levels_touched = self.k() - j0 + 1;
        let blocks_before = self.total_blocks();
        let mut sw = std::mem::take(&mut self.sweep);
        sw.prev.clear();
        {
            // One work item per level; its KernelScan is the probe of
            // the candidates' parents.
            let sp = SpanGuard::enter(SpanKind::Split);
            let mut next_part = SPLIT_OFF;
            let mut minted = 0usize;
            sw.cur.clear();
            sw.cur.push(Cand::new(v));
            for l in j0..=self.k() {
                let item = SpanGuard::enter(SpanKind::CompoundProcess);
                if l > j0 {
                    self.gather(g, &mut sw);
                }
                let probed = {
                    let probe = SpanGuard::enter(SpanKind::KernelScan);
                    let probed = self.probe(g, l, &mut sw);
                    self.hold(&mut sw);
                    probe.add_blocks(sw.held.len() as u64);
                    probe.add_elems(probed);
                    probed
                };
                let splits = self.count_parts(&mut sw, &mut next_part);
                minted += self.place(l, &mut sw);
                stats.splits += splits;
                if l == self.k() {
                    stats.intermediate_blocks += splits;
                }
                stats.queue_peak = stats.queue_peak.max(sw.cur.len());
                item.add_blocks(sw.held.len() as u64);
                item.add_elems(probed);
                item.set_queue_depth(sw.cur.len() as u64);
                // The next level looks its candidates' parents up here.
                sw.cur.sort_unstable_by_key(|c| c.node);
                std::mem::swap(&mut sw.prev, &mut sw.cur);
                if !sw.prev.iter().any(Cand::changed) {
                    // A class that did not change has no change above it
                    // (a changed node changes at every level up to k), so
                    // nothing changed at all.
                    break;
                }
            }
            sp.add_blocks(minted as u64);
            sp.set_queue_depth(stats.queue_peak as u64);
        }
        {
            let sp = SpanGuard::enter(SpanKind::Merge);
            let item = SpanGuard::enter(SpanKind::CompoundProcess);
            let (moved, released) = self.apply(g, &mut sw);
            item.add_elems(moved as u64);
            item.add_blocks(released as u64);
            drop(item);
            sp.add_blocks(released as u64);
        }
        self.sweep = sw;
        stats.final_blocks = self.block_count();
        stats.merges = (blocks_before + stats.splits)
            .checked_sub(self.total_blocks())
            .expect("invariant: Φ₁ refines the final chain, so |Φ₁| ≥ |Φ₂|");
        stats
    }

    /// Collects the candidates of a level above `j0` into `sw.cur`: every
    /// node whose final or Φ₁ class changed one level below, and their
    /// successors. No other node's class at this level can change in
    /// either chain.
    fn gather(&mut self, g: &Graph, sw: &mut Sweep) {
        let epoch = next_epoch(&mut self.epoch, &mut self.mark);
        let mark = &mut self.mark;
        let mut push = |cur: &mut Vec<Cand>, n: NodeId| {
            let m = mark
                .get_mut(n.index())
                .expect("invariant: ensure_capacity sizes the marks to the graph");
            if *m != epoch {
                *m = epoch;
                cur.push(Cand::new(n));
            }
        };
        sw.cur.clear();
        for c in sw.prev.iter().filter(|c| c.changed()) {
            push(&mut sw.cur, c.node);
            for s in g.succ(c.node) {
                push(&mut sw.cur, s);
            }
        }
    }

    /// Fills in each candidate's old block, its final and Φ₁ parent
    /// classes and its parents' classes in both chains, and records the
    /// (old block, old parent class) of every parent edge. Returns the
    /// parent edges probed.
    fn probe(&self, g: &Graph, l: usize, sw: &mut Sweep) -> u64 {
        let Sweep {
            prev,
            cur,
            keys,
            phi_keys,
            contrib,
            ..
        } = sw;
        keys.clear();
        phi_keys.clear();
        contrib.clear();
        let mut probed = 0u64;
        for c in cur.iter_mut() {
            c.old = self.block_of_at(c.node, l);
            (c.fin_parent, c.phi_parent) = match lookup(prev, c.node) {
                Some(p) => (p.fin, p.phi),
                None => {
                    let p = self
                        .tree_parent(c.old)
                        .expect("invariant: affected levels are >= 1 and have parents");
                    (p, kept(p))
                }
            };
            let (k0, p0) = (keys.len(), phi_keys.len());
            for p in g.pred(c.node) {
                probed += 1;
                let (old, fin, phi) = match lookup(prev, p) {
                    Some(q) => (q.old, q.fin, q.phi),
                    None => {
                        let b = self.block_of_at(p, l - 1);
                        (b, b, kept(b))
                    }
                };
                contrib.push((c.old, old));
                keys.push(fin);
                phi_keys.push(phi);
            }
            c.keys = sorted_set(keys, k0);
            c.phi_keys = sorted_set(phi_keys, p0);
        }
        probed
    }

    /// Sorts the candidates by old block and Φ₁ signature, and derives
    /// every held block's settled key set: a `pred_cross` key drops out
    /// when the candidates' own parent edges make up its whole count.
    fn hold(&self, sw: &mut Sweep) {
        let Sweep {
            cur,
            phi_keys,
            contrib,
            held,
            dropped,
            ..
        } = sw;
        cur.sort_unstable_by(|x, y| {
            (x.old, x.phi_parent)
                .cmp(&(y.old, y.phi_parent))
                .then_with(|| range(phi_keys, x.phi_keys).cmp(range(phi_keys, y.phi_keys)))
                .then(x.node.cmp(&y.node))
        });
        contrib.sort_unstable();
        let mut runs = contrib.chunk_by(|x, y| x == y).peekable();
        held.clear();
        dropped.clear();
        for members in cur.chunk_by(|x, y| x.old == y.old) {
            let Some(block) = members.first().map(|c| c.old) else {
                continue;
            };
            let pc = self.pred_cross(block);
            let (d0, mut len, mut sig) = (dropped.len(), pc.len() as u32, pc.key_sig());
            while let Some(run) = runs.next_if(|r| r.first().is_some_and(|e| e.0 == block)) {
                let Some(&(_, key)) = run.first() else {
                    continue;
                };
                if pc.get(key) == Some(run.len() as u32) {
                    dropped.push(key);
                    len -= 1;
                    sig = sig.wrapping_sub(key_hash(key));
                }
            }
            held.push(Held {
                block,
                cands: members.len() as u32,
                settled: self.weight(block) > members.len(),
                drop: (d0 as u32, dropped.len() as u32),
                len,
                sig,
            });
        }
    }

    /// The settled members' key set of a held block.
    fn settled_keys<'a>(
        &'a self,
        h: &Held,
        dropped: &'a [ABlockId],
    ) -> impl Iterator<Item = ABlockId> + 'a {
        let drop = range(dropped, h.drop);
        self.pred_cross(h.block)
            .keys()
            .filter(move |k| !drop.contains(k))
    }

    /// Counts Φ₁'s parts of every held block and names them (see the
    /// module docs). The candidates arrive in [`AkIndex::hold`]'s order.
    /// Returns the level's splits, Σ (parts − 1).
    fn count_parts(&self, sw: &mut Sweep, next_part: &mut Part) -> usize {
        let Sweep {
            cur,
            phi_keys,
            held,
            dropped,
            ..
        } = sw;
        let phi_keys = &*phi_keys;
        let same_part = |x: &Cand, y: &Cand| {
            x.phi_parent == y.phi_parent
                && range(phi_keys, x.phi_keys) == range(phi_keys, y.phi_keys)
        };
        let mut splits = 0;
        for (h, members) in held.iter().zip(cur.chunk_by_mut(|x, y| x.old == y.old)) {
            let settled_parent = self.tree_parent(h.block).map_or(0, kept);
            let min_node = members.iter().map(|c| c.node).min();
            let (mut parts, mut settled_part, mut smallest) = (0, None, None);
            for (p, part) in members.chunk_by(same_part).enumerate() {
                parts += 1;
                let Some(c) = part.first() else {
                    continue;
                };
                if h.settled
                    && c.phi_parent == settled_parent
                    && range(phi_keys, c.phi_keys)
                        .iter()
                        .copied()
                        .eq(self.settled_keys(h, dropped).map(kept))
                {
                    settled_part = Some(p);
                }
                if part.iter().any(|c| Some(c.node) == min_node) {
                    smallest = Some(p);
                }
            }
            if h.settled && settled_part.is_none() {
                parts += 1;
            }
            splits += parts - 1;
            let keeper = if h.settled { settled_part } else { smallest };
            for (p, part) in members.chunk_by_mut(same_part).enumerate() {
                let id = if Some(p) == keeper {
                    kept(h.block)
                } else {
                    *next_part += 1;
                    *next_part
                };
                for c in part {
                    c.phi = id;
                }
            }
        }
        splits
    }

    /// Gives every candidate its final level-`l` class. Candidates with
    /// the same final parent and key set form one class: the child of
    /// that parent whose settled members have the key set, else the old
    /// block of [`AkIndex::reusable`], else a block minted here. Returns
    /// the blocks minted.
    fn place(&mut self, l: usize, sw: &mut Sweep) -> usize {
        let Sweep {
            cur,
            keys,
            held,
            dropped,
            ..
        } = sw;
        let keys = &*keys;
        cur.sort_unstable_by(|x, y| {
            x.fin_parent
                .cmp(&y.fin_parent)
                .then_with(|| range(keys, x.keys).cmp(range(keys, y.keys)))
                .then(x.old.cmp(&y.old))
        });
        let same_class = |x: &Cand, y: &Cand| {
            x.fin_parent == y.fin_parent && range(keys, x.keys) == range(keys, y.keys)
        };
        let mut minted = 0;
        for class in cur.chunk_by_mut(same_class) {
            let Some((parent, ks)) = class.first().map(|c| (c.fin_parent, range(keys, c.keys)))
            else {
                continue;
            };
            let fin = match self.settled_twin(parent, ks, held, dropped) {
                Some(b) => b,
                None => match self.reusable(parent, class, held) {
                    Some(b) => b,
                    None => {
                        minted += 1;
                        let b = self.new_block(l as u8, self.label(parent));
                        self.link_tree(parent, b);
                        b
                    }
                },
            };
            for c in class {
                c.fin = fin;
            }
        }
        minted
    }

    /// The child of `parent` whose settled members have key set `ks`.
    /// Searches the smaller of `parent`'s children and the level-`l`
    /// successors of the key with the fewest, and rejects on key count
    /// and signature before comparing keys.
    fn settled_twin(
        &self,
        parent: ABlockId,
        ks: &[ABlockId],
        held: &[Held],
        dropped: &[ABlockId],
    ) -> Option<ABlockId> {
        // A block this update minted has no settled members yet, and no
        // settled key set names one.
        if self.weight(parent) == 0 || ks.iter().any(|&k| self.weight(k) == 0) {
            return None;
        }
        let sig = ks.iter().fold(0u32, |s, &k| s.wrapping_add(key_hash(k)));
        let is_twin = |b: ABlockId| match held.binary_search_by_key(&b, |h| h.block) {
            Ok(i) => held.get(i).is_some_and(|h| {
                h.settled
                    && h.len as usize == ks.len()
                    && h.sig == sig
                    && self.settled_keys(h, dropped).eq(ks.iter().copied())
            }),
            Err(_) => {
                let pc = self.pred_cross(b);
                self.weight(b) > 0
                    && pc.len() == ks.len()
                    && pc.key_sig() == sig
                    && pc.keys().eq(ks.iter().copied())
            }
        };
        let anchor = ks.iter().copied().min_by_key(|&k| self.succ_cross(k).len());
        match anchor {
            Some(a) if self.succ_cross(a).len() < self.child_count(parent) => self
                .succ_cross(a)
                .keys()
                .filter(|&b| self.tree_parent(b) == Some(parent))
                .find(|&b| is_twin(b)),
            _ => self.tree_children(parent).find(|&b| is_twin(b)),
        }
    }

    /// The old block a new class can keep: one under the same tree parent
    /// whose every member is in `class` (the smallest, if several).
    /// Members of `class` arrive grouped by old block, ascending.
    fn reusable(&self, parent: ABlockId, class: &[Cand], held: &[Held]) -> Option<ABlockId> {
        class.chunk_by(|x, y| x.old == y.old).find_map(|run| {
            let b = run.first()?.old;
            let h = held.get(held.binary_search_by_key(&b, |h| h.block).ok()?)?;
            let whole = !h.settled && h.cands as usize == run.len();
            (whole && self.tree_parent(b) == Some(parent)).then_some(b)
        })
    }

    /// Moves every changed node once, straight into its final chain, and
    /// releases the blocks the moves emptied, deepest first. `sw.prev`
    /// holds the last level's candidates: the level-`k` ones, among which
    /// is every node whose class changed at any level, with a new
    /// level-`k` class (or, when the sweep stopped early, none that
    /// changed). Returns the nodes moved and the blocks released.
    fn apply(&mut self, g: &Graph, sw: &mut Sweep) -> (usize, usize) {
        let Sweep {
            prev,
            chain,
            emptied,
            ..
        } = sw;
        let mut moved = 0;
        for c in prev.iter().filter(|c| c.fin != c.old) {
            // The final classes are linked under their final parents, so
            // the chain reads off the tree.
            chain.clear();
            let mut b = Some(c.fin);
            while let Some(x) = b {
                chain.push(x);
                b = self.tree_parent(x);
            }
            chain.reverse();
            self.move_node_chain(g, c.node, chain);
            moved += 1;
        }
        emptied.clear();
        for c in prev.iter().filter(|c| c.fin != c.old) {
            let mut b = Some(c.old);
            while let Some(x) = b.filter(|&x| self.weight(x) == 0) {
                emptied.push(x);
                b = self.tree_parent(x);
            }
        }
        emptied.sort_unstable_by_key(|&b| (Reverse(self.level(b)), b));
        emptied.dedup();
        for &b in emptied.iter() {
            if let Some(parent) = self.tree_parent(b) {
                self.unlink_child(parent, b);
            }
            self.release_block(b);
        }
        (moved, emptied.len())
    }

    pub(crate) fn unlink_child(&mut self, parent: ABlockId, child: ABlockId) {
        self.blocks[parent].tree_children.remove(&child);
        self.blocks[child].tree_parent = ABlockId::INVALID;
    }

    /// Registers a freshly added, edge-free node: it joins (or founds) the
    /// chain of parentless blocks with its label, preserving minimality.
    // xsi-lint: allow(obs-coverage, O(k) bookkeeping with no split/merge work; the engine-level caller opens the Op/IndexDispatch spans)
    pub fn on_node_added(&mut self, g: &Graph, n: NodeId) {
        self.ensure_capacity(g);
        debug_assert_eq!(g.in_degree(n) + g.out_degree(n), 0);
        let label = g.label(n);
        let k = self.k();
        let existing = self.blocks_at(0).find(|&b| self.label(b) == label);
        let mut parent = match existing {
            Some(b) => b,
            None => self.new_block(0, label),
        };
        self.blocks[parent].weight += 1;
        for level in 1..=k {
            let next = self
                .tree_children(parent)
                .find(|&c| self.blocks[c].pred_cross.is_empty());
            let b = match next {
                Some(b) => b,
                None => {
                    let b = self.new_block(level as u8, label);
                    self.link_tree(parent, b);
                    b
                }
            };
            self.blocks[b].weight += 1;
            parent = b;
        }
        self.node_block[n.index()] = parent;
        self.node_pos[n.index()] = self.extent(parent).len() as u32;
        self.extent_mut(parent).push(n);
    }

    /// Unregisters a node about to be removed (must be edge-free; call
    /// before `Graph::remove_node`).
    // xsi-lint: allow(obs-coverage, O(k) bookkeeping with no split/merge work; the engine-level caller opens the Op/IndexDispatch spans)
    pub fn on_node_removing(&mut self, g: &Graph, n: NodeId) {
        debug_assert_eq!(g.in_degree(n) + g.out_degree(n), 0);
        let chain = self.chain_of(n);
        let k = self.k();
        // Extent removal at level k.
        let pos = self.node_pos[n.index()] as usize;
        let extent = self.extent_mut(chain[k]);
        extent.swap_remove(pos);
        let moved = extent.get(pos).copied();
        if let Some(moved) = moved {
            self.node_pos[moved.index()] = pos as u32;
        }
        self.node_block[n.index()] = ABlockId::INVALID;
        for l in (0..=k).rev() {
            self.blocks[chain[l]].weight -= 1;
            if self.blocks[chain[l]].weight == 0 {
                if let Some(parent) = self.tree_parent(chain[l]) {
                    self.unlink_child(parent, chain[l]);
                }
                self.release_block(chain[l]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{ak_chain_violation, is_valid_ak_chain};
    use crate::reference;
    use xsi_graph::GraphBuilder;

    /// Asserts the maintained chain equals the from-scratch minimum chain
    /// at every level (Theorem 2) and that the structure is internally
    /// consistent.
    fn assert_minimum_chain(g: &Graph, idx: &AkIndex) {
        idx.check_consistency(g).unwrap();
        let chain = idx.chain_assignments(g);
        assert!(
            is_valid_ak_chain(g, &chain),
            "{:?}",
            ak_chain_violation(g, &chain)
        );
        let oracle = reference::k_bisim_chain(g, idx.k());
        for level in 0..=idx.k() {
            assert_eq!(
                reference::canonical_partition(g, &chain[level]),
                reference::canonical_partition(g, &oracle[level]),
                "level {level} not minimum\n{idx:?}"
            );
        }
    }

    fn chain_graph() -> (Graph, std::collections::BTreeMap<u64, NodeId>) {
        // Deep chains so higher k's differ: two C-D-E tails whose context
        // differs only near the root.
        GraphBuilder::new()
            .nodes(&[(1, "A"), (2, "B"), (3, "C"), (4, "D"), (5, "E")])
            .nodes(&[(6, "B"), (7, "C"), (8, "D"), (9, "E")])
            .edges(&[(1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8), (8, 9)])
            .root_to(1)
            .root_to(6)
            .build_with_ids()
    }

    #[test]
    fn insert_and_delete_track_minimum() {
        for k in 1..=4 {
            let (mut g, ids) = chain_graph();
            let mut idx = AkIndex::build(&g, k);
            assert_minimum_chain(&g, &idx);
            // Insert an IDREF deep in one tail: affects levels near k only.
            let stats = idx
                .insert_edge(&mut g, ids[&5], ids[&7], EdgeKind::IdRef)
                .unwrap();
            assert!(!stats.no_op || k == 0);
            assert_minimum_chain(&g, &idx);
            // And delete it again.
            idx.delete_edge(&mut g, ids[&5], ids[&7]).unwrap();
            assert_minimum_chain(&g, &idx);
        }
    }

    #[test]
    fn affected_level_detection() {
        let (mut g, ids) = chain_graph();
        let mut idx = AkIndex::build(&g, 3);
        // 4 and 8 are D nodes with different 2-context; E nodes 5, 9 are
        // k-bisimilar only for small k. Inserting 1→9 (9's parents gain a
        // new label class) must affect level 1 on.
        let stats = idx
            .insert_edge(&mut g, ids[&1], ids[&9], EdgeKind::IdRef)
            .unwrap();
        assert!(!stats.no_op);
        assert_minimum_chain(&g, &idx);
    }

    #[test]
    fn update_whose_levels_are_unaffected_is_noop() {
        // Two parents in the same deep class: u's class already points at v.
        let (mut g, ids) = GraphBuilder::new()
            .nodes(&[(1, "A"), (2, "A"), (3, "B")])
            .edges(&[(1, 3)])
            .root_to(1)
            .root_to(2)
            .build_with_ids();
        let mut idx = AkIndex::build(&g, 2);
        // 1 and 2 share classes at levels 0..?; 1 has child 3, 2 doesn't —
        // so at level 1 they differ... make them bisimilar first:
        idx.insert_edge(&mut g, ids[&2], ids[&3], EdgeKind::Child)
            .unwrap();
        assert_minimum_chain(&g, &idx);
        // Now 1, 2 are in one class at every level; delete 1→3: v=3 keeps
        // a parent (2) in the same class at all levels ⇒ no-op.
        let (stats, _) = idx.delete_edge(&mut g, ids[&1], ids[&3]).unwrap();
        assert!(stats.no_op);
        assert_minimum_chain(&g, &idx);
    }

    #[test]
    fn cyclic_graph_updates_track_minimum() {
        let (mut g, ids) = GraphBuilder::new()
            .nodes(&[(1, "P"), (2, "O"), (3, "P"), (4, "O")])
            .edges(&[(1, 2), (3, 4)])
            .root_to(1)
            .root_to(3)
            .build_with_ids();
        for k in 1..=3 {
            let mut idx = AkIndex::build(&g, k);
            idx.insert_edge(&mut g, ids[&2], ids[&3], EdgeKind::IdRef)
                .unwrap();
            assert_minimum_chain(&g, &idx);
            idx.insert_edge(&mut g, ids[&4], ids[&1], EdgeKind::IdRef)
                .unwrap();
            assert_minimum_chain(&g, &idx);
            idx.delete_edge(&mut g, ids[&2], ids[&3]).unwrap();
            assert_minimum_chain(&g, &idx);
            idx.delete_edge(&mut g, ids[&4], ids[&1]).unwrap();
            assert_minimum_chain(&g, &idx);
        }
    }

    #[test]
    fn node_add_remove_round_trip() {
        let (mut g, _) = chain_graph();
        let mut idx = AkIndex::build(&g, 3);
        let before = idx.canonical();
        let n = g.add_node("Z", None);
        idx.on_node_added(&g, n);
        assert_minimum_chain(&g, &idx);
        let m = g.add_node("Z", None);
        idx.on_node_added(&g, m);
        assert_eq!(idx.block_of(n), idx.block_of(m), "parentless twins share");
        assert_minimum_chain(&g, &idx);
        idx.on_node_removing(&g, m);
        g.remove_node(m).unwrap();
        idx.on_node_removing(&g, n);
        g.remove_node(n).unwrap();
        assert_eq!(idx.canonical(), before);
        assert_minimum_chain(&g, &idx);
    }

    #[test]
    fn connected_node_addition_via_edges() {
        let (mut g, ids) = chain_graph();
        let mut idx = AkIndex::build(&g, 2);
        let n = g.add_node("C", None);
        idx.on_node_added(&g, n);
        idx.insert_edge(&mut g, ids[&2], n, EdgeKind::Child)
            .unwrap();
        assert_minimum_chain(&g, &idx);
        // n now has the same 2-context as node 3 under B(2).
        assert_eq!(idx.block_of(n), idx.block_of(ids[&3]));
    }
}

#[cfg(test)]
mod sweep_tests {
    use crate::obs::span::{self, SpanKind};
    use crate::AkIndex;
    use xsi_graph::EdgeKind;
    use xsi_workload::{generate_xmark, EdgePool, XmarkParams};

    /// Every block an update mints is still live when it returns: each
    /// changed node goes straight into its final class, so nothing the
    /// update creates is merged away again. The `Split` span counts the
    /// blocks minted.
    #[test]
    fn minted_blocks_are_live_when_the_update_returns() {
        let mut g = generate_xmark(&XmarkParams::new(0.05, 1.0, 42));
        let mut pool = EdgePool::extract(&mut g, 0.2, 42);
        let mut idx = AkIndex::build(&g, 3);
        let (mut updates, mut minting) = (0, 0);
        for i in 0..2_000 {
            // Slot order is ascending, so the handles come sorted.
            let before: Vec<_> = idx.blocks.keys().collect();
            span::begin_collection();
            let stats = if i % 2 == 0 {
                let (u, v) = pool.next_insert().unwrap();
                g.insert_edge(u, v, EdgeKind::IdRef).unwrap();
                idx.notify_edge_inserted(&g, u, v)
            } else {
                let (u, v) = pool.next_delete().unwrap();
                g.delete_edge(u, v).unwrap();
                idx.notify_edge_deleted(&g, u, v)
            };
            let minted = span::end_collection().kind_counters(SpanKind::Split).blocks;
            let fresh = idx
                .blocks
                .keys()
                .filter(|b| before.binary_search(b).is_err())
                .count();
            assert_eq!(fresh as u64, minted, "op {i}: {stats:?}");
            updates += usize::from(!stats.no_op);
            minting += usize::from(minted > 0);
        }
        idx.check_consistency(&g).unwrap();
        assert!(
            updates > 500 && minting > 0,
            "{updates} updates, {minting} minting"
        );
    }
}

#[cfg(test)]
mod node_op_tests {
    use crate::{AkIndex, IndexHandle, UpdateEngine, UpdateOp};
    use xsi_graph::{EdgeKind, Graph, GraphBuilder, NodeId};

    /// An engine over `g` with the A(k) chain registered.
    fn engine_over(g: Graph, k: usize) -> (UpdateEngine, IndexHandle) {
        let mut engine = UpdateEngine::new(g);
        let h = engine.register(Box::new(AkIndex::build(engine.graph(), k)));
        (engine, h)
    }

    fn ak(engine: &UpdateEngine, h: IndexHandle) -> &AkIndex {
        engine.index(h).as_any().downcast_ref().unwrap()
    }

    /// Node deletion is a `RemoveNode` op: the engine deletes the node's
    /// edges through edge-deletion maintenance, then the node (§1).
    fn remove_node(engine: &mut UpdateEngine, node: NodeId) {
        engine.apply(&UpdateOp::RemoveNode { node }).unwrap();
    }

    #[test]
    fn delete_node_keeps_minimum_chain() {
        let (g, ids) = GraphBuilder::new()
            .nodes(&[(1, "a"), (2, "b"), (3, "b"), (4, "c")])
            .edges(&[(1, 2), (1, 3), (2, 4)])
            .idref_edges(&[(4, 3)])
            .root_to(1)
            .build_with_ids();
        for k in 1..=3 {
            let (mut engine, h) = engine_over(g.clone(), k);
            remove_node(&mut engine, ids[&2]);
            let (g, idx) = (engine.graph(), ak(&engine, h));
            idx.check_consistency(g).unwrap();
            assert_eq!(idx.canonical(), AkIndex::build(g, k).canonical());
        }
    }

    #[test]
    fn add_then_delete_node_round_trips() {
        let (g, ids) = GraphBuilder::new()
            .nodes(&[(1, "a"), (2, "b")])
            .edges(&[(1, 2)])
            .root_to(1)
            .build_with_ids();
        let (mut engine, h) = engine_over(g, 2);
        let before = ak(&engine, h).canonical();
        let n = engine.add_node("b", None);
        engine.insert_edge(ids[&1], n, EdgeKind::Child).unwrap();
        remove_node(&mut engine, n);
        let idx = ak(&engine, h);
        assert_eq!(idx.canonical(), before);
        idx.check_consistency(engine.graph()).unwrap();
    }
}
