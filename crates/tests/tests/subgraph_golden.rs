//! Golden for Figure 6 subgraph addition on real data: 50 XMark
//! `open_auction` subtrees (scale 0.05, cyclicity 1.0) and 50 DBLP
//! `paper` subtrees (acyclic; papers carry several IDREFs into their
//! root and `cite` IDREFs out) are carved out with plain graph calls,
//! every family is built from scratch on what remains, and the subtrees
//! are added back one at a time.
//!
//! For the split/merge 1-index and the propagate family every
//! addition's [`UpdateStats`] and every live node's block raw id are
//! hashed after each addition; block ids are recycled slot indexes, so
//! any change to which blocks split or merge, or in which order, moves
//! them. For A(3) the canonical extents are hashed: Theorem 2 makes
//! them independent of the order in which the addition's edges arrive.
//!
//! The carving deletes each subtree's members in reverse local order
//! and the subtrees are added back in reverse carving order, so every
//! re-added node gets its old id back (the graph recycles ids last in,
//! first out) and every boundary edge finds its host alive, including
//! a `cite` into a paper carved after it.

use xsi_core::{AkIndex, OneIndex, PropagateOneIndex, StructuralIndex, UpdateEngine, UpdateStats};
use xsi_graph::{extract_subtree, DetachedSubgraph, Graph, NodeId};
use xsi_workload::{collect_subtree_roots, generate_dblp, generate_xmark, DblpParams, XmarkParams};

const SEED: u64 = 42;
const SUBTREES: usize = 50;
const K: usize = 3;

/// 64-bit FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Every field but `intermediate_blocks`: the size before the merge
    /// phase is a per-op reading that an addition folds differently
    /// depending on how its parts are booked, while the other fields
    /// are totals, maxima or end states of the whole addition.
    fn stats(&mut self, s: &UpdateStats) {
        let UpdateStats {
            splits,
            merges,
            intermediate_blocks: _,
            final_blocks,
            no_op,
            queue_peak,
            levels_touched,
        } = *s;
        for x in [
            splits,
            merges,
            final_blocks,
            usize::from(no_op),
            queue_peak,
            levels_touched,
        ] {
            self.word(x as u64);
        }
    }

    fn blocks(&mut self, g: &Graph, idx: &OneIndex) {
        for n in g.nodes() {
            self.word(u64::from(idx.block_of(n).raw()));
        }
    }

    fn extents(&mut self, extents: &[Vec<NodeId>]) {
        for e in extents {
            self.word(e.len() as u64);
            for n in e {
                self.word(u64::from(n.0));
            }
        }
    }
}

/// The hashes of one dataset's run.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    one_stats: u64,
    one_blocks: u64,
    prop_stats: u64,
    prop_blocks: u64,
    ak_extents: u64,
}

/// Extracts each subtree from the graph left by the previous ones and
/// deletes it with plain graph calls (no index attached): every member,
/// in reverse local order, loses its edges and is removed.
fn carve(g: &mut Graph, roots: &[NodeId]) -> Vec<DetachedSubgraph> {
    let mut subs = Vec::with_capacity(roots.len());
    for &r in roots {
        let (sub, members) = extract_subtree(g, r);
        for &m in members.iter().rev() {
            let parents: Vec<NodeId> = g.pred(m).collect();
            for p in parents {
                g.delete_edge(p, m).expect("incident edge");
            }
            let children: Vec<NodeId> = g.succ(m).collect();
            for c in children {
                g.delete_edge(m, c).expect("incident edge");
            }
            g.remove_node(m).expect("edgeless member");
        }
        subs.push(sub);
    }
    subs
}

/// Which 1-index maintainer a run adds through.
#[derive(Clone, Copy)]
enum OneFamily {
    SplitMerge,
    Propagate,
}

/// The 1-index inside either registered 1-index family.
fn one_of(idx: &dyn StructuralIndex) -> &OneIndex {
    let any = idx.as_any();
    any.downcast_ref::<OneIndex>()
        .or_else(|| {
            any.downcast_ref::<PropagateOneIndex>()
                .map(PropagateOneIndex::inner)
        })
        .expect("a 1-index family")
}

/// Adds the subtrees back through an engine holding one 1-index family
/// built on `g`; returns the stats and block hashes.
fn re_add_one(g: Graph, subs: &[DetachedSubgraph], family: OneFamily) -> (u64, u64) {
    let one = OneIndex::build(&g);
    let mut engine = UpdateEngine::new(g);
    let h = match family {
        OneFamily::SplitMerge => engine.register(Box::new(one)),
        OneFamily::Propagate => engine.register(Box::new(PropagateOneIndex(one))),
    };
    let (mut stats, mut blocks) = (Fnv::new(), Fnv::new());
    for sub in subs.iter().rev() {
        let s = engine.add_subgraph(sub).expect("re-addition").stats;
        stats.stats(&s);
        blocks.blocks(engine.graph(), one_of(engine.index(h)));
    }
    let (g, idx) = (engine.graph(), one_of(engine.index(h)));
    idx.partition().check_consistency(g).unwrap();
    if let OneFamily::SplitMerge = family {
        assert!(xsi_core::is_minimal_1index(g, idx.partition()));
    }
    (stats.0, blocks.0)
}

/// Adds the subtrees back through an engine holding an A(k) index built
/// on `g`; returns the extent hash.
fn re_add_ak(g: Graph, subs: &[DetachedSubgraph]) -> u64 {
    let mut engine = UpdateEngine::new(g);
    let h = engine.register(Box::new(AkIndex::build(engine.graph(), K)));
    let ak = |e: &UpdateEngine| -> Vec<Vec<NodeId>> {
        let idx = e.index(h).as_any().downcast_ref::<AkIndex>();
        idx.expect("the A(k) index").canonical()
    };
    let mut extents = Fnv::new();
    for sub in subs.iter().rev() {
        engine.add_subgraph(sub).expect("re-addition");
        extents.extents(&ak(&engine));
    }
    assert_eq!(ak(&engine), AkIndex::build(engine.graph(), K).canonical());
    extents.0
}

fn run(mut g: Graph, label: &str) -> Digest {
    let original_nodes = g.node_count();
    let roots = collect_subtree_roots(&g, label, SUBTREES, SEED);
    assert_eq!(roots.len(), SUBTREES);
    let subs = carve(&mut g, &roots);
    // The workload reaches every part of Figure 6: several edges into
    // a subtree root, and boundary edges out of the subtree.
    assert!(subs.iter().any(|s| s.incoming.len() > 1));
    assert!(subs.iter().any(|s| !s.outgoing.is_empty()));
    let (one_stats, one_blocks) = re_add_one(g.clone(), &subs, OneFamily::SplitMerge);
    let (prop_stats, prop_blocks) = re_add_one(g.clone(), &subs, OneFamily::Propagate);
    let ak_extents = re_add_ak(g.clone(), &subs);
    assert!(g.node_count() < original_nodes);
    Digest {
        one_stats,
        one_blocks,
        prop_stats,
        prop_blocks,
        ak_extents,
    }
}

#[test]
fn xmark_open_auction_re_addition() {
    let g = generate_xmark(&XmarkParams::new(0.05, 1.0, SEED));
    assert_eq!(
        run(g, "open_auction"),
        Digest {
            one_stats: 0x246d_59cd_d019_490e,
            one_blocks: 0x7be3_21c5_7408_12ce,
            prop_stats: 0x0019_61e1_9248_8200,
            prop_blocks: 0x1f6c_b05f_bc70_b2d2,
            ak_extents: 0x30d3_3b8a_583e_7b81,
        }
    );
}

#[test]
fn dblp_paper_re_addition() {
    let g = generate_dblp(&DblpParams::new(0.02, SEED));
    assert_eq!(
        run(g, "paper"),
        Digest {
            one_stats: 0xd932_c3c1_a687_8d3a,
            one_blocks: 0x724f_cf4a_741a_07ee,
            prop_stats: 0xc3f8_47b3_3fcf_a031,
            prop_blocks: 0xa2e8_46ba_98d1_34a8,
            ak_extents: 0x6d0c_a4c2_b56d_84f4,
        }
    );
}
