//! Golden for the from-scratch builds: `OneIndex::build` and
//! `AkIndex::build(3)` on XMark(0.05) and IMDB(0.05) at seed 42, after
//! the same 20 % IDREF pool extraction the benchmark makes.
//!
//! Maintenance mints new block ids in the order it reads extents, so a
//! build that is faster but mints ids in another order, or stores an
//! extent in another order, changes every later update. These hashes
//! pin what maintenance and the other goldens read of a built index:
//!
//! * 1-index: every block's raw id, label, extent in stored order, and
//!   its parent and child `(raw id, count)` lists;
//! * A(3): per level, every block's raw id, label, tree parent, weight
//!   and cross parents, and at level k its extent and intra successors.
//!
//! Only a map's representation (inline or spilled) is left free.
//!
//! Both snapshot decoders must restore the built index exactly: same
//! raw ids, same extent order, same counts.

use xsi_core::{AkIndex, OneIndex};
use xsi_graph::Graph;
use xsi_workload::{generate_imdb, generate_xmark, EdgePool, ImdbParams, XmarkParams};

const SEED: u64 = 42;
const SCALE: f64 = 0.05;
const K: usize = 3;

/// 64-bit FNV-1a over little-endian `u64` words.
fn fnv(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Everything the golden pins of a 1-index, as words.
fn one_words(idx: &OneIndex) -> Vec<u64> {
    let p = idx.partition();
    let mut w = vec![p.block_count() as u64];
    for b in p.blocks() {
        w.push(u64::from(b.raw()));
        w.push(p.label(b).index() as u64);
        w.push(p.size(b) as u64);
        w.extend(p.extent(b).iter().map(|n| n.index() as u64));
        for side in [
            p.parents(b).collect::<Vec<_>>(),
            p.children(b).collect::<Vec<_>>(),
        ] {
            w.push(side.len() as u64);
            for (x, count) in side {
                w.push(u64::from(x.raw()));
                w.push(u64::from(count));
            }
        }
    }
    w
}

/// Everything the golden pins of an A(k)-index, as words.
fn ak_words(idx: &AkIndex) -> Vec<u64> {
    let mut w = vec![idx.k() as u64];
    for level in 0..=idx.k() {
        w.push(idx.level_count(level) as u64);
        for b in idx.blocks_at(level) {
            w.push(u64::from(b.raw()));
            w.push(idx.label(b).index() as u64);
            w.push(idx.tree_parent(b).map_or(u64::MAX, |p| u64::from(p.raw())));
            w.push(idx.weight(b) as u64);
            let cross: Vec<u64> = idx.cross_parents(b).map(|p| u64::from(p.raw())).collect();
            w.push(cross.len() as u64);
            w.extend(cross);
            if level == idx.k() {
                w.push(idx.extent(b).len() as u64);
                w.extend(idx.extent(b).iter().map(|n| n.index() as u64));
                let succ: Vec<u64> = idx.isucc(b).map(|c| u64::from(c.raw())).collect();
                w.push(succ.len() as u64);
                w.extend(succ);
            }
        }
    }
    w
}

/// The hashes of one dataset's builds.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    one: u64,
    ak: u64,
}

fn pooled(mut g: Graph) -> Graph {
    EdgePool::extract(&mut g, 0.2, SEED);
    g
}

fn xmark() -> Graph {
    pooled(generate_xmark(&XmarkParams::new(SCALE, 1.0, SEED)))
}

fn imdb() -> Graph {
    pooled(generate_imdb(&ImdbParams::new(SCALE, SEED)))
}

/// Builds both families, checks that each snapshot decodes to exactly
/// the built index, and hashes the builds.
fn builds(g: &Graph) -> Digest {
    let one = OneIndex::build(g);
    one.partition().check_consistency(g).unwrap();
    let one_built = one_words(&one);
    let one_decoded = OneIndex::from_snapshot(g, &one.to_snapshot()).unwrap();
    assert!(
        one_words(&one_decoded) == one_built,
        "the 1-index snapshot decodes to another index"
    );

    let ak = AkIndex::build(g, K);
    ak.check_consistency(g).unwrap();
    let ak_built = ak_words(&ak);
    let ak_decoded = AkIndex::from_snapshot(g, &ak.to_snapshot()).unwrap();
    assert!(
        ak_words(&ak_decoded) == ak_built,
        "the A(k) snapshot decodes to another index"
    );

    Digest {
        one: fnv(&one_built),
        ak: fnv(&ak_built),
    }
}

#[test]
fn xmark_builds_match_the_golden() {
    assert_eq!(builds(&xmark()), XMARK_GOLDEN);
}

#[test]
fn imdb_builds_match_the_golden() {
    assert_eq!(builds(&imdb()), IMDB_GOLDEN);
}

const XMARK_GOLDEN: Digest = Digest {
    one: 13951042196153301374,
    ak: 15560882451284359972,
};

const IMDB_GOLDEN: Digest = Digest {
    one: 12402901204645379357,
    ak: 7567798207851350476,
};
