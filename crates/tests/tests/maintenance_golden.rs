//! Golden for maintenance output: seeded pooled IDREF churn on XMark and
//! IMDB (scale 0.05), applied to a 1-index and an A(3)-index over one
//! graph. Every op's `UpdateStats` is hashed, and every
//! [`SNAPSHOT_EVERY`] ops so is every live node's block raw id in the
//! 1-index and at each A(3) level, and each A(3) level's canonical
//! partition.
//!
//! `obs_golden.rs` pins counts only. This golden also pins which blocks
//! merge in which order and which block survives (block ids are
//! recycled slot indexes, so any change to merge order or survivor
//! choice moves them), so a change that claims to alter only the speed
//! of maintenance must leave every hash unchanged.
//!
//! The A(3) hashes are split by what they depend on. `ak_paper` holds
//! the paper's per-update counts (every `UpdateStats` field but
//! `queue_peak`) and `ak_canon` the chain itself as node sets; both are
//! fixed by Theorem 2 and the definitions of Φ₀, Φ₁ and Φ₂, whatever
//! the algorithm. `ak_queue_peak` (the maintainer's work-set peak) and
//! `ak_blocks` (raw slot ids) pin how the maintainer gets there.

use xsi_core::reference::canonical_partition;
use xsi_core::{AkIndex, OneIndex, UpdateStats};
use xsi_graph::{EdgeKind, Graph};
use xsi_workload::{generate_imdb, generate_xmark, EdgePool, ImdbParams, XmarkParams};

const SEED: u64 = 42;
const SCALE: f64 = 0.05;
/// Single edge updates per dataset (alternating pooled insert/delete).
const OPS: usize = 4_000;
const SNAPSHOT_EVERY: usize = 250;
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

    fn stats(&mut self, s: &UpdateStats) {
        for x in fields(s) {
            self.word(x);
        }
    }

    /// Every field but `queue_peak`, in the same order.
    fn paper(&mut self, s: &UpdateStats) {
        for (i, x) in fields(s).into_iter().enumerate() {
            if i != QUEUE_PEAK {
                self.word(x);
            }
        }
    }
}

/// Where [`fields`] puts `queue_peak`.
const QUEUE_PEAK: usize = 5;

fn fields(s: &UpdateStats) -> [u64; 7] {
    // Destructured so that a new field fails to compile here instead of
    // silently escaping the golden.
    let UpdateStats {
        splits,
        merges,
        intermediate_blocks,
        final_blocks,
        no_op,
        queue_peak,
        levels_touched,
    } = *s;
    [
        splits,
        merges,
        intermediate_blocks,
        final_blocks,
        usize::from(no_op),
        queue_peak,
        levels_touched,
    ]
    .map(|x| x as u64)
}

/// The hashes of one dataset's run.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    one_stats: u64,
    one_blocks: u64,
    ak_paper: u64,
    ak_queue_peak: u64,
    ak_canon: u64,
    ak_blocks: u64,
}

/// The raw block ids of every live node.
fn snapshot(g: &Graph, one: &OneIndex, ak: &AkIndex, digest: &mut (Fnv, Fnv)) {
    for n in g.nodes() {
        digest.0.word(u64::from(one.block_of(n).raw()));
        for level in 0..=ak.k() {
            digest.1.word(u64::from(ak.block_of_at(n, level).raw()));
        }
    }
}

/// Each A(k) level's canonical partition: sorted extents of node ids,
/// independent of block ids and of the order the ops ran in.
fn canon(g: &Graph, ak: &AkIndex, digest: &mut Fnv) {
    for level in 0..=ak.k() {
        let classes = canonical_partition(g, &ak.assignment(g, level));
        digest.word(classes.len() as u64);
        for extent in classes {
            digest.word(extent.len() as u64);
            for n in extent {
                digest.word(n.index() as u64);
            }
        }
    }
}

fn churn(mut g: Graph) -> Digest {
    let mut pool = EdgePool::extract(&mut g, 0.2, SEED);
    let mut one = OneIndex::build(&g);
    let mut ak = AkIndex::build(&g, K);
    let (mut one_stats, mut ak_paper, mut ak_queue_peak) = (Fnv::new(), Fnv::new(), Fnv::new());
    let (mut blocks, mut ak_canon) = ((Fnv::new(), Fnv::new()), Fnv::new());
    let mut applied = 0usize;
    let mut merging = (0usize, 0usize);
    while applied < OPS {
        let (one_s, ak_s) = if applied.is_multiple_of(2) {
            let (u, v) = pool.next_insert().expect("the pool holds edges");
            g.insert_edge(u, v, EdgeKind::IdRef).expect("pooled insert");
            (
                one.notify_edge_inserted(&g, u, v),
                ak.notify_edge_inserted(&g, u, v),
            )
        } else {
            let (u, v) = pool.next_delete().expect("the graph holds IDREFs");
            g.delete_edge(u, v).expect("pooled delete");
            (
                one.notify_edge_deleted(&g, u, v),
                ak.notify_edge_deleted(&g, u, v),
            )
        };
        merging.0 += usize::from(one_s.merges > 0);
        merging.1 += usize::from(ak_s.merges > 0);
        one_stats.stats(&one_s);
        ak_paper.paper(&ak_s);
        ak_queue_peak.word(ak_s.queue_peak as u64);
        applied += 1;
        if applied.is_multiple_of(SNAPSHOT_EVERY) {
            snapshot(&g, &one, &ak, &mut blocks);
            canon(&g, &ak, &mut ak_canon);
        }
    }
    assert!(
        merging.0 > OPS / 20 && merging.1 > OPS / 20,
        "the churn must exercise the merge phase of both families ({merging:?} merging ops)"
    );
    one.partition().check_consistency(&g).unwrap();
    ak.check_consistency(&g).unwrap();
    Digest {
        one_stats: one_stats.0,
        one_blocks: blocks.0 .0,
        ak_paper: ak_paper.0,
        ak_queue_peak: ak_queue_peak.0,
        ak_canon: ak_canon.0,
        ak_blocks: blocks.1 .0,
    }
}

#[test]
fn xmark_churn_matches_the_golden() {
    let g = generate_xmark(&XmarkParams::new(SCALE, 1.0, SEED));
    assert_eq!(churn(g), XMARK_GOLDEN);
}

#[test]
fn imdb_churn_matches_the_golden() {
    let g = generate_imdb(&ImdbParams::new(SCALE, SEED));
    assert_eq!(churn(g), IMDB_GOLDEN);
}

const XMARK_GOLDEN: Digest = Digest {
    one_stats: 14114151820143498651,
    one_blocks: 5739751325310832202,
    ak_paper: 2104919047514403285,
    ak_queue_peak: 2652406363279528639,
    ak_canon: 2642567046976580719,
    ak_blocks: 572214714496414101,
};

const IMDB_GOLDEN: Digest = Digest {
    one_stats: 3943730422331924785,
    one_blocks: 8790579543647160497,
    ak_paper: 8991187754618114113,
    ak_queue_peak: 7320333936017410730,
    ak_canon: 18176552022961081127,
    ak_blocks: 16265678776127707143,
};
