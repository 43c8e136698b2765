//! Golden for index-assisted query answers: seeded pooled IDREF churn
//! on XMark and IMDB (scale 0.05) through an [`UpdateEngine`] holding a
//! 1-index, an A(2)-index and an A(3)-index, then every query of the
//! dataset's set evaluated by [`eval_index_raw`] over each index's live
//! [`xsi_core::StructuralIndex::query_view`] and over its frozen
//! snapshot.
//!
//! The updates go through [`UpdateEngine::apply_batch`] in batches of
//! at most [`BATCH`] ops: this crate arms the engine's `paranoid`
//! self-check, which runs once per engine call, and 2,000 single-op
//! calls would spend minutes in it.
//!
//! `eval_index_raw` is the raw block walk: beyond an A(k) view's
//! precision horizon its answer is a superset of the true one, and that
//! superset is pinned here too. No other test would see a change in the
//! walk's semantics there: `eval_index` validates the superset away, and
//! the freeze checks compare two views through the same walk. A change
//! that claims to alter only the speed of query evaluation must leave
//! every hash unchanged.

use xsi_core::{AkIndex, NodeRef, OneIndex, UpdateEngine, UpdateOp};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_query::{eval_index_raw, PathExpr};
use xsi_workload::{generate_imdb, generate_xmark, EdgePool, ImdbParams, XmarkParams};

const SEED: u64 = 42;
const SCALE: f64 = 0.05;
/// Single edge updates per dataset (alternating pooled insert/delete).
const OPS: usize = 2_000;
/// Most ops per `apply_batch` call.
const BATCH: usize = 250;

/// The XMark query set of the benchmark's workloads, plus `//*` and a
/// path longer than the A(3) horizon that crosses an IDREF.
const XMARK_QUERIES: [&str; 18] = [
    "/site/people/person",
    "/site/open_auctions/open_auction",
    "/site/catgraph/edge",
    "/site/people",
    "/site/regions/europe/item",
    "/site/categories/category/name",
    "/site/closed_auctions/closed_auction/price",
    "/site/regions/*/item/name",
    "//person/name",
    "//open_auction/bidder/personref/person",
    "//item//text",
    "//watch/open_auction/seller",
    "//closed_auction/buyer/person/watches",
    "//mail/from",
    "//profile/interest/category",
    "//seller/person/name",
    "//*",
    "/site/open_auctions/open_auction/bidder/personref/person/name",
];

/// The IMDB query set of the benchmark's workloads, plus `//*` and a
/// path longer than the A(3) horizon that crosses IDREFs both ways.
const IMDB_QUERIES: [&str; 18] = [
    "/imdb/movies/movie",
    "/imdb/people/person",
    "/imdb/people",
    "/imdb/movies",
    "/imdb/movies/movie/title",
    "/imdb/movies/movie/cast/actor",
    "/imdb/people/person/filmography/acted_in",
    "/imdb/movies/movie/releases/release",
    "//movie/title",
    "//cast/actor/person/name",
    "//filmography/acted_in/movie/title",
    "//sequel_of/movie/genre",
    "//person/biography",
    "//movie//release",
    "//acted_in/movie/cast/actor",
    "//actor/person/filmography/acted_in/movie",
    "//*",
    "/imdb/movies/movie/cast/actor/person/filmography/acted_in/movie/title",
];

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

    fn answer(&mut self, answer: &[NodeId]) {
        self.word(answer.len() as u64);
        for n in answer {
            self.word(u64::from(n.0));
        }
    }
}

/// Per index (1-index, A(2), A(3)): the hash of every answer over the
/// live view and over the frozen snapshot, and the total answer size
/// (a readable sanity check that the walks do real work).
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    live: [u64; 3],
    frozen: [u64; 3],
    answer_nodes: [usize; 3],
}

fn apply(engine: &mut UpdateEngine, batch: &mut Vec<UpdateOp>) {
    let result = engine.apply_batch(batch).expect("pooled batch applies");
    assert_eq!(result.ops_applied, batch.len());
    batch.clear();
}

fn churn_and_query(mut g: Graph, queries: &[&str]) -> Digest {
    let exprs: Vec<PathExpr> = queries
        .iter()
        .map(|q| PathExpr::parse(q).expect("golden queries parse"))
        .collect();
    let mut pool = EdgePool::extract(&mut g, 0.2, SEED);
    let mut engine = UpdateEngine::new(g);
    let handles = [
        engine.register(Box::new(OneIndex::build(engine.graph()))),
        engine.register(Box::new(AkIndex::build(engine.graph(), 2))),
        engine.register(Box::new(AkIndex::build(engine.graph(), 3))),
    ];
    // A batch runs its inserts before its deletes, which matches the
    // op order unless an edge deleted in the batch is drawn for insertion
    // again; such an insert starts a new batch.
    let mut batch: Vec<UpdateOp> = Vec::new();
    for op in 0..OPS {
        let next = if op % 2 == 0 {
            let (u, v) = pool.next_insert().expect("the pool holds edges");
            let reinserted = batch
                .iter()
                .any(|o| matches!(*o, UpdateOp::DeleteEdge { from, to } if (from, to) == (u, v)));
            if reinserted {
                apply(&mut engine, &mut batch);
            }
            UpdateOp::InsertEdge {
                from: NodeRef::Existing(u),
                to: NodeRef::Existing(v),
                kind: EdgeKind::IdRef,
            }
        } else {
            let (from, to) = pool.next_delete().expect("the graph holds IDREFs");
            UpdateOp::DeleteEdge { from, to }
        };
        batch.push(next);
        if batch.len() == BATCH {
            apply(&mut engine, &mut batch);
        }
    }
    apply(&mut engine, &mut batch);
    let snaps = engine.freeze();
    let mut digest = Digest {
        live: [0; 3],
        frozen: [0; 3],
        answer_nodes: [0; 3],
    };
    for (i, &h) in handles.iter().enumerate() {
        let view = engine.index(h).query_view(engine.graph());
        let snap = snaps[i].as_ref().expect("both families freeze");
        let (mut live, mut frozen) = (Fnv::new(), Fnv::new());
        for expr in &exprs {
            let answer = eval_index_raw(&*view, expr);
            digest.answer_nodes[i] += answer.len();
            live.answer(&answer);
            frozen.answer(&eval_index_raw(snap, expr));
        }
        digest.live[i] = live.0;
        digest.frozen[i] = frozen.0;
    }
    digest
}

#[test]
fn xmark_answers_match_the_golden() {
    let g = generate_xmark(&XmarkParams::new(SCALE, 1.0, SEED));
    assert_eq!(churn_and_query(g, &XMARK_QUERIES), XMARK_GOLDEN);
}

#[test]
fn imdb_answers_match_the_golden() {
    let g = generate_imdb(&ImdbParams::new(SCALE, SEED));
    assert_eq!(churn_and_query(g, &IMDB_QUERIES), IMDB_GOLDEN);
}

const XMARK_GOLDEN: Digest = Digest {
    live: [
        8046422108253854530,
        8046422108253854530,
        8046422108253854530,
    ],
    frozen: [
        8046422108253854530,
        8046422108253854530,
        8046422108253854530,
    ],
    answer_nodes: [10424, 10424, 10424],
};

const IMDB_GOLDEN: Digest = Digest {
    live: [
        17627542769335372312,
        9240721717666788266,
        2947807202841791672,
    ],
    frozen: [
        17627542769335372312,
        9240721717666788266,
        2947807202841791672,
    ],
    answer_nodes: [21163, 21361, 21193],
};
