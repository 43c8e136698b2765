//! The four workloads. Each is a closed loop with one client — the
//! system is an embedded single-writer library, so the next request is
//! issued only when the previous one returned.

use std::collections::VecDeque;

use crate::input::{Dataset, Input};
use crate::run::{self, drop_in, query_round, Ctx, EdgeOp, Snapshots, Sut, Verdict, K};
use crate::trace::Tracer;
use xsi_core::{IndexSnapshot, NodeRef, StructuralIndex, UpdateOp};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_workload::{EdgePool, SplitMix64};

/// Share of IDREF edges moved into the insert/delete pool (the paper's
/// Section 7 protocol).
const POOL_FRACTION: f64 = 0.2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Churn,
    Serve,
    Cold,
}

/// A workload's fixed shape and sizes.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub dataset: Dataset,
    pub with_ak: bool,
    /// Untimed loop steps run before measuring.
    pub warmup: usize,
    /// Loop steps measured per second of `--seconds`, calibrated so the
    /// timed loop lasts about `--seconds` on a 2-vCPU x86-64 container.
    pub steps_per_s: f64,
    /// What one loop step, the primary and the secondary operation are.
    pub step: &'static str,
    pub primary: &'static str,
    pub secondary: &'static str,
}

pub const PLANS: [Plan; 4] = [
    Plan {
        name: "xmark_churn",
        why: "Fig. 11 regime: pooled IDREF insert/delete on XMark(1.0) through the engine with 1-index + A(3); working set larger than cache",
        kind: Kind::Churn,
        dataset: Dataset::Xmark(1.0),
        with_ak: true,
        warmup: 2_000,
        steps_per_s: 4_500.0,
        step: "edge update",
        primary: "engine insert_edge",
        secondary: "engine delete_edge",
    },
    Plan {
        name: "imdb_churn",
        why: "clustered short cycles and large extents make splitter scans dominate; 1-index only, so A(k)-only changes must not move it",
        kind: Kind::Churn,
        dataset: Dataset::Imdb(1.0),
        with_ak: false,
        warmup: 1_000,
        steps_per_s: 1_400.0,
        step: "edge update",
        primary: "engine insert_edge",
        secondary: "engine delete_edge",
    },
    Plan {
        name: "serve_mixed",
        why: "reads beside writes on an in-cache XMark(0.2): batches, node add/remove, freeze with live snapshots, and path queries",
        kind: Kind::Serve,
        dataset: Dataset::Xmark(0.2),
        with_ak: true,
        warmup: 20,
        steps_per_s: 60.0,
        step: "round",
        primary: "commit (apply_batch + freeze)",
        secondary: "read: the query set on the fresh snapshot (eval_index_raw)",
    },
    Plan {
        name: "cold_start",
        why: "the load and restart path (parse, 1-index and A(3) builds, snapshot decode) that no maintenance touches",
        kind: Kind::Cold,
        dataset: Dataset::Xmark(1.0),
        with_ak: true,
        warmup: 2,
        steps_per_s: 1.5,
        step: "cold build + restart",
        primary: "cold build (parse + build + register)",
        secondary: "restart (parse + from_snapshot + register)",
    },
];

impl Plan {
    pub fn by_name(name: &str) -> Option<Plan> {
        PLANS.iter().copied().find(|p| p.name == name)
    }

    /// The same plan over a document of another generator scale
    /// (tests run every workload at a tiny scale).
    pub fn at_scale(mut self, scale: f64) -> Plan {
        self.dataset = match self.dataset {
            Dataset::Xmark(_) => Dataset::Xmark(scale),
            Dataset::Imdb(_) => Dataset::Imdb(scale),
        };
        self
    }

    /// Loop steps in a timed loop of `seconds`.
    pub fn timed_steps(&self, seconds: f64) -> usize {
        ((seconds * self.steps_per_s).round() as usize).max(1)
    }

    pub fn make(&self, seed: u64) -> Box<dyn Workload> {
        match self.kind {
            Kind::Churn => Box::new(Churn {
                with_ak: self.with_ak,
                seed,
                sut: None,
                pool: None,
                insert_next: true,
            }),
            Kind::Serve => Box::new(Serve::new(self.with_ak, seed)),
            Kind::Cold => Box::new(Cold {
                with_ak: self.with_ak,
                snapshots: None,
                built: None,
                restored: None,
            }),
        }
    }
}

/// One workload's state machine.
pub trait Workload {
    /// The system's set-up from the generated input. Returns the time
    /// the system's calls took (benchmark-side preparation excluded).
    fn setup(&mut self, input: &Input, tr: &mut Tracer) -> Result<u64, String>;

    /// Runs the next `steps` loop steps of the workload's stream,
    /// pushing primary/secondary latencies into `ctx`.
    fn run(&mut self, input: &Input, steps: usize, ctx: &mut Ctx);

    /// An untimed check between blocks of the timed loop.
    fn checkpoint(&mut self, _input: &Input, _ctx: &mut Ctx) {}

    /// The engine the end-of-run verification checks.
    fn sut(&mut self) -> &mut Sut;

    fn verify(&mut self, input: &Input, seed: u64, ctx: &mut Ctx) -> Verdict {
        run::verify(self.sut(), &input.queries, seed, ctx)
    }

    /// The graph and indexes at the point the stream's logged part
    /// starts, taken apart for the direct replays.
    fn origin(&mut self, input: &Input, tr: &mut Tracer) -> Result<Parts, String>;
}

/// A graph and the indexes over it, taken out of an engine.
pub type Parts = (Graph, Vec<Box<dyn StructuralIndex>>);

fn into_parts(sut: Option<Sut>, tr: &mut Tracer) -> Parts {
    let sut = sut.expect("set up before use");
    tr.time("engine.into_parts", || sut.engine.into_parts()).0
}

fn get(sut: &mut Option<Sut>) -> &mut Sut {
    sut.as_mut().expect("set up before use")
}

/// Parse, pool extraction (benchmark-side, untimed), build and register.
fn load_pooled(
    input: &Input,
    with_ak: bool,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(Sut, EdgePool, u64), String> {
    let (mut g, parse_ns) = run::parse(&input.doc, tr)?;
    let (pool, _) = tr.time("bench.edge_pool", || {
        EdgePool::extract(&mut g, POOL_FRACTION, seed)
    });
    let (sut, build_ns) = Sut::build(g, with_ak, tr);
    Ok((sut, pool, parse_ns + build_ns))
}

/// `xmark_churn` / `imdb_churn`: alternating pooled IDREF inserts and
/// deletes, one engine call each.
struct Churn {
    with_ak: bool,
    seed: u64,
    sut: Option<Sut>,
    pool: Option<EdgePool>,
    insert_next: bool,
}

impl Workload for Churn {
    fn setup(&mut self, input: &Input, tr: &mut Tracer) -> Result<u64, String> {
        let (sut, pool, ns) = load_pooled(input, self.with_ak, self.seed, tr)?;
        self.sut = Some(sut);
        self.pool = Some(pool);
        Ok(ns)
    }

    fn run(&mut self, _input: &Input, steps: usize, ctx: &mut Ctx) {
        let sut = get(&mut self.sut);
        let pool = self.pool.as_mut().expect("set up before use");
        for _ in 0..steps {
            let insert = self.insert_next;
            self.insert_next = !insert;
            let op = if insert {
                pool.next_insert().map(|(u, v)| EdgeOp::Insert(u, v))
            } else {
                pool.next_delete().map(|(u, v)| EdgeOp::Delete(u, v))
            };
            let Some(op) = op else {
                ctx.fail("edge pool exhausted".into());
                continue;
            };
            if let Some(ns) = sut.edge_op(op, ctx) {
                if insert {
                    ctx.primary.push(ns);
                } else {
                    ctx.secondary.push(ns);
                }
                ctx.steps.push(ns);
            }
        }
    }

    fn sut(&mut self) -> &mut Sut {
        get(&mut self.sut)
    }

    fn origin(&mut self, _input: &Input, tr: &mut Tracer) -> Result<Parts, String> {
        Ok(into_parts(self.sut.take(), tr))
    }
}

/// Pooled insertions and deletions per serving round.
const SERVE_INSERTS: usize = 32;
const SERVE_DELETES: usize = 32;
/// Rounds a fragment lives before its removal.
const FRAGMENT_LIFETIME: usize = 8;

/// An `open_auction`-shaped fragment: labels, tree edges as (child,
/// parent) positions, and the positions holding IDREFs to a person or
/// an item.
const FRAGMENT_LABELS: [&str; 11] = [
    "open_auction",
    "initial",
    "bidder",
    "date",
    "increase",
    "personref",
    "current",
    "itemref",
    "seller",
    "annotation",
    "quantity",
];
const FRAGMENT_TREE: [(usize, usize); 10] = [
    (1, 0),
    (2, 0),
    (3, 2),
    (4, 2),
    (5, 2),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
];
const FRAGMENT_PERSON_REFS: [usize; 2] = [5, 8];
const FRAGMENT_ITEM_REF: usize = 7;

/// Draws a batch of pooled IDREF insertions followed by deletions.
/// `apply_batch` runs every insertion before any deletion, so all
/// insertions are drawn first: an edge drawn for deletion goes back to
/// the pool only after this batch's insertions were drawn, and can never
/// be re-inserted (a `DuplicateEdge`) within the same batch.
pub fn pooled_batch(pool: &mut EdgePool, inserts: usize, deletes: usize) -> Vec<UpdateOp> {
    let mut ops = Vec::with_capacity(inserts + deletes);
    for _ in 0..inserts {
        if let Some((u, v)) = pool.next_insert() {
            ops.push(UpdateOp::InsertEdge {
                from: NodeRef::Existing(u),
                to: NodeRef::Existing(v),
                kind: EdgeKind::IdRef,
            });
        }
    }
    for _ in 0..deletes {
        if let Some((from, to)) = pool.next_delete() {
            ops.push(UpdateOp::DeleteEdge { from, to });
        }
    }
    ops
}

/// `serve_mixed`: per round, one batch (pooled edges, a fresh fragment,
/// removal of the fragment added `FRAGMENT_LIFETIME` rounds earlier),
/// a freeze, and the query set on the fresh snapshot — which stays alive
/// through the next batch, as a reader's would. Between blocks of the
/// timed loop, the last snapshot's answers are checked against
/// `eval_graph` on the graph as of that freeze; the check runs there, not
/// inside the loop, because evaluating on the whole graph evicts the
/// caches the next measured round would use.
struct Serve {
    with_ak: bool,
    seed: u64,
    rng: SplitMix64,
    sut: Option<Sut>,
    pool: Option<EdgePool>,
    open_auctions: NodeId,
    persons: Vec<NodeId>,
    items: Vec<NodeId>,
    fragments: VecDeque<Vec<NodeId>>,
    held: Option<Vec<Option<IndexSnapshot>>>,
}

impl Serve {
    fn new(with_ak: bool, seed: u64) -> Self {
        Serve {
            with_ak,
            seed,
            rng: SplitMix64::seed_from_u64(seed ^ 0xf7a6_4e47),
            sut: None,
            pool: None,
            open_auctions: NodeId(0),
            persons: Vec::new(),
            items: Vec::new(),
            fragments: VecDeque::new(),
            held: None,
        }
    }

    fn next_batch(&mut self) -> Vec<UpdateOp> {
        let pool = self.pool.as_mut().expect("set up before use");
        let mut ops = pooled_batch(pool, SERVE_INSERTS, SERVE_DELETES);
        for label in FRAGMENT_LABELS {
            ops.push(UpdateOp::AddNode {
                label: label.into(),
            });
        }
        let child = |from: NodeRef, to: usize| UpdateOp::InsertEdge {
            from,
            to: NodeRef::New(to),
            kind: EdgeKind::Child,
        };
        ops.push(child(NodeRef::Existing(self.open_auctions), 0));
        for (c, p) in FRAGMENT_TREE {
            ops.push(child(NodeRef::New(p), c));
        }
        let mut idref = |from: usize, targets: &[NodeId], rng: &mut SplitMix64| {
            let to = targets[rng.random_range(0..targets.len())];
            ops.push(UpdateOp::InsertEdge {
                from: NodeRef::New(from),
                to: NodeRef::Existing(to),
                kind: EdgeKind::IdRef,
            });
        };
        for from in FRAGMENT_PERSON_REFS {
            idref(from, &self.persons, &mut self.rng);
        }
        idref(FRAGMENT_ITEM_REF, &self.items, &mut self.rng);
        if self.fragments.len() >= FRAGMENT_LIFETIME {
            let old = self.fragments.pop_front().unwrap_or_default();
            ops.extend(old.into_iter().map(|node| UpdateOp::RemoveNode { node }));
        }
        ops
    }
}

fn nodes_labeled(g: &Graph, label: &str) -> Vec<NodeId> {
    g.nodes().filter(|&n| g.label_name(n) == label).collect()
}

impl Workload for Serve {
    fn setup(&mut self, input: &Input, tr: &mut Tracer) -> Result<u64, String> {
        let (sut, pool, ns) = load_pooled(input, self.with_ak, self.seed, tr)?;
        let g = sut.engine.graph();
        let ((open, persons, items), _) = tr.time("bench.fragment_targets", || {
            (
                nodes_labeled(g, "open_auctions").first().copied(),
                nodes_labeled(g, "person"),
                nodes_labeled(g, "item"),
            )
        });
        let open = open.ok_or("document has no open_auctions element")?;
        if persons.is_empty() || items.is_empty() {
            return Err("document has no person or item elements".into());
        }
        self.open_auctions = open;
        self.persons = persons;
        self.items = items;
        self.sut = Some(sut);
        self.pool = Some(pool);
        Ok(ns)
    }

    fn run(&mut self, input: &Input, steps: usize, ctx: &mut Ctx) {
        for _ in 0..steps {
            let batch = self.next_batch();
            let sut = get(&mut self.sut);
            let Some((result, batch_ns)) = sut.commit(&batch, ctx) else {
                continue;
            };
            let (snaps, freeze_ns) = sut.freeze(ctx);
            let (latencies, digest) = query_round(&snaps, &input.queries, None, ctx);
            let read_ns: u64 = latencies.iter().sum();
            ctx.primary.push(batch_ns + freeze_ns);
            ctx.secondary.push(read_ns);
            ctx.steps.push(batch_ns + freeze_ns + read_ns);
            ctx.answers.u64(digest);
            self.fragments.push_back(result.created);
            if let Some(old) = self.held.replace(snaps) {
                drop_in(&mut ctx.tr, "view.drop", old);
            }
        }
    }

    fn checkpoint(&mut self, input: &Input, ctx: &mut Ctx) {
        if let (Some(snaps), Some(sut)) = (&self.held, &self.sut) {
            let (_, digest) = query_round(snaps, &input.queries, Some(sut.engine.graph()), ctx);
            ctx.answers.u64(digest);
        }
    }

    fn sut(&mut self) -> &mut Sut {
        self.held = None;
        get(&mut self.sut)
    }

    fn origin(&mut self, _input: &Input, tr: &mut Tracer) -> Result<Parts, String> {
        self.held = None;
        Ok(into_parts(self.sut.take(), tr))
    }
}

/// `cold_start`: alternately builds the indexes from the document and
/// restarts them from snapshot bytes, each time to a registered engine.
struct Cold {
    with_ak: bool,
    snapshots: Option<Snapshots>,
    built: Option<Sut>,
    restored: Option<Sut>,
}

impl Cold {
    fn restart(&self, input: &Input, tr: &mut Tracer) -> Result<(Sut, u64), String> {
        let snaps = self.snapshots.as_ref().expect("set up before use");
        let (g, parse_ns) = run::parse(&input.doc, tr)?;
        let (sut, ns) = Sut::restore(g, snaps, tr)?;
        Ok((sut, parse_ns + ns))
    }
}

impl Workload for Cold {
    fn setup(&mut self, input: &Input, tr: &mut Tracer) -> Result<u64, String> {
        let (g, parse_ns) = run::parse(&input.doc, tr)?;
        let (sut, build_ns) = Sut::build(g, self.with_ak, tr);
        let (snaps, encode_ns) = sut.encode(tr);
        drop_in(tr, "engine.drop", sut);
        self.snapshots = Some(snaps);
        Ok(parse_ns + build_ns + encode_ns)
    }

    fn run(&mut self, input: &Input, steps: usize, ctx: &mut Ctx) {
        for _ in 0..steps {
            let built = run::parse(&input.doc, &mut ctx.tr).map(|(g, parse_ns)| {
                let (sut, ns) = Sut::build(g, self.with_ak, &mut ctx.tr);
                (sut, parse_ns + ns)
            });
            let restored = self.restart(input, &mut ctx.tr);
            ctx.attempted += 2;
            match (built, restored) {
                (Ok((b, b_ns)), Ok((r, r_ns))) => {
                    ctx.primary.push(b_ns);
                    ctx.secondary.push(r_ns);
                    ctx.steps.push(b_ns + r_ns);
                    let (bc, rc) = (b.block_counts(), r.block_counts());
                    ctx.check(bc == rc, || {
                        format!("restart has {rc:?} blocks, build {bc:?}")
                    });
                    for c in bc {
                        ctx.answers.u64(c as u64);
                    }
                    for old in [self.built.replace(b), self.restored.replace(r)] {
                        drop_in(&mut ctx.tr, "engine.drop", old);
                    }
                }
                (b, r) => {
                    for e in [b.err(), r.err()].into_iter().flatten() {
                        ctx.fail(e);
                    }
                }
            }
        }
    }

    fn sut(&mut self) -> &mut Sut {
        get(&mut self.restored)
    }

    /// Verifies the restored engine and the built one on the same
    /// stream; both must answer and end identically. Only the restored
    /// engine's mutations are logged for the replays.
    fn verify(&mut self, input: &Input, seed: u64, ctx: &mut Ctx) -> Verdict {
        let log = ctx.log.take();
        let built = run::verify(get(&mut self.built), &input.queries, seed, ctx);
        ctx.log = log;
        let restored = run::verify(get(&mut self.restored), &input.queries, seed, ctx);
        ctx.check(built.digest == restored.digest, || {
            "restored engine diverged from the built one under the same updates".into()
        });
        restored
    }

    fn origin(&mut self, input: &Input, tr: &mut Tracer) -> Result<Parts, String> {
        let (sut, _) = self.restart(input, tr)?;
        Ok(into_parts(Some(sut), tr))
    }
}

/// Families the direct replays measure: the registered ones, plus an
/// A(K)-index built for the replay alone when the engine has none (its
/// numbers then feed no end-to-end metric of that workload).
pub fn replay_families(
    g: &Graph,
    mut indexes: Vec<Box<dyn StructuralIndex>>,
    tr: &mut Tracer,
) -> Vec<Box<dyn StructuralIndex>> {
    if indexes.len() < 2 {
        let (ak, _) = tr.time(run::AK.build, || xsi_core::AkIndex::build(g, K));
        indexes.push(Box::new(ak));
    }
    indexes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use xsi_workload::{generate_xmark, XmarkParams};

    /// Applies batches to a set model of the graph's IDREF edges in the
    /// engine's phase order: every insertion must be of an absent edge
    /// and every deletion of a present one.
    #[test]
    fn pooled_batches_never_reinsert_a_deleted_edge() {
        let mut g = generate_xmark(&XmarkParams::new(0.01, 1.0, 11));
        let mut pool = EdgePool::extract(&mut g, POOL_FRACTION, 11);
        let mut present: BTreeSet<(NodeId, NodeId)> = g
            .edges()
            .filter(|&(_, _, k)| k == EdgeKind::IdRef)
            .map(|(u, v, _)| (u, v))
            .collect();
        for round in 0..500 {
            // Sizes past the pool's, so draws wrap through it.
            let batch = pooled_batch(&mut pool, 40, 40);
            for op in &batch {
                if let UpdateOp::InsertEdge {
                    from: NodeRef::Existing(u),
                    to: NodeRef::Existing(v),
                    ..
                } = op
                {
                    assert!(present.insert((*u, *v)), "round {round}: duplicate insert");
                }
            }
            for op in &batch {
                if let UpdateOp::DeleteEdge { from, to } = op {
                    assert!(
                        present.remove(&(*from, *to)),
                        "round {round}: missing delete"
                    );
                }
            }
        }
    }

    #[test]
    fn timed_steps_scale_with_seconds() {
        let churn = Plan::by_name("xmark_churn").unwrap();
        assert_eq!(churn.timed_steps(2.0), 9_000);
        let cold = Plan::by_name("cold_start").unwrap();
        assert_eq!(cold.timed_steps(10.0), 15);
        assert_eq!(cold.timed_steps(0.01), 1);
    }
}
