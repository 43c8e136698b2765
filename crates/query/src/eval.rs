//! Path evaluation engines: direct on the data graph, and index-assisted
//! over any [`IndexQueryView`] (1-index and A(k)-index iedges alike).
//!
//! There is exactly **one** block-level walk (DESIGN.md §11.3), shared
//! by every index family, every live view and every frozen snapshot:
//! [`eval_index_raw`] runs it and unions the matched extents,
//! [`eval_one_index_blocks`] returns the matched 1-index blocks, and
//! [`eval_ak_index_at_level`] runs it over the view that one level of
//! an A(k) chain induces. The walk keeps its frontier in a `Vec<u32>`
//! and marks visited blocks in a dense bitset sized by the view's
//! [`IndexQueryView::slot_bound`], allocated per call: no hashing and
//! no allocation per visited block, and no state in the view, so one
//! snapshot is shareable by reader threads. [`eval_index`] wraps the
//! walk with the automatic validation pass driven by the view's
//! declared precision horizon ([`IndexQueryView::precise_up_to`]). The
//! per-index entry points ([`eval_one_index`], [`eval_ak_index`],
//! [`crate::eval_ak_validated`]) are thin wrappers. Direct evaluation
//! ([`eval_graph`]) stays a plain `HashSet` walk: it is the oracle the
//! index answers are checked against.
//!
//! Predicates (`/a[b]/c`) are evaluated inline during direct evaluation.
//! Index traversals ignore them (an inode cannot decide a per-node
//! subtree condition — bisimilarity looks at *incoming* paths only), so
//! a predicated expression always triggers validation in [`eval_index`].

use crate::expr::{Axis, PathExpr, RelativePath, Step, Test};
use std::collections::HashSet;
use xsi_core::{AkIndex, IndexQueryView, OneIndex, StructuralIndex};
use xsi_graph::{Graph, NodeId};

pub(crate) fn node_matches(g: &Graph, n: NodeId, test: &Test) -> bool {
    match test {
        Test::Any => true,
        Test::Label(name) => g.label_name(n) == name.as_str(),
    }
}

/// Existence check for a predicate: does `rel` match anything starting
/// from `context`? Relative paths cannot carry nested predicates (the
/// parser rejects them), so this is a plain frontier walk.
pub(crate) fn predicate_holds(g: &Graph, context: NodeId, rel: &RelativePath) -> bool {
    let mut frontier: HashSet<NodeId> = HashSet::new();
    frontier.insert(context);
    for step in &rel.steps {
        frontier = advance_graph(g, &frontier, step, None);
        if frontier.is_empty() {
            return false;
        }
    }
    true
}

/// One step of frontier movement on the data graph, optionally restricted
/// to a `relevant` node set (used by validation).
pub(crate) fn advance_graph(
    g: &Graph,
    frontier: &HashSet<NodeId>,
    step: &Step,
    relevant: Option<&HashSet<NodeId>>,
) -> HashSet<NodeId> {
    let allowed = |v: NodeId| relevant.is_none_or(|r| r.contains(&v));
    let mut next: HashSet<NodeId> = HashSet::new();
    match step.axis {
        Axis::Child => {
            // xsi-lint: allow(hash-iter, set-to-set expansion; the result is a HashSet, order never escapes)
            for &u in frontier {
                for v in g.succ(u) {
                    if allowed(v) && node_matches(g, v, &step.test) {
                        next.insert(v);
                    }
                }
            }
        }
        Axis::Descendant => {
            let mut seen: HashSet<NodeId> = HashSet::new();
            // xsi-lint: allow(hash-iter, set-to-set expansion; reachability is order-independent)
            let mut stack: Vec<NodeId> = frontier.iter().copied().collect();
            while let Some(u) = stack.pop() {
                for v in g.succ(u) {
                    if allowed(v) && seen.insert(v) {
                        stack.push(v);
                    }
                }
            }
            // xsi-lint: allow(hash-iter, set-to-set filter; the result is a HashSet, order never escapes)
            for v in seen {
                if node_matches(g, v, &step.test) {
                    next.insert(v);
                }
            }
        }
    }
    if let Some(pred) = &step.predicate {
        // Predicates look *down* from the node, so they are always
        // checked against the full graph, never the restricted set.
        next.retain(|&v| predicate_holds(g, v, pred));
    }
    next
}

/// Evaluates `expr` directly on the data graph, starting at the root.
/// Returns the matching nodes sorted by id — the ground truth the index
/// evaluations are compared against.
pub fn eval_graph(g: &Graph, expr: &PathExpr) -> Vec<NodeId> {
    let mut frontier: HashSet<NodeId> = HashSet::new();
    frontier.insert(g.root());
    for step in expr.steps() {
        frontier = advance_graph(g, &frontier, step, None);
        if frontier.is_empty() {
            break;
        }
    }
    let mut out: Vec<NodeId> = frontier.into_iter().collect();
    out.sort_unstable();
    out
}

/// A dense set of raw block ids below a view's
/// [`IndexQueryView::slot_bound`], one bit per id.
struct BlockBits(Vec<u64>);

impl BlockBits {
    fn new(bound: usize) -> Self {
        BlockBits(vec![0; bound.div_ceil(64)])
    }

    /// Adds `b`; true when it was absent.
    fn insert(&mut self, b: u32) -> bool {
        let word = self
            .0
            .get_mut(b as usize / 64)
            .expect("invariant: a view hands out block ids below its slot_bound");
        let bit = 1u64 << (b % 64);
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    fn remove(&mut self, b: u32) {
        if let Some(word) = self.0.get_mut(b as usize / 64) {
            *word &= !(1u64 << (b % 64));
        }
    }
}

/// Appends the iedge successors of `b` not yet in `reached` to it.
fn reach(view: &dyn IndexQueryView, b: u32, reached: &mut Vec<u32>, marks: &mut BlockBits) {
    view.for_each_isucc(b, &mut |c| {
        if marks.insert(c) {
            reached.push(c);
        }
    });
}

/// The block walk behind every index evaluation (DESIGN.md §11.3): the
/// raw ids of the blocks `steps` match from the view's start block,
/// each once, in no particular order. A step first collects the blocks
/// it reaches from the frontier (`current`) — the frontier's iedge
/// successors, and for `//` every block reachable from the frontier by
/// at least one iedge, so a frontier block is in only through a cycle —
/// then keeps those whose label passes the node test. One dense bitset marks the blocks
/// reached in the current step and is cleared through that list, so
/// the walk allocates per call, never per visited block, and keeps no
/// state in the view: one frozen snapshot serves any number of reader
/// threads.
fn walk(view: &dyn IndexQueryView, steps: &[Step]) -> Vec<u32> {
    let mut marks = BlockBits::new(view.slot_bound());
    let mut current = vec![view.start_block()];
    let (mut reached, mut next) = (Vec::new(), Vec::new());
    for step in steps {
        for &b in &current {
            reach(view, b, &mut reached, &mut marks);
        }
        if step.axis == Axis::Descendant {
            let mut i = 0;
            while let Some(&b) = reached.get(i) {
                i += 1;
                reach(view, b, &mut reached, &mut marks);
            }
        }
        for &c in &reached {
            marks.remove(c);
            let keep = match &step.test {
                Test::Any => true,
                Test::Label(name) => view.label_name(c) == name.as_str(),
            };
            if keep {
                next.push(c);
            }
        }
        reached.clear();
        std::mem::swap(&mut current, &mut next);
        next.clear();
        if current.is_empty() {
            break;
        }
    }
    current
}

/// Evaluates `expr` over the 1-index down to the **inode level**: the
/// matched blocks, whose extents union to the answer. For linear
/// (predicate-free) paths this is exact and avoids materializing the
/// result nodes at all — the form a query processor actually consumes.
/// With predicates the block set is a safe over-approximation. Runs
/// the one block walk over the 1-index's query view.
pub fn eval_one_index_blocks(g: &Graph, idx: &OneIndex, expr: &PathExpr) -> Vec<xsi_core::BlockId> {
    let mut matched = walk(&*idx.query_view(g), expr.steps());
    matched.sort_unstable();
    matched
        .into_iter()
        .map(|b| idx.partition().handle(b))
        .collect()
}

/// Evaluates `expr` over any index's [`IndexQueryView`]: runs the path
/// on the iedge graph and unions the extents of matching blocks. Always
/// *safe* (a superset of the true answer); precise exactly when the
/// view's precision horizon covers the path and the expression has no
/// predicates — see [`eval_index`] for the exact variant.
pub fn eval_index_raw(view: &dyn IndexQueryView, expr: &PathExpr) -> Vec<NodeId> {
    let matched = walk(view, expr.steps());
    let len = matched.iter().map(|&b| view.extent(b).len()).sum();
    let mut out: Vec<NodeId> = Vec::with_capacity(len);
    for &b in &matched {
        out.extend_from_slice(view.extent(b));
    }
    out.sort_unstable();
    out
}

/// Whether the raw block-walk answer needs the data-graph validation
/// pass: predicated expressions always do (bisimilarity cannot decide a
/// subtree condition), and linear paths do whenever they may exceed the
/// view's declared precision horizon.
fn needs_validation(view: &dyn IndexQueryView, expr: &PathExpr) -> bool {
    if expr.has_predicates() {
        return true;
    }
    match view.precise_up_to() {
        None => false, // 1-index: every linear path is exact
        Some(k) => expr.max_length().is_none_or(|l| l > k),
    }
}

/// *Exact* evaluation over any index's [`IndexQueryView`]: the raw block
/// walk of [`eval_index_raw`], plus the paper's validation pass exactly
/// when the view's precision horizon does not cover the expression. This
/// is the single index-evaluation path; the per-family entry points wrap
/// it.
pub fn eval_index(g: &Graph, view: &dyn IndexQueryView, expr: &PathExpr) -> Vec<NodeId> {
    let out = eval_index_raw(view, expr);
    if needs_validation(view, expr) {
        crate::validate::validate(g, expr, &out)
    } else {
        out
    }
}

/// Evaluates `expr` over the 1-index. *Exact* for every expression this
/// crate parses: linear paths are answered precisely by the bisimulation
/// quotient, and predicated paths trigger an automatic validation pass.
/// (Thin wrapper over [`eval_index`].)
pub fn eval_one_index(g: &Graph, idx: &OneIndex, expr: &PathExpr) -> Vec<NodeId> {
    eval_index(g, &*idx.query_view(g), expr)
}

/// Evaluates `expr` over the A(k)-index's intra-level iedges. The result
/// is always *safe* (a superset of the true answer); it is precise only
/// when `expr.max_length() <= k` and the expression has no predicates —
/// run [`crate::eval_ak_validated`] otherwise. (Thin wrapper over
/// [`eval_index_raw`].)
pub fn eval_ak_index(g: &Graph, idx: &AkIndex, expr: &PathExpr) -> Vec<NodeId> {
    eval_index_raw(&*idx.query_view(g), expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsi_graph::GraphBuilder;

    fn sample() -> (Graph, std::collections::BTreeMap<u64, NodeId>) {
        GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "people"), (3, "person"), (4, "person")])
            .nodes(&[(5, "name"), (6, "name"), (7, "auctions"), (8, "auction")])
            .nodes(&[(9, "seller")])
            .edges(&[
                (1, 2),
                (2, 3),
                (2, 4),
                (3, 5),
                (4, 6),
                (1, 7),
                (7, 8),
                (8, 9),
            ])
            .idref_edges(&[(9, 3)])
            .root_to(1)
            .build_with_ids()
    }

    #[test]
    fn child_path() {
        let (g, ids) = sample();
        let expr = PathExpr::parse("/site/people/person").unwrap();
        let res = eval_graph(&g, &expr);
        assert_eq!(res, vec![ids[&3], ids[&4]]);
    }

    #[test]
    fn descendant_path() {
        let (g, ids) = sample();
        let res = eval_graph(&g, &PathExpr::parse("//name").unwrap());
        assert_eq!(res, vec![ids[&5], ids[&6]]);
    }

    #[test]
    fn wildcard() {
        let (g, _) = sample();
        let res = eval_graph(&g, &PathExpr::parse("/site/*").unwrap());
        assert_eq!(res.len(), 2); // people, auctions
    }

    #[test]
    fn idref_traversal_counts() {
        // /site/auctions/auction/seller/person goes through the IDREF.
        let (g, ids) = sample();
        let res = eval_graph(
            &g,
            &PathExpr::parse("/site/auctions/auction/seller/person").unwrap(),
        );
        assert_eq!(res, vec![ids[&3]]);
    }

    #[test]
    fn unknown_label_matches_nothing() {
        let (g, _) = sample();
        assert!(eval_graph(&g, &PathExpr::parse("//nonexistent").unwrap()).is_empty());
    }

    #[test]
    fn predicates_filter_direct_eval() {
        // person 3 is referenced by a seller; both persons have names.
        let (g, ids) = sample();
        // person[name] keeps both; person[name/nothing] keeps none.
        let both = eval_graph(&g, &PathExpr::parse("/site/people/person[name]").unwrap());
        assert_eq!(both, vec![ids[&3], ids[&4]]);
        let none = eval_graph(
            &g,
            &PathExpr::parse("/site/people/person[name/deeper]").unwrap(),
        );
        assert!(none.is_empty());
        // Predicate on an intermediate step restricts downstream results.
        let via = eval_graph(
            &g,
            &PathExpr::parse("/site/auctions/auction[seller]/seller").unwrap(),
        );
        assert_eq!(via, vec![ids[&9]]);
    }

    #[test]
    fn descendant_predicate() {
        let (g, ids) = sample();
        // //auctions[//person] — auctions reaches person 3 via the IDREF.
        let res = eval_graph(&g, &PathExpr::parse("//auctions[//person]").unwrap());
        assert_eq!(res, vec![ids[&7]]);
    }

    #[test]
    fn one_index_is_precise() {
        let (g, _) = sample();
        let idx = OneIndex::build(&g);
        for q in [
            "/site/people/person",
            "//person",
            "//person/name",
            "/site/*",
            "//auction//person",
            "/site/auctions/auction/seller/person/name",
            "/site/people/person[name]",
            "//auction[seller/person]",
        ] {
            let expr = PathExpr::parse(q).unwrap();
            assert_eq!(
                eval_one_index(&g, &idx, &expr),
                eval_graph(&g, &expr),
                "query {q}"
            );
        }
    }

    #[test]
    fn ak_index_is_safe_and_precise_within_k() {
        let (g, _) = sample();
        for k in 0..=4 {
            let idx = AkIndex::build(&g, k);
            for q in ["/site", "/site/people", "/site/people/person", "//name"] {
                let expr = PathExpr::parse(q).unwrap();
                let exact = eval_graph(&g, &expr);
                let approx = eval_ak_index(&g, &idx, &expr);
                // Safety: superset.
                for n in &exact {
                    assert!(approx.contains(n), "k={k} query {q} missing {n:?}");
                }
                // Precision within k.
                if expr.max_length().is_some_and(|l| l <= k) {
                    assert_eq!(approx, exact, "k={k} query {q} not precise");
                }
            }
        }
    }

    /// The extent-only simple baseline answers through its own query
    /// view (the block graph its class assignment induces) on a cyclic
    /// graph, for every k: exact within the horizon, validated beyond.
    #[test]
    fn simple_view_answers_like_the_data_graph() {
        use xsi_core::SimpleAkIndex;
        use xsi_graph::EdgeKind;
        let mut g = Graph::new();
        let r = g.root();
        let a = g.add_node("a", None);
        let b1 = g.add_node("b", None);
        let b2 = g.add_node("b", None);
        let c = g.add_node("c", None);
        g.insert_edge(r, a, EdgeKind::Child).unwrap();
        g.insert_edge(a, b1, EdgeKind::Child).unwrap();
        g.insert_edge(a, b2, EdgeKind::Child).unwrap();
        g.insert_edge(b1, c, EdgeKind::Child).unwrap();
        g.insert_edge(c, a, EdgeKind::IdRef).unwrap(); // a cycle
        for k in 0..=3 {
            let idx = SimpleAkIndex::build(&g, k);
            let view = idx.query_view(&g);
            assert_eq!(view.precise_up_to(), Some(k));
            for q in ["/a", "/a/b", "//b/c", "//*", "/a//c", "/a/b/c/a"] {
                let expr = PathExpr::parse(q).unwrap();
                assert_eq!(
                    eval_index(&g, &*view, &expr),
                    eval_graph(&g, &expr),
                    "k={k} query {q}"
                );
            }
        }
    }

    /// Beyond the simple view's horizon the raw block walk
    /// over-approximates, and `eval_index` validates it back to the
    /// exact answer.
    #[test]
    fn simple_view_beyond_k_is_validated() {
        use xsi_core::SimpleAkIndex;
        let (g, ids) = GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "a"), (3, "b"), (4, "x"), (5, "x")])
            .nodes(&[(6, "leaf"), (7, "leaf")])
            .edges(&[(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)])
            .root_to(1)
            .build_with_ids();
        let idx = SimpleAkIndex::build(&g, 1);
        let view = idx.query_view(&g);
        let expr = PathExpr::parse("/site/a/x/leaf").unwrap();
        // A(1) puts both leaves in one block (both have an x parent).
        assert_eq!(eval_index_raw(&*view, &expr), vec![ids[&6], ids[&7]]);
        assert_eq!(eval_index(&g, &*view, &expr), vec![ids[&6]]);
        assert_eq!(eval_graph(&g, &expr), vec![ids[&6]]);
    }

    /// A graph where the 1-index genuinely conflates nodes with different
    /// subtrees: predicated queries would be wrong without validation.
    #[test]
    fn one_index_predicates_need_validation() {
        // Two persons with identical incoming structure; only one has a
        // phone. Bisimilar ⇒ same inode ⇒ raw index eval can't tell them
        // apart; the automatic validation in eval_one_index must.
        let (g, ids) = GraphBuilder::new()
            .nodes(&[(1, "people"), (2, "person"), (3, "person"), (4, "phone")])
            .edges(&[(1, 2), (1, 3), (2, 4)])
            .root_to(1)
            .build_with_ids();
        let idx = OneIndex::build(&g);
        assert_eq!(
            idx.block_of(ids[&2]),
            idx.block_of(ids[&3]),
            "persons must share an inode for this test to bite"
        );
        let expr = PathExpr::parse("/people/person[phone]").unwrap();
        assert_eq!(eval_one_index(&g, &idx, &expr), vec![ids[&2]]);
        assert_eq!(eval_graph(&g, &expr), vec![ids[&2]]);
    }
}

#[cfg(test)]
mod block_level_tests {
    use super::*;
    use crate::expr::PathExpr;
    use xsi_graph::GraphBuilder;

    #[test]
    fn blocks_union_to_node_answer() {
        let (g, _) = GraphBuilder::new()
            .nodes(&[
                (1, "site"),
                (2, "person"),
                (3, "person"),
                (4, "name"),
                (5, "name"),
            ])
            .edges(&[(1, 2), (1, 3), (2, 4), (3, 5)])
            .root_to(1)
            .build_with_ids();
        let idx = OneIndex::build(&g);
        for q in ["/site/person", "//name", "/site/*"] {
            let expr = PathExpr::parse(q).unwrap();
            let blocks = eval_one_index_blocks(&g, &idx, &expr);
            let mut from_blocks: Vec<NodeId> = blocks
                .iter()
                .flat_map(|&b| idx.extent(b).iter().copied())
                .collect();
            from_blocks.sort_unstable();
            assert_eq!(from_blocks, eval_graph(&g, &expr), "query {q}");
        }
    }

    #[test]
    fn block_answer_is_compact() {
        // Both persons share one inode: the block answer has 1 entry even
        // though the node answer has 2.
        let (g, _) = GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "person"), (3, "person")])
            .edges(&[(1, 2), (1, 3)])
            .root_to(1)
            .build_with_ids();
        let idx = OneIndex::build(&g);
        let expr = PathExpr::parse("/site/person").unwrap();
        assert_eq!(eval_one_index_blocks(&g, &idx, &expr).len(), 1);
        assert_eq!(eval_one_index(&g, &idx, &expr).len(), 2);
    }
}

/// Evaluates `expr` over the A(i)-index embedded at `level` of a deeper
/// A(k) chain ([`AkIndex::level_view`], the block graph the level's
/// class assignment induces). Precise for paths of length ≤ `level`,
/// safe otherwise — a coarser, cheaper index view for short queries
/// without building a separate A(level) index.
pub fn eval_ak_index_at_level(
    g: &Graph,
    idx: &AkIndex,
    level: usize,
    expr: &PathExpr,
) -> Vec<NodeId> {
    eval_index_raw(&idx.level_view(g, level), expr)
}

#[cfg(test)]
mod level_eval_tests {
    use super::*;
    use crate::expr::PathExpr;
    use xsi_graph::GraphBuilder;

    #[test]
    fn level_eval_matches_direct_ak_build() {
        let (g, _) = GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "a"), (3, "b"), (4, "x"), (5, "x")])
            .nodes(&[(6, "leaf"), (7, "leaf")])
            .edges(&[(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)])
            .root_to(1)
            .build_with_ids();
        let deep = AkIndex::build(&g, 4);
        for level in 0..=4 {
            let shallow = AkIndex::build(&g, level);
            for q in ["/site/a/x/leaf", "//leaf", "/site/*", "/site/a"] {
                let expr = PathExpr::parse(q).unwrap();
                assert_eq!(
                    eval_ak_index_at_level(&g, &deep, level, &expr),
                    eval_ak_index(&g, &shallow, &expr),
                    "level {level} query {q}"
                );
            }
        }
    }

    #[test]
    fn level_eval_safe_and_precise_within_level() {
        let (g, _) = GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "a"), (3, "b"), (4, "x"), (5, "x")])
            .nodes(&[(6, "leaf"), (7, "leaf")])
            .edges(&[(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)])
            .root_to(1)
            .build_with_ids();
        let deep = AkIndex::build(&g, 4);
        let expr = PathExpr::parse("/site/a").unwrap();
        // Length-2 path: precise at level ≥ 2, still safe at level 1.
        let exact = eval_graph(&g, &expr);
        assert_eq!(eval_ak_index_at_level(&g, &deep, 2, &expr), exact);
        let coarse = eval_ak_index_at_level(&g, &deep, 1, &expr);
        for n in &exact {
            assert!(coarse.contains(n));
        }
    }
}
