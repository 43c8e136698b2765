//! The A(k)-index *validation* step (Section 3): "For path expressions
//! longer than k, it may generate false positives and we need a
//! validation step on the original data graph to eliminate them."
//!
//! Validation re-checks each candidate against the data graph — but only
//! the part of the graph that can reach a candidate: we take the backward
//! closure of the candidate set, then re-run the path restricted to those
//! nodes. Every true match ends at a candidate, and every node on a
//! witnessing path is an ancestor of that candidate, so the restriction
//! is lossless while keeping the work proportional to the candidates'
//! ancestry rather than the whole database.

use crate::eval::advance_graph;
use crate::expr::PathExpr;
use std::collections::HashSet;
use xsi_core::{AkIndex, StructuralIndex};
use xsi_graph::{Graph, NodeId};

/// Filters `candidates` down to the nodes that actually match `expr` on
/// the data graph.
pub fn validate(g: &Graph, expr: &PathExpr, candidates: &[NodeId]) -> Vec<NodeId> {
    let candidate_set: HashSet<NodeId> = candidates.iter().copied().collect();
    // Backward closure: every node that can reach a candidate, plus root.
    let mut relevant: HashSet<NodeId> = candidate_set.clone();
    let mut stack: Vec<NodeId> = candidates.to_vec();
    while let Some(n) = stack.pop() {
        for p in g.pred(n) {
            if relevant.insert(p) {
                stack.push(p);
            }
        }
    }
    relevant.insert(g.root());

    // Forward evaluation restricted to relevant nodes (predicates inside
    // `advance_graph` deliberately look at the full graph — they inspect
    // subtrees below a node, which the backward closure does not cover).
    let mut frontier: HashSet<NodeId> = HashSet::new();
    frontier.insert(g.root());
    for step in expr.steps() {
        frontier = advance_graph(g, &frontier, step, Some(&relevant));
        if frontier.is_empty() {
            break;
        }
    }
    let mut out: Vec<NodeId> = frontier.intersection(&candidate_set).copied().collect();
    out.sort_unstable();
    out
}

/// Complete A(k) query evaluation: index evaluation plus validation when
/// the path exceeds the index's precision horizon (`expr.max_length() >
/// k`, or unbounded because of a descendant axis). (Thin wrapper over
/// the generic [`crate::eval_index`], which reads the horizon from the
/// index's query view.)
pub fn eval_ak_validated(g: &Graph, idx: &AkIndex, expr: &PathExpr) -> Vec<NodeId> {
    crate::eval::eval_index(g, &*idx.query_view(g), expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_ak_index, eval_graph};
    use xsi_graph::GraphBuilder;

    /// Two similar branches that an A(1)-index conflates at depth ≥ 2:
    /// /site/a/x/leaf should not return the leaf under b.
    fn confusable() -> Graph {
        let (g, _) = GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "a"), (3, "b"), (4, "x"), (5, "x")])
            .nodes(&[(6, "leaf"), (7, "leaf")])
            .edges(&[(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)])
            .root_to(1)
            .build_with_ids();
        g
    }

    #[test]
    fn validation_removes_false_positives() {
        let g = confusable();
        let idx = AkIndex::build(&g, 1);
        let expr = PathExpr::parse("/site/a/x/leaf").unwrap();
        let exact = eval_graph(&g, &expr);
        let raw = eval_ak_index(&g, &idx, &expr);
        // The A(1)-index merges the two x nodes (same parents' labels at
        // depth 1? x under a vs x under b differ at level 1...). Use a
        // depth where it genuinely conflates: leaves share (label, parent
        // class) chains for k=1, so raw ⊋ exact.
        assert!(raw.len() >= exact.len());
        let validated = validate(&g, &expr, &raw);
        assert_eq!(validated, exact);
    }

    #[test]
    fn eval_ak_validated_always_matches_direct() {
        let g = confusable();
        for k in 0..=3 {
            let idx = AkIndex::build(&g, k);
            for q in [
                "/site/a/x/leaf",
                "/site/b/x/leaf",
                "//leaf",
                "//x/leaf",
                "/site/*/x",
            ] {
                let expr = PathExpr::parse(q).unwrap();
                assert_eq!(
                    eval_ak_validated(&g, &idx, &expr),
                    eval_graph(&g, &expr),
                    "k={k} query {q}"
                );
            }
        }
    }

    #[test]
    fn validate_on_exact_candidates_is_identity() {
        let g = confusable();
        let expr = PathExpr::parse("//leaf").unwrap();
        let exact = eval_graph(&g, &expr);
        assert_eq!(validate(&g, &expr, &exact), exact);
    }

    #[test]
    fn validate_empty_candidates() {
        let g = confusable();
        let expr = PathExpr::parse("//leaf").unwrap();
        assert!(validate(&g, &expr, &[]).is_empty());
    }
}
