//! The scenario model and its replayable text format.
//!
//! A [`Scenario`] is a *self-contained* description of one conformance
//! run: the base graph (labels + edges), the update-op sequence, the
//! queries to differentially evaluate, the A(k) parameter, and an
//! optional injected fault (for mutation-smoke runs). Node references in
//! ops are **handle indices**, not raw [`xsi_graph::NodeId`]s: the
//! harness keeps an ordered list of live handles (handle 0 is the root,
//! base node `i` is handle `i + 1`, nodes created by ops are appended)
//! and resolves a raw reference `r` as `handles[r % handles.len()]`.
//! That makes every op sequence total — no op can dangle — which is what
//! lets the delta-debugging shrinker delete arbitrary subsets of ops and
//! still have a meaningful scenario.
//!
//! The replay format is line-based and versioned:
//!
//! ```text
//! xsi-conformance-replay v1
//! seed 0xE9E9
//! k 2
//! fault skip-merge            # optional
//! base-node a                 # one per base node, in handle order
//! base-edge 0 1 child         # handle indices into {root} ∪ base nodes
//! query /a//b
//! op insert-edge 3 7 idref
//! op add-subtree 2 a b:0 c:1
//! end
//! ```
//!
//! [`Scenario::to_replay`] / [`Scenario::parse_replay`] round-trip this
//! exactly; [`Scenario::to_regression_test`] wraps a replay in a
//! ready-to-paste `#[test]`.

use crate::fault::FaultSpec;
use xsi_graph::EdgeKind;

/// One update operation, with handle-index node references (see module
/// docs for the resolution rule).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioOp {
    /// Add a fresh node with this label (appends a handle).
    AddNode { label: String },
    /// Insert an edge between two resolved handles. Skipped (a no-op) if
    /// the graph rejects it (duplicate, self-loop, edge into the root).
    InsertEdge {
        from: usize,
        to: usize,
        kind: EdgeKind,
    },
    /// Delete the edge between two resolved handles; skipped if absent.
    DeleteEdge { from: usize, to: usize },
    /// Remove a resolved node (and its remaining edges); skipped if it
    /// resolves to the root.
    RemoveNode { node: usize },
    /// Add a small tree under a resolved parent as ONE engine subgraph
    /// addition (Figure 6's batched step). `nodes[i]` is
    /// `(label, local_parent)`: node 0 attaches to the resolved external
    /// parent, node `i > 0` to subtree node `local_parent < i`.
    AddSubtree {
        parent: usize,
        nodes: Vec<(String, usize)>,
    },
    /// Remove the Child-reachable subtree of a resolved node as one
    /// engine batch of `RemoveNode`s; skipped if it resolves to the root.
    RemoveSubtree { root: usize },
    /// Freeze every registered index into an in-memory
    /// [`xsi_core::IndexSnapshot`]. The harness validates the frozen
    /// views against the live index at the freeze point, holds them
    /// across all subsequent ops, and re-validates them at the end of
    /// the run against a replica index replayed to the same op prefix
    /// (snapshot isolation under write churn).
    Freeze,
}

/// A complete, replayable conformance scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// The seed this scenario was generated from (informational; the
    /// scenario itself is already fully explicit).
    pub seed: u64,
    /// The A(k) parameter for the two A(k) families.
    pub k: usize,
    /// Injected fault for mutation-smoke runs; `None` for real fuzzing.
    pub fault: Option<FaultSpec>,
    /// Labels of the base nodes; base node `i` is handle `i + 1`.
    pub base_labels: Vec<String>,
    /// Base edges over handle indices `0..=base_labels.len()` (0 = root).
    pub base_edges: Vec<(usize, usize, EdgeKind)>,
    /// Label-path queries (parseable by `xsi_query::PathExpr`).
    pub queries: Vec<String>,
    /// The update sequence.
    pub ops: Vec<ScenarioOp>,
}

fn kind_str(k: EdgeKind) -> &'static str {
    match k {
        EdgeKind::Child => "child",
        EdgeKind::IdRef => "idref",
    }
}

fn parse_kind(s: &str) -> Result<EdgeKind, String> {
    match s {
        "child" => Ok(EdgeKind::Child),
        "idref" => Ok(EdgeKind::IdRef),
        other => Err(format!("unknown edge kind {other:?}")),
    }
}

impl Scenario {
    /// Serializes the scenario to the v1 replay format.
    pub fn to_replay(&self) -> String {
        let mut out = String::new();
        out.push_str("xsi-conformance-replay v1\n");
        out.push_str(&format!("seed {:#x}\n", self.seed));
        out.push_str(&format!("k {}\n", self.k));
        match &self.fault {
            Some(FaultSpec::SkipMerge) => out.push_str("fault skip-merge\n"),
            Some(FaultSpec::DropEdgeDelete { period }) => {
                out.push_str(&format!("fault drop-edge-delete {period}\n"));
            }
            None => {}
        }
        for l in &self.base_labels {
            out.push_str(&format!("base-node {l}\n"));
        }
        for &(u, v, k) in &self.base_edges {
            out.push_str(&format!("base-edge {u} {v} {}\n", kind_str(k)));
        }
        for q in &self.queries {
            out.push_str(&format!("query {q}\n"));
        }
        for op in &self.ops {
            match op {
                ScenarioOp::AddNode { label } => {
                    out.push_str(&format!("op add-node {label}\n"));
                }
                ScenarioOp::InsertEdge { from, to, kind } => {
                    out.push_str(&format!("op insert-edge {from} {to} {}\n", kind_str(*kind)));
                }
                ScenarioOp::DeleteEdge { from, to } => {
                    out.push_str(&format!("op delete-edge {from} {to}\n"));
                }
                ScenarioOp::RemoveNode { node } => {
                    out.push_str(&format!("op remove-node {node}\n"));
                }
                ScenarioOp::AddSubtree { parent, nodes } => {
                    out.push_str(&format!("op add-subtree {parent}"));
                    for (i, (label, lp)) in nodes.iter().enumerate() {
                        if i == 0 {
                            out.push_str(&format!(" {label}"));
                        } else {
                            out.push_str(&format!(" {label}:{lp}"));
                        }
                    }
                    out.push('\n');
                }
                ScenarioOp::RemoveSubtree { root } => {
                    out.push_str(&format!("op remove-subtree {root}\n"));
                }
                ScenarioOp::Freeze => {
                    out.push_str("op freeze\n");
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses a v1 replay file. Strict: unknown directives, bad indices
    /// and a missing `end` are errors (a reproducer must be exact).
    pub fn parse_replay(text: &str) -> Result<Scenario, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        match lines.next() {
            Some("xsi-conformance-replay v1") => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let mut s = Scenario {
            seed: 0,
            k: 2,
            fault: None,
            base_labels: Vec::new(),
            base_edges: Vec::new(),
            queries: Vec::new(),
            ops: Vec::new(),
        };
        let mut saw_end = false;
        for line in lines {
            if saw_end {
                // Reproducers append the engine's flight-recorder trace
                // after `end` as informational `trace` directives; the
                // scenario itself never depends on them, so they are
                // skipped here (forward-compatible parsing). Anything
                // else after `end` is still an error.
                if line == "trace" || line.starts_with("trace ") {
                    continue;
                }
                return Err(format!("content after end: {line:?}"));
            }
            let (dir, rest) = line.split_once(' ').unwrap_or((line, ""));
            let words: Vec<&str> = rest.split_whitespace().collect();
            match dir {
                "seed" => {
                    s.seed = xsi_workload::parse_seed(rest)
                        .ok_or_else(|| format!("bad seed {rest:?}"))?;
                }
                "k" => {
                    s.k = rest.trim().parse().map_err(|_| format!("bad k {rest:?}"))?;
                }
                "fault" => {
                    s.fault = Some(match words.as_slice() {
                        ["skip-merge"] => FaultSpec::SkipMerge,
                        ["drop-edge-delete", p] => FaultSpec::DropEdgeDelete {
                            period: p.parse().map_err(|_| format!("bad period {p:?}"))?,
                        },
                        _ => return Err(format!("bad fault {rest:?}")),
                    });
                }
                "base-node" => {
                    if words.len() != 1 {
                        return Err(format!("bad base-node {rest:?}"));
                    }
                    s.base_labels.push(words[0].to_string());
                }
                "base-edge" => {
                    let [u, v, k] = words.as_slice() else {
                        return Err(format!("bad base-edge {rest:?}"));
                    };
                    s.base_edges.push((
                        u.parse().map_err(|_| format!("bad index {u:?}"))?,
                        v.parse().map_err(|_| format!("bad index {v:?}"))?,
                        parse_kind(k)?,
                    ));
                }
                "query" => {
                    if rest.trim().is_empty() {
                        return Err("empty query".into());
                    }
                    s.queries.push(rest.trim().to_string());
                }
                "op" => s.ops.push(parse_op(&words)?),
                "end" => saw_end = true,
                other => return Err(format!("unknown directive {other:?}")),
            }
        }
        if !saw_end {
            return Err("missing end".into());
        }
        Ok(s)
    }

    /// Extracts the informational flight-recorder trace appended after
    /// `end` (one stable line per `trace` directive, oldest first).
    /// Returns an empty vec for reproducers written before traces
    /// existed — the replay itself never depends on these lines.
    pub fn embedded_trace(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut after_end = false;
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if after_end {
                if let Some(rest) = line.strip_prefix("trace ") {
                    out.push(rest.to_string());
                }
            } else if line == "end" {
                after_end = true;
            }
        }
        out
    }

    /// Emits a ready-to-paste Rust regression test embedding the replay.
    /// Fault-free scenarios assert the lab passes (paste after fixing
    /// the bug); fault-injected ones assert the lab still catches the
    /// planted fault.
    pub fn to_regression_test(&self, name: &str, original_failure: &str) -> String {
        let assertion = if self.fault.is_some() {
            "    // The scenario carries an injected fault; the lab must keep catching it.\n    \
             assert!(xsi_conformance::run_scenario(&s).is_err());\n"
        } else {
            "    // Paste this test after fixing the bug: the lab must pass.\n    \
             if let Err(f) = xsi_conformance::run_scenario(&s) {\n        \
             panic!(\"conformance regression: {f}\");\n    }\n"
        };
        format!(
            "/// Auto-generated by xsi-fuzz (seed {:#x}).\n\
             /// Original failure: {}\n\
             #[test]\n\
             fn {name}() {{\n    \
             let replay = r#\"{}\"#;\n    \
             let s = xsi_conformance::Scenario::parse_replay(replay).unwrap();\n\
             {assertion}}}\n",
            self.seed,
            original_failure.replace('\n', " "),
            self.to_replay(),
        )
    }
}

fn parse_op(words: &[&str]) -> Result<ScenarioOp, String> {
    match words {
        ["add-node", label] => Ok(ScenarioOp::AddNode {
            label: label.to_string(),
        }),
        ["insert-edge", f, t, k] => Ok(ScenarioOp::InsertEdge {
            from: f.parse().map_err(|_| format!("bad index {f:?}"))?,
            to: t.parse().map_err(|_| format!("bad index {t:?}"))?,
            kind: parse_kind(k)?,
        }),
        ["delete-edge", f, t] => Ok(ScenarioOp::DeleteEdge {
            from: f.parse().map_err(|_| format!("bad index {f:?}"))?,
            to: t.parse().map_err(|_| format!("bad index {t:?}"))?,
        }),
        ["remove-node", n] => Ok(ScenarioOp::RemoveNode {
            node: n.parse().map_err(|_| format!("bad index {n:?}"))?,
        }),
        ["add-subtree", parent, first, rest @ ..] => {
            let parent = parent
                .parse()
                .map_err(|_| format!("bad index {parent:?}"))?;
            if first.contains(':') {
                return Err(format!("subtree node 0 takes no local parent: {first:?}"));
            }
            let mut nodes = vec![(first.to_string(), 0usize)];
            for (i, w) in rest.iter().enumerate() {
                let (label, lp) = w
                    .split_once(':')
                    .ok_or_else(|| format!("subtree node needs label:parent, got {w:?}"))?;
                let lp: usize = lp.parse().map_err(|_| format!("bad local parent {lp:?}"))?;
                if lp > i {
                    return Err(format!("local parent {lp} is not an earlier subtree node"));
                }
                nodes.push((label.to_string(), lp));
            }
            Ok(ScenarioOp::AddSubtree { parent, nodes })
        }
        ["remove-subtree", r] => Ok(ScenarioOp::RemoveSubtree {
            root: r.parse().map_err(|_| format!("bad index {r:?}"))?,
        }),
        ["freeze"] => Ok(ScenarioOp::Freeze),
        _ => Err(format!("unknown op {words:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            seed: 0xE9E9,
            k: 2,
            fault: Some(FaultSpec::DropEdgeDelete { period: 3 }),
            base_labels: vec!["a".into(), "b".into()],
            base_edges: vec![(0, 1, EdgeKind::Child), (1, 2, EdgeKind::IdRef)],
            queries: vec!["/a//b".into(), "//*".into()],
            ops: vec![
                ScenarioOp::AddNode { label: "c".into() },
                ScenarioOp::InsertEdge {
                    from: 3,
                    to: 1,
                    kind: EdgeKind::IdRef,
                },
                ScenarioOp::DeleteEdge { from: 1, to: 2 },
                ScenarioOp::AddSubtree {
                    parent: 1,
                    nodes: vec![("a".into(), 0), ("b".into(), 0), ("c".into(), 1)],
                },
                ScenarioOp::Freeze,
                ScenarioOp::RemoveSubtree { root: 2 },
                ScenarioOp::RemoveNode { node: 1 },
            ],
        }
    }

    #[test]
    fn replay_round_trips() {
        let s = sample();
        let text = s.to_replay();
        let back = Scenario::parse_replay(&text).unwrap();
        assert_eq!(s, back);
        // And the round-trip is a fixpoint.
        assert_eq!(back.to_replay(), text);
    }

    #[test]
    fn replay_round_trips_without_fault() {
        let mut s = sample();
        s.fault = None;
        assert_eq!(Scenario::parse_replay(&s.to_replay()).unwrap(), s);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "xsi-conformance-replay v2\nend\n",
            "xsi-conformance-replay v1\n", // missing end
            "xsi-conformance-replay v1\nbogus 1\nend\n",
            "xsi-conformance-replay v1\nop insert-edge 1\nend\n",
            "xsi-conformance-replay v1\nbase-edge 0 1 sideways\nend\n",
            "xsi-conformance-replay v1\nop add-subtree 0 a:3\nend\n",
            "xsi-conformance-replay v1\nend\nop add-node a\n",
        ] {
            assert!(Scenario::parse_replay(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn trace_lines_after_end_are_ignored_and_extractable() {
        let text = "xsi-conformance-replay v1\nseed 7\nk 1\nend\n\
                    # flight-recorder trace\n\
                    trace 0 Op op=insert-edge\n\
                    trace 1 IndexDispatch family=1-index op=insert-edge splits=1 merges=0 no_op=false\n";
        let s = Scenario::parse_replay(text).unwrap();
        assert_eq!(s.seed, 7);
        let trace = Scenario::embedded_trace(text);
        assert_eq!(trace.len(), 2);
        assert!(trace[0].starts_with("0 Op"));
        // Non-trace content after end is still rejected.
        let bad = "xsi-conformance-replay v1\nend\ntraceish 0\n";
        assert!(Scenario::parse_replay(bad).is_err());
        // Traceless reproducers extract an empty trace.
        assert!(Scenario::embedded_trace("xsi-conformance-replay v1\nend\n").is_empty());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "xsi-conformance-replay v1\n# a comment\n\nseed 7\nk 1\nend\n";
        let s = Scenario::parse_replay(text).unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.k, 1);
    }

    #[test]
    fn regression_test_embeds_replay() {
        let s = sample();
        let test = s.to_regression_test("repro_e9e9", "one-minimality: mergeable blocks");
        assert!(test.contains("xsi-conformance-replay v1"));
        assert!(test.contains("fn repro_e9e9()"));
        assert!(test.contains("run_scenario"));
        // Fault-injected scenarios assert the lab keeps failing.
        assert!(test.contains("is_err"));
        let mut clean = s;
        clean.fault = None;
        let test2 = clean.to_regression_test("repro_clean", "x");
        assert!(test2.contains("conformance regression"));
    }
}
