//! Span-tree exporters: Chrome trace-event JSON and collapsed-stack
//! folded lines.
//!
//! Both render a finished [`SpanTree`] (see [`crate::obs::span`]) for
//! external tools:
//!
//! * [`chrome_trace_json`] — the Trace Event Format's complete-event
//!   (`"ph":"X"`) flavor, loadable in Perfetto (`ui.perfetto.dev`) or
//!   `chrome://tracing`. `ts`/`dur` are microseconds with nanosecond
//!   decimals, rendered from integers (no float formatting) so output
//!   is deterministic for a fixed tree. Exact nano values plus the
//!   span/parent ids ride along in `args` so `xsi_metrics_check` can
//!   verify the tree shape (monotonic `ts`, parent `dur` covering the
//!   children) without reparsing microseconds.
//! * [`folded_stacks`] — one `frame;frame;frame weight` line per
//!   distinct stack, the input format of flamegraph tooling. Weights
//!   are *self* time ([`FoldWeight::SelfNanos`], the flamegraph
//!   convention: children are separate lines, so parent weights must
//!   exclude them) or span counts ([`FoldWeight::Count`], fully
//!   deterministic for seed-pinned replay comparison — wall-clock never
//!   enters the output). Lines are sorted; aggregation is a `BTreeMap`.
//!
//! Frame names are `Kind` or `Kind(family)` when the span carries a
//! family attribution; kernel spans inherit the dispatch family via
//! [`SpanTree::effective_family`] only in the *trace* `args` (folded
//! frames keep the span's own attribution so stacks stay compact).

use std::collections::BTreeMap;

use super::json::escape_into;
use super::span::{SpanRecord, SpanTree};

/// `nanos` as microseconds with 3 decimals, from integer arithmetic
/// (deterministic, exact: 1234 → "1.234").
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1000, nanos % 1000)
}

/// Serialize the tree as Chrome trace-event JSON (complete events, one
/// per span, in open order). `families` is the hub's registration
/// table for family-name resolution.
pub fn chrome_trace_json(tree: &SpanTree, families: &[String]) -> String {
    let mut out = String::with_capacity(tree.spans.len() * 160 + 128);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"format\":\"xsi-chrome-trace-v1\",\"dropped\":");
    out.push_str(&tree.dropped.to_string());
    out.push_str("},\"traceEvents\":[");
    for (i, s) in tree.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        out.push_str(s.kind.name());
        out.push_str("\",\"cat\":\"xsi\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":");
        out.push_str(&micros(s.ts_nanos));
        out.push_str(",\"dur\":");
        out.push_str(&micros(s.dur_nanos));
        out.push_str(",\"args\":{\"id\":");
        out.push_str(&s.id.to_string());
        out.push_str(",\"parent\":");
        out.push_str(&s.parent.to_string());
        out.push_str(",\"ts_ns\":");
        out.push_str(&s.ts_nanos.to_string());
        out.push_str(",\"dur_ns\":");
        out.push_str(&s.dur_nanos.to_string());
        if let Some(fam) = tree.effective_family(s.id).name_in(families) {
            out.push_str(",\"family\":\"");
            escape_into(&fam, &mut out);
            out.push('"');
        }
        out.push_str(",\"blocks\":");
        out.push_str(&s.counters.blocks.to_string());
        out.push_str(",\"elems\":");
        out.push_str(&s.counters.elems.to_string());
        out.push_str(",\"queue_depth\":");
        out.push_str(&s.counters.queue_depth.to_string());
        out.push_str(",\"cow_clones\":");
        out.push_str(&s.counters.cow_clones.to_string());
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

/// What the folded-stack weight column measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldWeight {
    /// Self nanos (duration minus direct children): flamegraph
    /// semantics, the `--folded-out` default.
    SelfNanos,
    /// Span count: wall-clock never enters the output, so two replays
    /// of the same seed-pinned workload fold byte-identically.
    Count,
}

fn frame_name(s: &SpanRecord, families: &[String]) -> String {
    match s.family.name_in(families) {
        Some(fam) => format!("{}({fam})", s.kind.name()),
        None => s.kind.name().to_string(),
    }
}

/// Serialize the tree as collapsed-stack folded lines (sorted;
/// zero-weight stacks are dropped, as flamegraph tools expect).
pub fn folded_stacks(tree: &SpanTree, families: &[String], weight: FoldWeight) -> String {
    // Self time = dur − Σ direct children's dur.
    let mut child_nanos = vec![0u64; tree.spans.len() + 1];
    if weight == FoldWeight::SelfNanos {
        for s in &tree.spans {
            if let Some(slot) = child_nanos.get_mut(s.parent as usize) {
                *slot += s.dur_nanos;
            }
        }
    }
    // Stack prefix per span id; parents precede children in open order,
    // so one forward pass suffices.
    let mut stacks: Vec<String> = Vec::with_capacity(tree.spans.len() + 1);
    stacks.push("xsi".to_string()); // id 0: the shared root frame
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for s in &tree.spans {
        let parent_stack = stacks
            .get(s.parent as usize)
            .cloned()
            .unwrap_or_else(|| "xsi".to_string());
        let stack = format!("{parent_stack};{}", frame_name(s, families));
        let w = match weight {
            FoldWeight::Count => 1,
            FoldWeight::SelfNanos => s
                .dur_nanos
                .saturating_sub(child_nanos.get(s.id as usize).copied().unwrap_or(0)),
        };
        if w > 0 {
            *agg.entry(stack.clone()).or_insert(0) += w;
        }
        stacks.push(stack);
    }
    let mut out = String::new();
    for (stack, w) in &agg {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&w.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::event::IndexFamily;
    use crate::obs::json::Json;
    use crate::obs::span::{SpanCounters, SpanKind};

    fn rec(
        id: u32,
        parent: u32,
        kind: SpanKind,
        family: IndexFamily,
        ts: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            family,
            ts_nanos: ts,
            dur_nanos: dur,
            counters: SpanCounters {
                blocks: id as u64,
                ..SpanCounters::default()
            },
            ..SpanRecord::new(kind)
        }
    }

    fn sample() -> SpanTree {
        SpanTree {
            spans: vec![
                rec(1, 0, SpanKind::Op, IndexFamily::NONE, 0, 1000),
                rec(2, 1, SpanKind::IndexDispatch, IndexFamily(0), 100, 800),
                rec(3, 2, SpanKind::Split, IndexFamily::NONE, 150, 400),
                rec(4, 2, SpanKind::Merge, IndexFamily::NONE, 600, 200),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn chrome_trace_parses_and_links() {
        let fams = vec!["1-index".to_string()];
        let out = chrome_trace_json(&sample(), &fams);
        let parsed = Json::parse(out.trim()).expect("invariant: exporter emits valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("invariant: traceEvents is an array");
        assert_eq!(events.len(), 4);
        let split = &events[2];
        assert_eq!(split.get("name").and_then(|v| v.as_str()), Some("Split"));
        assert_eq!(split.get("ph").and_then(|v| v.as_str()), Some("X"));
        let args = split.get("args").expect("invariant: args present");
        assert_eq!(args.get("parent").and_then(|v| v.as_u64()), Some(2));
        // Kernel-level span inherits the dispatch family in the trace.
        assert_eq!(args.get("family").and_then(|v| v.as_str()), Some("1-index"));
        // µs rendering is exact: 150 ns = 0.150 µs.
        assert_eq!(split.get("ts").and_then(|v| v.as_f64()), Some(0.150));
    }

    #[test]
    fn folded_count_is_deterministic_and_sorted() {
        let fams = vec!["1-index".to_string()];
        let a = folded_stacks(&sample(), &fams, FoldWeight::Count);
        let b = folded_stacks(&sample(), &fams, FoldWeight::Count);
        assert_eq!(a, b);
        assert_eq!(
            a,
            "xsi;Op 1\n\
             xsi;Op;IndexDispatch(1-index) 1\n\
             xsi;Op;IndexDispatch(1-index);Merge 1\n\
             xsi;Op;IndexDispatch(1-index);Split 1\n"
        );
    }

    #[test]
    fn folded_self_nanos_excludes_children() {
        let fams = vec!["1-index".to_string()];
        let out = folded_stacks(&sample(), &fams, FoldWeight::SelfNanos);
        // Op: 1000 − 800 = 200; dispatch: 800 − 600 = 200; leaves keep
        // their full durations.
        assert!(out.contains("xsi;Op 200\n"));
        assert!(out.contains("xsi;Op;IndexDispatch(1-index) 200\n"));
        assert!(out.contains("xsi;Op;IndexDispatch(1-index);Split 400\n"));
        assert!(out.contains("xsi;Op;IndexDispatch(1-index);Merge 200\n"));
        // Total weight equals total root duration: nothing double-counted.
        let total: u64 = out
            .lines()
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|w| w.parse::<u64>().ok())
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn unknown_family_gets_placeholder() {
        let tree = SpanTree {
            spans: vec![rec(1, 0, SpanKind::Freeze, IndexFamily(7), 0, 10)],
            dropped: 0,
        };
        let out = folded_stacks(&tree, &[], FoldWeight::Count);
        assert_eq!(out, "xsi;Freeze(family-7) 1\n");
    }
}
