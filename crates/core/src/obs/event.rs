//! What the hub records: the labels a pipeline span carries and the two
//! renderings of a recorded span.
//!
//! A closed pipeline span is the only record type the
//! [`crate::obs::ObsHub`] accepts: a [`LabeledSpan`], the
//! [`SpanRecord`] (kind, family, time, counters) and the [`SpanLabel`]
//! the engine gave it — the op kind of an `Op`, the op kind and
//! [`UpdateStats`] summary of an `IndexDispatch`, the segment of a
//! `BatchSegment`, and so on. Index families are referenced by a compact
//! [`IndexFamily`] handle into the hub's registration table.
//!
//! Two renderings exist, both over the same field list:
//!
//! * [`jsonl_line`] — the full record (timestamps included), one JSON
//!   object per line, for the [`crate::obs::JsonlWriter`];
//! * [`stable_line`] — the *deterministic* projection (timestamps and
//!   durations excluded), used by the conformance lab's reproducers so
//!   that replaying a reproducer regenerates an equivalent trace
//!   bit-for-bit.

use crate::obs::json::escape_into;
use crate::obs::span::SpanRecord;
use crate::stats::UpdateStats;

/// Compact handle to a registered index family (slot order of
/// [`crate::obs::ObsHub::register_family`]). `NONE` marks records that
/// are not about any particular index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexFamily(pub u16);

impl IndexFamily {
    /// "No family": engine-level records.
    pub const NONE: IndexFamily = IndexFamily(u16::MAX);
}

/// The kind of update operation flowing through the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A node addition.
    AddNode,
    /// An edge insertion.
    InsertEdge,
    /// An edge deletion.
    DeleteEdge,
    /// A node removal (decomposes into edge deletions).
    RemoveNode,
}

impl OpKind {
    /// Stable kebab-case label (metrics `op` label, trace field).
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::AddNode => "add-node",
            OpKind::InsertEdge => "insert-edge",
            OpKind::DeleteEdge => "delete-edge",
            OpKind::RemoveNode => "remove-node",
        }
    }
}

/// One phase segment of [`crate::UpdateEngine::apply_batch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSegment {
    /// Phase 1: node additions.
    AddNodes,
    /// Phase 2: edge insertions.
    InsertEdges,
    /// Phase 3: explicit edge deletions.
    DeleteEdges,
    /// Phase 4: node removals (incl. implicit edge sweeps).
    RemoveNodes,
}

impl BatchSegment {
    /// Stable kebab-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            BatchSegment::AddNodes => "add-nodes",
            BatchSegment::InsertEdges => "insert-edges",
            BatchSegment::DeleteEdges => "delete-edges",
            BatchSegment::RemoveNodes => "remove-nodes",
        }
    }
}

/// What a pipeline span is about beyond its kind, family and counters.
/// Set once per span by the engine through `SpanGuard::set_label`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpanLabel {
    /// Kernel spans and phase spans carry no label.
    #[default]
    None,
    /// `Op`: the operation kind.
    Op(OpKind),
    /// `IndexDispatch`: the observed operation and, for edge hooks, the
    /// index's [`UpdateStats`] for it (node hooks report none).
    Dispatch(OpKind, Option<UpdateStats>),
    /// `BatchSegment`: which phase segment.
    Segment(BatchSegment),
    /// `Rebuild`: the block count after reconstruction (the `blocks`
    /// counter holds the count before).
    Rebuild {
        /// Blocks after the rebuild.
        blocks_after: u64,
    },
    /// `OracleCheck`: the conformance lab's oracle battery after one op.
    Oracle {
        /// Oracle checks passed so far in the run.
        checks: u64,
        /// Whether a check failed (the run is being convicted).
        failed: bool,
    },
}

/// A closed pipeline span as the hub receives it: the span record and
/// its label. The label travels beside the record rather than in it, so
/// collected [`SpanRecord`]s stay 64 bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabeledSpan {
    /// The closed span, with its effective family.
    pub span: SpanRecord,
    /// What the span is about beyond kind, family and counters.
    pub label: SpanLabel,
}

/// One rendered field value.
enum Value {
    Str(String),
    Num(u64),
    Bool(bool),
}

/// The deterministic fields of a record, in render order: family, label
/// fields, then the non-zero counters.
fn fields(
    rec: &LabeledSpan,
    family_name: impl Fn(IndexFamily) -> String,
) -> Vec<(&'static str, Value)> {
    let mut out = Vec::new();
    if rec.span.family != IndexFamily::NONE {
        out.push(("family", Value::Str(family_name(rec.span.family))));
    }
    let num = |v: usize| Value::Num(v as u64);
    match rec.label {
        SpanLabel::None => {}
        SpanLabel::Op(op) => out.push(("op", Value::Str(op.as_str().into()))),
        SpanLabel::Dispatch(op, stats) => {
            out.push(("op", Value::Str(op.as_str().into())));
            if let Some(s) = stats {
                out.push(("splits", num(s.splits)));
                out.push(("merges", num(s.merges)));
                out.push(("no_op", Value::Bool(s.no_op)));
                out.push(("intermediate_blocks", num(s.intermediate_blocks)));
                out.push(("final_blocks", num(s.final_blocks)));
                out.push(("queue_peak", num(s.queue_peak)));
                out.push(("levels_touched", num(s.levels_touched)));
            }
        }
        SpanLabel::Segment(seg) => out.push(("segment", Value::Str(seg.as_str().into()))),
        SpanLabel::Rebuild { blocks_after } => out.push(("blocks_after", Value::Num(blocks_after))),
        SpanLabel::Oracle { checks, failed } => {
            out.push(("checks", Value::Num(checks)));
            out.push(("failed", Value::Bool(failed)));
        }
    }
    let c = &rec.span.counters;
    for (key, v) in [
        ("blocks", c.blocks),
        ("elems", c.elems),
        ("queue_depth", c.queue_depth),
        ("cow_clones", c.cow_clones),
    ] {
        if v > 0 {
            out.push((key, Value::Num(v)));
        }
    }
    out
}

/// Renders record `seq` as one JSON object (no trailing newline),
/// resolving family handles through `family_name`. Hand-rolled — tier-1
/// stays dependency-free.
pub fn jsonl_line(
    seq: u64,
    rec: &LabeledSpan,
    family_name: impl Fn(IndexFamily) -> String,
) -> String {
    let mut out = format!(
        "{{\"seq\":{seq},\"kind\":\"{}\",\"ts_ns\":{},\"dur_ns\":{}",
        rec.span.kind.name(),
        rec.span.ts_nanos,
        rec.span.dur_nanos
    );
    for (key, value) in fields(rec, family_name) {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        match value {
            Value::Str(s) => {
                out.push('"');
                escape_into(&s, &mut out);
                out.push('"');
            }
            Value::Num(n) => out.push_str(&n.to_string()),
            Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

/// Renders the *deterministic* projection of record `seq`: `<seq>
/// <Kind>` followed by single-space-separated `key=value` fields —
/// timestamps and durations excluded — so two identical seeded runs
/// produce identical lines. This is what conformance reproducers embed.
pub fn stable_line(
    seq: u64,
    rec: &LabeledSpan,
    family_name: impl Fn(IndexFamily) -> String,
) -> String {
    let mut s = format!("{seq} {}", rec.span.kind.name());
    for (key, value) in fields(rec, family_name) {
        let value = match value {
            Value::Str(v) => v,
            Value::Num(n) => n.to_string(),
            Value::Bool(b) => b.to_string(),
        };
        s.push_str(&format!(" {key}={value}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::Json;
    use crate::obs::span::{SpanCounters, SpanKind};

    fn fam(f: IndexFamily) -> String {
        if f == IndexFamily::NONE {
            String::new()
        } else {
            format!("family-{}", f.0)
        }
    }

    fn record(kind: SpanKind, family: IndexFamily, label: SpanLabel) -> LabeledSpan {
        LabeledSpan {
            span: SpanRecord {
                family,
                ts_nanos: 5,
                dur_nanos: 10,
                counters: SpanCounters {
                    blocks: 2,
                    ..SpanCounters::default()
                },
                ..SpanRecord::new(kind)
            },
            label,
        }
    }

    /// The kind names are the trace's `kind` field: distinct, so a
    /// reader can tell every record apart by kind alone.
    #[test]
    fn callsites_are_distinct() {
        for (i, a) in SpanKind::ALL.iter().enumerate() {
            for b in &SpanKind::ALL[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn jsonl_parses_and_carries_fields() {
        let span = record(
            SpanKind::IndexDispatch,
            IndexFamily(1),
            SpanLabel::Dispatch(
                OpKind::InsertEdge,
                Some(UpdateStats {
                    splits: 3,
                    queue_peak: 5,
                    ..UpdateStats::default()
                }),
            ),
        );
        let line = jsonl_line(7, &span, fam);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("seq").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("IndexDispatch"));
        assert_eq!(v.get("family").and_then(Json::as_str), Some("family-1"));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("insert-edge"));
        assert_eq!(v.get("splits").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("queue_peak").and_then(Json::as_u64), Some(5));
        assert_eq!(v.get("no_op").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("dur_ns").and_then(Json::as_u64), Some(10));
    }

    /// One record of every kind, each with its label.
    fn every_kind() -> Vec<LabeledSpan> {
        let family = IndexFamily(1);
        let stats = UpdateStats {
            splits: 2,
            merges: 1,
            intermediate_blocks: 40,
            final_blocks: 39,
            queue_peak: 5,
            levels_touched: 3,
            no_op: false,
        };
        let records: Vec<LabeledSpan> = SpanKind::ALL
            .iter()
            .map(|&kind| {
                // Exhaustive on purpose: a new kind does not compile here
                // until it is given its label.
                let (family, label) = match kind {
                    SpanKind::Op => (IndexFamily::NONE, SpanLabel::Op(OpKind::RemoveNode)),
                    SpanKind::IndexDispatch => {
                        (family, SpanLabel::Dispatch(OpKind::InsertEdge, Some(stats)))
                    }
                    SpanKind::Split
                    | SpanKind::Merge
                    | SpanKind::CompoundProcess
                    | SpanKind::KernelScan
                    | SpanKind::Freeze => (family, SpanLabel::None),
                    SpanKind::BatchSegment => (
                        IndexFamily::NONE,
                        SpanLabel::Segment(BatchSegment::RemoveNodes),
                    ),
                    SpanKind::Rebuild => (family, SpanLabel::Rebuild { blocks_after: 40 }),
                    SpanKind::OracleCheck => (
                        IndexFamily::NONE,
                        SpanLabel::Oracle {
                            checks: 12,
                            failed: true,
                        },
                    ),
                };
                record(kind, family, label)
            })
            .collect();
        records
    }

    /// Reproducers embed stable lines verbatim, so every kind renders
    /// as `<seq> <Kind>` followed by single-space-separated `key=value`
    /// tokens — no runs of spaces, no bare words.
    #[test]
    fn stable_lines_are_single_spaced_key_value_tokens() {
        for (seq, rec) in every_kind().iter().enumerate() {
            let line = stable_line(seq as u64, rec, fam);
            let head = format!("{seq} {}", rec.span.kind.name());
            let rest = line
                .strip_prefix(&head)
                .unwrap_or_else(|| panic!("{line:?} does not start with {head:?}"));
            let tokens = rest
                .strip_prefix(' ')
                .unwrap_or_else(|| panic!("{line:?}: no fields after the kind"));
            for token in tokens.split(' ') {
                let (key, value) = token
                    .split_once('=')
                    .unwrap_or_else(|| panic!("{line:?}: token {token:?} is not key=value"));
                assert!(
                    !key.is_empty() && !value.is_empty() && !value.contains('='),
                    "{line:?}: malformed token {token:?}"
                );
            }
        }
    }

    #[test]
    fn stable_line_excludes_time() {
        let mk = |ts, dur| {
            let mut rec = record(SpanKind::Merge, IndexFamily(0), SpanLabel::None);
            rec.span.ts_nanos = ts;
            rec.span.dur_nanos = dur;
            rec
        };
        assert_eq!(
            stable_line(0, &mk(1, 10), fam),
            stable_line(0, &mk(999, 77), fam)
        );
        assert_eq!(
            stable_line(3, &mk(1, 10), fam),
            "3 Merge family=family-0 blocks=2"
        );
    }
}
