//! The structured event model of the flight recorder: what happened,
//! where in the pipeline, and when.
//!
//! Events are small `Copy` values — a monotonic sequence number, a
//! timestamp relative to the [`crate::obs::ObsHub`] epoch, a static
//! [`CallsiteId`] naming the instrumentation point, and a typed
//! [`EventPayload`] carrying the numbers the paper's Section 5.1
//! analysis counts (splits, merges, |Φ₁|, work-queue sizes). Index
//! families are referenced by a compact [`IndexFamily`] handle into the
//! hub's registration table, so no event ever allocates.
//!
//! Two renderings exist:
//!
//! * [`Event::to_jsonl`] — the full record (timestamps included), one
//!   JSON object per line, for the [`crate::obs::JsonlWriter`];
//! * [`Event::stable_line`] — the *deterministic* projection
//!   (timestamps and durations excluded), used by the conformance lab's
//!   reproducers so that replaying a reproducer regenerates an
//!   equivalent trace bit-for-bit.

use crate::obs::json::escape_into;

/// A static identifier for one instrumentation point. The `id` is
/// stable across runs (it is part of the JSONL schema); the `name` is
/// the human-readable form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallsiteId {
    /// Stable numeric id (part of the trace schema).
    pub id: u16,
    /// Human-readable callsite name (kebab-case).
    pub name: &'static str,
}

/// The pipeline's static callsites, one per interesting moment.
pub mod callsite {
    use super::CallsiteId;

    /// An update operation entered the engine.
    pub const OP_RECEIVED: CallsiteId = CallsiteId {
        id: 1,
        name: "op-received",
    };
    /// One registered index observed the mutation.
    pub const INDEX_DISPATCH: CallsiteId = CallsiteId {
        id: 2,
        name: "index-dispatch",
    };
    /// The split phase of one index's maintenance.
    pub const SPLIT_PHASE: CallsiteId = CallsiteId {
        id: 3,
        name: "split-phase",
    };
    /// The merge phase of one index's maintenance.
    pub const MERGE_PHASE: CallsiteId = CallsiteId {
        id: 4,
        name: "merge-phase",
    };
    /// A(k) refinement-chain (rank) maintenance touched levels j₀..k.
    pub const RANK_MAINTENANCE: CallsiteId = CallsiteId {
        id: 5,
        name: "rank-maintenance",
    };
    /// A rebuild policy fired and the index was reconstructed.
    pub const REBUILD: CallsiteId = CallsiteId {
        id: 6,
        name: "rebuild-triggered",
    };
    /// One phase segment of a batch application.
    pub const BATCH_SEGMENT: CallsiteId = CallsiteId {
        id: 7,
        name: "batch-segment",
    };
    /// The conformance lab ran its oracle battery after an op.
    pub const ORACLE_CHECK: CallsiteId = CallsiteId {
        id: 8,
        name: "oracle-check",
    };
    /// One index published a dense-store representation report.
    pub const STORE_REPORT: CallsiteId = CallsiteId {
        id: 9,
        name: "store-report",
    };
    /// One index was frozen into an in-memory [`crate::view::IndexSnapshot`].
    pub const SNAPSHOT_FREEZE: CallsiteId = CallsiteId {
        id: 10,
        name: "snapshot-freeze",
    };
    /// One index published a deep-memory attribution report.
    pub const MEM_REPORT: CallsiteId = CallsiteId {
        id: 11,
        name: "mem-report",
    };
}

/// Compact handle to a registered index family (slot order of
/// [`crate::obs::ObsHub::register_family`]). `NONE` marks events that
/// are not about any particular index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexFamily(pub u16);

impl IndexFamily {
    /// "No family": engine-level events.
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
    /// A whole batch (its primitive ops emit their own events).
    Batch,
}

impl OpKind {
    /// Stable kebab-case label (metrics `op` label, trace field).
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::AddNode => "add-node",
            OpKind::InsertEdge => "insert-edge",
            OpKind::DeleteEdge => "delete-edge",
            OpKind::RemoveNode => "remove-node",
            OpKind::Batch => "batch",
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

/// The typed payload of one event. Counters are `u32` — an individual
/// operation never splits/merges more blocks than there are nodes, and
/// keeping the payload at two words makes the ring buffer cheap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventPayload {
    /// An operation entered the engine.
    OpReceived {
        /// What kind of operation.
        op: OpKind,
    },
    /// One index observed one mutation (summary over both phases).
    IndexDispatch {
        /// Which registered index.
        family: IndexFamily,
        /// The observed operation.
        op: OpKind,
        /// Block splits this op caused in this index.
        splits: u32,
        /// Block merges this op caused in this index.
        merges: u32,
        /// Whether the index took its no-op fast path.
        no_op: bool,
        /// Wall-clock nanoseconds inside the index's hook.
        nanos: u64,
    },
    /// The split phase of one index's maintenance (only for non-no-ops).
    SplitPhase {
        /// Which registered index.
        family: IndexFamily,
        /// Splits performed.
        splits: u32,
        /// |Φ₁|: index size after splitting, before merging.
        intermediate_blocks: u32,
        /// Peak Paige–Tarjan work-queue size (blocks in queued compounds).
        queue_peak: u32,
        /// Wall-clock nanoseconds inside the split phase.
        nanos: u64,
    },
    /// The merge phase of one index's maintenance (only for non-no-ops).
    MergePhase {
        /// Which registered index.
        family: IndexFamily,
        /// Merges performed.
        merges: u32,
        /// |Φ₂|: index size after the whole update.
        final_blocks: u32,
        /// Wall-clock nanoseconds inside the merge phase.
        nanos: u64,
    },
    /// A(k) refinement-chain maintenance touched `levels_touched` ranks
    /// (levels j₀..=k of the chain).
    RankMaintenance {
        /// Which registered index.
        family: IndexFamily,
        /// Number of chain levels the update touched (k − j₀ + 1).
        levels_touched: u32,
    },
    /// A [`crate::rebuild::RebuildPolicy`] fired.
    RebuildTriggered {
        /// Which registered index.
        family: IndexFamily,
        /// Block count before reconstruction.
        blocks_before: u32,
        /// Block count after reconstruction.
        blocks_after: u32,
        /// Wall-clock nanoseconds inside the reconstruction.
        nanos: u64,
    },
    /// One phase segment of a batch finished.
    BatchSegment {
        /// Which segment.
        segment: BatchSegment,
        /// Primitive graph mutations the segment applied.
        ops: u32,
    },
    /// The conformance lab ran its oracle battery after an op.
    OracleCheck {
        /// Oracle checks that passed.
        checks: u32,
        /// Whether a check failed (the run is being convicted).
        failed: bool,
    },
    /// A point-in-time [`crate::store::StoreReport`] snapshot of one
    /// index's iedge-map representation state (emitted on demand by
    /// [`crate::engine::UpdateEngine::publish_store_reports`]).
    StoreReport {
        /// Which registered index.
        family: IndexFamily,
        /// Live maps currently in the inline representation.
        inline_maps: u32,
        /// Live maps currently spilled to the sorted-map representation.
        spilled_maps: u32,
        /// Cumulative inline→spilled transitions since construction.
        spill_events: u32,
        /// Total (block, neighbor) entries across live maps.
        entries: u32,
        /// Largest live map.
        max_entries: u32,
        /// Sum of worst-case per-lookup comparison counts over live maps;
        /// divide by `inline_maps + spilled_maps` for a mean probe length.
        probe_total: u64,
    },
    /// One index was frozen into an in-memory
    /// [`crate::view::IndexSnapshot`] (emitted by
    /// [`crate::engine::UpdateEngine::freeze`]).
    SnapshotFreeze {
        /// Which registered index.
        family: IndexFamily,
        /// Blocks captured in the frozen view.
        blocks: u32,
        /// The index's cumulative CoW clone count *after* this freeze —
        /// extent runs the writer had to copy because an earlier
        /// snapshot still shared them.
        cow_clones: u64,
        /// Wall-clock nanoseconds inside the freeze.
        nanos: u64,
    },
    /// The scalar aggregates of one index's point-in-time
    /// [`crate::obs::mem::MemReport`] (emitted on demand by
    /// [`crate::engine::UpdateEngine::publish_mem_reports`]; the
    /// histograms ride the metrics registry instead — the payload stays
    /// two-words-ish `Copy`).
    MemReport {
        /// Which registered index.
        family: IndexFamily,
        /// Sum of every byte category; equals the structure's deep
        /// `heap_use()` per the DESIGN.md §13 contract.
        total_bytes: u64,
        /// Extent-run bytes owned solely by the live index.
        extent_owned_bytes: u64,
        /// Extent-run bytes co-held by frozen snapshots (counted once
        /// per run).
        extent_shared_bytes: u64,
        /// Estimated bytes in spilled iedge maps.
        iedge_spilled_bytes: u64,
        /// Live iedge maps in the inline (zero-heap) representation.
        inline_maps: u32,
        /// Live iedge maps spilled to the sorted-map representation.
        spilled_maps: u32,
        /// Extent runs currently shared with a snapshot.
        shared_extents: u32,
        /// Live blocks scanned.
        blocks: u32,
        /// Size of the freshly rebuilt minimum index (the quality
        /// denominator); `blocks - minimum_blocks` is the excess.
        minimum_blocks: u32,
    },
}

impl EventPayload {
    /// The static callsite this payload belongs to.
    pub fn callsite(&self) -> CallsiteId {
        match self {
            EventPayload::OpReceived { .. } => callsite::OP_RECEIVED,
            EventPayload::IndexDispatch { .. } => callsite::INDEX_DISPATCH,
            EventPayload::SplitPhase { .. } => callsite::SPLIT_PHASE,
            EventPayload::MergePhase { .. } => callsite::MERGE_PHASE,
            EventPayload::RankMaintenance { .. } => callsite::RANK_MAINTENANCE,
            EventPayload::RebuildTriggered { .. } => callsite::REBUILD,
            EventPayload::BatchSegment { .. } => callsite::BATCH_SEGMENT,
            EventPayload::OracleCheck { .. } => callsite::ORACLE_CHECK,
            EventPayload::StoreReport { .. } => callsite::STORE_REPORT,
            EventPayload::SnapshotFreeze { .. } => callsite::SNAPSHOT_FREEZE,
            EventPayload::MemReport { .. } => callsite::MEM_REPORT,
        }
    }
}

/// One recorded event. `Copy` so the flight recorder's ring buffer is a
/// plain slot array with no per-event allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic per-hub sequence number (0-based).
    pub seq: u64,
    /// Nanoseconds since the hub's epoch (monotonic clock).
    pub ts_nanos: u64,
    /// Where this event was emitted.
    pub callsite: CallsiteId,
    /// What happened.
    pub payload: EventPayload,
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline),
    /// resolving family handles through `family_name`. Hand-rolled —
    /// tier-1 stays dependency-free.
    pub fn to_jsonl(&self, family_name: impl Fn(IndexFamily) -> String) -> String {
        let mut out = String::with_capacity(128);
        out.push_str(&format!(
            "{{\"seq\":{},\"ts_ns\":{},\"callsite\":{},\"kind\":\"{}\"",
            self.seq, self.ts_nanos, self.callsite.id, self.callsite.name
        ));
        let field_str = |out: &mut String, k: &str, v: &str| {
            out.push_str(&format!(",\"{k}\":\""));
            escape_into(v, out);
            out.push('"');
        };
        let field_num = |out: &mut String, k: &str, v: u64| {
            out.push_str(&format!(",\"{k}\":{v}"));
        };
        let field_bool = |out: &mut String, k: &str, v: bool| {
            out.push_str(&format!(",\"{k}\":{v}"));
        };
        match self.payload {
            EventPayload::OpReceived { op } => {
                field_str(&mut out, "op", op.as_str());
            }
            EventPayload::IndexDispatch {
                family,
                op,
                splits,
                merges,
                no_op,
                nanos,
            } => {
                field_str(&mut out, "family", &family_name(family));
                field_str(&mut out, "op", op.as_str());
                field_num(&mut out, "splits", splits.into());
                field_num(&mut out, "merges", merges.into());
                field_bool(&mut out, "no_op", no_op);
                field_num(&mut out, "nanos", nanos);
            }
            EventPayload::SplitPhase {
                family,
                splits,
                intermediate_blocks,
                queue_peak,
                nanos,
            } => {
                field_str(&mut out, "family", &family_name(family));
                field_num(&mut out, "splits", splits.into());
                field_num(&mut out, "intermediate_blocks", intermediate_blocks.into());
                field_num(&mut out, "queue_peak", queue_peak.into());
                field_num(&mut out, "nanos", nanos);
            }
            EventPayload::MergePhase {
                family,
                merges,
                final_blocks,
                nanos,
            } => {
                field_str(&mut out, "family", &family_name(family));
                field_num(&mut out, "merges", merges.into());
                field_num(&mut out, "final_blocks", final_blocks.into());
                field_num(&mut out, "nanos", nanos);
            }
            EventPayload::RankMaintenance {
                family,
                levels_touched,
            } => {
                field_str(&mut out, "family", &family_name(family));
                field_num(&mut out, "levels_touched", levels_touched.into());
            }
            EventPayload::RebuildTriggered {
                family,
                blocks_before,
                blocks_after,
                nanos,
            } => {
                field_str(&mut out, "family", &family_name(family));
                field_num(&mut out, "blocks_before", blocks_before.into());
                field_num(&mut out, "blocks_after", blocks_after.into());
                field_num(&mut out, "nanos", nanos);
            }
            EventPayload::BatchSegment { segment, ops } => {
                field_str(&mut out, "segment", segment.as_str());
                field_num(&mut out, "ops", ops.into());
            }
            EventPayload::OracleCheck { checks, failed } => {
                field_num(&mut out, "checks", checks.into());
                field_bool(&mut out, "failed", failed);
            }
            EventPayload::StoreReport {
                family,
                inline_maps,
                spilled_maps,
                spill_events,
                entries,
                max_entries,
                probe_total,
            } => {
                field_str(&mut out, "family", &family_name(family));
                field_num(&mut out, "inline_maps", inline_maps.into());
                field_num(&mut out, "spilled_maps", spilled_maps.into());
                field_num(&mut out, "spill_events", spill_events.into());
                field_num(&mut out, "entries", entries.into());
                field_num(&mut out, "max_entries", max_entries.into());
                field_num(&mut out, "probe_total", probe_total);
            }
            EventPayload::SnapshotFreeze {
                family,
                blocks,
                cow_clones,
                nanos,
            } => {
                field_str(&mut out, "family", &family_name(family));
                field_num(&mut out, "blocks", blocks.into());
                field_num(&mut out, "cow_clones", cow_clones);
                field_num(&mut out, "nanos", nanos);
            }
            EventPayload::MemReport {
                family,
                total_bytes,
                extent_owned_bytes,
                extent_shared_bytes,
                iedge_spilled_bytes,
                inline_maps,
                spilled_maps,
                shared_extents,
                blocks,
                minimum_blocks,
            } => {
                field_str(&mut out, "family", &family_name(family));
                field_num(&mut out, "total_bytes", total_bytes);
                field_num(&mut out, "extent_owned_bytes", extent_owned_bytes);
                field_num(&mut out, "extent_shared_bytes", extent_shared_bytes);
                field_num(&mut out, "iedge_spilled_bytes", iedge_spilled_bytes);
                field_num(&mut out, "inline_maps", inline_maps.into());
                field_num(&mut out, "spilled_maps", spilled_maps.into());
                field_num(&mut out, "shared_extents", shared_extents.into());
                field_num(&mut out, "blocks", blocks.into());
                field_num(&mut out, "minimum_blocks", minimum_blocks.into());
            }
        }
        out.push('}');
        out
    }

    /// Renders the *deterministic* projection of the event: sequence
    /// number, callsite and counters — timestamps and durations
    /// excluded — so two identical seeded runs produce identical lines.
    /// This is what conformance reproducers embed.
    pub fn stable_line(&self, family_name: impl Fn(IndexFamily) -> String) -> String {
        let mut s = format!("{} {}", self.seq, self.callsite.name);
        match self.payload {
            EventPayload::OpReceived { op } => {
                s.push_str(&format!(" op={}", op.as_str()));
            }
            EventPayload::IndexDispatch {
                family,
                op,
                splits,
                merges,
                no_op,
                ..
            } => {
                s.push_str(&format!(
                    " family={} op={} splits={splits} merges={merges} no_op={no_op}",
                    family_name(family),
                    op.as_str()
                ));
            }
            EventPayload::SplitPhase {
                family,
                splits,
                intermediate_blocks,
                queue_peak,
                ..
            } => {
                s.push_str(&format!(
                    " family={} splits={splits} intermediate={intermediate_blocks} queue_peak={queue_peak}",
                    family_name(family)
                ));
            }
            EventPayload::MergePhase {
                family,
                merges,
                final_blocks,
                ..
            } => {
                s.push_str(&format!(
                    " family={} merges={merges} final={final_blocks}",
                    family_name(family)
                ));
            }
            EventPayload::RankMaintenance {
                family,
                levels_touched,
            } => {
                s.push_str(&format!(
                    " family={} levels={levels_touched}",
                    family_name(family)
                ));
            }
            EventPayload::RebuildTriggered {
                family,
                blocks_before,
                blocks_after,
                ..
            } => {
                s.push_str(&format!(
                    " family={} before={blocks_before} after={blocks_after}",
                    family_name(family)
                ));
            }
            EventPayload::BatchSegment { segment, ops } => {
                s.push_str(&format!(" segment={} ops={ops}", segment.as_str()));
            }
            EventPayload::OracleCheck { checks, failed } => {
                s.push_str(&format!(" checks={checks} failed={failed}"));
            }
            EventPayload::StoreReport {
                family,
                inline_maps,
                spilled_maps,
                spill_events,
                entries,
                max_entries,
                probe_total,
            } => {
                s.push_str(&format!(
                    " family={} inline={inline_maps} spilled={spilled_maps} \
                     spill_events={spill_events} entries={entries} \
                     max_entries={max_entries} probe_total={probe_total}",
                    family_name(family)
                ));
            }
            EventPayload::SnapshotFreeze {
                family,
                blocks,
                cow_clones,
                ..
            } => {
                s.push_str(&format!(
                    " family={} blocks={blocks} cow_clones={cow_clones}",
                    family_name(family)
                ));
            }
            EventPayload::MemReport {
                family,
                total_bytes,
                extent_owned_bytes,
                extent_shared_bytes,
                iedge_spilled_bytes,
                inline_maps,
                spilled_maps,
                shared_extents,
                blocks,
                minimum_blocks,
            } => {
                s.push_str(&format!(
                    " family={} total={total_bytes} owned={extent_owned_bytes} \
                     shared={extent_shared_bytes} spilled_bytes={iedge_spilled_bytes} \
                     inline={inline_maps} spilled={spilled_maps} \
                     shared_extents={shared_extents} blocks={blocks} \
                     minimum={minimum_blocks}",
                    family_name(family)
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::Json;

    fn fam(f: IndexFamily) -> String {
        if f == IndexFamily::NONE {
            String::new()
        } else {
            format!("family-{}", f.0)
        }
    }

    #[test]
    fn callsites_are_distinct() {
        let all = [
            callsite::OP_RECEIVED,
            callsite::INDEX_DISPATCH,
            callsite::SPLIT_PHASE,
            callsite::MERGE_PHASE,
            callsite::RANK_MAINTENANCE,
            callsite::REBUILD,
            callsite::BATCH_SEGMENT,
            callsite::ORACLE_CHECK,
            callsite::STORE_REPORT,
            callsite::SNAPSHOT_FREEZE,
            callsite::MEM_REPORT,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.id, b.id);
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn jsonl_parses_and_carries_fields() {
        let ev = Event {
            seq: 7,
            ts_nanos: 123,
            callsite: callsite::SPLIT_PHASE,
            payload: EventPayload::SplitPhase {
                family: IndexFamily(1),
                splits: 3,
                intermediate_blocks: 40,
                queue_peak: 5,
                nanos: 999,
            },
        };
        let line = ev.to_jsonl(fam);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("seq").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("split-phase"));
        assert_eq!(v.get("family").and_then(Json::as_str), Some("family-1"));
        assert_eq!(v.get("queue_peak").and_then(Json::as_u64), Some(5));
        assert_eq!(v.get("nanos").and_then(Json::as_u64), Some(999));
    }

    /// One payload of every variant, with non-zero counters.
    fn every_variant() -> Vec<EventPayload> {
        let family = IndexFamily(1);
        let payloads = vec![
            EventPayload::OpReceived {
                op: OpKind::RemoveNode,
            },
            EventPayload::IndexDispatch {
                family,
                op: OpKind::InsertEdge,
                splits: 2,
                merges: 1,
                no_op: false,
                nanos: 10,
            },
            EventPayload::SplitPhase {
                family,
                splits: 2,
                intermediate_blocks: 40,
                queue_peak: 5,
                nanos: 10,
            },
            EventPayload::MergePhase {
                family,
                merges: 1,
                final_blocks: 39,
                nanos: 10,
            },
            EventPayload::RankMaintenance {
                family,
                levels_touched: 3,
            },
            EventPayload::RebuildTriggered {
                family,
                blocks_before: 50,
                blocks_after: 40,
                nanos: 10,
            },
            EventPayload::BatchSegment {
                segment: BatchSegment::RemoveNodes,
                ops: 3,
            },
            EventPayload::OracleCheck {
                checks: 12,
                failed: true,
            },
            EventPayload::StoreReport {
                family,
                inline_maps: 7,
                spilled_maps: 1,
                spill_events: 2,
                entries: 30,
                max_entries: 9,
                probe_total: 44,
            },
            EventPayload::SnapshotFreeze {
                family,
                blocks: 40,
                cow_clones: 3,
                nanos: 10,
            },
            EventPayload::MemReport {
                family,
                total_bytes: 4096,
                extent_owned_bytes: 1024,
                extent_shared_bytes: 512,
                iedge_spilled_bytes: 256,
                inline_maps: 7,
                spilled_maps: 1,
                shared_extents: 2,
                blocks: 40,
                minimum_blocks: 39,
            },
        ];
        // Exhaustive on purpose: a new variant does not compile here
        // until it is listed above.
        for p in &payloads {
            match p {
                EventPayload::OpReceived { .. }
                | EventPayload::IndexDispatch { .. }
                | EventPayload::SplitPhase { .. }
                | EventPayload::MergePhase { .. }
                | EventPayload::RankMaintenance { .. }
                | EventPayload::RebuildTriggered { .. }
                | EventPayload::BatchSegment { .. }
                | EventPayload::OracleCheck { .. }
                | EventPayload::StoreReport { .. }
                | EventPayload::SnapshotFreeze { .. }
                | EventPayload::MemReport { .. } => {}
            }
        }
        payloads
    }

    /// Reproducers embed stable lines verbatim, so every variant renders
    /// as `<seq> <callsite>` followed by single-space-separated
    /// `key=value` tokens — no runs of spaces, no bare words.
    #[test]
    fn stable_lines_are_single_spaced_key_value_tokens() {
        let payloads = every_variant();
        let mut callsites: Vec<u16> = payloads.iter().map(|p| p.callsite().id).collect();
        callsites.sort_unstable();
        callsites.dedup();
        assert_eq!(callsites.len(), payloads.len(), "one payload per callsite");
        for (seq, payload) in payloads.into_iter().enumerate() {
            let ev = Event {
                seq: seq as u64,
                ts_nanos: 1,
                callsite: payload.callsite(),
                payload,
            };
            let line = ev.stable_line(fam);
            let head = format!("{seq} {}", ev.callsite.name);
            let rest = line
                .strip_prefix(&head)
                .unwrap_or_else(|| panic!("{line:?} does not start with {head:?}"));
            let tokens = rest
                .strip_prefix(' ')
                .unwrap_or_else(|| panic!("{line:?}: no fields after the callsite"));
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
        let mk = |ts, nanos| Event {
            seq: 0,
            ts_nanos: ts,
            callsite: callsite::MERGE_PHASE,
            payload: EventPayload::MergePhase {
                family: IndexFamily(0),
                merges: 1,
                final_blocks: 9,
                nanos,
            },
        };
        assert_eq!(mk(1, 10).stable_line(fam), mk(999, 77).stable_line(fam));
        assert!(mk(1, 10).stable_line(fam).contains("merge-phase"));
    }
}
