//! `core::obs` — the dependency-free observability layer for the update
//! pipeline: causal spans, and a flight recorder plus a metrics
//! registry fed from the closed ones (see DESIGN.md §8).
//!
//! The paper's empirical argument (§5.1, Figs. 5/7/8) is about
//! *counting what an update did* — splits, merges, the intermediate
//! blow-up |Φ₁|, affected blocks. This module makes those counts (and
//! per-phase wall-clock time) observable without adding any registry
//! dependency: the JSON writer and the JSONL trace format are
//! hand-rolled ([`json`]), keeping tier-1 fully offline.
//!
//! Structure:
//!
//! * [`span`] — the one instrumentation primitive: RAII
//!   [`SpanGuard`]s forming a causal tree, armed explicitly
//!   ([`span::begin_collection`]) or by the engine for one call;
//! * [`event`] — what a recorded span carries ([`SpanLabel`], the
//!   [`OpKind`]/[`BatchSegment`] labels, compact [`IndexFamily`]
//!   handles) and its JSONL and stable renderings;
//! * [`recorder`] — pluggable sinks: [`FlightRecorder`] (ring buffer,
//!   overwrite-oldest) and [`JsonlWriter`];
//! * [`metrics`] — [`MetricsRegistry`]: counters / gauges / power-of-two
//!   bucket histograms keyed by `(name, family, op, phase)`;
//! * [`ObsHub`] (here) — what the [`crate::engine::UpdateEngine`] owns:
//!   one recorder + one optional registry + the family table + the
//!   record sequence counter. Closed pipeline spans enter it through
//!   [`ObsHub::record`] only.
//!
//! The hub is **disabled by default** ([`ObsHub::disabled`]): no
//! recorder, no metrics, and [`ObsHub::is_active`] is `false`, so the
//! engine arms no span recording and every span site costs one
//! thread-local read and a branch. `benches/obs_overhead.rs` in
//! `xsi-bench` verifies the disabled path is within noise of the
//! pre-instrumentation engine.

pub mod event;
pub mod export;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod postmortem;
pub mod recorder;
pub mod span;

pub use event::{BatchSegment, IndexFamily, LabeledSpan, OpKind, SpanLabel};
pub use export::{chrome_trace_json, folded_stacks, FoldWeight};
pub use mem::{HeapUse, MemReport};
pub use metrics::{Histogram, MetricKey, MetricsRegistry};
pub use recorder::{FlightRecorder, JsonlWriter, Recorder};
pub use span::{SpanCounters, SpanGuard, SpanKind, SpanRecord, SpanTree};

/// The observability hub an [`crate::engine::UpdateEngine`] owns: one
/// pluggable [`Recorder`], an optional [`MetricsRegistry`], the index
/// family table, and the record sequence counter.
///
/// Single-writer like the engine itself — no locks, no channels; the
/// "lock-free-ish" flight recorder is a plain ring buffer reached only
/// through the engine's `&mut self` methods.
pub struct ObsHub {
    /// `None` means tracing disabled.
    recorder: Option<Box<dyn Recorder>>,
    metrics: Option<MetricsRegistry>,
    families: Vec<String>,
    seq: u64,
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::disabled()
    }
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHub")
            .field(
                "recorder",
                &self
                    .recorder
                    .as_ref()
                    .map(|r| r.describe())
                    .unwrap_or("off"),
            )
            .field("metrics", &self.metrics.is_some())
            .field("families", &self.families)
            .field("seq", &self.seq)
            .finish()
    }
}

impl ObsHub {
    /// A fully inactive hub: no recorder, no metrics. Instrumented code
    /// checks [`ObsHub::is_active`] and skips everything.
    pub fn disabled() -> Self {
        ObsHub {
            recorder: None,
            metrics: None,
            families: Vec::new(),
            seq: 0,
        }
    }

    /// Whether any sink wants records. The engine arms span recording
    /// for a call only when this holds, so the disabled hub leaves every
    /// span site at one branch with no clock read.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.recorder.is_some() || self.metrics.is_some()
    }

    /// Installs a recorder, returning the previous one. The previous
    /// recorder gets a final flush; a writer keeps any error it met, so
    /// flushing the returned recorder again reports it.
    pub fn set_recorder(&mut self, r: Box<dyn Recorder>) -> Option<Box<dyn Recorder>> {
        let mut old = self.recorder.replace(r);
        if let Some(prev) = old.as_mut() {
            let _ = prev.flush();
        }
        old
    }

    /// Turns the metrics registry on (idempotent).
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(MetricsRegistry::new());
        }
    }

    /// The metrics registry, if enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Mutable access to the metrics registry, for publishers that write
    /// point-in-time state rather than records (the snapshot retention
    /// gauge).
    pub fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.metrics.as_mut()
    }

    /// Registers an index family name, returning its compact handle.
    /// Re-registering an existing name returns the existing handle.
    pub fn register_family(&mut self, name: &str) -> IndexFamily {
        if let Some(i) = self.families.iter().position(|f| f == name) {
            return IndexFamily(i as u16);
        }
        assert!(
            self.families.len() < u16::MAX as usize,
            "too many index families"
        );
        self.families.push(name.to_string());
        IndexFamily((self.families.len() - 1) as u16)
    }

    /// The registered family names, handle order.
    pub fn families(&self) -> &[String] {
        &self.families
    }

    /// Resolves a family handle to its name through
    /// [`IndexFamily::name_in`] (empty for [`IndexFamily::NONE`]).
    pub fn family_name(&self, f: IndexFamily) -> String {
        f.name_in(&self.families).unwrap_or_default()
    }

    /// Total records handed to the sinks so far (the next record's
    /// sequence number).
    pub fn events_emitted(&self) -> u64 {
        self.seq
    }

    /// Hands one closed pipeline span to the active sinks — the single
    /// way records enter the hub: the recorder stores or streams it
    /// under the next sequence number (with the current family table),
    /// the metrics registry files it. No-op when inactive.
    pub fn record(&mut self, rec: &LabeledSpan) {
        if !self.is_active() {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        if let Some(r) = self.recorder.as_mut() {
            r.record(seq, rec, &self.families);
        }
        if let Some(m) = self.metrics.as_mut() {
            m.observe_span(rec);
        }
    }

    /// Flushes the recorder (e.g. before reading an output file),
    /// passing up the first I/O error the recorder met. `Ok` when no
    /// recorder is installed.
    pub fn flush(&mut self) -> std::io::Result<()> {
        match self.recorder.as_mut() {
            Some(r) => r.flush(),
            None => Ok(()),
        }
    }

    /// Snapshot of the recorder's retained `(seq, record)` pairs (empty
    /// when tracing is off or the recorder does not retain).
    pub fn flight_records(&self) -> Vec<(u64, LabeledSpan)> {
        self.recorder
            .as_ref()
            .map(|r| r.records())
            .unwrap_or_default()
    }

    /// The retained records rendered through [`event::stable_line`]:
    /// the deterministic projection (no timestamps/durations) that
    /// conformance reproducers embed and replay compares.
    pub fn stable_trace(&self) -> Vec<String> {
        self.flight_records()
            .iter()
            .map(|(seq, rec)| event::stable_line(*seq, rec, &self.families))
            .collect()
    }

    /// Metrics as JSON (`{}`-shaped empty document when disabled).
    pub fn metrics_json(&self) -> String {
        match &self.metrics {
            Some(m) => m.to_json(&self.families),
            None => MetricsRegistry::new().to_json(&self.families),
        }
    }

    /// The deterministic metrics projection (timing histograms
    /// excluded) — identical across identically seeded runs.
    pub fn metrics_deterministic_json(&self) -> String {
        match &self.metrics {
            Some(m) => m.to_deterministic_json(&self.families),
            None => MetricsRegistry::new().to_deterministic_json(&self.families),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::UpdateStats;

    fn labeled(span: SpanRecord, label: SpanLabel) -> LabeledSpan {
        LabeledSpan { span, label }
    }

    fn op(op: OpKind) -> LabeledSpan {
        labeled(SpanRecord::new(SpanKind::Op), SpanLabel::Op(op))
    }

    fn dispatch(family: IndexFamily, stats: UpdateStats) -> LabeledSpan {
        labeled(
            SpanRecord {
                family,
                dur_nanos: 123,
                ..SpanRecord::new(SpanKind::IndexDispatch)
            },
            SpanLabel::Dispatch(OpKind::DeleteEdge, Some(stats)),
        )
    }

    #[test]
    fn disabled_hub_is_inert() {
        let mut hub = ObsHub::disabled();
        assert!(!hub.is_active());
        hub.record(&op(OpKind::InsertEdge));
        assert_eq!(hub.events_emitted(), 0);
        assert!(hub.flight_records().is_empty());
        assert!(hub.metrics().is_none());
    }

    #[test]
    fn family_registration_dedupes_and_resolves() {
        let mut hub = ObsHub::disabled();
        let a = hub.register_family("1-index");
        let b = hub.register_family("A(2)-index");
        let a2 = hub.register_family("1-index");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(hub.family_name(a), "1-index");
        assert_eq!(hub.family_name(IndexFamily::NONE), "");
    }

    #[test]
    fn emit_feeds_both_sinks_with_monotonic_seq() {
        let mut hub = ObsHub::disabled();
        hub.set_recorder(Box::new(FlightRecorder::new(16)));
        hub.enable_metrics();
        let fam = hub.register_family("1-index");
        hub.record(&op(OpKind::DeleteEdge));
        let stats = UpdateStats {
            splits: 2,
            merges: 1,
            intermediate_blocks: 12,
            final_blocks: 11,
            no_op: false,
            queue_peak: 3,
            levels_touched: 2,
        };
        hub.record(&dispatch(fam, stats));
        hub.record(&labeled(
            SpanRecord {
                family: fam,
                dur_nanos: 40,
                ..SpanRecord::new(SpanKind::Split)
            },
            SpanLabel::None,
        ));

        let recs = hub.flight_records();
        let seqs: Vec<u64> = recs.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(recs[2].1.span.kind, SpanKind::Split);

        // Metrics saw the same records.
        let m = hub.metrics().unwrap();
        assert_eq!(
            m.counter_value(&MetricKey::named("ops_total").op("delete-edge")),
            1
        );
        assert_eq!(
            m.counter_value(
                &MetricKey::named("splits_total")
                    .family(fam)
                    .op("delete-edge")
            ),
            2
        );
        let qp = m
            .histogram(&MetricKey::named("queue_peak").family(fam).phase("split"))
            .unwrap();
        assert_eq!(qp.max, 3);
        let phase = m
            .histogram(&MetricKey::named("phase_nanos").family(fam).phase("split"))
            .unwrap();
        assert_eq!((phase.count, phase.sum), (1, 40));

        // The stable trace renders family names and no timestamps.
        let trace = hub.stable_trace();
        assert_eq!(trace.len(), 3);
        assert!(trace[1].contains("family=1-index"));
        assert!(!trace[1].contains("123"));
    }

    #[test]
    fn no_op_dispatch_emits_only_the_summary() {
        let mut hub = ObsHub::disabled();
        hub.enable_metrics();
        let fam = hub.register_family("1-index");
        hub.record(&dispatch(
            fam,
            UpdateStats {
                no_op: true,
                final_blocks: 9,
                ..UpdateStats::identity()
            },
        ));
        let m = hub.metrics().unwrap();
        let by_op = |name| MetricKey::named(name).family(fam).op("delete-edge");
        assert_eq!(m.counter_value(&by_op("no_ops_total")), 1);
        assert!(m.histogram(&by_op("dispatch_nanos")).is_some());
        let split = |name| MetricKey::named(name).family(fam).phase("split");
        assert!(m.histogram(&split("intermediate_blocks")).is_none());
        assert!(m.histogram(&split("queue_peak")).is_none());
        assert_eq!(
            m.gauge_value(&MetricKey::named("final_blocks").family(fam)),
            None
        );
    }
}
