//! Record sinks for the observability layer.
//!
//! A [`Recorder`] is where the [`ObsHub`](super::ObsHub) hands off
//! closed pipeline spans, each with the hub's sequence number. Three
//! implementations live here:
//!
//! * [`NullRecorder`] — discards everything; the hub additionally
//!   treats itself as inactive when this is installed, so the
//!   instrumented fast path stays within noise of the uninstrumented
//!   engine (verified by `benches/obs_overhead.rs` in `xsi-bench`).
//! * [`FlightRecorder`] — a fixed-capacity single-writer ring buffer
//!   that overwrites the oldest entries. The conformance lab snapshots
//!   it into every reproducer so a shrunken repro carries the engine's
//!   own account of the failing op.
//! * [`JsonlWriter`] — streams one JSON object per line to any
//!   `io::Write`, using the hand-rolled serializer in
//!   [`jsonl_line`].

use std::io;

use super::event::{jsonl_line, IndexFamily, LabeledSpan};

/// A record sink. Single-writer by design: the [`ObsHub`](super::ObsHub)
/// owns exactly one recorder and all engine mutations flow through one
/// `&mut` engine, so no interior mutability or locking is needed.
pub trait Recorder {
    /// Consumes record `seq` (the hub's sequence number).
    fn record(&mut self, seq: u64, rec: &LabeledSpan);

    /// Flushes buffered output (no-op for in-memory recorders).
    fn flush(&mut self) {}

    /// A chronological snapshot of retained `(seq, record)` pairs.
    /// Recorders that do not retain records return an empty vec.
    fn records(&self) -> Vec<(u64, LabeledSpan)> {
        Vec::new()
    }

    /// Short human-readable name for diagnostics.
    fn describe(&self) -> &'static str;
}

/// Discards every record. The hub special-cases this via
/// [`ObsHub::is_active`](super::ObsHub::is_active) so the engine
/// records no spans at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline]
    fn record(&mut self, _seq: u64, _rec: &LabeledSpan) {}

    fn describe(&self) -> &'static str {
        "null"
    }
}

/// Fixed-capacity ring buffer that keeps the most recent records,
/// overwriting the oldest once full ("flight recorder" semantics).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<(u64, LabeledSpan)>,
    /// Next write position (wraps at `cap`).
    head: usize,
    /// Total records ever recorded (monotonic, does not wrap).
    total: u64,
    cap: usize,
}

impl FlightRecorder {
    /// Creates a recorder retaining the last `cap` records (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            buf: Vec::with_capacity(cap),
            head: 0,
            total: 0,
            cap,
        }
    }

    /// Capacity (maximum retained records).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total records recorded over the recorder's lifetime, including
    /// those already overwritten.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Chronological (oldest → newest) snapshot of retained records.
    pub fn snapshot(&self) -> Vec<(u64, LabeledSpan)> {
        if self.buf.len() < self.cap {
            // Not yet wrapped: buffer is already in order.
            self.buf.clone()
        } else {
            let (newer, older) = self.buf.split_at(self.head);
            older.iter().chain(newer).cloned().collect()
        }
    }
}

impl Recorder for FlightRecorder {
    #[inline]
    fn record(&mut self, seq: u64, rec: &LabeledSpan) {
        let entry = (seq, rec.clone());
        if self.buf.len() < self.cap {
            self.buf.push(entry);
        } else {
            self.buf[self.head] = entry;
        }
        self.head = (self.head + 1) % self.cap;
        self.total += 1;
    }

    fn records(&self) -> Vec<(u64, LabeledSpan)> {
        self.snapshot()
    }

    fn describe(&self) -> &'static str {
        "flight"
    }
}

/// Streams records as JSON Lines to an arbitrary writer. Family handles
/// are resolved to names at write time via the table captured in
/// [`JsonlWriter::new`] — the hub refreshes it on registration.
pub struct JsonlWriter<W: io::Write> {
    out: W,
    families: Vec<String>,
    /// First I/O error encountered, if any (subsequent writes are
    /// skipped; tracing must never panic the engine).
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlWriter<W> {
    /// Wraps `out`; `families` maps [`IndexFamily`] handles to names.
    pub fn new(out: W, families: Vec<String>) -> Self {
        JsonlWriter {
            out,
            families,
            error: None,
        }
    }

    /// The first write error, if any occurred.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Consumes the writer, returning the inner sink.
    pub fn into_inner(self) -> W {
        self.out
    }

    fn family_name(families: &[String], f: IndexFamily) -> String {
        if f == IndexFamily::NONE {
            String::new()
        } else {
            families
                .get(f.0 as usize)
                .cloned()
                .unwrap_or_else(|| format!("family-{}", f.0))
        }
    }
}

impl<W: io::Write> Recorder for JsonlWriter<W> {
    fn record(&mut self, seq: u64, rec: &LabeledSpan) {
        if self.error.is_some() {
            return;
        }
        let families = &self.families;
        let line = jsonl_line(seq, rec, |f| Self::family_name(families, f));
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|_| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }

    fn describe(&self) -> &'static str {
        "jsonl"
    }
}

#[cfg(test)]
mod tests {
    use super::super::event::SpanLabel;
    use super::super::json::Json;
    use super::super::span::{SpanKind, SpanRecord};
    use super::*;

    fn rec() -> LabeledSpan {
        LabeledSpan {
            span: SpanRecord::new(SpanKind::Op),
            label: SpanLabel::None,
        }
    }

    fn seqs(r: &FlightRecorder) -> Vec<u64> {
        r.snapshot().iter().map(|(seq, _)| *seq).collect()
    }

    #[test]
    fn null_recorder_retains_nothing() {
        let mut r = NullRecorder;
        r.record(1, &rec());
        assert!(r.records().is_empty());
    }

    #[test]
    fn flight_recorder_before_wrap_is_in_order() {
        let mut r = FlightRecorder::new(8);
        for i in 0..5 {
            r.record(i, &rec());
        }
        assert_eq!(seqs(&r), vec![0, 1, 2, 3, 4]);
        assert_eq!(r.total_recorded(), 5);
    }

    #[test]
    fn flight_recorder_wraparound_keeps_newest_in_order() {
        let mut r = FlightRecorder::new(4);
        for i in 0..11 {
            r.record(i, &rec());
        }
        // 11 records through a 4-slot ring: the last 4 survive, oldest
        // first.
        assert_eq!(seqs(&r), vec![7, 8, 9, 10]);
        assert_eq!(r.total_recorded(), 11);
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn flight_recorder_exact_fill_boundary() {
        let mut r = FlightRecorder::new(3);
        for i in 0..3 {
            r.record(i, &rec());
        }
        assert_eq!(seqs(&r), vec![0, 1, 2]);
        // One more overwrites the oldest.
        r.record(3, &rec());
        assert_eq!(seqs(&r), vec![1, 2, 3]);
    }

    #[test]
    fn flight_recorder_zero_cap_clamps_to_one() {
        let mut r = FlightRecorder::new(0);
        r.record(1, &rec());
        r.record(2, &rec());
        assert_eq!(seqs(&r), vec![2]);
    }

    #[test]
    fn jsonl_writer_emits_one_parseable_object_per_line() {
        let mut w = JsonlWriter::new(Vec::new(), vec!["1-index".into()]);
        w.record(0, &rec());
        w.record(1, &rec());
        w.flush();
        assert!(w.error().is_none());
        let text = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let v = Json::parse(line).expect("valid JSON line");
            assert_eq!(v.get("seq").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(v.get("kind").and_then(Json::as_str), Some("Op"));
        }
    }
}
