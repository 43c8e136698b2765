//! Record sinks for the observability layer.
//!
//! A [`Recorder`] is where the [`ObsHub`](super::ObsHub) hands off
//! closed pipeline spans, each with the hub's sequence number and its
//! family table. Two implementations live here:
//!
//! * [`FlightRecorder`] — a fixed-capacity single-writer ring buffer
//!   that overwrites the oldest entries. The conformance lab snapshots
//!   it into every reproducer so a shrunken repro carries the engine's
//!   own account of the failing op.
//! * [`JsonlWriter`] — streams one JSON object per line to any
//!   `io::Write`, using the hand-rolled serializer in
//!   [`jsonl_line`].

use std::io;

use super::event::{jsonl_line, LabeledSpan};

/// A record sink. Single-writer by design: the [`ObsHub`](super::ObsHub)
/// owns exactly one recorder and all engine mutations flow through one
/// `&mut` engine, so no interior mutability or locking is needed.
pub trait Recorder {
    /// Consumes record `seq` (the hub's sequence number). `families` is
    /// the hub's family table at the time of the record, so a family
    /// registered after the recorder was installed still resolves.
    fn record(&mut self, seq: u64, rec: &LabeledSpan, families: &[String]);

    /// Flushes buffered output, reporting the first I/O error the sink
    /// met since it was installed (in-memory recorders return `Ok`).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// A chronological snapshot of retained `(seq, record)` pairs.
    /// Recorders that do not retain records return an empty vec.
    fn records(&self) -> Vec<(u64, LabeledSpan)> {
        Vec::new()
    }

    /// Short human-readable name for diagnostics.
    fn describe(&self) -> &'static str;
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
    fn record(&mut self, seq: u64, rec: &LabeledSpan, _families: &[String]) {
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
/// are resolved to names at write time through the table the hub passes
/// with each record.
pub struct JsonlWriter<W: io::Write> {
    out: W,
    /// First I/O error encountered, if any: later writes are skipped
    /// (tracing must never panic the engine) and [`Recorder::flush`]
    /// reports it.
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlWriter<W> {
    /// Wraps `out`.
    pub fn new(out: W) -> Self {
        JsonlWriter { out, error: None }
    }

    /// Consumes the writer, returning the inner sink.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: io::Write> Recorder for JsonlWriter<W> {
    fn record(&mut self, seq: u64, rec: &LabeledSpan, families: &[String]) {
        if self.error.is_some() {
            return;
        }
        let line = jsonl_line(seq, rec, families);
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|_| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
        match &self.error {
            None => Ok(()),
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
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
    fn flight_recorder_before_wrap_is_in_order() {
        let mut r = FlightRecorder::new(8);
        for i in 0..5 {
            r.record(i, &rec(), &[]);
        }
        assert_eq!(seqs(&r), vec![0, 1, 2, 3, 4]);
        assert_eq!(r.total_recorded(), 5);
    }

    #[test]
    fn flight_recorder_wraparound_keeps_newest_in_order() {
        let mut r = FlightRecorder::new(4);
        for i in 0..11 {
            r.record(i, &rec(), &[]);
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
            r.record(i, &rec(), &[]);
        }
        assert_eq!(seqs(&r), vec![0, 1, 2]);
        // One more overwrites the oldest.
        r.record(3, &rec(), &[]);
        assert_eq!(seqs(&r), vec![1, 2, 3]);
    }

    #[test]
    fn flight_recorder_zero_cap_clamps_to_one() {
        let mut r = FlightRecorder::new(0);
        r.record(1, &rec(), &[]);
        r.record(2, &rec(), &[]);
        assert_eq!(seqs(&r), vec![2]);
    }

    #[test]
    fn jsonl_writer_emits_one_parseable_object_per_line() {
        let mut w = JsonlWriter::new(Vec::new());
        w.record(0, &rec(), &[]);
        w.record(1, &rec(), &[]);
        w.flush().expect("writing to a Vec cannot fail");
        let text = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let v = Json::parse(line).expect("valid JSON line");
            assert_eq!(v.get("seq").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(v.get("kind").and_then(Json::as_str), Some("Op"));
        }
    }

    /// A sink that accepts nothing.
    struct Full;

    impl io::Write for Full {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "no space"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A failed write is not lost: the writer stops writing, and every
    /// later flush reports the error.
    #[test]
    fn jsonl_writer_flush_reports_a_failed_write() {
        let mut w = JsonlWriter::new(Full);
        w.record(0, &rec(), &[]);
        w.record(1, &rec(), &[]);
        let err = w.flush().expect_err("the write failed");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(w.flush().is_err(), "the error stays latched");
    }
}
