//! The benchmark's own span recorder.
//!
//! Every public call the benchmark makes into a layer of the system is
//! timed through [`Tracer::start`] / [`Tracer::close`]. An untraced run
//! only reads the clock, which is how the end-to-end latencies are
//! taken; a traced run also keeps one span per call in memory and dumps
//! them at the end as Chrome trace-event JSON in the
//! `xsi-chrome-trace-v1` shape that `xsi_metrics_check --chrome-trace`
//! validates and Perfetto opens.
//!
//! Spans never nest: each call closes before the next one opens, so
//! open order equals close order, every span is a root, and the layer
//! shares of a run add up without double counting. A span's layer is its
//! name up to the first `.` (`oneindex.build` → `oneindex`), named after
//! the module the call enters.

use std::time::Instant;

/// One closed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Open time, nanoseconds since the tracer was created.
    pub ts_ns: u64,
    /// Close − open, at least 1.
    pub dur_ns: u64,
}

/// Clock plus, when recording, the in-memory span list.
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that only times calls.
    pub fn off() -> Self {
        Tracer {
            recording: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A tracer that also records every call as a span.
    pub fn on() -> Self {
        Tracer {
            recording: true,
            ..Tracer::off()
        }
    }

    #[inline]
    pub fn start(&self) -> Instant {
        Instant::now()
    }

    /// Closes the call opened at `start` and returns its duration in ns.
    #[inline]
    pub fn close(&mut self, name: &'static str, start: Instant) -> u64 {
        let dur_ns = nanos(start.elapsed().as_nanos()).max(1);
        if self.recording {
            let ts_ns = nanos(start.duration_since(self.epoch).as_nanos());
            debug_assert!(
                self.spans.last().is_none_or(|s| s.ts_ns <= ts_ns),
                "spans must not nest ({name})"
            );
            self.spans.push(Span {
                name,
                ts_ns,
                dur_ns,
            });
        }
        dur_ns
    }

    /// Runs `f` as one call named `name`; returns its result and duration.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let t = self.start();
        let r = f();
        let ns = self.close(name, t);
        (r, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds since the tracer was created.
    fn wall_ns(&self) -> u64 {
        nanos(self.epoch.elapsed().as_nanos())
    }

    /// Durations of the recorded spans whose name is in `names`.
    pub fn durations(&self, names: &[&str]) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.dur_ns)
            .collect()
    }

    /// Σ span durations over the wall time since creation, in percent.
    pub fn coverage_pct(&self) -> f64 {
        let covered: u64 = self.spans.iter().map(|s| s.dur_ns).sum();
        100.0 * covered as f64 / self.wall_ns().max(1) as f64
    }

    /// The spans as `xsi-chrome-trace-v1` JSON: complete events in open
    /// order, with the exact nanosecond values and ids in `args`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 150 + 128);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"format\":\"xsi-chrome-trace-v1\",\"dropped\":0,\"workload\":\"");
        out.push_str(workload);
        out.push_str("\"},\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{},\"parent\":0,\"ts_ns\":{},\"dur_ns\":{}}}}}",
                s.name,
                layer(s.name),
                micros(s.ts_ns),
                micros(s.dur_ns),
                i + 1,
                s.ts_ns,
                s.dur_ns
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// The layer a span name belongs to.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn nanos(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Nanoseconds as microseconds with three exact decimals.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_times_without_recording() {
        let mut tr = Tracer::off();
        let (v, ns) = tr.time("graph.insert_edge", || 7);
        assert_eq!(v, 7);
        assert!(ns >= 1);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn chrome_json_has_ids_layers_and_exact_nanos() {
        let mut tr = Tracer::on();
        tr.time("xml.parse_str", || ());
        tr.time("oneindex.build", || ());
        let json = tr.chrome_json("w");
        assert!(json.contains("\"format\":\"xsi-chrome-trace-v1\""));
        assert!(json.contains("\"name\":\"oneindex.build\",\"cat\":\"oneindex\""));
        assert!(json.contains("\"id\":2,\"parent\":0"));
        let s = tr.spans()[1];
        assert!(json.contains(&format!("\"ts_ns\":{},\"dur_ns\":{}", s.ts_ns, s.dur_ns)));
        assert!(tr.spans()[0].ts_ns <= s.ts_ns);
        assert_eq!(tr.durations(&["xml.parse_str"]).len(), 1);
    }
}
