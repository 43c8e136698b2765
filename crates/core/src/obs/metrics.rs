//! The metrics registry: counters, gauges, and fixed-bucket histograms
//! keyed by `(metric name, index family, op kind, phase)`.
//!
//! Populated from the same closed pipeline spans the flight recorder
//! sees ([`MetricsRegistry::observe_span`]), plus the gauges and
//! histograms the engine's mem-report publisher writes directly, and
//! exportable two ways:
//!
//! * [`MetricsRegistry::to_json`] — machine-readable, the payload of
//!   the bench driver's `--metrics-out` / `BENCH_*.json` summaries;
//! * [`MetricsRegistry::to_prometheus`] — Prometheus text exposition
//!   format (counters/gauges as-is, histograms as summaries with
//!   `quantile` labels), for scraping a long-running process.
//!
//! Histograms use fixed power-of-two buckets (`0`, `[2ⁱ⁻¹, 2ⁱ)`), so a
//! single scheme covers both nanosecond latencies and block-count
//! sizes; quantiles (p50/p90/p99) are bucket-upper-bound estimates,
//! `max` is exact. Everything lives in `BTreeMap`s, so export order is
//! deterministic — the conformance determinism test compares the
//! [`MetricsRegistry::to_deterministic_json`] projection (timing
//! histograms excluded) across identically seeded runs.

use crate::obs::event::{IndexFamily, LabeledSpan, SpanLabel};
use crate::obs::json::quote;
use crate::obs::span::SpanKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// A fixed-bucket histogram over `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    /// Total samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact maximum sample (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// The bucket index a value falls into.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Records `count` identical samples at `v`. Buckets, count, sum
    /// and max update exactly as `count` calls of [`Histogram::observe`]
    /// would.
    pub fn observe_n(&mut self, v: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.counts[bucket_index(v)] += count;
        self.count += count;
        self.sum = self.sum.saturating_add(v.saturating_mul(count));
        self.max = self.max.max(v);
    }

    /// Estimated quantile `q` ∈ [0, 1]: the upper bound of the first
    /// bucket whose cumulative count reaches `q · count`, clamped to
    /// the exact maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Raw bucket counts (test/inspection aid).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// The full key of one metric series. Unused label dimensions are the
/// empty string / [`IndexFamily::NONE`] and are omitted from exports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (`snake_case`; `*_total` counters, `*_nanos`
    /// latency histograms).
    pub name: &'static str,
    /// Which index family the series is about.
    pub family: IndexFamily,
    /// Which op kind the series is about.
    pub op: &'static str,
    /// Which pipeline phase the series is about.
    pub phase: &'static str,
}

impl MetricKey {
    /// A key with only the metric name set.
    pub fn named(name: &'static str) -> Self {
        MetricKey {
            name,
            family: IndexFamily::NONE,
            op: "",
            phase: "",
        }
    }

    /// Sets the family label.
    pub fn family(mut self, family: IndexFamily) -> Self {
        self.family = family;
        self
    }

    /// Sets the op label.
    pub fn op(mut self, op: &'static str) -> Self {
        self.op = op;
        self
    }

    /// Sets the phase label.
    pub fn phase(mut self, phase: &'static str) -> Self {
        self.phase = phase;
        self
    }
}

/// Counters, gauges, and histograms for the update pipeline.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to a counter (created at 0 on first use).
    pub fn counter_add(&mut self, key: MetricKey, v: u64) {
        *self.counters.entry(key).or_insert(0) += v;
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, key: MetricKey, v: f64) {
        self.gauges.insert(key, v);
    }

    /// Records a histogram sample.
    pub fn observe(&mut self, key: MetricKey, v: u64) {
        self.histograms.entry(key).or_default().observe(v);
    }

    /// Current counter value (0 if the series does not exist).
    pub fn counter_value(&self, key: &MetricKey) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Current gauge value.
    pub fn gauge_value(&self, key: &MetricKey) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// The histogram for a key, if any samples were recorded.
    pub fn histogram(&self, key: &MetricKey) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Number of distinct series across all metric types.
    pub fn series_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Files one closed pipeline span into the registry. This is the
    /// single mapping from span records to metric series — the hub
    /// calls it for every record when metrics are enabled. Phase time
    /// is the `Split`/`Merge` span duration.
    pub fn observe_span(&mut self, rec: &LabeledSpan) {
        let s = &rec.span;
        let family = MetricKey::named("").family(s.family);
        let key = |name| MetricKey { name, ..family };
        match (s.kind, rec.label) {
            (SpanKind::Op, SpanLabel::Op(op)) => {
                self.counter_add(MetricKey::named("ops_total").op(op.as_str()), 1);
            }
            (SpanKind::IndexDispatch, SpanLabel::Dispatch(op, Some(st))) => {
                let by_op = |name| key(name).op(op.as_str());
                self.counter_add(by_op("splits_total"), st.splits as u64);
                self.counter_add(by_op("merges_total"), st.merges as u64);
                self.observe(by_op("dispatch_nanos"), s.dur_nanos);
                if st.no_op {
                    self.counter_add(by_op("no_ops_total"), 1);
                    return;
                }
                let split = |name| key(name).phase("split");
                self.observe(split("intermediate_blocks"), st.intermediate_blocks as u64);
                self.observe(split("queue_peak"), st.queue_peak as u64);
                self.gauge_set(key("final_blocks"), st.final_blocks as f64);
                if st.levels_touched > 0 {
                    self.observe(key("rank_levels_touched"), st.levels_touched as u64);
                }
            }
            (SpanKind::Split, _) => {
                self.observe(key("phase_nanos").phase("split"), s.dur_nanos);
            }
            (SpanKind::Merge, _) => {
                self.observe(key("phase_nanos").phase("merge"), s.dur_nanos);
            }
            (SpanKind::BatchSegment, SpanLabel::Segment(segment)) => {
                let by_segment = |name| MetricKey::named(name).phase(segment.as_str());
                self.counter_add(by_segment("batch_segments_total"), 1);
                self.counter_add(by_segment("batch_ops_total"), s.counters.elems);
            }
            (SpanKind::Rebuild, SpanLabel::Rebuild { blocks_after }) => {
                self.counter_add(key("rebuilds_total"), 1);
                self.observe(key("rebuild_nanos"), s.dur_nanos);
                self.gauge_set(key("final_blocks"), blocks_after as f64);
            }
            (SpanKind::Freeze, _) => {
                self.counter_add(key("snapshots_total"), 1);
                // `_nanos` histograms are excluded from the deterministic
                // JSON projection automatically.
                self.observe(key("snapshot_freeze_nanos"), s.dur_nanos);
                self.observe(key("snapshot_blocks"), s.counters.blocks);
                self.gauge_set(key("snapshot_cow_clones"), s.counters.cow_clones as f64);
            }
            (SpanKind::OracleCheck, SpanLabel::Oracle { checks, failed }) => {
                self.counter_add(MetricKey::named("oracle_checks_total"), checks);
                if failed {
                    self.counter_add(MetricKey::named("oracle_failures_total"), 1);
                }
            }
            // Node-hook dispatches carry no stats; kernel kinds never
            // reach the hub.
            _ => {}
        }
    }

    /// Records `count` identical histogram samples at `v` in one call —
    /// how `publish_mem_reports` transplants a whole pre-bucketed
    /// distribution (extent lengths, inline occupancies) into the
    /// registry without replaying every individual sample.
    pub fn observe_n(&mut self, key: MetricKey, v: u64, count: u64) {
        self.histograms.entry(key).or_default().observe_n(v, count);
    }

    fn labels_json(key: &MetricKey, families: &[String]) -> String {
        let mut parts: Vec<String> = Vec::new();
        if key.family != IndexFamily::NONE {
            let name = families
                .get(key.family.0 as usize)
                .map(String::as_str)
                .unwrap_or("?");
            parts.push(format!("\"family\":{}", quote(name)));
        }
        if !key.op.is_empty() {
            parts.push(format!("\"op\":{}", quote(key.op)));
        }
        if !key.phase.is_empty() {
            parts.push(format!("\"phase\":{}", quote(key.phase)));
        }
        format!("{{{}}}", parts.join(","))
    }

    /// Exports every series as one JSON document (see DESIGN.md §8 for
    /// the schema). `families` resolves [`IndexFamily`] handles.
    pub fn to_json(&self, families: &[String]) -> String {
        self.to_json_inner(families, false)
    }

    /// The deterministic projection: identical for two identically
    /// seeded runs. Timing histograms (`*_nanos`) carry wall-clock
    /// measurements and are excluded; everything else — counters,
    /// block-count gauges, size histograms — is replay-stable.
    pub fn to_deterministic_json(&self, families: &[String]) -> String {
        self.to_json_inner(families, true)
    }

    fn to_json_inner(&self, families: &[String], deterministic: bool) -> String {
        let mut out = String::from("{\"format\":\"xsi-metrics-v1\"");
        out.push_str(",\"counters\":[");
        let mut first = true;
        for (key, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":{},\"labels\":{},\"value\":{v}}}",
                quote(key.name),
                Self::labels_json(key, families)
            );
        }
        out.push_str("],\"gauges\":[");
        let mut first = true;
        for (key, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":{},\"labels\":{},\"value\":{v}}}",
                quote(key.name),
                Self::labels_json(key, families)
            );
        }
        out.push_str("],\"histograms\":[");
        let mut first = true;
        for (key, h) in &self.histograms {
            if deterministic && key.name.ends_with("_nanos") {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":{},\"labels\":{},\"count\":{},\"sum\":{},\"max\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{}}}",
                quote(key.name),
                Self::labels_json(key, families),
                h.count,
                h.sum,
                h.max,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            );
        }
        out.push_str("]}");
        out
    }

    fn labels_prom(key: &MetricKey, families: &[String], extra: Option<(&str, &str)>) -> String {
        let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut parts: Vec<String> = Vec::new();
        if key.family != IndexFamily::NONE {
            let name = families
                .get(key.family.0 as usize)
                .map(String::as_str)
                .unwrap_or("?");
            parts.push(format!("family=\"{}\"", escape(name)));
        }
        if !key.op.is_empty() {
            parts.push(format!("op=\"{}\"", escape(key.op)));
        }
        if !key.phase.is_empty() {
            parts.push(format!("phase=\"{}\"", escape(key.phase)));
        }
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{}\"", escape(v)));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }

    /// Exports every series in the Prometheus text exposition format.
    /// Counters and gauges map directly; histograms are exposed as
    /// summaries (`quantile` labels plus `_sum`/`_count`/`_max`). All
    /// metric names carry the `xsi_` prefix.
    pub fn to_prometheus(&self, families: &[String]) -> String {
        let mut out = String::new();
        let mut last_type: Option<(&'static str, &'static str)> = None;
        let mut type_line = |out: &mut String, name: &'static str, ty: &'static str| {
            if last_type != Some((name, ty)) {
                let _ = writeln!(out, "# TYPE xsi_{name} {ty}");
                last_type = Some((name, ty));
            }
        };
        for (key, v) in &self.counters {
            type_line(&mut out, key.name, "counter");
            let _ = writeln!(
                out,
                "xsi_{}{} {v}",
                key.name,
                Self::labels_prom(key, families, None)
            );
        }
        for (key, v) in &self.gauges {
            type_line(&mut out, key.name, "gauge");
            let _ = writeln!(
                out,
                "xsi_{}{} {v}",
                key.name,
                Self::labels_prom(key, families, None)
            );
        }
        for (key, h) in &self.histograms {
            type_line(&mut out, key.name, "summary");
            for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "xsi_{}{} {}",
                    key.name,
                    Self::labels_prom(key, families, Some(("quantile", label))),
                    h.quantile(q)
                );
            }
            let plain = Self::labels_prom(key, families, None);
            let _ = writeln!(out, "xsi_{}_sum{plain} {}", key.name, h.sum);
            let _ = writeln!(out, "xsi_{}_count{plain} {}", key.name, h.count);
            let _ = writeln!(out, "xsi_{}_max{plain} {}", key.name, h.max);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::Json;

    #[test]
    fn bucket_boundaries() {
        // Bucket 0 is exactly {0}; bucket i is [2^(i-1), 2^i).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lands in a bucket whose range contains it.
        for v in [0u64, 1, 2, 7, 100, 4096, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "{v} above bucket {i} upper");
            if i > 0 {
                assert!(
                    v > bucket_upper(i - 1),
                    "{v} not above bucket {} upper",
                    i - 1
                );
            }
        }
    }

    #[test]
    fn quantile_estimates_and_exact_max() {
        let mut h = Histogram::default();
        // 90 fast samples (≤ 127), 10 slow (≤ 1023 with max 900).
        for _ in 0..90 {
            h.observe(100);
        }
        for _ in 0..9 {
            h.observe(800);
        }
        h.observe(900);
        assert_eq!(h.count, 100);
        assert_eq!(h.max, 900);
        // p50 and p90 land in the 100s bucket [64, 127].
        assert_eq!(h.quantile(0.50), 127);
        assert_eq!(h.quantile(0.90), 127);
        // p99 lands in the 800s bucket [512, 1023], clamped to max.
        assert_eq!(h.quantile(0.99), 900);
        assert_eq!(h.quantile(1.0), 900);
        // Empty histogram reports zeros.
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn json_export_parses_and_filters_timing() {
        let mut r = MetricsRegistry::new();
        let fam = IndexFamily(0);
        r.counter_add(
            MetricKey::named("splits_total")
                .family(fam)
                .op("insert-edge"),
            3,
        );
        r.observe(
            MetricKey::named("phase_nanos").family(fam).phase("split"),
            250,
        );
        r.observe(MetricKey::named("queue_peak").family(fam).phase("split"), 4);
        r.gauge_set(MetricKey::named("final_blocks").family(fam), 17.0);
        let families = vec!["1-index".to_string()];

        let v = Json::parse(&r.to_json(&families)).unwrap();
        assert_eq!(
            v.get("format").and_then(Json::as_str),
            Some("xsi-metrics-v1")
        );
        let counters = v.get("counters").unwrap().as_arr().unwrap();
        assert_eq!(
            counters[0].get("name").and_then(Json::as_str),
            Some("splits_total")
        );
        assert_eq!(
            counters[0]
                .get("labels")
                .unwrap()
                .get("family")
                .and_then(Json::as_str),
            Some("1-index")
        );
        assert_eq!(counters[0].get("value").and_then(Json::as_u64), Some(3));
        let hists = v.get("histograms").unwrap().as_arr().unwrap();
        assert_eq!(hists.len(), 2);
        for h in hists {
            for k in ["count", "sum", "max", "p50", "p90", "p99"] {
                assert!(h.get(k).is_some(), "histogram missing {k}");
            }
        }

        // The deterministic projection drops the *_nanos histogram only.
        let det = Json::parse(&r.to_deterministic_json(&families)).unwrap();
        let det_hists = det.get("histograms").unwrap().as_arr().unwrap();
        assert_eq!(det_hists.len(), 1);
        assert_eq!(
            det_hists[0].get("name").and_then(Json::as_str),
            Some("queue_peak")
        );
        assert_eq!(det.get("counters").unwrap().as_arr().unwrap().len(), 1);
    }

    /// Golden test for the Prometheus text exposition format.
    #[test]
    fn prometheus_golden() {
        let mut r = MetricsRegistry::new();
        let fam = IndexFamily(0);
        r.counter_add(MetricKey::named("ops_total").op("insert-edge"), 2);
        r.counter_add(
            MetricKey::named("splits_total")
                .family(fam)
                .op("insert-edge"),
            5,
        );
        r.gauge_set(MetricKey::named("final_blocks").family(fam), 17.0);
        let mut key = MetricKey::named("phase_nanos").family(fam).phase("split");
        key.op = "";
        for v in [100u64, 100, 100, 900] {
            r.observe(key, v);
        }
        let families = vec![r#"A(2)-"quoted""#.to_string()];
        let got = r.to_prometheus(&families);
        let want = concat!(
            "# TYPE xsi_ops_total counter\n",
            "xsi_ops_total{op=\"insert-edge\"} 2\n",
            "# TYPE xsi_splits_total counter\n",
            "xsi_splits_total{family=\"A(2)-\\\"quoted\\\"\",op=\"insert-edge\"} 5\n",
            "# TYPE xsi_final_blocks gauge\n",
            "xsi_final_blocks{family=\"A(2)-\\\"quoted\\\"\"} 17\n",
            "# TYPE xsi_phase_nanos summary\n",
            "xsi_phase_nanos{family=\"A(2)-\\\"quoted\\\"\",phase=\"split\",quantile=\"0.5\"} 127\n",
            "xsi_phase_nanos{family=\"A(2)-\\\"quoted\\\"\",phase=\"split\",quantile=\"0.9\"} 900\n",
            "xsi_phase_nanos{family=\"A(2)-\\\"quoted\\\"\",phase=\"split\",quantile=\"0.99\"} 900\n",
            "xsi_phase_nanos_sum{family=\"A(2)-\\\"quoted\\\"\",phase=\"split\"} 1200\n",
            "xsi_phase_nanos_count{family=\"A(2)-\\\"quoted\\\"\",phase=\"split\"} 4\n",
            "xsi_phase_nanos_max{family=\"A(2)-\\\"quoted\\\"\",phase=\"split\"} 900\n",
        );
        assert_eq!(got, want);
    }
}
