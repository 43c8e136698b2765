//! `xsi-metrics-check` — offline schema validator for `xsi_bench`
//! outputs. No network, no external deps: parses with the in-repo JSON
//! reader and exits non-zero on the first violation.
//!
//! ```text
//! xsi_metrics_check [--metrics m.json] [--trace t.jsonl]
//!                   [--chrome-trace t.json] [--bench BENCH.json]
//!                   [--sarif report.sarif] [--mem mem.json]
//! ```
//!
//! At least one input flag is required. `--chrome-trace` validates the
//! span exporter's trace-event JSON (`xsi-chrome-trace-v1`); `--bench`
//! validates a perf-trajectory record (`xsi-bench-trajectory-v1`);
//! `--sarif` validates `xsi-lint --sarif` output against the SARIF
//! 2.1.0 shape GitHub code scanning ingests; `--mem` validates the
//! memory/quality artifact (`xsi-mem-v1`) from `xsi_bench --mem-out` —
//! schema *and* the accounting contract (categories sum to
//! `total_bytes`, quality telemetry consistent, histograms the
//! documented widths).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use xsi_bench::cli::Args;
use xsi_core::obs::json::Json;
use xsi_core::obs::SpanKind;

fn fail(msg: &str) -> ExitCode {
    eprintln!("xsi-metrics-check: FAIL: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = Args::parse_env();
    let inputs = ["metrics", "trace", "chrome-trace", "bench", "sarif", "mem"].map(|f| args.str(f));
    args.finish();
    if inputs.iter().all(Option::is_none) {
        return fail(
            "nothing to check: pass --metrics / --trace / --chrome-trace / --bench / --sarif / --mem",
        );
    }

    if let Some(metrics_path) = args.str("metrics") {
        if let Some(code) = check_metrics(metrics_path) {
            return code;
        }
    }

    // Optional JSONL trace: every line parses as a span record with a
    // known kind (and a family where the kind is family-tagged), and
    // seq is strictly increasing.
    if let Some(trace_path) = args.str("trace") {
        if let Some(code) = check_jsonl_trace(trace_path) {
            return code;
        }
    }

    // Optional Chrome trace-event JSON from the span exporter.
    if let Some(path) = args.str("chrome-trace") {
        if let Some(code) = check_chrome_trace(path) {
            return code;
        }
    }

    // Optional perf-trajectory record from xsi_perf_smoke --bench-out.
    if let Some(path) = args.str("bench") {
        if let Some(code) = check_bench_record(path) {
            return code;
        }
    }

    // Optional SARIF log from xsi-lint --sarif.
    if let Some(path) = args.str("sarif") {
        if let Some(code) = check_sarif(path) {
            return code;
        }
    }

    // Optional memory/quality artifact from xsi_bench --mem-out.
    if let Some(path) = args.str("mem") {
        if let Some(code) = check_mem(path) {
            return code;
        }
    }

    ExitCode::SUCCESS
}

/// Validates the `xsi-mem-v1` memory/quality artifact:
///
/// * the envelope (`format`, `bench`, `scale`, `seed`) and a non-empty
///   `families` array;
/// * per family, every byte-category and count key present and numeric,
///   including the CoW shared/owned extent split and the iedge
///   inline/spill split;
/// * the accounting contract: the eight byte categories sum to
///   `total_bytes` exactly (DESIGN.md §13 — disjoint and exhaustive);
/// * quality telemetry: `blocks_over_minimum == blocks -
///   minimum_blocks` (clamped at zero) with `minimum_blocks >= 1`;
/// * `sharing_ratio` in [0, 1] and consistent with the byte split;
/// * histograms at their documented widths (33 power-of-two extent
///   buckets, 65 occupancy buckets) with extent mass bounded by the
///   extent-run count.
fn check_mem(path: &str) -> Option<ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return Some(fail(&format!("cannot read {path}: {e}"))),
    };
    let v = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => return Some(fail(&format!("{path}: not valid JSON: {e}"))),
    };
    if v.get("format").and_then(Json::as_str) != Some("xsi-mem-v1") {
        return Some(fail(&format!("{path}: format must be \"xsi-mem-v1\"")));
    }
    if v.get("bench").and_then(Json::as_str).is_none() {
        return Some(fail(&format!("{path}: missing bench name")));
    }
    for key in ["scale", "seed"] {
        if v.get(key).and_then(Json::as_f64).is_none() {
            return Some(fail(&format!("{path}: missing numeric {key}")));
        }
    }
    let Some(families) = v.get("families").and_then(Json::as_arr) else {
        return Some(fail(&format!("{path}: missing families array")));
    };
    if families.is_empty() {
        return Some(fail(&format!("{path}: empty families array")));
    }
    const CATEGORIES: [&str; 8] = [
        "extent_owned_bytes",
        "extent_shared_bytes",
        "iedge_spilled_bytes",
        "side_table_bytes",
        "scratch_bytes",
        "slab_bytes",
        "dead_retained_bytes",
        "other_bytes",
    ];
    const COUNTS: [&str; 8] = [
        "blocks",
        "minimum_blocks",
        "blocks_over_minimum",
        "report_blocks",
        "owned_extents",
        "shared_extents",
        "iedge_inline_maps",
        "iedge_spilled_maps",
    ];
    for (i, f) in families.iter().enumerate() {
        let Some(name) = f.get("family").and_then(Json::as_str) else {
            return Some(fail(&format!("{path}: families[{i}]: missing family name")));
        };
        for key in CATEGORIES
            .iter()
            .chain(COUNTS.iter())
            .chain(["total_bytes"].iter())
        {
            if f.get(key).and_then(Json::as_u64).is_none() {
                return Some(fail(&format!(
                    "{path}: families[{i}] ({name}): missing numeric {key}"
                )));
            }
        }
        let num = |key: &str| f.get(key).and_then(Json::as_u64).unwrap_or(0);
        let sum: u64 = CATEGORIES.iter().map(|k| num(k)).sum();
        if num("total_bytes") != sum {
            return Some(fail(&format!(
                "{path}: families[{i}] ({name}): categories sum to {sum}, total_bytes says {}",
                num("total_bytes")
            )));
        }
        if num("total_bytes") == 0 {
            return Some(fail(&format!(
                "{path}: families[{i}] ({name}): zero total_bytes (accounting not wired?)"
            )));
        }
        if num("minimum_blocks") < 1 {
            return Some(fail(&format!(
                "{path}: families[{i}] ({name}): minimum_blocks must be >= 1"
            )));
        }
        if num("blocks_over_minimum") != num("blocks").saturating_sub(num("minimum_blocks")) {
            return Some(fail(&format!(
                "{path}: families[{i}] ({name}): blocks_over_minimum inconsistent with blocks/minimum_blocks"
            )));
        }
        let Some(ratio) = f.get("sharing_ratio").and_then(Json::as_f64) else {
            return Some(fail(&format!(
                "{path}: families[{i}] ({name}): missing sharing_ratio"
            )));
        };
        if !(0.0..=1.0).contains(&ratio) {
            return Some(fail(&format!(
                "{path}: families[{i}] ({name}): sharing_ratio {ratio} outside [0, 1]"
            )));
        }
        if num("extent_shared_bytes") == 0 && ratio != 0.0 {
            return Some(fail(&format!(
                "{path}: families[{i}] ({name}): nonzero sharing_ratio without shared bytes"
            )));
        }
        for (key, want) in [("extent_len_hist", 33usize), ("inline_occupancy_hist", 65)] {
            let Some(hist) = f.get(key).and_then(Json::as_arr) else {
                return Some(fail(&format!(
                    "{path}: families[{i}] ({name}): missing {key}"
                )));
            };
            if hist.len() != want {
                return Some(fail(&format!(
                    "{path}: families[{i}] ({name}): {key} has {} buckets, want {want}",
                    hist.len()
                )));
            }
            if hist.iter().any(|b| b.as_u64().is_none()) {
                return Some(fail(&format!(
                    "{path}: families[{i}] ({name}): {key} has a non-integer bucket"
                )));
            }
        }
        let extent_mass: u64 = f
            .get("extent_len_hist")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_u64).sum())
            .unwrap_or(0);
        if extent_mass > num("owned_extents") + num("shared_extents") {
            return Some(fail(&format!(
                "{path}: families[{i}] ({name}): extent_len_hist mass exceeds the extent-run count"
            )));
        }
    }
    println!(
        "xsi-metrics-check: {path}: ok ({} families)",
        families.len()
    );
    None
}

/// Validates a SARIF 2.1.0 log as emitted by `xsi-lint --sarif`: the
/// version/schema pair, one run with a named driver and a rule array,
/// and for every result a known level, a ruleId/ruleIndex pair that
/// resolves into the driver's rule array, one physical location with a
/// positive `startLine`, and a `suppressions` array whose entries carry
/// a known `kind`.
fn check_sarif(path: &str) -> Option<ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return Some(fail(&format!("cannot read {path}: {e}"))),
    };
    let v = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => return Some(fail(&format!("{path}: not valid JSON: {e}"))),
    };
    if v.get("version").and_then(Json::as_str) != Some("2.1.0") {
        return Some(fail("sarif: version must be \"2.1.0\""));
    }
    let schema_ok = v
        .get("$schema")
        .and_then(Json::as_str)
        .is_some_and(|s| s.contains("sarif-2.1.0"));
    if !schema_ok {
        return Some(fail("sarif: $schema must reference sarif-2.1.0"));
    }
    let Some(runs) = v.get("runs").and_then(Json::as_arr) else {
        return Some(fail("sarif: runs must be an array"));
    };
    if runs.len() != 1 {
        return Some(fail(&format!(
            "sarif: expected exactly 1 run, got {}",
            runs.len()
        )));
    }
    let Some(run) = runs.first() else {
        return Some(fail("sarif: runs is empty"));
    };
    let Some(driver) = run.get("tool").and_then(|t| t.get("driver")) else {
        return Some(fail("sarif: run.tool.driver is missing"));
    };
    if driver.get("name").and_then(Json::as_str).is_none() {
        return Some(fail("sarif: tool.driver.name is missing"));
    }
    let Some(rules) = driver.get("rules").and_then(Json::as_arr) else {
        return Some(fail("sarif: tool.driver.rules must be an array"));
    };
    let rule_ids: Vec<&str> = rules
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    if rule_ids.len() != rules.len() {
        return Some(fail("sarif: every driver rule needs a string id"));
    }
    let Some(results) = run.get("results").and_then(Json::as_arr) else {
        return Some(fail("sarif: run.results must be an array"));
    };
    for (i, r) in results.iter().enumerate() {
        let Some(rule_id) = r.get("ruleId").and_then(Json::as_str) else {
            return Some(fail(&format!("sarif: results[{i}]: missing ruleId")));
        };
        let level = r.get("level").and_then(Json::as_str);
        if !matches!(level, Some("error" | "warning" | "note")) {
            return Some(fail(&format!("sarif: results[{i}]: bad level {level:?}")));
        }
        if let Some(ri) = r.get("ruleIndex").and_then(Json::as_u64) {
            if rule_ids.get(ri as usize) != Some(&rule_id) {
                return Some(fail(&format!(
                    "sarif: results[{i}]: ruleIndex {ri} does not resolve to {rule_id:?}"
                )));
            }
        }
        if r.get("message")
            .and_then(|m| m.get("text"))
            .and_then(Json::as_str)
            .is_none()
        {
            return Some(fail(&format!("sarif: results[{i}]: missing message.text")));
        }
        let Some(locs) = r.get("locations").and_then(Json::as_arr) else {
            return Some(fail(&format!("sarif: results[{i}]: missing locations")));
        };
        if locs.len() != 1 {
            return Some(fail(&format!("sarif: results[{i}]: expected 1 location")));
        }
        let phys = locs.first().and_then(|l| l.get("physicalLocation"));
        let uri = phys
            .and_then(|p| p.get("artifactLocation"))
            .and_then(|a| a.get("uri"))
            .and_then(Json::as_str);
        if uri.is_none() {
            return Some(fail(&format!(
                "sarif: results[{i}]: missing physicalLocation.artifactLocation.uri"
            )));
        }
        let start = phys
            .and_then(|p| p.get("region"))
            .and_then(|g| g.get("startLine"))
            .and_then(Json::as_u64);
        if start.is_none_or(|s| s < 1) {
            return Some(fail(&format!(
                "sarif: results[{i}]: region.startLine must be >= 1"
            )));
        }
        let Some(sups) = r.get("suppressions").and_then(Json::as_arr) else {
            return Some(fail(&format!(
                "sarif: results[{i}]: missing suppressions array"
            )));
        };
        for s in sups {
            let kind = s.get("kind").and_then(Json::as_str);
            if !matches!(kind, Some("inSource" | "external")) {
                return Some(fail(&format!(
                    "sarif: results[{i}]: bad suppression kind {kind:?}"
                )));
            }
        }
    }
    println!(
        "xsi-metrics-check: {path}: ok ({} rules, {} results)",
        rules.len(),
        results.len()
    );
    None
}

/// Validates the `xsi-metrics-v1` envelope + registry body; returns
/// `Some(failure)` on the first violation, `None` when clean.
fn check_metrics(metrics_path: &str) -> Option<ExitCode> {
    let text = match std::fs::read_to_string(metrics_path) {
        Ok(t) => t,
        Err(e) => return Some(fail(&format!("cannot read {metrics_path}: {e}"))),
    };
    let v = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => return Some(fail(&format!("{metrics_path}: not valid JSON: {e}"))),
    };

    // Envelope keys written by xsi_bench.
    if v.get("format").and_then(Json::as_str) != Some("xsi-metrics-v1") {
        return Some(fail("format must be \"xsi-metrics-v1\""));
    }
    for key in [
        "bench",
        "workload",
        "scale",
        "seed",
        "pairs",
        "nodes_initial",
        "edges_initial",
        "ops_applied",
        "wall_seconds",
        "engine_ops",
        "engine_update_seconds",
        "events_emitted",
        "families",
        "metrics",
    ] {
        if v.get(key).is_none() {
            return Some(fail(&format!("missing envelope key {key:?}")));
        }
    }
    let Some(families) = v.get("families").and_then(Json::as_arr) else {
        return Some(fail("families must be an array"));
    };
    if families.is_empty() {
        return Some(fail("families array is empty"));
    }

    // Registry body: counters / gauges / histograms arrays with the
    // shapes `MetricsRegistry::to_json` promises.
    let Some(metrics) = v.get("metrics") else {
        return Some(fail("missing metrics object"));
    };
    for section in ["counters", "gauges", "histograms"] {
        let Some(arr) = metrics.get(section).and_then(Json::as_arr) else {
            return Some(fail(&format!("metrics.{section} must be an array")));
        };
        for (i, entry) in arr.iter().enumerate() {
            if entry.get("name").and_then(Json::as_str).is_none() {
                return Some(fail(&format!("metrics.{section}[{i}]: missing name")));
            }
            if section == "histograms" {
                for k in ["count", "sum", "max", "p50", "p90", "p99"] {
                    if entry.get(k).and_then(Json::as_f64).is_none() {
                        return Some(fail(&format!(
                            "metrics.{section}[{i}] ({}): missing {k}",
                            entry.get("name").and_then(Json::as_str).unwrap_or("?")
                        )));
                    }
                }
            } else if entry.get("value").and_then(Json::as_f64).is_none() {
                return Some(fail(&format!("metrics.{section}[{i}]: missing value")));
            }
        }
    }
    let Some(counters) = metrics.get("counters").and_then(Json::as_arr) else {
        return Some(fail("metrics.counters must be an array"));
    };
    let Some(gauges) = metrics.get("gauges").and_then(Json::as_arr) else {
        return Some(fail("metrics.gauges must be an array"));
    };
    let has_ops_total = counters
        .iter()
        .any(|c| c.get("name").and_then(Json::as_str) == Some("ops_total"));
    if !has_ops_total {
        return Some(fail("metrics.counters: no ops_total series"));
    }
    // xsi_bench freezes every family once at the export point, so the
    // snapshot series must be present in any conforming artifact.
    let has_snapshots_total = counters
        .iter()
        .any(|c| c.get("name").and_then(Json::as_str) == Some("snapshots_total"));
    if !has_snapshots_total {
        return Some(fail("metrics.counters: no snapshots_total series"));
    }
    let Some(histograms) = metrics.get("histograms").and_then(Json::as_arr) else {
        return Some(fail("metrics.histograms must be an array"));
    };
    let has_freeze_nanos = histograms
        .iter()
        .any(|h| h.get("name").and_then(Json::as_str) == Some("snapshot_freeze_nanos"));
    if !has_freeze_nanos {
        return Some(fail("metrics.histograms: no snapshot_freeze_nanos series"));
    }
    println!(
        "xsi-metrics-check: {metrics_path}: ok ({} counters, {} gauges, {} histograms)",
        counters.len(),
        gauges.len(),
        histograms.len()
    );
    None
}

/// Validates a JSONL record trace: every line parses, `kind` names a
/// span kind, family-tagged kinds carry `family`, and `seq` is strictly
/// increasing.
fn check_jsonl_trace(trace_path: &str) -> Option<ExitCode> {
    let text = match std::fs::read_to_string(trace_path) {
        Ok(t) => t,
        Err(e) => return Some(fail(&format!("cannot read {trace_path}: {e}"))),
    };
    let mut last_seq: Option<u64> = None;
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(ev) = Json::parse(line) else {
            return Some(fail(&format!("{trace_path}:{}: not valid JSON", i + 1)));
        };
        let Some(seq) = ev.get("seq").and_then(Json::as_u64) else {
            return Some(fail(&format!("{trace_path}:{}: missing seq", i + 1)));
        };
        let Some(kind) = ev
            .get("kind")
            .and_then(Json::as_str)
            .and_then(|k| SpanKind::ALL.into_iter().find(|s| s.name() == k))
        else {
            return Some(fail(&format!(
                "{trace_path}:{}: kind is not a span-kind name",
                i + 1
            )));
        };
        if kind.is_family_tagged() && ev.get("family").and_then(Json::as_str).is_none() {
            return Some(fail(&format!(
                "{trace_path}:{}: {} record without family",
                i + 1,
                kind.name()
            )));
        }
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Some(fail(&format!(
                    "{trace_path}:{}: seq {seq} not increasing (prev {prev})",
                    i + 1
                )));
            }
        }
        last_seq = Some(seq);
        lines += 1;
    }
    if lines == 0 {
        return Some(fail(&format!("{trace_path}: empty trace")));
    }
    println!("xsi-metrics-check: {trace_path}: ok ({lines} records)");
    None
}

/// Validates the span exporter's Chrome trace-event JSON
/// (`xsi-chrome-trace-v1`):
///
/// * envelope keys (`displayTimeUnit`, `otherData.format`,
///   `traceEvents`) are present;
/// * every event is a complete (`ph == "X"`) event with the exporter's
///   `args` payload (`id`, `parent`, `ts_ns`, `dur_ns`);
/// * ids are the 1-based emission order (open order), so `ts_ns` must
///   be monotonically non-decreasing across the array;
/// * every parent id references an earlier event, and each parent span
///   fully accounts for its children: `dur_ns` >= sum of direct
///   children's `dur_ns` (a child outliving its parent means the RAII
///   guards closed out of order).
fn check_chrome_trace(path: &str) -> Option<ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return Some(fail(&format!("cannot read {path}: {e}"))),
    };
    let v = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => return Some(fail(&format!("{path}: not valid JSON: {e}"))),
    };
    if v.get("displayTimeUnit").and_then(Json::as_str).is_none() {
        return Some(fail(&format!("{path}: missing displayTimeUnit")));
    }
    let format = v
        .get("otherData")
        .and_then(|o| o.get("format"))
        .and_then(Json::as_str);
    if format != Some("xsi-chrome-trace-v1") {
        return Some(fail(&format!(
            "{path}: otherData.format must be \"xsi-chrome-trace-v1\""
        )));
    }
    let Some(events) = v.get("traceEvents").and_then(Json::as_arr) else {
        return Some(fail(&format!("{path}: missing traceEvents array")));
    };
    if events.is_empty() {
        return Some(fail(&format!("{path}: empty traceEvents")));
    }
    // Pass 1: shape + monotonic ts + id ordering; collect (ts, dur,
    // parent) per event for the accounting pass.
    let mut spans: Vec<(u64, u64, u64)> = Vec::with_capacity(events.len());
    let mut last_ts = 0u64;
    for (i, ev) in events.iter().enumerate() {
        for key in ["name", "cat", "ph", "pid", "tid", "ts", "dur", "args"] {
            if ev.get(key).is_none() {
                return Some(fail(&format!("{path}: traceEvents[{i}]: missing {key}")));
            }
        }
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            return Some(fail(&format!(
                "{path}: traceEvents[{i}]: ph must be \"X\" (complete event)"
            )));
        }
        let Some(ev_args) = ev.get("args") else {
            return Some(fail(&format!("{path}: traceEvents[{i}]: missing args")));
        };
        let arg = |key: &str| ev_args.get(key).and_then(Json::as_u64);
        let (Some(id), Some(parent), Some(ts), Some(dur)) =
            (arg("id"), arg("parent"), arg("ts_ns"), arg("dur_ns"))
        else {
            return Some(fail(&format!(
                "{path}: traceEvents[{i}]: args must carry id/parent/ts_ns/dur_ns"
            )));
        };
        if id != (i + 1) as u64 {
            return Some(fail(&format!(
                "{path}: traceEvents[{i}]: id {id} out of emission order (want {})",
                i + 1
            )));
        }
        if parent >= id {
            return Some(fail(&format!(
                "{path}: traceEvents[{i}]: parent {parent} does not precede id {id}"
            )));
        }
        if ts < last_ts {
            return Some(fail(&format!(
                "{path}: traceEvents[{i}]: ts_ns {ts} < previous {last_ts} (not monotonic)"
            )));
        }
        if dur == 0 {
            return Some(fail(&format!("{path}: traceEvents[{i}]: zero dur_ns")));
        }
        last_ts = ts;
        spans.push((ts, dur, parent));
    }
    // Pass 2: parents account for their children.
    let mut child_nanos = vec![0u64; spans.len() + 1];
    for &(_, dur, parent) in &spans {
        if parent > 0 {
            if let Some(slot) = child_nanos.get_mut(parent as usize) {
                *slot += dur;
            }
        }
    }
    for (i, &(_, dur, _)) in spans.iter().enumerate() {
        let children = child_nanos.get(i + 1).copied().unwrap_or(0);
        if dur < children {
            return Some(fail(&format!(
                "{path}: traceEvents[{i}]: dur_ns {dur} < children total {children}"
            )));
        }
    }
    println!("xsi-metrics-check: {path}: ok ({} spans)", spans.len());
    None
}

/// Validates a perf-trajectory record (`xsi-bench-trajectory-v1`) from
/// `xsi_perf_smoke --bench-out`: schema tag, a non-empty `benches`
/// array, the per-bench required keys, and p90 >= median per bench.
fn check_bench_record(path: &str) -> Option<ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return Some(fail(&format!("cannot read {path}: {e}"))),
    };
    let v = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => return Some(fail(&format!("{path}: not valid JSON: {e}"))),
    };
    if v.get("schema").and_then(Json::as_str) != Some("xsi-bench-trajectory-v1") {
        return Some(fail(&format!(
            "{path}: schema must be \"xsi-bench-trajectory-v1\""
        )));
    }
    for key in ["scale", "seed"] {
        if v.get(key).and_then(Json::as_f64).is_none() {
            return Some(fail(&format!("{path}: missing numeric {key}")));
        }
    }
    let Some(benches) = v.get("benches").and_then(Json::as_arr) else {
        return Some(fail(&format!("{path}: missing benches array")));
    };
    if benches.is_empty() {
        return Some(fail(&format!("{path}: empty benches array")));
    }
    for (i, b) in benches.iter().enumerate() {
        let Some(name) = b.get("name").and_then(Json::as_str) else {
            return Some(fail(&format!("{path}: benches[{i}]: missing name")));
        };
        for key in [
            "tier",
            "median_ns",
            "p90_ns",
            "min_ns",
            "max_ns",
            "iters",
            "noise_pct",
        ] {
            if b.get(key).and_then(Json::as_f64).is_none() {
                return Some(fail(&format!(
                    "{path}: benches[{i}] ({name}): missing numeric {key}"
                )));
            }
        }
        let Some(counters) = b.get("counters") else {
            return Some(fail(&format!(
                "{path}: benches[{i}] ({name}): missing counters object"
            )));
        };
        for key in [
            "spans",
            "compound_process",
            "kernel_scans",
            "blocks",
            "elems",
        ] {
            if counters.get(key).and_then(Json::as_u64).is_none() {
                return Some(fail(&format!(
                    "{path}: benches[{i}] ({name}): counters missing {key}"
                )));
            }
        }
        let num = |key: &str| b.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        if num("p90_ns") < num("median_ns") {
            return Some(fail(&format!(
                "{path}: benches[{i}] ({name}): p90_ns below median_ns"
            )));
        }
        if num("min_ns") > num("median_ns") || num("max_ns") < num("median_ns") {
            return Some(fail(&format!(
                "{path}: benches[{i}] ({name}): median outside [min, max]"
            )));
        }
    }
    println!("xsi-metrics-check: {path}: ok ({} benches)", benches.len());
    None
}
