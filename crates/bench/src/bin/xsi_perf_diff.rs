//! `xsi_perf_diff` — compares two `xsi-bench-trajectory-v1` records
//! (see `xsi_perf_smoke --bench-out`) and gates CI on the result.
//!
//! For every bench present in the baseline:
//!
//! * missing from current → **fail** (a bench silently disappearing is
//!   a regression in coverage, not an improvement);
//! * median regression above `--fail-pct` (default 25%) on a **tier-1**
//!   bench → **fail**;
//! * median delta beyond the bench's recorded `noise_pct` threshold
//!   (either direction, any tier) → **warn** — printed but exit 0;
//! * any span counter (`spans`, `compound_process`, `kernel_scans`,
//!   `blocks`, `elems`) that differs from the baseline's, on any tier
//!   → **fail**, naming the bench, the counter and both values.
//!
//! Counters count work, not time: they repeat exactly under a seed, so
//! host noise cannot move them and the gate on them is exact. A change
//! that moves one refreshes the baseline in the same commit.
//!
//! ```text
//! xsi_perf_diff --baseline BENCH_baseline.json \
//!               --current target/perf/BENCH_current.json [--fail-pct 25]
//! ```
//!
//! Exit codes: 0 ok/warn, 1 a median or counter gate tripped, 2 usage/parse
//! error.

#![forbid(unsafe_code)]

use xsi_bench::Args;
use xsi_core::obs::json::Json;

struct BenchRow {
    name: String,
    tier: u64,
    median_ns: f64,
    p90_ns: f64,
    noise_pct: f64,
    counters: Vec<(String, u64)>,
}

fn die(msg: &str) -> ! {
    eprintln!("xsi_perf_diff: {msg}");
    std::process::exit(2);
}

fn load(path: &str) -> Vec<BenchRow> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => die(&format!("cannot read {path}: {e}")),
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => die(&format!("{path}: invalid JSON: {e}")),
    };
    match doc.get("schema").and_then(Json::as_str) {
        Some("xsi-bench-trajectory-v1") => {}
        Some(other) => die(&format!("{path}: unsupported schema {other:?}")),
        None => die(&format!("{path}: missing \"schema\" key")),
    }
    let benches = doc
        .get("benches")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| die(&format!("{path}: missing \"benches\" array")));
    let mut rows = Vec::new();
    for b in benches {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| die(&format!("{path}: bench entry without \"name\"")))
            .to_string();
        let num = |key: &str| -> f64 {
            b.get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| die(&format!("{path}: bench {name:?} missing \"{key}\"")))
        };
        let mut counters = Vec::new();
        if let Some(Json::Obj(m)) = b.get("counters") {
            for (k, v) in m {
                if let Some(n) = v.as_u64() {
                    counters.push((k.clone(), n));
                }
            }
        }
        rows.push(BenchRow {
            tier: b.get("tier").and_then(Json::as_u64).unwrap_or(2),
            median_ns: num("median_ns"),
            p90_ns: num("p90_ns"),
            noise_pct: num("noise_pct"),
            counters,
            name,
        });
    }
    if rows.is_empty() {
        die(&format!("{path}: empty \"benches\" array"));
    }
    rows
}

fn main() {
    let args = Args::parse_env();
    let baseline_path = args
        .str("baseline")
        .unwrap_or_else(|| die("--baseline <path> is required"));
    let current_path = args
        .str("current")
        .unwrap_or_else(|| die("--current <path> is required"));
    let fail_pct = args.f64("fail-pct", 25.0);
    args.finish();

    let baseline = load(baseline_path);
    let current = load(current_path);

    println!(
        "{:<28} {:>4} {:>14} {:>14} {:>9} {:>8}  verdict",
        "bench", "tier", "base median", "cur median", "delta", "noise"
    );
    let mut failures = 0usize;
    let mut warnings = 0usize;
    for b in &baseline {
        let Some(c) = current.iter().find(|c| c.name == b.name) else {
            println!(
                "{:<28} {:>4} {:>14.0} {:>14} {:>9} {:>8}  FAIL (missing from current)",
                b.name, b.tier, b.median_ns, "-", "-", "-"
            );
            failures += 1;
            continue;
        };
        let delta_pct = if b.median_ns > 0.0 {
            100.0 * (c.median_ns - b.median_ns) / b.median_ns
        } else {
            0.0
        };
        // The effective noise band is the wider of the two runs' own
        // estimates — either side being noisy makes the diff noisy.
        let noise = b.noise_pct.max(c.noise_pct);
        let verdict = if b.tier == 1 && delta_pct > fail_pct {
            failures += 1;
            format!("FAIL (> {fail_pct:.0}% tier-1 gate)")
        } else if delta_pct.abs() > noise {
            warnings += 1;
            if delta_pct > 0.0 {
                "warn (slower, above noise)".to_string()
            } else {
                "warn (faster, above noise)".to_string()
            }
        } else {
            "ok".to_string()
        };
        println!(
            "{:<28} {:>4} {:>14.0} {:>14.0} {:>+8.1}% {:>7.1}%  {verdict}",
            b.name, b.tier, b.median_ns, c.median_ns, delta_pct, noise
        );
        if b.p90_ns > 0.0 && c.p90_ns > b.p90_ns * (1.0 + (fail_pct + noise) / 100.0) {
            println!(
                "{:<28}      p90 tail moved {:.0} -> {:.0} ns (watch, not gated)",
                "", b.p90_ns, c.p90_ns
            );
        }
        let value = |counters: &[(String, u64)], key: &str| {
            counters
                .iter()
                .find(|(k, _)| k == key)
                .map_or(0, |&(_, v)| v)
        };
        let mut keys: Vec<&str> = b.counters.iter().map(|(k, _)| k.as_str()).collect();
        keys.extend(c.counters.iter().map(|(k, _)| k.as_str()));
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let (bval, cval) = (value(&b.counters, key), value(&c.counters, key));
            if cval != bval {
                failures += 1;
                println!(
                    "{:<28}      FAIL (counter {key}: baseline {bval}, current {cval})",
                    b.name
                );
            }
        }
    }
    for c in &current {
        if !baseline.iter().any(|b| b.name == c.name) {
            println!(
                "{:<28} {:>4} {:>14} {:>14.0} {:>9} {:>8}  new (no baseline)",
                c.name, c.tier, "-", c.median_ns, "-", "-"
            );
        }
    }

    if failures > 0 {
        eprintln!(
            "xsi_perf_diff: {failures} failure(s), {warnings} warning(s) — regression gate tripped"
        );
        std::process::exit(1);
    }
    eprintln!("xsi_perf_diff: all benches within gate ({warnings} warning(s))");
}
