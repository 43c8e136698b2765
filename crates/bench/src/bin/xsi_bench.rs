//! `xsi-bench` — instrumented update-pipeline benchmark with metrics,
//! trace, and span export.
//!
//! Drives a mixed insert/delete workload through the [`UpdateEngine`]
//! with the observability layer enabled, then exports:
//!
//! * `--metrics-out <path>` — a summary object embedding run metadata,
//!   engine stats, and the full metrics registry
//!   (`format: "xsi-metrics-v1"`); mem reports are published
//!   automatically at the export point.
//! * `--trace-out <path>` — the record stream as JSON Lines (one object
//!   per closed pipeline span, streamed through [`JsonlWriter`]).
//! * `--prom-out <path>` — Prometheus text exposition of the same
//!   registry.
//! * `--chrome-trace-out <path>` — the causal span tree as Chrome
//!   trace-event JSON (open in Perfetto / `chrome://tracing`; see
//!   EXPERIMENTS.md "Reading a span trace in Perfetto").
//! * `--folded-out <path>` — the span tree as collapsed-stack folded
//!   lines (pipe into flamegraph tooling), weighted by self nanos.
//! * `--mem-out <path>` — the standalone `xsi-mem-v1` memory/quality
//!   artifact: per-family deep-byte categories, CoW sharing split,
//!   iedge inline/spill split, blocks-over-minimum quality telemetry,
//!   and the raw shape histograms (validate with
//!   `xsi-metrics-check --mem`).
//!
//! Mem and quality reports are published exactly once at the export
//! point, so every artifact carries them whether or not the
//! corresponding flag was passed.
//!
//! The postmortem black box is always armed: if the workload panics,
//! the flight-recorder tail, the open span stack, and a last-gasp mem
//! report are written as JSONL to `--postmortem-out`
//! (default `xsi_bench.postmortem.jsonl`) and the run exits 101.
//!
//! An explicit span collection (which adds the kernel spans) is armed
//! only when one of the span exports is requested; the hub receives the
//! same pipeline records either way. Validate the outputs offline with
//! the sibling `xsi-metrics-check` binary.
//!
//! ```text
//! cargo run --release -p xsi-bench --bin xsi_bench -- \
//!     --scale 0.05 --pairs 2000 --metrics-out m.json --chrome-trace-out t.json
//! ```

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use xsi_bench::cli::Args;
use xsi_bench::memjson::{collect_mem_rows, compact, mem_artifact_json};
use xsi_core::obs::json::escape_into;
use xsi_core::obs::{chrome_trace_json, folded_stacks, postmortem, span, FoldWeight, SpanKind};
use xsi_core::{
    AkIndex, FlightRecorder, IndexHandle, JsonlWriter, OneIndex, PropagateOneIndex, UpdateEngine,
};
use xsi_graph::EdgeKind;
use xsi_workload::updates::EdgePool;
use xsi_workload::xmark::{generate_xmark, XmarkParams};

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("xsi-bench: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// The unwind path: combine the postmortem capture with whatever the
/// engine can still tell us (flight tail, a last-gasp mem report —
/// itself guarded, the engine may be mid-mutation) into the JSONL
/// black box, then exit 101.
fn dump_blackbox_and_die(
    path: &str,
    engine: &UpdateEngine,
    handles: &[IndexHandle],
    scale: f64,
    seed: u64,
) -> ! {
    let tail = engine.obs().stable_trace();
    let mem = catch_unwind(AssertUnwindSafe(|| {
        compact(&mem_artifact_json(
            &collect_mem_rows(engine, handles),
            "xsi_bench",
            scale,
            seed,
        ))
    }))
    .ok();
    let capture = postmortem::last_capture();
    match postmortem::write_blackbox(
        std::path::Path::new(path),
        capture.as_ref(),
        &tail,
        mem.as_deref(),
    ) {
        Ok(lines) => eprintln!("xsi-bench: workload panicked; black box ({lines} lines) at {path}"),
        Err(e) => eprintln!("xsi-bench: workload panicked AND the black box failed: {e}"),
    }
    std::process::exit(101);
}

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 0.05);
    let seed = args.u64("seed", 42);
    let pairs = args.usize("pairs", 2000);
    let k = args.usize("k", 2);
    let flight_cap = args.usize("flight-cap", 256);
    let metrics_out = args.str("metrics-out").map(str::to_owned);
    let trace_out = args.str("trace-out").map(str::to_owned);
    let prom_out = args.str("prom-out").map(str::to_owned);
    let chrome_out = args.str("chrome-trace-out").map(str::to_owned);
    let folded_out = args.str("folded-out").map(str::to_owned);
    let mem_out = args.str("mem-out").map(str::to_owned);
    let postmortem_out = args
        .str("postmortem-out")
        .unwrap_or("xsi_bench.postmortem.jsonl")
        .to_owned();

    // Black box armed before the first engine touch: a panic anywhere
    // in the workload snapshots message/location/open-spans pre-unwind.
    postmortem::arm(true);

    let mut g = generate_xmark(&XmarkParams::new(scale, 1.0, seed));
    let mut pool = EdgePool::extract(&mut g, 0.2, seed);
    let nodes_initial = g.node_count();
    let edges_initial = g.edge_count();
    eprintln!(
        "xsi-bench: xmark scale={} seed={} -> {} nodes / {} edges ({} pooled)",
        scale,
        seed,
        nodes_initial,
        edges_initial,
        pool.pool_len()
    );

    let mut engine = UpdateEngine::new(g);
    let handles = [
        engine.register(Box::new(OneIndex::build(engine.graph()))),
        engine.register(Box::new(AkIndex::build(engine.graph(), k))),
        engine.register(Box::new(PropagateOneIndex::build(engine.graph()))),
    ];

    // Metrics always on for this binary; the recorder depends on flags.
    engine.obs_mut().enable_metrics();
    if let Some(path) = trace_out.as_deref() {
        let f = File::create(path).unwrap_or_else(|e| {
            eprintln!("xsi-bench: cannot create {path}: {e}");
            std::process::exit(1);
        });
        let families = engine.obs().families().to_vec();
        engine
            .obs_mut()
            .set_recorder(Box::new(JsonlWriter::new(BufWriter::new(f), families)));
    } else {
        engine
            .obs_mut()
            .set_recorder(Box::new(FlightRecorder::new(flight_cap)));
    }

    // Arm an explicit span collection only when a span export was
    // requested — otherwise the kernel span sites stay on their
    // one-branch path and only the engine's per-call pipeline
    // recording runs.
    let collect_spans = chrome_out.is_some() || folded_out.is_some();
    if collect_spans {
        span::begin_collection();
    }

    // Mixed workload: alternate insert/delete of pooled IDREF edges,
    // exactly the Figure 11 regime but driven through the engine.
    let t0 = Instant::now();
    // The engine stays outside the unwind boundary so the black-box
    // writer can still read its flight recorder and mem reports after
    // a workload panic.
    let applied = match catch_unwind(AssertUnwindSafe(|| {
        let mut applied = 0usize;
        for _ in 0..pairs {
            if let Some((u, v)) = pool.next_insert() {
                if let Err(e) = engine.insert_edge(u, v, EdgeKind::IdRef) {
                    eprintln!("xsi-bench: pooled insert {u:?} -> {v:?} rejected: {e:?}");
                    std::process::exit(1);
                }
                applied += 1;
            }
            if let Some((u, v)) = pool.next_delete() {
                if let Err(e) = engine.delete_edge(u, v) {
                    eprintln!("xsi-bench: pooled delete {u:?} -> {v:?} rejected: {e:?}");
                    std::process::exit(1);
                }
                applied += 1;
            }
        }
        applied
    })) {
        Ok(applied) => applied,
        Err(_) => dump_blackbox_and_die(&postmortem_out, &engine, &handles, scale, seed),
    };
    let wall = t0.elapsed();
    eprintln!(
        "xsi-bench: {} ops in {:.3}s ({:.1} ops/s)",
        applied,
        wall.as_secs_f64(),
        applied as f64 / wall.as_secs_f64().max(1e-9)
    );

    // Freeze every family once at the export point so the snapshot
    // series (snapshots_total, snapshot_freeze_nanos, snapshot_blocks,
    // snapshot_cow_clones) are populated; xsi-metrics-check requires
    // them. The snapshots themselves are dropped immediately.
    let _ = engine.freeze();

    if collect_spans {
        let tree = span::end_collection();
        let families = engine.obs().families().to_vec();
        // Accounting check for the span substrate: the sum of
        // CompoundProcess durations (self + children) against the
        // Split + Merge phase span durations, over every family.
        let phase_nanos = tree.kind_nanos(SpanKind::Split) + tree.kind_nanos(SpanKind::Merge);
        let compound_nanos = tree.kind_nanos(SpanKind::CompoundProcess);
        let pct = if phase_nanos > 0 {
            100.0 * compound_nanos as f64 / phase_nanos as f64
        } else {
            100.0
        };
        eprintln!(
            "xsi-bench: {} spans ({} dropped); CompoundProcess covers {:.1}% of Split + Merge span nanos",
            tree.len(),
            tree.dropped,
            pct
        );
        if let Some(path) = chrome_out.as_deref() {
            write_or_die(path, &chrome_trace_json(&tree, &families));
            eprintln!("xsi-bench: wrote chrome trace to {path}");
        }
        if let Some(path) = folded_out.as_deref() {
            write_or_die(
                path,
                &folded_stacks(&tree, &families, FoldWeight::SelfNanos),
            );
            eprintln!("xsi-bench: wrote folded stacks to {path}");
        }
    }

    engine.obs_mut().flush();

    // Publish the mem + quality reports exactly once at the export
    // point — every artifact below (prometheus text, metrics JSON, mem
    // artifact) then reads the same registry state whether or not its
    // flag was passed. Publishing per-artifact would double the
    // transplanted histogram mass.
    let metrics = engine
        .export_metrics_json()
        .expect("invariant: metrics were enabled above");

    if let Some(path) = prom_out.as_deref() {
        let text = engine.obs().metrics_prometheus();
        write_or_die(path, &text);
        eprintln!("xsi-bench: wrote prometheus text to {path}");
    }

    if let Some(path) = mem_out.as_deref() {
        let rows = collect_mem_rows(&engine, &handles);
        write_or_die(path, &mem_artifact_json(&rows, "xsi_bench", scale, seed));
        eprintln!("xsi-bench: wrote mem artifact to {path}");
    }

    if let Some(path) = metrics_out.as_deref() {
        let stats = engine.stats();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"format\": \"xsi-metrics-v1\",\n");
        out.push_str("  \"bench\": \"xsi_bench\",\n");
        out.push_str("  \"workload\": \"xmark\",\n");
        out.push_str(&format!("  \"scale\": {scale},\n"));
        out.push_str(&format!("  \"seed\": {seed},\n"));
        out.push_str(&format!("  \"pairs\": {pairs},\n"));
        out.push_str(&format!("  \"k\": {k},\n"));
        out.push_str(&format!("  \"nodes_initial\": {nodes_initial},\n"));
        out.push_str(&format!("  \"edges_initial\": {edges_initial},\n"));
        out.push_str(&format!("  \"ops_applied\": {applied},\n"));
        out.push_str(&format!("  \"wall_seconds\": {:.6},\n", wall.as_secs_f64()));
        out.push_str(&format!("  \"engine_ops\": {},\n", stats.ops));
        out.push_str(&format!(
            "  \"engine_update_seconds\": {:.6},\n",
            stats.update_time.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"events_emitted\": {},\n",
            engine.obs().events_emitted()
        ));
        out.push_str("  \"families\": [");
        for (i, name) in engine.obs().families().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_into(name, &mut out);
            out.push('"');
        }
        out.push_str("],\n");
        out.push_str("  \"metrics\": ");
        out.push_str(&metrics);
        out.push_str("\n}\n");
        write_or_die(path, &out);
        eprintln!("xsi-bench: wrote metrics to {path}");
    }

    if let Some(path) = trace_out.as_deref() {
        // Dropping the recorder flushes the BufWriter; any latched I/O
        // error was already reported through `flush` above.
        if let Some(rec) = engine.obs_mut().take_recorder() {
            drop(rec);
        }
        eprintln!("xsi-bench: wrote trace to {path}");
    }
}
