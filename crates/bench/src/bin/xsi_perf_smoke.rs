//! `xsi_perf_smoke` — the CI perf-smoke harness: a split/merge-heavy
//! micro-benchmark over the data-plane hot path, with JSON artifacts so
//! the perf trajectory has a recorded baseline (EXPERIMENTS.md, "Perf
//! smoke").
//!
//! The measured kernels are chosen to live almost entirely inside the
//! maintenance inner loops — splitter scans, partner classification,
//! iedge-count updates, merge folding — rather than graph mutation or
//! driver overhead:
//!
//! * `1index_pair` / `ak3_pair`: insert + delete of a pooled IDREF edge
//!   (the index returns to its starting partition, so each iteration
//!   does one full split phase and one full merge phase);
//! * `1index_build` / `ak3_build`: Paige–Tarjan refinement from scratch
//!   (pure splitter-scan throughput).
//!
//! Usage: `xsi_perf_smoke [--scale 0.05] [--seed 42] [--json out.json]
//! [--bench-out BENCH.json] [--metrics-out m.json]`.
//!
//! `--bench-out` writes the versioned trajectory record
//! (`xsi-bench-trajectory-v1`): per bench, median/p90/min/max ns, a
//! per-bench noise threshold, and key span counters from one separate
//! instrumented pass before the timing batches (which run with span
//! collection OFF, so the numbers keep the zero-cost disabled path).
//! The pass runs a pair bench once per sampled pair, from the bench's
//! fresh state, so its counters are deterministic. `xsi_perf_diff`
//! compares two such records; CI gates on the committed
//! `BENCH_baseline.json`. Medians of 11 batches via `micro::bench` —
//! honest but container-noisy; compare trends, not single digits.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use xsi_bench::micro::{bench_value, group, MicroResult};
use xsi_bench::Args;
use xsi_core::obs::postmortem;
use xsi_core::obs::span::{self, SpanKind, SpanTree};
use xsi_core::{AkIndex, OneIndex, StructuralIndex, UpdateEngine};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_query::{eval_index_raw, PathExpr};
use xsi_workload::{generate_xmark, EdgePool, XmarkParams};

/// The frozen-view benchmark query; hits the xmark vocabulary so the
/// walk touches real extents instead of short-circuiting on a miss.
const FROZEN_QUERY: &str = "//item//name";

/// Tier-1 benches: the split/merge hot path the CI regression gate
/// fails on. Everything else is tier 2 (tracked, warn-only).
const TIER1: [&str; 4] = ["1index_pair", "ak3_pair", "1index_build", "ak3_build"];

/// Key span counters from one instrumented execution of a bench
/// closure — workload shape, not timing (deterministic under a fixed
/// seed, unlike the nanos they ride along with).
#[derive(Clone, Copy, Default)]
struct SpanSummary {
    spans: u64,
    compound_process: u64,
    kernel_scans: u64,
    blocks: u64,
    elems: u64,
}

fn summarize(tree: &SpanTree) -> SpanSummary {
    let compound = tree.kind_counters(SpanKind::CompoundProcess);
    let scans = tree.kind_counters(SpanKind::KernelScan);
    SpanSummary {
        spans: tree.len() as u64,
        compound_process: tree.kind_count(SpanKind::CompoundProcess) as u64,
        kernel_scans: tree.kind_count(SpanKind::KernelScan) as u64,
        blocks: compound.blocks + scans.blocks,
        elems: compound.elems + scans.elems,
    }
}

/// Benchmarks `f`. With `want_counters` it first calls `f` `passes`
/// times with span collection armed and summarizes the tree, so the
/// instrumented pass starts from the state the bench set up.
fn measure<R>(
    name: &str,
    want_counters: bool,
    passes: usize,
    mut f: impl FnMut() -> R,
) -> (MicroResult, SpanSummary) {
    let mut counters = SpanSummary::default();
    if want_counters {
        span::begin_collection();
        for _ in 0..passes {
            std::hint::black_box(f());
        }
        counters = summarize(&span::end_collection());
    }
    (bench_value(name, &mut f), counters)
}

/// Per-bench noise threshold for `xsi_perf_diff`, as a percentage of
/// the median: half the observed min→max batch spread, clamped to
/// [5%, 40%] so a lucky tight run cannot make the gate hair-trigger
/// and a noisy one cannot disable it.
fn noise_pct(r: &MicroResult) -> f64 {
    if r.median_ns <= 0.0 {
        return 40.0;
    }
    (50.0 * (r.max_ns - r.min_ns) / r.median_ns).clamp(5.0, 40.0)
}

fn setup(scale: f64, seed: u64) -> (Graph, Vec<(NodeId, NodeId)>) {
    let mut g = generate_xmark(&XmarkParams::new(scale, 1.0, seed));
    let mut pool = EdgePool::extract(&mut g, 0.2, seed);
    let mut edges = Vec::new();
    for _ in 0..64 {
        if let Some(e) = pool.next_insert() {
            edges.push(e);
        }
    }
    // The sampled edges stay OUT of the graph; each pair benchmark
    // inserts then deletes one, returning the index to its start state.
    (g, edges)
}

fn write_artifact(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("xsi_perf_smoke: write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("{what} written to {path}");
}

fn main() {
    let args = Args::parse_env();
    // Black box: a panic anywhere in the benchmark body snapshots
    // message/location/open-spans pre-unwind; the catch_unwind below
    // dumps the capture as JSONL and exits 101 instead of losing a CI
    // soak's evidence to the default abort message.
    postmortem::arm(true);
    let pm_out = args
        .str("postmortem-out")
        .unwrap_or("xsi_perf_smoke.postmortem.jsonl")
        .to_owned();
    if catch_unwind(AssertUnwindSafe(|| run(&args))).is_err() {
        let capture = postmortem::last_capture();
        match postmortem::write_blackbox(std::path::Path::new(&pm_out), capture.as_ref(), &[], None)
        {
            Ok(lines) => {
                eprintln!("xsi_perf_smoke: panicked; black box ({lines} lines) at {pm_out}")
            }
            Err(e) => eprintln!("xsi_perf_smoke: panicked AND the black box failed: {e}"),
        }
        std::process::exit(101);
    }
}

fn run(args: &Args) {
    let scale = args.f64("scale", 0.05);
    let seed = args.u64("seed", 42);

    // Fail fast on unwritable destinations instead of burning the full
    // benchmark run first; CI points these at target/perf which may not
    // exist yet.
    for flag in ["json", "bench-out", "metrics-out"] {
        if let Some(path) = args.str(flag) {
            if let Some(dir) = std::path::Path::new(&path)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
            {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("xsi_perf_smoke: cannot create {}: {e}", dir.display());
                    std::process::exit(2);
                }
            }
        }
    }
    let want_counters = args.str("bench-out").is_some();

    let mut results: Vec<(MicroResult, SpanSummary)> = Vec::new();
    group(&format!("perf_smoke / xmark(scale={scale}, seed={seed})"));

    {
        let (mut g, edges) = setup(scale, seed);
        let mut idx = OneIndex::build(&g);
        let mut i = 0usize;
        let work = || {
            let (u, v) = edges[i % edges.len()]; // xsi-lint: allow(slice-index, i mod len is in range)
            i += 1;
            idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
            idx.delete_edge(&mut g, u, v).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
        };
        results.push(measure("1index_pair", want_counters, edges.len(), work));
    }
    {
        let (mut g, edges) = setup(scale, seed);
        let mut idx = AkIndex::build(&g, 3);
        let mut i = 0usize;
        let work = || {
            let (u, v) = edges[i % edges.len()]; // xsi-lint: allow(slice-index, i mod len is in range)
            i += 1;
            idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
            idx.delete_edge(&mut g, u, v).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
        };
        results.push(measure("ak3_pair", want_counters, edges.len(), work));
    }
    {
        let (g, _) = setup(scale, seed);
        results.push(measure("1index_build", want_counters, 1, || {
            OneIndex::build(&g)
        }));
        results.push(measure("ak3_build", want_counters, 1, || {
            AkIndex::build(&g, 3)
        }));
    }
    // Engine for the freeze bench; kept alive to the end of main so the
    // --metrics-out export (mem reports included) can reuse it.
    let mut engine = {
        // Freeze cost: O(blocks) Arc bumps per family, no extent copies
        // (the dropped snapshots decref the same Arcs — both sides of
        // the copy-on-write contract are in the loop).
        let (g, _) = setup(scale, seed);
        let mut engine = UpdateEngine::new(g);
        engine.register(Box::new(OneIndex::build(engine.graph())));
        engine.register(Box::new(AkIndex::build(engine.graph(), 3)));
        if args.str("metrics-out").is_some() {
            engine.obs_mut().enable_metrics();
        }
        results.push(measure("snapshot_freeze", want_counters, 1, || {
            engine.freeze()
        }));
        engine
    };
    {
        // Query evaluation over a frozen view: the raw block walk on
        // owned data, no live graph or index in sight.
        let (g, _) = setup(scale, seed);
        let idx = OneIndex::build(&g);
        let snap = idx
            .freeze(&g)
            .expect("invariant: the 1-index supports freeze");
        let expr = PathExpr::parse(FROZEN_QUERY).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
        results.push((
            bench_value("frozen_query", || eval_index_raw(&snap, &expr)),
            SpanSummary::default(),
        ));
    }
    {
        // Reader throughput: 4 threads answering the same query over one
        // shared frozen snapshot (ns per 4-reader round, spawn included).
        let (g, _) = setup(scale, seed);
        let idx = OneIndex::build(&g);
        let snap = Arc::new(
            idx.freeze(&g)
                .expect("invariant: the 1-index supports freeze"),
        );
        results.push((
            bench_value("frozen_reader_throughput", || {
                let readers: Vec<_> = (0..4)
                    .map(|_| {
                        let snap = Arc::clone(&snap);
                        std::thread::spawn(move || {
                            let expr = PathExpr::parse(FROZEN_QUERY).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
                            eval_index_raw(&*snap, &expr).len()
                        })
                    })
                    .collect();
                readers
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .expect("invariant: frozen-view readers never panic")
                    })
                    .sum::<usize>()
            }),
            SpanSummary::default(),
        ));
    }

    if let Some(path) = args.str("json") {
        // Legacy flat record (xsi-perf-smoke-v1), kept for downstream
        // scripts that predate the trajectory schema.
        let mut out = String::from("{\"benchmarks\":[");
        for (i, (r, _)) in results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"median_ns\":{:.0},\"min_ns\":{:.0},\"max_ns\":{:.0},\"iters\":{}}}",
                r.name, r.median_ns, r.min_ns, r.max_ns, r.iters
            ));
        }
        out.push_str(&format!(
            "],\"scale\":{scale},\"seed\":{seed},\"schema\":\"xsi-perf-smoke-v1\"}}\n"
        ));
        write_artifact(path, &out, "perf-smoke JSON");
    }

    if let Some(path) = args.str("bench-out") {
        let mut out = String::from("{\n  \"schema\": \"xsi-bench-trajectory-v1\",\n");
        out.push_str(&format!("  \"scale\": {scale},\n  \"seed\": {seed},\n"));
        out.push_str("  \"benches\": [\n");
        for (i, (r, c)) in results.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let tier = if TIER1.contains(&r.name.as_str()) {
                1
            } else {
                2
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"tier\": {tier}, \"median_ns\": {:.0}, \"p90_ns\": {:.0}, \
                 \"min_ns\": {:.0}, \"max_ns\": {:.0}, \"iters\": {}, \"noise_pct\": {:.1}, \
                 \"counters\": {{\"spans\": {}, \"compound_process\": {}, \"kernel_scans\": {}, \
                 \"blocks\": {}, \"elems\": {}}}}}",
                r.name,
                r.median_ns,
                r.p90_ns,
                r.min_ns,
                r.max_ns,
                r.iters,
                noise_pct(r),
                c.spans,
                c.compound_process,
                c.kernel_scans,
                c.blocks,
                c.elems,
            ));
        }
        out.push_str("\n  ]\n}\n");
        write_artifact(path, &out, "trajectory record");
    }

    if let Some(path) = args.str("metrics-out") {
        // Mem/quality reports are published inside export_metrics_json,
        // so the iedge map counts and the mem_*/quality_* attribution
        // always land in the artifact.
        match engine.export_metrics_json() {
            Some(metrics) => write_artifact(path, &metrics, "metrics registry"),
            None => {
                eprintln!("xsi_perf_smoke: metrics were not enabled (internal flag ordering bug)");
                std::process::exit(2);
            }
        }
    }
}
