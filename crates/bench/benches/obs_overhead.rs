//! Overhead of the observability layer on the engine's hot path
//! (criterion-free, `xsi_bench::micro`).
//!
//! Five configurations, each timing the same insert+delete pair of a
//! pooled IDREF edge against a 1-index:
//!
//! 1. `direct index` — no engine, no obs: the pre-engine baseline.
//! 2. `engine / obs off` — the instrumented engine with the hub
//!    disabled (the default). The acceptance target: this must stay
//!    within noise of (1) plus the engine's own dispatch cost, because
//!    every span site is one TLS read + branch, no clock read, no
//!    allocation.
//! 3. `engine / null recorder` — recorder installed but discarding.
//!    The hub counts a null recorder as inactive, so the engine records
//!    no spans: (3) must stay within noise of (2) (DESIGN.md §8).
//! 4. `engine / flight + metrics` — the full pipeline: the engine
//!    records each call's pipeline spans and hands them to the ring
//!    buffer and the registry.
//! 5. `engine / null recorder + spans` — an explicit span collection
//!    armed (kernel spans included), tree drained every 1024 pairs: the
//!    marginal cost of recording the whole causal span tree on top of
//!    (3).
//!
//! Run with `cargo bench --features bench --bench obs_overhead`.
//! Record the medians in EXPERIMENTS.md §observability when they move.

use xsi_bench::micro::{bench, group};
use xsi_core::obs::span;
use xsi_core::{FlightRecorder, NullRecorder, OneIndex, UpdateEngine};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_workload::{generate_xmark, EdgePool, XmarkParams};

fn setup() -> (Graph, Vec<(NodeId, NodeId)>) {
    let mut g = generate_xmark(&XmarkParams::new(0.1, 1.0, 42));
    let mut pool = EdgePool::extract(&mut g, 0.2, 42);
    let mut edges = Vec::new();
    for _ in 0..64 {
        if let Some(e) = pool.next_insert() {
            edges.push(e);
        }
    }
    // Sampled edges stay OUT of the graph; each iteration inserts then
    // deletes one, returning the index to its starting partition.
    (g, edges)
}

fn engine_with(
    recorder: Option<Box<dyn xsi_core::Recorder>>,
    metrics: bool,
) -> (UpdateEngine, Vec<(NodeId, NodeId)>) {
    let (g, edges) = setup();
    let mut engine = UpdateEngine::new(g);
    engine.register(Box::new(OneIndex::build(engine.graph())));
    if let Some(r) = recorder {
        engine.obs_mut().set_recorder(r);
    }
    if metrics {
        engine.obs_mut().enable_metrics();
    }
    (engine, edges)
}

fn main() {
    group("obs_overhead");

    // 1. Direct index mutation, no engine in the loop.
    let (mut g, edges) = setup();
    let mut idx = OneIndex::build(&g);
    let mut i = 0usize;
    bench("pair / direct index", || {
        let (u, v) = edges[i % edges.len()];
        i += 1;
        idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap();
        idx.delete_edge(&mut g, u, v).unwrap();
    });

    // 2. Engine with the hub disabled (default construction).
    let (mut engine, edges) = engine_with(None, false);
    let mut i = 0usize;
    bench("pair / engine, obs off", || {
        let (u, v) = edges[i % edges.len()];
        i += 1;
        engine.insert_edge(u, v, EdgeKind::IdRef).unwrap();
        engine.delete_edge(u, v).unwrap();
    });

    // 3. Null recorder: the hub stays inactive, no spans recorded.
    let (mut engine, edges) = engine_with(Some(Box::new(NullRecorder)), false);
    let mut i = 0usize;
    bench("pair / engine, null recorder", || {
        let (u, v) = edges[i % edges.len()];
        i += 1;
        engine.insert_edge(u, v, EdgeKind::IdRef).unwrap();
        engine.delete_edge(u, v).unwrap();
    });

    // 4. Flight recorder + metrics registry: the full pipeline.
    let (mut engine, edges) = engine_with(Some(Box::new(FlightRecorder::new(256))), true);
    let mut i = 0usize;
    bench("pair / engine, flight + metrics", || {
        let (u, v) = edges[i % edges.len()];
        i += 1;
        engine.insert_edge(u, v, EdgeKind::IdRef).unwrap();
        engine.delete_edge(u, v).unwrap();
    });

    // 5. Null recorder with span collection armed: the live span tree.
    // Drained every 1024 pairs so the collector Vec stays warm instead
    // of measuring its growth reallocations.
    let (mut engine, edges) = engine_with(Some(Box::new(NullRecorder)), false);
    let mut i = 0usize;
    span::begin_collection();
    bench("pair / engine, null recorder + spans", || {
        let (u, v) = edges[i % edges.len()];
        i += 1;
        engine.insert_edge(u, v, EdgeKind::IdRef).unwrap();
        engine.delete_edge(u, v).unwrap();
        if i % 1024 == 0 {
            let _ = span::end_collection();
            span::begin_collection();
        }
    });
    let _ = span::end_collection();
}
