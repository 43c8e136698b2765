//! Cross-crate checks for the observability layer: identically seeded
//! runs must produce identical deterministic metrics and identical
//! stable traces, and the metrics registry must agree with the engine's
//! own op accounting.

use xsi_core::obs::json::Json;
use xsi_core::{FlightRecorder, OneIndex, SimpleAkIndex, UpdateEngine};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_workload::SplitMix64;

const LABELS: [&str; 4] = ["a", "b", "c", "d"];

/// Builds a small random acyclic base graph (edges only from earlier to
/// later handles, mirroring `engine_equivalence.rs`).
fn random_base(rng: &mut SplitMix64) -> (Graph, Vec<NodeId>) {
    let mut g = Graph::new();
    let mut handles = vec![g.root()];
    for _ in 0..rng.random_range(4..9usize) {
        let l = LABELS[rng.random_range(0..LABELS.len())];
        handles.push(g.add_node(l, None));
    }
    for _ in 0..rng.random_range(3..14usize) {
        let (i, j) = (
            rng.random_range(0..handles.len()),
            rng.random_range(0..handles.len()),
        );
        if i == j {
            continue;
        }
        let (u, v) = (handles[i.min(j)], handles[i.max(j)]);
        let kind = if rng.random_bool(0.7) {
            EdgeKind::Child
        } else {
            EdgeKind::IdRef
        };
        let _ = g.insert_edge(u, v, kind);
    }
    (g, handles)
}

/// Runs one fixed seeded workload through a fully instrumented engine
/// and returns it (metrics + flight recorder populated).
fn instrumented_run(seed: u64) -> UpdateEngine {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let (g, mut handles) = random_base(&mut rng);
    let mut engine = UpdateEngine::new(g);
    engine
        .obs_mut()
        .set_recorder(Box::new(FlightRecorder::new(4096)));
    engine.obs_mut().enable_metrics();
    engine.register(Box::new(OneIndex::build(engine.graph())));
    engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2)));

    for _ in 0..60 {
        match rng.random_range(0..4usize) {
            0 => {
                let l = LABELS[rng.random_range(0..LABELS.len())];
                handles.push(engine.add_node(l, None));
            }
            1 | 2 => {
                let (i, j) = (
                    rng.random_range(0..handles.len()),
                    rng.random_range(0..handles.len()),
                );
                if i != j {
                    let (u, v) = (handles[i.min(j)], handles[i.max(j)]);
                    let _ = engine.insert_edge(u, v, EdgeKind::IdRef);
                }
            }
            _ => {
                let (i, j) = (
                    rng.random_range(0..handles.len()),
                    rng.random_range(0..handles.len()),
                );
                let _ = engine.delete_edge(handles[i], handles[j]);
            }
        }
    }
    engine
}

#[test]
fn identical_seeded_runs_emit_identical_deterministic_state() {
    for seed in [1u64, 7, 0xDEAD] {
        let a = instrumented_run(seed);
        let b = instrumented_run(seed);
        // Deterministic metrics projection (timing histograms excluded)
        // must be byte-identical.
        assert_eq!(
            a.obs().metrics_deterministic_json(),
            b.obs().metrics_deterministic_json(),
            "seed {seed}: deterministic metrics diverge"
        );
        // The stable trace projection (timestamps excluded) too.
        assert_eq!(
            a.obs().stable_trace(),
            b.obs().stable_trace(),
            "seed {seed}: stable traces diverge"
        );
        assert_eq!(a.obs().events_emitted(), b.obs().events_emitted());
        assert!(a.obs().events_emitted() > 0, "seed {seed}: no events");
    }
}

#[test]
fn metrics_op_counters_match_engine_stats() {
    let engine = instrumented_run(42);
    let v = Json::parse(&engine.obs().metrics_json()).expect("valid metrics JSON");
    let counters = v.get("counters").and_then(Json::as_arr).expect("counters");
    let ops_total: f64 = counters
        .iter()
        .filter(|c| c.get("name").and_then(Json::as_str) == Some("ops_total"))
        .filter_map(|c| c.get("value").and_then(Json::as_f64))
        .sum();
    assert_eq!(
        ops_total as usize,
        engine.stats().ops,
        "sum of ops_total series must equal EngineStats::ops"
    );
}

#[test]
fn flight_recorder_retains_every_event_when_under_capacity() {
    let engine = instrumented_run(3);
    let emitted = engine.obs().events_emitted();
    assert!(emitted > 0 && emitted < 4096, "workload fits the ring");
    let records = engine.obs().flight_records();
    assert_eq!(records.len() as u64, emitted);
    // Sequence numbers are dense and start at zero.
    for (i, (seq, _)) in records.iter().enumerate() {
        assert_eq!(*seq, i as u64);
    }
}

#[test]
fn untouched_index_aggregate_stays_at_the_no_op_identity() {
    // Satellite 1 regression: the per-index accumulator starts at (and,
    // absent real work, stays at) `UpdateStats::identity()`, so an
    // all-no-op history reports `no_op == true` instead of the old
    // `Default`-derived `false`.
    let mut g = Graph::new();
    let a = g.add_node("a", None);
    let b = g.add_node("b", None);
    g.insert_edge(g.root(), a, EdgeKind::Child).unwrap();
    g.insert_edge(a, b, EdgeKind::Child).unwrap();
    let mut engine = UpdateEngine::new(g);
    engine
        .obs_mut()
        .set_recorder(Box::new(FlightRecorder::new(64)));
    engine.obs_mut().enable_metrics();
    let h = engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 1)));

    let stats = engine.index_stats(h);
    assert!(stats.no_op, "freshly registered index starts at identity");
    assert_eq!(stats.splits + stats.merges, 0);
    assert_eq!(engine.obs().events_emitted(), 0, "no phase ran");
    let v = Json::parse(&engine.obs().metrics_json()).unwrap();
    let counters = v.get("counters").and_then(Json::as_arr).unwrap();
    let phase_events: f64 = counters
        .iter()
        .filter(|c| {
            matches!(
                c.get("name").and_then(Json::as_str),
                Some("splits_total" | "merges_total")
            )
        })
        .filter_map(|c| c.get("value").and_then(Json::as_f64))
        .sum();
    assert_eq!(phase_events, 0.0, "no phase work was recorded");
}
