//! Golden for the deterministic metrics projection: one pinned-seed run
//! through a fully instrumented engine (metrics + flight recorder) over
//! all four index families, each registered with the 5 %-growth rebuild
//! policy. The workload covers single edge inserts and deletes, one
//! batch with every op kind, two freezes (the second after churn, so
//! copy-on-write clones show) and enough drift for policy rebuilds.
//!
//! The golden pins every deterministic series (counters, block-count
//! gauges, size histograms; `*_nanos` timing histograms excluded), so a
//! change to how the pipeline is instrumented must reproduce the same
//! numbers.

use xsi_core::obs::span;
use xsi_core::obs::{IndexFamily, MetricKey, SpanRecord};
use xsi_core::{
    AkIndex, FlightRecorder, NodeRef, OneIndex, PropagateOneIndex, SimpleAkIndex, UpdateEngine,
    UpdateOp,
};
use xsi_graph::EdgeKind;
use xsi_workload::{generate_xmark, EdgePool, XmarkParams};

const SEED: u64 = 42;
const PAIRS_PER_HALF: usize = 30;

fn churn(engine: &mut UpdateEngine, pool: &mut EdgePool, pairs: usize) {
    for _ in 0..pairs {
        if let Some((u, v)) = pool.next_insert() {
            engine
                .insert_edge(u, v, EdgeKind::IdRef)
                .expect("pooled insert");
        }
        if let Some((u, v)) = pool.next_delete() {
            engine.delete_edge(u, v).expect("pooled delete");
        }
    }
}

/// The pinned workload; returns the engine with its hub populated.
fn golden_run() -> UpdateEngine {
    let mut g = generate_xmark(&XmarkParams::new(0.01, 1.0, SEED));
    let mut pool = EdgePool::extract(&mut g, 0.2, SEED);
    let mut engine = UpdateEngine::new(g);
    engine
        .obs_mut()
        .set_recorder(Box::new(FlightRecorder::new(1 << 16)));
    engine.obs_mut().enable_metrics();
    engine.register_with_policy(Box::new(OneIndex::build(engine.graph())));
    engine.register_with_policy(Box::new(AkIndex::build(engine.graph(), 2)));
    engine.register_with_policy(Box::new(SimpleAkIndex::build(engine.graph(), 2)));
    engine.register_with_policy(Box::new(PropagateOneIndex::build(engine.graph())));

    churn(&mut engine, &mut pool, PAIRS_PER_HALF);
    let held = engine.freeze();
    churn(&mut engine, &mut pool, PAIRS_PER_HALF);

    // One batch with every op kind: a new node hung under an existing
    // one, a pooled IDREF insert and delete, and a leaf removal.
    let (iu, iv) = pool.next_insert().expect("pool has an edge to insert");
    let (du, dv) = pool.next_delete().expect("graph has an IDREF to delete");
    let g = engine.graph();
    let leaf = g
        .nodes()
        .filter(|&n| n != g.root() && g.out_degree(n) == 0 && g.in_degree(n) == 1)
        .filter(|&n| ![iu, iv, du, dv].contains(&n))
        .last()
        .expect("xmark has leaves");
    let batch = [
        UpdateOp::AddNode {
            label: "bidder".into(),
        },
        UpdateOp::InsertEdge {
            from: NodeRef::Existing(iu),
            to: NodeRef::New(0),
            kind: EdgeKind::Child,
        },
        UpdateOp::InsertEdge {
            from: NodeRef::Existing(iu),
            to: NodeRef::Existing(iv),
            kind: EdgeKind::IdRef,
        },
        UpdateOp::DeleteEdge { from: du, to: dv },
        UpdateOp::RemoveNode { node: leaf },
    ];
    engine.apply_batch(&batch).expect("valid batch");
    engine.freeze();
    drop(held);
    engine
}

/// The deterministic projection with one series object per line, so a
/// golden mismatch diffs line by line.
fn deterministic_lines(engine: &UpdateEngine) -> String {
    engine
        .obs()
        .metrics_deterministic_json()
        .replace("},{", "},\n{")
        .replace(":[{", ":[\n{")
}

#[test]
fn deterministic_metrics_match_the_golden() {
    let engine = golden_run();
    assert!(engine.stats().rebuilds > 0, "the workload must rebuild");
    let m = engine.obs().metrics().expect("metrics enabled");
    let rebuilds: u64 = (0..4)
        .map(|f| m.counter_value(&MetricKey::named("rebuilds_total").family(IndexFamily(f))))
        .sum();
    assert!(
        rebuilds > 0,
        "rebuilds_total must count the policy rebuilds"
    );
    assert_eq!(deterministic_lines(&engine), GOLDEN);
}

/// Arming an explicit span collection around the same run changes
/// nothing the hub sees: the stable trace and the deterministic metrics
/// are identical, and the hub's records are exactly the collected
/// tree's pipeline-kind spans, in open order, each with its effective
/// family. So exporting the tree (`xsi_bench --chrome-trace-out`) never
/// counts a span twice.
#[test]
fn explicit_collection_leaves_the_hub_records_unchanged() {
    let plain = golden_run();
    span::begin_collection();
    let collected = golden_run();
    let tree = span::end_collection();
    assert_eq!(tree.dropped, 0);
    assert_eq!(plain.obs().stable_trace(), collected.obs().stable_trace());
    assert_eq!(deterministic_lines(&plain), deterministic_lines(&collected));

    let pipeline: Vec<SpanRecord> = tree
        .spans
        .iter()
        .filter(|s| s.kind.is_pipeline())
        .map(|s| SpanRecord {
            family: tree.effective_family(s.id),
            ..s.clone()
        })
        .collect();
    let records: Vec<SpanRecord> = collected
        .obs()
        .flight_records()
        .into_iter()
        .map(|(_, rec)| rec.span)
        .collect();
    assert_eq!(records.len() as u64, collected.obs().events_emitted());
    assert!(
        records.len() < tree.len(),
        "kernel spans stay out of the hub"
    );
    assert_eq!(records, pipeline);
    // The family-tagged kinds are exactly the records with a family.
    for rec in &records {
        assert_eq!(
            rec.kind.is_family_tagged(),
            rec.family != IndexFamily::NONE,
            "{rec:?}"
        );
    }
}

/// A collection whose cap is hit drops kernel spans only: the hub still
/// sees every record, so the stable trace and the deterministic metrics
/// match the run without a collection.
#[test]
fn capped_collection_leaves_the_hub_records_unchanged() {
    let plain = golden_run();
    span::begin_collection_with_cap(16);
    let capped = golden_run();
    let tree = span::end_collection();
    assert!(tree.dropped > 0, "the cap must be hit");
    assert_eq!(plain.obs().stable_trace(), capped.obs().stable_trace());
    assert_eq!(deterministic_lines(&plain), deterministic_lines(&capped));
    assert_eq!(
        tree.spans.iter().filter(|s| !s.kind.is_pipeline()).count(),
        16
    );
    assert_eq!(
        tree.spans.iter().filter(|s| s.kind.is_pipeline()).count() as u64,
        capped.obs().events_emitted()
    );
}

const GOLDEN: &str = r#"{"format":"xsi-metrics-v1","counters":[
{"name":"batch_ops_total","labels":{"phase":"add-nodes"},"value":1},
{"name":"batch_ops_total","labels":{"phase":"delete-edges"},"value":1},
{"name":"batch_ops_total","labels":{"phase":"insert-edges"},"value":2},
{"name":"batch_ops_total","labels":{"phase":"remove-nodes"},"value":2},
{"name":"batch_segments_total","labels":{"phase":"add-nodes"},"value":1},
{"name":"batch_segments_total","labels":{"phase":"delete-edges"},"value":1},
{"name":"batch_segments_total","labels":{"phase":"insert-edges"},"value":1},
{"name":"batch_segments_total","labels":{"phase":"remove-nodes"},"value":1},
{"name":"merges_total","labels":{"family":"1-index","op":"delete-edge"},"value":143},
{"name":"merges_total","labels":{"family":"1-index","op":"insert-edge"},"value":42},
{"name":"merges_total","labels":{"family":"A(2)-index","op":"delete-edge"},"value":92},
{"name":"merges_total","labels":{"family":"A(2)-index","op":"insert-edge"},"value":88},
{"name":"merges_total","labels":{"family":"A(2)-index(simple)","op":"delete-edge"},"value":0},
{"name":"merges_total","labels":{"family":"A(2)-index(simple)","op":"insert-edge"},"value":0},
{"name":"merges_total","labels":{"family":"1-index(propagate)","op":"delete-edge"},"value":0},
{"name":"merges_total","labels":{"family":"1-index(propagate)","op":"insert-edge"},"value":0},
{"name":"no_ops_total","labels":{"family":"1-index","op":"delete-edge"},"value":15},
{"name":"no_ops_total","labels":{"family":"1-index","op":"insert-edge"},"value":17},
{"name":"no_ops_total","labels":{"family":"A(2)-index","op":"delete-edge"},"value":39},
{"name":"no_ops_total","labels":{"family":"A(2)-index","op":"insert-edge"},"value":47},
{"name":"no_ops_total","labels":{"family":"A(2)-index(simple)","op":"delete-edge"},"value":43},
{"name":"no_ops_total","labels":{"family":"A(2)-index(simple)","op":"insert-edge"},"value":51},
{"name":"no_ops_total","labels":{"family":"1-index(propagate)","op":"delete-edge"},"value":14},
{"name":"no_ops_total","labels":{"family":"1-index(propagate)","op":"insert-edge"},"value":17},
{"name":"ops_total","labels":{"op":"add-node"},"value":1},
{"name":"ops_total","labels":{"op":"delete-edge"},"value":62},
{"name":"ops_total","labels":{"op":"insert-edge"},"value":62},
{"name":"ops_total","labels":{"op":"remove-node"},"value":1},
{"name":"rebuilds_total","labels":{"family":"A(2)-index(simple)"},"value":10},
{"name":"rebuilds_total","labels":{"family":"1-index(propagate)"},"value":2},
{"name":"snapshots_total","labels":{"family":"1-index"},"value":2},
{"name":"snapshots_total","labels":{"family":"A(2)-index"},"value":2},
{"name":"snapshots_total","labels":{"family":"A(2)-index(simple)"},"value":2},
{"name":"snapshots_total","labels":{"family":"1-index(propagate)"},"value":2},
{"name":"splits_total","labels":{"family":"1-index","op":"delete-edge"},"value":27},
{"name":"splits_total","labels":{"family":"1-index","op":"insert-edge"},"value":131},
{"name":"splits_total","labels":{"family":"A(2)-index","op":"delete-edge"},"value":99},
{"name":"splits_total","labels":{"family":"A(2)-index","op":"insert-edge"},"value":73},
{"name":"splits_total","labels":{"family":"A(2)-index(simple)","op":"delete-edge"},"value":84},
{"name":"splits_total","labels":{"family":"A(2)-index(simple)","op":"insert-edge"},"value":63},
{"name":"splits_total","labels":{"family":"1-index(propagate)","op":"delete-edge"},"value":19},
{"name":"splits_total","labels":{"family":"1-index(propagate)","op":"insert-edge"},"value":104}],"gauges":[
{"name":"final_blocks","labels":{"family":"1-index"},"value":952},
{"name":"final_blocks","labels":{"family":"A(2)-index"},"value":225},
{"name":"final_blocks","labels":{"family":"A(2)-index(simple)"},"value":233},
{"name":"final_blocks","labels":{"family":"1-index(propagate)"},"value":991},
{"name":"snapshot_cow_clones","labels":{"family":"1-index"},"value":78},
{"name":"snapshot_cow_clones","labels":{"family":"A(2)-index"},"value":98},
{"name":"snapshot_cow_clones","labels":{"family":"A(2)-index(simple)"},"value":0},
{"name":"snapshot_cow_clones","labels":{"family":"1-index(propagate)"},"value":0},
{"name":"snapshot_retained_bytes","labels":{"family":"1-index"},"value":121347},
{"name":"snapshot_retained_bytes","labels":{"family":"A(2)-index"},"value":40650},
{"name":"snapshot_retained_bytes","labels":{"family":"A(2)-index(simple)"},"value":33558},
{"name":"snapshot_retained_bytes","labels":{"family":"1-index(propagate)"},"value":113354}],"histograms":[
{"name":"intermediate_blocks","labels":{"family":"1-index","phase":"split"},"count":92,"sum":89240,"max":987,"p50":987,"p90":987,"p99":987},
{"name":"intermediate_blocks","labels":{"family":"A(2)-index","phase":"split"},"count":38,"sum":8757,"max":241,"p50":241,"p90":241,"p99":241},
{"name":"intermediate_blocks","labels":{"family":"A(2)-index(simple)","phase":"split"},"count":30,"sum":7043,"max":250,"p50":250,"p90":250,"p99":250},
{"name":"intermediate_blocks","labels":{"family":"1-index(propagate)","phase":"split"},"count":93,"sum":92458,"max":1031,"p50":1023,"p90":1023,"p99":1031},
{"name":"queue_peak","labels":{"family":"1-index","phase":"split"},"count":92,"sum":202,"max":16,"p50":0,"p90":15,"p99":16},
{"name":"queue_peak","labels":{"family":"A(2)-index","phase":"split"},"count":38,"sum":178,"max":9,"p50":7,"p90":9,"p99":9},
{"name":"queue_peak","labels":{"family":"A(2)-index(simple)","phase":"split"},"count":30,"sum":0,"max":0,"p50":0,"p90":0,"p99":0},
{"name":"queue_peak","labels":{"family":"1-index(propagate)","phase":"split"},"count":93,"sum":160,"max":16,"p50":0,"p90":15,"p99":16},
{"name":"rank_levels_touched","labels":{"family":"A(2)-index"},"count":38,"sum":65,"max":2,"p50":2,"p90":2,"p99":2},
{"name":"snapshot_blocks","labels":{"family":"1-index"},"count":2,"sum":1930,"max":979,"p50":979,"p90":979,"p99":979},
{"name":"snapshot_blocks","labels":{"family":"A(2)-index"},"count":2,"sum":456,"max":232,"p50":232,"p90":232,"p99":232},
{"name":"snapshot_blocks","labels":{"family":"A(2)-index(simple)"},"count":2,"sum":466,"max":234,"p50":234,"p90":234,"p99":234},
{"name":"snapshot_blocks","labels":{"family":"1-index(propagate)"},"count":2,"sum":1977,"max":990,"p50":990,"p90":990,"p99":990}]}"#;
