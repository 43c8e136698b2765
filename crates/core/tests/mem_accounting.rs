//! The memory-accounting contract tests (DESIGN.md §13).
//!
//! Three properties pin the `HeapUse`/`MemReport` layer:
//!
//! 1. **Walker oracle** — for every index family, the categorized
//!    [`MemReport`] must sum to *exactly* the deep `heap_use()` computed
//!    by the independent traversal path (the categories are disjoint and
//!    exhaustive, or the accounting is lying). Checked across build,
//!    update churn, and slot-recycling states.
//! 2. **CoW attribution** — after a freeze every live extent run is
//!    shared (counted once, on the live side as "shared" bytes and on
//!    the snapshot side as retention); as the writer mutates blocks the
//!    sharing ratio falls monotonically toward zero while the total
//!    stays exact.
//! 3. **Determinism** — two identically seeded runs produce identical
//!    mem reports, block and minimum counts (the `xsi-mem-v1`
//!    artifact's numbers) and deterministic metrics JSON, so golden mem
//!    artifacts are diffable.

use xsi_core::obs::mem::{HeapUse, MemReport};
use xsi_core::{
    AkIndex, OneIndex, PropagateOneIndex, SimpleAkIndex, StructuralIndex, UpdateEngine,
};
use xsi_graph::Graph;
use xsi_workload::{generate_xmark, EdgePool, XmarkParams};

fn xmark(scale: f64, seed: u64) -> Graph {
    generate_xmark(&XmarkParams::new(scale, 0.05, seed))
}

/// The deep bytes of an index through the family-specific traversal —
/// the walker side of the oracle, distinct from the `MemReport`
/// categorization pass.
fn walker_bytes(idx: &dyn StructuralIndex) -> usize {
    let any = idx.as_any();
    if let Some(one) = any.downcast_ref::<OneIndex>() {
        one.partition().heap_use()
    } else if let Some(p) = any.downcast_ref::<PropagateOneIndex>() {
        p.0.partition().heap_use()
    } else if let Some(ak) = any.downcast_ref::<AkIndex>() {
        ak.heap_use()
    } else if let Some(sim) = any.downcast_ref::<SimpleAkIndex>() {
        sim.heap_use()
    } else {
        panic!("unknown index family: {}", idx.describe());
    }
}

fn assert_report_matches_walker(idx: &dyn StructuralIndex) {
    let r = idx
        .mem_report()
        .unwrap_or_else(|| panic!("{} publishes a mem report", idx.describe()));
    assert_eq!(
        r.total_bytes(),
        walker_bytes(idx) as u64,
        "{}: category sum must equal the walker's deep bytes exactly",
        idx.describe()
    );
    assert_eq!(
        r.blocks as usize,
        if let Some(ak) = idx.as_any().downcast_ref::<AkIndex>() {
            ak.total_blocks()
        } else {
            idx.block_count()
        },
        "{}: one report row per live block",
        idx.describe()
    );
    // Histogram mass equals the number of extent-bearing recordings.
    let hist_mass: u64 = r.extent_len_hist.iter().sum();
    assert!(hist_mass <= r.owned_extents + r.shared_extents);
    assert!(hist_mass > 0, "{}: no extents recorded", idx.describe());
}

#[test]
fn walker_oracle_matches_heap_use_across_churn() {
    let mut g = xmark(0.02, 42);
    let pool = EdgePool::extract(&mut g, 0.2, 7);
    let mut engine = UpdateEngine::new(g);
    let handles = [
        engine.register(Box::new(OneIndex::build(engine.graph()))),
        engine.register(Box::new(PropagateOneIndex(OneIndex::build(engine.graph())))),
        engine.register(Box::new(AkIndex::build(engine.graph(), 2))),
        engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2))),
    ];

    for &h in &handles {
        assert_report_matches_walker(engine.index(h));
    }

    // Update churn: re-insert the extracted pool, then delete half of
    // it again — slot recycling, spills and scratch growth included.
    let mut pool = pool;
    let mut inserted = Vec::new();
    while let Some((u, v)) = pool.next_insert() {
        engine
            .insert_edge(u, v, xsi_graph::EdgeKind::IdRef)
            .unwrap();
        inserted.push((u, v));
    }
    for &h in &handles {
        assert_report_matches_walker(engine.index(h));
    }
    for &(u, v) in inserted.iter().step_by(2) {
        engine.delete_edge(u, v).unwrap();
    }
    for &h in &handles {
        assert_report_matches_walker(engine.index(h));
    }
}

#[test]
fn cow_sharing_counted_once_and_ratio_falls_as_writer_clones() {
    let mut g = xmark(0.02, 11);
    let pool = EdgePool::extract(&mut g, 0.25, 3);
    let mut engine = UpdateEngine::new(g);
    let h = engine.register(Box::new(OneIndex::build(engine.graph())));

    let before = engine.index(h).mem_report().unwrap();
    assert_eq!(before.shared_extents, 0, "nothing shared before a freeze");
    assert_eq!(before.extent_shared_bytes, 0);

    let snaps = engine.freeze();
    let snap = snaps[0].as_ref().expect("1-index freezes");
    let frozen = engine.index(h).mem_report().unwrap();
    assert_eq!(
        frozen.shared_extents, frozen.blocks,
        "a fresh freeze shares every live extent run"
    );
    assert_eq!(frozen.owned_extents, 0);
    assert!(frozen.sharing_ratio() > 0.999);
    // Shared-once: the freeze moved bytes between categories without
    // inventing any — the total still equals the walker's deep bytes.
    assert_eq!(
        frozen.total_bytes(),
        before.total_bytes(),
        "freeze itself allocates nothing on the live side"
    );
    // The snapshot retains at least every shared run (it also owns its
    // label strings and successor lists).
    assert!(snap.heap_use() as u64 >= frozen.extent_shared_bytes);

    // Writer churn: mutating a frozen block clones its run (shared →
    // owned), and nothing can *become* shared without another freeze —
    // so the shared side only ever shrinks. (The sharing *ratio* is not
    // monotone step-to-step: merges also shrink the owned side.)
    let mut pool = pool;
    let mut last_shared = (frozen.shared_extents, frozen.extent_shared_bytes);
    while let Some((u, v)) = pool.next_insert() {
        engine
            .insert_edge(u, v, xsi_graph::EdgeKind::IdRef)
            .unwrap();
        let r = engine.index(h).mem_report().unwrap();
        assert_report_matches_walker(engine.index(h));
        assert!(
            r.shared_extents <= last_shared.0 && r.extent_shared_bytes <= last_shared.1,
            "the shared side must not grow while only the writer mutates"
        );
        last_shared = (r.shared_extents, r.extent_shared_bytes);
    }
    let after = engine.index(h).mem_report().unwrap();
    assert!(
        after.shared_extents < frozen.shared_extents,
        "churn must clone at least one shared run"
    );
    assert!(
        after.sharing_ratio() < frozen.sharing_ratio(),
        "sharing ratio falls as the writer clones"
    );
    assert!(
        engine.index(h).cow_clones() > 0,
        "the clones were CoW clones"
    );
}

/// One seeded run: per registered index, its mem report with its block
/// count and the rebuild-to-minimum count (the `xsi-mem-v1` artifact's
/// numbers), plus the deterministic metrics JSON.
fn run_once(seed: u64) -> (Vec<(MemReport, usize, usize)>, String) {
    let mut g = xmark(0.02, seed);
    let mut pool = EdgePool::extract(&mut g, 0.2, seed ^ 0x9e37);
    let mut engine = UpdateEngine::new(g);
    engine
        .obs_mut()
        .set_recorder(Box::new(xsi_core::FlightRecorder::new(4096)));
    engine.obs_mut().enable_metrics();
    let handles = [
        engine.register(Box::new(OneIndex::build(engine.graph()))),
        engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2))),
    ];
    while let Some((u, v)) = pool.next_insert() {
        engine
            .insert_edge(u, v, xsi_graph::EdgeKind::IdRef)
            .unwrap();
    }
    let reports = handles
        .iter()
        .map(|&h| {
            let index = engine.index(h);
            (
                index.mem_report().expect("both families report"),
                index.block_count(),
                index.minimum_block_count(engine.graph()),
            )
        })
        .collect();
    (reports, engine.obs().metrics_deterministic_json())
}

#[test]
fn mem_reports_are_deterministic_across_identical_runs() {
    let (mem_a, json_a) = run_once(1234);
    let (mem_b, json_b) = run_once(1234);
    assert!(mem_a.iter().all(|(r, _, _)| r.total_bytes() > 0));
    assert_eq!(mem_a, mem_b, "mem reports are golden");
    assert_eq!(json_a, json_b, "deterministic metrics JSON is golden");
}
