//! Cross-crate invariants for the causal span layer: balanced
//! open/close under panics, correct parent links across nested kernel
//! scans, no kind nested inside its own kind, byte-identical folded
//! output on seed-pinned replays, and the CompoundProcess accounting
//! contract against the Split/Merge phase spans.

use std::panic::{catch_unwind, AssertUnwindSafe};

use xsi_core::obs::span::{self, SpanGuard, SpanKind};
use xsi_core::obs::{folded_stacks, FoldWeight};
use xsi_core::{AkIndex, OneIndex, UpdateEngine};
use xsi_graph::{EdgeKind, NodeId};
use xsi_workload::{generate_xmark, EdgePool, XmarkParams};

/// One seeded engine run over pooled IDREF edges, then one freeze, with
/// span collection armed; returns the finished tree plus the engine.
fn collected_run(seed: u64, pairs: usize) -> (span::SpanTree, UpdateEngine) {
    let mut g = generate_xmark(&XmarkParams::new(0.01, 1.0, seed));
    let mut pool = EdgePool::extract(&mut g, 0.2, seed);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for _ in 0..32 {
        if let Some(e) = pool.next_insert() {
            edges.push(e);
        }
    }
    assert!(!edges.is_empty(), "xmark pool yielded no IDREF edges");

    let mut engine = UpdateEngine::new(g);
    engine.register(Box::new(OneIndex::build(engine.graph())));
    engine.register(Box::new(AkIndex::build(engine.graph(), 2)));

    span::begin_collection();
    for i in 0..pairs {
        let (u, v) = edges[i % edges.len()];
        engine
            .insert_edge(u, v, EdgeKind::IdRef)
            .expect("pooled insert");
        engine.delete_edge(u, v).expect("pooled delete");
    }
    engine.freeze();
    (span::end_collection(), engine)
}

#[test]
fn workload_tree_is_well_formed_and_balanced() {
    let (tree, _engine) = collected_run(7, 40);
    assert!(!tree.is_empty(), "instrumented run recorded no spans");
    assert_eq!(tree.dropped, 0);
    assert!(tree.is_well_formed());
    assert_eq!(span::open_depth(), 0, "guards leaked past end_collection");
    // The workload exercises every hot-path kind.
    for kind in [
        SpanKind::Op,
        SpanKind::IndexDispatch,
        SpanKind::Split,
        SpanKind::Merge,
        SpanKind::CompoundProcess,
        SpanKind::KernelScan,
        SpanKind::Freeze,
    ] {
        assert!(
            tree.kind_count(kind) > 0,
            "no {kind:?} spans in an insert+delete workload"
        );
    }
}

#[test]
fn parent_links_nest_kernel_scans_under_dispatch() {
    let (tree, _engine) = collected_run(11, 40);
    // Every KernelScan sits under a CompoundProcess (per-iteration
    // scans) or directly under a Split (the aggregate fixpoint span);
    // walking further up must reach an IndexDispatch before any root.
    let mut scans_checked = 0usize;
    for s in tree.spans.iter().filter(|s| s.kind == SpanKind::KernelScan) {
        let parent = tree.get(s.parent).expect("KernelScan must not be a root");
        assert!(
            matches!(parent.kind, SpanKind::CompoundProcess | SpanKind::Split),
            "KernelScan {} under {:?}",
            s.id,
            parent.kind
        );
        let mut cur = s.parent;
        let mut saw_dispatch = false;
        while let Some(a) = tree.get(cur) {
            if a.kind == SpanKind::IndexDispatch {
                saw_dispatch = true;
                break;
            }
            cur = a.parent;
        }
        assert!(
            saw_dispatch,
            "KernelScan {} has no IndexDispatch ancestor",
            s.id
        );
        scans_checked += 1;
    }
    assert!(scans_checked > 0);

    // Every CompoundProcess carries the per-family dispatch above it.
    for s in tree
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::CompoundProcess)
    {
        assert_ne!(
            tree.effective_family(s.id),
            xsi_core::obs::IndexFamily::NONE,
            "CompoundProcess {} resolved no family",
            s.id
        );
    }
}

/// No pipeline kind has an ancestor of its own kind — so summing a
/// kind's durations never counts a region twice — and neither does
/// CompoundProcess (the maintainers drop their seed span before
/// entering merge_fold).
#[test]
fn no_kind_nests_inside_its_own_kind() {
    let (tree, _engine) = collected_run(5, 40);
    let checked = tree
        .spans
        .iter()
        .filter(|s| s.kind.is_pipeline() || s.kind == SpanKind::CompoundProcess);
    for s in checked {
        let mut cur = s.parent;
        while let Some(a) = tree.get(cur) {
            assert_ne!(
                a.kind, s.kind,
                "{:?} {} nested inside {:?} {}",
                s.kind, s.id, a.kind, a.id
            );
            cur = a.parent;
        }
    }
}

#[test]
fn folded_count_output_is_byte_identical_across_replays() {
    let (tree_a, engine_a) = collected_run(42, 30);
    let (tree_b, engine_b) = collected_run(42, 30);
    let folded_a = folded_stacks(&tree_a, engine_a.obs().families(), FoldWeight::Count);
    let folded_b = folded_stacks(&tree_b, engine_b.obs().families(), FoldWeight::Count);
    assert!(!folded_a.is_empty());
    assert_eq!(
        folded_a, folded_b,
        "Count-weighted folded output must be deterministic under a pinned seed"
    );
}

#[test]
fn compound_spans_account_for_phase_nanos() {
    let (tree, _engine) = collected_run(3, 60);
    let phase_nanos = tree.kind_nanos(SpanKind::Split) + tree.kind_nanos(SpanKind::Merge);
    let compound = tree.kind_nanos(SpanKind::CompoundProcess);
    assert!(phase_nanos > 0);
    // Release runs on xmark 0.05 hold >= 90% (EXPERIMENTS.md records the
    // measured figure; xsi_bench prints it per run). Debug + tiny scale
    // inflate the per-iteration bookkeeping outside the spans, so the
    // tier-1 gate uses a conservative floor that still catches a
    // detached or mis-nested instrumentation point.
    assert!(
        compound as f64 >= 0.5 * phase_nanos as f64,
        "CompoundProcess spans cover {compound} of {phase_nanos} phase nanos"
    );
}

#[test]
fn unwinding_closes_open_spans_and_keeps_collecting() {
    span::begin_collection();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _op = SpanGuard::enter(SpanKind::Op);
        let _dispatch = SpanGuard::enter(SpanKind::IndexDispatch);
        panic!("unwind through instrumented region");
    }));
    assert!(result.is_err());
    assert_eq!(span::open_depth(), 0, "unwind left spans open");
    // The collection survives the panic and keeps accepting spans.
    drop(SpanGuard::enter(SpanKind::Op));
    let tree = span::end_collection();
    assert!(tree.is_well_formed());
    assert_eq!(tree.len(), 3);
    assert_eq!(tree.kind_count(SpanKind::Op), 2);
}
