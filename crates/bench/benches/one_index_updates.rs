//! Micro-benchmarks for Figure 11: per-update cost of 1-index
//! maintenance (criterion-free, `xsi_bench::micro`). Each iteration
//! performs one insert + one delete of a pooled IDREF edge, so the
//! split/merge index returns to (a partition equal to) its starting state
//! and no per-iteration setup is needed.
//!
//! Caveat on the propagate numbers: without a merge phase, the baseline
//! fragments the index during warm-up until re-inserting a pooled edge
//! hits the iedge-already-exists fast path, so its steady-state pair cost
//! approaches the no-op floor. The `fig11_times` binary performs the
//! paper's fair comparison (fresh pool edges throughout); this bench
//! primarily tracks the split/merge cost.
//!
//! Run with `cargo bench --features bench --bench one_index_updates`.

use xsi_bench::micro::{bench, group};
use xsi_core::{OneIndex, PropagateOneIndex, StructuralIndex};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_workload::{generate_xmark, EdgePool, XmarkParams};

fn setup(cyclicity: f64) -> (Graph, OneIndex, Vec<(NodeId, NodeId)>) {
    let mut g = generate_xmark(&XmarkParams::new(0.1, cyclicity, 42));
    let mut pool = EdgePool::extract(&mut g, 0.2, 42);
    let idx = OneIndex::build(&g);
    let mut edges = Vec::new();
    for _ in 0..64 {
        if let Some(e) = pool.next_insert() {
            edges.push(e);
        }
    }
    // Leave the sampled edges OUT of the graph; the bench inserts then
    // deletes each.
    (g, idx, edges)
}

fn main() {
    group("one_index_updates");
    for cyclicity in [1.0, 0.0] {
        let (mut g, mut idx, edges) = setup(cyclicity);
        let mut i = 0usize;
        bench(&format!("split_merge_pair / xmark({cyclicity})"), || {
            let (u, v) = edges[i % edges.len()];
            i += 1;
            idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap();
            idx.delete_edge(&mut g, u, v).unwrap();
        });
        let (mut g, idx, edges) = setup(cyclicity);
        let mut idx = PropagateOneIndex(idx);
        let mut i = 0usize;
        bench(&format!("propagate_pair / xmark({cyclicity})"), || {
            let (u, v) = edges[i % edges.len()];
            i += 1;
            g.insert_edge(u, v, EdgeKind::IdRef).unwrap();
            idx.on_edge_inserted(&g, u, v);
            g.delete_edge(u, v).unwrap();
            idx.on_edge_deleted(&g, u, v);
        });
    }
}
