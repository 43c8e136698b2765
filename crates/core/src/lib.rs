//! # xsi-core — structural indexes and their incremental maintenance
//!
//! A from-scratch Rust implementation of *Incremental Maintenance of XML
//! Structural Indexes* (Yi, He, Stanoi, Yang — SIGMOD 2004).
//!
//! A **structural index** for a data graph partitions the dnodes into
//! equivalence classes ("inodes"); an iedge connects inode `I` to inode `J`
//! when some dnode in `I` has a dedge to some dnode in `J`. This crate
//! provides:
//!
//! * [`OneIndex`] — the 1-index (Milo & Suciu), partitioning by
//!   bisimilarity, constructed by Paige–Tarjan partition refinement and
//!   maintained incrementally by the paper's **split/merge** algorithm
//!   (Figure 3: edge insertion/deletion; Figure 6: subgraph addition), which
//!   keeps the index *minimal* at all times and *minimum* on acyclic graphs
//!   (Theorem 1); construction and maintenance run the refinement loops
//!   of [`kernel`] directly on the index's [`Partition`];
//! * [`AkIndex`] — the A(k)-index (Kaushik et al.), partitioning by
//!   k-bisimilarity, maintained by the refinement-tree split/merge algorithm
//!   of Figure 7, which keeps the whole A(0)..A(k) chain *minimum* on any
//!   graph (Theorem 2);
//! * the baselines the paper compares against: the split-only
//!   [`propagate`](PropagateOneIndex) algorithm of Kaushik et
//!   al. (VLDB'02) and the [`simple`](SimpleAkIndex) BFS-repartitioning
//!   A(k) updater of Qun et al. (SIGMOD'03), plus the periodic
//!   [`rebuild`]-on-5 %-growth heuristic both baselines rely on;
//! * [`mod@reference`] oracles (naive fixpoint (k-)bisimulation) and
//!   [`check`]ers (validity, minimality) used by the test suite and the
//!   experiment harness;
//! * the [`StructuralIndex`] trait — one object-safe maintenance interface
//!   implemented by every index family above (plus the
//!   [`PropagateOneIndex`] baseline wrapper), with post-mutation observer
//!   hooks, a uniform [`rebuild`](StructuralIndex::rebuild) entry point,
//!   an [`IndexQueryView`] for index-assisted query evaluation, and a
//!   trait-level consistency [`check`](StructuralIndex::check);
//! * the single-writer [`UpdateEngine`] — owns the [`Graph`](xsi_graph::Graph),
//!   applies each [`UpdateOp`] exactly once, and fans the notification out
//!   to all registered indexes, so several index families stay maintained
//!   over the same graph simultaneously with per-index [`UpdateStats`] and
//!   aggregate [`EngineStats`], plus policy-driven rebuilds.
//!
//! ```
//! use xsi_graph::{Graph, EdgeKind};
//! use xsi_core::OneIndex;
//!
//! let mut g = Graph::new();
//! let a = g.add_node("a", None);
//! let b1 = g.add_node("b", None);
//! let b2 = g.add_node("b", None);
//! let r = g.root();
//! g.insert_edge(r, a, EdgeKind::Child).unwrap();
//! g.insert_edge(a, b1, EdgeKind::Child).unwrap();
//! g.insert_edge(a, b2, EdgeKind::Child).unwrap();
//!
//! let mut idx = OneIndex::build(&g);
//! assert_eq!(idx.block_count(), 3); // {ROOT}, {a}, {b1,b2}
//!
//! // Incremental update: b1 gains a second parent, so it is no longer
//! // bisimilar to b2 — the index splits, minimally.
//! let c = g.add_node("c", None);
//! idx.on_node_added(&g, c);
//! idx.insert_edge(&mut g, r, c, EdgeKind::Child).unwrap();
//! idx.insert_edge(&mut g, c, b1, EdgeKind::IdRef).unwrap();
//! assert_eq!(idx.block_count(), 5); // ROOT, {a}, {c}, {b1}, {b2}
//! ```

#![forbid(unsafe_code)]

pub mod akindex;
pub mod batch;
pub mod check;
pub mod engine;
pub mod index;
pub mod kernel;
pub mod obs;
pub mod oneindex;
pub mod partition;
pub mod rebuild;
pub mod reference;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod view;

pub use akindex::{AkIndex, SimpleAkIndex};
pub use batch::{BatchError, BatchResult, NodeRef, UpdateOp};
pub use check::{is_minimal_1index, is_valid_1index, is_valid_ak_chain};
pub use engine::{EngineStats, IndexHandle, UpdateEngine};
pub use index::{IndexQueryView, PropagateOneIndex, StructuralIndex};
pub use obs::{
    FlightRecorder, JsonlWriter, MetricsRegistry, ObsHub, Recorder, SpanGuard, SpanKind, SpanTree,
};
pub use oneindex::OneIndex;
pub use partition::{BlockId, Partition};
pub use stats::UpdateStats;
pub use view::{FrozenBlock, IndexSnapshot};
