//! # xsi-graph — the data-graph model
//!
//! XML and other semistructured data are modeled, following Section 3 of
//! *Incremental Maintenance of XML Structural Indexes* (SIGMOD 2004), as a
//! directed, labeled graph `G = (V, E, root, Σ, label, oid, value)`:
//!
//! * each node (**dnode**) carries a label from an interned alphabet `Σ`,
//!   a unique identifier (its [`NodeId`]), and an optional string value;
//! * each edge (**dedge**) represents either an object–subobject
//!   (containment) relationship or an `IDREF` reference — the distinction is
//!   irrelevant to the index algorithms but is preserved as an [`EdgeKind`]
//!   because the paper's workloads treat the two differently;
//! * there is a single root node with the distinguished label `ROOT` and no
//!   incoming edges.
//!
//! The representation is tuned for the access patterns of partition
//! refinement: O(1) amortized edge insertion/deletion, and both successor
//! and predecessor adjacency (bisimulation splits scan `Succ`, minimality
//! checks scan `Pred`).
//!
//! ```
//! use xsi_graph::{Graph, EdgeKind, is_acyclic};
//!
//! let mut g = Graph::new();
//! let root = g.root();
//! let a = g.add_node("paper", None);
//! let b = g.add_node("title", Some("XSI".into()));
//! g.insert_edge(root, a, EdgeKind::Child).unwrap();
//! g.insert_edge(a, b, EdgeKind::Child).unwrap();
//! assert_eq!(g.node_count(), 3);
//! assert!(is_acyclic(&g));
//! ```

#![forbid(unsafe_code)]

mod builder;
mod dot;
mod graph;
mod label;
mod subgraph;
mod traverse;

pub use builder::GraphBuilder;
pub use graph::{EdgeKind, Graph, GraphError, NodeId};
pub use label::{Label, LabelInterner, ROOT_LABEL};
pub use subgraph::{extract_subtree, subtree_members, DetachedSubgraph};
pub use traverse::{
    bfs_descendants, is_acyclic, reachable_from_root, strongly_connected_components,
    topological_order,
};
