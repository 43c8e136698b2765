//! Batched updates: the op vocabulary and its validation.
//!
//! Applications rarely see one edge at a time — an XML document change
//! arrives as a group of node and edge operations. [`UpdateOp`] describes
//! one operation; [`crate::UpdateEngine::apply_batch`] applies a group
//! through incremental maintenance in dependency-safe order (node
//! additions first, then edge insertions, then edge deletions, then node
//! removals), after `validate` has checked that the batch is
//! internally consistent. A batch that fails validation touches nothing.
//!
//! Each operation still runs through the split/merge machinery, so the
//! minimality/minimum guarantees hold at every intermediate step; the
//! batch layer adds ordering, atomic pre-validation, and aggregate
//! statistics. (True batching that defers the merge phase across a group
//! is what Figure 6 does for subgraphs — use
//! [`crate::UpdateEngine::add_subgraph`] for that case; its validation,
//! [`plan_subgraph`], lives here too.)
//!
//! There is no batch application code here: the engine runs the phases
//! through the same fan-out core as its single-op entry points, so a
//! batch and the equivalent single ops produce the same index states,
//! stats and spans (plus the batch's `BatchSegment` spans).

use crate::obs::BatchSegment;
use crate::stats::UpdateStats;
use std::collections::HashSet;
use xsi_graph::{DetachedSubgraph, EdgeKind, Graph, GraphError, NodeId};

/// One update in a batch. Node handles for `AddNode` results are
/// positional: the i-th `AddNode` of the batch is referred to by
/// [`NodeRef::New`]`(i)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Create a node with this label.
    AddNode { label: String },
    /// Insert a dedge.
    InsertEdge {
        from: NodeRef,
        to: NodeRef,
        kind: EdgeKind,
    },
    /// Delete a dedge (between existing nodes).
    DeleteEdge { from: NodeId, to: NodeId },
    /// Remove a node and all of its remaining edges.
    RemoveNode { node: NodeId },
}

impl UpdateOp {
    /// The batch phase segment this op runs in.
    pub(crate) fn segment(&self) -> BatchSegment {
        match self {
            UpdateOp::AddNode { .. } => BatchSegment::AddNodes,
            UpdateOp::InsertEdge { .. } => BatchSegment::InsertEdges,
            UpdateOp::DeleteEdge { .. } => BatchSegment::DeleteEdges,
            UpdateOp::RemoveNode { .. } => BatchSegment::RemoveNodes,
        }
    }
}

/// A node reference inside a batch: either an existing node or the
/// result of the batch's i-th `AddNode`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRef {
    /// An existing node in the graph.
    Existing(NodeId),
    /// The i-th `AddNode` of this batch (0-based).
    New(usize),
}

impl NodeRef {
    /// The host id this reference names, given the ids `created` so far
    /// by the batch's `AddNode`s.
    pub(crate) fn resolve(self, created: &[NodeId]) -> Result<NodeId, BatchError> {
        match self {
            NodeRef::Existing(n) => Ok(n),
            NodeRef::New(i) => created.get(i).copied().ok_or(BatchError::BadNewRef(i)),
        }
    }
}

/// Errors from batch validation and application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// A `NodeRef::New(i)` referred to a non-existent `AddNode`.
    BadNewRef(usize),
    /// A node operation referenced a node that is not alive.
    DeadNode(NodeId),
    /// The underlying graph rejected an operation (duplicate edge, …).
    Graph(GraphError),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::BadNewRef(i) => write!(f, "NodeRef::New({i}) out of range"),
            BatchError::DeadNode(n) => write!(f, "node {n} is not alive"),
            BatchError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<GraphError> for BatchError {
    fn from(e: GraphError) -> Self {
        BatchError::Graph(e)
    }
}

/// The result of a batch: created node ids (in `AddNode` order) and
/// aggregate statistics.
#[derive(Clone, Debug, Default)]
pub struct BatchResult {
    /// Host ids of the batch's `AddNode`s, in order.
    pub created: Vec<NodeId>,
    /// Aggregate per-operation statistics (absorbed across every applied
    /// operation and every index).
    pub stats: UpdateStats,
    /// Number of primitive graph mutations applied: one per node added,
    /// edge inserted, edge explicitly deleted, plus — for each node
    /// removal — one per incident edge implicitly deleted and one for the
    /// removal itself. A subgraph addition counts one per node and edge
    /// it writes.
    pub ops_applied: usize,
}

/// A subgraph addition that passed validation, in host ids and in the
/// order [`crate::UpdateEngine::add_subgraph`] writes it: the ids its
/// nodes get (local order), its internal edges then the edges into its
/// root, and every other boundary edge.
pub(crate) struct SubgraphPlan {
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) first: Vec<(NodeId, NodeId, EdgeKind)>,
    pub(crate) rest: Vec<(NodeId, NodeId, EdgeKind)>,
}

/// Checks every edge a subgraph addition would insert against `g`
/// before anything is written: every local id names a subgraph node
/// ([`BatchError::BadNewRef`]), every host is alive
/// ([`BatchError::DeadNode`]), and no edge is a self-loop, an edge into
/// the graph root or a duplicate ([`BatchError::Graph`], with the
/// error the graph would have returned).
pub(crate) fn plan_subgraph(g: &Graph, sub: &DetachedSubgraph) -> Result<SubgraphPlan, BatchError> {
    let nodes = g.next_node_ids(sub.node_count());
    let new = |l: u32| match nodes.get(l as usize) {
        Some(&n) => Ok(n),
        None => Err(BatchError::BadNewRef(l as usize)),
    };
    let host = |n: NodeId| g.is_alive(n).then_some(n).ok_or(BatchError::DeadNode(n));
    let root = new(sub.root_local())?;
    let (mut first, mut rest) = (Vec::new(), Vec::new());
    for &(u, v, kind) in sub.internal_edges() {
        first.push((new(u)?, new(v)?, kind));
    }
    for &(u, v, kind) in &sub.incoming {
        let edge = (host(u)?, new(v)?, kind);
        if edge.1 == root {
            first.push(edge);
        } else {
            rest.push(edge);
        }
    }
    for &(u, v, kind) in &sub.outgoing {
        rest.push((new(u)?, host(v)?, kind));
    }
    let mut seen = HashSet::new();
    for &(u, v, _) in first.iter().chain(&rest) {
        if u == v {
            return Err(GraphError::SelfLoop(u).into());
        }
        if v == g.root() {
            return Err(GraphError::RootViolation.into());
        }
        if !seen.insert((u, v)) {
            return Err(GraphError::DuplicateEdge(u, v).into());
        }
    }
    Ok(SubgraphPlan { nodes, first, rest })
}

/// Checks that a batch is internally consistent against `g` before
/// anything is applied: every `NodeRef::New` names one of the batch's
/// `AddNode`s, every existing endpoint is alive, and no node is removed
/// twice or is the root.
pub(crate) fn validate(g: &Graph, batch: &[UpdateOp]) -> Result<(), BatchError> {
    let new_count = batch
        .iter()
        .filter(|op| matches!(op, UpdateOp::AddNode { .. }))
        .count();
    let check_ref = |r: &NodeRef| match r {
        NodeRef::New(i) if *i >= new_count => Err(BatchError::BadNewRef(*i)),
        NodeRef::Existing(n) if !g.is_alive(*n) => Err(BatchError::DeadNode(*n)),
        _ => Ok(()),
    };
    let mut removed: HashSet<NodeId> = HashSet::new();
    for op in batch {
        match op {
            UpdateOp::AddNode { .. } => {}
            UpdateOp::InsertEdge { from, to, .. } => {
                check_ref(from)?;
                check_ref(to)?;
            }
            UpdateOp::DeleteEdge { from, to } => {
                if !g.is_alive(*from) {
                    return Err(BatchError::DeadNode(*from));
                }
                if !g.is_alive(*to) {
                    return Err(BatchError::DeadNode(*to));
                }
            }
            UpdateOp::RemoveNode { node } => {
                if !g.is_alive(*node) || !removed.insert(*node) {
                    return Err(BatchError::DeadNode(*node));
                }
                if *node == g.root() {
                    // Reject up front: the graph would refuse the removal
                    // in phase 4, after the node's edges were already
                    // swept — breaking the leave-untouched contract.
                    return Err(BatchError::Graph(GraphError::RootViolation));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::is_minimal_1index;
    use crate::{AkIndex, IndexHandle, OneIndex, UpdateEngine};
    use xsi_graph::GraphBuilder;

    fn host() -> (Graph, std::collections::BTreeMap<u64, NodeId>) {
        GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "person"), (3, "auction")])
            .edges(&[(1, 2), (1, 3)])
            .root_to(1)
            .build_with_ids()
    }

    /// An engine over `g` with one split/merge 1-index registered.
    fn one_engine(g: Graph) -> (UpdateEngine, IndexHandle) {
        let mut engine = UpdateEngine::new(g);
        let h = engine.register(Box::new(OneIndex::build(engine.graph())));
        (engine, h)
    }

    fn one(engine: &UpdateEngine, h: IndexHandle) -> &OneIndex {
        engine.index(h).as_any().downcast_ref::<OneIndex>().unwrap()
    }

    #[test]
    fn batch_with_new_nodes_and_edges() {
        let (g, ids) = host();
        let (mut engine, h) = one_engine(g);
        let batch = vec![
            UpdateOp::AddNode {
                label: "person".into(),
            },
            UpdateOp::AddNode {
                label: "watch".into(),
            },
            UpdateOp::InsertEdge {
                from: NodeRef::Existing(ids[&1]),
                to: NodeRef::New(0),
                kind: EdgeKind::Child,
            },
            UpdateOp::InsertEdge {
                from: NodeRef::New(0),
                to: NodeRef::New(1),
                kind: EdgeKind::Child,
            },
            UpdateOp::InsertEdge {
                from: NodeRef::New(1),
                to: NodeRef::Existing(ids[&3]),
                kind: EdgeKind::IdRef,
            },
        ];
        let result = engine.apply_batch(&batch).unwrap();
        assert_eq!(result.created.len(), 2);
        assert_eq!(result.ops_applied, 5);
        let (g, idx) = (engine.graph(), one(&engine, h));
        idx.partition().check_consistency(g).unwrap();
        assert!(is_minimal_1index(g, idx.partition()));
        assert_eq!(idx.block_count(), OneIndex::build(g).block_count());
    }

    #[test]
    fn batch_round_trip_removal() {
        let (g, ids) = host();
        let (mut engine, h) = one_engine(g);
        let before = one(&engine, h).canonical();
        let add = vec![
            UpdateOp::AddNode {
                label: "note".into(),
            },
            UpdateOp::InsertEdge {
                from: NodeRef::Existing(ids[&2]),
                to: NodeRef::New(0),
                kind: EdgeKind::Child,
            },
        ];
        let result = engine.apply_batch(&add).unwrap();
        let rr = engine
            .apply(&UpdateOp::RemoveNode {
                node: result.created[0],
            })
            .unwrap();
        // One implicit edge deletion + the node removal itself.
        assert_eq!(rr.ops_applied, 2);
        assert_eq!(one(&engine, h).canonical(), before);
    }

    #[test]
    fn invalid_batch_leaves_state_untouched() {
        let (g, _) = host();
        let (mut engine, h) = one_engine(g);
        let before = one(&engine, h).canonical();
        let nodes_before = engine.graph().node_count();
        let bad = vec![
            UpdateOp::AddNode { label: "x".into() },
            UpdateOp::InsertEdge {
                from: NodeRef::New(0),
                to: NodeRef::New(7), // out of range
                kind: EdgeKind::Child,
            },
        ];
        assert_eq!(
            engine.apply_batch(&bad).unwrap_err(),
            BatchError::BadNewRef(7)
        );
        assert_eq!(engine.graph().node_count(), nodes_before);
        assert_eq!(one(&engine, h).canonical(), before);
        assert_eq!(engine.stats().ops, 0);
    }

    #[test]
    fn ak_batch_maintains_minimum_chain() {
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        let h = engine.register(Box::new(AkIndex::build(engine.graph(), 2)));
        let batch = vec![
            UpdateOp::AddNode {
                label: "person".into(),
            },
            UpdateOp::InsertEdge {
                from: NodeRef::Existing(ids[&1]),
                to: NodeRef::New(0),
                kind: EdgeKind::Child,
            },
            UpdateOp::DeleteEdge {
                from: ids[&1],
                to: ids[&2],
            },
        ];
        engine.apply_batch(&batch).unwrap();
        let g = engine.graph();
        let idx = engine.index(h).as_any().downcast_ref::<AkIndex>().unwrap();
        idx.check_consistency(g).unwrap();
        assert_eq!(idx.canonical(), AkIndex::build(g, 2).canonical());
    }

    #[test]
    fn duplicate_remove_rejected() {
        let (g, ids) = host();
        let (mut engine, _) = one_engine(g);
        let bad = vec![
            UpdateOp::RemoveNode { node: ids[&2] },
            UpdateOp::RemoveNode { node: ids[&2] },
        ];
        assert_eq!(
            engine.apply_batch(&bad).unwrap_err(),
            BatchError::DeadNode(ids[&2])
        );
        assert!(engine.graph().is_alive(ids[&2]));
    }

    /// A batch that removes a node *and* explicitly deletes one of that
    /// node's edges applies the explicit deletion first (phase 3), then
    /// removes the node without deleting that edge twice.
    #[test]
    fn remove_node_after_explicit_edge_deletions_in_same_batch() {
        let (mut g, ids) = host();
        // Give node 2 a second incident edge so the removal still has
        // work to do after the explicit deletion.
        let extra = g.add_node("watch", None);
        g.insert_edge(ids[&2], extra, EdgeKind::Child).unwrap();
        let (mut engine, h) = one_engine(g);
        let batch = vec![
            UpdateOp::DeleteEdge {
                from: ids[&1],
                to: ids[&2],
            },
            UpdateOp::RemoveNode { node: ids[&2] },
        ];
        let result = engine.apply_batch(&batch).unwrap();
        // Explicit deletion (1) + implicit deletion of (2, extra) (1) +
        // node removal (1).
        assert_eq!(result.ops_applied, 3);
        let (g, idx) = (engine.graph(), one(&engine, h));
        assert!(!g.is_alive(ids[&2]));
        idx.partition().check_consistency(g).unwrap();
        assert!(is_minimal_1index(g, idx.partition()));
        assert_eq!(idx.canonical(), OneIndex::build(g).canonical());
    }

    /// The engine's batch path drives several indexes over one graph in
    /// lockstep and books per-index stats in registration order.
    #[test]
    fn traced_core_fans_out_to_multiple_indexes() {
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        let h_one = engine.register(Box::new(OneIndex::build(engine.graph())));
        let h_ak = engine.register(Box::new(AkIndex::build(engine.graph(), 2)));
        let batch = vec![
            UpdateOp::AddNode {
                label: "person".into(),
            },
            UpdateOp::InsertEdge {
                from: NodeRef::Existing(ids[&1]),
                to: NodeRef::New(0),
                kind: EdgeKind::Child,
            },
            UpdateOp::InsertEdge {
                from: NodeRef::New(0),
                to: NodeRef::Existing(ids[&3]),
                kind: EdgeKind::IdRef,
            },
        ];
        engine.apply_batch(&batch).unwrap();
        let g = engine.graph();
        assert_eq!(
            one(&engine, h_one).canonical(),
            OneIndex::build(g).canonical()
        );
        let ak = engine
            .index(h_ak)
            .as_any()
            .downcast_ref::<AkIndex>()
            .unwrap();
        assert_eq!(ak.canonical(), AkIndex::build(g, 2).canonical());
        for h in [h_one, h_ak] {
            assert!(!engine.index_stats(h).no_op, "both indexes saw real work");
        }
    }

    #[test]
    fn node_refs_resolve_against_created_ids() {
        let (_, ids) = host();
        let created = [ids[&2]];
        assert_eq!(NodeRef::Existing(ids[&3]).resolve(&created), Ok(ids[&3]));
        assert_eq!(NodeRef::New(0).resolve(&created), Ok(ids[&2]));
        assert_eq!(
            NodeRef::New(1).resolve(&created),
            Err(BatchError::BadNewRef(1))
        );
    }
}
