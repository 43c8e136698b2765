//! The core [`Graph`] type: a directed, labeled multigraph-free graph with
//! O(1) amortized edge updates and dense node ids.

use crate::label::{Label, LabelInterner, ROOT_LABEL};
use std::fmt;

/// Identifier of a dnode. Ids are dense (`0..graph.capacity()`) and double
/// as the paper's `oid`: they are unique for the lifetime of a graph and are
/// reused only after an explicit [`Graph::remove_node`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index for array-backed per-node state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The two kinds of dedges in an XML data graph (Section 3, Figure 1).
///
/// The index algorithms are oblivious to the kind; it exists so that
/// workloads can, like the paper's experiments, restrict edge
/// insertions/deletions to `IDREF` edges and subtree extraction to `Child`
/// edges.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EdgeKind {
    /// Object–subobject (containment) relationship — solid lines in Fig. 1.
    #[default]
    Child,
    /// `IDREF`/`IDREFS` reference — dashed lines in Fig. 1.
    IdRef,
}

/// Errors returned by mutating graph operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GraphError {
    /// The edge to insert already exists (the data model has no parallel
    /// edges: `Succ(u)` is a set).
    DuplicateEdge(NodeId, NodeId),
    /// The edge to delete does not exist.
    MissingEdge(NodeId, NodeId),
    /// A self-loop `(u, u)` was rejected; the paper's algorithms assume
    /// self-cycle-free data (Section 5.1).
    SelfLoop(NodeId),
    /// An operation referenced a node id that is not alive.
    DeadNode(NodeId),
    /// [`Graph::remove_node`] was called on a node that still has incident
    /// edges.
    NodeHasEdges(NodeId),
    /// The root node cannot be removed or given incoming edges.
    RootViolation,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateEdge(u, v) => write!(f, "edge ({u}, {v}) already exists"),
            GraphError::MissingEdge(u, v) => write!(f, "edge ({u}, {v}) does not exist"),
            GraphError::SelfLoop(u) => write!(f, "self-loop ({u}, {u}) rejected"),
            GraphError::DeadNode(u) => write!(f, "node {u} is not alive"),
            GraphError::NodeHasEdges(u) => write!(f, "node {u} still has incident edges"),
            GraphError::RootViolation => write!(f, "operation not permitted on the root node"),
        }
    }
}

impl std::error::Error for GraphError {}

#[derive(Clone, Debug)]
struct NodeData {
    label: Label,
    value: Option<Box<str>>,
    succ: Vec<(NodeId, EdgeKind)>,
    pred: Vec<NodeId>,
    alive: bool,
}

/// A directed, labeled data graph (Section 3 of the paper).
///
/// Nodes are created with [`Graph::add_node`] and edges with
/// [`Graph::insert_edge`]; both directions of adjacency are maintained.
/// A single root node labeled `ROOT` is created by [`Graph::new`] and can
/// never acquire incoming edges, so path-expression evaluation always has a
/// well-defined origin.
#[derive(Clone)]
pub struct Graph {
    labels: LabelInterner,
    nodes: Vec<NodeData>,
    free: Vec<NodeId>,
    root: NodeId,
    live_nodes: usize,
    edges: usize,
}

impl Graph {
    /// Creates a graph containing only the `ROOT` node.
    pub fn new() -> Self {
        let mut labels = LabelInterner::new();
        let root_label = labels.intern(ROOT_LABEL);
        let nodes = vec![NodeData {
            label: root_label,
            value: None,
            succ: Vec::new(),
            pred: Vec::new(),
            alive: true,
        }];
        Graph {
            labels,
            nodes,
            free: Vec::new(),
            root: NodeId(0),
            live_nodes: 1,
            edges: 0,
        }
    }

    /// The root node (label `ROOT`, no incoming edges).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of live dnodes (including the root).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of dedges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// One past the largest node id ever allocated. Per-node side tables
    /// should be sized to this.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// The label interner; exposed so indexes and query evaluators can
    /// resolve label names without borrowing the whole graph mutably.
    #[inline]
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Interns a label name (for building queries against this graph).
    pub fn intern_label(&mut self, name: &str) -> Label {
        self.labels.intern(name)
    }

    /// Whether `n` refers to a live node.
    #[inline]
    pub fn is_alive(&self, n: NodeId) -> bool {
        self.nodes.get(n.index()).map(|d| d.alive).unwrap_or(false)
    }

    /// Adds a node with the given label name and optional value.
    pub fn add_node(&mut self, label: &str, value: Option<String>) -> NodeId {
        let label = self.labels.intern(label);
        self.add_node_labeled(label, value)
    }

    /// Adds a node with an already-interned label.
    pub fn add_node_labeled(&mut self, label: Label, value: Option<String>) -> NodeId {
        let data = NodeData {
            label,
            value: value.map(Into::into),
            succ: Vec::new(),
            pred: Vec::new(),
            alive: true,
        };
        self.live_nodes += 1;
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = data;
            id
        } else {
            let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
            self.nodes.push(data);
            id
        }
    }

    /// The ids the next `count` [`Graph::add_node`] calls will return, in
    /// call order: freed ids, last freed first, then fresh ones.
    pub fn next_node_ids(&self, count: usize) -> Vec<NodeId> {
        let fresh = (self.nodes.len()..).map(|i| NodeId(i as u32));
        self.free
            .iter()
            .rev()
            .copied()
            .chain(fresh)
            .take(count)
            .collect()
    }

    /// Removes an isolated node (all incident edges must have been deleted
    /// first). Its id is recycled by later [`Graph::add_node`] calls.
    pub fn remove_node(&mut self, n: NodeId) -> Result<(), GraphError> {
        if n == self.root {
            return Err(GraphError::RootViolation);
        }
        let data = self
            .nodes
            .get(n.index())
            .filter(|d| d.alive)
            .ok_or(GraphError::DeadNode(n))?;
        if !data.succ.is_empty() || !data.pred.is_empty() {
            return Err(GraphError::NodeHasEdges(n));
        }
        self.nodes[n.index()].alive = false;
        self.nodes[n.index()].value = None;
        self.live_nodes -= 1;
        self.free.push(n);
        Ok(())
    }

    /// The label of node `n`.
    #[inline]
    pub fn label(&self, n: NodeId) -> Label {
        debug_assert!(self.is_alive(n), "label() on dead node {n:?}");
        self.nodes[n.index()].label
    }

    /// The label name of node `n`.
    pub fn label_name(&self, n: NodeId) -> &str {
        self.labels.name(self.label(n))
    }

    /// The optional text value of node `n`.
    pub fn value(&self, n: NodeId) -> Option<&str> {
        self.nodes[n.index()].value.as_deref()
    }

    /// Sets the text value of node `n`.
    pub fn set_value(&mut self, n: NodeId, value: Option<String>) {
        self.nodes[n.index()].value = value.map(Into::into);
    }

    /// `Succ(u)`: successors of `u` in insertion order.
    #[inline]
    pub fn succ(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[u.index()].succ.iter().map(|&(v, _)| v)
    }

    /// Successors of `u` together with the kind of the connecting edge.
    #[inline]
    pub fn succ_with_kind(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeKind)> + '_ {
        self.nodes[u.index()].succ.iter().copied()
    }

    /// `Pred(v)`: predecessors (parents) of `v`.
    #[inline]
    pub fn pred(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[v.index()].pred.iter().copied()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.nodes[u.index()].succ.len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.nodes[v.index()].pred.len()
    }

    /// Whether the dedge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // Scan whichever adjacency list is shorter.
        if self.out_degree(u) <= self.in_degree(v) {
            self.nodes[u.index()].succ.iter().any(|&(w, _)| w == v)
        } else {
            self.nodes[v.index()].pred.contains(&u)
        }
    }

    /// The kind of the dedge `(u, v)`, if present.
    pub fn edge_kind(&self, u: NodeId, v: NodeId) -> Option<EdgeKind> {
        self.nodes[u.index()]
            .succ
            .iter()
            .find(|&&(w, _)| w == v)
            .map(|&(_, k)| k)
    }

    /// Inserts the dedge `(u, v)`.
    ///
    /// Rejects self-loops, duplicates, dead endpoints, and edges into the
    /// root. This is the primitive on which the paper's "edge insertion"
    /// update is defined.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, kind: EdgeKind) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !self.is_alive(u) {
            return Err(GraphError::DeadNode(u));
        }
        if !self.is_alive(v) {
            return Err(GraphError::DeadNode(v));
        }
        if v == self.root {
            return Err(GraphError::RootViolation);
        }
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        self.nodes[u.index()].succ.push((v, kind));
        self.nodes[v.index()].pred.push(u);
        self.edges += 1;
        Ok(())
    }

    /// Deletes the dedge `(u, v)`, returning its kind. An id past the
    /// node table is a [`GraphError::DeadNode`]; an edge that is not
    /// there, at a dead node too, is a [`GraphError::MissingEdge`].
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeKind, GraphError> {
        if let Some(n) = [u, v].into_iter().find(|n| n.index() >= self.nodes.len()) {
            return Err(GraphError::DeadNode(n));
        }
        let succ = &mut self.nodes[u.index()].succ;
        let pos = succ
            .iter()
            .position(|&(w, _)| w == v)
            .ok_or(GraphError::MissingEdge(u, v))?;
        let (_, kind) = succ.swap_remove(pos);
        let pred = &mut self.nodes[v.index()].pred;
        let ppos = pred
            .iter()
            .position(|&w| w == u)
            .expect("pred list out of sync with succ list");
        pred.swap_remove(ppos);
        self.edges -= 1;
        Ok(kind)
    }

    /// Iterates over all live node ids, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, d)| d.alive)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Iterates over all dedges as `(u, v, kind)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeKind)> + '_ {
        self.nodes()
            .flat_map(move |u| self.succ_with_kind(u).map(move |(v, k)| (u, v, k)))
    }

    /// Counts edges of the given kind (the paper reports IDREF counts for
    /// its datasets).
    pub fn edge_count_of_kind(&self, kind: EdgeKind) -> usize {
        self.edges().filter(|&(_, _, k)| k == kind).count()
    }

    /// Internal consistency check used by tests and `debug_assert!`s:
    /// succ/pred mirror each other, counters match, no self-loops or
    /// parallel edges, root has no parents.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut edge_count = 0usize;
        let mut live = 0usize;
        for (i, d) in self.nodes.iter().enumerate() {
            let u = NodeId(i as u32);
            if !d.alive {
                continue;
            }
            live += 1;
            let mut seen = std::collections::HashSet::new();
            for &(v, _) in &d.succ {
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if !seen.insert(v) {
                    return Err(format!("parallel edge ({u}, {v})"));
                }
                if !self.is_alive(v) {
                    return Err(format!("edge ({u}, {v}) to dead node"));
                }
                if !self.nodes[v.index()].pred.contains(&u) {
                    return Err(format!("edge ({u}, {v}) missing from pred list"));
                }
                edge_count += 1;
            }
            for &p in &d.pred {
                if !self.nodes[p.index()].succ.iter().any(|&(w, _)| w == u) {
                    return Err(format!("pred entry ({p}, {u}) missing from succ list"));
                }
            }
        }
        if edge_count != self.edges {
            return Err(format!(
                "edge counter {} != actual {}",
                self.edges, edge_count
            ));
        }
        if live != self.live_nodes {
            return Err(format!(
                "node counter {} != actual {}",
                self.live_nodes, live
            ));
        }
        if !self.nodes[self.root.index()].pred.is_empty() {
            return Err("root has incoming edges".into());
        }
        Ok(())
    }
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Graph {{ {} nodes, {} edges",
            self.live_nodes, self.edges
        )?;
        for n in self.nodes() {
            write!(f, "  {:?}[{}] ->", n, self.label_name(n))?;
            for v in self.succ(n) {
                write!(f, " {:?}", v)?;
            }
            writeln!(f)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node("a", None);
        let b = g.add_node("b", None);
        (g, a, b)
    }

    #[test]
    fn new_graph_has_root_only() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.label_name(g.root()), ROOT_LABEL);
    }

    #[test]
    fn insert_and_delete_edge() {
        let (mut g, a, b) = two_nodes();
        g.insert_edge(a, b, EdgeKind::Child).unwrap();
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.delete_edge(a, b), Ok(EdgeKind::Child));
        assert!(!g.has_edge(a, b));
        assert_eq!(g.edge_count(), 0);
        g.check_consistency().unwrap();
    }

    #[test]
    fn duplicate_edge_rejected() {
        let (mut g, a, b) = two_nodes();
        g.insert_edge(a, b, EdgeKind::Child).unwrap();
        assert_eq!(
            g.insert_edge(a, b, EdgeKind::IdRef),
            Err(GraphError::DuplicateEdge(a, b))
        );
    }

    #[test]
    fn self_loop_rejected() {
        let (mut g, a, _) = two_nodes();
        assert_eq!(
            g.insert_edge(a, a, EdgeKind::Child),
            Err(GraphError::SelfLoop(a))
        );
    }

    #[test]
    fn missing_edge_delete_rejected() {
        let (mut g, a, b) = two_nodes();
        assert_eq!(g.delete_edge(a, b), Err(GraphError::MissingEdge(a, b)));
    }

    #[test]
    fn delete_past_the_node_table_is_a_dead_node() {
        let (mut g, a, _) = two_nodes();
        let far = NodeId(1_000_000);
        assert_eq!(g.delete_edge(far, a), Err(GraphError::DeadNode(far)));
        assert_eq!(g.delete_edge(a, far), Err(GraphError::DeadNode(far)));
        assert_eq!(g.edge_count(), 0);
        g.check_consistency().unwrap();
    }

    #[test]
    fn next_node_ids_predicts_add_node() {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..4).map(|_| g.add_node("a", None)).collect();
        g.remove_node(ids[1]).unwrap();
        g.remove_node(ids[3]).unwrap();
        let predicted = g.next_node_ids(3);
        let added: Vec<NodeId> = (0..3).map(|_| g.add_node("b", None)).collect();
        assert_eq!(predicted, added);
        assert_eq!(predicted[..2], [ids[3], ids[1]]);
    }

    #[test]
    fn edge_into_root_rejected() {
        let (mut g, a, _) = two_nodes();
        let r = g.root();
        assert_eq!(
            g.insert_edge(a, r, EdgeKind::Child),
            Err(GraphError::RootViolation)
        );
    }

    #[test]
    fn edge_kind_preserved() {
        let (mut g, a, b) = two_nodes();
        g.insert_edge(a, b, EdgeKind::IdRef).unwrap();
        assert_eq!(g.edge_kind(a, b), Some(EdgeKind::IdRef));
        assert_eq!(g.edge_kind(b, a), None);
        assert_eq!(g.edge_count_of_kind(EdgeKind::IdRef), 1);
        assert_eq!(g.edge_count_of_kind(EdgeKind::Child), 0);
    }

    #[test]
    fn remove_node_requires_isolation() {
        let (mut g, a, b) = two_nodes();
        g.insert_edge(a, b, EdgeKind::Child).unwrap();
        assert_eq!(g.remove_node(b), Err(GraphError::NodeHasEdges(b)));
        g.delete_edge(a, b).unwrap();
        g.remove_node(b).unwrap();
        assert!(!g.is_alive(b));
        assert_eq!(g.node_count(), 2);
        g.check_consistency().unwrap();
    }

    #[test]
    fn node_ids_are_recycled() {
        let (mut g, _, b) = two_nodes();
        g.remove_node(b).unwrap();
        let c = g.add_node("c", None);
        assert_eq!(c, b, "freed id should be reused");
        assert_eq!(g.label_name(c), "c");
    }

    #[test]
    fn root_cannot_be_removed() {
        let mut g = Graph::new();
        let r = g.root();
        assert_eq!(g.remove_node(r), Err(GraphError::RootViolation));
    }

    #[test]
    fn values_and_labels() {
        let mut g = Graph::new();
        let n = g.add_node("title", Some("Moby-Dick".into()));
        assert_eq!(g.value(n), Some("Moby-Dick"));
        assert_eq!(g.label_name(n), "title");
        g.set_value(n, None);
        assert_eq!(g.value(n), None);
    }

    #[test]
    fn adjacency_both_directions() {
        let mut g = Graph::new();
        let a = g.add_node("a", None);
        let b = g.add_node("b", None);
        let c = g.add_node("c", None);
        g.insert_edge(a, c, EdgeKind::Child).unwrap();
        g.insert_edge(b, c, EdgeKind::Child).unwrap();
        let preds: Vec<NodeId> = g.pred(c).collect();
        assert_eq!(preds.len(), 2);
        assert!(preds.contains(&a) && preds.contains(&b));
        assert_eq!(g.in_degree(c), 2);
        assert_eq!(g.out_degree(a), 1);
    }

    #[test]
    fn edges_iterator_consistent_with_count() {
        let (mut g, a, b) = two_nodes();
        let r = g.root();
        g.insert_edge(r, a, EdgeKind::Child).unwrap();
        g.insert_edge(r, b, EdgeKind::Child).unwrap();
        g.insert_edge(a, b, EdgeKind::IdRef).unwrap();
        assert_eq!(g.edges().count(), g.edge_count());
    }
}
