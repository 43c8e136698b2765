//! Detached subgraphs for the paper's *subgraph addition* update (§5.2).
//!
//! A [`DetachedSubgraph`] is a small rooted, labeled graph that exists
//! outside any [`Graph`], plus the lists of cross edges that connected it
//! to a host graph (or will connect it to one). `extract_subtree` carves
//! one out of a host graph the way the paper's experiments do: traverse
//! only `Child` edges ("we do not traverse IDREF edges"), then record every
//! edge crossing the boundary.

use crate::graph::{EdgeKind, Graph, NodeId};
use std::collections::{HashMap, HashSet};

/// A rooted labeled graph detached from any host [`Graph`].
///
/// Local node ids are dense `u32`s in `0..node_count()`; `root_local()` is
/// always a valid local id. `incoming`/`outgoing` record boundary edges in
/// terms of host [`NodeId`]s, which remain meaningful across a
/// delete-then-re-add cycle as long as the host nodes survive.
#[derive(Clone, Debug, Default)]
pub struct DetachedSubgraph {
    labels: Vec<Box<str>>,
    values: Vec<Option<Box<str>>>,
    edges: Vec<(u32, u32, EdgeKind)>,
    root: u32,
    /// Boundary edges from host nodes into the subgraph: `(host, local, kind)`.
    pub incoming: Vec<(NodeId, u32, EdgeKind)>,
    /// Boundary edges from the subgraph to host nodes: `(local, host, kind)`.
    pub outgoing: Vec<(u32, NodeId, EdgeKind)>,
}

impl DetachedSubgraph {
    /// Creates an empty subgraph whose root will be local node 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a local node, returning its local id. The first node added is
    /// the subgraph root.
    pub fn add_node(&mut self, label: &str, value: Option<String>) -> u32 {
        let id = u32::try_from(self.labels.len()).expect("subgraph too large");
        self.labels.push(label.into());
        self.values.push(value.map(Into::into));
        id
    }

    /// Adds an internal edge between local nodes.
    pub fn add_edge(&mut self, u: u32, v: u32, kind: EdgeKind) {
        assert!(
            (u as usize) < self.labels.len() && (v as usize) < self.labels.len(),
            "internal edge endpoints out of range"
        );
        self.edges.push((u, v, kind));
    }

    /// Number of local nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of internal edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The local id of the subgraph root.
    pub fn root_local(&self) -> u32 {
        self.root
    }

    /// Internal edges as `(u, v, kind)` local triples.
    pub fn internal_edges(&self) -> &[(u32, u32, EdgeKind)] {
        &self.edges
    }

    /// The local nodes' labels and values, in local id order.
    pub fn nodes(&self) -> impl Iterator<Item = (&str, Option<&str>)> + '_ {
        self.labels
            .iter()
            .zip(&self.values)
            .map(|(label, value)| (&**label, value.as_deref()))
    }
}

/// The nodes reachable from `root` by `Child` edges only — the paper's
/// subtree ("we do not traverse IDREF edges") — `root` first, in the
/// depth-first order [`extract_subtree`] numbers them in.
pub fn subtree_members(g: &Graph, root: NodeId) -> Vec<NodeId> {
    let mut members = vec![root];
    let mut seen: HashSet<NodeId> = HashSet::from([root]);
    let mut stack = vec![root];
    while let Some(u) = stack.pop() {
        for (v, kind) in g.succ_with_kind(u) {
            if kind == EdgeKind::Child && seen.insert(v) {
                members.push(v);
                stack.push(v);
            }
        }
    }
    members
}

/// Extracts the subtree of `root` from `g` as a [`DetachedSubgraph`]
/// *without modifying `g`*.
///
/// Membership is [`subtree_members`]. Edges between two members (of
/// either kind) become internal edges; all others crossing the boundary
/// are recorded in `incoming` / `outgoing`. Returns the subgraph together
/// with the member nodes in traversal order (position `i` is local id
/// `i`).
pub fn extract_subtree(g: &Graph, root: NodeId) -> (DetachedSubgraph, Vec<NodeId>) {
    let members = subtree_members(g, root);
    let local: HashMap<NodeId, u32> = members
        .iter()
        .enumerate()
        .map(|(i, &m)| (m, u32::try_from(i).expect("subtree too large")))
        .collect();

    let mut sub = DetachedSubgraph::new();
    for &m in &members {
        sub.add_node(g.label_name(m), g.value(m).map(String::from));
    }
    for &m in &members {
        let lu = local[&m];
        for (v, kind) in g.succ_with_kind(m) {
            match local.get(&v) {
                Some(&lv) => sub.add_edge(lu, lv, kind),
                None => sub.outgoing.push((lu, v, kind)),
            }
        }
        for p in g.pred(m) {
            if !local.contains_key(&p) {
                let kind = g.edge_kind(p, m).expect("pred implies edge");
                sub.incoming.push((p, lu, kind));
            }
        }
    }
    (sub, members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// root -> 1(auction) -> {2(item), 3(price)}, 2 -> 4(name);
    /// 5(person) --idref--> 1; 2 --idref--> 5.
    fn host() -> (Graph, std::collections::BTreeMap<u64, NodeId>) {
        GraphBuilder::new()
            .nodes(&[
                (1, "auction"),
                (2, "item"),
                (3, "price"),
                (4, "name"),
                (5, "person"),
            ])
            .edges(&[(1, 2), (1, 3), (2, 4)])
            .idref_edges(&[(5, 1), (2, 5)])
            .root_to(1)
            .root_to(5)
            .build_with_ids()
    }

    #[test]
    fn extract_follows_child_edges_only() {
        let (g, ids) = host();
        let (sub, members) = extract_subtree(&g, ids[&1]);
        assert_eq!(sub.node_count(), 4); // auction, item, price, name
        assert_eq!(members.len(), 4);
        assert!(!members.contains(&ids[&5]), "IDREF target not a member");
        assert_eq!(sub.nodes().next(), Some(("auction", None)));
    }

    #[test]
    fn boundary_edges_recorded() {
        let (g, ids) = host();
        let (sub, members) = extract_subtree(&g, ids[&1]);
        // incoming: root->1 (Child), 5->1 (IdRef)
        assert_eq!(sub.incoming.len(), 2);
        assert!(sub.incoming.iter().any(|&(h, l, k)| h == ids[&5]
            && members[l as usize] == ids[&1]
            && k == EdgeKind::IdRef));
        // outgoing: 2->5 (IdRef)
        assert_eq!(sub.outgoing.len(), 1);
        assert_eq!(sub.outgoing[0].1, ids[&5]);
    }

    #[test]
    fn internal_idref_kept_internal() {
        // 1 -> 2, 1 -> 3, 2 --idref--> 3: all inside the subtree.
        let (g, ids) = GraphBuilder::new()
            .nodes(&[(1, "a"), (2, "b"), (3, "c")])
            .edges(&[(1, 2), (1, 3)])
            .idref_edges(&[(2, 3)])
            .root_to(1)
            .build_with_ids();
        let (sub, _) = extract_subtree(&g, ids[&1]);
        assert_eq!(sub.edge_count(), 3);
        assert!(sub.outgoing.is_empty());
        assert_eq!(sub.incoming.len(), 1); // ROOT -> 1
    }
}
