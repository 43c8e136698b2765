//! Binary snapshots of structural indexes.
//!
//! Reconstruction is the expensive operation this whole paper exists to
//! avoid — so a system restart should not pay it either. A snapshot
//! stores the partition content (and, for the A(k)-index, the refinement
//! tree shape); on load, the derived structures (extents' position
//! tables, iedge multiplicity maps, weights) are rebuilt from the graph
//! in one O((n + m)·k) pass, which is still far cheaper than partition
//! refinement and — unlike reconstruction — preserves the exact block
//! structure, including a *minimal-but-not-minimum* state that captures
//! in-flight drift.
//!
//! Format: a little-endian, length-prefixed encoding with a magic header
//! and an integrity check on counts. Not designed for cross-version
//! compatibility — version-stamped and rejected on mismatch.
//!
//! Not to be confused with [`crate::view`]: that module's
//! [`crate::view::IndexSnapshot`] is an *in-memory read view* frozen in
//! O(blocks) via copy-on-write extent sharing, never serialized. This
//! module is *binary persistence* — bytes on disk, rebuilt on load. See
//! DESIGN.md §11 for the naming rationale.

use crate::akindex::{AkIndex, FlatGraph};
use crate::oneindex::OneIndex;
use crate::partition::Partition;
use std::collections::BTreeMap;
use std::fmt;
use xsi_graph::{Graph, NodeId};

const MAGIC_1INDEX: &[u8; 8] = b"XSI1IDX\x01";
const MAGIC_AKINDEX: &[u8; 8] = b"XSIAKIX\x01";

/// Errors from snapshot decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The header magic or version did not match.
    BadMagic,
    /// The byte stream ended early or had trailing garbage.
    Truncated,
    /// The snapshot disagrees with the graph (node sets differ, a node id
    /// is out of range, labels mismatch, …). The payload explains.
    GraphMismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an xsi index snapshot (bad magic)"),
            SnapshotError::Truncated => write!(f, "snapshot truncated or malformed"),
            SnapshotError::GraphMismatch(why) => {
                write!(f, "snapshot does not match the graph: {why}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(magic: &[u8; 8]) -> Self {
        Writer {
            buf: magic.to_vec(),
        }
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], magic: &[u8; 8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 8 || &bytes[..8] != magic {
            return Err(SnapshotError::BadMagic);
        }
        Ok(Reader { bytes, pos: 8 })
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(slice.try_into().expect(
            "checked: the slice was length-tested just above (4 bytes)",
        )))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let end = self.pos + 8;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(slice.try_into().expect(
            "checked: the slice was length-tested just above (8 bytes)",
        )))
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(SnapshotError::Truncated)
        }
    }
}

impl OneIndex {
    /// Serializes the index's partition: one extent per block.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new(MAGIC_1INDEX);
        let blocks: Vec<_> = self.blocks().collect();
        w.u64(blocks.len() as u64);
        for b in blocks {
            let extent = self.extent(b);
            w.u64(extent.len() as u64);
            for &n in extent {
                w.u32(n.0);
            }
        }
        w.buf
    }

    /// Restores an index over `g` from a snapshot, rebuilding the derived
    /// structures. The snapshot's extents must exactly partition `g`'s
    /// live nodes (label-homogeneously); otherwise the load is rejected —
    /// a stale snapshot never silently corrupts an index.
    pub fn from_snapshot(g: &Graph, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes, MAGIC_1INDEX)?;
        let block_count = r.u64()? as usize;
        let mut p = Partition::new(g);
        let mut assigned = 0usize;
        for _ in 0..block_count {
            let len = r.u64()? as usize;
            if len == 0 {
                return Err(SnapshotError::GraphMismatch("empty block".into()));
            }
            let mut block = None;
            for _ in 0..len {
                let raw = r.u32()?;
                let n = NodeId(raw);
                if !g.is_alive(n) {
                    return Err(SnapshotError::GraphMismatch(format!(
                        "node {raw} is not alive"
                    )));
                }
                if p.is_indexed(n) {
                    return Err(SnapshotError::GraphMismatch(format!(
                        "node {raw} appears twice"
                    )));
                }
                let b = *block.get_or_insert_with(|| p.new_block(g.label(n)));
                if p.label(b) != g.label(n) {
                    return Err(SnapshotError::GraphMismatch(format!(
                        "block mixes labels at node {raw}"
                    )));
                }
                p.attach_node(n, b);
                assigned += 1;
            }
        }
        r.finish()?;
        if assigned != g.node_count() {
            return Err(SnapshotError::GraphMismatch(format!(
                "snapshot covers {assigned} nodes, graph has {}",
                g.node_count()
            )));
        }
        p.rebuild_counts(g);
        Ok(OneIndex { p })
    }
}

impl AkIndex {
    /// Serializes the refinement tree: per level, each block's members —
    /// dnodes at level k, child block positions at interior levels.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new(MAGIC_AKINDEX);
        w.u32(self.k() as u32);
        // Stable per-level enumeration; children reference the next
        // level's position in this enumeration. Sorted map keyed by the
        // block handle: deterministic, and exempt from the
        // `dense-side-table` lint by construction.
        let mut position: BTreeMap<crate::akindex::ABlockId, u32> = BTreeMap::new();
        for level in (0..=self.k()).rev() {
            for (i, b) in self.blocks_at(level).enumerate() {
                position.insert(b, i as u32);
            }
            // (positions of deeper levels were recorded in earlier iterations)
            let blocks: Vec<_> = self.blocks_at(level).collect();
            w.u64(blocks.len() as u64);
            for b in blocks {
                if level == self.k() {
                    let extent = self.extent(b);
                    w.u64(extent.len() as u64);
                    for &n in extent {
                        w.u32(n.0);
                    }
                } else {
                    let kids: Vec<u32> = self.tree_children(b).map(|c| position[&c]).collect();
                    w.u64(kids.len() as u64);
                    for k in kids {
                        w.u32(k);
                    }
                }
            }
        }
        w.buf
    }

    /// Restores an A(k)-index over `g` from a snapshot, recomputing the
    /// per-level class assignments and rebuilding every derived count via
    /// the same machinery as construction.
    ///
    /// Child positions and level-0 labels go through dense tables. A
    /// table's length is a block count the decoder has already read
    /// past, one length field per block, so no count from the bytes
    /// sizes an allocation before the bytes have backed it.
    pub fn from_snapshot(g: &Graph, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes, MAGIC_AKINDEX)?;
        let k = r.u32()? as usize;
        if k > 64 {
            return Err(SnapshotError::GraphMismatch(format!("implausible k = {k}")));
        }
        // Level k: a node's class is the position of its block.
        let mut classes = vec![u32::MAX; g.capacity()];
        let mut block_count = r.u64()? as usize;
        for class in 0..block_count {
            let len = r.u64()? as usize;
            for _ in 0..len {
                let raw = r.u32()?;
                let n = NodeId(raw);
                if !g.is_alive(n) {
                    return Err(SnapshotError::GraphMismatch(format!(
                        "node {raw} is not alive"
                    )));
                }
                // xsi-lint: allow(slice-index, a live node's index is below g.capacity())
                let slot = &mut classes[n.index()];
                if *slot != u32::MAX {
                    return Err(SnapshotError::GraphMismatch(format!(
                        "node {raw} appears twice"
                    )));
                }
                *slot = class as u32;
            }
        }
        // xsi-lint: allow(slice-index, a live node's index is below g.capacity())
        if g.nodes().any(|n| classes[n.index()] == u32::MAX) {
            return Err(SnapshotError::GraphMismatch(
                "snapshot does not cover all live nodes".into(),
            ));
        }
        // Levels k − 1 down to 0: a node's class is the position of the
        // block claiming its deeper block as a child.
        let mut levels_rev: Vec<Vec<u32>> = Vec::with_capacity(k + 1);
        for level in (0..k).rev() {
            let deeper_count = block_count;
            block_count = r.u64()? as usize;
            let mut class_of_child = vec![u32::MAX; deeper_count];
            for class in 0..block_count {
                let len = r.u64()? as usize;
                for _ in 0..len {
                    let pos = r.u32()?;
                    let slot = class_of_child.get_mut(pos as usize).ok_or_else(|| {
                        SnapshotError::GraphMismatch(format!(
                            "refinement-tree child {pos} past the {deeper_count} blocks of level {}",
                            level + 1
                        ))
                    })?;
                    if *slot != u32::MAX {
                        return Err(SnapshotError::GraphMismatch(
                            "refinement-tree child claimed twice".into(),
                        ));
                    }
                    *slot = class as u32;
                }
            }
            let deeper = std::mem::replace(&mut classes, vec![u32::MAX; g.capacity()]);
            for n in g.nodes() {
                // xsi-lint: allow(slice-index, a live node's index is below g.capacity())
                let (child, slot) = (deeper[n.index()], &mut classes[n.index()]);
                *slot = class_of_child
                    .get(child as usize)
                    .copied()
                    .filter(|&c| c != u32::MAX)
                    .ok_or_else(|| {
                        SnapshotError::GraphMismatch("orphan refinement-tree block".into())
                    })?;
            }
            levels_rev.push(deeper);
        }
        r.finish()?;
        // Validate labels per level-0 class (from_assignments assumes
        // label homogeneity). Level-0 classes are below its block count.
        let mut label_of = vec![u32::MAX; block_count];
        for n in g.nodes() {
            let label = g.label(n).index() as u32;
            // xsi-lint: allow(slice-index, a live node's index is below g.capacity())
            match label_of.get_mut(classes[n.index()] as usize) {
                Some(seen) if *seen == u32::MAX || *seen == label => *seen = label,
                _ => {
                    return Err(SnapshotError::GraphMismatch(
                        "level-0 class mixes labels".into(),
                    ))
                }
            }
        }
        levels_rev.push(classes);
        levels_rev.reverse();
        let flat = FlatGraph::new(g);
        Ok(AkIndex::from_assignments(g, &flat, k, &levels_rev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PropagateOneIndex, StructuralIndex};
    use xsi_graph::EdgeKind;
    use xsi_workload::{generate_xmark, XmarkParams};

    fn dataset() -> Graph {
        generate_xmark(&XmarkParams::new(0.01, 1.0, 13))
    }

    #[test]
    fn one_index_round_trip() {
        let g = dataset();
        let idx = OneIndex::build(&g);
        let bytes = idx.to_snapshot();
        let restored = OneIndex::from_snapshot(&g, &bytes).unwrap();
        assert_eq!(restored.canonical(), idx.canonical());
        restored.partition().check_consistency(&g).unwrap();
    }

    #[test]
    fn one_index_snapshot_preserves_drift() {
        // A propagate-drifted (non-minimum) index must round-trip exactly
        // — snapshots capture state, not an idealized rebuild.
        let mut g = dataset();
        let mut propagate = PropagateOneIndex::build(&g);
        let edges: Vec<_> = g
            .edges()
            .filter(|&(_, _, k)| k == EdgeKind::IdRef)
            .take(20)
            .map(|(u, v, _)| (u, v))
            .collect();
        for &(u, v) in &edges {
            g.delete_edge(u, v).unwrap();
            propagate.on_edge_deleted(&g, u, v);
        }
        let idx = propagate.inner();
        let bytes = idx.to_snapshot();
        let restored = OneIndex::from_snapshot(&g, &bytes).unwrap();
        assert_eq!(restored.canonical(), idx.canonical());
    }

    #[test]
    fn ak_index_round_trip() {
        let g = dataset();
        for k in [0usize, 2, 4] {
            let idx = AkIndex::build(&g, k);
            let bytes = idx.to_snapshot();
            let restored = AkIndex::from_snapshot(&g, &bytes).unwrap();
            restored.check_consistency(&g).unwrap();
            assert_eq!(restored.canonical(), idx.canonical());
            for level in 0..=k {
                assert_eq!(restored.level_count(level), idx.level_count(level));
            }
        }
    }

    #[test]
    fn restored_indexes_stay_maintainable() {
        let mut g = dataset();
        let idx = AkIndex::build(&g, 2);
        let mut restored = AkIndex::from_snapshot(&g, &idx.to_snapshot()).unwrap();
        // Updates after a load must behave exactly like before the save.
        let (u, v) = g
            .edges()
            .find(|&(_, _, k)| k == EdgeKind::IdRef)
            .map(|(u, v, _)| (u, v))
            .unwrap();
        restored.delete_edge(&mut g, u, v).unwrap();
        restored.check_consistency(&g).unwrap();
        assert_eq!(restored.canonical(), AkIndex::build(&g, 2).canonical());
    }

    #[test]
    fn rejects_wrong_magic_and_truncation() {
        let g = dataset();
        let idx = OneIndex::build(&g);
        let bytes = idx.to_snapshot();
        assert_eq!(
            OneIndex::from_snapshot(&g, b"garbage!").unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            OneIndex::from_snapshot(&g, &bytes[..bytes.len() - 3]).unwrap_err(),
            SnapshotError::Truncated
        );
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            OneIndex::from_snapshot(&g, &padded).unwrap_err(),
            SnapshotError::Truncated
        );
        // Cross-type confusion is caught by magic.
        let ak = AkIndex::build(&g, 2);
        assert_eq!(
            OneIndex::from_snapshot(&g, &ak.to_snapshot()).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    /// root → a1, root → a2, a1 → b: A(1) = A(0) = {root} {a1, a2} {b}.
    fn tiny() -> (Graph, [u32; 4]) {
        let (g, ids) = xsi_graph::GraphBuilder::new()
            .nodes(&[(1, "a"), (2, "a"), (3, "b")])
            .edges(&[(1, 3)])
            .root_to(1)
            .root_to(2)
            .build_with_ids();
        let raw = [g.root().0, ids[&1].0, ids[&2].0, ids[&3].0];
        (g, raw)
    }

    /// A(k) snapshot bytes: `k`, then per level from k down to 0 the
    /// blocks' members (node ids at level k, child positions above).
    fn ak_bytes(k: u32, levels: &[&[&[u32]]]) -> Vec<u8> {
        let mut w = Writer::new(MAGIC_AKINDEX);
        w.u32(k);
        for blocks in levels {
            w.u64(blocks.len() as u64);
            for members in *blocks {
                w.u64(members.len() as u64);
                for &m in *members {
                    w.u32(m);
                }
            }
        }
        w.buf
    }

    fn mismatch(g: &Graph, bytes: &[u8]) -> String {
        match AkIndex::from_snapshot(g, bytes) {
            Err(SnapshotError::GraphMismatch(why)) => why,
            other => panic!("expected GraphMismatch, got {other:?}"),
        }
    }

    #[test]
    fn ak_decoder_accepts_the_hand_written_chain() {
        let (g, [r, a1, a2, b]) = tiny();
        let bytes = ak_bytes(1, &[&[&[r], &[a1, a2], &[b]], &[&[0], &[1], &[2]]]);
        assert_eq!(bytes, AkIndex::build(&g, 1).to_snapshot());
        let idx = AkIndex::from_snapshot(&g, &bytes).unwrap();
        idx.check_consistency(&g).unwrap();
    }

    #[test]
    fn ak_decoder_rejects_an_implausible_k() {
        let (g, _) = tiny();
        assert!(mismatch(&g, &ak_bytes(65, &[])).contains("implausible k"));
    }

    #[test]
    fn ak_decoder_rejects_a_dead_node() {
        let (g, [r, a1, a2, b]) = tiny();
        let bytes = ak_bytes(1, &[&[&[r], &[a1, a2], &[b, 99]], &[&[0], &[1], &[2]]]);
        assert!(mismatch(&g, &bytes).contains("not alive"));
    }

    #[test]
    fn ak_decoder_rejects_a_node_twice() {
        let (g, [r, a1, a2, b]) = tiny();
        let bytes = ak_bytes(1, &[&[&[r], &[a1, a2], &[b, a1]], &[&[0], &[1], &[2]]]);
        assert!(mismatch(&g, &bytes).contains("appears twice"));
    }

    #[test]
    fn ak_decoder_rejects_uncovered_nodes() {
        let (g, [r, a1, _, b]) = tiny();
        let bytes = ak_bytes(1, &[&[&[r], &[a1], &[b]], &[&[0], &[1], &[2]]]);
        assert!(mismatch(&g, &bytes).contains("does not cover"));
    }

    #[test]
    fn ak_decoder_rejects_a_child_claimed_twice() {
        let (g, [r, a1, a2, b]) = tiny();
        let bytes = ak_bytes(1, &[&[&[r], &[a1, a2], &[b]], &[&[0], &[1], &[2, 1]]]);
        assert!(mismatch(&g, &bytes).contains("claimed twice"));
    }

    #[test]
    fn ak_decoder_rejects_an_orphan_child() {
        let (g, [r, a1, a2, b]) = tiny();
        let bytes = ak_bytes(1, &[&[&[r], &[a1, a2], &[b]], &[&[0], &[1]]]);
        assert!(mismatch(&g, &bytes).contains("orphan"));
    }

    /// A child position past the deeper level's block count names no
    /// block: the dense decode table rejects it instead of ignoring it.
    #[test]
    fn ak_decoder_rejects_a_child_past_the_deeper_level() {
        let (g, [r, a1, a2, b]) = tiny();
        let bytes = ak_bytes(1, &[&[&[r], &[a1, a2], &[b]], &[&[0], &[1], &[2, 3]]]);
        assert!(mismatch(&g, &bytes).contains("past the 3 blocks of level 1"));
        let far = ak_bytes(
            1,
            &[&[&[r], &[a1, a2], &[b]], &[&[0], &[1], &[2, u32::MAX]]],
        );
        assert!(mismatch(&g, &far).contains("past the 3 blocks"));
    }

    #[test]
    fn ak_decoder_rejects_a_level_0_class_mixing_labels() {
        let (g, [r, a1, a2, b]) = tiny();
        let bytes = ak_bytes(1, &[&[&[r], &[a1, a2], &[b]], &[&[0], &[1, 2]]]);
        assert!(mismatch(&g, &bytes).contains("mixes labels"));
    }

    #[test]
    fn ak_decoder_rejects_truncation_and_trailing_bytes() {
        let (g, [r, a1, a2, b]) = tiny();
        let bytes = ak_bytes(1, &[&[&[r], &[a1, a2], &[b]], &[&[0], &[1], &[2]]]);
        for cut in [1, 4, bytes.len() - 8] {
            assert_eq!(
                AkIndex::from_snapshot(&g, &bytes[..bytes.len() - cut]).unwrap_err(),
                SnapshotError::Truncated,
                "cut {cut}"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            AkIndex::from_snapshot(&g, &padded).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn rejects_stale_snapshot() {
        let mut g = dataset();
        let idx = OneIndex::build(&g);
        let bytes = idx.to_snapshot();
        // Mutate the graph: add a node the snapshot has never seen.
        let n = g.add_node("intruder", None);
        let site = g.succ(g.root()).next().unwrap();
        g.insert_edge(site, n, EdgeKind::Child).unwrap();
        match OneIndex::from_snapshot(&g, &bytes) {
            Err(SnapshotError::GraphMismatch(_)) => {}
            other => panic!("stale snapshot must be rejected, got {other:?}"),
        }
    }
}
