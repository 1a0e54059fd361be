//! Structural model of the C iPregel vertex layout, per version.
//!
//! Section 3.2: vertices are plain structs whose members depend on the
//! selected module versions and compile flags — value, out-neighbour
//! count (PageRank needs it everywhere), adjacency pointer+count per
//! retained direction, combiner state (lock + single-message mailbox for
//! push; outbox for pull), and bypass worklist entries. Edges cost 4
//! bytes each per retained direction ("edges ... are typically just
//! integers", Section 7.4.1).
//!
//! The model reproduces the Section 7.4.1 measurements: on Wikipedia the
//! mutex versions took ≈ 2 GB, the spinlock and broadcast versions
//! ≈ 1.5 GB, and the broadcast version grew to ≈ 2.5 GB with the bypass
//! because the bypass needs out-neighbour information on top of the
//! pull combiner's in-neighbours.

use ipregel::{CombinerKind, Version};
use ipregel_graph::Graph;

use crate::compress::project_adjacency;

/// Application-dependent sizes feeding the layout model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutModel {
    /// Bytes of the user's vertex value (8 for PageRank's double, 4 for
    /// Hashmin/SSSP distances).
    pub value_bytes: usize,
    /// Bytes of one message (combiners keep at most one per mailbox).
    pub message_bytes: usize,
}

ipregel::impl_to_json!(LayoutModel { value_bytes, message_bytes });

/// The modelled footprint of one iPregel version on one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionFootprint {
    /// Bytes of per-vertex structs.
    pub vertex_bytes: u64,
    /// Bytes of adjacency arrays (4 B/edge per retained direction).
    pub edge_bytes: u64,
    /// Of `vertex_bytes`: the data-race protection share (locks).
    pub lock_bytes: u64,
    /// Of `vertex_bytes`: selection-bypass worklist share.
    pub worklist_bytes: u64,
}

ipregel::impl_to_json!(VersionFootprint { vertex_bytes, edge_bytes, lock_bytes, worklist_bytes });

impl VersionFootprint {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.vertex_bytes + self.edge_bytes
    }
}

impl LayoutModel {
    /// PageRank sizes (8-byte double value and message).
    pub fn pagerank() -> Self {
        LayoutModel { value_bytes: 8, message_bytes: 8 }
    }

    /// Hashmin/SSSP sizes (4-byte distance/label).
    pub fn distance_label() -> Self {
        LayoutModel { value_bytes: 4, message_bytes: 4 }
    }

    /// Whether a version stores the out-adjacency list.
    fn needs_out_list(version: Version) -> bool {
        match version.combiner {
            CombinerKind::Broadcast => version.selection_bypass,
            _ => true, // push engines send along out-edges
        }
    }

    /// Whether a version stores the in-adjacency list.
    fn needs_in_list(version: Version) -> bool {
        version.combiner == CombinerKind::Broadcast
    }

    /// Model the footprint of `version` on a graph with `vertices` and
    /// `edges` (paper scale or any other).
    pub fn footprint(&self, version: Version, vertices: u64, edges: u64) -> VersionFootprint {
        // 64-bit pointers and 4-byte counts, as Section 6.2's footnote
        // assumes.
        let mut per_vertex = self.value_bytes + 4; // value + out-neighbour count
        if Self::needs_out_list(version) {
            per_vertex += 8; // out-neighbour pointer
        }
        if Self::needs_in_list(version) {
            per_vertex += 8 + 4; // in-neighbour pointer + count
        }
        let lock_per_vertex = match version.combiner {
            CombinerKind::Mutex => 40,
            CombinerKind::Spinlock => 4,
            CombinerKind::Broadcast => 0,
        };
        // Single-message mailbox (push) or outbox (pull) + occupancy flag.
        per_vertex += lock_per_vertex + self.message_bytes + 1;
        let worklist_per_vertex = if version.selection_bypass { 8 } else { 0 };
        per_vertex += worklist_per_vertex;

        let directions =
            u64::from(Self::needs_out_list(version)) + u64::from(Self::needs_in_list(version));
        VersionFootprint {
            vertex_bytes: vertices * per_vertex as u64,
            edge_bytes: edges * 4 * directions,
            lock_bytes: vertices * lock_per_vertex as u64,
            worklist_bytes: vertices * worklist_per_vertex as u64,
        }
    }

    /// Like [`LayoutModel::footprint`], but pricing adjacency at the
    /// compact (delta-varint) representation's projected bytes instead
    /// of a flat 4 B per edge per direction. Needs the actual graph:
    /// varint sizes depend on the gap structure, not on counts.
    pub fn footprint_compressed(&self, version: Version, g: &Graph) -> VersionFootprint {
        let plain = self.footprint(version, g.num_vertices() as u64, g.num_edges());
        let mut edge_bytes = 0u64;
        if Self::needs_out_list(version) {
            let out = g.out_adj().expect("version stores the out-adjacency");
            edge_bytes += project_adjacency(out, out.is_weighted()).total();
        }
        if Self::needs_in_list(version) {
            let inc = g.in_adj().expect("version stores the in-adjacency");
            edge_bytes += project_adjacency(inc, inc.is_weighted()).total();
        }
        VersionFootprint { edge_bytes, ..plain }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GB;

    const WIKI: (u64, u64) = (18_268_992, 172_183_984);

    fn v(combiner: CombinerKind, bypass: bool) -> Version {
        Version { combiner, selection_bypass: bypass }
    }

    #[test]
    fn wikipedia_mutex_is_about_2_gb() {
        // Section 7.4.1: "both mutex versions ... took 2GB of memory".
        let f = LayoutModel::pagerank().footprint(v(CombinerKind::Mutex, false), WIKI.0, WIKI.1);
        let gb = f.total() as f64 / GB;
        assert!((gb - 2.0).abs() < 0.35, "mutex model {gb:.2} GB");
    }

    #[test]
    fn wikipedia_spinlock_is_about_1_5_gb() {
        // Section 7.4.1: "their spinlock counterparts needed 1.5GB".
        let f = LayoutModel::pagerank().footprint(v(CombinerKind::Spinlock, false), WIKI.0, WIKI.1);
        let gb = f.total() as f64 / GB;
        assert!((gb - 1.5).abs() < 0.35, "spinlock model {gb:.2} GB");
    }

    #[test]
    fn broadcast_bypass_jumps_by_the_out_adjacency() {
        // Section 7.4.1: bypass grew the broadcast version from 1.5 GB to
        // 2.5 GB — "due to the out-neighbours information ... on top of
        // the in-neighbours information".
        let m = LayoutModel::pagerank();
        let plain = m.footprint(v(CombinerKind::Broadcast, false), WIKI.0, WIKI.1);
        let bypass = m.footprint(v(CombinerKind::Broadcast, true), WIKI.0, WIKI.1);
        let plain_gb = plain.total() as f64 / GB;
        let bypass_gb = bypass.total() as f64 / GB;
        assert!((plain_gb - 1.5).abs() < 0.4, "broadcast model {plain_gb:.2} GB");
        let jump = bypass_gb - plain_gb;
        assert!((0.7..=1.2).contains(&jump), "bypass jump {jump:.2} GB, paper ≈ 1.0");
        // And the dominant share of the jump is edges, not the worklist.
        assert!(bypass.edge_bytes > plain.edge_bytes);
    }

    #[test]
    fn spinlock_saves_90_percent_of_lock_bytes() {
        let m = LayoutModel::distance_label();
        let mutex = m.footprint(v(CombinerKind::Mutex, false), WIKI.0, WIKI.1);
        let spin = m.footprint(v(CombinerKind::Spinlock, false), WIKI.0, WIKI.1);
        assert_eq!(spin.lock_bytes * 10, mutex.lock_bytes);
    }

    #[test]
    fn broadcast_has_zero_lock_bytes() {
        let f = LayoutModel::pagerank().footprint(v(CombinerKind::Broadcast, false), WIKI.0, WIKI.1);
        assert_eq!(f.lock_bytes, 0);
    }

    #[test]
    fn compressed_footprint_shrinks_edge_bytes_on_clustered_graphs() {
        use ipregel_graph::{GraphBuilder, NeighborMode};
        // Neighbours clustered around each vertex → single-byte gaps, so
        // the compact edge bytes must undercut the plain 4 B/edge.
        let n = 2_000u32;
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for s in 0..n {
            for d in 1..=8u32 {
                b.add_edge(s, (s + d) % n);
            }
        }
        let g = b.build().unwrap();
        let m = LayoutModel::pagerank();
        let version = v(CombinerKind::Broadcast, true);
        let plain = m.footprint(version, g.num_vertices() as u64, g.num_edges());
        let compact = m.footprint_compressed(version, &g);
        assert!(
            compact.edge_bytes < plain.edge_bytes,
            "compact {} B vs plain {} B",
            compact.edge_bytes,
            plain.edge_bytes
        );
        // Only the adjacency pricing changes.
        assert_eq!(compact.vertex_bytes, plain.vertex_bytes);
        assert_eq!(compact.lock_bytes, plain.lock_bytes);
    }

    #[test]
    fn usa_graph_is_vertex_dominated() {
        // Section 7.4.1: moving Wikipedia → USA, "the 100M fewer edges do
        // not compensate for the 5M additional vertices" — vertex bytes
        // grow while edge bytes shrink.
        let m = LayoutModel::pagerank();
        let wiki = m.footprint(v(CombinerKind::Spinlock, false), WIKI.0, WIKI.1);
        let usa = m.footprint(v(CombinerKind::Spinlock, false), 23_947_347, 58_333_344);
        assert!(usa.vertex_bytes > wiki.vertex_bytes);
        assert!(usa.edge_bytes < wiki.edge_bytes);
    }
}
