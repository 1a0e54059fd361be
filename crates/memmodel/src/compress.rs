//! Projection of the compressed (delta-varint) CSR footprint, and the
//! exact measured bytes it is held to.
//!
//! The plain layout model ([`crate::layout`]) prices an edge at a flat 4
//! bytes. The compact representation replaces each neighbour id with the
//! varint of its gap to the previous (sorted) neighbour, so its size
//! depends on the *gap structure*, not just on counts. The projection
//! here walks that structure and predicts, per array, what
//! `CsrCompact::from_csr` will allocate; the tests hold the prediction
//! to the measured bytes of an actual compression, byte for byte,
//! reproducing the Section 7.4 memory study on the compressed path at
//! synthetic sizes.

use ipregel_graph::csr_compact::varint_len;
use ipregel_graph::{Adjacency, Graph, NeighborList};

/// Projected bytes of one direction's compact CSR, by array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactProjection {
    /// The `(slots + 1) × u64` edge-count offsets prefix.
    pub offsets_bytes: u64,
    /// The `(slots + 1) × u32` byte-offset index into the stream.
    pub starts_bytes: u64,
    /// The delta-varint neighbour stream itself.
    pub data_bytes: u64,
    /// Weights, `4 × m` when the direction is weighted.
    pub weight_bytes: u64,
}

ipregel::impl_to_json!(CompactProjection {
    offsets_bytes,
    starts_bytes,
    data_bytes,
    weight_bytes
});

impl CompactProjection {
    /// Total projected bytes.
    pub fn total(&self) -> u64 {
        self.offsets_bytes + self.starts_bytes + self.data_bytes + self.weight_bytes
    }

    /// Element-wise sum, for aggregating directions.
    pub fn plus(&self, other: &CompactProjection) -> CompactProjection {
        CompactProjection {
            offsets_bytes: self.offsets_bytes + other.offsets_bytes,
            starts_bytes: self.starts_bytes + other.starts_bytes,
            data_bytes: self.data_bytes + other.data_bytes,
            weight_bytes: self.weight_bytes + other.weight_bytes,
        }
    }
}

/// Project the compact footprint of one adjacency direction by walking
/// its sorted gap structure. Works on either representation: for a
/// plain CSR this predicts what compression *would* allocate, for an
/// already-compact one it must agree with the measurement exactly.
pub fn project_adjacency(adj: &Adjacency, weighted: bool) -> CompactProjection {
    let slots = adj.num_slots() as u64;
    let data = match adj {
        Adjacency::Plain(csr) => stream_bytes(csr),
        Adjacency::Compact(c) => stream_bytes(c),
    };
    CompactProjection {
        offsets_bytes: (slots + 1) * 8,
        starts_bytes: (slots + 1) * 4,
        data_bytes: data,
        weight_bytes: if weighted { adj.num_edges() * 4 } else { 0 },
    }
}

/// Varint bytes of the whole neighbour stream of one direction.
/// Compression sorts each list first, so sort here too (a no-op for the
/// already-sorted compact decode order).
fn stream_bytes<A: NeighborList>(adj: &A) -> u64 {
    let mut sorted = Vec::new();
    let mut data = 0u64;
    for v in 0..adj.num_slots() as u32 {
        sorted.clear();
        sorted.extend(adj.neighbors_iter(v));
        sorted.sort_unstable();
        data += gap_stream_bytes(&sorted);
    }
    data
}

/// Varint bytes of one vertex's gap stream (first gap is the first
/// neighbour itself; `CsrCompact` stores no per-vertex degree — that
/// lives in the offsets prefix).
fn gap_stream_bytes(sorted: &[u32]) -> u64 {
    let mut bytes = 0u64;
    let mut prev = 0u32;
    for (i, &t) in sorted.iter().enumerate() {
        let gap = if i == 0 { t } else { t - prev };
        bytes += varint_len(u64::from(gap)) as u64;
        prev = t;
    }
    bytes
}

/// Project the compact footprint of every retained direction of `g`.
pub fn project_graph(g: &Graph) -> CompactProjection {
    let mut p = CompactProjection::default();
    if let Some(out) = g.out_adj() {
        p = p.plus(&project_adjacency(out, out.is_weighted()));
    }
    if let Some(inc) = g.in_adj() {
        p = p.plus(&project_adjacency(inc, inc.is_weighted()));
    }
    p
}

/// The measured counterpart of [`project_graph`]: exact adjacency bytes
/// of `g` as currently represented (plain or compact). Deliberately
/// excludes non-adjacency state (address map, degree caches) so it is
/// commensurable with the projection.
pub fn measured_graph_bytes(g: &Graph) -> u64 {
    g.out_adj().map_or(0, |a| a.bytes() as u64) + g.in_adj().map_or(0, |a| a.bytes() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipregel_graph::generators::rmat::{rmat_edges, RmatParams};
    use ipregel_graph::{GraphBuilder, NeighborMode};

    /// A deterministic scale-free-ish fixture: vertex v links to v/2 and
    /// to a handful of strided targets, giving a mix of tiny and large
    /// gaps without any RNG.
    fn fixture(n: u32, weighted: bool) -> Graph {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for v in 0..n {
            let mut link = |d: u32| {
                if weighted {
                    b.add_weighted_edge(v, d, v ^ d);
                } else {
                    b.add_edge(v, d);
                }
            };
            link(v / 2);
            link((v * 7 + 3) % n);
            if v % 3 == 0 {
                link((v + n / 2) % n);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn projection_is_exact_on_the_compressed_graph() {
        for weighted in [false, true] {
            let g = fixture(500, weighted).compress().unwrap();
            let projected = project_graph(&g).total();
            let measured = measured_graph_bytes(&g);
            assert_eq!(projected, measured, "weighted={weighted}");
        }
    }

    #[test]
    fn projection_from_plain_predicts_compression_exactly() {
        let plain = fixture(500, false);
        let projected = project_graph(&plain).total();
        let measured = measured_graph_bytes(&plain.compress().unwrap());
        assert_eq!(projected, measured);
    }

    /// The footprint gate of the compressed-CSR memory thesis
    /// (arXiv:2010.08781): on a skewed Graph500 R-MAT graph, 2^14
    /// vertices and 160 k edges kept in both directions, delta-varint
    /// adjacency is at least 1.5x smaller than plain CSR, and the
    /// projection made from the plain graph names the compressed bytes
    /// exactly.
    #[test]
    fn rmat_compresses_at_least_one_and_a_half_times_as_projected() {
        let (n, m) = (1u32 << 14, 160_000u64);
        let mut b =
            GraphBuilder::with_capacity(NeighborMode::Both, m as usize).declare_id_range(0, n);
        for (u, v) in rmat_edges(n, m, RmatParams::GRAPH500, 42) {
            b.add_edge(u, v);
        }
        let plain = b.build().unwrap();
        let projected = project_graph(&plain).total();
        let plain_bytes = measured_graph_bytes(&plain);
        let compressed = measured_graph_bytes(&plain.compress().unwrap());
        assert_eq!(projected, compressed);
        let ratio = plain_bytes as f64 / compressed as f64;
        assert!(ratio >= 1.5, "compression ratio {ratio:.2}x is under 1.5x");
    }
}
