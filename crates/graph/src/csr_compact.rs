//! Delta-encoded varint CSR: the memory-frugal adjacency representation.
//!
//! The iPregel follow-up paper (Capelli et al., *Parallel Computing*
//! 2020, arXiv:2010.08781) keeps vertex-centric programmability while
//! slashing the graph's resident footprint. The technique reproduced
//! here: sort each vertex's neighbour list ascending, store the first
//! neighbour as an absolute value and every subsequent one as the *gap*
//! to its predecessor, and encode all of them as LEB128-style varints.
//! Real-world neighbour ids cluster (and degree-sorted relabelling — see
//! [`crate::transform::degree_relabeling`] — tightens the clustering
//! further), so most gaps fit one or two bytes instead of the plain
//! CSR's fixed four.
//!
//! [`CsrCompact`] mirrors [`Csr`]'s surface where the engines need it:
//! the same `slots + 1` edge-count offsets prefix (so degree lookups and
//! the degree-aware scheduler work unchanged), per-vertex weights slices
//! (weights stay uncompressed, permuted into sorted-neighbour order),
//! and neighbour iteration — as a decoding iterator rather than a slice.
//! Engines reach both representations through the sealed
//! [`crate::adjacency::NeighborList`] trait, monomorphised per run, so
//! the hot loop carries no representation branch.
//!
//! The `u32` specialisation: per-vertex *byte* starts into the encoded
//! stream are stored as `u32`, halving that array relative to a naive
//! `u64` layout. A stream of ≥ 4 GiB (which at the observed ≈ 1.3
//! bytes/edge means ≥ ~3 billion edges per direction) is rejected with
//! [`GraphError::TooLargeToCompress`] rather than silently truncated.
//!
//! Every array is allocated once, at its final size: `capacity == len`
//! throughout, so [`CsrCompact::bytes`] — which adds up lengths — is
//! what the process pays, and the memory model's projection of it
//! (`ipregel-mem::compress`) can be exact.

use crate::csr::{Csr, Weight};
use crate::error::GraphError;
use crate::ids::VertexIndex;

// format-region(varint, v2): begin — the LEB128 codec of the compact
// CSR, whose byte counts the memory model projects. A change here changes
// every encoded neighbour list: bump the marker version and re-bless with
// `cargo run -p ipregel-lint -- --bless-formats`. (Marker v2 only dropped
// the `MAX_VARINT32_LEN` bound of the retired IPGB v3 reader.)

/// Append `x` to `buf` as a little-endian base-128 varint: 7 payload
/// bits per byte, least-significant group first, high bit set on every
/// byte except the last.
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        buf.push((x as u8 & 0x7f) | 0x80);
        x >>= 7;
    }
    buf.push(x as u8);
}

/// Encoded length of `x` under [`write_varint`], without encoding.
#[inline]
pub fn varint_len(x: u64) -> usize {
    // 1 byte per started 7-bit group; x = 0 still takes one byte.
    (64 - x.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Decode one varint starting at `*pos`, advancing `*pos` past it.
///
/// # Panics
/// If the varint runs past `data` — internal streams are produced by
/// [`write_varint`] and bounded by their vertex's start/end, so that
/// would be a construction bug, not bad input. No untrusted input is
/// decoded as varints.
#[inline]
fn read_varint(data: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = data[*pos];
        *pos += 1;
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}
// format-region(varint): end

/// One-directional adjacency with sorted, delta-encoded varint
/// neighbour lists.
///
/// Built from a [`Csr`] via [`CsrCompact::from_csr`]; decoded back with
/// [`CsrCompact::decompress`] (which yields the *canonical* — per-vertex
/// sorted — form of the original).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrCompact {
    /// Edge-count prefix, identical in meaning to [`Csr::offsets`]:
    /// `offsets[v]..offsets[v + 1]` numbers `v`'s edges. Kept full-width
    /// because the degree-aware scheduler binary-searches it.
    offsets: Vec<u64>,
    /// Byte offsets into `data`: `starts[v]..starts[v + 1]` is `v`'s
    /// encoded neighbour list. `u32` by design (see the module docs).
    starts: Vec<u32>,
    /// Concatenated per-vertex streams: absolute first neighbour, then
    /// gaps to each successor, all varints. A gap of 0 is a parallel
    /// edge (preserved, like the plain CSR preserves them).
    data: Vec<u8>,
    /// Per-edge weights in sorted-neighbour order, indexed by `offsets`
    /// exactly like [`Csr::weights_of`]. Weights stay uncompressed: they
    /// are arbitrary 32-bit values with no gap structure to exploit.
    weights: Option<Vec<Weight>>,
}

impl CsrCompact {
    /// Compress `csr`. Each vertex's `(target, weight)` pairs are sorted
    /// by target (stably when weighted, so parallel edges keep their
    /// relative weight order) and delta-encoded.
    ///
    /// The CSR is consumed: its offsets and weights arrays become this
    /// structure's, and its targets are sorted where they lie. The rows
    /// are cut once, at the edge midpoint, and the two halves are sorted
    /// and encoded by concurrent tasks, each into a buffer of its own;
    /// the stream is their concatenation, so where the cut falls — and
    /// who runs which half — cannot show in the bytes (docs/INTERNALS.md,
    /// "Transforms: relabel and compress").
    pub fn from_csr(csr: Csr) -> Result<CsrCompact, GraphError> {
        let (offsets, mut targets, mut weights) = csr.into_raw_parts();
        let slots = offsets.len() - 1;
        let mid = Csr::edge_midpoint(&offsets);
        let cut = offsets[mid] as usize;
        let (targets_lo, targets_hi) = targets.split_at_mut(cut);
        let (weights_lo, weights_hi) =
            weights.as_deref_mut().map(|w| w.split_at_mut(cut)).unzip();
        let ((data_lo, ends_lo), (data_hi, ends_hi)) = ipregel_par::join(
            || encode_rows(&offsets[..=mid], targets_lo, weights_lo),
            || encode_rows(&offsets[mid..], targets_hi, weights_hi),
        );
        // The plain targets are spent: free their 4 B·m before the stream
        // is allocated, not after.
        drop(targets);

        let total = data_lo.len() as u64 + data_hi.len() as u64;
        if total > u64::from(u32::MAX) {
            return Err(GraphError::TooLargeToCompress(total));
        }
        let mut data = Vec::with_capacity(total as usize);
        data.extend_from_slice(&data_lo);
        data.extend_from_slice(&data_hi);
        let mut starts = Vec::with_capacity(slots + 1);
        starts.push(0u32);
        starts.extend(ends_lo.iter().map(|&end| end as u32));
        starts.extend(ends_hi.iter().map(|&end| (data_lo.len() + end) as u32));
        Ok(CsrCompact { offsets, starts, data, weights })
    }

    /// Expand back to a plain [`Csr`] with per-vertex sorted neighbour
    /// lists — the canonical form of the CSR this was compressed from.
    pub fn decompress(&self) -> Csr {
        let mut targets = Vec::with_capacity(self.num_edges() as usize);
        for v in 0..self.num_slots() as u32 {
            targets.extend(self.neighbors_iter(v));
        }
        Csr::from_raw_parts(self.offsets.clone(), targets, self.weights.clone())
    }

    /// Number of slots covered.
    pub fn num_slots(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of edges stored.
    pub fn num_edges(&self) -> u64 {
        *self.offsets.last().expect("offsets has slots + 1 entries")
    }

    /// Whether edges carry weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Decoding iterator over `v`'s neighbour slots, ascending.
    #[inline]
    pub fn neighbors_iter(&self, v: VertexIndex) -> VarintNeighbors<'_> {
        let lo = self.starts[v as usize] as usize;
        let hi = self.starts[v as usize + 1] as usize;
        VarintNeighbors { data: &self.data[..hi], pos: lo, prev: 0, first: true }
    }

    /// Weights parallel to [`CsrCompact::neighbors_iter`] (sorted-
    /// neighbour order), or `None` for unweighted graphs.
    #[inline]
    pub fn weights_of(&self, v: VertexIndex) -> Option<&[Weight]> {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.weights.as_ref().map(|w| &w[lo..hi])
    }

    /// Degree of `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexIndex) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// The edge-count offsets prefix (see [`Csr::offsets`]).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The byte-start index as stored: `starts()[v]..starts()[v + 1]`
    /// delimits `v`'s stream in [`CsrCompact::data`]. With `data` and
    /// [`CsrCompact::weights`], what a differential test needs to hold
    /// one encoder's bytes against another's without going through the
    /// decoder.
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// The encoded neighbour stream as stored.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// All weights as stored (sorted-neighbour order within each vertex,
    /// indexed by `offsets`), or `None` for unweighted graphs.
    pub fn weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Bytes of the encoded neighbour stream alone (the part the varint
    /// codec actually shrinks; [`CsrCompact::bytes`] adds the arrays
    /// around it).
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Exact heap bytes held by this compact CSR.
    pub fn bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.starts.len() * std::mem::size_of::<u32>()
            + self.data.len()
            + self.weights.as_ref().map_or(0, |w| w.len() * std::mem::size_of::<Weight>())
    }
}

/// Sort and encode the rows `offsets` delimits. `targets` and `weights`
/// begin at `offsets[0]`. Returns the stream and, per row, the byte at
/// which its stream ends.
///
/// Two passes, so the buffer is allocated once at its final size: the
/// first sorts each row where it lies and adds up its varint lengths,
/// the second encodes.
fn encode_rows(
    offsets: &[u64],
    targets: &mut [VertexIndex],
    mut weights: Option<&mut [Weight]>,
) -> (Vec<u8>, Vec<usize>) {
    /// A sorted row as the values its stream holds: the first target,
    /// then each target's gap to its predecessor.
    fn gaps(row: &[VertexIndex]) -> impl Iterator<Item = u64> + '_ {
        let mut prev = 0;
        row.iter().map(move |&t| {
            let gap = t - prev;
            prev = t;
            u64::from(gap)
        })
    }
    let first = offsets[0];
    let rows = || offsets.windows(2).map(|w| (w[0] - first) as usize..(w[1] - first) as usize);

    let mut ends = Vec::with_capacity(offsets.len() - 1);
    let mut pairs: Vec<(VertexIndex, Weight)> = Vec::new();
    let mut bytes = 0usize;
    for row in rows() {
        let row_targets = &mut targets[row.clone()];
        match weights.as_deref_mut() {
            None => row_targets.sort_unstable(),
            Some(weights) => {
                let row_weights = &mut weights[row];
                pairs.clear();
                pairs.extend(row_targets.iter().copied().zip(row_weights.iter().copied()));
                pairs.sort_by_key(|&(t, _)| t);
                for (i, &(t, w)) in pairs.iter().enumerate() {
                    row_targets[i] = t;
                    row_weights[i] = w;
                }
            }
        }
        bytes += gaps(row_targets).map(varint_len).sum::<usize>();
        ends.push(bytes);
    }

    let mut data = Vec::with_capacity(bytes);
    for row in rows() {
        for gap in gaps(&targets[row]) {
            write_varint(&mut data, gap);
        }
    }
    debug_assert_eq!(data.len(), bytes);
    (data, ends)
}

/// Iterator yielded by [`CsrCompact::neighbors_iter`]: decodes the
/// delta-varint stream of one vertex on the fly.
#[derive(Debug, Clone)]
pub struct VarintNeighbors<'a> {
    /// Stream truncated at this vertex's end byte, so exhaustion is a
    /// plain bounds comparison.
    data: &'a [u8],
    pos: usize,
    prev: u32,
    first: bool,
}

impl Iterator for VarintNeighbors<'_> {
    type Item = VertexIndex;

    #[inline]
    fn next(&mut self) -> Option<VertexIndex> {
        if self.pos >= self.data.len() {
            return None;
        }
        let raw = read_varint(self.data, &mut self.pos) as u32;
        let n = if self.first {
            self.first = false;
            raw
        } else {
            self.prev + raw
        };
        self.prev = n;
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(x: u64) {
        let mut buf = Vec::new();
        write_varint(&mut buf, x);
        assert_eq!(buf.len(), varint_len(x), "length mismatch for {x}");
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), x);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for x in [0, 1, 127, 128, 129, 16_383, 16_384, u64::from(u32::MAX), u64::MAX] {
            roundtrip(x);
        }
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::from(u32::MAX)), 5);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn compresses_and_decodes_sorted_lists() {
        let edges = [(0u32, 5u32), (0, 2), (0, 9), (2, 1), (2, 0)];
        let csr = Csr::from_edges(3, &edges, None);
        let compact = CsrCompact::from_csr(csr.clone()).unwrap();
        assert_eq!(compact.neighbors_iter(0).collect::<Vec<_>>(), vec![2, 5, 9]);
        assert_eq!(compact.neighbors_iter(1).count(), 0);
        assert_eq!(compact.neighbors_iter(2).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(compact.degree(0), 3);
        assert_eq!(compact.num_edges(), 5);
        assert_eq!(compact.offsets(), csr.offsets());
    }

    #[test]
    fn decompress_is_the_sorted_original() {
        let edges = [(0u32, 7u32), (0, 3), (1, 1), (0, 5), (2, 0), (2, 2)];
        let csr = Csr::from_edges(4, &edges, None);
        let back = CsrCompact::from_csr(csr.clone()).unwrap().decompress();
        for v in 0..4 {
            let mut expect = csr.neighbors(v).to_vec();
            expect.sort_unstable();
            assert_eq!(back.neighbors(v), expect.as_slice(), "vertex {v}");
        }
        assert_eq!(back.offsets(), csr.offsets());
    }

    #[test]
    fn weights_follow_their_edge_through_the_sort() {
        let edges = [(0u32, 9u32), (0, 1), (0, 4)];
        let csr = Csr::from_edges(1, &edges, Some(&[90, 10, 40]));
        let compact = CsrCompact::from_csr(csr).unwrap();
        assert_eq!(compact.neighbors_iter(0).collect::<Vec<_>>(), vec![1, 4, 9]);
        assert_eq!(compact.weights_of(0).unwrap(), &[10, 40, 90]);
        let back = compact.decompress();
        assert_eq!(back.weights_of(0).unwrap(), &[10, 40, 90]);
    }

    #[test]
    fn parallel_edges_survive_as_zero_gaps() {
        let edges = [(0u32, 3u32), (0, 3), (0, 3)];
        let csr = Csr::from_edges(1, &edges, None);
        let compact = CsrCompact::from_csr(csr).unwrap();
        assert_eq!(compact.neighbors_iter(0).collect::<Vec<_>>(), vec![3, 3, 3]);
        // First = 1 byte for "3", then two zero gaps: 3 bytes total.
        assert_eq!(compact.data_bytes(), 3);
    }

    #[test]
    fn clustered_ids_shrink_the_stream() {
        // 64 consecutive neighbours: 1 absolute + 63 single-byte gaps
        // vs 64 × 4 bytes plain.
        let edges: Vec<(u32, u32)> = (0..64).map(|i| (0u32, 1000 + i)).collect();
        let csr = Csr::from_edges(1, &edges, None);
        let compact = CsrCompact::from_csr(csr.clone()).unwrap();
        assert_eq!(compact.data_bytes(), 2 + 63); // varint(1000) = 2 bytes
        assert!(compact.bytes() < csr.bytes());
    }

    #[test]
    fn compressed_arrays_hold_no_spare_capacity() {
        // `bytes()` adds up lengths; what the process pays for is
        // capacity. Both directions of a relabelled, weighted multigraph,
        // through the public path the CLI takes.
        use crate::transform::{degree_relabeling, relabel_graph};
        use crate::{GraphBuilder, NeighborMode};
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for i in 0..300u32 {
            b.add_weighted_edge(i % 7, (i * 13) % 41, i);
        }
        let g = b.build().unwrap();
        let g = relabel_graph(&g, &degree_relabeling(&g)).unwrap().compress().unwrap();
        for adj in [g.out_adj().unwrap(), g.in_adj().unwrap()] {
            let c = adj.compact().unwrap();
            assert_eq!(c.offsets.capacity(), c.offsets.len());
            assert_eq!(c.starts.capacity(), c.starts.len());
            assert_eq!(c.data.capacity(), c.data.len());
            let w = c.weights.as_ref().unwrap();
            assert_eq!(w.capacity(), w.len());
            assert_eq!(
                c.bytes(),
                c.offsets.capacity() * 8 + c.starts.capacity() * 4 + c.data.capacity() + w.capacity() * 4
            );
        }
    }

    #[test]
    fn empty_slots_have_empty_streams() {
        let csr = Csr::from_edges(4, &[], None);
        let compact = CsrCompact::from_csr(csr).unwrap();
        for v in 0..4 {
            assert_eq!(compact.neighbors_iter(v).count(), 0);
        }
        assert_eq!(compact.num_edges(), 0);
        assert_eq!(compact.data_bytes(), 0);
    }
}
