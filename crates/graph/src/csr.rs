//! Compressed-sparse-row adjacency storage and the [`Graph`] type.
//!
//! iPregel stores all vertices in flat arrays indexed by the addressing
//! schemes of [`crate::ids`]. Adjacency is held in CSR form: one offsets
//! array of `slots + 1` entries and one packed targets array of `u32`
//! internal indices, optionally mirrored by a parallel weights array.
//!
//! A [`Graph`] owns up to two CSRs — out-edges and in-edges — matching the
//! paper's tailor-made vertex internals (Section 6.2): applications that
//! never look at in-neighbours simply never build the in-CSR, and the
//! memory accounting reflects that.

use crate::adjacency::Adjacency;
use crate::error::GraphError;
use crate::ids::{AddressMap, VertexId, VertexIndex};

/// Edge weight type. The paper's SSSP uses unit weights; the DIMACS road
/// graphs carry 32-bit integer distances.
pub type Weight = u32;

/// One-directional adjacency in compressed-sparse-row form, indexed by
/// internal vertex slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` is the range of `v`'s edges in `targets`.
    offsets: Vec<u64>,
    /// Edge targets as internal indices, grouped by source slot.
    targets: Vec<VertexIndex>,
    /// Optional per-edge weights, parallel to `targets`.
    weights: Option<Vec<Weight>>,
}

impl Csr {
    /// Build a CSR over `slots` slots from `(source_slot, target_slot)`
    /// pairs via counting sort. `weights`, when given, must parallel `edges`.
    pub fn from_edges(
        slots: usize,
        edges: &[(VertexIndex, VertexIndex)],
        weights: Option<&[Weight]>,
    ) -> Csr {
        Csr::from_edges_by(slots, edges, weights, |edge| edge)
    }

    /// [`Csr::from_edges`] over `orient(edge)`, so the transposed CSR is
    /// built by keying on the target (`|(s, d)| (d, s)`) rather than from
    /// a reversed copy of the edge list. The sort is stable: a slot's
    /// neighbours keep the order their edges have in `edges`.
    pub(crate) fn from_edges_by(
        slots: usize,
        edges: &[(VertexIndex, VertexIndex)],
        weights: Option<&[Weight]>,
        orient: impl Fn((VertexIndex, VertexIndex)) -> (VertexIndex, VertexIndex),
    ) -> Csr {
        debug_assert!(weights.is_none_or(|w| w.len() == edges.len()));
        let mut offsets = vec![0u64; slots + 1];
        for &edge in edges {
            offsets[orient(edge).0 as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Scatter with `offsets[v]` itself as `v`'s write cursor: it walks
        // from the start of `v`'s range to its end, which is the start of
        // `v + 1`'s — so afterwards the array is the offsets shifted down
        // one slot, and shifting it back up restores them without a copy.
        let mut targets = vec![0 as VertexIndex; edges.len()];
        let mut wout = weights.map(|_| vec![0 as Weight; edges.len()]);
        for (e, &edge) in edges.iter().enumerate() {
            let (key, neighbor) = orient(edge);
            let at = offsets[key as usize] as usize;
            targets[at] = neighbor;
            if let (Some(w), Some(ws)) = (&mut wout, weights) {
                w[at] = ws[e];
            }
            offsets[key as usize] += 1;
        }
        offsets.copy_within(0..slots, 1);
        offsets[0] = 0;
        Csr { offsets, targets, weights: wout }
    }

    /// Assemble a CSR from already-grouped parts. Used by
    /// [`crate::csr_compact::CsrCompact::decompress`], which produces
    /// exactly this layout while decoding; invariants (`offsets`
    /// nondecreasing with `slots + 1` entries, `targets`/`weights` length
    /// matching the final offset) are the caller's to uphold.
    pub(crate) fn from_raw_parts(
        offsets: Vec<u64>,
        targets: Vec<VertexIndex>,
        weights: Option<Vec<Weight>>,
    ) -> Csr {
        debug_assert_eq!(offsets.last().copied(), Some(targets.len() as u64));
        debug_assert!(weights.as_ref().is_none_or(|w| w.len() == targets.len()));
        Csr { offsets, targets, weights }
    }

    /// The arrays [`Csr::from_raw_parts`] takes, handed back — so the
    /// compact encoder can sort `targets` in place and keep `offsets`
    /// rather than copy either.
    pub(crate) fn into_raw_parts(self) -> (Vec<u64>, Vec<VertexIndex>, Option<Vec<Weight>>) {
        (self.offsets, self.targets, self.weights)
    }

    /// Where to cut the rows `offsets` delimits in two for a pair of
    /// tasks: the first row that starts at or past the edge midpoint, so
    /// rows `..cut` and `cut..` hold about half the edges each. A function
    /// of the offsets alone — never of who will run the halves — and
    /// either half may be empty (no edges at all, or one row holding most
    /// of them).
    pub(crate) fn edge_midpoint(offsets: &[u64]) -> usize {
        let edges = offsets[offsets.len() - 1];
        offsets.partition_point(|&o| o < edges / 2)
    }

    /// Number of slots this CSR covers.
    pub fn num_slots(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of edges stored.
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Whether edges carry weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Neighbour slots of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexIndex) -> &[VertexIndex] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Weights parallel to [`Csr::neighbors`], or `None` for unweighted
    /// graphs.
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

    /// The raw offsets array: `slots + 1` nondecreasing entries,
    /// `offsets[v]..offsets[v + 1]` delimiting `v`'s edges. Doubles as
    /// the edge-count prefix sum the degree-aware scheduler
    /// ([`crate::schedule`]) binary-searches to cut edge-balanced chunks.
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Exact heap bytes held by this CSR.
    pub fn bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<VertexIndex>()
            + self.weights.as_ref().map_or(0, |w| w.len() * std::mem::size_of::<Weight>())
    }
}

/// A graph's out-degrees as a flat view of one of its arrays (see
/// [`Graph::out_degrees`]): no copy, and one representation match per
/// lookup instead of [`Graph::out_degree`]'s two.
#[derive(Debug, Clone, Copy)]
pub enum OutDegrees<'g> {
    /// The out-adjacency's `slots + 1` edge-count offsets.
    Offsets(&'g [u64]),
    /// One count per slot, kept when the out-adjacency is not.
    Counts(&'g [u32]),
}

impl OutDegrees<'_> {
    /// Out-degree of slot `v`.
    #[inline]
    pub fn get(self, v: VertexIndex) -> u32 {
        match self {
            OutDegrees::Offsets(o) => (o[v as usize + 1] - o[v as usize]) as u32,
            OutDegrees::Counts(d) => d[v as usize],
        }
    }
}

/// An immutable, static graph: an [`AddressMap`] plus adjacency.
///
/// All accessor methods take and return *internal slot indices*; translate
/// with [`Graph::index_of`] / [`Graph::id_of`] at the boundary. The paper's
/// framework requires consecutive integral identifiers and static graphs
/// (Section 3.3) — both enforced at build time by
/// [`crate::builder::GraphBuilder`].
#[derive(Debug, Clone)]
pub struct Graph {
    map: AddressMap,
    out: Option<Adjacency>,
    incoming: Option<Adjacency>,
    /// Out-degrees when the out-CSR is absent (in-only internals); PageRank
    /// needs out-degrees regardless of engine direction.
    out_degrees: Option<Vec<u32>>,
    num_edges: u64,
}

impl Graph {
    pub(crate) fn from_parts(
        map: AddressMap,
        out: Option<Csr>,
        incoming: Option<Csr>,
        out_degrees: Option<Vec<u32>>,
        num_edges: u64,
    ) -> Graph {
        Graph {
            map,
            out: out.map(Adjacency::Plain),
            incoming: incoming.map(Adjacency::Plain),
            out_degrees,
            num_edges,
        }
    }

    /// Convert every retained adjacency direction to the delta-varint
    /// compact representation ([`crate::csr_compact::CsrCompact`]). Both
    /// directions compress together — as two concurrent tasks when both
    /// are retained — so the engines never see mixed representations.
    /// Idempotent.
    pub fn compress(mut self) -> Result<Graph, GraphError> {
        let (out, incoming) = (self.out.take(), self.incoming.take());
        let (out, incoming) = ipregel_par::join(
            || out.map(Adjacency::compress).transpose(),
            || incoming.map(Adjacency::compress).transpose(),
        );
        self.out = out?;
        self.incoming = incoming?;
        Ok(self)
    }

    /// Convert every retained adjacency direction back to plain CSR form
    /// (canonical, per-vertex sorted). Idempotent.
    pub fn decompress(mut self) -> Graph {
        self.out = self.out.map(Adjacency::decompress);
        self.incoming = self.incoming.map(Adjacency::decompress);
        self
    }

    /// Whether any retained direction is delta-varint encoded. (Via the
    /// public API it is all-or-nothing: [`Graph::compress`] converts
    /// every direction.)
    pub fn is_compressed(&self) -> bool {
        self.out.as_ref().is_some_and(Adjacency::is_compressed)
            || self.incoming.as_ref().is_some_and(Adjacency::is_compressed)
    }

    /// Number of real vertices.
    pub fn num_vertices(&self) -> usize {
        self.map.num_vertices() as usize
    }

    /// Number of array slots per vertex array (= vertices + desolate waste).
    pub fn num_slots(&self) -> usize {
        self.map.slots()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// The identifier ↔ index mapping in use.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Internal slot of the vertex with external identifier `id`.
    #[inline(always)]
    pub fn index_of(&self, id: VertexId) -> VertexIndex {
        self.map.index_of(id)
    }

    /// External identifier of the vertex at `index`.
    #[inline(always)]
    pub fn id_of(&self, index: VertexIndex) -> VertexId {
        self.map.id_of(index)
    }

    /// Whether the graph retains out-adjacency.
    pub fn has_out_edges(&self) -> bool {
        self.out.is_some()
    }

    /// Whether the graph retains in-adjacency.
    pub fn has_in_edges(&self) -> bool {
        self.incoming.is_some()
    }

    /// Whether edges carry weights.
    pub fn is_weighted(&self) -> bool {
        self.out.as_ref().or(self.incoming.as_ref()).is_some_and(Adjacency::is_weighted)
    }

    /// Out-neighbour slots of `v` as a slice.
    ///
    /// # Panics
    /// If the graph was built without out-adjacency, or if it is
    /// compressed — a varint stream has no slice view; iterate via
    /// [`Graph::out_adj`] and the `NeighborList` trait instead.
    #[inline]
    pub fn out_neighbors(&self, v: VertexIndex) -> &[VertexIndex] {
        self.out
            .as_ref()
            .expect("graph built without out-edges")
            .plain()
            .expect("compressed adjacency has no slice view; iterate via out_adj()")
            .neighbors(v)
    }

    /// In-neighbour slots of `v` as a slice.
    ///
    /// # Panics
    /// If the graph was built without in-adjacency, or if it is
    /// compressed (see [`Graph::out_neighbors`]).
    #[inline]
    pub fn in_neighbors(&self, v: VertexIndex) -> &[VertexIndex] {
        self.incoming
            .as_ref()
            .expect("graph built without in-edges")
            .plain()
            .expect("compressed adjacency has no slice view; iterate via in_adj()")
            .neighbors(v)
    }

    /// Weights parallel to [`Graph::out_neighbors`], `None` when
    /// unweighted. Works for both representations (weights stay
    /// uncompressed), but note the compact form keeps them in
    /// sorted-neighbour order.
    #[inline]
    pub fn out_weights(&self, v: VertexIndex) -> Option<&[Weight]> {
        match self.out.as_ref().expect("graph built without out-edges") {
            Adjacency::Plain(c) => c.weights_of(v),
            Adjacency::Compact(c) => c.weights_of(v),
        }
    }

    /// Out-degree of `v`; available in every neighbour mode.
    #[inline]
    pub fn out_degree(&self, v: VertexIndex) -> u32 {
        self.out_degrees().get(v)
    }

    /// Every slot's out-degree, read from the array the graph already
    /// holds them in: the out-adjacency's edge-count offsets, or an
    /// in-only graph's degree counts. Resolve it once and look degrees up
    /// through it in a loop; [`Graph::out_degree`] resolves it per call.
    #[inline]
    pub fn out_degrees(&self) -> OutDegrees<'_> {
        match (&self.out, &self.out_degrees) {
            (Some(adj), _) => OutDegrees::Offsets(adj.offsets()),
            (None, Some(d)) => OutDegrees::Counts(d),
            (None, None) => unreachable!("builder always retains out-degrees"),
        }
    }

    /// In-degree of `v`.
    ///
    /// # Panics
    /// If the graph was built without in-adjacency.
    #[inline]
    pub fn in_degree(&self, v: VertexIndex) -> u32 {
        self.incoming.as_ref().expect("graph built without in-edges").degree(v)
    }

    /// The plain out-CSR, if retained *and* uncompressed. Callers that
    /// handle both representations should use [`Graph::out_adj`].
    pub fn out_csr(&self) -> Option<&Csr> {
        self.out.as_ref().and_then(Adjacency::plain)
    }

    /// The plain in-CSR, if retained *and* uncompressed. Callers that
    /// handle both representations should use [`Graph::in_adj`].
    pub fn in_csr(&self) -> Option<&Csr> {
        self.incoming.as_ref().and_then(Adjacency::plain)
    }

    /// The out-adjacency in whichever representation it currently holds.
    pub fn out_adj(&self) -> Option<&Adjacency> {
        self.out.as_ref()
    }

    /// The in-adjacency in whichever representation it currently holds.
    pub fn in_adj(&self) -> Option<&Adjacency> {
        self.incoming.as_ref()
    }

    /// Exact heap bytes held by the graph topology (adjacency in its
    /// current representation, plus the degree array).
    ///
    /// This is the "graph itself" part of Section 7.4's accounting, as
    /// opposed to the framework overhead reported by the engines.
    pub fn bytes(&self) -> usize {
        self.out.as_ref().map_or(0, Adjacency::bytes)
            + self.incoming.as_ref().map_or(0, Adjacency::bytes)
            + self.out_degrees.as_ref().map_or(0, |d| d.len() * std::mem::size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sort_groups_by_source() {
        let edges = [(2u32, 0u32), (0, 1), (2, 1), (0, 2)];
        let csr = Csr::from_edges(3, &edges, None);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        assert_eq!(csr.neighbors(2), &[0, 1]);
        assert_eq!(csr.degree(1), 0);
        assert_eq!(csr.num_edges(), 4);
    }

    #[test]
    fn weights_stay_parallel_to_targets() {
        let edges = [(0u32, 1u32), (1, 0), (0, 2)];
        let w = [10, 20, 30];
        let csr = Csr::from_edges(3, &edges, Some(&w));
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.weights_of(0).unwrap(), &[10, 30]);
        assert_eq!(csr.weights_of(1).unwrap(), &[20]);
        assert!(csr.is_weighted());
    }

    #[test]
    fn empty_slots_have_empty_ranges() {
        let csr = Csr::from_edges(4, &[], None);
        for v in 0..4 {
            assert_eq!(csr.neighbors(v), &[] as &[u32]);
        }
        assert_eq!(csr.num_edges(), 0);
    }

    #[test]
    fn relabelled_arrays_hold_no_spare_capacity() {
        // `bytes()` adds up lengths; what the process pays for is
        // capacity. Every array of a relabelled graph, in every mode.
        use crate::transform::{degree_relabeling, relabel_graph};
        use crate::{GraphBuilder, NeighborMode};
        for mode in [NeighborMode::OutOnly, NeighborMode::InOnly, NeighborMode::Both] {
            let mut b = GraphBuilder::new(mode);
            for i in 0..300u32 {
                b.add_weighted_edge(3 + i % 7, 3 + (i * 13) % 41, i);
            }
            let g = b.build().unwrap();
            let g = relabel_graph(&g, &degree_relabeling(&g)).unwrap();
            for adj in [&g.out, &g.incoming].into_iter().flatten() {
                let Adjacency::Plain(c) = adj else { panic!("relabelling keeps the plain form") };
                assert_eq!(c.offsets.capacity(), c.offsets.len());
                assert_eq!(c.targets.capacity(), c.targets.len());
                let w = c.weights.as_ref().unwrap();
                assert_eq!(w.capacity(), w.len());
            }
            if let Some(d) = &g.out_degrees {
                assert_eq!(d.capacity(), d.len());
            }
        }
    }

    #[test]
    fn bytes_counts_all_arrays() {
        let edges = [(0u32, 1u32); 8];
        let unweighted = Csr::from_edges(2, &edges, None);
        let weighted = Csr::from_edges(2, &edges, Some(&[1; 8]));
        assert_eq!(weighted.bytes() - unweighted.bytes(), 8 * 4);
    }
}
