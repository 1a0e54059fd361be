//! One interface over both adjacency representations.
//!
//! The engines iterate neighbours in their innermost loop; a runtime
//! branch per edge between the plain and the compact CSR would cost
//! exactly where it hurts most. Instead the engines are generic over the
//! sealed [`NeighborList`] trait and dispatch **once per run** on
//! [`Adjacency`]: two monomorphised engine bodies, zero hot-loop
//! branching — the Rust analogue of iPregel selecting its internals at
//! compile time (Section 3.1).
//!
//! The trait is sealed because the engines' disjointness arguments (and
//! the memory model's accounting) are written against exactly these two
//! representations; an arbitrary third implementation could not be
//! audited from here.

use crate::csr::{Csr, Weight};
use crate::csr_compact::{CsrCompact, VarintNeighbors};
use crate::error::GraphError;
use crate::ids::VertexIndex;

mod sealed {
    pub trait Sealed {}
    impl Sealed for crate::csr::Csr {}
    impl Sealed for crate::csr_compact::CsrCompact {}
}

/// Neighbour access shared by [`Csr`] and [`CsrCompact`].
///
/// Sealed: implemented by the two in-crate representations only. Method
/// names mirror the inherent ones where semantics are identical, so
/// non-generic code reads the same as generic code.
pub trait NeighborList: sealed::Sealed + Sync {
    /// Whether every neighbour list yields its slots in ascending order.
    /// The compact CSR's delta encoding needs sorted lists; the plain CSR
    /// keeps the builder's file order.
    const ASCENDING: bool;

    /// Per-vertex neighbour iterator. A borrowed slice iterator for the
    /// plain CSR, a varint decoder for the compact one — both yield
    /// internal slot indices and borrow the list, not the caller, so a
    /// context can iterate while mutating its own state.
    type Iter<'n>: Iterator<Item = VertexIndex> + 'n
    where
        Self: 'n;

    /// Iterate `v`'s neighbour slots.
    fn neighbors_iter(&self, v: VertexIndex) -> Self::Iter<'_>;

    /// Degree of `v` in this direction.
    fn degree(&self, v: VertexIndex) -> u32;

    /// Weights parallel to [`NeighborList::neighbors_iter`], or `None`
    /// when unweighted. (Weights are uncompressed in both
    /// representations, so a slice works for either.)
    fn weights_of(&self, v: VertexIndex) -> Option<&[Weight]>;

    /// The `slots + 1` edge-count offsets prefix — what the degree-aware
    /// scheduler cuts chunks against.
    fn offsets(&self) -> &[u64];

    /// Total number of edges stored.
    fn num_edges(&self) -> u64;

    /// Number of slots covered.
    fn num_slots(&self) -> usize;

    /// Exact heap bytes held.
    fn bytes(&self) -> usize;
}

impl NeighborList for Csr {
    const ASCENDING: bool = false;
    type Iter<'n> = std::iter::Copied<std::slice::Iter<'n, VertexIndex>>;

    #[inline]
    fn neighbors_iter(&self, v: VertexIndex) -> Self::Iter<'_> {
        self.neighbors(v).iter().copied()
    }

    #[inline]
    fn degree(&self, v: VertexIndex) -> u32 {
        Csr::degree(self, v)
    }

    #[inline]
    fn weights_of(&self, v: VertexIndex) -> Option<&[Weight]> {
        Csr::weights_of(self, v)
    }

    #[inline]
    fn offsets(&self) -> &[u64] {
        Csr::offsets(self)
    }

    fn num_edges(&self) -> u64 {
        Csr::num_edges(self)
    }

    fn num_slots(&self) -> usize {
        Csr::num_slots(self)
    }

    fn bytes(&self) -> usize {
        Csr::bytes(self)
    }
}

impl NeighborList for CsrCompact {
    const ASCENDING: bool = true;
    type Iter<'n> = VarintNeighbors<'n>;

    #[inline]
    fn neighbors_iter(&self, v: VertexIndex) -> Self::Iter<'_> {
        CsrCompact::neighbors_iter(self, v)
    }

    #[inline]
    fn degree(&self, v: VertexIndex) -> u32 {
        CsrCompact::degree(self, v)
    }

    #[inline]
    fn weights_of(&self, v: VertexIndex) -> Option<&[Weight]> {
        CsrCompact::weights_of(self, v)
    }

    #[inline]
    fn offsets(&self) -> &[u64] {
        CsrCompact::offsets(self)
    }

    fn num_edges(&self) -> u64 {
        CsrCompact::num_edges(self)
    }

    fn num_slots(&self) -> usize {
        CsrCompact::num_slots(self)
    }

    fn bytes(&self) -> usize {
        CsrCompact::bytes(self)
    }
}

/// One direction of a graph's adjacency, in whichever representation it
/// currently holds. The engines match on this exactly once per run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Adjacency {
    /// Full-width CSR: 4 bytes per neighbour, sliceable.
    Plain(Csr),
    /// Sorted delta-varint CSR (see [`crate::csr_compact`]).
    Compact(CsrCompact),
}

impl Adjacency {
    /// The plain CSR, if that is the current representation.
    pub fn plain(&self) -> Option<&Csr> {
        match self {
            Adjacency::Plain(c) => Some(c),
            Adjacency::Compact(_) => None,
        }
    }

    /// The compact CSR, if that is the current representation.
    pub fn compact(&self) -> Option<&CsrCompact> {
        match self {
            Adjacency::Plain(_) => None,
            Adjacency::Compact(c) => Some(c),
        }
    }

    /// Whether this direction is delta-varint encoded.
    pub fn is_compressed(&self) -> bool {
        matches!(self, Adjacency::Compact(_))
    }

    /// Convert to the compact representation (no-op if already compact).
    pub fn compress(self) -> Result<Adjacency, GraphError> {
        match self {
            Adjacency::Plain(c) => Ok(Adjacency::Compact(CsrCompact::from_csr(c)?)),
            compact @ Adjacency::Compact(_) => Ok(compact),
        }
    }

    /// Convert to the plain representation. Decompressing yields the
    /// canonical (per-vertex sorted) neighbour order; a never-compressed
    /// CSR is returned untouched.
    pub fn decompress(self) -> Adjacency {
        match self {
            plain @ Adjacency::Plain(_) => plain,
            Adjacency::Compact(c) => Adjacency::Plain(c.decompress()),
        }
    }

    /// Degree of `v` — representation-independent (both keep the
    /// edge-count offsets).
    #[inline]
    pub fn degree(&self, v: VertexIndex) -> u32 {
        match self {
            Adjacency::Plain(c) => c.degree(v),
            Adjacency::Compact(c) => c.degree(v),
        }
    }

    /// The edge-count offsets prefix (see [`Csr::offsets`]).
    pub fn offsets(&self) -> &[u64] {
        match self {
            Adjacency::Plain(c) => c.offsets(),
            Adjacency::Compact(c) => c.offsets(),
        }
    }

    /// Total number of edges stored.
    pub fn num_edges(&self) -> u64 {
        match self {
            Adjacency::Plain(c) => c.num_edges(),
            Adjacency::Compact(c) => c.num_edges(),
        }
    }

    /// Number of slots covered.
    pub fn num_slots(&self) -> usize {
        self.offsets().len() - 1
    }

    /// Whether edges carry weights.
    pub fn is_weighted(&self) -> bool {
        match self {
            Adjacency::Plain(c) => c.is_weighted(),
            Adjacency::Compact(c) => c.is_weighted(),
        }
    }

    /// Exact heap bytes held.
    pub fn bytes(&self) -> usize {
        match self {
            Adjacency::Plain(c) => c.bytes(),
            Adjacency::Compact(c) => c.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_sum<A: NeighborList>(adj: &A) -> u64 {
        let mut total = 0u64;
        for v in 0..adj.num_slots() as u32 {
            assert_eq!(adj.neighbors_iter(v).count() as u32, adj.degree(v));
            total += adj.neighbors_iter(v).map(u64::from).sum::<u64>();
        }
        total
    }

    #[test]
    fn both_representations_agree_through_the_trait() {
        let edges = [(0u32, 4u32), (0, 1), (1, 3), (3, 0), (3, 4), (3, 2)];
        let csr = Csr::from_edges(5, &edges, None);
        let compact = CsrCompact::from_csr(csr.clone()).unwrap();
        assert_eq!(generic_sum(&csr), generic_sum(&compact));
        assert_eq!(NeighborList::offsets(&csr), NeighborList::offsets(&compact));
        assert_eq!(NeighborList::num_edges(&csr), 6);
        assert_eq!(NeighborList::num_edges(&compact), 6);
    }

    #[test]
    fn adjacency_round_trips_representation() {
        let csr = Csr::from_edges(3, &[(0u32, 2u32), (2, 1), (0, 1)], None);
        let adj = Adjacency::Plain(csr.clone());
        assert!(!adj.is_compressed());
        let compact = adj.compress().unwrap();
        assert!(compact.is_compressed());
        assert!(compact.plain().is_none());
        assert_eq!(compact.num_edges(), 3);
        let back = compact.decompress();
        assert!(!back.is_compressed());
        // Decompression canonicalises: sorted per-vertex lists.
        assert_eq!(back.plain().unwrap().neighbors(0), &[1, 2]);
    }

    #[test]
    fn compress_is_idempotent() {
        let csr = Csr::from_edges(2, &[(0u32, 1u32)], None);
        let once = Adjacency::Plain(csr).compress().unwrap();
        let twice = once.clone().compress().unwrap();
        assert_eq!(once, twice);
    }
}
