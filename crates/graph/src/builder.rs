//! Incremental construction of [`Graph`]s.
//!
//! The builder collects raw edges with *external* identifiers, decides an
//! addressing strategy (Section 5 of the paper), validates the identifier
//! space, and materialises the CSR(s) requested by the neighbour mode —
//! the Rust analogue of iPregel's tailor-made vertex internals, where the
//! user's compile flags select an in-only, out-only or in-and-out layout.

use crate::csr::{Csr, Graph, Weight};
use crate::error::GraphError;
use crate::ids::{AddressMap, AddressingMode, VertexId};

/// Which adjacency directions the built graph retains.
///
/// Mirrors Section 6.2: "iPregel proposes several tailor-made internals
/// (in only, out only, in and out)". Out-degrees are always retained (4
/// bytes per slot) because PageRank-style programs need them even when
/// running on the in-only pull engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborMode {
    /// Keep only out-edges (push engines).
    OutOnly,
    /// Keep only in-edges (pull engine without selection bypass).
    InOnly,
    /// Keep both directions (pull engine with selection bypass).
    Both,
}

/// How the builder should pick the addressing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AddressingChoice {
    /// `Direct` when identifiers start at 0; otherwise `DesolateMemory`
    /// when the wasted prefix is small (≤ 1024 slots or ≤ 1% of the
    /// graph), else `Offset`. This is the policy the paper follows for its
    /// 1-based datasets ("offset mapping with desolate memory").
    #[default]
    Auto,
    /// Force a specific mode. Forcing [`AddressingMode::Direct`] on a
    /// graph whose identifiers do not start at 0 is an error.
    Force(AddressingMode),
}

/// The id span, smallest and largest, of no edges: every id lowers its
/// minimum and raises its maximum.
pub(crate) const EMPTY_SPAN: (VertexId, VertexId) = (VertexId::MAX, 0);

/// Largest desolate prefix `Auto` will accept unconditionally.
const DESOLATE_ABS_LIMIT: u32 = 1024;

/// Builder for [`Graph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<Weight>,
    weighted: Option<bool>,
    mode: NeighborMode,
    addressing: AddressingChoice,
    declared_range: Option<(VertexId, u32)>,
    /// The smallest and the largest id of the `spanned` edges that came
    /// through [`GraphBuilder::extend`] or [`GraphBuilder::decode_edges`],
    /// which carry their loader's fold.
    /// `add_edge` and `add_weighted_edge` track neither, so the span is
    /// the whole builder's only while `spanned` counts every edge.
    span: (VertexId, VertexId),
    spanned: usize,
}

impl GraphBuilder {
    /// New builder retaining the given adjacency directions.
    pub fn new(mode: NeighborMode) -> Self {
        GraphBuilder {
            edges: Vec::new(),
            weights: Vec::new(),
            weighted: None,
            mode,
            addressing: AddressingChoice::Auto,
            declared_range: None,
            span: EMPTY_SPAN,
            spanned: 0,
        }
    }

    /// Reserve capacity for `n` edges, weighted or not (untouched
    /// capacity is address space, not resident memory).
    pub fn with_capacity(mode: NeighborMode, n: usize) -> Self {
        let mut b = GraphBuilder::new(mode);
        b.edges.reserve(n);
        b.weights.reserve(n);
        b
    }

    /// Override the automatic addressing choice.
    pub fn addressing(mut self, choice: AddressingChoice) -> Self {
        self.addressing = choice;
        self
    }

    /// Declare the identifier range up front: identifiers are
    /// `base..base + count`. Needed when the graph has isolated vertices
    /// at the extremes of the range (the paper's loaders get the range
    /// from file headers, e.g. DIMACS `p sp n m`).
    pub fn declare_id_range(mut self, base: VertexId, count: u32) -> Self {
        self.declared_range = Some((base, count));
        self
    }

    /// Add an unweighted directed edge between external identifiers.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        debug_assert!(self.weighted != Some(true), "mixed weighted/unweighted edges");
        self.weighted = Some(false);
        self.edges.push((src, dst));
    }

    /// Add a weighted directed edge between external identifiers.
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, w: Weight) {
        debug_assert!(self.weighted != Some(false), "mixed weighted/unweighted edges");
        self.weighted = Some(true);
        self.edges.push((src, dst));
        self.weights.push(w);
    }

    /// Append edges a loader parsed in bulk, in order; `weights` is empty
    /// for unweighted edges, else one per edge, and `span` is the smallest
    /// and the largest id in `edges`.
    pub(crate) fn extend(
        &mut self,
        edges: &[(VertexId, VertexId)],
        weights: &[Weight],
        span: (VertexId, VertexId),
    ) {
        let weighted = !weights.is_empty();
        debug_assert!(!weighted || weights.len() == edges.len(), "one weight per edge");
        self.decode_edges(weighted, |out| {
            out.extend_from_slice(edges);
            span
        });
        self.weights.extend_from_slice(weights);
    }

    /// Append edges a loader decodes straight into the edge vector:
    /// `decode` pushes them in order and returns the smallest and the
    /// largest id among those it pushed — [`GraphBuilder::extend`]'s
    /// span, with the count being what `decode` pushed. When `weighted`,
    /// their weights follow, in the same order, through
    /// [`GraphBuilder::decode_weights`].
    pub(crate) fn decode_edges(
        &mut self,
        weighted: bool,
        decode: impl FnOnce(&mut Vec<(VertexId, VertexId)>) -> (VertexId, VertexId),
    ) {
        let before = self.edges.len();
        let span = decode(&mut self.edges);
        let added = self.edges.len() - before;
        if added == 0 {
            return;
        }
        debug_assert!(self.weighted != Some(!weighted), "mixed weighted/unweighted edges");
        self.weighted = Some(weighted);
        self.span = (self.span.0.min(span.0), self.span.1.max(span.1));
        self.spanned += added;
    }

    /// Append the weights of edges [`GraphBuilder::decode_edges`] took as
    /// weighted, decoded straight into the weight vector in edge order.
    pub(crate) fn decode_weights(&mut self, decode: impl FnOnce(&mut Vec<Weight>)) {
        decode(&mut self.weights);
        debug_assert!(self.weights.len() <= self.edges.len(), "one weight per edge");
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalise into an immutable [`Graph`].
    ///
    /// Nothing is copied on the way: identifiers are validated and
    /// translated in place in the one edge vector, and each retained
    /// direction is one stable counting sort over it — keyed on the source
    /// for out-edges, on the target for in-edges — the two running as
    /// concurrent tasks on the `ipregel-par` pool. Each task writes only
    /// its own CSR and both only read the edges, so the result does not
    /// depend on how they interleave (docs/INTERNALS.md, "Loading: scanner
    /// and builder").
    pub fn build(mut self) -> Result<Graph, GraphError> {
        // Re-check weightedness defensively (debug_asserts vanish in release).
        if self.weighted == Some(true) && self.weights.len() != self.edges.len() {
            return Err(GraphError::MixedWeightedness);
        }

        let span = (self.spanned == self.edges.len()).then_some(self.span);
        let (base, count) = match self.declared_range {
            Some(r) => r,
            None => range_of(span.unwrap_or_else(|| id_span(&self.edges)))?,
        };
        if count == 0 {
            return Err(GraphError::EmptyGraph);
        }

        let map = choose_map(self.addressing, base, count)?;
        if map.slots() > u32::MAX as usize {
            return Err(GraphError::TooManyVertices(map.slots() as u64));
        }

        // Translate endpoints to internal slots, validating the range. Only
        // offset mapping moves an id; an inferred range holds every id, and
        // a declared one does when the loader's span lies inside it.
        let inside = self.declared_range.is_none()
            || span.is_some_and(|(lo, hi)| map.contains(lo) && map.contains(hi));
        if !inside || map.mode() == AddressingMode::Offset {
            for edge in &mut self.edges {
                for id in [edge.0, edge.1] {
                    if !map.contains(id) {
                        return Err(GraphError::IdOutOfRange { id, base, count: u64::from(count) });
                    }
                }
                *edge = (map.index_of(edge.0), map.index_of(edge.1));
            }
        }

        let slots = map.slots();
        let edges = self.edges.as_slice();
        let weights = (self.weighted == Some(true)).then_some(self.weights.as_slice());
        let out_csr = || Csr::from_edges(slots, edges, weights);
        let in_csr = || Csr::from_edges_by(slots, edges, weights, |(s, d)| (d, s));
        let (out, incoming, out_degrees) = match self.mode {
            NeighborMode::OutOnly => (Some(out_csr()), None, None),
            NeighborMode::Both => {
                let (out, incoming) = ipregel_par::join(out_csr, in_csr);
                (Some(out), Some(incoming), None)
            }
            NeighborMode::InOnly => {
                let mut degrees = vec![0u32; slots];
                for &(s, _) in edges {
                    degrees[s as usize] += 1;
                }
                (None, Some(in_csr()), Some(degrees))
            }
        };
        Ok(Graph::from_parts(map, out, incoming, out_degrees, edges.len() as u64))
    }
}

/// The smallest and the largest endpoint in `edges`.
fn id_span(edges: &[(VertexId, VertexId)]) -> (VertexId, VertexId) {
    edges.iter().fold(EMPTY_SPAN, |(lo, hi), &(s, d)| (lo.min(s).min(d), hi.max(s).max(d)))
}

/// `(base, count)` of the ids from `min` to `max`; no edges have no range.
fn range_of((min, max): (VertexId, VertexId)) -> Result<(VertexId, u32), GraphError> {
    if min > max {
        return Err(GraphError::EmptyGraph);
    }
    let count = u64::from(max) - u64::from(min) + 1;
    if count > u64::from(u32::MAX) {
        return Err(GraphError::TooManyVertices(count));
    }
    Ok((min, count as u32))
}

fn choose_map(
    choice: AddressingChoice,
    base: VertexId,
    count: u32,
) -> Result<AddressMap, GraphError> {
    match choice {
        AddressingChoice::Force(AddressingMode::Direct) => {
            if base != 0 {
                return Err(GraphError::DirectMappingNeedsZeroBase { min_id: base });
            }
            Ok(AddressMap::direct(count))
        }
        AddressingChoice::Force(AddressingMode::Offset) => Ok(AddressMap::offset(base, count)),
        AddressingChoice::Force(AddressingMode::DesolateMemory) => {
            Ok(AddressMap::desolate(base, count))
        }
        AddressingChoice::Auto => {
            if base == 0 {
                Ok(AddressMap::direct(count))
            } else if base <= DESOLATE_ABS_LIMIT || u64::from(base) * 100 <= u64::from(count) {
                Ok(AddressMap::desolate(base, count))
            } else {
                Ok(AddressMap::offset(base, count))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle(mode: NeighborMode) -> Graph {
        let mut b = GraphBuilder::new(mode);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.build().unwrap()
    }

    #[test]
    fn zero_based_graph_gets_direct_mapping() {
        let g = triangle(NeighborMode::OutOnly);
        assert_eq!(g.address_map().mode(), AddressingMode::Direct);
        assert_eq!(g.num_slots(), 3);
    }

    #[test]
    fn one_based_graph_gets_desolate_memory() {
        // Both paper datasets are 1-based and processed with "offset
        // mapping with desolate memory" (Section 7.1.3).
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let g = b.build().unwrap();
        assert_eq!(g.address_map().mode(), AddressingMode::DesolateMemory);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_slots(), 4);
        assert_eq!(g.out_neighbors(g.index_of(1)), &[2]);
    }

    #[test]
    fn large_base_falls_back_to_offset() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_edge(2_000_000, 2_000_001);
        let g = b.build().unwrap();
        assert_eq!(g.address_map().mode(), AddressingMode::Offset);
        assert_eq!(g.num_slots(), 2);
    }

    #[test]
    fn forcing_direct_on_offset_ids_errors() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly)
            .addressing(AddressingChoice::Force(AddressingMode::Direct));
        b.add_edge(5, 6);
        match b.build() {
            Err(GraphError::DirectMappingNeedsZeroBase { min_id: 5 }) => {}
            other => panic!("expected DirectMappingNeedsZeroBase, got {other:?}"),
        }
    }

    #[test]
    fn in_edges_are_reversed_out_edges() {
        let g = triangle(NeighborMode::Both);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.in_neighbors(0), &[2]);
        assert_eq!(g.in_neighbors(1), &[0]);
        assert_eq!(g.in_degree(2), 1);
    }

    #[test]
    fn in_only_mode_still_knows_out_degrees() {
        let g = triangle(NeighborMode::InOnly);
        assert!(!g.has_out_edges());
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.out_degree(2), 1);
    }

    #[test]
    fn reversed_weights_follow_their_edge() {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        b.add_weighted_edge(0, 1, 10);
        b.add_weighted_edge(2, 1, 20);
        let g = b.build().unwrap();
        // in-neighbours of 1 are {0, 2} with weights {10, 20}.
        let ins = g.in_neighbors(1);
        let ws = g.in_csr().unwrap().weights_of(1).unwrap();
        let mut pairs: Vec<_> = ins.iter().zip(ws).map(|(&v, &w)| (v, w)).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(0, 10), (2, 20)]);
    }

    #[test]
    fn with_capacity_reserves_for_weighted_edges_too() {
        let b = GraphBuilder::with_capacity(NeighborMode::OutOnly, 1000);
        assert!(b.edges.capacity() >= 1000 && b.weights.capacity() >= 1000);
    }

    #[test]
    fn declared_range_allows_isolated_extremes() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly).declare_id_range(0, 10);
        b.add_edge(3, 4);
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.out_degree(9), 0);
    }

    #[test]
    fn a_loaders_span_gives_the_range_until_an_edge_comes_by_hand() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.extend(&[(3, 5), (4, 3)], &[], (3, 5));
        b.extend(&[], &[], EMPTY_SPAN);
        let g = b.clone().build().unwrap();
        assert_eq!((g.address_map().base(), g.num_vertices()), (3, 3));
        // An edge outside the loader's span, which the span cannot cover.
        b.add_edge(9, 3);
        assert_eq!(b.build().unwrap().num_vertices(), 7);
    }

    #[test]
    fn a_declared_range_is_checked_unless_the_span_lies_inside() {
        for (span, ok) in [((1, 3), true), ((1, 4), false)] {
            let mut b = GraphBuilder::new(NeighborMode::OutOnly).declare_id_range(1, 3);
            b.extend(&[(1, span.1), (2, 3)], &[], span);
            match b.build() {
                Ok(g) => assert!(ok && g.out_neighbors(1) == [3]),
                Err(GraphError::IdOutOfRange { id: 4, .. }) => assert!(!ok),
                Err(e) => panic!("{e}"),
            }
        }
    }

    #[test]
    fn out_of_declared_range_errors() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly).declare_id_range(0, 3);
        b.add_edge(1, 5);
        assert!(matches!(b.build(), Err(GraphError::IdOutOfRange { id: 5, .. })));
    }

    #[test]
    fn empty_builder_errors() {
        let b = GraphBuilder::new(NeighborMode::OutOnly);
        assert!(matches!(b.build(), Err(GraphError::EmptyGraph)));
    }

    #[test]
    fn self_loops_and_parallel_edges_are_preserved() {
        // Static graphs are stored verbatim; dedup is the loader's business.
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.out_neighbors(0), &[0, 1, 1]);
        assert_eq!(g.num_edges(), 3);
    }
}
