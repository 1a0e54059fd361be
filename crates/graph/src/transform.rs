//! Whole-graph transformations.
//!
//! iPregel processes static graphs (Section 3.3); some need reshaping
//! *before* they become static — KONECT's undirected files list each edge
//! once, and analyses like k-core or Hashmin-as-connected-components want
//! the symmetrised graph. [`symmetrize`] operates on a raw edge list (the
//! form loaders and generators produce) so the symmetrised graph is built
//! exactly once.
//!
//! The one transform of a *built* graph is the degree relabelling
//! ([`degree_relabeling`], [`relabel_graph`]): renaming vertices permutes
//! the CSR it already has, so that is what it does — rows are copied to
//! their new slots, no edge list comes back into being.


use crate::csr::{Csr, Graph, Weight};
use crate::error::GraphError;
use crate::ids::{AddressMap, VertexId, VertexIndex};

/// Add the reverse of every edge (weights copied). Does not deduplicate.
pub fn symmetrize(edges: &mut Vec<(VertexId, VertexId)>) {
    let n = edges.len();
    edges.reserve(n);
    for i in 0..n {
        let (u, v) = edges[i];
        edges.push((v, u));
    }
}

/// A bijective vertex renaming: old external ids ↔ new dense ids
/// `0..n`. Produced by [`degree_relabeling`]; applied by
/// [`relabel_graph`]; carried through a run (`RunOutput`) so results
/// surface under the ids the user supplied.
///
/// Old ids are a consecutive range (Section 3.3), so both directions are
/// plain vectors: a lookup is one subtraction and one load, never a hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relabeling {
    /// Smallest old id.
    base: VertexId,
    /// `forward[old - base]` is the new id of `old`.
    forward: Vec<VertexId>,
    /// `inverse[new]` is the old id renamed to `new`.
    inverse: Vec<VertexId>,
}

impl Relabeling {
    /// Number of vertices renamed.
    pub fn len(&self) -> usize {
        self.inverse.len()
    }

    /// Whether the relabelling is empty.
    pub fn is_empty(&self) -> bool {
        self.inverse.is_empty()
    }

    /// The new id of old vertex `old`.
    ///
    /// # Panics
    /// If `old` is not part of the relabelled graph.
    pub fn new_id(&self, old: VertexId) -> VertexId {
        let at = old.checked_sub(self.base).map(|i| i as usize);
        *at.and_then(|i| self.forward.get(i)).expect("id not in relabelled graph")
    }

    /// The old id of new vertex `new`.
    ///
    /// # Panics
    /// If `new >= len()`.
    pub fn old_id(&self, new: VertexId) -> VertexId {
        self.inverse[new as usize]
    }

    /// `(old, new)` pairs in ascending-new (= descending-degree) order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.inverse.iter().enumerate().map(|(new, &old)| (old, new as VertexId))
    }
}

/// Compute the descending-degree permutation of `g`'s vertices: new id 0
/// is the highest-degree vertex. Degree is total (out + in when
/// retained); ties break by ascending old id, so the result is fully
/// deterministic. (A total degree past `u32::MAX` — more than four
/// billion edges on one vertex — orders as `u32::MAX`.)
///
/// Why this ordering: after relabelling, a vertex's neighbours skew
/// toward the small, densely-populated end of the id space, so the
/// sorted-list *gaps* that [`crate::csr_compact`] varint-encodes get
/// smaller and the per-edge byte count drops. The same ordering also
/// front-loads heavy vertices, giving the degree-aware scheduler a
/// smoother offsets prefix to cut.
pub fn degree_relabeling(g: &Graph) -> Relabeling {
    let map = g.address_map();
    // One `u64` per vertex, `!degree` above the old id: ascending key
    // order is descending degree, then ascending id, and distinct ids
    // make the keys distinct — an unstable sort has nothing to reorder.
    let mut keys: Vec<u64> = map
        .live_slots()
        .map(|v| {
            let deg = u64::from(g.out_degree(v))
                + if g.has_in_edges() { u64::from(g.in_degree(v)) } else { 0 };
            let deg = u32::try_from(deg).unwrap_or(u32::MAX);
            u64::from(!deg) << 32 | u64::from(map.id_of(v))
        })
        .collect();
    keys.sort_unstable();
    let base = map.base();
    let inverse: Vec<VertexId> = keys.into_iter().map(|key| key as VertexId).collect();
    let mut forward = vec![0; inverse.len()];
    for (new, &old) in inverse.iter().enumerate() {
        forward[(old - base) as usize] = new as VertexId;
    }
    Relabeling { base, forward, inverse }
}

/// `g` under the renaming `r`, preserving neighbour mode, weights, and
/// parallel edges. The result's external ids are `r`'s new ids (dense
/// from 0, hence direct mapping); translate results back with
/// [`Relabeling::old_id`]. Every vertex keeps a slot — edgeless ones
/// survive as isolated vertices, so vertex counts (and thus e.g.
/// PageRank's `1/n` terms) are unchanged.
///
/// A relabelled CSR is a permutation of the old one, and is built as one
/// (docs/INTERNALS.md, "Transforms: relabel and compress"): the row of
/// new slot `perm[v]` is old row `v` with every target sent through
/// `perm`, in its old order. With both directions retained the out-rows
/// are copied and the in-rows are their transpose taken in old-slot
/// order — *not* a copy of the old in-rows, whose order is that of the
/// file the graph was loaded from. Both are what pushing every edge of
/// the old out-CSR through [`crate::GraphBuilder`] again would give, bit
/// for bit, without the edge list.
///
/// The `Result` is the signature callers already unwrap; no input makes
/// it an `Err`.
///
/// # Panics
/// If `g` is compressed (relabel first, then compress — the relabelling
/// is what makes compression effective), or if `r` was not computed from
/// a graph with `g`'s id range.
pub fn relabel_graph(g: &Graph, r: &Relabeling) -> Result<Graph, GraphError> {
    assert!(!g.is_compressed(), "relabel_graph expects a plain graph; relabel before compressing");
    let map = g.address_map();
    assert!(
        r.base == map.base() && r.len() == g.num_vertices(),
        "relabelling was computed for a different id range"
    );
    // Old slot → new slot. Desolate slots hold no edge and are no edge's
    // target, so their entries are never read.
    let mut perm = vec![0 as VertexIndex; g.num_slots()];
    for v in map.live_slots() {
        perm[v as usize] = r.new_id(map.id_of(v));
    }
    // New slot → old slot, for walking rows in the order they are written.
    let old_slots: Vec<VertexIndex> = r.inverse.iter().map(|&old| map.index_of(old)).collect();

    let (out, incoming, out_degrees) = match (g.out_csr(), g.in_csr()) {
        (Some(out), Some(incoming)) => {
            let new_in = permuted_offsets(incoming.offsets(), &old_slots);
            let (out, incoming) = ipregel_par::join(
                || permute_rows(out, &perm, &old_slots),
                || transpose_permuted(out, &perm, map.live_slots(), new_in),
            );
            (Some(out), Some(incoming), None)
        }
        (Some(out), None) => (Some(permute_rows(out, &perm, &old_slots)), None, None),
        (None, Some(incoming)) => {
            let degrees = old_slots.iter().map(|&v| g.out_degree(v)).collect();
            (None, Some(permute_rows(incoming, &perm, &old_slots)), Some(degrees))
        }
        (None, None) => unreachable!("builder always retains at least one direction"),
    };
    let map = AddressMap::direct(r.len() as u32);
    Ok(Graph::from_parts(map, out, incoming, out_degrees, g.num_edges()))
}

/// Offsets of a CSR whose row `new` is row `old_slots[new]` of the CSR
/// `old` delimits.
fn permuted_offsets(old: &[u64], old_slots: &[VertexIndex]) -> Vec<u64> {
    let mut offsets = vec![0u64; old_slots.len() + 1];
    for (new, &v) in old_slots.iter().enumerate() {
        offsets[new + 1] = offsets[new] + (old[v as usize + 1] - old[v as usize]);
    }
    offsets
}

/// `csr` with its rows moved to their new slots and every target renamed:
/// new row `i` is old row `old_slots[i]` mapped through `perm`, weights
/// alongside. The two edge-balanced halves of the new rows are written
/// by concurrent tasks, each into its own side of one split.
fn permute_rows(csr: &Csr, perm: &[VertexIndex], old_slots: &[VertexIndex]) -> Csr {
    let offsets = permuted_offsets(csr.offsets(), old_slots);
    let edges = csr.num_edges() as usize;
    let mut targets = vec![0 as VertexIndex; edges];
    let mut weights = csr.is_weighted().then(|| vec![0 as Weight; edges]);

    let mid = Csr::edge_midpoint(&offsets);
    let cut = offsets[mid] as usize;
    let (rows_lo, rows_hi) = old_slots.split_at(mid);
    let (targets_lo, targets_hi) = targets.split_at_mut(cut);
    let (weights_lo, weights_hi) = weights.as_deref_mut().map(|w| w.split_at_mut(cut)).unzip();
    ipregel_par::join(
        || copy_rows(csr, perm, rows_lo, targets_lo, weights_lo),
        || copy_rows(csr, perm, rows_hi, targets_hi, weights_hi),
    );
    Csr::from_raw_parts(offsets, targets, weights)
}

/// Write `csr`'s rows `rows`, in that order and end to end, into
/// `targets` (renamed through `perm`) and `weights` (as they are).
fn copy_rows(
    csr: &Csr,
    perm: &[VertexIndex],
    rows: &[VertexIndex],
    targets: &mut [VertexIndex],
    mut weights: Option<&mut [Weight]>,
) {
    let mut at = 0;
    for &v in rows {
        let row = csr.neighbors(v);
        for (new, &old) in targets[at..at + row.len()].iter_mut().zip(row) {
            *new = perm[old as usize];
        }
        if let (Some(new), Some(old)) = (weights.as_deref_mut(), csr.weights_of(v)) {
            new[at..at + row.len()].copy_from_slice(old);
        }
        at += row.len();
    }
}

/// The transpose of the relabelled `out`: every edge `v → t` of `out`,
/// walked in old-slot order, lands in row `perm[t]` as `perm[v]` — the
/// stable scatter of `Csr::from_edges_by`, with `offsets[row]` as the
/// row's write cursor and the one-slot shift back afterwards. `offsets`
/// arrives holding the transposed rows' final offsets.
fn transpose_permuted(
    out: &Csr,
    perm: &[VertexIndex],
    live_slots: impl Iterator<Item = VertexIndex>,
    mut offsets: Vec<u64>,
) -> Csr {
    let slots = offsets.len() - 1;
    let mut targets = vec![0 as VertexIndex; out.num_edges() as usize];
    let mut weights = out.is_weighted().then(|| vec![0 as Weight; targets.len()]);
    for v in live_slots {
        let source = perm[v as usize];
        let row_weights = out.weights_of(v);
        for (i, &t) in out.neighbors(v).iter().enumerate() {
            let row = perm[t as usize] as usize;
            let at = offsets[row] as usize;
            targets[at] = source;
            if let (Some(w), Some(ws)) = (&mut weights, row_weights) {
                w[at] = ws[i];
            }
            offsets[row] += 1;
        }
    }
    offsets.copy_within(0..slots, 1);
    offsets[0] = 0;
    Csr::from_raw_parts(offsets, targets, weights)
}

 #[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphBuilder, NeighborMode};

    #[test]
    fn symmetrize_appends_reversals() {
        let mut e = vec![(0, 1), (2, 3)];
        symmetrize(&mut e);
        assert_eq!(e, vec![(0, 1), (2, 3), (1, 0), (3, 2)]);
    }

    #[test]
    fn degree_relabeling_orders_by_descending_degree() {
        // Star into 1 plus a pendant: total degrees 1:{in 3, out 1},
        // 0:{out 1, in 1}, 2..4 pendants. Derived from the graph itself.
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for (u, v) in [(0, 1), (2, 1), (3, 1), (1, 0), (4, 2)] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        let r = degree_relabeling(&g);
        assert_eq!(r.len(), g.num_vertices());
        // Highest total degree (vertex 1: 3 in + 1 out) gets new id 0.
        assert_eq!(r.old_id(0), 1);
        assert_eq!(r.new_id(1), 0);
        // Degrees must be nonincreasing along new ids; ties ascending old.
        let deg = |old: u32| {
            let v = g.index_of(old);
            g.out_degree(v) + g.in_degree(v)
        };
        let mut prev: Option<(u32, u32)> = None;
        for (old, new) in r.iter() {
            assert_eq!(r.old_id(new), old);
            if let Some((pdeg, pold)) = prev {
                let d = deg(old);
                assert!(d < pdeg || (d == pdeg && old > pold), "order violated at new id {new}");
            }
            prev = Some((deg(old), old));
        }
    }

    #[test]
    fn new_id_panics_outside_the_relabelled_range() {
        // The documented contract callers (the CLI's --source check,
        // `RunOutput::value_of`) rely on: ids below the base and past the
        // end are refused, not wrapped into the dense vector.
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_edge(10, 11);
        b.add_edge(11, 12);
        let r = degree_relabeling(&b.build().unwrap());
        for id in 10..=12 {
            assert_eq!(r.old_id(r.new_id(id)), id);
        }
        for id in [0, 9, 13, u32::MAX] {
            let outside = std::panic::catch_unwind(|| r.new_id(id));
            assert!(outside.is_err(), "new_id({id}) must panic");
        }
    }

    #[test]
    fn relabel_graph_preserves_structure_and_weights() {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for (u, v, w) in [(10, 11, 1), (11, 12, 2), (12, 10, 3), (10, 12, 4), (13, 10, 5)] {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build().unwrap();
        let r = degree_relabeling(&g);
        let rg = relabel_graph(&g, &r).unwrap();
        assert_eq!(rg.num_vertices(), g.num_vertices());
        assert_eq!(rg.num_edges(), g.num_edges());
        // Every old edge (with weight) exists under new names, and the
        // multiset sizes match, so the mapping is exact.
        for v in g.address_map().live_slots() {
            let src_old = g.id_of(v);
            let ws = g.out_weights(v).unwrap();
            for (i, &u) in g.out_neighbors(v).iter().enumerate() {
                let dst_old = g.id_of(u);
                let ns = rg.index_of(r.new_id(src_old));
                let expect_dst = rg.index_of(r.new_id(dst_old));
                let pos = rg
                    .out_neighbors(ns)
                    .iter()
                    .position(|&t| t == expect_dst)
                    .expect("edge survives relabelling");
                assert_eq!(rg.out_weights(ns).unwrap()[pos], ws[i]);
            }
        }
    }

    #[test]
    fn relabel_then_compress_round_trips_per_vertex() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        for (u, v) in [(5, 6), (6, 5), (5, 7), (7, 6), (6, 7), (5, 8), (8, 5)] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        let r = degree_relabeling(&g);
        let rg = relabel_graph(&g, &r).unwrap();
        let cg = rg.clone().compress().unwrap();
        assert!(cg.is_compressed());
        // Same degrees per original vertex through the rename, on both
        // the plain and the compact relabelled graphs.
        for v in g.address_map().live_slots() {
            let old = g.id_of(v);
            let nv = rg.index_of(r.new_id(old));
            assert_eq!(rg.out_degree(nv), g.out_degree(v));
            assert_eq!(cg.out_degree(nv), g.out_degree(v));
        }
        let back = cg.decompress();
        assert!(!back.is_compressed());
        for v in 0..back.num_slots() as u32 {
            let mut expect = rg.out_neighbors(v).to_vec();
            expect.sort_unstable();
            assert_eq!(back.out_neighbors(v), expect.as_slice());
        }
    }
}
