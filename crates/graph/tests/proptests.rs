//! Property tests over the graph substrate: builder/CSR invariants,
//! addressing laws, loader/writer round-trips, transform algebra, and
//! the relabel/compress differential against the implementations they
//! replaced ([`reference`]).

use std::collections::HashSet;
use std::io::Cursor;

use ipregel_graph::builder::AddressingChoice;
use ipregel_graph::loaders::{
    load_edge_list, read_binary, write_binary, write_edge_list,
};
use ipregel_graph::transform::{degree_relabeling, relabel_graph, symmetrize};
use ipregel_graph::{AddressMap, AddressingMode, Csr, Graph, GraphBuilder, NeighborMode};
use proptest::prelude::*;

/// `relabel_graph` as a rebuild through `GraphBuilder` and
/// `CsrCompact::from_csr` as one sequential pass — the bodies the
/// permutation copy and the split encode replaced, kept as the oracle
/// (the `loader_differential.rs` pattern): the new functions must
/// produce the same graph and the same bytes, whatever the pool size.
mod reference {
    use std::cmp::Reverse;

    use ipregel_graph::csr_compact::write_varint;
    use ipregel_graph::transform::Relabeling;
    use ipregel_graph::{Csr, Graph, GraphBuilder, GraphError, NeighborMode, VertexId};

    /// Old ids in new-id order: descending total degree, ties by
    /// ascending old id.
    pub fn degree_order(g: &Graph) -> Vec<VertexId> {
        let map = g.address_map();
        let mut order: Vec<(VertexId, u64)> = map
            .live_slots()
            .map(|v| {
                let deg = u64::from(g.out_degree(v))
                    + if g.has_in_edges() { u64::from(g.in_degree(v)) } else { 0 };
                (map.id_of(v), deg)
            })
            .collect();
        order.sort_by_key(|&(old, deg)| (Reverse(deg), old));
        order.into_iter().map(|(old, _)| old).collect()
    }

    pub fn relabel_graph(g: &Graph, r: &Relabeling) -> Result<Graph, GraphError> {
        let mode = match (g.has_out_edges(), g.has_in_edges()) {
            (true, true) => NeighborMode::Both,
            (true, false) => NeighborMode::OutOnly,
            (false, true) => NeighborMode::InOnly,
            (false, false) => unreachable!("builder always retains at least one direction"),
        };
        let map = g.address_map();
        let mut b = GraphBuilder::with_capacity(mode, g.num_edges() as usize)
            .declare_id_range(0, r.len() as u32);
        if g.has_out_edges() {
            for v in map.live_slots() {
                let src = r.new_id(map.id_of(v));
                let ws = g.out_weights(v);
                for (i, &u) in g.out_neighbors(v).iter().enumerate() {
                    let dst = r.new_id(map.id_of(u));
                    match ws {
                        Some(ws) => b.add_weighted_edge(src, dst, ws[i]),
                        None => b.add_edge(src, dst),
                    }
                }
            }
        } else {
            let in_csr = g.in_csr().expect("in-adjacency retained");
            for v in map.live_slots() {
                let dst = r.new_id(map.id_of(v));
                let ws = in_csr.weights_of(v);
                for (i, &u) in g.in_neighbors(v).iter().enumerate() {
                    let src = r.new_id(map.id_of(u));
                    match ws {
                        Some(ws) => b.add_weighted_edge(src, dst, ws[i]),
                        None => b.add_edge(src, dst),
                    }
                }
            }
        }
        b.build()
    }

    /// The four arrays of a `CsrCompact`.
    #[derive(Debug, PartialEq, Eq)]
    pub struct Compact {
        pub offsets: Vec<u64>,
        pub starts: Vec<u32>,
        pub data: Vec<u8>,
        pub weights: Option<Vec<u32>>,
    }

    pub fn compress(csr: &Csr) -> Compact {
        let slots = csr.num_slots();
        let offsets = csr.offsets().to_vec();
        let mut starts = Vec::with_capacity(slots + 1);
        let mut data = Vec::new();
        let mut weights = csr.is_weighted().then(|| Vec::with_capacity(csr.num_edges() as usize));
        let mut sorted: Vec<(u32, u32)> = Vec::new();
        starts.push(0u32);
        for v in 0..slots as u32 {
            let neighbors = csr.neighbors(v);
            sorted.clear();
            match csr.weights_of(v) {
                Some(ws) => sorted.extend(neighbors.iter().copied().zip(ws.iter().copied())),
                None => sorted.extend(neighbors.iter().map(|&n| (n, 0))),
            }
            sorted.sort_by_key(|&(n, _)| n);
            let mut prev = 0u32;
            for (i, &(n, w)) in sorted.iter().enumerate() {
                let delta = if i == 0 { n } else { n - prev };
                write_varint(&mut data, u64::from(delta));
                prev = n;
                if let Some(ws) = weights.as_mut() {
                    ws.push(w);
                }
            }
            starts.push(u32::try_from(data.len()).expect("test streams stay far below 4 GiB"));
        }
        Compact { offsets, starts, data, weights }
    }
}

fn arb_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..200, 0u32..200), 1..400)
}

fn arb_based_edges() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (0u32..5000, arb_edges()).prop_map(|(base, edges)| {
        (base, edges.into_iter().map(|(u, v)| (u + base, v + base)).collect())
    })
}

/// Everything observable about a graph: addressing, both adjacency
/// directions array for array, out-degrees (the only trace of the out
/// direction in `InOnly`), and the counts.
fn assert_same_graph(new: &Graph, old: &Graph) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.address_map(), old.address_map());
    prop_assert_eq!(new.out_adj(), old.out_adj());
    prop_assert_eq!(new.in_adj(), old.in_adj());
    prop_assert_eq!(new.num_edges(), old.num_edges());
    prop_assert_eq!(new.num_vertices(), old.num_vertices());
    prop_assert_eq!(new.is_weighted(), old.is_weighted());
    for v in old.address_map().live_slots() {
        prop_assert_eq!(new.out_degree(v), old.out_degree(v), "out-degree of slot {}", v);
    }
    Ok(())
}

/// Hold `degree_relabeling`, `relabel_graph` and `Graph::compress` on
/// `g` against [`reference`].
fn assert_transforms_match_reference(g: &Graph) -> Result<(), TestCaseError> {
    let r = degree_relabeling(g);
    prop_assert_eq!(&r, &degree_relabeling(g));
    prop_assert_eq!(r.len(), g.num_vertices());
    prop_assert_eq!(r.iter().map(|(old, _)| old).collect::<Vec<_>>(), reference::degree_order(g));
    for (old, new) in r.iter() {
        prop_assert_eq!(r.new_id(old), new);
        prop_assert_eq!(r.old_id(new), old);
    }

    let relabelled = relabel_graph(g, &r).expect("relabel");
    assert_same_graph(&relabelled, &reference::relabel_graph(g, &r).expect("reference relabel"))?;

    for plain in [g, &relabelled] {
        let compressed = plain.clone().compress().expect("compress");
        prop_assert_eq!(compressed.address_map(), plain.address_map());
        prop_assert_eq!(compressed.num_edges(), plain.num_edges());
        let directions = [
            (compressed.out_adj(), plain.out_csr()),
            (compressed.in_adj(), plain.in_csr()),
        ];
        for (adj, csr) in directions {
            prop_assert_eq!(adj.is_some(), csr.is_some());
            if let (Some(adj), Some(csr)) = (adj, csr) {
                assert_same_bytes(adj.compact().expect("compressed"), csr)?;
            }
        }
        for v in plain.address_map().live_slots() {
            prop_assert_eq!(compressed.out_degree(v), plain.out_degree(v));
        }
    }
    Ok(())
}

fn assert_same_bytes(
    compact: &ipregel_graph::CsrCompact,
    csr: &Csr,
) -> Result<(), TestCaseError> {
    let want = reference::compress(csr);
    let got = reference::Compact {
        offsets: compact.offsets().to_vec(),
        starts: compact.starts().to_vec(),
        data: compact.data().to_vec(),
        weights: compact.weights().map(<[u32]>::to_vec),
    };
    prop_assert_eq!(got, want);
    Ok(())
}

/// A multigraph over ids `base..base + n` under a forced addressing
/// mode. Edge endpoints are `(u, v)` offsets into the range; the weight
/// of edge `i` depends on `i`, so parallel edges carry different weights
/// and their order shows.
fn build_case(
    addressing: AddressingMode,
    base: u32,
    n: u32,
    edges: &[(u32, u32)],
    weighted: bool,
    mode: NeighborMode,
) -> Graph {
    let mut b = GraphBuilder::new(mode)
        .addressing(AddressingChoice::Force(addressing))
        .declare_id_range(base, n);
    for (i, &(u, v)) in edges.iter().enumerate() {
        if weighted {
            b.add_weighted_edge(base + u, base + v, (i as u32 * 7 + 3) % 11);
        } else {
            b.add_edge(base + u, base + v);
        }
    }
    b.build().expect("declared ranges build, with or without edges")
}

const MODES: [NeighborMode; 3] = [NeighborMode::OutOnly, NeighborMode::InOnly, NeighborMode::Both];

fn build(edges: &[(u32, u32)], mode: NeighborMode) -> ipregel_graph::Graph {
    let mut b = GraphBuilder::new(mode);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build().expect("non-empty edge lists build")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn csr_preserves_every_edge((base, edges) in arb_based_edges()) {
        let g = build(&edges, NeighborMode::OutOnly);
        prop_assert_eq!(g.num_edges(), edges.len() as u64);
        // Multiset of edges in == multiset out.
        let mut expect: Vec<(u32, u32)> = edges.clone();
        expect.sort_unstable();
        let mut got = Vec::new();
        for v in g.address_map().live_slots() {
            for &u in g.out_neighbors(v) {
                got.push((g.id_of(v), g.id_of(u)));
            }
        }
        got.sort_unstable();
        prop_assert_eq!(got, expect);
        let _ = base;
    }

    #[test]
    fn in_csr_is_the_transpose((_, edges) in arb_based_edges()) {
        let g = build(&edges, NeighborMode::Both);
        let mut fwd = Vec::new();
        let mut bwd = Vec::new();
        for v in g.address_map().live_slots() {
            for &u in g.out_neighbors(v) {
                fwd.push((v, u));
            }
            for &u in g.in_neighbors(v) {
                bwd.push((u, v));
            }
        }
        fwd.sort_unstable();
        bwd.sort_unstable();
        prop_assert_eq!(fwd, bwd);
    }

    #[test]
    fn degrees_sum_to_edge_count((_, edges) in arb_based_edges()) {
        let g = build(&edges, NeighborMode::Both);
        let out_sum: u64 = g.address_map().live_slots().map(|v| u64::from(g.out_degree(v))).sum();
        let in_sum: u64 = g.address_map().live_slots().map(|v| u64::from(g.in_degree(v))).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        prop_assert_eq!(in_sum, g.num_edges());
    }

    #[test]
    fn addressing_round_trips(base in 0u32..1_000_000, n in 1u32..10_000) {
        for map in [
            AddressMap::offset(base, n),
            AddressMap::desolate(base.min(2048), n),
        ] {
            for id in [map.base(), map.base() + n / 2, map.base() + n - 1] {
                prop_assert_eq!(map.id_of(map.index_of(id)), id);
                prop_assert!(map.contains(id));
            }
            prop_assert!(!map.contains(map.base().wrapping_sub(1)) || map.base() == 0);
            prop_assert_eq!(map.slots(), map.num_vertices() as usize + map.wasted_slots());
        }
    }

    #[test]
    fn forced_addressing_modes_agree_on_topology((_, edges) in arb_based_edges()) {
        let modes = [
            AddressingChoice::Force(AddressingMode::Offset),
            AddressingChoice::Force(AddressingMode::DesolateMemory),
        ];
        let graphs: Vec<_> = modes
            .iter()
            .map(|&c| {
                let mut b = GraphBuilder::new(NeighborMode::OutOnly).addressing(c);
                for &(u, v) in &edges {
                    b.add_edge(u, v);
                }
                b.build().unwrap()
            })
            .collect();
        let (a, b) = (&graphs[0], &graphs[1]);
        prop_assert_eq!(a.num_vertices(), b.num_vertices());
        for slot in a.address_map().live_slots() {
            let id = a.id_of(slot);
            let na: Vec<u32> = a.out_neighbors(a.index_of(id)).iter().map(|&x| a.id_of(x)).collect();
            let nb: Vec<u32> = b.out_neighbors(b.index_of(id)).iter().map(|&x| b.id_of(x)).collect();
            prop_assert_eq!(na, nb, "vertex {}", id);
        }
    }

    #[test]
    fn binary_format_round_trips((base, edges) in arb_based_edges()) {
        let max = edges.iter().map(|&(u, v)| u.max(v)).max().unwrap();
        let n = max - base + 1;
        let mut file = Vec::new();
        write_binary(&mut file, base, n, &edges, None).unwrap();
        let g = read_binary(&file[..], NeighborMode::OutOnly).unwrap();
        let direct = build(&edges, NeighborMode::OutOnly);
        prop_assert_eq!(g.num_edges(), direct.num_edges());
        for slot in direct.address_map().live_slots() {
            let id = direct.id_of(slot);
            let a: Vec<u32> = direct.out_neighbors(slot).iter().map(|&x| direct.id_of(x)).collect();
            let b: Vec<u32> = g.out_neighbors(g.index_of(id)).iter().map(|&x| g.id_of(x)).collect();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn text_writer_round_trips((_, edges) in arb_based_edges()) {
        let g = build(&edges, NeighborMode::OutOnly);
        let mut text = Vec::new();
        write_edge_list(&mut text, &g).unwrap();
        let g2 = load_edge_list(Cursor::new(text), NeighborMode::OutOnly).unwrap();
        prop_assert_eq!(g.num_edges(), g2.num_edges());
    }

    #[test]
    fn symmetrize_doubles_and_contains_reverses(edges in arb_edges()) {
        let mut s = edges.clone();
        symmetrize(&mut s);
        prop_assert_eq!(s.len(), edges.len() * 2);
        let set: HashSet<(u32, u32)> = s.iter().copied().collect();
        for (u, v) in edges {
            prop_assert!(set.contains(&(u, v)) && set.contains(&(v, u)));
        }
    }

    #[test]
    fn relabel_and_compress_match_the_reference(
        addressing in 0usize..3,
        base in 1u32..40,
        n in 1u32..48,
        pads in (0u32..4, 0u32..4),
        raw in prop::collection::vec((0u32..1000, 0u32..1000, 0u32..8), 0..160),
        weighted in any::<bool>(),
        mode in 0usize..3,
    ) {
        // Direct needs base 0; a large base with a small count is what
        // picks offset mapping in the wild.
        let (addressing, base) = [
            (AddressingMode::Direct, 0),
            (AddressingMode::DesolateMemory, base),
            (AddressingMode::Offset, base * 1000),
        ][addressing];
        // Endpoints land in `lo..hi`: the `pads` ids at either end of
        // the range stay isolated.
        let lo = pads.0.min(n - 1);
        let hi = (n - pads.1.min(n - 1)).max(lo + 1);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(raw.len());
        for &(u, v, kind) in &raw {
            let u = lo + u % (hi - lo);
            let edge = match (kind, edges.last()) {
                (0, _) => (u, u),                 // self-loop
                (1, Some(&previous)) => previous, // parallel edge
                _ => (u, lo + v % (hi - lo)),
            };
            edges.push(edge);
        }
        let g = build_case(addressing, base, n, &edges, weighted, MODES[mode]);
        assert_transforms_match_reference(&g)?;
    }
}

/// Run `check` on pools of one, two and four workers: the split points
/// of the relabel copy and the encode depend on the data alone, so the
/// bytes may not depend on who runs which half.
fn on_pools(check: impl Fn() + Sync) {
    for threads in [1, 2, 4] {
        let pool = ipregel_par::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        pool.install(&check);
    }
}

#[test]
fn a_hub_holding_most_edges_leaves_one_half_without_rows() {
    // The edge midpoint falls inside the hub's row, so one half of the
    // split is the hub alone or nothing at all — with the hub as the
    // first slot, the last slot, and the only vertex.
    for (n, hub) in [(9u32, 0u32), (9, 8), (1, 0)] {
        let mut edges: Vec<(u32, u32)> = (0..40).map(|i| (hub, (i * 5) % n)).collect();
        edges.extend((0..n).filter(|&v| v != hub).map(|v| (v, hub)));
        for weighted in [false, true] {
            for mode in MODES {
                let g = build_case(AddressingMode::Direct, 0, n, &edges, weighted, mode);
                on_pools(|| assert_transforms_match_reference(&g).expect("hub graph"));
            }
        }
    }
}

#[test]
fn slots_without_edges_relabel_and_compress_to_empty_streams() {
    for (addressing, base) in
        [(AddressingMode::Direct, 0), (AddressingMode::DesolateMemory, 3), (AddressingMode::Offset, 7000)]
    {
        for mode in MODES {
            let g = build_case(addressing, base, 5, &[], false, mode);
            on_pools(|| assert_transforms_match_reference(&g).expect("edgeless graph"));
            let compressed = g.clone().compress().expect("compress");
            let adj = compressed.out_adj().or(compressed.in_adj()).expect("one direction");
            let compact = adj.compact().expect("compressed");
            assert!(compact.data().is_empty());
            assert_eq!(compact.starts(), vec![0u32; g.num_slots() + 1]);
        }
    }
}
