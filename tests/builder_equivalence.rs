//! `GraphBuilder::build` against a naive build written out here.
//!
//! The builder validates and translates in place, builds the in-CSR by
//! keying a counting sort on the target, uses the offsets array as its own
//! cursor, and builds the two directions as concurrent pool tasks. The
//! oracle does none of that: one `Vec` per slot, pushed to in insertion
//! order. Equal means equal offsets, targets, weights, out-degrees and
//! address map — so parallel edges and self-loops must sit where insertion
//! order puts them, at every pool size.

use ipregel_graph::builder::AddressingChoice;
use ipregel_graph::{
    AddressMap, AddressingMode, Csr, Graph, GraphBuilder, GraphError, NeighborMode,
};
use proptest::prelude::*;

const MODES: [NeighborMode; 3] = [NeighborMode::OutOnly, NeighborMode::InOnly, NeighborMode::Both];

const ADDRESSINGS: [AddressingChoice; 4] = [
    AddressingChoice::Auto,
    AddressingChoice::Force(AddressingMode::Direct),
    AddressingChoice::Force(AddressingMode::Offset),
    AddressingChoice::Force(AddressingMode::DesolateMemory),
];

/// What `build` must return for these inputs, from first principles.
struct Expected {
    map: AddressMap,
    /// Per slot, `(neighbour slot, weight)` in insertion order.
    out: Vec<Vec<(u32, u32)>>,
    incoming: Vec<Vec<(u32, u32)>>,
}

fn naive(
    edges: &[(u32, u32, u32)],
    declared: Option<(u32, u32)>,
    addressing: AddressingChoice,
) -> Result<Expected, String> {
    let (base, count) = match declared {
        Some(range) => range,
        None => {
            let ids = || edges.iter().flat_map(|&(s, d, _)| [s, d]);
            let (Some(min), Some(max)) = (ids().min(), ids().max()) else {
                return Err("EmptyGraph".into());
            };
            (min, max - min + 1)
        }
    };
    if count == 0 {
        return Err("EmptyGraph".into());
    }
    let map = match addressing {
        AddressingChoice::Force(AddressingMode::Direct) if base != 0 => {
            return Err(format!("DirectMappingNeedsZeroBase {base}"));
        }
        AddressingChoice::Force(AddressingMode::Direct) => AddressMap::direct(count),
        AddressingChoice::Force(AddressingMode::Offset) => AddressMap::offset(base, count),
        AddressingChoice::Force(AddressingMode::DesolateMemory) => {
            AddressMap::desolate(base, count)
        }
        // The builder's documented policy: direct from 0, desolate for a
        // small or proportionally small wasted prefix, offset otherwise.
        AddressingChoice::Auto if base == 0 => AddressMap::direct(count),
        AddressingChoice::Auto if base <= 1024 || u64::from(base) * 100 <= u64::from(count) => {
            AddressMap::desolate(base, count)
        }
        AddressingChoice::Auto => AddressMap::offset(base, count),
    };
    let mut out = vec![Vec::new(); map.slots()];
    let mut incoming = vec![Vec::new(); map.slots()];
    for &(s, d, w) in edges {
        for id in [s, d] {
            if id < base || u64::from(id) >= u64::from(base) + u64::from(count) {
                return Err(format!("IdOutOfRange {id}"));
            }
        }
        let (s, d) = (map.index_of(s), map.index_of(d));
        out[s as usize].push((d, w));
        incoming[d as usize].push((s, w));
    }
    Ok(Expected { map, out, incoming })
}

fn check_direction(
    csr: Option<&Csr>,
    expected: Option<&Vec<Vec<(u32, u32)>>>,
    weighted: bool,
    what: &str,
) -> Result<(), String> {
    let (csr, expected) = match (csr, expected) {
        (None, None) => return Ok(()),
        (Some(csr), Some(expected)) => (csr, expected),
        _ => return Err(format!("{what}: direction retained when it should not be, or not")),
    };
    let mut offsets = vec![0u64];
    for list in expected {
        offsets.push(offsets[offsets.len() - 1] + list.len() as u64);
    }
    if csr.offsets() != offsets {
        return Err(format!("{what}: offsets {:?}, expected {offsets:?}", csr.offsets()));
    }
    for (v, list) in expected.iter().enumerate() {
        let targets: Vec<u32> = list.iter().map(|&(t, _)| t).collect();
        let weights: Vec<u32> = list.iter().map(|&(_, w)| w).collect();
        let got = csr.neighbors(v as u32);
        if got != targets {
            return Err(format!("{what}: slot {v} holds {got:?}, expected {targets:?}"));
        }
        let got = csr.weights_of(v as u32);
        if got != weighted.then_some(&weights[..]) {
            return Err(format!("{what}: slot {v} weights {got:?}, expected {weights:?}"));
        }
    }
    Ok(())
}

fn check(
    built: &Result<Graph, GraphError>,
    expected: &Result<Expected, String>,
    mode: NeighborMode,
    weighted: bool,
) -> Result<(), String> {
    let (g, e) = match (built, expected) {
        (Ok(g), Ok(e)) => (g, e),
        (Err(got), Err(want)) => {
            let got = match got {
                GraphError::EmptyGraph => "EmptyGraph".to_string(),
                GraphError::IdOutOfRange { id, .. } => format!("IdOutOfRange {id}"),
                GraphError::DirectMappingNeedsZeroBase { min_id } => {
                    format!("DirectMappingNeedsZeroBase {min_id}")
                }
                other => format!("{other:?}"),
            };
            return if &got == want { Ok(()) } else { Err(format!("error {got}, expected {want}")) };
        }
        (Ok(_), Err(want)) => return Err(format!("built a graph, expected {want}")),
        (Err(got), Ok(_)) => return Err(format!("failed with {got}, expected a graph")),
    };
    if g.address_map() != &e.map {
        return Err(format!("address map {:?}, expected {:?}", g.address_map(), e.map));
    }
    let edges: usize = e.out.iter().map(Vec::len).sum();
    if g.num_edges() != edges as u64 {
        return Err(format!("{} edges, expected {edges}", g.num_edges()));
    }
    let wants_out = mode != NeighborMode::InOnly;
    let wants_in = mode != NeighborMode::OutOnly;
    check_direction(g.out_csr(), wants_out.then_some(&e.out), weighted, "out")?;
    check_direction(g.in_csr(), wants_in.then_some(&e.incoming), weighted, "in")?;
    for (v, list) in e.out.iter().enumerate() {
        let (got, want) = (g.out_degree(v as u32) as usize, list.len());
        if got != want {
            return Err(format!("out-degree of slot {v} is {got}, expected {want}"));
        }
    }
    Ok(())
}

fn build(
    edges: &[(u32, u32, u32)],
    weighted: bool,
    declared: Option<(u32, u32)>,
    addressing: AddressingChoice,
    mode: NeighborMode,
) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new(mode).addressing(addressing);
    if let Some((base, count)) = declared {
        b = b.declare_id_range(base, count);
    }
    for &(s, d, w) in edges {
        if weighted {
            b.add_weighted_edge(s, d, w);
        } else {
            b.add_edge(s, d);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Few distinct ids, so parallel edges and self-loops are the rule; a
    /// declared range that is sometimes too small, so validation fails on
    /// the first offender in insertion order.
    #[test]
    fn build_equals_the_naive_build(
        raw in prop::collection::vec((0u32..12, 0u32..12, 0u32..1000), 0..120),
        base in prop_oneof![
            Just(0u32), Just(1u32), Just(7u32), Just(1024u32), Just(5000u32), Just(100_000u32)
        ],
        declared in prop::option::of((0u32..3, 0u32..16)),
        weighted in any::<bool>(),
    ) {
        let edges: Vec<(u32, u32, u32)> =
            raw.iter().map(|&(s, d, w)| (s + base, d + base, w)).collect();
        let declared = declared.map(|(shift, count)| (base + shift, count));
        let pools: Vec<_> = [1, 2]
            .iter()
            .map(|&n| ipregel_par::ThreadPoolBuilder::new().num_threads(n).build().expect("pool"))
            .collect();
        for addressing in ADDRESSINGS {
            let expected = naive(&edges, declared, addressing);
            for mode in MODES {
                // Off-pool first (the global pool), then inside each sized pool.
                let build = || build(&edges, weighted, declared, addressing, mode);
                let mut builds = vec![("global pool", build())];
                for pool in &pools {
                    builds.push(("sized pool", pool.install(build)));
                }
                for (pool, built) in &builds {
                    // A builder that saw no edge does not know it is weighted.
                    if let Err(why) = check(built, &expected, mode, weighted && !edges.is_empty()) {
                        prop_assert!(
                            false,
                            "{:?} {:?} weighted={} declared={:?} on the {}: {}\nedges: {:?}",
                            mode, addressing, weighted, declared, pool, why, edges
                        );
                    }
                }
            }
        }
    }
}
