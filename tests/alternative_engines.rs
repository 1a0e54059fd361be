//! Cross-architecture integration: the naive shared-memory baseline and
//! the distributed simulator agree with the optimised engines and the
//! sequential references on the paper's analog graphs, and the
//! memory-fit machinery recovers sensible coefficients from real runs.

use femtograph_sim::run_naive;
use ipregel::{run, CombinerKind, RunConfig, Version};
use ipregel_apps::reference;
use ipregel_apps::{Hashmin, Sssp};
use ipregel_graph::generators::analogs::{TWITTER_MPI, USA_ROADS, WIKIPEDIA};
use ipregel_graph::NeighborMode;
use ipregel_mem::{fit_affine, MeasuredPoint};

const DIV: u64 = 4000;

#[test]
fn all_three_architectures_agree_on_sssp() {
    let g = USA_ROADS.analog_graph(DIV, 3, NeighborMode::Both);
    let expected = reference::bfs_levels(&g, 2);
    let shared = run(
        &g,
        &Sssp { source: 2 },
        Version { combiner: CombinerKind::Spinlock, selection_bypass: true },
        &RunConfig::default(),
    );
    assert_eq!(shared.values, expected);

    let naive = run_naive(&g, &Sssp { source: 2 }, &RunConfig::default());
    assert_eq!(naive.values, expected);

    let sim = pregelplus_sim::simulate(
        &g,
        &Sssp { source: 2 },
        &pregelplus_sim::ClusterSpec::m4_large(3),
        &pregelplus_sim::CostModel::default(),
        &pregelplus_sim::MemoryModel::pregel_plus(4),
        Some(100_000),
    );
    assert_eq!(sim.values, expected);
}

#[test]
fn hashmin_matches_naive_on_wiki_analog() {
    let g = WIKIPEDIA.analog_graph(DIV, 4, NeighborMode::Both);
    let expected = reference::minlabel_fixpoint(&g);
    let naive = run_naive(&g, &Hashmin, &RunConfig::default());
    assert_eq!(naive.values, expected);
}

#[test]
fn measured_footprints_fit_affine_coefficients() {
    // Run the spinlock engine over a size sweep and fit bytes = aV+bE+c;
    // the per-edge coefficient must come out near the CSR's real cost
    // (4 B targets + 8 B offsets amortised ≈ edges dominate at 4–12 B).
    let mut points = Vec::new();
    for pct in [20u32, 40, 60, 80, 100] {
        let g = TWITTER_MPI.percent_analog(pct, 40_000, 7, NeighborMode::OutOnly);
        let out = run(
            &g,
            &Sssp { source: g.address_map().base() },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
            &RunConfig::default(),
        );
        points.push(MeasuredPoint {
            vertices: g.num_vertices() as u64,
            edges: g.num_edges(),
            footprint: out.footprint,
        });
    }
    let fit = fit_affine(&points);
    assert!(fit.max_rel_residual < 0.02, "not affine: {fit:?}");
    assert!(fit.per_edge > 2.0 && fit.per_edge < 16.0, "per-edge {:.1}", fit.per_edge);
    assert!(fit.per_vertex > 10.0, "per-vertex {:.1}", fit.per_vertex);
}
