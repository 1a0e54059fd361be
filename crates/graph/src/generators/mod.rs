//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on four downloaded datasets (Wikipedia, USA roads,
//! Twitter MPI, Friendster) and on synthetic graphs *proportional to
//! Twitter* for the memory study of Section 7.4.2. This module provides:
//!
//! * general-purpose generators — R-MAT ([`rmat`]), Erdős–Rényi
//!   ([`erdos_renyi`]), a road-network-like sparse grid ([`grid`]),
//!   small worlds ([`watts_strogatz`]) and preferential attachment
//!   ([`barabasi`]);
//! * [`analogs`] — named, seeded stand-ins for each paper dataset with
//!   the same edge/vertex ratio and degree character, scaled down by a
//!   divisor so the whole evaluation runs on a laptop.
//!
//! Every generator is seeded and reproducible: the same `(parameters,
//! seed)` always produces the same graph.

pub mod analogs;
pub mod barabasi;
pub mod erdos_renyi;
pub mod grid;
pub mod rmat;
pub mod watts_strogatz;

pub use analogs::{DatasetSpec, FRIENDSTER, TWITTER_MPI, USA_ROADS, WIKIPEDIA};
pub use barabasi::barabasi_albert_edges;
pub use erdos_renyi::erdos_renyi_edges;
pub use grid::grid_road_edges;
pub use rmat::{rmat_edges, RmatParams};
pub use watts_strogatz::watts_strogatz_edges;
