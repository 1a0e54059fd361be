//! Graph substrate for the iPregel reproduction.
//!
//! This crate provides everything the vertex-centric framework needs from a
//! graph: compact CSR adjacency storage, the identifier-to-location
//! *addressing* schemes of Section 5 of the paper (direct mapping, offset
//! mapping, desolate memory), file-format loaders for the graph collections
//! the paper uses (KONECT, DIMACS, plain edge lists, a compact binary
//! format), deterministic synthetic generators standing in for the paper's
//! datasets, per-graph statistics (Tables 1 and 2), and hash partitioning
//! for the distributed baseline simulator.
//!
//! # Quick example
//!
//! ```
//! use ipregel_graph::{GraphBuilder, NeighborMode};
//!
//! let mut b = GraphBuilder::new(NeighborMode::Both);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! let g = b.build().unwrap();
//! assert_eq!(g.num_vertices(), 3);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.out_neighbors(0), &[1]);
//! assert_eq!(g.in_neighbors(0), &[2]);
//! ```

// This crate needs no unsafe; keep it that way (see docs/INTERNALS.md,
// "Safety model").
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod builder;
pub mod checksum;
pub mod csr;
pub mod csr_compact;
pub mod error;
pub mod generators;
pub mod ids;
pub mod loaders;
pub mod partition;
pub mod rng;
pub mod schedule;
pub mod stats;
pub mod transform;
pub mod validation;

pub use adjacency::{Adjacency, NeighborList};
pub use builder::{GraphBuilder, NeighborMode};
pub use csr::{Csr, Graph, OutDegrees};
pub use csr_compact::CsrCompact;
pub use error::GraphError;
pub use ids::{AddressMap, AddressingMode, HashAddressMap, VertexId, VertexIndex};
pub use stats::GraphStats;
pub use transform::Relabeling;
