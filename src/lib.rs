//! Umbrella crate for the iPregel reproduction.
//!
//! Re-exports every workspace crate under one roof so the examples and
//! the cross-crate integration tests in `tests/` have a single
//! dependency. Library users should depend on the individual crates:
//!
//! * [`ipregel`] — the framework (engines, mailboxes, selection);
//! * [`ipregel_graph`] — CSR graphs, addressing, loaders, generators;
//! * [`ipregel_apps`] — PageRank, Hashmin, SSSP, BFS + references;
//! * [`pregelplus_sim`] — the distributed-memory baseline simulator;
//! * [`femtograph_sim`] — the naive shared-memory baseline (the
//!   comparison the paper's Section 7.3 wanted but could not run);
//! * [`ipregel_mem`] — memory-footprint models and projections.

// This crate needs no unsafe; keep it that way (see docs/INTERNALS.md,
// "Safety model").
#![forbid(unsafe_code)]

pub use femtograph_sim;
pub use ipregel;
pub use ipregel_apps;
pub use ipregel_graph;
pub use ipregel_mem;
pub use pregelplus_sim;
