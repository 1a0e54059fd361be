//! # ipregel-mem — memory-footprint accounting and projection
//!
//! Section 7.4 of the paper studies memory three ways, and this crate
//! reproduces each:
//!
//! * [`locks`] — the Section 6.1 arithmetic: a 40-byte mutex vs a 4-byte
//!   spinlock per vertex turns 730/958 MB of data-race protection into
//!   73/96 MB on the Wikipedia/USA graphs.
//! * [`layout`] — a structural model of the C iPregel vertex layout per
//!   version (value, adjacency pointers, combiner state, worklists),
//!   reproducing the measurements of Section 7.4.1 (mutex ≈ 2 GB vs
//!   spinlock ≈ 1.5 GB on Wikipedia; the broadcast version jumping from
//!   1.5 GB to 2.5 GB when the bypass adds out-neighbour storage).
//! * [`rss`] — the calibrated max-RSS model behind Figure 9 and the
//!   Section 7.4.2–7.4.3 projections: linear growth over synthetic
//!   Twitter scales, the 70% breaking point under 8 GB, 11.01 GB at
//!   100%, 14.45 GB for Friendster, and the 10×/25× comparison against
//!   Pregel+ (109 GB) and Giraph (264 GB).
//! * [`compress`] — the compact (delta-varint) CSR counterpart: an exact
//!   per-array projection of what compression will allocate, and the
//!   measured adjacency bytes it equals.
//!
//! Alongside the models, [`rss::validate_linear`] checks measured
//! [`ipregel::FootprintReport`]s from real runs for the linearity that
//! justifies the paper's extrapolation.

// This crate needs no unsafe; keep it that way (see docs/INTERNALS.md,
// "Safety model").
#![forbid(unsafe_code)]

pub mod compare;
pub mod compress;
pub mod layout;
pub mod locks;
pub mod rss;

pub use compare::{fit_affine, FitReport, MeasuredPoint};
pub use compress::{measured_graph_bytes, project_graph, CompactProjection};
pub use layout::{LayoutModel, VersionFootprint};
pub use locks::{lock_protection_bytes, LockKind};
pub use rss::{breaking_point_percent, current_hwm_bytes, current_rss_bytes, RssModel};

/// Decimal gigabytes, as the paper reports ("11.01GB", "109GB").
pub const GB: f64 = 1e9;

/// Decimal megabytes.
pub const MB: f64 = 1e6;
