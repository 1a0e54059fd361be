//! Mini-proptest: an in-tree, dependency-free property-testing fallback.
//!
//! This crate is deliberately *named* `proptest` so the workspace's
//! property suites read like any other (`use proptest::prelude::*;`):
//! deterministic sampling from a SplitMix64 stream seeded by the test's
//! module path, no network, no dependencies. It runs every property the
//! suites define, but it does **not shrink** failures and it treats
//! `prop_assume!` discards as passes rather than resampling.
//!
//! Only the strategy surface the workspace uses is implemented: integer
//! and float ranges (half-open and inclusive), `any` for the primitive
//! types, tuples up to seven strategies, `Just`, `prop_map`,
//! `prop_filter`, `prop_oneof!` (weighted and plain),
//! `collection::vec`, `option::of`, and the `proptest!` /
//! `prop_assert*!` / `prop_assume!` macros.

#![forbid(unsafe_code)]

mod mini;
pub use mini::*;
