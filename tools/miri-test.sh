#!/usr/bin/env bash
# Run the curated Miri subset: the ipregel core library suite plus the
# sequential integration tests that exercise the unsafe boundary.
#
# Curation strategy: instead of maintaining a name list that rots, every
# concurrency-heavy test in the core crate shrinks itself under
# `cfg!(miri)` (fewer threads, fewer iterations), which makes the whole
# `-p ipregel` suite interpretable in CI time. Suites that need real
# parallel throughput (tests/stress.rs) or wall-clock behaviour stay
# outside Miri and are covered by ThreadSanitizer instead (see
# .github/workflows/ci.yml and docs/INTERNALS.md).
#
# Requires: rustup toolchain nightly + `rustup +nightly component add miri`.
set -euo pipefail
cd "$(dirname "$0")/.."

# - disable-isolation: the engines time supersteps with Instant::now().
# - strict-provenance: SharedSlice is pointer-based; catch any
#   int-pointer casts sneaking back in.
export MIRIFLAGS="${MIRIFLAGS:--Zmiri-disable-isolation -Zmiri-strict-provenance}"

# Core crate: unit tests (sync shim, SharedSlice, mailboxes, epoch tags)
# under both feature configurations of the borrow-tag checker, then the
# sequential differential suite.
cargo +nightly miri test -p ipregel --lib
cargo +nightly miri test -p ipregel --lib --features check-disjoint
cargo +nightly miri test -p ipregel --test mailbox_equivalence
