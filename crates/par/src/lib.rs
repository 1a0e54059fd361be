//! `ipregel-par` — the workspace's parallel runtime facade.
//!
//! Every crate in the workspace gets its parallelism from here instead
//! of depending on rayon: the in-tree, zero-dependency scoped thread
//! pool in [`pool`] plus the indexed mini parallel iterators in
//! [`iter`], behind rayon's names (see docs/INTERNALS.md, "Parallel
//! runtime"). It builds with `--offline` against an empty registry —
//! this is what makes the workspace hermetic — and its chunk-ordered
//! reductions are deterministic for a fixed thread count.
//!
//! The facade surface is exactly what the workspace uses — nothing
//! speculative: `current_num_threads`, `current_thread_index`, `join`,
//! `scope`, `ThreadPool{Builder}` with `install`, `default_num_threads`
//! (the global pool's size, read without building it), the `prelude` with
//! `par_iter`/`into_par_iter` and the
//! map/filter/enumerate/zip/with_min_len/for_each/collect/sum/count/reduce
//! family.
//! [`CachePadded`] is the crossbeam replacement.
//!
//! # Worker-index contract
//!
//! The load-bearing guarantee, relied on by the sharded `Tracer` and
//! `Worklist`: inside any closure run by this crate (scope tasks,
//! `install`, parallel-iterator bodies), [`current_thread_index`]
//! returns `Some(i)` with `i < current_num_threads()`, stable for the
//! closure's whole execution and unique per concurrent worker. Off-pool
//! threads get `None` and must take the callers' documented fallback
//! paths. `tests/pool_contract.rs` pins it.

mod padded;
pub use padded::CachePadded;

// The lock-hierarchy classes and the runtime lock-order detector
// (armed by the `lock-order` feature) for the client crates' locks.
pub mod lockorder;

mod pool;
pub mod iter;

pub use pool::{
    current_num_threads, current_pool_stats, current_thread_index, default_num_threads, join,
    scope, PoolStats, Scope, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder,
};

/// The traits that make `par_iter()` / `into_par_iter()` available —
/// import as `use ipregel_par::prelude::*;` exactly like rayon's.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}
