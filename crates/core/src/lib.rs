//! # iPregel — a combiner-based in-memory shared-memory vertex-centric framework
//!
//! A Rust reproduction of *iPregel* (Capelli, Hu, Zakian — ICPP 2018): a
//! single-node, in-memory, shared-memory Pregel implementing the paper's
//! three core optimisations:
//!
//! 1. **Selection bypass** ([`selection`], Section 4) — senders enqueue
//!    recipients at send time, eliminating the per-superstep active scan
//!    for programs whose vertices halt every superstep.
//! 2. **Efficient vertex addressing** (in `ipregel-graph`, Section 5) —
//!    identifiers double as array locations (direct / offset / desolate
//!    memory), no hashmap layer.
//! 3. **Combiners everywhere** ([`mailbox`], Section 6) — single-message
//!    mailboxes under a block-waiting mutex or a 1-byte busy-waiting
//!    spinlock, or a race-free pull design.
//!
//! Where the C original selects module versions via compile flags, this
//! crate monomorphises an engine per version and exposes the sweep
//! through [`Version`] — the user program is written once against
//! [`VertexProgram`]/[`Context`] and runs on every version unchanged.
//!
//! ## Example: the paper's SSSP (Figure 5)
//!
//! ```
//! use ipregel::{run, Context, RunConfig, Version, CombinerKind, VertexProgram};
//! use ipregel_graph::{GraphBuilder, NeighborMode};
//!
//! struct Sssp { source: u32 }
//!
//! impl VertexProgram for Sssp {
//!     type Value = u32;
//!     type Message = u32;
//!
//!     fn initial_value(&self, _id: u32) -> u32 {
//!         u32::MAX
//!     }
//!
//!     fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
//!         let mut reference = if ctx.id() == self.source { 0 } else { u32::MAX };
//!         while let Some(m) = ctx.next_message() {
//!             reference = reference.min(m);
//!         }
//!         if reference < *value {
//!             *value = reference;
//!             ctx.broadcast(*value + 1);
//!         }
//!         ctx.vote_to_halt();
//!     }
//!
//!     fn combine(old: &mut u32, new: u32) {
//!         if new < *old {
//!             *old = new;
//!         }
//!     }
//! }
//!
//! let mut b = GraphBuilder::new(NeighborMode::OutOnly);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! let g = b.build().unwrap();
//!
//! let version = Version { combiner: CombinerKind::Spinlock, selection_bypass: true };
//! let out = run(&g, &Sssp { source: 0 }, version, &RunConfig::default());
//! assert_eq!(*out.value_of(2), 2);
//! ```

pub mod aggregate;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod engine;
pub mod json;
pub mod lanes;
pub mod mailbox;
pub mod metrics;
pub mod program;
pub mod recover;
pub mod selection;
pub mod sync;
pub mod sync_cell;
pub mod trace;
pub mod version;

pub use engine::pull::try_run_pull;
pub use engine::seq::{run_sequential, try_run_sequential};
pub use engine::{RetryPolicy, RunConfig, RunError, RunOutput, RunResult, Schedule};
pub use lanes::{full_mask, LaneTracker, Lanes, MAX_LANES};
pub use mailbox::{AtomicMailbox, Mailbox, MutexMailbox, PackMessage, SpinGuard, SpinLock, SpinMailbox};
pub use metrics::{FootprintReport, LoadStats, RunStats, RunTotals, SuperstepStats};
pub use program::{check_combiner, combiners, Context, MasterDecision, VertexProgram};
pub use recover::{CheckpointConfig, Persist, ResumeState};
pub use trace::{EngineKind, TraceEvent, Tracer};
pub use version::{run, try_run, CombinerKind, Version};
