//! The multi-version layer (Section 3.1).
//!
//! iPregel selects module implementations at compile time via `#define`s;
//! here each version is a monomorphised engine and [`Version`] is the thin
//! runtime switch the harness uses to sweep all of them. The six paper
//! versions are {mutex, spinlock, broadcast} × {with, without selection
//! bypass}; [`CombinerKind::LockFree`] is our ablation extension.

use ipregel_graph::Graph;

use crate::engine::pull::run_pull_with;
use crate::engine::push::run_push_with;
use crate::engine::{RunConfig, RunOutput, RunResult};
use crate::mailbox::{AtomicMailbox, MutexMailbox, PackMessage, SpinMailbox};
use crate::program::VertexProgram;
use crate::recover::DynHooks;

/// Which combiner module to use (Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombinerKind {
    /// Block-waiting push combiner (§6.1, mutex).
    Mutex,
    /// Busy-waiting push combiner (§6.1, spinlock).
    Spinlock,
    /// Pull-based combiner (§6.2, "broadcast" version in Figure 7).
    Broadcast,
    /// Lock-free CAS push combiner — extension; needs a packable message,
    /// so it runs through [`run_packed`] only.
    LockFree,
}

impl CombinerKind {
    /// Label used in the Figure 7 reproduction.
    pub fn label(&self) -> &'static str {
        match self {
            CombinerKind::Mutex => "Mutex",
            CombinerKind::Spinlock => "Spinlock",
            CombinerKind::Broadcast => "Broadcast",
            CombinerKind::LockFree => "Lock-free",
        }
    }
}

/// One iPregel version: a combiner paired with a selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Version {
    /// Combiner module.
    pub combiner: CombinerKind,
    /// Selection-bypass module (§4) on or off.
    pub selection_bypass: bool,
}

impl Version {
    /// The six versions evaluated in Figure 7, in the figure's legend
    /// order: mutex, spinlock, broadcast, then the same with bypass.
    pub fn paper_versions() -> [Version; 6] {
        [
            Version { combiner: CombinerKind::Mutex, selection_bypass: false },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
            Version { combiner: CombinerKind::Broadcast, selection_bypass: false },
            Version { combiner: CombinerKind::Mutex, selection_bypass: true },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: true },
            Version { combiner: CombinerKind::Broadcast, selection_bypass: true },
        ]
    }

    /// Label matching the Figure 7 legend.
    pub fn label(&self) -> String {
        if self.selection_bypass {
            format!("{} with selection bypass", self.combiner.label())
        } else {
            self.combiner.label().to_string()
        }
    }
}

impl std::fmt::Display for CombinerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Run `program` on `graph` under `version`.
///
/// # Panics
/// For [`CombinerKind::LockFree`], whose packed-message bound cannot be
/// expressed here — use [`run_packed`]. Also on any [`RunError`]
/// (the historical infallible surface); fault-tolerant callers use
/// [`try_run`].
///
/// [`RunError`]: crate::engine::RunError
pub fn run<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    version: Version,
    config: &RunConfig,
) -> RunOutput<P::Value> {
    try_run(graph, program, version, config).unwrap_or_else(|e| panic!("run: {e}"))
}

/// Fallible [`run`]: vertex panics surface as
/// [`RunError::VertexPanic`](crate::engine::RunError::VertexPanic), a
/// missed deadline as
/// [`RunError::DeadlineExceeded`](crate::engine::RunError::DeadlineExceeded).
///
/// # Panics
/// For [`CombinerKind::LockFree`] — use [`try_run_packed`]. That is a
/// caller-side type error, not a runtime fault, so it stays a panic.
pub fn try_run<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    version: Version,
    config: &RunConfig,
) -> RunResult<P::Value> {
    run_with(graph, program, version, config, None)
}

/// [`try_run`] with checkpoint/restore hooks (see [`crate::recover`]).
pub(crate) fn run_with<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    version: Version,
    config: &RunConfig,
    hooks: Option<DynHooks<'_, P::Value, P::Message>>,
) -> RunResult<P::Value> {
    let config = RunConfig { selection_bypass: version.selection_bypass, ..config.clone() };
    match version.combiner {
        CombinerKind::Mutex => {
            run_push_with::<P, MutexMailbox<P::Message>>(graph, program, &config, hooks)
        }
        CombinerKind::Spinlock => {
            run_push_with::<P, SpinMailbox<P::Message>>(graph, program, &config, hooks)
        }
        CombinerKind::Broadcast => run_pull_with(graph, program, &config, hooks),
        CombinerKind::LockFree => {
            panic!("the lock-free combiner needs PackMessage; call run_packed instead")
        }
    }
}

/// Like [`run`], additionally supporting [`CombinerKind::LockFree`] for
/// programs whose messages pack into 64 bits.
///
/// # Panics
/// On any [`RunError`](crate::engine::RunError) — fault-tolerant callers
/// use [`try_run_packed`].
pub fn run_packed<P>(
    graph: &Graph,
    program: &P,
    version: Version,
    config: &RunConfig,
) -> RunOutput<P::Value>
where
    P: VertexProgram,
    P::Message: PackMessage,
{
    try_run_packed(graph, program, version, config).unwrap_or_else(|e| panic!("run_packed: {e}"))
}

/// Fallible [`run_packed`].
pub fn try_run_packed<P>(
    graph: &Graph,
    program: &P,
    version: Version,
    config: &RunConfig,
) -> RunResult<P::Value>
where
    P: VertexProgram,
    P::Message: PackMessage,
{
    run_packed_with(graph, program, version, config, None)
}

/// [`try_run_packed`] with checkpoint/restore hooks (see
/// [`crate::recover`]).
pub(crate) fn run_packed_with<P>(
    graph: &Graph,
    program: &P,
    version: Version,
    config: &RunConfig,
    hooks: Option<DynHooks<'_, P::Value, P::Message>>,
) -> RunResult<P::Value>
where
    P: VertexProgram,
    P::Message: PackMessage,
{
    match version.combiner {
        CombinerKind::LockFree => {
            let config = RunConfig { selection_bypass: version.selection_bypass, ..config.clone() };
            run_push_with::<P, AtomicMailbox<P::Message>>(graph, program, &config, hooks)
        }
        _ => run_with(graph, program, version, config, hooks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_labels() {
        let v = Version { combiner: CombinerKind::Spinlock, selection_bypass: true };
        assert_eq!(v.to_string(), "Spinlock with selection bypass");
        assert_eq!(CombinerKind::Broadcast.to_string(), "Broadcast");
    }

    #[test]
    fn six_paper_versions_with_figure_labels() {
        let vs = Version::paper_versions();
        assert_eq!(vs.len(), 6);
        assert_eq!(vs[0].label(), "Mutex");
        assert_eq!(vs[2].label(), "Broadcast");
        assert_eq!(vs[4].label(), "Spinlock with selection bypass");
        assert_eq!(vs.iter().filter(|v| v.selection_bypass).count(), 3);
    }
}
