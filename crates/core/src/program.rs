//! The user-facing programming model: the paper's Figures 3 and 4.
//!
//! A vertex-centric application implements [`VertexProgram`], providing
//! the two user-defined functions of Figure 4 — `compute` and `combine` —
//! plus an initial value per vertex. Inside `compute`, the vertex talks to
//! the framework through a [`Context`], which exposes exactly the
//! functions of Figure 3 (`IP_get_next_message`, `IP_send_message`,
//! `IP_broadcast`, `IP_vote_to_halt`, `IP_get_superstep`,
//! `IP_is_first_superstep`, `IP_get_vertices_count`).
//!
//! The same program runs unmodified on every engine version, mirroring
//! the paper's promise that users "write their code once, and see it
//! adapted to any module version" (Section 3.1.2).

use ipregel_graph::csr::Weight;
use ipregel_graph::VertexId;

/// A vertex-centric application: the paper's user-defined functions.
pub trait VertexProgram: Send + Sync {
    /// Per-vertex state (the `val` member of the user's vertex struct).
    type Value: Send + Sync + Clone;
    /// Message type exchanged between vertices. Combiners keep at most one
    /// per mailbox (Section 6.3), so it must be `Copy` and cheap. `Default`
    /// fills the pull engine's dense outbox slots before anyone writes
    /// them (calloc's zero in the C original); no engine ever delivers it.
    type Message: Copy + Default + Send + Sync;

    /// Initial value of the vertex with external identifier `id`, set
    /// before superstep 0 (e.g. `UINT_MAX` in the paper's SSSP).
    fn initial_value(&self, id: VertexId) -> Self::Value;

    /// The code run on each active vertex at each superstep (Figure 4's
    /// `IP_compute`).
    fn compute<C: Context<Message = Self::Message>>(&self, value: &mut Self::Value, ctx: &mut C);

    /// Combine an incoming message into the one already in the mailbox
    /// (Figure 4's `IP_combine`). Must be commutative and associative —
    /// delivery order is unspecified under parallelism.
    fn combine(old: &mut Self::Message, new: Self::Message);

    /// Master-side hook run between supersteps (our extension, in the
    /// spirit of Pregel's master compute; the paper lists load-balancing
    /// and control extensions as future work). Returning
    /// [`MasterDecision::Halt`] stops the run after this superstep.
    fn master_compute(&self, superstep: usize, values: &[Self::Value]) -> MasterDecision {
        let _ = (superstep, values);
        MasterDecision::Continue
    }
}

/// Verdict of [`VertexProgram::master_compute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterDecision {
    /// Keep running.
    Continue,
    /// Stop after the current superstep even if vertices remain active.
    Halt,
}

/// The framework functions available inside `compute` (Figure 3).
///
/// One context exists per vertex execution; methods that name "the
/// vertex" refer to the vertex currently being computed.
pub trait Context {
    /// Message type of the running program.
    type Message: Copy;

    /// Current superstep number, starting at 0 (`IP_get_superstep`).
    fn superstep(&self) -> usize;

    /// Whether this is superstep 0 (`IP_is_first_superstep`).
    #[inline]
    fn is_first_superstep(&self) -> bool {
        self.superstep() == 0
    }

    /// Total number of vertices in the graph (`IP_get_vertices_count`).
    fn num_vertices(&self) -> usize;

    /// External identifier of the vertex.
    fn id(&self) -> VertexId;

    /// Number of out-neighbours of the vertex (the `out_neighbours_count`
    /// member used by the paper's PageRank).
    fn out_degree(&self) -> u32;

    /// Pop the next message from the vertex's inbox
    /// (`IP_get_next_message`). Combiners guarantee at most one message
    /// per superstep, so this returns `Some` at most once per execution.
    fn next_message(&mut self) -> Option<Self::Message>;

    /// Send `msg` to the vertex with external identifier `to`
    /// (`IP_send_message`).
    ///
    /// # Panics
    /// On the pull-based (broadcast) engine, which by design supports only
    /// neighbour broadcasts (Section 6.2).
    fn send(&mut self, to: VertexId, msg: Self::Message);

    /// Send `msg` to every out-neighbour (`IP_broadcast`).
    fn broadcast(&mut self, msg: Self::Message);

    /// Halt this vertex; it re-activates only on message receipt
    /// (`IP_vote_to_halt`).
    fn vote_to_halt(&mut self);

    /// Send `f(weight)` along every out-edge: one message per edge,
    /// computed from that edge's weight (1 on unweighted graphs).
    /// Extension used by the weighted applications; broadcast-only
    /// applications never call it.
    ///
    /// # Panics
    /// On the pull-based engine (a per-edge message is a point-to-point
    /// send, a push-engine feature).
    fn send_along_out_edges(&mut self, f: impl FnMut(Weight) -> Self::Message);
}

/// Check a combine function for the algebraic laws the engines assume.
///
/// Delivery order is unspecified under parallelism and the pull engine
/// re-associates freely, so `combine` must be **commutative** and
/// **associative** over the message domain. This helper exercises both
/// laws over every pair/triple of `samples` and returns the first
/// violation as a human-readable message — call it from a unit test of
/// your vertex program:
///
/// ```
/// use ipregel::program::check_combiner;
///
/// fn min(old: &mut u32, new: u32) {
///     if new < *old { *old = new; }
/// }
/// assert_eq!(check_combiner(min, &[0, 1, 5, 7, u32::MAX]), Ok(()));
/// ```
pub fn check_combiner<M: Copy + PartialEq + std::fmt::Debug>(
    combine: fn(&mut M, M),
    samples: &[M],
) -> Result<(), String> {
    let apply = |a: M, b: M| {
        let mut x = a;
        combine(&mut x, b);
        x
    };
    for &a in samples {
        for &b in samples {
            let ab = apply(a, b);
            let ba = apply(b, a);
            if ab != ba {
                return Err(format!(
                    "not commutative: combine({a:?}, {b:?}) = {ab:?} but combine({b:?}, {a:?}) = {ba:?}"
                ));
            }
            for &c in samples {
                let left = apply(apply(a, b), c);
                let right = apply(a, apply(b, c));
                if left != right {
                    return Err(format!(
                        "not associative on ({a:?}, {b:?}, {c:?}): {left:?} vs {right:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Ready-made combine functions for common reductions.
pub mod combiners {
    /// Keep the minimum (Hashmin, SSSP).
    pub fn min<T: Ord + Copy>(old: &mut T, new: T) {
        if new < *old {
            *old = new;
        }
    }

    /// Keep the maximum.
    pub fn max<T: Ord + Copy>(old: &mut T, new: T) {
        if new > *old {
            *old = new;
        }
    }

    /// Sum (PageRank).
    pub fn sum_f64(old: &mut f64, new: f64) {
        *old += new;
    }

    /// Sum for integer counters.
    pub fn sum_u64(old: &mut u64, new: u64) {
        *old += new;
    }
}

#[cfg(test)]
mod tests {
    use super::{check_combiner, combiners};

    #[test]
    fn law_checker_accepts_lattice_combiners() {
        assert_eq!(check_combiner(combiners::min::<u32>, &[0, 3, 9, u32::MAX]), Ok(()));
        assert_eq!(check_combiner(combiners::max::<i64>, &[-5, 0, 7]), Ok(()));
        assert_eq!(check_combiner(combiners::sum_u64, &[0, 1, 10, 1 << 40]), Ok(()));
        fn or(old: &mut u64, new: u64) {
            *old |= new;
        }
        assert_eq!(check_combiner(or, &[0b01, 0b10, 0b110]), Ok(()));
    }

    #[test]
    fn law_checker_rejects_subtraction() {
        fn sub(old: &mut i32, new: i32) {
            *old -= new;
        }
        let err = check_combiner(sub, &[1, 2, 3]).unwrap_err();
        assert!(err.contains("not commutative") || err.contains("not associative"), "{err}");
    }

    #[test]
    fn law_checker_rejects_overwrite() {
        fn last_wins(old: &mut u32, new: u32) {
            *old = new;
        }
        let err = check_combiner(last_wins, &[1, 2]).unwrap_err();
        assert!(err.contains("not commutative"), "{err}");
    }

    #[test]
    fn min_keeps_smaller() {
        let mut m = 10u32;
        combiners::min(&mut m, 12);
        assert_eq!(m, 10);
        combiners::min(&mut m, 3);
        assert_eq!(m, 3);
    }

    #[test]
    fn max_keeps_larger() {
        let mut m = 5i64;
        combiners::max(&mut m, 2);
        assert_eq!(m, 5);
        combiners::max(&mut m, 9);
        assert_eq!(m, 9);
    }

    #[test]
    fn sums_accumulate() {
        let mut f = 1.5f64;
        combiners::sum_f64(&mut f, 2.25);
        assert_eq!(f, 3.75);
        let mut u = 7u64;
        combiners::sum_u64(&mut u, 3);
        assert_eq!(u, 10);
    }
}
