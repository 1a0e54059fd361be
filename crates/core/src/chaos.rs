//! Deterministic fault injection (the `chaos` cargo feature).
//!
//! Every injection site in the workspace is a *named point* that asks
//! this module "do I fail now?" with a site-specific key (the superstep,
//! usually). Failures are driven by an explicit [`ChaosPlan`] — a seed
//! plus a list of [`Trigger`]s — so every failure is replayable: the
//! same plan against the same workload fires at exactly the same
//! evaluation. With no plan armed (the default, and always when the
//! feature is off) every site is a no-op.
//!
//! The catalogue of points lives with the sites themselves and in
//! `docs/INTERNALS.md` ("Fault tolerance"):
//!
//! * [`CHUNK_PANIC`] — a chunk of the superstep keyed by the trigger
//!   panics inside compute (engines: push, pull, sequential);
//! * [`CHECKPOINT_TRUNCATE`] — the checkpoint write at the keyed
//!   superstep is torn in half under its final name
//!   (`ipregel::recover`), exercising checksum fallback on resume;
//! * [`SERVER_REQUEST_PANIC`] — the server handler for the keyed
//!   request id panics before the engine runs, exercising per-request
//!   containment and retry (`ipregel-server`);
//! * [`SERVER_ADMISSION_DELAY`] — a server worker stalls after picking
//!   up the keyed request (while it is Running), backing up the bounded
//!   admission queue so overload sheds with `Rejected::QueueFull` — and
//!   leaving a zero-budget slot in the watchdog's reapable window;
//! * [`SERVER_DEADLINE_SKEW`] — the keyed request's effective deadline
//!   collapses to zero, forcing a deterministic `DeadlineExceeded`.
//!
//! The plan is process-global (injection sites must be reachable with
//! zero plumbing, including from pool workers), so tests that arm a
//! plan serialise themselves — see `tests/fault_injection.rs`.

use std::sync::PoisonError;

use crate::sync::lockorder::classes;
// par's OrderedMutex (over a std mutex) rather than the shim's: the
// plan registry is a `static`, and only the std mutex is
// const-constructible in every build mode.
use ipregel_par::lockorder::{OrderedGuard, OrderedMutex};

use ipregel_graph::checksum::fnv1a64;

/// Panic inside an engine chunk. Key: superstep.
pub const CHUNK_PANIC: &str = "engine.chunk_panic";
/// Tear a checkpoint write in half. Key: superstep.
pub const CHECKPOINT_TRUNCATE: &str = "recover.checkpoint_truncate";
/// Panic inside a server request handler (before the engine runs).
/// Key: server-assigned request id.
pub const SERVER_REQUEST_PANIC: &str = "server.request_panic";
/// Stall a server worker after it picks a request up (while the slot
/// is Running), backing the admission queue up so overload sheds — and
/// holding a zero-budget slot in the watchdog's reapable window.
/// Key: request id.
pub const SERVER_ADMISSION_DELAY: &str = "server.admission_delay";
/// Collapse a server request's effective deadline to zero, forcing a
/// deterministic `DeadlineExceeded`. Key: request id.
pub const SERVER_DEADLINE_SKEW: &str = "server.deadline_skew";

/// One armed failure: fire at `point` when the site's key matches, up
/// to `limit` times, with probability `probability` per matching
/// evaluation (seeded — deterministic across runs of the same plan).
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Which injection point this trigger arms.
    pub point: &'static str,
    /// Site key to match (`None` matches any).
    pub key: Option<u64>,
    /// Maximum number of firings.
    pub limit: u64,
    /// Per-evaluation firing probability in `[0, 1]`; `1.0` fires on
    /// every matching evaluation (until `limit`).
    pub probability: f64,
}

impl Trigger {
    /// Fire exactly once, at the evaluation whose key is `key`.
    pub fn at(point: &'static str, key: u64) -> Trigger {
        Trigger { point, key: Some(key), limit: 1, probability: 1.0 }
    }

    /// Fire on the first `limit` matching evaluations, any key.
    pub fn times(point: &'static str, limit: u64) -> Trigger {
        Trigger { point, key: None, limit, probability: 1.0 }
    }
}

/// A seeded, replayable failure schedule.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Seed for probabilistic triggers; irrelevant for deterministic
    /// (`probability: 1.0`) plans but always recorded so a failure
    /// report names the full plan.
    pub seed: u64,
    /// The armed failures.
    pub triggers: Vec<Trigger>,
}

struct Armed {
    plan: ChaosPlan,
    fired: Vec<u64>,
    evals: u64,
}

static ACTIVE: OrderedMutex<Option<Armed>> = OrderedMutex::new(&classes::CHAOS_ACTIVE, None);

/// Arm `plan` process-wide. Replaces any armed plan.
pub fn set_plan(plan: ChaosPlan) {
    let fired = vec![0; plan.triggers.len()];
    *lock() = Some(Armed { plan, fired, evals: 0 });
}

/// Disarm fault injection.
pub fn clear_plan() {
    *lock() = None;
}

/// Evaluate injection point `point` with the site's `key`. Mutates the
/// armed plan's counters; returns whether the site must fail now.
pub fn fires(point: &str, key: u64) -> bool {
    let mut guard = lock();
    let Some(armed) = guard.as_mut() else { return false };
    armed.evals += 1;
    for (i, t) in armed.plan.triggers.iter().enumerate() {
        if t.point != point || armed.fired[i] >= t.limit {
            continue;
        }
        if let Some(k) = t.key {
            if k != key {
                continue;
            }
        }
        let roll = t.probability >= 1.0 || {
            let x = splitmix64(armed.plan.seed ^ fnv1a64(point.as_bytes()) ^ armed.evals);
            (x as f64 / u64::MAX as f64) < t.probability
        };
        if roll {
            armed.fired[i] += 1;
            return true;
        }
    }
    false
}

/// Panic (with a recognisable message) if `point` fires. The engines'
/// `catch_unwind` turns this into
/// [`crate::engine::RunError::VertexPanic`].
pub fn maybe_panic(point: &'static str, key: u64) {
    if fires(point, key) {
        panic!("chaos: injected failure at {point} (key {key})");
    }
}

fn lock() -> OrderedGuard<'static, Option<Armed>> {
    // The plan mutex guards only plain counters; a panicking holder
    // (impossible today — no user code runs under it) would still leave
    // them usable, so poison is shrugged off.
    // lock-order(chaos.active)
    ACTIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// SplitMix64: the standard 64-bit finaliser-style mixer; full-period,
/// dependency-free, and plenty for choosing *which* evaluation fails.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    // Tests share the process-global plan; serialise them. The lock is
    // held around `fires`/`set_plan` calls, so it ranks just below
    // `chaos.active` in the hierarchy.
    static TEST_LOCK: OrderedMutex<()> = OrderedMutex::new(&classes::CHAOS_TEST, ());
    fn exclusive() -> OrderedGuard<'static, ()> {
        // lock-order(chaos.test)
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn unarmed_points_never_fire() {
        let _x = exclusive();
        clear_plan();
        assert!(!fires(CHUNK_PANIC, 0));
        assert!(!fires(CHECKPOINT_TRUNCATE, 7));
        maybe_panic(CHUNK_PANIC, 0); // must not panic
    }

    #[test]
    fn keyed_trigger_fires_once_at_its_key() {
        let _x = exclusive();
        set_plan(ChaosPlan { seed: 1, triggers: vec![Trigger::at(CHUNK_PANIC, 3)] });
        assert!(!fires(CHUNK_PANIC, 0));
        assert!(!fires(CHUNK_PANIC, 2));
        assert!(!fires(CHECKPOINT_TRUNCATE, 3), "other points unaffected");
        assert!(fires(CHUNK_PANIC, 3));
        assert!(!fires(CHUNK_PANIC, 3), "limit 1 exhausted");
        clear_plan();
    }

    #[test]
    fn limited_trigger_fires_exactly_n_times() {
        let _x = exclusive();
        set_plan(ChaosPlan { seed: 1, triggers: vec![Trigger::times(CHECKPOINT_TRUNCATE, 2)] });
        assert!(fires(CHECKPOINT_TRUNCATE, 0));
        assert!(fires(CHECKPOINT_TRUNCATE, 0));
        assert!(!fires(CHECKPOINT_TRUNCATE, 0));
        clear_plan();
    }

    #[test]
    fn probabilistic_firing_is_replayable() {
        let _x = exclusive();
        let plan = ChaosPlan {
            seed: 42,
            triggers: vec![Trigger {
                point: CHUNK_PANIC,
                key: None,
                limit: u64::MAX,
                probability: 0.5,
            }],
        };
        let observe = || -> Vec<bool> {
            set_plan(plan.clone());
            (0..64).map(|k| fires(CHUNK_PANIC, k)).collect()
        };
        let first = observe();
        let second = observe();
        assert_eq!(first, second, "same plan, same workload, same failures");
        let fired = first.iter().filter(|&&b| b).count();
        assert!(fired > 8 && fired < 56, "p=0.5 should fire sometimes ({fired}/64)");
        clear_plan();
    }

    #[test]
    fn injected_panic_carries_the_point_name() {
        let _x = exclusive();
        set_plan(ChaosPlan { seed: 0, triggers: vec![Trigger::at(CHUNK_PANIC, 5)] });
        let caught = std::panic::catch_unwind(|| maybe_panic(CHUNK_PANIC, 5));
        clear_plan();
        let message = crate::engine::panic_message(caught.unwrap_err());
        assert!(message.contains(CHUNK_PANIC), "{message}");
    }
}
