//! K-lane stripes: one engine run carrying K independent monotone
//! computations.
//!
//! The paper's combiner makes message reduction cheap enough to apply
//! eagerly at send time; Yan et al. (arXiv:1503.00626) observe that the
//! same reduction machinery amortises one traversal across many logical
//! computations. This module is the representation that makes that
//! possible here: a [`Lanes`] stripe packs up to [`MAX_LANES`] per-lane
//! values into one vertex value / one mailbox message, and the combiner
//! is applied *lane-wise* — K SSSP instances (or BFS, Hashmin,
//! personalized PageRank seed sets) ride a single push or pull
//! traversal, paying for the CSR walk once.
//!
//! Lane independence is the load-bearing invariant: a lane's sequence
//! of per-vertex updates in a batched run must be exactly the sequence
//! the same computation produces running alone. That holds because the
//! batched programs (see `ipregel-apps`' `multi` module) compute each
//! lane from that lane's inputs only, and the monotone workloads are
//! idempotent — a vertex re-executed because a *peer* lane messaged it
//! finds no improvement on its own lane and stays silent there. The
//! `server_batching` / `cross_engine_equivalence` suites pin this
//! bit-for-bit against one-shot oracles.
//!
//! [`LaneTracker`] carries the per-lane run accounting (message volume,
//! last sending superstep, deadline expiry) that the engine's global
//! [`RunStats`](crate::metrics::RunStats) cannot see once lanes share a
//! run.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Stripe width ceiling: lane masks are a byte, so 8.
pub const MAX_LANES: usize = 8;

/// Sentinel for "this lane never sent" in [`LaneTracker::last_send`]
/// terms (stored internally; surfaced through `lane_supersteps`).
const NEVER: u64 = u64::MAX;

/// A fixed-width stripe of per-lane values plus a validity mask.
///
/// Used both as the *message* type of K-lane programs (mask = lanes
/// carrying a payload in this delivery; the combiner merges lane-wise
/// via [`Lanes::combine_with`]) and as their *value* type (mask = lanes
/// the run was started with). `MAX_LANES` slots are always present —
/// unused lanes hold the fill value and stay masked out — so the type
/// is `Copy` and mailbox slots stay fixed-size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lanes<T: Copy> {
    mask: u8,
    vals: [T; MAX_LANES],
}

/// The all-ones mask for a `k`-lane run.
///
/// # Panics
/// If `k` is zero or exceeds [`MAX_LANES`].
pub fn full_mask(k: usize) -> u8 {
    assert!((1..=MAX_LANES).contains(&k), "lane count {k} outside 1..={MAX_LANES}");
    (((1u16) << k) - 1) as u8
}

impl<T: Copy> Lanes<T> {
    /// An empty stripe (no lane set); `fill` pads the unset slots.
    pub fn empty(fill: T) -> Self {
        Lanes { mask: 0, vals: [fill; MAX_LANES] }
    }

    /// A stripe with lanes `0..k` all set to `v` (initial-value use).
    pub fn splat(k: usize, v: T) -> Self {
        Lanes { mask: full_mask(k), vals: [v; MAX_LANES] }
    }

    /// The validity mask.
    pub fn mask(&self) -> u8 {
        self.mask
    }

    /// True when no lane is set.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Set lane `lane` to `v` (marks it valid).
    pub fn set(&mut self, lane: usize, v: T) {
        debug_assert!(lane < MAX_LANES);
        self.vals[lane] = v;
        self.mask |= 1 << lane;
    }

    /// Lane `lane`'s value, if set.
    pub fn get(&self, lane: usize) -> Option<T> {
        if self.mask & (1 << lane) != 0 {
            Some(self.vals[lane])
        } else {
            None
        }
    }

    /// Lane `lane`'s raw slot, masked or not (value-type access: a
    /// vertex value's unset lanes hold the initial fill).
    pub fn at(&self, lane: usize) -> T {
        self.vals[lane]
    }

    /// Iterate `(lane, value)` over set lanes, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (usize, T)> + '_ {
        (0..MAX_LANES).filter(|l| self.mask & (1 << l) != 0).map(move |l| (l, self.vals[l]))
    }

    /// Lane-wise combiner application: lanes set in both stripes merge
    /// through `f` (the scalar combiner — min, sum); lanes set only in
    /// `new` copy over. This is what "combiners applied per lane in one
    /// mailbox delivery" means operationally — one lock acquisition (or
    /// CAS, or pull-side gather step) reduces all K lanes.
    pub fn combine_with(old: &mut Self, new: Self, f: impl Fn(&mut T, T)) {
        for lane in 0..MAX_LANES {
            let bit = 1u8 << lane;
            if new.mask & bit == 0 {
                continue;
            }
            if old.mask & bit != 0 {
                f(&mut old.vals[lane], new.vals[lane]);
            } else {
                old.vals[lane] = new.vals[lane];
                old.mask |= bit;
            }
        }
    }
}

/// Per-lane accounting for a K-lane run: message volume, the last
/// superstep each lane sent in, and deadline expiry — everything the
/// shared engine run cannot attribute to a single lane by itself.
///
/// All counters are atomics because vertex programs run on every pool
/// worker; every correctness-bearing *read* happens after the engine
/// returns (the run's join is the synchronisation edge), so `Relaxed`
/// suffices throughout.
///
/// ## Derived per-lane stats
///
/// A lane's stand-alone run would have reported `RunStats` of its own;
/// batched, those are reconstructed as:
///
/// * **messages** — each send records the sender's out-degree (both
///   engines count a broadcast as out-degree deliveries), summed per
///   lane. Lane independence makes the batched send set equal the solo
///   send set, so the sums match exactly.
/// * **supersteps** — `last_send + 2` if the lane ever sent, else `1`.
///   A solo run's last value-improving superstep `s` broadcasts; the
///   recipients execute in `s + 1` and improve nothing; superstep
///   `s + 2` has no active vertex (push) / no messages and no live
///   votes (pull), so the solo run ends having executed supersteps
///   `0..=s+1` — `s + 2` of them. A lane that never sent quiesces after
///   superstep 0: one superstep. Rank-style lanes fit the same formula:
///   they send every superstep `0..rounds-1` and halt at `rounds`, so
///   `last_send + 2 == rounds + 1`, the solo count. Zero-out-degree
///   broadcasts deliver nothing and are *not* recorded (see
///   [`LaneTracker::note_sends`]) — matching both engines, which count
///   deliveries, not broadcast calls.
///
/// The `cross_engine_equivalence` suite checks both reconstructions
/// against solo `RunStats` across every paper version.
#[derive(Debug)]
pub struct LaneTracker {
    k: usize,
    start: Instant,
    deadlines: [Option<Duration>; MAX_LANES],
    expired: AtomicU8,
    messages: [AtomicU64; MAX_LANES],
    last_send: [AtomicU64; MAX_LANES],
}

impl LaneTracker {
    /// Tracker for `k` lanes with no per-lane deadlines.
    pub fn new(k: usize) -> Self {
        Self::with_deadlines(k, [None; MAX_LANES])
    }

    /// Tracker for `k` lanes; `deadlines[l]`, when set, is lane `l`'s
    /// budget measured from *now* (construct the tracker immediately
    /// before launching the run).
    pub fn with_deadlines(k: usize, deadlines: [Option<Duration>; MAX_LANES]) -> Self {
        let _ = full_mask(k); // validate k
        LaneTracker {
            k,
            start: Instant::now(),
            deadlines,
            expired: AtomicU8::new(0),
            messages: std::array::from_fn(|_| AtomicU64::new(0)),
            last_send: std::array::from_fn(|_| AtomicU64::new(NEVER)),
        }
    }

    /// Number of lanes this run carries.
    pub fn lanes(&self) -> usize {
        self.k
    }

    /// Mask of lanes still live (not expired).
    pub fn enabled(&self) -> u8 {
        // ordering(Relaxed): advisory mask; a compute that reads a
        // stale bit merely does one superstep of redundant (idempotent)
        // work for an expiring lane, it cannot corrupt peers.
        full_mask(self.k) & !self.expired.load(Ordering::Relaxed)
    }

    /// Mask of lanes failed by their deadline.
    pub fn expired_mask(&self) -> u8 {
        // ordering(Relaxed): read after the engine's join (or on the
        // master thread between supersteps); no concurrent writer races
        // a correctness-bearing read.
        self.expired.load(Ordering::Relaxed)
    }

    /// Record a delivery of `mask`'s lanes from a vertex with
    /// `out_degree` out-edges at `superstep`. Call only for an actual
    /// broadcast; zero-degree broadcasts deliver nothing and must not
    /// be recorded (the engines count deliveries).
    pub fn note_sends(&self, mask: u8, superstep: usize, out_degree: u64) {
        if out_degree == 0 || mask == 0 {
            return;
        }
        let step = superstep as u64;
        for lane in 0..self.k {
            if mask & (1 << lane) == 0 {
                continue;
            }
            // ordering(Relaxed): monotone counters read only after the
            // run joins; the superstep barrier orders the writes we
            // aggregate across.
            self.messages[lane].fetch_add(out_degree, Ordering::Relaxed);
            // ordering(Relaxed): every concurrent writer stores the
            // *current* superstep (sends happen inside exactly one
            // superstep at a time, barriers between), and supersteps
            // only increase — so a plain store is a monotone update and
            // any interleaving leaves the maximum behind.
            self.last_send[lane].store(step, Ordering::Relaxed);
        }
    }

    /// Expire lanes past their budget; returns the still-enabled mask.
    /// Intended to run at superstep barriers (`master_compute`).
    pub fn expire_overdue(&self) -> u8 {
        let elapsed = self.start.elapsed();
        let mut newly = 0u8;
        for lane in 0..self.k {
            if let Some(d) = self.deadlines[lane] {
                if elapsed >= d {
                    newly |= 1 << lane;
                }
            }
        }
        if newly != 0 {
            // ordering(Relaxed): mask consumed by compute advisorily
            // and by the server after the join; see `enabled`.
            self.expired.fetch_or(newly, Ordering::Relaxed);
        }
        self.enabled()
    }

    /// Reconstructed solo message count for lane `lane`.
    pub fn lane_messages(&self, lane: usize) -> u64 {
        // ordering(Relaxed): read after the run joins.
        self.messages[lane].load(Ordering::Relaxed)
    }

    /// Reconstructed solo superstep count for lane `lane` (see the
    /// type-level docs for the derivation).
    pub fn lane_supersteps(&self, lane: usize) -> u64 {
        // ordering(Relaxed): read after the run joins.
        match self.last_send[lane].load(Ordering::Relaxed) {
            NEVER => 1,
            s => s + 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_cover_one_through_eight() {
        assert_eq!(full_mask(1), 0b1);
        assert_eq!(full_mask(3), 0b111);
        assert_eq!(full_mask(8), 0xff);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn zero_lanes_is_rejected() {
        let _ = full_mask(0);
    }

    #[test]
    fn set_get_and_iter_respect_the_mask() {
        let mut l = Lanes::empty(u32::MAX);
        assert!(l.is_empty());
        assert_eq!(l.get(2), None);
        l.set(2, 7);
        l.set(5, 9);
        assert_eq!(l.get(2), Some(7));
        assert_eq!(l.get(3), None);
        assert_eq!(l.at(3), u32::MAX, "unset slots hold the fill");
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![(2, 7), (5, 9)]);
    }

    #[test]
    fn combine_is_lane_wise() {
        let mut old = Lanes::empty(0u32);
        old.set(0, 4);
        old.set(1, 10);
        let mut new = Lanes::empty(0u32);
        new.set(1, 3);
        new.set(2, 8);
        Lanes::combine_with(&mut old, new, |a, b| {
            if b < *a {
                *a = b;
            }
        });
        assert_eq!(old.get(0), Some(4), "absent in new: untouched");
        assert_eq!(old.get(1), Some(3), "present in both: combined");
        assert_eq!(old.get(2), Some(8), "absent in old: copied");
    }

    #[test]
    fn splat_marks_all_k_lanes() {
        let l = Lanes::splat(3, 1.5f64);
        assert_eq!(l.mask(), 0b111);
        assert_eq!(l.get(2), Some(1.5));
        assert_eq!(l.get(3), None);
    }

    #[test]
    fn tracker_derives_solo_stats() {
        let t = LaneTracker::new(2);
        assert_eq!(t.enabled(), 0b11);
        t.note_sends(0b11, 0, 3);
        t.note_sends(0b01, 1, 2);
        t.note_sends(0b10, 0, 0); // zero degree: not a delivery
        assert_eq!(t.lane_messages(0), 5);
        assert_eq!(t.lane_messages(1), 3);
        assert_eq!(t.lane_supersteps(0), 3, "last send at 1 → 3 supersteps");
        assert_eq!(t.lane_supersteps(1), 2, "last send at 0 → 2 supersteps");
    }

    #[test]
    fn silent_lane_counts_one_superstep() {
        let t = LaneTracker::new(1);
        assert_eq!(t.lane_supersteps(0), 1);
        assert_eq!(t.lane_messages(0), 0);
    }

    #[test]
    fn zero_budget_lane_expires_and_peers_survive() {
        let mut deadlines = [None; MAX_LANES];
        deadlines[1] = Some(Duration::ZERO);
        let t = LaneTracker::with_deadlines(4, deadlines);
        assert_eq!(t.expire_overdue(), 0b1101);
        assert_eq!(t.expired_mask(), 0b0010);
    }
}
