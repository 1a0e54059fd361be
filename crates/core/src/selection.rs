//! Active-vertex selection: scanning vs. the selection bypass (Section 4).
//!
//! Conventional frameworks iterate *all* vertices each superstep, checking
//! active state and inbox; inactive vertices make those checks unfruitful.
//! When every vertex votes to halt at each superstep, "active next
//! superstep" ≡ "received a message" — so the *sender* can record its
//! recipient in the next superstep's worklist at send time, and the
//! selection phase disappears. It also improves load balance: every entry
//! of the next active list is guaranteed runnable.
//!
//! The worklist itself is no shared structure: each chunk appends the
//! recipients it enqueues to a list of its own and hands that list back
//! with its tally, and the barrier concatenates the lists in chunk order
//! (see `engine::bsp::ChunkOutput`) — the fork-join already carries every
//! chunk's result to the orchestrating thread. Exactly-once enqueueing
//! comes for free in the push engines (the mailbox's empty→occupied
//! transition is observed under its own synchronisation); the pull
//! engine, whose senders enqueue *out-neighbours*, deduplicates with
//! [`EpochTags`].
//!
//! `Partials`, the push engine's per-worker sender-side combining
//! buffers, live here too: 576 KiB each, they are too large to be per
//! chunk, so they are the one structure left that is sharded by pool
//! worker. The barrier folds them into the mailboxes through
//! `deliver_mut` ([`Partials::fold`]), so the fold takes no lock.

use std::marker::PhantomData;

use crate::mailbox::Mailbox;
use crate::sync::atomic::{AtomicU32, Ordering};
use crate::sync::cell::UnsafeCell;

use ipregel_par::CachePadded;
use ipregel_graph::VertexIndex;

/// Sender-side combining buffers: one private partial per pool worker
/// over the slots `0..span`, each a dense `[M]`, a presence byte per slot
/// and the list of slots it touched.
///
/// A worker combines into its own partial with a plain `combine` — no
/// lock, no atomic — and the orchestrating thread folds every partial
/// into the mailboxes after the barrier ([`Partials::fold`]) through
/// `deliver_mut`: a slot below `span` takes no lock at all. Senders
/// outside the pool get no partial.
///
/// # Safety model
/// There is one shard per thread of the pool the partials were built in,
/// and during a superstep a shard is touched only through a
/// [`LocalPartial`]. That handle exists only on the worker whose pool
/// thread index owns the shard — indices are unique within a pool, and an
/// index past the last shard gets no partial — and it cannot leave that
/// thread. `fold` takes `&mut self`, so it runs strictly between parallel
/// regions, when no handle is live.
pub(crate) struct Partials<M> {
    shards: Box<[CachePadded<UnsafeCell<Partial<M>>>]>,
    span: VertexIndex,
}

struct Partial<M> {
    msgs: Box<[M]>,
    present: Box<[bool]>,
    /// Slots whose `present` is set, in first-touch order. Never longer
    /// than `span`, so its capacity, reserved up front, never grows.
    touched: Vec<VertexIndex>,
}

impl<M: Copy> Partial<M> {
    /// Fill `slot` on first touch, else `combine` into it.
    #[inline]
    fn combine(&mut self, slot: VertexIndex, msg: M, combine: fn(&mut M, M)) {
        let s = slot as usize;
        if self.present[s] {
            combine(&mut self.msgs[s], msg);
        } else {
            self.present[s] = true;
            self.msgs[s] = msg;
            self.touched.push(slot);
        }
    }
}

// SAFETY: see the safety model above — each shard has one writer during a
// parallel region, and `fold` holds the whole structure exclusively.
unsafe impl<M: Send> Sync for Partials<M> {}
// SAFETY: moving the partials moves plain owned buffers.
unsafe impl<M: Send> Send for Partials<M> {}

impl<M: Copy + Default> Partials<M> {
    /// `shards` partials over `span` slots — one per thread of the pool
    /// the engine runs in, or none where no superstep can fork. A span of
    /// 0 allocates nothing.
    pub fn new(shards: usize, span: usize) -> Self {
        let shards = if span == 0 { 0 } else { shards };
        let shards = (0..shards)
            .map(|_| {
                CachePadded::new(UnsafeCell::new(Partial {
                    msgs: vec![M::default(); span].into_boxed_slice(),
                    present: vec![false; span].into_boxed_slice(),
                    touched: Vec::with_capacity(span),
                }))
            })
            .collect();
        let span = VertexIndex::try_from(span).expect("a span covers at most u32 slots");
        Partials { shards, span }
    }
}

impl<M: Copy> Partials<M> {
    /// The slots `0..span` a partial covers.
    #[inline]
    pub fn span(&self) -> VertexIndex {
        self.span
    }

    /// The calling worker's partial; `None` off the pool or when there
    /// are no shards.
    #[inline]
    pub fn local(&self) -> Option<LocalPartial<'_, M>> {
        let shard = self.shards.get(ipregel_par::current_thread_index()?)?;
        Some(LocalPartial { cell: shard, _owner_thread: PhantomData })
    }

    /// Fold every touched `(slot, combined message)` into `next[slot]`
    /// with `deliver_mut` — shard order, then first-touch order — and
    /// clear only those entries, so a sparse superstep pays for what it
    /// touched, not for `span`. A first delivery is pushed onto `queued`
    /// when given (the bypass's enqueue). `next` must cover the span.
    pub fn fold<MB: Mailbox<M>>(
        &mut self,
        next: &mut [MB],
        combine: fn(&mut M, M),
        mut queued: Option<&mut Vec<VertexIndex>>,
    ) {
        for shard in self.shards.iter_mut() {
            let Partial { msgs, present, touched } = shard.get_mut();
            for &slot in touched.iter() {
                let s = slot as usize;
                present[s] = false;
                if next[s].deliver_mut(msgs[s], combine) {
                    if let Some(queued) = queued.as_deref_mut() {
                        queued.push(slot);
                    }
                }
            }
            touched.clear();
        }
    }

    /// Heap bytes: per shard a message and a presence byte per slot, plus
    /// the touched list's capacity (`span` entries, reserved once).
    pub fn bytes(&self) -> usize {
        let per_slot = std::mem::size_of::<M>()
            + std::mem::size_of::<bool>()
            + std::mem::size_of::<VertexIndex>();
        self.shards.len() * self.span as usize * per_slot
    }
}

/// The calling worker's own partial: obtained from [`Partials::local`],
/// bound to its thread (neither `Send` nor `Sync`).
pub(crate) struct LocalPartial<'a, M> {
    cell: &'a UnsafeCell<Partial<M>>,
    _owner_thread: PhantomData<*const ()>,
}

impl<M: Copy> LocalPartial<'_, M> {
    /// Fold `msg` into slot `slot` (below the span) of this worker's
    /// partial: fill it on first touch, else `combine` into it.
    #[inline]
    pub fn combine(&self, slot: VertexIndex, msg: M, combine: fn(&mut M, M)) {
        self.cell.with_mut(|p| {
            // SAFETY: this handle lives on the shard's owning worker, and
            // no other access to the shard is live while this one runs —
            // `combine` is a plain function with no way back to `self`.
            let p = unsafe { &mut *p };
            p.combine(slot, msg, combine);
        });
    }
}

/// Per-vertex epoch tags granting exactly-one enqueue per superstep.
///
/// A tag holds the last epoch for which its vertex was enqueued; `claim`
/// swaps in the current epoch and reports whether the caller won. Tags
/// never need clearing between supersteps — the epoch monotonically
/// increases — which keeps bypass bookkeeping O(active), not O(V).
#[derive(Debug)]
pub struct EpochTags {
    tags: Box<[AtomicU32]>,
}

impl EpochTags {
    /// Tags for `slots` vertices, all initially unclaimed (epoch 0 is
    /// never used: epochs start at 1).
    pub fn new(slots: usize) -> Self {
        let tags = (0..slots).map(|_| AtomicU32::new(0)).collect::<Vec<_>>().into_boxed_slice();
        EpochTags { tags }
    }

    /// Attempt to claim `v` for `epoch`; true exactly once per (v, epoch).
    #[inline]
    pub fn claim(&self, v: VertexIndex, epoch: u32) -> bool {
        let tag = &self.tags[v as usize];
        // ordering(Relaxed): advisory fast path; the swap below decides
        if tag.load(Ordering::Relaxed) == epoch {
            return false;
        }
        // swap is a single RMW: the first thread to swap sees the old
        // epoch and wins; latecomers see `epoch` and lose.
        // ordering(Relaxed): the win is decided by RMW atomicity alone;
        // the enqueue it gates is published by the superstep barrier
        tag.swap(epoch, Ordering::Relaxed) != epoch
    }

    /// Bytes of the tag array.
    pub fn bytes(&self) -> usize {
        self.tags.len() * std::mem::size_of::<AtomicU32>()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::mailbox::{AtomicMailbox, MutexMailbox, SpinMailbox};
    use ipregel_par::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn epoch_claim_is_exactly_once() {
        let tags = EpochTags::new(8);
        assert!(tags.claim(3, 1));
        assert!(!tags.claim(3, 1));
        assert!(tags.claim(3, 2)); // new epoch, claimable again
        assert!(!tags.claim(3, 2));
        assert!(tags.claim(4, 2)); // different vertex independent
        assert_eq!(tags.bytes(), 8 * 4);
    }

    #[test]
    fn concurrent_claims_grant_one_winner() {
        let (epochs, claimers) = if cfg!(miri) { (5u32, 8) } else { (50, 64) };
        let tags = EpochTags::new(1);
        for epoch in 1..epochs {
            let winners: u32 =
                (0..claimers).into_par_iter().map(|_| u32::from(tags.claim(0, epoch))).sum();
            assert_eq!(winners, 1, "epoch {epoch} had {winners} winners");
        }
    }

    #[test]
    fn dedup_keeps_one_entry_per_vertex() {
        let slots = if cfg!(miri) { 32 } else { 256 };
        let tags = EpochTags::new(slots);
        let queued: Vec<u32> = (0..slots * 16)
            .into_par_iter()
            .map(|i| (i % slots) as u32)
            .filter(|&v| tags.claim(v, 1))
            .collect();
        assert_eq!(queued.len(), slots);
        let set: HashSet<u32> = queued.into_iter().collect();
        assert_eq!(set.len(), slots);
    }

    mod reference {
        //! The barrier's partial flush before the unlocked fold: every
        //! touched slot, shard order then first-touch order, handed to the
        //! mailbox's locked `deliver`.

        use crate::mailbox::Mailbox;
        use ipregel_graph::VertexIndex;

        /// One worker's partial: a combined message per slot it touched,
        /// and the slots in first-touch order.
        pub struct Partial<M> {
            msgs: Vec<Option<M>>,
            touched: Vec<VertexIndex>,
        }

        impl<M: Copy> Partial<M> {
            pub fn new(span: usize) -> Self {
                Partial { msgs: vec![None; span], touched: Vec::new() }
            }

            pub fn combine(&mut self, slot: VertexIndex, msg: M, combine: fn(&mut M, M)) {
                match &mut self.msgs[slot as usize] {
                    Some(old) => combine(old, msg),
                    empty => {
                        *empty = Some(msg);
                        self.touched.push(slot);
                    }
                }
            }
        }

        pub fn flush<M: Copy, MB: Mailbox<M>>(
            shards: &mut [Partial<M>],
            next: &[MB],
            combine: fn(&mut M, M),
            mut queued: Option<&mut Vec<VertexIndex>>,
        ) {
            for shard in shards {
                for &slot in &shard.touched {
                    let msg = shard.msgs[slot as usize].take().expect("a touched slot holds mail");
                    if next[slot as usize].deliver(msg, combine) {
                        if let Some(queued) = queued.as_deref_mut() {
                            queued.push(slot);
                        }
                    }
                }
                shard.touched.clear();
            }
        }
    }

    fn sum(old: &mut f64, new: f64) {
        *old += new;
    }

    /// One round of sends: `(shard, slot, message)`. Dense rounds touch
    /// most slots of every shard, several times; sparse ones a handful.
    /// Messages are sums of unlike magnitudes, so any regrouping changes
    /// their bits.
    fn sends(shards: usize, span: usize, dense: bool, seed: u64) -> Vec<(usize, VertexIndex, f64)> {
        let mut x = seed | 1;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let count = if dense { shards * span * 3 } else { 1 + next() as usize % 4 };
        (0..count)
            .map(|_| {
                let shard = next() as usize % shards;
                let slot = (next() as usize % span) as VertexIndex;
                let msg = (next() % 1000) as f64 * 10f64.powi((next() % 13) as i32 - 6);
                (shard, slot, msg)
            })
            .collect()
    }

    /// Mailboxes over `span + 3` slots, some holding mail already: one
    /// above the span, and one a shard may also fold into.
    fn mailboxes<MB: Mailbox<f64>>(span: usize, seed: u64) -> Vec<MB> {
        let mut next: Vec<MB> = (0..span + 3).map(|_| MB::empty()).collect();
        next[span + 1].deliver_mut(0.25, sum);
        next[seed as usize % span].deliver_mut(1.5, sum);
        next
    }

    fn bits<MB: Mailbox<f64>>(next: &[MB]) -> Vec<Option<u64>> {
        next.iter().map(|m| m.snapshot().map(f64::to_bits)).collect()
    }

    /// Two rounds of sends through one set of partials, each folded by
    /// `fold` and by the reference flush into fresh mailboxes: the
    /// mailboxes must match bit for bit and the enqueued slots exactly.
    /// The second round starts from what the first fold left behind, so
    /// a presence byte it failed to clear shows there.
    fn check_fold<MB: Mailbox<f64>>(
        shards: usize,
        span: usize,
        dense: bool,
        bypass: bool,
        seed: u64,
    ) {
        let case =
            format!("{shards} shards, span {span}, dense {dense}, bypass {bypass}, seed {seed}");
        let mut partials = Partials::<f64>::new(shards, span);
        for round in 0..2u64 {
            let seed = seed.wrapping_add(round);
            let mut model: Vec<reference::Partial<f64>> =
                (0..shards).map(|_| reference::Partial::new(span)).collect();
            for (shard, slot, msg) in sends(shards, span, dense, seed) {
                partials.shards[shard].get_mut().combine(slot, msg, sum);
                model[shard].combine(slot, msg, sum);
            }
            let expected = mailboxes::<MB>(span, seed);
            let mut expected_queue = Vec::new();
            reference::flush(&mut model, &expected, sum, bypass.then_some(&mut expected_queue));
            let mut next = mailboxes::<MB>(span, seed);
            let mut queue = Vec::new();
            partials.fold(&mut next, sum, bypass.then_some(&mut queue));
            assert_eq!(bits(&next), bits(&expected), "{case}, round {round}: mailboxes differ");
            assert_eq!(queue, expected_queue, "{case}, round {round}: enqueued slots differ");
        }
    }

    #[test]
    fn the_unlocked_fold_equals_the_locked_flush() {
        let seeds = if cfg!(miri) { 1 } else { 16 };
        for shards in 1..=4 {
            for span in [1, 2, 3, 7, 64, 129] {
                for dense in [false, true] {
                    for bypass in [false, true] {
                        for seed in 0..seeds {
                            check_fold::<SpinMailbox<f64>>(shards, span, dense, bypass, seed);
                            check_fold::<MutexMailbox<f64>>(shards, span, dense, bypass, seed);
                            check_fold::<AtomicMailbox<f64>>(shards, span, dense, bypass, seed);
                        }
                    }
                }
            }
        }
    }
}
