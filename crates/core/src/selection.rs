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
//! worker.

use std::marker::PhantomData;

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
/// into the mailboxes after the barrier ([`Partials::flush`]), so a slot
/// below `span` takes one locked delivery per worker per superstep
/// instead of one per message. Senders outside the pool get no partial.
///
/// # Safety model
/// There is one shard per thread of the pool the partials were built in,
/// and a shard is touched only through a [`LocalPartial`]. That handle
/// exists only on the worker whose pool thread index owns the shard —
/// indices are unique within a pool, and an index past the last shard
/// gets no partial — and it cannot leave that thread. `flush` takes
/// `&mut self`, so it runs strictly between parallel regions, when no
/// handle is live.
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

// SAFETY: see the safety model above — each shard has one writer during a
// parallel region, and `flush` holds the whole structure exclusively.
unsafe impl<M: Send> Sync for Partials<M> {}
// SAFETY: moving the partials moves plain owned buffers.
unsafe impl<M: Send> Send for Partials<M> {}

impl<M: Copy + Default> Partials<M> {
    /// Partials over `span` slots, one per thread of the current pool
    /// (engines construct them inside their pool). A span of 0 allocates
    /// nothing.
    pub fn new(span: usize) -> Self {
        let shards = if span == 0 { 0 } else { ipregel_par::current_num_threads().max(1) };
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

    /// The calling worker's partial; `None` off the pool or when the span
    /// is empty.
    #[inline]
    pub fn local(&self) -> Option<LocalPartial<'_, M>> {
        let shard = self.shards.get(ipregel_par::current_thread_index()?)?;
        Some(LocalPartial { cell: shard, _owner_thread: PhantomData })
    }

    /// Hand every touched `(slot, combined message)` to `sink` — shard
    /// order, then first-touch order — and clear only those entries, so a
    /// sparse superstep pays for what it touched, not for `span`.
    pub fn flush(&mut self, mut sink: impl FnMut(VertexIndex, M)) {
        for shard in self.shards.iter() {
            shard.with_mut(|p| {
                // SAFETY: `&mut self` — no worker holds a `LocalPartial`.
                let p = unsafe { &mut *p };
                for &slot in &p.touched {
                    sink(slot, p.msgs[slot as usize]);
                    p.present[slot as usize] = false;
                }
                p.touched.clear();
            });
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
            let s = slot as usize;
            if p.present[s] {
                combine(&mut p.msgs[s], msg);
            } else {
                p.present[s] = true;
                p.msgs[s] = msg;
                p.touched.push(slot);
            }
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
}
