//! Active-vertex selection: scanning vs. the selection bypass (Section 4).
//!
//! Conventional frameworks iterate *all* vertices each superstep, checking
//! active state and inbox; inactive vertices make those checks unfruitful.
//! When every vertex votes to halt at each superstep, "active next
//! superstep" ≡ "received a message" — so the *sender* can record its
//! recipient in the next superstep's worklist at send time, and the
//! selection phase disappears. It also improves load balance: the
//! worklist is split evenly across threads and every entry is guaranteed
//! runnable.
//!
//! [`Worklist`] is the bypass data structure: one shard per worker thread
//! so concurrent pushes never contend on a shared cursor. Exactly-once
//! enqueueing comes for free in the push engines (the mailbox's
//! empty→occupied transition is observed under its own synchronisation);
//! the pull engine, whose senders enqueue *out-neighbours*, deduplicates
//! with [`EpochTags`].
//!
//! `Partials`, the push engine's per-worker sender-side combining
//! buffers, live here too because they follow the worklist's shard
//! protocol exactly.
//!
//! Synchronisation state comes from [`crate::sync`], so the shard
//! handoff (worker-exclusive writes during a parallel region, then
//! orchestrator-exclusive drain after the barrier) is model-checked by
//! the loom suite in `tests/loom.rs`.

use std::marker::PhantomData;

use crate::sync::atomic::{AtomicU32, Ordering};
use crate::sync::cell::UnsafeCell;
use crate::sync::lockorder::{classes, OrderedMutex};

use ipregel_par::CachePadded;
use ipregel_graph::VertexIndex;

/// A concurrent list of vertices to run next superstep, with one private
/// shard per pool worker thread.
///
/// The hot path — `push` from inside a parallel region — is a plain
/// `Vec::push` into the calling worker's own shard: no lock, no shared
/// cursor, no cache-line ping-pong. This matches the C original, where
/// each OpenMP thread appends to a thread-local list. Pushes from
/// outside the pool (never the engines' case) fall back to a mutex.
///
/// # Safety model
/// A shard is touched only by the worker whose pool
/// thread index owns it; `len`/`drain_to_vec`/`clear`/`take` are called by
/// the orchestrating thread strictly between parallel regions (after the
/// superstep barrier), when no pushes are in flight.
#[derive(Debug)]
pub struct Worklist {
    shards: Box<[CachePadded<UnsafeCell<Vec<VertexIndex>>>]>,
    fallback: OrderedMutex<Vec<VertexIndex>>,
}

// SAFETY: see the safety model above — shards are disjoint per worker
// thread during parallel regions, and exclusively owned between them.
unsafe impl Sync for Worklist {}
// SAFETY: moving the worklist moves plain owned Vecs; nothing is
// thread-affine.
unsafe impl Send for Worklist {}

impl Worklist {
    /// A worklist for a graph of `slots` vertices, sharded for the
    /// current thread pool (engines construct it inside their pool).
    pub fn new(slots: usize) -> Self {
        Self::with_shards(slots, ipregel_par::current_num_threads().max(1))
    }

    /// A worklist with an explicit shard count. Exposed for tests (the
    /// loom suite models the shard handoff without a thread pool); the
    /// engines use [`Worklist::new`].
    pub fn with_shards(slots: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = (slots / shards).max(16);
        let shards = (0..shards)
            .map(|_| CachePadded::new(UnsafeCell::new(Vec::with_capacity(per_shard))))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Worklist { shards, fallback: OrderedMutex::new(&classes::WORKLIST_FALLBACK, Vec::new()) }
    }

    /// Append `v`. Caller-side dedup (mailbox transition or epoch tags)
    /// keeps total pushes bounded by the vertex count per superstep.
    #[inline]
    pub fn push(&self, v: VertexIndex) {
        match ipregel_par::current_thread_index() {
            // SAFETY: worker `i` is the only thread that ever touches
            // shard `i % shards` inside a parallel region (pool worker
            // indices are unique within the pool, and the pool has as
            // many threads as the worklist has shards).
            Some(i) => unsafe { self.push_to_shard(i, v) },
            // lock-order(worklist.fallback)
            None => self.fallback.lock().expect("worklist fallback poisoned").push(v),
        }
    }

    /// Append `v` through an exclusive borrow — a superstep the
    /// orchestrating thread runs alone: into the first shard, with no
    /// worker-index lookup and no lock.
    #[inline]
    pub fn push_mut(&mut self, v: VertexIndex) {
        self.shards[0].get_mut().push(v);
    }

    /// Append `v` to shard `shard % shards`.
    ///
    /// [`Worklist::push`] derives the shard from the pool worker index;
    /// the loom suite calls this directly (one model thread per shard)
    /// so the model checker can verify the handoff protocol itself.
    ///
    /// # Safety
    /// During a parallel region a shard must be touched by exactly one
    /// thread; the caller picks the shard and therefore owns that
    /// argument. Under loom the access is tracked, so a violation fails
    /// the model instead of being undefined behaviour.
    #[inline]
    pub unsafe fn push_to_shard(&self, shard: usize, v: VertexIndex) {
        self.shards[shard % self.shards.len()].with_mut(|p| {
            // SAFETY: the fn's contract gives this thread exclusive
            // ownership of the shard for the current parallel region.
            unsafe { (*p).push(v) }
        });
    }

    /// Number of queued vertices (post-barrier).
    pub fn len(&self) -> usize {
        let sharded: usize = self
            .shards
            .iter()
            // SAFETY: called between parallel regions; no concurrent pushes.
            .map(|s| s.with(|p| unsafe { (*p).len() }))
            .sum();
        // lock-order(worklist.fallback)
        sharded + self.fallback.lock().expect("worklist fallback poisoned").len()
    }

    /// Whether nothing is queued (post-barrier).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out the queued vertices (post-barrier; shard order, then
    /// fallback entries). Does not consume: pair with [`Worklist::clear`]
    /// before the next superstep, or entries would be drained twice.
    pub fn drain_to_vec(&self) -> Vec<VertexIndex> {
        let mut out = Vec::with_capacity(self.len());
        for s in self.shards.iter() {
            // SAFETY: called between parallel regions.
            s.with(|p| out.extend_from_slice(unsafe { &*p }));
        }
        // lock-order(worklist.fallback)
        out.extend_from_slice(&self.fallback.lock().expect("worklist fallback poisoned"));
        out
    }

    /// Move the queued vertices out (post-barrier; shard order, then
    /// fallback entries), leaving the worklist empty with its capacity
    /// kept: [`Worklist::drain_to_vec`] and [`Worklist::clear`] in one
    /// pass, under one hold of the fallback lock — what the engines call
    /// every superstep.
    pub fn take(&self) -> Vec<VertexIndex> {
        // lock-order(worklist.fallback)
        let mut fallback = self.fallback.lock().expect("worklist fallback poisoned");
        let sharded: usize = self
            .shards
            .iter()
            // SAFETY: called between parallel regions; no concurrent pushes.
            .map(|s| s.with(|p| unsafe { (*p).len() }))
            .sum();
        let mut out = Vec::with_capacity(sharded + fallback.len());
        for s in self.shards.iter() {
            // SAFETY: called between parallel regions.
            s.with_mut(|p| out.append(unsafe { &mut *p }));
        }
        out.append(&mut fallback);
        out
    }

    /// Reset to empty, keeping shard capacity for reuse (post-barrier).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            // SAFETY: called between parallel regions.
            s.with_mut(|p| unsafe { (*p).clear() });
        }
        // lock-order(worklist.fallback)
        self.fallback.lock().expect("worklist fallback poisoned").clear();
    }

    /// Current heap bytes across shards (capacity, not length;
    /// post-barrier).
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            // SAFETY: called between parallel regions.
            .map(|s| s.with(|p| unsafe { (*p).capacity() }) * std::mem::size_of::<VertexIndex>())
            .sum::<usize>()
            // lock-order(worklist.fallback)
            + self.fallback.lock().expect("worklist fallback poisoned").capacity()
                * std::mem::size_of::<VertexIndex>()
            + self.shards.len() * std::mem::size_of::<CachePadded<UnsafeCell<Vec<VertexIndex>>>>()
    }
}

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
/// [`Worklist`]'s: a shard is touched only through a [`LocalPartial`],
/// which exists only on the worker whose pool thread index owns the shard
/// and cannot leave that thread; `flush` takes `&mut self`, so it runs
/// strictly between parallel regions.
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
    use std::collections::{HashMap, HashSet};

    #[test]
    fn push_and_drain() {
        let wl = Worklist::new(4);
        wl.push(3);
        wl.push(1);
        assert_eq!(wl.len(), 2);
        let mut v = wl.drain_to_vec();
        v.sort();
        assert_eq!(v, vec![1, 3]);
        wl.clear();
        assert!(wl.is_empty());
    }

    #[test]
    fn concurrent_pushes_all_land() {
        let n: u32 = if cfg!(miri) { 256 } else { 10_000 };
        let wl = Worklist::new(n as usize);
        (0..n).into_par_iter().for_each(|i| wl.push(i));
        assert_eq!(wl.len(), n as usize);
        let set: HashSet<u32> = wl.drain_to_vec().into_iter().collect();
        assert_eq!(set.len(), n as usize);
    }

    #[test]
    fn clear_then_reuse() {
        let wl = Worklist::new(8);
        wl.push(1);
        wl.clear();
        wl.push(2);
        assert_eq!(wl.drain_to_vec(), vec![2]);
    }

    #[test]
    fn fallback_pushes_merge_into_drain_exactly_once() {
        // Regression test for the mutex fallback path: pushes from
        // threads outside the thread pool must land in `fallback`, be
        // counted by `len`, appear in a drain exactly once alongside the
        // sharded entries, and be removed by `clear`.
        let wl = Worklist::new(64);
        // The orchestrating (test) thread is not a pool worker.
        assert!(ipregel_par::current_thread_index().is_none());
        wl.push(100); // fallback entry #1
        let n_pool: u32 = if cfg!(miri) { 8 } else { 32 };
        // Worker-shard entries from inside the pool.
        (0..n_pool).into_par_iter().for_each(|i| wl.push(i));
        // A plain OS thread (also not a pool worker) → fallback #2.
        std::thread::scope(|s| {
            s.spawn(|| wl.push(101));
        });
        let expected = n_pool as usize + 2;
        assert_eq!(wl.len(), expected, "fallback entries must be counted");
        let drained = wl.drain_to_vec();
        assert_eq!(drained.len(), expected);
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for v in &drained {
            *counts.entry(*v).or_insert(0) += 1;
        }
        assert!(counts.values().all(|&c| c == 1), "every entry exactly once: {counts:?}");
        assert!(counts.contains_key(&100) && counts.contains_key(&101));
        // bytes() must see the fallback vec's storage too.
        assert!(wl.bytes() >= expected * std::mem::size_of::<VertexIndex>());
        // clear() empties the fallback as well: a fresh drain is empty,
        // so nothing can ever be merged twice across supersteps.
        wl.clear();
        assert!(wl.is_empty());
        assert_eq!(wl.drain_to_vec(), Vec::<u32>::new());
    }

    #[test]
    fn take_moves_everything_out_exactly_once() {
        let wl = Worklist::new(64);
        let n: u32 = if cfg!(miri) { 64 } else { 4096 };
        (0..n).into_par_iter().for_each(|i| wl.push(i ^ 0x2a));
        wl.push(n); // from this non-pool thread: the fallback entry
        let before = wl.bytes();
        let mut taken = wl.take();
        taken.sort_unstable();
        assert_eq!(taken, (0..=n).collect::<Vec<u32>>(), "shards and fallback, each entry once");
        // take empties: nothing can be handed out twice.
        assert!(wl.is_empty());
        assert_eq!(wl.take(), Vec::<u32>::new());
        assert_eq!(wl.bytes(), before, "capacity stays for the next superstep");
    }

    #[test]
    fn epoch_claim_is_exactly_once() {
        let tags = EpochTags::new(8);
        assert!(tags.claim(3, 1));
        assert!(!tags.claim(3, 1));
        assert!(tags.claim(3, 2)); // new epoch, claimable again
        assert!(!tags.claim(3, 2));
        assert!(tags.claim(4, 2)); // different vertex independent
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
        let wl = Worklist::new(slots);
        let tags = EpochTags::new(slots);
        (0..slots * 16).into_par_iter().for_each(|i| {
            let v = (i % slots) as u32;
            if tags.claim(v, 1) {
                wl.push(v);
            }
        });
        assert_eq!(wl.len(), slots);
        let set: HashSet<u32> = wl.drain_to_vec().into_iter().collect();
        assert_eq!(set.len(), slots);
    }

    #[test]
    fn bytes_reflect_storage() {
        let wl = Worklist::new(1000);
        let before = wl.bytes();
        assert!(before > 0);
        for v in 0..10_000u32 {
            wl.push(v);
        }
        assert!(wl.bytes() >= 10_000 * 4);
        let tags = EpochTags::new(100);
        assert_eq!(tags.bytes(), 400);
    }
}
