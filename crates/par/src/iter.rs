//! Mini parallel iterators over the in-tree pool.
//!
//! This is an *indexed-evaluation* model, deliberately simpler than
//! rayon's producer/consumer architecture: every iterator knows its
//! length and can evaluate position `i` independently
//! (`eval(i) -> Option<Item>`, where `None` means "filtered out").
//! Consumers split `0..len` into a fixed, deterministic chunk plan —
//! `min(len / min_len, current_num_threads × 8)` contiguous chunks,
//! `min_len` being 1 unless [`ParallelIterator::with_min_len`] raised it
//! — spawn one scope task per chunk, evaluate each chunk sequentially on
//! a pool worker, and combine the per-chunk partial results
//! **sequentially in chunk order** on the calling thread. A plan of one
//! chunk is the caller's own work: it runs right there, opening no
//! scope, boxing no job and waking nobody.
//!
//! Two consequences the rest of the workspace relies on:
//!
//! - **Worker-index routing holds.** The chunks of a forked plan always
//!   run on pool workers, and a one-chunk plan runs on its caller — a
//!   worker whenever the caller is one, as the engines' are under a
//!   pool of their own. `current_thread_index()` is therefore `Some(_)`
//!   inside `for_each`/`map` closures and the sharded
//!   `Worklist`/`Tracer` paths stay on their lock-free lanes, except in
//!   a one-chunk plan started from outside any pool, where those paths
//!   take their mutex fallback.
//! - **Determinism is *stronger* than rayon's.** For a fixed thread
//!   count the chunk plan is fixed and reduction order is chunk order,
//!   so even non-associative combines (f64 sums) are reproducible
//!   run-to-run — rayon's adaptive splitting does not guarantee that.
//!
//! Only the adapter/consumer surface the workspace actually uses is
//! implemented: `map`, `filter`, `enumerate`, `zip`, `for_each`,
//! `collect::<Vec<_>>`, `sum`, `count`, `reduce`, `reduce_with`, plus
//! `with_min_len`. `enumerate`/`zip` are index-based and
//! must sit *before* any `filter` (rayon encodes the same restriction
//! through its `IndexedParallelIterator` trait; here it is documented
//! instead of typed).

#![forbid(unsafe_code)]

use crate::lockorder::{classes, OrderedMutex};
use crate::pool;
use std::ops::Range;

/// Chunks per worker thread. At least the engine chunk planner's
/// maximum oversubscription factor (base ×4, over-partitioned adaptive
/// plans ×8 — see `crates/core/src/engine/chunks.rs`), so one `scope`
/// task always maps to one plan chunk and an idle worker takes the next
/// chunk at plan-chunk granularity.
const CHUNKS_PER_THREAD: usize = 8;

/// The deterministic chunk plan for a consumer over `len` items, each
/// chunk at least `min_len` long.
fn chunk_bounds(len: usize, min_len: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks =
        (len / min_len.max(1)).clamp(1, pool::current_num_threads().max(1) * CHUNKS_PER_THREAD);
    let base = len / chunks;
    let extra = len % chunks;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0;
    for ci in 0..chunks {
        let size = base + usize::from(ci < extra);
        bounds.push(start..start + size);
        start += size;
    }
    bounds
}

/// Evaluate `run` over every chunk — on pool workers when there are
/// several, on the caller when there is one; return the partial results
/// **in chunk order**. Panics in a chunk propagate to the caller after
/// all sibling chunks drained (scope semantics).
fn drive<R, F>(len: usize, min_len: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let bounds = chunk_bounds(len, min_len);
    if bounds.len() <= 1 {
        return bounds.into_iter().map(run).collect();
    }
    let slots: Vec<OrderedMutex<Option<R>>> =
        bounds.iter().map(|_| OrderedMutex::new(&classes::POOL_RESULT, None)).collect();
    {
        let run = &run;
        let slots = &slots;
        pool::scope(|s| {
            for (ci, range) in bounds.into_iter().enumerate() {
                s.spawn(move |_| {
                    // Evaluate the chunk *before* taking the slot lock:
                    // user closures must never run while a pool.result
                    // lock is held (nested scopes inside `run` would
                    // trip the lock-order detector, and rightly so).
                    let out = run(range);
                    // lock-order(pool.result)
                    *slots[ci].lock().expect("chunk slot poisoned") = Some(out);
                });
            }
        });
    }
    slots.into_iter()
        .map(|m| {
            m.into_inner().expect("chunk slot poisoned").expect("scope waited for every chunk")
        })
        .collect()
}

/// A parallel iterator: an indexed sequence evaluated on pool workers.
///
/// `eval(i)` must be pure enough to run concurrently from many threads
/// (`&self`, `Sync`); `None` marks a position removed by `filter`.
pub trait ParallelIterator: Sized + Send + Sync {
    /// The produced item type.
    type Item: Send;

    /// Number of indexable positions (pre-`filter`).
    fn len(&self) -> usize;

    /// Evaluate position `i`; `None` if filtered out.
    fn eval(&self, i: usize) -> Option<Self::Item>;

    /// True when the sequence has no positions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fewest positions a chunk of this sequence's plan may hold.
    fn min_len(&self) -> usize {
        1
    }

    /// Give every chunk at least `min` positions (as in rayon): a
    /// sequence shorter than `2 × min` is one chunk and runs on the
    /// caller. For loops whose items are too cheap to be worth a task
    /// each below some count.
    fn with_min_len(self, min: usize) -> MinLen<Self> {
        MinLen { base: self, min }
    }

    /// Transform each item.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Keep items satisfying `pred` (called with `&Item`, as in rayon).
    fn filter<P>(self, pred: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter { base: self, pred }
    }

    /// Pair each item with its index. Index-based: apply before any
    /// `filter`, never after (see the module docs).
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Pair items positionally with another sequence (length = the
    /// shorter of the two). Index-based, like `enumerate`.
    fn zip<B>(self, other: B) -> Zip<Self, B::Iter>
    where
        B: IntoParallelIterator,
    {
        Zip { a: self, b: other.into_par_iter() }
    }

    /// Run `f` on every item, in parallel over the chunk plan.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        drive(self.len(), self.min_len(), |r| {
            for i in r {
                if let Some(item) = self.eval(i) {
                    f(item);
                }
            }
        });
    }

    /// Collect into a container (order-preserving).
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    /// Sum the items. Chunk partials are combined in chunk order, so the
    /// result is deterministic for a fixed thread count even for floats.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        drive(self.len(), self.min_len(), |r| r.filter_map(|i| self.eval(i)).sum::<S>()).into_iter().sum()
    }

    /// Count the surviving items.
    fn count(self) -> usize {
        drive(self.len(), self.min_len(), |r| r.filter_map(|i| self.eval(i)).count()).into_iter().sum()
    }

    /// Fold all items with `op`, seeding every chunk from `identity`.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        drive(self.len(), self.min_len(), |r| r.filter_map(|i| self.eval(i)).fold(identity(), &op))
            .into_iter()
            .fold(identity(), &op)
    }

    /// Fold all items with `op`; `None` when everything was filtered.
    fn reduce_with<OP>(self, op: OP) -> Option<Self::Item>
    where
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        drive(self.len(), self.min_len(), |r| r.filter_map(|i| self.eval(i)).reduce(&op))
            .into_iter()
            .flatten()
            .reduce(&op)
    }
}

/// Conversion into a [`ParallelIterator`] (mirrors rayon's trait).
pub trait IntoParallelIterator {
    /// The resulting iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The produced item type.
    type Item: Send;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl<I: ParallelIterator> IntoParallelIterator for I {
    type Iter = I;
    type Item = I::Item;
    fn into_par_iter(self) -> I {
        self
    }
}

/// `par_iter()` by shared reference (mirrors rayon's blanket scheme).
pub trait IntoParallelRefIterator<'a> {
    /// The resulting iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The produced item type.
    type Item: Send + 'a;
    /// Iterate the borrowed contents in parallel.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoParallelIterator,
{
    type Iter = <&'a C as IntoParallelIterator>::Iter;
    type Item = <&'a C as IntoParallelIterator>::Item;
    fn par_iter(&'a self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// Parallel iterator over `&[T]`.
pub struct SliceIter<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn eval(&self, i: usize) -> Option<&'a T> {
        Some(&self.slice[i])
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self.as_slice() }
    }
}

/// Integer types usable as parallel range endpoints.
pub trait RangeInteger: Copy + Send + Sync {
    /// `max(end - start, 0)` as a usize.
    fn span(start: Self, end: Self) -> usize;
    /// `start + i`.
    fn offset(start: Self, i: usize) -> Self;
}

macro_rules! range_integer {
    ($($t:ty),*) => {$(
        impl RangeInteger for $t {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            fn span(start: Self, end: Self) -> usize {
                if end > start { (end - start) as usize } else { 0 }
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            fn offset(start: Self, i: usize) -> Self {
                start + i as $t
            }
        }
    )*};
}

range_integer!(u16, u32, u64, usize, i32, i64);

/// Parallel iterator over an integer range.
pub struct RangeIter<T: RangeInteger> {
    start: T,
    len: usize,
}

impl<T: RangeInteger> ParallelIterator for RangeIter<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.len
    }
    fn eval(&self, i: usize) -> Option<T> {
        Some(T::offset(self.start, i))
    }
}

impl<T: RangeInteger> IntoParallelIterator for Range<T> {
    type Iter = RangeIter<T>;
    type Item = T;
    fn into_par_iter(self) -> RangeIter<T> {
        RangeIter { start: self.start, len: T::span(self.start, self.end) }
    }
}

/// See [`ParallelIterator::map`].
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync + Send,
{
    type Item = R;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn eval(&self, i: usize) -> Option<R> {
        self.base.eval(i).map(&self.f)
    }
    fn min_len(&self) -> usize {
        self.base.min_len()
    }
}

/// See [`ParallelIterator::filter`].
pub struct Filter<I, P> {
    base: I,
    pred: P,
}

impl<I, P> ParallelIterator for Filter<I, P>
where
    I: ParallelIterator,
    P: Fn(&I::Item) -> bool + Sync + Send,
{
    type Item = I::Item;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn eval(&self, i: usize) -> Option<I::Item> {
        self.base.eval(i).filter(|item| (self.pred)(item))
    }
    fn min_len(&self) -> usize {
        self.base.min_len()
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<I> {
    base: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    fn len(&self) -> usize {
        self.base.len()
    }
    fn eval(&self, i: usize) -> Option<(usize, I::Item)> {
        self.base.eval(i).map(|item| (i, item))
    }
    fn min_len(&self) -> usize {
        self.base.min_len()
    }
}

/// See [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn eval(&self, i: usize) -> Option<(A::Item, B::Item)> {
        match (self.a.eval(i), self.b.eval(i)) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        }
    }
    fn min_len(&self) -> usize {
        self.a.min_len().max(self.b.min_len())
    }
}

/// See [`ParallelIterator::with_min_len`].
pub struct MinLen<I> {
    base: I,
    min: usize,
}

impl<I: ParallelIterator> ParallelIterator for MinLen<I> {
    type Item = I::Item;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn eval(&self, i: usize) -> Option<I::Item> {
        self.base.eval(i)
    }
    fn min_len(&self) -> usize {
        self.min.max(self.base.min_len())
    }
}

/// Collection from a parallel iterator (mirrors rayon's trait).
pub trait FromParallelIterator<T: Send> {
    /// Build the collection, preserving sequence order.
    fn from_par_iter<I>(iter: I) -> Self
    where
        I: IntoParallelIterator<Item = T>;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I>(iter: I) -> Self
    where
        I: IntoParallelIterator<Item = T>,
    {
        let iter = iter.into_par_iter();
        let parts = drive(iter.len(), iter.min_len(), |r| {
            r.filter_map(|i| iter.eval(i)).collect::<Vec<T>>()
        });
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            out.extend(part);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_map_collect_preserves_order() {
        let xs: Vec<u32> = (0..10_000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| u64::from(x) * 2).collect();
        assert_eq!(doubled.len(), 10_000);
        assert!(doubled.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
    }

    #[test]
    fn range_filter_collect_preserves_order() {
        let odd: Vec<u32> = (0u32..1000).into_par_iter().filter(|&v| v % 2 == 1).collect();
        let expect: Vec<u32> = (0..1000).filter(|v| v % 2 == 1).collect();
        assert_eq!(odd, expect);
    }

    #[test]
    fn enumerate_indices_match_positions() {
        let xs = vec![10u32, 20, 30, 40];
        let pairs: Vec<(usize, u32)> = xs.par_iter().enumerate().map(|(i, &v)| (i, v)).collect();
        assert_eq!(pairs, vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
    }

    #[test]
    fn zip_pairs_positionally_and_truncates() {
        let a = vec![1u32, 2, 3];
        let b = vec![10u32, 20, 30, 40];
        let sum: u32 = a.par_iter().zip(b.par_iter()).map(|(&x, &y)| x + y).sum();
        assert_eq!(sum, 11 + 22 + 33);
    }

    #[test]
    fn sum_count_reduce_agree_with_sequential() {
        let xs: Vec<u64> = (0..5000).collect();
        let s: u64 = xs.par_iter().map(|&x| x).sum();
        assert_eq!(s, 4999 * 5000 / 2);
        assert_eq!(xs.par_iter().filter(|&&x| x % 7 == 0).count(), xs.len().div_ceil(7));
        let max = (0u64..5000)
            .into_par_iter()
            .map(|v| (v, 1u64))
            .reduce(|| (0, 0), |a, b| (a.0.max(b.0), a.1 + b.1));
        assert_eq!(max, (4999, 5000));
        assert_eq!(xs.par_iter().map(|&x| x).reduce_with(u64::max), Some(4999));
        let none: Option<u64> =
            xs.par_iter().map(|&x| x).filter(|_| false).reduce_with(u64::max);
        assert_eq!(none, None);
    }

    #[test]
    fn for_each_runs_on_workers_with_indices() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let on_worker = AtomicUsize::new(0);
        let total = 1000usize;
        (0..total).into_par_iter().for_each(|_| {
            if pool::current_thread_index().is_some() {
                // ordering(Relaxed): test tally; for_each exit synchronizes
                on_worker.fetch_add(1, Ordering::Relaxed);
            }
        });
        // ordering(Relaxed): read after the parallel call returned
        assert_eq!(on_worker.load(Ordering::Relaxed), total, "no chunk ran off-pool");
    }

    /// Jobs `f` pushes to a two-thread pool of its own, run on one of
    /// its workers (the shape the engines run in).
    fn spawned_by(f: impl FnOnce() + Send) -> u64 {
        let pool = pool::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| {
            let before = pool::current_pool_stats().spawned;
            f();
            pool::current_pool_stats().spawned - before
        })
    }

    #[test]
    fn a_one_chunk_plan_runs_on_its_caller_and_spawns_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let xs: Vec<u32> = (0..1000).collect();
        let spawned = spawned_by(|| {
            let caller = pool::current_thread_index();
            assert!(caller.is_some(), "install runs on a worker");
            let seen = AtomicUsize::new(0);
            xs.par_iter().with_min_len(501).for_each(|_| {
                assert_eq!(pool::current_thread_index(), caller, "ran off the caller");
                // ordering(Relaxed): test tally, read on the same thread
                seen.fetch_add(1, Ordering::Relaxed);
            });
            // ordering(Relaxed): every increment happened on this thread
            assert_eq!(seen.load(Ordering::Relaxed), 1000);
            let one: Vec<u32> = xs[..1].par_iter().map(|&x| x + 1).collect();
            assert_eq!(one, vec![1]);
        });
        assert_eq!(spawned, 0, "one chunk must not reach the pool");
    }

    #[test]
    fn min_len_bounds_the_chunk_count() {
        let xs: Vec<u64> = (0..1000).collect();
        // 1000 / 300 = 3 chunks of at least 300; the sum does not care.
        let spawned = spawned_by(|| {
            let s: u64 = xs.par_iter().with_min_len(300).map(|&x| x).sum();
            assert_eq!(s, 999 * 1000 / 2);
        });
        assert_eq!(spawned, 3);
        // Unset, the plan is as fine as the pool allows: 2 threads × 8.
        assert_eq!(spawned_by(|| xs.par_iter().for_each(|_| {})), 16);
        // The floor survives adapters stacked on top of it.
        let spawned = spawned_by(|| {
            let n = xs.par_iter().with_min_len(400).enumerate().filter(|(i, _)| i % 2 == 0).count();
            assert_eq!(n, 500);
        });
        assert_eq!(spawned, 2);
    }

    #[test]
    fn float_sum_is_deterministic_across_runs() {
        let xs: Vec<f64> = (0..4096).map(|i| 1.0 / f64::from(i + 1)).collect();
        let first: f64 = xs.par_iter().map(|&x| x).sum();
        for _ in 0..8 {
            let again: f64 = xs.par_iter().map(|&x| x).sum();
            assert_eq!(first.to_bits(), again.to_bits(), "chunk-ordered combine");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let xs: Vec<u32> = Vec::new();
        let out: Vec<u32> = xs.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let s: u32 = (0u32..0).into_par_iter().sum();
        assert_eq!(s, 0);
    }
}
