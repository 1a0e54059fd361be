//! A shared slice with caller-guaranteed disjoint access.
//!
//! The engines process each active vertex exactly once per superstep, so
//! per-vertex state (values, halted flags, outboxes) is mutated by at most
//! one thread at a time even though the slice itself is shared across the
//! thread pool. [`SharedSlice`] encodes that contract: it hands out `&mut`
//! references through a shared reference, and the *engine* is responsible
//! for index disjointness (guaranteed by the worklist's exactly-once
//! enqueueing or by the scan's distinct indices).
//!
//! This is the standard "split by index" pattern from the concurrency
//! literature (cf. Rust Atomics and Locks, ch. 1: exclusive access can be
//! subdivided structurally); `unsafe` is confined to this module.
//!
//! # Representation
//!
//! The view is a raw base pointer + length captured from the `&mut [T]`,
//! not a `&[UnsafeCell<T>]` cast. The two are equivalent for `std`, but
//! the raw form has two advantages: it is the shape Miri's Stacked
//! Borrows reasons about most directly (every `&mut T` handed out is a
//! short-lived reborrow of the original raw pointer, never of another
//! reference), and it compiles unchanged under `--cfg loom`, where
//! loom's `UnsafeCell` is not layout-compatible with `T` and the cast
//! would be unsound.
//!
//! # Dynamic contract checking (`check-disjoint`)
//!
//! The disjointness argument lives in the engines, not in the type. With
//! the `check-disjoint` feature the view additionally carries one atomic
//! borrow tag per index: [`SharedSlice::get_mut`] claims the tag and the
//! returned [`SliceRefMut`] guard releases it on drop, so two overlapping
//! mutable borrows of the same index — an engine bug that would be UB in
//! a normal build — panic deterministically instead. The stress suites
//! run with this feature on.

use std::marker::PhantomData;

#[cfg(feature = "check-disjoint")]
use std::sync::atomic::{AtomicU8, Ordering};

/// Shared view of `&mut [T]` allowing per-index exclusive access.
pub struct SharedSlice<'a, T> {
    base: *mut T,
    len: usize,
    /// One tag per index: 0 = unclaimed, 1 = mutably borrowed.
    #[cfg(feature = "check-disjoint")]
    tags: Box<[AtomicU8]>,
    /// Holds the exclusive borrow of the underlying slice for `'a`
    /// (and keeps `T` invariant, exactly like `&'a mut [T]`).
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: access is disjoint by engine contract; T crossing threads
// requires T: Send. Sync is what lets the pool share the view.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}
// SAFETY: the view owns the unique borrow of the slice for 'a, so
// moving the view between threads is moving a `&mut [T]`: T: Send.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wrap an exclusive slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedSlice {
            len: slice.len(),
            base: slice.as_mut_ptr(),
            #[cfg(feature = "check-disjoint")]
            tags: (0..slice.len()).map(|_| AtomicU8::new(0)).collect(),
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A copyable handle on this view, with the same per-index access
    /// (see [`SliceView`]).
    #[inline]
    pub fn view(&self) -> SliceView<'_, T> {
        SliceView {
            base: self.base,
            len: self.len,
            #[cfg(feature = "check-disjoint")]
            tags: &self.tags,
            _marker: PhantomData,
        }
    }

    /// Exclusive access to element `i`, released when the returned
    /// guard drops; [`SliceView::get_mut`] through a fresh view.
    ///
    /// # Safety
    /// As for [`SliceView::get_mut`].
    #[inline]
    pub unsafe fn get_mut(&self, i: usize) -> SliceRefMut<'_, T> {
        // SAFETY: forwarded to the caller.
        unsafe { self.view().get_mut(i) }
    }

    /// Shared read of element `i`; [`SliceView::get`] through a fresh
    /// view.
    ///
    /// # Safety
    /// As for [`SliceView::get`].
    #[inline]
    pub unsafe fn get(&self, i: usize) -> &T {
        // SAFETY: forwarded to the caller.
        unsafe { self.view().get(i) }
    }
}

/// A copyable handle on a [`SharedSlice`], made by [`SharedSlice::view`]:
/// the same per-index access, under the same contract and the same
/// `check-disjoint` tags, held by value. A loop that keeps one in a local
/// or in a struct of its own reads the base and length once, where one
/// that goes through a `&SharedSlice` reloads them on every access after
/// any write the compiler cannot tell apart from the view.
pub struct SliceView<'s, T> {
    base: *mut T,
    len: usize,
    #[cfg(feature = "check-disjoint")]
    tags: &'s [AtomicU8],
    _marker: PhantomData<&'s SharedSlice<'s, T>>,
}

impl<T> Clone for SliceView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SliceView<'_, T> {}

// SAFETY: a view is a shared reference to its `SharedSlice`, which is
// `Sync` (and so the reference `Send`) exactly when T: Send.
unsafe impl<T: Send> Sync for SliceView<'_, T> {}
// SAFETY: as above.
unsafe impl<T: Send> Send for SliceView<'_, T> {}

impl<'s, T> SliceView<'s, T> {
    /// Exclusive access to element `i`, released when the returned
    /// guard drops.
    ///
    /// # Safety
    /// No other thread may access index `i` for the lifetime of the
    /// returned guard. The engines guarantee this by processing each
    /// vertex at most once per superstep. With the `check-disjoint`
    /// feature a violation panics instead of being undefined behaviour.
    ///
    /// # Panics
    /// If `i` is out of bounds; under `check-disjoint`, if index `i` is
    /// already mutably borrowed.
    #[inline]
    pub unsafe fn get_mut(self, i: usize) -> SliceRefMut<'s, T> {
        if i >= self.len {
            out_of_bounds(i, self.len);
        }
        #[cfg(feature = "check-disjoint")]
        // ordering(Acquire): claiming the tag must also acquire the
        // previous holder's element writes (pairs with the Release drop)
        if self.tags[i].swap(1, Ordering::Acquire) != 0 {
            panic!("SharedSlice: overlapping get_mut on index {i} — engine disjointness violated");
        }
        SliceRefMut {
            // SAFETY: i < len, so the offset stays inside the original
            // slice allocation.
            ptr: unsafe { self.base.add(i) },
            #[cfg(feature = "check-disjoint")]
            tag: &self.tags[i],
            _marker: PhantomData,
        }
    }

    /// Shared read of element `i`.
    ///
    /// # Safety
    /// No thread may hold a mutable reference to index `i` concurrently.
    /// Used for read-only phases (e.g. the pull engine's gather, which
    /// reads outboxes written in the *previous* superstep).
    ///
    /// # Panics
    /// If `i` is out of bounds; under `check-disjoint`, if index `i` is
    /// currently mutably borrowed through this view's slice.
    #[inline]
    pub unsafe fn get(self, i: usize) -> &'s T {
        if i >= self.len {
            out_of_bounds(i, self.len);
        }
        #[cfg(feature = "check-disjoint")]
        // ordering(Acquire): a clean read must see the writes released
        // by the last guard drop
        if self.tags[i].load(Ordering::Acquire) != 0 {
            panic!("SharedSlice: get on index {i} while mutably borrowed — engine phase violated");
        }
        // SAFETY: i < len; caller guarantees no concurrent writer.
        unsafe { &*self.base.add(i) }
    }
}

/// The bounds failure of [`SliceView::get`] and [`SliceView::get_mut`],
/// out of line. Taking the index by value keeps it in a register on the
/// hot path: an inline `assert!` formats `i` by reference, so a loop that
/// reads through the view stored every index to the stack in case it
/// panicked.
#[cold]
#[inline(never)]
fn out_of_bounds(i: usize, len: usize) -> ! {
    panic!("index {i} out of bounds (len {len})");
}

/// Exclusive borrow of one element of a [`SharedSlice`], returned by
/// [`SharedSlice::get_mut`].
///
/// Behaves like `&mut T` (through `Deref`/`DerefMut`); under the
/// `check-disjoint` feature its drop releases the index's borrow tag.
pub struct SliceRefMut<'s, T> {
    ptr: *mut T,
    #[cfg(feature = "check-disjoint")]
    tag: &'s AtomicU8,
    _marker: PhantomData<&'s mut T>,
}

impl<T> std::ops::Deref for SliceRefMut<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard was created by get_mut under the caller's
        // exclusivity guarantee; ptr is in bounds and live for 's.
        unsafe { &*self.ptr }
    }
}

impl<T> std::ops::DerefMut for SliceRefMut<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in Deref; the guard itself is borrowed mutably, so
        // this reference cannot be duplicated through the guard.
        unsafe { &mut *self.ptr }
    }
}

#[cfg(feature = "check-disjoint")]
impl<T> Drop for SliceRefMut<'_, T> {
    fn drop(&mut self) {
        // ordering(Release): publishes this guard's element writes to
        // the next Acquire claim of the same index
        self.tag.store(0, Ordering::Release);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use ipregel_par::prelude::*;

    #[test]
    fn disjoint_parallel_writes_land() {
        // Miri runs threaded code slowly; shrink but keep the shape.
        let n: usize = if cfg!(miri) { 64 } else { 1000 };
        let mut data = vec![0u64; n];
        {
            let view = SharedSlice::new(&mut data);
            (0..n).into_par_iter().for_each(|i| {
                // SAFETY: indices are distinct.
                unsafe { *view.get_mut(i) = i as u64 * 2 };
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
    }

    #[test]
    fn reads_see_previous_phase_writes() {
        let mut data = vec![1u32, 2, 3];
        let view = SharedSlice::new(&mut data);
        // SAFETY: no mutable borrows exist during these reads.
        let total: u32 = (0..3).map(|i| unsafe { *view.get(i) }).sum();
        assert_eq!(total, 6);
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
    }

    #[test]
    fn guard_write_then_read_round_trips() {
        let mut data = vec![0u32; 4];
        let view = SharedSlice::new(&mut data);
        {
            // SAFETY: single-threaded; index 2 borrowed once.
            let mut g = unsafe { view.get_mut(2) };
            *g = 9;
            assert_eq!(*g, 9);
        }
        // SAFETY: the guard above has been dropped.
        assert_eq!(unsafe { *view.get(2) }, 9);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_mut_bounds_checked() {
        let mut data = vec![0u8; 2];
        let view = SharedSlice::new(&mut data);
        // SAFETY: never reached past the bounds assertion.
        let _ = unsafe { view.get_mut(2) };
    }

    /// The out-of-line bounds failure names the index and the length,
    /// for both accessors, with or without `check-disjoint`'s tags.
    #[test]
    fn bounds_failures_name_index_and_length() {
        let mut data = vec![0u16; 5];
        let view = SharedSlice::new(&mut data);
        let message = |f: &dyn Fn()| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            payload.downcast_ref::<String>().cloned().expect("a formatted message")
        };
        let get_mut = message(&|| {
            // SAFETY: never reached past the bounds check.
            let _ = unsafe { view.get_mut(7) };
        });
        assert_eq!(get_mut, "index 7 out of bounds (len 5)");
        let get = message(&|| {
            // SAFETY: as above.
            let _ = unsafe { view.get(usize::MAX) };
        });
        assert_eq!(get, format!("index {} out of bounds (len 5)", usize::MAX));
        // SAFETY: in bounds, and no guard is alive.
        assert_eq!(unsafe { *view.get(4) }, 0);
    }

    #[cfg(feature = "check-disjoint")]
    #[test]
    #[should_panic(expected = "overlapping get_mut")]
    fn overlapping_get_mut_panics() {
        let mut data = vec![0u32; 4];
        let view = SharedSlice::new(&mut data);
        // SAFETY: sole borrow of index 1 so far; the checker tags it.
        let _a = unsafe { view.get_mut(1) };
        // SAFETY: the contract-violating borrow is what the checker
        // must catch — it panics before any aliasing occurs.
        let _b = unsafe { view.get_mut(1) };
    }

    #[cfg(feature = "check-disjoint")]
    #[test]
    #[should_panic(expected = "while mutably borrowed")]
    fn read_during_mutable_borrow_panics() {
        let mut data = vec![0u32; 4];
        let view = SharedSlice::new(&mut data);
        // SAFETY: sole borrow of index 3 so far; the checker tags it.
        let _a = unsafe { view.get_mut(3) };
        // SAFETY: this read violates the phase contract on purpose;
        // the checker panics before the aliasing read happens.
        let _ = unsafe { view.get(3) };
    }

    #[cfg(feature = "check-disjoint")]
    #[test]
    fn tag_released_on_drop_allows_reborrow() {
        let mut data = vec![0u32; 1];
        let view = SharedSlice::new(&mut data);
        for i in 0..10u32 {
            // SAFETY: sequential borrows; each guard drops before the next.
            unsafe { *view.get_mut(0) += i };
        }
        // SAFETY: all guards dropped.
        assert_eq!(unsafe { *view.get(0) }, 45);
    }
}
