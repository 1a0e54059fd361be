//! Cache-line padding, replacing `crossbeam::utils::CachePadded` for
//! the push engine's per-worker partials, which use it to keep each
//! worker's shard off the others' cache lines.

#![forbid(unsafe_code)]

/// Pads and aligns `T` to the cache-line size so adjacent array slots
/// never share a line (false sharing).
///
/// 128 bytes on x86_64 (spatial prefetcher pulls line pairs) and
/// aarch64 (128-byte lines on several server cores), 64 elsewhere —
/// the same sizing crossbeam uses for these targets.
#[cfg_attr(any(target_arch = "x86_64", target_arch = "aarch64"), repr(align(128)))]
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "aarch64")), repr(align(64)))]
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq, Hash)]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pad `value` to a cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwrap the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_is_at_least_a_cache_line() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 64);
        let arr = [CachePadded::new(0u8), CachePadded::new(1u8)];
        let a = std::ptr::from_ref(&arr[0]) as usize;
        let b = std::ptr::from_ref(&arr[1]) as usize;
        assert!(b - a >= 64, "adjacent elements span distinct lines");
    }

    #[test]
    fn deref_round_trips() {
        let mut p = CachePadded::new(vec![1, 2, 3]);
        p.push(4);
        assert_eq!(&*p, &[1, 2, 3, 4]);
        assert_eq!(p.into_inner(), vec![1, 2, 3, 4]);
    }
}
