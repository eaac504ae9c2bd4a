//! Owned arrays that start on a cache line.
//!
//! Where `malloc` puts a large array depends on the process's history: a
//! fresh ~200 KB state is an `mmap` chunk whose data starts 16 bytes past
//! a page boundary, and a stencil sweep over it runs 7–18 % slower than
//! over the same array at a 64-byte boundary. [`AlignedVec`] removes the
//! dependence the way the BLAS workspace does for its packed panels: it
//! over-allocates by one cache line of elements and windows the storage
//! at its first [`CACHE_LINE`] boundary ([`window_start`], the one
//! definition of that offset both use). The window derefs to `[T]`, so a
//! caller sees a slice and nothing else.

use core::ops::{Deref, DerefMut};

/// Alignment of every window, in bytes.
pub const CACHE_LINE: usize = 64;

/// Elements of slack that let a `T` window slide to a cache-line start.
pub const fn pad<T>() -> usize {
    CACHE_LINE / core::mem::size_of::<T>()
}

/// Offset, in elements, of the first cache-line boundary of the
/// `capacity`-element storage at `storage` at which a `len`-element window
/// still fits; 0 where none does.
///
/// `align_offset` may decline (`usize::MAX`) when no whole number of
/// elements reaches a boundary — storage aligned below the element size,
/// which no allocator in use hands out. The window then starts where the
/// storage does: unaligned, never wrong.
pub fn window_start<T>(storage: *const T, capacity: usize, len: usize) -> usize {
    let start = storage.align_offset(CACHE_LINE);
    if start <= capacity - len {
        start
    } else {
        0
    }
}

/// A fixed-length array whose first element sits on a [`CACHE_LINE`]
/// boundary. Cloning allocates and aligns a new window; `clone_from` into
/// an array of the same length copies into the window it has.
pub struct AlignedVec<T> {
    buf: Vec<T>,
    /// The window `buf[start..start + len]`.
    start: usize,
    len: usize,
}

impl<T: Copy> AlignedVec<T> {
    /// Allocates storage for a `len`-element window, pads up to the
    /// window with `slack`, lets `window` push the window's `len`
    /// elements, and pads the rest: every element is written once.
    fn build(len: usize, slack: T, window: impl FnOnce(&mut Vec<T>)) -> Self {
        let capacity = if len == 0 { 0 } else { len + pad::<T>() };
        let mut buf = Vec::with_capacity(capacity);
        let start = window_start(buf.as_ptr(), capacity, len);
        buf.resize(start, slack);
        window(&mut buf);
        assert_eq!(buf.len(), start + len, "the window holds `len` elements");
        buf.resize(capacity, slack);
        AlignedVec { buf, start, len }
    }

    /// `len` copies of `value`.
    pub fn filled(len: usize, value: T) -> Self {
        Self::build(len, value, |buf| buf.resize(buf.len() + len, value))
    }

    /// A copy of `values`.
    pub fn from_slice(values: &[T]) -> Self
    where
        T: Default,
    {
        Self::build(values.len(), T::default(), |buf| {
            buf.extend_from_slice(values)
        })
    }

    /// Sets the length to `len`: the common prefix is kept and new
    /// elements are `value`, as `Vec::resize`. A change of length
    /// allocates new aligned storage; the same length is free.
    pub fn resize(&mut self, len: usize, value: T) {
        if len != self.len {
            let mut next = Self::filled(len, value);
            let keep = len.min(self.len);
            next[..keep].copy_from_slice(&self[..keep]);
            *self = next;
        }
    }
}

impl<T> Default for AlignedVec<T> {
    fn default() -> Self {
        AlignedVec {
            buf: Vec::new(),
            start: 0,
            len: 0,
        }
    }
}

impl<T: Copy + Default> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }

    fn clone_from(&mut self, source: &Self) {
        if self.len == source.len {
            self.copy_from_slice(source);
        } else {
            *self = source.clone();
        }
    }
}

impl<T> Deref for AlignedVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl<T> DerefMut for AlignedVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

impl<'a, T> IntoIterator for &'a AlignedVec<T> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{C32, C64};

    fn check<T: Copy + Default + PartialEq + core::fmt::Debug>(x: T) {
        for len in [1usize, 3, 15, 16, 17, 63, 64, 100, 4097, 27_648] {
            let a = AlignedVec::filled(len, x);
            let b = a.clone();
            let mut c = AlignedVec::from_slice(&vec![x; len]);
            for (what, v) in [("filled", &a), ("clone", &b), ("from_slice", &c)] {
                assert_eq!(v.as_ptr() as usize % CACHE_LINE, 0, "{what} len {len}");
                assert_eq!(v.len(), len);
                assert!(v.iter().all(|e| *e == x), "{what} len {len}");
            }
            c.resize(len + 5, T::default());
            assert_eq!(c.as_ptr() as usize % CACHE_LINE, 0, "resized len {len}");
            assert_eq!(&c[..len], &a[..]);
            assert!(c[len..].iter().all(|e| *e == T::default()));
        }
        let mut d = AlignedVec::filled(100, T::default());
        let storage = d.as_ptr();
        d.clone_from(&AlignedVec::filled(100, x));
        assert_eq!(d.as_ptr(), storage, "same length: copied into the window it has");
        assert!(d.iter().all(|e| *e == x));
        d.clone_from(&AlignedVec::filled(37, x));
        assert_eq!((d.len(), d.as_ptr() as usize % CACHE_LINE), (37, 0), "other length: a new window");
        assert!(AlignedVec::<T>::default().is_empty());
        assert!(AlignedVec::filled(0, x).is_empty());
    }

    #[test]
    fn every_window_starts_on_a_cache_line() {
        check(1.5f32);
        check(-2.5f64);
        check(C32 { re: 1.0, im: -1.0 });
        check(C64 { re: 0.5, im: 2.0 });
    }

    #[test]
    fn window_start_declines_when_the_window_would_not_fit() {
        let storage = [0u8; 128];
        let start = window_start(storage.as_ptr(), 70, 8);
        assert_eq!(storage[start..].as_ptr() as usize % CACHE_LINE, 0);
        let at = |skip: usize| window_start(storage[skip..].as_ptr(), 70 - skip, 70 - skip);
        assert!(
            (0..8).all(|skip| at(skip) == 0),
            "no slack: the window starts with the storage"
        );
    }
}
