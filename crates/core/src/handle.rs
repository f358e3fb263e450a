//! Typed handles into tracked memory.
//!
//! A handle is a cheap `Copy` token naming a typed location in the arena.
//! Handles are created by allocation ([`crate::runtime::Runtime::alloc`],
//! [`crate::runtime::Runtime::alloc_array`]) and consumed by the context API
//! ([`crate::ctx::Ctx::get`], [`crate::ctx::Ctx::set`], …). They carry no
//! lifetime: like a hardware address, a handle stays valid for as long as
//! the runtime that issued it.
//!
//! Handle methods are called from generic access code instantiated in
//! downstream crates; every public function here is `#[inline]` so an
//! element access compiles to address arithmetic in its caller (DESIGN.md
//! §2). The lint below keeps it that way.

#![warn(clippy::missing_inline_in_public_items)]

use std::fmt;
use std::marker::PhantomData;

use crate::addr::{Addr, AddrRange};
use crate::pod::Pod;

/// A typed scalar cell in tracked memory.
pub struct Tracked<T> {
    addr: Addr,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Pod> Tracked<T> {
    #[inline]
    pub(crate) fn new(addr: Addr) -> Self {
        Tracked {
            addr,
            _marker: PhantomData,
        }
    }

    /// The cell's address.
    #[inline]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The byte range occupied by the cell — the region to watch for this
    /// value.
    ///
    /// # Examples
    ///
    /// ```
    /// use dtt_core::{Config, Runtime};
    /// let mut rt = Runtime::new(Config::default(), ());
    /// let cell = rt.alloc(5u32).unwrap();
    /// assert_eq!(cell.range().len(), 4);
    /// ```
    #[inline]
    pub fn range(&self) -> AddrRange {
        AddrRange::new(self.addr, T::SIZE as u64)
    }
}

impl<T> Clone for Tracked<T> {
    #[inline]
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Tracked<T> {}

impl<T> fmt::Debug for Tracked<T> {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracked")
            .field("addr", &self.addr)
            .field("type", &std::any::type_name::<T>())
            .finish()
    }
}

impl<T> PartialEq for Tracked<T> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr
    }
}
impl<T> Eq for Tracked<T> {}

/// A typed fixed-length array in tracked memory.
pub struct TrackedArray<T> {
    addr: Addr,
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Pod> TrackedArray<T> {
    #[inline]
    pub(crate) fn new(addr: Addr, len: usize) -> Self {
        TrackedArray {
            addr,
            len,
            _marker: PhantomData,
        }
    }

    /// Base address of the array.
    #[inline]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Handle to element `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn at(&self, index: usize) -> Tracked<T> {
        assert!(
            index < self.len,
            "index {index} out of bounds (len {})",
            self.len
        );
        Tracked::new(self.addr.offset((index * T::SIZE) as u64))
    }

    /// The byte range of the whole array.
    #[inline]
    pub fn range(&self) -> AddrRange {
        AddrRange::new(self.addr, (self.len * T::SIZE) as u64)
    }

    /// A sub-array handle over elements `[from, to)` of this array.
    ///
    /// Useful for partitioning one array into disjoint per-thread chunks
    /// (e.g. one [`crate::accessor::Accessor`] per thread writing its own
    /// slice); the sub-array addresses the same tracked memory.
    ///
    /// # Panics
    ///
    /// Panics if `from > to` or `to > self.len()`.
    #[inline]
    pub fn slice(&self, from: usize, to: usize) -> TrackedArray<T> {
        assert!(
            from <= to && to <= self.len,
            "invalid element range {from}..{to}"
        );
        TrackedArray::new(self.addr.offset((from * T::SIZE) as u64), to - from)
    }

    /// The byte range of elements `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from > to` or `to > self.len()`.
    #[inline]
    pub fn range_of(&self, from: usize, to: usize) -> AddrRange {
        assert!(
            from <= to && to <= self.len,
            "invalid element range {from}..{to}"
        );
        AddrRange::new(
            self.addr.offset((from * T::SIZE) as u64),
            ((to - from) * T::SIZE) as u64,
        )
    }

    /// The indices of the elements that share at least one byte with
    /// `range`: where a changed range ([`crate::ctx::Ctx::triggers`])
    /// lands in this array. Empty if the range misses the array.
    ///
    /// # Examples
    ///
    /// ```
    /// use dtt_core::{Addr, AddrRange, Config, Runtime};
    /// let mut rt = Runtime::new(Config::default(), ());
    /// let xs = rt.alloc_array::<u32>(8).unwrap();
    /// let base = xs.addr().raw();
    /// // Bytes 6..9 of the array touch elements 1 and 2.
    /// assert_eq!(xs.index_span(AddrRange::new(Addr::new(base + 6), 3)), 1..3);
    /// assert!(xs.index_span(AddrRange::new(Addr::new(base + 32), 4)).is_empty());
    /// ```
    #[inline]
    pub fn index_span(&self, range: AddrRange) -> std::ops::Range<usize> {
        let base = self.addr.raw();
        let lo = range.start().raw().max(base);
        let hi = range.end().raw().min(self.range().end().raw());
        if lo >= hi {
            return 0..0;
        }
        let size = T::SIZE as u64;
        ((lo - base) / size) as usize..(hi - base).div_ceil(size) as usize
    }
}

impl<T> Clone for TrackedArray<T> {
    #[inline]
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TrackedArray<T> {}

impl<T> fmt::Debug for TrackedArray<T> {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedArray")
            .field("addr", &self.addr)
            .field("len", &self.len)
            .field("type", &std::any::type_name::<T>())
            .finish()
    }
}

impl<T> PartialEq for TrackedArray<T> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr && self.len == other.len
    }
}
impl<T> Eq for TrackedArray<T> {}

/// A typed row-major 2-D array in tracked memory.
///
/// Rows are contiguous, which makes *per-row watching* natural: a tthread
/// that recomputes one row's derived data watches [`TrackedMatrix::row_range`].
pub struct TrackedMatrix<T> {
    addr: Addr,
    rows: usize,
    cols: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Pod> TrackedMatrix<T> {
    #[inline]
    pub(crate) fn new(addr: Addr, rows: usize, cols: usize) -> Self {
        TrackedMatrix {
            addr,
            rows,
            cols,
            _marker: PhantomData,
        }
    }

    /// Base address of the matrix.
    #[inline]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Handle to element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> Tracked<T> {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        Tracked::new(self.addr.offset(((row * self.cols + col) * T::SIZE) as u64))
    }

    /// The whole matrix viewed as a flat array of `rows * cols` elements.
    #[inline]
    pub fn as_array(&self) -> TrackedArray<T> {
        TrackedArray::new(self.addr, self.rows * self.cols)
    }

    /// The byte range of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row_range(&self, row: usize) -> AddrRange {
        assert!(
            row < self.rows,
            "row {row} out of bounds ({} rows)",
            self.rows
        );
        AddrRange::new(
            self.addr.offset((row * self.cols * T::SIZE) as u64),
            (self.cols * T::SIZE) as u64,
        )
    }

    /// The byte range of the whole matrix.
    #[inline]
    pub fn range(&self) -> AddrRange {
        AddrRange::new(self.addr, (self.rows * self.cols * T::SIZE) as u64)
    }
}

impl<T> Clone for TrackedMatrix<T> {
    #[inline]
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TrackedMatrix<T> {}

impl<T> fmt::Debug for TrackedMatrix<T> {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedMatrix")
            .field("addr", &self.addr)
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("type", &std::any::type_name::<T>())
            .finish()
    }
}

impl<T> PartialEq for TrackedMatrix<T> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr && self.rows == other.rows && self.cols == other.cols
    }
}
impl<T> Eq for TrackedMatrix<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_range_covers_type_size() {
        let t: Tracked<u64> = Tracked::new(Addr::new(16));
        assert_eq!(t.range().start().raw(), 16);
        assert_eq!(t.range().len(), 8);
    }

    #[test]
    fn array_element_addressing() {
        let a: TrackedArray<u32> = TrackedArray::new(Addr::new(100), 10);
        assert_eq!(a.at(0).addr().raw(), 100);
        assert_eq!(a.at(3).addr().raw(), 112);
        assert_eq!(a.len(), 10);
        assert!(!a.is_empty());
    }

    #[test]
    fn array_subrange() {
        let a: TrackedArray<f64> = TrackedArray::new(Addr::new(0), 8);
        let r = a.range_of(2, 5);
        assert_eq!(r.start().raw(), 16);
        assert_eq!(r.len(), 24);
        assert_eq!(a.range_of(0, 8), a.range());
        assert!(a.range_of(3, 3).is_empty());
    }

    #[test]
    fn index_span_maps_partial_overlaps_outward() {
        let xs: TrackedArray<u64> = TrackedArray::new(Addr::new(64), 4);
        let r = |start, len| AddrRange::new(Addr::new(start), len);
        assert_eq!(xs.index_span(r(0, 1000)), 0..4);
        assert_eq!(xs.index_span(r(71, 2)), 0..2);
        assert_eq!(xs.index_span(r(88, 8)), 3..4);
        assert_eq!(xs.index_span(r(96, 8)), 0..0);
        assert_eq!(xs.index_span(r(0, 64)), 0..0);
    }

    #[test]
    fn array_slice_addresses_same_memory() {
        let a: TrackedArray<u32> = TrackedArray::new(Addr::new(100), 10);
        let s = a.slice(2, 7);
        assert_eq!(s.len(), 5);
        assert_eq!(s.at(0), a.at(2));
        assert_eq!(s.at(4), a.at(6));
        assert_eq!(s.range(), a.range_of(2, 7));
        assert!(a.slice(3, 3).is_empty());
        assert_eq!(a.slice(0, 10), a);
    }

    #[test]
    #[should_panic(expected = "invalid element range")]
    fn array_slice_out_of_bounds_panics() {
        let a: TrackedArray<u8> = TrackedArray::new(Addr::new(0), 4);
        a.slice(2, 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn array_index_out_of_bounds_panics() {
        let a: TrackedArray<u8> = TrackedArray::new(Addr::new(0), 4);
        a.at(4);
    }

    #[test]
    #[should_panic(expected = "invalid element range")]
    fn array_invalid_range_panics() {
        let a: TrackedArray<u8> = TrackedArray::new(Addr::new(0), 4);
        a.range_of(3, 2);
    }

    #[test]
    fn matrix_addressing_is_row_major() {
        let m: TrackedMatrix<f64> = TrackedMatrix::new(Addr::new(0x100), 3, 4);
        assert_eq!(m.at(0, 0).addr().raw(), 0x100);
        assert_eq!(m.at(0, 3).addr().raw(), 0x100 + 3 * 8);
        assert_eq!(m.at(1, 0).addr().raw(), 0x100 + 4 * 8);
        assert_eq!(m.at(2, 3).addr().raw(), 0x100 + 11 * 8);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
    }

    #[test]
    fn matrix_row_ranges_tile_the_matrix() {
        let m: TrackedMatrix<u32> = TrackedMatrix::new(Addr::new(0), 4, 8);
        let mut end = 0;
        for r in 0..4 {
            let range = m.row_range(r);
            assert_eq!(range.start().raw(), end);
            assert_eq!(range.len(), 8 * 4);
            end = range.end().raw();
        }
        assert_eq!(end, m.range().len());
        assert_eq!(m.as_array().len(), 32);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn matrix_row_out_of_bounds_panics() {
        let m: TrackedMatrix<u8> = TrackedMatrix::new(Addr::new(0), 2, 2);
        m.at(2, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn matrix_col_out_of_bounds_panics() {
        let m: TrackedMatrix<u8> = TrackedMatrix::new(Addr::new(0), 2, 2);
        m.at(0, 2);
    }

    #[test]
    fn handles_are_copy_and_comparable() {
        let a: Tracked<u32> = Tracked::new(Addr::new(4));
        let b = a;
        assert_eq!(a, b);
        let arr: TrackedArray<u32> = TrackedArray::new(Addr::new(4), 2);
        let arr2 = arr;
        assert_eq!(arr, arr2);
        assert!(format!("{a:?}").contains("Tracked"));
        assert!(format!("{arr:?}").contains("TrackedArray"));
    }
}
