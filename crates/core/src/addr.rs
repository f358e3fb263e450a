//! Logical addresses, address ranges, and trigger granularity.
//!
//! The DTT runtime tracks writes to a *logical* byte-addressable arena (see
//! [`crate::heap::TrackedHeap`]). Addresses in that arena are represented by
//! [`Addr`], extents by [`AddrRange`]. Hardware DTT proposals attach triggers
//! at a fixed granularity (a word or a cache line); [`Granularity`] models
//! that choice and is the knob behind the paper's false-triggering ablation
//! (R-Fig.9 in DESIGN.md).
//!
//! Everything here sits on the tracked-access path of generic code that is
//! instantiated in *downstream* crates, so every public function is
//! `#[inline]` (DESIGN.md §2); the lint below keeps it that way.

#![warn(clippy::missing_inline_in_public_items)]

use std::fmt;

/// A logical byte address inside a [`crate::heap::TrackedHeap`] arena.
///
/// `Addr` is an opaque offset; it is only meaningful for the heap that issued
/// it. Handles ([`crate::handle::Tracked`], [`crate::handle::TrackedArray`])
/// carry an `Addr` internally.
///
/// # Examples
///
/// ```
/// use dtt_core::addr::Addr;
/// let a = Addr::new(64);
/// assert_eq!(a.offset(8).raw(), 72);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw arena offset.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw arena offset.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address `bytes` past `self`.
    ///
    /// # Panics
    ///
    /// Panics on overflow of the 64-bit address space.
    #[inline]
    pub fn offset(self, bytes: u64) -> Self {
        Addr(self.0.checked_add(bytes).expect("address overflow"))
    }
}

impl fmt::Display for Addr {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for Addr {
    #[inline]
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A half-open byte range `[start, start+len)` in the tracked arena.
///
/// # Examples
///
/// ```
/// use dtt_core::addr::{Addr, AddrRange};
/// let r = AddrRange::new(Addr::new(16), 8);
/// assert!(r.contains(Addr::new(23)));
/// assert!(!r.contains(Addr::new(24)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    start: u64,
    len: u64,
}

impl AddrRange {
    /// Creates a range starting at `start` spanning `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range would overflow the address space.
    #[inline]
    pub fn new(start: Addr, len: u64) -> Self {
        assert!(
            start.raw().checked_add(len).is_some(),
            "address range overflow"
        );
        AddrRange {
            start: start.raw(),
            len,
        }
    }

    /// The first address of the range.
    #[inline]
    pub const fn start(&self) -> Addr {
        Addr(self.start)
    }

    /// One past the last address of the range.
    #[inline]
    pub const fn end(&self) -> Addr {
        Addr(self.start + self.len)
    }

    /// Length in bytes.
    #[inline]
    pub const fn len(&self) -> u64 {
        self.len
    }

    /// Whether the range is empty.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside the range.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        let a = addr.raw();
        a >= self.start && a < self.start + self.len
    }

    /// Whether two ranges share at least one byte.
    #[inline]
    pub fn intersects(&self, other: &AddrRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.start < other.start + other.len
            && other.start < self.start + self.len
    }

    /// Expands the range outward to `granularity` boundaries.
    ///
    /// This is how a coarser-grained trigger mechanism *sees* a store: a
    /// one-byte store observed at cache-line granularity looks like a store
    /// to the whole 64-byte line. Rounding an empty range yields an empty
    /// range.
    #[inline]
    pub fn round_to(&self, granularity: Granularity) -> AddrRange {
        if self.is_empty() {
            return *self;
        }
        let width = granularity.width() as u64;
        let start = self.start / width * width;
        let end = (self.start + self.len).div_ceil(width) * width;
        AddrRange {
            start,
            len: end - start,
        }
    }
}

impl fmt::Display for AddrRange {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[0x{:x}, 0x{:x})", self.start, self.start + self.len)
    }
}

/// The granularity at which the trigger mechanism observes stores.
///
/// The HPCA'11 design attaches triggers to memory at a hardware-convenient
/// granularity. Finer granularity means precise triggering; coarser
/// granularity (a cache line) is cheaper to implement but causes *false
/// triggers*: a store that changes bytes *near* a trigger region — in the
/// same word or line — fires the tthread even though the watched bytes are
/// untouched.
///
/// # Examples
///
/// ```
/// use dtt_core::addr::{Addr, AddrRange, Granularity};
/// let store = AddrRange::new(Addr::new(70), 1);
/// let rounded = store.round_to(Granularity::Line);
/// assert_eq!(rounded.start().raw(), 64);
/// assert_eq!(rounded.len(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Granularity {
    /// Byte-precise triggering: only stores overlapping the watched bytes fire.
    #[default]
    Exact,
    /// 8-byte (machine word) granularity.
    Word,
    /// 64-byte cache-line granularity.
    Line,
    /// A custom power-of-two block size in bytes.
    Block(u32),
}

impl Granularity {
    /// Width of the observation window in bytes.
    ///
    /// # Panics
    ///
    /// Panics if a [`Granularity::Block`] width is zero or not a power of two.
    #[inline]
    pub fn width(self) -> u32 {
        match self {
            Granularity::Exact => 1,
            Granularity::Word => 8,
            Granularity::Line => 64,
            Granularity::Block(w) => {
                assert!(
                    w.is_power_of_two(),
                    "block granularity must be a power of two"
                );
                w
            }
        }
    }
}

impl fmt::Display for Granularity {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Granularity::Exact => write!(f, "exact"),
            Granularity::Word => write!(f, "word(8B)"),
            Granularity::Line => write!(f, "line(64B)"),
            Granularity::Block(w) => write!(f, "block({w}B)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_offset_and_raw_round_trip() {
        let a = Addr::new(100);
        assert_eq!(a.offset(28).raw(), 128);
        assert_eq!(Addr::from(7u64), Addr::new(7));
    }

    #[test]
    #[should_panic(expected = "address overflow")]
    fn addr_offset_overflow_panics() {
        Addr::new(u64::MAX).offset(1);
    }

    #[test]
    fn range_contains_is_half_open() {
        let r = AddrRange::new(Addr::new(10), 5);
        assert!(r.contains(Addr::new(10)));
        assert!(r.contains(Addr::new(14)));
        assert!(!r.contains(Addr::new(15)));
        assert!(!r.contains(Addr::new(9)));
    }

    #[test]
    fn empty_range_intersects_nothing() {
        let empty = AddrRange::new(Addr::new(10), 0);
        let full = AddrRange::new(Addr::new(0), 100);
        assert!(!empty.intersects(&full));
        assert!(!full.intersects(&empty));
        assert!(empty.is_empty());
    }

    #[test]
    fn intersection_cases() {
        let a = AddrRange::new(Addr::new(0), 10);
        let b = AddrRange::new(Addr::new(9), 1);
        let c = AddrRange::new(Addr::new(10), 1);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        // symmetric
        assert!(b.intersects(&a));
        assert!(!c.intersects(&a));
    }

    #[test]
    fn rounding_exact_is_identity() {
        let r = AddrRange::new(Addr::new(13), 3);
        assert_eq!(r.round_to(Granularity::Exact), r);
    }

    #[test]
    fn rounding_to_word_and_line() {
        let r = AddrRange::new(Addr::new(13), 3);
        let w = r.round_to(Granularity::Word);
        assert_eq!(w.start().raw(), 8);
        assert_eq!(w.end().raw(), 16);
        let l = r.round_to(Granularity::Line);
        assert_eq!(l.start().raw(), 0);
        assert_eq!(l.len(), 64);
    }

    #[test]
    fn rounding_spanning_two_lines() {
        let r = AddrRange::new(Addr::new(60), 8);
        let l = r.round_to(Granularity::Line);
        assert_eq!(l.start().raw(), 0);
        assert_eq!(l.end().raw(), 128);
    }

    #[test]
    fn rounding_empty_stays_empty() {
        let r = AddrRange::new(Addr::new(13), 0);
        assert!(r.round_to(Granularity::Line).is_empty());
    }

    #[test]
    fn granularity_widths() {
        assert_eq!(Granularity::Exact.width(), 1);
        assert_eq!(Granularity::Word.width(), 8);
        assert_eq!(Granularity::Line.width(), 64);
        assert_eq!(Granularity::Block(16).width(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_panics() {
        Granularity::Block(12).width();
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(Addr::new(255).to_string(), "0xff");
        assert_eq!(AddrRange::new(Addr::new(0), 4).to_string(), "[0x0, 0x4)");
        assert_eq!(Granularity::Word.to_string(), "word(8B)");
    }
}
