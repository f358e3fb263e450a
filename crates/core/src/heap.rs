//! The tracked memory arena.
//!
//! [`TrackedHeap`] is a growable byte arena that plays the role of program
//! memory in the DTT model. Stores into it report whether they *changed* the
//! contents — the primitive on which silent-store suppression and triggering
//! are built. The heap knows nothing about tthreads; the runtime layers
//! trigger dispatch on top.

use crate::addr::{Addr, AddrRange};
use crate::error::{Error, Result};
use crate::pod::Pod;

/// Result of a raw store: did the bytes change, and how many were compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreEffect {
    /// Whether any byte differed from the previous contents.
    pub changed: bool,
    /// Bytes compared by change detection (0 when detection is skipped).
    pub bytes_compared: u64,
}

/// A byte-addressable arena with change-detecting stores.
///
/// # Examples
///
/// ```
/// use dtt_core::addr::AddrRange;
/// use dtt_core::heap::TrackedHeap;
/// # fn main() -> Result<(), dtt_core::error::Error> {
/// let mut heap = TrackedHeap::with_capacity(1 << 20);
/// let a = heap.alloc(8, 8)?;
/// let r = AddrRange::new(a, 8);
/// let first = heap.store_bytes(r, &[1, 2, 3, 4, 5, 6, 7, 8], true);
/// assert!(first.changed);
/// let silent = heap.store_bytes(r, &[1, 2, 3, 4, 5, 6, 7, 8], true);
/// assert!(!silent.changed);
/// # Ok(())
/// # }
/// ```
///
/// Raw byte access normally goes through the typed handle layer
/// ([`crate::handle::Tracked`]/[`crate::handle::TrackedArray`]).
#[derive(Debug, Clone, Default)]
pub struct TrackedHeap {
    mem: Vec<u8>,
    capacity: u64,
}

impl TrackedHeap {
    /// Creates a heap bounded at `capacity` bytes.
    pub fn with_capacity(capacity: u64) -> Self {
        TrackedHeap {
            mem: Vec::new(),
            capacity,
        }
    }

    /// Creates a heap directly from its byte contents (used by
    /// [`crate::mem::ShardedMem::into_heap`] to hand back the sharded
    /// arena's contents at teardown).
    pub(crate) fn from_bytes(mem: Vec<u8>, capacity: u64) -> Self {
        TrackedHeap { mem, capacity }
    }

    /// Bytes currently allocated.
    #[inline]
    pub fn len(&self) -> u64 {
        self.mem.len() as u64
    }

    /// Whether nothing has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// The configured capacity bound in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Allocates `len` bytes aligned to `align` and returns their address.
    /// The new bytes are zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArenaExhausted`] if the allocation would exceed the
    /// capacity bound.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    pub fn alloc(&mut self, len: u64, align: u64) -> Result<Addr> {
        assert!(
            align > 0 && align.is_power_of_two(),
            "alignment must be a nonzero power of two"
        );
        let base = (self.mem.len() as u64).div_ceil(align) * align;
        // `available` accounts for the alignment padding the allocation
        // would need: capacity minus the aligned base, saturated so a base
        // already past capacity reports 0 rather than wrapping.
        let available = self.capacity.saturating_sub(base);
        let end = base.checked_add(len).ok_or(Error::ArenaExhausted {
            requested: len,
            available,
        })?;
        if end > self.capacity {
            return Err(Error::ArenaExhausted {
                requested: len,
                available,
            });
        }
        self.mem.resize(end as usize, 0);
        Ok(Addr::new(base))
    }

    /// Checks that `range` lies inside the allocated arena.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RegionOutOfBounds`] otherwise.
    #[inline]
    pub fn check_range(&self, range: AddrRange) -> Result<()> {
        if range.end().raw() <= self.len() {
            Ok(())
        } else {
            Err(Error::RegionOutOfBounds {
                start: range.start().raw(),
                len: range.len(),
                heap_len: self.len(),
            })
        }
    }

    /// Reads the bytes of `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds; handles constructed by this heap
    /// are always in bounds.
    #[inline]
    pub fn load_bytes(&self, range: AddrRange) -> &[u8] {
        self.check_range(range).expect("load out of bounds");
        &self.mem[range.start().raw() as usize..range.end().raw() as usize]
    }

    /// Writes `data` at `range`, optionally comparing with the old contents.
    ///
    /// With `detect_change` set, the returned [`StoreEffect::changed`] is
    /// exact; without it, every store is reported as changing (the behaviour
    /// of a machine without value-comparing stores) and no bytes are
    /// compared.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or `data.len() != range.len()`.
    #[inline]
    pub fn store_bytes(
        &mut self,
        range: AddrRange,
        data: &[u8],
        detect_change: bool,
    ) -> StoreEffect {
        self.check_range(range).expect("store out of bounds");
        assert_eq!(data.len() as u64, range.len(), "store size mismatch");
        let slot = &mut self.mem[range.start().raw() as usize..range.end().raw() as usize];
        if detect_change {
            let changed = slot != data;
            if changed {
                slot.copy_from_slice(data);
            }
            StoreEffect {
                changed,
                bytes_compared: data.len() as u64,
            }
        } else {
            slot.copy_from_slice(data);
            StoreEffect {
                changed: true,
                bytes_compared: 0,
            }
        }
    }

    /// Typed load of a [`Pod`] value at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the value extends past the arena.
    #[inline]
    pub fn load<T: Pod>(&self, addr: Addr) -> T {
        T::read_le(self.load_bytes(AddrRange::new(addr, T::SIZE as u64)))
    }

    /// Typed store of a [`Pod`] value at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the value extends past the arena.
    #[inline]
    pub fn store<T: Pod>(&mut self, addr: Addr, value: T, detect_change: bool) -> StoreEffect {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        value.write_le(buf);
        self.store_bytes(AddrRange::new(addr, T::SIZE as u64), buf, detect_change)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> TrackedHeap {
        TrackedHeap::with_capacity(4096)
    }

    #[test]
    fn alloc_respects_alignment() {
        let mut h = heap();
        let a = h.alloc(3, 1).unwrap();
        let b = h.alloc(8, 8).unwrap();
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw() % 8, 0);
        assert!(b.raw() >= 3);
    }

    #[test]
    fn alloc_zeroes_memory() {
        let mut h = heap();
        let a = h.alloc(16, 8).unwrap();
        assert_eq!(h.load_bytes(AddrRange::new(a, 16)), &[0u8; 16]);
    }

    #[test]
    fn alloc_beyond_capacity_errors() {
        let mut h = TrackedHeap::with_capacity(16);
        assert!(h.alloc(8, 8).is_ok());
        let err = h.alloc(16, 8).unwrap_err();
        assert!(matches!(err, Error::ArenaExhausted { .. }));
    }

    #[test]
    fn alloc_error_reports_padding_aware_available() {
        let mut h = TrackedHeap::with_capacity(16);
        h.alloc(3, 1).unwrap(); // len = 3; an 8-aligned base sits at 8
        match h.alloc(16, 8).unwrap_err() {
            Error::ArenaExhausted {
                requested,
                available,
            } => {
                assert_eq!(requested, 16);
                // Not 13 (capacity - len): padding to the aligned base
                // leaves only 8 usable bytes.
                assert_eq!(available, 8);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Exactly at the boundary the allocation succeeds...
        assert!(h.alloc(8, 8).is_ok());
        assert_eq!(h.len(), 16);
        // ...and past it both error paths report 0 available, saturated.
        match h.alloc(1, 1).unwrap_err() {
            Error::ArenaExhausted { available, .. } => assert_eq!(available, 0),
            other => panic!("unexpected error {other:?}"),
        }
        match h.alloc(u64::MAX, 1).unwrap_err() {
            Error::ArenaExhausted { available, .. } => assert_eq!(available, 0),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn store_detects_change_and_silence() {
        let mut h = heap();
        let a = h.alloc(4, 4).unwrap();
        let e1 = h.store(a, 7u32, true);
        assert!(e1.changed);
        assert_eq!(e1.bytes_compared, 4);
        let e2 = h.store(a, 7u32, true);
        assert!(!e2.changed);
        let e3 = h.store(a, 8u32, true);
        assert!(e3.changed);
        assert_eq!(h.load::<u32>(a), 8);
    }

    #[test]
    fn store_without_detection_always_changes() {
        let mut h = heap();
        let a = h.alloc(4, 4).unwrap();
        h.store(a, 7u32, false);
        let e = h.store(a, 7u32, false);
        assert!(e.changed);
        assert_eq!(e.bytes_compared, 0);
    }

    #[test]
    fn partial_byte_change_is_detected() {
        let mut h = heap();
        let a = h.alloc(8, 8).unwrap();
        h.store_bytes(AddrRange::new(a, 8), &[0, 0, 0, 0, 0, 0, 0, 1], true);
        let e = h.store_bytes(AddrRange::new(a, 8), &[0, 0, 0, 0, 0, 0, 0, 2], true);
        assert!(e.changed);
    }

    #[test]
    fn check_range_boundaries() {
        let mut h = heap();
        let a = h.alloc(8, 1).unwrap();
        assert!(h.check_range(AddrRange::new(a, 8)).is_ok());
        assert!(h.check_range(AddrRange::new(a, 9)).is_err());
        assert!(h.check_range(AddrRange::new(Addr::new(8), 0)).is_ok());
    }

    #[test]
    #[should_panic(expected = "load out of bounds")]
    fn out_of_bounds_load_panics() {
        let h = heap();
        h.load::<u32>(Addr::new(0));
    }

    #[test]
    #[should_panic(expected = "store size mismatch")]
    fn store_size_mismatch_panics() {
        let mut h = heap();
        let a = h.alloc(8, 1).unwrap();
        h.store_bytes(AddrRange::new(a, 8), &[0u8; 4], true);
    }

    #[test]
    fn typed_floats_round_trip() {
        let mut h = heap();
        let a = h.alloc(8, 8).unwrap();
        h.store(a, 2.5f64, true);
        assert_eq!(h.load::<f64>(a), 2.5);
    }
}
