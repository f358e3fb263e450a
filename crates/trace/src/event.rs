//! Trace events.
//!
//! A trace is the abstract dynamic instruction stream of one workload run,
//! annotated with the DTT structure the programmer would add: *regions*
//! (candidate tthread bodies, recorded at the place the baseline executes
//! them) and *join points* (where the main thread consumes region outputs).
//!
//! All addresses are logical; values are the raw little-endian bits of the
//! accessed location (floats via `to_bits`), which is what redundant-load
//! classification compares.

use std::fmt;

/// Index of a tthread declared in the trace header.
pub type TthreadIndex = u32;

/// Identifier of a static load/store site (think: program counter of the
/// instruction). `0` is conventionally "unattributed".
pub type SiteId = u32;

/// One dynamic event in the traced instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `n` non-memory instructions of straight-line work.
    Compute(u64),
    /// A load of `size` bytes at `addr` observing `value`.
    Load {
        /// Static site of the load.
        site: SiteId,
        /// Logical byte address.
        addr: u64,
        /// Access width in bytes (1–8).
        size: u32,
        /// The loaded value, zero-extended to 64 bits.
        value: u64,
    },
    /// A store of `size` bytes at `addr` writing `value`.
    Store {
        /// Static site of the store.
        site: SiteId,
        /// Logical byte address.
        addr: u64,
        /// Access width in bytes (1–8).
        size: u32,
        /// The stored value, zero-extended to 64 bits.
        value: u64,
    },
    /// Start of the computation attached to `tthread`, at the position the
    /// *baseline* executes it.
    RegionBegin {
        /// The tthread this region belongs to.
        tthread: TthreadIndex,
    },
    /// End of the current region.
    RegionEnd {
        /// The tthread this region belongs to.
        tthread: TthreadIndex,
    },
    /// The main thread consumes `tthread`'s outputs here.
    Join {
        /// The consumed tthread.
        tthread: TthreadIndex,
    },
}

impl Event {
    /// Dynamic instructions this event represents (memory ops count as one
    /// instruction each; markers count as zero).
    pub fn instructions(&self) -> u64 {
        match self {
            Event::Compute(n) => *n,
            Event::Load { .. } | Event::Store { .. } => 1,
            Event::RegionBegin { .. } | Event::RegionEnd { .. } | Event::Join { .. } => 0,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Compute(n) => write!(f, "compute {n}"),
            Event::Load {
                site,
                addr,
                size,
                value,
            } => {
                write!(f, "load@{site} [0x{addr:x}+{size}] = 0x{value:x}")
            }
            Event::Store {
                site,
                addr,
                size,
                value,
            } => {
                write!(f, "store@{site} [0x{addr:x}+{size}] := 0x{value:x}")
            }
            Event::RegionBegin { tthread } => write!(f, "region-begin tt{tthread}"),
            Event::RegionEnd { tthread } => write!(f, "region-end tt{tthread}"),
            Event::Join { tthread } => write!(f, "join tt{tthread}"),
        }
    }
}

/// A watched address range declared in the trace header: stores changing
/// bytes in it trigger the tthread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watch {
    /// The triggered tthread.
    pub tthread: TthreadIndex,
    /// Start of the watched range.
    pub start: u64,
    /// Length of the watched range in bytes.
    pub len: u64,
}

impl Watch {
    /// Whether a store to `[addr, addr+size)` precisely overlaps this watch.
    pub fn overlaps(&self, addr: u64, size: u32) -> bool {
        self.len > 0 && size > 0 && addr < self.start + self.len && self.start < addr + size as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_weights() {
        assert_eq!(Event::Compute(7).instructions(), 7);
        assert_eq!(
            Event::Load {
                site: 0,
                addr: 0,
                size: 8,
                value: 0
            }
            .instructions(),
            1
        );
        assert_eq!(
            Event::Store {
                site: 0,
                addr: 0,
                size: 8,
                value: 0
            }
            .instructions(),
            1
        );
        assert_eq!(Event::RegionBegin { tthread: 0 }.instructions(), 0);
        assert_eq!(Event::Join { tthread: 0 }.instructions(), 0);
    }

    #[test]
    fn watch_overlap() {
        let w = Watch {
            tthread: 0,
            start: 100,
            len: 8,
        };
        assert!(w.overlaps(100, 1));
        assert!(w.overlaps(107, 1));
        assert!(!w.overlaps(108, 1));
        assert!(w.overlaps(96, 8));
        assert!(!w.overlaps(92, 8));
        assert!(!w.overlaps(100, 0));
        let empty = Watch {
            tthread: 0,
            start: 100,
            len: 0,
        };
        assert!(!empty.overlaps(100, 4));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Event::Compute(3).to_string(), "compute 3");
        assert!(Event::Join { tthread: 2 }.to_string().contains("tt2"));
        assert!(Event::Store {
            site: 1,
            addr: 16,
            size: 4,
            value: 255
        }
        .to_string()
        .contains("0xff"));
    }
}
