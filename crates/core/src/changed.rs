//! The per-tthread changed set: the tracked bytes that changed since a
//! tthread's body last started, handed to the body as [`Triggers`].
//!
//! In the DTT model a tthread is started by a store that changed data it
//! watches, and it may use that store's address. Every raise already knows
//! its store range; the `ChangedSet` in the tthread's dispatch slot keeps
//! it, so a body can recompute the delta instead of rescanning its input
//! ([`crate::ctx::Ctx::triggers`]).
//!
//! # Protocol
//!
//! * **Push before the raise RMW.** A raise pushes its store range, then
//!   performs its RMW on the status word (the absorb rule in
//!   `crate::dispatch`). A claim that synchronizes with that RMW therefore
//!   also happens-after the push.
//! * **Take after the claim.** A body run takes (swaps out) the set after
//!   its claim CAS and before its view starts or its first read, on every
//!   go-around.
//!   A push the take misses raced the claim, so its raise RMW lands after
//!   it: the run is Running, the raise sets RF, and the rerun takes the
//!   range. A range is therefore seen by the first run that starts after
//!   its push, and by no earlier run that could have read stale data.
//! * **Every write is an RMW.** A push whose range an entry already covers
//!   still CAS-es that entry onto itself, and `all` is only ever swapped.
//!   A take that reads a later value then synchronizes with every push
//!   before it through the release sequence. A load-only push could let a
//!   run take an entry, read pre-store data, and leave its RF rerun an
//!   empty set.
//! * **Saturation is safe.** The set holds [`CHANGED_CAPACITY`] coalesced
//!   ranges. A push that finds no free entry and nothing to merge with
//!   sets `all`, and the next take reports [`Triggers::All`]: recompute
//!   everything, which is what a body did before it could ask. So does
//!   every event that loses ranges: registration (nothing ran yet),
//!   `mark_dirty`, `force`, and a run whose taken set is thrown away
//!   (poison, deadline overrun).

use crate::addr::{Addr, AddrRange};
use crate::sync::{AtomicBool, AtomicU64, Ordering};

/// Ranges one changed set holds before it saturates to [`Triggers::All`].
pub const CHANGED_CAPACITY: usize = 4;

/// A free entry. No packed range is zero: a packed length is never zero.
const EMPTY: u64 = 0;

/// Packs a non-empty range as `start << 32 | len`. Arena offsets fit in 32
/// bits; `None` for a range that does not (the caller saturates).
fn pack(range: AddrRange) -> Option<u64> {
    let start = u32::try_from(range.start().raw()).ok()?;
    let len = u32::try_from(range.len()).ok()?;
    Some(u64::from(start) << 32 | u64::from(len))
}

fn unpack(word: u64) -> AddrRange {
    AddrRange::new(Addr::new(word >> 32), word & u64::from(u32::MAX))
}

/// The union of two ranges that overlap or touch; `None` across a gap.
fn merge(a: AddrRange, b: AddrRange) -> Option<AddrRange> {
    if a.start() > b.end() || b.start() > a.end() {
        return None;
    }
    let start = a.start().min(b.start());
    let end = a.end().max(b.end());
    Some(AddrRange::new(start, end.raw() - start.raw()))
}

/// One tthread's bounded, lock-free changed set. It lives in the free
/// bytes of the tthread's `dispatch::Slot` cache line.
#[derive(Debug, Default)]
pub(crate) struct ChangedSet {
    entries: [AtomicU64; CHANGED_CAPACITY],
    all: AtomicBool,
}

impl ChangedSet {
    /// Records that `range` changed: merges it into an entry it overlaps
    /// or touches, else takes the first free entry, else saturates the set
    /// to [`Triggers::All`]. Entries fill in order, so the scan stops at the
    /// first free one; a race with a take can leave a range past it, which
    /// costs only a missed merge.
    pub(crate) fn push(&self, range: AddrRange) {
        if range.is_empty() {
            return;
        }
        if self.all.load(Ordering::Relaxed) {
            // Already saturated: the swap is this push's RMW.
            return self.set_all();
        }
        'scan: loop {
            for entry in &self.entries {
                let cur = entry.load(Ordering::Acquire);
                let new = if cur == EMPTY {
                    range
                } else if let Some(union) = merge(unpack(cur), range) {
                    union
                } else {
                    continue;
                };
                match pack(new) {
                    Some(packed) if Self::cas(entry, cur, packed) => return,
                    Some(_) => continue 'scan,
                    None => return self.set_all(),
                }
            }
            return self.set_all();
        }
    }

    fn cas(entry: &AtomicU64, cur: u64, new: u64) -> bool {
        entry
            .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Saturates the set: the next take reports [`Triggers::All`].
    pub(crate) fn set_all(&self) {
        self.all.swap(true, Ordering::AcqRel);
    }

    /// Swaps the set out, leaving it empty. An empty entry is read with a
    /// load: a push it misses raced the claim before this take, and its
    /// raise sets RF (see the module docs).
    pub(crate) fn take(&self) -> Triggers {
        let all = self.all.load(Ordering::Acquire) && self.all.swap(false, Ordering::AcqRel);
        let mut ranges = ChangedRanges::default();
        for entry in &self.entries {
            if entry.load(Ordering::Acquire) == EMPTY {
                continue;
            }
            let word = entry.swap(EMPTY, Ordering::AcqRel);
            if word != EMPTY {
                ranges.ranges[ranges.len] = unpack(word);
                ranges.len += 1;
            }
        }
        if all {
            Triggers::All
        } else {
            Triggers::Ranges(ranges)
        }
    }
}

/// What changed since a tthread body's execution started, as returned by
/// [`crate::ctx::Ctx::triggers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triggers {
    /// Anything may have changed: recompute everything. The first run
    /// after `register`, `mark_dirty`, `force`, a panic or a deadline
    /// overrun sees this, as does a run after more than
    /// [`CHANGED_CAPACITY`] disjoint ranges changed, and every main-thread
    /// [`crate::runtime::Runtime::with`] region.
    All,
    /// Only bytes in these ranges changed. The set may be empty: a rerun
    /// whose trigger's range an earlier run of the same execution took.
    Ranges(ChangedRanges),
}

/// Up to [`CHANGED_CAPACITY`] changed byte ranges. Pushes coalesce
/// overlapping and adjacent ranges, but two racing pushes may still leave
/// two overlapping entries, so a body must tolerate visiting an element
/// twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangedRanges {
    len: usize,
    ranges: [AddrRange; CHANGED_CAPACITY],
}

impl Default for ChangedRanges {
    fn default() -> Self {
        ChangedRanges {
            len: 0,
            ranges: [AddrRange::new(Addr::new(0), 0); CHANGED_CAPACITY],
        }
    }
}

impl ChangedRanges {
    /// Iterates over the changed ranges.
    pub fn iter(&self) -> impl Iterator<Item = AddrRange> + '_ {
        self.ranges[..self.len].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn r(start: u64, len: u64) -> AddrRange {
        AddrRange::new(Addr::new(start), len)
    }

    fn ranges(t: Triggers) -> Vec<AddrRange> {
        match t {
            Triggers::All => panic!("expected ranges, got All"),
            Triggers::Ranges(set) => set.iter().collect(),
        }
    }

    #[test]
    fn packing_round_trips_and_refuses_what_does_not_fit() {
        let x = r(u64::from(u32::MAX), 1);
        assert_eq!(unpack(pack(x).unwrap()), x);
        assert!(pack(r(1 << 32, 1)).is_none());
        assert!(pack(r(0, 1 << 32)).is_none());
    }

    #[test]
    fn adjacent_and_overlapping_pushes_coalesce() {
        let set = ChangedSet::default();
        for i in 0..8 {
            set.push(r(100 + 8 * i, 8));
        }
        set.push(r(96, 8));
        set.push(r(120, 2));
        assert_eq!(ranges(set.take()), vec![r(96, 68)]);
        assert_eq!(ranges(set.take()), vec![], "take empties the set");
    }

    #[test]
    fn a_fifth_disjoint_range_saturates_to_all() {
        let set = ChangedSet::default();
        for i in 0..CHANGED_CAPACITY as u64 {
            set.push(r(16 * i, 4));
        }
        assert_eq!(ranges(set.take()).len(), CHANGED_CAPACITY);
        for i in 0..=CHANGED_CAPACITY as u64 {
            set.push(r(16 * i, 4));
        }
        assert_eq!(set.take(), Triggers::All);
        assert_eq!(ranges(set.take()), vec![], "All clears the entries too");
    }

    #[test]
    fn concurrent_pushes_are_taken_exactly_once() {
        // One pusher, one taker, every range disjoint from the others: no
        // range is taken twice. A take that reports All also drops the
        // entries it swapped out, so only a run with no saturation must
        // show every range as a range.
        const N: u64 = 20_000;
        let set = Arc::new(ChangedSet::default());
        let pusher = {
            let set = Arc::clone(&set);
            std::thread::spawn(move || (0..N).for_each(|k| set.push(r(2 * k, 1))))
        };
        let mut seen = vec![0u32; N as usize];
        let mut alls = 0;
        let mut record = |t: Triggers| match t {
            Triggers::All => alls += 1,
            Triggers::Ranges(set) => {
                for range in set.iter() {
                    assert_eq!(range.len(), 1, "disjoint ranges never merge");
                    seen[(range.start().raw() / 2) as usize] += 1;
                }
            }
        };
        while !pusher.is_finished() {
            record(set.take());
        }
        pusher.join().unwrap();
        record(set.take());
        assert!(seen.iter().all(|&n| n <= 1), "a range was taken twice");
        if alls == 0 {
            assert!(seen.iter().all(|&n| n == 1), "a range was lost");
        }
    }
}
