//! The footprint view a detached tthread execution runs against.
//!
//! A body run off the state lock — on a worker, or on a joiner that helps
//! while it waits — reads and writes tracked memory through a [`View`]: a
//! private copy of only the 64-byte stripes the body touches, each copied
//! on first touch under that stripe's lock. Nothing is copied up front, so
//! an execution does no work in the size of the arena; a lookup is a
//! one-entry cache in front of a hash map.
//!
//! # The view rule
//!
//! [`ShardedMem::begin_view`] bumps the arena's view clock, and the view
//! keeps the new value as its `start`. A store that changes a stripe loads
//! the clock under the stripe lock it holds and stamps `clock + 1` into the
//! stripe's version, so it stamps at most `start` exactly when its clock
//! load came before the bump. On first touch the view copies the stripe and
//! reads its version under the stripe's lock:
//!
//! * every store whose load came before the bump is in the copy: the view
//!   takes the lock after its bump, so a store that takes it later also
//!   loads the clock after the bump;
//! * a store whose load came after the bump, and that is in the copy,
//!   left a version above `start` (a stripe's stamps never go down), and
//!   the body restarts.
//!
//! A body therefore sees exactly the stores whose clock load came before
//! its view's bump. Two stores ordered by happens-before load the clock in
//! that order, so that set is closed under happens-before: a consistent
//! cut, as a whole-arena snapshot would be. This is TL2's read validation
//! with the clock bumped by the reader, so a store pays no
//! read-modify-write for it.
//!
//! # Restart
//!
//! A stale stripe unwinds the body with a private payload and sets a flag;
//! every later access unwinds again. The executor checks the flag, not the
//! unwind, so a body that catches unwinds cannot swallow a restart. A
//! restarted run published nothing: its stores live in the view and its
//! write log, both discarded.
//!
//! # User state
//!
//! The first [`crate::Ctx::user`] of a detached body takes the state lock,
//! then [`View::lock_user`] re-checks every stripe copied so far and
//! restarts if one went stale — nothing has been handed out yet. The check
//! holds all those stripes' locks at once, and a stripe is stale only if a
//! byte the body read differs from memory: its version says it changed
//! since the view started, and the bytes say whether the change touched
//! what the body read. Passing, the body's reads are all current at one
//! instant.
//!
//! From then on the body reads as an inline body under the same lock
//! would: live memory, plus its own writes. Every tracked store holds the
//! state lock, so none lands until the commit. So a read that touches no
//! stripe the body wrote goes to live memory, uncopied — a body that takes the lock first pays for no copy at
//! all — and an access to a stripe the view holds first refreshes, under
//! the stripes' locks, every byte of it the body did not write. A copied
//! byte the body did not write is never read stale: a stripe that passed
//! the check on its read bytes may hold old copies of the rest.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::resume_unwind;

use crate::addr::{Addr, AddrRange};
use crate::heap::StoreEffect;
use crate::mem::{stripe_of, ChangedRuns, ShardedMem, STRIPE_BYTES};
use crate::pod::Pod;

/// The unwind payload of a restart. Private, so no body can match it.
struct Restart;

/// Hashes a stripe index with one multiply: the keys are small dense
/// integers, so SipHash would cost more than the lookup it serves.
#[derive(Default)]
struct StripeHasher(u64);

impl Hasher for StripeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// No stripe has this index: addresses are below 2^64 bytes.
const NO_STRIPE: u64 = u64::MAX;

/// One copied stripe.
pub(crate) struct Line {
    /// The stripe as the body sees it: the copy, plus its own stores.
    bytes: [u8; STRIPE_BYTES],
    /// The stripe as copied.
    pub(crate) orig: [u8; STRIPE_BYTES],
    /// One bit per byte the body read (or compared, for a change-detecting
    /// store) from the copy.
    pub(crate) read: u64,
    /// One bit per byte of a store in the body's write log.
    written: u64,
}

impl Line {
    fn new(bytes: &[u8; STRIPE_BYTES]) -> Self {
        Line {
            bytes: *bytes,
            orig: *bytes,
            read: 0,
            written: 0,
        }
    }

    /// Takes every byte the body did not write from `live`.
    fn refresh(&mut self, live: &[u8; STRIPE_BYTES]) {
        for (b, (byte, &new)) in self.bytes.iter_mut().zip(live).enumerate() {
            if self.written & (1 << b) == 0 {
                *byte = new;
            }
        }
    }
}

/// The [`Line::read`] or [`Line::written`] bits of `n` bytes at offset
/// `off` of a stripe.
#[inline]
fn byte_mask(off: usize, n: usize) -> u64 {
    if n >= STRIPE_BYTES {
        u64::MAX
    } else {
        ((1u64 << n) - 1) << off
    }
}

/// A detached execution's copy-on-first-touch view of tracked memory. See
/// the module docs for why its reads form a consistent cut.
pub(crate) struct View {
    /// The view clock value this view started at.
    start: u64,
    /// Whether a first touch still checks the stripe's version; cleared
    /// once the body holds the state lock.
    validate: Cell<bool>,
    /// Stripe index → its copy in `lines`.
    index: HashMap<u64, u32, BuildHasherDefault<StripeHasher>>,
    /// The copied stripes.
    lines: Vec<Line>,
    /// The last stripe looked up and its line: a scan along one stripe
    /// skips the hash.
    last: (u64, usize),
    /// Set when the body must restart.
    restart: Cell<bool>,
    /// Reused byte buffer for bulk reads.
    scratch: Vec<u8>,
}

impl View {
    /// Starts a view of `mem` at a fresh clock value.
    pub(crate) fn start(mem: &ShardedMem) -> Self {
        View {
            start: mem.begin_view(),
            validate: Cell::new(true),
            index: HashMap::default(),
            lines: Vec::new(),
            last: (NO_STRIPE, 0),
            restart: Cell::new(false),
            scratch: Vec::new(),
        }
    }

    /// Whether the body must run again.
    pub(crate) fn restarted(&self) -> bool {
        self.restart.get()
    }

    /// Flags the restart and unwinds the body.
    fn abort(&self) -> ! {
        self.restart.set(true);
        resume_unwind(Box::new(Restart))
    }

    /// Unwinds again if the body caught an earlier restart.
    #[inline]
    fn live(&self) {
        if self.restart.get() {
            self.abort();
        }
    }

    /// Copies stripes `first..=last` in under one lock acquisition. Before
    /// the body holds the state lock, it copies only the stripes the view
    /// does not hold yet, and restarts if one changed after the view
    /// started; after, it also refreshes the ones it holds (see the module
    /// docs).
    fn fill(&mut self, mem: &ShardedMem, first: u64, last: u64) {
        self.live();
        let validate = self.validate.get();
        let index = &mut self.index;
        let (lo, hi) = if validate {
            let Some(lo) = (first..=last).find(|s| !index.contains_key(s)) else {
                return;
            };
            let hi = (lo..=last)
                .rev()
                .find(|s| !index.contains_key(s))
                .expect("`lo` is missing");
            (lo, hi)
        } else {
            (first, last)
        };
        let lines = &mut self.lines;
        let mut newest = 0;
        mem.copy_stripes(lo, hi, |stripe, bytes, version| match index.entry(stripe) {
            Entry::Vacant(slot) => {
                slot.insert(lines.len() as u32);
                lines.push(Line::new(bytes));
                newest = newest.max(version);
            }
            Entry::Occupied(slot) if !validate => lines[*slot.get() as usize].refresh(bytes),
            Entry::Occupied(_) => {}
        });
        if validate && newest > self.start {
            self.abort();
        }
    }

    /// The line of a stripe the view holds.
    #[inline]
    fn held(&mut self, stripe: u64) -> usize {
        if self.last.0 != stripe {
            self.last = (stripe, self.index[&stripe] as usize);
        }
        self.last.1
    }

    /// The line holding `stripe`, copied in on first touch, or refreshed
    /// on every touch once the body holds the state lock.
    #[inline]
    fn line(&mut self, mem: &ShardedMem, stripe: u64) -> usize {
        self.live();
        if self.validate.get() {
            if self.last.0 == stripe {
                return self.last.1;
            }
            if let Some(&i) = self.index.get(&stripe) {
                self.last = (stripe, i as usize);
                return i as usize;
            }
        }
        self.fill(mem, stripe, stripe);
        self.held(stripe)
    }

    /// Walks `range` stripe by stripe, handing `f` each stripe's bytes in
    /// the range and their offset into it; `read` adds them to the read
    /// set. A run of stripes is copied in (or refreshed) at once.
    fn segments(
        &mut self,
        mem: &ShardedMem,
        range: AddrRange,
        read: bool,
        mut f: impl FnMut(&mut [u8], usize),
    ) {
        let mut pos = range.start().raw();
        let end = range.end().raw();
        let (first, last) = (stripe_of(pos), stripe_of(end.saturating_sub(1)));
        let filled = first != last || !self.validate.get();
        if filled && pos < end {
            self.fill(mem, first, last);
        }
        while pos < end {
            let stripe = stripe_of(pos);
            let i = if filled {
                self.held(stripe)
            } else {
                self.line(mem, stripe)
            };
            let off = pos as usize & (STRIPE_BYTES - 1);
            let n = (STRIPE_BYTES - off).min((end - pos) as usize);
            let line = &mut self.lines[i];
            if read {
                line.read |= byte_mask(off, n);
            }
            f(
                &mut line.bytes[off..off + n],
                (pos - range.start().raw()) as usize,
            );
            pos += n as u64;
        }
    }

    /// Adds `range`, whose stripes the view holds, to the written set.
    fn mark_written(&mut self, range: AddrRange) {
        let mut pos = range.start().raw();
        let end = range.end().raw();
        while pos < end {
            let off = pos as usize & (STRIPE_BYTES - 1);
            let n = (STRIPE_BYTES - off).min((end - pos) as usize);
            let i = self.held(stripe_of(pos));
            self.lines[i].written |= byte_mask(off, n);
            pos += n as u64;
        }
    }

    /// Whether a read of `range` goes to live memory: the body holds the
    /// state lock and wrote no byte of the range's stripes (see the module
    /// docs).
    fn reads_live(&self, range: AddrRange) -> bool {
        if self.validate.get() {
            return false;
        }
        if self.lines.is_empty() || range.is_empty() {
            return true;
        }
        let (first, last) = (
            stripe_of(range.start().raw()),
            stripe_of(range.end().raw() - 1),
        );
        (first..=last).all(|s| {
            self.index
                .get(&s)
                .is_none_or(|&i| self.lines[i as usize].written == 0)
        })
    }

    /// Typed load of a [`Pod`] value at `addr`.
    #[inline]
    pub(crate) fn load<T: Pod>(&mut self, mem: &ShardedMem, addr: Addr) -> T {
        mem.check_access(addr, T::SIZE as u64, "load out of bounds");
        if self.reads_live(AddrRange::new(addr, T::SIZE as u64)) {
            return mem.load(addr);
        }
        let off = addr.raw() as usize & (STRIPE_BYTES - 1);
        if off + T::SIZE <= STRIPE_BYTES {
            let i = self.line(mem, stripe_of(addr.raw()));
            let line = &mut self.lines[i];
            line.read |= byte_mask(off, T::SIZE);
            return T::read_le(&line.bytes[off..off + T::SIZE]);
        }
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        self.segments(mem, AddrRange::new(addr, T::SIZE as u64), true, |seg, o| {
            buf[o..o + seg.len()].copy_from_slice(seg);
        });
        T::read_le(buf)
    }

    /// Bulk-loads the `T`-typed elements of `range` into `out` (appended).
    pub(crate) fn load_elems<T: Pod>(
        &mut self,
        mem: &ShardedMem,
        range: AddrRange,
        out: &mut Vec<T>,
    ) {
        mem.check_range(range).expect("load out of bounds");
        if self.reads_live(range) {
            return mem.load_elems(range, out);
        }
        let mut bytes = std::mem::take(&mut self.scratch);
        bytes.resize(range.len() as usize, 0);
        self.segments(mem, range, true, |seg, o| {
            bytes[o..o + seg.len()].copy_from_slice(seg);
        });
        out.extend(bytes.chunks_exact(T::SIZE).map(T::read_le));
        self.scratch = bytes;
    }

    /// Writes `data` at `range` in the view; same contract as
    /// [`crate::heap::TrackedHeap::store_bytes`].
    pub(crate) fn store_bytes(
        &mut self,
        mem: &ShardedMem,
        range: AddrRange,
        data: &[u8],
        detect_change: bool,
    ) -> StoreEffect {
        mem.check_range(range).expect("store out of bounds");
        assert_eq!(data.len() as u64, range.len(), "store size mismatch");
        let mut changed = false;
        self.segments(mem, range, detect_change, |seg, o| {
            let src = &data[o..o + seg.len()];
            if seg != src {
                changed = true;
                seg.copy_from_slice(src);
            }
        });
        if changed || !detect_change {
            self.mark_written(range);
        }
        if detect_change {
            StoreEffect {
                changed,
                bytes_compared: data.len() as u64,
            }
        } else {
            StoreEffect {
                changed: true,
                bytes_compared: 0,
            }
        }
    }

    /// Bulk-stores the whole `elem_size`-byte elements of `data` at `range`
    /// in the view; same contract as [`ShardedMem::store_elems`], with the
    /// same run builder: appends each run of changed elements to `runs` and
    /// returns how many changed.
    pub(crate) fn store_elems(
        &mut self,
        mem: &ShardedMem,
        range: AddrRange,
        data: &[u8],
        elem_size: usize,
        detect_change: bool,
        runs: &mut Vec<(usize, usize)>,
    ) -> usize {
        mem.check_range(range).expect("store out of bounds");
        assert_eq!(data.len() as u64, range.len(), "store size mismatch");
        let n = data.len() / elem_size;
        if n == 0 {
            return 0;
        }
        let data = &data[..n * elem_size];
        let first = runs.len();
        let mut builder = ChangedRuns::new(elem_size, runs);
        let range = AddrRange::new(range.start(), data.len() as u64);
        self.segments(mem, range, detect_change, |seg, o| {
            let src = &data[o..o + seg.len()];
            if detect_change {
                for (j, (was, new)) in seg.iter().zip(src).enumerate() {
                    builder.add(o + j, u64::from(was ^ new));
                }
            }
            seg.copy_from_slice(src);
        });
        let changed = if detect_change {
            builder.finish()
        } else {
            runs.push((0, n));
            n
        };
        for &(a, b) in &runs[first..] {
            self.mark_written(AddrRange::new(
                range.start().offset((a * elem_size) as u64),
                ((b - a) * elem_size) as u64,
            ));
        }
        changed
    }

    /// Typed store of a [`Pod`] value at `addr` in the view.
    pub(crate) fn store<T: Pod>(
        &mut self,
        mem: &ShardedMem,
        addr: Addr,
        value: T,
        detect_change: bool,
    ) -> StoreEffect {
        let mut buf = [0u8; 16];
        let enc = &mut buf[..T::SIZE];
        value.write_le(enc);
        self.store_bytes(
            mem,
            AddrRange::new(addr, T::SIZE as u64),
            enc,
            detect_change,
        )
    }

    /// Takes the state lock for the body's first user-state access
    /// through `lock`, then restarts if a byte the body read so far no
    /// longer matches memory; from then on the body reads as an inline body
    /// would (see the module docs). A restart releases the lock as it
    /// unwinds.
    pub(crate) fn lock_user<G>(&self, mem: &ShardedMem, lock: impl FnOnce() -> G) -> G {
        self.live();
        let guard = lock();
        let copied = self
            .index
            .iter()
            .map(|(&stripe, &i)| (stripe, &self.lines[i as usize]));
        if !mem.stripes_current(self.start, copied) {
            self.abort();
        }
        self.validate.set(false);
        guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Once the body holds the state lock it reads live memory plus its own
    /// writes, also in a stripe it copied before the lock.
    #[test]
    fn after_the_lock_a_held_stripe_reads_live_beside_its_writes() {
        let m = ShardedMem::new(4096, 4, true);
        let a = m.alloc(128, 64).unwrap();
        let mut view = View::start(&m);
        assert_eq!(view.load::<u64>(&m, a), 0);
        view.store(&m, a.offset(16), 3u64, true);
        let mut runs = Vec::new();
        view.store_elems(
            &m,
            AddrRange::new(a.offset(32), 16),
            &[1; 16],
            8,
            true,
            &mut runs,
        );
        assert_eq!(runs, vec![(0, 2)]);
        // Beside the byte read: the stripe is newer, the read still holds.
        m.store(a.offset(8), 5u64, true);
        m.store(a.offset(64), 6u64, true);
        view.lock_user(&m, || ());
        assert!(!view.restarted());
        assert_eq!(view.load::<u64>(&m, a.offset(8)), 5);
        assert_eq!(view.load::<u64>(&m, a.offset(64)), 6);
        // The rest of the stripe reads live, except where the body wrote.
        m.store(a.offset(16), 7u64, true);
        m.store(a.offset(24), 8u64, true);
        let mut out = Vec::new();
        view.load_elems::<u64>(&m, AddrRange::new(a, 32), &mut out);
        assert_eq!(out, vec![0, 5, 3, 8]);
        // A change-detecting store compares against live memory.
        assert!(!view.store(&m, a.offset(24), 8u64, true).changed);
        // The bulk store's bytes stay the body's.
        m.store(a.offset(40), 9u64, true);
        out.clear();
        view.load_elems::<u64>(&m, AddrRange::new(a.offset(32), 16), &mut out);
        assert_eq!(out, vec![0x0101_0101_0101_0101; 2]);
    }

    /// A bulk store in the view reports the changed runs the arena's own
    /// bulk store reports, and leaves the same bytes.
    #[test]
    fn bulk_store_matches_the_arena() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let elem = [1, 2, 3, 4, 7, 8, 16, 24][(rnd() % 8) as usize];
            let n = 1 + (rnd() % 40) as usize;
            let at = (rnd() % 3) * elem as u64;
            let detect = rnd() % 4 != 0;
            let m = ShardedMem::new(4096, 4, true);
            let live = ShardedMem::new(4096, 4, true);
            let a = m.alloc(1024, 16).unwrap();
            live.alloc(1024, 16).unwrap();
            let old: Vec<u8> = (0..1024).map(|_| (rnd() % 3) as u8).collect();
            m.store_bytes(AddrRange::new(a, 1024), &old, false);
            live.store_bytes(AddrRange::new(a, 1024), &old, false);
            let data: Vec<u8> = (0..n * elem).map(|_| (rnd() % 3) as u8).collect();
            let range = AddrRange::new(a.offset(at), data.len() as u64);
            let (mut want_runs, mut got_runs) = (Vec::new(), Vec::new());
            let want = live.store_elems(range, &data, elem, detect, &mut want_runs);
            let mut view = View::start(&m);
            let got = view.store_elems(&m, range, &data, elem, detect, &mut got_runs);
            assert_eq!((got, &got_runs), (want, &want_runs));
            let (mut seen, mut expect) = (Vec::new(), Vec::new());
            view.load_elems::<u8>(&m, AddrRange::new(a, 1024), &mut seen);
            live.load_elems::<u8>(AddrRange::new(a, 1024), &mut expect);
            assert_eq!(seen, expect);
        }
    }
}
