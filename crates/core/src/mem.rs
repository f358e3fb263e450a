//! Sharded tracked memory: the concurrent store/load hot path.
//!
//! [`ShardedMem`] plays the same role as [`crate::heap::TrackedHeap`] — a
//! growable, bounds-checked arena with change-detecting stores — but is
//! accessed through `&self` from many threads at once. The paper's hardware
//! performs the value compare on *every* store without serializing the
//! pipeline; the software analogue is that tracked loads and stores must not
//! take the runtime's global state lock.
//!
//! # Design
//!
//! The crate forbids `unsafe`, so the arena is built from [`AtomicU64`]
//! words:
//!
//! * **Word storage** — byte writes are word-level read-modify-writes with
//!   [`Ordering::Relaxed`]; the stripe lock (below) provides the exclusivity
//!   and the happens-before edges, the atomics only make the cells shareable
//!   under `&self`.
//! * **Striped locks** — the address space is divided into 64-byte
//!   *stripes*; stripe `s` hashes to lock `s % shards` (shards is a power of
//!   two). A store locks the stripes its range covers, in ascending lock
//!   order, so stores to different stripes proceed in parallel while stores
//!   to the same stripe — including the compare half of silent-store
//!   detection — are atomic.
//! * **Growth** — words live in fixed-size chunks initialized lazily by
//!   [`ShardedMem::alloc`] ([`OnceLock`] per chunk, `alloc` itself behind a
//!   dedicated mutex), so the access path reaches any allocated word with a
//!   lock-free chunk lookup: growth never moves existing words and the hot
//!   path never touches an arena-wide lock. `shards = 1` degenerates to a
//!   single stripe lock covering all of memory.
//! * **Versions** — a *versioned* arena (a runtime with workers, whose
//!   detached bodies read through [`crate::view::View`]) keeps one version
//!   word per stripe, in its chunk's allocation after the words, plus one
//!   arena-wide `epoch` clock. A store that changes a stripe loads `epoch` under the stripe
//!   lock it already holds and stamps `epoch + 1` into the stripe's
//!   version; a view start bumps `epoch`. No read-modify-write is added to
//!   the store path, and silent stores and loads do not touch either word.
//!   An unversioned arena allocates no versions and skips the stamp on one
//!   branch.
//!
//! Lock ordering: the runtime's state lock, when held, is always acquired
//! *before* stripe locks, and stripe locks are never held while acquiring
//! the state lock — see `crates/core/src/accessor.rs` for the access-side
//! protocol.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::{Mutex, MutexGuard};

use crate::addr::{Addr, AddrRange};
use crate::error::{Error, Result};
use crate::heap::{StoreEffect, TrackedHeap};
use crate::pod::Pod;
use crate::view::Line;

/// Bytes per lock stripe (one cache line).
const STRIPE_SHIFT: u32 = 6;

/// Bytes per stripe.
pub(crate) const STRIPE_BYTES: usize = 1 << STRIPE_SHIFT;

/// Words per stripe.
const STRIPE_WORDS: usize = STRIPE_BYTES / 8;

/// Words per storage chunk (2^16 words = 512 KiB of tracked memory).
const CHUNK_WORDS_SHIFT: u32 = 16;
const CHUNK_WORDS: u64 = 1 << CHUNK_WORDS_SHIFT;

/// How many stripe locks a runtime's arena gets: the host's CPUs,
/// oversubscribed 4× so disjoint working sets rarely collide, clamped to
/// `[1, 256]` and rounded up to a power of two.
pub(crate) fn default_shards() -> usize {
    (host_cpus() * 4).clamp(1, 256).next_power_of_two()
}

/// The host's online CPUs, read once per process. The online list, not
/// the calling thread's affinity: a program may pin the thread that builds
/// a runtime (and so its workers) to one CPU while its main thread runs on
/// another. Where the list cannot be read, the affinity-aware count
/// decides.
pub(crate) fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        let list = std::fs::read_to_string("/sys/devices/system/cpu/online");
        list.ok()
            .and_then(|list| cpus_in_list(&list))
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The number of CPUs in a kernel CPU list (`0`, `0-3`, `0,2-3`); `None`
/// if it does not parse.
fn cpus_in_list(list: &str) -> Option<usize> {
    let span = |part: &str| {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi) = (lo.parse::<usize>().ok()?, hi.parse::<usize>().ok()?);
        hi.checked_sub(lo).map(|n| n + 1)
    };
    list.trim().split(',').map(span).sum()
}

/// Whether a `size`-byte value at byte offset `start` lies inside one
/// 8-byte word, so that one atomic word access covers it.
#[inline]
fn word_contained(start: u64, size: usize) -> bool {
    size <= 8 && (start >> 3) == ((start + size as u64 - 1) >> 3)
}

/// The stripe holding byte address `addr`.
#[inline]
pub(crate) fn stripe_of(addr: u64) -> u64 {
    addr >> STRIPE_SHIFT
}

/// The stamp one locked store writes into the version of every stripe it
/// changes: the view clock plus one, loaded at the first changed word, so
/// a silent store never reads the clock. Stamps of one stripe never go
/// down: each store loads the clock after the previous store to that
/// stripe released its lock.
struct Stamp<'a> {
    /// The arena, or `None` when it keeps no versions: then a mark is one
    /// predictable branch.
    mem: Option<&'a ShardedMem>,
    value: u64,
    /// The stripe stamped last, so a run of changed words in one stripe
    /// stamps it once.
    stripe: u64,
}

impl Stamp<'_> {
    /// Records that word `w` changed.
    #[inline]
    fn mark(&mut self, w: u64) {
        let Some(mem) = self.mem else {
            return;
        };
        let stripe = w / STRIPE_WORDS as u64;
        if self.value != 0 && stripe == self.stripe {
            return;
        }
        // Relaxed, both: the stripe lock the caller holds orders this
        // stamp before any view's read of it, and whether the clock load
        // came before a view's bump is decided by the clock's own
        // modification order (see `crate::view`).
        if self.value == 0 {
            self.value = mem.epoch.load(Ordering::Relaxed) + 1;
        }
        self.stripe = stripe;
        mem.version(stripe).store(self.value, Ordering::Relaxed);
    }
}

/// The sharded arena. See the module docs for the locking protocol.
pub(crate) struct ShardedMem {
    /// Word storage in fixed-size chunks, initialized by `alloc` as the
    /// arena grows; accesses reach a word through a lock-free
    /// `OnceLock::get`, and existing words never move. In a versioned
    /// arena a chunk's [`ShardedMem::chunk_words`] words are followed by
    /// one version word per stripe (see the module docs).
    chunks: Box<[OnceLock<Box<[AtomicU64]>>]>,
    /// Whether chunks carry stripe versions.
    versioned: bool,
    /// The view clock: bumped by [`ShardedMem::begin_view`], read by every
    /// store that changes a stripe of a versioned arena.
    epoch: AtomicU64,
    /// Bytes currently allocated (monotonically increasing).
    len: AtomicU64,
    /// Capacity bound in bytes.
    capacity: u64,
    /// Serializes `alloc` (length bump + chunk initialization).
    alloc_lock: Mutex<()>,
    /// Stripe locks; length is a power of two.
    locks: Box<[Mutex<()>]>,
    /// `locks.len() - 1`, for mask-based stripe hashing.
    mask: u64,
}

impl std::fmt::Debug for ShardedMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMem")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("shards", &self.locks.len())
            .finish()
    }
}

/// Stripe locks held for the duration of one access. The single-lock case
/// (every scalar store: alignment keeps values inside one stripe) avoids
/// heap allocation entirely.
enum StripeGuards<'a> {
    None,
    One(#[allow(dead_code)] MutexGuard<'a, ()>),
    Many(#[allow(dead_code)] Vec<MutexGuard<'a, ()>>),
}

impl ShardedMem {
    /// Creates an empty arena bounded at `capacity` bytes with `shards`
    /// stripe locks (rounded up to a power of two, minimum 1). A
    /// `versioned` arena stamps stripe versions for views.
    pub(crate) fn new(capacity: u64, shards: usize, versioned: bool) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let nchunks = capacity.div_ceil(8).div_ceil(CHUNK_WORDS) as usize;
        ShardedMem {
            chunks: (0..nchunks).map(|_| OnceLock::new()).collect(),
            versioned,
            epoch: AtomicU64::new(0),
            len: AtomicU64::new(0),
            capacity,
            alloc_lock: Mutex::new(()),
            locks: (0..shards).map(|_| Mutex::new(())).collect(),
            mask: (shards - 1) as u64,
        }
    }

    /// The word at index `w`. Lock-free; panics if `w` lies beyond the
    /// allocated length (every caller bounds-checks through `check_range`
    /// first, and `alloc` initializes all chunks up to the new length).
    #[inline]
    fn word(&self, w: u64) -> &AtomicU64 {
        let chunk = self.chunks[(w >> CHUNK_WORDS_SHIFT) as usize]
            .get()
            .expect("access to unallocated arena chunk");
        &chunk[(w & (CHUNK_WORDS - 1)) as usize]
    }

    /// The words of chunk `ci`, not counting its versions: the last chunk
    /// of the arena may be partial.
    #[inline]
    fn chunk_words(&self, ci: u64) -> usize {
        (self.capacity.div_ceil(8) - ci * CHUNK_WORDS).min(CHUNK_WORDS) as usize
    }

    /// The version word of `stripe`, in a versioned arena.
    #[inline]
    fn version(&self, stripe: u64) -> &AtomicU64 {
        debug_assert!(self.versioned, "an unversioned arena keeps no versions");
        let w = stripe * STRIPE_WORDS as u64;
        let ci = w >> CHUNK_WORDS_SHIFT;
        let chunk = self.chunks[ci as usize]
            .get()
            .expect("access to unallocated arena chunk");
        &chunk[self.chunk_words(ci) + (w & (CHUNK_WORDS - 1)) as usize / STRIPE_WORDS]
    }

    /// Number of stripe locks.
    #[inline]
    pub(crate) fn shards(&self) -> usize {
        self.locks.len()
    }

    /// The stripe (shard) index an address hashes to — also the index of
    /// the observability event ring store events to that address use, so
    /// threads writing disjoint shards record into disjoint rings.
    #[inline]
    pub(crate) fn shard_of(&self, addr: Addr) -> usize {
        ((addr.raw() >> STRIPE_SHIFT) & self.mask) as usize
    }

    /// Bytes currently allocated.
    #[inline]
    pub(crate) fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// The configured capacity bound in bytes.
    #[inline]
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Allocates `len` zeroed bytes aligned to `align`; same contract as
    /// [`TrackedHeap::alloc`].
    pub(crate) fn alloc(&self, len: u64, align: u64) -> Result<Addr> {
        assert!(
            align > 0 && align.is_power_of_two(),
            "alignment must be a nonzero power of two"
        );
        let _g = self.alloc_lock.lock();
        let base = self.len.load(Ordering::Relaxed).div_ceil(align) * align;
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
        // Materialize every chunk covering the new length (the last chunk of
        // the arena may be partial).
        for ci in 0..end.div_ceil(8).div_ceil(CHUNK_WORDS) {
            self.chunks[ci as usize].get_or_init(|| {
                let words = self.chunk_words(ci);
                let versions = if self.versioned {
                    words.div_ceil(STRIPE_WORDS)
                } else {
                    0
                };
                (0..words + versions).map(|_| AtomicU64::new(0)).collect()
            });
        }
        self.len.store(end, Ordering::Release);
        Ok(Addr::new(base))
    }

    /// Checks that `range` lies inside the allocated arena; same contract as
    /// [`TrackedHeap::check_range`].
    #[inline]
    pub(crate) fn check_range(&self, range: AddrRange) -> Result<()> {
        let len = self.len();
        if range.end().raw() <= len {
            Ok(())
        } else {
            Err(Error::RegionOutOfBounds {
                start: range.start().raw(),
                len: range.len(),
                heap_len: len,
            })
        }
    }

    /// Acquires the stripe locks covering `range`, in ascending lock order
    /// (ties on lock index are impossible below `shards` distinct stripes;
    /// spans covering every lock take them all).
    fn lock_range(&self, range: AddrRange) -> StripeGuards<'_> {
        if range.is_empty() {
            return StripeGuards::None;
        }
        let first = range.start().raw() >> STRIPE_SHIFT;
        let last = (range.end().raw() - 1) >> STRIPE_SHIFT;
        if first == last {
            return StripeGuards::One(self.locks[(first & self.mask) as usize].lock());
        }
        let nlocks = self.locks.len() as u64;
        if last - first + 1 >= nlocks {
            return StripeGuards::Many(self.locks.iter().map(|l| l.lock()).collect());
        }
        // Fewer stripes than locks: consecutive stripes hash to distinct
        // locks, so sorting the indices gives a deadlock-free ascending
        // acquisition order.
        let mut idxs: Vec<usize> = (first..=last).map(|s| (s & self.mask) as usize).collect();
        idxs.sort_unstable();
        StripeGuards::Many(idxs.into_iter().map(|i| self.locks[i].lock()).collect())
    }

    /// Writes `data` at `range`, comparing against the old contents when
    /// `detect_change` is set; same contract as [`TrackedHeap::store_bytes`].
    pub(crate) fn store_bytes(
        &self,
        range: AddrRange,
        data: &[u8],
        detect_change: bool,
    ) -> StoreEffect {
        self.check_range(range).expect("store out of bounds");
        assert_eq!(data.len() as u64, range.len(), "store size mismatch");
        let _guards = self.lock_range(range);
        let changed = self.write_words(range, data);
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

    /// The scalar bounds test, as one compare in the caller: `addr + size`
    /// must not overflow and must lie inside the allocated length. A failure
    /// leaves the straight-line path for [`ShardedMem::access_out_of_bounds`].
    #[inline]
    pub(crate) fn check_access(&self, addr: Addr, size: u64, what: &'static str) {
        match addr.raw().checked_add(size) {
            Some(end) if end <= self.len() => {}
            _ => self.access_out_of_bounds(addr, size, what),
        }
    }

    /// The failing half of [`ShardedMem::check_access`]: builds the range
    /// (`AddrRange::new` panics on address-space overflow), then the
    /// [`Error::RegionOutOfBounds`] and the `what` panic around it. Returns
    /// only if a concurrent `alloc` grew the arena past the access between
    /// the two length reads — the access is in bounds by then.
    #[cold]
    #[inline(never)]
    fn access_out_of_bounds(&self, addr: Addr, size: u64, what: &'static str) {
        self.check_range(AddrRange::new(addr, size)).expect(what);
    }

    /// Typed store of a [`Pod`] value at `addr`. A value contained in one
    /// word is one word load and a compare in the caller; only a store that
    /// changes the word goes on to [`ShardedMem::store_word_locked`].
    // always: with plain `#[inline]` LLVM keeps one out-of-line copy per `T`
    // and calls it from every large `Runtime::with` closure.
    #[inline(always)]
    pub(crate) fn store<T: Pod>(&self, addr: Addr, value: T, detect_change: bool) -> StoreEffect {
        let start = addr.raw();
        self.check_access(addr, T::SIZE as u64, "store out of bounds");
        let mut buf = [0u8; 16];
        value.write_le(&mut buf[..T::SIZE]);
        if !word_contained(start, T::SIZE) {
            let range = AddrRange::new(addr, T::SIZE as u64);
            return self.store_bytes(range, &buf[..T::SIZE], detect_change);
        }
        // The value's bytes as a lane of its word: little-endian byte `i` of
        // a word is bits `8i..8i+8`.
        let shift = (start & 7) * 8;
        let lane = u64::MAX >> (64 - 8 * T::SIZE as u32) << shift;
        let bits = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes")) << shift;
        // Double-checked silent path: a store that leaves the word
        // unchanged has no visible effect and can linearize at this
        // lockless load, skipping the stripe lock entirely. Silent
        // stores are the common case this runtime exists to exploit.
        let cur = self.word(start >> 3).load(Ordering::Relaxed);
        let changed = cur & lane != bits && self.store_word_locked(start, lane, bits);
        if detect_change {
            StoreEffect {
                changed,
                bytes_compared: T::SIZE as u64,
            }
        } else {
            StoreEffect {
                changed: true,
                bytes_compared: 0,
            }
        }
    }

    /// The under-stripe-lock half of a word-contained [`ShardedMem::store`]:
    /// re-reads the word under the lock (another thread may have stored
    /// since the caller's lockless probe), splices `bits` into `lane`, and
    /// reports whether the word changed.
    #[inline(never)]
    fn store_word_locked(&self, start: u64, lane: u64, bits: u64) -> bool {
        let word = self.word(start >> 3);
        let _g = self.locks[((start >> STRIPE_SHIFT) & self.mask) as usize].lock();
        let old = word.load(Ordering::Relaxed);
        let new = (old & !lane) | bits;
        if new != old {
            word.store(new, Ordering::Relaxed);
            self.stamp().mark(start >> 3);
        }
        new != old
    }

    /// A fresh [`Stamp`] for one locked store.
    #[inline]
    fn stamp(&self) -> Stamp<'_> {
        Stamp {
            mem: self.versioned.then_some(self),
            value: 0,
            stripe: 0,
        }
    }

    /// Typed load of a [`Pod`] value at `addr`. Values contained in one
    /// word need no stripe lock: the word load is atomic, so concurrent
    /// read-modify-writes of neighbouring bytes can never tear it.
    // always: as for `store` — LLVM declines it in the pipeline kernel's
    // bucket loop, leaving a call per tracked load.
    #[inline(always)]
    pub(crate) fn load<T: Pod>(&self, addr: Addr) -> T {
        let start = addr.raw();
        self.check_access(addr, T::SIZE as u64, "load out of bounds");
        if word_contained(start, T::SIZE) {
            let lane = self.word(start >> 3).load(Ordering::Relaxed) >> ((start & 7) * 8);
            return T::read_le(&lane.to_le_bytes()[..T::SIZE]);
        }
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        self.load_straddling(AddrRange::new(addr, T::SIZE as u64), buf);
        T::read_le(buf)
    }

    /// The multi-word half of [`ShardedMem::load`]: a value that straddles
    /// words can tear, so it is read under the stripe locks of its range.
    #[inline(never)]
    fn load_straddling(&self, range: AddrRange, out: &mut [u8]) {
        let _guards = self.lock_range(range);
        self.read_words(range, out);
    }

    /// Bulk-loads the bytes of `range` into `out` (cleared first), atomically
    /// with respect to concurrent stores into the range. The runtime's typed
    /// bulk reads go through [`ShardedMem::load_elems`]; this byte-level
    /// variant backs the unit tests.
    #[cfg(test)]
    pub(crate) fn load_into(&self, range: AddrRange, out: &mut Vec<u8>) {
        self.check_range(range).expect("load out of bounds");
        out.clear();
        out.resize(range.len() as usize, 0);
        if range.is_empty() {
            return;
        }
        let _guards = self.lock_range(range);
        self.read_words(range, out);
    }

    /// Bulk-loads the `T`-typed elements of `range` into `out` (appended;
    /// callers clear first), atomically with respect to concurrent stores
    /// into the range. Word-aligned u64-sized elements decode straight from
    /// the word array without an intermediate byte buffer.
    pub(crate) fn load_elems<T: Pod>(&self, range: AddrRange, out: &mut Vec<T>) {
        self.check_range(range).expect("load out of bounds");
        let n = range.len() as usize / T::SIZE;
        out.reserve(n);
        let _guards = self.lock_range(range);
        if T::SIZE <= 8 && 8 % T::SIZE == 0 && range.start().raw().is_multiple_of(T::SIZE as u64) {
            // Elements never straddle a word segment (`T::SIZE` divides 8
            // and the range starts elem-aligned): decode straight out of
            // each word's bytes, no intermediate buffer.
            let mut pos = range.start().raw();
            let end = range.end().raw();
            while pos < end {
                let (chunk, mut idx) = self.chunk_of(pos >> 3);
                while pos < end && idx < chunk.len() {
                    if T::SIZE == 8 && pos & 7 == 0 && end - pos >= 8 {
                        // Whole aligned words in one `extend` (exact-size
                        // iterator, no per-element capacity checks).
                        let span = (((end - pos) >> 3) as usize).min(chunk.len() - idx);
                        out.extend(
                            chunk[idx..idx + span]
                                .iter()
                                .map(|w| T::read_le(&w.load(Ordering::Relaxed).to_le_bytes())),
                        );
                        pos += (span * 8) as u64;
                        idx += span;
                        continue;
                    }
                    let off = (pos & 7) as usize;
                    let nb = ((8 - off) as u64).min(end - pos) as usize;
                    let bytes = chunk[idx].load(Ordering::Relaxed).to_le_bytes();
                    out.extend(bytes[off..off + nb].chunks_exact(T::SIZE).map(T::read_le));
                    pos += nb as u64;
                    idx += 1;
                }
            }
        } else {
            let mut bytes = vec![0u8; range.len() as usize];
            self.read_words(range, &mut bytes);
            for chunk in bytes.chunks_exact(T::SIZE) {
                out.push(T::read_le(chunk));
            }
        }
    }

    /// Bulk store with per-element change detection: writes `data`
    /// (`elem_size`-byte elements) at `range` under one stripe-lock
    /// acquisition, records runs of *changed* element indices into `runs`
    /// (cleared first), and returns the number of changed elements. With
    /// `detect_change` off every element counts as changed, matching
    /// [`TrackedHeap::store_bytes`] semantics.
    pub(crate) fn store_elems(
        &self,
        range: AddrRange,
        data: &[u8],
        elem_size: usize,
        detect_change: bool,
        runs: &mut Vec<(usize, usize)>,
    ) -> usize {
        runs.clear();
        self.check_range(range).expect("store out of bounds");
        assert_eq!(data.len() as u64, range.len(), "store size mismatch");
        if data.is_empty() {
            return 0;
        }
        let n = data.len() / elem_size;
        let _guards = self.lock_range(range);
        let mut stamp = self.stamp();
        struct RunState {
            changed_elems: usize,
            run_start: Option<usize>,
        }
        impl RunState {
            #[inline]
            fn mark(&mut self, k: usize, changed: bool, runs: &mut Vec<(usize, usize)>) {
                if changed {
                    self.changed_elems += 1;
                    if self.run_start.is_none() {
                        self.run_start = Some(k);
                    }
                } else if let Some(start) = self.run_start.take() {
                    runs.push((start, k));
                }
            }
        }
        let mut st = RunState {
            changed_elems: 0,
            run_start: None,
        };
        if elem_size <= 8
            && 8 % elem_size == 0
            && range.start().raw().is_multiple_of(elem_size as u64)
        {
            // Element boundaries coincide with word-segment boundaries
            // (`elem_size` divides 8 and the range starts elem-aligned), so
            // each word is one load/compare/store covering whole elements:
            // the per-element change bits fall out of comparing the old and
            // new word bytes. Chunk lookup is hoisted out of the word loop.
            let mut pos = range.start().raw();
            let end = range.end().raw();
            let mut o = 0usize;
            while pos < end {
                let (chunk, mut idx) = self.chunk_of(pos >> 3);
                while pos < end && idx < chunk.len() {
                    if pos & 7 == 0 && end - pos >= 8 {
                        // Whole aligned words: fixed-size decode, one
                        // compare per word, per-element work only on the
                        // words that actually changed.
                        let span = (((end - pos) >> 3) as usize).min(chunk.len() - idx);
                        let per = 8 / elem_size;
                        let base = o / elem_size;
                        let words = &chunk[idx..idx + span];
                        let src = &data[o..o + span * 8];
                        let le64 = |s: &[u8], k: usize| {
                            u64::from_le_bytes(s[k..k + 8].try_into().expect("8 bytes"))
                        };
                        if !detect_change {
                            for (l, (word, ed)) in words.iter().zip(src.chunks_exact(8)).enumerate()
                            {
                                let new = le64(ed, 0);
                                if new != word.load(Ordering::Relaxed) {
                                    word.store(new, Ordering::Relaxed);
                                    stamp.mark((pos >> 3) + l as u64);
                                }
                            }
                            st.changed_elems += span * per;
                            if st.run_start.is_none() {
                                st.run_start = Some(base);
                            }
                        } else {
                            let mut i = 0usize;
                            // Vectorized line loop: eight words (one
                            // 64-byte line) per step, branch-free over
                            // the lane bodies — the xor lanes OR-reduce
                            // to one per-line change word, so a silent
                            // line costs eight loads and one compare,
                            // with no per-word branching for the
                            // autovectorizer to trip on. Per-element
                            // work happens only on changed lines.
                            let ebits = elem_size * 8;
                            let emask = if elem_size == 8 {
                                u64::MAX
                            } else {
                                (1u64 << ebits) - 1
                            };
                            while i + 8 <= span {
                                // Fixed-size views: the `[u8; 64]` line
                                // and `&words[i..i + 8]` window make
                                // every lane index in-bounds by
                                // construction, so the reduce below is
                                // eight load/xor pairs and one test.
                                let s: &[u8; 64] =
                                    src[i * 8..i * 8 + 64].try_into().expect("64-byte line");
                                let w = &words[i..i + 8];
                                let mut diff = 0u64;
                                for (l, word) in w.iter().enumerate() {
                                    diff |= le64(s, l * 8) ^ word.load(Ordering::Relaxed);
                                }
                                if diff == 0 {
                                    // Silent line: every element it
                                    // covers is unchanged.
                                    if let Some(start) = st.run_start.take() {
                                        runs.push((start, base + i * per));
                                    }
                                    i += 8;
                                    continue;
                                }
                                // Changed line (the rare case): redo the
                                // per-lane xor to place the change bits.
                                for (l, word) in w.iter().enumerate() {
                                    let new = le64(s, l * 8);
                                    let xor = new ^ word.load(Ordering::Relaxed);
                                    if xor != 0 {
                                        word.store(new, Ordering::Relaxed);
                                        stamp.mark((pos >> 3) + (i + l) as u64);
                                    }
                                    for e in 0..per {
                                        let changed = (xor >> (e * ebits)) & emask != 0;
                                        st.mark(base + (i + l) * per + e, changed, runs);
                                    }
                                }
                                i += 8;
                            }
                            while i < span {
                                // Word-at-a-time walk over the sub-line
                                // tail: one silent word, or a run of
                                // changing words consumed without
                                // re-probing.
                                loop {
                                    let word = &words[i];
                                    let ed = &src[i * 8..(i + 1) * 8];
                                    let new = le64(ed, 0);
                                    let old = word.load(Ordering::Relaxed);
                                    if new == old {
                                        // Silent word: every element it
                                        // covers is unchanged.
                                        if let Some(start) = st.run_start.take() {
                                            runs.push((start, base + i * per));
                                        }
                                        i += 1;
                                        break;
                                    }
                                    word.store(new, Ordering::Relaxed);
                                    stamp.mark((pos >> 3) + i as u64);
                                    // Element change bits via xor/shift:
                                    // `elem_size` is a runtime value, so a
                                    // byte-slice compare would be a memcmp
                                    // call per word.
                                    let xor = new ^ old;
                                    for e in 0..per {
                                        let changed = (xor >> (e * ebits)) & emask != 0;
                                        st.mark(base + i * per + e, changed, runs);
                                    }
                                    i += 1;
                                    if i >= span {
                                        break;
                                    }
                                }
                            }
                        }
                        pos += (span * 8) as u64;
                        o += span * 8;
                        idx += span;
                        continue;
                    }
                    // Partial head or tail word: splice into the existing
                    // word bytes.
                    let word = &chunk[idx];
                    let off = (pos & 7) as usize;
                    let nb = ((8 - off) as u64).min(end - pos) as usize;
                    let old = word.load(Ordering::Relaxed);
                    let oldb = old.to_le_bytes();
                    let mut bytes = oldb;
                    bytes[off..off + nb].copy_from_slice(&data[o..o + nb]);
                    let new = u64::from_le_bytes(bytes);
                    if new != old {
                        word.store(new, Ordering::Relaxed);
                        stamp.mark(pos >> 3);
                    }
                    let cnt = nb / elem_size;
                    let base = o / elem_size;
                    if new == old && detect_change {
                        if let Some(start) = st.run_start.take() {
                            runs.push((start, base));
                        }
                    } else if !detect_change {
                        st.changed_elems += cnt;
                        if st.run_start.is_none() {
                            st.run_start = Some(base);
                        }
                    } else {
                        let xor = new ^ old;
                        let ebits = elem_size * 8;
                        let emask = if elem_size == 8 {
                            u64::MAX
                        } else {
                            (1u64 << ebits) - 1
                        };
                        for e in 0..cnt {
                            let s = off + e * elem_size;
                            let changed = (xor >> (s * 8)) & emask != 0;
                            st.mark(base + e, changed, runs);
                        }
                    }
                    pos += nb as u64;
                    o += nb;
                    idx += 1;
                }
            }
        } else {
            // Odd element sizes (3/12/16 bytes, ...) or an elem-unaligned
            // start: elements straddle word boundaries, so walk the words
            // once — one load/compare/store per word, like the fast path —
            // instead of a `write_words` call per element. A rolling
            // element cursor turns each word's xor into per-element change
            // bits even when one element spans several words. Trailing
            // bytes beyond the last whole element are left unwritten, as
            // before.
            let start = range.start().raw();
            let end = start + (n * elem_size) as u64;
            let mut pos = start;
            let mut o = 0usize;
            let mut k = 0usize;
            let mut elem_left = elem_size;
            let mut elem_changed = false;
            while pos < end {
                let (chunk, mut idx) = self.chunk_of(pos >> 3);
                while pos < end && idx < chunk.len() {
                    let word = &chunk[idx];
                    let off = (pos & 7) as usize;
                    let nb = ((8 - off) as u64).min(end - pos) as usize;
                    let old = word.load(Ordering::Relaxed);
                    let new = if nb == 8 {
                        u64::from_le_bytes(data[o..o + 8].try_into().expect("8 bytes"))
                    } else {
                        let mut bytes = old.to_le_bytes();
                        bytes[off..off + nb].copy_from_slice(&data[o..o + nb]);
                        u64::from_le_bytes(bytes)
                    };
                    let xor = new ^ old;
                    if xor != 0 {
                        word.store(new, Ordering::Relaxed);
                        stamp.mark(pos >> 3);
                    }
                    let mut b = 0usize;
                    while b < nb {
                        let take = elem_left.min(nb - b);
                        if xor != 0 {
                            let mask = if take >= 8 {
                                u64::MAX
                            } else {
                                ((1u64 << (take * 8)) - 1) << ((off + b) * 8)
                            };
                            if xor & mask != 0 {
                                elem_changed = true;
                            }
                        }
                        b += take;
                        elem_left -= take;
                        if elem_left == 0 {
                            st.mark(k, elem_changed || !detect_change, runs);
                            k += 1;
                            elem_left = elem_size;
                            elem_changed = false;
                        }
                    }
                    pos += nb as u64;
                    o += nb;
                    idx += 1;
                }
            }
        }
        if let Some(start) = st.run_start {
            runs.push((start, n));
        }
        st.changed_elems
    }

    /// Starts a view: bumps the view clock and returns the new value. A
    /// store whose in-lock clock load came before this bump stamps at most
    /// the returned value; every later one stamps more.
    pub(crate) fn begin_view(&self) -> u64 {
        debug_assert!(self.versioned, "a view needs a versioned arena");
        // Relaxed: the view takes each stripe lock after this bump in
        // program order, which is all the view rule needs of it.
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Copies stripes `first..=last` under one [`ShardedMem::lock_range`]
    /// acquisition, handing each one's bytes and version to `each`. The
    /// caller has bounds-checked an access inside the run, so every stripe
    /// lies in an allocated chunk; bytes past a partial last chunk read as
    /// zero.
    pub(crate) fn copy_stripes(
        &self,
        first: u64,
        last: u64,
        mut each: impl FnMut(u64, &[u8; STRIPE_BYTES], u64),
    ) {
        let span = (last - first + 1) << STRIPE_SHIFT;
        let _guards = self.lock_range(AddrRange::new(Addr::new(first << STRIPE_SHIFT), span));
        for stripe in first..=last {
            let mut bytes = [0u8; STRIPE_BYTES];
            for (out, word) in bytes.chunks_exact_mut(8).zip(self.stripe_words(stripe)) {
                out.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
            }
            each(stripe, &bytes, self.version_of(stripe));
        }
    }

    /// Whether every copied stripe in `lines` is still current in the bytes
    /// its view read: unchanged since clock value `start` by its version,
    /// or else still holding its copied bytes wherever the read set says.
    /// All their locks are held at once, so `true` means the bytes read
    /// are all current at one instant.
    pub(crate) fn stripes_current<'v>(
        &self,
        start: u64,
        lines: impl Iterator<Item = (u64, &'v Line)> + Clone,
    ) -> bool {
        let mut idxs: Vec<usize> = lines
            .clone()
            .map(|(stripe, _)| (stripe & self.mask) as usize)
            .collect();
        idxs.sort_unstable();
        idxs.dedup();
        let _guards: Vec<_> = idxs.into_iter().map(|i| self.locks[i].lock()).collect();
        lines.into_iter().all(|(stripe, line)| {
            if self.version_of(stripe) <= start {
                return true;
            }
            self.stripe_words(stripe)
                .iter()
                .enumerate()
                .all(|(w, word)| {
                    let live = word.load(Ordering::Relaxed).to_le_bytes();
                    let read = (line.read >> (8 * w)) as u8;
                    (0..8).all(|b| read & (1 << b) == 0 || live[b] == line.orig[8 * w + b])
                })
        })
    }

    /// The words of `stripe` (fewer at the end of a partial last chunk).
    fn stripe_words(&self, stripe: u64) -> &[AtomicU64] {
        let (chunk, idx) = self.chunk_of(stripe * STRIPE_WORDS as u64);
        &chunk[idx..chunk.len().min(idx + STRIPE_WORDS)]
    }

    /// The version of `stripe` (0 in an unversioned arena). The caller
    /// holds the stripe's lock.
    fn version_of(&self, stripe: u64) -> u64 {
        if self.versioned {
            self.version(stripe).load(Ordering::Relaxed)
        } else {
            0
        }
    }

    /// The version of `stripe`, read under its lock.
    #[cfg(test)]
    fn stripe_version(&self, stripe: u64) -> u64 {
        let _g = self.locks[(stripe & self.mask) as usize].lock();
        self.version_of(stripe)
    }

    /// Copies the arena into a [`TrackedHeap`] at teardown. Owning the
    /// arena means no store can race the copy, so it takes no lock.
    pub(crate) fn into_heap(self) -> TrackedHeap {
        let len = self.len.load(Ordering::Relaxed) as usize;
        let mut bytes = vec![0u8; len];
        for (i, chunk) in bytes.chunks_mut(8).enumerate() {
            let w = self.word(i as u64).load(Ordering::Relaxed).to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
        TrackedHeap::from_bytes(bytes, self.capacity)
    }

    /// The words of the chunk containing word `w`, and the index of `w`
    /// within them.
    #[inline]
    fn chunk_of(&self, w: u64) -> (&[AtomicU64], usize) {
        let ci = w >> CHUNK_WORDS_SHIFT;
        let chunk = self.chunks[ci as usize]
            .get()
            .expect("access to unallocated arena chunk");
        (
            &chunk[..self.chunk_words(ci)],
            (w & (CHUNK_WORDS - 1)) as usize,
        )
    }

    /// Reads `range` into `out`. Caller holds the stripe locks covering
    /// `range` (or has proven the range fits one word). The chunk lookup is
    /// hoisted out of the word loop and whole aligned words copy without
    /// byte splicing, so bulk reads run at memcpy-like speed.
    fn read_words(&self, range: AddrRange, out: &mut [u8]) {
        debug_assert_eq!(out.len() as u64, range.len());
        let mut pos = range.start().raw();
        let end = range.end().raw();
        let mut o = 0usize;
        while pos < end {
            let (chunk, mut idx) = self.chunk_of(pos >> 3);
            while pos < end && idx < chunk.len() {
                if pos & 7 == 0 && end - pos >= 8 {
                    out[o..o + 8]
                        .copy_from_slice(&chunk[idx].load(Ordering::Relaxed).to_le_bytes());
                    pos += 8;
                    o += 8;
                } else {
                    let off = (pos & 7) as usize;
                    let n = ((8 - off) as u64).min(end - pos) as usize;
                    let bytes = chunk[idx].load(Ordering::Relaxed).to_le_bytes();
                    out[o..o + n].copy_from_slice(&bytes[off..off + n]);
                    pos += n as u64;
                    o += n;
                }
                idx += 1;
            }
        }
    }

    /// Writes `data` at `range` word by word, returning whether any byte
    /// actually changed. Unchanged words are not stored, so the compare
    /// doubles as silent-store detection. Caller holds the stripe locks
    /// covering `range`.
    fn write_words(&self, range: AddrRange, data: &[u8]) -> bool {
        let mut changed = false;
        let mut stamp = self.stamp();
        let mut pos = range.start().raw();
        let end = range.end().raw();
        let mut o = 0usize;
        while pos < end {
            let (chunk, mut idx) = self.chunk_of(pos >> 3);
            while pos < end && idx < chunk.len() {
                let word = &chunk[idx];
                if pos & 7 == 0 && end - pos >= 8 {
                    let new = u64::from_le_bytes(data[o..o + 8].try_into().expect("8 bytes"));
                    if new != word.load(Ordering::Relaxed) {
                        changed = true;
                        word.store(new, Ordering::Relaxed);
                        stamp.mark(pos >> 3);
                    }
                    pos += 8;
                    o += 8;
                } else {
                    let off = (pos & 7) as usize;
                    let n = ((8 - off) as u64).min(end - pos) as usize;
                    let old = word.load(Ordering::Relaxed);
                    let mut bytes = old.to_le_bytes();
                    bytes[off..off + n].copy_from_slice(&data[o..o + n]);
                    let new = u64::from_le_bytes(bytes);
                    if new != old {
                        changed = true;
                        word.store(new, Ordering::Relaxed);
                        stamp.mark(pos >> 3);
                    }
                    pos += n as u64;
                    o += n;
                }
                idx += 1;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(shards: usize) -> ShardedMem {
        ShardedMem::new(4096, shards, false)
    }

    #[test]
    fn cpu_lists_count_their_cpus() {
        assert_eq!(cpus_in_list("0\n"), Some(1));
        assert_eq!(cpus_in_list("0-1\n"), Some(2));
        assert_eq!(cpus_in_list("0,2-3"), Some(3));
        for garbage in ["", "x", "0-", "3-1", "0,,1"] {
            assert_eq!(cpus_in_list(garbage), None, "{garbage:?}");
        }
        assert!(host_cpus() >= 1);
    }

    #[test]
    fn shard_count_is_normalized() {
        assert_eq!(ShardedMem::new(64, 0, false).shards(), 1);
        assert_eq!(ShardedMem::new(64, 1, false).shards(), 1);
        assert_eq!(ShardedMem::new(64, 3, false).shards(), 4);
        assert_eq!(ShardedMem::new(64, 8, false).shards(), 8);
    }

    #[test]
    fn alloc_matches_heap_semantics() {
        for shards in [1, 4] {
            let m = mem(shards);
            let a = m.alloc(3, 1).unwrap();
            let b = m.alloc(8, 8).unwrap();
            assert_eq!(a.raw(), 0);
            assert_eq!(b.raw() % 8, 0);
            assert!(b.raw() >= 3);
            // Mirror of TrackedHeap::alloc's padding-aware error report.
            let m2 = ShardedMem::new(16, shards, false);
            m2.alloc(3, 1).unwrap();
            match m2.alloc(16, 8).unwrap_err() {
                Error::ArenaExhausted {
                    requested,
                    available,
                } => {
                    assert_eq!(requested, 16);
                    assert_eq!(available, 8);
                }
                other => panic!("unexpected error {other:?}"),
            }
            assert!(m2.alloc(8, 8).is_ok());
            match m2.alloc(u64::MAX, 1).unwrap_err() {
                Error::ArenaExhausted { available, .. } => assert_eq!(available, 0),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn store_detects_change_and_silence() {
        for shards in [1, 2, 16] {
            let m = mem(shards);
            let a = m.alloc(4, 4).unwrap();
            let e1 = m.store(a, 7u32, true);
            assert!(e1.changed);
            assert_eq!(e1.bytes_compared, 4);
            assert!(!m.store(a, 7u32, true).changed);
            assert!(m.store(a, 8u32, true).changed);
            assert_eq!(m.load::<u32>(a), 8);
            let e = m.store(a, 8u32, false);
            assert!(e.changed);
            assert_eq!(e.bytes_compared, 0);
        }
    }

    #[test]
    fn unaligned_byte_ranges_round_trip() {
        let m = mem(4);
        let a = m.alloc(256, 1).unwrap();
        // A range that straddles word and stripe boundaries.
        let r = AddrRange::new(a.offset(61), 10);
        let data: Vec<u8> = (1..=10).collect();
        assert!(m.store_bytes(r, &data, true).changed);
        let mut out = Vec::new();
        m.load_into(r, &mut out);
        assert_eq!(out, data);
        // Neighbouring bytes are untouched.
        let mut whole = Vec::new();
        m.load_into(AddrRange::new(a, 256), &mut whole);
        assert_eq!(whole[60], 0);
        assert_eq!(whole[71], 0);
        assert_eq!(&whole[61..71], &data[..]);
    }

    #[test]
    fn sixteen_byte_values_cross_stripes() {
        let m = mem(4);
        let a = m.alloc(128, 1).unwrap();
        // Place a u128 at offset 56: bytes 56..72 straddle the stripe at 64.
        let addr = a.offset(56);
        let v = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        assert!(m.store(addr, v, true).changed);
        assert_eq!(m.load::<u128>(addr), v);
        assert!(!m.store(addr, v, true).changed);
    }

    #[test]
    fn empty_range_store_matches_heap() {
        let m = mem(2);
        let a = m.alloc(8, 8).unwrap();
        let r = AddrRange::new(a, 0);
        assert!(!m.store_bytes(r, &[], true).changed);
        assert!(m.store_bytes(r, &[], false).changed);
    }

    #[test]
    fn store_elems_reports_changed_runs() {
        let m = mem(4);
        let a = m.alloc(8 * 4, 8).unwrap();
        let range = AddrRange::new(a, 32);
        let enc = |vals: &[u64]| -> Vec<u8> { vals.iter().flat_map(|v| v.to_le_bytes()).collect() };
        let mut runs = Vec::new();
        let changed = m.store_elems(range, &enc(&[1, 2, 3, 4]), 8, true, &mut runs);
        assert_eq!(changed, 4);
        assert_eq!(runs, vec![(0, 4)]);
        // Change only elements 0 and 2..4.
        let changed = m.store_elems(range, &enc(&[9, 2, 8, 7]), 8, true, &mut runs);
        assert_eq!(changed, 3);
        assert_eq!(runs, vec![(0, 1), (2, 4)]);
        // All silent.
        let changed = m.store_elems(range, &enc(&[9, 2, 8, 7]), 8, true, &mut runs);
        assert_eq!(changed, 0);
        assert!(runs.is_empty());
        // Detection off: everything counts as changed.
        let changed = m.store_elems(range, &enc(&[9, 2, 8, 7]), 8, false, &mut runs);
        assert_eq!(changed, 4);
        assert_eq!(runs, vec![(0, 4)]);
    }

    #[test]
    fn teardown_copy_is_exact() {
        for versioned in [false, true] {
            let m = ShardedMem::new(4096, 4, versioned);
            let a = m.alloc(100, 1).unwrap();
            let data: Vec<u8> = (0..100).map(|i| (i * 7) as u8).collect();
            m.store_bytes(AddrRange::new(a, 100), &data, false);
            let heap = m.into_heap();
            assert_eq!(heap.len(), 100);
            assert_eq!(heap.capacity(), 4096);
            assert_eq!(heap.load_bytes(AddrRange::new(a, 100)), &data[..]);
        }
    }

    #[test]
    fn stores_stamp_only_the_stripes_they_change() {
        let m = ShardedMem::new(4096, 4, true);
        let a = m.alloc(256, 64).unwrap();
        let stripe = |k: u64| stripe_of(a.raw()) + k;
        let start = m.begin_view();
        // A bulk store over four stripes that changes only the third.
        let mut data = vec![0u8; 256];
        data[130] = 1;
        let mut runs = Vec::new();
        m.store_elems(AddrRange::new(a, 256), &data, 1, true, &mut runs);
        let versions: Vec<u64> = (0..4).map(|k| m.stripe_version(stripe(k))).collect();
        assert_eq!(versions, vec![0, 0, start + 1, 0]);
        // Silent stores, scalar and bulk, leave every version alone.
        m.store(a.offset(130), 1u8, true);
        m.store_bytes(AddrRange::new(a, 256), &data, true);
        assert_eq!(m.stripe_version(stripe(2)), start + 1);
        // A changing scalar and a changing byte-range store stamp the
        // clock as it reads now.
        let later = m.begin_view();
        m.store(a.offset(8), 5u64, true);
        m.store_bytes(AddrRange::new(a.offset(200), 2), &[9, 9], true);
        assert_eq!(m.stripe_version(stripe(0)), later + 1);
        assert_eq!(m.stripe_version(stripe(3)), later + 1);
        // An unversioned arena stamps nothing.
        let u = ShardedMem::new(4096, 4, false);
        let b = u.alloc(64, 64).unwrap();
        u.store(b, 1u64, true);
        assert_eq!(u.stripe_version(stripe_of(b.raw())), 0);
    }

    /// A writer stores program-ordered sequence numbers across many
    /// stripes while readers take views: every view's reads must form a
    /// downward-closed cut. Cell `k` holds the last sequence number `s`
    /// with `s % CELLS == k`, so a cut whose newest number is `top` must
    /// see every cell at exactly its last number up to `top`.
    #[test]
    fn views_read_downward_closed_cuts() {
        use crate::view::View;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;

        const CELLS: u64 = 64;
        let m = ShardedMem::new(1 << 16, 8, true);
        // One u64 per stripe, so every cell has its own version.
        let base = m.alloc(CELLS * 64, 64).unwrap();
        let cell = |k: u64| base.offset(k * 64);
        let done = AtomicBool::new(false);
        let mut cuts = 0u32;
        std::thread::scope(|s| {
            s.spawn(|| {
                for seq in 1..=200_000u64 {
                    m.store(cell(seq % CELLS), seq, true);
                }
                done.store(true, Ordering::Relaxed);
            });
            while !done.load(Ordering::Relaxed) {
                let mut view = View::start(&m);
                // Read the cells in a scattered order, so a cut is checked
                // across stripes the writer touches at different times.
                let read = catch_unwind(AssertUnwindSafe(|| {
                    (0..CELLS)
                        .map(|i| {
                            let k = (i * 37) % CELLS;
                            (k, view.load::<u64>(&m, cell(k)))
                        })
                        .collect::<Vec<_>>()
                }));
                let Ok(seen) = read else {
                    assert!(view.restarted(), "only a restart unwinds a view");
                    continue;
                };
                // A downward-closed cut of a program-ordered stream is a
                // prefix `1..=top`: cell `k` then holds the last number up
                // to `top` that lands on it (0 if none has yet).
                let top = seen.iter().map(|&(_, v)| v).max().unwrap();
                for &(k, v) in &seen {
                    let want = if top >= k { top - (top - k) % CELLS } else { 0 };
                    assert_eq!(v, want, "cell {k} in a cut that saw {top}");
                }
                cuts += 1;
            }
        });
        assert!(cuts > 0, "no view completed");
    }

    #[test]
    #[should_panic(expected = "store out of bounds")]
    fn out_of_bounds_store_panics() {
        let m = mem(1);
        m.store(Addr::new(0), 1u32, true);
    }

    #[test]
    fn concurrent_disjoint_stores_are_exact() {
        use std::sync::Arc;
        let m = Arc::new(ShardedMem::new(1 << 20, 8, false));
        let a = m.alloc(8 * 1024, 8).unwrap();
        let threads = 4;
        let per = 1024 / threads;
        std::thread::scope(|s| {
            for t in 0..threads {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in t * per..(t + 1) * per {
                        let addr = a.offset((i * 8) as u64);
                        for round in 0..16u64 {
                            m.store(addr, (i as u64) << 8 | round, true);
                        }
                    }
                });
            }
        });
        for i in 0..1024 {
            assert_eq!(
                m.load::<u64>(a.offset((i * 8) as u64)),
                (i as u64) << 8 | 15
            );
        }
    }

    #[test]
    fn concurrent_same_stripe_byte_stores_do_not_lose_updates() {
        use std::sync::Arc;
        // Every thread writes its own byte inside ONE word; the stripe lock
        // must make the read-modify-writes exclusive.
        let m = Arc::new(ShardedMem::new(64, 4, false));
        let a = m.alloc(8, 8).unwrap();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let r = AddrRange::new(a.offset(t as u64), 1);
                    m.store_bytes(r, &[(t + 1) as u8], true);
                });
            }
        });
        for t in 0..8usize {
            let mut out = Vec::new();
            m.load_into(AddrRange::new(a.offset(t as u64), 1), &mut out);
            assert_eq!(out, vec![(t + 1) as u8]);
        }
    }

    /// Runs one `store_elems` against a prepared versioned arena and
    /// returns `(changed_elems, runs, final bytes)`, after checking that it
    /// stamped exactly the stripes whose bytes it changed.
    fn run_store_elems(
        initial: &[u8],
        start: u64,
        data: &[u8],
        elem_size: usize,
        detect: bool,
    ) -> (usize, Vec<(usize, usize)>, Vec<u8>) {
        let m = ShardedMem::new(1 << 16, 4, true);
        let base = m.alloc(initial.len() as u64, 1).unwrap();
        let whole = AddrRange::new(base, initial.len() as u64);
        m.store_bytes(whole, initial, false);
        let stamp = m.begin_view() + 1;
        let range = AddrRange::new(base.offset(start), data.len() as u64);
        let mut runs = Vec::new();
        let changed = m.store_elems(range, data, elem_size, detect, &mut runs);
        let mut out = Vec::new();
        m.load_into(whole, &mut out);
        let stripes = stripe_of(base.raw())..=stripe_of(whole.end().raw() - 1);
        let stamped: Vec<u64> = stripes
            .clone()
            .filter(|&s| m.stripe_version(s) == stamp)
            .collect();
        let moved: Vec<u64> = stripes
            .filter(|&s| {
                (0..initial.len())
                    .any(|i| stripe_of(base.raw() + i as u64) == s && out[i] != initial[i])
            })
            .collect();
        assert_eq!(stamped, moved, "stamped stripes differ from changed ones");
        (changed, runs, out)
    }

    #[test]
    fn odd_elem_sizes_and_unaligned_starts_report_exact_runs() {
        // The seed's fallback issued one `write_words` call per element;
        // the batched word walk must report the same per-element runs.
        // 3-byte elements starting at an odd offset: element 2 straddles a
        // word boundary.
        let initial = vec![0u8; 256];
        let mut data = vec![0u8; 7 * 3];
        data[3 * 2 + 1] = 0xaa; // element 2
        data[3 * 5] = 0xbb; // element 5
        let (changed, runs, out) = run_store_elems(&initial, 1, &data, 3, true);
        assert_eq!(changed, 2);
        assert_eq!(runs, vec![(2, 3), (5, 6)]);
        assert_eq!(&out[1..1 + data.len()], &data[..]);
        // A second identical store is fully silent.
        let m = ShardedMem::new(1 << 16, 4, false);
        let b = m.alloc(256, 1).unwrap();
        let r = AddrRange::new(b.offset(1), data.len() as u64);
        let mut runs = Vec::new();
        m.store_elems(r, &data, 3, true, &mut runs);
        assert_eq!(m.store_elems(r, &data, 3, true, &mut runs), 0);
        assert!(runs.is_empty());
        // 12- and 16-byte elements (multi-word elements).
        for (esize, nelem) in [(12usize, 5usize), (16, 4)] {
            let mut data = vec![0u8; esize * nelem];
            data[esize + 7] = 1; // element 1, second word
            data[esize * (nelem - 1)] = 2; // last element
            let (changed, runs, out) = run_store_elems(&[0u8; 256], 4, &data, esize, true);
            assert_eq!(changed, 2, "esize {esize}");
            assert_eq!(runs, vec![(1, 2), (nelem - 1, nelem)]);
            assert_eq!(&out[4..4 + data.len()], &data[..]);
        }
        // detect=false marks everything changed but still writes exactly.
        let (changed, runs, _) = run_store_elems(&[1u8; 64], 1, &[1u8; 9], 3, false);
        assert_eq!(changed, 3);
        assert_eq!(runs, vec![(0, 3)]);
    }

    #[test]
    fn fallback_ignores_partial_tail_element() {
        // 11 bytes of 3-byte elements: the trailing 2 bytes belong to no
        // whole element and must not be written (seed behaviour).
        let (changed, runs, out) = run_store_elems(&[0u8; 64], 0, &[9u8; 11], 3, true);
        assert_eq!(changed, 3);
        assert_eq!(runs, vec![(0, 3)]);
        assert_eq!(&out[..9], &[9u8; 9]);
        assert_eq!(&out[9..11], &[0, 0], "partial tail element was written");
    }

    mod naive_reference_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// The specification `store_elems` implements, one element at a
        /// time: an element is changed iff its bytes differ from memory (or
        /// detection is off), changed elements are written, and maximal
        /// runs of consecutive changed elements are reported.
        fn naive_store_elems(
            initial: &[u8],
            start: usize,
            data: &[u8],
            elem_size: usize,
            detect: bool,
        ) -> (usize, Vec<(usize, usize)>, Vec<u8>) {
            let mut mem = initial.to_vec();
            let mut changed = 0;
            let mut runs: Vec<(usize, usize)> = Vec::new();
            for (k, elem) in data.chunks_exact(elem_size).enumerate() {
                let dst = &mut mem[start + k * elem_size..start + (k + 1) * elem_size];
                if detect && dst == elem {
                    continue;
                }
                dst.copy_from_slice(elem);
                changed += 1;
                match runs.last_mut() {
                    Some(run) if run.1 == k => run.1 = k + 1,
                    _ => runs.push((k, k + 1)),
                }
            }
            (changed, runs, mem)
        }

        proptest! {
            /// The lane loop, its word-walk tail and the odd-size fallback
            /// are observationally identical to the per-element byte
            /// compare: same changed-element count, same `runs` vector,
            /// same final memory, across elem sizes, alignments and silent
            /// fractions.
            #[test]
            fn store_elems_matches_naive_reference(
                elem_size in (0usize..8).prop_map(|i| [1usize, 2, 3, 4, 5, 8, 12, 16][i]),
                nelem in 1usize..400,
                start in 0u64..24,
                detect in any::<bool>(),
                seed in any::<u64>(),
                silent_num in 0u64..=16,
            ) {
                let len = elem_size * nelem;
                let arena = (start as usize + len + 16).max(64);
                // Deterministic xorshift data; `silent_num/16` of the
                // elements rewrite the initial contents unchanged.
                let mut x = seed | 1;
                let mut step = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let initial: Vec<u8> = (0..arena).map(|_| step() as u8).collect();
                let mut data = vec![0u8; len];
                for k in 0..nelem {
                    let silent = step() % 16 < silent_num;
                    for b in 0..elem_size {
                        let i = k * elem_size + b;
                        data[i] = if silent {
                            initial[start as usize + i]
                        } else {
                            step() as u8
                        };
                    }
                }
                let naive = naive_store_elems(&initial, start as usize, &data, elem_size, detect);
                let real = run_store_elems(&initial, start, &data, elem_size, detect);
                prop_assert_eq!(naive.0, real.0, "changed-element counts diverge");
                prop_assert_eq!(&naive.1, &real.1, "run vectors diverge");
                prop_assert_eq!(&naive.2, &real.2, "final bytes diverge");
            }

            /// The typed scalar path — the lockless word probe, the lane
            /// splice under the stripe lock and the straddling fallback —
            /// is observationally identical to [`TrackedHeap`]'s byte-array
            /// compare: same loaded values, same [`StoreEffect`] per store,
            /// same final memory, for every type, at aligned, word-straddling
            /// and stripe-straddling addresses, with detection on and off.
            #[test]
            fn scalar_ops_match_heap_reference(
                shards in (0usize..3).prop_map(|i| [1usize, 4, 16][i]),
                nops in 1usize..300,
                detect in any::<bool>(),
                seed in any::<u64>(),
            ) {
                let mut x = seed | 1;
                let mut step = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let m = ShardedMem::new(1 << 16, shards, false);
                let mut h = TrackedHeap::with_capacity(1 << 16);
                let base = m.alloc(ARENA, 1).unwrap();
                prop_assert_eq!(h.alloc(ARENA, 1).unwrap(), base);
                let whole = AddrRange::new(base, ARENA);
                let initial: Vec<u8> = (0..ARENA).map(|_| step() as u8).collect();
                m.store_bytes(whole, &initial, false);
                h.store_bytes(whole, &initial, false);
                // Address of the previous op: a one-byte store right after
                // it lands beside a byte that op may just have changed.
                let mut last = 0u64;
                for _ in 0..nops {
                    let (ty, place, kind) = (step() % 8, step() % 5, step() % 4);
                    let value = (u128::from(step()) << 64 | u128::from(step())).to_le_bytes();
                    let size = [1u64, 2, 4, 8, 16, 8, 8, 1][ty as usize];
                    // `k` bytes of the value sit before a boundary.
                    let k = 1 + step() % (size - 1).max(1);
                    let off = match place {
                        0 => step() % (ARENA / size) * size,
                        1 if size > 1 => 8 * (2 + step() % (ARENA / 8 - 4)) - k,
                        2 if size > 1 => 64 * (1 + step() % (ARENA / 64 - 1)) - k,
                        3 => (last + 1).min(ARENA - size),
                        _ => step() % (ARENA - size + 1),
                    };
                    last = off;
                    let addr = base.offset(off);
                    match ty {
                        0 => scalar_op::<u8>(&m, &mut h, addr, kind, &value, detect),
                        1 => scalar_op::<u16>(&m, &mut h, addr, kind, &value, detect),
                        2 => scalar_op::<u32>(&m, &mut h, addr, kind, &value, detect),
                        3 => scalar_op::<u64>(&m, &mut h, addr, kind, &value, detect),
                        4 => scalar_op::<u128>(&m, &mut h, addr, kind, &value, detect),
                        5 => scalar_op::<i64>(&m, &mut h, addr, kind, &value, detect),
                        6 => scalar_op::<f64>(&m, &mut h, addr, kind, &value, detect),
                        _ => scalar_op::<bool>(&m, &mut h, addr, kind, &value, detect),
                    }
                }
                let mut out = Vec::new();
                m.load_into(whole, &mut out);
                prop_assert_eq!(&out[..], h.load_bytes(whole), "final bytes diverge");
            }
        }

        /// Bytes under test in `scalar_ops_match_heap_reference`: four
        /// stripes, small enough that ops keep landing on each other.
        const ARENA: u64 = 256;

        /// The canonical encoding, so values compare bytewise (`f64` NaNs).
        fn enc<T: Pod>(v: T) -> Vec<u8> {
            let mut bytes = vec![0u8; T::SIZE];
            v.write_le(&mut bytes);
            bytes
        }

        /// One typed op against both arenas: a load (`kind` 0), a store of
        /// the value already there (1, silent) or a store of `value`.
        fn scalar_op<T: Pod>(
            m: &ShardedMem,
            h: &mut TrackedHeap,
            addr: Addr,
            kind: u64,
            value: &[u8; 16],
            detect: bool,
        ) {
            let current: T = h.load(addr);
            let v = match kind {
                0 => {
                    assert_eq!(enc(m.load::<T>(addr)), enc(current), "load at {addr}");
                    return;
                }
                1 => current,
                _ => T::read_le(&value[..T::SIZE]),
            };
            assert_eq!(
                m.store(addr, v, detect),
                h.store(addr, v, detect),
                "store effect at {addr}"
            );
        }
    }
}
