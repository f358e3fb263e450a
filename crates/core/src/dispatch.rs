//! Lock-free trigger dispatch: the atomic tthread status machine, the
//! sharded pending queue, and the worker eventcount.
//!
//! The HPCA'11 hardware updates its thread status table with single-cycle
//! state transitions; the software runtime originally serialized every one
//! of them — trigger raise, enqueue, dequeue, join-steal, status read — on
//! the global state lock. This module is the software analogue of the
//! hardware TST entry: one packed atomic **status word** per tthread,
//! advanced by compare-and-swap, so the trigger→enqueue→dispatch fast path
//! never touches the state lock.
//!
//! # Status-word layout
//!
//! ```text
//!  63                                    4   3    2   1 0
//! +----------------------------------------+----+----+-----+
//! |                token                   | CJ | RF |state|
//! +----------------------------------------+----+----+-----+
//! ```
//!
//! * **state** (2 bits): [`TthreadStatus`] — Clean / Triggered / Queued /
//!   Running.
//! * **RF** (retrigger flag): a trigger landed while the tthread was
//!   Running (or, with coalescing off, while Queued): the current or next
//!   execution must run again, because it may have read pre-change data.
//! * **CJ** (completed-since-join): an execution committed off the main
//!   thread since the last join — lets the join report `Overlapped`
//!   instead of `Skipped`.
//! * **token** (60 bits): bumped on every *state-changing* transition. A
//!   queue entry carries the token observed when its tthread went Queued;
//!   a worker claims the entry with a CAS conditioned on that exact token,
//!   so an entry whose tthread was stolen by a join (or force) in the
//!   meantime fails validation and is lazily discarded — stale entries
//!   need no queue scan at steal time. The token also prevents ABA on
//!   every other transition.
//!
//! # The absorb rule (why coalescing is an RMW, not a load)
//!
//! A trigger that finds its tthread already Triggered or Queued is
//! *absorbed* — but it must still perform a **successful RMW on the status
//! word** (a value-preserving `compare_exchange(cur, cur)`), never a plain
//! load. The claimer's claim-CAS reads-from the absorbing RMW through the
//! word's modification order, which establishes the happens-before edge
//! from the raiser's (already published) store to the claimed body's
//! loads. A load-only absorb has no such edge: the body could read
//! pre-store data while the trigger was absorbed — a lost update.
//!
//! # Lock order
//!
//! The pending-queue shard mutexes and the eventcount mutex are leaf
//! locks: they may be acquired while holding the state lock (commit-path
//! cascades enqueue under it) but never the other way around, and nothing
//! else is ever acquired under them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::tthread::TthreadStatus;

const STATE_MASK: u64 = 0b11;
const RF: u64 = 1 << 2;
const CJ: u64 = 1 << 3;
const TOKEN_SHIFT: u32 = 4;
const TOKEN_ONE: u64 = 1 << TOKEN_SHIFT;

/// How long a worker's timed park lasts: long enough to be irrelevant for
/// throughput, short enough that an injected lost wakeup
/// ([`crate::fault::FaultPoint::WakeDrop`]) delays a dispatch instead of
/// wedging the runtime.
pub const PARK_TIMEOUT: Duration = Duration::from_millis(50);

#[inline]
fn state_of(word: u64) -> TthreadStatus {
    match word & STATE_MASK {
        0 => TthreadStatus::Clean,
        1 => TthreadStatus::Triggered,
        2 => TthreadStatus::Queued,
        _ => TthreadStatus::Running,
    }
}

#[inline]
fn state_bits(status: TthreadStatus) -> u64 {
    match status {
        TthreadStatus::Clean => 0,
        TthreadStatus::Triggered => 1,
        TthreadStatus::Queued => 2,
        TthreadStatus::Running => 3,
    }
}

#[inline]
fn token_of(word: u64) -> u64 {
    word >> TOKEN_SHIFT
}

/// A state-changing transition: new state, flags optionally cleared,
/// token bumped.
#[inline]
fn advance(word: u64, to: TthreadStatus, clear_rf: bool, clear_cj: bool) -> u64 {
    let mut w = (word & !STATE_MASK) | state_bits(to);
    if clear_rf {
        w &= !RF;
    }
    if clear_cj {
        w &= !CJ;
    }
    w.wrapping_add(TOKEN_ONE)
}

/// Outcome of one trigger raise against the status word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RaiseStep {
    /// The trigger merged with pending/running work (includes the
    /// deferred-executor Clean→Triggered transition, which needs no queue).
    Absorbed,
    /// Clean→Triggered (deferred executor): nothing to enqueue.
    Deferred,
    /// Clean→Queued: the caller must push `(id, token)` onto the pending
    /// queue (and fall back to its overflow policy if that fails).
    Enqueue(u64),
}

/// One tthread's live dispatch state: the packed status word plus the
/// per-tthread trigger tally (bumped lock-free on every raise).
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Slot {
    word: AtomicU64,
    pub(crate) triggers: AtomicU64,
}

impl Slot {
    #[inline]
    fn load(&self) -> u64 {
        self.word.load(Ordering::Acquire)
    }

    #[inline]
    fn cas(&self, cur: u64, new: u64) -> bool {
        self.word
            .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Unconditional read-modify-write; retries until it lands.
    #[inline]
    fn rmw(&self, f: impl Fn(u64) -> u64) -> u64 {
        self.word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| Some(f(w)))
            .expect("fetch_update with Some never fails")
    }

    /// Current status.
    pub(crate) fn status(&self) -> TthreadStatus {
        state_of(self.load())
    }

    /// The raw status word. Because the token bumps on every state-changing
    /// transition, the word doubles as a **generation counter**: a joiner
    /// records it before parking and a changed word proves the tthread
    /// moved (completed, re-triggered, was stolen, ...) since the
    /// observation — the per-tthread completion sequence the lock-free
    /// join parks on.
    pub(crate) fn word(&self) -> u64 {
        self.load()
    }

    /// Whether an off-main-thread execution completed since the last join.
    #[cfg(test)]
    pub(crate) fn completed_since_join(&self) -> bool {
        self.load() & CJ != 0
    }

    /// Advance the status machine for one trigger. `mark_rerun_if_queued`
    /// implements the no-coalescing semantics: a duplicate trigger of a
    /// queued tthread sets RF so the claimed execution runs again, instead
    /// of occupying a second queue slot.
    pub(crate) fn raise(&self, deferred: bool, mark_rerun_if_queued: bool) -> RaiseStep {
        loop {
            let cur = self.load();
            match state_of(cur) {
                TthreadStatus::Running => {
                    if self.cas(cur, cur | RF) {
                        return RaiseStep::Absorbed;
                    }
                }
                TthreadStatus::Triggered => {
                    // Value-preserving RMW: see the module-level absorb rule.
                    if self.cas(cur, cur) {
                        return RaiseStep::Absorbed;
                    }
                }
                TthreadStatus::Queued => {
                    let new = if mark_rerun_if_queued { cur | RF } else { cur };
                    if self.cas(cur, new) {
                        return RaiseStep::Absorbed;
                    }
                }
                TthreadStatus::Clean => {
                    let target = if deferred {
                        TthreadStatus::Triggered
                    } else {
                        TthreadStatus::Queued
                    };
                    let new = advance(cur, target, false, false);
                    if self.cas(cur, new) {
                        return if deferred {
                            RaiseStep::Deferred
                        } else {
                            RaiseStep::Enqueue(token_of(new))
                        };
                    }
                }
            }
        }
    }

    /// Worker-side claim of a popped queue entry: Queued→Running iff the
    /// token still matches — a join/force stole the tthread otherwise and
    /// the entry is stale. RF is preserved (it is the no-coalescing rerun
    /// marker; with coalescing on it is never set while Queued).
    pub(crate) fn try_claim_queued(&self, token: u64) -> bool {
        loop {
            let cur = self.load();
            if state_of(cur) != TthreadStatus::Queued || token_of(cur) != token {
                return false;
            }
            if self.cas(cur, advance(cur, TthreadStatus::Running, false, false)) {
                return true;
            }
        }
    }

    /// Claim into Running iff currently in `from` (join steal, overflow
    /// fallback, force). `clear_rf` absorbs a pending rerun marker into
    /// the claimed execution.
    pub(crate) fn try_claim_from(&self, from: TthreadStatus, clear_rf: bool) -> bool {
        loop {
            let cur = self.load();
            if state_of(cur) != from {
                return false;
            }
            if self.cas(cur, advance(cur, TthreadStatus::Running, clear_rf, false)) {
                return true;
            }
        }
    }

    /// Overflow `DeferToJoin`: Queued→Triggered iff the token still
    /// matches (the tthread was not stolen since the failed push).
    pub(crate) fn try_defer_queued(&self, token: u64) -> bool {
        loop {
            let cur = self.load();
            if state_of(cur) != TthreadStatus::Queued || token_of(cur) != token {
                return false;
            }
            if self.cas(cur, advance(cur, TthreadStatus::Triggered, false, false)) {
                return true;
            }
        }
    }

    /// Completion attempt: Running→Clean, publishing the execution.
    /// Returns `false` — with the word left untouched, still Running — if
    /// RF was set by a concurrent trigger: the caller decides between
    /// another body run ([`Slot::absorb_rf`]) and giving up
    /// ([`Slot::complete_to_triggered`]).
    ///
    /// `completed_since_join` sets (`Some(true)`), clears (`Some(false)`)
    /// or preserves (`None`) the CJ flag. Worker completions pass
    /// `Some(true)`; inline runs at a join/force pass `None` so an
    /// overflow-inline execution between a worker's commit and its join
    /// cannot destroy a pending `Overlapped` report.
    pub(crate) fn try_complete(&self, completed_since_join: Option<bool>) -> bool {
        loop {
            let cur = self.load();
            if cur & RF != 0 {
                return false;
            }
            let mut new = advance(
                cur,
                TthreadStatus::Clean,
                false,
                completed_since_join.is_some(),
            );
            if completed_since_join == Some(true) {
                new |= CJ;
            }
            if self.cas(cur, new) {
                return true;
            }
        }
    }

    /// Absorb the retrigger flag into a fresh body run (stays Running).
    pub(crate) fn absorb_rf(&self) {
        self.rmw(|w| advance(w, TthreadStatus::Running, true, false));
    }

    /// Retry-cap exhaustion: Running→Triggered, deferring the rerun to the
    /// next join.
    pub(crate) fn complete_to_triggered(&self) {
        self.rmw(|w| advance(w, TthreadStatus::Triggered, true, true));
    }

    /// Unconditional reset to Clean with both flags cleared (poison,
    /// timeout: the execution published nothing).
    pub(crate) fn force_clean(&self) {
        self.rmw(|w| advance(w, TthreadStatus::Clean, true, true));
    }

    /// Injected retrigger ([`crate::fault::FaultPoint::Retrigger`]): set
    /// RF iff still Running.
    pub(crate) fn set_rf_if_running(&self) {
        loop {
            let cur = self.load();
            if state_of(cur) != TthreadStatus::Running || self.cas(cur, cur | RF) {
                return;
            }
        }
    }

    /// Consume the completed-since-join flag if (still) Clean; `None`
    /// means the state moved under the caller, who should re-examine it.
    pub(crate) fn take_completed_if_clean(&self) -> Option<bool> {
        loop {
            let cur = self.load();
            if state_of(cur) != TthreadStatus::Clean {
                return None;
            }
            if self.cas(cur, cur & !CJ) {
                return Some(cur & CJ != 0);
            }
        }
    }

    /// Clears the completed-since-join flag regardless of state (join and
    /// force clear it after an inline run).
    pub(crate) fn clear_completed(&self) {
        self.rmw(|w| w & !CJ);
    }
}

/// Chunked, growable slot table. Chunks are allocated on demand behind
/// `OnceLock`s so `register` (which grows the table) never invalidates
/// references concurrently held by workers — the table itself is
/// lock-free to read.
#[derive(Debug)]
pub(crate) struct SlotTable {
    chunks: Box<[OnceLock<Box<[Slot]>>]>,
}

const CHUNK: usize = 64;
const MAX_CHUNKS: usize = 1024;

impl SlotTable {
    pub(crate) fn new() -> Self {
        SlotTable {
            chunks: (0..MAX_CHUNKS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Ensures the chunk covering `index` exists (called at registration).
    ///
    /// # Panics
    ///
    /// Panics past `CHUNK * MAX_CHUNKS` tthreads.
    pub(crate) fn ensure(&self, index: usize) {
        let chunk = index / CHUNK;
        assert!(chunk < MAX_CHUNKS, "too many tthreads");
        self.chunks[chunk].get_or_init(|| (0..CHUNK).map(|_| Slot::default()).collect());
    }

    /// The slot for tthread `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index was never registered via [`SlotTable::ensure`].
    pub(crate) fn slot(&self, index: usize) -> &Slot {
        let chunk = self.chunks[index / CHUNK]
            .get()
            .expect("slot accessed before registration");
        &chunk[index % CHUNK]
    }
}

/// Whether a [`ShardedQueue::push`] landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PendingPush {
    /// The entry was enqueued.
    Pushed,
    /// The queue was at capacity; the caller applies its overflow policy.
    Full,
}

/// One pending-queue shard: `(tthread index, token)` entries in FIFO
/// order, plus a mirror of the deque length maintained under the shard
/// lock so the steal scan and the pop fast path can read occupancy
/// without taking any lock.
#[derive(Debug, Default)]
struct PendingShard {
    entries: Mutex<VecDeque<(u32, u64)>>,
    occupancy: AtomicUsize,
}

/// The sharded MPMC pending queue: entries are `(tthread index, token)`
/// pairs, sharded by tthread index. Capacity is enforced globally with
/// an atomic length, so the overflow policy sees one bound however the
/// entries spread over the shards.
///
/// # Shard ownership and stealing
///
/// With `W` workers over `S` shards, worker `w` *owns* shards
/// `{s : s mod W == w}` — every shard has exactly one owner, so no entry
/// can be stranded on a shard nobody drains. [`ShardedQueue::pop_local`]
/// pops only owned shards; an idle worker then calls
/// [`ShardedQueue::steal_into`] to migrate a batch from the fullest
/// foreign shard before parking. Cross-shard migration cannot reorder one
/// tthread's executions: the status machine admits at most one live queue
/// entry per tthread (duplicate triggers absorb into RF), and any stale
/// duplicate fails its token validation at claim time — FIFO-per-tthread
/// rests on the ABA tokens, not on queue position.
#[derive(Debug)]
pub(crate) struct ShardedQueue {
    shards: Box<[PendingShard]>,
    mask: usize,
    len: AtomicUsize,
    capacity: usize,
    high: AtomicUsize,
}

impl ShardedQueue {
    /// Creates a queue of `capacity` entries over `shards` shards
    /// (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be nonzero");
        let n = shards.max(1).next_power_of_two();
        ShardedQueue {
            shards: (0..n).map(|_| PendingShard::default()).collect(),
            mask: n - 1,
            len: AtomicUsize::new(0),
            capacity,
            high: AtomicUsize::new(0),
        }
    }

    /// Attempts to enqueue `(id, token)`. Coalescing happens in the status
    /// word before this is called, so every push is a distinct pending
    /// execution.
    pub(crate) fn push(&self, id: u32, token: u64) -> PendingPush {
        // Reserve a slot first so capacity is exact under concurrency.
        if self
            .len
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.capacity).then(|| n + 1)
            })
            .is_err()
        {
            return PendingPush::Full;
        }
        let occupied = {
            let shard = &self.shards[id as usize & self.mask];
            let mut entries = shard.entries.lock();
            entries.push_back((id, token));
            shard.occupancy.store(entries.len(), Ordering::Release);
            self.len.load(Ordering::SeqCst)
        };
        self.high.fetch_max(occupied, Ordering::Relaxed);
        PendingPush::Pushed
    }

    /// Pops one entry from shard `s` if it has one.
    fn pop_shard(&self, s: usize) -> Option<(u32, u64)> {
        if self.shards[s].occupancy.load(Ordering::Acquire) == 0 {
            return None;
        }
        let shard = &self.shards[s];
        let mut entries = shard.entries.lock();
        let entry = entries.pop_front()?;
        shard.occupancy.store(entries.len(), Ordering::Release);
        self.len.fetch_sub(1, Ordering::SeqCst);
        Some(entry)
    }

    /// Pops one entry, scanning every shard round-robin from `start` so
    /// callers with different indices drain different shards first. This
    /// is the ownership-blind scan used by the backpressure assist and the
    /// single-consumer paths; workers use [`ShardedQueue::pop_local`].
    pub(crate) fn pop(&self, start: usize) -> Option<(u32, u64)> {
        if self.is_empty() {
            return None;
        }
        for k in 0..self.shards.len() {
            if let Some(entry) = self.pop_shard((start + k) & self.mask) {
                return Some(entry);
            }
        }
        None
    }

    /// Pops one entry from worker `worker`'s own shards (`s mod workers ==
    /// worker`), scanning them round-robin.
    pub(crate) fn pop_local(&self, worker: usize, workers: usize) -> Option<(u32, u64)> {
        let workers = workers.max(1);
        let mut s = worker % workers;
        while s < self.shards.len() {
            if let Some(entry) = self.pop_shard(s) {
                return Some(entry);
            }
            s += workers;
        }
        None
    }

    /// Steals a batch from the fullest *foreign* shard into worker
    /// `worker`'s first own shard: drains half the victim (rounded up),
    /// returns the first stolen entry for immediate execution and the
    /// total number migrated. The two shard locks are never held
    /// simultaneously (drain to a local buffer, release the victim, then
    /// lock the destination), so concurrent stealers cannot deadlock.
    /// Global `len` is untouched except for the returned entry, which is
    /// popped.
    pub(crate) fn steal_into(&self, worker: usize, workers: usize) -> Option<((u32, u64), usize)> {
        let workers = workers.max(1);
        // Pick the fullest shard owned by someone else (relaxed scan; a
        // stale read only costs a wasted lock or a missed victim, and the
        // timed park bounds the miss).
        let mut victim = None;
        let mut best = 0;
        for (s, shard) in self.shards.iter().enumerate() {
            if s % workers == worker % workers {
                continue;
            }
            let occ = shard.occupancy.load(Ordering::Acquire);
            if occ > best {
                best = occ;
                victim = Some(s);
            }
        }
        let victim = victim?;
        let mut batch = {
            let shard = &self.shards[victim];
            let mut entries = shard.entries.lock();
            let take = entries.len().div_ceil(2);
            let batch: Vec<(u32, u64)> = entries.drain(..take).collect();
            shard.occupancy.store(entries.len(), Ordering::Release);
            batch
        };
        if batch.is_empty() {
            return None;
        }
        let first = batch.remove(0);
        self.len.fetch_sub(1, Ordering::SeqCst);
        let moved = 1 + batch.len();
        if !batch.is_empty() {
            let dest = &self.shards[worker % workers];
            let mut entries = dest.entries.lock();
            entries.extend(batch);
            dest.occupancy.store(entries.len(), Ordering::Release);
        }
        Some((first, moved))
    }

    /// Entries currently queued (including not-yet-skipped stale ones).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Counts the entries physically present in the shards, under their
    /// locks. At any quiescent point this must equal [`ShardedQueue::len`]
    /// — the consistency check the proptest suite asserts to rule out
    /// double-decrements on the stale-skip and overflow paths.
    pub(crate) fn physical_len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.lock().len()).sum()
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The highest occupancy ever reached.
    pub(crate) fn high_watermark(&self) -> usize {
        self.high.load(Ordering::Relaxed)
    }
}

/// How one [`Waiters::park`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkOutcome {
    /// The caller never slept: work was already available, a wake raced
    /// in between the epoch read and the sleep commit, or the eventcount
    /// is closed.
    Skipped,
    /// Slept and was woken by a notification before the timeout.
    Woken,
    /// Slept until the timeout elapsed — the dropped-wake rescue path.
    TimedOut,
}

/// The worker eventcount: producers bump an epoch and wake at most one
/// parked worker per enqueued unit; consumers validate the epoch under the
/// mutex before sleeping, so a wake between "queue looked empty" and
/// "committed to sleep" is never lost. Parks are *timed*
/// ([`PARK_TIMEOUT`]) as a belt-and-braces bound: an injected lost wakeup
/// ([`crate::fault::FaultPoint::WakeDrop`]) delays a dispatch by at most
/// one park period. [`Waiters::close`] latches the eventcount shut for
/// shutdown: every parked waiter is broadcast awake and later park
/// attempts return immediately, so quiesce never rides out a park period.
#[derive(Debug, Default)]
pub(crate) struct Waiters {
    epoch: AtomicU64,
    sleepers: AtomicUsize,
    closed: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Waiters {
    /// Wakes at most one parked worker. Returns whether a notification was
    /// actually sent (no sleeper → no syscall, no wake).
    pub(crate) fn wake_one(&self) -> bool {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let _g = self.lock.lock();
        self.cv.notify_one();
        true
    }

    /// Wakes every parked waiter; like [`Waiters::wake_one`], no sleeper
    /// means no lock and no syscall. Skipping is safe by the same
    /// announce-then-validate argument: the epoch bump (SeqCst) precedes
    /// the sleeper read here, and a parker increments the sleeper count
    /// before re-reading the epoch. A parker this call does not count
    /// therefore either re-reads a moved epoch and abandons its sleep, or
    /// took its first epoch read after the bump — and then its predicate
    /// already sees whatever the caller changed before waking.
    pub(crate) fn wake_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _g = self.lock.lock();
        self.cv.notify_all();
    }

    /// Latches the eventcount shut (idempotent) and broadcasts to every
    /// parked waiter: the dedicated shutdown wake. A closed eventcount
    /// refuses all future parks, so a worker that re-checks the shutdown
    /// flag after a failed park can never sleep through quiesce.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Whether [`Waiters::close`] has been called.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// How many callers are currently committed to sleep. A point-in-time
    /// read, for tests that need to observe a parked waiter from outside.
    #[cfg(test)]
    pub(crate) fn sleeping(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
    }

    /// Parks the caller until woken, the timeout elapses, or
    /// `work_available` turns true. The outcome distinguishes a real wake
    /// from a timeout expiry so callers can count rescue wakes
    /// separately.
    pub(crate) fn park(&self, work_available: impl Fn() -> bool, timeout: Duration) -> ParkOutcome {
        let epoch = self.epoch.load(Ordering::SeqCst);
        if work_available() || self.is_closed() {
            return ParkOutcome::Skipped;
        }
        let mut guard = self.lock.lock();
        // Announce, then validate: a producer either sees the sleeper
        // count and notifies, or its epoch bump is visible here and the
        // sleep is abandoned (SeqCst makes one of the two certain). A
        // concurrent close() bumps the epoch too, so a closing race is
        // caught by the same validation.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.epoch.load(Ordering::SeqCst) != epoch {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return ParkOutcome::Skipped;
        }
        let timed_out = self.cv.wait_for(&mut guard, timeout);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        if timed_out {
            ParkOutcome::TimedOut
        } else {
            ParkOutcome::Woken
        }
    }
}

/// Sharded dispatch-side counters, mirroring
/// [`crate::stats::AccessCounters`]: bumped lock-free on the raise path,
/// folded into [`crate::stats::Counters`] on demand.
#[derive(Debug)]
pub(crate) struct DispatchCounters {
    slots: Box<[DispatchCounterSlot]>,
    mask: usize,
}

#[derive(Debug, Default)]
#[repr(align(64))]
struct DispatchCounterSlot {
    triggering_stores: AtomicU64,
    triggers_fired: AtomicU64,
    false_triggers: AtomicU64,
    coalesced_triggers: AtomicU64,
    enqueues: AtomicU64,
    worker_wakes: AtomicU64,
    worker_parks: AtomicU64,
    queue_stale_skips: AtomicU64,
    steals: AtomicU64,
    steal_batches: AtomicU64,
    park_timeouts: AtomicU64,
}

const COUNTER_SLOTS: usize = 8;

impl DispatchCounters {
    pub(crate) fn new() -> Self {
        DispatchCounters {
            slots: (0..COUNTER_SLOTS)
                .map(|_| DispatchCounterSlot::default())
                .collect(),
            mask: COUNTER_SLOTS - 1,
        }
    }

    #[inline]
    fn slot(&self, key: usize) -> &DispatchCounterSlot {
        &self.slots[key & self.mask]
    }

    #[inline]
    pub(crate) fn triggering_store(&self, key: usize) {
        self.slot(key)
            .triggering_stores
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn trigger_fired(&self, key: usize, precise: bool) {
        let s = self.slot(key);
        s.triggers_fired.fetch_add(1, Ordering::Relaxed);
        if !precise {
            s.false_triggers.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn coalesced(&self, key: usize) {
        self.slot(key)
            .coalesced_triggers
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn enqueued(&self, key: usize) {
        self.slot(key).enqueues.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn worker_wake(&self, key: usize) {
        self.slot(key).worker_wakes.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn worker_park(&self, key: usize) {
        self.slot(key).worker_parks.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn stale_skip(&self, key: usize) {
        self.slot(key)
            .queue_stale_skips
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one steal batch that migrated `moved` entries.
    #[inline]
    pub(crate) fn stole(&self, key: usize, moved: u64) {
        let s = self.slot(key);
        s.steals.fetch_add(moved, Ordering::Relaxed);
        s.steal_batches.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn park_timeout(&self, key: usize) {
        self.slot(key).park_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds the sharded tallies into `stats`.
    pub(crate) fn fold_into(&self, stats: &mut crate::stats::Counters) {
        for s in self.slots.iter() {
            stats.triggering_stores += s.triggering_stores.load(Ordering::Relaxed);
            stats.triggers_fired += s.triggers_fired.load(Ordering::Relaxed);
            stats.false_triggers += s.false_triggers.load(Ordering::Relaxed);
            stats.coalesced_triggers += s.coalesced_triggers.load(Ordering::Relaxed);
            stats.enqueues += s.enqueues.load(Ordering::Relaxed);
            stats.worker_wakes += s.worker_wakes.load(Ordering::Relaxed);
            stats.worker_parks += s.worker_parks.load(Ordering::Relaxed);
            stats.queue_stale_skips += s.queue_stale_skips.load(Ordering::Relaxed);
            stats.steals += s.steals.load(Ordering::Relaxed);
            stats.steal_batches += s.steal_batches.load(Ordering::Relaxed);
            stats.park_timeouts += s.park_timeouts.load(Ordering::Relaxed);
        }
    }

    /// Zeroes every tally.
    pub(crate) fn reset(&self) {
        for s in self.slots.iter() {
            s.triggering_stores.store(0, Ordering::Relaxed);
            s.triggers_fired.store(0, Ordering::Relaxed);
            s.false_triggers.store(0, Ordering::Relaxed);
            s.coalesced_triggers.store(0, Ordering::Relaxed);
            s.enqueues.store(0, Ordering::Relaxed);
            s.worker_wakes.store(0, Ordering::Relaxed);
            s.worker_parks.store(0, Ordering::Relaxed);
            s.queue_stale_skips.store(0, Ordering::Relaxed);
            s.steals.store(0, Ordering::Relaxed);
            s.steal_batches.store(0, Ordering::Relaxed);
            s.park_timeouts.store(0, Ordering::Relaxed);
        }
    }
}

/// Everything the lock-free dispatch path owns, grouped in
/// [`crate::runtime::Inner`].
#[derive(Debug)]
pub(crate) struct Dispatch {
    pub(crate) slots: SlotTable,
    pub(crate) pending: ShardedQueue,
    pub(crate) waiters: Waiters,
    /// The completion eventcount joins park on: workers (and
    /// inline completions) broadcast here after any transition out of
    /// Running, and a joiner validates "the status word moved" before
    /// committing to sleep — the join-side analogue of the worker
    /// eventcount, with the slot token as the generation counter.
    pub(crate) completions: Waiters,
    pub(crate) counters: DispatchCounters,
}

impl Dispatch {
    pub(crate) fn new(queue_capacity: usize, queue_shards: usize) -> Self {
        Dispatch {
            slots: SlotTable::new(),
            pending: ShardedQueue::new(queue_capacity, queue_shards),
            waiters: Waiters::default(),
            completions: Waiters::default(),
            counters: DispatchCounters::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tthread::TthreadStatus as S;

    fn slot() -> Slot {
        Slot::default()
    }

    #[test]
    fn word_starts_clean() {
        let s = slot();
        assert_eq!(s.status(), S::Clean);
        assert!(!s.completed_since_join());
    }

    #[test]
    fn raise_from_clean_enqueues_with_fresh_token() {
        let s = slot();
        let RaiseStep::Enqueue(t1) = s.raise(false, false) else {
            panic!("expected enqueue");
        };
        assert_eq!(s.status(), S::Queued);
        // A second raise absorbs; the token must NOT move, or the queue
        // entry would go permanently stale and strand the tthread.
        assert_eq!(s.raise(false, false), RaiseStep::Absorbed);
        assert!(s.try_claim_queued(t1), "absorb must not invalidate token");
        assert_eq!(s.status(), S::Running);
    }

    #[test]
    fn deferred_raise_goes_triggered_without_queueing() {
        let s = slot();
        assert_eq!(s.raise(true, false), RaiseStep::Deferred);
        assert_eq!(s.status(), S::Triggered);
        assert_eq!(s.raise(true, false), RaiseStep::Absorbed);
        assert_eq!(s.status(), S::Triggered);
    }

    #[test]
    fn raise_while_running_sets_retrigger() {
        let s = slot();
        let RaiseStep::Enqueue(t) = s.raise(false, false) else {
            panic!()
        };
        assert!(s.try_claim_queued(t));
        assert_eq!(s.raise(false, false), RaiseStep::Absorbed);
        // RF set: completion must fail and leave the word Running.
        assert!(!s.try_complete(Some(true)));
        assert_eq!(s.status(), S::Running);
        s.absorb_rf();
        assert!(s.try_complete(Some(true)));
        assert_eq!(s.status(), S::Clean);
        assert!(s.completed_since_join());
    }

    #[test]
    fn steal_invalidates_the_queue_entry() {
        // The deterministic steal race: raise queues (id, t); a join
        // steals via try_claim_from; the worker's later claim with t must
        // fail — the entry is stale, not a double execution.
        let s = slot();
        let RaiseStep::Enqueue(t) = s.raise(false, false) else {
            panic!()
        };
        assert!(s.try_claim_from(S::Queued, false));
        assert!(!s.try_claim_queued(t), "stale entry must not claim");
        assert!(s.try_complete(Some(false)));
        assert_eq!(s.status(), S::Clean);
        // And the other direction: the worker claims first, the join's
        // conditional claim from Queued fails and re-examines.
        let RaiseStep::Enqueue(t2) = s.raise(false, false) else {
            panic!()
        };
        assert!(s.try_claim_queued(t2));
        assert!(!s.try_claim_from(S::Queued, false));
    }

    #[test]
    fn no_coalescing_marks_rerun_instead_of_requeueing() {
        let s = slot();
        let RaiseStep::Enqueue(t) = s.raise(false, true) else {
            panic!()
        };
        // Duplicate trigger while queued: RF marks the rerun.
        assert_eq!(s.raise(false, true), RaiseStep::Absorbed);
        // The claim preserves RF, so the execution runs twice.
        assert!(s.try_claim_queued(t));
        assert!(!s.try_complete(Some(true)));
        s.absorb_rf();
        assert!(s.try_complete(Some(true)));
    }

    #[test]
    fn defer_queued_is_token_guarded() {
        let s = slot();
        let RaiseStep::Enqueue(t) = s.raise(false, false) else {
            panic!()
        };
        assert!(s.try_defer_queued(t));
        assert_eq!(s.status(), S::Triggered);
        // Stale token: no-op.
        assert!(!s.try_defer_queued(t));
    }

    #[test]
    fn completed_flag_is_consumed_by_join() {
        let s = slot();
        let RaiseStep::Enqueue(t) = s.raise(false, false) else {
            panic!()
        };
        assert!(s.try_claim_queued(t));
        assert!(s.try_complete(Some(true)));
        assert_eq!(s.take_completed_if_clean(), Some(true));
        assert_eq!(s.take_completed_if_clean(), Some(false));
        let RaiseStep::Enqueue(_) = s.raise(false, false) else {
            panic!()
        };
        assert_eq!(s.take_completed_if_clean(), None);
    }

    #[test]
    fn inline_completion_preserves_pending_overlap() {
        // A worker completes (CJ set); before the join consumes it, a new
        // trigger fires and an inline run (overflow/force) completes with
        // `None`. That run must not destroy the pending CJ — the join still
        // owes the program an `Overlapped` outcome.
        let s = slot();
        let RaiseStep::Enqueue(t) = s.raise(false, false) else {
            panic!()
        };
        assert!(s.try_claim_queued(t));
        assert!(s.try_complete(Some(true)));
        assert!(s.completed_since_join());
        let RaiseStep::Enqueue(t2) = s.raise(false, false) else {
            panic!()
        };
        assert!(s.try_claim_queued(t2));
        assert!(s.try_complete(None));
        assert!(s.completed_since_join(), "None must preserve CJ");
        assert_eq!(s.take_completed_if_clean(), Some(true));
    }

    #[test]
    fn force_clean_resets_flags() {
        let s = slot();
        let RaiseStep::Enqueue(t) = s.raise(false, false) else {
            panic!()
        };
        assert!(s.try_claim_queued(t));
        assert_eq!(s.raise(false, false), RaiseStep::Absorbed); // RF
        s.force_clean();
        assert_eq!(s.status(), S::Clean);
        assert!(!s.completed_since_join());
        // RF was discarded: completion state machine is reusable.
        let RaiseStep::Enqueue(t2) = s.raise(false, false) else {
            panic!()
        };
        assert!(s.try_claim_queued(t2));
        assert!(s.try_complete(Some(false)));
    }

    #[test]
    fn exhausted_completion_defers_to_join() {
        let s = slot();
        let RaiseStep::Enqueue(t) = s.raise(false, false) else {
            panic!()
        };
        assert!(s.try_claim_queued(t));
        assert_eq!(s.raise(false, false), RaiseStep::Absorbed);
        assert!(!s.try_complete(Some(true)));
        s.complete_to_triggered();
        assert_eq!(s.status(), S::Triggered);
        assert!(!s.completed_since_join());
    }

    #[test]
    fn word_changes_on_every_state_transition() {
        // The generation-counter property the lock-free join parks on: any
        // transition out of an observed state changes the raw word.
        let s = slot();
        let observed = s.word();
        let RaiseStep::Enqueue(t) = s.raise(false, false) else {
            panic!()
        };
        assert_ne!(s.word(), observed);
        let observed = s.word();
        assert!(s.try_claim_queued(t));
        assert_ne!(s.word(), observed);
        let observed = s.word();
        assert!(s.try_complete(Some(true)));
        assert_ne!(s.word(), observed, "completion must move the word");
        // Consuming CJ at the join changes the word again (flag bit).
        let observed = s.word();
        assert_eq!(s.take_completed_if_clean(), Some(true));
        assert_ne!(s.word(), observed);
    }

    #[test]
    fn slot_table_grows_in_chunks() {
        let t = SlotTable::new();
        for i in 0..(CHUNK * 2 + 3) {
            t.ensure(i);
        }
        let RaiseStep::Enqueue(_) = t.slot(CHUNK * 2 + 2).raise(false, false) else {
            panic!()
        };
        assert_eq!(t.slot(CHUNK * 2 + 2).status(), S::Queued);
        assert_eq!(t.slot(0).status(), S::Clean);
    }

    #[test]
    fn sharded_queue_capacity_and_watermark() {
        let q = ShardedQueue::new(2, 4);
        assert_eq!(q.push(0, 1), PendingPush::Pushed);
        assert_eq!(q.push(1, 1), PendingPush::Pushed);
        assert_eq!(q.push(2, 1), PendingPush::Full);
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_watermark(), 2);
        assert!(q.pop(0).is_some());
        assert_eq!(q.push(2, 1), PendingPush::Pushed);
        let mut drained = Vec::new();
        while let Some(e) = q.pop(0) {
            drained.push(e);
        }
        assert_eq!(drained.len(), 2);
        assert!(q.is_empty());
        assert_eq!(q.high_watermark(), 2);
    }

    #[test]
    fn sharded_queue_keeps_per_tthread_fifo() {
        let q = ShardedQueue::new(16, 4);
        // Same id → same shard → FIFO per tthread.
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 3);
        let mut tokens = Vec::new();
        while let Some((id, tok)) = q.pop(3) {
            assert_eq!(id, 5);
            tokens.push(tok);
        }
        assert_eq!(tokens, vec![1, 2, 3]);
    }

    #[test]
    fn pop_local_respects_shard_ownership() {
        // 4 shards, 2 workers: worker 0 owns shards {0, 2}, worker 1 owns
        // {1, 3}. Ids map to shards by id & 3.
        let q = ShardedQueue::new(16, 4);
        q.push(0, 1); // shard 0
        q.push(1, 1); // shard 1
        q.push(2, 1); // shard 2
        q.push(3, 1); // shard 3
        let mut w0 = Vec::new();
        while let Some((id, _)) = q.pop_local(0, 2) {
            w0.push(id);
        }
        assert_eq!(w0, vec![0, 2]);
        assert_eq!(q.len(), 2);
        let mut w1 = Vec::new();
        while let Some((id, _)) = q.pop_local(1, 2) {
            w1.push(id);
        }
        assert_eq!(w1, vec![1, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn every_shard_has_an_owner_when_workers_do_not_divide_shards() {
        // 8 shards, 3 workers: ownership is s mod 3, so shards 6 and 7
        // fall to workers 0 and 1 — nothing is stranded.
        let q = ShardedQueue::new(64, 8);
        for id in 0..8u32 {
            q.push(id, 1);
        }
        let mut drained = 0;
        for w in 0..3 {
            while q.pop_local(w, 3).is_some() {
                drained += 1;
            }
        }
        assert_eq!(drained, 8);
    }

    #[test]
    fn steal_takes_half_of_the_fullest_foreign_shard() {
        // 4 shards, 4 workers: worker 3 owns shard 3, which is empty;
        // shard 1 (worker 1's) is the fullest victim with 5 entries.
        let q = ShardedQueue::new(64, 4);
        for t in 1..=5u64 {
            q.push(1, t);
        }
        q.push(0, 9);
        assert!(q.pop_local(3, 4).is_none());
        let ((id, tok), moved) = q.steal_into(3, 4).expect("victim available");
        assert_eq!((id, tok), (1, 1), "steal preserves the victim's FIFO");
        assert_eq!(moved, 3, "half of 5, rounded up");
        // The rest of the batch landed on worker 3's own shard, in order.
        assert_eq!(q.pop_local(3, 4), Some((1, 2)));
        assert_eq!(q.pop_local(3, 4), Some((1, 3)));
        assert!(q.pop_local(3, 4).is_none());
        // The victim kept its tail, still in order.
        assert_eq!(q.pop_local(1, 4), Some((1, 4)));
        assert_eq!(q.pop_local(1, 4), Some((1, 5)));
        // Global accounting held throughout.
        assert_eq!(q.len(), 1);
        assert_eq!(q.physical_len(), 1);
        assert_eq!(q.pop_local(0, 4), Some((0, 9)));
        assert!(q.is_empty());
    }

    #[test]
    fn steal_finds_nothing_when_only_own_shards_hold_work() {
        let q = ShardedQueue::new(16, 4);
        q.push(2, 1); // shard 2, owned by worker 2 of 4
        assert!(q.steal_into(2, 4).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.physical_len(), 1);
    }

    #[test]
    fn physical_len_matches_atomic_len_through_mixed_traffic() {
        let q = ShardedQueue::new(8, 4);
        for id in 0..8u32 {
            assert_eq!(q.push(id, u64::from(id)), PendingPush::Pushed);
        }
        assert_eq!(q.push(8, 8), PendingPush::Full);
        assert_eq!(q.physical_len(), q.len());
        q.pop(0);
        q.pop_local(1, 2);
        q.steal_into(0, 4);
        assert_eq!(q.physical_len(), q.len());
        while q.pop(0).is_some() {}
        assert_eq!(q.physical_len(), 0);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn waiters_wake_without_sleeper_is_cheap() {
        let w = Waiters::default();
        assert!(!w.wake_one(), "no sleeper: no notification");
    }

    #[test]
    fn park_bails_when_work_arrives_first() {
        let w = Waiters::default();
        assert_eq!(
            w.park(|| true, Duration::from_millis(1)),
            ParkOutcome::Skipped
        );
    }

    #[test]
    fn park_times_out_without_a_wake() {
        let w = Waiters::default();
        let t0 = std::time::Instant::now();
        assert_eq!(
            w.park(|| false, Duration::from_millis(5)),
            ParkOutcome::TimedOut
        );
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn closed_waiters_refuse_to_park() {
        let w = Waiters::default();
        assert!(!w.is_closed());
        w.close();
        assert!(w.is_closed());
        let t0 = std::time::Instant::now();
        assert_eq!(
            w.park(|| false, Duration::from_millis(200)),
            ParkOutcome::Skipped
        );
        assert!(t0.elapsed() < Duration::from_millis(100));
        // Idempotent.
        w.close();
        assert!(w.is_closed());
    }

    #[test]
    fn close_wakes_a_parked_waiter_promptly() {
        let w = Waiters::default();
        std::thread::scope(|s| {
            let h = s.spawn(|| w.park(|| false, Duration::from_secs(5)));
            while w.sleepers.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            let t0 = std::time::Instant::now();
            w.close();
            assert_eq!(h.join().unwrap(), ParkOutcome::Woken);
            assert!(t0.elapsed() < Duration::from_millis(500));
        });
    }

    #[test]
    fn park_abandons_sleep_after_missed_epoch() {
        let w = Waiters::default();
        // A wake between the epoch read and the commit is detected; the
        // test drives it by pre-bumping through wake_one.
        let epoch_before = w.epoch.load(Ordering::SeqCst);
        w.wake_one();
        assert_ne!(w.epoch.load(Ordering::SeqCst), epoch_before);
        // park() reads the *current* epoch, so it still sleeps; exercise
        // the cross-thread variant instead.
        let parked = std::thread::scope(|s| {
            let h = s.spawn(|| w.park(|| false, Duration::from_millis(200)));
            // Give the parker a moment, then wake it.
            while w.sleepers.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            let t0 = std::time::Instant::now();
            assert!(w.wake_one());
            let parked = h.join().unwrap();
            assert!(t0.elapsed() < Duration::from_millis(150));
            parked
        });
        assert_eq!(parked, ParkOutcome::Woken);
    }

    #[test]
    fn wake_all_without_sleeper_still_bumps_the_epoch() {
        // `wake_all` skips the mutex and the notify when nobody sleeps, so
        // the epoch bump alone must turn away a parker that read the epoch
        // before it. The predicate runs between `park`'s epoch read and
        // its sleeper announcement — issuing the wake from there is that
        // exact interleaving, forced rather than raced.
        let w = Waiters::default();
        let epoch_before = w.epoch.load(Ordering::SeqCst);
        let t0 = std::time::Instant::now();
        let outcome = w.park(
            || {
                w.wake_all();
                false
            },
            Duration::from_secs(5),
        );
        assert_eq!(outcome, ParkOutcome::Skipped);
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(w.epoch.load(Ordering::SeqCst), epoch_before + 1);
        assert_eq!(w.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn dispatch_counters_fold_and_reset() {
        let c = DispatchCounters::new();
        for i in 0..20 {
            c.triggering_store(i);
            c.trigger_fired(i, i % 2 == 0);
            c.coalesced(i);
            c.enqueued(i);
            c.worker_wake(i);
            c.worker_park(i);
            c.stale_skip(i);
            c.stole(i, 3);
            c.park_timeout(i);
        }
        let mut stats = crate::stats::Counters::new();
        c.fold_into(&mut stats);
        assert_eq!(stats.triggering_stores, 20);
        assert_eq!(stats.triggers_fired, 20);
        assert_eq!(stats.false_triggers, 10);
        assert_eq!(stats.coalesced_triggers, 20);
        assert_eq!(stats.enqueues, 20);
        assert_eq!(stats.worker_wakes, 20);
        assert_eq!(stats.worker_parks, 20);
        assert_eq!(stats.queue_stale_skips, 20);
        assert_eq!(stats.steals, 60);
        assert_eq!(stats.steal_batches, 20);
        assert_eq!(stats.park_timeouts, 20);
        c.reset();
        let mut stats = crate::stats::Counters::new();
        c.fold_into(&mut stats);
        assert_eq!(stats.triggers_fired, 0);
    }
}
