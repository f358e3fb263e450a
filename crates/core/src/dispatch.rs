//! Lock-free trigger dispatch: the atomic tthread status machine and the
//! bounded pending queue, parked on two [`crate::eventcount::Waiters`].
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
//! # The skip rule (why a skipping join is a load, not an RMW)
//!
//! The converse holds at the consumption point. A join that finds the word
//! Clean with CJ clear, and the slot's `failed` flag clear, skips on that
//! one Acquire load ([`Slot::skippable`]) without the state lock:
//!
//! * Every write of the word is an RMW, and every transition *into* Clean
//!   ([`Slot::try_complete`], [`Slot::force_clean`]) is a release. An
//!   Acquire load that reads it, or any later RMW in its release sequence,
//!   sees everything the completing thread did first: the execution's
//!   effects, and for a failure the `failed` flag. So `force_clean` sets
//!   the flag *before* its RMW publishes the failure, and the joiner reads
//!   the flag *after* the word: a failed tthread never reads as skippable.
//!   `clear_poison`/`clear_timeout` recompute the flag under the state
//!   lock, where every failure is recorded.
//! * A skip consumes nothing: with CJ clear there is no completion report
//!   to take, so the RMW the absorb rule needs has nothing to order here.
//!   A trigger the joiner itself issued happens-before its load, so by
//!   coherence the load sees that raise or a later word, never the Clean
//!   word the raise replaced. A trigger from another thread that races the
//!   load is ordered after it in the word's modification order, and the
//!   join linearizes before that trigger.
//!
//! Any other word (pending, running, CJ set, or failed) takes the locked
//! join path.
//!
//! # Lock order
//!
//! state lock → pending-queue mutex / eventcount mutex. The two are leaf
//! locks: they may be acquired while holding the state lock (commit-path
//! cascades enqueue under it) but never the other way around, and nothing
//! else is ever acquired under them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use parking_lot::Mutex;

use crate::changed::ChangedSet;
use crate::eventcount::Waiters;
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
    /// queue (and run the tthread inline if that fails).
    Enqueue(u64),
}

/// One tthread's live dispatch state: the packed status word, the
/// per-tthread trigger tally (bumped lock-free on every raise), the
/// failure flag the skip rule reads beside the word (set while the tthread
/// is poisoned or timed out), and the changed set its raises push into
/// (see [`crate::changed`]), all on one cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Slot {
    word: AtomicU64,
    pub(crate) triggers: AtomicU64,
    failed: AtomicBool,
    pub(crate) changed: ChangedSet,
}

const _: () = assert!(
    std::mem::size_of::<Slot>() == 64,
    "a slot is one cache line"
);

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

    /// Whether a join may skip on this read alone: Clean, no completion to
    /// report, not failed. See the module-level skip rule for why the word
    /// is read first and why no RMW is needed.
    #[inline]
    pub(crate) fn skippable(&self) -> bool {
        let word = self.load();
        word & (STATE_MASK | CJ) == 0 && !self.failed.load(Ordering::Relaxed)
    }

    /// Recomputes the failure flag once a poisoned or timed-out tthread is
    /// cleared (called under the state lock, where failures are recorded).
    pub(crate) fn set_failed(&self, failed: bool) {
        self.failed.store(failed, Ordering::Relaxed);
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

    /// Publishes a failed execution (poison, timeout: it published
    /// nothing): sets the failure flag, then resets the word to Clean with
    /// both flags cleared. The order is the skip rule's.
    pub(crate) fn force_clean(&self) {
        self.failed.store(true, Ordering::Relaxed);
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

/// Chunked, append-only per-tthread table. Chunks are allocated on demand
/// behind `OnceLock`s so `register` (which grows the table) never
/// invalidates references concurrently held by workers — the table itself
/// is lock-free to read. Holds the dispatch [`Slot`]s and, as
/// `ChunkTable<OnceLock<_>>`, the registered tthread bodies.
#[derive(Debug)]
pub(crate) struct ChunkTable<T> {
    chunks: Box<[OnceLock<Box<[T]>>]>,
}

/// The per-tthread status words.
pub(crate) type SlotTable = ChunkTable<Slot>;

const CHUNK: usize = 64;
const MAX_CHUNKS: usize = 1024;

impl<T: Default> ChunkTable<T> {
    pub(crate) fn new() -> Self {
        ChunkTable {
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
        self.chunks[chunk].get_or_init(|| (0..CHUNK).map(|_| T::default()).collect());
    }

    /// The entry for tthread `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index was never registered via [`ChunkTable::ensure`].
    pub(crate) fn get(&self, index: usize) -> &T {
        let chunk = self.chunks[index / CHUNK]
            .get()
            .expect("entry accessed before registration");
        &chunk[index % CHUNK]
    }
}

/// The bounded pending queue: `(tthread index, token)` entries in one
/// FIFO, the software analogue of the paper's thread queue in front of the
/// status table. The deque length under the lock *is* the capacity check,
/// so capacity is exact under any number of concurrent pushers. `len`
/// mirrors the deque length and `high` its maximum, both written only
/// under the lock — the watermark never counts an entry that was not in
/// the deque — so the park predicate and the occupancy reads need no lock.
///
/// Queue position carries no ordering obligation: the status machine
/// admits at most one live entry per tthread (duplicate triggers absorb
/// into RF) and a stale duplicate fails its token validation at claim
/// time — FIFO-per-tthread rests on the ABA tokens.
#[derive(Debug)]
pub(crate) struct PendingQueue {
    entries: Mutex<VecDeque<(u32, u64)>>,
    len: AtomicUsize,
    high: AtomicUsize,
    capacity: usize,
}

impl PendingQueue {
    /// Creates a queue of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be nonzero");
        PendingQueue {
            entries: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            high: AtomicUsize::new(0),
            capacity,
        }
    }

    /// Attempts to enqueue `(id, token)`; `false` means the queue was at
    /// capacity and the caller applies its overflow policy. Coalescing
    /// happens in the status word before this is called, so every push is
    /// a distinct pending execution.
    pub(crate) fn push(&self, id: u32, token: u64) -> bool {
        let mut entries = self.entries.lock();
        if entries.len() == self.capacity {
            return false;
        }
        entries.push_back((id, token));
        // `len` is an occupancy hint — the deque itself is only read under
        // the lock — so it needs no ordering of its own: a parker learns of
        // this push through the eventcount's SeqCst epoch bump that follows
        // it (`Waiters::wake_one`), or through the eventcount mutex if it
        // was already asleep, and either edge carries this store with it.
        // Release/Acquire (not SeqCst) keeps a full fence out of the
        // critical section. `high` is only written here, under the lock.
        self.len.store(entries.len(), Ordering::Release);
        if entries.len() > self.high.load(Ordering::Relaxed) {
            self.high.store(entries.len(), Ordering::Relaxed);
        }
        true
    }

    /// Pops the oldest entry.
    pub(crate) fn pop(&self) -> Option<(u32, u64)> {
        if self.is_empty() {
            return None;
        }
        let mut entries = self.entries.lock();
        let entry = entries.pop_front()?;
        self.len.store(entries.len(), Ordering::Release);
        Some(entry)
    }

    /// Entries currently queued (including not-yet-skipped stale ones).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
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

/// Everything the lock-free dispatch path owns, grouped in
/// [`crate::runtime::Inner`].
#[derive(Debug)]
pub(crate) struct Dispatch {
    pub(crate) slots: SlotTable,
    pub(crate) pending: PendingQueue,
    pub(crate) waiters: Waiters,
    /// The completion eventcount joins park on: workers (and
    /// inline completions) broadcast here after any transition out of
    /// Running, and a joiner validates "the status word moved" before
    /// committing to sleep — the join-side analogue of the worker
    /// eventcount, with the slot token as the generation counter.
    pub(crate) completions: Waiters,
}

impl Dispatch {
    pub(crate) fn new(queue_capacity: usize) -> Self {
        Dispatch {
            slots: SlotTable::new(),
            pending: PendingQueue::new(queue_capacity),
            waiters: Waiters::default(),
            completions: Waiters::default(),
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
        let RaiseStep::Enqueue(_) = t.get(CHUNK * 2 + 2).raise(false, false) else {
            panic!()
        };
        assert_eq!(t.get(CHUNK * 2 + 2).status(), S::Queued);
        assert_eq!(t.get(0).status(), S::Clean);
    }

    #[test]
    fn skippable_is_clean_without_a_report_or_a_failure() {
        let s = slot();
        assert!(s.skippable());
        let RaiseStep::Enqueue(t) = s.raise(false, false) else {
            panic!()
        };
        assert!(!s.skippable(), "queued");
        assert!(s.try_claim_queued(t));
        assert!(!s.skippable(), "running");
        assert!(s.try_complete(Some(true)));
        assert!(!s.skippable(), "an overlapped completion is owed");
        assert_eq!(s.take_completed_if_clean(), Some(true));
        assert!(s.skippable());
        // A failure reads as not skippable until the flag is recomputed.
        s.force_clean();
        assert_eq!(s.status(), S::Clean);
        assert!(!s.skippable(), "failed");
        s.set_failed(false);
        assert!(s.skippable());
    }

    #[test]
    fn pending_queue_is_fifo_with_a_watermark() {
        let q = PendingQueue::new(4);
        for t in 1..=3u64 {
            assert!(q.push(5, t));
        }
        assert_eq!(q.high_watermark(), 3);
        assert_eq!(q.pop(), Some((5, 1)));
        assert!(q.push(7, 4));
        assert_eq!(q.high_watermark(), 3, "3 → 2 → 3: never more than 3");
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![(5, 2), (5, 3), (7, 4)]);
        assert!(q.is_empty());
        assert_eq!(q.high_watermark(), 3);
    }

    /// Runs two pushers, 64 attempts each, against `q`; `drain` runs on
    /// the test thread until both are done. Returns how many pushes landed.
    fn race_two_pushers(q: &PendingQueue, mut drain: impl FnMut()) -> usize {
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let pushers: Vec<_> = (0..2u32)
                .map(|p| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        (0..64u64).filter(|&t| q.push(p, t)).count()
                    })
                })
                .collect();
            start.wait();
            while pushers.iter().any(|h| !h.is_finished()) {
                drain();
            }
            pushers.into_iter().map(|h| h.join().unwrap()).sum()
        })
    }

    #[test]
    fn pending_queue_capacity_and_watermark_are_exact_under_concurrent_pushers() {
        // 128 racing pushes at 5 slots: exactly 5 land.
        let q = PendingQueue::new(5);
        assert_eq!(race_two_pushers(&q, || assert!(q.len() <= 5)), 5);
        assert_eq!(q.len(), 5);
        assert_eq!(q.high_watermark(), 5);
        // With room to spare every push lands, and the watermark — taken
        // under the queue lock, not from a reservation counter that also
        // counts pushers yet to insert — is the deque's own maximum: with
        // no popper, the number of entries that landed.
        let q = PendingQueue::new(256);
        assert_eq!(race_two_pushers(&q, || {}), 128);
        assert_eq!(q.high_watermark(), 128);
    }

    #[test]
    fn pending_queue_len_mirror_matches_the_deque_after_mixed_traffic() {
        let q = PendingQueue::new(8);
        let mut popped = 0;
        let pushed = race_two_pushers(&q, || popped += usize::from(q.pop().is_some()));
        assert_eq!(q.len(), pushed - popped);
        assert_eq!(q.entries.lock().len(), q.len());
        assert!((q.len()..=8).contains(&q.high_watermark()));
        while q.pop().is_some() {}
        assert_eq!(q.entries.lock().len(), 0);
        assert!(q.is_empty());
    }
}
