//! Lock-free trigger dispatch: the atomic tthread status machine and the
//! bounded pending queue of tthread ids.
//!
//! The HPCA'11 hardware updates its thread status table with single-cycle
//! state transitions; the software runtime originally serialized every one
//! of them — trigger raise, enqueue, dequeue, join-steal, status read — on
//! the global state lock. This module is the software analogue of the
//! hardware TST entry's status: one packed atomic **status word** in each
//! tthread's slot (its entry is in [`crate::tthread`]), advanced by
//! compare-and-swap, so the trigger→enqueue→dispatch fast path never
//! touches the state lock.
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
//! * **token** (60 bits): bumped on every *state-changing* transition, so
//!   the word is a generation counter — a joiner parks on "the word moved"
//!   — and no transition suffers ABA.
//!
//! # The tthread is the queue entry
//!
//! A tthread's id is in the [`PendingQueue`] exactly while its word reads
//! Queued: a raise's Clean→Queued, a pop and a join's or force's steal
//! (Queued→Running) each happen under the queue's mutex with their push or
//! removal. So every queued id is claimable and a steal leaves nothing.
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
//! Clean with CJ clear, and the slot's failure bits clear, skips on that
//! one Acquire load ([`Slot::skippable`]) without the state lock:
//!
//! * Every write of the word is an RMW, and every transition *into* Clean
//!   ([`Slot::try_complete`], [`Slot::force_clean`]) is a release. An
//!   Acquire load that reads it, or any later RMW in its release sequence,
//!   sees everything the completing thread did first: the execution's
//!   effects, and for a failure its bit. So `force_clean` sets the bit
//!   *before* its RMW publishes the failure, and the joiner reads the bits
//!   *after* the word: a failed tthread never reads as skippable. The bits
//!   are the only record of a failure: `clear_poison` and `clear_timeout`
//!   each clear their own bit under the state lock.
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
use std::time::Duration;

use crate::changed::ChangedSet;
use crate::sync::{AtomicU64, AtomicU8, AtomicUsize, Mutex, Ordering};
use crate::tthread::TthreadStatus;

const STATE_MASK: u64 = 0b11;
const RF: u64 = 1 << 2;
const CJ: u64 = 1 << 3;
const TOKEN_SHIFT: u32 = 4;
const TOKEN_ONE: u64 = 1 << TOKEN_SHIFT;

/// Failure bits: a body panicked, or overran the deadline (its write log
/// discarded). Each stays set until `clear_poison` / `clear_timeout`.
pub(crate) const POISONED: u8 = 1;
pub(crate) const TIMED_OUT: u8 = 1 << 1;

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
    /// Clean→Queued: the tthread's id is in the pending queue.
    Enqueued,
    /// Clean→Running: the queue was full, so the caller owns the claim and
    /// runs the tthread inline.
    Overflow,
}

/// One tthread's live dispatch state: the packed status word, the
/// per-tthread trigger tally (bumped lock-free on every raise), the
/// failure bits the skip rule reads beside the word ([`POISONED`],
/// [`TIMED_OUT`]), and the changed set its raises push into (see
/// [`crate::changed`]), all on one cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Slot {
    word: AtomicU64,
    pub(crate) triggers: AtomicU64,
    failed: AtomicU8,
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
        word & (STATE_MASK | CJ) == 0 && self.failure() == 0
    }

    /// The failure bits: [`POISONED`], [`TIMED_OUT`], both, or 0. Written
    /// only under the state lock.
    #[inline]
    pub(crate) fn failure(&self) -> u8 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Clears one failure bit (under the state lock).
    pub(crate) fn clear_failure(&self, bit: u8) {
        self.failed.fetch_and(!bit, Ordering::Relaxed);
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
    /// queued tthread sets RF so the claimed execution runs again. A Clean
    /// tthread goes Triggered without a queue (`pending` is `None`), else
    /// Queued with `id` pushed, or Running for the caller when the queue is
    /// full or `refuse` (an injected overflow) says so.
    pub(crate) fn raise(
        &self,
        mark_rerun_if_queued: bool,
        pending: Option<&PendingQueue>,
        id: u32,
        mut refuse: impl FnMut() -> bool,
    ) -> RaiseStep {
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
                    let Some(queue) = pending else {
                        if self.cas(cur, advance(cur, TthreadStatus::Triggered, false, false)) {
                            return RaiseStep::Deferred;
                        }
                        continue;
                    };
                    let refused = refuse();
                    let mut ids = queue.ids.lock();
                    if refused || ids.len() == queue.capacity {
                        drop(ids);
                        if self.cas(cur, advance(cur, TthreadStatus::Running, false, false)) {
                            return RaiseStep::Overflow;
                        }
                    } else if self.cas(cur, advance(cur, TthreadStatus::Queued, false, false)) {
                        ids.push_back(id);
                        queue.publish(&ids);
                        return RaiseStep::Enqueued;
                    }
                }
            }
        }
    }

    /// Claim into Running iff currently in `from` (a Triggered run at a
    /// join, a force, and under the queue's mutex a pop or a steal).
    /// `clear_rf` absorbs a pending rerun marker into the claimed
    /// execution; a pop keeps it (it is the no-coalescing rerun marker,
    /// never set while Queued with coalescing on).
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
    /// nothing) under the state lock: sets its failure `bit`, then resets
    /// the word to Clean with both flags cleared. The order is the skip
    /// rule's.
    pub(crate) fn force_clean(&self, bit: u8) {
        self.failed.fetch_or(bit, Ordering::Relaxed);
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

/// The bounded pending queue: the ids of the Queued tthreads in one FIFO,
/// the software analogue of the paper's thread queue in front of the
/// status table. The deque length under the lock *is* the number of
/// pending tthreads, so the capacity check is exact under any number of
/// raisers. `len` mirrors it and `high` its maximum, both written under
/// the lock, so the emptiness hint and occupancy reads need no lock.
#[derive(Debug)]
pub(crate) struct PendingQueue {
    ids: Mutex<VecDeque<u32>>,
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
            ids: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            high: AtomicUsize::new(0),
            capacity,
        }
    }

    /// Mirrors the deque length into `len` and `high`, under the lock.
    /// SeqCst: a raise's push is one side of the searcher handshake (see
    /// `Inner::wake_worker`).
    fn publish(&self, ids: &VecDeque<u32>) {
        self.len.store(ids.len(), Ordering::SeqCst);
        if ids.len() > self.high.load(Ordering::Relaxed) {
            self.high.store(ids.len(), Ordering::Relaxed);
        }
    }

    /// Claims the oldest pending tthread: pops its id and moves its word
    /// Queued→Running, both under the lock. `slot` maps an id to its slot.
    pub(crate) fn claim<'a>(&self, slot: impl Fn(u32) -> &'a Slot) -> Option<u32> {
        if self.is_empty() {
            return None;
        }
        let mut ids = self.ids.lock();
        let id = ids.pop_front()?;
        self.publish(&ids);
        let claimed = slot(id).try_claim_from(TthreadStatus::Queued, false);
        assert!(claimed, "a queued id names a Queued tthread");
        Some(id)
    }

    /// A join's or force's steal: moves `slot` Queued→Running and removes
    /// its `id`, both under the lock (a scan of at most `capacity` ids).
    /// `false` if the word was not Queued — a worker claimed it first.
    pub(crate) fn steal(&self, slot: &Slot, id: u32) -> bool {
        let mut ids = self.ids.lock();
        if !slot.try_claim_from(TthreadStatus::Queued, true) {
            return false;
        }
        let at = ids.iter().position(|&queued| queued == id);
        ids.remove(at.expect("a Queued tthread's id is queued"));
        self.publish(&ids);
        true
    }

    /// Tthreads currently pending.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether no tthread is pending.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tthread::{ChunkTable, Tthread, TthreadId, TthreadStatus as S, CHUNK};

    fn slot() -> Slot {
        Slot::default()
    }

    /// One raise of `s` as tthread 0 against `q`, coalescing on.
    fn raise(s: &Slot, q: &PendingQueue) -> RaiseStep {
        s.raise(false, Some(q), 0, || false)
    }

    /// Pops `q`, whose ids all name `s`.
    fn claim(s: &Slot, q: &PendingQueue) -> bool {
        q.claim(|_| s).is_some()
    }

    #[test]
    fn word_starts_clean() {
        let s = slot();
        assert_eq!(s.status(), S::Clean);
        assert!(!s.completed_since_join());
    }

    #[test]
    fn raise_from_clean_enqueues_with_fresh_token() {
        let (s, q) = (slot(), PendingQueue::new(4));
        let clean = s.word();
        assert_eq!(raise(&s, &q), RaiseStep::Enqueued);
        assert_eq!((s.status(), q.len()), (S::Queued, 1));
        assert_ne!(s.word() & !STATE_MASK, clean & !STATE_MASK, "token bumped");
        // A second raise absorbs: the tthread is pending at most once.
        assert_eq!(raise(&s, &q), RaiseStep::Absorbed);
        assert_eq!(q.len(), 1);
        assert!(claim(&s, &q));
        assert_eq!((s.status(), q.len()), (S::Running, 0));
        assert!(!claim(&s, &q), "the queue held one entry");
    }

    #[test]
    fn deferred_raise_goes_triggered_without_queueing() {
        let s = slot();
        let deferred = |s: &Slot| s.raise(false, None, 0, || unreachable!("no queue"));
        assert_eq!(deferred(&s), RaiseStep::Deferred);
        assert_eq!(s.status(), S::Triggered);
        assert_eq!(deferred(&s), RaiseStep::Absorbed);
        assert_eq!(s.status(), S::Triggered);
    }

    #[test]
    fn raise_while_running_sets_retrigger() {
        let (s, q) = (slot(), PendingQueue::new(4));
        raise(&s, &q);
        assert!(claim(&s, &q));
        assert_eq!(raise(&s, &q), RaiseStep::Absorbed);
        assert!(q.is_empty(), "a running tthread is not queued");
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
        // The steal race, both ways. A join steals first: its id leaves the
        // queue with the claim, so no worker pops it afterwards.
        let (s, q) = (slot(), PendingQueue::new(4));
        raise(&s, &q);
        assert!(q.steal(&s, 0));
        assert_eq!((s.status(), q.len()), (S::Running, 0));
        assert!(!claim(&s, &q));
        assert!(s.try_complete(Some(false)));
        // The worker claims first: the steal fails and the join
        // re-examines the word.
        raise(&s, &q);
        assert!(claim(&s, &q));
        assert!(!q.steal(&s, 0));
        assert_eq!(s.status(), S::Running);
    }

    #[test]
    fn a_steal_removes_only_its_own_id() {
        let slots: Vec<Slot> = (0..3).map(|_| slot()).collect();
        let q = PendingQueue::new(4);
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(
                s.raise(false, Some(&q), i as u32, || false),
                RaiseStep::Enqueued
            );
        }
        assert!(q.steal(&slots[1], 1));
        let popped: Vec<u32> = std::iter::from_fn(|| q.claim(|i| &slots[i as usize])).collect();
        assert_eq!(popped, [0, 2]);
    }

    #[test]
    fn a_full_queue_hands_the_claim_to_the_raiser() {
        let (a, b) = (slot(), slot());
        let q = PendingQueue::new(1);
        assert_eq!(a.raise(false, Some(&q), 0, || false), RaiseStep::Enqueued);
        assert_eq!(b.raise(false, Some(&q), 1, || false), RaiseStep::Overflow);
        assert_eq!((b.status(), q.len()), (S::Running, 1));
        // An injected refusal overflows a queue with room, too.
        assert!(claim(&a, &q));
        assert!(a.try_complete(Some(true)));
        assert_eq!(a.raise(false, Some(&q), 0, || true), RaiseStep::Overflow);
        assert_eq!((a.status(), q.len()), (S::Running, 0));
    }

    #[test]
    fn no_coalescing_marks_rerun_instead_of_requeueing() {
        let (s, q) = (slot(), PendingQueue::new(4));
        assert_eq!(s.raise(true, Some(&q), 0, || false), RaiseStep::Enqueued);
        // Duplicate trigger while queued: RF marks the rerun.
        assert_eq!(s.raise(true, Some(&q), 0, || false), RaiseStep::Absorbed);
        assert_eq!(q.len(), 1);
        // The pop preserves RF, so the execution runs twice.
        assert!(claim(&s, &q));
        assert!(!s.try_complete(Some(true)));
        s.absorb_rf();
        assert!(s.try_complete(Some(true)));
    }

    #[test]
    fn completed_flag_is_consumed_by_join() {
        let (s, q) = (slot(), PendingQueue::new(4));
        raise(&s, &q);
        assert!(claim(&s, &q));
        assert!(s.try_complete(Some(true)));
        assert_eq!(s.take_completed_if_clean(), Some(true));
        assert_eq!(s.take_completed_if_clean(), Some(false));
        assert_eq!(raise(&s, &q), RaiseStep::Enqueued);
        assert_eq!(s.take_completed_if_clean(), None);
    }

    #[test]
    fn inline_completion_preserves_pending_overlap() {
        // A worker completes (CJ set); before the join consumes it, a new
        // trigger fires and an inline run (overflow/force) completes with
        // `None`. That run must not destroy the pending CJ — the join still
        // owes the program an `Overlapped` outcome.
        let (s, q) = (slot(), PendingQueue::new(4));
        raise(&s, &q);
        assert!(claim(&s, &q));
        assert!(s.try_complete(Some(true)));
        assert!(s.completed_since_join());
        raise(&s, &q);
        assert!(q.steal(&s, 0));
        assert!(s.try_complete(None));
        assert!(s.completed_since_join(), "None must preserve CJ");
        assert_eq!(s.take_completed_if_clean(), Some(true));
    }

    #[test]
    fn force_clean_resets_flags() {
        let (s, q) = (slot(), PendingQueue::new(4));
        raise(&s, &q);
        assert!(claim(&s, &q));
        assert_eq!(raise(&s, &q), RaiseStep::Absorbed); // RF
        s.force_clean(POISONED);
        assert_eq!(s.status(), S::Clean);
        assert!(!s.completed_since_join());
        // RF was discarded: completion state machine is reusable.
        raise(&s, &q);
        assert!(claim(&s, &q));
        assert!(s.try_complete(Some(false)));
    }

    #[test]
    fn exhausted_completion_defers_to_join() {
        let (s, q) = (slot(), PendingQueue::new(4));
        raise(&s, &q);
        assert!(claim(&s, &q));
        assert_eq!(raise(&s, &q), RaiseStep::Absorbed);
        assert!(!s.try_complete(Some(true)));
        s.complete_to_triggered();
        assert_eq!(s.status(), S::Triggered);
        assert!(!s.completed_since_join());
        assert!(q.is_empty());
    }

    #[test]
    fn word_changes_on_every_state_transition() {
        // The generation-counter property the lock-free join parks on: any
        // transition out of an observed state changes the raw word.
        let (s, q) = (slot(), PendingQueue::new(4));
        let observed = s.word();
        raise(&s, &q);
        assert_ne!(s.word(), observed);
        let observed = s.word();
        assert!(claim(&s, &q));
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
        let t = ChunkTable::<Tthread<()>>::new();
        let id = |i: usize| TthreadId::new(i as u32);
        for i in 0..(CHUNK * 2 + 3) {
            t.ensure(id(i));
        }
        let last = &t.get(id(CHUNK * 2 + 2)).slot;
        assert_eq!(raise(last, &PendingQueue::new(1)), RaiseStep::Enqueued);
        assert_eq!(last.status(), S::Queued);
        assert_eq!(t.get(id(0)).slot.status(), S::Clean);
    }

    #[test]
    fn skippable_is_clean_without_a_report_or_a_failure() {
        let (s, q) = (slot(), PendingQueue::new(4));
        assert!(s.skippable());
        raise(&s, &q);
        assert!(!s.skippable(), "queued");
        assert!(claim(&s, &q));
        assert!(!s.skippable(), "running");
        assert!(s.try_complete(Some(true)));
        assert!(!s.skippable(), "an overlapped completion is owed");
        assert_eq!(s.take_completed_if_clean(), Some(true));
        assert!(s.skippable());
        // A failure reads as not skippable until its last bit is cleared.
        s.force_clean(POISONED);
        s.force_clean(TIMED_OUT);
        assert_eq!(s.status(), S::Clean);
        assert!(!s.skippable(), "poisoned and timed out");
        s.clear_failure(POISONED);
        assert!(!s.skippable(), "timed out");
        s.clear_failure(TIMED_OUT);
        assert!(s.skippable());
    }

    #[test]
    fn pending_queue_is_fifo_with_a_watermark() {
        let slots: Vec<Slot> = (0..4).map(|_| slot()).collect();
        let q = PendingQueue::new(4);
        let raise_id = |i: u32| slots[i as usize].raise(false, Some(&q), i, || false);
        for i in 0..3 {
            assert_eq!(raise_id(i), RaiseStep::Enqueued);
        }
        assert_eq!(q.high_watermark(), 3);
        let pop = || q.claim(|i| &slots[i as usize]);
        assert_eq!(pop(), Some(0));
        assert_eq!(raise_id(3), RaiseStep::Enqueued);
        assert_eq!(q.high_watermark(), 3, "3 → 2 → 3: never more than 3");
        let drained: Vec<_> = std::iter::from_fn(pop).collect();
        assert_eq!(drained, vec![1, 2, 3]);
        assert!(q.is_empty());
        assert_eq!(q.high_watermark(), 3);
    }

    /// Runs two raisers, 64 distinct tthreads each, against `q`; `drain`
    /// runs on the test thread until both are done. Returns how many
    /// raises queued (the rest overflowed).
    fn race_two_raisers(q: &PendingQueue, slots: &[Slot], mut drain: impl FnMut()) -> usize {
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let raisers: Vec<_> = (0..2u32)
                .map(|r| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        (64 * r..64 * (r + 1))
                            .filter(|&i| {
                                let step = slots[i as usize].raise(false, Some(q), i, || false);
                                step == RaiseStep::Enqueued
                            })
                            .count()
                    })
                })
                .collect();
            start.wait();
            while raisers.iter().any(|h| !h.is_finished()) {
                drain();
            }
            raisers.into_iter().map(|h| h.join().unwrap()).sum()
        })
    }

    fn slots(n: usize) -> Vec<Slot> {
        (0..n).map(|_| slot()).collect()
    }

    #[test]
    fn pending_queue_capacity_and_watermark_are_exact_under_concurrent_pushers() {
        // 128 racing raises at 5 slots: exactly 5 queue, 123 overflow into
        // Running.
        let (q, s) = (PendingQueue::new(5), slots(128));
        assert_eq!(race_two_raisers(&q, &s, || assert!(q.len() <= 5)), 5);
        assert_eq!(q.len(), 5);
        assert_eq!(q.high_watermark(), 5);
        let running = s.iter().filter(|s| s.status() == S::Running).count();
        assert_eq!(running, 123);
        // With room to spare every raise queues, and the watermark is the
        // deque's own maximum: with no popper, the number that queued.
        let (q, s) = (PendingQueue::new(256), slots(128));
        assert_eq!(race_two_raisers(&q, &s, || {}), 128);
        assert_eq!(q.high_watermark(), 128);
    }

    #[test]
    fn pending_queue_len_mirror_matches_the_deque_after_mixed_traffic() {
        let (q, s) = (PendingQueue::new(8), slots(128));
        let mut popped = 0;
        let queued = race_two_raisers(&q, &s, || {
            popped += usize::from(q.claim(|i| &s[i as usize]).is_some());
        });
        assert_eq!(q.len(), queued - popped);
        assert_eq!(q.ids.lock().len(), q.len());
        let words = s.iter().filter(|s| s.status() == S::Queued).count();
        assert_eq!(words, q.len(), "an id is queued iff its word is Queued");
        assert!((q.len()..=8).contains(&q.high_watermark()));
        while q.claim(|i| &s[i as usize]).is_some() {}
        assert!(q.is_empty());
        assert!(s.iter().all(|s| s.status() != S::Queued));
    }
}
