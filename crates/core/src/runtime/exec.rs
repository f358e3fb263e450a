//! Running a tthread body: detached against a view and committed under
//! the state lock afterwards (on a worker, or on a joiner that helps while
//! it waits), or inline on the calling thread under the lock; and the
//! worker loop that searches for, claims and parks between them. Both
//! executors share the body timing, the early-cutoff wave close and the
//! poison sequence below.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::thread;
use std::time::Instant;

use super::{Inner, State};
use crate::config::COMMIT_RETRY_CAP;
use crate::ctx::{Ctx, DetachedView, LoggedStore};
use crate::deadline::{backoff_delay, BodyDeadline};
use crate::dispatch::{PARK_TIMEOUT, POISONED, TIMED_OUT};
use crate::error::Error;
use crate::eventcount::ParkOutcome;
use crate::fault::FaultPoint;
use crate::mem::host_cpus;
use crate::obs::EventKind;
use crate::stats::{CounterLine, Tally};
use crate::tthread::{TthreadId, TthreadStatus};
use crate::view::View;

/// Maximum depth of tthreads triggering tthreads before
/// [`Error::CascadeDepthExceeded`] aborts the cascade.
const MAX_CASCADE_DEPTH: u32 = 64;

impl<U> Inner<U> {
    /// Broadcasts the completion eventcount after a transition out of
    /// Running, waking joiners parked in `Runtime::join` /
    /// `Runtime::force`. A broadcast (not a single wake) because the
    /// eventcount is shared by joins on every tthread; the joiner's
    /// predicate ("did *my* slot's word move?") filters spurious wakes.
    /// Subject to the [`FaultPoint::JoinWake`] injection, which drops the
    /// broadcast entirely; the joiner's timed park bounds the damage to
    /// one park period.
    fn wake_joiners(&self) {
        if self.fault.fire(FaultPoint::JoinWake) {
            return;
        }
        self.completions.wake_all();
    }
}

impl<U: Send + 'static> Inner<U> {
    /// Claims the oldest queued tthread (Queued→Running), unless an
    /// injected dequeue fault rejects this attempt and leaves it queued.
    fn claim_queued(&self) -> Option<TthreadId> {
        if self.pending.is_empty() || self.fault.fire(FaultPoint::Dequeue) {
            return None;
        }
        let slot = |raw| &self.tthread(TthreadId::new(raw)).slot;
        self.pending.claim(slot).map(TthreadId::new)
    }

    /// Runs a claimed tthread detached and wakes the joiners: the one copy
    /// of "run a queued execution", shared by the worker loop and a waiting
    /// joiner. Takes no lock until the commit, which takes the state lock
    /// as any detached run does; the caller must hold neither. The two
    /// differ only in the counter `line` they own and the counter `ran` a
    /// committed run lands in (`worker_executions`, `helped_executions`).
    fn run_claimed(&self, id: TthreadId, line: &CounterLine, ran: Tally) {
        run_detached(self, id, line, ran);
        self.wake_joiners();
    }

    /// A waiting joiner's turn as a searcher: claims one queued tthread
    /// and runs it as a worker would. `false` when there was nothing to
    /// claim, and the joiner may wait.
    pub(super) fn help(&self, line: &CounterLine) -> bool {
        self.start_searching();
        let claimed = self.claim_queued();
        self.stop_searching(line);
        let Some(id) = claimed else {
            return false;
        };
        self.run_claimed(id, line, Tally::helped_executions);
        true
    }

    /// Spins until `done` or the clock passes `deadline` (an
    /// [`Inner::now`]); `true` unless the deadline came first. Spinning
    /// waits on another thread's progress, which on one CPU it only
    /// delays, so callers spin only when [`host_cpus`] is above one.
    pub(super) fn spin_until(&self, deadline: u64, done: impl Fn() -> bool) -> bool {
        loop {
            if done() {
                return true;
            }
            if self.now() >= deadline {
                return false;
            }
            std::hint::spin_loop();
        }
    }
}

/// How long, in [`Inner::now`] units, a thread out of work spins before it
/// parks: about one wake-up. An idle worker spins only when its previous
/// idle gap ended inside the window, and a joiner only while its tthread
/// runs, so a short gap costs no wake and a long one one window at most.
pub(super) const WINDOW_NS: u64 = 20_000;

/// The worker: runs queued executions, and only touches the state lock to
/// commit. Out of work it is a searcher: it spins through the search
/// window if its previous idle gap ended inside it, then leaves the
/// searchers and parks on the dispatch eventcount with a timed park.
pub(super) fn worker_loop<U: Send + 'static>(inner: &Inner<U>, worker_idx: usize) {
    let line = &inner.counters.workers[worker_idx];
    let spins = host_cpus() > 1;
    // The current idle gap: when it began, and when the wake this worker
    // took over was issued (the moment work arrived, not when the worker
    // got up). Whether the last gap ended inside the window decides
    // whether the next one is spun through.
    let mut idle_since = None;
    let mut woken_at = None;
    let mut short_gaps = false;
    let mut searching = false;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(id) = inner.claim_queued() {
            if searching {
                inner.stop_searching(line);
                searching = false;
            }
            if let Some(since) = idle_since.take() {
                let ended = woken_at.take().unwrap_or_else(|| inner.now());
                short_gaps = spins && ended.saturating_sub(since) <= WINDOW_NS;
            }
            inner.run_claimed(id, line, Tally::worker_executions);
            continue;
        }
        if !searching {
            inner.start_searching();
            searching = true;
        }
        let since = *idle_since.get_or_insert_with(|| inner.now());
        let searched = || !inner.pending.is_empty() || inner.shutdown.load(Ordering::Relaxed);
        if short_gaps && inner.spin_until(since + WINDOW_NS, searched) {
            continue;
        }
        inner.stop_searching(line);
        // The timed park doubles as the rescue path for a dropped wake
        // (see `FaultPoint::WakeDrop`): even a lost notification only
        // costs one park period, and is counted as a rescue. No worker
        // sleeps while a wake token is pending: the raise that set it
        // bumped the epoch after, so the parker sees one or the other.
        let (outcome, silent) = inner.waiters.park_reporting(
            || inner.wake_pending() || inner.shutdown.load(Ordering::SeqCst),
            PARK_TIMEOUT,
        );
        if outcome != ParkOutcome::Skipped {
            line.bump(Tally::worker_parks, 1);
        }
        if outcome == ParkOutcome::TimedOut {
            line.bump(Tally::park_timeouts, 1);
            if silent && inner.unattended() {
                line.bump(Tally::park_rescues, 1);
            }
        }
        woken_at = inner.search_after_park();
        searching = true;
    }
}

/// Runs one body execution between its `BodyStart` and `BodyEnd` events,
/// catching a panic: the part of an execution both executors share.
fn run_body<U, R>(
    inner: &Inner<U>,
    id: TthreadId,
    body: impl FnOnce() -> R,
) -> std::thread::Result<R> {
    let start = (EventKind::BodyStart, 0);
    inner.obs.span(id, start, EventKind::BodyEnd, || {
        catch_unwind(AssertUnwindSafe(body))
    })
}

/// Executes one claimed tthread *detached*: a view of tracked memory, the
/// body off the lock, commit under the lock. The caller must already have
/// moved `id` to Running (claim CAS). The first view starts without the
/// state lock; a rerun starts its view while still holding the previous
/// commit's guard. The body's accesses and restarts count on the runner's
/// `line` as they happen, whatever the run's end.
fn run_detached<U: Send + 'static>(
    inner: &Inner<U>,
    id: TthreadId,
    line: &CounterLine,
    ran: Tally,
) {
    let tthread = inner.tthread(id);
    let slot = &tthread.slot;
    let mut retries: u32 = 0;
    let mut restarts: u32 = 0;
    let mut held = None;
    loop {
        debug_assert_eq!(slot.status(), TthreadStatus::Running);
        // Take the changed set after the claim (or RF absorb) and before
        // the view starts: every range it holds is in the view.
        let triggers = slot.changed.take();
        let (outcome, overran, parts) = loop {
            // With the guard held the view start is serialized with
            // raising. Without it (first iteration) it still follows the
            // trigger that queued `id`: the claim CAS synchronized with the
            // raise RMW, which itself followed the triggering store's
            // stripe-locked publication, so that store loaded the view
            // clock before this bump (see `crate::view`).
            let view = View::start(&inner.mem);
            drop(held.take());

            // Injected scheduling delay: the tthread is already Running (a
            // join waits for it rather than stealing it), so stretching this
            // gap widens trigger/join races without risking double
            // execution.
            if inner.fault.fire(FaultPoint::WorkerSchedule) {
                inner.fault.delay();
            }

            let deadline = BodyDeadline::starting(inner.cfg.body_deadline, Instant::now());
            // The body runs entirely off the state lock, against the view;
            // main-thread `with`/`join` calls proceed concurrently.
            let mut ctx = Ctx::detached(view, inner, 1, triggers, line);
            let outcome = run_body(inner, id, || {
                if inner.fault.fire(FaultPoint::BodyStart) {
                    // Injected body failure: behave exactly like a
                    // panicking body (the tthread gets poisoned below)
                    // without running the panic hook and spamming stderr.
                    resume_unwind(Box::new("injected body-start fault"));
                }
                tthread.body()(&mut ctx)
            });
            // Deadline check covers the body only, before any injected
            // commit delay; a panic takes precedence over a timeout below.
            // Monotonic by construction — see `crate::deadline`.
            let overran = deadline.and_then(|d| d.overrun(Instant::now()));
            let parts = ctx.into_detached();
            if !parts.view.restarted() {
                break (outcome, overran, parts);
            }
            // A stripe the body read changed after its view started. The
            // flag, not the unwind, decides: a body that caught the unwind
            // (or panicked after it) restarts all the same. Nothing was
            // published. Run again with the same taken set, up to the cap.
            drop(parts.guard);
            line.bump(Tally::view_restarts, 1);
            if restarts >= COMMIT_RETRY_CAP {
                // As at an exhausted commit retry: defer to the next join,
                // which recomputes everything (the taken set is lost).
                let _state = inner.state.lock();
                slot.changed.set_all();
                slot.complete_to_triggered();
                return;
            }
            restarts += 1;
        };
        // Injected commit-replay delay: stretches the window between body
        // end and commit, multiplying commit conflicts and retriggers.
        // Runs before the relock unless the body already took the user-
        // state lock, in which case it stretches the critical section —
        // exactly the slow-commit behaviour worth chaos-testing.
        if inner.fault.fire(FaultPoint::CommitReplay) {
            inner.fault.delay();
        }
        let DetachedView { guard, log, .. } = parts;
        // If the body touched user state it already holds the lock; reuse
        // that guard so user-state updates and the commit are one critical
        // section. Every transition *out of* Running below bumps the slot
        // *word*, which joiners' parks validate before committing to
        // sleep, so they cannot miss the wakeup (the wake itself is
        // broadcast by `run_claimed` after this function returns).
        let mut state = guard.into_inner().unwrap_or_else(|| inner.state.lock());

        if outcome.is_err() {
            // Keep this worker alive for the other tthreads; the next join
            // reports the failure. Nothing the body stored is published —
            // a detached execution is atomic.
            poison(&mut state, inner, id);
            return;
        }

        if let Some(elapsed) = overran {
            // Deadline overrun: discard the write log — a timed-out body
            // never commits — and flag the tthread; the next join reports
            // `TthreadTimedOut`. The taken set went with the log, so the
            // next run recomputes everything.
            state.lock_line.bump(Tally::body_timeouts, 1);
            state.graph.clear_depth(id);
            slot.changed.set_all();
            slot.force_clean(TIMED_OUT);
            let elapsed = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            inner.obs.event(EventKind::BodyTimeout, id, elapsed);
            return;
        }

        // Replay the write log against live memory. A panic can only come
        // out of a cascaded inline execution (which poisons its own
        // tthread); treat it like a body panic of `id` so the worker
        // survives.
        let start = (EventKind::CommitBegin, log.len() as u64);
        let committed = inner.obs.span(id, start, EventKind::CommitDone, || {
            catch_unwind(AssertUnwindSafe(|| commit_log(&mut state, inner, id, &log)))
        });
        if committed.is_err() {
            poison(&mut state, inner, id);
            return;
        }

        state.lock_line.bump(Tally::executions, 1);
        state.lock_line.bump(ran, 1);
        tthread.executions.bump();
        if inner.fault.fire(FaultPoint::Retrigger) {
            // Injected retrigger: pretend a trigger landed during the body,
            // driving the bounded retry loop below.
            slot.set_rf_if_running();
        }
        if slot.try_complete(Some(true)) {
            tthread.epoch.bump();
            return;
        }
        // The rerun flag was set: a trigger landed while the body ran (or
        // its own commit retriggered it). The view may be stale, so go
        // around again with a fresh one — but only up to the cap, so
        // adversarial store rates cannot livelock this worker.
        if retries >= COMMIT_RETRY_CAP {
            state.lock_line.bump(Tally::commit_retry_exhausted, 1);
            slot.complete_to_triggered();
            let cap = u64::from(COMMIT_RETRY_CAP);
            inner.obs.event(EventKind::RetryExhausted, id, cap);
            return;
        }
        retries += 1;
        state.lock_line.bump(Tally::commit_retries, 1);
        slot.absorb_rf();
        if let Some(base) = inner.cfg.commit_backoff {
            // Back off before the next view: under a store storm an
            // immediate rerun mostly re-loses the commit race. The sleep
            // happens off the state lock; jitter comes from the fault
            // layer's SplitMix64 stream so chaos replays stay
            // seed-deterministic.
            state.lock_line.bump(Tally::commit_backoff_waits, 1);
            drop(state);
            thread::sleep(backoff_delay(base, retries, inner.fault.draw()));
            held = Some(inner.state.lock());
        } else {
            held = Some(state);
        }
    }
}

/// Replays a detached execution's write log under the state lock, firing
/// triggers for the stores that still change live memory.
fn commit_log<U: Send + 'static>(
    state: &mut State<U>,
    inner: &Inner<U>,
    id: TthreadId,
    log: &[LoggedStore],
) {
    let detect = inner.cfg.suppress_silent_stores;
    // One commit = one wave epoch: downstream tthreads are raised at most
    // once per replay no matter how many stores land in their regions.
    state.graph.begin_wave();
    let mut dispatched: u64 = 0;
    let mut changed: u64 = 0;
    for entry in log {
        let effect = inner
            .mem
            .store_bytes(entry.range, &entry.data, detect && entry.dispatch);
        if !entry.dispatch {
            continue;
        }
        state.lock_line.bump(Tally::commit_stores, 1);
        dispatched += 1;
        let addr = entry.range.start();
        if effect.changed {
            changed += 1;
            inner.obs_store(EventKind::ChangeDetected, addr, Some(id));
            // Depth 1 with `cur = id`: triggers raised here onto other
            // tthreads are cascade wave units, same as stores made directly
            // by an inline body.
            let mut ctx = Ctx::new_for(state, inner, 1, Some(id));
            ctx.dispatch(entry.range);
        } else {
            state.lock_line.bump(Tally::commit_conflicts, 1);
            inner.obs.event(EventKind::CommitConflict, id, addr.raw());
        }
    }
    close_wave(state, inner, id, dispatched, changed);
}

/// Ends `id`'s wave epoch after an execution (inline run or commit) that
/// dispatched `dispatched` tracked stores, `changed` of them changing.
///
/// Early cutoff: a cascade-raised recomputation whose stores were all
/// silent stops the wave here — the transitive skip. Counted as a terminal
/// wave unit so `cascades == enqueues + coalesced + cutoffs` holds.
fn close_wave<U>(
    state: &mut State<U>,
    inner: &Inner<U>,
    id: TthreadId,
    dispatched: u64,
    changed: u64,
) {
    let wave = state.graph.wave_depth(id);
    if wave == 0 {
        return;
    }
    if dispatched > 0 && changed == 0 {
        state.lock_line.bump(Tally::cascades, 1);
        state.lock_line.bump(Tally::cascade_cutoffs, 1);
        inner
            .obs
            .event(EventKind::CascadeCutoff, id, u64::from(wave));
    }
    state.graph.clear_depth(id);
}

/// Marks `id` poisoned after a panicking execution, leaving the runtime
/// usable for every other tthread. The run's taken changed set is lost
/// with it, so the next run recomputes everything.
fn poison<U>(state: &mut State<U>, inner: &Inner<U>, id: TthreadId) {
    state.graph.clear_depth(id);
    let slot = &inner.tthread(id).slot;
    slot.changed.set_all();
    slot.force_clean(POISONED);
}

impl<U: Send + 'static> Ctx<'_, U> {
    /// Execute tthread `id` on the current thread, re-running while
    /// retriggered. The caller must already have moved `id` to Running
    /// (a claim CAS).
    ///
    /// Completes with the CJ flag *preserved* (`try_complete(None)`): an
    /// overflow-inline run between a worker's commit and the next join
    /// must not turn a pending `Overlapped` report into a `Skipped` one.
    /// Join and force clear the flag themselves after their inline runs.
    ///
    /// # Panics
    ///
    /// Panics if the trigger cascade exceeds [`MAX_CASCADE_DEPTH`]. A panic
    /// from the tthread body itself is re-raised after the tthread is
    /// marked poisoned, so the runtime stays usable.
    pub(crate) fn run_inline(&mut self, id: TthreadId) {
        let next_depth = self.depth + 1;
        assert!(
            next_depth <= MAX_CASCADE_DEPTH,
            "{}",
            Error::CascadeDepthExceeded(MAX_CASCADE_DEPTH)
        );
        let inner = self.inner;
        let tthread = inner.tthread(id);
        let slot = &tthread.slot;
        loop {
            debug_assert_eq!(slot.status(), TthreadStatus::Running);
            // After the claim (or RF absorb), before the body's first read.
            let triggers = slot.changed.take();
            let state = self.locked();
            let outcome = run_body(inner, id, || {
                // One body execution = one wave epoch: its stores raise
                // each downstream tthread at most once.
                state.graph.begin_wave();
                let mut nested = Ctx::new_for(state, inner, next_depth, Some(id));
                nested.triggers = triggers;
                tthread.body()(&mut nested);
                (nested.body_dispatched, nested.body_changed)
            });
            let state = self.locked();
            let (dispatched, changed) = match outcome {
                Ok(counts) => counts,
                Err(payload) => {
                    poison(state, inner, id);
                    inner.wake_joiners();
                    resume_unwind(payload);
                }
            };
            state.lock_line.bump(Tally::executions, 1);
            state.lock_line.bump(Tally::inline_executions, 1);
            tthread.executions.bump();
            close_wave(state, inner, id, dispatched, changed);
            if slot.try_complete(None) {
                tthread.epoch.bump();
                break;
            }
            // A trigger landed mid-body (RF): absorb it into another run.
            slot.absorb_rf();
        }
        // An overflow-inline run on a worker or a helping joiner (a commit
        // cascade that found the queue full) can complete a tthread the
        // main thread is parked on: broadcast the completion eventcount
        // just like `run_claimed` does after its own runs.
        // Without workers nothing can be parked there — only `join` and
        // `force` park, only on Running or on Queued with a deadline and
        // workers to run it, and no other thread runs bodies — so the
        // broadcast is skipped.
        if !inner.deferred() {
            inner.wake_joiners();
        }
    }
}
