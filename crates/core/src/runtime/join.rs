//! The consumption point: `join` skips, runs, steals or waits for a
//! tthread; `force` runs it regardless. Also the status read,
//! `mark_dirty`, and clearing a poisoned or timed-out tthread.

use parking_lot::MutexGuard;

use super::exec::{host_has_cpus_to_spare, WINDOW_NS};
use super::{Raise, Runtime, State};
use crate::ctx::Ctx;
use crate::dispatch::{Slot, PARK_TIMEOUT, POISONED, TIMED_OUT};
use crate::error::{Error, Result};
use crate::eventcount::ParkOutcome;
use crate::obs::EventKind;
use crate::stats::Tally;
use crate::tthread::{TthreadId, TthreadStatus};

/// How a [`Runtime::join`] call was satisfied.
///
/// With the parallel executor, worker executions run off the state lock
/// against a view of tracked memory and *commit* their effects atomically
/// under the lock; `join` observes a tthread's effects if and only if its commit
/// happened before the join's status check. See the [`Runtime`] docs for
/// the full memory-consistency contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOutcome {
    /// No trigger fired since the last execution: the computation was
    /// skipped entirely. This is the paper's redundant-computation
    /// elimination.
    Skipped,
    /// A worker finished (committed) the recomputation before the main
    /// thread asked for it: the work was fully overlapped with main-thread
    /// progress.
    Overlapped,
    /// The tthread was in the triggered state and ran on the calling thread
    /// at the join point (deferred executor, or commit retry cap reached).
    RanInline,
    /// The tthread was still queued; the calling thread stole it from the
    /// queue and ran it itself.
    Stolen,
    /// The calling thread waited for a running worker to finish. While it
    /// waited it may have run other tthreads' queued bodies itself,
    /// detached, as a worker would (see [`Runtime::join`]).
    Waited,
}

/// The error a join or force of a failed tthread reports, read from its
/// slot's failure bits: poison first.
fn failure(slot: &Slot, tthread: TthreadId) -> Result<()> {
    let bits = slot.failure();
    if bits & POISONED != 0 {
        return Err(Error::TthreadPoisoned(tthread));
    }
    if bits & TIMED_OUT != 0 {
        return Err(Error::TthreadTimedOut(tthread));
    }
    Ok(())
}

impl<U: Send + 'static> Runtime<U> {
    /// The consumption point: ensures `tthread`'s outputs are up to date.
    ///
    /// * never triggered since its last run → **skip** (the elimination of
    ///   redundant computation);
    /// * completed on a worker → nothing to do, the work was overlapped;
    /// * triggered / still queued → run it on the calling thread now;
    /// * running on a worker → wait for it.
    ///
    /// While it waits, the calling thread does not just sleep: as long as
    /// the pending queue holds work it runs *other* tthreads' queued
    /// bodies itself, one at a time and exactly as a worker does —
    /// detached against a view of tracked memory, off the state lock,
    /// committed afterwards, under the body deadline if one is configured —
    /// and re-checks `tthread` after each. It parks only once the queue is
    /// empty. A tthread run this way reports [`JoinOutcome::Overlapped`]
    /// at its own next join, as after a worker's run.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTthread`] for a foreign id,
    /// [`Error::TthreadPoisoned`] if a previous execution of the tthread
    /// panicked (see [`Runtime::clear_poison`]) and
    /// [`Error::TthreadTimedOut`] if a previous execution overran the
    /// configured body deadline (see [`Runtime::clear_timeout`]).
    pub fn join(&mut self, tthread: TthreadId) -> Result<JoinOutcome> {
        self.check(tthread)?;
        // The skip is one load: no state lock and no RMW (the skip rule in
        // `crate::dispatch`). Every other state takes the locked path.
        let record = self.inner.tthread(tthread);
        let outcome = if record.slot.skippable() {
            JoinOutcome::Skipped
        } else {
            self.join_locked(tthread)?
        };
        if outcome == JoinOutcome::Skipped {
            let owner = &self.inner.counters.owner;
            owner.bump(Tally::joins, 1);
            owner.bump(Tally::skips, 1);
            record.skips.bump();
        }
        self.obs_join(tthread, outcome);
        Ok(outcome)
    }

    /// [`Runtime::join`] for every state but a plain skip: the status
    /// machine under the state lock, counting on the lock line. A skip
    /// found here is counted by the caller on the owner line, with the
    /// lock-free ones.
    fn join_locked(&self, tthread: TthreadId) -> Result<JoinOutcome> {
        let mut state = self.inner.state.lock();
        let slot = &self.inner.tthread(tthread).slot;
        let mut waited = false;
        loop {
            failure(slot, tthread)?;
            let status = slot.status();
            match status {
                TthreadStatus::Clean => {
                    // Consume the completed-since-join bit atomically with
                    // the Clean check; a concurrent trigger moving the
                    // state first just sends us around the loop.
                    let Some(overlapped) = slot.take_completed_if_clean() else {
                        continue;
                    };
                    let outcome = if waited {
                        state.lock_line.bump(Tally::waited_joins, 1);
                        JoinOutcome::Waited
                    } else if overlapped {
                        JoinOutcome::Overlapped
                    } else {
                        return Ok(JoinOutcome::Skipped);
                    };
                    state.lock_line.bump(Tally::joins, 1);
                    return Ok(outcome);
                }
                // Only the detached (worker) executor can enforce the body
                // deadline — an inline run writes straight to live memory,
                // so there is no write log to discard on overrun. With a
                // deadline configured and workers running, never steal a
                // queued execution inline: wait for a detached run under the
                // deadline — a worker's, or this thread's own while it helps
                // (which may pop this very entry). The park validates the
                // slot word, which the claim bumps. A drained runtime has no
                // worker left to wait for, so it steals like the deferred
                // executor.
                TthreadStatus::Queued
                    if self.inner.cfg.body_deadline.is_some() && !self.inner.deferred() =>
                {
                    waited = true;
                    state = self.park_until_moved(tthread, state);
                }
                // Run it here. A Queued steal takes the tthread's id out of
                // the queue with its claim, so no worker wakes to it. The
                // claim coalesces duplicate triggers into this one inline
                // run, so the rerun flag clears.
                TthreadStatus::Triggered | TthreadStatus::Queued => {
                    if !self.run_here(&mut state, tthread, status) {
                        continue;
                    }
                    state.lock_line.bump(Tally::joins, 1);
                    return Ok(if status == TthreadStatus::Triggered {
                        JoinOutcome::RanInline
                    } else {
                        JoinOutcome::Stolen
                    });
                }
                TthreadStatus::Running => {
                    waited = true;
                    state = self.park_until_moved(tthread, state);
                }
            }
        }
    }

    /// Claims `tthread` out of `from` into Running and runs it on the
    /// calling thread, then clears its completion report: the inline tail
    /// of join and force. `false` if the claim lost to a concurrent
    /// transition.
    fn run_here(&self, state: &mut State<U>, tthread: TthreadId, from: TthreadStatus) -> bool {
        let slot = &self.inner.tthread(tthread).slot;
        let claimed = if from == TthreadStatus::Queued {
            self.inner.pending.steal(slot, tthread.index() as u32)
        } else {
            slot.try_claim_from(from, true)
        };
        if !claimed {
            return false;
        }
        Ctx::new(state, &self.inner, 0).run_inline(tthread);
        slot.clear_completed();
        true
    }

    /// Waits for `tthread`'s status word to move, doing queued work
    /// meanwhile: releases the state lock entirely, then either runs one
    /// queued execution exactly as a worker does (detached, see
    /// `Inner::help`) or, with the queue empty, waits. At most one
    /// execution per call, so the caller re-checks its tthread after every
    /// helped body.
    ///
    /// The wait first spins for the search window while the tthread runs
    /// and the queue stays empty: a body about to finish costs no park and
    /// no wake. It returns early only if the word moved or work was
    /// queued, re-checked after the spin; otherwise it parks.
    ///
    /// The park is on the completion eventcount, keyed to the word. The
    /// token bumps on every state-changing transition, so the word is a
    /// generation counter: if the execution finishes (or even finishes and
    /// retriggers) between the read here and the sleep commit, the word has
    /// moved and the park is skipped. Every detached run broadcasts the
    /// eventcount after its transition out of Running, and the timed park
    /// rescues a dropped broadcast ([`crate::FaultPoint::JoinWake`]) within
    /// one park period. The caller thus never blocks or runs a body while
    /// holding the state lock; it gets the lock back on return.
    ///
    /// A silent timeout is a rescue only if the tthread has left Running:
    /// a retrigger of a running body or a worker's claim of a queued one
    /// moves the word with no broadcast, and the joiner sleeps on through
    /// both by design.
    fn park_until_moved<'a>(
        &'a self,
        tthread: TthreadId,
        state: MutexGuard<'a, State<U>>,
    ) -> MutexGuard<'a, State<U>> {
        let inner = &self.inner;
        let slot = &inner.tthread(tthread).slot;
        let observed = slot.word();
        drop(state);
        // Only `join` and `force` wait, and both take `&mut self`: this
        // thread owns the owner line.
        let owner = &inner.counters.owner;
        if inner.help(owner) {
            return inner.state.lock();
        }
        if slot.status() == TthreadStatus::Running && host_has_cpus_to_spare() {
            let deadline = inner.now() + WINDOW_NS;
            while slot.word() == observed && inner.pending.is_empty() && inner.now() < deadline {
                std::hint::spin_loop();
            }
            if slot.word() != observed || !inner.pending.is_empty() {
                return inner.state.lock();
            }
        }
        let (outcome, silent) = inner
            .completions
            .park_reporting(|| slot.word() != observed, PARK_TIMEOUT);
        if outcome == ParkOutcome::TimedOut {
            owner.bump(Tally::park_timeouts, 1);
            if silent && slot.word() != observed && slot.status() != TthreadStatus::Running {
                owner.bump(Tally::park_rescues, 1);
            }
        }
        inner.state.lock()
    }

    /// Records a join outcome into the status-machine ring.
    fn obs_join(&self, tthread: TthreadId, outcome: JoinOutcome) {
        let (kind, payload) = match outcome {
            JoinOutcome::Skipped => (EventKind::Skip, 0),
            JoinOutcome::Overlapped => (EventKind::Join, 1),
            JoinOutcome::RanInline => (EventKind::Join, 2),
            JoinOutcome::Stolen => (EventKind::Join, 3),
            JoinOutcome::Waited => (EventKind::Join, 4),
        };
        self.inner.obs.event(kind, tthread, payload);
    }

    /// Joins every registered tthread, in id order.
    ///
    /// # Errors
    ///
    /// Propagates the first error (none are expected for ids issued by this
    /// runtime).
    pub fn join_all(&mut self) -> Result<Vec<(TthreadId, JoinOutcome)>> {
        (0..self.registered)
            .map(|i| {
                let id = TthreadId::new(i as u32);
                self.join(id).map(|o| (id, o))
            })
            .collect()
    }

    /// Runs `tthread` on the calling thread right now, regardless of its
    /// trigger state (waits first if a worker is mid-execution, running
    /// other tthreads' queued bodies meanwhile as [`Runtime::join`] does).
    /// The run sees [`crate::Triggers::All`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTthread`] for a foreign id,
    /// [`Error::TthreadPoisoned`] after a panicked execution and
    /// [`Error::TthreadTimedOut`] after a deadline-flagged one.
    pub fn force(&mut self, tthread: TthreadId) -> Result<()> {
        self.check(tthread)?;
        let mut state = self.inner.state.lock();
        let slot = &self.inner.tthread(tthread).slot;
        loop {
            // Re-checked after every park, as in `join`: the execution
            // waited on may itself have panicked or overrun its deadline.
            failure(slot, tthread)?;
            match slot.status() {
                TthreadStatus::Running => state = self.park_until_moved(tthread, state),
                // Claim whatever state the tthread is in; a Queued one is
                // stolen, its id leaving the queue with the claim. `all` is
                // set before each claim attempt: a worker whose claim wins
                // takes it, and the next attempt sets it again.
                status => {
                    slot.changed.set_all();
                    if self.run_here(&mut state, tthread, status) {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Raises a trigger for `tthread` as if a watched value had changed.
    /// Its next run sees [`crate::Triggers::All`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTthread`] for a foreign id.
    pub fn mark_dirty(&mut self, tthread: TthreadId) -> Result<()> {
        self.check(tthread)?;
        let mut state = self.inner.state.lock();
        self.inner.tthread(tthread).slot.changed.set_all();
        if let Raise::Overflow = self.inner.raise(tthread, &state.lock_line) {
            Ctx::new(&mut state, &self.inner, 0).overflow(tthread);
        }
        Ok(())
    }

    /// Current status of `tthread` in the thread status table: one atomic
    /// load, no lock.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTthread`] for a foreign id.
    pub fn status(&self, tthread: TthreadId) -> Result<TthreadStatus> {
        self.check(tthread)?;
        Ok(self.inner.tthread(tthread).slot.status())
    }

    /// Clears the poisoned flag set when a tthread body panicked, making
    /// joins on it possible again. The tthread is left clean; call
    /// [`Runtime::force`] afterwards if its outputs must be rebuilt.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTthread`] for a foreign id.
    pub fn clear_poison(&mut self, tthread: TthreadId) -> Result<()> {
        self.clear_failure(tthread, POISONED)
    }

    /// Clears the timed-out flag set when a tthread body overran the
    /// configured deadline, making joins on it possible again. The tthread
    /// is left clean with its *pre-timeout* outputs (the overrunning
    /// execution's write log was discarded); call [`Runtime::force`]
    /// afterwards if its outputs must be rebuilt from current inputs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTthread`] for a foreign id.
    pub fn clear_timeout(&mut self, tthread: TthreadId) -> Result<()> {
        self.clear_failure(tthread, TIMED_OUT)
    }

    /// Clears one failure bit of the slot, under the state lock every
    /// failure is recorded under.
    fn clear_failure(&mut self, tthread: TthreadId, bit: u8) -> Result<()> {
        self.check(tthread)?;
        let _state = self.inner.state.lock();
        self.inner.tthread(tthread).slot.clear_failure(bit);
        Ok(())
    }
}
