//! The model-checked harnesses. Each test runs a small protocol scenario
//! under every schedule of its (at most three) threads within the
//! checker's preemption bound; a failed assertion, a panic inside the
//! protocol or a deadlock fails it with the schedule that led there.
//!
//! * Harness 1, the eventcount: a waiter that validates and parks never
//!   sleeps through an epoch bump, against one waker, against a
//!   broadcaster, and against `close()`.
//! * Harness 2, the slot word with the pending queue and the changed set:
//!   raisers, a worker's pop-claim, a join's steal or Triggered claim,
//!   completion with its RF reruns, and a failing run's `force_clean`.
//!
//! Run them alone with `cargo test -q -p dtt-core --lib sync::`.

use std::sync::Mutex as GhostLock;

use loom::model::Builder;
use loom::sync::Arc;
use loom::thread;

use super::{AtomicBool, Ordering::SeqCst};
use crate::addr::{Addr, AddrRange};
use crate::changed::Triggers;
use crate::dispatch::{PendingQueue, RaiseStep, Slot, PARK_TIMEOUT, POISONED};
use crate::eventcount::{ParkOutcome, Waiters};
use crate::tthread::TthreadStatus as S;

/// Explores `f` with the default bound and returns the executions run.
fn check(f: impl Fn() + Sync + Send + 'static) -> usize {
    Builder::new().check(f)
}

// ---------------------------------------------------------------------
// Harness 1: the eventcount.

/// Waits on `w` until `flag` is up, as the runtime's waiters do: the park
/// predicate is the flag, so a park sleeps only after validating that no
/// wake came since its epoch read. A lost wake leaves it asleep with
/// nobody left to wake it, which the checker reports as a deadlock.
fn wait_for(w: &Waiters, flag: &AtomicBool) {
    while !flag.load(SeqCst) {
        let outcome = w.park(|| flag.load(SeqCst), PARK_TIMEOUT);
        assert_ne!(outcome, ParkOutcome::TimedOut, "no timeouts in a model");
    }
}

#[test]
fn eventcount_waiter_never_sleeps_through_a_wake_one() {
    let runs = check(|| {
        let w = Arc::new((Waiters::default(), AtomicBool::new(false)));
        let waker = thread::spawn({
            let w = Arc::clone(&w);
            move || {
                w.1.store(true, SeqCst);
                w.0.wake_one();
            }
        });
        wait_for(&w.0, &w.1);
        waker.join().unwrap();
    });
    assert!(runs > 1);
}

#[test]
fn eventcount_waiters_never_sleep_through_a_broadcast() {
    let runs = check(|| {
        let w = Arc::new((Waiters::default(), AtomicBool::new(false)));
        let other = thread::spawn({
            let w = Arc::clone(&w);
            move || wait_for(&w.0, &w.1)
        });
        let broadcaster = thread::spawn({
            let w = Arc::clone(&w);
            move || {
                w.1.store(true, SeqCst);
                w.0.wake_all();
            }
        });
        wait_for(&w.0, &w.1);
        other.join().unwrap();
        broadcaster.join().unwrap();
    });
    assert!(runs > 1);
}

#[test]
fn eventcount_close_wakes_a_parker_and_refuses_later_parks() {
    let runs = check(|| {
        let w = Arc::new(Waiters::default());
        let closer = thread::spawn({
            let w = Arc::clone(&w);
            move || w.close()
        });
        // A worker's loop: re-check the shutdown latch after every park.
        while !w.is_closed() {
            w.park(|| false, PARK_TIMEOUT);
        }
        closer.join().unwrap();
        assert_eq!(w.park(|| false, PARK_TIMEOUT), ParkOutcome::Skipped);
    });
    assert!(runs > 1);
}

// ---------------------------------------------------------------------
// Harness 2: the slot word, the pending queue and the changed set.

/// One raise: its range, when its push landed, when its status-word RMW
/// landed, and whether a successful completion has answered it since.
#[derive(Debug)]
struct Raised {
    range: AddrRange,
    pushed: u64,
    rmw: u64,
    answered: bool,
}

/// What the scenario has done so far, kept beside the protocol in plain
/// memory. Exactly one model thread runs between two choice points, and
/// no ghost access is one, so a ghost update made right after an
/// operation returns is atomic with that operation's last access.
#[derive(Debug, Default)]
struct Ghost {
    clock: u64,
    raises: Vec<Raised>,
    /// Each take: when, and which ranges it returned (`None`: `All`).
    takes: Vec<(u64, Option<Vec<AddrRange>>)>,
    /// When the last body run took its changed set.
    last_start: u64,
    /// A claim owns the tthread.
    claimed: bool,
}

impl Ghost {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Whether a take after the push of `r` returned its range or `All`.
    fn covered(&self, r: &Raised) -> bool {
        self.takes.iter().any(|(at, taken)| {
            *at > r.pushed
                && taken
                    .as_ref()
                    .is_none_or(|ranges| ranges.contains(&r.range))
        })
    }
}

/// One tthread (id 0): its slot, a pending queue of one entry, and the
/// ghost state the checks read.
struct World {
    slot: Slot,
    queue: PendingQueue,
    /// `false`: the deferred executor, which raises Clean→Triggered.
    queued: bool,
    ghost: GhostLock<Ghost>,
}

/// Whether a run ends in a committed completion or a failure.
#[derive(Clone, Copy, PartialEq)]
enum End {
    Commit,
    Fail,
}

impl World {
    fn new(queued: bool) -> Arc<World> {
        Arc::new(World {
            slot: Slot::default(),
            queue: PendingQueue::new(1),
            queued,
            ghost: GhostLock::default(),
        })
    }

    fn ghost(&self) -> std::sync::MutexGuard<'_, Ghost> {
        self.ghost.lock().unwrap()
    }

    /// A raise as `Ctx::raise_hits` makes it: push the store's range, then
    /// the status-word RMW. Returns the raise's index and step.
    fn raise(&self, start: u64, refuse: bool) -> (usize, RaiseStep) {
        let range = AddrRange::new(Addr::new(start), 1);
        self.slot.changed.push(range);
        let pushed = self.ghost().tick();
        let pending = self.queued.then_some(&self.queue);
        let step = self.slot.raise(false, pending, 0, || refuse);
        let mut g = self.ghost();
        let rmw = g.tick();
        g.raises.push(Raised {
            range,
            pushed,
            rmw,
            answered: false,
        });
        (g.raises.len() - 1, step)
    }

    /// Records a successful claim: no tthread is claimed twice.
    fn claimed(&self) {
        let mut g = self.ghost();
        assert!(!g.claimed, "a tthread was claimed twice");
        g.claimed = true;
    }

    /// Runs the claimed tthread as `run_detached` and `run_inline` do:
    /// take the changed set, run, then complete, or absorb RF and run
    /// again. A failing run saturates the set and publishes its failure.
    fn run(&self, end: End, completed_since_join: Option<bool>) {
        loop {
            let taken = match self.slot.changed.take() {
                Triggers::All => None,
                Triggers::Ranges(set) => Some(set.iter().collect()),
            };
            {
                let mut g = self.ghost();
                let at = g.tick();
                g.takes.push((at, taken));
                g.last_start = at;
                // Released before the completing RMW: once it lands, a new
                // claim may legally follow at once.
                g.claimed = false;
            }
            if end == End::Fail {
                self.slot.changed.set_all();
                self.slot.force_clean(POISONED);
                return;
            }
            if self.slot.try_complete(completed_since_join) {
                return self.answer();
            }
            self.ghost().claimed = true;
            self.slot.absorb_rf();
        }
    }

    /// A successful completion answers every raise whose RMW it follows;
    /// each must have had its range taken after its push.
    fn answer(&self) {
        let mut g = self.ghost();
        let at = g.tick();
        let open: Vec<usize> = (0..g.raises.len())
            .filter(|&i| !g.raises[i].answered && g.raises[i].rmw < at)
            .collect();
        for i in open {
            let r = &g.raises[i];
            assert!(g.covered(r), "a run answered {r:?} without its range");
            g.raises[i].answered = true;
        }
    }

    /// A worker's turn: pop-claim the queued tthread, if any, and run it.
    fn work(&self, end: End) {
        if self.queue.claim(|_| &self.slot).is_some() {
            self.claimed();
            self.run(end, Some(true));
        }
    }

    /// Claims the tthread out of `from` into Running on the caller: a
    /// steal of a queued one (its id leaves the queue), or a claim of a
    /// Triggered or Clean one. `false` if the word moved first.
    fn claim_here(&self, from: S) -> bool {
        let claimed = if from == S::Queued {
            self.queue.steal(&self.slot, 0)
        } else {
            self.slot.try_claim_from(from, true)
        };
        if claimed {
            self.claimed();
        }
        claimed
    }

    /// A join as `Runtime::join` makes it, less the wait: the lock-free
    /// skip, else a failure report, a consumed completion, or a steal or
    /// Triggered claim run here. A Running tthread is left to its runner.
    /// `mine` are the raises this thread made before the join.
    fn join(&self, mine: &[usize]) {
        if self.slot.skippable() {
            let g = self.ghost();
            for &i in mine {
                let r = &g.raises[i];
                assert!(r.answered, "skipped while {r:?} is unanswered");
            }
            return;
        }
        loop {
            if self.slot.failure() != 0 {
                return;
            }
            match self.slot.status() {
                S::Running => return,
                S::Clean => {
                    if self.slot.take_completed_if_clean().is_some() {
                        return;
                    }
                }
                from => {
                    if self.claim_here(from) {
                        self.run(End::Commit, None);
                        self.slot.clear_completed();
                        return;
                    }
                }
            }
        }
    }

    /// After every thread has finished: the queue holds the id exactly
    /// while the word reads Queued; then, as a `force` after clearing a
    /// failure, or a join of a pending tthread, would, the tthread runs
    /// once more. After that nothing is pending, the changed set is
    /// empty, every raise is answered, and the last run took its set
    /// after the last raise: no RF and no range was lost.
    fn quiesce(&self) {
        let queued = self.slot.status() == S::Queued;
        assert_eq!(self.queue.len(), usize::from(queued), "queue vs word");
        let failed = self.slot.failure() != 0;
        if failed {
            self.slot.clear_failure(POISONED);
            self.slot.changed.set_all();
        }
        let status = self.slot.status();
        assert_ne!(status, S::Running, "a finished thread left its claim");
        if failed || status != S::Clean {
            assert!(self.claim_here(status));
            self.run(End::Commit, None);
        }
        assert_eq!(self.slot.status(), S::Clean);
        assert_eq!(self.queue.len(), 0);
        assert_eq!(
            self.slot.changed.take(),
            Triggers::Ranges(Default::default()),
            "a range outlived every run"
        );
        let g = self.ghost();
        for r in &g.raises {
            assert!(r.answered, "{r:?} was never answered");
        }
        let last_raise = g.raises.iter().map(|r| r.rmw).max().unwrap_or(0);
        assert!(
            g.last_start > last_raise,
            "RF lost: no run after the last raise"
        );
    }
}

/// The main thread raises and joins; a worker pops and runs, ending in
/// `end`; a second thread raises beside them.
fn raise_join_work(end: End) -> impl Fn() + Sync + Send + 'static {
    move || {
        let w = World::new(true);
        let worker = thread::spawn({
            let w = Arc::clone(&w);
            move || w.work(end)
        });
        let raiser = thread::spawn({
            let w = Arc::clone(&w);
            move || {
                w.raise(20, false);
            }
        });
        let (mine, _) = w.raise(10, false);
        w.join(&[mine]);
        worker.join().unwrap();
        raiser.join().unwrap();
        w.quiesce();
    }
}

#[test]
fn slot_raise_claim_steal_and_complete_lose_nothing() {
    assert!(check(raise_join_work(End::Commit)) > 1);
}

#[test]
fn slot_failed_run_is_never_skipped() {
    assert!(check(raise_join_work(End::Fail)) > 1);
}

#[test]
fn slot_overflow_claim_and_triggered_claim_lose_nothing() {
    // The deferred executor: raises go Clean→Triggered and the join claims
    // Triggered→Running. Beside them a queued raise that finds the queue
    // refused claims Clean→Running and runs inline, as `Ctx::overflow`.
    let runs = check(|| {
        let w = World::new(false);
        let raiser = thread::spawn({
            let w = Arc::clone(&w);
            move || {
                w.raise(20, false);
            }
        });
        let (mine, _) = w.raise(10, false);
        w.join(&[mine]);
        raiser.join().unwrap();
        w.quiesce();
    });
    assert!(runs > 1);
    let runs = check(|| {
        let w = World::new(true);
        let overflow = thread::spawn({
            let w = Arc::clone(&w);
            move || {
                if w.raise(20, true).1 == RaiseStep::Overflow {
                    w.claimed();
                    w.run(End::Commit, None);
                }
            }
        });
        let (mine, _) = w.raise(10, false);
        w.join(&[mine]);
        w.work(End::Commit);
        overflow.join().unwrap();
        w.quiesce();
    });
    assert!(runs > 1);
}
