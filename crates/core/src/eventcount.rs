//! The eventcount: the one park/wake primitive in the workspace.
//!
//! Producers publish their change, then bump an epoch and notify only if a
//! sleeper is announced; consumers read the epoch, check their predicate,
//! announce themselves and validate the epoch before sleeping
//! (announce-then-validate), so a wake between "nothing to do" and
//! "committed to sleep" is never lost. Its clients are the runtime's
//! dispatch path (idle workers, joiners waiting on a completion, the
//! shutdown join) and `dtt-serve` (event workers napping between sweeps,
//! woken by engine replies and new connections).

use std::time::Duration;

use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering};

/// How one [`Waiters::park`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkOutcome {
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
/// "committed to sleep" is never lost. Parks are *timed* (the runtime
/// uses [`crate::PARK_TIMEOUT`]) as a belt-and-braces bound: an injected
/// lost wakeup ([`crate::fault::FaultPoint::WakeDrop`]) delays a dispatch
/// by at most one park period. [`Waiters::close`] latches the eventcount shut for
/// shutdown: every parked waiter is broadcast awake and later park
/// attempts return immediately, so quiesce never rides out a park period.
#[derive(Debug, Default)]
pub struct Waiters {
    epoch: AtomicU64,
    sleepers: AtomicUsize,
    closed: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Waiters {
    /// Wakes at most one parked worker. Returns whether a notification was
    /// actually sent (no sleeper → no syscall, no wake).
    pub fn wake_one(&self) -> bool {
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
    pub fn wake_all(&self) {
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
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Whether [`Waiters::close`] has been called.
    pub fn is_closed(&self) -> bool {
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
    pub fn park(&self, work_available: impl Fn() -> bool, timeout: Duration) -> ParkOutcome {
        self.park_reporting(work_available, timeout).0
    }

    /// [`Waiters::park`], also reporting whether a timeout was *silent*:
    /// the epoch had not moved since validation, so no producer woke this
    /// eventcount, not even late, while the caller slept. The runtime's
    /// park sites count a silent timeout whose predicate is true on return
    /// as a rescue: the work arrived and its wake was lost.
    pub(crate) fn park_reporting(
        &self,
        work_available: impl Fn() -> bool,
        timeout: Duration,
    ) -> (ParkOutcome, bool) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        if work_available() || self.is_closed() {
            return (ParkOutcome::Skipped, false);
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
            return (ParkOutcome::Skipped, false);
        }
        let timed_out = self.cv.wait_for(&mut guard, timeout);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        if timed_out {
            let silent = self.epoch.load(Ordering::SeqCst) == epoch;
            (ParkOutcome::TimedOut, silent)
        } else {
            (ParkOutcome::Woken, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Nobody bumped the epoch: the timeout is silent. A skipped park
        // never is.
        assert_eq!(
            w.park_reporting(|| false, Duration::from_millis(1)),
            (ParkOutcome::TimedOut, true)
        );
        assert_eq!(
            w.park_reporting(|| true, Duration::from_millis(1)),
            (ParkOutcome::Skipped, false)
        );
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
}
