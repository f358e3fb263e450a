//! Offline stand-in for the `parking_lot` crate.
//!
//! This workspace builds in environments with no crates.io access, so the
//! handful of `parking_lot` APIs the runtime uses are re-implemented here on
//! top of `std::sync`. Semantics match `parking_lot` where it matters to the
//! callers:
//!
//! * locks are **non-poisoning** — a panic while holding a guard does not
//!   wedge later lockers (we recover the inner guard from the std poison
//!   error);
//! * [`Mutex::lock`] returns its guard directly, not a `Result`;
//! * [`Condvar::wait`] takes `&mut MutexGuard` instead of consuming the
//!   guard.
//!
//! Only the surface the `dtt` workspace actually calls is provided.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Deref, DerefMut};
use std::sync;

/// A mutual-exclusion lock with `parking_lot`'s non-poisoning interface.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a lock owning `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(
                self.inner
                    .lock()
                    .unwrap_or_else(sync::PoisonError::into_inner),
            ),
        }
    }

    /// Attempts to acquire the lock without blocking, matching
    /// `parking_lot::Mutex::try_lock`'s `Option` return (a poisoned lock
    /// is treated as acquired, consistent with [`Mutex::lock`]).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { inner: Some(guard) }),
            Err(sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }
}

/// RAII guard returned by [`Mutex::lock`].
///
/// The inner std guard lives in an `Option` so [`Condvar::wait`] can move it
/// out and back without consuming this wrapper.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard moved during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard moved during wait")
    }
}

/// A condition variable pairing with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Atomically releases the guarded lock and blocks until notified; the
    /// lock is reacquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let taken = guard.inner.take().expect("guard moved during wait");
        let reacquired = self
            .inner
            .wait(taken)
            .unwrap_or_else(sync::PoisonError::into_inner);
        guard.inner = Some(reacquired);
    }

    /// Atomically releases the guarded lock and blocks until notified or the
    /// timeout elapses; the lock is reacquired before returning. Returns
    /// `true` if the wait timed out (matching `parking_lot`'s
    /// `WaitTimeoutResult::timed_out`).
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) -> bool {
        let taken = guard.inner.take().expect("guard moved during wait");
        let (reacquired, result) = self
            .inner
            .wait_timeout(taken, timeout)
            .unwrap_or_else(sync::PoisonError::into_inner);
        guard.inner = Some(reacquired);
        result.timed_out()
    }

    /// Wakes one blocked waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every blocked waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_signals_across_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut guard = lock.lock();
            while !*guard {
                cv.wait(&mut guard);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out_and_reacquires() {
        let lock = Mutex::new(7);
        let cv = Condvar::new();
        let mut guard = lock.lock();
        let timed_out = cv.wait_for(&mut guard, std::time::Duration::from_millis(5));
        assert!(timed_out);
        // The guard is live again after the timed wait.
        *guard += 1;
        drop(guard);
        assert_eq!(*lock.lock(), 8);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
