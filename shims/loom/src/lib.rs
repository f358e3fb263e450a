//! Offline stand-in for the `loom` crate: a deterministic model checker for
//! small concurrent protocols.
//!
//! [`model()`] runs a closure again and again, once per schedule, until every
//! interleaving of its threads' visible operations has been tried. A
//! visible operation is an access to one of this crate's atomics, a
//! [`sync::Mutex`] lock, a [`sync::Condvar`] wait or a
//! [`thread::JoinHandle::join`]; the scheduler may switch threads before
//! each one. The exploration is a depth-first search over those choices,
//! bounded by the number of *preemptions* (switches away from a thread
//! that could have gone on), [`model::Builder::preemption_bound`], 2 by
//! default. A model has at most three threads, its own included.
//!
//! What it does not model, unlike upstream loom:
//!
//! * **Weak memory.** Exactly one thread runs between two choices, so
//!   every execution is sequentially consistent whatever `Ordering` the
//!   code passes. A protocol that is only correct under SC passes here.
//! * **Timeouts.** [`sync::Condvar::wait_for`] never times out inside a
//!   model, so a park nobody wakes is a deadlock, reported with its
//!   schedule, rather than a slow pass.
//! * **Spurious wakeups**, and `compare_exchange_weak`'s spurious failure.
//!
//! The one API deviation: [`sync::Mutex`] and [`sync::Condvar`] are
//! shaped like `parking_lot`'s (non-poisoning, `lock()` returns the guard,
//! `wait(&mut guard)`), so code written against `parking_lot` can switch
//! to them by its `use` lines alone. The atomics are `#[repr(transparent)]`
//! over `std`'s, and outside a model every type behaves exactly as the
//! type it stands for.
//!
//! A failure (a panic in any model thread, or a deadlock) stops the
//! exploration and panics with the failing schedule, which
//! [`model::Builder::replay`] runs again on its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rt;

pub mod model {
    //! The explorer: `Builder` and `model`.

    use std::sync::Arc;

    use crate::rt::{self, Path};

    /// How a model is explored.
    #[derive(Debug, Clone)]
    pub struct Builder {
        /// The most preemptions one schedule may contain. Default 2.
        pub preemption_bound: usize,
        /// Run only this schedule, as a failure report prints it.
        pub replay: Option<String>,
    }

    impl Default for Builder {
        fn default() -> Self {
            Builder {
                preemption_bound: 2,
                replay: None,
            }
        }
    }

    impl Builder {
        /// The default exploration.
        pub fn new() -> Self {
            Self::default()
        }

        /// Runs `f` under every schedule within the bounds, each execution
        /// joined before the next starts. Returns how many executions ran.
        ///
        /// # Panics
        ///
        /// Panics with the failing schedule if an execution panics or
        /// deadlocks.
        pub fn check<F>(&self, f: F) -> usize
        where
            F: Fn() + Sync + Send + 'static,
        {
            let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
            let mut path = self.replay.as_deref().map(Path::replay).unwrap_or_default();
            let mut executions = 0;
            loop {
                executions += 1;
                let (explored, failure) = rt::execute(Arc::clone(&f), path, self.preemption_bound);
                if let Some(report) = failure {
                    panic!("model failed in execution {executions}: {report}");
                }
                path = explored;
                if !path.step() {
                    return executions;
                }
            }
        }
    }

    /// Explores `f` with the default [`Builder`].
    pub fn model<F>(f: F)
    where
        F: Fn() + Sync + Send + 'static,
    {
        Builder::new().check(f);
    }
}

pub use model::model;

pub mod thread {
    //! Model threads.

    use std::sync::{Arc, Mutex, PoisonError};

    use crate::rt::{self, Wait};

    /// A handle to a spawned thread.
    #[derive(Debug)]
    pub struct JoinHandle<T>(Inner<T>);

    #[derive(Debug)]
    enum Inner<T> {
        Std(std::thread::JoinHandle<T>),
        Model(usize, Arc<Mutex<Option<T>>>),
    }

    /// Spawns a thread: a model thread inside [`crate::model()`], an OS
    /// thread outside.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        if !rt::in_model() {
            return JoinHandle(Inner::Std(std::thread::spawn(f)));
        }
        let out = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&out);
        let id = rt::spawn(move || {
            let value = f();
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        });
        JoinHandle(Inner::Model(id, out))
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish and returns its result. A panic
        /// in a model thread fails the whole execution instead.
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Inner::Std(handle) => handle.join(),
                Inner::Model(id, out) => {
                    rt::branch();
                    while !rt::is_done(id) {
                        rt::block(Wait::Join(id));
                    }
                    let value = out.lock().unwrap_or_else(PoisonError::into_inner).take();
                    Ok(value.expect("a finished thread left its result"))
                }
            }
        }
    }
}

pub mod sync {
    //! Atomics, `Mutex` and `Condvar` that yield to the scheduler.

    use std::ops::{Deref, DerefMut};
    use std::sync::{self as std_sync, PoisonError, TryLockError};
    use std::time::Duration;

    pub use std::sync::Arc;

    use crate::rt::{self, Wait};

    fn addr<T: ?Sized>(x: &T) -> usize {
        (x as *const T).cast::<()>() as usize
    }

    pub mod atomic {
        //! Atomics that are a choice point before every access.

        use std::fmt;

        pub use std::sync::atomic::Ordering;

        use crate::rt::branch;

        macro_rules! atomic {
            ($name:ident, $t:ty) => {
                #[doc = concat!("`std::sync::atomic::", stringify!($name), "`, a choice point before every access.")]
                #[derive(Default)]
                #[repr(transparent)]
                pub struct $name(std::sync::atomic::$name);

                impl fmt::Debug for $name {
                    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        self.0.fmt(f)
                    }
                }

                impl $name {
                    /// A new atomic holding `v`.
                    pub const fn new(v: $t) -> Self {
                        $name(std::sync::atomic::$name::new(v))
                    }

                    /// Loads the value.
                    pub fn load(&self, order: Ordering) -> $t {
                        branch();
                        self.0.load(order)
                    }

                    /// Stores `v`.
                    pub fn store(&self, v: $t, order: Ordering) {
                        branch();
                        self.0.store(v, order)
                    }

                    /// Swaps in `v`, returning the old value.
                    pub fn swap(&self, v: $t, order: Ordering) -> $t {
                        branch();
                        self.0.swap(v, order)
                    }

                    /// Stores `new` if the value is `cur`.
                    pub fn compare_exchange(
                        &self,
                        cur: $t,
                        new: $t,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$t, $t> {
                        branch();
                        self.0.compare_exchange(cur, new, success, failure)
                    }

                    /// Applies `f` until it lands: one step in a model, as
                    /// nothing else runs between its load and its store.
                    pub fn fetch_update<F>(
                        &self,
                        set: Ordering,
                        fetch: Ordering,
                        f: F,
                    ) -> Result<$t, $t>
                    where
                        F: FnMut($t) -> Option<$t>,
                    {
                        branch();
                        self.0.fetch_update(set, fetch, f)
                    }

                    /// Bitwise or, returning the old value.
                    pub fn fetch_or(&self, v: $t, order: Ordering) -> $t {
                        branch();
                        self.0.fetch_or(v, order)
                    }

                    /// Bitwise and, returning the old value.
                    pub fn fetch_and(&self, v: $t, order: Ordering) -> $t {
                        branch();
                        self.0.fetch_and(v, order)
                    }
                }
            };
        }

        macro_rules! atomic_int {
            ($name:ident, $t:ty) => {
                atomic!($name, $t);

                impl $name {
                    /// Wrapping add, returning the old value.
                    pub fn fetch_add(&self, v: $t, order: Ordering) -> $t {
                        branch();
                        self.0.fetch_add(v, order)
                    }

                    /// Wrapping subtract, returning the old value.
                    pub fn fetch_sub(&self, v: $t, order: Ordering) -> $t {
                        branch();
                        self.0.fetch_sub(v, order)
                    }
                }
            };
        }

        atomic!(AtomicBool, bool);
        atomic_int!(AtomicU8, u8);
        atomic_int!(AtomicU64, u64);
        atomic_int!(AtomicUsize, usize);
    }

    /// A non-poisoning mutex shaped like `parking_lot::Mutex`. Inside a
    /// model a contended lock blocks the thread in the scheduler.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct Mutex<T: ?Sized> {
        inner: std_sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// A lock owning `value`.
        pub const fn new(value: T) -> Self {
            Mutex {
                inner: std_sync::Mutex::new(value),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            if !rt::in_model() {
                let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                return MutexGuard {
                    lock: self,
                    inner: Some(inner),
                };
            }
            rt::branch();
            self.acquire()
        }

        /// Takes the lock in a model: retries each time the holder lets
        /// it go.
        fn acquire(&self) -> MutexGuard<'_, T> {
            loop {
                match self.inner.try_lock() {
                    Ok(inner) => {
                        return MutexGuard {
                            lock: self,
                            inner: Some(inner),
                        }
                    }
                    Err(TryLockError::Poisoned(e)) => {
                        return MutexGuard {
                            lock: self,
                            inner: Some(e.into_inner()),
                        }
                    }
                    Err(TryLockError::WouldBlock) => rt::block(Wait::Lock(addr(self))),
                }
            }
        }
    }

    /// The guard of a [`Mutex`]; unlocks on drop.
    pub struct MutexGuard<'a, T: ?Sized> {
        lock: &'a Mutex<T>,
        inner: Option<std_sync::MutexGuard<'a, T>>,
    }

    impl<T: ?Sized> MutexGuard<'_, T> {
        /// Unlocks, and in a model makes the lock's waiters runnable.
        fn release(&mut self) {
            drop(self.inner.take());
            let at = addr(self.lock);
            rt::wake(|w| w == Wait::Lock(at));
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.inner.is_some() {
                self.release();
            }
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard released during a wait")
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard released during a wait")
        }
    }

    /// A condition variable shaped like `parking_lot::Condvar`. Inside a
    /// model a wait blocks until a notify and never times out.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct Condvar {
        inner: std_sync::Condvar,
    }

    impl Condvar {
        /// A condition variable.
        pub const fn new() -> Self {
            Condvar {
                inner: std_sync::Condvar::new(),
            }
        }

        /// Releases the guard's lock, waits for a notify, and retakes it.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            if rt::in_model() {
                self.model_wait(guard);
                return;
            }
            let inner = guard.inner.take().expect("guard released during a wait");
            let inner = self
                .inner
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            guard.inner = Some(inner);
        }

        /// [`Condvar::wait`] for at most `timeout`; `true` if it timed
        /// out. Inside a model it never does.
        pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
            if rt::in_model() {
                self.model_wait(guard);
                return false;
            }
            let inner = guard.inner.take().expect("guard released during a wait");
            let (inner, result) = self
                .inner
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            guard.inner = Some(inner);
            result.timed_out()
        }

        /// Unlocking and joining the waiters is one step: no other thread
        /// runs between the two.
        fn model_wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            rt::branch();
            guard.release();
            rt::block(Wait::Cond(addr(self), 0));
            let retaken = guard.lock.acquire();
            guard.inner = retaken.lock_inner_take();
        }

        /// Wakes one waiter (the oldest, in a model).
        pub fn notify_one(&self) {
            if rt::in_model() {
                rt::branch();
                rt::wake_oldest(addr(self));
            } else {
                self.inner.notify_one();
            }
        }

        /// Wakes every waiter.
        pub fn notify_all(&self) {
            if rt::in_model() {
                rt::branch();
                let at = addr(self);
                rt::wake(|w| matches!(w, Wait::Cond(a, _) if a == at));
            } else {
                self.inner.notify_all();
            }
        }
    }

    impl<'a, T: ?Sized> MutexGuard<'a, T> {
        /// Moves the std guard out, leaving this one inert.
        fn lock_inner_take(mut self) -> Option<std_sync::MutexGuard<'a, T>> {
            self.inner.take()
        }
    }
}
