//! The worker pool's lifetime: starting the workers, draining them in
//! place, and the consuming shutdown that hands back the heap and the user
//! state.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use super::{exec, Inner, Runtime};
use crate::error::{Error, Result};
use crate::eventcount::Waiters;
use crate::heap::TrackedHeap;

/// Owns the worker threads; dropping it shuts them down and joins them.
pub(super) struct WorkerPool<U> {
    inner: Arc<Inner<U>>,
    pub(super) handles: Vec<thread::JoinHandle<()>>,
    exits: Arc<Exits>,
}

/// How a deadline-bounded join learns that workers are gone. It lives
/// outside [`Inner`] because a worker signals *after* releasing its
/// `Arc<Inner>` clone: once `count` reaches the pool size no worker holds a
/// reference the consuming teardown's `try_unwrap` could trip over.
#[derive(Default)]
struct Exits {
    count: AtomicUsize,
    waiters: Waiters,
}

/// Signals one worker's exit on drop, so an unwinding worker counts too.
struct ExitSignal(Arc<Exits>);

impl Drop for ExitSignal {
    fn drop(&mut self) {
        self.0.count.fetch_add(1, Ordering::SeqCst);
        self.0.waiters.wake_all();
    }
}

impl<U> Drop for WorkerPool<U> {
    fn drop(&mut self) {
        let _ = self.stop(None);
    }
}

impl<U: Send + 'static> WorkerPool<U> {
    /// Spawns `workers` threads running the worker loop over `inner`.
    pub(super) fn start(inner: &Arc<Inner<U>>, workers: usize) -> Self {
        let exits = Arc::new(Exits::default());
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(inner);
                let exits = Arc::clone(&exits);
                thread::Builder::new()
                    .name(format!("dtt-worker-{i}"))
                    .spawn(move || {
                        // Locals drop in reverse order: `inner` is released
                        // before the signal fires.
                        let _signal = ExitSignal(exits);
                        let inner = inner;
                        exec::worker_loop(&inner, i);
                    })
                    .expect("failed to spawn dtt worker")
            })
            .collect();
        WorkerPool {
            inner: Arc::clone(inner),
            handles,
            exits,
        }
    }
}

impl<U> WorkerPool<U> {
    /// Stops the workers and joins them, waiting at most `timeout` (`None`:
    /// unbounded) for every one to exit. A second call finds no handles
    /// and returns `Ok` without signalling again.
    ///
    /// The signal sets the sticky `shutdown` flag, then *closes* both
    /// dispatch eventcounts rather than merely waking them — a closed
    /// eventcount refuses every future park, so a worker that checks the
    /// flag just before it is set still cannot oversleep, and quiescing
    /// never costs a park timeout.
    ///
    /// With a timeout, the handles are joined only once every worker has
    /// signalled its exit. A worker signals after releasing its
    /// `Arc<Inner>` clone (see [`Exits`]), so a clean return also means the
    /// consuming teardown's `try_unwrap` cannot race a worker that finished
    /// its loop but still holds a reference. The wait parks on the exit
    /// eventcount — the last worker out wakes it — with the caller's
    /// deadline as the only timer. On the deadline the handles are
    /// dropped, which detaches the stragglers.
    fn stop(&mut self, timeout: Option<Duration>) -> Result<()> {
        if self.handles.is_empty() {
            return Ok(());
        }
        let handles = std::mem::take(&mut self.handles);
        let dispatch = &self.inner.dispatch;
        self.inner.shutdown.store(true, Ordering::SeqCst);
        dispatch.waiters.close();
        dispatch.completions.close();
        if let Some(timeout) = timeout {
            let deadline = Instant::now() + timeout;
            let exited = || self.exits.count.load(Ordering::SeqCst);
            while exited() < handles.len() {
                let now = Instant::now();
                if now >= deadline {
                    return Err(Error::WorkersStillActive {
                        active: handles.len().saturating_sub(exited()).max(1),
                    });
                }
                self.exits
                    .waiters
                    .park(|| exited() >= handles.len(), deadline - now);
            }
        }
        // Every worker is past its loop (or the caller asked for an
        // unbounded wait): the joins only ride out thread epilogues.
        for handle in handles {
            let _ = handle.join();
        }
        Ok(())
    }
}

impl<U: Send + 'static> Runtime<U> {
    /// Shuts the workers down and returns the tracked heap and user state.
    ///
    /// Blocks until every worker has exited (a worker mid-body finishes its
    /// current execution first). Pending (queued but unexecuted) tthreads
    /// are *not* run; call [`Runtime::join_all`] first if their outputs
    /// matter. For a bounded wait use [`Runtime::shutdown`].
    pub fn into_state(self) -> (TrackedHeap, U) {
        self.teardown(None)
            .expect("workers joined without a deadline; no references can remain")
    }

    /// Gracefully shuts the runtime down, waiting at most `timeout` for the
    /// workers to drain, and returns the tracked heap and user state.
    ///
    /// Pending tthreads are *not* run (see [`Runtime::into_state`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WorkersStillActive`] if some worker is still mid-
    /// execution at the deadline. The stragglers are detached — they exit
    /// on their own once their current body finishes and they observe the
    /// shutdown flag — but the heap and user state are torn down with them
    /// and cannot be returned.
    pub fn shutdown(self, timeout: Duration) -> Result<(TrackedHeap, U)> {
        self.teardown(Some(timeout))
    }

    /// Drains the worker pool in place, waiting at most `timeout` for the
    /// workers to exit, and leaves the runtime usable as a deferred
    /// executor: from here on a trigger marks its tthread Triggered and
    /// the tthread runs at its join point, as with zero workers. A tthread
    /// still queued when the workers left is stolen by its next join.
    ///
    /// **Idempotent**: a second call — a drain path racing a signal
    /// handler, or a drain followed by [`Runtime::shutdown`] — finds no
    /// handles and returns `Ok` immediately without re-signalling or
    /// re-closing the dispatch eventcounts. The serve front-end's
    /// drain-mode shutdown leans on this: it can always drain defensively
    /// without tracking whether another path got there first.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WorkersStillActive`] if some worker is still mid-
    /// execution at the deadline. The stragglers are detached and exit on
    /// their own once their current body finishes.
    pub fn drain(&mut self, timeout: Duration) -> Result<()> {
        self.pool.stop(Some(timeout))
    }

    fn teardown(self, timeout: Option<Duration>) -> Result<(TrackedHeap, U)> {
        let Runtime {
            inner, mut pool, ..
        } = self;
        pool.stop(timeout)?;
        drop(pool); // releases the pool's `Arc<Inner>` clone
        let inner = Arc::try_unwrap(inner).map_err(|arc| Error::WorkersStillActive {
            // One count is the `arc` binding itself; the rest are workers
            // that finished their loop but have not fully exited yet.
            active: Arc::strong_count(&arc).saturating_sub(1),
        })?;
        let state = inner.state.into_inner();
        Ok((inner.mem.into_heap(), state.user))
    }
}
