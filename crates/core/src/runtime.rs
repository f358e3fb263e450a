//! The data-triggered-threads runtime.
//!
//! [`Runtime`] owns the tracked arena, the trigger table, the thread status
//! table, the pending queue and (optionally) a pool of worker threads. See
//! the crate-level documentation for the programming model and a complete
//! example.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::accessor::Accessor;
use crate::addr::{Addr, AddrRange};
use crate::config::Config;
use crate::ctx::{Ctx, LoggedStore};
use crate::deadline::{backoff_delay, BodyDeadline};
use crate::dispatch::{ChunkTable, Dispatch, RaiseStep, PARK_TIMEOUT};
use crate::error::{Error, Result};
use crate::eventcount::{ParkOutcome, Waiters};
use crate::fault::{FaultLayer, FaultPoint};
use crate::filter::WatchFilter;
use crate::graph::DepGraph;
use crate::handle::{Tracked, TrackedArray, TrackedMatrix};
use crate::heap::TrackedHeap;
use crate::mem::ShardedMem;
use crate::obs::{EventKind, ObsRecorder, ObsRecording, OBS_RING_CAPACITY};
use crate::pod::Pod;
use crate::stats::{CounterBank, Counters, StatsSnapshot, Tally};
use crate::trigger::{LookupScratch, TriggerTable};
use crate::tthread::{StatusTable, TthreadId, TthreadStatus};

/// How a [`Runtime::join`] call was satisfied.
///
/// With the parallel executor, worker executions run off the state lock
/// against a snapshot and *commit* their effects atomically under the
/// lock; `join` observes a tthread's effects if and only if its commit
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
    /// The calling thread waited for a running worker to finish.
    Waited,
}

/// Maximum bytes the tracked arena may grow to.
const ARENA_CAPACITY: u64 = 1 << 32;

type TthreadFn<U> = Box<dyn Fn(&mut Ctx<'_, U>) + Send + Sync>;

pub(crate) struct TthreadEntry<U> {
    name: String,
    func: TthreadFn<U>,
}

/// Joins that skipped on the lock-free path. [`Runtime::join`] takes
/// `&mut self`, so these have one writer and are plain integers, merged
/// into the counters at [`Runtime::stats`]/[`Runtime::report`] time: the
/// privatise-then-merge of single-writer counters. Every such join is a
/// skip, so `total` counts toward both `joins` and `skips`.
#[derive(Default)]
struct FastSkips {
    /// Zeroed by [`Runtime::reset_stats`].
    total: u64,
    /// Per tthread, kept across a reset like the rest of the TST entry.
    per_tthread: Vec<u64>,
}

/// The genuinely serial part of the runtime, behind the state lock: the
/// tthread status table, user state, and the state-machine counters.
///
/// Tracked memory ([`ShardedMem`]), the trigger table, and the lock-free
/// counter bank live *outside* this lock (in [`Inner`]) so tracked loads and
/// stores scale across threads, and the status machine is lock-free with
/// the pending queue behind its own leaf mutex (`dispatch::Dispatch`);
/// only commits, inline runs and overflow handling come back here.
pub struct State<U> {
    pub(crate) user: U,
    pub(crate) tst: StatusTable,
    pub(crate) stats: Counters,
    /// Pool of reusable trigger-lookup scratch buffers for lock-holding
    /// dispatch paths (main-thread stores, commits, cascades).
    pub(crate) scratch: Vec<LookupScratch>,
    /// Reusable encode buffer for the vectorized bulk store path
    /// ([`Ctx::write_slice`]): amortizes the per-call allocation and
    /// zero-fill across bulk stores.
    pub(crate) bulk_scratch: Vec<u8>,
    /// The incremental computation graph: declared edge map, per-epoch
    /// wave dedup state and wave depths (see [`crate::graph`]). Commits,
    /// watch installation and trigger raising all already hold this lock,
    /// which is exactly the serialization the wave bookkeeping needs.
    pub(crate) graph: DepGraph,
}

pub(crate) struct Inner<U> {
    pub(crate) cfg: Config,
    pub(crate) state: Mutex<State<U>>,
    /// Sharded tracked memory: loads/stores never take the state lock.
    pub(crate) mem: ShardedMem,
    /// Read-mostly trigger table: stores take the read lock for lookup,
    /// `watch`/`unwatch` take the write lock. Lock order: state lock (if
    /// held) strictly before this lock; never acquire the state lock while
    /// holding this one.
    pub(crate) triggers: RwLock<TriggerTable>,
    /// Lock-free two-level watched-address filter (page bitmap sized to
    /// the arena, per-page 64-byte-line bits — see [`crate::filter`]).
    /// Stores whose probe misses skip the trigger-table read lock
    /// entirely. Maintained by `watch` (or-in) and `unwatch` (span
    /// rebuild); may over-approximate, never under-approximates an active
    /// watch.
    pub(crate) watch_filter: WatchFilter,
    /// Every counter bumped without the state lock (accessor stores, raises,
    /// the worker loop), folded with `State::stats` on demand.
    pub(crate) counters: CounterBank,
    /// Lifecycle event recorder (see [`crate::obs`]). Every hook checks
    /// `obs.on()` — one relaxed load — before doing any observability work.
    pub(crate) obs: ObsRecorder,
    /// Deterministic fault engine (see [`crate::fault`]). Every injection
    /// probe checks `fault.fire()` — one relaxed load when no plan is
    /// installed. Shared with the obs recorder for the ring-publish probe.
    pub(crate) fault: Arc<FaultLayer>,
    /// The lock-free dispatch half of the TST: per-tthread atomic status
    /// words, the bounded pending queue, and the worker and completion
    /// eventcounts.
    pub(crate) dispatch: Dispatch,
    /// Registered names and bodies, append-only: an execution borrows its
    /// body from here with no lock and no reference count.
    tthreads: ChunkTable<OnceLock<TthreadEntry<U>>>,
    shutdown: AtomicBool,
}

/// Outcome of [`Inner::raise`].
pub(crate) enum Raise {
    /// The trigger was fully handled on the lock-free path. `coalesced`
    /// reports whether it was absorbed by an already-pending instance
    /// (cascade accounting classifies the raise with it).
    Done { coalesced: bool },
    /// The tthread advanced Clean→Queued but no queue entry landed
    /// (injected or real overflow). The caller must apply the overflow
    /// policy under the state lock, validating transitions with `token`.
    Overflow(u64),
}

impl<U> Inner<U> {
    fn tthread(&self, id: TthreadId) -> &TthreadEntry<U> {
        self.tthreads
            .get(id.index())
            .get()
            .expect("tthread registered")
    }

    pub(crate) fn tthread_fn(&self, id: TthreadId) -> &TthreadFn<U> {
        &self.tthread(id).func
    }

    /// Advances `id`'s status machine for one trigger without the state
    /// lock. Counts the per-tthread trigger in its slot and the
    /// dispatch-side machinery in the counter bank.
    pub(crate) fn raise(&self, id: TthreadId) -> Raise {
        let slot = self.dispatch.slots.get(id.index());
        slot.triggers.fetch_add(1, Ordering::Relaxed);
        match slot.raise(self.cfg.is_deferred(), !self.cfg.coalesce) {
            RaiseStep::Absorbed => {
                self.counters.add(id.index(), Tally::CoalescedTriggers, 1);
                if self.obs.on() {
                    self.obs
                        .record(self.obs.status_ring(), EventKind::Coalesced, Some(id), 0);
                }
                Raise::Done { coalesced: true }
            }
            RaiseStep::Deferred => Raise::Done { coalesced: false },
            RaiseStep::Enqueue(token) => {
                // Injected saturation: report the queue full without
                // consuming a slot, driving the overflow policy on an
                // otherwise-healthy queue.
                if self.fault.fire(FaultPoint::Enqueue) {
                    return Raise::Overflow(token);
                }
                if !self.dispatch.pending.push(id.index() as u32, token) {
                    return Raise::Overflow(token);
                }
                self.counters.add(id.index(), Tally::Enqueues, 1);
                if self.obs.on() {
                    let occupancy = self.dispatch.pending.len() as u64;
                    self.obs.record(
                        self.obs.status_ring(),
                        EventKind::TriggerEnqueued,
                        Some(id),
                        occupancy,
                    );
                }
                self.wake_worker(id.index());
                Raise::Done { coalesced: false }
            }
        }
    }

    /// Wakes at most one parked worker for a newly enqueued unit — never
    /// for silent or coalesced stores, which don't reach this. Subject to
    /// the [`FaultPoint::WakeDrop`] injection, which drops the wake
    /// entirely (epoch bump included); the workers' timed park bounds the
    /// damage to one park period.
    pub(crate) fn wake_worker(&self, key: usize) {
        if self.fault.fire(FaultPoint::WakeDrop) {
            return;
        }
        // Any single woken worker can pop the new entry, so one wake
        // suffices.
        if self.dispatch.waiters.wake_one() {
            self.counters.add(key, Tally::WorkerWakes, 1);
        }
    }

    /// Broadcasts the completion eventcount after a transition out of
    /// Running, waking joiners parked in [`Runtime::join`] /
    /// [`Runtime::force`]. A broadcast (not a single wake) because the
    /// eventcount is shared by joins on every tthread; the joiner's
    /// predicate ("did *my* slot's word move?") filters spurious wakes.
    /// Subject to the [`FaultPoint::JoinWake`] injection, which drops the
    /// broadcast entirely; the joiner's timed park bounds the damage to
    /// one park period.
    pub(crate) fn wake_joiners(&self) {
        if self.fault.fire(FaultPoint::JoinWake) {
            return;
        }
        self.dispatch.completions.wake_all();
    }

    /// Signals shutdown to the worker pool: sets the sticky flag, then
    /// *closes* both dispatch eventcounts rather than merely waking them —
    /// a closed eventcount refuses every future park, so a worker that
    /// checks the flag just before it is set still cannot oversleep and
    /// quiesce never costs a park timeout. Safe to call more than once:
    /// `Waiters::close` is idempotent.
    fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.dispatch.waiters.close();
        self.dispatch.completions.close();
    }
}

/// The data-triggered-threads runtime.
///
/// Generic over an untracked user state `U`, available to tthread bodies and
/// main-thread regions via [`Ctx::user_mut`]. Data whose changes should
/// *trigger* recomputation lives in tracked memory instead, allocated with
/// [`Runtime::alloc`]/[`Runtime::alloc_array`].
///
/// # Examples
///
/// ```
/// use dtt_core::{Config, JoinOutcome, Runtime};
///
/// // Untracked user state: the published sum.
/// let mut rt = Runtime::new(Config::default(), 0u64);
/// let xs = rt.alloc_array::<u32>(8).unwrap();
///
/// // A tthread that recomputes the sum of `xs` whenever any element changes.
/// let sum = rt.register("sum", move |ctx| {
///     let total: u64 = (0..xs.len()).map(|i| ctx.read(xs, i) as u64).sum();
///     *ctx.user_mut() = total;
/// });
/// rt.watch(sum, xs.range()).unwrap();
///
/// rt.with(|ctx| ctx.write(xs, 3, 10));
/// assert_eq!(rt.join(sum).unwrap(), JoinOutcome::RanInline);
/// assert_eq!(rt.with(|ctx| *ctx.user()), 10);
///
/// // Writing the same value is a silent store: nothing to recompute.
/// rt.with(|ctx| ctx.write(xs, 3, 10));
/// assert_eq!(rt.join(sum).unwrap(), JoinOutcome::Skipped);
/// ```
///
/// # Memory-consistency contract (parallel executor)
///
/// With `cfg.workers > 0`, a tthread body running on a worker:
///
/// * observes a **snapshot** of tracked memory taken atomically when its
///   execution starts, plus its own writes — never a concurrent
///   main-thread store tearing through its reads;
/// * publishes its tracked stores **atomically at commit**, after the body
///   returns: the worker reacquires the state lock, replays the body's
///   write log against live memory, and fires triggers for the stores that
///   still change it (a store another thread already made redundant is
///   counted as a commit conflict and fires nothing);
/// * sees the **live, shared** user state `U` through
///   [`Ctx::user`]/[`Ctx::user_mut`] — first access acquires the state
///   lock and holds it until the commit, so user-state updates serialize
///   with main-thread regions;
/// * is **re-executed** (with a fresh snapshot) if a trigger landed on it
///   while it ran, so a committed execution always reflects inputs no
///   older than its last trigger;
/// * publishes **nothing** if it panics: the tthread is poisoned and the
///   partial write log is discarded, making detached executions atomic.
///
/// Main-thread regions ([`Runtime::with`]) always run under the state
/// lock and see every commit that happened before the region started;
/// [`Runtime::join`] returning guarantees the joined tthread's effects
/// (for its triggers so far) are visible.
pub struct Runtime<U> {
    inner: Arc<Inner<U>>,
    pool: WorkerPool<U>,
    /// Tthreads registered so far: ids below it are this runtime's.
    /// `register` takes `&mut self`, so the id check needs no lock.
    registered: usize,
    fast_skips: FastSkips,
}

/// Owns the worker threads; dropping it shuts them down and joins them.
struct WorkerPool<U> {
    inner: Arc<Inner<U>>,
    handles: Vec<thread::JoinHandle<()>>,
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
        if self.handles.is_empty() {
            return;
        }
        self.inner.signal_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<U: Send + 'static> Runtime<U> {
    /// Creates a runtime with the given configuration and user state.
    ///
    /// With `cfg.workers == 0` the *deferred* executor is selected:
    /// triggered tthreads run on the calling thread at their join point,
    /// deterministically. With `cfg.workers > 0`, that many OS worker
    /// threads execute triggered tthreads eagerly.
    pub fn new(cfg: Config, user: U) -> Self {
        let state = State {
            user,
            tst: StatusTable::new(),
            stats: Counters::new(),
            scratch: Vec::new(),
            bulk_scratch: Vec::new(),
            graph: DepGraph::new(cfg.granularity),
        };
        let mem = ShardedMem::new(ARENA_CAPACITY, crate::mem::default_shards());
        let triggers = RwLock::new(TriggerTable::new(cfg.granularity));
        let watch_filter = WatchFilter::new(ARENA_CAPACITY);
        let counters = CounterBank::new(mem.shards());
        // One ring per memory shard (store events hash by address) plus one
        // for the trigger/status machine.
        let obs = ObsRecorder::new(mem.shards(), OBS_RING_CAPACITY);
        if cfg.observability {
            obs.set_enabled(true);
        }
        let fault = Arc::new(match &cfg.fault_plan {
            Some(plan) => FaultLayer::from_plan(plan),
            None => FaultLayer::disarmed(),
        });
        obs.attach_fault(Arc::clone(&fault));
        let workers = cfg.workers;
        let dispatch = Dispatch::new(cfg.queue_capacity);
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(state),
            mem,
            triggers,
            watch_filter,
            counters,
            obs,
            fault,
            dispatch,
            tthreads: ChunkTable::new(),
            shutdown: AtomicBool::new(false),
        });
        let exits = Arc::new(Exits::default());
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let exits = Arc::clone(&exits);
                thread::Builder::new()
                    .name(format!("dtt-worker-{i}"))
                    .spawn(move || {
                        // Locals drop in reverse order: `inner` is released
                        // before the signal fires.
                        let _signal = ExitSignal(exits);
                        let inner = inner;
                        worker_loop(&inner, i);
                    })
                    .expect("failed to spawn dtt worker")
            })
            .collect();
        let pool = WorkerPool {
            inner: Arc::clone(&inner),
            handles,
            exits,
        };
        Runtime {
            inner,
            pool,
            registered: 0,
            fast_skips: FastSkips::default(),
        }
    }

    /// Refuses an id this runtime did not issue.
    fn check(&self, tthread: TthreadId) -> Result<()> {
        if tthread.index() < self.registered {
            Ok(())
        } else {
            Err(Error::UnknownTthread(tthread))
        }
    }

    /// Allocates a tracked scalar initialized to `init` (without firing
    /// triggers — nothing can be watching it yet).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArenaExhausted`] when the arena capacity is reached.
    pub fn alloc<T: Pod>(&mut self, init: T) -> Result<Tracked<T>> {
        let addr = self.alloc_elems::<T>(Some(1))?;
        self.inner.mem.store(addr, init, false);
        Ok(Tracked::new(addr))
    }

    /// Allocates a zeroed tracked array of `len` elements.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArenaExhausted`] when the arena capacity is reached.
    pub fn alloc_array<T: Pod>(&mut self, len: usize) -> Result<TrackedArray<T>> {
        let addr = self.alloc_elems::<T>(Some(len))?;
        Ok(TrackedArray::new(addr, len))
    }

    /// Allocates room for `elems` values of `T`. `None`, or a byte size
    /// that overflows `usize`, is a request no arena can satisfy — refused
    /// here so the product never wraps to a small allocation.
    fn alloc_elems<T: Pod>(&self, elems: Option<usize>) -> Result<Addr> {
        let mem = &self.inner.mem;
        let bytes = elems
            .and_then(|n| n.checked_mul(T::SIZE))
            .ok_or(Error::ArenaExhausted {
                requested: u64::MAX,
                available: mem.capacity().saturating_sub(mem.len()),
            })?;
        let align = (T::SIZE as u64).next_power_of_two().min(8);
        mem.alloc(bytes as u64, align)
    }

    /// Allocates a zeroed row-major tracked matrix of `rows × cols`
    /// elements. Rows are contiguous, so per-row trigger regions
    /// ([`crate::handle::TrackedMatrix::row_range`]) are compact.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArenaExhausted`] when the arena capacity is reached.
    pub fn alloc_matrix<T: Pod>(&mut self, rows: usize, cols: usize) -> Result<TrackedMatrix<T>> {
        let addr = self.alloc_elems::<T>(rows.checked_mul(cols))?;
        Ok(TrackedMatrix::new(addr, rows, cols))
    }

    /// Allocates a tracked array initialized from `data` (without firing
    /// triggers).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArenaExhausted`] when the arena capacity is reached.
    pub fn alloc_array_from<T: Pod>(&mut self, data: &[T]) -> Result<TrackedArray<T>> {
        let array = self.alloc_array::<T>(data.len())?;
        for (i, &v) in data.iter().enumerate() {
            self.inner.mem.store(array.at(i).addr(), v, false);
        }
        Ok(array)
    }

    /// Registers a data-triggered thread and returns its id.
    ///
    /// The body runs with exclusive access to the runtime state via
    /// [`Ctx`]. Registration alone never executes the body; attach trigger
    /// regions with [`Runtime::watch`].
    pub fn register<F>(&mut self, name: &str, body: F) -> TthreadId
    where
        F: Fn(&mut Ctx<'_, U>) + Send + Sync + 'static,
    {
        let mut state = self.inner.state.lock();
        let id = state.tst.push();
        state.graph.ensure(id.index());
        // Materialize the slot and the body now so every later access is
        // lock-free. The entry is set before any trigger can name `id`.
        self.inner.dispatch.slots.ensure(id.index());
        self.inner.tthreads.ensure(id.index());
        let entry = TthreadEntry {
            name: name.to_owned(),
            func: Box::new(body),
        };
        let fresh = self.inner.tthreads.get(id.index()).set(entry).is_ok();
        assert!(fresh, "tthread ids are issued once");
        self.registered += 1;
        self.fast_skips.per_tthread.push(0);
        id
    }

    /// Attaches a trigger region: stores that change bytes in `range` (as
    /// seen at the configured granularity) fire `tthread`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTthread`] for a foreign id,
    /// [`Error::RegionOutOfBounds`] for a region outside the arena, and
    /// [`Error::TriggerCycle`] if the watch, combined with the output
    /// regions declared via [`Runtime::declare_output`], would close a
    /// cross-tthread trigger cycle (the watch is not installed).
    pub fn watch(&mut self, tthread: TthreadId, range: AddrRange) -> Result<()> {
        // The state lock is held across the trigger-table write so watches
        // serialize with in-flight trigger raising (lock order: state lock,
        // then trigger-table lock).
        self.check(tthread)?;
        let mut state = self.inner.state.lock();
        self.inner.mem.check_range(range)?;
        // Watch-time cycle check: mirror the region into the declared edge
        // map first and DFS from the reader; reject *before* the trigger
        // table or the filter see the watch, so a rejected edge leaves no
        // trace. Self-loops are exempt (see [`crate::graph`]).
        state.graph.add_watch(tthread, range);
        if let Some(path) = state.graph.find_cycle(tthread) {
            state.graph.remove_watch(tthread, range);
            state.stats.trigger_cycles_rejected += 1;
            return Err(Error::TriggerCycle { path });
        }
        self.inner.triggers.write().watch(tthread, range);
        self.inner
            .watch_filter
            .watch(range, self.inner.cfg.granularity);
        Ok(())
    }

    /// Declares `range` as an *output* region of `tthread`: a region its
    /// body stores into. Declarations feed the incremental computation
    /// graph's edge map (see [`crate::graph`]) — an output of one tthread
    /// overlapping the watch of another forms a dependency edge, and edge
    /// installation is where trigger cycles are rejected. Declaring
    /// outputs is optional: cascades fire from the committed stores
    /// themselves; undeclared edges are simply invisible to the cycle
    /// check (the commit-retry cap backstops dynamic cycles at runtime).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTthread`] for a foreign id,
    /// [`Error::RegionOutOfBounds`] for a region outside the arena, and
    /// [`Error::TriggerCycle`] if the declaration would close a
    /// cross-tthread trigger cycle (the declaration is discarded).
    pub fn declare_output(&mut self, tthread: TthreadId, range: AddrRange) -> Result<()> {
        self.check(tthread)?;
        let mut state = self.inner.state.lock();
        self.inner.mem.check_range(range)?;
        state.graph.add_output(tthread, range);
        if let Some(path) = state.graph.find_cycle(tthread) {
            state.graph.remove_output(tthread, range);
            state.stats.trigger_cycles_rejected += 1;
            return Err(Error::TriggerCycle { path });
        }
        Ok(())
    }

    /// Detaches a previously attached trigger region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTthread`] for a foreign id and
    /// [`Error::NoSuchWatch`] if the exact region was not watched.
    pub fn unwatch(&mut self, tthread: TthreadId, range: AddrRange) -> Result<()> {
        self.check(tthread)?;
        let mut state = self.inner.state.lock();
        let mut triggers = self.inner.triggers.write();
        triggers.unwatch(tthread, range)?;
        state.graph.remove_watch(tthread, range);
        // Rebuild only the removed watch's filter span from the surviving
        // ranges; the state lock serializes this with other mutators while
        // probes keep running lock-free.
        let remaining: Vec<AddrRange> = triggers.iter().map(|(_, r)| r).collect();
        drop(triggers);
        self.inner
            .watch_filter
            .rebuild(range, self.inner.cfg.granularity, &remaining);
        Ok(())
    }

    /// Runs a main-thread region with access to tracked memory and user
    /// state.
    ///
    /// Stores inside the region fire triggers as they happen. Do not call
    /// other `Runtime` methods from inside the closure (the state lock is
    /// held).
    pub fn with<R>(&mut self, f: impl FnOnce(&mut Ctx<'_, U>) -> R) -> R {
        let mut state = self.inner.state.lock();
        let mut ctx = Ctx::new(&mut state, &self.inner, 0);
        f(&mut ctx)
    }

    /// Convenience: loads one tracked scalar.
    pub fn read<T: Pod>(&mut self, cell: Tracked<T>) -> T {
        self.with(|ctx| ctx.get(cell))
    }

    /// Convenience: stores one tracked scalar (firing triggers).
    pub fn write<T: Pod>(&mut self, cell: Tracked<T>, value: T) {
        self.with(|ctx| ctx.set(cell, value));
    }

    /// Creates a concurrent [`Accessor`] over tracked memory.
    ///
    /// Unlike [`Runtime::with`], an accessor never holds the global state
    /// lock on the load/store fast path: it goes straight at the sharded
    /// arena, so accessors on different threads (and on different address
    /// shards) proceed in parallel. Create one accessor per thread — the
    /// accessor carries reusable lookup scratch and is not itself shareable.
    /// See [`Accessor`] for the memory-ordering contract.
    pub fn accessor(&self) -> Accessor<'_, U> {
        Accessor::new(&self.inner)
    }

    /// The consumption point: ensures `tthread`'s outputs are up to date.
    ///
    /// * never triggered since its last run → **skip** (the elimination of
    ///   redundant computation);
    /// * completed on a worker → nothing to do, the work was overlapped;
    /// * triggered / still queued → run it on the calling thread now;
    /// * running on a worker → wait for it.
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
        if self.inner.dispatch.slots.get(tthread.index()).skippable() {
            self.fast_skips.total += 1;
            self.fast_skips.per_tthread[tthread.index()] += 1;
            self.obs_join(tthread, JoinOutcome::Skipped);
            return Ok(JoinOutcome::Skipped);
        }
        self.join_locked(tthread)
    }

    /// [`Runtime::join`] for every state but a plain skip: the status
    /// machine under the state lock.
    fn join_locked(&self, tthread: TthreadId) -> Result<JoinOutcome> {
        let mut state = self.inner.state.lock();
        let slot = self.inner.dispatch.slots.get(tthread.index());
        let mut waited = false;
        loop {
            if state.tst.entry(tthread).poisoned {
                return Err(Error::TthreadPoisoned(tthread));
            }
            if state.tst.entry(tthread).timed_out {
                return Err(Error::TthreadTimedOut(tthread));
            }
            match slot.status() {
                TthreadStatus::Clean => {
                    // Consume the completed-since-join bit atomically with
                    // the Clean check; a concurrent trigger moving the
                    // state first just sends us around the loop.
                    let Some(overlapped) = slot.take_completed_if_clean() else {
                        continue;
                    };
                    state.stats.joins += 1;
                    if waited {
                        state.stats.waited_joins += 1;
                        self.obs_join(tthread, JoinOutcome::Waited);
                        return Ok(JoinOutcome::Waited);
                    }
                    if overlapped {
                        self.obs_join(tthread, JoinOutcome::Overlapped);
                        return Ok(JoinOutcome::Overlapped);
                    }
                    state.tst.entry_mut(tthread).skips += 1;
                    state.stats.skips += 1;
                    self.obs_join(tthread, JoinOutcome::Skipped);
                    return Ok(JoinOutcome::Skipped);
                }
                TthreadStatus::Triggered => {
                    if !slot.try_claim_from(TthreadStatus::Triggered, true) {
                        continue;
                    }
                    {
                        let mut ctx = Ctx::new(&mut state, &self.inner, 0);
                        ctx.run_inline(tthread);
                    }
                    slot.clear_completed();
                    state.stats.joins += 1;
                    self.obs_join(tthread, JoinOutcome::RanInline);
                    return Ok(JoinOutcome::RanInline);
                }
                TthreadStatus::Queued => {
                    // Only the detached (worker) executor can enforce the
                    // body deadline — an inline run writes straight to live
                    // memory, so there is no write log to discard on
                    // overrun. With a deadline configured, never steal a
                    // queued execution: wait for the worker (which is
                    // guaranteed to exist — zero-worker deferred mode
                    // raises Clean→Triggered and never reaches Queued) to
                    // run it under the deadline. The park validates the
                    // slot word, which the worker's claim bumps.
                    if self.inner.cfg.body_deadline.is_some() {
                        waited = true;
                        state = self.park_until_moved(tthread, state);
                        continue;
                    }
                    // Steal the pending execution. The claim's token bump
                    // invalidates the queue entry in place, so no queue
                    // scan is needed — the worker that eventually pops it
                    // skips it as stale. The steal coalesces duplicate
                    // triggers into this one inline run, so the rerun flag
                    // clears.
                    if !slot.try_claim_from(TthreadStatus::Queued, true) {
                        continue;
                    }
                    {
                        let mut ctx = Ctx::new(&mut state, &self.inner, 0);
                        ctx.run_inline(tthread);
                    }
                    slot.clear_completed();
                    state.stats.joins += 1;
                    self.obs_join(tthread, JoinOutcome::Stolen);
                    return Ok(JoinOutcome::Stolen);
                }
                TthreadStatus::Running => {
                    waited = true;
                    state = self.park_until_moved(tthread, state);
                }
            }
        }
    }

    /// Waits for `tthread`'s status word to move: releases the state lock
    /// entirely and parks on the completion eventcount, keyed to the word.
    /// The token bumps on every state-changing transition, so the word is
    /// a generation counter: if the execution finishes (or even finishes
    /// and retriggers) between the read here and the sleep commit, the
    /// word has moved and the park is skipped. Workers broadcast the
    /// eventcount after every transition out of Running, and the timed
    /// park rescues a dropped broadcast ([`FaultPoint::JoinWake`]) within
    /// one park period. The caller thus never blocks while holding the
    /// state lock; it gets the lock back on return.
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
        let slot = self.inner.dispatch.slots.get(tthread.index());
        let observed = slot.word();
        drop(state);
        let (outcome, silent) = self
            .inner
            .dispatch
            .completions
            .park_reporting(|| slot.word() != observed, PARK_TIMEOUT);
        if outcome == ParkOutcome::TimedOut {
            let key = tthread.index();
            self.inner.counters.add(key, Tally::ParkTimeouts, 1);
            if silent && slot.word() != observed && slot.status() != TthreadStatus::Running {
                self.inner.counters.add(key, Tally::ParkRescues, 1);
            }
        }
        self.inner.state.lock()
    }

    /// Records a join outcome into the status-machine ring.
    fn obs_join(&self, tthread: TthreadId, outcome: JoinOutcome) {
        if !self.inner.obs.on() {
            return;
        }
        let ring = self.inner.obs.status_ring();
        match outcome {
            JoinOutcome::Skipped => self
                .inner
                .obs
                .record(ring, EventKind::Skip, Some(tthread), 0),
            JoinOutcome::Overlapped => {
                self.inner
                    .obs
                    .record(ring, EventKind::Join, Some(tthread), 1)
            }
            JoinOutcome::RanInline => {
                self.inner
                    .obs
                    .record(ring, EventKind::Join, Some(tthread), 2)
            }
            JoinOutcome::Stolen => self
                .inner
                .obs
                .record(ring, EventKind::Join, Some(tthread), 3),
            JoinOutcome::Waited => self
                .inner
                .obs
                .record(ring, EventKind::Join, Some(tthread), 4),
        }
    }

    /// Whether lifecycle event recording is currently enabled.
    pub fn is_observing(&self) -> bool {
        self.inner.obs.on()
    }

    /// Enables or disables lifecycle event recording at runtime. The first
    /// enable allocates the per-shard rings; disabling keeps already
    /// recorded events available for [`Runtime::obs_drain`].
    pub fn set_observing(&mut self, on: bool) {
        self.inner.obs.set_enabled(on);
    }

    /// Drains the observability rings into a merged, sequence-ordered
    /// recording (consuming: a second drain returns only newer events).
    /// Analyze it with the `dtt-obs` crate's collector and exporters.
    pub fn obs_drain(&self) -> ObsRecording {
        self.inner.obs.drain()
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

    /// Clears the poisoned flag set when a tthread body panicked, making
    /// joins on it possible again. The tthread is left clean; call
    /// [`Runtime::force`] afterwards if its outputs must be rebuilt.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTthread`] for a foreign id.
    pub fn clear_poison(&mut self, tthread: TthreadId) -> Result<()> {
        self.check(tthread)?;
        let mut state = self.inner.state.lock();
        state.tst.entry_mut(tthread).poisoned = false;
        self.recompute_failed(&state, tthread);
        Ok(())
    }

    /// Re-derives the slot's failure flag (read by the skip fast path)
    /// from the TST entry, under the state lock every failure is recorded
    /// under.
    fn recompute_failed(&self, state: &State<U>, tthread: TthreadId) {
        let entry = state.tst.entry(tthread);
        self.inner
            .dispatch
            .slots
            .get(tthread.index())
            .set_failed(entry.poisoned || entry.timed_out);
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
        self.check(tthread)?;
        let mut state = self.inner.state.lock();
        state.tst.entry_mut(tthread).timed_out = false;
        self.recompute_failed(&state, tthread);
        Ok(())
    }

    /// Per-[`FaultPoint`] injected-fault counts, indexed by discriminant
    /// (all zero unless a [`Config::fault_plan`] is installed).
    pub fn fault_injections(&self) -> [u64; FaultPoint::COUNT] {
        self.inner.fault.counts()
    }

    /// Runs `tthread` on the calling thread right now, regardless of its
    /// trigger state (waits first if a worker is mid-execution).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTthread`] for a foreign id,
    /// [`Error::TthreadPoisoned`] after a panicked execution and
    /// [`Error::TthreadTimedOut`] after a deadline-flagged one.
    pub fn force(&mut self, tthread: TthreadId) -> Result<()> {
        self.check(tthread)?;
        let mut state = self.inner.state.lock();
        let slot = self.inner.dispatch.slots.get(tthread.index());
        loop {
            // Re-checked after every park, as in `join`: the execution
            // waited on may itself have panicked or overrun its deadline.
            if state.tst.entry(tthread).poisoned {
                return Err(Error::TthreadPoisoned(tthread));
            }
            if state.tst.entry(tthread).timed_out {
                return Err(Error::TthreadTimedOut(tthread));
            }
            match slot.status() {
                TthreadStatus::Running => state = self.park_until_moved(tthread, state),
                // Claim whatever state the tthread is in; a stale queue
                // entry (if any) dies with the token bump.
                status => {
                    if slot.try_claim_from(status, true) {
                        break;
                    }
                }
            }
        }
        {
            let mut ctx = Ctx::new(&mut state, &self.inner, 0);
            ctx.run_inline(tthread);
        }
        slot.clear_completed();
        Ok(())
    }

    /// Raises a trigger for `tthread` as if a watched value had changed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTthread`] for a foreign id.
    pub fn mark_dirty(&mut self, tthread: TthreadId) -> Result<()> {
        self.check(tthread)?;
        let mut state = self.inner.state.lock();
        let mut ctx = Ctx::new(&mut state, &self.inner, 0);
        ctx.raise(tthread);
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
        Ok(self.inner.dispatch.slots.get(tthread.index()).status())
    }

    /// Produces a diagnostic snapshot of the whole runtime: tthread
    /// names, statuses, counters and watched regions, the declared
    /// dependency edges, queue occupancy, arena usage and the global
    /// counters. See [`crate::report::RuntimeReport`].
    pub fn report(&self) -> crate::report::RuntimeReport {
        let state = self.inner.state.lock();
        let triggers = self.inner.triggers.read();
        let tthreads = state
            .tst
            .iter()
            .map(|(id, entry)| {
                let watches = triggers
                    .iter()
                    .filter(|(t, _)| *t == id)
                    .map(|(_, range)| range)
                    .collect();
                let slot = self.inner.dispatch.slots.get(id.index());
                crate::report::TthreadReportRow {
                    name: self.inner.tthread(id).name.clone(),
                    status: slot.status(),
                    poisoned: entry.poisoned,
                    timed_out: entry.timed_out,
                    executions: entry.executions,
                    epoch: entry.epoch,
                    skips: entry.skips + self.fast_skips.per_tthread[id.index()],
                    triggers: slot.triggers.load(Ordering::Relaxed),
                    watches,
                }
            })
            .collect();
        let stats = self.folded_stats(&state);
        let pending = &self.inner.dispatch.pending;
        crate::report::RuntimeReport {
            tthreads,
            edges: state.graph.edges(),
            queue_len: pending.len(),
            queue_capacity: pending.capacity(),
            queue_high_watermark: pending.high_watermark(),
            arena_used: self.inner.mem.len(),
            arena_capacity: self.inner.mem.capacity(),
            workers: self.inner.cfg.workers,
            stats,
        }
    }

    /// Snapshot of the global runtime statistics (the lock-free counter
    /// bank and the fast-path skips are folded in, so the snapshot is
    /// exact).
    pub fn stats(&self) -> StatsSnapshot {
        self.folded_stats(&self.inner.state.lock())
    }

    /// `state.stats` (the under-lock counters) plus the lock-free bank and
    /// the fast-path skips: the exact totals [`Runtime::stats`] and
    /// [`Runtime::report`] publish.
    fn folded_stats(&self, state: &State<U>) -> StatsSnapshot {
        let mut stats = state.stats.clone();
        self.inner.counters.fold_into(&mut stats);
        stats.joins += self.fast_skips.total;
        stats.skips += self.fast_skips.total;
        stats.snapshot()
    }

    /// Zeroes the global statistics (per-tthread counters are kept).
    pub fn reset_stats(&mut self) {
        let mut state = self.inner.state.lock();
        state.stats = Counters::new();
        self.inner.counters.reset();
        self.fast_skips.total = 0;
    }

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
    /// executor (pending tthreads still run at their join points).
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
        let handles: Vec<_> = self.pool.handles.drain(..).collect();
        if handles.is_empty() {
            // Already drained (or a deferred executor): nothing to signal.
            return Ok(());
        }
        self.inner.signal_shutdown();
        Self::join_worker_handles(&self.pool.exits, handles, Some(timeout))
    }

    /// Joins the drained worker handles, with a timeout only once every
    /// worker has signalled its exit.
    ///
    /// A worker signals after releasing its `Arc<Inner>` clone (see
    /// [`Exits`]), so a clean return also means the consuming teardown's
    /// `try_unwrap` cannot race a worker that finished its loop but still
    /// holds a reference. The wait parks on the exit eventcount — the last
    /// worker out wakes it — with the caller's deadline as the only timer.
    fn join_worker_handles(
        exits: &Exits,
        handles: Vec<thread::JoinHandle<()>>,
        timeout: Option<Duration>,
    ) -> Result<()> {
        if let Some(timeout) = timeout {
            let deadline = Instant::now() + timeout;
            let exited = || exits.count.load(Ordering::SeqCst);
            while exited() < handles.len() {
                let now = Instant::now();
                if now >= deadline {
                    // Dropping the handles detaches the stragglers.
                    return Err(Error::WorkersStillActive {
                        active: handles.len().saturating_sub(exited()).max(1),
                    });
                }
                exits
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

    fn teardown(self, timeout: Option<Duration>) -> Result<(TrackedHeap, U)> {
        let Runtime {
            inner, mut pool, ..
        } = self;
        let handles: Vec<_> = pool.handles.drain(..).collect();
        let exits = Arc::clone(&pool.exits);
        drop(pool); // handles drained: only releases the pool's Arc clone
        if !handles.is_empty() {
            inner.signal_shutdown();
            Self::join_worker_handles(&exits, handles, timeout)?;
        }
        let inner = Arc::try_unwrap(inner).map_err(|arc| Error::WorkersStillActive {
            // One count is the `arc` binding itself; the rest are workers
            // that finished their loop but have not fully exited yet.
            active: Arc::strong_count(&arc).saturating_sub(1),
        })?;
        let heap = inner.mem.snapshot();
        let state = inner.state.into_inner();
        Ok((heap, state.user))
    }
}

impl<U> std::fmt::Debug for Runtime<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.pool.handles.len())
            .field("tthreads", &self.registered)
            .finish()
    }
}

/// The worker: pops (id, token) pairs from the pending queue, claims via
/// the status-word CAS, and only touches the state lock to commit. Idles
/// on the dispatch eventcount with a timed park.
fn worker_loop<U: Send + 'static>(inner: &Inner<U>, worker_idx: usize) {
    let dispatch = &inner.dispatch;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some((raw, token)) = dispatch.pending.pop() else {
            // The timed park doubles as the rescue path for a dropped
            // wake (see `FaultPoint::WakeDrop`): even a lost notification
            // only costs one park period, and is counted as a rescue.
            let (outcome, silent) = dispatch.waiters.park_reporting(
                || !dispatch.pending.is_empty() || inner.shutdown.load(Ordering::SeqCst),
                PARK_TIMEOUT,
            );
            if outcome != ParkOutcome::Skipped {
                inner.counters.add(worker_idx, Tally::WorkerParks, 1);
            }
            if outcome == ParkOutcome::TimedOut {
                inner.counters.add(worker_idx, Tally::ParkTimeouts, 1);
                if silent && !dispatch.pending.is_empty() {
                    inner.counters.add(worker_idx, Tally::ParkRescues, 1);
                }
            }
            continue;
        };
        let id = TthreadId::new(raw);
        if inner.fault.fire(FaultPoint::Dequeue) {
            // Injected dequeue rejection, handled explicitly: requeue and
            // retry if the queue takes it back, otherwise fall through and
            // run the entry ourselves — dropping it would strand the
            // tthread in Queued with no entry anywhere.
            if dispatch.pending.push(raw, token) {
                continue;
            }
        }
        let slot = dispatch.slots.get(id.index());
        if !slot.try_claim_queued(token) {
            // The entry went stale: a join or force claimed the tthread
            // (bumping the token) after this entry was queued.
            inner.counters.add(id.index(), Tally::QueueStaleSkips, 1);
            continue;
        }
        run_detached(inner, id, inner.tthread_fn(id));
        inner.wake_joiners();
    }
}

/// Executes one claimed tthread *detached*: snapshot, body off the lock,
/// commit under the lock. The caller must already have moved `id` to
/// Running (claim CAS). The first snapshot is taken without the state
/// lock; a rerun snapshots while still holding the previous commit's
/// guard.
fn run_detached<U: Send + 'static>(inner: &Inner<U>, id: TthreadId, func: &TthreadFn<U>) {
    let slot = inner.dispatch.slots.get(id.index());
    let mut retries: u32 = 0;
    let mut held = None;
    loop {
        debug_assert_eq!(slot.status(), TthreadStatus::Running);
        // With the guard held the snapshot is serialized with raising.
        // Without it (first iteration) it is still no older than the
        // trigger that queued `id`: the claim CAS synchronized with the
        // raise RMW, which itself followed the triggering store's
        // stripe-locked publication — and `snapshot()` holds every stripe
        // lock, making the copy atomic against concurrent accessors.
        let snap = inner.mem.snapshot();
        drop(held.take());

        // Injected scheduling delay: the tthread is already Running (a join
        // waits for it rather than stealing it), so stretching this gap
        // widens trigger/join races without risking double execution.
        if inner.fault.fire(FaultPoint::WorkerSchedule) {
            inner.fault.delay();
        }

        let obs_on = inner.obs.on();
        let body_t0 = if obs_on {
            let ring = inner.obs.status_ring();
            inner.obs.record(ring, EventKind::BodyStart, Some(id), 0);
            inner.obs.now_ns()
        } else {
            0
        };
        let deadline = BodyDeadline::starting(inner.cfg.body_deadline, Instant::now());
        // The body runs entirely off the state lock, against the snapshot;
        // main-thread `with`/`join` calls proceed concurrently.
        let mut ctx = Ctx::detached(snap, inner, 1);
        let outcome = if inner.fault.fire(FaultPoint::BodyStart) {
            // Injected body failure: behave exactly like a panicking body
            // (the tthread gets poisoned below) without unwinding through
            // the panic hook and spamming stderr.
            Err(Box::new("injected body-start fault") as Box<dyn std::any::Any + Send>)
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| func(&mut ctx)))
        };
        // Deadline check covers the body only, before any injected commit
        // delay; a panic takes precedence over a timeout below. Monotonic
        // by construction — see `crate::deadline`.
        let overran = deadline.and_then(|d| d.overrun(Instant::now()));
        if obs_on {
            let ring = inner.obs.status_ring();
            let dur = inner.obs.now_ns().saturating_sub(body_t0);
            inner.obs.record(ring, EventKind::BodyEnd, Some(id), dur);
        }
        // Injected commit-replay delay: stretches the window between body
        // end and commit, multiplying commit conflicts and retriggers.
        // Runs before the relock unless the body already took the user-
        // state lock, in which case it stretches the critical section —
        // exactly the slow-commit behaviour worth chaos-testing.
        if inner.fault.fire(FaultPoint::CommitReplay) {
            inner.fault.delay();
        }
        let (guard, log, delta) = ctx.into_detached_parts();
        // If the body touched user state it already holds the lock; reuse
        // that guard so user-state updates and the commit are one critical
        // section. Every transition *out of* Running below bumps the slot
        // *word*, which joiners' parks validate before committing to
        // sleep, so they cannot miss the wakeup (the wake itself is
        // broadcast by the worker loop after this function returns).
        let mut state = guard.unwrap_or_else(|| inner.state.lock());

        if outcome.is_err() {
            // Poison the tthread but keep this worker alive for the other
            // tthreads; the next join reports the failure. Nothing the body
            // stored is published — a detached execution is atomic.
            poison(&mut state, inner, id);
            return;
        }

        if let Some(elapsed) = overran {
            // Deadline overrun: discard the write log — a timed-out body
            // never commits — and flag the tthread; the next join reports
            // `TthreadTimedOut`. The access-side counters still merge (the
            // loads/stores really happened, against the snapshot).
            inner.counters.merge_delta(&delta);
            state.stats.body_timeouts += 1;
            state.tst.entry_mut(id).timed_out = true;
            state.graph.clear_depth(id);
            slot.force_clean();
            if inner.obs.on() {
                inner.obs.record(
                    inner.obs.status_ring(),
                    EventKind::BodyTimeout,
                    Some(id),
                    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                );
            }
            return;
        }

        inner.counters.merge_delta(&delta);
        let commit_t0 = if obs_on {
            let ring = inner.obs.status_ring();
            inner
                .obs
                .record(ring, EventKind::CommitBegin, Some(id), log.len() as u64);
            inner.obs.now_ns()
        } else {
            0
        };
        // Replay the write log against live memory. A panic can only come
        // out of a cascaded inline execution (which poisons its own
        // tthread); treat it like a body panic of `id` so the worker
        // survives.
        let committed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            commit_log(&mut state, inner, id, &log)
        }));
        if obs_on {
            let ring = inner.obs.status_ring();
            let dur = inner.obs.now_ns().saturating_sub(commit_t0);
            inner.obs.record(ring, EventKind::CommitDone, Some(id), dur);
        }
        if committed.is_err() {
            poison(&mut state, inner, id);
            return;
        }

        state.stats.executions += 1;
        state.stats.worker_executions += 1;
        state.stats.detached_executions += 1;
        state.tst.entry_mut(id).executions += 1;
        if inner.fault.fire(FaultPoint::Retrigger) {
            // Injected retrigger: pretend a trigger landed during the body,
            // driving the bounded retry loop below.
            slot.set_rf_if_running();
        }
        if slot.try_complete(Some(true)) {
            state.tst.entry_mut(id).epoch += 1;
            return;
        }
        // The rerun flag was set: a trigger landed while the body ran (or
        // its own commit retriggered it). The snapshot may be stale, so go
        // around again with a fresh one — but only up to the configured
        // cap, so adversarial store rates cannot livelock this worker.
        if retries >= inner.cfg.commit_retry_cap {
            state.stats.commit_retry_exhausted += 1;
            slot.complete_to_triggered();
            if inner.obs.on() {
                inner.obs.record(
                    inner.obs.status_ring(),
                    EventKind::RetryExhausted,
                    Some(id),
                    u64::from(inner.cfg.commit_retry_cap),
                );
            }
            return;
        }
        retries += 1;
        state.stats.commit_retries += 1;
        slot.absorb_rf();
        if let Some(base) = inner.cfg.commit_backoff {
            // Back off before re-snapshotting: under a store storm an
            // immediate rerun mostly re-loses the commit race. The sleep
            // happens off the state lock; jitter comes from the fault
            // layer's SplitMix64 stream so chaos replays stay
            // seed-deterministic.
            state.stats.commit_backoff_waits += 1;
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
        state.stats.commit_stores += 1;
        dispatched += 1;
        if effect.changed {
            changed += 1;
            if inner.obs.on() {
                inner.obs.record(
                    inner.mem.shard_of(entry.range.start()),
                    EventKind::ChangeDetected,
                    Some(id),
                    entry.range.start().raw(),
                );
            }
            // Depth 1 with `cur = id`: triggers raised here onto other
            // tthreads are cascade wave units, same as stores made directly
            // by an inline body.
            let mut ctx = Ctx::new_for(state, inner, 1, Some(id));
            ctx.dispatch(entry.range);
        } else {
            state.stats.commit_conflicts += 1;
            if inner.obs.on() {
                inner.obs.record(
                    inner.obs.status_ring(),
                    EventKind::CommitConflict,
                    Some(id),
                    entry.range.start().raw(),
                );
            }
        }
    }
    // Early cutoff: a cascade-raised recomputation whose entire commit was
    // silent stops the wave here — the transitive skip. Counted as a
    // terminal wave unit so `cascades == enqueues + coalesced + cutoffs`.
    let wave = state.graph.wave_depth(id);
    if wave > 0 {
        if dispatched > 0 && changed == 0 {
            state.stats.cascades += 1;
            state.stats.cascade_cutoffs += 1;
            if inner.obs.on() {
                inner.obs.record(
                    inner.obs.status_ring(),
                    EventKind::CascadeCutoff,
                    Some(id),
                    u64::from(wave),
                );
            }
        }
        state.graph.clear_depth(id);
    }
}

/// Marks `id` poisoned after a panicking execution, leaving the runtime
/// usable for every other tthread.
fn poison<U>(state: &mut State<U>, inner: &Inner<U>, id: TthreadId) {
    state.tst.entry_mut(id).poisoned = true;
    state.graph.clear_depth(id);
    inner.dispatch.slots.get(id.index()).force_clean();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Granularity;

    fn deferred() -> Config {
        Config::default()
    }

    #[test]
    fn skip_when_nothing_changes() {
        let mut rt = Runtime::new(deferred(), 0u64);
        let x = rt.alloc(1u32).unwrap();
        let tt = rt.register("noop", move |ctx| {
            let v = ctx.get(x);
            *ctx.user_mut() += v as u64;
        });
        rt.watch(tt, x.range()).unwrap();
        assert_eq!(rt.join(tt).unwrap(), JoinOutcome::Skipped);
        assert_eq!(rt.join(tt).unwrap(), JoinOutcome::Skipped);
        assert_eq!(rt.stats().counters().skips, 2);
        assert_eq!(rt.stats().counters().executions, 0);
    }

    #[test]
    fn trigger_then_join_runs_once() {
        let mut rt = Runtime::new(deferred(), Vec::<u32>::new());
        let x = rt.alloc(0u32).unwrap();
        let tt = rt.register("log", move |ctx| {
            let v = ctx.get(x);
            ctx.user_mut().push(v);
        });
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 5);
        rt.write(x, 6); // coalesces with the pending trigger
        assert_eq!(rt.join(tt).unwrap(), JoinOutcome::RanInline);
        assert_eq!(rt.join(tt).unwrap(), JoinOutcome::Skipped);
        let (_, log) = rt.into_state();
        assert_eq!(log, vec![6]);
    }

    #[test]
    fn silent_store_does_not_trigger() {
        let mut rt = Runtime::new(deferred(), ());
        let x = rt.alloc(7u32).unwrap();
        let tt = rt.register("t", |_| {});
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 7);
        assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
        assert_eq!(rt.stats().counters().silent_stores, 1);
        rt.write(x, 8);
        assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Triggered);
    }

    #[test]
    fn disabled_suppression_triggers_on_silent_store() {
        let cfg = deferred().with_silent_store_suppression(false);
        let mut rt = Runtime::new(cfg, ());
        let x = rt.alloc(7u32).unwrap();
        let tt = rt.register("t", |_| {});
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 7);
        assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Triggered);
        assert_eq!(rt.stats().counters().silent_stores, 0);
    }

    #[test]
    fn unwatched_store_never_triggers() {
        let mut rt = Runtime::new(deferred(), ());
        let x = rt.alloc(0u32).unwrap();
        let y = rt.alloc(0u32).unwrap();
        let tt = rt.register("t", |_| {});
        rt.watch(tt, x.range()).unwrap();
        rt.write(y, 99);
        assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
    }

    #[test]
    fn line_granularity_false_trigger_counted() {
        let cfg = deferred().with_granularity(Granularity::Line);
        let mut rt = Runtime::new(cfg, ());
        // Two u32 cells land in the same 64-byte line.
        let a = rt.alloc(0u32).unwrap();
        let b = rt.alloc(0u32).unwrap();
        let tt = rt.register("t", |_| {});
        rt.watch(tt, a.range()).unwrap();
        rt.write(b, 1);
        assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Triggered);
        assert_eq!(rt.stats().counters().false_triggers, 1);
    }

    #[test]
    fn mark_dirty_and_force() {
        let mut rt = Runtime::new(deferred(), 0u32);
        let tt = rt.register("inc", |ctx| *ctx.user_mut() += 1);
        rt.mark_dirty(tt).unwrap();
        assert_eq!(rt.join(tt).unwrap(), JoinOutcome::RanInline);
        rt.force(tt).unwrap();
        assert_eq!(rt.with(|ctx| *ctx.user()), 2);
    }

    #[test]
    fn cascading_triggers() {
        let mut rt = Runtime::new(deferred(), ());
        let a = rt.alloc(0u32).unwrap();
        let b = rt.alloc(0u32).unwrap();
        let t2 = rt.register("second", move |ctx| {
            let v = ctx.get(b);
            ctx.set(b, v); // silent here; just to exercise the path
        });
        rt.watch(t2, b.range()).unwrap();
        let t1 = rt.register("first", move |ctx| {
            let v = ctx.get(a);
            ctx.set(b, v * 2);
        });
        rt.watch(t1, a.range()).unwrap();
        rt.write(a, 21);
        rt.join(t1).unwrap();
        // t1 wrote b=42, which triggers t2.
        assert_eq!(rt.status(t2).unwrap(), TthreadStatus::Triggered);
        assert_eq!(rt.join(t2).unwrap(), JoinOutcome::RanInline);
        assert_eq!(rt.stats().counters().cascade_triggers, 1);
        assert_eq!(rt.read(b), 42);
    }

    #[test]
    fn init_writes_do_not_trigger_or_count() {
        let mut rt = Runtime::new(deferred(), ());
        let x = rt.alloc(0u32).unwrap();
        let xs = rt.alloc_array::<u32>(4).unwrap();
        let tt = rt.register("t", |_| {});
        rt.watch(tt, x.range()).unwrap();
        rt.watch(tt, xs.range()).unwrap();
        rt.with(|ctx| {
            ctx.init(x, 99);
            ctx.init_at(xs, 2, 7);
        });
        assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
        assert_eq!(rt.stats().counters().tracked_stores, 0);
        assert_eq!(rt.read(x), 99);
        assert_eq!(rt.read(xs.at(2)), 7);
        // A matrix allocation shares the same arena.
        let m = rt.alloc_matrix::<u64>(2, 3).unwrap();
        rt.with(|ctx| ctx.set(m.at(1, 2), 5));
        assert_eq!(rt.read(m.at(1, 2)), 5);
    }

    #[test]
    fn read_all_matches_written_values() {
        let mut rt = Runtime::new(deferred(), ());
        let xs = rt.alloc_array_from(&[3u64, 1, 4, 1, 5]).unwrap();
        let values = rt.with(|ctx| ctx.read_all(xs));
        assert_eq!(values, vec![3, 1, 4, 1, 5]);
    }

    #[test]
    fn unwatch_detaches_trigger_region() {
        let mut rt = Runtime::new(deferred(), ());
        let xs = rt.alloc_array::<u32>(4).unwrap();
        let tt = rt.register("t", |_| {});
        rt.watch(tt, xs.range_of(0, 2)).unwrap();
        rt.watch(tt, xs.range_of(2, 4)).unwrap();
        rt.unwatch(tt, xs.range_of(0, 2)).unwrap();
        rt.with(|ctx| ctx.write(xs, 0, 9));
        assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
        rt.with(|ctx| ctx.write(xs, 3, 9));
        assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Triggered);
        // Unwatching the same region twice fails.
        assert!(matches!(
            rt.unwatch(tt, xs.range_of(0, 2)),
            Err(Error::NoSuchWatch(_))
        ));
    }

    #[test]
    fn foreign_id_is_rejected() {
        let mut rt = Runtime::new(deferred(), ());
        let bogus = TthreadId::new(42);
        assert!(matches!(rt.join(bogus), Err(Error::UnknownTthread(_))));
        assert!(matches!(rt.status(bogus), Err(Error::UnknownTthread(_))));
        assert!(matches!(rt.force(bogus), Err(Error::UnknownTthread(_))));
        assert!(matches!(
            rt.mark_dirty(bogus),
            Err(Error::UnknownTthread(_))
        ));
    }

    #[test]
    fn watch_out_of_bounds_is_rejected() {
        let mut rt = Runtime::new(deferred(), ());
        let tt = rt.register("t", |_| {});
        let bad = AddrRange::new(crate::addr::Addr::new(1 << 20), 8);
        assert!(matches!(
            rt.watch(tt, bad),
            Err(Error::RegionOutOfBounds { .. })
        ));
    }

    #[test]
    fn join_all_covers_every_tthread() {
        let mut rt = Runtime::new(deferred(), 0u32);
        let x = rt.alloc(0u32).unwrap();
        let t1 = rt.register("a", |ctx| *ctx.user_mut() += 1);
        let t2 = rt.register("b", |ctx| *ctx.user_mut() += 10);
        rt.watch(t1, x.range()).unwrap();
        rt.watch(t2, x.range()).unwrap();
        rt.write(x, 3);
        let outcomes = rt.join_all().unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|(_, o)| *o == JoinOutcome::RanInline));
        assert_eq!(rt.with(|ctx| *ctx.user()), 11);
        let report = rt.report();
        assert_eq!(report.tthreads.len(), 2);
        assert_eq!(report.tthreads[t1.index()].name, "a");
    }

    #[test]
    fn parallel_executor_runs_on_worker() {
        let cfg = deferred().with_workers(2);
        let mut rt = Runtime::new(cfg, 0u64);
        let x = rt.alloc(0u64).unwrap();
        let tt = rt.register("double", move |ctx| {
            let v = ctx.get(x);
            *ctx.user_mut() = v * 2;
        });
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 50);
        // Whatever the interleaving, after join the result is published.
        let outcome = rt.join(tt).unwrap();
        assert!(matches!(
            outcome,
            JoinOutcome::Overlapped | JoinOutcome::Stolen | JoinOutcome::Waited
        ));
        assert_eq!(rt.with(|ctx| *ctx.user()), 100);
        let stats = rt.stats();
        assert_eq!(stats.counters().executions, 1);
    }

    #[test]
    fn parallel_executor_many_triggers_converge() {
        let cfg = deferred().with_workers(4).with_queue_capacity(4);
        let mut rt = Runtime::new(cfg, 0u64);
        let xs = rt.alloc_array::<u64>(16).unwrap();
        let tt = rt.register("sum", move |ctx| {
            let total: u64 = (0..xs.len()).map(|i| ctx.read(xs, i)).sum();
            *ctx.user_mut() = total;
        });
        rt.watch(tt, xs.range()).unwrap();
        for round in 1..=10u64 {
            for i in 0..16 {
                rt.with(|ctx| ctx.write(xs, i, round));
            }
            rt.join(tt).unwrap();
            assert_eq!(rt.with(|ctx| *ctx.user()), 16 * round);
        }
        let (_, user) = rt.into_state();
        assert_eq!(user, 160);
    }

    #[test]
    fn overflow_execute_inline_keeps_correctness() {
        let cfg = deferred()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_coalescing(false);
        let mut rt = Runtime::new(cfg, 0u64);
        let x = rt.alloc(0u64).unwrap();
        let tt = rt.register("copy", move |ctx| {
            let v = ctx.get(x);
            *ctx.user_mut() = v;
        });
        rt.watch(tt, x.range()).unwrap();
        for i in 1..=100u64 {
            rt.write(x, i);
        }
        rt.join(tt).unwrap();
        assert_eq!(rt.with(|ctx| *ctx.user()), 100);
    }

    #[test]
    fn into_state_returns_heap_and_user() {
        let mut rt = Runtime::new(deferred(), String::from("hello"));
        let x = rt.alloc(9u8).unwrap();
        let (heap, user) = rt.into_state();
        assert_eq!(heap.load::<u8>(x.addr()), 9);
        assert_eq!(user, "hello");
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut rt = Runtime::new(deferred(), ());
        let x = rt.alloc(0u32).unwrap();
        rt.write(x, 1);
        assert!(rt.stats().counters().tracked_stores > 0);
        rt.reset_stats();
        assert_eq!(rt.stats().counters().tracked_stores, 0);
    }

    /// An element count whose byte size overflows `usize` is refused, not
    /// wrapped into a small allocation behind a huge handle.
    #[test]
    fn oversized_allocations_are_refused_not_wrapped() {
        let mut rt = Runtime::new(deferred(), ());
        assert!(matches!(
            rt.alloc_array::<u64>(1 << 61),
            Err(Error::ArenaExhausted { .. })
        ));
        assert!(matches!(
            rt.alloc_matrix::<u64>(1 << 31, 1 << 30),
            Err(Error::ArenaExhausted { .. })
        ));
        assert!(matches!(
            rt.alloc_matrix::<u8>(1 << 32, 1 << 32),
            Err(Error::ArenaExhausted { .. })
        ));
        // Nothing was consumed by the refusals.
        assert_eq!(rt.alloc_array::<u64>(4).unwrap().len(), 4);
    }

    #[test]
    fn panicking_tthread_poisons_but_runtime_survives() {
        let mut rt = Runtime::new(deferred(), 0u32);
        let x = rt.alloc(0u32).unwrap();
        let bad = rt.register("bad", |_| panic!("tthread bug"));
        let good = rt.register("good", |ctx| *ctx.user_mut() += 1);
        rt.watch(bad, x.range()).unwrap();
        rt.watch(good, x.range()).unwrap();
        rt.write(x, 1);
        // The inline execution re-raises the panic...
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = rt.join(bad);
        }));
        assert!(caught.is_err());
        // ...but the runtime is not wedged: the bad tthread is poisoned,
        // the good one still works.
        assert!(matches!(rt.join(bad), Err(Error::TthreadPoisoned(_))));
        assert!(matches!(rt.force(bad), Err(Error::TthreadPoisoned(_))));
        assert_eq!(rt.join(good).unwrap(), JoinOutcome::RanInline);
        assert_eq!(rt.with(|ctx| *ctx.user()), 1);
        // Clearing the poison restores the tthread.
        rt.clear_poison(bad).unwrap();
        assert_eq!(rt.join(bad).unwrap(), JoinOutcome::Skipped);
    }

    #[test]
    fn worker_survives_panicking_tthread() {
        let cfg = deferred().with_workers(1);
        let mut rt = Runtime::new(cfg, 0u32);
        let x = rt.alloc(0u32).unwrap();
        let y = rt.alloc(0u32).unwrap();
        let bad = rt.register("bad", |_| panic!("tthread bug"));
        let good = rt.register("good", |ctx| *ctx.user_mut() += 1);
        rt.watch(bad, x.range()).unwrap();
        rt.watch(good, y.range()).unwrap();
        rt.write(x, 1);
        // Whether the worker ran it (poison) or the join stole it (panic
        // propagates), the runtime must stay usable.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.join(bad)));
        assert!(matches!(rt.join(bad), Err(Error::TthreadPoisoned(_))));
        // The single worker must still be alive to run the good tthread.
        rt.write(y, 5);
        rt.join(good).unwrap();
        assert_eq!(rt.with(|ctx| *ctx.user()), 1);
    }

    #[test]
    fn bulk_read_matches_element_reads() {
        let mut rt = Runtime::new(deferred(), ());
        let xs = rt.alloc_array_from(&[1u32, 2, 3, 4, 5]).unwrap();
        rt.with(|ctx| {
            let mut out = Vec::new();
            ctx.read_all_into(xs, &mut out);
            assert_eq!(out, vec![1, 2, 3, 4, 5]);
            ctx.read_slice_into(xs, 1, 4, &mut out);
            assert_eq!(out, vec![2, 3, 4]);
            ctx.read_slice_into(xs, 2, 2, &mut out);
            assert!(out.is_empty());
        });
        assert_eq!(rt.stats().counters().tracked_loads, 8);
    }

    #[test]
    fn bulk_write_detects_silence_per_element() {
        let mut rt = Runtime::new(deferred(), ());
        let xs = rt.alloc_array_from(&[1u32, 2, 3, 4]).unwrap();
        let tt = rt.register("t", |_| {});
        rt.watch(tt, xs.range_of(0, 2)).unwrap();
        // Only elements 2 and 3 change; both are outside the watch.
        rt.with(|ctx| ctx.write_slice(xs, 0, &[1u32, 2, 9, 9]));
        assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
        let c = rt.stats().counters().clone();
        assert_eq!(c.tracked_stores, 4);
        assert_eq!(c.silent_stores, 2);
        assert_eq!(c.changing_stores, 2);
        // Now change a watched element.
        rt.with(|ctx| ctx.write_slice(xs, 0, &[7u32, 2, 9, 9]));
        assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Triggered);
        assert_eq!(rt.read(xs.at(0)), 7);
        assert_eq!(rt.read(xs.at(2)), 9);
    }

    #[test]
    fn bulk_write_dirties_same_tthreads_as_element_writes() {
        let run = |bulk: bool| -> Vec<TthreadStatus> {
            let mut rt = Runtime::new(deferred(), ());
            let xs = rt.alloc_array::<u64>(16).unwrap();
            let tts: Vec<_> = (0..4)
                .map(|i| {
                    let tt = rt.register(&format!("t{i}"), |_| {});
                    rt.watch(tt, xs.range_of(4 * i, 4 * (i + 1))).unwrap();
                    tt
                })
                .collect();
            let mut values = vec![0u64; 16];
            values[5] = 1; // dirties t1
            values[11] = 2; // dirties t2
            rt.with(|ctx| {
                if bulk {
                    ctx.write_slice(xs, 0, &values);
                } else {
                    for (i, &v) in values.iter().enumerate() {
                        ctx.write(xs, i, v);
                    }
                }
            });
            tts.iter().map(|&t| rt.status(t).unwrap()).collect()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn shutdown_under_load_errors_instead_of_panicking() {
        use std::sync::atomic::AtomicBool;
        let cfg = deferred().with_workers(1);
        let mut rt = Runtime::new(cfg, ());
        let x = rt.alloc(0u32).unwrap();
        let started = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&started);
        let tt = rt.register("slow", move |_| {
            flag.store(true, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(200));
        });
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 1);
        // Wait until the worker is provably inside the body, then shut
        // down with a deadline it cannot meet.
        while !started.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(1));
        }
        match rt.shutdown(Duration::from_millis(1)) {
            Err(Error::WorkersStillActive { active }) => assert!(active >= 1),
            other => panic!("expected WorkersStillActive, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_with_drained_workers_returns_state() {
        let cfg = deferred().with_workers(2);
        let mut rt = Runtime::new(cfg, 7u32);
        let x = rt.alloc(3u8).unwrap();
        let tt = rt.register("t", |ctx| *ctx.user_mut() += 1);
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 9);
        rt.join(tt).unwrap();
        let (heap, user) = rt.shutdown(Duration::from_secs(5)).unwrap();
        assert_eq!(heap.load::<u8>(x.addr()), 9);
        assert_eq!(user, 8);
    }

    #[test]
    fn body_deadline_discards_the_write_log() {
        use std::sync::atomic::AtomicBool;
        let cfg = deferred()
            .with_workers(1)
            .with_body_deadline(Duration::from_millis(5));
        let mut rt = Runtime::new(cfg, ());
        let x = rt.alloc(0u32).unwrap();
        let y = rt.alloc(0u32).unwrap();
        let started = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&started);
        let tt = rt.register("overrun", move |ctx| {
            flag.store(true, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(50));
            ctx.set(y, 99);
        });
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 1);
        // Only the worker path enforces the deadline; make sure it (not a
        // stealing join) runs the body.
        while !started.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(rt.join(tt), Err(Error::TthreadTimedOut(id)) if id == tt));
        // The overrunning execution never committed.
        assert_eq!(rt.read(y), 0);
        assert_eq!(rt.stats().counters().body_timeouts, 1);
        assert!(matches!(rt.force(tt), Err(Error::TthreadTimedOut(_))));
        // Recovery mirrors poisoning: clear the flag, then force rebuilds.
        rt.clear_timeout(tt).unwrap();
        rt.force(tt).unwrap();
        assert_eq!(rt.read(y), 99);
        let report = rt.report();
        assert_eq!(rt.stats().counters().body_timeouts, 1);
        assert!(report.timed_out().is_empty());
    }

    #[test]
    fn injected_retrigger_hits_the_retry_cap() {
        use crate::fault::{FaultPlan, ALWAYS};
        let plan = FaultPlan::new(7).with_rate(FaultPoint::Retrigger, ALWAYS);
        let cfg = deferred()
            .with_workers(1)
            .with_commit_retry_cap(4)
            .with_fault_plan(plan);
        let mut rt = Runtime::new(cfg, 0u64);
        let x = rt.alloc(0u64).unwrap();
        let tt = rt.register("copy", move |ctx| {
            let v = ctx.get(x);
            *ctx.user_mut() = v;
        });
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 5);
        // Either the worker ran the retry loop to exhaustion, or the join
        // stole the tthread before the worker got it; poll for the former.
        for _ in 0..2000 {
            if rt.stats().counters().commit_retry_exhausted >= 1 {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        let stats = rt.stats();
        assert_eq!(stats.counters().commit_retry_exhausted, 1);
        assert_eq!(stats.counters().commit_retries, 4);
        // The exhausted tthread was deferred, not wedged: join finishes it
        // inline (the inline path has no retrigger probe).
        rt.join(tt).unwrap();
        assert_eq!(rt.with(|ctx| *ctx.user()), 5);
        let fired = rt.fault_injections();
        assert!(fired[FaultPoint::Retrigger as usize] >= 5);
    }

    #[test]
    fn commit_backoff_waits_between_retries() {
        use crate::fault::{FaultPlan, ALWAYS};
        let plan = FaultPlan::new(7).with_rate(FaultPoint::Retrigger, ALWAYS);
        let cfg = deferred()
            .with_workers(1)
            .with_commit_retry_cap(4)
            .with_commit_backoff(Duration::from_micros(50))
            .with_fault_plan(plan);
        let mut rt = Runtime::new(cfg, 0u64);
        let x = rt.alloc(0u64).unwrap();
        let tt = rt.register("copy", move |ctx| {
            let v = ctx.get(x);
            *ctx.user_mut() = v;
        });
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 5);
        for _ in 0..2000 {
            if rt.stats().counters().commit_retry_exhausted >= 1 {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        let stats = rt.stats();
        assert_eq!(stats.counters().commit_retry_exhausted, 1);
        assert_eq!(stats.counters().commit_retries, 4);
        // Every retry waited: the backoff branch ran once per retry.
        assert_eq!(stats.counters().commit_backoff_waits, 4);
        // Backoff delays the rerun; it must not change the outcome.
        rt.join(tt).unwrap();
        assert_eq!(rt.with(|ctx| *ctx.user()), 5);
    }

    #[test]
    fn drain_is_idempotent_under_active_workers() {
        use std::sync::atomic::AtomicBool;
        let cfg = deferred().with_workers(2);
        let mut rt = Runtime::new(cfg, 0u64);
        let x = rt.alloc(0u64).unwrap();
        let started = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&started);
        let tt = rt.register("slow", move |ctx| {
            flag.store(true, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(20));
            let v = ctx.get(x);
            *ctx.user_mut() = v;
        });
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 7);
        while !started.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(1));
        }
        // The first drain lands while a worker is mid-body: it waits the
        // body out (the commit still happens) rather than stranding it.
        rt.drain(Duration::from_secs(10)).unwrap();
        // A second drain — e.g. the drain path racing a signal handler —
        // finds no handles and returns Ok without re-signalling.
        rt.drain(Duration::from_secs(10)).unwrap();
        rt.join(tt).unwrap();
        assert_eq!(rt.with(|ctx| *ctx.user()), 7);
        // The runtime stays usable as a deferred executor after a drain.
        rt.write(x, 9);
        rt.join(tt).unwrap();
        assert_eq!(rt.with(|ctx| *ctx.user()), 9);
        // And the consuming shutdown still tears down cleanly after it.
        let (_heap, user) = rt.shutdown(Duration::from_secs(10)).unwrap();
        assert_eq!(user, 9);
    }

    #[test]
    fn injected_body_fault_poisons_without_unwinding() {
        use crate::fault::{FaultPlan, ALWAYS};
        let plan = FaultPlan::new(9)
            .with_rate(FaultPoint::BodyStart, ALWAYS)
            .with_budget(FaultPoint::BodyStart, 1);
        let cfg = deferred().with_workers(1).with_fault_plan(plan);
        let mut rt = Runtime::new(cfg, 0u32);
        let x = rt.alloc(0u32).unwrap();
        let tt = rt.register("t", |ctx| *ctx.user_mut() += 1);
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 1);
        // Wait for the worker to consume the injected failure.
        for _ in 0..2000 {
            if matches!(rt.status(tt), Ok(TthreadStatus::Clean)) {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(rt.join(tt), Err(Error::TthreadPoisoned(_))));
        assert_eq!(rt.fault_injections()[FaultPoint::BodyStart as usize], 1);
        // Budget of one: recovery works and the next run is clean.
        rt.clear_poison(tt).unwrap();
        rt.force(tt).unwrap();
        assert_eq!(rt.with(|ctx| *ctx.user()), 1);
    }

    #[test]
    fn report_rows_count_per_thread() {
        let mut rt = Runtime::new(deferred(), ());
        let x = rt.alloc(0u32).unwrap();
        let tt = rt.register("t", |_| {});
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 1);
        rt.join(tt).unwrap();
        rt.join(tt).unwrap();
        let rows = rt.report().tthreads;
        assert_eq!(rows.len(), 1);
        let row = &rows[tt.index()];
        assert_eq!((row.executions, row.skips, row.triggers), (1, 1, 1));
    }

    /// The lock-free join proof: while the joiner waits for a Running
    /// body, it is asleep on the *completion eventcount* and the state
    /// lock is free — `try_lock` from another thread succeeds.
    #[test]
    fn join_parks_on_completions_without_the_state_lock() {
        use std::sync::atomic::AtomicBool;
        let cfg = deferred().with_workers(1);
        let mut rt = Runtime::new(cfg, ());
        let release = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&release);
        let x = rt.alloc(0u32).unwrap();
        let tt = rt.register("gated", move |_| {
            while !gate.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_micros(50));
            }
        });
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 1);
        // Wait until the worker is provably inside the body.
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.status(tt).unwrap() != TthreadStatus::Running {
            assert!(Instant::now() < deadline, "worker never claimed the unit");
            thread::sleep(Duration::from_micros(50));
        }
        let inner = Arc::clone(&rt.inner);
        let opener = Arc::clone(&release);
        thread::scope(|s| {
            s.spawn(move || {
                // Catch the joiner committed to sleep on `completions`
                // with the state lock simultaneously available. If the
                // join held the lock while blocked, this combination
                // could never be observed and the deadline would fire.
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    assert!(
                        Instant::now() < deadline,
                        "joiner never parked lock-free on the completion eventcount"
                    );
                    if inner.dispatch.completions.sleeping() > 0 {
                        if let Some(guard) = inner.state.try_lock() {
                            drop(guard);
                            break;
                        }
                    }
                    thread::sleep(Duration::from_micros(100));
                }
                opener.store(true, Ordering::SeqCst);
            });
            assert_eq!(rt.join(tt).unwrap(), JoinOutcome::Waited);
        });
    }

    /// `force` parked on a Running execution that then panics must report
    /// the poison, exactly as `join` does — not claim the force-cleaned
    /// slot and run the body again inline with the flag still set.
    #[test]
    fn force_reports_a_tthread_poisoned_while_it_waited() {
        use std::sync::atomic::AtomicBool;
        let cfg = deferred().with_workers(1);
        let mut rt = Runtime::new(cfg, ());
        let release = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&release);
        let x = rt.alloc(0u32).unwrap();
        let tt = rt.register("gated-bug", move |_| {
            while !gate.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_micros(50));
            }
            panic!("tthread bug");
        });
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, 1);
        // Wait until the worker is provably inside the body.
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.status(tt).unwrap() != TthreadStatus::Running {
            assert!(Instant::now() < deadline, "worker never claimed the unit");
            thread::sleep(Duration::from_micros(50));
        }
        let executions = rt.stats().counters().executions;
        let inner = Arc::clone(&rt.inner);
        thread::scope(|s| {
            s.spawn(move || {
                // Let the body panic only once `force` is asleep on the
                // completion eventcount, past its entry checks.
                let deadline = Instant::now() + Duration::from_secs(10);
                while inner.dispatch.completions.sleeping() == 0 {
                    assert!(Instant::now() < deadline, "force never parked");
                    thread::sleep(Duration::from_micros(100));
                }
                release.store(true, Ordering::SeqCst);
            });
            assert!(matches!(rt.force(tt), Err(Error::TthreadPoisoned(_))));
        });
        assert_eq!(rt.stats().counters().executions, executions);
    }

    /// The shutdown-latency regression test: an idle runtime (all workers
    /// parked in their timed wait) must tear down via the eventcount
    /// `close()` broadcast in a small fraction of the configured park
    /// timeout, not by riding out park periods.
    #[test]
    fn idle_runtime_shutdown_beats_the_park_timeout() {
        use crate::dispatch::PARK_TIMEOUT;
        let cfg = deferred().with_workers(4);
        let rt = Runtime::new(cfg, ());
        // Let every worker reach its parked steady state.
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.inner.dispatch.waiters.sleeping() < 4 {
            assert!(Instant::now() < deadline, "workers never parked");
            thread::sleep(Duration::from_millis(1));
        }
        let t0 = Instant::now();
        drop(rt.into_state());
        let elapsed = t0.elapsed();
        assert!(
            elapsed < PARK_TIMEOUT / 2,
            "idle shutdown took {elapsed:?}; it must beat the {PARK_TIMEOUT:?} park period"
        );
    }

    /// An idle worker's park expires every period with nothing to do: that
    /// is a timeout, not a rescue. Only an expiry that finds work nobody
    /// woke the worker for counts in `park_rescues`.
    #[test]
    fn idle_park_expiry_is_not_a_rescue() {
        let rt = Runtime::new(deferred().with_workers(1), ());
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.stats().counters().park_timeouts < 2 {
            assert!(Instant::now() < deadline, "the idle worker never timed out");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(rt.stats().counters().park_rescues, 0);
    }

    /// One FIFO feeds every worker, whatever the ids: four entries whose
    /// ids are all ≡ 0 mod 4 (the worst case for any id-keyed affinity)
    /// are held by four distinct workers at once. Each body waits inside
    /// the rendezvous until all four have arrived, so it completes only if
    /// four threads are in bodies simultaneously. The main thread waits on
    /// the rendezvous itself, not on a join — a join would steal a
    /// still-queued entry and make the main thread one of the parties.
    #[test]
    fn four_workers_hold_four_queue_entries_at_once() {
        use std::sync::atomic::AtomicUsize;
        let cfg = deferred().with_workers(4);
        let mut rt = Runtime::new(cfg, ());
        let xs = rt.alloc_array::<u32>(16).unwrap();
        let arrived = Arc::new(AtomicUsize::new(0));
        let parties = Arc::new(Mutex::new(Vec::new()));
        // Bodies give up at the deadline too, so a failure is an assert
        // below rather than four workers wedged in the rendezvous.
        let deadline = Instant::now() + Duration::from_secs(30);
        for i in 0..16 {
            let (arrived, parties) = (Arc::clone(&arrived), Arc::clone(&parties));
            let tt = rt.register(&format!("t{i}"), move |_| {
                parties
                    .lock()
                    .push(thread::current().name().map(str::to_owned));
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
                    thread::yield_now();
                }
            });
            rt.watch(tt, xs.range_of(i, i + 1)).unwrap();
        }
        for i in (0..16).step_by(4) {
            rt.with(|ctx| ctx.write(xs, i, 1));
        }
        while arrived.load(Ordering::SeqCst) < 4 {
            assert!(Instant::now() < deadline, "four bodies never met");
            thread::yield_now();
        }
        rt.join_all().unwrap();
        let mut parties = parties.lock().clone();
        parties.sort();
        parties.dedup();
        assert_eq!(parties.len(), 4, "four distinct threads: {parties:?}");
        assert!(parties.iter().all(|name| name
            .as_deref()
            .is_some_and(|n| n.starts_with("dtt-worker-"))));
        let c = rt.stats().counters().clone();
        assert_eq!((c.worker_executions, c.inline_executions), (4, 0));
    }

    /// Regression for the wrapped mod-64 page filter: page 64 shared a
    /// filter bit with page 0, so a watch on page 0 forced every store to
    /// page 64 through the full trigger table. The hierarchical filter
    /// gives each page its own bit; the store must exit after exactly one
    /// page-level load (one `filter_checks` tick, zero `filter_page_hits`).
    #[test]
    fn store_sixty_four_pages_from_a_watch_misses_in_one_load() {
        let mut rt = Runtime::new(deferred(), ());
        let xs = rt.alloc_array::<u8>(65 * 4096).unwrap();
        let tt = rt.register("t", |_| {});
        rt.watch(tt, xs.range_of(0, 64)).unwrap();
        rt.reset_stats();

        // Locked (ctx) store path.
        rt.with(|ctx| ctx.set(xs.at(64 * 4096), 1u8));
        let c = rt.stats().counters().clone();
        assert_eq!(c.filter_checks, 1);
        assert_eq!(c.filter_page_hits, 0, "page 64 aliased page 0 pre-fix");
        assert_eq!(c.filter_line_hits, 0);

        // Lock-free accessor store path.
        rt.reset_stats();
        let mut acc = rt.accessor();
        acc.set(xs.at(64 * 4096), 2u8);
        drop(acc);
        let c = rt.stats().counters().clone();
        assert_eq!(c.filter_checks, 1);
        assert_eq!(c.filter_page_hits, 0);
        assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
    }

    /// Two watches on pages 0 and 64 — the pair that collapsed onto one
    /// bit in the wrapped filter. Unwatching one must not strip filter
    /// coverage from the other, and must genuinely clear its own page.
    #[test]
    fn unwatch_of_mod64_twin_page_keeps_the_other_watched() {
        let mut rt = Runtime::new(deferred(), ());
        let xs = rt.alloc_array::<u8>(65 * 4096).unwrap();
        let t0 = rt.register("page0", |_| {});
        let t64 = rt.register("page64", |_| {});
        rt.watch(t0, xs.range_of(0, 64)).unwrap();
        rt.watch(t64, xs.range_of(64 * 4096, 64 * 4096 + 64))
            .unwrap();
        rt.unwatch(t64, xs.range_of(64 * 4096, 64 * 4096 + 64))
            .unwrap();

        // The survivor still triggers.
        rt.write(xs.at(0), 9u8);
        assert_eq!(rt.status(t0).unwrap(), TthreadStatus::Triggered);

        // The unwatched twin page is fully cleared: one-load exit again.
        rt.join(t0).unwrap();
        rt.reset_stats();
        rt.write(xs.at(64 * 4096), 9u8);
        let c = rt.stats().counters().clone();
        assert_eq!(c.filter_checks, 1);
        assert_eq!(c.filter_page_hits, 0, "stale bit survived the unwatch");
        assert_eq!(rt.status(t64).unwrap(), TthreadStatus::Clean);
    }

    /// Within a watched page the second filter level discriminates
    /// 64-byte lines: a store to a distant line on the same page loads
    /// the page word (hit) and the line word (miss), and never reaches
    /// the trigger table.
    #[test]
    fn same_page_distant_line_misses_at_line_level() {
        let mut rt = Runtime::new(deferred(), ());
        let xs = rt.alloc_array::<u8>(4096).unwrap();
        let tt = rt.register("t", |_| {});
        rt.watch(tt, xs.range_of(0, 64)).unwrap();
        rt.reset_stats();
        // Last line of the same page.
        rt.write(xs.at(4032), 1u8);
        let c = rt.stats().counters().clone();
        assert_eq!(c.filter_checks, 1);
        assert_eq!(c.filter_page_hits, 1);
        assert_eq!(c.filter_line_hits, 0);
        assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
    }

    /// A tthread storing into another tthread's trigger region raises it
    /// as a *cascade* wave unit, and the wave conservation identity
    /// `cascades == cascade_enqueues + cascade_coalesced + cascade_cutoffs`
    /// holds at quiescence.
    #[test]
    fn tthread_to_tthread_raise_counts_as_cascade() {
        let mut rt = Runtime::new(deferred(), ());
        let a = rt.alloc(0u32).unwrap();
        let b = rt.alloc(0u32).unwrap();
        let c = rt.alloc(0u32).unwrap();
        let t1 = rt.register("t1", move |ctx| {
            let v = ctx.get(a);
            ctx.set(b, v + 1);
        });
        let t2 = rt.register("t2", move |ctx| {
            let v = ctx.get(b);
            ctx.set(c, v * 10);
        });
        rt.watch(t1, a.range()).unwrap();
        rt.watch(t2, b.range()).unwrap();
        rt.write(a, 4);
        assert_eq!(rt.join(t1).unwrap(), JoinOutcome::RanInline);
        assert_eq!(rt.join(t2).unwrap(), JoinOutcome::RanInline);
        assert_eq!(rt.with(|ctx| ctx.get(c)), 50);
        let s = rt.stats().counters().clone();
        assert_eq!(s.cascades, 1);
        assert_eq!(s.cascade_enqueues, 1);
        assert_eq!(s.cascade_cutoffs, 0);
        assert_eq!(
            s.cascades,
            s.cascade_enqueues + s.cascade_coalesced + s.cascade_cutoffs
        );
    }

    /// Early cutoff: a cascade-raised recomputation whose stores are all
    /// silent terminates the wave, is counted as a `cascade_cutoffs`
    /// terminal wave unit, and never raises the tthreads downstream of
    /// *it* — the transitive skip.
    #[test]
    fn fully_silent_cascade_commit_cuts_the_wave() {
        let mut rt = Runtime::new(deferred(), 0u64);
        let a = rt.alloc(1u32).unwrap();
        let b = rt.alloc(1u32).unwrap();
        let c = rt.alloc(1u32).unwrap();
        let t1 = rt.register("copy", move |ctx| {
            let v = ctx.get(a);
            ctx.set(b, v);
        });
        // Saturating: any b >= 1 produces the same c.
        let t2 = rt.register("clamp", move |ctx| {
            let v = ctx.get(b);
            ctx.set(c, v.min(1));
        });
        let t3 = rt.register("sink", move |ctx| {
            let v = ctx.get(c);
            *ctx.user_mut() += u64::from(v);
        });
        rt.watch(t1, a.range()).unwrap();
        rt.watch(t2, b.range()).unwrap();
        rt.watch(t3, c.range()).unwrap();
        // a: 1 -> 2 changes b (cascade to t2), but c stays 1: the wave
        // stops at t2 and t3 is never raised.
        rt.write(a, 2);
        assert_eq!(rt.join(t1).unwrap(), JoinOutcome::RanInline);
        assert_eq!(rt.join(t2).unwrap(), JoinOutcome::RanInline);
        assert_eq!(rt.join(t3).unwrap(), JoinOutcome::Skipped);
        let s = rt.stats().counters().clone();
        assert_eq!(s.cascades, 2, "one raise + one terminal cutoff");
        assert_eq!(s.cascade_enqueues, 1);
        assert_eq!(s.cascade_cutoffs, 1);
        assert_eq!(
            s.cascades,
            s.cascade_enqueues + s.cascade_coalesced + s.cascade_cutoffs
        );
        assert_eq!(s.executions, 2);
    }

    /// One commit raises each downstream tthread at most once: multiple
    /// stores of the same body landing in one reader's trigger regions
    /// dedupe per wave epoch, not per store.
    #[test]
    fn wave_raises_dedupe_per_body_epoch() {
        let mut rt = Runtime::new(deferred(), ());
        let a = rt.alloc(0u32).unwrap();
        let bs = rt.alloc_array::<u32>(2).unwrap();
        let t1 = rt.register("fan", move |ctx| {
            let v = ctx.get(a);
            // Two separate stores, both in t2's watch region.
            ctx.write(bs, 0, v);
            ctx.write(bs, 1, v + 1);
        });
        let t2 = rt.register("sum", move |ctx| {
            let _ = ctx.read(bs, 0) + ctx.read(bs, 1);
        });
        rt.watch(t1, a.range()).unwrap();
        rt.watch(t2, bs.range()).unwrap();
        rt.write(a, 3);
        rt.join(t1).unwrap();
        rt.join(t2).unwrap();
        let s = rt.stats().counters().clone();
        assert_eq!(s.cascades, 1, "second store into t2's region deduped");
        assert_eq!(s.wave_dedups, 1);
        assert_eq!(
            s.cascades,
            s.cascade_enqueues + s.cascade_coalesced + s.cascade_cutoffs
        );
    }

    /// Declared outputs plus watches form the edge map, and an edge that
    /// would close a cross-tthread cycle is rejected at install time with
    /// `Error::TriggerCycle` naming the cycle path.
    #[test]
    fn watch_time_cycle_detection_names_the_path() {
        let mut rt = Runtime::new(deferred(), ());
        let a = rt.alloc(0u32).unwrap();
        let b = rt.alloc(0u32).unwrap();
        let c = rt.alloc(0u32).unwrap();
        let t0 = rt.register("t0", |_| {});
        let t1 = rt.register("t1", |_| {});
        let t2 = rt.register("t2", |_| {});
        rt.declare_output(t0, b.range()).unwrap();
        rt.declare_output(t1, c.range()).unwrap();
        rt.declare_output(t2, a.range()).unwrap();
        rt.watch(t0, a.range()).unwrap();
        rt.watch(t1, b.range()).unwrap();
        assert_eq!(rt.report().edges.len(), 2);
        // t2 watching c closes t0 -> t1 -> t2 -> t0.
        let err = rt.watch(t2, c.range()).unwrap_err();
        match err {
            Error::TriggerCycle { path } => {
                assert_eq!(path.first(), path.last());
                assert_eq!(path.len(), 4);
            }
            other => panic!("expected TriggerCycle, got {other:?}"),
        }
        // The rejected watch was rolled back: the edge map is unchanged
        // and the tthread still fires nothing on stores to c.
        assert_eq!(rt.report().edges.len(), 2);
        assert_eq!(rt.stats().counters().trigger_cycles_rejected, 1);
        rt.write(c, 7);
        assert_eq!(rt.status(t2).unwrap(), TthreadStatus::Clean);
    }

    /// A tthread watching its own declared output (the established
    /// self-retrigger pattern) is *not* a rejected cycle.
    #[test]
    fn self_loop_is_not_a_trigger_cycle() {
        let mut rt = Runtime::new(deferred(), ());
        let x = rt.alloc(0u32).unwrap();
        let t = rt.register("t", |_| {});
        rt.declare_output(t, x.range()).unwrap();
        rt.watch(t, x.range()).unwrap();
        assert!(rt.report().edges.is_empty());
    }
}
