//! The data-triggered-threads runtime.
//!
//! [`Runtime`] owns the tracked arena, the trigger table, the thread status
//! table, the pending queue and (optionally) a pool of worker threads. See
//! the crate-level documentation for the programming model and a complete
//! example.
//!
//! The code follows one tthread's lifecycle, one step per file:
//!
//! | file | step |
//! |---|---|
//! | `mod.rs` | construction, allocation, registration and watches, `with`/accessor regions, the trigger raise, report and stats |
//! | `exec.rs` | running a body: the worker loop, the detached run and its commit, the inline run, poisoning |
//! | `join.rs` | the consumption point: join (skip, steal, wait), force, status, `mark_dirty`, clearing failures |
//! | `teardown.rs` | the worker pool, drain, shutdown and `into_state` |

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use crate::accessor::Accessor;
use crate::addr::{Addr, AddrRange};
use crate::config::Config;
use crate::ctx::Ctx;
use crate::dispatch::{ChunkTable, Dispatch, RaiseStep};
use crate::error::{Error, Result};
use crate::fault::{FaultLayer, FaultPoint};
use crate::filter::WatchFilter;
use crate::graph::DepGraph;
use crate::handle::{Tracked, TrackedArray, TrackedMatrix};
use crate::mem::ShardedMem;
use crate::obs::{EventKind, ObsRecorder, ObsRecording, OBS_RING_CAPACITY};
use crate::pod::Pod;
use crate::stats::{CounterLine, CounterLines, Counters, StatsSnapshot, Tally};
use crate::trigger::{LookupScratch, TriggerTable};
use crate::tthread::{StatusTable, TthreadId};

mod exec;
mod join;
mod teardown;
#[cfg(test)]
mod tests;

pub use join::JoinOutcome;
use teardown::WorkerPool;

/// Maximum bytes the tracked arena may grow to.
const ARENA_CAPACITY: u64 = 1 << 32;

type TthreadFn<U> = Box<dyn Fn(&mut Ctx<'_, U>) + Send + Sync>;

pub(crate) struct TthreadEntry<U> {
    name: String,
    func: TthreadFn<U>,
}

/// The genuinely serial part of the runtime, behind the state lock: the
/// tthread status table, user state, and the lock line — the counter line
/// of whoever holds the lock.
///
/// Tracked memory, the trigger table, and the other counter lines live
/// *outside* this lock so tracked loads and stores scale across threads,
/// and the status machine is lock-free with the pending queue behind its
/// own leaf mutex; only commits, inline runs and overflow handling come
/// back here.
pub struct State<U> {
    pub(crate) user: U,
    pub(crate) tst: StatusTable,
    /// Everything counted under the lock, which makes its writers one.
    pub(crate) lock_line: CounterLine,
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
    /// The counter lines written without the state lock.
    pub(crate) counters: CounterLines,
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
    /// Set while no worker pops the pending queue: from construction when
    /// there are no workers, and from the moment shutdown is signalled.
    /// Workers exit on it; raises read it to pick the deferred executor,
    /// so a drained runtime runs triggered tthreads at their joins.
    shutdown: AtomicBool,
}

/// What one trigger did to its tthread's status machine
/// ([`Inner::raise`]).
pub(crate) enum Raise {
    /// Absorbed by an already-pending or running instance.
    Coalesced,
    /// A new pending execution: queued for a worker, or marked Triggered
    /// for the next join.
    Activated,
    /// The tthread advanced Clean→Queued but no queue entry landed
    /// (injected or real overflow). The caller runs it inline under the
    /// state lock, validating its claim with `token`.
    Overflow(u64),
}

impl<U> Inner<U> {
    /// The registered name and body of `id`.
    fn tthread(&self, id: TthreadId) -> &TthreadEntry<U> {
        self.tthreads
            .get(id.index())
            .get()
            .expect("tthread registered")
    }

    /// Whether triggered tthreads wait for their joins: no worker pops the
    /// queue (none were started, or they were drained). Relaxed: the flag
    /// publishes no data. A raise on another thread that reads it stale
    /// queues an entry no worker pops, and the next join steals it.
    #[inline]
    pub(crate) fn deferred(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Advances `id`'s status machine for one trigger without the state
    /// lock. Counts the per-tthread trigger in its slot and the
    /// dispatch-side machinery on the caller's `line`: the lock line from
    /// a locked context, an accessor's own line from an accessor.
    pub(crate) fn raise(&self, id: TthreadId, line: &CounterLine) -> Raise {
        let slot = self.dispatch.slots.get(id.index());
        slot.triggers.fetch_add(1, Ordering::Relaxed);
        match slot.raise(self.deferred(), !self.cfg.coalesce) {
            RaiseStep::Absorbed => {
                line.bump(Tally::coalesced_triggers, 1);
                self.obs.event(EventKind::Coalesced, id, 0);
                Raise::Coalesced
            }
            RaiseStep::Deferred => Raise::Activated,
            RaiseStep::Enqueue(token) => {
                // Injected saturation: report the queue full without
                // consuming a slot, driving the overflow path on an
                // otherwise-healthy queue.
                if self.fault.fire(FaultPoint::Enqueue)
                    || !self.dispatch.pending.push(id.index() as u32, token)
                {
                    return Raise::Overflow(token);
                }
                line.bump(Tally::enqueues, 1);
                if self.obs.on() {
                    let occupancy = self.dispatch.pending.len() as u64;
                    self.obs.event(EventKind::TriggerEnqueued, id, occupancy);
                }
                // Wake one parked worker: any of them can pop the entry.
                // An injected wake drop loses the epoch bump too; the
                // workers' timed park bounds the damage to one period.
                if !self.fault.fire(FaultPoint::WakeDrop) && self.dispatch.waiters.wake_one() {
                    line.bump(Tally::worker_wakes, 1);
                }
                Raise::Activated
            }
        }
    }

    /// Records a store event into the ring of the shard `addr` hashes to,
    /// if recording is on: one relaxed load when it is off.
    #[inline(always)]
    pub(crate) fn obs_store(&self, kind: EventKind, addr: Addr, tthread: Option<TthreadId>) {
        if self.obs.on() {
            self.obs
                .record(self.mem.shard_of(addr), kind, tthread, addr.raw());
        }
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
/// * observes **one consistent cut** of tracked memory as of its start
///   (or, once it takes user state, as of that instant), plus its own
///   writes — never a concurrent main-thread store tearing through its
///   reads. Only the stripes it touches are copied, each on
///   first touch; reading one that changed after the start restarts the
///   body, which has published nothing, with the same taken changed set
///   (bounded by `commit_retry_cap`, past which its join runs it);
/// * publishes its tracked stores **atomically at commit**, after the body
///   returns: the worker reacquires the state lock, replays the body's
///   write log against live memory, and fires triggers for the stores that
///   still change it (a store another thread already made redundant is
///   counted as a commit conflict and fires nothing);
/// * sees the **live, shared** user state `U` through
///   [`Ctx::user`]/[`Ctx::user_mut`] — first access acquires the state
///   lock and holds it until the commit, so user-state updates serialize
///   with main-thread regions. That first access re-checks the stripes
///   read so far (restarting before user state is handed out if a byte
///   it read went stale), which moves the body's cut to that instant; from
///   then on it reads live memory plus its own writes, as an inline body
///   would;
/// * is **re-executed** (with a fresh view) if a trigger landed on it
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
    /// Skipping joins per tthread, kept across a reset like the TST entry.
    skips: Vec<u64>,
    /// The fold at the last [`Runtime::reset_stats`].
    baseline: Counters,
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
            lock_line: CounterLine::default(),
            scratch: Vec::new(),
            bulk_scratch: Vec::new(),
            graph: DepGraph::new(cfg.granularity),
        };
        // Only workers (and the joiners that help beside them) run bodies
        // detached, so only their arena stamps stripe versions for views.
        let mem = ShardedMem::new(
            ARENA_CAPACITY,
            crate::mem::default_shards(),
            cfg.workers > 0,
        );
        let triggers = RwLock::new(TriggerTable::new(cfg.granularity));
        let watch_filter = WatchFilter::new(ARENA_CAPACITY);
        let counters = CounterLines::new(cfg.workers);
        // Nothing is counted yet: the first baseline is the empty fold.
        let baseline = counters.fold(&state.lock_line);
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
            shutdown: AtomicBool::new(workers == 0),
        });
        Runtime {
            pool: WorkerPool::start(&inner, workers),
            inner,
            registered: 0,
            skips: Vec::new(),
            baseline,
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
        // Nothing ran yet, so the first run sees everything as changed.
        self.inner.dispatch.slots.ensure(id.index());
        self.inner.dispatch.slots.get(id.index()).changed.set_all();
        self.inner.tthreads.ensure(id.index());
        let entry = TthreadEntry {
            name: name.to_owned(),
            func: Box::new(body),
        };
        let fresh = self.inner.tthreads.get(id.index()).set(entry).is_ok();
        assert!(fresh, "tthread ids are issued once");
        self.registered += 1;
        self.skips.push(0);
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
            state.lock_line.bump(Tally::trigger_cycles_rejected, 1);
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
            state.lock_line.bump(Tally::trigger_cycles_rejected, 1);
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

    /// Per-[`FaultPoint`] injected-fault counts, indexed by discriminant
    /// (all zero unless a [`Config::fault_plan`] is installed).
    pub fn fault_injections(&self) -> [u64; FaultPoint::COUNT] {
        self.inner.fault.counts()
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
                    skips: self.skips[id.index()],
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

    /// Snapshot of the global runtime statistics since the last
    /// [`Runtime::reset_stats`]: every counter line folded, the lock line
    /// under the state lock, so identities among its counts always hold.
    pub fn stats(&self) -> StatsSnapshot {
        self.folded_stats(&self.inner.state.lock())
    }

    /// Every counter line, the lock line read under `state`, less the
    /// baseline.
    fn folded_stats(&self, state: &State<U>) -> StatsSnapshot {
        let folded = self.inner.counters.fold(&state.lock_line);
        folded.since(&self.baseline).snapshot()
    }

    /// Zeroes the global statistics (per-tthread counters are kept) by
    /// recording the current fold as the baseline later folds subtract.
    pub fn reset_stats(&mut self) {
        let state = self.inner.state.lock();
        self.baseline = self.inner.counters.fold(&state.lock_line);
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
