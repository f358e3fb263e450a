//! Concurrent tracked-memory access off the global state lock.
//!
//! [`Accessor`] is the scaling counterpart of [`crate::runtime::Runtime::with`]:
//! it performs tracked loads and stores against the sharded arena directly,
//! so accessors on different threads — and different address shards —
//! proceed in parallel, the way the paper's hardware runs the store-side
//! value compare on every core without serializing the pipeline. Trigger
//! raises go through the atomic status words; only a raise that *overflows*
//! the pending queue takes the state lock, to run the tthread inline.
//!
//! # Locking protocol (per store)
//!
//! 1. stripe lock(s) for the store's range → write + value compare → unlock;
//! 2. silent store → done, no further locks;
//! 3. trigger-table **read** lock → lookup into reusable scratch → unlock;
//! 4. no hits → done; otherwise raise the hits on their status words;
//! 5. queue overflow only: state lock → inline run → unlock.
//!
//! No two of these are ever held across a step boundary, and the state lock
//! is always the *last* acquired, so accessors cannot deadlock with
//! lock-holding paths (which take the state lock first and the others
//! after).
//!
//! # Memory-ordering contract
//!
//! The store is published (step 1) *before* its trigger is raised (step 4).
//! A concurrent `join` therefore either sees the trigger (and re-executes
//! against memory that already contains the store) or misses a
//! still-in-flight trigger exactly as it would have missed a
//! fractionally-later store; once the raising store's `set` call returns,
//! the trigger is visible to every later join. The worst interleaving
//! causes a *spurious* re-execution (another accessor's store raised the
//! tthread between this store's compare and raise) — never a lost one:
//! every changing store to a watched range raises its hits before `set`
//! returns.

use std::sync::Arc;

use crate::addr::AddrRange;
use crate::handle::{Tracked, TrackedArray};
use crate::obs::EventKind;
use crate::pod::Pod;
use crate::runtime::{Inner, Raise};
use crate::stats::{CounterLine, Tally};
use crate::trigger::LookupScratch;
use crate::Ctx;

/// A per-thread handle for lock-free-ish tracked memory access.
///
/// Create one per thread with [`crate::runtime::Runtime::accessor`]; the
/// accessor owns reusable trigger-lookup scratch, so its store path is
/// allocation-free after warmup, and a counter line of its own, handed on,
/// counts kept, to a later accessor once it drops.
///
/// # Examples
///
/// ```
/// use dtt_core::{Config, Runtime};
///
/// let mut rt = Runtime::new(Config::default(), ());
/// let xs = rt.alloc_array::<u64>(64).unwrap();
/// std::thread::scope(|s| {
///     let rt = &rt;
///     for t in 0..4usize {
///         s.spawn(move || {
///             let mut acc = rt.accessor();
///             for i in (t * 16)..(t * 16 + 16) {
///                 acc.write(xs, i, i as u64);
///             }
///         });
///     }
/// });
/// let mut acc = rt.accessor();
/// assert_eq!(acc.read(xs, 63), 63);
/// ```
pub struct Accessor<'rt, U> {
    inner: &'rt Inner<U>,
    scratch: LookupScratch,
    line: Arc<CounterLine>,
}

impl<U> Drop for Accessor<'_, U> {
    fn drop(&mut self) {
        self.inner.counters.release(Arc::clone(&self.line));
    }
}

impl<U> std::fmt::Debug for Accessor<'_, U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Accessor").finish_non_exhaustive()
    }
}

impl<'rt, U: Send + 'static> Accessor<'rt, U> {
    pub(crate) fn new(inner: &'rt Inner<U>) -> Self {
        Accessor {
            inner,
            scratch: LookupScratch::new(),
            line: inner.counters.acquire(),
        }
    }

    /// Loads a tracked scalar without taking the state lock.
    pub fn get<T: Pod>(&mut self, cell: Tracked<T>) -> T {
        self.line.bump(Tally::tracked_loads, 1);
        self.inner.mem.load(cell.addr())
    }

    /// Stores a tracked scalar, firing triggers if the value changed.
    ///
    /// The fast path (silent store, or no watcher) never touches the state
    /// lock; see the module docs for the full protocol.
    pub fn set<T: Pod>(&mut self, cell: Tracked<T>, value: T) {
        let detect = self.inner.cfg.suppress_silent_stores;
        let effect = self.inner.mem.store(cell.addr(), value, detect);
        self.line.on_store(effect, detect);
        if detect && !effect.changed {
            self.inner.obs_store(EventKind::Store, cell.addr(), None);
            return;
        }
        self.inner
            .obs_store(EventKind::ChangeDetected, cell.addr(), None);
        // Watched-address filter: for the common unwatched store a single
        // page-bit load proves no watch can match; watched-page traffic
        // still exits at line granularity. Either miss skips the
        // trigger-table read lock.
        let probe = self.inner.watch_filter.probe(cell.range());
        self.line.on_filter(probe);
        if probe.is_miss() {
            self.inner
                .obs_store(EventKind::FilterSkip, cell.addr(), None);
            return;
        }
        // Read guard dropped at the end of the statement, before the state
        // lock: lock order is always stripe → triggers → state, each
        // released before the next.
        self.inner
            .triggers
            .read()
            .lookup_with(cell.range(), &mut self.scratch);
        if !self.scratch.hits().is_empty() {
            self.raise_hits(cell.range());
        }
    }

    /// Raise this store's trigger hits entirely through the lock-free
    /// status machine, each after pushing the store's range into the
    /// tthread's changed set. Only an overflow ticket (pending queue full,
    /// or an injected enqueue fault) drops to the state lock, where the
    /// tthread runs inline.
    fn raise_hits(&mut self, store_range: AddrRange) {
        let inner = self.inner;
        let line = &*self.line;
        let store_addr = store_range.start().raw();
        line.bump(Tally::triggering_stores, 1);
        let mut overflows: Vec<(crate::tthread::TthreadId, u64)> = Vec::new();
        for hit in self.scratch.hits() {
            let key = hit.tthread.index();
            inner.dispatch.slots.get(key).changed.push(store_range);
            line.bump(Tally::triggers_fired, 1);
            if !hit.precise {
                line.bump(Tally::false_triggers, 1);
            }
            inner
                .obs
                .event(EventKind::TriggerFired, hit.tthread, store_addr);
            if let Raise::Overflow(token) = inner.raise(hit.tthread, line) {
                overflows.push((hit.tthread, token));
            }
        }
        if !overflows.is_empty() {
            let mut state = inner.state.lock();
            let mut ctx = Ctx::new(&mut state, inner, 0);
            for (id, token) in overflows {
                ctx.overflow(id, token);
            }
        }
    }

    /// Loads element `index` of a tracked array.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn read<T: Pod>(&mut self, array: TrackedArray<T>, index: usize) -> T {
        self.get(array.at(index))
    }

    /// Stores element `index` of a tracked array, firing triggers if the
    /// value changed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn write<T: Pod>(&mut self, array: TrackedArray<T>, index: usize, value: T) {
        self.set(array.at(index), value);
    }
}
