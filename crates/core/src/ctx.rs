//! The execution context: tracked memory access plus trigger dispatch.
//!
//! A [`Ctx`] is how both the main thread (inside
//! [`crate::runtime::Runtime::with`]) and tthread bodies touch program
//! state. Every tracked store funnels through [`Ctx::set`]/[`Ctx::write`],
//! where the DTT pipeline runs:
//!
//! 1. write the bytes, comparing against the old contents;
//! 2. if the store was *silent* (value unchanged) — stop: no trigger;
//! 3. look the store up in the trigger table;
//! 4. for each matched tthread, advance its status machine: mark triggered,
//!    enqueue for a worker, coalesce with a pending instance, or fall back
//!    to inline execution when the queue is full.
//!
//! # Locked and detached execution
//!
//! A `Ctx` runs in one of two modes, invisible to user code:
//!
//! * **Locked** — the context borrows the runtime state under the global
//!   state lock. Main-thread regions, joins, the deferred executor and
//!   inline overflow executions all run locked; stores dispatch triggers
//!   immediately.
//! * **Detached** — used by worker threads and helping joiners. The body
//!   runs against a view (`view.rs`): a *privatized* copy of only the
//!   stripes it touches, each copied on first touch and checked against the
//!   view's start, so its reads form one consistent cut of tracked memory
//!   (the privatization pattern of Balaji et al., applied to what the body
//!   reads). Stores apply to the view and append to a write log. A stripe
//!   that changed after the view started restarts the body, which has
//!   published nothing. No triggers fire during the body; the worker takes
//!   the state lock afterwards and *commits* the log — replaying the stores
//!   against live memory and dispatching triggers for the ones that still
//!   change it. Accessing the untracked user state from a detached body
//!   acquires the state lock (it cannot be copied) and holds it through
//!   commit.

use std::cell::OnceCell;

use parking_lot::MutexGuard;

use crate::addr::AddrRange;
use crate::changed::Triggers;
use crate::handle::{Tracked, TrackedArray};
use crate::obs::EventKind;
use crate::pod::Pod;
use crate::runtime::{Inner, Raise, State};
use crate::stats::{CounterLine, Tally};
use crate::trigger::TriggerHit;
use crate::tthread::TthreadId;
use crate::view::View;

/// One store recorded by a detached execution, replayed at commit.
pub(crate) struct LoggedStore {
    /// Byte range the store covers.
    pub(crate) range: AddrRange,
    /// The bytes written.
    pub(crate) data: Vec<u8>,
    /// Whether the store consults the trigger table at commit
    /// (`false` for [`Ctx::init`]-style writes).
    pub(crate) dispatch: bool,
}

/// The privatized view backing a detached execution, and what it leaves
/// for the commit ([`Ctx::into_detached`]).
pub(crate) struct DetachedView<'a, U> {
    /// The stripes of tracked memory the body touched, as of its start.
    /// If it found one changed since, the body must run again and the log
    /// is void.
    pub(crate) view: View,
    /// Stores performed by the body, in program order.
    pub(crate) log: Vec<LoggedStore>,
    /// The counter line of the thread running the body.
    line: &'a CounterLine,
    /// Lazily acquired state lock for user-state access; once taken it is
    /// held until commit, which reuses it instead of relocking.
    pub(crate) guard: OnceCell<MutexGuard<'a, State<U>>>,
}

impl<'a, U> DetachedView<'a, U> {
    /// The state-lock guard for the body's first user-state access,
    /// re-checking the stripes read so far (see [`View::lock_user`]).
    fn lock_user(&self, inner: &'a Inner<U>) -> MutexGuard<'a, State<U>> {
        self.view.lock_user(&inner.mem, || inner.state.lock())
    }

    /// Logs a scalar store for replay at commit.
    fn log<T: Pod>(&mut self, cell: Tracked<T>, value: T, dispatch: bool) {
        let mut buf = [0u8; 16];
        let enc = &mut buf[..T::SIZE];
        value.write_le(enc);
        let (range, data) = (cell.range(), enc.to_vec());
        self.log.push(LoggedStore {
            range,
            data,
            dispatch,
        });
    }
}

enum CtxMode<'a, U> {
    Locked(&'a mut State<U>),
    Detached(DetachedView<'a, U>),
}

/// Mutable view of the runtime state handed to main-thread regions and
/// tthread bodies.
///
/// A `Ctx` borrows the runtime's state lock (or, for a worker running
/// detached, a view of tracked memory), so it cannot be stored; it
/// lives only for the duration of a [`crate::runtime::Runtime::with`] call
/// or a tthread execution.
pub struct Ctx<'a, U> {
    mode: CtxMode<'a, U>,
    pub(crate) inner: &'a Inner<U>,
    pub(crate) depth: u32,
    /// The tthread whose body or commit this context serves (`None` for
    /// main-thread regions and accessor calls). A raise from a
    /// `cur`-carrying context onto a *different* tthread is one wave unit
    /// of the incremental computation graph (see [`crate::graph`]).
    pub(crate) cur: Option<TthreadId>,
    /// Tracked store operations this (locked body) context dispatched,
    /// silent or not — the early-cutoff denominator.
    pub(crate) body_dispatched: u64,
    /// How many of those actually changed memory. A cascade-raised body
    /// with `body_dispatched > 0 && body_changed == 0` stops the wave.
    pub(crate) body_changed: u64,
    /// The changed set this body run took ([`Ctx::triggers`]); `All`
    /// outside a body.
    pub(crate) triggers: Triggers,
}

impl<'a, U: Send + 'static> Ctx<'a, U> {
    pub(crate) fn new(state: &'a mut State<U>, inner: &'a Inner<U>, depth: u32) -> Self {
        Self::new_for(state, inner, depth, None)
    }

    /// A locked context attributed to a tthread: used for inline bodies and
    /// for commit replays, where raises onto other tthreads are cascade
    /// wave units.
    pub(crate) fn new_for(
        state: &'a mut State<U>,
        inner: &'a Inner<U>,
        depth: u32,
        cur: Option<TthreadId>,
    ) -> Self {
        Ctx {
            mode: CtxMode::Locked(state),
            inner,
            depth,
            cur,
            body_dispatched: 0,
            body_changed: 0,
            triggers: Triggers::All,
        }
    }

    /// Creates a detached context over a view of tracked memory, for a
    /// body run that took `triggers`, counting on `line`.
    pub(crate) fn detached(
        view: View,
        inner: &'a Inner<U>,
        depth: u32,
        triggers: Triggers,
        line: &'a CounterLine,
    ) -> Self {
        Ctx {
            mode: CtxMode::Detached(DetachedView {
                view,
                log: Vec::new(),
                line,
                guard: OnceCell::new(),
            }),
            inner,
            depth,
            cur: None,
            body_dispatched: 0,
            body_changed: 0,
            triggers,
        }
    }

    /// Hands a detached context's view over to its commit.
    ///
    /// # Panics
    ///
    /// Panics on a locked context.
    pub(crate) fn into_detached(self) -> DetachedView<'a, U> {
        match self.mode {
            CtxMode::Detached(view) => view,
            CtxMode::Locked(_) => unreachable!("only detached contexts are committed"),
        }
    }

    /// The locked runtime state; trigger dispatch and the status machine
    /// only ever run here.
    pub(crate) fn locked(&mut self) -> &mut State<U> {
        match &mut self.mode {
            CtxMode::Locked(state) => state,
            CtxMode::Detached(_) => {
                unreachable!("trigger dispatch runs only under the state lock")
            }
        }
    }

    /// Whether this context runs a tthread body (inline or commit replay),
    /// whose tracked stores feed the early-cutoff counters.
    #[inline]
    fn in_body(&self) -> bool {
        self.depth > 0 && self.cur.is_some()
    }

    /// Shared access to the untracked user state.
    ///
    /// From a detached worker execution this acquires the runtime's state
    /// lock on first access (user state cannot be copied) and holds it
    /// until the execution commits. Taking it first re-checks every tracked
    /// byte the body has read so far, and restarts the body if one changed
    /// since its start — before any user state is handed out. From then on
    /// the body reads tracked memory as an inline body under the lock
    /// would: live, plus its own writes; see the module docs.
    pub fn user(&self) -> &U {
        match &self.mode {
            CtxMode::Locked(state) => &state.user,
            CtxMode::Detached(view) => &view.guard.get_or_init(|| view.lock_user(self.inner)).user,
        }
    }

    /// Exclusive access to the untracked user state.
    ///
    /// Writes through this reference are *not* observed by the trigger
    /// mechanism; keep trigger-relevant data in tracked memory. The locking
    /// behaviour from detached executions matches [`Ctx::user`].
    pub fn user_mut(&mut self) -> &mut U {
        let inner = self.inner;
        match &mut self.mode {
            CtxMode::Locked(state) => &mut state.user,
            CtxMode::Detached(view) => {
                view.guard.get_or_init(|| view.lock_user(inner));
                &mut view.guard.get_mut().expect("guard initialized above").user
            }
        }
    }

    /// What changed since this body run started: the byte ranges of the
    /// changing stores that triggered it, coalesced, or [`Triggers::All`]
    /// when the runtime cannot say (see [`Triggers`] for when). A body can
    /// recompute only the elements those ranges touch
    /// ([`TrackedArray::index_span`]) and keep the rest of its output. A
    /// main-thread [`crate::runtime::Runtime::with`] region sees `All`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dtt_core::{Config, Runtime, Triggers};
    ///
    /// let mut rt = Runtime::new(Config::default(), ());
    /// let xs = rt.alloc_array::<i64>(1024).unwrap();
    /// let doubled = rt.alloc_array::<i64>(1024).unwrap();
    /// let double = rt.register("double", move |ctx| {
    ///     let mut one = |ctx: &mut dtt_core::Ctx<'_, ()>, i| {
    ///         let x = ctx.read(xs, i);
    ///         ctx.write(doubled, i, 2 * x);
    ///     };
    ///     match ctx.triggers() {
    ///         Triggers::All => (0..xs.len()).for_each(|i| one(ctx, i)),
    ///         Triggers::Ranges(changed) => {
    ///             for range in changed.iter() {
    ///                 xs.index_span(range).for_each(|i| one(ctx, i));
    ///             }
    ///         }
    ///     }
    /// });
    /// rt.watch(double, xs.range()).unwrap();
    /// rt.force(double).unwrap(); // a forced run sees `All`
    ///
    /// rt.reset_stats();
    /// rt.with(|ctx| ctx.write(xs, 700, 21));
    /// rt.join(double).unwrap();
    /// // One element changed, so the run read one element, not 1024.
    /// assert_eq!(rt.stats().counters().tracked_loads, 1);
    /// assert_eq!(rt.with(|ctx| ctx.read(doubled, 700)), 42);
    /// ```
    pub fn triggers(&self) -> Triggers {
        self.triggers
    }

    /// Loads a tracked scalar.
    ///
    /// The locked load is straight-line code in the caller (a counter bump,
    /// a bounds compare and a word load); the detached arm is out of line.
    // always: the hot half is a dozen instructions, but LLVM prices the
    // panic edges of the word lookup and leaves a call per tracked access
    // in closures that make several.
    #[inline(always)]
    pub fn get<T: Pod>(&mut self, cell: Tracked<T>) -> T {
        let CtxMode::Locked(state) = &mut self.mode else {
            return self.get_detached(cell);
        };
        state.lock_line.bump(Tally::tracked_loads, 1);
        self.inner.mem.load(cell.addr())
    }

    /// [`Ctx::get`] from a detached execution: reads the view.
    #[inline(never)]
    fn get_detached<T: Pod>(&mut self, cell: Tracked<T>) -> T {
        let CtxMode::Detached(view) = &mut self.mode else {
            unreachable!("locked loads stay in `get`")
        };
        view.line.bump(Tally::tracked_loads, 1);
        view.view.load(&self.inner.mem, cell.addr())
    }

    /// Stores a tracked scalar, firing triggers if the value changed.
    ///
    /// From a detached execution the change check runs against the
    /// view, the store is logged, and triggers fire at commit time if
    /// the store still changes live memory.
    ///
    /// The locked silent store — the case the runtime exists for — is
    /// straight-line code in the caller; the detached arm and the changing
    /// store are out of line.
    // always: as for `get`.
    #[inline(always)]
    pub fn set<T: Pod>(&mut self, cell: Tracked<T>, value: T) {
        let detect = self.inner.cfg.suppress_silent_stores;
        let CtxMode::Locked(state) = &mut self.mode else {
            return self.set_detached(cell, value, detect);
        };
        let effect = self.inner.mem.store(cell.addr(), value, detect);
        state.lock_line.on_store(effect, detect);
        if !detect || effect.changed {
            return self.set_changed(cell.range());
        }
        if self.in_body() {
            self.body_dispatched += 1;
        }
        self.inner.obs_store(EventKind::Store, cell.addr(), None);
    }

    /// [`Ctx::set`] from a detached execution: compare against the
    /// view, count, and log a store that changed it.
    #[inline(never)]
    fn set_detached<T: Pod>(&mut self, cell: Tracked<T>, value: T, detect: bool) {
        let CtxMode::Detached(view) = &mut self.mode else {
            unreachable!("locked stores stay in `set`")
        };
        let effect = view.view.store(&self.inner.mem, cell.addr(), value, detect);
        view.line.on_store(effect, detect);
        if !detect || effect.changed {
            view.log(cell, value, true);
        }
    }

    /// The rest of a locked [`Ctx::set`] whose store changed memory (or ran
    /// with change detection off): consult the trigger table.
    #[inline(never)]
    fn set_changed(&mut self, range: AddrRange) {
        if self.in_body() {
            self.body_dispatched += 1;
            self.body_changed += 1;
        }
        self.inner
            .obs_store(EventKind::ChangeDetected, range.start(), None);
        self.dispatch(range);
    }

    /// Loads element `index` of a tracked array.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    // always: a forwarder; left to LLVM it becomes the out-of-line home of
    // the always-inlined `get`.
    #[inline(always)]
    pub fn read<T: Pod>(&mut self, array: TrackedArray<T>, index: usize) -> T {
        self.get(array.at(index))
    }

    /// Stores element `index` of a tracked array, firing triggers if the
    /// value changed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    // always: as for `read`.
    #[inline(always)]
    pub fn write<T: Pod>(&mut self, array: TrackedArray<T>, index: usize, value: T) {
        self.set(array.at(index), value);
    }

    /// Writes a tracked scalar *without* consulting the trigger mechanism.
    ///
    /// Intended for initialization: the write is unconditional, is not
    /// counted as a tracked store, and never fires a trigger.
    pub fn init<T: Pod>(&mut self, cell: Tracked<T>, value: T) {
        if let CtxMode::Detached(view) = &mut self.mode {
            view.view.store(&self.inner.mem, cell.addr(), value, false);
            return view.log(cell, value, false);
        }
        self.inner.mem.store(cell.addr(), value, false);
    }

    /// Array form of [`Ctx::init`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn init_at<T: Pod>(&mut self, array: TrackedArray<T>, index: usize, value: T) {
        self.init(array.at(index), value);
    }

    /// Reads a whole tracked array into a `Vec` (counts one tracked load per
    /// element).
    pub fn read_all<T: Pod>(&mut self, array: TrackedArray<T>) -> Vec<T> {
        (0..array.len()).map(|i| self.read(array, i)).collect()
    }

    /// Bulk-loads elements `[from, to)` of a tracked array into `out`
    /// (cleared first). Semantically identical to `to - from` calls of
    /// [`Ctx::read`], but with a single bounds check and a tight decode
    /// loop — use it when a tthread snapshots a whole input array.
    ///
    /// # Panics
    ///
    /// Panics if `from > to` or `to > array.len()`.
    pub fn read_slice_into<T: Pod>(
        &mut self,
        array: TrackedArray<T>,
        from: usize,
        to: usize,
        out: &mut Vec<T>,
    ) {
        out.clear();
        if from == to {
            return;
        }
        let (range, n) = (array.range_of(from, to), to - from);
        out.reserve(n);
        if let CtxMode::Detached(view) = &mut self.mode {
            view.view.load_elems(&self.inner.mem, range, out);
            return view.line.bump(Tally::tracked_loads, n as u64);
        }
        self.inner.mem.load_elems(range, out);
        self.locked().lock_line.bump(Tally::tracked_loads, n as u64);
    }

    /// Bulk-loads the whole array; see [`Ctx::read_slice_into`].
    pub fn read_all_into<T: Pod>(&mut self, array: TrackedArray<T>, out: &mut Vec<T>) {
        self.read_slice_into(array, 0, array.len(), out);
    }

    /// Bulk-stores `values` over elements starting at `from`.
    ///
    /// Change detection runs per element, exactly as if each element were
    /// written with [`Ctx::write`]; consecutive *changed* elements are
    /// dispatched to the trigger table as one store range, so trigger
    /// *counts* can be lower than with element-wise writes while the set of
    /// tthreads that become dirty is identical.
    ///
    /// # Panics
    ///
    /// Panics if `from + values.len() > array.len()`.
    pub fn write_slice<T: Pod>(&mut self, array: TrackedArray<T>, from: usize, values: &[T]) {
        let n = values.len();
        if n == 0 {
            return;
        }
        let detect = self.inner.cfg.suppress_silent_stores;
        let range = array.range_of(from, from + n);
        if let CtxMode::Detached(view) = &mut self.mode {
            // Compare and copy against the view, whose stripes for the
            // whole range are copied in at once, then log one store per
            // changed run.
            let mut data = Vec::with_capacity(n * T::SIZE);
            let mut buf = [0u8; 16];
            for v in values {
                let enc = &mut buf[..T::SIZE];
                v.write_le(enc);
                data.extend_from_slice(enc);
            }
            let mut runs: Vec<(usize, usize)> = Vec::new();
            let changed_elems =
                view.view
                    .store_elems(&self.inner.mem, range, &data, T::SIZE, detect, &mut runs);
            view.line.on_stores(n, changed_elems, T::SIZE, detect);
            for (a, b) in runs {
                view.log.push(LoggedStore {
                    range: array.range_of(from + a, from + b),
                    data: data[a * T::SIZE..b * T::SIZE].to_vec(),
                    dispatch: true,
                });
            }
            return;
        }
        // Locked mode: encode once, let the sharded arena run the
        // per-element compare under a single stripe-lock acquisition, then
        // dispatch each changed run. The scratch buffer persists across
        // calls, so past the first call the encode is one pass with no
        // allocation or zero-fill (every byte below `n * T::SIZE` is
        // overwritten).
        let mut data = std::mem::take(&mut self.locked().bulk_scratch);
        data.resize(n * T::SIZE, 0);
        for (enc, v) in data.chunks_exact_mut(T::SIZE).zip(values) {
            v.write_le(enc);
        }
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let changed_elems = self
            .inner
            .mem
            .store_elems(range, &data, T::SIZE, detect, &mut runs);
        let state = self.locked();
        state.lock_line.on_stores(n, changed_elems, T::SIZE, detect);
        state.bulk_scratch = data;
        if self.in_body() {
            // Early-cutoff accounting: each element counts as one dispatched
            // store op, exactly as element-wise writes would.
            self.body_dispatched += n as u64;
            self.body_changed += changed_elems as u64;
        }
        for (a, b) in runs {
            let run_range = array.range_of(from + a, from + b);
            // Bulk stores record one change event per changed run (not per
            // element), matching how they dispatch to the trigger table.
            self.inner
                .obs_store(EventKind::ChangeDetected, run_range.start(), None);
            self.dispatch(run_range);
        }
    }

    /// Route every store through the trigger table and raise matched
    /// tthreads. Only ever runs locked (the commit path calls this for
    /// replayed detached stores).
    pub(crate) fn dispatch(&mut self, store_range: AddrRange) {
        let state = self.locked();
        // Watched-address filter: most changing stores touch pages no watch
        // covers; proving that from one page-bit load (or a line-bit load
        // on a watched page) skips the bucket walk entirely.
        let probe = state.watch_filter.probe(store_range);
        state.lock_line.on_filter(probe);
        if probe.is_miss() {
            let start = store_range.start();
            return self.inner.obs_store(EventKind::FilterSkip, start, None);
        }
        // Scratch comes from the state-lock pool so the per-store lookup is
        // allocation-free after warmup; an inline overflow run below can
        // dispatch again and pops another buffer (or default-constructs).
        let mut scratch = state.scratch.pop().unwrap_or_default();
        state.triggers.lookup_with(store_range, &mut scratch);
        self.raise_hits(&scratch.hits, store_range);
        self.locked().scratch.push(scratch);
    }

    /// Raise the matched tthreads of one triggering store over
    /// `store_range` (its start address is recorded with each fired
    /// trigger). Runs locked.
    pub(crate) fn raise_hits(&mut self, hits: &[TriggerHit], store_range: AddrRange) {
        if hits.is_empty() {
            return;
        }
        let inner = self.inner;
        let depth = self.depth;
        let cur = self.cur;
        let store_addr = store_range.start().raw();
        self.locked().lock_line.bump(Tally::triggering_stores, 1);
        for hit in hits {
            // Push before any exit and before the status-word RMW, so a
            // deduped or dropped raise still leaves its range for the next
            // run (the protocol in `crate::changed`).
            let slot = &inner.tthread(hit.tthread).slot;
            slot.changed.push(store_range);
            // One wave unit of the incremental graph: a store made *by* a
            // tthread (inline body or commit replay) raising a *different*
            // tthread. Self-retriggers stay plain triggers.
            let cascade = depth > 0 && cur.is_some_and(|c| c != hit.tthread);
            let mut wave = 0u32;
            if cascade {
                // Injected wave loss: the raise is swallowed before any
                // bookkeeping, so every wave counter (and `triggers_fired`)
                // excludes it and the conservation identities still hold.
                if self.inner.fault.fire(crate::fault::FaultPoint::CascadeDrop) {
                    continue;
                }
                let writer = cur.expect("cascade raises have a writer");
                let state = self.locked();
                if state.graph.raised_this_epoch(hit.tthread) {
                    // Already raised by this commit/body: dedupe per wave
                    // epoch, not per store. Setting RF covers the one race
                    // this could hide — a claimant whose view started before
                    // our earlier raise is forced to re-run, so it cannot
                    // complete against pre-wave inputs. (Under the state
                    // lock the bytes of this epoch's stores are already
                    // live, so the rerun reads fresh data.)
                    state.lock_line.bump(Tally::wave_dedups, 1);
                    slot.set_rf_if_running();
                    continue;
                }
                wave = state.graph.wave_depth(writer) + 1;
                state.graph.mark_raised(hit.tthread, wave);
            }
            let line = &self.locked().lock_line;
            if depth > 0 {
                line.bump(Tally::cascade_triggers, 1);
            }
            line.bump(Tally::triggers_fired, 1);
            if !hit.precise {
                line.bump(Tally::false_triggers, 1);
            }
            inner
                .obs
                .event(EventKind::TriggerFired, hit.tthread, store_addr);
            // Already under the state lock: an overflow runs here.
            let raised = match inner.raise(hit.tthread, line) {
                Raise::Overflow => {
                    self.overflow(hit.tthread);
                    Raise::Activated
                }
                raised => raised,
            };
            if cascade {
                let line = &self.locked().lock_line;
                line.bump(Tally::cascades, 1);
                if matches!(raised, Raise::Coalesced) {
                    line.bump(Tally::cascade_coalesced, 1);
                } else {
                    line.bump(Tally::cascade_enqueues, 1);
                }
                self.inner
                    .obs
                    .event(EventKind::CascadeFired, hit.tthread, u64::from(wave));
            }
        }
    }

    /// Raise overflow: the queue was full, so the raise moved the tthread
    /// Clean→Running itself and the triggering thread runs it here (the
    /// caller holds the state lock). An overflow run counts as
    /// [`Raise::Activated`] in the cascade wave identity
    /// `cascades == cascade_enqueues + cascade_coalesced + cascade_cutoffs`.
    pub(crate) fn overflow(&mut self, id: TthreadId) {
        let inner = self.inner;
        self.locked().lock_line.bump(Tally::queue_overflows, 1);
        let capacity = inner.pending.capacity() as u64;
        inner.obs.event(EventKind::QueueOverflow, id, capacity);
        self.run_inline(id);
    }
}
