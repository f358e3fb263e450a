//! The engine: a single actor thread that owns the served view's
//! [`dtt_core::Runtime`] and applies client batches to it.
//!
//! Handler workers never touch the runtime. They enqueue commands on a
//! *bounded* mailbox and park the request in their connection's state
//! machine until the engine answers (or the deadline passes); the engine
//! drains the mailbox in batches — consecutive keyed writes are
//! commutative, so they coalesce into one tracked region and one refresh —
//! and answers every staged command.
//!
//! An answer is a *fill and a ring*, not a channel send: every command
//! carries a [`ReplyTo`] — the connection's one reusable [`ReplySlot`], the
//! request's sequence number on that connection, and the owning event
//! worker's [`Doorbell`]. The engine fills the slots of a batch and then
//! rings each distinct worker once, so a reply reaches its socket one
//! futex wake after it was produced and a request costs the server no
//! allocation. When the engine thread ends — `Shutdown`, a dropped mailbox
//! or a panic — its [`StopSignal`] sets the stopped flag and rings every
//! worker, which is how a request still parked on a slot nobody will fill
//! learns to answer from last-committed state.
//!
//! Degradation is the engine's second job. A refresh can fail: a tthread
//! poisoned by a fault, or timed out against the body deadline. The
//! engine repairs (clear + re-dirty) with bounded retries and
//! exponential backoff (the same [`dtt_core::deadline::backoff_delay`]
//! curve the commit path uses); if the wedge survives the budget, the
//! engine marks itself degraded and keeps answering from the
//! last-committed cache instead of erroring. A later successful refresh
//! clears the flag. Cache access is poison-tolerant everywhere
//! ([`read_cache`]): a panic that poisons the mutex must degrade reads,
//! not take the fallback path down with it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use dtt_core::deadline::backoff_delay;
use dtt_core::eventcount::{ParkOutcome, Waiters};
use dtt_core::{Config, Error, TthreadId};
use dtt_workloads::{KeyMap, ServedKeyed, ServedPipeline, ServedSheet};

/// Which workload chain backs the served view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewKind {
    /// Spreadsheet chain: grid → row SUMs → TOTAL → AVG. Query `0` reads
    /// the total, `1` the average.
    Sheet,
    /// Pipeline chain: samples → CLAMP → BUCKET → PEAK. Every query reads
    /// the peak.
    Pipeline,
    /// Keyed store: a logical key space folded onto the sheet grid;
    /// `Get {key}` reads the key's shard-row aggregate.
    Keyed,
}

/// The last-committed state the front-end can serve even when the
/// runtime is wedged: the two global cells plus (keyed view only) the
/// per-shard-row aggregates. Updated by the engine after every
/// confirmed-fresh refresh.
#[derive(Debug, Clone, Default)]
pub(crate) struct CacheState {
    /// Global derived cells (total/avg or peak/peak).
    pub cells: [i64; 2],
    /// Per-shard-row aggregates (empty on non-keyed views).
    pub rows: Vec<i64>,
}

/// Shared last-committed cache; lock poisoning is survivable by design.
pub(crate) type Cache = Arc<Mutex<CacheState>>;

/// Poison-tolerant cache read: a panic that poisoned the mutex left the
/// state at whatever the last complete write was — still the best
/// available degraded answer, so take it instead of propagating the
/// panic (the PR-9 `expect("cache lock")` turned one poisoned handler
/// into a permanently burned permit *and* a crash on every fallback).
pub(crate) fn read_cache(cache: &Cache) -> CacheState {
    cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Poison-tolerant cache write (engine side).
fn write_cache(cache: &Cache, state: CacheState) {
    *cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = state;
}

/// Upper bound on commands coalesced into one engine iteration.
const BATCH_CAP: usize = 64;

/// A command from a handler worker.
pub(crate) enum EngineCmd {
    Put {
        key: u64,
        value: i64,
        reply: ReplyTo,
    },
    Get {
        query: u8,
        reply: ReplyTo,
    },
    GetKey {
        key: u64,
        reply: ReplyTo,
    },
    Shutdown,
}

/// The engine's answer; the handler encodes it into a wire response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reply {
    Ok { degraded: bool },
    Value { degraded: bool, value: i64 },
}

/// An event worker's doorbell: an eventcount plus the flag that is its
/// park predicate. Whoever hands the worker something to do — the engine
/// a reply, the accept thread a connection, shutdown a flag — publishes it
/// and then [`Doorbell::ring`]s. The worker [`Doorbell::clear`]s *before*
/// each sweep and [`Doorbell::nap`]s after an empty one, so a ring that
/// lands anywhere after the clear — mid-sweep, or between the sweep and
/// the sleep commit — cuts the nap instead of being slept through.
#[derive(Debug, Default)]
pub(crate) struct Doorbell {
    rung: AtomicBool,
    waiters: Waiters,
}

impl Doorbell {
    /// Publishes "look again" and wakes the worker if it sleeps.
    pub(crate) fn ring(&self) {
        self.rung.store(true, Ordering::SeqCst);
        self.waiters.wake_one();
    }

    /// Re-arms the bell. A swap, not a store: reading the ringer's `true`
    /// is what orders the sweep that follows after everything the ringer
    /// published before ringing.
    pub(crate) fn clear(&self) {
        self.rung.swap(false, Ordering::SeqCst);
    }

    /// Sleeps until rung or `timeout`, whichever is first; returns at once
    /// if the bell was rung since the last [`Doorbell::clear`].
    pub(crate) fn nap(&self, timeout: Duration) -> ParkOutcome {
        self.waiters
            .park(|| self.rung.load(Ordering::SeqCst), timeout)
    }
}

/// One connection's reusable reply cell. A connection has at most one
/// request in flight, so one cell serves every request it ever makes; the
/// sequence number tells the request it was filled for from a later one.
#[derive(Debug, Default)]
pub(crate) struct ReplySlot {
    cell: Mutex<Option<(u64, Reply)>>,
}

impl ReplySlot {
    /// Stores the answer to request `seq` unless a later request's answer
    /// is already there: a batch answers its writes before its reads, so
    /// the reply to a request that already timed out can be produced after
    /// its successor's.
    fn fill(&self, seq: u64, reply: Reply) {
        let mut cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        if !matches!(*cell, Some((newer, _)) if newer > seq) {
            *cell = Some((seq, reply));
        }
    }

    /// Takes the answer to request `seq` if it has arrived. An answer to
    /// an earlier request — one that timed out and was served from
    /// fallback — is left for the next fill to overwrite, never consumed.
    pub(crate) fn take(&self, seq: u64) -> Option<Reply> {
        let mut cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        match *cell {
            Some((filled, reply)) if filled == seq => {
                *cell = None;
                Some(reply)
            }
            _ => None,
        }
    }
}

/// Where an answer goes: the connection's slot, the request's sequence
/// number on that connection, and the doorbell of the worker that owns it.
pub(crate) struct ReplyTo {
    pub slot: Arc<ReplySlot>,
    pub seq: u64,
    pub worker: Arc<Doorbell>,
}

impl ReplyTo {
    /// Fills the slot and notes the worker in `to_ring` (once per worker).
    pub(crate) fn answer(self, reply: Reply, to_ring: &mut Vec<Arc<Doorbell>>) {
        self.slot.fill(self.seq, reply);
        if !to_ring.iter().any(|bell| Arc::ptr_eq(bell, &self.worker)) {
            to_ring.push(self.worker);
        }
    }
}

/// Fires when the engine thread ends, by return or by unwinding: sets the
/// stopped flag, then rings every event worker. A reply slot, unlike the
/// channel it replaced, has no "sender dropped" state — this is it.
pub(crate) struct StopSignal {
    pub stopped: Arc<AtomicBool>,
    pub workers: Vec<Arc<Doorbell>>,
}

impl Drop for StopSignal {
    fn drop(&mut self) {
        self.stopped.store(true, Ordering::SeqCst);
        for bell in &self.workers {
            bell.ring();
        }
    }
}

/// What a staged read wants, normalized across views.
enum GetWhat {
    /// Global cell by selector (`0`/`1`).
    Cell(u8),
    /// Shard-row aggregate by logical key (keyed view; other views
    /// answer cell 0).
    Row(u64),
}

/// One of the served views behind a common verb set.
enum View {
    Sheet(ServedSheet),
    Pipeline(ServedPipeline),
    Keyed(ServedKeyed),
}

impl View {
    fn build(kind: ViewKind, cfg: Config, dims: (usize, usize), key_space: u64) -> View {
        match kind {
            ViewKind::Sheet => View::Sheet(ServedSheet::build(cfg, dims.0, dims.1)),
            ViewKind::Pipeline => View::Pipeline(ServedPipeline::build(cfg, dims.0, dims.1)),
            ViewKind::Keyed => View::Keyed(ServedKeyed::build(cfg, dims.0, dims.1, key_space)),
        }
    }

    /// The keyed view's key → slot mapping; `None` elsewhere.
    fn key_map(&self) -> Option<KeyMap> {
        match self {
            View::Keyed(k) => Some(k.key_map()),
            _ => None,
        }
    }

    fn apply(&mut self, writes: &[(u64, i64)]) {
        match self {
            View::Sheet(s) => {
                let (_, cols) = s.dims();
                let mapped: Vec<(usize, usize, i64)> = writes
                    .iter()
                    .map(|&(k, v)| ((k as usize) / cols, (k as usize) % cols, v))
                    .collect();
                s.apply(&mapped);
            }
            View::Pipeline(p) => {
                let mapped: Vec<(usize, i64)> =
                    writes.iter().map(|&(k, v)| (k as usize, v)).collect();
                p.apply(&mapped);
            }
            View::Keyed(k) => k.apply(writes),
        }
    }

    fn refresh(&mut self) -> dtt_core::Result<()> {
        match self {
            View::Sheet(s) => s.refresh(),
            View::Pipeline(p) => p.refresh(),
            View::Keyed(k) => k.refresh(),
        }
    }

    /// Reads both servable global aggregates (the cache's cell half).
    fn cells(&mut self) -> [i64; 2] {
        match self {
            View::Sheet(s) => {
                let v = s.read();
                [v.total, v.avg]
            }
            View::Pipeline(p) => {
                let v = p.read();
                [v.peak, v.peak]
            }
            View::Keyed(k) => {
                let v = k.read();
                [v.total, v.avg]
            }
        }
    }

    /// Reads the shard-row aggregate for `key` (keyed view); other views
    /// answer their primary cell.
    fn key_row(&mut self, key: u64) -> i64 {
        match self {
            View::Keyed(k) => k.read_key_row(key),
            other => other.cells()[0],
        }
    }

    /// Snapshot of the per-shard-row aggregates (keyed view only).
    fn rows_snapshot(&mut self) -> Vec<i64> {
        match self {
            View::Keyed(k) => k.rows_snapshot(),
            _ => Vec::new(),
        }
    }

    fn repair(&mut self, id: TthreadId, err: &Error) {
        let rt = match self {
            View::Sheet(s) => s.runtime_mut(),
            View::Pipeline(p) => p.runtime_mut(),
            View::Keyed(k) => k.runtime_mut(),
        };
        match err {
            Error::TthreadPoisoned(_) => {
                let _ = rt.clear_poison(id);
            }
            Error::TthreadTimedOut(_) => {
                let _ = rt.clear_timeout(id);
            }
            _ => {}
        }
        // Re-dirty so the next refresh actually re-runs the cleared
        // tthread instead of skipping over stale state.
        let _ = rt.mark_dirty(id);
    }

    fn teardown(self, timeout: Duration) {
        let mut rt = match self {
            View::Sheet(s) => s.into_runtime(),
            View::Pipeline(p) => p.into_runtime(),
            View::Keyed(k) => k.into_runtime(),
        };
        // Drain first (idempotent with any earlier defensive drain), then
        // the consuming shutdown. A straggler past the deadline is
        // detached, not waited on forever.
        let _ = rt.drain(timeout);
        let _ = rt.shutdown(timeout);
    }
}

/// Engine tuning, split from the server config so tests can drive the
/// engine directly.
pub(crate) struct EngineConfig {
    pub kind: ViewKind,
    pub dims: (usize, usize),
    /// Logical key space for [`ViewKind::Keyed`] (ignored elsewhere).
    pub key_space: u64,
    pub runtime: Config,
    /// Repair attempts per refresh before declaring the view degraded.
    pub repair_cap: u32,
    /// Base backoff between repair attempts.
    pub repair_backoff: Duration,
    /// Jitter seed for the repair backoff.
    pub seed: u64,
}

pub(crate) struct Engine {
    view: View,
    cache: Cache,
    degraded: bool,
    repair_cap: u32,
    repair_backoff: Duration,
    rng: u64,
}

impl Engine {
    /// Spawns the engine thread; returns the shared cache, the keyed
    /// view's key map (handlers need it to pick a cached row for
    /// degraded keyed reads) and the join handle. Commands arrive on
    /// `rx`; the thread exits on [`EngineCmd::Shutdown`] or when every
    /// sender is gone, fires `stop`, and tears the runtime down within
    /// `teardown_timeout`.
    pub(crate) fn spawn(
        cfg: EngineConfig,
        rx: Receiver<EngineCmd>,
        teardown_timeout: Duration,
        stop: StopSignal,
    ) -> (Cache, Option<KeyMap>, thread::JoinHandle<()>) {
        let mut engine = Engine {
            view: View::build(cfg.kind, cfg.runtime, cfg.dims, cfg.key_space),
            cache: Arc::new(Mutex::new(CacheState::default())),
            degraded: false,
            repair_cap: cfg.repair_cap,
            repair_backoff: cfg.repair_backoff,
            rng: cfg.seed,
        };
        let key_map = engine.view.key_map();
        write_cache(
            &engine.cache,
            CacheState {
                cells: engine.view.cells(),
                rows: engine.view.rows_snapshot(),
            },
        );
        let cache = Arc::clone(&engine.cache);
        let handle = thread::Builder::new()
            .name("dtt-serve-engine".into())
            .spawn(move || engine.run(rx, teardown_timeout, stop))
            .expect("spawn engine thread");
        (cache, key_map, handle)
    }

    fn run(mut self, rx: Receiver<EngineCmd>, teardown_timeout: Duration, stop: StopSignal) {
        let key_map = self.view.key_map();
        // The staging buffers outlive the iteration: a batch allocates
        // nothing once they have grown to the batch cap.
        let mut puts: Vec<(u64, i64)> = Vec::new();
        let mut put_replies: Vec<ReplyTo> = Vec::new();
        let mut gets: Vec<(GetWhat, ReplyTo)> = Vec::new();
        let mut to_ring: Vec<Arc<Doorbell>> = Vec::new();
        while let Ok(first) = rx.recv() {
            let mut shutdown = false;
            fn stage(
                cmd: EngineCmd,
                puts: &mut Vec<(u64, i64)>,
                put_replies: &mut Vec<ReplyTo>,
                gets: &mut Vec<(GetWhat, ReplyTo)>,
                shutdown: &mut bool,
            ) {
                match cmd {
                    EngineCmd::Put { key, value, reply } => {
                        puts.push((key, value));
                        put_replies.push(reply);
                    }
                    EngineCmd::Get { query, reply } => gets.push((GetWhat::Cell(query), reply)),
                    EngineCmd::GetKey { key, reply } => gets.push((GetWhat::Row(key), reply)),
                    EngineCmd::Shutdown => *shutdown = true,
                }
            }
            stage(first, &mut puts, &mut put_replies, &mut gets, &mut shutdown);
            // Coalesce whatever else is already queued: keyed puts
            // commute, so the whole batch is one tracked region, one
            // refresh, many acknowledgements.
            while puts.len() + gets.len() < BATCH_CAP {
                match rx.try_recv() {
                    Ok(cmd) => stage(cmd, &mut puts, &mut put_replies, &mut gets, &mut shutdown),
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                }
            }

            if !puts.is_empty() {
                self.view.apply(&puts);
            }
            if !puts.is_empty() || (self.degraded && !gets.is_empty()) {
                // Refresh for new writes, and opportunistically retry a
                // wedged view before serving stale reads.
                self.refresh_with_repair();
            }
            puts.clear();
            let degraded = self.degraded;
            for reply in put_replies.drain(..) {
                reply.answer(Reply::Ok { degraded }, &mut to_ring);
            }
            for (what, reply) in gets.drain(..) {
                let value = if degraded {
                    let cached = read_cache(&self.cache);
                    match what {
                        GetWhat::Cell(query) => cached.cells[usize::from(query.min(1))],
                        GetWhat::Row(key) => match key_map {
                            Some(map) => cached
                                .rows
                                .get(map.row_of(key))
                                .copied()
                                .unwrap_or(cached.cells[0]),
                            None => cached.cells[0],
                        },
                    }
                } else {
                    match what {
                        GetWhat::Cell(query) => self.view.cells()[usize::from(query.min(1))],
                        GetWhat::Row(key) => self.view.key_row(key),
                    }
                };
                reply.answer(Reply::Value { degraded, value }, &mut to_ring);
            }
            // Every slot of the batch is filled before the first ring: one
            // wake per worker, and the woken sweep finds all its replies.
            for bell in to_ring.drain(..) {
                bell.ring();
            }
            if shutdown {
                break;
            }
        }
        // Close the mailbox and tell the workers before the teardown, not
        // after: a request parked behind the stop resolves now.
        drop(rx);
        drop(stop);
        self.view.teardown(teardown_timeout);
    }

    /// Refreshes the view, repairing wedged tthreads with bounded retries
    /// and exponential backoff. Leaves `self.degraded` reflecting the
    /// outcome and the cache updated on success.
    fn refresh_with_repair(&mut self) {
        let mut attempt = 0u32;
        loop {
            match self.view.refresh() {
                Ok(()) => {
                    self.degraded = false;
                    let state = CacheState {
                        cells: self.view.cells(),
                        rows: self.view.rows_snapshot(),
                    };
                    write_cache(&self.cache, state);
                    return;
                }
                Err(err) => {
                    if attempt >= self.repair_cap {
                        self.degraded = true;
                        return;
                    }
                    attempt += 1;
                    if let Error::TthreadPoisoned(id) | Error::TthreadTimedOut(id) = err {
                        self.view.repair(id, &err);
                    }
                    let wait = backoff_delay(self.repair_backoff, attempt, self.draw());
                    if !wait.is_zero() {
                        thread::sleep(wait);
                    }
                }
            }
        }
    }

    /// SplitMix64 step for backoff jitter (same mixer as the core fault
    /// layer, so repair schedules are seed-deterministic).
    fn draw(&mut self) -> u64 {
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        self.rng = self.rng.wrapping_add(GAMMA);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// A batch answers writes before reads, so the reply to a timed-out
    /// read can be produced after its successor's: the slot keeps the
    /// newer one, and an older one is never handed to a later request.
    #[test]
    fn reply_slot_keeps_the_newest_reply_and_matches_on_sequence() {
        let slot = ReplySlot::default();
        slot.fill(1, Reply::Ok { degraded: false });
        assert_eq!(slot.take(2), None, "request 2 must not consume reply 1");
        slot.fill(2, Reply::Ok { degraded: true });
        slot.fill(1, Reply::Ok { degraded: false });
        assert_eq!(slot.take(2), Some(Reply::Ok { degraded: true }));
        assert_eq!(slot.take(2), None, "a reply is consumed once");
    }

    /// No lost wake on the worker's park step. The worker clears its
    /// doorbell, polls the slot (empty) and only then lets the engine go.
    /// On even rounds it also waits for the ring to finish — the reply
    /// that landed mid-sweep, which only the flag can report — and on odd
    /// rounds the fill-and-ring races the park itself: before the
    /// predicate, between predicate and sleep commit, or after the sleep
    /// began. Every one of those must cut the nap; a single `TimedOut` is
    /// a slept-through reply.
    #[test]
    fn reply_landing_between_sweep_and_park_cuts_the_nap() {
        const ROUNDS: u64 = 1000;
        let bell = Arc::new(Doorbell::default());
        let slot = Arc::new(ReplySlot::default());
        let (swept, rang) = (Barrier::new(2), Barrier::new(2));
        thread::scope(|s| {
            s.spawn(|| {
                let mut to_ring = Vec::new();
                for seq in 1..=ROUNDS {
                    let reply = ReplyTo {
                        slot: Arc::clone(&slot),
                        seq,
                        worker: Arc::clone(&bell),
                    };
                    swept.wait();
                    reply.answer(Reply::Ok { degraded: false }, &mut to_ring);
                    to_ring.drain(..).for_each(|bell| bell.ring());
                    if seq % 2 == 0 {
                        rang.wait();
                    }
                }
            });
            // A failed round is recorded, not asserted on the spot: the
            // engine thread must still be walked through its barriers.
            let mut lost = None;
            for seq in 1..=ROUNDS {
                bell.clear();
                // The sweep's poll of this connection: necessarily empty,
                // the engine is still behind the barrier.
                let polled = slot.take(seq);
                swept.wait();
                if seq % 2 == 0 {
                    rang.wait();
                }
                if lost.is_some() || polled.is_some() {
                    lost = lost.or(Some(seq));
                    continue;
                }
                // Like the worker after an empty sweep: park first, look
                // second. A condvar may wake spuriously, so park again
                // until the reply shows; what may never happen is the
                // timer running out with the reply in the slot.
                loop {
                    if bell.nap(Duration::from_secs(2)) == ParkOutcome::TimedOut {
                        lost = Some(seq);
                        break;
                    }
                    if slot.take(seq).is_some() {
                        break;
                    }
                }
            }
            assert_eq!(lost, None, "a reply was slept through in this round");
        });
    }

    /// The engine thread's exit — here by `Shutdown` — sets the stopped
    /// flag and rings every worker, after the last reply was filled.
    #[test]
    fn engine_exit_sets_the_stopped_flag_and_rings_every_worker() {
        let stopped = Arc::new(AtomicBool::new(false));
        let workers: Vec<Arc<Doorbell>> = (0..2).map(|_| Arc::default()).collect();
        let stop = StopSignal {
            stopped: Arc::clone(&stopped),
            workers: workers.clone(),
        };
        let cfg = EngineConfig {
            kind: ViewKind::Sheet,
            dims: (2, 2),
            key_space: 1,
            runtime: Config::default(),
            repair_cap: 0,
            repair_backoff: Duration::ZERO,
            seed: 1,
        };
        let (tx, rx) = std::sync::mpsc::sync_channel(4);
        let (_, _, handle) = Engine::spawn(cfg, rx, Duration::from_secs(5), stop);
        let slot = Arc::new(ReplySlot::default());
        let reply = ReplyTo {
            slot: Arc::clone(&slot),
            seq: 1,
            worker: Arc::clone(&workers[0]),
        };
        workers.iter().for_each(|bell| bell.clear());
        tx.send(EngineCmd::Get { query: 0, reply }).unwrap();
        tx.send(EngineCmd::Shutdown).unwrap();
        handle.join().unwrap();
        assert!(stopped.load(Ordering::SeqCst));
        for bell in &workers {
            assert_eq!(bell.nap(Duration::from_secs(5)), ParkOutcome::Skipped);
        }
        let answered = Reply::Value {
            degraded: false,
            value: 0,
        };
        assert_eq!(slot.take(1), Some(answered));
        assert!(tx.send(EngineCmd::Shutdown).is_err(), "mailbox is closed");
    }

    /// The poison-tolerance regression: a panic while holding the cache
    /// lock poisons the mutex; every later degraded read must still get
    /// the last complete state instead of panicking through `expect`.
    #[test]
    fn poisoned_cache_still_serves_last_committed_state() {
        let cache: Cache = Arc::new(Mutex::new(CacheState {
            cells: [42, 7],
            rows: vec![1, 2, 3],
        }));
        let poisoner = Arc::clone(&cache);
        let _ = std::panic::catch_unwind(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("injected panic while holding the cache lock");
        });
        assert!(cache.lock().is_err(), "the mutex must actually be poisoned");
        let state = read_cache(&cache);
        assert_eq!(state.cells, [42, 7]);
        assert_eq!(state.rows, vec![1, 2, 3]);
        // Writes recover it too.
        write_cache(
            &cache,
            CacheState {
                cells: [1, 1],
                rows: vec![],
            },
        );
        assert_eq!(read_cache(&cache).cells, [1, 1]);
    }
}
