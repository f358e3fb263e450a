//! The front-end: accept loop, the event-driven handler pool, admission,
//! deadlines, degradation and drain-mode shutdown.
//!
//! ## Connection path
//!
//! Connections are **not** threads. The accept thread blocks in `accept`
//! and hands each socket to one of a small, fixed pool of *event workers*
//! (round-robin); a worker owns a set of `conn::Conn` state
//! machines and sweeps them with non-blocking reads and writes. OS thread
//! count is `event_workers + 2` (accept + engine) regardless of whether 4
//! or 10 000 clients are connected — the PR-9 thread-per-connection path
//! pinned both the concurrency ceiling and the `JoinHandle` leak to the
//! connection count; this one pins them to the pool size.
//!
//! ## Waking, not sweeping
//!
//! Everything that can be signalled is: each worker owns a
//! `Doorbell` (the runtime's own eventcount plus a flag), and the engine
//! rings it after filling a reply slot, the accept thread after
//! registering a connection, shutdown and `Drop` after setting `draining`,
//! the engine's stop signal when the engine is gone. The one event std
//! cannot signal under `forbid(unsafe)` is *bytes arrived on a socket*, so
//! a worker whose sweep moved nothing naps on its doorbell and sweeps
//! again: `NAP_FLOOR` first, doubling per consecutive empty sweep, reset
//! by any progress, capped at `NAP_CAP_BUSY` while a connection is
//! mid-exchange and at `NAP_CAP_SILENT` once all are silent, never past
//! the nearest request deadline or stall deferral, and without a timer at
//! all for a worker that owns no connection. A ring cuts any nap short.
//!
//! ## Request lifecycle
//!
//! ```text
//! decoded ──► accept (counted) ──► gate ──┬─ no permit / injected
//!                                         │  overflow / full mailbox ──► SHED
//!                                         └─ admitted (RAII permit) ──┬─ injected
//!                                                       │  conn-drop ──► DROPPED
//!                                                       ├─ engine reply ──► RESPONSE
//!                                                       └─ deadline ──► DEGRADED RESPONSE
//! ```
//!
//! Every decoded request takes exactly one of the arrows on the right —
//! that is the conservation identity
//! `accepts == responses + sheds + dropped_conns` asserted by the
//! contract tests, the chaos harness and the bench bin. A request parked
//! mid-lifecycle when its connection dies (or its handler panics) is
//! settled by `conn::Conn::abort`, so the identity holds at
//! every quiescent point, not just on sunny days.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dtt_core::eventcount::Waiters;
use dtt_core::{Config, FaultPlan, FaultPoint, FaultProbe};
use dtt_workloads::KeyMap;

use crate::admission::{Gate, ServeStats, ServeStatsSnapshot};
use crate::conn::{Conn, Polled};
use crate::engine::{Cache, Doorbell, Engine, EngineCmd, EngineConfig, StopSignal, ViewKind};

/// First nap after a sweep that moved nothing: a closed-loop client's next
/// request is ~one loopback round trip away, so look again soon.
const NAP_FLOOR: Duration = Duration::from_micros(100);

/// Nap cap while any connection is mid-exchange: partial writes, stall
/// deferrals and deadlines are revisited as often as the old fixed sleep
/// did, and replies do not wait for it at all.
const NAP_CAP_BUSY: Duration = Duration::from_micros(500);

/// Nap cap once every connection is silent: the worst case for noticing a
/// request on a quiet connection, traded against 250 sweeps/s of idle cost.
const NAP_CAP_SILENT: Duration = Duration::from_millis(4);

/// How long shutdown (and `Drop`) wait for their own loopback connect to
/// unblock `accept` before detaching the accept thread instead of joining
/// it. A loopback connect is immediate unless the backlog is full — and
/// then `accept` is not blocked in the first place.
const SELF_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Server construction knobs. `Default` gives a loopback server on an
/// ephemeral port with the spreadsheet view; `dtt-cli serve` maps its
/// options onto the admission limits and the pool/keyed-store sizing.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Admission-gate permits: concurrent admitted requests.
    pub max_inflight: usize,
    /// Engine mailbox capacity (the bounded accept queue).
    pub queue_cap: usize,
    /// Per-request deadline: how long a parked request waits for the
    /// engine before answering from last-committed state.
    pub deadline: Duration,
    /// Runtime worker threads for the served view.
    pub workers: usize,
    /// Event workers sweeping connection state machines. The server's
    /// handler-side OS thread count, independent of connection count.
    pub event_workers: usize,
    /// Which workload chain backs the view.
    pub view: ViewKind,
    /// View dimensions: `(rows, cols)` for the sheet and keyed store,
    /// `(samples, buckets)` for the pipeline.
    pub dims: (usize, usize),
    /// Logical key space for [`ViewKind::Keyed`]: `Put`/`GetKey` keys are
    /// folded from this space onto the `dims` grid.
    pub key_space: u64,
    /// Fault plan armed into the *serve* probe (conn-drop, client-stall,
    /// accept-overflow).
    pub serve_faults: Option<FaultPlan>,
    /// Commit backoff for the runtime's detached retry loop.
    pub commit_backoff: Option<Duration>,
    /// Body deadline for the runtime (wedge-by-timeout scenarios).
    pub body_deadline: Option<Duration>,
    /// Repair attempts per refresh before the engine degrades.
    pub repair_cap: u32,
    /// Base backoff between repair attempts.
    pub repair_backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 64,
            queue_cap: 128,
            deadline: Duration::from_millis(100),
            workers: 1,
            event_workers: 2,
            view: ViewKind::Sheet,
            dims: (16, 32),
            key_space: 1 << 20,
            serve_faults: None,
            commit_backoff: Some(Duration::from_micros(50)),
            body_deadline: None,
            repair_cap: 3,
            repair_backoff: Duration::from_millis(1),
        }
    }
}

impl ServeConfig {
    fn runtime_config(&self) -> Config {
        let mut cfg = Config::default().with_workers(self.workers);
        if let Some(base) = self.commit_backoff {
            cfg = cfg.with_commit_backoff(base);
        }
        if let Some(limit) = self.body_deadline {
            cfg = cfg.with_body_deadline(limit);
        }
        cfg
    }
}

/// State shared between the accept loop and the event workers.
pub(crate) struct Shared {
    pub(crate) stats: ServeStats,
    pub(crate) gate: Arc<Gate>,
    pub(crate) probe: FaultProbe,
    pub(crate) cache: Cache,
    /// Key → slot mapping of the keyed view (`None` elsewhere); used for
    /// degraded keyed reads from the cached shard rows.
    pub(crate) key_map: Option<KeyMap>,
    pub(crate) cmd_tx: SyncSender<EngineCmd>,
    /// Set by the engine's [`StopSignal`]: no reply slot will be filled
    /// again, so parked requests answer from last-committed state.
    pub(crate) engine_stopped: Arc<AtomicBool>,
    pub(crate) draining: AtomicBool,
    pub(crate) active_conns: AtomicUsize,
    /// Woken by the worker that retires the last connection; shutdown
    /// parks here instead of polling `active_conns`.
    pub(crate) drained: Waiters,
    pub(crate) deadline: Duration,
}

/// A running front-end. [`Server::shutdown`] is the graceful, joining
/// path the tests pin. Dropping the server instead stops it without
/// blocking: the accept thread and idle workers exit at once, workers
/// with connections as soon as those finish their in-flight request, and
/// the engine tears its runtime down when the last of them is gone.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    doorbells: Vec<Arc<Doorbell>>,
    accept_handle: Option<thread::JoinHandle<()>>,
    worker_handles: Vec<thread::JoinHandle<()>>,
    engine_handle: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the engine, the event-worker pool and the accept
    /// loop, and returns.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;

        let pool = cfg.event_workers.max(1);
        let doorbells: Vec<Arc<Doorbell>> = (0..pool).map(|_| Arc::default()).collect();
        let engine_stopped = Arc::new(AtomicBool::new(false));
        let stop = StopSignal {
            stopped: Arc::clone(&engine_stopped),
            workers: doorbells.clone(),
        };

        let (cmd_tx, cmd_rx) = mpsc::sync_channel(cfg.queue_cap.max(1));
        let engine_cfg = EngineConfig {
            kind: cfg.view,
            dims: cfg.dims,
            key_space: cfg.key_space.max(1),
            runtime: cfg.runtime_config(),
            repair_cap: cfg.repair_cap,
            repair_backoff: cfg.repair_backoff,
            seed: cfg.serve_faults.as_ref().map_or(1, |p| p.seed),
        };
        let (cache, key_map, engine_handle) = Engine::spawn(engine_cfg, cmd_rx, stop);

        let probe = match &cfg.serve_faults {
            Some(plan) => FaultProbe::from_plan(plan),
            None => FaultProbe::disarmed(),
        };
        let shared = Arc::new(Shared {
            stats: ServeStats::new(),
            gate: Arc::new(Gate::new(cfg.max_inflight)),
            probe,
            cache,
            key_map,
            cmd_tx,
            engine_stopped,
            draining: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            drained: Waiters::default(),
            deadline: cfg.deadline,
        });

        let mut worker_handles = Vec::with_capacity(pool);
        let mut registrations = Vec::with_capacity(pool);
        for (i, doorbell) in doorbells.iter().enumerate() {
            let (reg_tx, reg_rx) = mpsc::channel::<TcpStream>();
            registrations.push((reg_tx, Arc::clone(doorbell)));
            let (doorbell, worker_shared) = (Arc::clone(doorbell), Arc::clone(&shared));
            let handle = thread::Builder::new()
                .name(format!("dtt-serve-ev{i}"))
                .spawn(move || event_worker(reg_rx, doorbell, worker_shared))
                .expect("spawn event worker");
            worker_handles.push(handle);
        }

        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("dtt-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, registrations))
            .expect("spawn accept thread");

        Ok(Server {
            shared,
            local_addr,
            doorbells,
            accept_handle: Some(accept_handle),
            worker_handles,
            engine_handle: Some(engine_handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the request-lifecycle counters.
    pub fn stats(&self) -> ServeStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Connections currently registered with the event workers. Bounded
    /// by client behaviour, not by OS threads — the churn test drives
    /// 10 000 connections through and asserts this returns to zero while
    /// the thread count never moves.
    pub fn active_conn_count(&self) -> usize {
        self.shared.active_conns.load(Ordering::SeqCst)
    }

    /// Serve-layer fault injections so far, indexed by
    /// [`FaultPoint`] discriminant.
    pub fn fault_injections(&self) -> [u64; FaultPoint::COUNT] {
        self.shared.probe.counts()
    }

    /// Drain-mode shutdown: stop accepting, let in-flight requests
    /// finish, retire the event workers, then stop the engine and tear
    /// the runtime down. **Idempotent** — a second call finds everything
    /// already joined and returns `Ok` immediately.
    ///
    /// The engine stop is a *blocking* mailbox send: the PR-9 path used
    /// `try_send` and silently dropped the shutdown command whenever the
    /// mailbox was full at drain, leaving `join` waiting on an engine
    /// that would never be told to exit. The mailbox is bounded and the
    /// engine always drains it, so the blocking send is itself bounded.
    ///
    /// # Errors
    ///
    /// `ErrorKind::TimedOut` if connections are still active at the
    /// deadline; the listener stays closed and a retry can finish the
    /// join later.
    pub fn shutdown(&mut self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        if let Some(handle) = self.stop_accepting() {
            let _ = handle.join();
        }
        // Each worker exits once it has seen `draining` and its connection
        // set is empty; the one that retires the last connection wakes us.
        let active = || self.shared.active_conns.load(Ordering::SeqCst);
        while active() > 0 {
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "connections still active at drain deadline",
                ));
            }
            self.shared.drained.park(|| active() == 0, deadline - now);
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.engine_handle.take() {
            let _ = self.shared.cmd_tx.send(EngineCmd::Shutdown);
            let _ = handle.join();
        }
        Ok(())
    }

    /// Sets `draining`, rings every worker and unblocks the accept thread
    /// with a loopback connection to its own listener (the thread checks
    /// `draining` whenever `accept` returns). Hands back the accept handle
    /// if joining it cannot block — `None` when this already ran, or when
    /// the connect failed and the thread is detached instead: nothing
    /// else depends on it, the workers exit on `draining` alone.
    fn stop_accepting(&mut self) -> Option<thread::JoinHandle<()>> {
        self.shared.draining.store(true, Ordering::SeqCst);
        for doorbell in &self.doorbells {
            doorbell.ring();
        }
        let handle = self.accept_handle.take()?;
        let mut addr = self.local_addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let unblocked = TcpStream::connect_timeout(&addr, SELF_CONNECT_TIMEOUT).is_ok();
        (unblocked || handle.is_finished()).then_some(handle)
    }
}

impl Drop for Server {
    /// Stops the server without blocking (see [`Server`]); after a
    /// completed [`Server::shutdown`] there is nothing left to stop.
    fn drop(&mut self) {
        // Dropping the handle detaches the accept thread: drop never joins.
        drop(self.stop_accepting());
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    registrations: Vec<(mpsc::Sender<TcpStream>, Arc<Doorbell>)>,
) {
    let mut next = 0usize;
    loop {
        let accepted = listener.accept();
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            return;
        };
        let (registration, doorbell) = &registrations[next % registrations.len()];
        next = next.wrapping_add(1);
        if registration.send(stream).is_err() {
            // Worker gone (only happens past drain): stop accepting.
            return;
        }
        doorbell.ring();
    }
}

/// What one sweep over a worker's connections found.
#[derive(Default)]
struct Sweep {
    progressed: bool,
    /// Some connection is mid-exchange (see [`Polled::busy`]).
    busy: bool,
    /// The nearest [`Polled::timer`].
    timer: Option<Instant>,
}

/// How long a worker may nap after its `empties`-th consecutive empty
/// sweep (counting from zero) — the ladder in the module docs.
fn nap_for(empties: u32, conns: usize, sweep: &Sweep, now: Instant) -> Duration {
    if conns == 0 {
        // Only a ring (a new connection, shutdown) can give this worker
        // anything to do.
        return Duration::MAX;
    }
    let cap = if sweep.busy {
        NAP_CAP_BUSY
    } else {
        NAP_CAP_SILENT
    };
    let ladder = NAP_FLOOR.saturating_mul(1 << empties.min(16)).min(cap);
    sweep
        .timer
        .map_or(ladder, |due| ladder.min(due.saturating_duration_since(now)))
}

/// One event worker: registers the connections the accept thread sent it,
/// sweeps its connection state machines, and naps on its doorbell when a
/// full sweep moved nothing (see the module docs for the ladder). A
/// panicking connection poll is caught, settled through [`Conn::abort`]
/// (counters conserved, permit returned by RAII) and the connection
/// dropped — one poisoned request cannot take down the worker's other
/// connections. Exits once `draining` is set and its last connection is
/// gone.
fn event_worker(reg_rx: Receiver<TcpStream>, doorbell: Arc<Doorbell>, shared: Arc<Shared>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut empties = 0u32;
    loop {
        // Cleared before anything is looked at: whatever a later ring
        // announces is either seen by this sweep or cuts the nap after it.
        doorbell.clear();
        let draining = shared.draining.load(Ordering::SeqCst);
        while let Ok(stream) = reg_rx.try_recv() {
            if let Ok(conn) = Conn::new(stream, Arc::clone(&doorbell)) {
                shared.active_conns.fetch_add(1, Ordering::SeqCst);
                conns.push(conn);
            }
        }
        let sweep = sweep(&mut conns, &shared, draining);
        if draining && conns.is_empty() {
            return;
        }
        if sweep.progressed {
            empties = 0;
            continue;
        }
        doorbell.nap(nap_for(empties, conns.len(), &sweep, Instant::now()));
        empties = empties.saturating_add(1);
    }
}

/// Polls every connection once, dropping the finished ones.
fn sweep(conns: &mut Vec<Conn>, shared: &Shared, draining: bool) -> Sweep {
    let mut sweep = Sweep::default();
    conns.retain_mut(|conn| {
        let polled = match catch_unwind(AssertUnwindSafe(|| conn.poll(shared, draining))) {
            Ok(polled) => polled,
            Err(_) => {
                conn.abort(shared);
                Polled::closed(true)
            }
        };
        sweep.progressed |= polled.progressed;
        sweep.busy |= polled.busy;
        sweep.timer = sweep.timer.into_iter().chain(polled.timer).min();
        if !polled.keep && shared.active_conns.fetch_sub(1, Ordering::SeqCst) == 1 {
            shared.drained.wake_all();
        }
        polled.keep
    });
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn found(busy: bool, timer: Option<Instant>) -> Sweep {
        Sweep {
            busy,
            timer,
            ..Sweep::default()
        }
    }

    #[test]
    fn nap_ladder_doubles_from_the_floor_to_the_cap_that_applies() {
        let now = Instant::now();
        let us = |empties, sweep: &Sweep| nap_for(empties, 3, sweep, now).as_micros();
        let busy: Vec<_> = (0..5).map(|n| us(n, &found(true, None))).collect();
        assert_eq!(busy, [100, 200, 400, 500, 500]);
        let silent: Vec<_> = (0..8).map(|n| us(n, &found(false, None))).collect();
        assert_eq!(silent, [100, 200, 400, 800, 1600, 3200, 4000, 4000]);
        assert_eq!(us(u32::MAX, &found(false, None)), 4000);
    }

    #[test]
    fn nap_never_outlasts_a_connection_timer_or_arms_one_without_connections() {
        let now = Instant::now();
        let due_in = |us| Some(now + Duration::from_micros(us));
        let nap = |sweep: &Sweep| nap_for(2, 3, sweep, now).as_micros();
        assert_eq!(nap(&found(true, due_in(150))), 150);
        assert_eq!(nap(&found(true, due_in(9000))), 400);
        assert_eq!(nap(&found(true, Some(now))), 0, "a due timer: sweep now");
        assert_eq!(nap_for(0, 0, &found(false, None), now), Duration::MAX);
    }
}
