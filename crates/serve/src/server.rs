//! The front-end: accept loop, the event-driven handler pool, admission,
//! deadlines, degradation and drain-mode shutdown.
//!
//! ## Connection path
//!
//! Connections are **not** threads. The accept loop hands each accepted
//! socket to one of a small, fixed pool of *event workers* (round-robin);
//! a worker owns a set of [`crate::conn::Conn`] state machines and sweeps
//! them with non-blocking reads and writes, sleeping briefly only when no
//! connection made progress. OS thread count is `event_workers + 2`
//! (accept + engine) regardless of whether 4 or 10 000 clients are
//! connected — the PR-9 thread-per-connection path pinned both the
//! concurrency ceiling and the `JoinHandle` leak to the connection count;
//! this one pins them to the pool size.
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
//! settled by [`crate::conn::Conn::abort`], so the identity holds at
//! every quiescent point, not just on sunny days.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dtt_core::{Config, FaultPlan, FaultPoint, FaultProbe};
use dtt_workloads::KeyMap;

use crate::admission::{Gate, ServeStats, ServeStatsSnapshot};
use crate::conn::{Conn, Polled};
use crate::engine::{Cache, Engine, EngineCmd, EngineConfig, ViewKind};

/// Accept-loop poll period while the listener is idle.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Event-worker sleep when a full sweep made no progress: long enough
/// not to spin a core, short enough to stay well under request
/// deadlines.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

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
    /// Fault plan installed into the *runtime* (core points: body
    /// panics, retriggers, ...), for wedge scenarios.
    pub runtime_faults: Option<FaultPlan>,
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
    /// Timeout for the engine's runtime teardown at shutdown.
    pub teardown_timeout: Duration,
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
            runtime_faults: None,
            serve_faults: None,
            commit_backoff: Some(Duration::from_micros(50)),
            body_deadline: None,
            repair_cap: 3,
            repair_backoff: Duration::from_millis(1),
            teardown_timeout: Duration::from_secs(10),
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
        if let Some(plan) = &self.runtime_faults {
            cfg = cfg.with_fault_plan(plan.clone());
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
    pub(crate) draining: AtomicBool,
    pub(crate) active_conns: AtomicUsize,
    pub(crate) deadline: Duration,
}

/// A running front-end. Dropping without [`Server::shutdown`] aborts the
/// accept loop but detaches the engine; call `shutdown` for the graceful
/// path the tests pin.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
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
        listener.set_nonblocking(true)?;

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
        let (cache, key_map, engine_handle) =
            Engine::spawn(engine_cfg, cmd_rx, cfg.teardown_timeout);

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
            draining: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            deadline: cfg.deadline,
        });

        let pool = cfg.event_workers.max(1);
        let mut worker_handles = Vec::with_capacity(pool);
        let mut registrations = Vec::with_capacity(pool);
        for i in 0..pool {
            let (reg_tx, reg_rx) = mpsc::channel::<TcpStream>();
            registrations.push(reg_tx);
            let worker_shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("dtt-serve-ev{i}"))
                .spawn(move || event_worker(reg_rx, worker_shared))
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
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            // Joining the accept loop drops the registration senders;
            // each worker exits once its channel disconnects and its
            // connection set drains.
            let _ = handle.join();
        }
        while self.shared.active_conns.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "connections still active at drain deadline",
                ));
            }
            thread::sleep(Duration::from_millis(1));
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
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    registrations: Vec<mpsc::Sender<TcpStream>>,
) {
    let mut next = 0usize;
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                shared.active_conns.fetch_add(1, Ordering::SeqCst);
                let slot = next % registrations.len();
                next = next.wrapping_add(1);
                if registrations[slot].send(stream).is_err() {
                    // Worker gone (only happens past drain); undo the
                    // registration and stop accepting.
                    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => return,
        }
    }
}

/// One event worker: drains its registration channel, sweeps its
/// connection state machines, and sleeps briefly only when a full sweep
/// moved nothing. A panicking connection poll is caught, settled through
/// [`Conn::abort`] (counters conserved, permit returned by RAII) and the
/// connection dropped — one poisoned request cannot take down the
/// worker's other connections.
fn event_worker(reg_rx: Receiver<TcpStream>, shared: Arc<Shared>) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        let mut disconnected = false;
        loop {
            match reg_rx.try_recv() {
                Ok(stream) => match Conn::new(stream) {
                    Ok(conn) => conns.push(conn),
                    Err(_) => {
                        shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                    }
                },
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        let draining = shared.draining.load(Ordering::SeqCst);
        let mut progressed = false;
        conns.retain_mut(|conn| {
            let polled = match catch_unwind(AssertUnwindSafe(|| conn.poll(&shared, draining))) {
                Ok(polled) => polled,
                Err(_) => {
                    conn.abort(&shared);
                    Polled {
                        keep: false,
                        progressed: true,
                    }
                }
            };
            progressed |= polled.progressed;
            if !polled.keep {
                shared.active_conns.fetch_sub(1, Ordering::SeqCst);
            }
            polled.keep
        });
        if disconnected && conns.is_empty() {
            return;
        }
        if !progressed {
            thread::sleep(IDLE_SLEEP);
        }
    }
}
