//! Regression tests for the four serve-layer bugs fixed by the
//! event-driven rewrite, plus the env-knob hygiene that rode along:
//!
//! 1. **Mid-frame read-timeout desync** — a client dribbling a frame one
//!    byte at a time used to lose its partial bytes whenever the old
//!    blocking `read_frame` timed out mid-frame; the stream desynced and
//!    every later frame decoded as garbage. The resumable
//!    `FrameDecoder` parks partial frames across polls.
//! 2. **Shutdown hang with a saturated mailbox** — `shutdown` used
//!    `try_send(EngineCmd::Shutdown)`; with the bounded engine mailbox
//!    full at drain the command was silently dropped and
//!    `engine_handle.join()` blocked forever. The stop is now a blocking
//!    (bounded) send.
//! 3. **Permit leak** — the raw `try_acquire`/`release` pairing burned a
//!    permit on any panic between the two (unit-pinned in
//!    `admission::tests::panicking_permit_holder_cannot_burn_permits`);
//!    here the system-level cousin: a one-permit gate must survive
//!    repeated severed-while-admitted requests without drifting into
//!    shedding everything.
//! 4. **Unbounded `conn_handles` growth** — one `JoinHandle` (and one OS
//!    thread) per connection, drained only at shutdown. The event loop
//!    owns connections as state machines: OS threads stay at the pool
//!    size under a thousand held connections, and ten thousand churned
//!    connections leave nothing behind.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use dtt_core::fault::{FaultPlan, ALWAYS};
use dtt_core::FaultPoint;
use dtt_serve::{Client, FrameDecoder, Request, Response, ServeConfig, Server};

fn assert_conserved(server: &Server) {
    let snap = server.stats();
    assert!(
        snap.admission_conserved(),
        "accepts == admits + sheds violated: {snap:?}"
    );
    assert!(
        snap.lifecycle_conserved(),
        "accepts == responses + sheds + dropped_conns violated: {snap:?}"
    );
}

/// Reads one framed response off a raw socket.
fn read_response(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Response {
    let mut buf = [0u8; 256];
    loop {
        if let Some(payload) = dec.next_frame().unwrap() {
            return Response::decode(&payload).expect("decodable response");
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed mid-response");
        dec.extend(&buf[..n]);
    }
}

/// Bug 1: a frame dribbled one byte per 30 ms spans dozens of server
/// polls; every partial prefix must survive suspension. The old path
/// dropped the bytes read before each 25 ms socket timeout.
#[test]
fn dribbling_client_does_not_desync_the_stream() {
    let mut server = Server::start(ServeConfig {
        deadline: Duration::from_millis(500),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut dec = FrameDecoder::new();

    // A 21-byte Put frame (4-byte header + 17-byte payload), one byte
    // every 30 ms: ~630 ms of mid-frame suspensions.
    let mut wire = Vec::new();
    let payload = Request::Put { key: 0, value: 40 }.encode();
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(&payload);
    for &byte in &wire {
        stream.write_all(&[byte]).unwrap();
        thread::sleep(Duration::from_millis(30));
    }
    assert_eq!(
        read_response(&mut stream, &mut dec),
        Response::Ok { degraded: false }
    );

    // The stream is still in sync: a normally-sent read answers with the
    // dribbled write's value.
    let mut wire = Vec::new();
    let payload = Request::Get { query: 0 }.encode();
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(&payload);
    stream.write_all(&wire).unwrap();
    assert_eq!(
        read_response(&mut stream, &mut dec),
        Response::Value {
            degraded: false,
            value: 40
        }
    );

    let snap = server.stats();
    assert_eq!(snap.serve_accepts, 2);
    assert_eq!(snap.serve_responses, 2);
    assert_conserved(&server);
    drop(stream);
    server.shutdown(Duration::from_secs(10)).unwrap();
}

/// Bug 2: shutdown while the one-slot engine mailbox is saturated by a
/// wedged, slow engine. The old `try_send` dropped the Shutdown command
/// here and `join` hung forever; the blocking send waits for the slot
/// the draining engine is guaranteed to free.
#[test]
fn shutdown_drains_even_with_a_saturated_engine_mailbox() {
    let mut server = Server::start(ServeConfig {
        queue_cap: 1,
        max_inflight: 8,
        deadline: Duration::from_millis(20),
        // Wedge every refresh and make repair slow: each put batch holds
        // the engine for several backoff rounds, so the mailbox is full
        // essentially always.
        body_deadline: Some(Duration::ZERO),
        repair_cap: 2,
        repair_backoff: Duration::from_millis(25),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..4 {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        writers.push(thread::spawn(move || {
            let mut client = match Client::connect(&addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                // Errors mean the server is draining us — done.
                if client
                    .request(Request::Put {
                        key: t * 64 + i,
                        value: 1,
                    })
                    .is_err()
                {
                    return;
                }
            }
        }));
    }
    // Let the writers saturate the mailbox against the wedged engine.
    thread::sleep(Duration::from_millis(300));

    let (done_tx, done_rx) = mpsc::channel();
    let shutdown_thread = thread::spawn(move || {
        let result = server.shutdown(Duration::from_secs(10));
        let _ = done_tx.send(());
        (server, result)
    });
    let finished = done_rx.recv_timeout(Duration::from_secs(8));
    stop.store(true, Ordering::Relaxed);
    assert!(
        finished.is_ok(),
        "shutdown hung past 8s with a saturated engine mailbox"
    );
    let (server, result) = shutdown_thread.join().unwrap();
    result.unwrap();
    for w in writers {
        let _ = w.join();
    }
    assert_conserved(&server);
}

/// Bug 3, system level: a one-permit gate under repeated
/// severed-while-admitted requests (the injected conn-drop fires on
/// every admission) must keep admitting on fresh connections — a leaked
/// permit would turn every later request into a shed.
#[test]
fn one_permit_gate_survives_repeated_severed_admissions() {
    let plan = FaultPlan::new(41)
        .with_rate(FaultPoint::ConnDrop, ALWAYS)
        .with_budget(FaultPoint::ConnDrop, 10);
    let mut server = Server::start(ServeConfig {
        max_inflight: 1,
        serve_faults: Some(plan),
        deadline: Duration::from_millis(500),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    for _ in 0..10 {
        let mut client = Client::connect(&addr).unwrap();
        let err = client.request(Request::Ping).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
    // Budget spent; if any severed admission had leaked its permit the
    // one-permit gate would now shed everything.
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..5 {
        assert_eq!(client.request(Request::Ping).unwrap(), Response::Pong);
    }
    let snap = server.stats();
    assert_eq!(snap.serve_dropped_conns, 10);
    assert_eq!(snap.serve_sheds, 0, "no permit was leaked");
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}

/// OS threads of this process, from /proc/self/status.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// `Server` promised an abort-on-drop it did not have: a dropped server
/// leaked its accept thread, every event worker (each waking 2,000 times
/// a second, forever), the engine and the engine's runtime worker. Drop
/// must release all of them without being asked twice — here with a
/// client still connected to each server, which must see a close.
#[test]
fn dropped_server_releases_its_threads() {
    let baseline_threads = thread_count();
    let mut orphans = Vec::new();
    for _ in 0..20 {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
        assert_eq!(client.request(Request::Ping).unwrap(), Response::Pong);
        orphans.push(client);
        drop(server);
    }
    // Same slack as the churn test for threads of sibling tests; the leak
    // was five threads per server, a hundred here, and permanent — they
    // are normally gone within milliseconds.
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count() > baseline_threads + 64 {
        assert!(
            Instant::now() < deadline,
            "20 dropped servers left OS threads behind: {baseline_threads} -> {}",
            thread_count()
        );
        thread::sleep(Duration::from_millis(5));
    }
    for mut client in orphans {
        client.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let err = client.request(Request::Ping).unwrap_err();
        assert_ne!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
        assert_ne!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    }
}

/// Bug 4: connections are state machines, not threads. A thousand held
/// connections add zero OS threads; ten thousand churned connections
/// leave no handles, no threads and no active-connection residue.
#[test]
fn connection_churn_stays_bounded_in_threads_and_memory() {
    let mut server = Server::start(ServeConfig {
        event_workers: 2,
        deadline: Duration::from_millis(500),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // Phase A: hold 1024 concurrent connections from this one thread.
    let baseline_threads = thread_count();
    let mut held = Vec::with_capacity(1024);
    for _ in 0..1024 {
        held.push(TcpStream::connect(addr).unwrap());
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_conn_count() < 1024 {
        assert!(
            Instant::now() < deadline,
            "registration stalled at {} connections",
            server.active_conn_count()
        );
        thread::sleep(Duration::from_millis(2));
    }
    // Slack of 64 absorbs threads that sibling tests in this binary may
    // spawn concurrently; the per-connection regression would add ~1024.
    let held_threads = thread_count();
    assert!(
        held_threads <= baseline_threads + 64,
        "1024 held connections grew OS threads {baseline_threads} -> {held_threads}; \
         the event pool must not scale with connections"
    );
    drop(held);

    // Phase B: churn 10_000 connections (16 client threads x 625), one
    // request each.
    let mut churners = Vec::new();
    for t in 0..16u64 {
        churners.push(thread::spawn(move || {
            for i in 0..625u64 {
                let mut client = Client::connect(&addr.to_string()).unwrap();
                let resp = client
                    .request(Request::Put {
                        key: (t * 625 + i) % 512,
                        value: 1,
                    })
                    .unwrap();
                assert!(!matches!(resp, Response::Err { .. }));
            }
        }));
    }
    for c in churners {
        c.join().unwrap();
    }

    // Everything reaped: no per-connection residue survives the churn.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_conn_count() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} connections never reaped",
            server.active_conn_count()
        );
        thread::sleep(Duration::from_millis(2));
    }
    let after_threads = thread_count();
    assert!(
        after_threads <= baseline_threads + 64,
        "thread count drifted across 10k churned connections: \
         {baseline_threads} -> {after_threads}"
    );
    let snap = server.stats();
    assert_eq!(
        snap.serve_accepts, 10_000,
        "one decoded request per churned connection"
    );
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}
