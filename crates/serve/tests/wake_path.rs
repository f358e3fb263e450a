//! Latency guards for the wake path: an engine reply reaches its socket
//! one futex wake after it was produced, and a worker that found nothing
//! naps on a backoff ladder instead of a fixed quantum.
//!
//! The bound is structural: with the old fixed 500 µs idle sleep a `Put`
//! could not complete in under one full quantum (the reply was only
//! *noticed* on the next sweep), so no 64-request window could have a
//! median under it. The tests look for one such window among up to 40, so
//! a noisy host slows them down without failing them, and run one at a
//! time so they do not measure each other.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use dtt_serve::{Client, Request, Response, ServeConfig, Server, ViewKind};

/// Serializes the tests of this binary: they measure wall-clock latency.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn keyed_server() -> Server {
    Server::start(ServeConfig {
        view: ViewKind::Keyed,
        ..ServeConfig::default()
    })
    .unwrap()
}

/// What the best window must beat. The old loop needed one full 500 µs
/// quantum per reply on top of the work itself, and an unoptimized build
/// spends ~0.3 ms computing per put: measured 0.06–0.08 ms now against
/// 0.63–0.84 ms then when optimized, 0.36–0.43 ms against 1.26–1.31 ms
/// when not.
const LIMIT: Duration = Duration::from_micros(if cfg!(debug_assertions) { 1000 } else { 600 });

/// Closed loop of `Put`s in 64-request windows: the first window median
/// under [`LIMIT`], or the best of 40 if none is. One good window is the
/// whole claim — it could not exist with a timer in the reply path — so a
/// host that is busy for a second costs the test time, not its verdict.
fn best_put_median(client: &mut Client) -> Duration {
    let mut key = 0u64;
    let mut best = Duration::MAX;
    for _ in 0..40 {
        let mut window: Vec<Duration> = (0..64)
            .map(|_| {
                key += 37;
                let t0 = Instant::now();
                let resp = client.request(Request::Put { key, value: 1 }).unwrap();
                assert_eq!(resp, Response::Ok { degraded: false });
                t0.elapsed()
            })
            .collect();
        window.sort();
        best = best.min(window[window.len() / 2]);
        if best < LIMIT {
            break;
        }
    }
    best
}

fn assert_conserved(server: &Server) {
    let snap = server.stats();
    assert!(
        snap.admission_conserved() && snap.lifecycle_conserved() && snap.serve_sheds == 0,
        "{snap:?}"
    );
}

#[test]
fn put_round_trip_beats_one_idle_quantum() {
    let _serial = serial();
    let mut server = keyed_server();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let best = best_put_median(&mut client);
    assert!(
        best < LIMIT,
        "best 64-put median {best:?}: replies are waiting for a timer again"
    );
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}

#[test]
fn silent_connections_do_not_tax_the_active_one() {
    let _serial = serial();
    let mut server = keyed_server();
    let addr = server.local_addr().to_string();
    let mut silent: Vec<Client> = (0..64).map(|_| Client::connect(&addr).unwrap()).collect();
    for client in &mut silent {
        assert_eq!(client.request(Request::Ping).unwrap(), Response::Pong);
    }
    let mut client = Client::connect(&addr).unwrap();
    let best = best_put_median(&mut client);
    assert!(
        best < LIMIT,
        "best 64-put median {best:?} beside 64 silent connections"
    );

    // Total silence lets the workers climb to their longest nap; the next
    // request still meets a bounded wait (4 ms), not an unbounded backoff.
    // Best of three silences, for the same reason as the windows above.
    let woke = (0..3)
        .map(|_| {
            thread::sleep(Duration::from_millis(200));
            let t0 = Instant::now();
            assert_eq!(client.request(Request::Ping).unwrap(), Response::Pong);
            t0.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        woke < Duration::from_millis(10),
        "first request after 200 ms of silence took {woke:?}"
    );
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}
