//! Contract tests for the serve front-end: admission, shedding,
//! deadlines, degraded reads, conservation and drain-mode shutdown.

use std::time::Duration;

use dtt_core::fault::{FaultPlan, ALWAYS};
use dtt_core::FaultPoint;
use dtt_serve::{load, Client, LoadConfig, Request, Response, ServeConfig, Server, ViewKind};

fn quick_config() -> ServeConfig {
    ServeConfig {
        deadline: Duration::from_millis(500),
        ..ServeConfig::default()
    }
}

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

#[test]
fn ping_put_get_round_trip() {
    let mut server = Server::start(quick_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    assert_eq!(client.request(Request::Ping).unwrap(), Response::Pong);
    // Sheet view, 16x32 grid: key 0 is cell (0,0).
    let resp = client.request(Request::Put { key: 0, value: 40 }).unwrap();
    assert_eq!(resp, Response::Ok { degraded: false });
    let resp = client.request(Request::Put { key: 33, value: 2 }).unwrap();
    assert_eq!(resp, Response::Ok { degraded: false });

    // query 0 = total.
    let resp = client.request(Request::Get { query: 0 }).unwrap();
    assert_eq!(
        resp,
        Response::Value {
            degraded: false,
            value: 42
        }
    );

    let snap = server.stats();
    assert_eq!(snap.serve_accepts, 4);
    assert_eq!(snap.serve_admits, 4);
    assert_eq!(snap.serve_sheds, 0);
    assert_eq!(snap.serve_responses, 4);
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}

#[test]
fn pipeline_view_serves_the_peak() {
    let mut server = Server::start(ServeConfig {
        view: ViewKind::Pipeline,
        dims: (16, 4),
        ..quick_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    // Samples 0 and 4 land in bucket 0; 500 clamps to 99 in bucket 1.
    for (key, value) in [(0u64, 50i64), (4, 30), (1, 500)] {
        client.request(Request::Put { key, value }).unwrap();
    }
    let resp = client.request(Request::Get { query: 0 }).unwrap();
    assert_eq!(
        resp,
        Response::Value {
            degraded: false,
            value: 99
        }
    );
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}

#[test]
fn zero_permit_gate_sheds_explicitly() {
    let mut server = Server::start(ServeConfig {
        max_inflight: 0,
        ..quick_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..5 {
        assert_eq!(client.request(Request::Ping).unwrap(), Response::Shed);
    }
    let snap = server.stats();
    assert_eq!(snap.serve_accepts, 5);
    assert_eq!(snap.serve_admits, 0);
    assert_eq!(snap.serve_sheds, 5);
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}

#[test]
fn injected_accept_overflows_shed_with_budget() {
    let plan = FaultPlan::new(118)
        .with_rate(FaultPoint::AcceptOverflow, ALWAYS)
        .with_budget(FaultPoint::AcceptOverflow, 3);
    let mut server = Server::start(ServeConfig {
        serve_faults: Some(plan),
        ..quick_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let mut sheds = 0;
    for _ in 0..10 {
        if client.request(Request::Ping).unwrap() == Response::Shed {
            sheds += 1;
        }
    }
    assert_eq!(sheds, 3, "budgeted overflow fires exactly three times");
    assert_eq!(
        server.fault_injections()[FaultPoint::AcceptOverflow as usize],
        3
    );
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}

#[test]
fn injected_conn_drop_is_conserved() {
    let plan = FaultPlan::new(7)
        .with_rate(FaultPoint::ConnDrop, ALWAYS)
        .with_budget(FaultPoint::ConnDrop, 1);
    let mut server = Server::start(ServeConfig {
        serve_faults: Some(plan),
        ..quick_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    // First admitted request: the server severs the connection.
    let err = client
        .request(Request::Put { key: 1, value: 1 })
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    // Budget spent: a fresh connection works.
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.request(Request::Ping).unwrap(), Response::Pong);

    let snap = server.stats();
    assert_eq!(snap.serve_dropped_conns, 1);
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}

#[test]
fn wedged_tthread_degrades_reads_to_last_committed() {
    // An impossible body deadline wedges every detached recomputation:
    // the engine's bounded repair (clear_timeout + re-dirty + backoff)
    // cannot clear it, so writes apply but freshness is never confirmed
    // and reads fall back to the last-committed cells, tagged.
    let mut server = Server::start(ServeConfig {
        workers: 1,
        body_deadline: Some(Duration::ZERO),
        repair_cap: 2,
        repair_backoff: Duration::from_micros(100),
        ..quick_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let resp = client.request(Request::Put { key: 0, value: 9 }).unwrap();
    assert_eq!(resp, Response::Ok { degraded: true });
    let resp = client.request(Request::Get { query: 0 }).unwrap();
    assert_eq!(
        resp,
        Response::Value {
            degraded: true,
            value: 0 // last-committed state: the initial all-zero cells
        }
    );
    let snap = server.stats();
    assert!(snap.serve_degraded_reads >= 2, "{snap:?}");
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}

#[test]
fn drain_shutdown_finishes_in_flight_and_is_idempotent() {
    let mut server = Server::start(quick_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for i in 0..8 {
        client.request(Request::Put { key: i, value: 1 }).unwrap();
    }
    server.shutdown(Duration::from_secs(10)).unwrap();
    // Idempotent: the double-shutdown (drain racing a signal handler)
    // returns Ok without re-joining anything.
    server.shutdown(Duration::from_secs(10)).unwrap();

    // The listener is closed: new connections are refused (or reset).
    assert!(
        Client::connect(&addr).is_err() || {
            // Accept backlog may hand us a socket that immediately EOFs.
            let mut c = Client::connect(&addr).unwrap();
            c.request(Request::Ping).is_err()
        }
    );
    assert_conserved(&server);
}

#[test]
fn overload_sheds_instead_of_collapsing() {
    // A tiny gate against a burst of concurrent clients: some requests
    // shed, every request is answered, nothing is lost.
    let mut server = Server::start(ServeConfig {
        max_inflight: 2,
        queue_cap: 2,
        ..quick_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut handles = Vec::new();
    for t in 0..8 {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            let mut sheds = 0u64;
            let mut oks = 0u64;
            for i in 0..50 {
                match client
                    .request(Request::Put {
                        key: (t * 64 + i) as u64,
                        value: i,
                    })
                    .unwrap()
                {
                    Response::Shed => sheds += 1,
                    _ => oks += 1,
                }
            }
            (sheds, oks)
        }));
    }
    let mut total_sheds = 0;
    let mut total_oks = 0;
    for handle in handles {
        let (sheds, oks) = handle.join().unwrap();
        total_sheds += sheds;
        total_oks += oks;
    }
    assert_eq!(total_sheds + total_oks, 400, "every request answered");
    let snap = server.stats();
    assert_eq!(snap.serve_accepts, 400);
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();

    // Open loop (latency from *scheduled* send instants, so queueing
    // behind a slow server counts against it): measure what a generous
    // gate sustains, then drive a tight gate at twice that from more
    // connections than it has permits.
    let drive = |max_inflight, queue_cap, conns, rate| {
        let mut server = Server::start(ServeConfig {
            max_inflight,
            queue_cap,
            deadline: Duration::from_millis(50),
            ..ServeConfig::default()
        })
        .unwrap();
        let report = load::run(&LoadConfig {
            addr: server.local_addr().to_string(),
            conns,
            rate,
            duration: Duration::from_millis(400),
            ..LoadConfig::default()
        })
        .unwrap();
        server.shutdown(Duration::from_secs(30)).unwrap();
        assert_conserved(&server);
        (report, server.stats())
    };
    let base_rate = 1_500u64;
    let (baseline, _) = drive(64, 128, 4, base_rate);
    let sustained = baseline.response_throughput();
    let overload_rate = (2.0 * sustained).ceil().max(2.0 * base_rate as f64) as u64;
    let (overload, stats) = drive(4, 4, 16, overload_rate);
    assert!(
        stats.serve_sheds > 0,
        "a tight gate at 2x must shed: {stats:?}"
    );
    let p99_ms = overload.latency_ns(0.99) / 1_000_000;
    assert!(
        p99_ms <= 400,
        "overload p99 {p99_ms} ms: the server queued instead of shedding"
    );
    let answered = overload.ok + overload.shed + overload.degraded;
    assert!(
        answered * 2 >= overload.sent,
        "collapsed under overload: {answered} of {} answered",
        overload.sent
    );
}

#[test]
fn keyed_view_serves_shard_row_aggregates() {
    // 4x8 grid under a 1M logical key space: keys fold onto slots
    // (key % key_space % 32), row-major; GetKey answers the
    // tthread-maintained aggregate of the key's shard row.
    let mut server = Server::start(ServeConfig {
        view: ViewKind::Keyed,
        dims: (4, 8),
        key_space: 1 << 20,
        ..quick_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Key 0 → slot (0,0); key 9 → slot (1,1); key 1_048_577 folds to
    // slot (0,1) — the key space wraps, the grid wraps again.
    for (key, value) in [(0u64, 10i64), (9, 7), (1_048_577, 100)] {
        assert_eq!(
            client.request(Request::Put { key, value }).unwrap(),
            Response::Ok { degraded: false }
        );
    }
    assert_eq!(
        client.request(Request::GetKey { key: 0 }).unwrap(),
        Response::Value {
            degraded: false,
            value: 110 // row 0: key 0 (10) + folded key 1_048_577 (100)
        }
    );
    assert_eq!(
        client.request(Request::GetKey { key: 9 }).unwrap(),
        Response::Value {
            degraded: false,
            value: 7
        }
    );
    // The global aggregate still answers over all shard rows.
    assert_eq!(
        client.request(Request::Get { query: 0 }).unwrap(),
        Response::Value {
            degraded: false,
            value: 117
        }
    );
    // Colliding keys share a slot: last write wins (37 % 32 == 5).
    client.request(Request::Put { key: 5, value: 1 }).unwrap();
    client.request(Request::Put { key: 37, value: 2 }).unwrap();
    assert_eq!(
        client.request(Request::GetKey { key: 5 }).unwrap(),
        Response::Value {
            degraded: false,
            value: 112 // row 0: 10 + 100 + 2
        }
    );
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}

#[test]
fn wedged_keyed_view_degrades_getkey_to_cached_rows() {
    // Same wedge as the sheet test, keyed view: GetKey must fall back to
    // the last-committed shard-row cache, tagged degraded — not error,
    // not panic through a poisoned cache.
    let mut server = Server::start(ServeConfig {
        view: ViewKind::Keyed,
        dims: (4, 8),
        key_space: 1 << 16,
        workers: 1,
        body_deadline: Some(Duration::ZERO),
        repair_cap: 2,
        repair_backoff: Duration::from_micros(100),
        ..quick_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let resp = client.request(Request::Put { key: 3, value: 5 }).unwrap();
    assert_eq!(resp, Response::Ok { degraded: true });
    let resp = client.request(Request::GetKey { key: 3 }).unwrap();
    assert_eq!(
        resp,
        Response::Value {
            degraded: true,
            value: 0 // last-committed rows: the initial all-zero grid
        }
    );
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}

#[test]
fn getkey_on_unkeyed_view_answers_primary_aggregate() {
    let mut server = Server::start(quick_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.request(Request::Put { key: 0, value: 21 }).unwrap();
    client.request(Request::Put { key: 1, value: 21 }).unwrap();
    // Sheet view: GetKey degrades gracefully to `Get { query: 0 }`.
    assert_eq!(
        client.request(Request::GetKey { key: 999 }).unwrap(),
        Response::Value {
            degraded: false,
            value: 42
        }
    );
    assert_conserved(&server);
    server.shutdown(Duration::from_secs(10)).unwrap();
}
