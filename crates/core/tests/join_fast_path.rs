//! The lock-free skip: a join on a clean tthread is one load of its status
//! word and takes no lock, yet still sees every failure and every commit.
//!
//! * (a) a skipping join and `status` return while a body holds the state
//!   lock;
//! * (b) a poisoned or timed-out tthread fails every join until cleared;
//! * (c) racing a worker's commit, a join never reports `Skipped` for a
//!   commit it has not seen, and reports each commit exactly once;
//! * (d) foreign ids are refused, and the fast path's skips fold into
//!   `stats()` and `report()` like every other counter.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dtt_core::{Config, Error, JoinOutcome, Runtime, TthreadId, TthreadStatus};

/// How long any wait in this file may take before the test fails instead
/// of hanging.
const BOUND: Duration = Duration::from_secs(10);

/// Polls `done` until it holds, failing after [`BOUND`].
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + BOUND;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        thread::yield_now();
    }
}

/// (a) A worker body takes the state lock through `user_mut` and keeps it
/// until its commit, then waits to be released. While it waits, a join
/// that skips and a status read must both return. Were either to take the
/// state lock it would block until the body gave up waiting, and the body
/// would report that it was never released.
#[test]
fn a_skip_and_a_status_read_take_no_lock() {
    let mut rt = Runtime::new(Config::default().with_workers(1), 0u64);
    let x = rt.alloc(0u64).unwrap();
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
    let released = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&released);
    let holder = rt.register("holder", move |ctx| {
        *ctx.user_mut() += 1;
        entered_tx.lock().unwrap().send(()).unwrap();
        let ok = release_rx.lock().unwrap().recv_timeout(BOUND).is_ok();
        flag.store(ok, Ordering::SeqCst);
    });
    let clean = rt.register("clean", |_| {});
    rt.watch(holder, x.range()).unwrap();

    rt.write(x, 1);
    entered_rx
        .recv_timeout(BOUND)
        .expect("the worker never entered the holder's body");
    assert_eq!(rt.join(clean).unwrap(), JoinOutcome::Skipped);
    assert_eq!(rt.status(clean).unwrap(), TthreadStatus::Clean);
    assert_eq!(rt.status(holder).unwrap(), TthreadStatus::Running);
    release_tx.send(()).unwrap();

    let outcome = rt.join(holder).unwrap();
    assert!(
        matches!(outcome, JoinOutcome::Waited | JoinOutcome::Overlapped),
        "{outcome:?}"
    );
    assert!(
        released.load(Ordering::SeqCst),
        "the body timed out: the skip or the status read waited for its lock"
    );
    assert_eq!(rt.with(|ctx| *ctx.user()), 1);
    assert_eq!(rt.stats().counters().park_rescues, 0);
}

/// (b) A body that panics on a worker poisons its tthread. The failure is
/// published on the slot before the word goes Clean, so the fast path
/// never reads it as a skip: every join fails until `clear_poison`.
#[test]
fn a_worker_panic_fails_every_join_until_cleared() {
    let mut rt = Runtime::new(Config::default().with_workers(1), ());
    let x = rt.alloc(0u32).unwrap();
    let bad = rt.register("bad", |_| panic!("tthread bug"));
    rt.watch(bad, x.range()).unwrap();
    rt.write(x, 1);
    // Not joined yet, so only the worker can run it: Queued, Running,
    // then Clean once the panic is recorded.
    wait_until("the worker records the panic", || {
        rt.status(bad).unwrap() == TthreadStatus::Clean
    });
    for _ in 0..3 {
        assert!(matches!(rt.join(bad), Err(Error::TthreadPoisoned(id)) if id == bad));
    }
    rt.clear_poison(bad).unwrap();
    assert_eq!(rt.join(bad).unwrap(), JoinOutcome::Skipped);
    assert_eq!(rt.join(bad).unwrap(), JoinOutcome::Skipped);
    assert_eq!(rt.stats().counters().park_rescues, 0);
}

/// (b) The same for a body that overruns a zero deadline: every join
/// reports the timeout until `clear_timeout`.
#[test]
fn a_body_timeout_fails_every_join_until_cleared() {
    let cfg = Config::default()
        .with_workers(1)
        .with_body_deadline(Duration::ZERO);
    let mut rt = Runtime::new(cfg, ());
    let x = rt.alloc(0u32).unwrap();
    let slow = rt.register("slow", |_| {});
    rt.watch(slow, x.range()).unwrap();
    rt.write(x, 1);
    // With a deadline a join never steals: it waits for the worker.
    for _ in 0..3 {
        assert!(matches!(rt.join(slow), Err(Error::TthreadTimedOut(id)) if id == slow));
    }
    rt.clear_timeout(slow).unwrap();
    assert_eq!(rt.join(slow).unwrap(), JoinOutcome::Skipped);
    let c = rt.stats().counters().clone();
    assert_eq!(c.body_timeouts, 1);
    assert_eq!(c.park_rescues, 0);
}

/// (c) Store, let the worker commit, join — ten thousand times, joining at
/// three points of the race: at once, after a yield, and after the worker
/// has certainly completed (word Clean with the completion flag set, the
/// state the fast path must not mistake for a skip). Each commit is
/// reported exactly once, and a second join skips.
#[test]
fn a_join_never_skips_a_commit_it_has_not_seen() {
    const ROUNDS: u64 = 10_000;
    let mut rt = Runtime::new(Config::default().with_workers(1), 0u64);
    let x = rt.alloc(0u64).unwrap();
    let copy = rt.register("copy", move |ctx| {
        let v = ctx.get(x);
        *ctx.user_mut() = v;
    });
    rt.watch(copy, x.range()).unwrap();

    for round in 1..=ROUNDS {
        rt.write(x, round);
        match round % 3 {
            0 => {}
            1 => thread::yield_now(),
            _ => wait_until("the worker commits", || {
                rt.status(copy).unwrap() == TthreadStatus::Clean
            }),
        }
        let outcome = rt.join(copy).unwrap();
        assert!(
            matches!(
                outcome,
                JoinOutcome::Overlapped | JoinOutcome::Waited | JoinOutcome::Stolen
            ),
            "round {round}: {outcome:?}"
        );
        assert_eq!(rt.with(|ctx| *ctx.user()), round, "round {round}");
        assert_eq!(
            rt.join(copy).unwrap(),
            JoinOutcome::Skipped,
            "round {round}: a commit was reported twice"
        );
    }

    let c = rt.stats().counters().clone();
    assert_eq!(c.executions, ROUNDS);
    assert_eq!(c.joins, 2 * ROUNDS);
    assert_eq!(c.skips, ROUNDS);
    assert_eq!(c.park_rescues, 0);
    assert_eq!(rt.report().tthreads[copy.index()].skips, ROUNDS);
}

/// (d) Ids this runtime did not issue are refused everywhere, before any
/// lock; skips taken on the fast path and on the locked path sum to
/// `stats().skips` through the report rows; `reset_stats` zeroes the
/// global join counters and keeps the per-tthread ones.
#[test]
fn skips_fold_into_stats_and_report() {
    for workers in [0, 1] {
        let mut rt = Runtime::new(Config::default().with_workers(workers), 0u64);
        let x = rt.alloc(0u64).unwrap();
        let y = rt.alloc(0u64).unwrap();
        let a = rt.register("a", move |ctx| {
            let v = ctx.get(x);
            *ctx.user_mut() += v;
        });
        let b = rt.register("b", |_| {});
        rt.watch(a, x.range()).unwrap();
        rt.watch(b, y.range()).unwrap();

        let foreign = TthreadId::new(2);
        assert!(matches!(rt.join(foreign), Err(Error::UnknownTthread(_))));
        assert!(matches!(rt.status(foreign), Err(Error::UnknownTthread(_))));
        assert!(matches!(rt.force(foreign), Err(Error::UnknownTthread(_))));
        assert!(matches!(
            rt.mark_dirty(foreign),
            Err(Error::UnknownTthread(_))
        ));
        assert!(matches!(
            rt.clear_poison(foreign),
            Err(Error::UnknownTthread(_))
        ));
        assert!(matches!(
            rt.clear_timeout(foreign),
            Err(Error::UnknownTthread(_))
        ));
        assert!(matches!(
            rt.watch(foreign, x.range()),
            Err(Error::UnknownTthread(_))
        ));
        assert!(matches!(
            rt.declare_output(foreign, y.range()),
            Err(Error::UnknownTthread(_))
        ));

        rt.write(x, 5);
        assert_ne!(rt.join(a).unwrap(), JoinOutcome::Skipped);
        for _ in 0..2 {
            assert_eq!(rt.join(a).unwrap(), JoinOutcome::Skipped);
        }
        assert_eq!(rt.join(b).unwrap(), JoinOutcome::Skipped);
        assert_eq!(rt.join_all().unwrap().len(), 2);

        let rows = |rt: &Runtime<u64>| -> Vec<u64> {
            rt.report().tthreads.iter().map(|t| t.skips).collect()
        };
        let c = rt.stats().counters().clone();
        assert_eq!(rows(&rt), vec![3, 2], "workers {workers}");
        assert_eq!(c.skips, rows(&rt).iter().sum::<u64>(), "workers {workers}");
        assert_eq!(c.joins, 6, "workers {workers}");
        assert_eq!(c.park_rescues, 0, "workers {workers}");

        rt.reset_stats();
        let c = rt.stats().counters().clone();
        assert_eq!((c.joins, c.skips), (0, 0), "workers {workers}");
        assert_eq!(rows(&rt), vec![3, 2], "per-tthread skips survive a reset");
        assert_eq!(rt.join(b).unwrap(), JoinOutcome::Skipped);
        let c = rt.stats().counters().clone();
        assert_eq!((c.joins, c.skips), (1, 1), "workers {workers}");
        assert_eq!(rows(&rt), vec![3, 3]);
        assert_eq!(rt.with(|ctx| *ctx.user()), 5);
    }
}
