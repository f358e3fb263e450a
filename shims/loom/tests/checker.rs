//! The checker checks itself: a known race is found, its atomic fix is
//! not, a lock-order inversion is reported as a deadlock, and a printed
//! schedule replays the same failure.

use std::panic::{catch_unwind, AssertUnwindSafe};

use loom::model::Builder;
use loom::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;

/// Runs `builder` on `f` and returns its failure report.
fn failure(builder: &Builder, f: impl Fn() + Sync + Send + 'static) -> String {
    let err = catch_unwind(AssertUnwindSafe(|| builder.check(f))).expect_err("the model must fail");
    err.downcast_ref::<String>()
        .cloned()
        .expect("a formatted report")
}

/// Two threads each add one to a counter with `incr`; the model asserts
/// the sum.
fn two_increments(incr: fn(&AtomicUsize)) -> impl Fn() + Sync + Send + 'static {
    move || {
        let n = Arc::new(AtomicUsize::new(0));
        let spawned = thread::spawn({
            let n = Arc::clone(&n);
            move || incr(&n)
        });
        incr(&n);
        spawned.join().unwrap();
        assert_eq!(n.load(SeqCst), 2, "an increment was lost");
    }
}

fn load_then_store(n: &AtomicUsize) {
    let v = n.load(SeqCst);
    n.store(v + 1, SeqCst);
}

fn fetch_add(n: &AtomicUsize) {
    n.fetch_add(1, SeqCst);
}

#[test]
fn a_load_then_store_increment_is_found_racy() {
    let report = failure(&Builder::new(), two_increments(load_then_store));
    assert!(report.contains("an increment was lost"), "{report}");
    assert!(report.contains("schedule: \""), "{report}");
}

#[test]
fn a_fetch_add_increment_is_green_under_every_schedule() {
    let executions = Builder::new().check(two_increments(fetch_add));
    // Two threads of two visible operations each, main's join included:
    // more than one order exists, and every one was run.
    assert!(executions > 1, "explored {executions}");
    // Without preemptions only the switch at the join is left to choose.
    let unpreempted = Builder {
        preemption_bound: 0,
        ..Builder::new()
    };
    assert!(unpreempted.check(two_increments(fetch_add)) < executions);
}

#[test]
fn opposite_lock_orders_report_a_deadlock_with_its_schedule() {
    let report = failure(&Builder::new(), || {
        let locks = Arc::new((Mutex::new(()), Mutex::new(())));
        let other = thread::spawn({
            let locks = Arc::clone(&locks);
            move || {
                let _b = locks.1.lock();
                let _a = locks.0.lock();
            }
        });
        {
            let _a = locks.0.lock();
            let _b = locks.1.lock();
        }
        other.join().unwrap();
    });
    assert!(report.contains("deadlock"), "{report}");
    assert!(report.contains("waits for lock"), "{report}");
    assert!(report.contains("schedule: \""), "{report}");
}

#[test]
fn a_wait_nobody_notifies_is_a_deadlock_not_a_timeout() {
    let report = failure(&Builder::new(), || {
        let pair = (Mutex::new(()), Condvar::new());
        let mut guard = pair.0.lock();
        let timed_out = pair
            .1
            .wait_for(&mut guard, std::time::Duration::from_millis(1));
        unreachable!("woke from an unnotified wait (timed out: {timed_out})");
    });
    assert!(report.contains("deadlock"), "{report}");
    assert!(report.contains("waits on condvar"), "{report}");
}

#[test]
fn a_printed_schedule_replays_the_same_failure() {
    let report = failure(&Builder::new(), two_increments(load_then_store));
    let schedule = report
        .split("schedule: \"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("the report prints its schedule");
    let replay = Builder {
        replay: Some(schedule.to_string()),
        ..Builder::new()
    };
    let replayed = failure(&replay, two_increments(load_then_store));
    // The same assertion fails, in the first (and only) execution, along
    // the same schedule.
    assert!(
        replayed.starts_with("model failed in execution 1:"),
        "{replayed}"
    );
    let body = |r: &str| r.split_once(": ").map(|(_, rest)| rest.to_string());
    assert_eq!(body(&replayed), body(&report));
    // The same schedule does not fail the atomic increment.
    assert_eq!(replay.check(two_increments(fetch_add)), 1);
}

#[test]
fn outside_a_model_the_types_are_the_std_ones() {
    let n = AtomicUsize::new(1);
    assert_eq!(n.fetch_add(1, SeqCst), 1);
    assert_eq!(
        std::mem::size_of::<AtomicUsize>(),
        std::mem::size_of::<usize>()
    );
    let m = Arc::new(Mutex::new(0));
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let h = thread::spawn({
        let (m, pair) = (Arc::clone(&m), Arc::clone(&pair));
        move || {
            *m.lock() += 1;
            *pair.0.lock() = true;
            pair.1.notify_all();
        }
    });
    let mut ready = pair.0.lock();
    while !*ready {
        pair.1.wait(&mut ready);
    }
    drop(ready);
    h.join().unwrap();
    assert_eq!(*m.lock(), 1);
    let mut g = m.lock();
    assert!(pair.1.wait_for(&mut g, std::time::Duration::from_millis(1)));
}
