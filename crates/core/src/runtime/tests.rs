//! Runtime tests: the public API end to end, plus the checks that read
//! `Runtime::inner` to prove a lock-free wait (the joiner and `force` parked
//! with the state lock free, idle workers closed out by `shutdown`).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use super::{JoinOutcome, Runtime};
use crate::addr::{AddrRange, Granularity};
use crate::config::Config;
use crate::error::Error;
use crate::fault::FaultPoint;
use crate::tthread::{TthreadId, TthreadStatus};

fn deferred() -> Config {
    Config::default()
}

#[test]
fn skip_when_nothing_changes() {
    let mut rt = Runtime::new(deferred(), 0u64);
    let x = rt.alloc(1u32).unwrap();
    let tt = rt.register("noop", move |ctx| {
        let v = ctx.get(x);
        *ctx.user_mut() += v as u64;
    });
    rt.watch(tt, x.range()).unwrap();
    assert_eq!(rt.join(tt).unwrap(), JoinOutcome::Skipped);
    assert_eq!(rt.join(tt).unwrap(), JoinOutcome::Skipped);
    assert_eq!(rt.stats().counters().skips, 2);
    assert_eq!(rt.stats().counters().executions, 0);
}

#[test]
fn trigger_then_join_runs_once() {
    let mut rt = Runtime::new(deferred(), Vec::<u32>::new());
    let x = rt.alloc(0u32).unwrap();
    let tt = rt.register("log", move |ctx| {
        let v = ctx.get(x);
        ctx.user_mut().push(v);
    });
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 5);
    rt.write(x, 6); // coalesces with the pending trigger
    assert_eq!(rt.join(tt).unwrap(), JoinOutcome::RanInline);
    assert_eq!(rt.join(tt).unwrap(), JoinOutcome::Skipped);
    let (_, log) = rt.into_state();
    assert_eq!(log, vec![6]);
}

#[test]
fn silent_store_does_not_trigger() {
    let mut rt = Runtime::new(deferred(), ());
    let x = rt.alloc(7u32).unwrap();
    let tt = rt.register("t", |_| {});
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 7);
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
    assert_eq!(rt.stats().counters().silent_stores, 1);
    rt.write(x, 8);
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Triggered);
}

#[test]
fn disabled_suppression_triggers_on_silent_store() {
    let cfg = deferred().with_silent_store_suppression(false);
    let mut rt = Runtime::new(cfg, ());
    let x = rt.alloc(7u32).unwrap();
    let tt = rt.register("t", |_| {});
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 7);
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Triggered);
    assert_eq!(rt.stats().counters().silent_stores, 0);
}

#[test]
fn unwatched_store_never_triggers() {
    let mut rt = Runtime::new(deferred(), ());
    let x = rt.alloc(0u32).unwrap();
    let y = rt.alloc(0u32).unwrap();
    let tt = rt.register("t", |_| {});
    rt.watch(tt, x.range()).unwrap();
    rt.write(y, 99);
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
}

#[test]
fn line_granularity_false_trigger_counted() {
    let cfg = deferred().with_granularity(Granularity::Line);
    let mut rt = Runtime::new(cfg, ());
    // Two u32 cells land in the same 64-byte line.
    let a = rt.alloc(0u32).unwrap();
    let b = rt.alloc(0u32).unwrap();
    let tt = rt.register("t", |_| {});
    rt.watch(tt, a.range()).unwrap();
    rt.write(b, 1);
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Triggered);
    assert_eq!(rt.stats().counters().false_triggers, 1);
}

#[test]
fn mark_dirty_and_force() {
    let mut rt = Runtime::new(deferred(), 0u32);
    let tt = rt.register("inc", |ctx| *ctx.user_mut() += 1);
    rt.mark_dirty(tt).unwrap();
    assert_eq!(rt.join(tt).unwrap(), JoinOutcome::RanInline);
    rt.force(tt).unwrap();
    assert_eq!(rt.with(|ctx| *ctx.user()), 2);
}

#[test]
fn cascading_triggers() {
    let mut rt = Runtime::new(deferred(), ());
    let a = rt.alloc(0u32).unwrap();
    let b = rt.alloc(0u32).unwrap();
    let t2 = rt.register("second", move |ctx| {
        let v = ctx.get(b);
        ctx.set(b, v); // silent here; just to exercise the path
    });
    rt.watch(t2, b.range()).unwrap();
    let t1 = rt.register("first", move |ctx| {
        let v = ctx.get(a);
        ctx.set(b, v * 2);
    });
    rt.watch(t1, a.range()).unwrap();
    rt.write(a, 21);
    rt.join(t1).unwrap();
    // t1 wrote b=42, which triggers t2.
    assert_eq!(rt.status(t2).unwrap(), TthreadStatus::Triggered);
    assert_eq!(rt.join(t2).unwrap(), JoinOutcome::RanInline);
    assert_eq!(rt.stats().counters().cascade_triggers, 1);
    assert_eq!(rt.read(b), 42);
}

#[test]
fn init_writes_do_not_trigger_or_count() {
    let mut rt = Runtime::new(deferred(), ());
    let x = rt.alloc(0u32).unwrap();
    let xs = rt.alloc_array::<u32>(4).unwrap();
    let tt = rt.register("t", |_| {});
    rt.watch(tt, x.range()).unwrap();
    rt.watch(tt, xs.range()).unwrap();
    rt.with(|ctx| {
        ctx.init(x, 99);
        ctx.init_at(xs, 2, 7);
    });
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
    assert_eq!(rt.stats().counters().tracked_stores, 0);
    assert_eq!(rt.read(x), 99);
    assert_eq!(rt.read(xs.at(2)), 7);
    // A matrix allocation shares the same arena.
    let m = rt.alloc_matrix::<u64>(2, 3).unwrap();
    rt.with(|ctx| ctx.set(m.at(1, 2), 5));
    assert_eq!(rt.read(m.at(1, 2)), 5);
}

#[test]
fn read_all_matches_written_values() {
    let mut rt = Runtime::new(deferred(), ());
    let xs = rt.alloc_array_from(&[3u64, 1, 4, 1, 5]).unwrap();
    let values = rt.with(|ctx| ctx.read_all(xs));
    assert_eq!(values, vec![3, 1, 4, 1, 5]);
}

#[test]
fn unwatch_detaches_trigger_region() {
    let mut rt = Runtime::new(deferred(), ());
    let xs = rt.alloc_array::<u32>(4).unwrap();
    let tt = rt.register("t", |_| {});
    rt.watch(tt, xs.range_of(0, 2)).unwrap();
    rt.watch(tt, xs.range_of(2, 4)).unwrap();
    rt.unwatch(tt, xs.range_of(0, 2)).unwrap();
    rt.with(|ctx| ctx.write(xs, 0, 9));
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
    rt.with(|ctx| ctx.write(xs, 3, 9));
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Triggered);
    // Unwatching the same region twice fails.
    assert!(matches!(
        rt.unwatch(tt, xs.range_of(0, 2)),
        Err(Error::NoSuchWatch(_))
    ));
}

#[test]
fn foreign_id_is_rejected() {
    let mut rt = Runtime::new(deferred(), ());
    let bogus = TthreadId::new(42);
    assert!(matches!(rt.join(bogus), Err(Error::UnknownTthread(_))));
    assert!(matches!(rt.status(bogus), Err(Error::UnknownTthread(_))));
    assert!(matches!(rt.force(bogus), Err(Error::UnknownTthread(_))));
    assert!(matches!(
        rt.mark_dirty(bogus),
        Err(Error::UnknownTthread(_))
    ));
}

#[test]
fn watch_out_of_bounds_is_rejected() {
    let mut rt = Runtime::new(deferred(), ());
    let tt = rt.register("t", |_| {});
    let bad = AddrRange::new(crate::addr::Addr::new(1 << 20), 8);
    assert!(matches!(
        rt.watch(tt, bad),
        Err(Error::RegionOutOfBounds { .. })
    ));
}

#[test]
fn join_all_covers_every_tthread() {
    let mut rt = Runtime::new(deferred(), 0u32);
    let x = rt.alloc(0u32).unwrap();
    let t1 = rt.register("a", |ctx| *ctx.user_mut() += 1);
    let t2 = rt.register("b", |ctx| *ctx.user_mut() += 10);
    rt.watch(t1, x.range()).unwrap();
    rt.watch(t2, x.range()).unwrap();
    rt.write(x, 3);
    let outcomes = rt.join_all().unwrap();
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes.iter().all(|(_, o)| *o == JoinOutcome::RanInline));
    assert_eq!(rt.with(|ctx| *ctx.user()), 11);
    let report = rt.report();
    assert_eq!(report.tthreads.len(), 2);
    assert_eq!(report.tthreads[t1.index()].name, "a");
}

#[test]
fn parallel_executor_runs_on_worker() {
    let cfg = deferred().with_workers(2);
    let mut rt = Runtime::new(cfg, 0u64);
    let x = rt.alloc(0u64).unwrap();
    let tt = rt.register("double", move |ctx| {
        let v = ctx.get(x);
        *ctx.user_mut() = v * 2;
    });
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 50);
    // Whatever the interleaving, after join the result is published.
    let outcome = rt.join(tt).unwrap();
    assert!(matches!(
        outcome,
        JoinOutcome::Overlapped | JoinOutcome::Stolen | JoinOutcome::Waited
    ));
    assert_eq!(rt.with(|ctx| *ctx.user()), 100);
    let stats = rt.stats();
    assert_eq!(stats.counters().executions, 1);
}

#[test]
fn parallel_executor_many_triggers_converge() {
    let cfg = deferred().with_workers(4).with_queue_capacity(4);
    let mut rt = Runtime::new(cfg, 0u64);
    let xs = rt.alloc_array::<u64>(16).unwrap();
    let tt = rt.register("sum", move |ctx| {
        let total: u64 = (0..xs.len()).map(|i| ctx.read(xs, i)).sum();
        *ctx.user_mut() = total;
    });
    rt.watch(tt, xs.range()).unwrap();
    for round in 1..=10u64 {
        for i in 0..16 {
            rt.with(|ctx| ctx.write(xs, i, round));
        }
        rt.join(tt).unwrap();
        assert_eq!(rt.with(|ctx| *ctx.user()), 16 * round);
    }
    let (_, user) = rt.into_state();
    assert_eq!(user, 160);
}

#[test]
fn overflow_execute_inline_keeps_correctness() {
    let cfg = deferred()
        .with_workers(1)
        .with_queue_capacity(1)
        .with_coalescing(false);
    let mut rt = Runtime::new(cfg, 0u64);
    let x = rt.alloc(0u64).unwrap();
    let tt = rt.register("copy", move |ctx| {
        let v = ctx.get(x);
        *ctx.user_mut() = v;
    });
    rt.watch(tt, x.range()).unwrap();
    for i in 1..=100u64 {
        rt.write(x, i);
    }
    rt.join(tt).unwrap();
    assert_eq!(rt.with(|ctx| *ctx.user()), 100);
}

#[test]
fn into_state_returns_heap_and_user() {
    let mut rt = Runtime::new(deferred(), String::from("hello"));
    let x = rt.alloc(9u8).unwrap();
    let (heap, user) = rt.into_state();
    assert_eq!(heap.load::<u8>(x.addr()), 9);
    assert_eq!(user, "hello");
}

#[test]
fn reset_stats_zeroes_counters() {
    let mut rt = Runtime::new(deferred(), ());
    let x = rt.alloc(0u32).unwrap();
    rt.write(x, 1);
    assert!(rt.stats().counters().tracked_stores > 0);
    rt.reset_stats();
    assert_eq!(rt.stats().counters().tracked_stores, 0);
}

/// An element count whose byte size overflows `usize` is refused, not
/// wrapped into a small allocation behind a huge handle.
#[test]
fn oversized_allocations_are_refused_not_wrapped() {
    let mut rt = Runtime::new(deferred(), ());
    assert!(matches!(
        rt.alloc_array::<u64>(1 << 61),
        Err(Error::ArenaExhausted { .. })
    ));
    assert!(matches!(
        rt.alloc_matrix::<u64>(1 << 31, 1 << 30),
        Err(Error::ArenaExhausted { .. })
    ));
    assert!(matches!(
        rt.alloc_matrix::<u8>(1 << 32, 1 << 32),
        Err(Error::ArenaExhausted { .. })
    ));
    // Nothing was consumed by the refusals.
    assert_eq!(rt.alloc_array::<u64>(4).unwrap().len(), 4);
}

#[test]
fn panicking_tthread_poisons_but_runtime_survives() {
    let mut rt = Runtime::new(deferred(), 0u32);
    let x = rt.alloc(0u32).unwrap();
    let bad = rt.register("bad", |_| panic!("tthread bug"));
    let good = rt.register("good", |ctx| *ctx.user_mut() += 1);
    rt.watch(bad, x.range()).unwrap();
    rt.watch(good, x.range()).unwrap();
    rt.write(x, 1);
    // The inline execution re-raises the panic...
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = rt.join(bad);
    }));
    assert!(caught.is_err());
    // ...but the runtime is not wedged: the bad tthread is poisoned,
    // the good one still works.
    assert!(matches!(rt.join(bad), Err(Error::TthreadPoisoned(_))));
    assert!(matches!(rt.force(bad), Err(Error::TthreadPoisoned(_))));
    assert_eq!(rt.join(good).unwrap(), JoinOutcome::RanInline);
    assert_eq!(rt.with(|ctx| *ctx.user()), 1);
    // Clearing the poison restores the tthread.
    rt.clear_poison(bad).unwrap();
    assert_eq!(rt.join(bad).unwrap(), JoinOutcome::Skipped);
}

#[test]
fn worker_survives_panicking_tthread() {
    let cfg = deferred().with_workers(1);
    let mut rt = Runtime::new(cfg, 0u32);
    let x = rt.alloc(0u32).unwrap();
    let y = rt.alloc(0u32).unwrap();
    let bad = rt.register("bad", |_| panic!("tthread bug"));
    let good = rt.register("good", |ctx| *ctx.user_mut() += 1);
    rt.watch(bad, x.range()).unwrap();
    rt.watch(good, y.range()).unwrap();
    rt.write(x, 1);
    // Whether the worker ran it (poison) or the join stole it (panic
    // propagates), the runtime must stay usable.
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.join(bad)));
    assert!(matches!(rt.join(bad), Err(Error::TthreadPoisoned(_))));
    // The single worker must still be alive to run the good tthread.
    rt.write(y, 5);
    rt.join(good).unwrap();
    assert_eq!(rt.with(|ctx| *ctx.user()), 1);
}

#[test]
fn bulk_read_matches_element_reads() {
    let mut rt = Runtime::new(deferred(), ());
    let xs = rt.alloc_array_from(&[1u32, 2, 3, 4, 5]).unwrap();
    rt.with(|ctx| {
        let mut out = Vec::new();
        ctx.read_all_into(xs, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        ctx.read_slice_into(xs, 1, 4, &mut out);
        assert_eq!(out, vec![2, 3, 4]);
        ctx.read_slice_into(xs, 2, 2, &mut out);
        assert!(out.is_empty());
    });
    assert_eq!(rt.stats().counters().tracked_loads, 8);
}

#[test]
fn bulk_write_detects_silence_per_element() {
    let mut rt = Runtime::new(deferred(), ());
    let xs = rt.alloc_array_from(&[1u32, 2, 3, 4]).unwrap();
    let tt = rt.register("t", |_| {});
    rt.watch(tt, xs.range_of(0, 2)).unwrap();
    // Only elements 2 and 3 change; both are outside the watch.
    rt.with(|ctx| ctx.write_slice(xs, 0, &[1u32, 2, 9, 9]));
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
    let c = rt.stats().counters().clone();
    assert_eq!(c.tracked_stores, 4);
    assert_eq!(c.silent_stores, 2);
    assert_eq!(c.changing_stores, 2);
    // Now change a watched element.
    rt.with(|ctx| ctx.write_slice(xs, 0, &[7u32, 2, 9, 9]));
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Triggered);
    assert_eq!(rt.read(xs.at(0)), 7);
    assert_eq!(rt.read(xs.at(2)), 9);
}

#[test]
fn bulk_write_dirties_same_tthreads_as_element_writes() {
    let run = |bulk: bool| -> Vec<TthreadStatus> {
        let mut rt = Runtime::new(deferred(), ());
        let xs = rt.alloc_array::<u64>(16).unwrap();
        let tts: Vec<_> = (0..4)
            .map(|i| {
                let tt = rt.register(&format!("t{i}"), |_| {});
                rt.watch(tt, xs.range_of(4 * i, 4 * (i + 1))).unwrap();
                tt
            })
            .collect();
        let mut values = vec![0u64; 16];
        values[5] = 1; // dirties t1
        values[11] = 2; // dirties t2
        rt.with(|ctx| {
            if bulk {
                ctx.write_slice(xs, 0, &values);
            } else {
                for (i, &v) in values.iter().enumerate() {
                    ctx.write(xs, i, v);
                }
            }
        });
        tts.iter().map(|&t| rt.status(t).unwrap()).collect()
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn shutdown_under_load_errors_instead_of_panicking() {
    use std::sync::atomic::AtomicBool;
    let cfg = deferred().with_workers(1);
    let mut rt = Runtime::new(cfg, ());
    let x = rt.alloc(0u32).unwrap();
    let started = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&started);
    let tt = rt.register("slow", move |_| {
        flag.store(true, Ordering::SeqCst);
        thread::sleep(Duration::from_millis(200));
    });
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 1);
    // Wait until the worker is provably inside the body, then shut
    // down with a deadline it cannot meet.
    while !started.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(1));
    }
    match rt.shutdown(Duration::from_millis(1)) {
        Err(Error::WorkersStillActive { active }) => assert!(active >= 1),
        other => panic!("expected WorkersStillActive, got {other:?}"),
    }
}

#[test]
fn shutdown_with_drained_workers_returns_state() {
    let cfg = deferred().with_workers(2);
    let mut rt = Runtime::new(cfg, 7u32);
    let x = rt.alloc(3u8).unwrap();
    let tt = rt.register("t", |ctx| *ctx.user_mut() += 1);
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 9);
    rt.join(tt).unwrap();
    let (heap, user) = rt.shutdown(Duration::from_secs(5)).unwrap();
    assert_eq!(heap.load::<u8>(x.addr()), 9);
    assert_eq!(user, 8);
}

#[test]
fn body_deadline_discards_the_write_log() {
    use std::sync::atomic::AtomicBool;
    let cfg = deferred()
        .with_workers(1)
        .with_body_deadline(Duration::from_millis(5));
    let mut rt = Runtime::new(cfg, ());
    let x = rt.alloc(0u32).unwrap();
    let y = rt.alloc(0u32).unwrap();
    let started = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&started);
    let tt = rt.register("overrun", move |ctx| {
        flag.store(true, Ordering::SeqCst);
        thread::sleep(Duration::from_millis(50));
        ctx.set(y, 99);
    });
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 1);
    // Only the worker path enforces the deadline; make sure it (not a
    // stealing join) runs the body.
    while !started.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(1));
    }
    assert!(matches!(rt.join(tt), Err(Error::TthreadTimedOut(id)) if id == tt));
    // The overrunning execution never committed.
    assert_eq!(rt.read(y), 0);
    assert_eq!(rt.stats().counters().body_timeouts, 1);
    assert!(matches!(rt.force(tt), Err(Error::TthreadTimedOut(_))));
    // Recovery mirrors poisoning: clear the flag, then force rebuilds.
    rt.clear_timeout(tt).unwrap();
    rt.force(tt).unwrap();
    assert_eq!(rt.read(y), 99);
    let report = rt.report();
    assert_eq!(rt.stats().counters().body_timeouts, 1);
    assert!(report.timed_out().is_empty());
}

/// A tthread can be timed out and poisoned at once: each clear lifts one
/// failure, poison is reported first, and only clearing both lets the
/// join skip again.
#[test]
fn poison_and_timeout_are_held_at_once_and_cleared_one_at_a_time() {
    let cfg = deferred()
        .with_workers(1)
        .with_body_deadline(Duration::from_millis(5));
    let mut rt = Runtime::new(cfg, ());
    let x = rt.alloc(0u32).unwrap();
    // The first run overruns the deadline, the second panics.
    let tt = rt.register("overrun-then-panic", move |ctx| {
        assert_eq!(ctx.get(x), 1, "tthread bug");
        thread::sleep(Duration::from_millis(50));
    });
    rt.watch(tt, x.range()).unwrap();
    let flags = |rt: &Runtime<()>| {
        let row = &rt.report().tthreads[tt.index()];
        (row.poisoned, row.timed_out)
    };
    // Nothing joins until the worker has flagged each run, so both run
    // detached under the deadline.
    let wait_for = |rt: &Runtime<()>, want: (bool, bool)| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while flags(rt) != want {
            assert!(Instant::now() < deadline, "flags never read {want:?}");
            thread::sleep(Duration::from_millis(1));
        }
    };
    rt.write(x, 1);
    wait_for(&rt, (false, true));
    rt.write(x, 2);
    wait_for(&rt, (true, true));
    assert!(matches!(rt.join(tt), Err(Error::TthreadPoisoned(id)) if id == tt));
    rt.clear_poison(tt).unwrap();
    assert_eq!(flags(&rt), (false, true));
    assert!(matches!(rt.join(tt), Err(Error::TthreadTimedOut(id)) if id == tt));
    rt.clear_timeout(tt).unwrap();
    assert_eq!(flags(&rt), (false, false));
    assert_eq!(rt.join(tt).unwrap(), JoinOutcome::Skipped);
}

#[test]
fn injected_retrigger_hits_the_retry_cap() {
    use crate::fault::{FaultPlan, ALWAYS};
    let plan = FaultPlan::new(7).with_rate(FaultPoint::Retrigger, ALWAYS);
    let cfg = deferred()
        .with_workers(1)
        .with_commit_retry_cap(4)
        .with_fault_plan(plan);
    let mut rt = Runtime::new(cfg, 0u64);
    let x = rt.alloc(0u64).unwrap();
    let tt = rt.register("copy", move |ctx| {
        let v = ctx.get(x);
        *ctx.user_mut() = v;
    });
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 5);
    // Either the worker ran the retry loop to exhaustion, or the join
    // stole the tthread before the worker got it; poll for the former.
    for _ in 0..2000 {
        if rt.stats().counters().commit_retry_exhausted >= 1 {
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    let stats = rt.stats();
    assert_eq!(stats.counters().commit_retry_exhausted, 1);
    assert_eq!(stats.counters().commit_retries, 4);
    // The exhausted tthread was deferred, not wedged: join finishes it
    // inline (the inline path has no retrigger probe).
    rt.join(tt).unwrap();
    assert_eq!(rt.with(|ctx| *ctx.user()), 5);
    let fired = rt.fault_injections();
    assert!(fired[FaultPoint::Retrigger as usize] >= 5);
}

#[test]
fn commit_backoff_waits_between_retries() {
    use crate::fault::{FaultPlan, ALWAYS};
    let plan = FaultPlan::new(7).with_rate(FaultPoint::Retrigger, ALWAYS);
    let cfg = deferred()
        .with_workers(1)
        .with_commit_retry_cap(4)
        .with_commit_backoff(Duration::from_micros(50))
        .with_fault_plan(plan);
    let mut rt = Runtime::new(cfg, 0u64);
    let x = rt.alloc(0u64).unwrap();
    let tt = rt.register("copy", move |ctx| {
        let v = ctx.get(x);
        *ctx.user_mut() = v;
    });
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 5);
    for _ in 0..2000 {
        if rt.stats().counters().commit_retry_exhausted >= 1 {
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    let stats = rt.stats();
    assert_eq!(stats.counters().commit_retry_exhausted, 1);
    assert_eq!(stats.counters().commit_retries, 4);
    // Every retry waited: the backoff branch ran once per retry.
    assert_eq!(stats.counters().commit_backoff_waits, 4);
    // Backoff delays the rerun; it must not change the outcome.
    rt.join(tt).unwrap();
    assert_eq!(rt.with(|ctx| *ctx.user()), 5);
}

#[test]
fn drain_is_idempotent_under_active_workers() {
    use std::sync::atomic::AtomicBool;
    let cfg = deferred().with_workers(2);
    let mut rt = Runtime::new(cfg, 0u64);
    let x = rt.alloc(0u64).unwrap();
    let started = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&started);
    let tt = rt.register("slow", move |ctx| {
        flag.store(true, Ordering::SeqCst);
        thread::sleep(Duration::from_millis(20));
        let v = ctx.get(x);
        *ctx.user_mut() = v;
    });
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 7);
    while !started.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(1));
    }
    // The first drain lands while a worker is mid-body: it waits the
    // body out (the commit still happens) rather than stranding it.
    rt.drain(Duration::from_secs(10)).unwrap();
    // A second drain — e.g. the drain path racing a signal handler —
    // finds no handles and returns Ok without re-signalling.
    rt.drain(Duration::from_secs(10)).unwrap();
    rt.join(tt).unwrap();
    assert_eq!(rt.with(|ctx| *ctx.user()), 7);
    // The runtime stays usable as a deferred executor after a drain.
    rt.write(x, 9);
    rt.join(tt).unwrap();
    assert_eq!(rt.with(|ctx| *ctx.user()), 9);
    // And the consuming shutdown still tears down cleanly after it.
    let (_heap, user) = rt.shutdown(Duration::from_secs(10)).unwrap();
    assert_eq!(user, 9);
}

/// A drained runtime is a deferred executor: a trigger marks its tthread
/// Triggered and the join runs it inline. Raises must not keep queueing
/// for workers that are gone — the entries would pile up unpopped, and
/// once the queue filled every raise would overflow into a run at store
/// time.
#[test]
fn drained_runtime_runs_triggers_at_their_joins() {
    let capacity = 4;
    let cfg = deferred().with_workers(1).with_queue_capacity(capacity);
    let mut rt = Runtime::new(cfg, 0u64);
    let x = rt.alloc(0u64).unwrap();
    let tt = rt.register("copy", move |ctx| {
        let v = ctx.get(x);
        *ctx.user_mut() = v;
    });
    rt.watch(tt, x.range()).unwrap();
    rt.drain(Duration::from_secs(10)).unwrap();
    for round in 1..=2 * capacity as u64 {
        rt.write(x, round);
        assert_eq!(
            rt.join(tt).unwrap(),
            JoinOutcome::RanInline,
            "round {round}"
        );
        assert_eq!(rt.with(|ctx| *ctx.user()), round);
    }
    let c = rt.stats().counters().clone();
    assert_eq!((c.enqueues, c.queue_overflows), (0, 0));
}

/// A tthread still queued when the workers drained has no worker left to
/// run it. With a body deadline configured, its join must steal the run
/// rather than park waiting for a worker that no longer exists.
#[test]
fn drained_deadline_join_steals_a_stranded_entry() {
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    let cfg = deferred()
        .with_workers(1)
        .with_body_deadline(Duration::from_secs(5));
    let mut rt = Runtime::new(cfg, 0u64);
    let x = rt.alloc(0u64).unwrap();
    let y = rt.alloc(0u64).unwrap();
    let gate = Arc::new(AtomicBool::new(false));
    let open = Arc::clone(&gate);
    let blocker = rt.register("blocker", move |_| {
        while !open.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_micros(50));
        }
    });
    let tt = rt.register("copy", move |ctx| {
        let v = ctx.get(y);
        *ctx.user_mut() = v;
    });
    rt.watch(blocker, x.range()).unwrap();
    rt.watch(tt, y.range()).unwrap();
    rt.write(x, 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.status(blocker).unwrap() != TthreadStatus::Running {
        assert!(
            Instant::now() < deadline,
            "worker never claimed the blocker"
        );
        thread::sleep(Duration::from_micros(50));
    }
    // Queued behind the busy worker, which is released only once the
    // drain has signalled shutdown: it exits without popping the entry.
    rt.write(y, 7);
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Queued);
    let inner = Arc::clone(&rt.inner);
    let opener = thread::spawn(move || {
        while !inner.shutdown.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_micros(50));
        }
        gate.store(true, Ordering::SeqCst);
    });
    rt.drain(Duration::from_secs(10)).unwrap();
    opener.join().unwrap();
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Queued);
    // Join on another thread, so a join that parks fails the test at the
    // timeout instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let joiner = thread::spawn(move || {
        let outcome = rt.join(tt);
        let _ = tx.send((outcome, rt.with(|ctx| *ctx.user())));
    });
    let (outcome, user) = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the join waited for a drained worker");
    joiner.join().unwrap();
    assert_eq!(outcome.unwrap(), JoinOutcome::Stolen);
    assert_eq!(user, 7);
}

#[test]
fn injected_body_fault_poisons_without_unwinding() {
    use crate::fault::{FaultPlan, ALWAYS};
    let plan = FaultPlan::new(9)
        .with_rate(FaultPoint::BodyStart, ALWAYS)
        .with_budget(FaultPoint::BodyStart, 1);
    let cfg = deferred().with_workers(1).with_fault_plan(plan);
    let mut rt = Runtime::new(cfg, 0u32);
    let x = rt.alloc(0u32).unwrap();
    let tt = rt.register("t", |ctx| *ctx.user_mut() += 1);
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 1);
    // Wait for the worker to consume the injected failure.
    for _ in 0..2000 {
        if matches!(rt.status(tt), Ok(TthreadStatus::Clean)) {
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    assert!(matches!(rt.join(tt), Err(Error::TthreadPoisoned(_))));
    assert_eq!(rt.fault_injections()[FaultPoint::BodyStart as usize], 1);
    // Budget of one: recovery works and the next run is clean.
    rt.clear_poison(tt).unwrap();
    rt.force(tt).unwrap();
    assert_eq!(rt.with(|ctx| *ctx.user()), 1);
}

#[test]
fn report_rows_count_per_thread() {
    let mut rt = Runtime::new(deferred(), ());
    let x = rt.alloc(0u32).unwrap();
    let tt = rt.register("t", |_| {});
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 1);
    rt.join(tt).unwrap();
    rt.join(tt).unwrap();
    let rows = rt.report().tthreads;
    assert_eq!(rows.len(), 1);
    let row = &rows[tt.index()];
    assert_eq!((row.executions, row.skips, row.triggers), (1, 1, 1));
}

/// The lock-free join proof: while the joiner waits for a Running
/// body, it is asleep on the *completion eventcount* and the state
/// lock is free — `try_lock` from another thread succeeds.
#[test]
fn join_parks_on_completions_without_the_state_lock() {
    use std::sync::atomic::AtomicBool;
    let cfg = deferred().with_workers(1);
    let mut rt = Runtime::new(cfg, ());
    let release = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&release);
    let x = rt.alloc(0u32).unwrap();
    let tt = rt.register("gated", move |_| {
        while !gate.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_micros(50));
        }
    });
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 1);
    // Wait until the worker is provably inside the body.
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.status(tt).unwrap() != TthreadStatus::Running {
        assert!(Instant::now() < deadline, "worker never claimed the unit");
        thread::sleep(Duration::from_micros(50));
    }
    let inner = Arc::clone(&rt.inner);
    let opener = Arc::clone(&release);
    thread::scope(|s| {
        s.spawn(move || {
            // Catch the joiner committed to sleep on `completions`
            // with the state lock simultaneously available. If the
            // join held the lock while blocked, this combination
            // could never be observed and the deadline would fire.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                assert!(
                    Instant::now() < deadline,
                    "joiner never parked lock-free on the completion eventcount"
                );
                if inner.completions.sleeping() > 0 {
                    if let Some(guard) = inner.state.try_lock() {
                        drop(guard);
                        break;
                    }
                }
                thread::sleep(Duration::from_micros(100));
            }
            opener.store(true, Ordering::SeqCst);
        });
        assert_eq!(rt.join(tt).unwrap(), JoinOutcome::Waited);
    });
}

/// `force` parked on a Running execution that then panics must report
/// the poison, exactly as `join` does — not claim the force-cleaned
/// slot and run the body again inline with the flag still set.
#[test]
fn force_reports_a_tthread_poisoned_while_it_waited() {
    use std::sync::atomic::AtomicBool;
    let cfg = deferred().with_workers(1);
    let mut rt = Runtime::new(cfg, ());
    let release = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&release);
    let x = rt.alloc(0u32).unwrap();
    let tt = rt.register("gated-bug", move |_| {
        while !gate.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_micros(50));
        }
        panic!("tthread bug");
    });
    rt.watch(tt, x.range()).unwrap();
    rt.write(x, 1);
    // Wait until the worker is provably inside the body.
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.status(tt).unwrap() != TthreadStatus::Running {
        assert!(Instant::now() < deadline, "worker never claimed the unit");
        thread::sleep(Duration::from_micros(50));
    }
    let executions = rt.stats().counters().executions;
    let inner = Arc::clone(&rt.inner);
    thread::scope(|s| {
        s.spawn(move || {
            // Let the body panic only once `force` is asleep on the
            // completion eventcount, past its entry checks.
            let deadline = Instant::now() + Duration::from_secs(10);
            while inner.completions.sleeping() == 0 {
                assert!(Instant::now() < deadline, "force never parked");
                thread::sleep(Duration::from_micros(100));
            }
            release.store(true, Ordering::SeqCst);
        });
        assert!(matches!(rt.force(tt), Err(Error::TthreadPoisoned(_))));
    });
    assert_eq!(rt.stats().counters().executions, executions);
}

/// The shutdown-latency regression test: an idle runtime (all workers
/// parked in their timed wait) must tear down via the eventcount
/// `close()` broadcast in a small fraction of the configured park
/// timeout, not by riding out park periods.
#[test]
fn idle_runtime_shutdown_beats_the_park_timeout() {
    use crate::dispatch::PARK_TIMEOUT;
    let cfg = deferred().with_workers(4);
    let rt = Runtime::new(cfg, ());
    // Let every worker reach its parked steady state.
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.inner.waiters.sleeping() < 4 {
        assert!(Instant::now() < deadline, "workers never parked");
        thread::sleep(Duration::from_millis(1));
    }
    let t0 = Instant::now();
    drop(rt.into_state());
    let elapsed = t0.elapsed();
    assert!(
        elapsed < PARK_TIMEOUT / 2,
        "idle shutdown took {elapsed:?}; it must beat the {PARK_TIMEOUT:?} park period"
    );
}

/// An idle worker's park expires every period with nothing to do: that
/// is a timeout, not a rescue. Only an expiry that finds work nobody
/// woke the worker for counts in `park_rescues`.
#[test]
fn idle_park_expiry_is_not_a_rescue() {
    let rt = Runtime::new(deferred().with_workers(1), ());
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.stats().counters().park_timeouts < 2 {
        assert!(Instant::now() < deadline, "the idle worker never timed out");
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(rt.stats().counters().park_rescues, 0);
}

/// One FIFO feeds every worker, whatever the ids: four entries whose
/// ids are all ≡ 0 mod 4 (the worst case for any id-keyed affinity)
/// are held by four distinct workers at once. Each body waits inside
/// the rendezvous until all four have arrived, so it completes only if
/// four threads are in bodies simultaneously. The main thread waits on
/// the rendezvous itself, not on a join — a join would steal a
/// still-queued entry and make the main thread one of the parties.
#[test]
fn four_workers_hold_four_queue_entries_at_once() {
    use std::sync::atomic::AtomicUsize;
    let cfg = deferred().with_workers(4);
    let mut rt = Runtime::new(cfg, ());
    let xs = rt.alloc_array::<u32>(16).unwrap();
    let arrived = Arc::new(AtomicUsize::new(0));
    let parties = Arc::new(Mutex::new(Vec::new()));
    // Bodies give up at the deadline too, so a failure is an assert
    // below rather than four workers wedged in the rendezvous.
    let deadline = Instant::now() + Duration::from_secs(30);
    for i in 0..16 {
        let (arrived, parties) = (Arc::clone(&arrived), Arc::clone(&parties));
        let tt = rt.register(&format!("t{i}"), move |_| {
            parties
                .lock()
                .push(thread::current().name().map(str::to_owned));
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
                thread::yield_now();
            }
        });
        rt.watch(tt, xs.range_of(i, i + 1)).unwrap();
    }
    for i in (0..16).step_by(4) {
        rt.with(|ctx| ctx.write(xs, i, 1));
    }
    while arrived.load(Ordering::SeqCst) < 4 {
        assert!(Instant::now() < deadline, "four bodies never met");
        thread::yield_now();
    }
    rt.join_all().unwrap();
    let mut parties = parties.lock().clone();
    parties.sort();
    parties.dedup();
    assert_eq!(parties.len(), 4, "four distinct threads: {parties:?}");
    assert!(parties.iter().all(|name| name
        .as_deref()
        .is_some_and(|n| n.starts_with("dtt-worker-"))));
    let c = rt.stats().counters().clone();
    assert_eq!((c.worker_executions, c.inline_executions), (4, 0));
}

/// Regression for the wrapped mod-64 page filter: page 64 shared a
/// filter bit with page 0, so a watch on page 0 forced every store to
/// page 64 through the full trigger table. The hierarchical filter
/// gives each page its own bit; the store must exit after exactly one
/// page-level load (one `filter_checks` tick, zero `filter_page_hits`).
#[test]
fn store_sixty_four_pages_from_a_watch_misses_in_one_load() {
    let mut rt = Runtime::new(deferred(), ());
    let xs = rt.alloc_array::<u8>(65 * 4096).unwrap();
    let tt = rt.register("t", |_| {});
    rt.watch(tt, xs.range_of(0, 64)).unwrap();
    rt.reset_stats();

    // Locked (ctx) store path.
    rt.with(|ctx| ctx.set(xs.at(64 * 4096), 1u8));
    let c = rt.stats().counters().clone();
    assert_eq!(c.filter_checks, 1);
    assert_eq!(c.filter_page_hits, 0, "page 64 aliased page 0 pre-fix");
    assert_eq!(c.filter_line_hits, 0);

    // Lock-free accessor store path.
    rt.reset_stats();
    let mut acc = rt.accessor();
    acc.set(xs.at(64 * 4096), 2u8);
    drop(acc);
    let c = rt.stats().counters().clone();
    assert_eq!(c.filter_checks, 1);
    assert_eq!(c.filter_page_hits, 0);
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
}

/// Two watches on pages 0 and 64 — the pair that collapsed onto one
/// bit in the wrapped filter. Unwatching one must not strip filter
/// coverage from the other, and must genuinely clear its own page.
#[test]
fn unwatch_of_mod64_twin_page_keeps_the_other_watched() {
    let mut rt = Runtime::new(deferred(), ());
    let xs = rt.alloc_array::<u8>(65 * 4096).unwrap();
    let t0 = rt.register("page0", |_| {});
    let t64 = rt.register("page64", |_| {});
    rt.watch(t0, xs.range_of(0, 64)).unwrap();
    rt.watch(t64, xs.range_of(64 * 4096, 64 * 4096 + 64))
        .unwrap();
    rt.unwatch(t64, xs.range_of(64 * 4096, 64 * 4096 + 64))
        .unwrap();

    // The survivor still triggers.
    rt.write(xs.at(0), 9u8);
    assert_eq!(rt.status(t0).unwrap(), TthreadStatus::Triggered);

    // The unwatched twin page is fully cleared: one-load exit again.
    rt.join(t0).unwrap();
    rt.reset_stats();
    rt.write(xs.at(64 * 4096), 9u8);
    let c = rt.stats().counters().clone();
    assert_eq!(c.filter_checks, 1);
    assert_eq!(c.filter_page_hits, 0, "stale bit survived the unwatch");
    assert_eq!(rt.status(t64).unwrap(), TthreadStatus::Clean);
}

/// Within a watched page the second filter level discriminates
/// 64-byte lines: a store to a distant line on the same page loads
/// the page word (hit) and the line word (miss), and never reaches
/// the trigger table.
#[test]
fn same_page_distant_line_misses_at_line_level() {
    let mut rt = Runtime::new(deferred(), ());
    let xs = rt.alloc_array::<u8>(4096).unwrap();
    let tt = rt.register("t", |_| {});
    rt.watch(tt, xs.range_of(0, 64)).unwrap();
    rt.reset_stats();
    // Last line of the same page.
    rt.write(xs.at(4032), 1u8);
    let c = rt.stats().counters().clone();
    assert_eq!(c.filter_checks, 1);
    assert_eq!(c.filter_page_hits, 1);
    assert_eq!(c.filter_line_hits, 0);
    assert_eq!(rt.status(tt).unwrap(), TthreadStatus::Clean);
}

/// A tthread storing into another tthread's trigger region raises it
/// as a *cascade* wave unit, and the wave conservation identity
/// `cascades == cascade_enqueues + cascade_coalesced + cascade_cutoffs`
/// holds at quiescence.
#[test]
fn tthread_to_tthread_raise_counts_as_cascade() {
    let mut rt = Runtime::new(deferred(), ());
    let a = rt.alloc(0u32).unwrap();
    let b = rt.alloc(0u32).unwrap();
    let c = rt.alloc(0u32).unwrap();
    let t1 = rt.register("t1", move |ctx| {
        let v = ctx.get(a);
        ctx.set(b, v + 1);
    });
    let t2 = rt.register("t2", move |ctx| {
        let v = ctx.get(b);
        ctx.set(c, v * 10);
    });
    rt.watch(t1, a.range()).unwrap();
    rt.watch(t2, b.range()).unwrap();
    rt.write(a, 4);
    assert_eq!(rt.join(t1).unwrap(), JoinOutcome::RanInline);
    assert_eq!(rt.join(t2).unwrap(), JoinOutcome::RanInline);
    assert_eq!(rt.with(|ctx| ctx.get(c)), 50);
    let s = rt.stats().counters().clone();
    assert_eq!(s.cascades, 1);
    assert_eq!(s.cascade_enqueues, 1);
    assert_eq!(s.cascade_cutoffs, 0);
    assert_eq!(
        s.cascades,
        s.cascade_enqueues + s.cascade_coalesced + s.cascade_cutoffs
    );
}

/// Early cutoff: a cascade-raised recomputation whose stores are all
/// silent terminates the wave, is counted as a `cascade_cutoffs`
/// terminal wave unit, and never raises the tthreads downstream of
/// *it* — the transitive skip.
#[test]
fn fully_silent_cascade_commit_cuts_the_wave() {
    let mut rt = Runtime::new(deferred(), 0u64);
    let a = rt.alloc(1u32).unwrap();
    let b = rt.alloc(1u32).unwrap();
    let c = rt.alloc(1u32).unwrap();
    let t1 = rt.register("copy", move |ctx| {
        let v = ctx.get(a);
        ctx.set(b, v);
    });
    // Saturating: any b >= 1 produces the same c.
    let t2 = rt.register("clamp", move |ctx| {
        let v = ctx.get(b);
        ctx.set(c, v.min(1));
    });
    let t3 = rt.register("sink", move |ctx| {
        let v = ctx.get(c);
        *ctx.user_mut() += u64::from(v);
    });
    rt.watch(t1, a.range()).unwrap();
    rt.watch(t2, b.range()).unwrap();
    rt.watch(t3, c.range()).unwrap();
    // a: 1 -> 2 changes b (cascade to t2), but c stays 1: the wave
    // stops at t2 and t3 is never raised.
    rt.write(a, 2);
    assert_eq!(rt.join(t1).unwrap(), JoinOutcome::RanInline);
    assert_eq!(rt.join(t2).unwrap(), JoinOutcome::RanInline);
    assert_eq!(rt.join(t3).unwrap(), JoinOutcome::Skipped);
    let s = rt.stats().counters().clone();
    assert_eq!(s.cascades, 2, "one raise + one terminal cutoff");
    assert_eq!(s.cascade_enqueues, 1);
    assert_eq!(s.cascade_cutoffs, 1);
    assert_eq!(
        s.cascades,
        s.cascade_enqueues + s.cascade_coalesced + s.cascade_cutoffs
    );
    assert_eq!(s.executions, 2);
}

/// One commit raises each downstream tthread at most once: multiple
/// stores of the same body landing in one reader's trigger regions
/// dedupe per wave epoch, not per store.
#[test]
fn wave_raises_dedupe_per_body_epoch() {
    let mut rt = Runtime::new(deferred(), ());
    let a = rt.alloc(0u32).unwrap();
    let bs = rt.alloc_array::<u32>(2).unwrap();
    let t1 = rt.register("fan", move |ctx| {
        let v = ctx.get(a);
        // Two separate stores, both in t2's watch region.
        ctx.write(bs, 0, v);
        ctx.write(bs, 1, v + 1);
    });
    let t2 = rt.register("sum", move |ctx| {
        let _ = ctx.read(bs, 0) + ctx.read(bs, 1);
    });
    rt.watch(t1, a.range()).unwrap();
    rt.watch(t2, bs.range()).unwrap();
    rt.write(a, 3);
    rt.join(t1).unwrap();
    rt.join(t2).unwrap();
    let s = rt.stats().counters().clone();
    assert_eq!(s.cascades, 1, "second store into t2's region deduped");
    assert_eq!(s.wave_dedups, 1);
    assert_eq!(
        s.cascades,
        s.cascade_enqueues + s.cascade_coalesced + s.cascade_cutoffs
    );
}

/// Declared outputs plus watches form the edge map, and an edge that
/// would close a cross-tthread cycle is rejected at install time with
/// `Error::TriggerCycle` naming the cycle path.
#[test]
fn watch_time_cycle_detection_names_the_path() {
    let mut rt = Runtime::new(deferred(), ());
    let a = rt.alloc(0u32).unwrap();
    let b = rt.alloc(0u32).unwrap();
    let c = rt.alloc(0u32).unwrap();
    let t0 = rt.register("t0", |_| {});
    let t1 = rt.register("t1", |_| {});
    let t2 = rt.register("t2", |_| {});
    rt.declare_output(t0, b.range()).unwrap();
    rt.declare_output(t1, c.range()).unwrap();
    rt.declare_output(t2, a.range()).unwrap();
    rt.watch(t0, a.range()).unwrap();
    rt.watch(t1, b.range()).unwrap();
    assert_eq!(rt.report().edges.len(), 2);
    // t2 watching c closes t0 -> t1 -> t2 -> t0.
    let err = rt.watch(t2, c.range()).unwrap_err();
    match err {
        Error::TriggerCycle { path } => {
            assert_eq!(path.first(), path.last());
            assert_eq!(path.len(), 4);
        }
        other => panic!("expected TriggerCycle, got {other:?}"),
    }
    // The rejected watch was rolled back: the edge map is unchanged
    // and the tthread still fires nothing on stores to c.
    assert_eq!(rt.report().edges.len(), 2);
    assert_eq!(rt.stats().counters().trigger_cycles_rejected, 1);
    rt.write(c, 7);
    assert_eq!(rt.status(t2).unwrap(), TthreadStatus::Clean);
}

/// A tthread watching its own declared output (the established
/// self-retrigger pattern) is *not* a rejected cycle.
#[test]
fn self_loop_is_not_a_trigger_cycle() {
    let mut rt = Runtime::new(deferred(), ());
    let x = rt.alloc(0u32).unwrap();
    let t = rt.register("t", |_| {});
    rt.declare_output(t, x.range()).unwrap();
    rt.watch(t, x.range()).unwrap();
    assert!(rt.report().edges.is_empty());
}
