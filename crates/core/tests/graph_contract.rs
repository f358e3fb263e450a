//! The dependency-graph contract, exercised through the public API only:
//! a tthread that stores into another tthread's watched region must
//! trigger it exactly once per wave, dynamic trigger chains must converge
//! instead of livelocking (silence is the termination condition, the
//! commit-retry cap the backstop), and statically declared cycles must be
//! rejected at watch time with the offending path.

use dtt_core::{Config, Error, Runtime};

/// The baseline tthread-triggers-tthread regression: one store, one wave,
/// each stage executing exactly once — under both executors.
#[test]
fn foreign_region_store_triggers_downstream_exactly_once() {
    for workers in [0usize, 2] {
        let mut rt = Runtime::new(Config::default().with_workers(workers), 0u64);
        let a = rt.alloc_array::<u64>(1).unwrap();
        let b = rt.alloc_array::<u64>(1).unwrap();
        let double = rt.register("double", move |ctx| {
            let v = ctx.read(a, 0);
            ctx.write(b, 0, v * 2);
        });
        rt.watch(double, a.range()).unwrap();
        rt.declare_output(double, b.range()).unwrap();
        let publish = rt.register("publish", move |ctx| {
            *ctx.user_mut() = ctx.read(b, 0);
        });
        rt.watch(publish, b.range()).unwrap();

        rt.with(|ctx| ctx.write(a, 0, 21));
        rt.join(double).unwrap();
        rt.join(publish).unwrap();

        assert_eq!(rt.with(|ctx| *ctx.user()), 42, "workers={workers}");
        let counters: Vec<u64> = rt.report().tthreads.iter().map(|t| t.executions).collect();
        assert_eq!(counters, vec![1, 1], "workers={workers}");
        let c = rt.stats();
        let c = c.counters();
        assert_eq!(c.cascades, 1, "workers={workers}");
        assert_eq!(
            c.cascades,
            c.cascade_enqueues + c.cascade_coalesced + c.cascade_cutoffs,
            "workers={workers}"
        );
    }
}

/// A dynamic two-tthread cycle (no declared outputs, so watch-time
/// detection cannot see it) must converge through silent-store
/// suppression rather than livelock: once both sides reach the fixed
/// point their stores go silent and the ping-pong stops.
#[test]
fn converging_dynamic_cycle_terminates() {
    for workers in [0usize, 2] {
        let mut rt = Runtime::new(Config::default().with_workers(workers), ());
        let x = rt.alloc_array::<u64>(1).unwrap();
        let y = rt.alloc_array::<u64>(1).unwrap();
        // Both bodies saturate at 10: the fixed point (10, 10).
        let a = rt.register("a", move |ctx| {
            let v = ctx.read(x, 0);
            ctx.write(y, 0, v.min(10));
        });
        rt.watch(a, x.range()).unwrap();
        let b = rt.register("b", move |ctx| {
            let v = ctx.read(y, 0);
            ctx.write(x, 0, v.min(10));
        });
        rt.watch(b, y.range()).unwrap();

        rt.with(|ctx| ctx.write(x, 0, 37));
        rt.join_all().unwrap();

        assert_eq!(rt.with(|ctx| ctx.read(x, 0)), 10, "workers={workers}");
        assert_eq!(rt.with(|ctx| ctx.read(y, 0)), 10, "workers={workers}");
    }
}

/// A self-retriggering countdown that also feeds a downstream reader:
/// the bounded commit-retry loop (the runtime backstop for dynamic
/// cycles) must neither livelock nor lose the downstream wave when the
/// cap is exhausted mid-chain.
#[test]
fn retry_cap_bounds_self_retrigger_without_losing_the_cascade() {
    let mut rt = Runtime::new(
        Config::default().with_commit_retry_cap(2).with_workers(1),
        0u64,
    );
    let x = rt.alloc_array::<u64>(1).unwrap();
    let out = rt.alloc_array::<u64>(1).unwrap();
    let count = rt.register("countdown", move |ctx| {
        let v = ctx.read(x, 0);
        if v > 0 {
            ctx.write(x, 0, v - 1);
        }
        ctx.write(out, 0, v);
    });
    rt.watch(count, x.range()).unwrap();
    let sink = rt.register("sink", move |ctx| {
        *ctx.user_mut() = ctx.read(out, 0);
    });
    rt.watch(sink, out.range()).unwrap();

    rt.with(|ctx| ctx.write(x, 0, 9));
    // Let the worker hit the cap (the joins below run the rest inline,
    // and the inline path absorbs reruns without the retry accounting).
    for _ in 0..2000 {
        if rt.stats().counters().commit_retry_exhausted >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // Exhaustion defers to the join; repeated joins must still drive the
    // countdown to zero instead of wedging or spinning.
    for _ in 0..16 {
        rt.join(count).unwrap();
    }
    rt.join(sink).unwrap();

    assert_eq!(rt.with(|ctx| ctx.read(x, 0)), 0);
    assert_eq!(rt.with(|ctx| *ctx.user()), 0);
    let snap = rt.stats();
    let c = snap.counters();
    assert!(
        c.commit_retries > 0,
        "self-retriggers must use the retry loop"
    );
    assert_eq!(
        c.cascades,
        c.cascade_enqueues + c.cascade_coalesced + c.cascade_cutoffs
    );
}

/// The acceptance-criterion cycle: three tthreads whose declared outputs
/// and watches form a ring are rejected at watch time with the full path,
/// and the rejected edge is rolled back.
#[test]
fn three_node_declared_cycle_is_rejected_at_watch_time() {
    let mut rt = Runtime::new(Config::default(), ());
    let r1 = rt.alloc_array::<u64>(1).unwrap();
    let r2 = rt.alloc_array::<u64>(1).unwrap();
    let r3 = rt.alloc_array::<u64>(1).unwrap();
    let t1 = rt.register("t1", |_| {});
    let t2 = rt.register("t2", |_| {});
    let t3 = rt.register("t3", |_| {});
    rt.declare_output(t1, r2.range()).unwrap();
    rt.declare_output(t2, r3.range()).unwrap();
    rt.declare_output(t3, r1.range()).unwrap();
    rt.watch(t2, r2.range()).unwrap();
    rt.watch(t3, r3.range()).unwrap();
    // t1 watching r1 closes t1 -> t2 -> t3 -> t1.
    let err = rt.watch(t1, r1.range()).unwrap_err();
    match err {
        Error::TriggerCycle { path } => {
            assert_eq!(path.len(), 4, "cycle path: {path:?}");
            assert_eq!(path.first(), path.last());
        }
        other => panic!("expected TriggerCycle, got {other:?}"),
    }
    // The rejected watch must not have been installed: the same store
    // leaves t1 clean, and the edge map still has exactly two edges.
    assert_eq!(rt.report().edges.len(), 2);
    let snap = rt.stats();
    assert_eq!(snap.counters().trigger_cycles_rejected, 1);
}
