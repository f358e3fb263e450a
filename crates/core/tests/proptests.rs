//! Property-based tests for the DTT core data structures and runtime
//! invariants.

use dtt_core::addr::{Addr, AddrRange, Granularity};
use dtt_core::{Config, JoinOutcome, Runtime};
use proptest::prelude::*;

fn granularities() -> impl Strategy<Value = Granularity> {
    prop_oneof![
        Just(Granularity::Exact),
        Just(Granularity::Word),
        Just(Granularity::Line),
        (2u32..=10).prop_map(|p| Granularity::Block(1 << p)),
    ]
}

proptest! {
    /// Rounding a range never shrinks it and always aligns its bounds.
    #[test]
    fn rounding_expands_and_aligns(
        start in 0u64..1_000_000,
        len in 1u64..4096,
        g in granularities(),
    ) {
        let r = AddrRange::new(Addr::new(start), len);
        let rounded = r.round_to(g);
        let w = g.width() as u64;
        prop_assert!(rounded.start().raw() <= r.start().raw());
        prop_assert!(rounded.end().raw() >= r.end().raw());
        prop_assert_eq!(rounded.start().raw() % w, 0);
        prop_assert_eq!(rounded.end().raw() % w, 0);
        // Idempotent.
        prop_assert_eq!(rounded.round_to(g), rounded);
    }

    /// Intersection is symmetric and agrees with a brute-force byte check.
    #[test]
    fn intersection_matches_brute_force(
        s1 in 0u64..500, l1 in 0u64..64,
        s2 in 0u64..500, l2 in 0u64..64,
    ) {
        let a = AddrRange::new(Addr::new(s1), l1);
        let b = AddrRange::new(Addr::new(s2), l2);
        let brute = (s1..s1 + l1).any(|x| x >= s2 && x < s2 + l2);
        prop_assert_eq!(a.intersects(&b), brute);
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    /// DTT execution is *transparent*: for any sequence of stores, the
    /// tthread-maintained aggregate equals a from-scratch recomputation.
    #[test]
    fn dtt_matches_recompute(stores in prop::collection::vec((0usize..8, 0u32..4), 0..64)) {
        let mut rt = Runtime::new(Config::default(), 0u64);
        let xs = rt.alloc_array::<u32>(8).unwrap();
        let tt = rt.register("sum", move |ctx| {
            let s: u64 = (0..8).map(|i| ctx.read(xs, i) as u64).sum();
            *ctx.user_mut() = s;
        });
        rt.watch(tt, xs.range()).unwrap();
        rt.force(tt).unwrap();

        let mut shadow = [0u32; 8];
        for (i, v) in stores {
            rt.with(|ctx| ctx.write(xs, i, v));
            shadow[i] = v;
            rt.join(tt).unwrap();
            let expect: u64 = shadow.iter().map(|&x| x as u64).sum();
            prop_assert_eq!(rt.with(|ctx| *ctx.user()), expect);
        }
    }

    /// Writing a value equal to the current contents never executes the
    /// tthread, at any granularity.
    #[test]
    fn silent_stores_never_execute(
        g in granularities(),
        values in prop::collection::vec(0u32..3, 1..32),
    ) {
        let cfg = Config::default().with_granularity(g);
        let mut rt = Runtime::new(cfg, 0u32);
        let x = rt.alloc(0u32).unwrap();
        let tt = rt.register("count", |ctx| *ctx.user_mut() += 1);
        rt.watch(tt, x.range()).unwrap();

        let mut current = 0u32;
        let mut changes = 0u64;
        for v in values {
            rt.with(|ctx| ctx.set(x, v));
            if v != current {
                changes += 1;
                current = v;
            }
            rt.join(tt).unwrap();
        }
        let snap = rt.stats();
        prop_assert_eq!(snap.counters().executions, changes);
        prop_assert_eq!(u64::from(rt.with(|ctx| *ctx.user())), changes);
    }

    /// With coalescing, N consecutive changing stores before a single join
    /// produce exactly one execution (deferred executor).
    #[test]
    fn triggers_coalesce_to_one_execution(n in 1usize..50) {
        let mut rt = Runtime::new(Config::default(), ());
        let x = rt.alloc(0u64).unwrap();
        let tt = rt.register("t", |_| {});
        rt.watch(tt, x.range()).unwrap();
        for i in 0..n {
            rt.write(x, i as u64 + 1);
        }
        prop_assert_eq!(rt.join(tt).unwrap(), JoinOutcome::RanInline);
        prop_assert_eq!(rt.stats().counters().executions, 1);
        prop_assert_eq!(
            rt.stats().counters().coalesced_triggers,
            n as u64 - 1
        );
    }

    /// Parallel executor: whatever the interleaving and queue capacity, the
    /// published aggregate after join equals the deterministic recompute.
    #[test]
    fn parallel_converges(
        workers in 1usize..4,
        cap in 1usize..8,
        stores in prop::collection::vec((0usize..4, 0u64..100), 1..40),
    ) {
        let cfg = Config::default().with_workers(workers).with_queue_capacity(cap);
        let mut rt = Runtime::new(cfg, 0u64);
        let xs = rt.alloc_array::<u64>(4).unwrap();
        let tt = rt.register("sum", move |ctx| {
            let s: u64 = (0..4).map(|i| ctx.read(xs, i)).sum();
            *ctx.user_mut() = s;
        });
        rt.watch(tt, xs.range()).unwrap();
        let mut shadow = [0u64; 4];
        for (i, v) in stores {
            rt.with(|ctx| ctx.write(xs, i, v));
            shadow[i] = v;
        }
        rt.join(tt).unwrap();
        let expect: u64 = shadow.iter().sum();
        prop_assert_eq!(rt.with(|ctx| *ctx.user()), expect);
    }

    /// Counter conservation across random schedules, executors and configs:
    /// every execution is attributed to exactly one site (inline, worker or
    /// helping joiner), every tracked store is classified (silent or
    /// changing) — including stores replayed from detached write logs — and
    /// per-tthread execution counts sum to the global count.
    #[test]
    fn counters_stay_conserved(
        workers in 0usize..3,
        cap in 1usize..4,
        coalesce in prop::bool::ANY,
        ops in prop::collection::vec((0u8..4, 0usize..4, 0u64..3), 1..60),
    ) {
        let cfg = Config::default()
            .with_workers(workers)
            .with_queue_capacity(cap)
            .with_coalescing(coalesce);
        let mut rt = Runtime::new(cfg, 0u64);
        let xs = rt.alloc_array::<u64>(4).unwrap();
        let sum = rt.register("sum", move |ctx| {
            let s: u64 = (0..4).map(|i| ctx.read(xs, i)).sum();
            *ctx.user_mut() = s;
        });
        rt.watch(sum, xs.range()).unwrap();
        // A second tthread that *stores* into tracked memory, so detached
        // commits and cascade dispatch are exercised too.
        let mirror = rt.alloc_array::<u64>(4).unwrap();
        let copy = rt.register("copy", move |ctx| {
            for i in 0..4 {
                let v = ctx.read(xs, i);
                ctx.write(mirror, i, v);
            }
        });
        rt.watch(copy, xs.range()).unwrap();
        // A third stage downstream of `copy`, so its commits raise trigger
        // waves: the wave conservation identity below gets real cascades
        // (and, with small value ranges, real dedups and cutoffs).
        let sink = rt.register("sink", move |ctx| {
            let s: u64 = (0..4).map(|i| ctx.read(mirror, i)).sum();
            *ctx.user_mut() = s;
        });
        rt.watch(sink, mirror.range()).unwrap();

        for (op, i, v) in ops {
            match op {
                0 | 1 => rt.with(|ctx| ctx.write(xs, i, v)),
                2 => {
                    rt.join(sum).unwrap();
                }
                _ => {
                    rt.join_all().unwrap();
                }
            }
        }
        rt.join_all().unwrap();

        let snap = rt.stats();
        let c = snap.counters();
        prop_assert_eq!(
            c.executions,
            c.inline_executions + c.worker_executions + c.helped_executions
        );
        prop_assert_eq!(c.tracked_stores, c.silent_stores + c.changing_stores);
        let per_tthread: u64 = rt.report().tthreads.iter().map(|t| t.executions).sum();
        prop_assert_eq!(per_tthread, c.executions);
        // Dispatch-path conservation: with workers, every fired trigger is
        // accounted for exactly once — enqueued, coalesced/absorbed, or
        // overflowed. The deferred executor (workers = 0) marks a Clean
        // tthread Triggered without touching the queue counters, so there
        // the sum only bounds the fired triggers from below.
        if workers == 0 {
            prop_assert_eq!(c.enqueues, 0);
            prop_assert_eq!(c.queue_overflows, 0);
            prop_assert!(c.triggers_fired >= c.coalesced_triggers);
            prop_assert_eq!(c.worker_wakes, 0);
            prop_assert_eq!(c.worker_parks, 0);
            // The deferred executor has no workers to park or be rescued.
            prop_assert_eq!(c.park_timeouts, 0);
        } else {
            prop_assert_eq!(
                c.triggers_fired,
                c.enqueues + c.coalesced_triggers + c.queue_overflows
            );
        }
        // Wave conservation: every cascade resolved exactly one way —
        // activated a downstream slot, coalesced into a pending run, or
        // was counted as the terminal cutoff of its own silent commit.
        // Dropped and deduped raises bump none of these by design.
        prop_assert_eq!(
            c.cascades,
            c.cascade_enqueues + c.cascade_coalesced + c.cascade_cutoffs
        );
        // Wake discipline: at most one wake per enqueued unit.
        prop_assert!(c.worker_wakes <= c.enqueues);
        // A tthread is queued only while pending, so nothing is left in
        // the queue once every tthread is joined, and a queue with room
        // for every tthread never overflows.
        prop_assert_eq!(rt.report().queue_len, 0);
        if cap >= 3 {
            prop_assert_eq!(c.queue_overflows, 0);
        }
        // No fault is injected, so no wake is lost and no timer rescues one.
        prop_assert_eq!(c.park_rescues, 0);
    }

    /// Coarse granularity can only add triggers, never lose one: every
    /// precise change that fires under `Exact` also fires under any coarser
    /// granularity (same store sequence).
    #[test]
    fn coarse_granularity_is_superset(
        stores in prop::collection::vec((0usize..16, 0u32..4), 1..50),
        g in granularities(),
    ) {
        let run = |granularity: Granularity| -> u64 {
            let cfg = Config::default().with_granularity(granularity);
            let mut rt = Runtime::new(cfg, ());
            let xs = rt.alloc_array::<u32>(16).unwrap();
            let tt = rt.register("t", |_| {});
            // Watch only the first quarter of the array.
            rt.watch(tt, xs.range_of(0, 4)).unwrap();
            for &(i, v) in &stores {
                rt.with(|ctx| ctx.write(xs, i, v));
            }
            rt.stats().counters().triggers_fired
        };
        prop_assert!(run(g) >= run(Granularity::Exact));
    }
}
