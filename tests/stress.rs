//! Stress tests for the parallel executor: many tthreads, tight queues,
//! sustained trigger pressure, and concurrent completion tracking.

use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use dtt_core::tthread::{TthreadId, TthreadStatus};
use dtt_core::{Config, JoinOutcome, Runtime, Tracked};

/// Spins until `tthread` is observed `Running` on a worker; panics after a
/// generous timeout so a regression fails rather than hangs.
fn wait_until_running<U: Send + 'static>(rt: &Runtime<U>, tthread: TthreadId) {
    let start = Instant::now();
    while rt.status(tthread).unwrap() != TthreadStatus::Running {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "tthread never started running"
        );
        std::thread::yield_now();
    }
}

/// Regression test for the fake-overlap bug: the worker must release the
/// state lock while a tthread body runs. The body parks on a barrier
/// mid-execution; the main thread then performs tracked stores and joins an
/// unrelated tthread while the body is provably still running. With the
/// body under the state lock every one of those main-thread operations
/// would deadlock.
#[test]
fn worker_body_runs_off_the_state_lock() {
    let gate = Arc::new(Barrier::new(2));
    let cfg = Config::default().with_workers(1);
    let mut rt = Runtime::new(cfg, 0u64);
    let x = rt.alloc(0u64).unwrap();
    let y = rt.alloc(0u64).unwrap();

    let g = Arc::clone(&gate);
    let slow = rt.register("slow", move |ctx| {
        let v = ctx.get(x);
        // Park mid-body, before touching user state, so the main thread can
        // observe us Running while it uses the runtime.
        g.wait();
        *ctx.user_mut() += v;
    });
    rt.watch(slow, x.range()).unwrap();
    let other = rt.register("other", |ctx| *ctx.user_mut() += 100);
    rt.watch(other, y.range()).unwrap();

    rt.write(x, 7);
    wait_until_running(&rt, slow);

    // With `slow` still mid-body on the only worker, the main thread can
    // keep making progress: tracked stores, trigger dispatch, and a join
    // that steals the queued tthread and runs it inline.
    rt.with(|ctx| ctx.set(y, 5));
    assert_eq!(rt.join(other).unwrap(), JoinOutcome::Stolen);
    assert_eq!(rt.with(|ctx| *ctx.user()), 100);

    gate.wait();
    let outcome = rt.join(slow).unwrap();
    assert!(
        matches!(outcome, JoinOutcome::Waited | JoinOutcome::Overlapped),
        "unexpected outcome {outcome:?}"
    );
    // `other` committed before `slow` resumed, so `slow` saw its update.
    assert_eq!(rt.with(|ctx| *ctx.user()), 107);
    let c = rt.stats();
    assert_eq!(c.counters().worker_executions, 1);
    assert_eq!(c.counters().inline_executions, 1);
}

/// Builds the deterministic overflow scenario: capacity-1 queue, the only
/// worker pinned inside `blocker` (its entry already popped), and `filler`
/// queued behind it so the queue is full. The next first-trigger of
/// `victim` therefore overflows. Returns `(rt, x, victim, gate)`; storing
/// to `x` triggers `victim`, which adds `x` into the user state.
fn runtime_with_full_queue() -> (Runtime<u64>, Tracked<u64>, TthreadId, Arc<Barrier>) {
    let gate = Arc::new(Barrier::new(2));
    let cfg = Config::default().with_workers(1).with_queue_capacity(1);
    let mut rt = Runtime::new(cfg, 0u64);
    let x = rt.alloc(0u64).unwrap();
    let f = rt.alloc(0u64).unwrap();

    let g = Arc::clone(&gate);
    let blocker = rt.register("blocker", move |_| {
        g.wait();
    });
    let filler = rt.register("filler", |_| {});
    rt.watch(filler, f.range()).unwrap();
    let victim = rt.register("victim", move |ctx| {
        let v = ctx.get(x);
        *ctx.user_mut() += v;
    });
    rt.watch(victim, x.range()).unwrap();

    // Pin the only worker inside `blocker` so nothing drains the queue.
    rt.mark_dirty(blocker).unwrap();
    wait_until_running(&rt, blocker);
    rt.write(f, 1); // filler enqueued; queue (capacity 1) now full
    assert_eq!(rt.status(filler).unwrap(), TthreadStatus::Queued);
    (rt, x, victim, gate)
}

fn executions_of(rt: &Runtime<u64>, tthread: TthreadId) -> u64 {
    rt.report().tthreads[tthread.index()].executions
}

/// Overflow: a trigger that finds the queue full runs its tthread on the
/// triggering thread — and that inline run is the *only*
/// run: no queue entry was left behind for the worker to execute again.
#[test]
fn queue_overflow_inline_executes_exactly_once() {
    let (mut rt, x, victim, gate) = runtime_with_full_queue();
    rt.write(x, 2); // queue full -> victim runs inline
    assert_eq!(rt.stats().counters().queue_overflows, 1);
    assert_eq!(rt.status(victim).unwrap(), TthreadStatus::Clean);
    assert_eq!(rt.with(|ctx| *ctx.user()), 2);

    gate.wait();
    rt.join_all().unwrap();
    assert_eq!(
        executions_of(&rt, victim),
        1,
        "overflowed tthread must execute exactly once"
    );
    assert_eq!(rt.with(|ctx| *ctx.user()), 2);
}

/// Overflow on a worker thread: a commit cascade that finds the queue full
/// runs the downstream tthread inline on the worker, which must then wake
/// the main thread parked in a join. `A` (x → y, z) parks on a barrier
/// while the joiner parks on it with the queue empty — so it has nothing
/// to help with and sleeps. `A`'s commit then raises `B` (y → user state),
/// which takes the capacity-1 queue's only slot, and `C` (z → w), which
/// overflows and runs inline on the worker. The joins run on a helper
/// thread so a lost wake fails the test instead of hanging it, and a wake
/// rescued by the park timeout shows in `park_rescues`.
#[test]
fn overflow_on_a_worker_wakes_the_parked_joiner() {
    let gate = Arc::new(Barrier::new(2));
    let cfg = Config::default().with_workers(1).with_queue_capacity(1);
    let mut rt = Runtime::new(cfg, 0u64);
    let x = rt.alloc(0u64).unwrap();
    let y = rt.alloc(0u64).unwrap();
    let z = rt.alloc(0u64).unwrap();
    let w = rt.alloc(0u64).unwrap();

    let g = Arc::clone(&gate);
    let a = rt.register("A", move |ctx| {
        let v = ctx.get(x);
        g.wait();
        // Give the joiner time to park on `A` before the commit.
        thread::sleep(Duration::from_millis(20));
        ctx.set(y, v * 10);
        ctx.set(z, v + 1);
    });
    rt.watch(a, x.range()).unwrap();
    let b = rt.register("B", move |ctx| {
        let v = ctx.get(y);
        *ctx.user_mut() = v + 1;
    });
    rt.watch(b, y.range()).unwrap();
    let c = rt.register("C", move |ctx| {
        let v = ctx.get(z);
        ctx.set(w, v * 2);
    });
    rt.watch(c, z.range()).unwrap();

    rt.write(x, 4);
    wait_until_running(&rt, a);
    gate.wait();

    let (done_tx, done_rx) = mpsc::channel();
    let joiner = thread::spawn(move || {
        let outcomes = (rt.join(a), rt.join(b), rt.join(c));
        done_tx.send(()).unwrap();
        (rt, outcomes)
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a join never returned: the overflow run lost its wake");
    let (mut rt, (ja, jb, jc)) = joiner.join().unwrap();
    ja.unwrap();
    jb.unwrap();
    jc.unwrap();
    assert_eq!(rt.with(|ctx| *ctx.user()), 41);
    assert_eq!(rt.read(w), 10);
    rt.join_all().unwrap();
    let counters = rt.stats().counters().clone();
    assert_eq!(counters.queue_overflows, 1);
    assert_eq!(executions_of(&rt, b), 1);
    assert_eq!(executions_of(&rt, c), 1);
    assert_eq!(counters.park_rescues, 0);
}

/// With coalescing off, a repeat trigger for a Queued tthread folds into
/// the status word's rerun flag instead of a duplicate queue entry, so the
/// queue cannot overflow from repeats at all — and a join that steals the
/// queued tthread coalesces the pending rerun into its single inline run.
#[test]
fn lockfree_rerun_flag_replaces_queue_duplicates() {
    let gate = Arc::new(Barrier::new(2));
    let cfg = Config::default()
        .with_workers(1)
        .with_queue_capacity(1)
        .with_coalescing(false);
    let mut rt = Runtime::new(cfg, 0u64);
    let x = rt.alloc(0u64).unwrap();

    let g = Arc::clone(&gate);
    let blocker = rt.register("blocker", move |_| {
        g.wait();
    });
    let victim = rt.register("victim", move |ctx| {
        let v = ctx.get(x);
        *ctx.user_mut() += v;
    });
    rt.watch(victim, x.range()).unwrap();

    // Pin the only worker inside `blocker` so nothing drains the queue.
    rt.mark_dirty(blocker).unwrap();
    wait_until_running(&rt, blocker);

    rt.write(x, 1); // victim enqueued; queue (capacity 1) now full
    rt.write(x, 2); // repeat trigger: absorbed as the rerun flag, no overflow
    assert_eq!(rt.stats().counters().queue_overflows, 0);
    assert_eq!(rt.status(victim).unwrap(), TthreadStatus::Queued);

    // The steal claims the queued entry and clears the rerun flag: one
    // inline run covers both triggers, and it sees the latest value.
    assert_eq!(rt.join(victim).unwrap(), JoinOutcome::Stolen);
    assert_eq!(rt.with(|ctx| *ctx.user()), 2);

    gate.wait();
    rt.join_all().unwrap();
    assert_eq!(
        executions_of(&rt, victim),
        1,
        "the stolen run must cover the folded rerun"
    );
    assert_eq!(rt.with(|ctx| *ctx.user()), 2);
}

/// Wake discipline (counter-based, no timing): silent stores and coalesced
/// triggers must not wake workers — only an enqueued unit of work pays
/// for a notification. The invariant is checked on the runtime's
/// own counters, so a regression shows up as a count mismatch rather than
/// a flaky timing window.
#[test]
fn silent_and_coalesced_stores_do_not_wake_workers() {
    let gate = Arc::new(Barrier::new(2));
    let cfg = Config::default().with_workers(1);
    let mut rt = Runtime::new(cfg, 0u64);
    let y = rt.alloc(0u64).unwrap();

    let g = Arc::clone(&gate);
    let blocker = rt.register("blocker", move |_| {
        g.wait();
    });
    let victim = rt.register("victim", move |ctx| {
        let v = ctx.get(y);
        *ctx.user_mut() += v;
    });
    rt.watch(victim, y.range()).unwrap();

    // Pin the only worker so the victim stays Queued for the whole probe.
    rt.mark_dirty(blocker).unwrap();
    wait_until_running(&rt, blocker);

    rt.write(y, 1); // real trigger: enqueues the victim
    let s0 = rt.stats();
    let (wakes0, enqueues0) = (s0.counters().worker_wakes, s0.counters().enqueues);

    // Silent stores: the value does not change, so the store is squashed
    // before dispatch — nothing enqueued, nobody woken.
    for _ in 0..64 {
        rt.write(y, 1);
    }
    // Coalesced triggers: the value changes but the victim is already
    // Queued — the raise absorbs into the status word without a wake.
    for i in 2..10 {
        rt.write(y, i);
    }

    let s1 = rt.stats();
    assert_eq!(
        s1.counters().enqueues,
        enqueues0,
        "no new work units expected"
    );
    assert_eq!(
        s1.counters().worker_wakes,
        wakes0,
        "silent/coalesced stores must never wake a worker"
    );

    gate.wait();
    rt.join_all().unwrap();
    let s = rt.stats();
    assert!(
        s.counters().worker_wakes <= s.counters().enqueues,
        "at most one wake per enqueued unit (wakes={}, enqueues={})",
        s.counters().worker_wakes,
        s.counters().enqueues
    );
}

/// Repeated trigger/join rounds on the worker executor converge to the
/// same published values as a sequential recompute, and every execution
/// ran either detached on a worker or inline at a join.
#[test]
fn worker_executor_converges_and_runs_detached() {
    let cfg = Config::default().with_workers(2);
    let mut rt = Runtime::new(cfg, 0u64);
    let xs = rt.alloc_array::<u64>(8).unwrap();
    let tt = rt.register("sum", move |ctx| {
        let s: u64 = (0..8).map(|i| ctx.read(xs, i)).sum();
        *ctx.user_mut() = s;
    });
    rt.watch(tt, xs.range()).unwrap();
    for round in 1..=20u64 {
        for i in 0..8 {
            rt.with(|ctx| ctx.write(xs, i, round + i as u64));
        }
        rt.join(tt).unwrap();
        let expect: u64 = (0..8).map(|i| round + i).sum();
        assert_eq!(rt.with(|ctx| *ctx.user()), expect);
    }
    let c = rt.stats();
    let c = c.counters();
    assert_eq!(
        c.executions,
        c.worker_executions + c.inline_executions + c.helped_executions
    );
}

/// Sustained pressure: 32 tthreads over disjoint slices, thousands of
/// stores, joins interleaved at random-ish points. The final published
/// values must equal a sequential recomputation.
#[test]
fn parallel_executor_sustained_pressure() {
    const CELLS: usize = 256;
    const TTHREADS: usize = 32;
    const OPS: usize = 5_000;
    let per = CELLS / TTHREADS;

    let cfg = Config::default().with_workers(4).with_queue_capacity(4);
    let mut rt = Runtime::new(cfg, vec![0u64; TTHREADS]);
    let cells = rt.alloc_array::<u64>(CELLS).unwrap();
    let tts: Vec<_> = (0..TTHREADS)
        .map(|t| {
            let tt = rt.register(&format!("sum_{t}"), move |ctx| {
                let mut s = 0u64;
                for i in t * per..(t + 1) * per {
                    s += ctx.read(cells, i);
                }
                ctx.user_mut()[t] = s;
            });
            rt.watch(tt, cells.range_of(t * per, (t + 1) * per))
                .unwrap();
            tt
        })
        .collect();

    // Deterministic xorshift store schedule.
    let mut state = 0x9e37_79b9u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut shadow = [0u64; CELLS];
    for op in 0..OPS {
        let i = (rnd() % CELLS as u64) as usize;
        let v = rnd() % 16;
        shadow[i] = v;
        rt.with(|ctx| ctx.write(cells, i, v));
        if op % 97 == 0 {
            // Periodic partial consumption.
            let t = (rnd() % TTHREADS as u64) as usize;
            rt.join(tts[t]).unwrap();
            let expect: u64 = shadow[t * per..(t + 1) * per].iter().sum();
            assert_eq!(
                rt.with(|ctx| ctx.user()[t]),
                expect,
                "tthread {t} at op {op}"
            );
        }
    }
    for (t, &tt) in tts.iter().enumerate() {
        rt.join(tt).unwrap();
        let expect: u64 = shadow[t * per..(t + 1) * per].iter().sum();
        assert_eq!(rt.with(|ctx| ctx.user()[t]), expect, "final tthread {t}");
    }
    let stats = rt.stats();
    assert!(stats.counters().executions > 0);
}

/// Rapid runtime churn: creating and dropping parallel runtimes must never
/// leak or deadlock worker threads.
#[test]
fn runtime_churn_is_clean() {
    for round in 0..50 {
        let cfg = Config::default().with_workers(2);
        let mut rt = Runtime::new(cfg, 0u64);
        let x = rt.alloc(0u64).unwrap();
        let tt = rt.register("t", move |ctx| {
            let v = ctx.get(x);
            *ctx.user_mut() = v;
        });
        rt.watch(tt, x.range()).unwrap();
        rt.write(x, round);
        rt.join(tt).unwrap();
        assert_eq!(rt.with(|ctx| *ctx.user()), round);
        // Half the rounds drop with work potentially still queued.
        if round % 2 == 0 {
            rt.write(x, round + 1);
        }
        drop(rt);
    }
}

/// into_state under parallel execution returns the final heap contents.
#[test]
fn into_state_after_parallel_run() {
    let cfg = Config::default().with_workers(3);
    let mut rt = Runtime::new(cfg, ());
    let xs = rt.alloc_array::<u64>(64).unwrap();
    let tt = rt.register("noop", |_| {});
    rt.watch(tt, xs.range()).unwrap();
    for i in 0..64u64 {
        rt.with(|ctx| ctx.write(xs, i as usize, i * i));
    }
    rt.join(tt).unwrap();
    let (heap, ()) = rt.into_state();
    for i in 0..64u64 {
        assert_eq!(heap.load::<u64>(xs.at(i as usize).addr()), i * i);
    }
}

/// `Runtime` must stay shareable across threads: the `Accessor` API hands
/// out `&Runtime`-derived handles to scoped threads.
#[test]
fn runtime_is_sync() {
    fn assert_sync<T: Sync>() {}
    assert_sync::<Runtime<u64>>();
    assert_sync::<Runtime<Vec<u64>>>();
}

/// Accessors on four threads, storing to disjoint slices of one array
/// under the state lock in turn: every store lands, the access-side
/// counters are exact, and a store into a watched cell raises its trigger
/// even when issued off the main thread.
#[test]
fn concurrent_accessors_disjoint_stores_are_exact() {
    const THREADS: usize = 4;
    const PER: usize = 64;
    let mut rt = Runtime::new(Config::default(), 0u64);
    let xs = rt.alloc_array::<u64>(THREADS * PER).unwrap();
    let flag = rt.alloc(0u64).unwrap();
    let tt = rt.register("flag", move |ctx| {
        let v = ctx.get(flag);
        *ctx.user_mut() += v;
    });
    rt.watch(tt, flag.range()).unwrap();

    std::thread::scope(|s| {
        let rt = &rt;
        for t in 0..THREADS {
            s.spawn(move || {
                let mut acc = rt.accessor();
                let chunk = xs.slice(t * PER, (t + 1) * PER);
                for i in 0..PER {
                    acc.write(chunk, i, (t * PER + i) as u64 + 1);
                }
                // Rewrite the same values: all silent.
                for i in 0..PER {
                    acc.write(chunk, i, (t * PER + i) as u64 + 1);
                }
            });
        }
    });
    // A tracked store from an accessor thread fires the watcher too.
    std::thread::scope(|s| {
        let rt = &rt;
        s.spawn(move || rt.accessor().set(flag, 7));
    });
    rt.join(tt).unwrap();
    assert_eq!(rt.with(|ctx| *ctx.user()), 7);

    for i in 0..THREADS * PER {
        assert_eq!(rt.with(|ctx| ctx.read(xs, i)), i as u64 + 1);
    }
    let c = rt.stats();
    let total = (THREADS * PER * 2 + 1) as u64;
    assert_eq!(c.counters().tracked_stores, total);
    assert_eq!(c.counters().silent_stores, (THREADS * PER) as u64);
    assert_eq!(c.counters().changing_stores, (THREADS * PER + 1) as u64);
}

/// Pins the `skip_fraction` denominator to *join points*, not executions:
/// one triggered execution consumed by one join, followed by three clean
/// joins, is 3 skips out of 4 joins. Under the old executions-based
/// denominator the cascade-free value here would have been 3/1.
#[test]
fn skip_fraction_counts_join_points() {
    let mut rt = Runtime::new(Config::default(), 0u64);
    let x = rt.alloc(0u64).unwrap();
    let tt = rt.register("t", move |ctx| {
        let v = ctx.get(x);
        *ctx.user_mut() = v;
    });
    rt.watch(tt, x.range()).unwrap();

    rt.write(x, 5);
    assert_eq!(rt.join(tt).unwrap(), JoinOutcome::RanInline);
    for _ in 0..3 {
        assert_eq!(rt.join(tt).unwrap(), JoinOutcome::Skipped);
    }
    let c = rt.stats();
    assert_eq!(c.counters().joins, 4);
    assert_eq!(c.counters().skips, 3);
    assert_eq!(c.counters().executions, 1);
    assert!((c.skip_fraction() - 0.75).abs() < 1e-12);
}

/// Cascades under the parallel executor: a chain of tthreads A -> B -> C
/// where each publishes into the next one's watched cell must settle to
/// the right value through joins in dependency order.
#[test]
fn parallel_cascade_chain_settles() {
    let cfg = Config::default().with_workers(2);
    let mut rt = Runtime::new(cfg, ());
    let a = rt.alloc(0u64).unwrap();
    let b = rt.alloc(0u64).unwrap();
    let c = rt.alloc(0u64).unwrap();
    let d = rt.alloc(0u64).unwrap();
    let t_ab = rt.register("a->b", move |ctx| {
        let v = ctx.get(a);
        ctx.set(b, v + 1);
    });
    rt.watch(t_ab, a.range()).unwrap();
    let t_bc = rt.register("b->c", move |ctx| {
        let v = ctx.get(b);
        ctx.set(c, v * 2);
    });
    rt.watch(t_bc, b.range()).unwrap();
    let t_cd = rt.register("c->d", move |ctx| {
        let v = ctx.get(c);
        ctx.set(d, v + 100);
    });
    rt.watch(t_cd, c.range()).unwrap();

    for round in 1..=20u64 {
        rt.write(a, round);
        rt.join(t_ab).unwrap();
        rt.join(t_bc).unwrap();
        rt.join(t_cd).unwrap();
        assert_eq!(rt.read(d), (round + 1) * 2 + 100, "round {round}");
    }
}
