//! The scalar tracked-access path through its three front ends — a locked
//! [`Ctx`] inside `Runtime::with`, an [`Accessor`], and a detached [`Ctx`]
//! inside a worker-run body — must be one behaviour: the same op stream
//! leaves the same memory, returns the same loaded values and counts the
//! same accesses, even from a body that fails, and the counts fold exactly
//! while accessors come and go. The last part pins the panic messages of
//! the bounds checks on that path, through the public API, downstream.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use dtt_core::addr::Addr;
use dtt_core::pod::Pod;
use dtt_core::{Accessor, Config, Ctx, Error, Runtime, Tracked, TrackedArray, PARK_TIMEOUT};

/// Elements per typed array.
const N: usize = 24;

/// One array per scalar type the stream exercises.
#[derive(Clone, Copy)]
struct Arrays {
    u8s: TrackedArray<u8>,
    u16s: TrackedArray<u16>,
    u32s: TrackedArray<u32>,
    u64s: TrackedArray<u64>,
    u128s: TrackedArray<u128>,
    i64s: TrackedArray<i64>,
    f64s: TrackedArray<f64>,
    bools: TrackedArray<bool>,
    /// The cell the detached variant's tthread watches. Every variant
    /// stores to it once, so the counters stay comparable.
    trigger: Tracked<u64>,
}

impl Arrays {
    fn alloc(rt: &mut Runtime<()>) -> Self {
        Arrays {
            u8s: rt.alloc_array(N).unwrap(),
            u16s: rt.alloc_array(N).unwrap(),
            u32s: rt.alloc_array(N).unwrap(),
            u64s: rt.alloc_array(N).unwrap(),
            u128s: rt.alloc_array(N).unwrap(),
            i64s: rt.alloc_array(N).unwrap(),
            f64s: rt.alloc_array(N).unwrap(),
            bools: rt.alloc_array(N).unwrap(),
            trigger: rt.alloc(0u64).unwrap(),
        }
    }
}

/// One scalar op: `ty` picks the array, `value` is `None` for a load.
#[derive(Clone, Copy)]
struct Op {
    ty: u8,
    index: usize,
    value: Option<u64>,
}

/// A seeded stream in which about a third of the ops are loads and about
/// half of the stores rewrite the value the slot already holds.
fn op_stream(seed: u64, len: usize) -> Vec<Op> {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut shadow = [[0u64; N]; 8];
    (0..len)
        .map(|_| {
            let (ty, index) = ((step() % 8) as usize, (step() % N as u64) as usize);
            let value = match step() % 3 {
                0 => None,
                1 => Some(shadow[ty][index]),
                // A small value set, so fresh values collide with old ones.
                _ => Some(step() % 5),
            };
            if let Some(v) = value {
                shadow[ty][index] = v;
            }
            Op {
                ty: ty as u8,
                index,
                value,
            }
        })
        .collect()
}

/// The scalar verbs the three front ends share.
trait Front {
    fn get<T: Pod>(&mut self, cell: Tracked<T>) -> T;
    fn set<T: Pod>(&mut self, cell: Tracked<T>, value: T);
}

impl Front for Ctx<'_, ()> {
    fn get<T: Pod>(&mut self, cell: Tracked<T>) -> T {
        Ctx::get(self, cell)
    }
    fn set<T: Pod>(&mut self, cell: Tracked<T>, value: T) {
        Ctx::set(self, cell, value);
    }
}

impl Front for Accessor<'_, ()> {
    fn get<T: Pod>(&mut self, cell: Tracked<T>) -> T {
        Accessor::get(self, cell)
    }
    fn set<T: Pod>(&mut self, cell: Tracked<T>, value: T) {
        Accessor::set(self, cell, value);
    }
}

/// Runs one op on array `arr`, converting through `to`/`from` so every
/// type takes its value from (and reports its load as) a `u64`.
fn op_on<T: Pod>(
    f: &mut impl Front,
    arr: TrackedArray<T>,
    op: Op,
    to: fn(u64) -> T,
    from: fn(T) -> u64,
) -> u64 {
    match op.value {
        Some(v) => {
            f.set(arr.at(op.index), to(v));
            0
        }
        None => from(f.get(arr.at(op.index))),
    }
}

/// Replays `ops` through `f`; returns a digest of every loaded value.
fn replay(f: &mut impl Front, a: &Arrays, ops: &[Op]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for &op in ops {
        let loaded = match op.ty {
            0 => op_on(f, a.u8s, op, |v| v as u8, u64::from),
            1 => op_on(f, a.u16s, op, |v| v as u16, u64::from),
            2 => op_on(f, a.u32s, op, |v| v as u32, u64::from),
            3 => op_on(f, a.u64s, op, |v| v, |v| v),
            // Both halves populated: a u128 is the multi-word store path.
            4 => op_on(
                f,
                a.u128s,
                op,
                |v| u128::from(v) << 64 | 7,
                |v| (v >> 64) as u64,
            ),
            5 => op_on(f, a.i64s, op, |v| -(v as i64), |v| v as u64),
            6 => op_on(f, a.f64s, op, |v| v as f64 / 2.0, f64::to_bits),
            _ => op_on(f, a.bools, op, |v| v % 2 == 1, u64::from),
        };
        digest = (digest ^ loaded).wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest
}

/// What one front end produced: load digest, the five access counters
/// (taken before the final read-back) and every array's final contents.
#[derive(Debug, PartialEq)]
struct Observed {
    digest: u64,
    counters: [u64; 5],
    memory: Vec<Vec<u64>>,
}

fn observe(rt: &mut Runtime<()>, a: &Arrays, digest: u64) -> Observed {
    let s = rt.stats();
    let c = s.counters();
    let counters = [
        c.tracked_loads,
        c.tracked_stores,
        c.silent_stores,
        c.changing_stores,
        c.bytes_compared,
    ];
    fn all<T: Pod>(ctx: &mut Ctx<'_, ()>, arr: TrackedArray<T>, from: fn(T) -> u64) -> Vec<u64> {
        ctx.read_all(arr).into_iter().map(from).collect()
    }
    let memory = rt.with(|ctx| {
        vec![
            all(ctx, a.u8s, u64::from),
            all(ctx, a.u16s, u64::from),
            all(ctx, a.u32s, u64::from),
            all(ctx, a.u64s, |v| v),
            all(ctx, a.u128s, |v| (v >> 64) as u64 ^ v as u64),
            all(ctx, a.i64s, |v| v as u64),
            all(ctx, a.f64s, f64::to_bits),
            all(ctx, a.bools, u64::from),
        ]
    });
    Observed {
        digest,
        counters,
        memory,
    }
}

fn through_locked_ctx(ops: &[Op]) -> Observed {
    let mut rt = Runtime::new(Config::default(), ());
    let a = Arrays::alloc(&mut rt);
    rt.write(a.trigger, 1);
    let digest = rt.with(|ctx| replay(ctx, &a, ops));
    observe(&mut rt, &a, digest)
}

fn through_accessor(ops: &[Op]) -> Observed {
    let mut rt = Runtime::new(Config::default(), ());
    let a = Arrays::alloc(&mut rt);
    rt.write(a.trigger, 1);
    let digest = replay(&mut rt.accessor(), &a, ops);
    observe(&mut rt, &a, digest)
}

/// Replays the stream in a tthread body, failing it afterwards if `fail`.
/// With a worker the body meets the main thread first, so the join cannot
/// steal it onto the locked path: it runs detached. With none it runs
/// inline at the join. A failed body's accesses count even detached,
/// where it publishes nothing.
fn through_body(ops: &[Op], workers: usize, fail: bool) -> Observed {
    let mut rt = Runtime::new(Config::default().with_workers(workers), ());
    let a = Arrays::alloc(&mut rt);
    let started = Arc::new(Barrier::new(2));
    let digest = Arc::new(AtomicU64::new(0));
    let (body_ops, body_started, body_digest) =
        (ops.to_vec(), Arc::clone(&started), Arc::clone(&digest));
    let tt = rt.register("replay", move |ctx| {
        if workers > 0 {
            body_started.wait();
        }
        body_digest.store(replay(ctx, &a, &body_ops), Ordering::SeqCst);
        if fail {
            resume_unwind(Box::new("replayed, then failed"));
        }
    });
    rt.watch(tt, a.trigger.range()).unwrap();
    rt.write(a.trigger, 1);
    if workers > 0 {
        started.wait();
    }
    let joined = catch_unwind(AssertUnwindSafe(|| rt.join(tt)));
    let c = rt.stats().counters().clone();
    if fail {
        // An inline failure unwinds out of the join; the join reports a
        // detached one. Neither counts as an execution.
        assert_eq!(joined.is_err(), workers == 0);
        assert!(joined.map_or(true, |j| matches!(j, Err(Error::TthreadPoisoned(_)))));
        assert_eq!(c.executions, 0);
    } else {
        let ran = (c.worker_executions, c.inline_executions);
        assert_eq!(ran, (1, 0), "the body must have run detached on the worker");
    }
    observe(&mut rt, &a, digest.load(Ordering::SeqCst))
}

#[test]
fn one_op_stream_three_front_ends_one_behaviour() {
    for seed in [3, 0x5eed_cafe, u64::MAX / 7] {
        let ops = op_stream(seed, 2000);
        let locked = through_locked_ctx(&ops);
        assert!(locked.counters[2] > 100 && locked.counters[3] > 100);
        assert_eq!(through_accessor(&ops), locked, "accessor, seed {seed}");
        assert_eq!(through_body(&ops, 1, false), locked, "detached {seed}");
        for w in [0, 1] {
            let failed = through_body(&ops, w, true).counters;
            assert_eq!(failed, locked.counters, "failed, {w} workers, {seed}");
        }
    }
}

/// Accessor threads and the stores each makes per phase.
const THREADS: usize = 4;
const PER_THREAD: usize = 2_000;

/// One phase: `THREADS` threads store `PER_THREAD` times each through a
/// fresh accessor every 100 stores, while this thread polls `stats()`.
/// Every poll is behind the next and the final count, which is exact.
fn accessor_phase(rt: &Runtime<()>, xs: TrackedArray<u64>, phase: &str) {
    let polled = thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    for _ in 0..PER_THREAD / 100 {
                        let mut acc = rt.accessor();
                        (0..100).for_each(|i| acc.write(xs, t * 64 + i % 64, i as u64));
                    }
                })
            })
            .collect();
        let mut polled = Vec::new();
        while !threads.iter().all(|t| t.is_finished()) {
            polled.push(rt.stats().counters().tracked_stores);
        }
        polled
    });
    let fin = rt.stats().counters().tracked_stores;
    assert_eq!(fin, (THREADS * PER_THREAD) as u64, "{phase}: final count");
    assert!(polled.windows(2).all(|w| w[0] <= w[1]), "{phase}");
    assert!(polled.iter().all(|&p| p <= fin), "{phase}");
}

/// The counter-line registry under concurrency: lines are handed out and
/// back while `stats()` folds them, and a reset is a baseline that idle
/// workers, bumping their own lines throughout, cannot undo.
#[test]
fn accessor_lines_fold_exactly_while_they_come_and_go() {
    const WORKERS: u64 = 2;
    let mut rt = Runtime::new(Config::default().with_workers(WORKERS as usize), ());
    let xs = rt.alloc_array::<u64>(THREADS * 64).unwrap();
    accessor_phase(&rt, xs, "first phase");
    // Let the idle workers time out of a few parks, so their lines hold
    // counts the reset must leave behind.
    while rt.stats().counters().park_timeouts < 2 * WORKERS {
        thread::sleep(Duration::from_millis(5));
    }
    let reset_at = Instant::now();
    rt.reset_stats();
    assert_eq!(rt.stats().counters().tracked_stores, 0);
    accessor_phase(&rt, xs, "second phase");
    // Only parks that ended since the reset count: each lasts a full park
    // period, so a worker ends at most one more than fit.
    let timeouts = rt.stats().counters().park_timeouts;
    let periods = (reset_at.elapsed().as_micros() / PARK_TIMEOUT.as_micros()) as u64;
    let bound = WORKERS * (periods + 1);
    assert!(
        timeouts <= bound,
        "{timeouts} park timeouts since the reset; {bound} fit"
    );
}

/// A small runtime and an element handle issued by a larger one: in bounds
/// for its own array, past the end of the small runtime's arena.
fn foreign_cell() -> (Runtime<()>, Tracked<u64>) {
    let mut big = Runtime::new(Config::default(), ());
    let far = big.alloc_array::<u64>(4096).unwrap().at(4095);
    let mut small = Runtime::new(Config::default(), ());
    small.alloc(0u64).unwrap();
    (small, far)
}

#[test]
#[should_panic(expected = "load out of bounds")]
fn ctx_get_past_the_arena_panics() {
    let (mut rt, far) = foreign_cell();
    rt.with(|ctx| ctx.get(far));
}

#[test]
#[should_panic(expected = "store out of bounds")]
fn ctx_set_past_the_arena_panics() {
    let (mut rt, far) = foreign_cell();
    rt.with(|ctx| ctx.set(far, 1));
}

#[test]
#[should_panic(expected = "load out of bounds")]
fn accessor_get_past_the_arena_panics() {
    let (rt, far) = foreign_cell();
    rt.accessor().get(far);
}

#[test]
#[should_panic(expected = "store out of bounds")]
fn accessor_set_past_the_arena_panics() {
    let (rt, far) = foreign_cell();
    rt.accessor().set(far, 1);
}

#[test]
#[should_panic(expected = "index 4 out of bounds (len 4)")]
fn ctx_read_at_len_panics() {
    let mut rt = Runtime::new(Config::default(), ());
    let arr = rt.alloc_array::<u32>(4).unwrap();
    rt.with(|ctx| ctx.read(arr, arr.len()));
}

#[test]
#[should_panic(expected = "address overflow")]
fn addr_offset_past_the_address_space_panics() {
    Addr::new(u64::MAX).offset(1);
}
