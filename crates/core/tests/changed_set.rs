//! The changed set a body reads through `ctx.triggers()`.
//!
//! * (a) a body that recomputes only its triggers' ranges and one that
//!   rescans everything leave identical memory over random store
//!   schedules, at 0, 1 and 2 workers;
//! * (b) racing main-thread pushes against a worker's takes, every changed
//!   range is handed to exactly one run, and overflow gives `All`;
//! * (c) the first run after `register`, `mark_dirty`, `force`, a panic and
//!   a deadline overrun sees `All`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dtt_core::pod::Pod;
use dtt_core::{Config, Ctx, Error, Runtime, TrackedArray, Triggers, TthreadId};
use proptest::prelude::*;

/// Samples in the input, clamped and work arrays.
const N: usize = 48;
/// Buckets the clamped samples are summed into.
const B: usize = 4;
const LO: i64 = 0;
const HI: i64 = 99;

/// The element spans a body must visit: what its triggers say changed, or
/// all of `array` for a rescanning body and on `All`.
fn spans<T: Pod>(
    ctx: &Ctx<'_, ()>,
    delta: bool,
    array: TrackedArray<T>,
) -> Vec<std::ops::Range<usize>> {
    match ctx.triggers() {
        Triggers::Ranges(changed) if delta => changed
            .iter()
            .map(|range| array.index_span(range))
            .collect(),
        _ => std::iter::once(0..array.len()).collect(),
    }
}

/// A pipeline-shaped chain: input → CLAMP → clamped → BUCKET → sums, plus
/// a SETTLE tthread that watches `work` and retriggers itself: each run
/// moves one unit of every changed positive `work[i]` into `out[i]`.
struct Chain {
    rt: Runtime<()>,
    input: TrackedArray<i64>,
    work: TrackedArray<i64>,
    arrays: [TrackedArray<i64>; 5],
    tthreads: [TthreadId; 3],
    /// Makes CLAMP's next run panic before it reads anything.
    panic_next: Arc<AtomicBool>,
}

impl Chain {
    fn build(workers: usize, delta: bool) -> Self {
        let mut rt = Runtime::new(Config::default().with_workers(workers), ());
        let input = rt.alloc_array::<i64>(N).unwrap();
        let clamped = rt.alloc_array::<i64>(N).unwrap();
        let sums = rt.alloc_array::<i64>(B).unwrap();
        let work = rt.alloc_array::<i64>(N).unwrap();
        let out = rt.alloc_array::<i64>(N).unwrap();
        let panic_next = Arc::new(AtomicBool::new(false));

        let armed = Arc::clone(&panic_next);
        let clamp = rt.register("clamp", move |ctx| {
            if armed.swap(false, Ordering::SeqCst) {
                panic!("injected clamp panic");
            }
            for i in spans(ctx, delta, input).into_iter().flatten() {
                let raw = ctx.read(input, i);
                ctx.write(clamped, i, raw.clamp(LO, HI));
            }
        });
        rt.watch(clamp, input.range()).unwrap();
        rt.declare_output(clamp, clamped.range()).unwrap();

        let bucket = rt.register("bucket", move |ctx| {
            let mut dirty = [false; B];
            for i in spans(ctx, delta, clamped).into_iter().flatten() {
                dirty[i % B] = true;
            }
            for j in (0..B).filter(|&j| dirty[j]) {
                let s = (j..N).step_by(B).map(|i| ctx.read(clamped, i)).sum();
                ctx.write(sums, j, s);
            }
        });
        rt.watch(bucket, clamped.range()).unwrap();
        rt.declare_output(bucket, sums.range()).unwrap();

        let settle = rt.register("settle", move |ctx| {
            for i in spans(ctx, delta, work).into_iter().flatten() {
                let w = ctx.read(work, i);
                if w > 0 {
                    ctx.write(work, i, w - 1);
                    let o = ctx.read(out, i);
                    ctx.write(out, i, o + 1);
                }
            }
        });
        rt.watch(settle, work.range()).unwrap();

        Chain {
            rt,
            input,
            work,
            arrays: [input, clamped, sums, work, out],
            tthreads: [clamp, bucket, settle],
            panic_next,
        }
    }

    /// Joins the chain in order, repairing a poisoned tthread with
    /// `clear_poison` + `force`. A deferred run's panic surfaces from the
    /// join itself.
    fn settle(&mut self) {
        for tt in self.tthreads {
            loop {
                match catch_unwind(AssertUnwindSafe(|| self.rt.join(tt))) {
                    Ok(Ok(_)) => break,
                    Ok(Err(Error::TthreadPoisoned(_))) | Err(_) => {
                        self.rt.clear_poison(tt).unwrap();
                        self.rt.force(tt).unwrap();
                    }
                    Ok(Err(e)) => panic!("join({tt}) failed: {e}"),
                }
            }
        }
    }

    fn memory(&mut self) -> Vec<Vec<i64>> {
        let arrays = self.arrays;
        self.rt
            .with(|ctx| arrays.iter().map(|&a| ctx.read_all(a)).collect())
    }

    /// Applies one schedule step and reports whether it settled. Steps
    /// that touch `work` or inject a panic always settle, so SETTLE's units
    /// and the repair do not depend on worker timing.
    fn apply(&mut self, (kind, at, value, join): (u8, usize, i64, bool)) -> bool {
        let (input, work) = (self.input, self.work);
        let join = match kind {
            0 | 1 => {
                self.rt.with(|ctx| ctx.write(input, at, value));
                join
            }
            // Six stores two elements apart: more disjoint ranges than a
            // changed set holds, so CLAMP and BUCKET both overflow to All.
            2 => {
                self.rt.with(|ctx| {
                    for k in 0..6 {
                        ctx.write(input, (at + 2 * k) % N, value + k as i64);
                    }
                });
                join
            }
            3 => {
                self.rt.with(|ctx| ctx.write(work, at, value.rem_euclid(5)));
                true
            }
            4 => {
                self.rt.mark_dirty(self.tthreads[at % 3]).unwrap();
                join
            }
            _ => {
                self.panic_next.store(true, Ordering::SeqCst);
                self.rt.with(|ctx| {
                    let v = ctx.read(input, at);
                    ctx.write(input, at, v + 1_000);
                });
                true
            }
        };
        if join {
            self.settle();
        }
        join
    }
}

/// What the rescanning chain's memory must be, recomputed directly.
fn check_consistent(memory: &[Vec<i64>]) {
    let [input, clamped, sums, work, _out] = memory else {
        unreachable!()
    };
    for i in 0..N {
        assert_eq!(clamped[i], input[i].clamp(LO, HI), "clamped[{i}]");
        assert_eq!(work[i], 0, "work[{i}] settled");
    }
    for (j, &sum) in sums.iter().enumerate() {
        let s: i64 = (j..N).step_by(B).map(|i| clamped[i]).sum();
        assert_eq!(sum, s, "sums[{j}]");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (a) The differential: delta bodies and rescanning bodies agree at
    /// every settle point and at the end.
    #[test]
    fn delta_bodies_match_rescanning_bodies(
        schedule in prop::collection::vec(
            (0u8..6, 0usize..N, -60i64..160, prop::bool::ANY),
            1..40,
        ),
    ) {
        for workers in 0..=2 {
            let mut delta = Chain::build(workers, true);
            let mut rescan = Chain::build(workers, false);
            for chain in [&mut delta, &mut rescan] {
                chain.settle();
            }
            for &step in &schedule {
                let settled = delta.apply(step);
                rescan.apply(step);
                if settled {
                    prop_assert_eq!(delta.memory(), rescan.memory(), "workers {}", workers);
                }
            }
            delta.settle();
            rescan.settle();
            let memory = rescan.memory();
            check_consistent(&memory);
            prop_assert_eq!(delta.memory(), memory, "workers {}", workers);
        }
    }
}

/// What each run of a recording tthread was handed, in order.
type Log = Arc<Mutex<Vec<Triggers>>>;

/// A runtime with one tthread watching `xs` that records what each of its
/// runs was handed.
fn recorder(cfg: Config) -> (Runtime<()>, TrackedArray<u64>, TthreadId, Log) {
    let mut rt = Runtime::new(cfg, ());
    let xs = rt.alloc_array::<u64>(64).unwrap();
    let seen = Log::default();
    let log = Arc::clone(&seen);
    let id = rt.register("record", move |ctx| {
        log.lock().unwrap().push(ctx.triggers())
    });
    rt.watch(id, xs.range()).unwrap();
    (rt, xs, id, seen)
}

/// Takes the recorded runs, leaving the log empty.
fn runs(seen: &Mutex<Vec<Triggers>>) -> Vec<Triggers> {
    std::mem::take(&mut *seen.lock().unwrap())
}

/// (b) The main thread pushes, one `with` region per store, while the
/// worker takes. Every changing store writes a different element, two
/// apart so no two ranges merge; each must reach exactly one run's
/// ranges, unless a run saw `All`.
#[test]
fn every_pushed_range_is_taken_exactly_once() {
    const STORES: usize = 32;
    for _ in 0..20 {
        let (mut rt, xs, id, seen) = recorder(Config::default().with_workers(1));
        rt.force(id).unwrap(); // consume register's All before the race
        runs(&seen);

        for k in 0..STORES {
            rt.with(|ctx| ctx.write(xs, 2 * k, k as u64 + 1));
        }
        rt.join(id).unwrap();

        let mut hits = [0u32; STORES];
        let mut alls = 0;
        for run in runs(&seen) {
            match run {
                Triggers::All => alls += 1,
                Triggers::Ranges(changed) => {
                    for range in changed.iter() {
                        for i in xs.index_span(range) {
                            assert_eq!(i % 2, 0, "only even elements were stored");
                            hits[i / 2] += 1;
                        }
                    }
                }
            }
        }
        for (k, &n) in hits.iter().enumerate() {
            assert!(n <= 1, "store {k} was handed to {n} runs");
            assert!(n == 1 || alls > 0, "store {k} was lost");
        }
    }
}

/// (b) Deterministically: five disjoint changed ranges overflow the four
/// entries and the run sees `All`; four fit and the run sees exactly them;
/// adjacent stores coalesce into one range.
#[test]
fn overflow_gives_all_and_adjacent_ranges_coalesce() {
    let (mut rt, xs, id, seen) = recorder(Config::default());
    rt.join(id).unwrap();
    runs(&seen);

    rt.with(|ctx| (0..5).for_each(|k| ctx.write(xs, 4 * k, 7)));
    rt.join(id).unwrap();
    assert_eq!(runs(&seen), vec![Triggers::All]);

    rt.with(|ctx| (0..4).for_each(|k| ctx.write(xs, 4 * k, 8)));
    rt.join(id).unwrap();
    let [Triggers::Ranges(changed)] = runs(&seen)[..] else {
        panic!("four disjoint ranges fit");
    };
    let got: Vec<_> = changed.iter().collect();
    let want: Vec<_> = (0..4).map(|k| xs.range_of(4 * k, 4 * k + 1)).collect();
    assert_eq!(got, want);

    rt.with(|ctx| (10..20).for_each(|i| ctx.write(xs, i, 9)));
    rt.join(id).unwrap();
    let [Triggers::Ranges(changed)] = runs(&seen)[..] else {
        panic!("adjacent stores coalesce");
    };
    assert_eq!(changed.iter().collect::<Vec<_>>(), [xs.range_of(10, 20)]);
}

/// (c) A single store is handed its own range; the first run after
/// `register`, `mark_dirty` and `force` sees `All`.
#[test]
fn register_mark_dirty_and_force_give_all() {
    let (mut rt, xs, id, seen) = recorder(Config::default());
    rt.with(|ctx| ctx.write(xs, 5, 1));
    rt.join(id).unwrap();
    assert_eq!(runs(&seen), vec![Triggers::All], "first run after register");

    rt.with(|ctx| ctx.write(xs, 5, 2));
    rt.join(id).unwrap();
    let [Triggers::Ranges(changed)] = runs(&seen)[..] else {
        panic!("a single store is a range");
    };
    assert_eq!(changed.iter().collect::<Vec<_>>(), [xs.at(5).range()]);

    rt.with(|ctx| ctx.write(xs, 6, 2));
    rt.mark_dirty(id).unwrap();
    rt.join(id).unwrap();
    assert_eq!(runs(&seen), vec![Triggers::All], "after mark_dirty");

    rt.force(id).unwrap();
    assert_eq!(runs(&seen), vec![Triggers::All], "a forced run");
}

/// (c) A panicking run loses the set it took: after `clear_poison`, the
/// next run triggered by an ordinary store must see `All`, not just that
/// store.
#[test]
fn the_run_after_a_panic_sees_all() {
    let mut rt = Runtime::new(Config::default(), ());
    let xs = rt.alloc_array::<u64>(8).unwrap();
    let seen = Log::default();
    let fail = Arc::new(AtomicBool::new(false));
    let (log, armed) = (Arc::clone(&seen), Arc::clone(&fail));
    let id = rt.register("fragile", move |ctx| {
        if armed.swap(false, Ordering::SeqCst) {
            panic!("injected");
        }
        log.lock().unwrap().push(ctx.triggers());
    });
    rt.watch(id, xs.range()).unwrap();
    rt.join(id).unwrap();
    rt.force(id).unwrap();
    runs(&seen);

    fail.store(true, Ordering::SeqCst);
    rt.with(|ctx| ctx.write(xs, 1, 1));
    assert!(catch_unwind(AssertUnwindSafe(|| rt.join(id))).is_err());
    assert!(matches!(rt.join(id), Err(Error::TthreadPoisoned(_))));
    rt.clear_poison(id).unwrap();

    rt.with(|ctx| ctx.write(xs, 2, 1));
    rt.join(id).unwrap();
    assert_eq!(runs(&seen), vec![Triggers::All]);
}

/// (c) A run that overran its deadline had its write log discarded, and
/// the set it took with it: the next run sees `All`.
#[test]
fn the_run_after_a_deadline_overrun_sees_all() {
    let cfg = Config::default()
        .with_workers(1)
        .with_body_deadline(Duration::from_millis(5));
    let mut rt = Runtime::new(cfg, ());
    let xs = rt.alloc_array::<u64>(8).unwrap();
    let seen = Log::default();
    let slow = Arc::new(AtomicBool::new(false));
    let (log, stall) = (Arc::clone(&seen), Arc::clone(&slow));
    let id = rt.register("slow", move |ctx| {
        if stall.swap(false, Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        log.lock().unwrap().push(ctx.triggers());
    });
    rt.watch(id, xs.range()).unwrap();
    rt.join(id).unwrap();
    rt.force(id).unwrap();
    runs(&seen);

    slow.store(true, Ordering::SeqCst);
    rt.with(|ctx| ctx.write(xs, 1, 1));
    assert!(matches!(rt.join(id), Err(Error::TthreadTimedOut(_))));
    assert_eq!(runs(&seen).len(), 1, "the overrunning run recorded once");
    rt.clear_timeout(id).unwrap();

    rt.with(|ctx| ctx.write(xs, 2, 1));
    rt.join(id).unwrap();
    assert_eq!(runs(&seen), vec![Triggers::All]);
}
