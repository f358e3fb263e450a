//! A join that waits does the work: a joiner whose tthread is Running on a
//! worker runs queued executions itself, detached exactly as a worker does,
//! and parks only once the queue is empty.
//!
//! * (a) the joiner runs a queued body on its own thread before it parks,
//!   and the run counts as `helped_executions`;
//! * (b) a helped body that panics poisons only its own tthread;
//! * (c) a helped run that overruns the body deadline is flagged and its
//!   log discarded — it is detached, never inline;
//! * (d) a helped body may take the state lock (`user_mut`): the helper
//!   holds none while it runs;
//! * (e) random fires and joins over 64 tthreads at two workers leave the
//!   memory a deferred run leaves, with every counter conserved.
//!
//! Scenes (a)–(d) pin the single worker inside a `target` body that waits
//! for a latch only the `helped` body opens: unless the joiner runs
//! `helped`, nothing does, and the test fails after [`BOUND`] instead of
//! hanging.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use dtt_core::{
    Config, Ctx, Error, JoinOutcome, Runtime, Tracked, TrackedArray, TthreadId, TthreadStatus,
};

/// How long any wait in this file may take before the test fails instead
/// of hanging.
const BOUND: Duration = Duration::from_secs(10);

/// A one-shot latch with a bounded wait.
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Waits for [`Latch::open`]; `false` if [`BOUND`] ran out first.
    fn wait(&self) -> bool {
        let guard = self.open.lock().unwrap();
        let (guard, _) = self.cv.wait_timeout_while(guard, BOUND, |o| !*o).unwrap();
        *guard
    }
}

/// Polls `done` until it holds, failing after [`BOUND`].
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + BOUND;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        thread::yield_now();
    }
}

/// One worker parked inside `target` and `helped` queued behind it.
struct Scene {
    rt: Runtime<u64>,
    target: TthreadId,
    helped: TthreadId,
    /// `helped` watches it.
    h: Tracked<u64>,
    /// `helped` stores `h + 1` here.
    out: Tracked<u64>,
    /// Whether `target`'s body saw the latch open (rather than timing out).
    released: Arc<AtomicBool>,
    /// The thread each `helped` run started on.
    ran_on: Arc<Mutex<Vec<ThreadId>>>,
}

/// Builds a [`Scene`]: `target` waits for the latch, and `helped` records
/// its thread, runs `body` (which must open the latch) and stores
/// `h + 1` into `out`.
fn scene(cfg: Config, body: impl Fn(&mut Ctx<'_, u64>, &Latch) + Send + Sync + 'static) -> Scene {
    let mut rt = Runtime::new(cfg.with_workers(1), 0u64);
    let x = rt.alloc(0u64).unwrap();
    let h = rt.alloc(0u64).unwrap();
    let out = rt.alloc(0u64).unwrap();
    let latch = Arc::new(Latch::default());
    let released = Arc::new(AtomicBool::new(false));

    let (gate, flag) = (Arc::clone(&latch), Arc::clone(&released));
    let target = rt.register("target", move |_| flag.store(gate.wait(), Ordering::SeqCst));
    rt.watch(target, x.range()).unwrap();
    let ran_on = Arc::new(Mutex::new(Vec::new()));
    let who = Arc::clone(&ran_on);
    let helped = rt.register("helped", move |ctx| {
        who.lock().unwrap().push(thread::current().id());
        body(ctx, &latch);
        let v = ctx.get(h);
        ctx.set(out, v + 1);
    });
    rt.watch(helped, h.range()).unwrap();

    rt.write(x, 1);
    wait_until("the worker claims the target", || {
        rt.status(target).unwrap() == TthreadStatus::Running
    });
    rt.write(h, 41);
    assert_eq!(rt.status(helped).unwrap(), TthreadStatus::Queued);
    Scene {
        rt,
        target,
        helped,
        h,
        out,
        released,
        ran_on,
    }
}

/// (a) The joiner finds `target` Running and the queue holding `helped`:
/// it runs `helped` on its own thread, which releases `target`, and the
/// join then finds `target` done. The helped run counts apart from the
/// worker's and leaves `helped` reporting `Overlapped`, as a worker's run
/// would.
#[test]
fn a_waiting_joiner_runs_a_queued_body_on_its_own_thread() {
    let mut s = scene(Config::default(), |_, latch| latch.open());
    assert_eq!(s.rt.join(s.target).unwrap(), JoinOutcome::Waited);
    assert!(s.released.load(Ordering::SeqCst), "target never released");
    assert_eq!(*s.ran_on.lock().unwrap(), [thread::current().id()]);
    assert_eq!(s.rt.join(s.helped).unwrap(), JoinOutcome::Overlapped);
    assert_eq!(s.rt.read(s.out), 42);

    let c = s.rt.stats().counters().clone();
    assert_eq!(c.helped_executions, 1);
    assert_eq!(c.worker_executions, 1);
    assert_eq!(c.inline_executions, 0);
    assert_eq!(c.waited_joins, 1);
    assert_eq!(c.park_rescues, 0);
}

/// (b) A helped body that panics poisons `helped` alone: the join on
/// `target` still succeeds, nothing `helped` stored is published, and
/// once cleared `helped` runs again.
#[test]
fn a_helped_panic_poisons_only_its_own_tthread() {
    let panicked = AtomicBool::new(false);
    let mut s = scene(Config::default(), move |_, latch| {
        latch.open();
        if !panicked.swap(true, Ordering::SeqCst) {
            panic!("helped body bug");
        }
    });
    assert_eq!(s.rt.join(s.target).unwrap(), JoinOutcome::Waited);
    assert_eq!(*s.ran_on.lock().unwrap(), [thread::current().id()]);
    assert!(matches!(s.rt.join(s.helped), Err(Error::TthreadPoisoned(id)) if id == s.helped));
    assert_eq!(s.rt.read(s.out), 0);

    // The runtime stays usable: the target joins again, and the cleared
    // tthread recomputes on its next trigger.
    assert_eq!(s.rt.join(s.target).unwrap(), JoinOutcome::Skipped);
    s.rt.clear_poison(s.helped).unwrap();
    s.rt.write(s.h, 9);
    s.rt.join(s.helped).unwrap();
    assert_eq!(s.rt.read(s.out), 10);
    let c = s.rt.stats().counters().clone();
    assert_eq!(
        c.executions,
        c.inline_executions + c.worker_executions + c.helped_executions
    );
    assert_eq!(c.park_rescues, 0);
}

/// (c) With a body deadline the helped run is still detached: it overruns,
/// is flagged timed out with its store discarded, and nothing ran inline.
#[test]
fn a_helped_overrun_is_flagged_and_discarded() {
    let cfg = Config::default().with_body_deadline(Duration::from_millis(200));
    let mut s = scene(cfg, |_, latch| {
        latch.open();
        thread::sleep(Duration::from_millis(400));
    });
    assert_eq!(s.rt.join(s.target).unwrap(), JoinOutcome::Waited);
    assert!(s.released.load(Ordering::SeqCst), "target never released");
    assert_eq!(*s.ran_on.lock().unwrap(), [thread::current().id()]);
    assert!(matches!(s.rt.join(s.helped), Err(Error::TthreadTimedOut(id)) if id == s.helped));
    assert_eq!(s.rt.read(s.out), 0, "a timed-out run must not commit");

    let c = s.rt.stats().counters().clone();
    assert_eq!(c.body_timeouts, 1);
    assert_eq!(c.inline_executions, 0);
    // A timed-out run is not an execution; the target's is the worker's.
    assert_eq!((c.worker_executions, c.helped_executions), (1, 0));
    assert_eq!(c.park_rescues, 0);
}

/// (d) A helped body that takes the state lock through `user_mut`
/// completes: the helper dropped the lock before running it. The join
/// runs on another thread so that a helper holding the lock fails the
/// test on the watchdog instead of deadlocking it.
#[test]
fn a_helped_body_may_take_the_state_lock() {
    let s = scene(Config::default(), |ctx, latch| {
        *ctx.user_mut() += 1;
        latch.open();
    });
    let Scene {
        mut rt,
        target,
        helped,
        out,
        released,
        ran_on,
        ..
    } = s;
    let (done_tx, done_rx) = mpsc::channel();
    let joiner = thread::spawn(move || {
        let outcome = rt.join(target);
        done_tx.send(()).unwrap();
        (rt, outcome)
    });
    done_rx
        .recv_timeout(BOUND)
        .expect("the join never returned: the helper held the state lock");
    let joiner_id = joiner.thread().id();
    let (mut rt, outcome) = joiner.join().unwrap();
    assert_eq!(outcome.unwrap(), JoinOutcome::Waited);
    assert!(released.load(Ordering::SeqCst), "target never released");
    assert_eq!(*ran_on.lock().unwrap(), [joiner_id]);
    assert_eq!(rt.join(helped).unwrap(), JoinOutcome::Overlapped);
    assert_eq!(rt.with(|ctx| *ctx.user()), 1);
    assert_eq!(rt.read(out), 42);
    assert_eq!(rt.stats().counters().helped_executions, 1);
}

/// Tthreads in (e): `FIRST` first-stage tthreads, each over one input
/// cell, and `TTHREADS - FIRST` second-stage tthreads over `FAN_IN`
/// first-stage outputs each.
const TTHREADS: usize = 64;
const FIRST: usize = 48;
const FAN_IN: usize = FIRST / (TTHREADS - FIRST);

/// What a first-stage body stores for input `v`, after a short spin that
/// keeps it on a worker long enough for joins to find it Running.
fn stage(v: u64) -> u64 {
    let mut acc = v;
    for _ in 0..200 {
        acc = std::hint::black_box(acc.rotate_left(7) ^ 0x9E37_79B9_7F4A_7C15);
    }
    acc
}

/// The arrays of one (e) run: inputs, first-stage outputs, sums.
struct Pipeline {
    cells: TrackedArray<u64>,
    mid: TrackedArray<u64>,
    out: TrackedArray<u64>,
}

/// Builds the two-stage pipeline of (e) on a runtime with `workers`.
fn pipeline(workers: usize) -> (Runtime<()>, Pipeline, Vec<TthreadId>) {
    let cfg = Config::default()
        .with_workers(workers)
        .with_queue_capacity(16);
    let mut rt = Runtime::new(cfg, ());
    let p = Pipeline {
        cells: rt.alloc_array::<u64>(FIRST).unwrap(),
        mid: rt.alloc_array::<u64>(FIRST).unwrap(),
        out: rt.alloc_array::<u64>(TTHREADS - FIRST).unwrap(),
    };
    let (cells, mid, out) = (p.cells, p.mid, p.out);
    let mut tts: Vec<TthreadId> = (0..FIRST)
        .map(|i| {
            let tt = rt.register(&format!("stage{i}"), move |ctx| {
                let v = ctx.read(cells, i);
                ctx.write(mid, i, stage(v));
            });
            rt.watch(tt, cells.range_of(i, i + 1)).unwrap();
            tt
        })
        .collect();
    for j in 0..TTHREADS - FIRST {
        let (lo, hi) = (j * FAN_IN, (j + 1) * FAN_IN);
        let tt = rt.register(&format!("sum{j}"), move |ctx| {
            let s = (lo..hi).fold(0u64, |s, i| s.wrapping_add(ctx.read(mid, i)));
            ctx.write(out, j, s);
        });
        rt.watch(tt, mid.range_of(lo, hi)).unwrap();
        tts.push(tt);
    }
    (rt, p, tts)
}

/// Runs `seed`'s schedule of fires and joins, joins everything, and
/// returns the final memory of all three arrays with the runtime.
fn run_schedule(workers: usize, seed: u64) -> (Vec<u64>, Runtime<()>) {
    let (mut rt, p, tts) = pipeline(workers);
    let mut state = seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..600 {
        let r = rnd();
        if r % 10 < 7 {
            // A burst of fires, so the queue holds work while joins wait.
            let burst = 1 + (r >> 8) as usize % 6;
            rt.with(|ctx| {
                for k in 0..burst {
                    let i = (r >> (16 + 4 * k)) as usize % FIRST;
                    ctx.write(p.cells, i, r >> 40);
                }
            });
        } else {
            let t = (r >> 8) as usize % TTHREADS;
            rt.join(tts[t]).unwrap();
        }
    }
    rt.join_all().unwrap();
    let memory = rt.with(|ctx| {
        let mut m = ctx.read_all(p.cells);
        m.extend(ctx.read_all(p.mid));
        m.extend(ctx.read_all(p.out));
        m
    });
    (memory, rt)
}

/// (e) Twenty seeds of random fires and joins at two workers: joins that
/// wait help, and the final memory equals the deferred executor's for the
/// same schedule, with every conservation identity intact.
#[test]
fn helping_joins_leave_the_deferred_result() {
    let mut helped = 0;
    for seed in 1..=20u64 {
        let (want, _) = run_schedule(0, seed);
        let (got, rt) = run_schedule(2, seed);
        assert_eq!(
            got, want,
            "seed {seed}: memory differs from the deferred run"
        );

        let c = rt.stats().counters().clone();
        assert_eq!(
            c.executions,
            c.inline_executions + c.worker_executions + c.helped_executions,
            "seed {seed}"
        );
        let per_tthread: u64 = rt.report().tthreads.iter().map(|t| t.executions).sum();
        assert_eq!(per_tthread, c.executions, "seed {seed}");
        assert_eq!(
            c.tracked_stores,
            c.silent_stores + c.changing_stores,
            "seed {seed}"
        );
        assert_eq!(
            c.triggers_fired,
            c.enqueues + c.coalesced_triggers + c.queue_overflows,
            "seed {seed}"
        );
        assert_eq!(
            c.cascades,
            c.cascade_enqueues + c.cascade_coalesced + c.cascade_cutoffs,
            "seed {seed}"
        );
        assert!(c.worker_wakes <= c.enqueues, "seed {seed}");
        assert!(c.queue_stale_skips <= c.enqueues, "seed {seed}");
        assert_eq!(c.park_rescues, 0, "seed {seed}");
        helped += c.helped_executions;
    }
    assert!(helped > 0, "no join ever helped: the stress did not stress");
}
