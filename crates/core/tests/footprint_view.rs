//! A detached body reads a copy-on-first-touch view of only the stripes it
//! touches, and its reads still form one consistent cut: a stripe that
//! changed after the view started restarts the body, which has published
//! nothing.
//!
//! * (a) a body that reads one stripe, waits while the main thread writes
//!   two, then reads the other, never sees the later write without the
//!   earlier one, and restarts;
//! * (b) at the restart cap the tthread ends Triggered and its join runs
//!   it, recomputing everything;
//! * (c) a body that catches the restart's unwind still restarts, and its
//!   aborted run publishes nothing;
//! * (d) a user-state body restarts before it is handed user state if a
//!   stripe it read went stale, and once it holds the state lock it reads
//!   live memory as an inline body would;
//! * (e) twenty seeds at two workers, bodies reading unwatched memory the
//!   main thread stores to, leave the memory a deferred run leaves.
//!
//! Scenes (a)–(d) run one worker through a handshake: the body reports
//! that it reached the point where the main thread should store, and waits
//! for the go. Every wait is bounded by [`BOUND`], so a broken view fails
//! the test instead of hanging it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dtt_core::{
    Config, JoinOutcome, Runtime, TrackedArray, Triggers, TthreadId, TthreadStatus,
    COMMIT_RETRY_CAP,
};

/// How long any wait in this file may take before the test fails instead
/// of hanging.
const BOUND: Duration = Duration::from_secs(10);

/// `u64`s per stripe: elements `k * LINE` and `(k + 1) * LINE` of an array
/// never share a stripe.
const LINE: usize = 8;

/// The body's half of the handshake: it says where it is, then waits for
/// the main thread to let it go on.
struct Handshake {
    reached: Mutex<Sender<()>>,
    go: Mutex<Receiver<()>>,
}

/// The main thread's half.
struct Gate {
    reached: Receiver<()>,
    go: Sender<()>,
}

fn handshake() -> (Arc<Handshake>, Gate) {
    let (reached_tx, reached_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let body = Handshake {
        reached: Mutex::new(reached_tx),
        go: Mutex::new(go_rx),
    };
    let gate = Gate {
        reached: reached_rx,
        go: go_tx,
    };
    (Arc::new(body), gate)
}

impl Handshake {
    fn pause(&self) {
        self.reached.lock().unwrap().send(()).unwrap();
        self.go
            .lock()
            .unwrap()
            .recv_timeout(BOUND)
            .expect("the main thread never said go");
    }
}

impl Gate {
    /// Waits for the body to pause, runs `f`, and lets the body go on.
    fn between(&self, f: impl FnOnce()) {
        self.reached
            .recv_timeout(BOUND)
            .expect("the body never reached its pause");
        f();
        self.go.send(()).unwrap();
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + BOUND;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        thread::yield_now();
    }
}

/// One worker, a trigger cell and a data array whose elements `0` (A) and
/// `LINE` (B) sit on different stripes, plus an output array.
struct Scene<U> {
    rt: Runtime<U>,
    trigger: dtt_core::Tracked<u64>,
    data: TrackedArray<u64>,
    out: TrackedArray<u64>,
}

fn scene<U: Send + 'static>(cfg: Config, user: U) -> Scene<U> {
    let mut rt = Runtime::new(cfg.with_workers(1), user);
    let trigger = rt.alloc(0u64).unwrap();
    let data = rt.alloc_array::<u64>(4 * LINE).unwrap();
    let out = rt.alloc_array::<u64>(4 * LINE).unwrap();
    Scene {
        rt,
        trigger,
        data,
        out,
    }
}

const A: usize = 0;
const B: usize = LINE;

/// Writes A and then B to `seq` in one region, as the main thread does.
fn write_pair<U: Send + 'static>(rt: &mut Runtime<U>, data: TrackedArray<u64>, seq: u64) {
    rt.with(|ctx| {
        ctx.write(data, A, seq);
        ctx.write(data, B, seq);
    });
}

/// (a) The main thread writes A and then B, with increasing sequence
/// numbers, while the body sits between its two reads. Whichever it reads
/// first, it never publishes a new B with an old A — the cut — and the
/// read of the stripe the main thread changed restarts it.
#[test]
fn a_body_never_sees_a_later_store_without_an_earlier_one() {
    for b_first in [true, false] {
        let mut s = scene(Config::default(), ());
        let (hs, gate) = handshake();
        let paused = Arc::new(AtomicBool::new(false));
        let (data, out) = (s.data, s.out);
        let pause_once = Arc::clone(&paused);
        let body = s.rt.register("pair", move |ctx| {
            let (first, second) = if b_first { (B, A) } else { (A, B) };
            let x = ctx.read(data, first);
            if !pause_once.swap(true, Ordering::SeqCst) {
                hs.pause();
            }
            let y = ctx.read(data, second);
            ctx.write(out, first, x);
            ctx.write(out, second, y);
        });
        s.rt.watch(body, s.trigger.range()).unwrap();
        let mut restarts = 0;
        for round in 1..=5u64 {
            write_pair(&mut s.rt, data, 2 * round);
            paused.store(false, Ordering::SeqCst);
            s.rt.write(s.trigger, round);
            gate.between(|| write_pair(&mut s.rt, data, 2 * round + 1));
            assert!(matches!(
                s.rt.join(body).unwrap(),
                JoinOutcome::Overlapped | JoinOutcome::Waited
            ));
            let (a, b) = s.rt.with(|ctx| (ctx.read(out, A), ctx.read(out, B)));
            assert!(
                b <= a,
                "b_first {b_first} round {round}: published B {b} with A {a}"
            );
            // The restarted run started after the main thread's writes.
            assert_eq!((a, b), (2 * round + 1, 2 * round + 1));
            let c = s.rt.stats().counters().clone();
            assert!(c.view_restarts > restarts, "round {round}: no restart");
            restarts = c.view_restarts;
        }
    }
}

/// (b) Every run reads A, pauses while the main thread moves A and B, and
/// then reads B: each restarts. Past `COMMIT_RETRY_CAP` restarts the
/// tthread is left Triggered; the join runs it inline, over everything.
#[test]
fn at_the_restart_cap_the_join_runs_the_tthread() {
    const CAP: u32 = COMMIT_RETRY_CAP;
    let mut s = scene(Config::default(), ());
    let (hs, gate) = handshake();
    let pauses = Arc::new(AtomicUsize::new(0));
    let saw_all = Arc::new(AtomicBool::new(false));
    let (data, out) = (s.data, s.out);
    let (left, all) = (Arc::clone(&pauses), Arc::clone(&saw_all));
    let body = s.rt.register("capped", move |ctx| {
        let a = ctx.read(data, A);
        if left.load(Ordering::SeqCst) > 0 {
            left.fetch_sub(1, Ordering::SeqCst);
            hs.pause();
        }
        let b = ctx.read(data, B);
        all.store(matches!(ctx.triggers(), Triggers::All), Ordering::SeqCst);
        ctx.write(out, A, a + b);
    });
    s.rt.watch(body, s.trigger.range()).unwrap();
    // A first run takes the "everything changed" a new tthread starts
    // with, so the trigger below hands the worker runs one range.
    s.rt.force(body).unwrap();
    s.rt.reset_stats();
    pauses.store(CAP as usize + 1, Ordering::SeqCst);

    s.rt.write(s.trigger, 1);
    for round in 1..=u64::from(CAP) + 1 {
        gate.between(|| write_pair(&mut s.rt, data, round));
    }
    wait_until("the tthread is deferred to its join", || {
        s.rt.status(body).unwrap() == TthreadStatus::Triggered
    });
    assert_eq!(s.rt.read(s.out.at(A)), 0, "a restarted run published");
    assert_eq!(s.rt.join(body).unwrap(), JoinOutcome::RanInline);
    let last = u64::from(CAP) + 1;
    assert_eq!(s.rt.read(s.out.at(A)), 2 * last);
    assert!(
        saw_all.load(Ordering::SeqCst),
        "the taken set was not given back"
    );

    let c = s.rt.stats().counters().clone();
    assert_eq!(c.view_restarts, u64::from(CAP) + 1);
    assert_eq!(c.worker_executions, 0);
    assert_eq!(c.inline_executions, 1);
    assert_eq!(c.commit_retry_exhausted, 0);
}

/// (c) The body catches the restart's unwind, catches the next access's
/// too, and returns normally after storing a marker: the run still
/// restarts, and the marker is never published.
#[test]
fn a_body_that_catches_the_unwind_still_restarts() {
    let mut s = scene(Config::default(), ());
    let (hs, gate) = handshake();
    let paused = Arc::new(AtomicBool::new(false));
    let rethrown = Arc::new(AtomicBool::new(false));
    let (data, out) = (s.data, s.out);
    let (once, again) = (Arc::clone(&paused), Arc::clone(&rethrown));
    let body = s.rt.register("catcher", move |ctx| {
        let a = ctx.read(data, A);
        if once.swap(true, Ordering::SeqCst) {
            let b = ctx.read(data, B);
            ctx.write(out, A, a + b);
            return;
        }
        hs.pause();
        let caught = catch_unwind(AssertUnwindSafe(|| ctx.read(data, B)));
        assert!(caught.is_err(), "the stale read returned");
        // Every later access unwinds again, even of a stripe already held.
        let again_caught = catch_unwind(AssertUnwindSafe(|| ctx.read(data, A)));
        again.store(again_caught.is_err(), Ordering::SeqCst);
        let _ = catch_unwind(AssertUnwindSafe(|| ctx.write(out, A, 999)));
    });
    s.rt.watch(body, s.trigger.range()).unwrap();
    write_pair(&mut s.rt, data, 1);
    s.rt.reset_stats();

    s.rt.write(s.trigger, 1);
    gate.between(|| write_pair(&mut s.rt, data, 2));
    assert!(matches!(
        s.rt.join(body).unwrap(),
        JoinOutcome::Overlapped | JoinOutcome::Waited
    ));
    assert_eq!(s.rt.read(s.out.at(A)), 4);
    assert!(
        rethrown.load(Ordering::SeqCst),
        "a later access did not unwind"
    );

    let c = s.rt.stats().counters().clone();
    assert_eq!(c.view_restarts, 1);
    assert_eq!(c.worker_executions, 1);
    // Only the second run's store was replayed.
    assert_eq!(c.commit_stores, 1);
}

/// (d) A body reads A, pauses while the main thread moves A, then asks for
/// user state: it restarts before the increment, so the state counts one
/// run. A store beside A in its stripe, to bytes the body did not read,
/// does not restart it; once it holds the state lock the body reads that
/// store, and a later one to a stripe it never touched, both new — as an
/// inline body under the lock would.
#[test]
fn user_state_is_handed_out_only_to_a_valid_view() {
    let mut s = scene(Config::default(), 0u64);
    let (hs, gate) = handshake();
    let paused = Arc::new(AtomicBool::new(false));
    let (data, out) = (s.data, s.out);
    let once = Arc::clone(&paused);
    let counted = s.rt.register("counted", move |ctx| {
        let a = ctx.read(data, A);
        if !once.swap(true, Ordering::SeqCst) {
            hs.pause();
        }
        *ctx.user_mut() += 1;
        ctx.write(out, A, a);
        let beside = ctx.read(data, A + 1);
        ctx.write(out, A + 1, beside);
        let b = ctx.read(data, B);
        ctx.write(out, B, b);
    });
    s.rt.watch(counted, s.trigger.range()).unwrap();
    s.rt.reset_stats();
    s.rt.write(s.trigger, 1);
    gate.between(|| write_pair(&mut s.rt, data, 5));
    assert!(matches!(
        s.rt.join(counted).unwrap(),
        JoinOutcome::Overlapped | JoinOutcome::Waited
    ));
    assert_eq!(
        s.rt.with(|ctx| *ctx.user()),
        1,
        "a stale run touched user state"
    );
    assert_eq!(s.rt.read(s.out.at(A)), 5);
    assert_eq!(s.rt.stats().counters().view_restarts, 1);

    // A store to a byte of A's stripe the body did not read makes the
    // stripe newer than the view, but the bytes it read still match:
    // the body is handed user state without a restart. The store to B
    // comes after it, so a body that read B new and A + 1 old from its
    // copy would see a cut no thread ever saw.
    let stripe = |i: usize| data.at(i).addr().raw() / 64;
    assert_eq!(stripe(A), stripe(A + 1), "the scene's layout moved");
    assert_ne!(stripe(A), stripe(B), "the scene's layout moved");
    paused.store(false, Ordering::SeqCst);
    s.rt.reset_stats();
    s.rt.write(s.trigger, 2);
    gate.between(|| {
        s.rt.with(|ctx| {
            ctx.write(data, A + 1, 6);
            ctx.write(data, B, 6);
        })
    });
    assert!(matches!(
        s.rt.join(counted).unwrap(),
        JoinOutcome::Overlapped | JoinOutcome::Waited
    ));
    assert_eq!(s.rt.with(|ctx| *ctx.user()), 2);
    assert_eq!(s.rt.stats().counters().view_restarts, 0);
    assert_eq!(
        (s.rt.read(s.out.at(A + 1)), s.rt.read(s.out.at(B))),
        (6, 6),
        "the body read a stale copy beside a live read"
    );
}

/// Tthreads and unwatched pairs in (e).
const TTHREADS: usize = 24;
const PAIRS: usize = 6;

/// What a body stores: its input mixed with the pair it read, after a
/// spin that keeps it on a worker while the main thread stores.
fn mix(v: u64, a: u64, b: u64) -> u64 {
    let mut acc = v ^ a.rotate_left(13) ^ b.rotate_left(29);
    for _ in 0..300 {
        acc = std::hint::black_box(acc.rotate_left(7) ^ 0x9E37_79B9_7F4A_7C15);
    }
    acc
}

/// The arrays of one (e) run.
struct Stress {
    cells: TrackedArray<u64>,
    /// Unwatched: pair `m` at elements `2m * LINE` (A) and `(2m + 1) *
    /// LINE` (B), on different stripes, written A then B.
    pairs: TrackedArray<u64>,
    out: TrackedArray<u64>,
}

fn stress(workers: usize, torn: &Arc<AtomicBool>) -> (Runtime<()>, Stress, Vec<TthreadId>) {
    let mut rt = Runtime::new(Config::default().with_workers(workers), ());
    let st = Stress {
        cells: rt.alloc_array::<u64>(TTHREADS).unwrap(),
        pairs: rt.alloc_array::<u64>(2 * PAIRS * LINE).unwrap(),
        out: rt.alloc_array::<u64>(TTHREADS).unwrap(),
    };
    let (cells, pairs, out) = (st.cells, st.pairs, st.out);
    let tts = (0..TTHREADS)
        .map(|i| {
            let torn = Arc::clone(torn);
            let m = i % PAIRS;
            let tt = rt.register(&format!("t{i}"), move |ctx| {
                let v = ctx.read(cells, i);
                // A first: the main thread writes A before B, so only a
                // torn cut can show B ahead of A.
                let a = ctx.read(pairs, 2 * m * LINE);
                let spun = mix(v, a, 0);
                let b = ctx.read(pairs, (2 * m + 1) * LINE);
                if b > a {
                    torn.store(true, Ordering::SeqCst);
                }
                ctx.write(out, i, mix(spun, a, b));
            });
            rt.watch(tt, cells.range_of(i, i + 1)).unwrap();
            tt
        })
        .collect();
    (rt, st, tts)
}

/// Runs `seed`'s schedule of fires, pair stores and joins, then stores the
/// final pairs, fires every tthread once more and joins them all, so each
/// tthread's last run reads the final pairs. Returns the final memory.
fn run_stress(workers: usize, seed: u64, torn: &Arc<AtomicBool>) -> (Vec<u64>, Runtime<()>) {
    let (mut rt, st, tts) = stress(workers, torn);
    let mut state = seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut seq = 0u64;
    let mut store_pair = |rt: &mut Runtime<()>, m: usize| {
        seq += 1;
        rt.with(|ctx| {
            ctx.write(st.pairs, 2 * m * LINE, seq);
            ctx.write(st.pairs, (2 * m + 1) * LINE, seq);
        });
    };
    for _ in 0..400 {
        let r = rnd();
        match r % 10 {
            0..=3 => {
                let burst = 1 + (r >> 8) as usize % 4;
                rt.with(|ctx| {
                    for k in 0..burst {
                        let i = (r >> (16 + 5 * k)) as usize % TTHREADS;
                        ctx.write(st.cells, i, r >> 40);
                    }
                });
            }
            4..=7 => store_pair(&mut rt, (r >> 8) as usize % PAIRS),
            _ => {
                rt.join(tts[(r >> 8) as usize % TTHREADS]).unwrap();
            }
        }
    }
    for m in 0..PAIRS {
        store_pair(&mut rt, m);
    }
    rt.with(|ctx| {
        for i in 0..TTHREADS {
            let v = ctx.read(st.cells, i);
            ctx.write(st.cells, i, v.wrapping_add(1));
        }
    });
    rt.join_all().unwrap();
    let memory = rt.with(|ctx| {
        let mut m = ctx.read_all(st.cells);
        m.extend(ctx.read_all(st.pairs));
        m.extend(ctx.read_all(st.out));
        m
    });
    (memory, rt)
}

/// (e) Twenty seeds at two workers: bodies read unwatched pairs the main
/// thread keeps storing, never see a torn pair, and leave the memory the
/// deferred executor leaves for the same schedule. On a host too busy to
/// run the workers beside the main thread no body overlaps a store, so
/// more seeds run, for up to [`BOUND`], until one has restarted.
#[test]
fn bodies_reading_unwatched_stores_leave_the_deferred_result() {
    let mut restarts = 0;
    let deadline = Instant::now() + BOUND;
    for seed in 1.. {
        if seed > 20 && (restarts > 0 || Instant::now() > deadline) {
            break;
        }
        let torn = Arc::new(AtomicBool::new(false));
        let (want, _) = run_stress(0, seed, &torn);
        let (got, rt) = run_stress(2, seed, &torn);
        assert!(
            !torn.load(Ordering::SeqCst),
            "seed {seed}: a body saw a torn pair"
        );
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
        assert_eq!(
            c.tracked_stores,
            c.silent_stores + c.changing_stores,
            "seed {seed}"
        );
        assert_eq!(c.park_rescues, 0, "seed {seed}");
        restarts += c.view_restarts;
    }
    assert!(
        restarts > 0,
        "no body ever restarted: the stress did not stress"
    );
}

/// Without workers no body runs detached, so nothing restarts.
#[test]
fn a_deferred_runtime_never_restarts() {
    let torn = Arc::new(AtomicBool::new(false));
    let (_, rt) = run_stress(0, 7, &torn);
    assert_eq!(rt.stats().counters().view_restarts, 0);
}
