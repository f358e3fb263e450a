//! `dispatch`: the paper's parallelism benefit. One runtime worker; 64
//! tthreads, each watching one cell on its own cache line, each body a read,
//! a `BODY_STEPS` spin (~7 us) and a tracked write of its result. A round
//! stores 8 cells, the main thread spins `MAIN_STEPS` of its own work (~28 us),
//! joins the 8 and checks their outputs. Bodies are non-trivial on purpose: the
//! result is the overlap, not the wake race (with ~3 us bodies a repetition
//! lands in one of two modes, 70k or 160k op/s, by where the scheduler put the
//! worker).

use std::time::Instant;

use dtt_core::{Config, Runtime, TthreadId, PARK_TIMEOUT};

use super::{spin, Rep, RepArgs, Stopwatch};
use crate::host::Pinned;
use crate::rng::{Fnv, Rng};
use crate::span::Tracer;

const TTHREADS: usize = 64;
/// `u64`s per cache line: cell `i` lives at index `i * LINE`.
const LINE: usize = 8;
const FIRED_PER_ROUND: usize = 8;
const BODY_STEPS: u32 = 5000;
const MAIN_STEPS: u32 = 20000;
/// Rounds per repetition: ~0.6 s on the 2-core reference host.
const ROUNDS: u64 = 4096;
/// Consecutive rounds per latency sample (1024 samples per repetition); the
/// sample is their mean. One round's time hangs on which side won one wake
/// race; the mean of four moves smoothly, and still shows a stall.
const ROUNDS_PER_SAMPLE: u64 = 4;

/// What a body publishes for input `v`: cheap for the main thread to check,
/// while the spin before it is the body's cost.
fn result_of(v: u64) -> u64 {
    v.rotate_left(17) ^ 0x5DEE_CE66_D1CE_4E5B
}

pub fn rep(args: &RepArgs) -> Rep {
    let t0 = Instant::now();
    let mut tr = Tracer::new(t0, 0, args.trace);
    let mut rep = Rep::default();
    let seed = args.seed;

    // The worker keeps the mask its spawner had: the first CPU for it, the
    // last for this thread. Left to the scheduler, one run in thirty had both
    // on one CPU for its whole length -- and read 80k op/s against 50k,
    // because without the cross-CPU wake the parallel path costs less.
    let worker_cpu = Pinned::to_first_cpu();
    let mut rt = Runtime::new(Config::default().with_workers(1), ());
    drop(worker_cpu);
    let _main_cpu = Pinned::to_last_cpu();
    let cells = rt
        .alloc_array::<u64>(TTHREADS * LINE)
        .expect("arena holds 4 KiB");
    let outs = rt
        .alloc_array::<u64>(TTHREADS * LINE)
        .expect("arena holds 4 KiB");
    let tts: Vec<TthreadId> = (0..TTHREADS)
        .map(|i| {
            let tt = rt.register(&format!("body{i}"), move |ctx| {
                let v = ctx.read(cells, i * LINE);
                std::hint::black_box(spin(v, BODY_STEPS));
                ctx.write(outs, i * LINE, result_of(v));
            });
            rt.watch(tt, cells.range_of(i * LINE, i * LINE + 1))
                .expect("cell lies in the array");
            tt
        })
        .collect();

    let mut rng = Rng::new(seed, 3);
    let mut hash = Fnv::default();
    let mut values = [0u64; TTHREADS];
    let mut round = |rt: &mut Runtime<()>, n: u64, tr: &mut Tracer, rep: &mut Rep| {
        tr.next_op();
        tr.begin("round");
        let r = rng.next_u64();
        hash.push(r);
        // Eight distinct tthreads: one start, stride 8.
        let first = r as usize % TTHREADS;
        let fired: [usize; FIRED_PER_ROUND] =
            std::array::from_fn(|j| (first + j * (TTHREADS / FIRED_PER_ROUND)) % TTHREADS);
        for (j, &i) in fired.iter().enumerate() {
            values[i] = values[i].wrapping_add(1 + ((r >> (8 + j)) & 0xFFFF));
        }

        tr.begin("ctx.fire");
        rt.with(|ctx| {
            for &i in &fired {
                ctx.write(cells, i * LINE, values[i]);
            }
        });
        tr.end();
        tr.begin("main.work");
        std::hint::black_box(spin(r, MAIN_STEPS));
        tr.end();
        tr.begin("runtime.join");
        for &i in &fired {
            rt.join(tts[i]).expect("no body panics");
        }
        tr.end();
        tr.begin("verify");
        let got: [u64; FIRED_PER_ROUND] =
            rt.with(|ctx| std::array::from_fn(|j| ctx.read(outs, fired[j] * LINE)));
        for (j, &i) in fired.iter().enumerate() {
            if got[j] != result_of(values[i]) {
                rep.fail(|| {
                    format!(
                        "seed {seed} round {n} tthread {i}: output {:#x} is stale",
                        got[j]
                    )
                });
            }
        }
        tr.end();
        tr.end();
    };

    let rounds = args.ops(ROUNDS, ROUNDS_PER_SAMPLE);
    let warm = (rounds / 20).max(1);
    {
        let mut untraced = Tracer::off();
        for n in 0..warm {
            round(&mut rt, n, &mut untraced, &mut rep);
        }
    }
    let timeouts_before = rt.stats().counters().park_timeouts;
    rep.setup_s = t0.elapsed().as_secs_f64();

    // Every round is timed for the stall check below; samples are means.
    let mut round_us = Vec::with_capacity(rounds as usize);
    let watch = Stopwatch::start();
    let mut last = Instant::now();
    for n in 0..rounds {
        round(&mut rt, warm + n, &mut tr, &mut rep);
        let now = Instant::now();
        round_us.push((now - last).as_secs_f64() * 1e6);
        last = now;
    }
    (rep.timed_s, rep.cpu_s) = watch.stop();

    rep.samples_us = round_us
        .chunks(ROUNDS_PER_SAMPLE as usize)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    rep.ops = rounds * FIRED_PER_ROUND as u64;
    rep.stream_hash = hash.finish();
    rep.counters = rt.stats().fields();
    // A park runs out its timer when nothing fires for `PARK_TIMEOUT`. The
    // loop fires every round, so that takes a round stalled for that long
    // (the host does stall: 50-350 ms, a few times an hour) -- or a lost
    // wake. Timeouts beyond what the stalled rounds explain are lost wakes;
    // half the timer is the margin for a stall that straddles two rounds.
    let timeouts = rep.counter("park_timeouts") - timeouts_before;
    let margin_us = PARK_TIMEOUT.as_secs_f64() * 1e6 / 2.0;
    let explained: u64 = round_us.iter().map(|us| (us / margin_us) as u64).sum();
    if timeouts > explained {
        rep.fail(|| {
            format!("seed {seed}: {timeouts} park timeouts, stalled rounds explain {explained}: a wake was lost")
        });
    }
    rep.tracers.push(tr);
    rep
}
