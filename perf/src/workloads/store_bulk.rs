//! `store_bulk`: one 8192-`u64` array watched whole by a SUM tthread that
//! loads it with `read_all_into`. Each round stores the full array with
//! `write_slice`; 3 rounds in 4 are fully silent, every 4th changes one
//! element in each 64. `join` after every round, then check the sum. The
//! median round is the skip path, the p99 round the recompute path.

use std::time::Instant;

use dtt_core::{Config, Runtime};

use super::{Rep, RepArgs, Stopwatch};
use crate::rng::{Fnv, Rng};
use crate::span::Tracer;

const LEN: usize = 8192;
const STRIDE: usize = 64;
/// Rounds per repetition: ~0.5 s on the 2-core reference host.
const ROUNDS: u64 = 32_000;

/// The tthread's scratch buffer and its published sum.
struct User {
    scratch: Vec<u64>,
    sum: u64,
}

pub fn rep(args: &RepArgs) -> Rep {
    let t0 = Instant::now();
    let mut tr = Tracer::new(t0, 0, args.trace);
    let mut rep = Rep::default();
    let seed = args.seed;

    let user = User {
        scratch: Vec::with_capacity(LEN),
        sum: 0,
    };
    let mut rt = Runtime::new(Config::default(), user);
    let arr = rt.alloc_array::<u64>(LEN).expect("arena holds 64 KiB");
    let tt = rt.register("sum", move |ctx| {
        let mut buf = std::mem::take(&mut ctx.user_mut().scratch);
        ctx.read_all_into(arr, &mut buf);
        let sum = buf.iter().fold(0u64, |s, &v| s.wrapping_add(v));
        let user = ctx.user_mut();
        user.scratch = buf;
        user.sum = sum;
    });
    rt.watch(tt, arr.range()).expect("range lies in the array");

    let mut rng = Rng::new(seed, 2);
    let mut hash = Fnv::default();
    let mut values = vec![0u64; LEN];
    let mut model_sum = 0u64;
    let mut round = |i: u64, tr: &mut Tracer, rep: &mut Rep| {
        tr.next_op();
        tr.begin("round");
        if i % 4 == 3 {
            for block in values.chunks_mut(STRIDE) {
                let r = rng.next_u64();
                hash.push(r);
                let cell = &mut block[r as usize % STRIDE];
                let new = cell.wrapping_add(1 + (r >> 40));
                model_sum = model_sum.wrapping_sub(*cell).wrapping_add(new);
                *cell = new;
            }
        }
        tr.begin("ctx.write_slice");
        rt.with(|ctx| ctx.write_slice(arr, 0, &values));
        tr.end();
        tr.begin("runtime.join");
        rt.join(tt).expect("the tthread is never poisoned");
        tr.end();
        tr.begin("verify");
        let got = rt.with(|ctx| ctx.user().sum);
        if got != model_sum {
            rep.fail(|| format!("seed {seed} round {i}: sum {got} != model {model_sum}"));
        }
        tr.end();
        tr.end();
    };

    let rounds = args.ops(ROUNDS, 4);
    let warm = (rounds / 20).max(4) / 4 * 4;
    {
        let mut untraced = Tracer::off();
        for i in 0..warm {
            round(i, &mut untraced, &mut rep);
        }
    }
    rep.setup_s = t0.elapsed().as_secs_f64();

    rep.samples_us.reserve(rounds as usize);
    let watch = Stopwatch::start();
    let mut last = Instant::now();
    for i in 0..rounds {
        round(warm + i, &mut tr, &mut rep);
        let now = Instant::now();
        rep.samples_us.push((now - last).as_secs_f64() * 1e6);
        last = now;
    }
    (rep.timed_s, rep.cpu_s) = watch.stop();

    rep.ops = rounds * LEN as u64;
    rep.stream_hash = hash.finish();
    rep.counters = rt.stats().fields();
    rep.tracers.push(tr);
    rep
}
