//! `store_scalar`: uniform-random scalar accesses over 256 regions of 64
//! `u64`, the even regions each watched by a SUM tthread. Per batch of 4096
//! accesses inside one `Runtime::with`: 1/8 changing stores, 4/8 silent
//! stores (80% of stores silent, the paper's regime), 3/8 loads; then 8
//! random tthreads are joined and their sums checked against a shadow array.

use std::time::Instant;

use dtt_core::{Config, Runtime, TrackedArray, TthreadId};

use super::{Rep, RepArgs, Stopwatch};
use crate::rng::{Fnv, Rng};
use crate::span::Tracer;

const REGIONS: usize = 256;
const REGION_LEN: usize = 64;
const CELLS: usize = REGIONS * REGION_LEN;
const BATCH: u64 = 4096;
const JOINS_PER_BATCH: usize = 8;
/// Batches per latency sample (~0.5 ms, 1024 samples per repetition): a
/// single batch is ~100 us, short enough that its tail measures the host's
/// interrupts, not the program.
const BATCHES_PER_SAMPLE: u64 = 4;
/// Accesses per repetition: ~0.5 s on the 2-core reference host.
const ACCESSES: u64 = 1 << 24;

/// The plain model: the array itself and the sum of each watched region.
struct Shadow {
    cells: Vec<u64>,
    sums: Vec<u64>,
}

struct Bench {
    rt: Runtime<Vec<u64>>,
    arr: TrackedArray<u64>,
    tts: Vec<TthreadId>,
    shadow: Shadow,
    rng: Rng,
    hash: Fnv,
    seed: u64,
}

impl Bench {
    fn build(seed: u64) -> Bench {
        let mut rt = Runtime::new(Config::default(), vec![0u64; REGIONS / 2]);
        let arr = rt.alloc_array::<u64>(CELLS).expect("arena holds 128 KiB");
        let tts = (0..REGIONS / 2)
            .map(|k| {
                let base = 2 * k * REGION_LEN;
                let tt = rt.register(&format!("sum{k}"), move |ctx| {
                    let mut s = 0u64;
                    for i in 0..REGION_LEN {
                        s = s.wrapping_add(ctx.read(arr, base + i));
                    }
                    ctx.user_mut()[k] = s;
                });
                rt.watch(tt, arr.range_of(base, base + REGION_LEN))
                    .expect("region lies in the array");
                tt
            })
            .collect();
        Bench {
            rt,
            arr,
            tts,
            shadow: Shadow {
                cells: vec![0; CELLS],
                sums: vec![0; REGIONS / 2],
            },
            rng: Rng::new(seed, 1),
            hash: Fnv::default(),
            seed,
        }
    }

    /// One batch of accesses, the joins, and the check. `step` is the
    /// batch's index in the repetition, for failure reports.
    fn step(&mut self, step: u64, tr: &mut Tracer, rep: &mut Rep) {
        let Bench {
            rt,
            arr,
            tts,
            shadow,
            rng,
            hash,
            seed,
        } = self;
        let arr = *arr;
        tr.next_op();
        tr.begin("step");

        tr.begin("ctx.store_batch");
        let wrong_loads = rt.with(|ctx| {
            let mut wrong = 0u64;
            for _ in 0..BATCH {
                let r = rng.next_u64();
                hash.push(r);
                let idx = (r >> 8) as usize % CELLS;
                match r & 7 {
                    0 => {
                        let old = shadow.cells[idx];
                        let new = old.wrapping_add(1 + (r >> 40));
                        ctx.write(arr, idx, new);
                        shadow.cells[idx] = new;
                        let region = idx / REGION_LEN;
                        if region.is_multiple_of(2) {
                            let sum = &mut shadow.sums[region / 2];
                            *sum = sum.wrapping_sub(old).wrapping_add(new);
                        }
                    }
                    1..=4 => ctx.write(arr, idx, shadow.cells[idx]),
                    _ => wrong += u64::from(ctx.read(arr, idx) != shadow.cells[idx]),
                }
            }
            wrong
        });
        tr.end();

        let mut joined = [0usize; JOINS_PER_BATCH];
        tr.begin("runtime.join");
        for k in &mut joined {
            *k = rng.below(tts.len() as u64) as usize;
            rt.join(tts[*k]).expect("no tthread is poisoned");
        }
        tr.end();

        tr.begin("verify");
        let wrong_sums = rt.with(|ctx| {
            joined
                .iter()
                .filter(|&&k| ctx.user()[k] != shadow.sums[k])
                .count() as u64
        });
        for _ in 0..wrong_loads + wrong_sums {
            rep.fail(|| {
                format!("seed {seed} batch {step}: {wrong_loads} loads and {wrong_sums} sums differ from the shadow array")
            });
        }
        tr.end();

        tr.end();
    }
}

pub fn rep(args: &RepArgs) -> Rep {
    let t0 = Instant::now();
    let mut tr = Tracer::new(t0, 0, args.trace);
    let mut rep = Rep::default();
    let mut b = Bench::build(args.seed);
    let batches = args.ops(ACCESSES, BATCH * BATCHES_PER_SAMPLE) / BATCH;
    let warm = (batches / 20).max(1);
    {
        let mut untraced = Tracer::off();
        for i in 0..warm {
            b.step(i, &mut untraced, &mut rep);
        }
    }
    rep.setup_s = t0.elapsed().as_secs_f64();

    rep.samples_us
        .reserve((batches / BATCHES_PER_SAMPLE) as usize);
    let watch = Stopwatch::start();
    let mut last = Instant::now();
    for i in 0..batches {
        b.step(warm + i, &mut tr, &mut rep);
        if (i + 1) % BATCHES_PER_SAMPLE == 0 {
            let now = Instant::now();
            rep.samples_us.push((now - last).as_secs_f64() * 1e6);
            last = now;
        }
    }
    (rep.timed_s, rep.cpu_s) = watch.stop();

    rep.ops = batches * BATCH;
    rep.stream_hash = b.hash.finish();
    rep.counters = b.rt.stats().fields();
    rep.tracers.push(tr);
    rep
}
