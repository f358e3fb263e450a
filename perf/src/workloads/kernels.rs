//! `kernels`: the paper's reproduction. One repetition is one pass over the
//! 16 kernels at reference scale: every kernel's plain baseline, then every
//! kernel's deferred DTT run (the timed section). The oracle is digest
//! equality. The suite's inputs are its own; the seed only orders the
//! kernels within a pass.

use std::time::Instant;

use dtt_core::Config;
use dtt_workloads::{suite, Scale};

use super::{add_counters, Rep, RepArgs, Stopwatch};
use crate::rng::{Fnv, Rng};
use crate::span::Tracer;

pub fn rep(args: &RepArgs) -> Rep {
    let t0 = Instant::now();
    let mut tr = Tracer::new(t0, 0, args.trace);
    let mut rep = Rep::default();
    let seed = args.seed;

    let kernels = suite(if args.smoke {
        Scale::Train
    } else {
        Scale::Reference
    });
    // Fisher-Yates over the kernel indices.
    let mut rng = Rng::new(seed, 5);
    let mut hash = Fnv::default();
    let mut order: Vec<usize> = (0..kernels.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order.iter().for_each(|&k| hash.push(k as u64));

    let mut baseline = vec![(0.0f64, 0u64); kernels.len()];
    tr.begin("pass.baseline");
    for &k in &order {
        tr.next_op();
        tr.begin("kernel.baseline");
        let t = Instant::now();
        let digest = kernels[k].run_baseline();
        baseline[k] = (t.elapsed().as_secs_f64(), digest);
        tr.end();
    }
    tr.end();
    rep.setup_s = t0.elapsed().as_secs_f64();

    let mut dtt_s = vec![0.0f64; kernels.len()];
    let mut stats = vec![None; kernels.len()];
    let watch = Stopwatch::start();
    tr.begin("pass.dtt");
    for &k in &order {
        tr.next_op();
        tr.begin("kernel.dtt");
        let t = Instant::now();
        let run = kernels[k].run_dtt(Config::default());
        dtt_s[k] = t.elapsed().as_secs_f64();
        tr.end();
        if run.digest != baseline[k].1 {
            rep.fail(|| {
                format!(
                    "seed {seed} kernel {}: DTT digest {:#x} != baseline {:#x}",
                    kernels[k].name(),
                    run.digest,
                    baseline[k].1
                )
            });
        }
        stats[k] = Some(run.stats);
    }
    tr.end();
    (rep.timed_s, rep.cpu_s) = watch.stop();

    rep.ops = kernels.len() as u64;
    rep.samples_us.push(rep.timed_s * 1e6);
    rep.stream_hash = hash.finish();
    for s in stats.into_iter().flatten() {
        add_counters(&mut rep.counters, s.fields());
    }
    rep.pairs = baseline
        .iter()
        .zip(&dtt_s)
        .map(|(&(b, _), &d)| (b, d))
        .collect();
    rep.tracers.push(tr);
    rep
}
