//! `pipeline` — a 3-stage dataflow pipeline (the multi-stage variant of
//! the R-Fig.12 wall-clock rows).
//!
//! A sensor-style ingest path: raw samples are CLAMPED to a valid range,
//! the clamped stream is folded into per-BUCKET sums, and a PEAK stage
//! tracks the maximum bucket. Each stage is a tthread watching the
//! previous stage's output array, so one raw-sample store walks a
//! three-deep trigger wave through the dependency graph.
//!
//! The stage functions are chosen to shed work at every depth: saturated
//! samples change the input but not the clamp (the wave dies at depth 0),
//! in-range samples ripple into the bucket sums but usually leave the
//! maximum alone (a depth-2 cutoff at PEAK), and repeated samples are
//! silent at the source.

use dtt_core::{Config, Ctx, Runtime, TrackedArray, Triggers, TthreadId};
use dtt_trace::{NoProbe, Probe, Trace, TraceBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::suite::{DttRun, Scale, Workload};
use crate::util::{self, Digest};

const INPUT_BASE: u64 = 0x1000_0000;
const CLAMP_BASE: u64 = 0x2000_0000;
const BUCKET_BASE: u64 = 0x3000_0000;
const PEAK_BASE: u64 = 0x4000_0000;

/// Valid sample range; stores outside it saturate at the clamp stage.
const LO: i64 = 0;
const HI: i64 = 99;

/// The CLAMP → BUCKET → PEAK tthreads over one input array, shared by
/// [`Pipeline`] and [`crate::ServedPipeline`].
pub(crate) struct Stages {
    /// CLAMP, BUCKET and PEAK, in topological order.
    pub(crate) tthreads: [TthreadId; 3],
    /// The one-element output of PEAK.
    pub(crate) peak_cell: TrackedArray<i64>,
}

/// Allocates the stage outputs after `input` and registers the three
/// stages with their watches and outputs, without running them.
///
/// CLAMP and BUCKET recompute only what their triggers say changed: CLAMP
/// one element per changed sample, BUCKET the buckets those samples fall
/// in. On [`Triggers::All`] they rerun in full, as the baseline does after
/// every store.
pub(crate) fn register_stages(
    rt: &mut Runtime<()>,
    input: TrackedArray<i64>,
    buckets: usize,
) -> Stages {
    let (n, b) = (input.len(), buckets);
    let clamped = rt.alloc_array::<i64>(n).expect("arena sized for workload");
    let sums = rt.alloc_array::<i64>(b).expect("arena sized for workload");
    let peak_cell = rt.alloc_array::<i64>(1).expect("arena sized for workload");

    let clamp_tt = rt.register("clamp", move |ctx| {
        let clamp = |ctx: &mut Ctx<'_, ()>, i| {
            let raw = ctx.read(input, i);
            ctx.write(clamped, i, raw.clamp(LO, HI));
        };
        match ctx.triggers() {
            Triggers::All => (0..n).for_each(|i| clamp(ctx, i)),
            Triggers::Ranges(changed) => changed
                .iter()
                .flat_map(|range| input.index_span(range))
                .for_each(|i| clamp(ctx, i)),
        }
    });
    rt.watch(clamp_tt, input.range()).expect("region in arena");
    util::declare_output(rt, clamp_tt, clamped.range());

    let bucket_tt = rt.register("bucket", move |ctx| match ctx.triggers() {
        Triggers::All => {
            let mut acc = vec![0i64; b];
            for i in 0..n {
                acc[i % b] += ctx.read(clamped, i);
            }
            for (j, &s) in acc.iter().enumerate() {
                ctx.write(sums, j, s);
            }
        }
        Triggers::Ranges(changed) => {
            let mut dirty = vec![false; b];
            for i in changed.iter().flat_map(|range| clamped.index_span(range)) {
                dirty[i % b] = true;
            }
            for j in (0..b).filter(|&j| dirty[j]) {
                let s = (j..n).step_by(b).map(|i| ctx.read(clamped, i)).sum();
                ctx.write(sums, j, s);
            }
        }
    });
    rt.watch(bucket_tt, clamped.range())
        .expect("region in arena");
    util::declare_output(rt, bucket_tt, sums.range());

    let peak_tt = rt.register("peak", move |ctx| {
        let mut peak = i64::MIN;
        for j in 0..b {
            peak = peak.max(ctx.read(sums, j));
        }
        ctx.write(peak_cell, 0, peak);
    });
    rt.watch(peak_tt, sums.range()).expect("region in arena");
    util::declare_output(rt, peak_tt, peak_cell.range());

    Stages {
        tthreads: [clamp_tt, bucket_tt, peak_tt],
        peak_cell,
    }
}

/// The pipeline workload instance: initial samples plus store schedule.
#[derive(Debug, Clone)]
pub struct Pipeline {
    samples: usize,
    buckets: usize,
    input0: Vec<i64>,
    /// `(index, value)` raw-sample stores, one per step.
    stores: Vec<(usize, i64)>,
}

impl Pipeline {
    /// Generates the instance for `scale` (deterministic).
    pub fn new(scale: Scale) -> Self {
        let (samples, buckets, steps) = match scale {
            Scale::Test => (96, 8, 50),
            Scale::Train => (256, 8, 400),
            Scale::Reference => (2_048, 16, 2_000),
        };
        let mut rng = StdRng::seed_from_u64(0x5069_7065 + samples as u64);
        // Roughly a third of the initial samples saturate.
        let input0: Vec<i64> = (0..samples).map(|_| rng.gen_range(-60..160)).collect();

        // Store schedule: ~4/10 saturated tweaks (input changes, clamp
        // does not), ~3/10 in-range changes, ~3/10 silent rewrites.
        let mut input = input0.clone();
        let mut stores = Vec::with_capacity(steps);
        for _ in 0..steps {
            let i = rng.gen_range(0..samples);
            let roll: u32 = rng.gen_range(0..10);
            let v = if roll < 4 {
                // A different value on the same side of the same bound as
                // the current one when possible, else push it out of range.
                if input[i] > HI {
                    HI + rng.gen_range(1..=60i64)
                } else if input[i] < LO {
                    LO - rng.gen_range(1..=60i64)
                } else {
                    HI + rng.gen_range(1..=60i64)
                }
            } else if roll < 7 {
                rng.gen_range(LO..=HI)
            } else {
                input[i]
            };
            input[i] = v;
            stores.push((i, v));
        }
        Pipeline {
            samples,
            buckets,
            input0,
            stores,
        }
    }

    /// Number of raw samples.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of steps in the store schedule.
    pub fn steps(&self) -> usize {
        self.stores.len()
    }

    fn bucket_of(&self, i: usize) -> usize {
        i % self.buckets
    }

    /// The baseline/traced kernel: rerun all three stages after every store.
    fn kernel<P: Probe>(&self, p: &mut P, tt_clamp: u32, tt_bucket: u32, tt_peak: u32) -> u64 {
        let (n, b) = (self.samples, self.buckets);
        let mut input = self.input0.clone();
        let mut clamped = vec![0i64; n];
        let mut sums = vec![0i64; b];
        let mut digest = Digest::new();
        for (i, &v) in input.iter().enumerate() {
            util::store_u64(p, 0, INPUT_BASE, i, v as u64);
        }
        // One initial recompute pass (no digest) before the store stream,
        // mirroring the runtime's forced initial mark-dirty joins so the
        // simulator's region-instance counts align with the software
        // runtime's execution counts.
        for store in std::iter::once(None).chain(self.stores.iter().map(Some)) {
            if let Some(&(idx, v)) = store {
                util::store_u64(p, 1, INPUT_BASE, idx, v as u64);
                input[idx] = v;
            }

            // Stage 1: clamp every sample.
            p.region_begin(tt_clamp);
            for i in 0..n {
                let raw = util::load_u64(p, 2, INPUT_BASE, i, input[i] as u64) as i64;
                clamped[i] = raw.clamp(LO, HI);
                util::store_u64(p, 3, CLAMP_BASE, i, clamped[i] as u64);
                p.compute(1);
            }
            p.region_end(tt_clamp);
            p.join(tt_clamp);

            // Stage 2: per-bucket sums.
            p.region_begin(tt_bucket);
            sums.fill(0);
            for i in 0..n {
                let c = util::load_u64(p, 4, CLAMP_BASE, i, clamped[i] as u64) as i64;
                sums[self.bucket_of(i)] += c;
            }
            for (j, &s) in sums.iter().enumerate() {
                util::store_u64(p, 5, BUCKET_BASE, j, s as u64);
            }
            p.compute(n as u64);
            p.region_end(tt_bucket);
            p.join(tt_bucket);

            // Stage 3: peak bucket.
            p.region_begin(tt_peak);
            let mut peak = i64::MIN;
            for (j, &s) in sums.iter().enumerate() {
                let c = util::load_u64(p, 6, BUCKET_BASE, j, s as u64) as i64;
                peak = peak.max(c);
            }
            util::store_u64(p, 7, PEAK_BASE, 0, peak as u64);
            p.compute(b as u64);
            p.region_end(tt_peak);
            p.join(tt_peak);

            if store.is_some() {
                digest.push_u64(peak as u64);
            }
        }
        digest.finish()
    }
}

impl Workload for Pipeline {
    fn name(&self) -> &'static str {
        "pipeline"
    }

    fn spec_inspiration(&self) -> &'static str {
        "3-stage dataflow chain (R-Fig.12 multi-stage variant)"
    }

    fn description(&self) -> &'static str {
        "clamp→bucket→peak tthread chain; saturated and off-peak stores shed downstream stages"
    }

    fn run_baseline(&self) -> u64 {
        self.kernel(&mut NoProbe, 0, 1, 2)
    }

    fn run_dtt(&self, cfg: Config) -> DttRun {
        let mut rt = Runtime::new(cfg, ());
        let input = rt
            .alloc_array::<i64>(self.samples)
            .expect("arena sized for workload");
        rt.with(|ctx| {
            for (i, &v) in self.input0.iter().enumerate() {
                ctx.write(input, i, v);
            }
        });
        let Stages {
            tthreads,
            peak_cell,
        } = register_stages(&mut rt, input, self.buckets);

        for tt in tthreads {
            rt.mark_dirty(tt).expect("registered tthread");
            util::must_join(&mut rt, tt);
        }

        let mut digest = Digest::new();
        for &(idx, v) in &self.stores {
            rt.with(|ctx| ctx.write(input, idx, v));
            for tt in tthreads {
                util::must_join(&mut rt, tt);
            }
            digest.push_u64(rt.with(|ctx| ctx.read(peak_cell, 0)) as u64);
        }
        util::dtt_run_report(&rt, digest.finish())
    }

    fn trace(&self) -> Trace {
        let mut b = TraceBuilder::new();
        let tt_clamp = b.declare_tthread("clamp");
        let tt_bucket = b.declare_tthread("bucket");
        let tt_peak = b.declare_tthread("peak");
        b.declare_watch(tt_clamp, INPUT_BASE, 8 * self.samples as u64);
        b.declare_watch(tt_bucket, CLAMP_BASE, 8 * self.samples as u64);
        b.declare_watch(tt_peak, BUCKET_BASE, 8 * self.buckets as u64);
        self.kernel(&mut b, tt_clamp, tt_bucket, tt_peak);
        b.finish().expect("kernel emits a well-formed trace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtt_core::Config;

    #[test]
    fn dtt_matches_baseline() {
        let w = Pipeline::new(Scale::Test);
        assert_eq!(w.run_baseline(), w.run_dtt(Config::default()).digest);
    }

    #[test]
    fn dtt_matches_baseline_parallel() {
        let w = Pipeline::new(Scale::Test);
        let base = w.run_baseline();
        assert_eq!(base, w.run_dtt(Config::default().with_workers(2)).digest);
    }

    #[test]
    fn waves_cascade_and_cut_off() {
        let w = Pipeline::new(Scale::Test);
        let run = w.run_dtt(Config::default());
        let c = run.stats.counters();
        assert!(c.cascades > 0, "in-range stores must ripple downstream");
        assert!(
            c.cascade_cutoffs > 0,
            "off-peak bucket changes must cut off at PEAK"
        );
        assert_eq!(
            c.cascades,
            c.cascade_enqueues + c.cascade_coalesced + c.cascade_cutoffs,
            "wave conservation"
        );
    }

    #[test]
    fn trace_is_well_formed() {
        let w = Pipeline::new(Scale::Test);
        let tr = w.trace();
        assert_eq!(
            tr.tthread_names(),
            &[
                "clamp".to_string(),
                "bucket".to_string(),
                "peak".to_string()
            ]
        );
        assert_eq!(tr.watches().len(), 3);
        assert!(tr.instructions() > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            Pipeline::new(Scale::Test).run_baseline(),
            Pipeline::new(Scale::Test).run_baseline()
        );
    }
}
