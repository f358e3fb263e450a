//! Runs one workload: repetitions of its fixed op count until the time
//! budget is spent, then medians over repetitions. A traced run alternates
//! untraced and traced repetitions (their difference is the tracing
//! overhead), derives the per-layer numbers from spans and program counters,
//! and adds the layer ladder.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use dtt_serve::ServeStatsSnapshot;

use crate::json::Json;
use crate::layers::{self, Metric};
use crate::span::{chrome_trace, self_times_us};
use crate::stats::{geomean, median, percentile, ratio, shorth, sorted, tail, Spread};
use crate::workloads::{add_counters, Rep, RepArgs, Workload};
use crate::{host, out_dir};

/// A run is never summarised from fewer repetitions than this.
const MIN_REPS: usize = 3;
/// Consecutive latency samples per window: the fewest, as a power of two,
/// that leave ten samples beyond a p95: 5 ms of `store_bulk`, 70 to 300 ms
/// of the other workloads.
const WINDOW: usize = 256;
/// Share of a traced run's time budget spent on repetitions; the layer
/// ladder gets the rest, so traced and untraced runs take equally long.
const TRACED_REPS_SHARE: f64 = 0.6;
/// Spans of one tracer written to the chrome trace; self times use them all.
const TRACE_FILE_SPANS: usize = 50_000;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Time budget for the repetitions.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// A fixed repetition count in place of the time budget.
    pub reps: Option<usize>,
}

/// One end-to-end metric of one workload.
#[derive(Debug, Clone)]
pub struct Cell {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How the value was taken ("median of 14 repetitions", "shorth of 56
    /// windows' p50, 256 samples each").
    pub how: String,
    /// Sample count behind the value.
    pub n: usize,
    /// Spread of the per-repetition (or per-window) values.
    pub spread: Spread,
}

#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static Workload,
    pub seed: u64,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub end_to_end: Vec<Cell>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// Counters of one repetition, where they repeat exactly for a seed.
    pub exact_counters: Vec<(&'static str, u64)>,
}

/// A cell whose value is the median of the repetitions' own values.
fn cell(name: &'static str, unit: &'static str, how: String, n: usize, per_rep: &[f64]) -> Cell {
    let spread = Spread::of(per_rep);
    Cell {
        name,
        unit,
        value: spread.median,
        how,
        n,
        spread,
    }
}

/// One repetition's latency samples, reduced as soon as the repetition ends
/// (kept whole, the samples of a run's forty repetitions were a third of
/// `store_bulk`'s peak RSS) to the percentiles of each window of [`WINDOW`]
/// consecutive samples and of the repetition as a whole.
struct Latency {
    samples: usize,
    /// Samples per window: `WINDOW`, or all of a repetition that has fewer
    /// (`--smoke`; `kernels`, whose one sample is the pass).
    window: usize,
    /// `(p50, p95)` of each window.
    windows: Vec<(f64, f64)>,
    /// `(p50, p99)` of the repetition: a p99 takes 1001 samples.
    whole: (f64, f64),
    /// What the percentile rule, walked down from p95 and p99, made of them.
    labels: (&'static str, &'static str),
}

impl Latency {
    fn of(mut samples_us: Vec<f64>) -> Latency {
        let window = WINDOW.min(samples_us.len()).max(1);
        let (mut windows, mut p95_label) = (Vec::new(), "p50");
        // Samples past the last whole window count for the p99 alone; the
        // workloads' op counts leave none.
        for w in samples_us.chunks_exact_mut(window) {
            let s = sorted(w);
            let (label, p95) = tail(s, 95);
            p95_label = label;
            windows.push((percentile(s, 50), p95));
        }
        let s = sorted(&mut samples_us);
        let (p99_label, p99) = tail(s, 99);
        Latency {
            samples: s.len(),
            window,
            windows,
            whole: (percentile(s, 50), p99),
            labels: (p95_label, p99_label),
        }
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let w = args.workload;
    let rep_args = |trace| RepArgs {
        seed: args.seed,
        smoke: args.smoke,
        trace,
    };
    // Dropped before the ladder, whose loops start threads of their own.
    let pinned = if w.single_threaded {
        host::Pinned::to_last_cpu()
    } else {
        None
    };
    let budget = if args.trace {
        args.seconds * TRACED_REPS_SHARE
    } else {
        args.seconds
    };
    let t0 = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut latency: Vec<Latency> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut self_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    loop {
        let mut rep = (w.rep)(&rep_args(false));
        latency.push(Latency::of(std::mem::take(&mut rep.samples_us)));
        plain.push(rep);
        if args.trace {
            let mut rep = (w.rep)(&rep_args(true));
            rep.samples_us = Vec::new();
            if traced.is_empty() {
                let tracers: Vec<_> = rep.tracers.iter().collect();
                let path = out_dir().join(format!("trace-{}.json", w.name));
                if let Err(e) = write_file(&path, &chrome_trace(&tracers, TRACE_FILE_SPANS)) {
                    rep.fail(|| format!("writing {}: {e}", path.display()));
                }
            }
            for tr in rep.tracers.drain(..) {
                for (name, mut us) in self_times_us(tr.spans()) {
                    self_us.entry(name).or_default().append(&mut us);
                }
            }
            traced.push(rep);
        }
        let done = match (args.smoke, args.reps) {
            (true, _) => true,
            (false, Some(n)) => plain.len() >= n,
            // Stop before a round of repetitions that would overrun the budget.
            (false, None) => {
                let elapsed = t0.elapsed().as_secs_f64();
                plain.len() >= MIN_REPS && elapsed + elapsed / plain.len() as f64 > budget
            }
        };
        if done {
            break;
        }
    }

    drop(pinned);

    let peak_rss_mb = host::peak_rss_mb();

    let mut outcome = Outcome {
        workload: w,
        seed: args.seed,
        reps: plain.len(),
        attempted: 0,
        failed: 0,
        first_failure: None,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        exact_counters: Vec::new(),
    };
    for rep in plain.iter().chain(&traced) {
        outcome.attempted += rep.ops;
        outcome.failed += rep.failed;
        if outcome.first_failure.is_none() {
            outcome.first_failure = rep.first_failure.clone();
        }
    }
    // One seed, one op stream; and on the deferred executor, one set of
    // program counters. A count that does not repeat cannot carry a claim.
    let first = &plain[0];
    for (i, rep) in plain.iter().chain(&traced).enumerate().skip(1) {
        let differs = if rep.stream_hash != first.stream_hash {
            Some("op stream".to_string())
        } else if w.single_threaded && rep.counters != first.counters {
            let (a, b) = first
                .counters
                .iter()
                .zip(&rep.counters)
                .find(|(a, b)| a != b)
                .unwrap();
            Some(format!("counter {} ({} then {})", a.0, a.1, b.1))
        } else {
            None
        };
        if let Some(what) = differs {
            outcome.failed += 1;
            outcome.first_failure.get_or_insert(format!(
                "seed {} repetition {i}: {what} differs from repetition 0",
                args.seed
            ));
        }
    }
    if w.single_threaded {
        outcome.exact_counters = first.counters.clone();
    }

    outcome.end_to_end = end_to_end(&plain, &latency, peak_rss_mb);
    if args.trace {
        outcome.per_layer = per_layer(&plain, &traced, &self_us);
        let ladder_seconds = (args.seconds - budget) / if args.smoke { 20.0 } else { 1.0 };
        outcome
            .per_layer
            .extend(layers::ladder(ladder_seconds, args.smoke));
    }
    outcome
}

fn write_file(path: &PathBuf, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn ops_per_s(rep: &Rep) -> f64 {
    rep.ops as f64 / rep.timed_s
}

fn end_to_end(reps: &[Rep], latency: &[Latency], rss: f64) -> Vec<Cell> {
    let n = reps.len();
    let over_reps = format!("median of {n} repetitions");
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();

    // Latency is read per window of consecutive samples. The host has a
    // usual speed, a faster one, and for 5-100 ms at a time a slower one; in
    // its noisy phases the slow bursts reach nine windows in ten, and a
    // percentile of whole repetitions moved by a quarter between runs of one
    // binary. The median is the shorth of the windows' p50s: the usual state.
    // A tail is that median times the first decile of the windows' tail/p50:
    // the ratio is the shape of the program's own latencies, the same at any
    // speed, and the least disturbed windows show it. Windows of one run are
    // equally long, so the percentile rule gives all of them the first one's
    // label.
    let first = &latency[0];
    let windows: Vec<(f64, f64)> = latency.iter().flat_map(|l| l.windows.clone()).collect();
    let wholes: Vec<(f64, f64)> = latency.iter().map(|l| l.whole).collect();
    let p50s: Vec<f64> = windows.iter().map(|w| w.0).collect();
    let p50 = Cell {
        value: shorth(&p50s),
        ..cell(
            "op_p50_us",
            "us",
            format!(
                "shorth of {} windows' p50, {} samples each",
                windows.len(),
                first.window
            ),
            windows.len() * first.window,
            &p50s,
        )
    };
    let tail_cell = |name, label: &str, of: &str, samples: usize, pairs: &[(f64, f64)]| {
        let mut ratios: Vec<f64> = pairs.iter().map(|&(p50, tail)| tail / p50).collect();
        let tails: Vec<f64> = pairs.iter().map(|pair| pair.1).collect();
        let how = format!(
            "op_p50_us x first decile of {} {of}' {label}/p50, {samples} samples each",
            pairs.len()
        );
        Cell {
            value: p50.value * percentile(sorted(&mut ratios), 10),
            ..cell(name, "us", how, pairs.len() * samples, &tails)
        }
    };
    let p95 = tail_cell(
        "op_p95_us",
        first.labels.0,
        "windows",
        first.window,
        &windows,
    );
    let p99 = tail_cell(
        "op_p99_us",
        first.labels.1,
        "repetitions",
        first.samples,
        &wholes,
    );
    let (failed, attempted) = reps
        .iter()
        .fold((0, 0), |(f, a), r| (f + r.failed, a + r.ops));

    let mut cells = vec![
        cell(
            "ops_per_s",
            "op/s",
            over_reps.clone(),
            n,
            &per_rep(&ops_per_s),
        ),
        p50,
        p95,
        p99,
        cell(
            "cpu_us_per_op",
            "us",
            over_reps.clone(),
            n,
            &per_rep(&|r| r.cpu_s * 1e6 / r.ops as f64),
        ),
        cell(
            "peak_rss_mb",
            "MB",
            "VmHWM of the process".into(),
            1,
            &[rss],
        ),
        cell("setup_s", "s", over_reps, n, &per_rep(&|r| r.setup_s)),
        Cell {
            value: ratio(failed, attempted),
            ..cell(
                "failed_frac",
                "ratio",
                format!("{failed} of {attempted} ops"),
                attempted as usize,
                &per_rep(&|r| ratio(r.failed, r.ops)),
            )
        },
    ];
    // Where a non-DTT reference exists: geomean over its parts of median
    // reference time / median DTT time.
    let parts = reps[0].pairs.len();
    if parts > 0 {
        let speedup = |reps: &[&Rep]| {
            let per_part: Vec<f64> = (0..parts)
                .map(|k| {
                    let side = |f: fn(&(f64, f64)) -> f64| {
                        median(&reps.iter().map(|r| f(&r.pairs[k])).collect::<Vec<_>>())
                    };
                    side(|p| p.0) / side(|p| p.1)
                })
                .collect();
            geomean(&per_part)
        };
        let all: Vec<&Rep> = reps.iter().collect();
        let each: Vec<f64> = reps.iter().map(|r| speedup(&[r])).collect();
        let how = format!(
            "geomean over {parts} kernels of median baseline / median DTT time, {n} repetitions"
        );
        cells.push(Cell {
            value: speedup(&all),
            ..cell("speedup_vs_baseline", "ratio", how, n, &each)
        });
    }
    cells
}

/// Per-layer numbers that come from the workload itself: program counters
/// read at the repetition's end, and span self times of the traced
/// repetitions. A layer the workload does not reach reads 0.
fn per_layer(
    plain: &[Rep],
    traced: &[Rep],
    self_us: &BTreeMap<&'static str, Vec<f64>>,
) -> Vec<Metric> {
    let mut counters = Vec::new();
    let mut serve = ServeStatsSnapshot {
        serve_accepts: 0,
        serve_admits: 0,
        serve_sheds: 0,
        serve_responses: 0,
        serve_dropped_conns: 0,
        serve_degraded_reads: 0,
    };
    let mut ops = 0u64;
    for rep in plain {
        add_counters(&mut counters, rep.counters.clone());
        ops += rep.ops;
        if let Some(s) = rep.serve {
            serve.serve_accepts += s.serve_accepts;
            serve.serve_admits += s.serve_admits;
            serve.serve_sheds += s.serve_sheds;
            serve.serve_responses += s.serve_responses;
            serve.serve_dropped_conns += s.serve_dropped_conns;
            serve.serve_degraded_reads += s.serve_degraded_reads;
        }
    }
    let c = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    let frac = |num: &str, den: &str| ratio(c(num), c(den));
    let span_p50 = |name: &str| self_us.get(name).map_or(0.0, |us| median(us));
    let conserved = serve.admission_conserved() && serve.lifecycle_conserved();
    let overhead = 1.0
        - median(&traced.iter().map(ops_per_s).collect::<Vec<_>>())
            / median(&plain.iter().map(ops_per_s).collect::<Vec<_>>());
    vec![
        (
            "mem.silent_frac",
            "ratio",
            frac("silent_stores", "tracked_stores"),
        ),
        (
            "mem.bytes_compared_per_store",
            "B",
            frac("bytes_compared", "tracked_stores"),
        ),
        (
            "filter.page_hit_frac",
            "ratio",
            frac("filter_page_hits", "filter_checks"),
        ),
        (
            "filter.line_hit_frac",
            "ratio",
            frac("filter_line_hits", "filter_checks"),
        ),
        (
            "dispatch.wakes_per_enqueue",
            "ratio",
            frac("worker_wakes", "enqueues"),
        ),
        ("dispatch.parks", "count", c("worker_parks") as f64),
        ("dispatch.park_timeouts", "count", c("park_timeouts") as f64),
        ("dispatch.steals", "count", c("steals") as f64),
        (
            "dispatch.worker_exec_frac",
            "ratio",
            frac("worker_executions", "executions"),
        ),
        (
            "dispatch.waited_join_frac",
            "ratio",
            frac("waited_joins", "joins"),
        ),
        ("runtime.skip_frac", "ratio", frac("skips", "joins")),
        (
            "runtime.commit_conflict_frac",
            "ratio",
            frac("commit_conflicts", "commit_stores"),
        ),
        (
            "runtime.commit_retries",
            "count",
            c("commit_retries") as f64,
        ),
        ("runtime.join_wait_us_p50", "us", span_p50("runtime.join")),
        ("graph.cascades_per_op", "ratio", ratio(c("cascades"), ops)),
        (
            "graph.cutoff_frac",
            "ratio",
            frac("cascade_cutoffs", "cascades"),
        ),
        ("graph.wave_dedups", "count", c("wave_dedups") as f64),
        ("admission.accepts", "count", serve.serve_accepts as f64),
        ("admission.sheds", "count", serve.serve_sheds as f64),
        (
            "admission.degraded",
            "count",
            serve.serve_degraded_reads as f64,
        ),
        (
            "admission.dropped_conns",
            "count",
            serve.serve_dropped_conns as f64,
        ),
        (
            "admission.conserved",
            "count",
            f64::from(u8::from(conserved)),
        ),
        ("client.write_us", "us", span_p50("client.write")),
        ("client.wait_read_us", "us", span_p50("client.wait_read")),
        ("client.decode_us", "us", span_p50("client.decode")),
        ("trace_overhead_frac", "ratio", overhead),
    ]
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The lines a person reads: every metric by name, with unit and `n`.
    pub fn print(&self) {
        println!(
            "workload {}  seed {}  {} repetitions  nproc {}  ({})",
            self.workload.name,
            self.seed,
            self.reps,
            host::nproc(),
            self.workload.shape
        );
        println!("  why: {}", self.workload.why);
        for c in &self.end_to_end {
            println!(
                "  {:<22}{:>14.4} {:<6} {}; min {:.4} max {:.4} iqr {:.4}",
                c.name, c.value, c.unit, c.how, c.spread.min, c.spread.max, c.spread.iqr
            );
        }
        for (name, unit, value) in &self.per_layer {
            println!("  {name:<34}{value:>14.4} {unit}");
        }
        if let Some(first) = &self.first_failure {
            println!(
                "  FAILED {} of {} ops; first: {first}",
                self.failed, self.attempted
            );
        }
    }

    /// Everything measured, as one entry of a result file.
    pub fn detail(&self) -> Json {
        let cells = self.end_to_end.iter().map(|c| {
            let fields = [
                ("value", Json::Num(c.value)),
                ("unit", Json::str(c.unit)),
                ("n", Json::from(c.n as u64)),
                ("min", Json::Num(c.spread.min)),
                ("max", Json::Num(c.spread.max)),
                ("iqr", Json::Num(c.spread.iqr)),
            ];
            (c.name, Json::obj(fields))
        });
        let layer = |&(name, unit, value): &Metric| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        };
        Json::obj([
            ("workload", Json::str(self.workload.name)),
            ("repetitions", Json::from(self.reps as u64)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("end_to_end", Json::obj(cells)),
            ("per_layer", Json::obj(self.per_layer.iter().map(layer))),
            (
                "exact_counters",
                Json::obj(self.exact_counters.iter().map(|&(n, v)| (n, Json::from(v)))),
            ),
        ])
    }

    /// The driver's line: end-to-end metrics of an untraced run, per-layer
    /// metrics of a traced one. Three end-to-end metrics travel in the
    /// result files only: `failed_frac` is always 0 and `speedup_vs_baseline`
    /// exists on `kernels` alone, so neither fits the driver's every-metric-
    /// everywhere-and-never-0 contract (`failed` is on this line already);
    /// and a repetition's p99 hangs on its ten slowest samples, which on a
    /// shared host are the neighbours', not the program's: `op_p99_us` spread
    /// up to 15% over ten runs of one binary where `op_p95_us` spread 4%.
    pub fn contract_line(&self) -> Json {
        let metric = |unit: &str, value: f64| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(&str, Json)> = if self.per_layer.is_empty() {
            self.end_to_end
                .iter()
                .filter(|c| !matches!(c.name, "op_p99_us" | "failed_frac" | "speedup_vs_baseline"))
                .map(|c| (c.name, metric(c.unit, c.value)))
                .collect()
        } else {
            self.per_layer
                .iter()
                .map(|&(n, u, v)| (n, metric(u, v)))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One repetition of four windows: latencies 1..=256 us in each, with
    /// the slowest fifth of every `disturbed` window held up by 1 ms.
    fn repetition(disturbed: &[usize]) -> Latency {
        let samples = (0..4 * WINDOW).map(|i| {
            let us = (i % WINDOW + 1) as f64;
            let held = disturbed.contains(&(i / WINDOW)) && i % WINDOW >= WINDOW * 4 / 5;
            us + if held { 1000.0 } else { 0.0 }
        });
        Latency::of(samples.collect())
    }

    fn latency_cells(latency: &[Latency]) -> (f64, f64, f64) {
        let reps: Vec<Rep> = latency
            .iter()
            .map(|_| Rep {
                ops: 1,
                timed_s: 1.0,
                ..Rep::default()
            })
            .collect();
        let cells = end_to_end(&reps, latency, 1.0);
        let value = |name| cells.iter().find(|c| c.name == name).unwrap().value;
        (value("op_p50_us"), value("op_p95_us"), value("op_p99_us"))
    }

    #[test]
    fn a_tail_is_read_off_the_least_disturbed_windows() {
        let quiet = repetition(&[]);
        assert_eq!(quiet.windows, vec![(128.0, 244.0); 4]);
        assert_eq!(quiet.whole, (128.0, 254.0));
        assert_eq!(quiet.labels, ("p95", "p99"));
        assert_eq!(latency_cells(&[quiet]), (128.0, 244.0, 254.0));

        // Three windows in four disturbed, in two repetitions of three: the
        // quiet tenth still shows the program's own p95 and p99.
        let noisy = [repetition(&[0, 1, 2, 3]), repetition(&[0, 2]), repetition(&[])];
        assert_eq!(noisy[0].windows[0], (128.0, 1244.0));
        assert_eq!(latency_cells(&noisy), (128.0, 244.0, 254.0));

        // A tail that is in every window is the program's, and is reported.
        let slow = [repetition(&[0, 1, 2, 3]), repetition(&[0, 1, 2, 3])];
        assert_eq!(latency_cells(&slow), (128.0, 1244.0, 1254.0));
    }

    #[test]
    fn a_short_repetition_is_one_window() {
        let l = Latency::of((1..=100).map(f64::from).collect());
        assert_eq!((l.samples, l.window), (100, 100));
        assert_eq!(l.windows, vec![(50.0, 90.0)]);
        assert_eq!(l.labels, ("p90", "p90"));
        let pass = Latency::of(vec![7.0]);
        assert_eq!((pass.windows, pass.whole), (vec![(7.0, 7.0)], (7.0, 7.0)));
    }
}
