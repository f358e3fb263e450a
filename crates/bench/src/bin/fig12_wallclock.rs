//! R-Fig.12 — measured wall-clock speedup of the *software* DTT runtime:
//! baseline vs DTT with the deferred executor and with a 2-worker parallel
//! executor, at reference scale. (The repo benchmark's `kernels` workload
//! in `perf/` is the repeated, baselined version; this binary prints a
//! quick table.)
//!
//! Usage: `fig12_wallclock [--smoke]` — `--smoke` runs the train-scale
//! suite (same code paths, CI-sized, unreliable timings).

use std::time::Instant;

use dtt_bench::{fmt_speedup, geomean, Table};
use dtt_core::Config;
use dtt_workloads::{suite, Scale};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke {
        Scale::Train
    } else {
        Scale::Reference
    };
    let mut table = Table::new(vec![
        "benchmark".into(),
        "baseline ms".into(),
        "dtt ms".into(),
        "dtt 2-worker ms".into(),
        "speedup".into(),
        "parallel speedup".into(),
    ]);
    let mut speedups = Vec::new();
    for w in suite(scale) {
        let t0 = Instant::now();
        let base_digest = w.run_baseline();
        let base = t0.elapsed();

        let t1 = Instant::now();
        let run = w.run_dtt(Config::default());
        let dtt = t1.elapsed();

        let t2 = Instant::now();
        let run_par = w.run_dtt(Config::default().with_workers(2));
        let par = t2.elapsed();

        assert_eq!(base_digest, run.digest, "{}: dtt digest mismatch", w.name());
        assert_eq!(
            base_digest,
            run_par.digest,
            "{}: parallel digest mismatch",
            w.name()
        );

        let s = base.as_secs_f64() / dtt.as_secs_f64();
        let sp = base.as_secs_f64() / par.as_secs_f64();
        speedups.push(s);
        table.row(vec![
            w.name().into(),
            format!("{:.1}", base.as_secs_f64() * 1000.0),
            format!("{:.1}", dtt.as_secs_f64() * 1000.0),
            format!("{:.1}", par.as_secs_f64() * 1000.0),
            fmt_speedup(s),
            fmt_speedup(sp),
        ]);
    }
    let mode = if smoke { ", smoke" } else { "" };
    table.row(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        fmt_speedup(geomean(&speedups)),
        "-".into(),
    ]);
    table.print(&format!(
        "R-Fig.12: measured wall-clock (software runtime{mode})"
    ));
    println!("note: software tracked stores add overhead the proposed hardware would hide;");
    println!("the deferred-executor column is the honest software-DTT comparison.");
}
