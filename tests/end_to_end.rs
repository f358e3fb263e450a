//! Cross-crate integration: every workload's DTT implementation must be
//! semantics-preserving under every runtime configuration, and the traced
//! kernel must agree with the baseline.

use dtt::core::{Config, Granularity};
use dtt::workloads::{suite, Scale};

#[test]
fn dtt_preserves_results_deferred() {
    for w in suite(Scale::Test) {
        assert_eq!(
            w.run_baseline(),
            w.run_dtt(Config::default()).digest,
            "{} diverged on the deferred executor",
            w.name()
        );
    }
}

#[test]
fn dtt_preserves_results_parallel() {
    for workers in [1, 2, 4] {
        for w in suite(Scale::Test) {
            assert_eq!(
                w.run_baseline(),
                w.run_dtt(Config::default().with_workers(workers)).digest,
                "{} diverged with {workers} workers",
                w.name()
            );
        }
    }
}

#[test]
fn dtt_preserves_results_under_coarse_granularity() {
    // Coarser triggering over-approximates: more recomputation, same
    // results.
    for g in [Granularity::Word, Granularity::Line] {
        for w in suite(Scale::Test) {
            assert_eq!(
                w.run_baseline(),
                w.run_dtt(Config::default().with_granularity(g)).digest,
                "{} diverged at {g} granularity",
                w.name()
            );
        }
    }
}

#[test]
fn dtt_preserves_results_without_silent_store_suppression() {
    // Without suppression every watched store triggers: maximum
    // recomputation, still the same results.
    for w in suite(Scale::Test) {
        let cfg = Config::default().with_silent_store_suppression(false);
        assert_eq!(
            w.run_baseline(),
            w.run_dtt(cfg).digest,
            "{} diverged without suppression",
            w.name()
        );
    }
}

#[test]
fn dtt_preserves_results_under_queue_pressure() {
    let mut overflows = 0;
    for w in suite(Scale::Test) {
        let cfg = Config::default()
            .with_workers(2)
            .with_queue_capacity(1)
            .with_coalescing(false);
        let run = w.run_dtt(cfg);
        assert_eq!(
            w.run_baseline(),
            run.digest,
            "{} diverged under queue pressure",
            w.name()
        );
        overflows += run.stats.counters().queue_overflows;
    }
    assert!(overflows > 0, "no kernel overflowed its capacity-1 queue");
}

#[test]
fn suppression_off_never_skips_watched_recomputation() {
    for w in suite(Scale::Test) {
        let on = w.run_dtt(Config::default());
        let off = w.run_dtt(Config::default().with_silent_store_suppression(false));
        let execs_on: u64 = on.tthreads.iter().map(|t| t.executions).sum();
        let execs_off: u64 = off.tthreads.iter().map(|t| t.executions).sum();
        assert!(
            execs_off >= execs_on,
            "{}: suppression off should never execute less ({execs_off} < {execs_on})",
            w.name()
        );
    }
}

#[test]
fn coarse_granularity_never_executes_less() {
    for w in suite(Scale::Test) {
        let exact = w.run_dtt(Config::default());
        let line = w.run_dtt(Config::default().with_granularity(Granularity::Line));
        let execs_exact: u64 = exact.tthreads.iter().map(|t| t.executions).sum();
        let execs_line: u64 = line.tthreads.iter().map(|t| t.executions).sum();
        assert!(
            execs_line >= execs_exact,
            "{}: line granularity executed less ({execs_line} < {execs_exact})",
            w.name()
        );
    }
}

#[test]
fn every_workload_skips_something_at_test_scale() {
    for w in suite(Scale::Test) {
        let run = w.run_dtt(Config::default());
        let skips: u64 = run.tthreads.iter().map(|t| t.skips).sum();
        assert!(
            skips > 0,
            "{} never skipped — no redundancy exposed",
            w.name()
        );
    }
}
