//! The pinned chaos regression suite.
//!
//! Every [`FaultPoint`] gets a pinned case that arms it hard enough to be
//! guaranteed to fire (rate `ALWAYS`, small finite budget), so each
//! injection point's failure path is exercised — and its invariants
//! checked — on every CI run. On failure the harness prints the seed and a
//! replay command.
//!
//! Also here: the livelock regression for the bounded commit-retry loop
//! (an unbounded "go around again" loop wedges this test's watchdog), and
//! a graceful-shutdown check under injected scheduling delay.

use std::time::Duration;

use dtt_chaos::{pinned_point_case, run_config, run_many, ChaosConfig};
use dtt_core::fault::{FaultPlan, FaultPoint, ALWAYS, UNLIMITED};
use dtt_core::COMMIT_RETRY_CAP;

/// Runs a pinned single-point case and asserts the point actually fired.
fn check_point(point: FaultPoint, seed: u64) {
    let cfg = pinned_point_case(point, seed);
    let summary = run_config(&cfg).unwrap_or_else(|failure| panic!("{failure}"));
    assert!(
        summary.injections[point as usize] >= 1,
        "pinned case for {} (seed {seed}) never fired its fault; injections: {:?}",
        point.name(),
        summary.injections
    );
}

#[test]
fn pinned_enqueue_faults_hold_invariants() {
    check_point(FaultPoint::Enqueue, 101);
}

#[test]
fn pinned_dequeue_faults_hold_invariants() {
    check_point(FaultPoint::Dequeue, 102);
}

#[test]
fn pinned_body_start_faults_hold_invariants() {
    let cfg = pinned_point_case(FaultPoint::BodyStart, 103);
    let summary = run_config(&cfg).unwrap_or_else(|failure| panic!("{failure}"));
    // Every injected body fault poisons; every observed poison must be
    // repaired. Two faults can hit the same tthread before a join observes
    // it, so repairs is bounded by injections, not equal to them.
    let injected = summary.injections[FaultPoint::BodyStart as usize];
    assert!(injected >= 1);
    assert!(
        (1..=injected).contains(&summary.poison_repairs),
        "expected 1..={injected} poison repairs, saw {}",
        summary.poison_repairs
    );
}

#[test]
fn pinned_commit_replay_faults_hold_invariants() {
    check_point(FaultPoint::CommitReplay, 104);
}

#[test]
fn pinned_retrigger_faults_hold_invariants() {
    let cfg = pinned_point_case(FaultPoint::Retrigger, 105);
    let summary = run_config(&cfg).unwrap_or_else(|failure| panic!("{failure}"));
    assert!(summary.injections[FaultPoint::Retrigger as usize] >= 1);
    // Forced retriggers are absorbed by the bounded retry loop.
    assert!(summary.stats.counters().commit_retries >= 1);
}

#[test]
fn pinned_obs_publish_faults_keep_accounting_exact() {
    // run_config itself asserts `issued == delivered + dropped` after the
    // drain, so passing means dropped publishes never unbalanced it.
    check_point(FaultPoint::ObsPublish, 106);
}

#[test]
fn pinned_worker_schedule_faults_hold_invariants() {
    check_point(FaultPoint::WorkerSchedule, 107);
}

/// The livelock regression: a fault schedule that forces a retrigger after
/// *every* commit, with no fire budget. Before the retry cap existed, the
/// worker's commit→retrigger loop ("go around again") would spin forever
/// and this test would die on the watchdog. With the cap, every execution
/// defers to its join after `COMMIT_RETRY_CAP` retries and the run
/// completes with exhaustions counted.
#[test]
fn unbounded_forced_retriggers_cannot_livelock_a_worker() {
    let mut cfg = ChaosConfig::baseline(108);
    cfg.watchdog = Duration::from_secs(20);
    cfg.plan = FaultPlan::new(108)
        .with_rate(FaultPoint::Retrigger, ALWAYS)
        .with_budget(FaultPoint::Retrigger, UNLIMITED);
    let summary = run_config(&cfg).unwrap_or_else(|failure| panic!("{failure}"));
    let c = summary.stats.counters();
    assert!(
        c.commit_retry_exhausted >= 1,
        "an always-on retrigger fault must exhaust the retry cap at least once"
    );
    assert!(c.commit_retries >= c.commit_retry_exhausted * u64::from(COMMIT_RETRY_CAP));
}

/// Graceful shutdown stays graceful when workers are slowed by injected
/// scheduling delays: the post-run `shutdown` inside the harness must
/// drain within its bound instead of panicking or hanging.
#[test]
fn shutdown_drains_despite_injected_scheduling_delay() {
    let mut cfg = pinned_point_case(FaultPoint::WorkerSchedule, 109);
    cfg.plan = cfg
        .plan
        .with_budget(FaultPoint::WorkerSchedule, 64)
        .with_delay_us(500);
    run_config(&cfg).unwrap_or_else(|failure| panic!("{failure}"));
}

/// The injected dequeue-reject regression: the worker used to discard the
/// requeue's outcome — with the queue full the entry was silently dropped,
/// stranding its tthread in Queued with no pending execution anywhere
/// (a wedge unless a join happened to steal it). The worker must handle
/// the rejected pop explicitly (run the entry itself when the requeue
/// fails) and keep draining.
#[test]
fn pinned_dequeue_rejects_cannot_strand_queued_tthreads() {
    let mut cfg = pinned_point_case(FaultPoint::Dequeue, 110);
    cfg.queue_capacity = 2; // keep the requeue's Full outcome reachable
    cfg.plan = cfg.plan.with_budget(FaultPoint::Dequeue, 64);
    let summary = run_config(&cfg).unwrap_or_else(|failure| panic!("{failure}"));
    assert!(
        summary.injections[FaultPoint::Dequeue as usize] >= 1,
        "pinned dequeue-reject case never fired"
    );
}

/// A dropped worker wakeup — the eventcount epoch bump and the
/// notification both suppressed, a true lost wakeup — must cost at most
/// one park period, never a wedge: the workers' timed park is the rescue
/// path the invariant suite exercises here.
#[test]
fn pinned_wake_drops_cannot_wedge_dispatch() {
    let mut cfg = pinned_point_case(FaultPoint::WakeDrop, 112);
    cfg.plan = cfg.plan.with_budget(FaultPoint::WakeDrop, 64);
    let summary = run_config(&cfg).unwrap_or_else(|failure| panic!("{failure}"));
    assert!(
        summary.injections[FaultPoint::WakeDrop as usize] >= 1,
        "pinned wake-drop case never fired; injections: {:?}",
        summary.injections
    );
}

/// A dropped join-completion broadcast — the lock-free joiner's wake
/// suppressed after a worker finishes its target — must cost at most one
/// joiner park period, never a wedge: the joiner's timed park re-reads the
/// slot status word and observes the completed generation.
#[test]
fn pinned_join_wake_drops_cannot_wedge_joins() {
    check_point(FaultPoint::JoinWake, 114);
}

/// A swallowed cascade raise must never wedge the run or corrupt values:
/// the downstream total tthread still converges via the harness's
/// quiescing mark-dirty join, and the wave conservation identity (checked
/// by the harness on every run) excludes the dropped raises.
#[test]
fn pinned_cascade_drops_hold_invariants() {
    let mut cfg = pinned_point_case(FaultPoint::CascadeDrop, 116);
    cfg.plan = cfg.plan.with_budget(FaultPoint::CascadeDrop, 64);
    let summary = run_config(&cfg).unwrap_or_else(|failure| panic!("{failure}"));
    assert!(
        summary.injections[FaultPoint::CascadeDrop as usize] >= 1,
        "pinned cascade-drop case never fired; injections: {:?}",
        summary.injections
    );
}

/// The rescue-latency budget, measured directly: with *every* worker wake
/// dropped (epoch bump included — a true lost wakeup), a triggered
/// tthread must still execute within two park periods, carried entirely
/// by the worker's timed-park rescue. The `park_rescues` counter proves
/// the rescue path (and not a real wake) did the carrying.
#[test]
fn dropped_wake_is_rescued_within_two_park_periods() {
    use dtt_core::{Config, Runtime, PARK_TIMEOUT};
    use std::time::Instant;

    let plan = FaultPlan::new(115)
        .with_rate(FaultPoint::WakeDrop, ALWAYS)
        .with_budget(FaultPoint::WakeDrop, UNLIMITED);
    let cfg = Config::default().with_workers(1).with_fault_plan(plan);
    let mut rt = Runtime::new(cfg, 0u64);
    let cells = rt.alloc_array::<u64>(1).unwrap();
    let id = rt.register("sum", move |ctx| {
        let v = ctx.read(cells, 0);
        *ctx.user_mut() = v;
    });
    rt.watch(id, cells.range()).unwrap();

    // Synchronize with the worker's park cycle: once `park_timeouts`
    // ticks, the worker has just timed out, found nothing, and is
    // committed to (at most) one more full park period before it scans
    // again. Any trigger landing now must be picked up by that rescue
    // scan — its wake is guaranteed to be dropped. If the worker was
    // descheduled between the tick and its next park, the store is found
    // by that park's first check instead of by its expiry, and no rescue
    // is counted; the round is then repeated on the next tick.
    let mut rescued = false;
    for round in 1..=3u64 {
        let deadline = Instant::now() + Duration::from_secs(10);
        let p0 = rt.stats().counters().park_timeouts;
        while rt.stats().counters().park_timeouts == p0 {
            assert!(
                Instant::now() < deadline,
                "worker never reached a timed park"
            );
            std::thread::yield_now();
        }

        let t0 = Instant::now();
        rt.with(|ctx| ctx.write(cells, 0, 7 * round));
        while rt.stats().counters().worker_executions < round {
            assert!(
                t0.elapsed() < PARK_TIMEOUT * 2,
                "dropped wake was not rescued within two park periods"
            );
            std::thread::yield_now();
        }
        assert_eq!(rt.with(|ctx| *ctx.user()), 7 * round);
        if rt.stats().counters().park_rescues >= 1 {
            rescued = true;
            break;
        }
    }

    assert!(
        rescued,
        "the expiry that found the dropped wake's work must count as a rescue"
    );
    assert_eq!(
        rt.stats().counters().worker_wakes,
        0,
        "every wake was dropped, so none may be counted"
    );
}

/// Randomized smoke: a block of derived seeds must all hold the
/// invariants. The seeds are pinned here so CI is reproducible; the CI
/// chaos job additionally runs a fresh randomized block with the seed
/// echoed for replay.
#[test]
fn randomized_seed_block_holds_invariants() {
    let summaries = run_many(2_000, 8).unwrap_or_else(|failure| panic!("{failure}"));
    assert_eq!(summaries.len(), 8);
}
