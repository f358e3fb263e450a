//! Chaos harness for the DTT runtime.
//!
//! Runs a counter-conservation workload under seeded, randomized fault
//! schedules (see [`dtt_core::fault`]) and asserts global invariants after
//! every run:
//!
//! * **value conservation** — after joins (with poison/timeout repair),
//!   every tthread's cached sum equals the sum recomputed directly from
//!   tracked memory: executions are exactly-once with respect to the data;
//! * **changed-set coverage** — a `mirror` tthread that copies only the
//!   ranges its `ctx.triggers()` names equals the cells at quiesce, with
//!   no `mark_dirty` or `force` to help it: every changing store reached a
//!   run of it, and a run that panicked or overran gave its ranges back as
//!   `All`;
//! * **counter conservation** — the runtime's counters balance (stores
//!   split into silent + changing, executions into inline + worker +
//!   helped, no timeout counts without a deadline);
//! * **no poison without a panic** — a poisoned tthread implies an
//!   injected body fault (the workload bodies never panic on their own);
//! * **exact observability accounting** — `issued == delivered + dropped`
//!   at the quiescent drain, even with injected publish drops;
//! * **the runtime never wedges** — every run finishes inside a watchdog
//!   deadline, and a graceful [`dtt_core::runtime::Runtime::shutdown`]
//!   succeeds afterwards.
//!
//! A failing run reports its seed plus a copy-paste replay command, and
//! [`shrink`] reduces the fault schedule to a minimal set of armed points
//! (and a minimal op count) that still reproduces the failure.
//!
//! The [`serve`] module applies the same discipline to the network
//! front-end's *request* lifecycle: seeded conn-drop/stall/overflow
//! schedules against a live `dtt-serve` server, with request-conservation
//! invariants, a watchdog, and its own shrinker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve;

use std::fmt;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use dtt_core::fault::{FaultPlan, FaultPoint, ALWAYS};
use dtt_core::{Config, Ctx, Error, Runtime, StatsSnapshot, Triggers};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tracked cells summed by each tthread.
const SLICE: usize = 8;
/// Cap on repair attempts per tthread before the run is declared stuck.
const MAX_REPAIRS: usize = 100;

/// One chaos case: workload shape plus the fault schedule, fully derived
/// from a seed (see [`ChaosConfig::from_seed`]) so every case is
/// replayable from one integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// The seed this case was derived from (also seeds the fault plan and
    /// the workload's store sequence).
    pub seed: u64,
    /// Worker threads (always at least one — chaos targets the parallel
    /// executor).
    pub workers: usize,
    /// Pending-queue capacity (small, to exercise overflow paths).
    pub queue_capacity: usize,
    /// Number of sum tthreads, each watching its own slice of cells.
    pub tthreads: usize,
    /// Tracked stores the driver issues.
    pub ops: usize,
    /// Optional per-body deadline.
    pub body_deadline: Option<Duration>,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Wall-clock budget for the whole run; exceeding it is itself an
    /// invariant failure ("the runtime wedged").
    pub watchdog: Duration,
}

impl ChaosConfig {
    /// Derives a randomized case from `seed`. Every armed fault point gets
    /// a finite fire budget so schedules always let the run make progress.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new(seed).with_delay_us(rng.gen_range(1..=50u32));
        // Arm roughly half the points, at a 10–30% fire rate.
        let mut arming = || {
            (rng.gen_range(0..2u32) == 0)
                .then(|| (rng.gen_range(6_553..=19_660u16), rng.gen_range(4..=32u32)))
        };
        // Randomize over the runtime-core points only: the serve-layer
        // points (`FaultPoint::SERVE`) are never probed by this harness's
        // workload.
        for point in FaultPoint::CORE {
            if let Some((rate, budget)) = arming() {
                plan = plan.with_rate(point, rate).with_budget(point, budget);
            }
        }
        // Discarded draw (the retired overflow policy) keeps every seed's case.
        let _ = rng.gen_range(0..3u32);
        ChaosConfig {
            seed,
            workers: rng.gen_range(1..=4usize),
            queue_capacity: rng.gen_range(2..=8usize),
            tthreads: rng.gen_range(2..=5usize),
            ops: rng.gen_range(200..=600usize),
            body_deadline: None,
            plan,
            watchdog: Duration::from_secs(30),
        }
    }

    /// A quiet baseline case (no faults armed) with the given seed.
    pub fn baseline(seed: u64) -> Self {
        ChaosConfig {
            seed,
            workers: 2,
            queue_capacity: 4,
            tthreads: 3,
            ops: 400,
            body_deadline: None,
            plan: FaultPlan::new(seed),
            watchdog: Duration::from_secs(30),
        }
    }

    fn describe(&self) -> String {
        let armed: Vec<String> = self
            .plan
            .armed_points()
            .into_iter()
            .map(|p| {
                format!(
                    "{}(rate={},budget={})",
                    p.name(),
                    self.plan.rate(p),
                    self.plan.budget(p)
                )
            })
            .collect();
        format!(
            "workers={} queue={} tthreads={} ops={} armed=[{}]",
            self.workers,
            self.queue_capacity,
            self.tthreads,
            self.ops,
            armed.join(", ")
        )
    }
}

/// What a successful chaos run observed.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The case's seed.
    pub seed: u64,
    /// Final runtime counter snapshot.
    pub stats: StatsSnapshot,
    /// Per-[`FaultPoint`] injected-fault counts.
    pub injections: [u64; FaultPoint::COUNT],
    /// Poisoned tthreads repaired (clear + force) during the run.
    pub poison_repairs: u64,
    /// Timed-out tthreads repaired during the run.
    pub timeout_repairs: u64,
}

impl RunSummary {
    /// One-line human summary.
    pub fn line(&self) -> String {
        let c = self.stats.counters();
        format!(
            "seed {:>4}: ok | stores {} ({} silent) | exec {} ({} worker) | \
             retries {} (exhausted {}) | restarts {} | overflows {} | cascades {} ({} cutoff) | \
             injected {} | repaired {}p/{}t",
            self.seed,
            c.tracked_stores,
            c.silent_stores,
            c.executions,
            c.worker_executions,
            c.commit_retries,
            c.commit_retry_exhausted,
            c.view_restarts,
            c.queue_overflows,
            c.cascades,
            c.cascade_cutoffs,
            self.injections.iter().sum::<u64>(),
            self.poison_repairs,
            self.timeout_repairs,
        )
    }
}

/// A chaos invariant violation, carrying everything needed to replay it.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The failing case's seed.
    pub seed: u64,
    /// Which invariant broke, and how.
    pub message: String,
    /// The full failing case (feed to [`shrink`] for a minimal schedule).
    pub config: ChaosConfig,
}

impl ChaosFailure {
    /// The copy-paste command that replays this failure.
    pub fn replay_command(&self) -> String {
        format!("cargo run -p dtt-cli -- chaos --seed {}", self.seed)
    }
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chaos: seed {} FAILED: {}", self.seed, self.message)?;
        writeln!(f, "  case: {}", self.config.describe())?;
        write!(f, "  replay: {}", self.replay_command())
    }
}

impl std::error::Error for ChaosFailure {}

/// Runs the case derived from `seed` under the watchdog.
///
/// # Errors
///
/// Returns a [`ChaosFailure`] naming the violated invariant.
pub fn run_seed(seed: u64) -> Result<RunSummary, Box<ChaosFailure>> {
    run_config(&ChaosConfig::from_seed(seed))
}

/// Runs `runs` consecutive seeds starting at `base_seed`, stopping at the
/// first failure.
///
/// # Errors
///
/// Returns the first [`ChaosFailure`].
pub fn run_many(base_seed: u64, runs: usize) -> Result<Vec<RunSummary>, Box<ChaosFailure>> {
    (0..runs)
        .map(|i| run_seed(base_seed.wrapping_add(i as u64)))
        .collect()
}

/// Runs one explicit case under its watchdog. A run that does not finish
/// in time is reported as a wedge (the stuck worker thread is leaked — the
/// process is already compromised at that point).
///
/// # Errors
///
/// Returns a [`ChaosFailure`] naming the violated invariant.
pub fn run_config(cfg: &ChaosConfig) -> Result<RunSummary, Box<ChaosFailure>> {
    let (tx, rx) = mpsc::channel();
    let inner_cfg = cfg.clone();
    let worker = thread::spawn(move || {
        let _ = tx.send(run_inner(&inner_cfg));
    });
    match rx.recv_timeout(cfg.watchdog) {
        Ok(result) => {
            let _ = worker.join();
            result.map_err(|message| {
                Box::new(ChaosFailure {
                    seed: cfg.seed,
                    message,
                    config: cfg.clone(),
                })
            })
        }
        Err(_) => Err(Box::new(ChaosFailure {
            seed: cfg.seed,
            message: format!(
                "wedged: the run did not finish within the {:?} watchdog",
                cfg.watchdog
            ),
            config: cfg.clone(),
        })),
    }
}

/// Shrinks a failing case to a minimal one that still fails, using the
/// given failure predicate: greedily disarms fault points and halves the
/// op count while the failure reproduces, to a fixpoint.
pub fn shrink_with(cfg: &ChaosConfig, fails: &dyn Fn(&ChaosConfig) -> bool) -> ChaosConfig {
    let mut current = cfg.clone();
    loop {
        let mut progressed = false;
        for point in FaultPoint::ALL {
            if current.plan.rate(point) == 0 {
                continue;
            }
            let mut candidate = current.clone();
            candidate.plan = candidate.plan.clone().with_rate(point, 0);
            if fails(&candidate) {
                current = candidate;
                progressed = true;
            }
        }
        if current.ops > 50 {
            let mut candidate = current.clone();
            candidate.ops /= 2;
            if fails(&candidate) {
                current = candidate;
                progressed = true;
            }
        }
        if !progressed {
            return current;
        }
    }
}

/// Shrinks a failing case by re-running candidates with [`run_config`].
/// Expensive when the failure is a wedge (each reproducing candidate costs
/// a watchdog timeout).
pub fn shrink(cfg: &ChaosConfig) -> ChaosConfig {
    shrink_with(cfg, &|candidate| run_config(candidate).is_err())
}

/// The actual run: build the runtime, drive the workload, check every
/// invariant. Returns the violated invariant as an error string.
fn run_inner(cfg: &ChaosConfig) -> Result<RunSummary, String> {
    let mut rt_cfg = Config::default()
        .with_workers(cfg.workers)
        .with_queue_capacity(cfg.queue_capacity)
        .with_observability(true)
        .with_fault_plan(cfg.plan.clone());
    if let Some(deadline) = cfg.body_deadline {
        rt_cfg = rt_cfg.with_body_deadline(deadline);
    }

    // User state: one cached sum per tthread, plus the grand total cached
    // by the cascade-stage tthread in the last slot.
    let mut rt = Runtime::new(rt_cfg, vec![0u64; cfg.tthreads + 1]);
    let mut slices = Vec::with_capacity(cfg.tthreads);
    let mut ids = Vec::with_capacity(cfg.tthreads);
    // Each sum tthread publishes its sum into this tracked array, which a
    // downstream `total` tthread watches: every changing sum commit raises
    // it as a cascade wave unit, exercising the incremental-graph path
    // (and [`FaultPoint::CascadeDrop`] when armed).
    let sums = rt
        .alloc_array::<u64>(cfg.tthreads)
        .map_err(|e| format!("alloc failed: {e}"))?;
    for g in 0..cfg.tthreads {
        let cells = rt
            .alloc_array::<u64>(SLICE)
            .map_err(|e| format!("alloc failed: {e}"))?;
        let id = rt.register(&format!("sum{g}"), move |ctx| {
            let mut acc = 0u64;
            for i in 0..SLICE {
                acc = acc.wrapping_add(ctx.read(cells, i));
            }
            ctx.write(sums, g, acc);
            ctx.user_mut()[g] = acc;
        });
        rt.watch(id, cells.range())
            .map_err(|e| format!("watch failed: {e}"))?;
        slices.push(cells);
        ids.push(id);
    }
    // The mirror copies only what its triggers say changed, so a range
    // the changed set lost would leave it stale for good.
    let mirror = rt
        .alloc_array::<u64>(cfg.tthreads * SLICE)
        .map_err(|e| format!("alloc failed: {e}"))?;
    let watched = slices.clone();
    let mirror_id = rt.register("mirror", move |ctx| {
        let copy = |ctx: &mut Ctx<'_, Vec<u64>>, g: usize, i: usize| {
            let v = ctx.read(watched[g], i);
            ctx.write(mirror, g * SLICE + i, v);
        };
        for (g, &cells) in watched.iter().enumerate() {
            match ctx.triggers() {
                Triggers::All => (0..SLICE).for_each(|i| copy(ctx, g, i)),
                Triggers::Ranges(changed) => changed
                    .iter()
                    .flat_map(|range| cells.index_span(range))
                    .for_each(|i| copy(ctx, g, i)),
            }
        }
    });
    for cells in &slices {
        rt.watch(mirror_id, cells.range())
            .map_err(|e| format!("watch failed: {e}"))?;
    }
    let total_slot = cfg.tthreads;
    let total_n = cfg.tthreads;
    let total_id = rt.register("total", move |ctx| {
        let mut acc = 0u64;
        for g in 0..total_n {
            acc = acc.wrapping_add(ctx.read(sums, g));
        }
        ctx.user_mut()[total_slot] = acc;
    });
    rt.watch(total_id, sums.range())
        .map_err(|e| format!("watch failed: {e}"))?;

    let mut poison_repairs = 0u64;
    let mut timeout_repairs = 0u64;

    // Drive: random small-domain stores (small values make silent stores
    // common), with occasional mid-run joins to exercise every outcome.
    // The driver yields between stores — a hot store loop outruns worker
    // wakeup entirely and every execution degenerates to inline-at-join,
    // leaving the worker fault paths unexercised.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0FF_EE00);
    for op in 0..cfg.ops {
        let g = rng.gen_range(0..cfg.tthreads);
        let i = rng.gen_range(0..SLICE);
        let v = rng.gen_range(0..4u64);
        let cells = slices[g];
        rt.with(|ctx| ctx.write(cells, i, v));
        if rng.gen_range(0..8u32) == 0 {
            repair_join(&mut rt, ids[g], &mut poison_repairs, &mut timeout_repairs)?;
        }
        if op % 32 == 31 {
            thread::sleep(Duration::from_micros(200));
        } else {
            thread::yield_now();
        }
    }

    // Quiesce the mirror first, with neither `mark_dirty` nor `force`
    // (both hand it `All`): each round makes one final changing store
    // (values are below 4, so `^ 4` always changes) and joins. A failure
    // is cleared and answered with another round, so only the rule that a
    // discarded run's ranges come back as `All` can heal it.
    let last = slices[0];
    for round in 0.. {
        if round == MAX_REPAIRS {
            return Err(format!("mirror unrepairable after {MAX_REPAIRS} attempts"));
        }
        rt.with(|ctx| {
            let v = ctx.read(last, 0);
            ctx.write(last, 0, v ^ 4);
        });
        match rt.join(mirror_id) {
            Ok(_) => break,
            Err(Error::TthreadPoisoned(_)) => {
                poison_repairs += 1;
                rt.clear_poison(mirror_id).map_err(|e| e.to_string())?;
            }
            Err(Error::TthreadTimedOut(_)) => {
                timeout_repairs += 1;
                rt.clear_timeout(mirror_id).map_err(|e| e.to_string())?;
            }
            Err(e) => return Err(format!("join(mirror) failed: {e}")),
        }
    }
    // Then every sum tthread joined (repairing injected poison/timeouts),
    // then the cascade-stage total. The explicit mark-dirty is the
    // documented convergence path when an armed
    // [`FaultPoint::CascadeDrop`] swallowed the raise that would have made
    // the final join run it.
    for &id in &ids {
        repair_join(&mut rt, id, &mut poison_repairs, &mut timeout_repairs)?;
    }
    rt.mark_dirty(total_id)
        .map_err(|e| format!("mark_dirty(total) failed: {e}"))?;
    repair_join(&mut rt, total_id, &mut poison_repairs, &mut timeout_repairs)?;

    // Invariant: value conservation. Each cached sum equals the sum
    // recomputed straight from tracked memory.
    for (g, (&id, &cells)) in ids.iter().zip(&slices).enumerate() {
        let (expected, actual) = rt.with(|ctx| {
            let mut sum = 0u64;
            for i in 0..SLICE {
                sum = sum.wrapping_add(ctx.read(cells, i));
            }
            (sum, ctx.user()[g])
        });
        if expected != actual {
            return Err(format!(
                "value conservation violated for {id}: cached sum {actual} != tracked sum {expected}"
            ));
        }
    }
    // Cascade-stage value conservation: the total recomputed from the
    // tracked per-tthread sums must match the cached grand total.
    {
        let n = cfg.tthreads;
        let (expected, actual) = rt.with(|ctx| {
            let mut acc = 0u64;
            for g in 0..n {
                acc = acc.wrapping_add(ctx.read(sums, g));
            }
            (acc, ctx.user()[n])
        });
        if expected != actual {
            return Err(format!(
                "cascade value conservation violated: cached total {actual} != tracked total {expected}"
            ));
        }
    }

    // Invariant: changed-set coverage.
    let (cells, mirrored) = rt.with(|ctx| {
        let cells: Vec<u64> = slices.iter().flat_map(|&c| ctx.read_all(c)).collect();
        (cells, ctx.read_all(mirror))
    });
    if let Some(i) = (0..cells.len()).find(|&i| cells[i] != mirrored[i]) {
        return Err(format!(
            "changed-set coverage violated: mirror[{i}] = {} but the cell holds {}",
            mirrored[i], cells[i]
        ));
    }

    let injections = rt.fault_injections();
    let stats = rt.stats();
    let c = stats.counters();

    // Invariant: counter conservation.
    if c.tracked_stores != c.silent_stores + c.changing_stores {
        return Err(format!(
            "counter conservation violated: tracked_stores {} != silent {} + changing {}",
            c.tracked_stores, c.silent_stores, c.changing_stores
        ));
    }
    if c.executions != c.inline_executions + c.worker_executions + c.helped_executions {
        return Err(format!(
            "counter conservation violated: executions {} != inline {} + worker {} + helped {}",
            c.executions, c.inline_executions, c.worker_executions, c.helped_executions
        ));
    }
    if cfg.workers == 0 && c.park_timeouts != 0 {
        return Err(format!(
            "park_timeouts is {} with no workers configured",
            c.park_timeouts
        ));
    }
    if cfg.workers == 0 && c.view_restarts != 0 {
        return Err(format!(
            "view_restarts is {} with no workers configured: no body ran detached",
            c.view_restarts
        ));
    }
    if c.park_rescues > c.park_timeouts {
        return Err(format!(
            "park_rescues {} exceeds park_timeouts {}: a rescue is a timeout",
            c.park_rescues, c.park_timeouts
        ));
    }
    if cfg.body_deadline.is_none() && c.body_timeouts != 0 {
        return Err(format!(
            "body_timeouts is {} with no deadline configured",
            c.body_timeouts
        ));
    }
    // Invariant: wave conservation. Every cascade wave unit is a downstream
    // activation, a coalesce, or a terminal cutoff — dropped raises
    // (CascadeDrop) and per-epoch dedups are excluded on both sides.
    if c.cascades != c.cascade_enqueues + c.cascade_coalesced + c.cascade_cutoffs {
        return Err(format!(
            "wave conservation violated: cascades {} != enqueues {} + coalesced {} + cutoffs {}",
            c.cascades, c.cascade_enqueues, c.cascade_coalesced, c.cascade_cutoffs
        ));
    }

    // Invariant: poison implies an injected body fault (the workload's
    // bodies never panic on their own).
    if poison_repairs > 0 && injections[FaultPoint::BodyStart as usize] == 0 {
        return Err(format!(
            "{poison_repairs} tthreads poisoned but no body fault was injected"
        ));
    }
    if timeout_repairs > 0 && cfg.body_deadline.is_none() {
        return Err(format!(
            "{timeout_repairs} tthreads timed out but no deadline was configured"
        ));
    }

    // Invariant: exact observability accounting at the quiescent drain.
    let rec = rt.obs_drain();
    if !rec.accounting_balances() {
        return Err(format!(
            "obs accounting broken: issued {} != delivered {} + dropped {}",
            rec.issued, rec.delivered, rec.dropped
        ));
    }

    // Invariant: the runtime shuts down gracefully — all workers idle by
    // now, so the bounded drain must succeed.
    rt.shutdown(Duration::from_secs(10))
        .map_err(|e| format!("graceful shutdown failed on a quiescent runtime: {e}"))?;

    Ok(RunSummary {
        seed: cfg.seed,
        stats,
        injections,
        poison_repairs,
        timeout_repairs,
    })
}

/// Joins `id`, repairing injected poison/timeout flags (clear, then force
/// an inline re-execution, then re-join in case the forced run was hit by
/// a fresh fault) and counting each repair. Bounded: a tthread that cannot
/// be repaired in [`MAX_REPAIRS`] attempts fails the run.
fn repair_join(
    rt: &mut Runtime<Vec<u64>>,
    id: dtt_core::TthreadId,
    poison_repairs: &mut u64,
    timeout_repairs: &mut u64,
) -> Result<(), String> {
    for _ in 0..MAX_REPAIRS {
        match rt.join(id) {
            Ok(_) => return Ok(()),
            Err(Error::TthreadPoisoned(_)) => {
                *poison_repairs += 1;
                rt.clear_poison(id).map_err(|e| e.to_string())?;
            }
            Err(Error::TthreadTimedOut(_)) => {
                *timeout_repairs += 1;
                rt.clear_timeout(id).map_err(|e| e.to_string())?;
            }
            Err(e) => return Err(format!("join({id}) failed: {e}")),
        }
        match rt.force(id) {
            // A worker execution `force` waited on was itself hit by a
            // fresh fault: the next join reports it and repairs again.
            Ok(()) | Err(Error::TthreadPoisoned(_) | Error::TthreadTimedOut(_)) => {}
            Err(e) => return Err(format!("force after repair: {e}")),
        }
    }
    Err(format!(
        "tthread {id} unrepairable after {MAX_REPAIRS} attempts"
    ))
}

/// A pinned case arming exactly one fault point hard enough that it is
/// guaranteed to fire (rate [`ALWAYS`], small finite budget). Used by the
/// regression suite so every injection point is exercised on every CI run.
pub fn pinned_point_case(point: FaultPoint, seed: u64) -> ChaosConfig {
    let mut cfg = ChaosConfig::baseline(seed);
    cfg.plan = FaultPlan::new(seed)
        .with_rate(point, ALWAYS)
        .with_budget(point, 6)
        .with_delay_us(20);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_budgeted() {
        let a = ChaosConfig::from_seed(42);
        let b = ChaosConfig::from_seed(42);
        assert_eq!(a, b);
        assert_ne!(a, ChaosConfig::from_seed(43));
        assert!(a.workers >= 1);
        for p in a.plan.armed_points() {
            assert_ne!(a.plan.budget(p), dtt_core::fault::UNLIMITED);
        }
    }

    #[test]
    fn baseline_run_is_quiet() {
        let summary = run_config(&ChaosConfig::baseline(7)).expect("baseline must pass");
        assert_eq!(summary.injections, [0; FaultPoint::COUNT]);
        assert_eq!(summary.poison_repairs, 0);
        assert_eq!(summary.timeout_repairs, 0);
        assert!(summary.stats.counters().tracked_stores >= 400);
    }

    #[test]
    fn failure_report_names_seed_and_replay() {
        let failure = ChaosFailure {
            seed: 99,
            message: "value conservation violated".into(),
            config: ChaosConfig::baseline(99),
        };
        let text = failure.to_string();
        assert!(text.contains("seed 99"));
        assert!(text.contains("replay: cargo run -p dtt-cli -- chaos --seed 99"));
    }

    #[test]
    fn shrink_disarms_irrelevant_points_and_halves_ops() {
        // Synthetic predicate: the "failure" reproduces iff Retrigger is
        // armed and at least 100 ops run. Shrinking must strip every other
        // point and walk ops down to the boundary.
        let mut cfg = ChaosConfig::baseline(1);
        cfg.ops = 400;
        for p in FaultPoint::ALL {
            cfg.plan = cfg.plan.clone().with_rate(p, ALWAYS).with_budget(p, 8);
        }
        let fails = |c: &ChaosConfig| c.plan.rate(FaultPoint::Retrigger) > 0 && c.ops >= 100;
        let minimal = shrink_with(&cfg, &fails);
        assert_eq!(minimal.plan.armed_points(), vec![FaultPoint::Retrigger]);
        assert_eq!(minimal.ops, 100);
        assert!(fails(&minimal));
    }

    #[test]
    fn shrink_keeps_a_passing_config_untouched() {
        let cfg = ChaosConfig::baseline(2);
        let fails = |_: &ChaosConfig| false;
        assert_eq!(shrink_with(&cfg, &fails), cfg);
    }
}
