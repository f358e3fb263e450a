//! Property test: for arbitrary store/checkpoint schedules, the software
//! runtime (`dtt-core`) and the timing simulator (`dtt-sim`) make identical
//! skip decisions — they are two implementations of the same trigger
//! semantics.

use dtt::core::stats::Counters;
use dtt::core::{Config, JoinOutcome, Runtime, TrackedArray, TthreadId, TthreadStatus};
use dtt::sim::{simulate, MachineConfig, SimMode};
use dtt::trace::TraceBuilder;
use proptest::prelude::*;

const CELLS: usize = 16;
const TTHREADS: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    /// Store `value` into cell `index`.
    Store { index: usize, value: u64 },
    /// A checkpoint: every tthread's output is consumed (joined).
    Checkpoint,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0usize..CELLS, 0u64..4).prop_map(|(index, value)| Op::Store { index, value }),
            1 => Just(Op::Checkpoint),
        ],
        1..120,
    )
}

/// Each tthread `t` watches cells `[4t, 4t+4)`.
fn watch_range(t: usize) -> (usize, usize) {
    (4 * t, 4 * (t + 1))
}

/// Drives the real runtime; returns per-tthread execution counts.
fn run_runtime(schedule: &[Op]) -> Vec<u64> {
    let mut rt = Runtime::new(Config::default(), ());
    let cells = rt.alloc_array::<u64>(CELLS).unwrap();
    let tts: Vec<_> = (0..TTHREADS)
        .map(|t| {
            let tt = rt.register(&format!("t{t}"), |_| {});
            let (a, b) = watch_range(t);
            rt.watch(tt, cells.range_of(a, b)).unwrap();
            rt.mark_dirty(tt).unwrap();
            tt
        })
        .collect();
    for op in schedule {
        match *op {
            Op::Store { index, value } => rt.with(|ctx| ctx.write(cells, index, value)),
            Op::Checkpoint => {
                for &tt in &tts {
                    rt.join(tt).unwrap();
                }
            }
        }
    }
    // Final checkpoint so trailing triggers are consumed in both worlds.
    for &tt in &tts {
        rt.join(tt).unwrap();
    }
    rt.report().tthreads.iter().map(|t| t.executions).collect()
}

/// Builds the equivalent annotated trace and simulates it; returns
/// per-tthread executed (non-skipped) instance counts.
fn run_simulator(schedule: &[Op]) -> Vec<u64> {
    let mut b = TraceBuilder::new();
    let tts: Vec<u32> = (0..TTHREADS)
        .map(|t| {
            let tt = b.declare_tthread(&format!("t{t}"));
            let (a, bb) = watch_range(t);
            b.declare_watch(tt, 8 * a as u64, 8 * (bb - a) as u64);
            tt
        })
        .collect();
    // Initialization: the runtime's alloc_array zeroes tracked memory.
    let mut shadow = [0u64; CELLS];
    for (i, &v) in shadow.iter().enumerate() {
        b.store_event(0, 8 * i as u64, 8, v);
    }
    let emit_checkpoint = |b: &mut TraceBuilder| {
        for &tt in &tts {
            b.region_begin_checked(tt).unwrap();
            b.compute_event(10);
            b.region_end_checked(tt).unwrap();
            b.join_event(tt);
        }
    };
    for op in schedule {
        match *op {
            Op::Store { index, value } => {
                shadow[index] = value;
                b.store_event(1, 8 * index as u64, 8, value);
            }
            Op::Checkpoint => emit_checkpoint(&mut b),
        }
    }
    emit_checkpoint(&mut b);
    let trace = b.finish().unwrap();
    let cfg = MachineConfig::default().with_granularity_bytes(1);
    let result = simulate(&cfg, &trace, SimMode::Dtt);
    result
        .tthreads
        .iter()
        .map(|t| t.instances - t.skips)
        .collect()
}

/// A dispatch schedule for the runtime-vs-model properties: stores,
/// targeted joins/forces (the steal paths), and full checkpoints.
#[derive(Debug, Clone)]
enum DispatchOp {
    Store { index: usize, value: u64 },
    Join { t: usize },
    Force { t: usize },
    Checkpoint,
}

fn dispatch_ops() -> impl Strategy<Value = Vec<DispatchOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0usize..CELLS, 0u64..4).prop_map(|(index, value)| DispatchOp::Store { index, value }),
            2 => (0usize..TTHREADS).prop_map(|t| DispatchOp::Join { t }),
            1 => (0usize..TTHREADS).prop_map(|t| DispatchOp::Force { t }),
            1 => Just(DispatchOp::Checkpoint),
        ],
        1..100,
    )
}

/// Everything externally observable about one dispatch run: per-tthread
/// execution counts, the join-outcome sequence, the status of every
/// tthread when the schedule ends, and the counters the model defines
/// (every other field left at zero).
type DispatchObservation = (Vec<u64>, Vec<JoinOutcome>, Vec<TthreadStatus>, Counters);

/// Projects a runtime counter block onto the fields [`ModelTst`] predicts.
fn modelled(c: &Counters) -> Counters {
    Counters {
        triggers_fired: c.triggers_fired,
        coalesced_triggers: c.coalesced_triggers,
        enqueues: c.enqueues,
        executions: c.executions,
        inline_executions: c.inline_executions,
        joins: c.joins,
        skips: c.skips,
        ..Counters::default()
    }
}

/// The oracle: a sequential thread status table, one Clean / Triggered /
/// Queued entry per tthread, driven from the main thread alone. `queued`
/// selects what a trigger does to a Clean entry — mark it Triggered (the
/// deferred executor) or enqueue it (a worker exists but is pinned, so a
/// Queued entry stays queued until the main thread steals it). Bodies are
/// empty, so nothing is ever observed Running, and coalescing on/off is
/// unobservable: a repeat trigger is absorbed either way, and the steal
/// that consumes a Queued entry folds any rerun mark into its one run.
struct ModelTst {
    queued: bool,
    cells: [u64; CELLS],
    status: Vec<TthreadStatus>,
    execs: Vec<u64>,
    outcomes: Vec<JoinOutcome>,
    counters: Counters,
}

impl ModelTst {
    fn new(queued: bool) -> Self {
        ModelTst {
            queued,
            cells: [0; CELLS],
            status: vec![TthreadStatus::Clean; TTHREADS],
            execs: vec![0; TTHREADS],
            outcomes: Vec::new(),
            counters: Counters::default(),
        }
    }

    fn raise(&mut self, t: usize) {
        if self.status[t] != TthreadStatus::Clean {
            self.counters.coalesced_triggers += 1;
        } else if self.queued {
            self.status[t] = TthreadStatus::Queued;
            self.counters.enqueues += 1;
        } else {
            self.status[t] = TthreadStatus::Triggered;
        }
    }

    fn run_inline(&mut self, t: usize) {
        self.status[t] = TthreadStatus::Clean;
        self.execs[t] += 1;
        self.counters.executions += 1;
        self.counters.inline_executions += 1;
    }

    fn join(&mut self, t: usize) {
        self.counters.joins += 1;
        let outcome = match self.status[t] {
            TthreadStatus::Clean => JoinOutcome::Skipped,
            TthreadStatus::Triggered => JoinOutcome::RanInline,
            _ => JoinOutcome::Stolen,
        };
        if outcome == JoinOutcome::Skipped {
            self.counters.skips += 1;
        } else {
            self.run_inline(t);
        }
        self.outcomes.push(outcome);
    }

    fn apply(&mut self, op: &DispatchOp) {
        match *op {
            // A silent store fires nothing.
            DispatchOp::Store { index, value } if self.cells[index] == value => {}
            DispatchOp::Store { index, value } => {
                self.cells[index] = value;
                self.counters.triggers_fired += 1;
                self.raise(index / 4);
            }
            DispatchOp::Join { t } => self.join(t),
            DispatchOp::Force { t } => self.run_inline(t),
            DispatchOp::Checkpoint => (0..TTHREADS).for_each(|t| self.join(t)),
        }
    }
}

/// Predicts [`run_deferred`]: every tthread starts dirty (`mark_dirty`
/// raises without firing a store trigger) and the statuses are read as
/// the schedule ends.
fn model_deferred(schedule: &[DispatchOp]) -> DispatchObservation {
    let mut m = ModelTst::new(false);
    (0..TTHREADS).for_each(|t| m.raise(t));
    schedule.iter().for_each(|op| m.apply(op));
    (m.execs, m.outcomes, m.status, m.counters)
}

/// Predicts [`run_pinned_worker`]: the blocker's own enqueue is counted,
/// the statuses are read as the schedule ends, and a final round of joins
/// drains what is still queued.
fn model_pinned_worker(schedule: &[DispatchOp]) -> DispatchObservation {
    let mut m = ModelTst::new(true);
    m.counters.enqueues += 1;
    schedule.iter().for_each(|op| m.apply(op));
    let statuses = m.status.clone();
    (0..TTHREADS).for_each(|t| m.join(t));
    (m.execs, m.outcomes, statuses, m.counters)
}

/// Applies one schedule step to a real runtime.
fn drive(
    rt: &mut Runtime<()>,
    cells: TrackedArray<u64>,
    tts: &[TthreadId],
    op: &DispatchOp,
    outcomes: &mut Vec<JoinOutcome>,
) {
    match *op {
        DispatchOp::Store { index, value } => rt.with(|ctx| ctx.write(cells, index, value)),
        DispatchOp::Join { t } => outcomes.push(rt.join(tts[t]).unwrap()),
        DispatchOp::Force { t } => rt.force(tts[t]).unwrap(),
        DispatchOp::Checkpoint => {
            for &tt in tts {
                outcomes.push(rt.join(tt).unwrap());
            }
        }
    }
}

/// Execution counts of `tts`, in order.
fn execs_of(rt: &Runtime<()>, tts: &[TthreadId]) -> Vec<u64> {
    let rows = rt.report().tthreads;
    tts.iter().map(|tt| rows[tt.index()].executions).collect()
}

/// Drives one runtime through `schedule` and records what a program could
/// see. With `workers = 0` the deferred executor handles every trigger at
/// the join point, so the run is fully deterministic and exercises the
/// Clean/Triggered/Running arcs of the status machine.
fn run_deferred(schedule: &[DispatchOp], coalesce: bool) -> DispatchObservation {
    let cfg = Config::default().with_workers(0).with_coalescing(coalesce);
    let mut rt = Runtime::new(cfg, ());
    let cells = rt.alloc_array::<u64>(CELLS).unwrap();
    let tts: Vec<_> = (0..TTHREADS)
        .map(|t| {
            let tt = rt.register(&format!("t{t}"), |_| {});
            let (a, b) = watch_range(t);
            rt.watch(tt, cells.range_of(a, b)).unwrap();
            rt.mark_dirty(tt).unwrap();
            tt
        })
        .collect();
    let mut outcomes = Vec::new();
    for op in schedule {
        drive(&mut rt, cells, &tts, op, &mut outcomes);
    }
    let statuses = tts.iter().map(|&tt| rt.status(tt).unwrap()).collect();
    let counters = modelled(rt.stats().counters());
    (execs_of(&rt, &tts), outcomes, statuses, counters)
}

/// Same idea with a real worker — but the worker spends the whole schedule
/// pinned inside a barrier-parked tthread, so the Queued arcs (enqueue,
/// coalesce/rerun-flag absorb, join steal) are exercised deterministically
/// from the main thread alone. The queue has room for every tthread, so no
/// raise overflows.
fn run_pinned_worker(schedule: &[DispatchOp], coalesce: bool) -> DispatchObservation {
    let gate = std::sync::Arc::new(std::sync::Barrier::new(2));
    let cfg = Config::default()
        .with_workers(1)
        .with_queue_capacity(4096)
        .with_coalescing(coalesce);
    let mut rt = Runtime::new(cfg, ());
    let g = std::sync::Arc::clone(&gate);
    let blocker = rt.register("blocker", move |_| {
        g.wait();
    });
    let cells = rt.alloc_array::<u64>(CELLS).unwrap();
    let tts: Vec<_> = (0..TTHREADS)
        .map(|t| {
            let tt = rt.register(&format!("t{t}"), |_| {});
            let (a, b) = watch_range(t);
            rt.watch(tt, cells.range_of(a, b)).unwrap();
            tt
        })
        .collect();
    rt.mark_dirty(blocker).unwrap();
    let start = std::time::Instant::now();
    while rt.status(blocker).unwrap() != TthreadStatus::Running {
        assert!(start.elapsed() < std::time::Duration::from_secs(10));
        std::thread::yield_now();
    }

    let mut outcomes = Vec::new();
    for op in schedule {
        drive(&mut rt, cells, &tts, op, &mut outcomes);
    }
    let statuses: Vec<_> = tts.iter().map(|&tt| rt.status(tt).unwrap()).collect();
    // Drain every pending trigger deterministically (steals) while the
    // worker is still pinned, so the execution counts below can't race
    // the worker's own drain after release.
    for &tt in &tts {
        outcomes.push(rt.join(tt).unwrap());
    }
    let execs = execs_of(&rt, &tts);
    let counters = modelled(rt.stats().counters());
    gate.wait();
    rt.join_all().unwrap();
    (execs, outcomes, statuses, counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn runtime_and_simulator_agree_on_executions(schedule in ops()) {
        let rt_execs = run_runtime(&schedule);
        let sim_execs = run_simulator(&schedule);
        prop_assert_eq!(rt_execs, sim_execs);
    }

    /// The baseline simulator executes every instance regardless of the
    /// schedule; the DTT machine never executes more.
    #[test]
    fn dtt_never_executes_more_instances_than_baseline(schedule in ops()) {
        let sim_execs = run_simulator(&schedule);
        let checkpoints = schedule
            .iter()
            .filter(|op| matches!(op, Op::Checkpoint))
            .count() as u64
            + 1;
        for execs in sim_execs {
            prop_assert!(execs <= checkpoints);
            prop_assert!(execs >= 1); // the initial dirty instance always runs
        }
    }

    /// The deferred (workers = 0) executor against the sequential model:
    /// for any store/join/force/checkpoint schedule, with coalescing on and
    /// off, the runtime produces exactly the execution counts, join
    /// outcomes, statuses and counters the model predicts.
    #[test]
    fn deferred_dispatch_matches_sequential_model(schedule in dispatch_ops()) {
        let model = model_deferred(&schedule);
        for coalesce in [true, false] {
            prop_assert_eq!(&run_deferred(&schedule, coalesce), &model, "coalesce={}", coalesce);
        }
    }

    /// The Queued arcs (enqueue, absorb, steal) with a real
    /// — but pinned — worker, against the same model.
    #[test]
    fn pinned_worker_dispatch_matches_sequential_model(schedule in dispatch_ops()) {
        let model = model_pinned_worker(&schedule);
        for coalesce in [true, false] {
            prop_assert_eq!(&run_pinned_worker(&schedule, coalesce), &model, "coalesce={}", coalesce);
        }
    }
}
