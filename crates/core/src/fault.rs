//! Deterministic fault injection for the runtime's lifecycle edges.
//!
//! The chaos harness (`dtt-chaos`) needs to drive every failure path —
//! queue overflow, body panics, commit retries, worker delays — in a way
//! that is *replayable*: the same seed must produce the same fault
//! decisions. This module provides that as a [`FaultPlan`]: a seeded,
//! per-[`FaultPoint`] probability table with optional fire budgets,
//! installed via [`crate::config::Config::with_fault_plan`].
//!
//! The implementation follows the observability layer's disabled-path
//! discipline: when no plan is installed (the default) every injection
//! probe costs exactly one relaxed atomic load and no state is touched.
//! Probabilities are drawn from a lock-free SplitMix64 stream seeded from
//! the plan, so single-threaded runs are bit-for-bit reproducible and
//! multi-worker runs are reproducible in distribution (each draw is
//! deterministic; which thread consumes it depends on scheduling).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// A lifecycle edge where a fault can be injected.
///
/// Discriminants are stable: they index the rate/budget tables in
/// [`FaultPlan`] and the fired-counter array reported by
/// [`crate::runtime::Runtime::fault_injections`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultPoint {
    /// A trigger's enqueue is forced to report queue overflow, exercising
    /// the inline overflow run on the triggering thread.
    Enqueue = 0,
    /// A worker's or helping joiner's claim is rejected: the tthread stays
    /// queued and the claimer retries, exercising the searcher hand-off.
    Dequeue = 1,
    /// The tthread body is replaced by a synthetic panic, exercising
    /// poisoning without unwinding through user code.
    BodyStart = 2,
    /// The gap between body end and commit replay is stretched by the
    /// plan's delay, widening the window for commit conflicts.
    CommitReplay = 3,
    /// The post-commit retrigger flag is forced on, exercising the
    /// bounded commit-retry loop.
    Retrigger = 4,
    /// An observability ring publish is dropped before a sequence number
    /// is issued, exercising drain accounting under loss.
    ObsPublish = 5,
    /// A worker is delayed between claiming a tthread and running its
    /// body, widening trigger/join races.
    WorkerSchedule = 6,
    /// A dispatch-path worker wakeup is dropped — the eventcount epoch
    /// bump and the notification are both suppressed, simulating a true
    /// lost wakeup. The timed park must still make progress.
    WakeDrop = 7,
    /// A completion wake on the join eventcount is dropped — a joiner
    /// parked on the tthread's status word is not notified and must be
    /// rescued by its timed park.
    JoinWake = 8,
    /// A cascade raise is swallowed: a committed non-silent store that
    /// would have raised a downstream tthread's slot is dropped before
    /// the raise. The downstream tthread must still converge via a later
    /// wave or an explicit join/mark-dirty — the wave identity excludes
    /// dropped raises.
    CascadeDrop = 9,
    /// A client connection is dropped mid-batch by the serve front-end:
    /// an admitted request's connection is severed before its response is
    /// written. The request must be counted in `dropped_conns` so the
    /// request-lifecycle conservation identity still balances (serve-layer
    /// point; never probed by the runtime core).
    ConnDrop = 10,
    /// A slow-client stall: the serve front-end's frame read is stretched
    /// by the plan's delay, simulating a client that trickles bytes. The
    /// connection's read deadline — not a wedge — must bound the handler
    /// (serve-layer point; never probed by the runtime core).
    ClientStall = 11,
    /// The serve front-end's admission queue reports overflow regardless
    /// of actual occupancy, forcing the explicit `Shed` response path
    /// (serve-layer point; never probed by the runtime core).
    AcceptOverflow = 12,
}

impl FaultPoint {
    /// Every injection point, in discriminant order.
    pub const ALL: [FaultPoint; 13] = [
        FaultPoint::Enqueue,
        FaultPoint::Dequeue,
        FaultPoint::BodyStart,
        FaultPoint::CommitReplay,
        FaultPoint::Retrigger,
        FaultPoint::ObsPublish,
        FaultPoint::WorkerSchedule,
        FaultPoint::WakeDrop,
        FaultPoint::JoinWake,
        FaultPoint::CascadeDrop,
        FaultPoint::ConnDrop,
        FaultPoint::ClientStall,
        FaultPoint::AcceptOverflow,
    ];

    /// The points probed by the runtime core itself (the first ten).
    /// The chaos harness derives its randomized schedules over this
    /// subset, keeping existing seeds' derivations stable; the serve
    /// front-end's points are armed by its own scenarios.
    pub const CORE: [FaultPoint; 10] = [
        FaultPoint::Enqueue,
        FaultPoint::Dequeue,
        FaultPoint::BodyStart,
        FaultPoint::CommitReplay,
        FaultPoint::Retrigger,
        FaultPoint::ObsPublish,
        FaultPoint::WorkerSchedule,
        FaultPoint::WakeDrop,
        FaultPoint::JoinWake,
        FaultPoint::CascadeDrop,
    ];

    /// The points probed by the `dtt-serve` request lifecycle.
    pub const SERVE: [FaultPoint; 3] = [
        FaultPoint::ConnDrop,
        FaultPoint::ClientStall,
        FaultPoint::AcceptOverflow,
    ];

    /// Number of injection points.
    pub const COUNT: usize = Self::ALL.len();

    /// Decodes a discriminant back into a point.
    pub fn from_u8(raw: u8) -> Option<FaultPoint> {
        Self::ALL.get(raw as usize).copied()
    }

    /// Stable lowercase name, used by the CLI and failure reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::Enqueue => "enqueue",
            FaultPoint::Dequeue => "dequeue",
            FaultPoint::BodyStart => "body-start",
            FaultPoint::CommitReplay => "commit-replay",
            FaultPoint::Retrigger => "retrigger",
            FaultPoint::ObsPublish => "obs-publish",
            FaultPoint::WorkerSchedule => "worker-schedule",
            FaultPoint::WakeDrop => "wake-drop",
            FaultPoint::JoinWake => "join-wake",
            FaultPoint::CascadeDrop => "cascade-drop",
            FaultPoint::ConnDrop => "conn-drop",
            FaultPoint::ClientStall => "client-stall",
            FaultPoint::AcceptOverflow => "accept-overflow",
        }
    }

    /// Parses a name produced by [`FaultPoint::name`].
    pub fn from_name(name: &str) -> Option<FaultPoint> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Fire probability meaning "always fire" (subject to the budget).
pub const ALWAYS: u16 = u16::MAX;

/// Fire budget meaning "no limit".
pub const UNLIMITED: u32 = u32::MAX;

/// A seeded, deterministic fault schedule.
///
/// Each [`FaultPoint`] has a fire *rate* in units of 1/65536 per probe
/// ([`ALWAYS`] is special-cased to fire unconditionally) and a fire
/// *budget* capping how many times it may fire over the runtime's life
/// ([`UNLIMITED`] by default). Plain data: cloneable, comparable, and
/// cheap to describe in a replay command.
///
/// ```
/// use dtt_core::fault::{FaultPlan, FaultPoint, ALWAYS};
///
/// let plan = FaultPlan::new(42)
///     .with_rate(FaultPoint::Enqueue, 6553) // ~10% of enqueues overflow
///     .with_rate(FaultPoint::Retrigger, ALWAYS)
///     .with_budget(FaultPoint::Retrigger, 100)
///     .with_delay_us(50);
/// assert_eq!(plan.rate(FaultPoint::Retrigger), ALWAYS);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the SplitMix64 draw stream.
    pub seed: u64,
    /// Per-point fire rates in 1/65536 units, indexed by discriminant.
    pub rates: [u16; FaultPoint::COUNT],
    /// Per-point fire budgets, indexed by discriminant.
    pub budgets: [u32; FaultPoint::COUNT],
    /// Delay injected by [`FaultPoint::CommitReplay`] and
    /// [`FaultPoint::WorkerSchedule`] fires, in microseconds.
    pub delay_us: u32,
}

impl FaultPlan {
    /// A plan with the given seed and every point disabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [0; FaultPoint::COUNT],
            budgets: [UNLIMITED; FaultPoint::COUNT],
            delay_us: 10,
        }
    }

    /// Sets a point's fire rate (1/65536 units; [`ALWAYS`] fires every probe).
    pub fn with_rate(mut self, point: FaultPoint, rate: u16) -> Self {
        self.rates[point as usize] = rate;
        self
    }

    /// Caps how many times a point may fire.
    pub fn with_budget(mut self, point: FaultPoint, budget: u32) -> Self {
        self.budgets[point as usize] = budget;
        self
    }

    /// Sets the injected delay for the delay-type points.
    pub fn with_delay_us(mut self, delay_us: u32) -> Self {
        self.delay_us = delay_us;
        self
    }

    /// A point's configured fire rate.
    pub fn rate(&self, point: FaultPoint) -> u16 {
        self.rates[point as usize]
    }

    /// A point's configured fire budget.
    pub fn budget(&self, point: FaultPoint) -> u32 {
        self.budgets[point as usize]
    }

    /// The points with a nonzero fire rate, in discriminant order.
    pub fn armed_points(&self) -> Vec<FaultPoint> {
        FaultPoint::ALL
            .into_iter()
            .filter(|&p| self.rate(p) > 0)
            .collect()
    }
}

/// The runtime-internal fault engine: the armed plan plus atomic draw and
/// fired-counter state. Shared (`Arc`) between the runtime core and the
/// observability recorder so the [`FaultPoint::ObsPublish`] probe can
/// live inside the ring publish path.
#[derive(Debug)]
pub(crate) struct FaultLayer {
    /// Probe gate: the only state touched when no plan is installed.
    armed: AtomicBool,
    rates: [u16; FaultPoint::COUNT],
    budgets: [u32; FaultPoint::COUNT],
    delay: Duration,
    /// SplitMix64 state; `fetch_add` of the golden gamma hands each
    /// caller a unique, deterministic draw without a lock.
    rng: AtomicU64,
    fired: [AtomicU64; FaultPoint::COUNT],
}

impl FaultLayer {
    /// A permanently-disarmed layer (no plan installed).
    pub(crate) fn disarmed() -> Self {
        FaultLayer {
            armed: AtomicBool::new(false),
            rates: [0; FaultPoint::COUNT],
            budgets: [UNLIMITED; FaultPoint::COUNT],
            delay: Duration::ZERO,
            rng: AtomicU64::new(0),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Arms a layer from a plan.
    pub(crate) fn from_plan(plan: &FaultPlan) -> Self {
        FaultLayer {
            armed: AtomicBool::new(plan.rates.iter().any(|&r| r > 0)),
            rates: plan.rates,
            budgets: plan.budgets,
            delay: Duration::from_micros(u64::from(plan.delay_us)),
            rng: AtomicU64::new(plan.seed),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Probes an injection point. Returns `true` when the fault fires.
    ///
    /// The disabled path is a single relaxed load, mirroring
    /// `ObsRecorder::on`.
    #[inline(always)]
    pub(crate) fn fire(&self, point: FaultPoint) -> bool {
        if !self.armed.load(Ordering::Relaxed) {
            return false;
        }
        self.fire_armed(point)
    }

    #[cold]
    fn fire_armed(&self, point: FaultPoint) -> bool {
        let i = point as usize;
        let rate = self.rates[i];
        if rate == 0 {
            return false;
        }
        if rate != ALWAYS && (self.next_draw() & 0xFFFF) as u16 >= rate {
            return false;
        }
        let budget = self.budgets[i];
        if budget == UNLIMITED {
            self.fired[i].fetch_add(1, Ordering::Relaxed);
            return true;
        }
        // Exact budget enforcement: concurrent probes race on the counter,
        // never past the cap.
        self.fired[i]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < u64::from(budget)).then_some(n + 1)
            })
            .is_ok()
    }

    /// Sleeps for the plan's injected delay (delay-type points call this
    /// after a successful [`FaultLayer::fire`], off every lock).
    pub(crate) fn delay(&self) {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
    }

    /// Per-point fired counts, indexed by discriminant.
    pub(crate) fn counts(&self) -> [u64; FaultPoint::COUNT] {
        std::array::from_fn(|i| self.fired[i].load(Ordering::Relaxed))
    }

    /// One draw from the layer's SplitMix64 stream, for callers that need
    /// deterministic jitter sharing the plan's seed (the commit-backoff
    /// path). Advances the same stream the fire probes consume.
    pub(crate) fn draw(&self) -> u64 {
        self.next_draw()
    }

    fn next_draw(&self) -> u64 {
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut z = self
            .rng
            .fetch_add(GAMMA, Ordering::Relaxed)
            .wrapping_add(GAMMA);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A standalone, seeded fault probe for layers *outside* the runtime core
/// that share the [`FaultPlan`]/[`FaultPoint`] machinery — the serve
/// front-end probes its request-lifecycle points
/// ([`FaultPoint::ConnDrop`], [`FaultPoint::ClientStall`],
/// [`FaultPoint::AcceptOverflow`]) through one of these. Same semantics as
/// the runtime-internal engine: the disarmed path is a single relaxed
/// atomic load, draws are SplitMix64-deterministic from the plan's seed,
/// and budgets are enforced exactly under concurrency.
#[derive(Debug)]
pub struct FaultProbe {
    layer: FaultLayer,
}

impl FaultProbe {
    /// A permanently-disarmed probe (no plan installed).
    pub fn disarmed() -> Self {
        FaultProbe {
            layer: FaultLayer::disarmed(),
        }
    }

    /// Arms a probe from a plan.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        FaultProbe {
            layer: FaultLayer::from_plan(plan),
        }
    }

    /// Probes an injection point. Returns `true` when the fault fires.
    #[inline]
    pub fn fire(&self, point: FaultPoint) -> bool {
        self.layer.fire(point)
    }

    /// Sleeps for the plan's injected delay (call after a successful
    /// [`FaultProbe::fire`] on a delay-type point, off every lock).
    pub fn delay(&self) {
        self.layer.delay()
    }

    /// The plan's injected delay, for callers that must not block in
    /// place — an event-loop worker defers the faulted connection until
    /// this much time has passed instead of sleeping on it.
    pub fn delay_duration(&self) -> Duration {
        self.layer.delay
    }

    /// Per-point fired counts, indexed by discriminant.
    pub fn counts(&self) -> [u64; FaultPoint::COUNT] {
        self.layer.counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_encoding_round_trips() {
        for (i, p) in FaultPoint::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i);
            assert_eq!(FaultPoint::from_u8(p as u8), Some(p));
            assert_eq!(FaultPoint::from_name(p.name()), Some(p));
            assert!(!p.name().is_empty());
        }
        assert_eq!(FaultPoint::from_u8(FaultPoint::COUNT as u8), None);
        assert_eq!(FaultPoint::from_name("frobnicate"), None);
    }

    #[test]
    fn core_and_serve_points_partition_all() {
        let mut joined: Vec<FaultPoint> = FaultPoint::CORE.to_vec();
        joined.extend(FaultPoint::SERVE);
        assert_eq!(joined, FaultPoint::ALL.to_vec());
    }

    #[test]
    fn probe_shares_layer_semantics() {
        let probe = FaultProbe::disarmed();
        assert!(!probe.fire(FaultPoint::ConnDrop));
        assert_eq!(probe.counts(), [0; FaultPoint::COUNT]);

        let plan = FaultPlan::new(9)
            .with_rate(FaultPoint::AcceptOverflow, ALWAYS)
            .with_budget(FaultPoint::AcceptOverflow, 2);
        let probe = FaultProbe::from_plan(&plan);
        let fired = (0..10)
            .filter(|_| probe.fire(FaultPoint::AcceptOverflow))
            .count();
        assert_eq!(fired, 2);
        assert!(!probe.fire(FaultPoint::ClientStall));
    }

    #[test]
    fn plan_builders_apply() {
        let plan = FaultPlan::new(7)
            .with_rate(FaultPoint::Enqueue, 123)
            .with_rate(FaultPoint::Retrigger, ALWAYS)
            .with_budget(FaultPoint::Retrigger, 4)
            .with_delay_us(99);
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rate(FaultPoint::Enqueue), 123);
        assert_eq!(plan.rate(FaultPoint::Retrigger), ALWAYS);
        assert_eq!(plan.budget(FaultPoint::Retrigger), 4);
        assert_eq!(plan.budget(FaultPoint::Enqueue), UNLIMITED);
        assert_eq!(plan.delay_us, 99);
        assert_eq!(
            plan.armed_points(),
            vec![FaultPoint::Enqueue, FaultPoint::Retrigger]
        );
        assert!(FaultPlan::new(7).armed_points().is_empty());
    }

    #[test]
    fn disarmed_layer_never_fires() {
        let layer = FaultLayer::disarmed();
        for p in FaultPoint::ALL {
            assert!(!layer.fire(p));
        }
        assert_eq!(layer.counts(), [0; FaultPoint::COUNT]);
    }

    #[test]
    fn zero_rate_plan_stays_disarmed() {
        let layer = FaultLayer::from_plan(&FaultPlan::new(1));
        assert!(!layer.armed.load(Ordering::Relaxed));
        assert!(!layer.fire(FaultPoint::Enqueue));
    }

    #[test]
    fn always_rate_fires_every_probe() {
        let plan = FaultPlan::new(3).with_rate(FaultPoint::BodyStart, ALWAYS);
        let layer = FaultLayer::from_plan(&plan);
        for _ in 0..10 {
            assert!(layer.fire(FaultPoint::BodyStart));
        }
        assert!(!layer.fire(FaultPoint::Enqueue));
        assert_eq!(layer.counts()[FaultPoint::BodyStart as usize], 10);
    }

    #[test]
    fn budget_caps_fires_exactly() {
        let plan = FaultPlan::new(3)
            .with_rate(FaultPoint::Dequeue, ALWAYS)
            .with_budget(FaultPoint::Dequeue, 3);
        let layer = FaultLayer::from_plan(&plan);
        let fired = (0..100).filter(|_| layer.fire(FaultPoint::Dequeue)).count();
        assert_eq!(fired, 3);
        assert_eq!(layer.counts()[FaultPoint::Dequeue as usize], 3);
    }

    #[test]
    fn draws_are_seed_deterministic() {
        let plan = FaultPlan::new(0xDEAD_BEEF).with_rate(FaultPoint::Enqueue, 32768);
        let a = FaultLayer::from_plan(&plan);
        let b = FaultLayer::from_plan(&plan);
        let seq_a: Vec<bool> = (0..64).map(|_| a.fire(FaultPoint::Enqueue)).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.fire(FaultPoint::Enqueue)).collect();
        assert_eq!(seq_a, seq_b);
        // A ~50% rate should both fire and skip over 64 draws.
        assert!(seq_a.iter().any(|&f| f));
        assert!(seq_a.iter().any(|&f| !f));
    }

    #[test]
    fn different_seeds_diverge() {
        let mk = |seed| {
            let layer =
                FaultLayer::from_plan(&FaultPlan::new(seed).with_rate(FaultPoint::Enqueue, 32768));
            (0..64)
                .map(|_| layer.fire(FaultPoint::Enqueue))
                .collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }
}
