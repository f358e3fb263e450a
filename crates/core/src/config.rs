//! Runtime configuration.

use std::time::Duration;

use crate::addr::Granularity;
use crate::fault::FaultPlan;

/// Maximum times a worker re-runs a tthread's body because a trigger
/// landed during the previous run (the commit→retrigger loop), and
/// maximum view restarts of one execution. Past it the tthread is
/// deferred to its next `join`, so adversarial stores cannot livelock a
/// worker. Counted in `commit_retries` / `commit_retry_exhausted`.
pub const COMMIT_RETRY_CAP: u32 = 8;

/// Configuration for a [`crate::runtime::Runtime`].
///
/// Construct with [`Config::default`] and adjust with the builder-style
/// setters:
///
/// ```
/// use dtt_core::config::Config;
/// use dtt_core::addr::Granularity;
///
/// let cfg = Config::default()
///     .with_granularity(Granularity::Word)
///     .with_workers(2)
///     .with_queue_capacity(16);
/// assert_eq!(cfg.workers, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Granularity at which stores are matched against trigger regions.
    ///
    /// Coarser granularities cause false triggers (see R-Fig.9).
    pub granularity: Granularity,
    /// Compare old/new bytes on every tracked store and suppress triggers for
    /// *silent stores* (stores that do not change the value). Disabling this
    /// makes every store to a watched region fire, as a system without
    /// value-comparing stores would.
    pub suppress_silent_stores: bool,
    /// Coalesce triggers: a tthread already pending is not enqueued again.
    /// Disabling this floods the queue under bursty triggers (R-Fig.10).
    pub coalesce: bool,
    /// Capacity of the pending-tthread queue. When it is full the
    /// triggering thread runs the tthread itself (the HPCA'11 rule), so
    /// correctness never depends on capacity.
    pub queue_capacity: usize,
    /// Number of worker threads executing tthreads in parallel with the main
    /// thread. `0` selects the *deferred* executor: triggered tthreads run on
    /// the main thread at their `join` point, which is fully deterministic
    /// and captures pure redundancy elimination.
    pub workers: usize,
    /// Record lifecycle events (stores, triggers, bodies, commits, joins)
    /// into the per-shard observability rings (see [`crate::obs`]). Off by
    /// default; when off every instrumentation hook costs one relaxed
    /// atomic load and the rings are never allocated. Can also be flipped
    /// at runtime with [`crate::runtime::Runtime::set_observing`].
    pub observability: bool,
    /// Deterministic fault schedule (see [`crate::fault`]). `None` (the
    /// default) leaves every injection probe as a single relaxed atomic
    /// load that never fires.
    pub fault_plan: Option<FaultPlan>,
    /// Deadline for a single tthread body execution (worker executor
    /// only), measured on the **monotonic** clock
    /// (`std::time::Instant`) so a wall-clock jump can neither spuriously
    /// time a body out nor immortalize it — see `dtt_core::deadline` for
    /// the (injectable) overrun math. A body that overruns has its write
    /// log discarded at commit, the tthread is flagged timed-out, and its
    /// next `join` returns [`crate::error::Error::TthreadTimedOut`].
    /// `None` (the default) disables the deadline.
    pub body_deadline: Option<Duration>,
    /// Base delay for bounded exponential backoff between commit retries
    /// (worker executor only). `None` (the default) re-runs the
    /// body immediately, the historical behaviour; `Some(base)` sleeps
    /// `base << min(retry-1, 6)` plus SplitMix64 jitter (up to half the
    /// step, drawn from the fault layer's stream so seeded runs stay
    /// deterministic) before each go-around, off every lock. Under a
    /// trigger storm this stops a worker from burning its whole retry
    /// budget in microseconds and gives the storm time to subside.
    /// Counted in `commit_backoff_waits`.
    pub commit_backoff: Option<Duration>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            granularity: Granularity::Exact,
            suppress_silent_stores: true,
            coalesce: true,
            queue_capacity: 64,
            workers: 0,
            observability: false,
            fault_plan: None,
            body_deadline: None,
            commit_backoff: None,
        }
    }
}

impl Config {
    /// Sets the trigger-matching granularity.
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Enables or disables silent-store suppression.
    pub fn with_silent_store_suppression(mut self, on: bool) -> Self {
        self.suppress_silent_stores = on;
        self
    }

    /// Enables or disables trigger coalescing.
    pub fn with_coalescing(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// Sets the pending-tthread queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be nonzero");
        self.queue_capacity = capacity;
        self
    }

    /// Sets the number of parallel worker threads (0 = deferred executor).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables or disables lifecycle event recording from the start.
    pub fn with_observability(mut self, on: bool) -> Self {
        self.observability = on;
        self
    }

    /// Installs a deterministic fault schedule (see [`crate::fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the per-body monotonic deadline (worker executor only).
    pub fn with_body_deadline(mut self, deadline: Duration) -> Self {
        self.body_deadline = Some(deadline);
        self
    }

    /// Sets the base delay for bounded exponential backoff between commit
    /// retries (worker executor only; `None` by default — immediate
    /// re-execution).
    pub fn with_commit_backoff(mut self, base: Duration) -> Self {
        self.commit_backoff = Some(base);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_deferred_and_precise() {
        let cfg = Config::default();
        assert_eq!(cfg.workers, 0);
        assert_eq!(cfg.granularity, Granularity::Exact);
        assert!(cfg.suppress_silent_stores);
        assert!(cfg.coalesce);
        assert!(!cfg.observability);
        assert_eq!(cfg.fault_plan, None);
        assert_eq!(cfg.body_deadline, None);
        assert_eq!(cfg.commit_backoff, None);
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = Config::default()
            .with_granularity(Granularity::Line)
            .with_silent_store_suppression(false)
            .with_coalescing(false)
            .with_queue_capacity(3)
            .with_workers(4)
            .with_observability(true)
            .with_fault_plan(crate::fault::FaultPlan::new(11))
            .with_body_deadline(Duration::from_millis(250))
            .with_commit_backoff(Duration::from_micros(50));
        assert_eq!(cfg.granularity, Granularity::Line);
        assert!(!cfg.suppress_silent_stores);
        assert!(!cfg.coalesce);
        assert_eq!(cfg.queue_capacity, 3);
        assert_eq!(cfg.workers, 4);
        assert!(cfg.observability);
        assert_eq!(cfg.fault_plan.as_ref().map(|p| p.seed), Some(11));
        assert_eq!(cfg.body_deadline, Some(Duration::from_millis(250)));
        assert_eq!(cfg.commit_backoff, Some(Duration::from_micros(50)));
    }

    #[test]
    #[should_panic(expected = "queue capacity must be nonzero")]
    fn zero_queue_capacity_panics() {
        let _ = Config::default().with_queue_capacity(0);
    }
}
