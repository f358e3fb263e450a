//! Human-readable runtime diagnostics.
//!
//! [`crate::runtime::Runtime::report`] produces a structured snapshot of
//! the whole runtime — tthreads with their TST entries, watched regions,
//! queue occupancy, arena usage and the counter block — for debugging DTT
//! programs ("why did this tthread not fire?").

use std::fmt;

use crate::addr::AddrRange;
use crate::graph::GraphEdge;
use crate::stats::StatsSnapshot;
use crate::tthread::TthreadStatus;

/// One tthread's row in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct TthreadReportRow {
    /// Registered name.
    pub name: String,
    /// Current TST status.
    pub status: TthreadStatus,
    /// Whether a previous execution panicked.
    pub poisoned: bool,
    /// Whether a previous execution overran the body deadline (its write
    /// log was discarded).
    pub timed_out: bool,
    /// Executions so far.
    pub executions: u64,
    /// Completed-execution epoch: bumped once each time an execution leaves
    /// Running for Clean with its outputs published (a retrigger loop of
    /// several body runs advances it once, a failed run not at all).
    pub epoch: u64,
    /// Skipped joins so far.
    pub skips: u64,
    /// Triggers received so far.
    pub triggers: u64,
    /// Regions this tthread watches.
    pub watches: Vec<AddrRange>,
}

/// A point-in-time snapshot of the runtime's observable state.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Per-tthread rows, in registration order (row `i` is the tthread
    /// whose id has index `i`).
    pub tthreads: Vec<TthreadReportRow>,
    /// The declared dependency edges of the incremental computation graph,
    /// writer-major (see [`crate::runtime::Runtime::declare_output`]).
    pub edges: Vec<GraphEdge>,
    /// Entries currently in the pending queue.
    pub queue_len: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Highest queue occupancy ever reached.
    pub queue_high_watermark: usize,
    /// Bytes allocated in the tracked arena.
    pub arena_used: u64,
    /// Arena capacity bound.
    pub arena_capacity: u64,
    /// Worker threads configured.
    pub workers: usize,
    /// Counter snapshot.
    pub stats: StatsSnapshot,
}

impl RuntimeReport {
    /// Names of tthreads currently flagged poisoned (a previous execution
    /// panicked).
    pub fn poisoned(&self) -> Vec<&str> {
        self.tthreads
            .iter()
            .filter(|t| t.poisoned)
            .map(|t| t.name.as_str())
            .collect()
    }

    /// Names of tthreads currently flagged timed out (a previous execution
    /// overran the body deadline).
    pub fn timed_out(&self) -> Vec<&str> {
        self.tthreads
            .iter()
            .filter(|t| t.timed_out)
            .map(|t| t.name.as_str())
            .collect()
    }
}

impl fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "runtime: {} tthreads, {} workers, queue {}/{} (peak {}), arena {}/{} bytes",
            self.tthreads.len(),
            self.workers,
            self.queue_len,
            self.queue_capacity,
            self.queue_high_watermark,
            self.arena_used,
            self.arena_capacity
        )?;
        for t in &self.tthreads {
            writeln!(
                f,
                "  {:<24} {:<9}{}{} exec {:<8} epoch {:<8} skip {:<8} trig {:<8}",
                t.name,
                t.status,
                if t.poisoned { " POISONED" } else { "" },
                if t.timed_out { " TIMED-OUT" } else { "" },
                t.executions,
                t.epoch,
                t.skips,
                t.triggers
            )?;
            for w in &t.watches {
                writeln!(f, "    watches {w}")?;
            }
        }
        write!(f, "{}", self.stats)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Config, Runtime};

    #[test]
    fn report_reflects_runtime_state() {
        let mut rt = Runtime::new(Config::default(), ());
        let x = rt.alloc(0u64).unwrap();
        let xs = rt.alloc_array::<u32>(4).unwrap();
        let t1 = rt.register("alpha", |_| {});
        let t2 = rt.register("beta", |_| {});
        rt.watch(t1, x.range()).unwrap();
        rt.watch(t2, xs.range()).unwrap();
        rt.watch(t2, x.range()).unwrap();
        rt.write(x, 9);

        let report = rt.report();
        assert_eq!(report.tthreads.len(), 2);
        assert_eq!(report.tthreads[0].name, "alpha");
        assert_eq!(report.tthreads[0].watches.len(), 1);
        assert_eq!(report.tthreads[1].watches.len(), 2);
        assert_eq!(
            report.tthreads[0].status,
            crate::tthread::TthreadStatus::Triggered
        );
        assert_eq!(report.tthreads[0].triggers, 1);
        assert!(report.arena_used >= 8 + 16);
        assert_eq!(report.workers, 0);
        let _ = rt.join(t1);

        let text = rt.report().to_string();
        for needle in ["alpha", "beta", "watches", "tracked stores", "queue 0/"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn report_marks_poisoned_tthreads() {
        let mut rt = Runtime::new(Config::default(), ());
        let bad = rt.register("bad", |_| panic!("boom"));
        rt.mark_dirty(bad).unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.join(bad)));
        let report = rt.report();
        assert!(report.tthreads[0].poisoned);
        assert!(report.to_string().contains("POISONED"));
        assert_eq!(report.poisoned(), vec!["bad"]);
        assert!(report.timed_out().is_empty());
    }
}
