//! The collector: turns a drained [`ObsRecording`] into an aggregated
//! report — per-tthread lifecycle statistics with latency histograms,
//! per-region (64-byte line) store/trigger heat, per-kind totals, and the
//! drop accounting the exporters surface.

use std::collections::HashMap;

use dtt_core::obs::{EventKind, ObsEvent, ObsRecording};
use dtt_core::TthreadId;

use crate::hist::LogHistogram;

/// Bytes per aggregation region (one cache line, matching the runtime's
/// memory-shard stripe).
pub const REGION_BYTES: u64 = 64;

/// Aggregated lifecycle statistics for one tthread.
#[derive(Debug, Clone, Default)]
pub struct TthreadAgg {
    /// Trigger matches that fired for this tthread.
    pub triggers: u64,
    /// Times the tthread was enqueued for a worker.
    pub enqueues: u64,
    /// Triggers absorbed into an already-pending instance.
    pub coalesced: u64,
    /// Queue-full events observed while raising this tthread.
    pub overflows: u64,
    /// Completed body executions.
    pub bodies: u64,
    /// Body latency histogram (nanoseconds).
    pub body_ns: LogHistogram,
    /// Completed detached commits.
    pub commits: u64,
    /// Commit latency histogram (nanoseconds).
    pub commit_ns: LogHistogram,
    /// Commit-time conflicts (replayed stores found silent).
    pub conflicts: u64,
    /// Joins that consumed this tthread's outputs (non-skip outcomes).
    pub joins: u64,
    /// Joins that skipped the computation entirely.
    pub skips: u64,
    /// Body executions discarded for overrunning the deadline.
    pub timeouts: u64,
    /// Detached executions that exhausted the commit retry cap.
    pub retry_exhausted: u64,
    /// Cascade raises received from upstream tthread commits (incremental
    /// graph wave units targeting this tthread).
    pub cascades: u64,
    /// Deepest cascade wave observed raising this tthread.
    pub max_wave_depth: u64,
    /// Fully-silent cascade commits by this tthread that stopped the wave
    /// (early cutoffs).
    pub cascade_cutoffs: u64,
}

impl TthreadAgg {
    /// Fraction of this tthread's triggers that coalesced, in `[0, 1]`.
    pub fn coalesce_ratio(&self) -> f64 {
        let raised = self.triggers;
        if raised == 0 {
            0.0
        } else {
            self.coalesced as f64 / raised as f64
        }
    }

    /// Fraction of commits that hit at least one conflict (conflicts per
    /// commit; can exceed 1.0 when a single commit conflicts repeatedly).
    pub fn conflict_rate(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.commits as f64
        }
    }
}

/// Store/trigger heat of one 64-byte tracked-memory region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionAgg {
    /// Region start address (aligned down to [`REGION_BYTES`]).
    pub addr: u64,
    /// Silent stores into the region.
    pub silent_stores: u64,
    /// Changing stores into the region.
    pub changes: u64,
    /// Triggers fired by stores into the region.
    pub triggers: u64,
    /// Changing stores the watched-address filter proved unwatched (no
    /// trigger-table lookup happened).
    pub filter_skips: u64,
}

impl RegionAgg {
    /// Total store activity (the hot-region sort key).
    pub fn heat(&self) -> u64 {
        self.silent_stores + self.changes + self.triggers + self.filter_skips
    }
}

/// The aggregated observability report.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// Events aggregated into this report.
    pub events: u64,
    /// Lifetime events issued by the recorder (delivered + dropped).
    pub issued: u64,
    /// Lifetime events dropped by the rings.
    pub dropped: u64,
    /// Wall-clock span covered by the events (last minus first timestamp).
    pub span_ns: u64,
    /// Per-kind event counts, indexed by `EventKind as usize`.
    pub kind_counts: [u64; EventKind::ALL.len()],
    /// Per-tthread aggregates, indexed by tthread index (dense; tthreads
    /// with no events have all-zero rows).
    pub tthreads: Vec<TthreadAgg>,
    /// Per-region heat, sorted hottest first.
    pub regions: Vec<RegionAgg>,
    /// Optional tthread names (index-aligned with `tthreads`), used by the
    /// text reports; missing names render as `tt#N`.
    pub names: Vec<String>,
}

impl ObsReport {
    /// Aggregates a drained recording.
    pub fn from_recording(rec: &ObsRecording) -> Self {
        let mut report = ObsReport {
            events: rec.events.len() as u64,
            issued: rec.issued,
            dropped: rec.dropped,
            ..ObsReport::default()
        };
        if let (Some(first), Some(last)) = (rec.events.first(), rec.events.last()) {
            let lo = rec
                .events
                .iter()
                .map(|e| e.t_ns)
                .min()
                .unwrap_or(first.t_ns);
            let hi = rec.events.iter().map(|e| e.t_ns).max().unwrap_or(last.t_ns);
            report.span_ns = hi.saturating_sub(lo);
        }
        let mut regions: HashMap<u64, RegionAgg> = HashMap::new();
        for event in &rec.events {
            report.kind_counts[event.kind as usize] += 1;
            report.aggregate_tthread(event);
            aggregate_region(&mut regions, event);
        }
        let mut regions: Vec<RegionAgg> = regions.into_values().collect();
        regions.sort_by(|a, b| b.heat().cmp(&a.heat()).then(a.addr.cmp(&b.addr)));
        report.regions = regions;
        report
    }

    /// Attaches tthread names (index-aligned) for the text reports.
    pub fn with_names(mut self, names: Vec<String>) -> Self {
        self.names = names;
        self
    }

    fn tthread_mut(&mut self, id: TthreadId) -> &mut TthreadAgg {
        let idx = id.index();
        if self.tthreads.len() <= idx {
            self.tthreads.resize_with(idx + 1, TthreadAgg::default);
        }
        &mut self.tthreads[idx]
    }

    fn aggregate_tthread(&mut self, event: &ObsEvent) {
        let Some(id) = event.tthread else {
            return;
        };
        let payload = event.payload;
        let agg = self.tthread_mut(id);
        match event.kind {
            EventKind::TriggerFired => agg.triggers += 1,
            EventKind::TriggerEnqueued => agg.enqueues += 1,
            EventKind::Coalesced => agg.coalesced += 1,
            EventKind::QueueOverflow => agg.overflows += 1,
            EventKind::BodyEnd => {
                agg.bodies += 1;
                agg.body_ns.record(payload);
            }
            EventKind::CommitDone => {
                agg.commits += 1;
                agg.commit_ns.record(payload);
            }
            EventKind::CommitConflict => agg.conflicts += 1,
            EventKind::Join => agg.joins += 1,
            EventKind::Skip => agg.skips += 1,
            EventKind::BodyTimeout => agg.timeouts += 1,
            EventKind::RetryExhausted => agg.retry_exhausted += 1,
            EventKind::CascadeFired => {
                agg.cascades += 1;
                agg.max_wave_depth = agg.max_wave_depth.max(payload);
            }
            EventKind::CascadeCutoff => agg.cascade_cutoffs += 1,
            // BodyStart/CommitBegin only anchor the timeline; Store and
            // ChangeDetected carry no tthread (except commit replays, which
            // are regional, not per-tthread, information).
            _ => {}
        }
    }

    /// Count of events of `kind`.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.kind_counts[kind as usize]
    }

    /// Trigger fire rate over the captured span, in triggers per second
    /// (0.0 when the span is empty).
    pub fn fire_rate_hz(&self) -> f64 {
        if self.span_ns == 0 {
            0.0
        } else {
            self.count(EventKind::TriggerFired) as f64 * 1e9 / self.span_ns as f64
        }
    }

    /// Fraction of fired triggers that coalesced instead of enqueueing.
    pub fn coalesce_ratio(&self) -> f64 {
        let fired = self.count(EventKind::TriggerFired);
        if fired == 0 {
            0.0
        } else {
            self.count(EventKind::Coalesced) as f64 / fired as f64
        }
    }

    /// Merged body-latency histogram across all tthreads.
    pub fn body_latency(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for t in &self.tthreads {
            h.merge(&t.body_ns);
        }
        h
    }

    /// Merged commit-latency histogram across all tthreads.
    pub fn commit_latency(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for t in &self.tthreads {
            h.merge(&t.commit_ns);
        }
        h
    }

    /// The display name for tthread `idx`.
    pub fn tthread_name(&self, idx: usize) -> String {
        match self.names.get(idx) {
            Some(name) if !name.is_empty() => format!("tt#{idx} {name}"),
            _ => format!("tt#{idx}"),
        }
    }

    /// One-line summary for program output (the `examples/` footer). When
    /// any failure events were recorded (deadline timeouts, exhausted
    /// commit retries), their counts are appended so unhealthy runs are
    /// visible at a glance.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "obs: {} events ({} dropped) over {:.1} ms | stores {}+{} silent | \
             triggers {} ({:.0}% coalesced) | bodies {} (p50 {} ns) | \
             commits {} ({} conflicts) | joins {} / skips {}",
            self.events,
            self.dropped,
            self.span_ns as f64 / 1e6,
            self.count(EventKind::ChangeDetected),
            self.count(EventKind::Store),
            self.count(EventKind::TriggerFired),
            100.0 * self.coalesce_ratio(),
            self.count(EventKind::BodyEnd),
            self.body_latency().quantile(0.5),
            self.count(EventKind::CommitDone),
            self.count(EventKind::CommitConflict),
            self.count(EventKind::Join),
            self.count(EventKind::Skip),
        );
        let cascades = self.count(EventKind::CascadeFired);
        let cutoffs = self.count(EventKind::CascadeCutoff);
        if cascades + cutoffs > 0 {
            use std::fmt::Write as _;
            let _ = write!(line, " | cascades {cascades} ({cutoffs} cutoffs)");
        }
        let timeouts = self.count(EventKind::BodyTimeout);
        let exhausted = self.count(EventKind::RetryExhausted);
        if timeouts + exhausted > 0 {
            use std::fmt::Write as _;
            let _ = write!(
                line,
                " | FAULTS: {timeouts} timeouts, {exhausted} retry-exhausted"
            );
        }
        line
    }

    /// The human-readable `dtt obs top` report: totals, per-tthread rows,
    /// and the `limit` hottest regions.
    pub fn top_report(&self, limit: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.summary_line());
        let _ = writeln!(out, "\nper-tthread:");
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8} {:>10} {:>6} {:>6} {:>6}",
            "tthread",
            "triggers",
            "enqueued",
            "coalesce",
            "bodies",
            "body p50",
            "commits",
            "commit p50",
            "joins",
            "skips",
            "faults"
        );
        for (idx, t) in self.tthreads.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8} {:>10} {:>6} {:>6} {:>6}",
                self.tthread_name(idx),
                t.triggers,
                t.enqueues,
                t.coalesced,
                t.bodies,
                t.body_ns.quantile(0.5),
                t.commits,
                t.commit_ns.quantile(0.5),
                t.joins,
                t.skips,
                t.timeouts + t.retry_exhausted
            );
        }
        let _ = writeln!(out, "\nhot regions (64 B lines, hottest first):");
        let _ = writeln!(
            out,
            "  {:<18} {:>10} {:>10} {:>10} {:>12}",
            "address", "changes", "silent", "triggers", "filter-skips"
        );
        for r in self.regions.iter().take(limit) {
            let _ = writeln!(
                out,
                "  {:#018x} {:>10} {:>10} {:>10} {:>12}",
                r.addr, r.changes, r.silent_stores, r.triggers, r.filter_skips
            );
        }
        if self.regions.len() > limit {
            let _ = writeln!(out, "  ... {} more regions", self.regions.len() - limit);
        }
        out
    }
}

fn aggregate_region(regions: &mut HashMap<u64, RegionAgg>, event: &ObsEvent) {
    if !matches!(
        event.kind,
        EventKind::Store
            | EventKind::ChangeDetected
            | EventKind::TriggerFired
            | EventKind::FilterSkip
    ) {
        return;
    }
    let line = event.payload & !(REGION_BYTES - 1);
    let agg = regions.entry(line).or_insert_with(|| RegionAgg {
        addr: line,
        ..RegionAgg::default()
    });
    match event.kind {
        EventKind::Store => agg.silent_stores += 1,
        EventKind::ChangeDetected => agg.changes += 1,
        EventKind::TriggerFired => agg.triggers += 1,
        EventKind::FilterSkip => agg.filter_skips += 1,
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, t_ns: u64, kind: EventKind, tthread: Option<u32>, payload: u64) -> ObsEvent {
        ObsEvent {
            seq,
            t_ns,
            kind,
            tthread: tthread.map(TthreadId::new),
            payload,
        }
    }

    fn sample_recording() -> ObsRecording {
        ObsRecording {
            events: vec![
                ev(0, 100, EventKind::ChangeDetected, None, 0x40),
                ev(1, 110, EventKind::TriggerFired, Some(0), 0x40),
                ev(2, 120, EventKind::TriggerEnqueued, Some(0), 1),
                ev(3, 130, EventKind::ChangeDetected, None, 0x44),
                ev(4, 140, EventKind::TriggerFired, Some(0), 0x44),
                ev(5, 150, EventKind::Coalesced, Some(0), 0),
                ev(6, 200, EventKind::BodyStart, Some(0), 0),
                ev(7, 1200, EventKind::BodyEnd, Some(0), 1000),
                ev(8, 1210, EventKind::CommitBegin, Some(0), 2),
                ev(9, 1220, EventKind::CommitConflict, Some(0), 0x44),
                ev(10, 1300, EventKind::CommitDone, Some(0), 90),
                ev(11, 1350, EventKind::Store, None, 0x80),
                ev(12, 1400, EventKind::Join, Some(0), 1),
                ev(13, 1500, EventKind::Skip, Some(0), 0),
            ],
            issued: 16,
            dropped: 2,
            delivered: 14,
            rings: Vec::new(),
        }
    }

    #[test]
    fn aggregates_per_tthread_and_kind() {
        let report = ObsReport::from_recording(&sample_recording());
        assert_eq!(report.events, 14);
        assert_eq!(report.issued, 16);
        assert_eq!(report.dropped, 2);
        assert_eq!(report.span_ns, 1400);
        assert_eq!(report.count(EventKind::TriggerFired), 2);
        assert_eq!(report.count(EventKind::Store), 1);
        let t0 = &report.tthreads[0];
        assert_eq!(t0.triggers, 2);
        assert_eq!(t0.enqueues, 1);
        assert_eq!(t0.coalesced, 1);
        assert_eq!(t0.bodies, 1);
        assert_eq!(t0.body_ns.count(), 1);
        assert_eq!(t0.body_ns.max(), 1000);
        assert_eq!(t0.commits, 1);
        assert_eq!(t0.conflicts, 1);
        assert_eq!(t0.joins, 1);
        assert_eq!(t0.skips, 1);
        assert!((t0.coalesce_ratio() - 0.5).abs() < 1e-12);
        assert!((t0.conflict_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regions_aggregate_by_line_and_sort_by_heat() {
        let report = ObsReport::from_recording(&sample_recording());
        // 0x40 and 0x44 share line 0x40: 2 changes + 2 triggers; 0x80 has
        // one silent store.
        assert_eq!(report.regions.len(), 2);
        assert_eq!(report.regions[0].addr, 0x40);
        assert_eq!(report.regions[0].changes, 2);
        assert_eq!(report.regions[0].triggers, 2);
        assert_eq!(report.regions[0].silent_stores, 0);
        assert_eq!(report.regions[1].addr, 0x80);
        assert_eq!(report.regions[1].silent_stores, 1);
        assert!(report.regions[0].heat() > report.regions[1].heat());
    }

    #[test]
    fn rates_handle_empty_reports() {
        let report = ObsReport::from_recording(&ObsRecording::default());
        assert_eq!(report.events, 0);
        assert_eq!(report.fire_rate_hz(), 0.0);
        assert_eq!(report.coalesce_ratio(), 0.0);
        assert!(report.body_latency().is_empty());
        // The summary and top report render without panicking.
        assert!(report.summary_line().starts_with("obs: 0 events"));
        assert!(report.top_report(5).contains("per-tthread"));
    }

    #[test]
    fn top_report_names_and_limits() {
        let report = ObsReport::from_recording(&sample_recording())
            .with_names(vec!["parse_line".to_string()]);
        let text = report.top_report(1);
        assert!(text.contains("tt#0 parse_line"));
        assert!(text.contains("... 1 more regions"));
        assert!(text.contains("0x0000000000000040"));
        assert_eq!(report.tthread_name(7), "tt#7");
    }

    #[test]
    fn failure_events_aggregate_and_surface_in_the_summary() {
        let healthy = ObsReport::from_recording(&sample_recording());
        assert!(!healthy.summary_line().contains("FAULTS"));

        let mut rec = sample_recording();
        rec.events
            .push(ev(14, 1600, EventKind::BodyTimeout, Some(0), 9000));
        rec.events
            .push(ev(15, 1700, EventKind::RetryExhausted, Some(0), 8));
        let report = ObsReport::from_recording(&rec);
        let t0 = &report.tthreads[0];
        assert_eq!(t0.timeouts, 1);
        assert_eq!(t0.retry_exhausted, 1);
        let line = report.summary_line();
        assert!(line.starts_with("obs:"), "summary lost its prefix: {line}");
        assert!(
            line.contains("FAULTS: 1 timeouts, 1 retry-exhausted"),
            "missing fault counts: {line}"
        );
        let top = report.top_report(5);
        assert!(top.contains("faults"), "top report lost the faults column");
    }

    #[test]
    fn fire_rate_uses_span() {
        let report = ObsReport::from_recording(&sample_recording());
        // 2 triggers over 1400 ns.
        let expect = 2.0 * 1e9 / 1400.0;
        assert!((report.fire_rate_hz() - expect).abs() < 1.0);
    }
}
