//! Runtime statistics.
//!
//! Every behavioural event in the runtime increments a counter here; the
//! benchmark harness reads a [`StatsSnapshot`] to build the paper's
//! per-benchmark characteristics table (R-Tab.2) and the silent-store /
//! false-trigger ablations.
//!
//! Each count goes to a `CounterLine` with exactly one writer — the lock
//! line (whoever holds the state lock), the owner line (the `&mut Runtime`
//! holder), one per worker, one per live `Accessor` — as a plain load and
//! store, no read-modify-write. `stats()` folds the lines into
//! [`Counters`]; a reset records the fold as the baseline later folds
//! subtract, so no thread writes a line it does not own.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::filter::FilterProbe;
use crate::heap::StoreEffect;

/// The runtime's counters, as [`crate::runtime::Runtime::stats`] folds them
/// from its counter lines (see the module docs).
///
/// Use [`Counters::snapshot`] to obtain an immutable copy for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Tracked stores executed (every `set`/`write` call).
    pub tracked_stores: u64,
    /// Tracked stores whose bytes equalled the old contents (silent stores).
    pub silent_stores: u64,
    /// Tracked stores that changed memory contents.
    pub changing_stores: u64,
    /// Stores that matched at least one trigger region (post silent-store
    /// suppression) and therefore fired.
    pub triggering_stores: u64,
    /// Individual (store, region) trigger matches.
    pub triggers_fired: u64,
    /// Trigger matches at the configured granularity whose *precise* byte
    /// ranges did not overlap the watched region (false triggers).
    pub false_triggers: u64,
    /// Triggers absorbed because the tthread was already pending.
    pub coalesced_triggers: u64,
    /// Tthreads enqueued for a worker.
    pub enqueues: u64,
    /// Queue-full events.
    pub queue_overflows: u64,
    /// Tthread executions, wherever they ran.
    pub executions: u64,
    /// Executions performed inline on the triggering/main thread.
    pub inline_executions: u64,
    /// Executions performed by worker threads, each detached: off the
    /// state lock, against a view of tracked memory, committed afterwards.
    pub worker_executions: u64,
    /// Stores replayed from detached write logs at commit time.
    pub commit_stores: u64,
    /// Replayed stores found silent at commit — another thread had already
    /// published the same bytes — so no trigger fired.
    pub commit_conflicts: u64,
    /// `join` calls that found the tthread clean and skipped the computation.
    pub skips: u64,
    /// `join` calls observed — the paper's *join points*, regardless of
    /// outcome (skipped, overlapped, waited, ran inline, or stolen).
    pub joins: u64,
    /// `join` calls that had to wait for a running worker.
    pub waited_joins: u64,
    /// Triggers raised by stores performed inside tthreads (cascades).
    pub cascade_triggers: u64,
    /// Tracked loads executed (every `get`/`read` call).
    pub tracked_loads: u64,
    /// Bytes compared by silent-store detection.
    pub bytes_compared: u64,
    /// Extra body re-runs because a trigger landed during the previous run
    /// (the commit→retrigger loop going around again).
    pub commit_retries: u64,
    /// Times the retry loop hit [`crate::config::Config::commit_retry_cap`]
    /// and deferred the tthread to its next join instead.
    pub commit_retry_exhausted: u64,
    /// Tthread bodies that overran
    /// [`crate::config::Config::body_deadline`]; their write logs were
    /// discarded.
    pub body_timeouts: u64,
    /// Worker wake notifications actually delivered by the dispatch path
    /// (one per enqueued unit with a sleeper present; silent and coalesced
    /// stores never wake anyone).
    pub worker_wakes: u64,
    /// Times a worker found no pending work and parked on the dispatch
    /// eventcount.
    pub worker_parks: u64,
    /// Pending-queue entries discarded at claim time because their token
    /// was stale (the tthread was stolen by a join/force after enqueue).
    pub queue_stale_skips: u64,
    /// Parks that ended by exhausting the park timeout rather than by a
    /// wake notification. Idle workers accrue these at the park-timeout
    /// rate while quiescent; the ones that rescued a dropped wake are also
    /// counted in [`Counters::park_rescues`].
    pub park_timeouts: u64,
    /// Watched-address filter probes (one per changing store that reached
    /// the filter).
    pub filter_checks: u64,
    /// Probes that found a page bit set and descended to the line level
    /// (`filter_checks − filter_page_hits` stores exited after the level-1
    /// load alone).
    pub filter_page_hits: u64,
    /// Probes that also matched a watched 64-byte line and fell through to
    /// the trigger-table lookup; `filter_page_hits − filter_line_hits`
    /// stores exited at line granularity without the table read lock.
    pub filter_line_hits: u64,
    /// Cascade wave units: downstream raises propagated from a tthread's
    /// committed (or inline) stores to *another* tthread's trigger region,
    /// plus the fully-silent commits that terminated a wave (counted in
    /// [`Counters::cascade_cutoffs`]). Conserved as
    /// `cascades == cascade_enqueues + cascade_coalesced + cascade_cutoffs`.
    pub cascades: u64,
    /// Cascade raises handed to the dispatch layer: enqueued for a worker,
    /// marked Triggered for a later join, or overflow-executed inline.
    pub cascade_enqueues: u64,
    /// Cascade raises absorbed by an already-pending downstream slot.
    pub cascade_coalesced: u64,
    /// Early cutoffs: cascade-driven recomputations whose commit was fully
    /// silent (zero non-silent watched lines), stopping the wave there —
    /// the paper's redundancy elimination applied transitively.
    pub cascade_cutoffs: u64,
    /// Duplicate downstream raises suppressed within one commit epoch (the
    /// invalidation wave is deduplicated per commit, not per store).
    pub wave_dedups: u64,
    /// Watch or output declarations rejected because they would close a
    /// cycle in the declared dependency graph
    /// ([`crate::error::Error::TriggerCycle`]).
    pub trigger_cycles_rejected: u64,
    /// Backoff sleeps taken between detached commit retries when
    /// [`crate::config::Config::commit_backoff`] is set: one per retry
    /// that waited (bounded-exponential step + SplitMix64 jitter) before
    /// starting the next view. Always zero with the default `None` backoff.
    pub commit_backoff_waits: u64,
    /// The [`Counters::park_timeouts`] that were *rescues*: the park
    /// expired with no wake issued since it validated, yet the worker's
    /// queue held work, or the joined tthread had left the state the joiner
    /// waited on. Each is a lost wake carried by the timer. Zero outside
    /// fault injection.
    pub park_rescues: u64,
    /// Queued executions run by a thread waiting in `join` or `force`
    /// instead of parking: detached exactly like a worker's run, but
    /// counted apart from [`Counters::worker_executions`]. Conserved as
    /// `executions == inline_executions + worker_executions +
    /// helped_executions`.
    pub helped_executions: u64,
    /// Detached body runs abandoned because a stripe they read changed
    /// after their view started (see [`crate::ctx`]): a backstop the
    /// consistent cut costs, counted like the commit retries. Zero without
    /// workers.
    pub view_restarts: u64,
}

/// Hands the complete counter field list, in declaration order, to the
/// macro `$cb`. This is the *single source of truth* for the counter lines'
/// word layout ([`Tally`]), their fold, and every serialization path —
/// [`Counters::fields`] (which also drives the Prometheus exporter in
/// `dtt-obs`), [`StatsSnapshot::to_json`] and [`StatsSnapshot::from_json`]
/// — so adding a counter to [`Counters`] only requires extending this list
/// once.
macro_rules! for_each_counter {
    ($cb:ident) => {
        $cb! {
            tracked_stores,
            silent_stores,
            changing_stores,
            triggering_stores,
            triggers_fired,
            false_triggers,
            coalesced_triggers,
            enqueues,
            queue_overflows,
            executions,
            inline_executions,
            worker_executions,
            commit_stores,
            commit_conflicts,
            skips,
            joins,
            waited_joins,
            cascade_triggers,
            tracked_loads,
            bytes_compared,
            commit_retries,
            commit_retry_exhausted,
            body_timeouts,
            worker_wakes,
            worker_parks,
            queue_stale_skips,
            park_timeouts,
            filter_checks,
            filter_page_hits,
            filter_line_hits,
            cascades,
            cascade_enqueues,
            cascade_coalesced,
            cascade_cutoffs,
            wave_dedups,
            trigger_cycles_rejected,
            commit_backoff_waits,
            park_rescues,
            helped_executions,
            view_restarts,
        }
    };
}

impl Counters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the counters into an immutable snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot { c: self.clone() }
    }
}

/// Generates everything that walks the counter list, from
/// [`for_each_counter!`].
macro_rules! counter_impls {
    ($($f:ident),+ $(,)?) => {
        /// A counter's word in a [`CounterLine`], named after its field.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum Tally { $($f),+ }

        const TALLIES: usize = [$(Tally::$f),+].len();

        impl Counters {
            /// Every counter as a `(name, value)` pair, in declaration
            /// order. The names are the field identifiers
            /// (`tracked_stores`, ...), stable for external consumers; the
            /// list is generated from the same macro as the JSON path, so
            /// the serializations cannot drift apart.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($f), self.$f)),+]
            }

            /// Sets the counter named `name` to `value`; returns `false`
            /// (leaving the counters untouched) for an unknown name.
            pub fn set_field(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $(stringify!($f) => self.$f = value,)+
                    _ => return false,
                }
                true
            }

            /// The counts accrued since `baseline`, an earlier fold.
            pub(crate) fn since(&self, baseline: &Counters) -> Counters {
                Counters { $($f: self.$f - baseline.$f),+ }
            }
        }

        impl CounterLine {
            fn add_to(&self, c: &mut Counters) {
                $(c.$f += self.0[Tally::$f as usize].load(Ordering::Relaxed);)+
            }
        }
    };
}

for_each_counter!(counter_impls);

/// Every counter as one word, with exactly one writing thread, so a bump
/// is a `Relaxed` load and store with no read-modify-write. A fold reads
/// the words `Relaxed`; each only grows. 64-byte aligned, so no two
/// writers share a cache line.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct CounterLine([AtomicU64; TALLIES]);

impl Default for CounterLine {
    fn default() -> Self {
        CounterLine(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl CounterLine {
    /// Adds `n` to counter `which`. Only the line's writer may call this.
    #[inline(always)]
    pub(crate) fn bump(&self, which: Tally, n: u64) {
        let word = &self.0[which as usize];
        word.store(word.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// Accounts one tracked store with the given [`StoreEffect`]; without
    /// change detection every store counts as changing.
    #[inline(always)]
    pub(crate) fn on_store(&self, effect: StoreEffect, detect: bool) {
        self.bump(Tally::tracked_stores, 1);
        self.bump(Tally::bytes_compared, effect.bytes_compared);
        if detect && !effect.changed {
            self.bump(Tally::silent_stores, 1);
        } else {
            self.bump(Tally::changing_stores, 1);
        }
    }

    /// Accounts a bulk store of `stores` elements of `size` bytes,
    /// `changed` of which changed memory.
    pub(crate) fn on_stores(&self, stores: usize, changed: usize, size: usize, detect: bool) {
        self.bump(Tally::tracked_stores, stores as u64);
        if detect {
            self.bump(Tally::bytes_compared, (stores * size) as u64);
            self.bump(Tally::silent_stores, (stores - changed) as u64);
        }
        self.bump(Tally::changing_stores, changed as u64);
    }

    /// Accounts one watched-address filter probe and how deep it went.
    #[inline]
    pub(crate) fn on_filter(&self, probe: FilterProbe) {
        self.bump(Tally::filter_checks, 1);
        if !matches!(probe, FilterProbe::MissPage) {
            self.bump(Tally::filter_page_hits, 1);
        }
        if matches!(probe, FilterProbe::Hit) {
            self.bump(Tally::filter_line_hits, 1);
        }
    }
}

/// The counter lines outside the state lock (the lock line lives in the
/// locked state).
#[derive(Debug)]
pub(crate) struct CounterLines {
    /// Written by the thread holding `&mut Runtime`.
    pub(crate) owner: CounterLine,
    /// One per worker thread, by worker index.
    pub(crate) workers: Box<[CounterLine]>,
    /// Every line an `Accessor` ever held, and the free ones. The mutex
    /// orders a line's last bump by one accessor before the next's first.
    accessors: Mutex<(Lines, Lines)>,
}

type Lines = Vec<Arc<CounterLine>>;

impl CounterLines {
    pub(crate) fn new(workers: usize) -> Self {
        CounterLines {
            owner: CounterLine::default(),
            workers: (0..workers).map(|_| CounterLine::default()).collect(),
            accessors: Mutex::default(),
        }
    }

    /// A free line for a new accessor, or a fresh one.
    pub(crate) fn acquire(&self) -> Arc<CounterLine> {
        let (all, free) = &mut *self.accessors.lock();
        free.pop().unwrap_or_else(|| {
            all.push(Arc::default());
            Arc::clone(&all[all.len() - 1])
        })
    }

    /// Hands back an accessor's line, counts kept.
    pub(crate) fn release(&self, line: Arc<CounterLine>) {
        let (_, free) = &mut *self.accessors.lock();
        free.push(line);
    }

    /// `lock_line`, read under the state lock, plus every line here.
    pub(crate) fn fold(&self, lock_line: &CounterLine) -> Counters {
        let mut c = Counters::default();
        lock_line.add_to(&mut c);
        self.owner.add_to(&mut c);
        self.workers.iter().for_each(|line| line.add_to(&mut c));
        let (all, _) = &*self.accessors.lock();
        all.iter().for_each(|line| line.add_to(&mut c));
        c
    }
}

/// An immutable copy of the runtime counters, with derived ratios.
///
/// # Examples
///
/// ```
/// use dtt_core::stats::Counters;
/// let mut c = Counters::new();
/// c.tracked_stores = 10;
/// c.silent_stores = 4;
/// let snap = c.snapshot();
/// assert!((snap.silent_store_fraction() - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    c: Counters,
}

impl StatsSnapshot {
    /// The raw counters.
    pub fn counters(&self) -> &Counters {
        &self.c
    }

    /// Fraction of tracked stores that were silent, in `[0, 1]`; `0` when no
    /// stores were executed.
    pub fn silent_store_fraction(&self) -> f64 {
        ratio(self.c.silent_stores, self.c.tracked_stores)
    }

    /// Fraction of trigger matches that were false triggers.
    pub fn false_trigger_fraction(&self) -> f64 {
        ratio(self.c.false_triggers, self.c.triggers_fired)
    }

    /// Fraction of `join` points at which the computation was skipped
    /// entirely — the paper's redundant-computation elimination rate.
    ///
    /// The denominator counts `join` calls, not executions: cascades and
    /// commit-time retriggers execute tthreads without a join point, and
    /// counting them used to understate the elimination rate.
    pub fn skip_fraction(&self) -> f64 {
        ratio(self.c.skips, self.c.joins)
    }

    /// Triggers per tracked kilo-store, a density measure used in R-Tab.2.
    pub fn triggers_per_kilo_store(&self) -> f64 {
        if self.c.tracked_stores == 0 {
            0.0
        } else {
            self.c.triggering_stores as f64 * 1000.0 / self.c.tracked_stores as f64
        }
    }

    /// Every counter as a `(name, value)` pair; see [`Counters::fields`].
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        self.c.fields()
    }

    /// Serializes the snapshot as a flat, single-line JSON object whose
    /// keys are the counter field names, in declaration order. This is the
    /// one JSON shape shared by `dtt obs metrics` and the exporters; it
    /// round-trips exactly through [`StatsSnapshot::from_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.c.fields().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push('}');
        out
    }

    /// Parses a snapshot from the JSON shape produced by
    /// [`StatsSnapshot::to_json`]: one flat object of unsigned-integer
    /// counter fields (whitespace tolerated, any key order, missing keys
    /// default to zero).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token, unknown key, or
    /// non-integer value.
    pub fn from_json(text: &str) -> Result<StatsSnapshot, String> {
        let mut c = Counters::new();
        let mut rest = text.trim_start();
        rest = rest
            .strip_prefix('{')
            .ok_or_else(|| "expected '{' at start of stats object".to_string())?;
        loop {
            rest = rest.trim_start();
            if let Some(tail) = rest.strip_prefix('}') {
                if !tail.trim().is_empty() {
                    return Err("trailing data after stats object".to_string());
                }
                return Ok(StatsSnapshot { c });
            }
            rest = rest
                .strip_prefix('"')
                .ok_or_else(|| "expected '\"' starting a field name".to_string())?;
            let end = rest
                .find('"')
                .ok_or_else(|| "unterminated field name".to_string())?;
            let (name, tail) = rest.split_at(end);
            rest = tail[1..].trim_start();
            rest = rest
                .strip_prefix(':')
                .ok_or_else(|| format!("expected ':' after field {name:?}"))?;
            rest = rest.trim_start();
            let digits = rest.len()
                - rest
                    .trim_start_matches(|ch: char| ch.is_ascii_digit())
                    .len();
            if digits == 0 {
                return Err(format!("expected an unsigned integer for field {name:?}"));
            }
            let value: u64 = rest[..digits]
                .parse()
                .map_err(|e| format!("field {name:?}: {e}"))?;
            if !c.set_field(name, value) {
                return Err(format!("unknown counter field {name:?}"));
            }
            rest = rest[digits..].trim_start();
            if let Some(tail) = rest.strip_prefix(',') {
                rest = tail;
            } else if !rest.starts_with('}') {
                return Err(format!("expected ',' or '}}' after field {name:?}"));
            }
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.c;
        writeln!(f, "tracked stores        {:>12}", c.tracked_stores)?;
        writeln!(
            f,
            "  silent              {:>12}  ({:.1}%)",
            c.silent_stores,
            100.0 * self.silent_store_fraction()
        )?;
        writeln!(f, "  changing            {:>12}", c.changing_stores)?;
        writeln!(f, "triggering stores     {:>12}", c.triggering_stores)?;
        writeln!(
            f,
            "triggers fired        {:>12}  (false: {})",
            c.triggers_fired, c.false_triggers
        )?;
        writeln!(f, "coalesced triggers    {:>12}", c.coalesced_triggers)?;
        writeln!(
            f,
            "enqueues / overflows  {:>12} / {}",
            c.enqueues, c.queue_overflows
        )?;
        writeln!(
            f,
            "executions            {:>12}  (inline {}, worker {}, helped {})",
            c.executions, c.inline_executions, c.worker_executions, c.helped_executions
        )?;
        writeln!(
            f,
            "commit stores         {:>12}  (conflicts: {})",
            c.commit_stores, c.commit_conflicts
        )?;
        writeln!(f, "joins                 {:>12}", c.joins)?;
        writeln!(
            f,
            "skips                 {:>12}  ({:.1}% of joins)",
            c.skips,
            100.0 * self.skip_fraction()
        )?;
        writeln!(f, "waited joins          {:>12}", c.waited_joins)?;
        writeln!(f, "cascade triggers      {:>12}", c.cascade_triggers)?;
        writeln!(f, "tracked loads         {:>12}", c.tracked_loads)?;
        writeln!(f, "bytes compared        {:>12}", c.bytes_compared)?;
        writeln!(
            f,
            "commit retries        {:>12}  (exhausted: {}, backoff waits: {})",
            c.commit_retries, c.commit_retry_exhausted, c.commit_backoff_waits
        )?;
        writeln!(f, "view restarts         {:>12}", c.view_restarts)?;
        writeln!(f, "body timeouts         {:>12}", c.body_timeouts)?;
        writeln!(
            f,
            "worker wakes / parks  {:>12} / {}",
            c.worker_wakes, c.worker_parks
        )?;
        writeln!(f, "stale queue skips     {:>12}", c.queue_stale_skips)?;
        writeln!(
            f,
            "park timeouts         {:>12}  (rescues: {})",
            c.park_timeouts, c.park_rescues
        )?;
        writeln!(
            f,
            "filter checks         {:>12}  (page hits {}, line hits {})",
            c.filter_checks, c.filter_page_hits, c.filter_line_hits
        )?;
        writeln!(
            f,
            "cascade waves         {:>12}  (enqueued {}, coalesced {}, cutoffs {})",
            c.cascades, c.cascade_enqueues, c.cascade_coalesced, c.cascade_cutoffs
        )?;
        write!(
            f,
            "wave dedups / cycles  {:>12} / {}",
            c.wave_dedups, c.trigger_cycles_rejected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let snap = Counters::new().snapshot();
        assert_eq!(snap.silent_store_fraction(), 0.0);
        assert_eq!(snap.false_trigger_fraction(), 0.0);
        assert_eq!(snap.skip_fraction(), 0.0);
        assert_eq!(snap.triggers_per_kilo_store(), 0.0);
    }

    #[test]
    fn derived_ratios() {
        let mut c = Counters::new();
        c.tracked_stores = 1000;
        c.silent_stores = 780;
        c.triggering_stores = 20;
        c.triggers_fired = 40;
        c.false_triggers = 10;
        c.skips = 75;
        c.joins = 100;
        // Executions beyond the join points (cascades, retriggers) must not
        // dilute the elimination rate.
        c.executions = 400;
        let s = c.snapshot();
        assert!((s.silent_store_fraction() - 0.78).abs() < 1e-12);
        assert!((s.false_trigger_fraction() - 0.25).abs() < 1e-12);
        assert!((s.skip_fraction() - 0.75).abs() < 1e-12);
        assert!((s.triggers_per_kilo_store() - 20.0).abs() < 1e-12);
    }

    /// Counters with the named fields set, every other one zero.
    fn counts(fields: &[(&str, u64)]) -> Counters {
        let mut c = Counters::new();
        for &(name, value) in fields {
            assert!(c.set_field(name, value), "unknown field {name}");
        }
        c
    }

    #[test]
    fn counter_lines_fold_exactly_and_reset_to_a_baseline() {
        use crate::filter::FilterProbe::{Hit, MissLine, MissPage};
        let lines = CounterLines::new(2);
        let lock_line = CounterLine::default();
        // Spread updates across the lock, owner and worker lines.
        for i in 0..32u64 {
            let line = [
                &lock_line,
                &lines.owner,
                &lines.workers[0],
                &lines.workers[1],
            ];
            let line = line[i as usize % 4];
            let (changed, bytes_compared) = (i % 2 == 0, 4);
            line.on_store(
                StoreEffect {
                    changed,
                    bytes_compared,
                },
                true,
            );
            line.bump(Tally::tracked_loads, 3);
            line.on_filter([MissPage, MissLine, Hit][i as usize % 3]);
        }
        // A bulk store on an accessor's line (8 elements, 3 changed), and
        // a second accessor's line, released before the fold: its counts
        // stay.
        let acc = lines.acquire();
        acc.on_stores(8, 3, 2, true);
        let other = lines.acquire();
        other.bump(Tally::triggers_fired, 40);
        other.bump(Tally::view_restarts, 20);
        lines.release(other);
        // Whole-struct equality: no tally folds into a neighbour's field.
        // i = 0..32 cycles MissPage/MissLine/Hit: 11 + 11 + 10.
        assert_eq!(
            lines.fold(&lock_line).since(&Counters::new()),
            counts(&[
                ("tracked_stores", 32 + 8),
                ("silent_stores", 16 + 5),
                ("changing_stores", 16 + 3),
                ("tracked_loads", 32 * 3),
                ("bytes_compared", 32 * 4 + 8 * 2),
                ("filter_checks", 32),
                ("filter_page_hits", 11 + 10),
                ("filter_line_hits", 10),
                ("triggers_fired", 40),
                ("view_restarts", 20),
            ])
        );

        // The released line is the next accessor's, counts kept; a reset
        // is a baseline, and only what comes after it counts.
        let reused = lines.acquire();
        let baseline = lines.fold(&lock_line);
        reused.bump(Tally::triggers_fired, 5);
        acc.bump(Tally::tracked_loads, 1);
        lines.workers[1].bump(Tally::park_timeouts, 1);
        let want = [
            ("triggers_fired", 5),
            ("tracked_loads", 1),
            ("park_timeouts", 1),
        ];
        assert_eq!(lines.fold(&lock_line).since(&baseline), counts(&want));
        assert_eq!(lines.accessors.lock().0.len(), 2, "the line was reused");
    }

    #[test]
    fn writer_lines_never_share_a_cache_line() {
        assert_eq!(std::mem::align_of::<CounterLine>(), 64);
        assert_eq!(std::mem::size_of::<CounterLine>() % 64, 0);
        let lines = CounterLines::new(3);
        let (a, b) = (lines.acquire(), lines.acquire());
        let mut starts: Vec<usize> = [&lines.owner, &*a, &*b]
            .into_iter()
            .chain(lines.workers.iter())
            .map(|line| line as *const CounterLine as usize)
            .collect();
        starts.sort_unstable();
        assert!(starts.iter().all(|s| s % 64 == 0), "{starts:x?}");
        let size = std::mem::size_of::<CounterLine>();
        assert!(
            starts.windows(2).all(|w| w[1] - w[0] >= size),
            "{starts:x?}"
        );
    }

    #[test]
    fn line_store_without_detection_counts_changing() {
        let line = CounterLine::default();
        let (changed, bytes_compared) = (false, 0);
        line.on_store(
            StoreEffect {
                changed,
                bytes_compared,
            },
            false,
        );
        line.on_stores(4, 4, 8, false);
        let c = CounterLines::new(0).fold(&line).since(&Counters::new());
        assert_eq!(c, counts(&[("tracked_stores", 5), ("changing_stores", 5)]));
    }

    #[test]
    fn display_lists_all_sections() {
        let mut c = Counters::new();
        c.tracked_stores = 5;
        let text = c.snapshot().to_string();
        for needle in [
            "tracked stores",
            "silent",
            "triggering stores",
            "coalesced",
            "executions",
            "skips",
            "cascade",
            "cascade waves",
            "wave dedups",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }

    #[test]
    fn fields_cover_every_counter_in_declaration_order() {
        let mut c = Counters::new();
        // Give every field a distinct value so a swapped or missing entry
        // cannot cancel out.
        for (i, (name, _)) in c.clone().fields().into_iter().enumerate() {
            assert!(c.set_field(name, (i + 1) as u64), "unknown field {name}");
        }
        let fields = c.fields();
        assert_eq!(fields.len(), 40);
        assert_eq!(fields[0], ("tracked_stores", 1));
        assert_eq!(fields[11], ("worker_executions", 12));
        assert_eq!(fields[12], ("commit_stores", 13));
        assert_eq!(fields[19], ("bytes_compared", 20));
        assert_eq!(fields[25], ("queue_stale_skips", 26));
        assert_eq!(fields[26], ("park_timeouts", 27));
        assert_eq!(fields[27], ("filter_checks", 28));
        assert_eq!(fields[28], ("filter_page_hits", 29));
        assert_eq!(fields[29], ("filter_line_hits", 30));
        assert_eq!(fields[30], ("cascades", 31));
        assert_eq!(fields[31], ("cascade_enqueues", 32));
        assert_eq!(fields[32], ("cascade_coalesced", 33));
        assert_eq!(fields[33], ("cascade_cutoffs", 34));
        assert_eq!(fields[34], ("wave_dedups", 35));
        assert_eq!(fields[35], ("trigger_cycles_rejected", 36));
        assert_eq!(fields[36], ("commit_backoff_waits", 37));
        assert_eq!(fields[37], ("park_rescues", 38));
        assert_eq!(fields[38], ("helped_executions", 39));
        assert_eq!(fields[39], ("view_restarts", 40));
        for (i, (_, v)) in fields.iter().enumerate() {
            assert_eq!(*v, (i + 1) as u64);
        }
        assert!(!c.set_field("not_a_counter", 7));
    }

    #[test]
    fn json_round_trips_exactly() {
        let mut c = Counters::new();
        for (i, (name, _)) in c.clone().fields().into_iter().enumerate() {
            c.set_field(name, (i as u64 + 1) * 1_000_003);
        }
        let snap = c.snapshot();
        let json = snap.to_json();
        let back = StatsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        // Whitespace and key order don't matter; missing keys default to 0.
        let sparse = StatsSnapshot::from_json("{ \"joins\" : 7, \"skips\": 3 }").unwrap();
        assert_eq!(sparse.counters().joins, 7);
        assert_eq!(sparse.counters().skips, 3);
        assert_eq!(sparse.counters().tracked_stores, 0);
        let empty = StatsSnapshot::from_json("{}").unwrap();
        assert_eq!(empty, Counters::new().snapshot());
    }

    #[test]
    fn json_rejects_malformed_input() {
        for bad in [
            "",
            "[]",
            "{\"joins\":}",
            "{\"joins\":-1}",
            "{\"joins\":1.5}",
            "{\"unknown_counter\":1}",
            "{\"joins\":1",
            "{\"joins\":1}x",
            "{joins:1}",
        ] {
            assert!(
                StatsSnapshot::from_json(bad).is_err(),
                "accepted malformed input {bad:?}"
            );
        }
    }

    #[test]
    fn snapshot_preserves_counters() {
        let mut c = Counters::new();
        c.enqueues = 9;
        c.queue_overflows = 2;
        let s = c.snapshot();
        assert_eq!(s.counters().enqueues, 9);
        assert_eq!(s.counters().queue_overflows, 2);
    }
}
