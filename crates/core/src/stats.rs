//! Runtime statistics.
//!
//! Every behavioural event in the runtime increments a counter here; the
//! benchmark harness reads a [`StatsSnapshot`] to build the paper's
//! per-benchmark characteristics table (R-Tab.2) and the silent-store /
//! false-trigger ablations.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::heap::StoreEffect;

/// Mutable counters held inside the runtime's state lock.
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

/// Applies a callback macro to the complete counter field list, in
/// declaration order. This is the *single source of truth* shared by every
/// serialization path — [`Counters::fields`] (which also drives the
/// Prometheus exporter in `dtt-obs`), [`StatsSnapshot::to_json`] and
/// [`StatsSnapshot::from_json`] — so adding a counter to [`Counters`] only
/// requires extending this list once.
macro_rules! for_each_counter {
    ($cb:ident!($($extra:tt)*)) => {
        $cb!(
            $($extra)*
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
        )
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

    /// Every counter as a `(name, value)` pair, in declaration order. The
    /// names are the field identifiers (`tracked_stores`, ...), stable for
    /// external consumers; the list is generated from the same macro as the
    /// JSON path, so the serializations cannot drift apart.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        macro_rules! emit {
            ($self:ident, $($f:ident),+ $(,)?) => {
                vec![$((stringify!($f), $self.$f)),+]
            };
        }
        for_each_counter!(emit!(self,))
    }

    /// Sets the counter named `name` to `value`; returns `false` (leaving
    /// the counters untouched) for an unknown name.
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        macro_rules! emit {
            ($self:ident, $name:ident, $value:ident, $($f:ident),+ $(,)?) => {
                match $name {
                    $(stringify!($f) => {
                        $self.$f = $value;
                        true
                    })+
                    _ => false,
                }
            };
        }
        for_each_counter!(emit!(self, name, value,))
    }
}

/// Generates [`Tally`] — the names of the counters bumped *outside* the
/// state lock — and [`CounterBank::fold_into`] from one list, the way
/// [`for_each_counter!`] generates the serializers. The access-side names
/// come first so the eight words a tracked load/store touches share one
/// cache line of a [`BankLine`]; the dispatch-side names follow on the
/// next two.
macro_rules! counter_bank {
    ($($tally:ident => $field:ident),+ $(,)?) => {
        /// One counter of the [`CounterBank`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Tally {
            $($tally),+
        }

        const TALLIES: usize = [$(Tally::$tally),+].len();

        impl CounterBank {
            /// Adds every line's tallies into `c` (adds, never overwrites).
            pub(crate) fn fold_into(&self, c: &mut Counters) {
                for line in self.lines.iter() {
                    $(c.$field += line.0[Tally::$tally as usize].load(Ordering::Relaxed);)+
                }
            }
        }
    };
}

counter_bank! {
    TrackedStores => tracked_stores,
    SilentStores => silent_stores,
    ChangingStores => changing_stores,
    TrackedLoads => tracked_loads,
    BytesCompared => bytes_compared,
    FilterChecks => filter_checks,
    FilterPageHits => filter_page_hits,
    FilterLineHits => filter_line_hits,
    TriggeringStores => triggering_stores,
    TriggersFired => triggers_fired,
    FalseTriggers => false_triggers,
    CoalescedTriggers => coalesced_triggers,
    Enqueues => enqueues,
    WorkerWakes => worker_wakes,
    WorkerParks => worker_parks,
    QueueStaleSkips => queue_stale_skips,
    ParkTimeouts => park_timeouts,
    ParkRescues => park_rescues,
    ViewRestarts => view_restarts,
}

/// One line of the bank. Aligning each to 64 bytes keeps concurrent
/// threads on different lines from false-sharing the counter words.
#[derive(Debug)]
#[repr(align(64))]
struct BankLine([AtomicU64; TALLIES]);

/// The lock-free counter bank: every counter the [`crate::accessor`] store
/// path, the status-machine raise and the worker loop bump without the
/// state lock, as key-hashed lines of atomic words. (The same events on
/// the lock-holding `Ctx` path bump `State::stats` as plain integers.)
/// [`CounterBank::fold_into`] sums the lines back into a [`Counters`] at
/// snapshot time, so `StatsSnapshot` stays exact. All updates are
/// `Relaxed`: the counters are monotone sums with no ordering relationship
/// to the data they describe, and folding happens at a quiescent point (no
/// tthread bodies in flight that the caller cares about).
#[derive(Debug)]
pub(crate) struct CounterBank {
    lines: Box<[BankLine]>,
    mask: usize,
}

impl CounterBank {
    /// Creates a bank with one line per memory shard (`shards` is rounded
    /// up to a power of two, minimum 1, to match the address hash).
    pub(crate) fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        CounterBank {
            lines: (0..n)
                .map(|_| BankLine(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
            mask: n - 1,
        }
    }

    /// The line key for a tracked address: the same 64-byte stripe hash as
    /// the memory shards, so a thread working a disjoint address partition
    /// also gets (mostly) private counters.
    #[inline]
    pub(crate) fn addr_key(addr_raw: u64) -> usize {
        (addr_raw >> 6) as usize
    }

    /// Adds `n` to counter `which` on the line `key` hashes to. Callers
    /// key by address stripe, tthread index or worker index — anything
    /// that spreads concurrent threads over different lines.
    #[inline]
    pub(crate) fn add(&self, key: usize, which: Tally, n: u64) {
        self.lines[key & self.mask].0[which as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Accounts one tracked store with the given [`StoreEffect`].
    #[inline]
    pub(crate) fn on_store(&self, addr_raw: u64, effect: StoreEffect, detect: bool) {
        let key = Self::addr_key(addr_raw);
        self.add(key, Tally::TrackedStores, 1);
        self.add(key, Tally::BytesCompared, effect.bytes_compared);
        if detect && !effect.changed {
            self.add(key, Tally::SilentStores, 1);
        } else {
            self.add(key, Tally::ChangingStores, 1);
        }
    }

    /// Accounts one watched-address filter probe and how deep it went.
    #[inline]
    pub(crate) fn on_filter(&self, addr_raw: u64, probe: crate::filter::FilterProbe) {
        use crate::filter::FilterProbe;
        let key = Self::addr_key(addr_raw);
        self.add(key, Tally::FilterChecks, 1);
        if !matches!(probe, FilterProbe::MissPage) {
            self.add(key, Tally::FilterPageHits, 1);
        }
        if matches!(probe, FilterProbe::Hit) {
            self.add(key, Tally::FilterLineHits, 1);
        }
    }

    /// Folds the access-side counters a detached execution accumulated
    /// against its snapshot into line 0. Only the access-side counters are
    /// merged: trigger/queue/execution accounting for detached bodies
    /// happens at commit, under the lock.
    pub(crate) fn merge_delta(&self, delta: &Counters) {
        self.add(0, Tally::TrackedLoads, delta.tracked_loads);
        self.add(0, Tally::TrackedStores, delta.tracked_stores);
        self.add(0, Tally::SilentStores, delta.silent_stores);
        self.add(0, Tally::ChangingStores, delta.changing_stores);
        self.add(0, Tally::BytesCompared, delta.bytes_compared);
    }

    /// Zeroes every counter.
    pub(crate) fn reset(&self) {
        for word in self.lines.iter().flat_map(|line| &line.0) {
            word.store(0, Ordering::Relaxed);
        }
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

    #[test]
    fn counter_bank_folds_exactly_and_resets() {
        let bank = CounterBank::new(8);
        // Spread updates across distinct stripes (and thus lines).
        for stripe in 0..32u64 {
            let addr = stripe * 64;
            bank.on_store(
                addr,
                StoreEffect {
                    changed: stripe % 2 == 0,
                    bytes_compared: 4,
                },
                true,
            );
            bank.add(CounterBank::addr_key(addr), Tally::TrackedLoads, 3);
            bank.on_filter(
                addr,
                match stripe % 3 {
                    0 => crate::filter::FilterProbe::MissPage,
                    1 => crate::filter::FilterProbe::MissLine,
                    _ => crate::filter::FilterProbe::Hit,
                },
            );
        }
        let mut delta = Counters::new();
        delta.tracked_loads = 5;
        delta.tracked_stores = 2;
        delta.silent_stores = 1;
        delta.changing_stores = 1;
        delta.bytes_compared = 16;
        bank.merge_delta(&delta);
        // Dispatch-side tallies, keyed by tthread / worker index.
        for key in 0..20 {
            bank.add(key, Tally::TriggeringStores, 1);
            bank.add(key, Tally::TriggersFired, 2);
            bank.add(key, Tally::FalseTriggers, 1);
            bank.add(key, Tally::CoalescedTriggers, 1);
            bank.add(key, Tally::Enqueues, 1);
            bank.add(key, Tally::WorkerWakes, 1);
            bank.add(key, Tally::WorkerParks, 1);
            bank.add(key, Tally::QueueStaleSkips, 1);
            bank.add(key, Tally::ParkTimeouts, 1);
            bank.add(key, Tally::ParkRescues, 1);
            bank.add(key, Tally::ViewRestarts, 1);
        }

        let mut c = Counters::new();
        c.tracked_stores = 1000; // folding adds, never overwrites
        bank.fold_into(&mut c);
        let mut want = Counters::new();
        want.tracked_stores = 1000 + 32 + 2;
        want.silent_stores = 16 + 1;
        want.changing_stores = 16 + 1;
        want.tracked_loads = 32 * 3 + 5;
        want.bytes_compared = 32 * 4 + 16;
        // Stripes 0..32 cycle MissPage/MissLine/Hit: 11 + 11 + 10.
        want.filter_checks = 32;
        want.filter_page_hits = 11 + 10;
        want.filter_line_hits = 10;
        want.triggering_stores = 20;
        want.triggers_fired = 40;
        want.false_triggers = 20;
        want.coalesced_triggers = 20;
        want.enqueues = 20;
        want.worker_wakes = 20;
        want.worker_parks = 20;
        want.queue_stale_skips = 20;
        want.park_timeouts = 20;
        want.park_rescues = 20;
        want.view_restarts = 20;
        // Whole-struct equality: no tally folds into a neighbour's field.
        assert_eq!(c, want);

        bank.reset();
        let mut z = Counters::new();
        bank.fold_into(&mut z);
        assert_eq!(z, Counters::new());
    }

    #[test]
    fn access_side_tallies_share_the_first_cache_line() {
        assert_eq!(Tally::FilterLineHits as usize, 7);
        assert_eq!(std::mem::align_of::<BankLine>(), 64);
    }

    #[test]
    fn counter_bank_store_without_detection_counts_changing() {
        let bank = CounterBank::new(1);
        bank.on_store(
            0,
            StoreEffect {
                changed: true,
                bytes_compared: 0,
            },
            false,
        );
        let mut c = Counters::new();
        bank.fold_into(&mut c);
        assert_eq!(c.changing_stores, 1);
        assert_eq!(c.silent_stores, 0);
        assert_eq!(c.bytes_compared, 0);
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
