//! Tthread identity and the thread status table (TST).
//!
//! The HPCA'11 hardware keeps a small *thread status table* recording, for
//! every registered tthread, whether its attached computation is up to date.
//! [`StatusTable`] is that structure. The main thread's `tstatus` check at a
//! consumption point is [`crate::runtime::Runtime::join`], which consults
//! this table to decide skip / run / wait.
//!
//! Since the dispatch path moved off the state lock, the *live* part of the
//! TST entry — status, retrigger flag, completed-since-join flag, trigger
//! count — is a packed atomic word in the dispatch layer's slot table, CAS'd
//! by raisers and claimers without the state lock. Because every transition
//! bumps the word's token bits, the raw word doubles as a *generation
//! counter*: a lock-free `join` that finds a tthread `Running` snapshots
//! the word, drops the state lock, and sleeps until the word changes —
//! which is exactly "the run I observed ended or was re-raised". What
//! remains here is the slow bookkeeping only ever touched under the state
//! lock: poison/timeout fault state (mirrored into the slot's failure flag
//! for the lock-free skip) and the execution/epoch tallies. Join skips are
//! tallied by the [`crate::runtime::Runtime`] itself, per tthread.

use std::fmt;

/// Identifier of a registered data-triggered thread.
///
/// Issued by [`crate::runtime::Runtime::register`]; only meaningful for the
/// runtime that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TthreadId(u32);

impl TthreadId {
    /// Creates an id from a raw index. Intended for tests and tooling;
    /// normal code receives ids from `register`.
    pub const fn new(raw: u32) -> Self {
        TthreadId(raw)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TthreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tt#{}", self.0)
    }
}

/// Execution status of a tthread, as recorded in the TST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TthreadStatus {
    /// The last execution's outputs are still valid; a join may skip.
    #[default]
    Clean,
    /// A trigger fired; the computation must run before its next consumption
    /// (deferred executor, or a worker that hit its commit retry cap).
    Triggered,
    /// Enqueued, waiting for a worker.
    Queued,
    /// Currently executing on some thread.
    Running,
}

impl fmt::Display for TthreadStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TthreadStatus::Clean => "clean",
            TthreadStatus::Triggered => "triggered",
            TthreadStatus::Queued => "queued",
            TthreadStatus::Running => "running",
        };
        f.write_str(s)
    }
}

/// Per-tthread bookkeeping entry: the slow half of the TST, only read or
/// written under the state lock. The live status machine (state, retrigger,
/// completed-since-join, trigger count) lives in the lock-free dispatch
/// slot table.
#[derive(Debug, Clone, Default)]
pub struct TstEntry {
    /// Set when the tthread's body panicked: its outputs are suspect and
    /// joins fail until [`crate::runtime::Runtime::clear_poison`] is called.
    pub poisoned: bool,
    /// Set when the tthread's body overran the configured deadline: its
    /// write log was discarded, so its outputs are stale and joins fail
    /// until [`crate::runtime::Runtime::clear_timeout`] is called.
    pub timed_out: bool,
    /// Total times this tthread has executed.
    pub executions: u64,
    /// Completed-execution epoch: bumped once each time the tthread leaves
    /// `Running` for `Clean` with its outputs published (a retrigger loop
    /// of several body runs advances the epoch once; a poisoned run not at
    /// all). Detached executions bump it at commit, when their effects
    /// become visible.
    pub epoch: u64,
}

/// The thread status table: one [`TstEntry`] per registered tthread.
#[derive(Debug, Clone, Default)]
pub struct StatusTable {
    entries: Vec<TstEntry>,
}

impl StatusTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry for a newly registered tthread and returns its id.
    pub fn push(&mut self) -> TthreadId {
        let id = TthreadId(u32::try_from(self.entries.len()).expect("too many tthreads"));
        self.entries.push(TstEntry::default());
        id
    }

    /// Number of registered tthreads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no tthreads are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `id` was issued by this table.
    pub fn contains(&self, id: TthreadId) -> bool {
        id.index() < self.entries.len()
    }

    /// Shared access to an entry.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown; the runtime validates ids at its public
    /// boundary.
    pub fn entry(&self, id: TthreadId) -> &TstEntry {
        &self.entries[id.index()]
    }

    /// Mutable access to an entry.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn entry_mut(&mut self, id: TthreadId) -> &mut TstEntry {
        &mut self.entries[id.index()]
    }

    /// Iterates over `(id, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TthreadId, &TstEntry)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (TthreadId(i as u32), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut t = StatusTable::new();
        assert!(t.is_empty());
        let a = t.push();
        let b = t.push();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert!(a < b);
        assert_eq!(t.len(), 2);
        assert!(t.contains(a));
        assert!(!t.contains(TthreadId::new(2)));
    }

    #[test]
    fn entries_start_clean() {
        let mut t = StatusTable::new();
        let id = t.push();
        assert!(!t.entry(id).poisoned);
        assert!(!t.entry(id).timed_out);
        assert_eq!(t.entry(id).executions, 0);
        assert_eq!(t.entry(id).epoch, 0);
    }

    #[test]
    fn entry_mutation_is_visible() {
        let mut t = StatusTable::new();
        let id = t.push();
        t.entry_mut(id).executions += 1;
        t.entry_mut(id).poisoned = true;
        assert_eq!(t.entry(id).executions, 1);
        assert!(t.entry(id).poisoned);
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut t = StatusTable::new();
        let ids: Vec<_> = (0..5).map(|_| t.push()).collect();
        let seen: Vec<_> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, seen);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TthreadId::new(9).to_string(), "tt#9");
        assert_eq!(TthreadStatus::Clean.to_string(), "clean");
        assert_eq!(TthreadStatus::Running.to_string(), "running");
    }
}
