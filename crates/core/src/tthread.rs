//! Tthread identity and the thread status table (TST).
//!
//! The HPCA'11 hardware keeps a small *thread status table* recording, for
//! every registered tthread, whether its attached computation is up to date.
//! Here it is one append-only table with one entry per registered tthread,
//! indexed by its [`TthreadId`]. The entry holds the dispatch slot (the
//! status word raisers and claimers advance by compare-and-swap without the
//! state lock, the trigger tally, the poison and timeout bits and the
//! changed set, on one cache line), the name and body, set once at
//! registration, and the execution, epoch and skip tallies. The main
//! thread's `tstatus` check at a consumption point is
//! [`crate::runtime::Runtime::join`]: one load of the slot decides skip,
//! run or wait.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::ctx::Ctx;
use crate::dispatch::Slot;

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

/// A registered tthread's body.
pub(crate) type TthreadFn<U> = Box<dyn Fn(&mut Ctx<'_, U>) + Send + Sync>;

/// A tally with one writer, named where it is declared: a bump is a
/// `Relaxed` load and store, as `CounterLine::bump` does.
#[derive(Default)]
pub(crate) struct Count(AtomicU64);

impl Count {
    #[inline]
    pub(crate) fn bump(&self) {
        let n = self.0.load(Ordering::Relaxed);
        self.0.store(n + 1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One tthread's TST entry. The slot is 64-byte aligned and 64 bytes long,
/// so nothing else shares the line every raise and claim writes.
pub(crate) struct Tthread<U> {
    /// Status word, trigger tally, poison and timeout bits, changed set.
    pub(crate) slot: Slot,
    /// Body runs so far. Written under the state lock.
    pub(crate) executions: Count,
    /// Completed-execution epoch: one per return to Clean with outputs
    /// published (at commit for a detached run; a retrigger loop counts
    /// once). Written under the state lock.
    pub(crate) epoch: Count,
    /// Skipping joins so far. Written by the `&mut Runtime` holder.
    pub(crate) skips: Count,
    /// Name and body, set once at registration.
    entry: OnceLock<(String, TthreadFn<U>)>,
}

impl<U> Default for Tthread<U> {
    fn default() -> Self {
        Tthread {
            slot: Slot::default(),
            executions: Count::default(),
            epoch: Count::default(),
            skips: Count::default(),
            entry: OnceLock::new(),
        }
    }
}

impl<U> Tthread<U> {
    /// Fills a fresh entry at registration, before any trigger can name
    /// it. Nothing ran yet, so the first run sees everything as changed.
    pub(crate) fn init(&self, name: &str, body: TthreadFn<U>) {
        self.slot.changed.set_all();
        let fresh = self.entry.set((name.to_owned(), body)).is_ok();
        assert!(fresh, "tthread ids are issued once");
    }

    fn entry(&self) -> &(String, TthreadFn<U>) {
        self.entry.get().expect("tthread registered")
    }

    /// The registered name.
    pub(crate) fn name(&self) -> &str {
        &self.entry().0
    }

    /// The registered body.
    pub(crate) fn body(&self) -> &TthreadFn<U> {
        &self.entry().1
    }
}

/// The thread status table: chunked and append-only, one entry per
/// issued [`TthreadId`]. Chunks are allocated on demand behind
/// `OnceLock`s, so `register` (which grows the table) never moves an
/// entry workers may hold, and reads take no lock.
pub(crate) struct ChunkTable<T> {
    chunks: Box<[OnceLock<Box<[T]>>]>,
}

pub(crate) const CHUNK: usize = 64;
const MAX_CHUNKS: usize = 1024;

impl<T: Default> ChunkTable<T> {
    pub(crate) fn new() -> Self {
        ChunkTable {
            chunks: (0..MAX_CHUNKS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Ensures the chunk covering `id` exists (called at registration).
    ///
    /// # Panics
    ///
    /// Panics past `CHUNK * MAX_CHUNKS` tthreads.
    pub(crate) fn ensure(&self, id: TthreadId) {
        let chunk = id.index() / CHUNK;
        assert!(chunk < MAX_CHUNKS, "too many tthreads");
        self.chunks[chunk].get_or_init(|| (0..CHUNK).map(|_| T::default()).collect());
    }

    /// The entry for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id`'s chunk was never created by [`ChunkTable::ensure`].
    pub(crate) fn get(&self, id: TthreadId) -> &T {
        let chunk = self.chunks[id.index() / CHUNK]
            .get()
            .expect("entry accessed before registration");
        &chunk[id.index() % CHUNK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{POISONED, TIMED_OUT};
    use crate::{Config, Error, Runtime};

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut rt = Runtime::new(Config::default(), ());
        let a = rt.register("a", |_| {});
        let b = rt.register("b", |_| {});
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert!(a < b);
        assert_eq!(rt.report().tthreads.len(), 2);
        assert!(rt.status(a).is_ok());
        let foreign = TthreadId::new(2);
        assert!(matches!(rt.status(foreign), Err(Error::UnknownTthread(id)) if id == foreign));
    }

    fn tallies(t: &Tthread<()>) -> [u64; 4] {
        let triggers = t.slot.triggers.load(Ordering::Relaxed);
        [t.executions.get(), t.epoch.get(), t.skips.get(), triggers]
    }

    #[test]
    fn entries_start_clean() {
        let t = Tthread::<()>::default();
        assert_eq!(t.slot.status(), TthreadStatus::Clean);
        assert_eq!(t.slot.failure(), 0);
        assert!(t.slot.skippable());
        assert_eq!(tallies(&t), [0; 4]);
        t.init("t", Box::new(|_| {}));
        assert_eq!(t.name(), "t");
    }

    #[test]
    fn entry_mutation_is_visible() {
        let t = Tthread::<()>::default();
        t.executions.bump();
        t.executions.bump();
        t.skips.bump();
        assert_eq!(tallies(&t), [2, 0, 1, 0]);
        t.slot.force_clean(POISONED);
        t.slot.force_clean(TIMED_OUT);
        assert_eq!(t.slot.failure(), POISONED | TIMED_OUT);
        t.slot.clear_failure(POISONED);
        assert_eq!(t.slot.failure(), TIMED_OUT);
    }

    #[test]
    fn iter_yields_all_entries() {
        // Past one chunk, every id reads back its own entry.
        let table = ChunkTable::<Tthread<()>>::new();
        let mut ids = (0..CHUNK as u32 + 3).map(TthreadId::new);
        for id in ids.clone() {
            table.ensure(id);
            table.get(id).init(&id.to_string(), Box::new(|_| {}));
        }
        assert!(ids.all(|id| table.get(id).name() == id.to_string()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(TthreadId::new(9).to_string(), "tt#9");
        assert_eq!(TthreadStatus::Clean.to_string(), "clean");
        assert_eq!(TthreadStatus::Running.to_string(), "running");
    }
}
