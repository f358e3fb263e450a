//! Tracked-memory access from a thread that holds no `&mut Runtime`.
//!
//! [`Accessor`] is a shared-reference counterpart of
//! [`crate::runtime::Runtime::with`]: each call takes the state lock and
//! runs the same [`Ctx`] method a `with` region runs, so an accessor store
//! counts on the lock line and filters, looks up, raises and settles an
//! overflow exactly as a main-thread store does. Accessors on different
//! threads serialize on the state lock: tracked memory and the trigger
//! index have one writer at a time.

use crate::handle::{Tracked, TrackedArray};
use crate::pod::Pod;
use crate::runtime::Inner;
use crate::Ctx;

/// A per-thread handle for tracked memory access through `&Runtime`.
///
/// Create one per thread with [`crate::runtime::Runtime::accessor`]. Each
/// access takes the state lock for its own duration, so do not use an
/// accessor inside a [`crate::runtime::Runtime::with`] region or a tthread
/// body that holds the lock.
///
/// # Examples
///
/// ```
/// use dtt_core::{Config, Runtime};
///
/// let mut rt = Runtime::new(Config::default(), ());
/// let xs = rt.alloc_array::<u64>(64).unwrap();
/// std::thread::scope(|s| {
///     let rt = &rt;
///     for t in 0..4usize {
///         s.spawn(move || {
///             let mut acc = rt.accessor();
///             for i in (t * 16)..(t * 16 + 16) {
///                 acc.write(xs, i, i as u64);
///             }
///         });
///     }
/// });
/// let mut acc = rt.accessor();
/// assert_eq!(acc.read(xs, 63), 63);
/// ```
pub struct Accessor<'rt, U> {
    inner: &'rt Inner<U>,
}

impl<U> std::fmt::Debug for Accessor<'_, U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Accessor").finish_non_exhaustive()
    }
}

impl<'rt, U: Send + 'static> Accessor<'rt, U> {
    pub(crate) fn new(inner: &'rt Inner<U>) -> Self {
        Accessor { inner }
    }

    /// Runs `f` on a locked context, as [`crate::runtime::Runtime::with`]
    /// does.
    fn locked<R>(&self, f: impl FnOnce(&mut Ctx<'_, U>) -> R) -> R {
        let mut state = self.inner.state.lock();
        let mut ctx = Ctx::new(&mut state, self.inner, 0);
        f(&mut ctx)
    }

    /// Loads a tracked scalar ([`Ctx::get`]).
    pub fn get<T: Pod>(&mut self, cell: Tracked<T>) -> T {
        self.locked(|ctx| ctx.get(cell))
    }

    /// Stores a tracked scalar, firing triggers if the value changed
    /// ([`Ctx::set`]).
    pub fn set<T: Pod>(&mut self, cell: Tracked<T>, value: T) {
        self.locked(|ctx| ctx.set(cell, value));
    }

    /// Loads element `index` of a tracked array ([`Ctx::read`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn read<T: Pod>(&mut self, array: TrackedArray<T>, index: usize) -> T {
        self.locked(|ctx| ctx.read(array, index))
    }

    /// Stores element `index` of a tracked array, firing triggers if the
    /// value changed ([`Ctx::write`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn write<T: Pod>(&mut self, array: TrackedArray<T>, index: usize, value: T) {
        self.locked(|ctx| ctx.write(array, index, value));
    }
}
