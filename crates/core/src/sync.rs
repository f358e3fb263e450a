//! The one seam between the lock-free protocols and their primitives:
//! [`crate::eventcount`], `crate::dispatch` and [`crate::changed`] take
//! their atomics, `Mutex` and `Condvar` from here. A build gets
//! `std::sync::atomic` and `parking_lot`; this crate's unit tests get the
//! `loom` shim's stand-ins, which behave the same outside `loom::model`
//! and inside it let the harnesses in `tests` explore every bounded
//! interleaving of those protocols (DESIGN.md, "Checked protocols").

#[cfg(not(test))]
pub(crate) use parking_lot::{Condvar, Mutex};
#[cfg(not(test))]
pub(crate) use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};

#[cfg(test)]
pub(crate) use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
#[cfg(test)]
pub(crate) use loom::sync::{Condvar, Mutex};

#[cfg(test)]
mod tests;
