//! Error types for the DTT runtime.

use std::error::Error as StdError;
use std::fmt;

use crate::tthread::TthreadId;

/// Errors returned by fallible DTT runtime operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A [`TthreadId`] was used that this runtime never issued.
    UnknownTthread(TthreadId),
    /// A watch was attached to a region outside the tracked arena.
    RegionOutOfBounds {
        /// Start offset of the offending region.
        start: u64,
        /// Length of the offending region.
        len: u64,
        /// Current size of the tracked arena.
        heap_len: u64,
    },
    /// An allocation would exceed the configured arena capacity.
    ArenaExhausted {
        /// Bytes requested.
        requested: u64,
        /// Bytes remaining under the capacity limit.
        available: u64,
    },
    /// `unwatch` named a region that was never watched by that tthread.
    NoSuchWatch(TthreadId),
    /// A cascade of tthreads triggering tthreads exceeded the maximum depth.
    CascadeDepthExceeded(u32),
    /// The tthread's body panicked during a previous execution; its outputs
    /// are suspect until the poison is cleared.
    TthreadPoisoned(TthreadId),
    /// The tthread's body overran the configured wall-clock deadline; its
    /// write log was discarded and its outputs are stale until the flag is
    /// cleared (see [`crate::runtime::Runtime::clear_timeout`]).
    TthreadTimedOut(TthreadId),
    /// A graceful shutdown drained past its timeout with worker threads
    /// still running.
    WorkersStillActive {
        /// Number of workers that had not finished at the deadline.
        active: usize,
    },
    /// Installing a watch or declaring an output would close a cycle in the
    /// declared dependency graph (tthread A's output feeds B's trigger
    /// region and a chain of such edges leads back to A). The edge is
    /// rejected instead of letting the trigger wave livelock; the path
    /// lists the tthreads on the cycle, starting and ending at the one
    /// whose edge was rejected.
    TriggerCycle {
        /// The tthreads on the rejected cycle, in wave order.
        path: Vec<TthreadId>,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownTthread(id) => write!(f, "unknown tthread id {id}"),
            Error::RegionOutOfBounds { start, len, heap_len } => write!(
                f,
                "region [0x{start:x}, 0x{:x}) lies outside the tracked arena of {heap_len} bytes",
                start + len
            ),
            Error::ArenaExhausted { requested, available } => write!(
                f,
                "allocation of {requested} bytes exceeds remaining arena capacity of {available} bytes"
            ),
            Error::NoSuchWatch(id) => {
                write!(f, "tthread {id} has no watch on the given region")
            }
            Error::CascadeDepthExceeded(depth) => {
                write!(f, "tthread cascade exceeded maximum depth {depth}")
            }
            Error::TthreadPoisoned(id) => {
                write!(f, "tthread {id} panicked during a previous execution")
            }
            Error::TthreadTimedOut(id) => {
                write!(f, "tthread {id} exceeded its body deadline; the execution was discarded")
            }
            Error::WorkersStillActive { active } => {
                write!(
                    f,
                    "shutdown timed out with {active} worker thread(s) still active"
                )
            }
            Error::TriggerCycle { path } => {
                let chain: Vec<String> = path.iter().map(|id| id.to_string()).collect();
                write!(
                    f,
                    "edge would close a trigger cycle through tthreads {}",
                    chain.join(" -> ")
                )
            }
        }
    }
}

impl StdError for Error {}

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errs: Vec<Error> = vec![
            Error::UnknownTthread(TthreadId::new(3)),
            Error::RegionOutOfBounds {
                start: 0,
                len: 8,
                heap_len: 4,
            },
            Error::ArenaExhausted {
                requested: 100,
                available: 10,
            },
            Error::NoSuchWatch(TthreadId::new(0)),
            Error::CascadeDepthExceeded(32),
            Error::TthreadPoisoned(TthreadId::new(1)),
            Error::TthreadTimedOut(TthreadId::new(2)),
            Error::WorkersStillActive { active: 2 },
            Error::TriggerCycle {
                path: vec![TthreadId::new(0), TthreadId::new(1), TthreadId::new(0)],
            },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: StdError + Send + Sync + 'static>() {}
        assert_bounds::<Error>();
    }
}
