//! # Data-triggered threads
//!
//! A runtime implementing **data-triggered threads** (DTT) as proposed by
//! Tseng & Tullsen, *"Data-triggered threads: eliminating redundant
//! computation"*, HPCA 2011.
//!
//! Unlike conventional threads, which are started by control flow, a
//! *tthread* is started by a **change to a memory location**: the programmer
//! attaches a computation to one or more tracked memory regions, and the
//! runtime fires the computation only when a store actually *changes* bytes
//! in a watched region. Two consequences follow:
//!
//! * **Redundant computation is eliminated.** When the data does not change
//!   — including *silent stores* that rewrite the same value — the attached
//!   computation is skipped entirely at its consumption point.
//! * **Parallelism increases.** With worker threads configured, the
//!   recomputation runs as soon as the data changes, overlapping the main
//!   thread.
//!
//! ## Programming model
//!
//! 1. Create a [`Runtime`] over your untracked user state.
//! 2. Allocate the *trigger data* in tracked memory
//!    ([`Runtime::alloc`], [`Runtime::alloc_array`]).
//! 3. [`Runtime::register`] a tthread body and [`Runtime::watch`] the
//!    regions whose changes should fire it.
//! 4. Mutate tracked data inside [`Runtime::with`] regions; at every point
//!    where the main thread consumes the tthread's outputs, call
//!    [`Runtime::join`] — it skips, runs, or waits as needed.
//!
//! ```
//! use dtt_core::{Config, JoinOutcome, Runtime};
//!
//! // User state: the cached dot product.
//! let mut rt = Runtime::new(Config::default(), 0i64);
//! let a = rt.alloc_array::<i32>(4)?;
//! let b = rt.alloc_array::<i32>(4)?;
//!
//! let dot = rt.register("dot", move |ctx| {
//!     let mut acc = 0i64;
//!     for i in 0..4 {
//!         acc += ctx.read(a, i) as i64 * ctx.read(b, i) as i64;
//!     }
//!     *ctx.user_mut() = acc;
//! });
//! rt.watch(dot, a.range())?;
//! rt.watch(dot, b.range())?;
//!
//! rt.with(|ctx| {
//!     for i in 0..4 {
//!         ctx.write(a, i, i as i32 + 1); // 1 2 3 4
//!         ctx.write(b, i, 2);
//!     }
//! });
//! assert_eq!(rt.join(dot)?, JoinOutcome::RanInline);
//! assert_eq!(rt.with(|ctx| *ctx.user()), 20);
//!
//! // Re-storing identical values: all silent, the dot product is never
//! // recomputed.
//! rt.with(|ctx| {
//!     for i in 0..4 {
//!         ctx.write(b, i, 2);
//!     }
//! });
//! assert_eq!(rt.join(dot)?, JoinOutcome::Skipped);
//! # Ok::<(), dtt_core::error::Error>(())
//! ```
//!
//! ## Executors
//!
//! * **Deferred** (`Config::default()`, `workers == 0`): triggered tthreads
//!   run on the calling thread at their [`Runtime::join`] point. Fully
//!   deterministic; captures exactly the paper's redundancy elimination.
//! * **Parallel** (`workers > 0`): triggers enqueue the tthread on a bounded
//!   coalescing queue drained by OS worker threads, modelling the spare
//!   hardware contexts of the HPCA'11 design; the queue-overflow fallback
//!   executes on the triggering thread, as in the paper. Worker bodies run
//!   *detached* — against a view of the stripes they touch, copied on first
//!   touch as one consistent cut, body executed off the runtime lock,
//!   stores committed (with change re-detection) under the lock afterwards
//!   — so they genuinely overlap the main thread; see the
//!   [`Runtime`] memory-consistency notes.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`addr`] | addresses, ranges, trigger [`Granularity`] |
//! | [`pod`] | byte encoding of tracked values |
//! | [`heap`] | the single-threaded arena: the teardown copy [`Runtime::into_state`] returns, and the reference model the sharded arena is tested against |
//! | `mem` | the sharded concurrent arena behind every tracked access, with per-stripe versions when workers run |
//! | `view` | the copy-on-first-touch view a detached body reads: only the stripes it touches, one consistent cut |
//! | `filter` | the two-level page → line watched-address filter |
//! | [`handle`] | typed [`Tracked`]/[`TrackedArray`] handles |
//! | [`trigger`] | the store-address → tthread trigger table |
//! | [`tthread`] | tthread ids and the thread status table: one entry per tthread (slot, body, tallies) |
//! | `dispatch` | the lock-free status word and the bounded pending FIFO |
//! | [`changed`] | the per-tthread changed set a body reads as [`Triggers`] |
//! | [`eventcount`] | the one park/wake primitive: workers, joiners, the shutdown join and `dtt-serve`'s event workers wait on it |
//! | `sync` | the atomics and locks of `dispatch`, [`changed`] and [`eventcount`], model-checked in unit tests |
//! | [`obs`] | lock-free lifecycle event rings (observability) |
//! | [`fault`] | seeded deterministic fault injection ([`FaultPlan`]) |
//! | [`graph`] | the incremental computation graph (edge map, wave dedup, cycle check) |
//! | [`ctx`] | the [`Ctx`] store path and status machine |
//! | [`deadline`] | monotonic body-deadline and commit-backoff arithmetic |
//! | [`accessor`] | tracked access through `&Runtime`, each call under the state lock |
//! | [`runtime`] | the [`Runtime`], one file per lifecycle step: set up and trigger (`mod.rs`), run on a worker or inline (`exec.rs`), join (`join.rs`), drain and shut down (`teardown.rs`) |
//! | [`config`], [`stats`], [`error`] | knobs, counters (one single-writer line per writer, folded into [`stats::Counters`]), errors |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accessor;
pub mod addr;
pub mod changed;
pub mod config;
pub mod ctx;
pub mod deadline;
pub(crate) mod dispatch;
pub mod error;
pub mod eventcount;
pub mod fault;
pub(crate) mod filter;
pub mod graph;
pub mod handle;
pub mod heap;
pub(crate) mod mem;
pub mod obs;
pub mod pod;
pub mod report;
pub mod runtime;
pub mod stats;
pub(crate) mod sync;
pub mod trigger;
pub mod tthread;
pub(crate) mod view;

/// The worker/joiner timed-park period. Exposed (hidden) for the chaos
/// and bench harnesses, which budget rescue-wake latencies against it.
#[doc(hidden)]
pub use dispatch::PARK_TIMEOUT;

pub use accessor::Accessor;
pub use addr::{Addr, AddrRange, Granularity};
pub use changed::{ChangedRanges, Triggers};
pub use config::{Config, COMMIT_RETRY_CAP};
pub use ctx::Ctx;
pub use error::{Error, Result};
pub use fault::{FaultPlan, FaultPoint, FaultProbe};
pub use graph::GraphEdge;
pub use handle::{Tracked, TrackedArray, TrackedMatrix};
pub use obs::{EventKind, ObsEvent, ObsRecording, RingStats};
pub use report::{RuntimeReport, TthreadReportRow};
pub use runtime::{JoinOutcome, Runtime};
pub use stats::StatsSnapshot;
pub use trigger::LookupScratch;
pub use tthread::{TthreadId, TthreadStatus};
