//! # dtt-serve — an overload-safe front-end over tthread-maintained state
//!
//! The paper's skip path makes tthread-maintained derived state a cache
//! that is provably fresh: a read after a join either skipped (nothing
//! changed) or observed the recomputation's commit. This crate puts a
//! minimal framed-TCP front-end on that property — client writes batch
//! into tracked stores, tthread chains (the `spreadsheet`/`pipeline`
//! workload views, plus the keyed store folded over the sheet) maintain
//! the aggregates, reads are served from the derived cells — and hardens
//! the *request lifecycle* with the same discipline PR 4's fault layer
//! applied to the tthread lifecycle:
//!
//! * **Event-driven connection path** ([`server`]): a fixed
//!   pool of event workers sweeps per-connection state machines with
//!   non-blocking I/O; frames park in a resumable
//!   [`proto::FrameDecoder`], so connections scale to thousands while OS
//!   threads stay `event_workers + 2`. Workers are *woken*, not timed:
//!   the engine fills a connection's reply slot and rings its worker
//!   through the runtime's own eventcount
//!   ([`dtt_core::eventcount::Waiters`]), `accept` blocks, and only the
//!   one event std cannot signal — bytes arriving — is found by a
//!   backoff nap between sweeps.
//! * **Admission control** ([`admission`]): a semaphore-style gate
//!   handing out RAII [`admission::Permit`]s (panic-safe — no leaked
//!   permits) plus a bounded engine mailbox; past either limit the
//!   client gets an explicit [`proto::Response::Shed`], never unbounded
//!   buffering.
//! * **Deadlines + bounded retry** ([`server`], `engine`): each
//!   admitted request waits at most `deadline` for the engine; the
//!   engine layers bounded repair retries with exponential backoff
//!   ([`dtt_core::deadline::backoff_delay`]) on top of the runtime's
//!   `COMMIT_RETRY_CAP`.
//! * **Keyed store** ([`ViewKind::Keyed`]): `Put {key}` /
//!   `GetKey {key}` address a logical key space folded onto the sheet
//!   grid; shard-row aggregates are tthread-maintained, so a million
//!   keys cost the same derived-state machinery as a 16-row sheet.
//! * **Graceful degradation**: past the deadline or under a wedged
//!   tthread, reads fall back to the last-committed cache (cells *and*
//!   keyed shard rows, poison-tolerant) tagged `degraded=true`;
//!   [`server::Server::shutdown`] drains — stops accepting, finishes
//!   in-flight requests, retires the workers, then stops the engine
//!   with a *blocking* mailbox send (a full mailbox can no longer
//!   swallow the shutdown command) and tears the runtime down
//!   (idempotently).
//! * **Chaos integration**: the serve-layer [`dtt_core::FaultPoint`]s
//!   (`ConnDrop`, `ClientStall`, `AcceptOverflow`) are probed through a
//!   seeded [`dtt_core::FaultProbe`] inside the event loop;
//!   `dtt-chaos` drives them with pinned seeds and asserts the
//!   conservation identities
//!   ([`admission::ServeStatsSnapshot::admission_conserved`],
//!   [`admission::ServeStatsSnapshot::lifecycle_conserved`]).
//!
//! The open-loop [`load`] generator measures latency from *scheduled*
//! send instants (no coordinated omission) into
//! [`dtt_obs::LogHistogram`]s, feeding the overload contract test and
//! `dtt-cli load`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
mod conn;
mod engine;
pub mod load;
pub mod proto;
pub mod server;

pub use admission::{Gate, Permit, ServeStats, ServeStatsSnapshot};
pub use client::Client;
pub use engine::ViewKind;
pub use load::{LoadConfig, LoadReport};
pub use proto::{FrameDecoder, Request, Response};
pub use server::{ServeConfig, Server};
