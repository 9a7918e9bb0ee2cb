//! `icm-server` — a crash-survivable placement daemon.
//!
//! The daemon owns a supervised world — profiled interference models,
//! a packed [`icm_manager::Fleet`], and a resumable
//! [`icm_manager::ManagedRun`] — and serves placement, prediction, and
//! observation requests over a line-delimited `icm-json` protocol on
//! stdin/stdout or a unix socket. Its robustness envelope:
//!
//! * **Strict validation** ([`protocol`], [`frame`]): every malformed,
//!   oversized, truncated, or non-UTF-8 frame maps to a typed error
//!   reply; the loop never panics on client bytes and never desyncs.
//! * **Deadline budgets** ([`server`]): each request carries a virtual
//!   deadline; requests that cannot finish inside it are refused with a
//!   typed `deadline_exceeded` before any work is wasted.
//! * **Backpressure** ([`queue`]): a bounded queue sheds the lowest-
//!   priority request (the manager's shed ordering applied to traffic)
//!   with a typed `overloaded` reply quoting a retry horizon.
//! * **Graceful degradation** ([`cache`]): under saturation, `predict`
//!   serves stale-but-bounded cached answers marked `degraded: true`,
//!   and circuit-breaks when a cached answer would rest on `Defaulted`
//!   model cells.
//! * **Crash safety** ([`journal`], [`server`]): a write-ahead reply
//!   journal plus an intake log and periodic checkpoints make `kill -9`
//!   lose no acknowledged reply — recovery re-executes the intake
//!   suffix and proves the regenerated replies byte-identical.
//!
//! All scheduling runs on a deterministic virtual clock and no wall
//! time is read, so same-seed runs commit byte-identical journals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod frame;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod world;

pub use cache::{CacheEntry, PredictionCache};
pub use error::ServerError;
pub use frame::{Frame, FrameReader, MAX_FRAME_BYTES};
pub use journal::{JournalEntry, JournalError, LineJournal};
pub use protocol::{ErrorCode, ParseRefusal, Reply, Request, RequestKind};
pub use queue::{Admission, AdmissionQueue, Pending};
pub use server::{Counters, Server, ServerSnapshot, SERVER_SNAPSHOT_VERSION};
pub use world::{build_world, AppSpec, ServerConfig};
