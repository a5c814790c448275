//! `mm-server`: the fault-tolerant wire front-end of the model
//! management engine.
//!
//! The paper frames model management as a *system* serving
//! user-oriented tools, not a library linked into one process (§2,
//! Figure 1). This crate is that system boundary: a zero-dependency
//! threaded TCP server (std `TcpListener`, no async runtime) exposing
//! exchange, batch exchange, mediation queries, EXPLAIN, and
//! transactional script execution over a hand-rolled length-prefixed,
//! CRC32-framed protocol that reuses the repository's WAL codec
//! discipline.
//!
//! Robustness is the headline, not an afterthought — see [`server`]
//! for the invariants (bounded queues with typed rejections,
//! shed-before-decode admission control with hysteresis, per-request
//! hard deadlines enforced inside the engine via
//! `ExecError::DeadlineExceeded`, per-session shared budgets, per-IO
//! timeouts, and a graceful drain that checkpoints the repository).
//! [`protocol`] defines the frames and the stable error-code table;
//! [`client`] is the bundled minimal client.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
pub mod flight;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, MediateReply};
pub use flight::{FlightRecorder, Outcome, RequestSummary, SlowEntry};
pub use protocol::{
    engine_error_code, HealthReport, Op, Request, WireStats, DEFAULT_MAX_FRAME_LEN,
    ERR_UNKNOWN_INSTANCE, ERR_UNKNOWN_SUBSCRIBER,
};
pub use server::{Server, ServerConfig, ServerHandle};
