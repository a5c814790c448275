//! Push-style update propagation — the paper's runtime services of
//! update propagation, notifications, and batch loading (§ mapping
//! runtime), built as a fault-tolerant pipeline rather than a
//! happy-path one.
//!
//! Clients register continuous queries (a `ViewSet`) over a tracked
//! instance; every committed repository batch becomes a [`FeedEvent`]
//! on the [`ChangeFeed`] (the seq-numbered WAL is the cursor space),
//! and each subscriber's view deltas come from the IVM machinery — a
//! compiled `MaintenancePlan` run against the pre-event replica and a
//! maintained copy of the subscriber's views, O(|Δ|) per event — and
//! are queued as typed [`Notification`]s.
//!
//! Robustness discipline (DESIGN.md §14):
//!
//! * **Bounded queues, never blocked writers.** Each subscriber has a
//!   bounded notification queue with high/low-water hysteresis. A
//!   consumer that lags past the bound is flipped to *resync-pending*
//!   — its queue is dropped and the writer does zero per-event work
//!   for it from then on — so a wedged consumer cannot stall or slow
//!   the commit path.
//! * **Recompute-and-resync degradation.** Overflow, a delta budget
//!   trip, or a cursor that fell off the retained feed degrade the
//!   subscriber from incremental push to a full recompute delivered as
//!   one [`Notification::Resync`] snapshot — a recorded
//!   [`Degradation`] (`PushToResync`), same discipline as the mediator
//!   and IVM fallbacks, mirrored 1:1 as a telemetry event.
//! * **Resumable cursors.** A subscriber's cursor is the commit
//!   sequence of the last event it acknowledged; the registry is
//!   persisted WAL-first by `mm-repository`, so a reconnecting client
//!   resumes from its durable cursor — incrementally when its queue
//!   still covers everything past the cursor, by resync otherwise.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod feed;
pub mod propagator;

pub use feed::{ChangeFeed, ChangeKind, FeedEvent};
pub use propagator::{
    Notification, PollResponse, PropagateConfig, PropagateError, Propagator, ResyncCause,
    SubscriberStatus,
};
