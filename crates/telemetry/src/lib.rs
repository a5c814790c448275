//! Zero-dependency telemetry for the model management engine.
//!
//! After PR 1–3 the engine has budgets, compiled plans, plan caches,
//! semi-naive deltas, degradation fallbacks, WAL commits, and recovery —
//! none of which emitted an observable signal. This crate is the
//! instrumentation substrate every execution-path crate threads through:
//!
//! * [`span`] — a lightweight span/event API ([`Span::enter`], typed
//!   fields, monotonic timing, nesting) behind a cloneable [`Telemetry`]
//!   handle whose disabled default costs one branch per call site;
//! * [`collector`] — the pluggable [`Collector`] sink: [`RingCollector`]
//!   for in-memory capture, [`JsonLinesCollector`] streaming one JSON
//!   object per event through a [`LineSink`] (`mm-repository` adapts its
//!   `Storage` trait to this);
//! * [`metrics`] — [`EngineMetrics`], an atomically-updated registry of
//!   counters and duration stats (chase rounds, tgd activations, delta
//!   sizes, homomorphisms found vs pruned, plan-cache hits/misses,
//!   compose clauses, degradations by cause, WAL frames/bytes,
//!   checkpoint/recovery durations, budget consumption);
//! * [`explain`] — the [`ExplainNode`] tree every `Engine::explain_*`
//!   report renders into, with a deterministic pretty-printer;
//! * [`clock`] — the shared monotonic clock spans *and* `ExecBudget`
//!   wall metering read, so they agree on elapsed time.
//!
//! The crate is std-only by design: it sits below `mm-guard` in the
//! dependency graph, so nothing in the workspace can cycle into it.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod clock;
pub mod collector;
pub mod explain;
pub mod histogram;
pub mod metrics;
pub mod span;

pub use collector::{Collector, JsonLinesCollector, LineSink, RingCollector, VecSink};
pub use explain::ExplainNode;
pub use histogram::{Histogram, HistogramSummary};
pub use metrics::{
    AllocCounter, Cause, Counter, DegradationSite, EngineMetrics, Hist, MetricsSnapshot,
    PropagateCounter, ServerCounter, ServerOp, Timer,
};
pub use span::{Event, EventKind, Field, FieldValue, Span, Telemetry, TraceScope};
