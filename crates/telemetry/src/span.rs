//! Spans, events, and the [`Telemetry`] handle that gates them.
//!
//! A [`Telemetry`] handle is either *disabled* (the default — every call
//! reduces to one branch on an `Option`, no allocation, no clock read)
//! or *enabled* around a shared [`Collector`] plus an
//! [`crate::EngineMetrics`] registry. Handles are cheap to clone and
//! share: all clones feed the same collector and registry.
//!
//! Spans nest through a thread-local stack of live span ids, so an
//! engine-level operator span becomes the parent of the chase span it
//! runs — no plumbing of parent ids through call signatures.

use crate::clock;
use crate::collector::Collector;
use crate::metrics::{Counter, EngineMetrics, Timer};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A typed span/event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

/// One typed key/value pair on a span or event.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    pub key: &'static str,
    pub value: FieldValue,
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `elapsed_us` is its duration.
    SpanEnd,
    /// A point-in-time event (e.g. a recorded degradation).
    Point,
}

impl EventKind {
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SpanEnd => "span",
            EventKind::Point => "event",
        }
    }
}

/// The unit collectors receive: a finished span or a point event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub kind: EventKind,
    /// Operation name, dotted (`"engine.exchange"`, `"chase.general"`).
    pub op: &'static str,
    /// Artifact the operation acted on (`"mapping:m@v0"`), or empty.
    pub artifact: String,
    /// Id of the span this event belongs to (0 for detached points).
    pub span_id: u64,
    /// Id of the enclosing span, if any.
    pub parent_id: Option<u64>,
    /// Distributed trace id stitching this event to the request that
    /// caused it (0 = no trace; rendered only when non-zero, so
    /// pre-tracing JSON stays byte-identical).
    pub trace_id: u64,
    /// Span duration in microseconds (span-end events only).
    pub elapsed_us: Option<u64>,
    pub fields: Vec<Field>,
}

impl Event {
    /// Render as one stable JSON object (hand-rolled: the workspace has
    /// no real serde). Key order is fixed; strings are escaped per RFC
    /// 8259 (quotes, backslashes, control characters).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"kind\":\"");
        s.push_str(self.kind.name());
        s.push_str("\",\"op\":\"");
        json_escape_into(&mut s, self.op);
        s.push_str("\",\"artifact\":\"");
        json_escape_into(&mut s, &self.artifact);
        s.push('"');
        let _ = write!(s, ",\"span\":{}", self.span_id);
        if let Some(p) = self.parent_id {
            let _ = write!(s, ",\"parent\":{p}");
        }
        if self.trace_id != 0 {
            let _ = write!(s, ",\"trace\":{}", self.trace_id);
        }
        if let Some(us) = self.elapsed_us {
            let _ = write!(s, ",\"elapsed_us\":{us}");
        }
        s.push_str(",\"fields\":{");
        for (i, f) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape_into(&mut s, f.key);
            s.push_str("\":");
            match &f.value {
                FieldValue::Str(v) => {
                    s.push('"');
                    json_escape_into(&mut s, v);
                    s.push('"');
                }
                FieldValue::F64(v) if !v.is_finite() => {
                    // JSON has no NaN/Inf; stringify to stay parseable
                    let _ = write!(s, "\"{v}\"");
                }
                other => {
                    let _ = write!(s, "{other}");
                }
            }
        }
        s.push_str("}}");
        s
    }

    /// The value of a named field, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|f| f.key == key).map(|f| &f.value)
    }
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

struct Inner {
    collector: Arc<dyn Collector>,
    metrics: EngineMetrics,
    next_span: AtomicU64,
}

thread_local! {
    /// Live span ids on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// The trace id of the request this thread is currently serving
    /// (0 = none). Set by [`Telemetry::trace_scope`]; read by every
    /// span/event so one id stitches the whole request tree. Threads
    /// spawned mid-request (the parallel pool) start at 0 — the pool is
    /// a scheduling detail, and its spans are already stitched through
    /// parent ids on the spawning thread.
    static TRACE_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// When a trace scope asked for capture, the events recorded on
    /// this thread while it is live (bounded at [`CAPTURE_CAP`]); the
    /// flight recorder drains this into slow-log entries.
    static CAPTURE: RefCell<Option<Vec<Event>>> = const { RefCell::new(None) };
}

/// Upper bound on events a capturing trace scope retains — a runaway
/// request keeps its first `CAPTURE_CAP` events and drops the rest
/// (the collector still sees everything).
pub const CAPTURE_CAP: usize = 512;

/// The trace id live on this thread right now (0 = none).
fn current_trace() -> u64 {
    TRACE_ID.with(|t| t.get())
}

/// Tee a just-recorded event into the live capture buffer, if any.
fn capture_event(event: &Event) {
    CAPTURE.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            if buf.len() < CAPTURE_CAP {
                buf.push(event.clone());
            }
        }
    });
}

/// RAII guard installing a trace id (and optionally an event-capture
/// buffer) on the current thread; restores the previous state on drop,
/// so scopes nest. Created by [`Telemetry::trace_scope`].
pub struct TraceScope {
    active: bool,
    prev_id: u64,
    prev_capture: Option<Vec<Event>>,
}

impl TraceScope {
    /// Take the events captured so far, ending capture for the rest of
    /// the scope. Returns an empty vec for inert or non-capturing
    /// scopes.
    pub fn take_captured(&mut self) -> Vec<Event> {
        if !self.active {
            return Vec::new();
        }
        CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default()
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        TRACE_ID.with(|t| t.set(self.prev_id));
        let prev = self.prev_capture.take();
        CAPTURE.with(|c| *c.borrow_mut() = prev);
    }
}

/// The cloneable telemetry handle. `Telemetry::default()` is disabled:
/// every instrumentation call is a single `Option` branch, which is what
/// keeps the no-op overhead of an instrumented hot path inside noise.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle feeding `collector`, with a fresh metrics
    /// registry.
    pub fn new(collector: Arc<dyn Collector>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                collector,
                metrics: EngineMetrics::new(),
                next_span: AtomicU64::new(1),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shared metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&EngineMetrics> {
        self.inner.as_deref().map(|i| &i.metrics)
    }

    /// Add `n` to `c` (no-op when disabled).
    #[inline]
    pub fn count(&self, c: Counter, n: u64) {
        if let Some(i) = &self.inner {
            i.metrics.add(c, n);
        }
    }

    /// Add `n` to a server counter (no-op when disabled).
    #[inline]
    pub fn count_server(&self, c: crate::ServerCounter, n: u64) {
        if let Some(i) = &self.inner {
            i.metrics.add_server(c, n);
        }
    }

    /// Raise the allocation-pressure gauges to the given process-wide
    /// totals (no-op when disabled). Callers sample the instance-layer
    /// counters at operation boundaries and pass the running totals;
    /// `fetch_max` underneath makes concurrent samples race-safe.
    #[inline]
    pub fn sample_alloc(&self, totals: &[(crate::AllocCounter, u64)]) {
        if let Some(i) = &self.inner {
            for &(c, v) in totals {
                i.metrics.raise_alloc(c, v);
            }
        }
    }

    /// Record one duration observation (no-op when disabled).
    #[inline]
    pub fn observe_us(&self, t: Timer, us: u64) {
        if let Some(i) = &self.inner {
            i.metrics.observe_us(t, us);
        }
    }

    /// Record one histogram observation (no-op when disabled).
    #[inline]
    pub fn observe_hist(&self, h: crate::Hist, value: u64) {
        if let Some(i) = &self.inner {
            i.metrics.observe_hist(h, value);
        }
    }

    /// Record one per-op service-time observation (no-op when disabled).
    #[inline]
    pub fn observe_op_service_us(&self, op: crate::ServerOp, us: u64) {
        if let Some(i) = &self.inner {
            i.metrics.observe_op_service_us(op, us);
        }
    }

    /// Events the collector behind this handle has dropped (ring
    /// overflow or sink write failures); 0 when disabled.
    pub fn events_dropped(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.collector.events_dropped())
    }

    /// Install `trace_id` on the current thread for the lifetime of the
    /// returned guard: every span and point event recorded on this
    /// thread carries it, stitching the request tree across crate
    /// boundaries without threading an id through call signatures. With
    /// `capture`, the guard also retains a bounded copy of those events
    /// ([`CAPTURE_CAP`]) for the flight recorder — see
    /// [`TraceScope::take_captured`]. Inert (and free) when the handle
    /// is disabled or `trace_id` is 0.
    pub fn trace_scope(&self, trace_id: u64, capture: bool) -> TraceScope {
        if self.inner.is_none() || trace_id == 0 {
            return TraceScope { active: false, prev_id: 0, prev_capture: None };
        }
        let prev_id = TRACE_ID.with(|t| t.replace(trace_id));
        let new_buf = if capture { Some(Vec::new()) } else { None };
        let prev_capture = CAPTURE.with(|c| std::mem::replace(&mut *c.borrow_mut(), new_buf));
        TraceScope { active: true, prev_id, prev_capture }
    }

    /// Emit a point event, parented to the innermost live span on this
    /// thread (no-op when disabled).
    pub fn event(&self, op: &'static str, artifact: impl Into<String>, fields: Vec<Field>) {
        let Some(i) = &self.inner else { return };
        let parent_id = SPAN_STACK.with(|s| s.borrow().last().copied());
        let event = Event {
            kind: EventKind::Point,
            op,
            artifact: artifact.into(),
            span_id: 0,
            parent_id,
            trace_id: current_trace(),
            elapsed_us: None,
            fields,
        };
        capture_event(&event);
        i.collector.record(event);
    }
}

/// An in-flight span. Created by [`Span::enter`]; records a
/// [`EventKind::SpanEnd`] event with its duration when finished (or
/// dropped). Disabled telemetry yields an inert span: no id, no clock
/// read, fields discarded.
pub struct Span {
    tel: Option<Arc<Inner>>,
    op: &'static str,
    artifact: String,
    id: u64,
    parent: Option<u64>,
    trace: u64,
    start: Option<Instant>,
    fields: Vec<Field>,
    finished: bool,
}

impl Span {
    /// Open a span for `op` on `artifact`. Nesting is automatic: the
    /// innermost live span on this thread becomes the parent.
    pub fn enter(tel: &Telemetry, op: &'static str, artifact: impl Into<String>) -> Span {
        match &tel.inner {
            None => Span {
                tel: None,
                op,
                artifact: String::new(),
                id: 0,
                parent: None,
                trace: 0,
                start: None,
                fields: Vec::new(),
                finished: true, // nothing to emit on drop
            },
            Some(inner) => {
                let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
                let parent = SPAN_STACK.with(|s| {
                    let mut s = s.borrow_mut();
                    let parent = s.last().copied();
                    s.push(id);
                    parent
                });
                Span {
                    tel: Some(Arc::clone(inner)),
                    op,
                    artifact: artifact.into(),
                    id,
                    parent,
                    trace: current_trace(),
                    start: Some(clock::now()),
                    fields: Vec::new(),
                    finished: false,
                }
            }
        }
    }

    /// Is this span actually recording?
    pub fn is_enabled(&self) -> bool {
        self.tel.is_some()
    }

    /// This span's id (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach a typed field (no-op when disabled).
    #[inline]
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.tel.is_some() {
            self.fields.push(Field { key, value: value.into() });
        }
    }

    /// Close the span now, emitting its end event. Equivalent to drop,
    /// but lets callers sequence the emission explicitly.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let Some(inner) = self.tel.take() else { return };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // pop through to our id: robust even if an inner span leaked
            while let Some(top) = s.pop() {
                if top == self.id {
                    break;
                }
            }
        });
        let elapsed = self.start.map(clock::elapsed_us);
        let event = Event {
            kind: EventKind::SpanEnd,
            op: self.op,
            artifact: std::mem::take(&mut self.artifact),
            span_id: self.id,
            parent_id: self.parent,
            trace_id: self.trace,
            elapsed_us: elapsed,
            fields: std::mem::take(&mut self.fields),
        };
        capture_event(&event);
        inner.collector.record(event);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::collector::RingCollector;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let mut span = Span::enter(&tel, "noop", "a");
        span.field("k", 1u64);
        span.finish();
        tel.event("e", "", vec![]);
        tel.count(Counter::ChaseRounds, 5);
        assert!(tel.metrics().is_none());
    }

    #[test]
    fn spans_nest_and_emit_in_completion_order() {
        let ring = RingCollector::with_capacity(16);
        let tel = Telemetry::new(ring.clone());
        let outer = Span::enter(&tel, "outer", "art");
        let mut inner = Span::enter(&tel, "inner", "");
        inner.field("n", 7u64);
        inner.finish();
        outer.finish();
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].op, "inner");
        assert_eq!(events[0].parent_id, Some(events[1].span_id));
        assert_eq!(events[0].field("n"), Some(&FieldValue::U64(7)));
        assert_eq!(events[1].op, "outer");
        assert_eq!(events[1].artifact, "art");
        assert_eq!(events[1].parent_id, None);
        assert!(events.iter().all(|e| e.elapsed_us.is_some()));
    }

    #[test]
    fn point_events_parent_to_live_span() {
        let ring = RingCollector::with_capacity(16);
        let tel = Telemetry::new(ring.clone());
        let span = Span::enter(&tel, "op", "");
        tel.event("degraded", "view:v", vec![Field { key: "cause", value: "steps".into() }]);
        span.finish();
        let events = ring.events();
        assert_eq!(events[0].kind, EventKind::Point);
        assert_eq!(events[0].parent_id, Some(events[1].span_id));
    }

    #[test]
    fn json_rendering_is_stable_and_escaped() {
        let e = Event {
            kind: EventKind::Point,
            op: "test",
            artifact: "a\"b\\c\nd".into(),
            span_id: 0,
            parent_id: None,
            trace_id: 0,
            elapsed_us: None,
            fields: vec![
                Field { key: "s", value: "x\ty".into() },
                Field { key: "n", value: 3u64.into() },
                Field { key: "b", value: true.into() },
            ],
        };
        assert_eq!(
            e.to_json(),
            "{\"kind\":\"event\",\"op\":\"test\",\"artifact\":\"a\\\"b\\\\c\\nd\",\
             \"span\":0,\"fields\":{\"s\":\"x\\ty\",\"n\":3,\"b\":true}}"
        );
    }

    #[test]
    fn trace_scope_stamps_spans_and_captures_events() {
        let ring = RingCollector::with_capacity(16);
        let tel = Telemetry::new(ring.clone());
        let captured = {
            let mut scope = tel.trace_scope(0xABCD, true);
            let inner = Span::enter(&tel, "traced", "");
            tel.event("pt", "", vec![]);
            inner.finish();
            scope.take_captured()
        };
        // outside the scope: no trace id
        Span::enter(&tel, "untraced", "").finish();
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].trace_id, 0xABCD, "point event stamped");
        assert_eq!(events[1].trace_id, 0xABCD, "span end stamped");
        assert_eq!(events[2].trace_id, 0, "scope restored on drop");
        assert_eq!(captured.len(), 2, "capture tees the scoped events");
        assert!(captured.iter().all(|e| e.trace_id == 0xABCD));
        // JSON carries the trace only when set
        assert!(events[0].to_json().contains(",\"trace\":43981"));
        assert!(!events[2].to_json().contains("\"trace\":"));
    }

    #[test]
    fn trace_scope_is_inert_when_disabled_or_zero() {
        let tel = Telemetry::disabled();
        let mut scope = tel.trace_scope(7, true);
        assert!(scope.take_captured().is_empty());
        drop(scope);
        let ring = RingCollector::with_capacity(4);
        let tel = Telemetry::new(ring.clone());
        let _scope = tel.trace_scope(0, true);
        Span::enter(&tel, "x", "").finish();
        assert_eq!(ring.events()[0].trace_id, 0, "trace 0 means no trace");
    }

    #[test]
    fn dropping_a_span_emits_its_end() {
        let ring = RingCollector::with_capacity(4);
        let tel = Telemetry::new(ring.clone());
        {
            let _span = Span::enter(&tel, "scoped", "");
        }
        assert_eq!(ring.events().len(), 1);
    }
}
