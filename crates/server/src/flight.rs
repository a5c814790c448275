//! The flight recorder: a bounded ring of per-request summaries plus a
//! slow-query log, feeding the introspection ops (DESIGN.md §15).
//!
//! Every request the server finishes — served, errored, shed, or
//! refused — lands here as a [`RequestSummary`]: op, trace id, latency,
//! queue wait, budget consumption, outcome. Requests that cross the
//! configured latency threshold or end degraded/rejected additionally
//! keep a [`SlowEntry`] with their captured span tree and (when the op
//! has one) an EXPLAIN of the plan that ran — the "why was this slow"
//! record, available after the fact without re-running anything.
//!
//! Both rings are bounded and lock-striped the simple way (one mutex
//! each, held for push/clone only); recording is off the response
//! critical path — the worker records after the reply bytes are on the
//! socket. Everything renders as stable hand-rolled JSON lines (key
//! order fixed, RFC 8259 escaping via `mm_telemetry`'s event renderer),
//! dumpable through any [`LineSink`].

use mm_telemetry::collector::LineSink;
use mm_telemetry::Event;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// How a recorded request ended. Stable wire-facing names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served with a success body.
    Ok,
    /// Served with a typed error body (code in [`RequestSummary::code`]).
    Error,
    /// Refused by admission control (shed, queue full, or draining —
    /// the code distinguishes).
    Rejected,
}

impl Outcome {
    fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error => "error",
            Outcome::Rejected => "rejected",
        }
    }
}

/// One finished request, as the flight ring remembers it.
#[derive(Debug, Clone)]
pub struct RequestSummary {
    /// Monotone admission sequence, assigned by the recorder.
    pub seq: u64,
    /// Stable op name (`"exchange"`, `"poll"`, …; `"op_<n>"` for bytes
    /// this build does not know).
    pub op: &'static str,
    pub req_id: u64,
    /// Client trace id (0 = untraced).
    pub trace_id: u64,
    /// Service time: decode through response write, µs. 0 for
    /// rejections (they never start service).
    pub latency_us: u64,
    /// Time spent in the executor queue, µs.
    pub queue_wait_us: u64,
    /// Governed steps the request consumed.
    pub steps: u64,
    /// Governed rows the request consumed.
    pub rows: u64,
    /// Wire error code (0 on success).
    pub code: u32,
    /// Did the request record a degradation (mediator fallback,
    /// propagation resync, …)?
    pub degraded: bool,
    pub outcome: Outcome,
}

impl RequestSummary {
    /// Render as one stable JSON line (fixed key order; numbers only,
    /// except the op/outcome names, which are static identifiers).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"seq\":{},\"op\":\"{}\",\"req_id\":{},\"trace\":{},\"latency_us\":{},\
             \"queue_wait_us\":{},\"steps\":{},\"rows\":{},\"code\":{},\"degraded\":{},\
             \"outcome\":\"{}\"}}",
            self.seq,
            self.op,
            self.req_id,
            self.trace_id,
            self.latency_us,
            self.queue_wait_us,
            self.steps,
            self.rows,
            self.code,
            self.degraded,
            self.outcome.name(),
        );
        s
    }
}

/// A slow-log entry: the summary plus the request's captured span tree
/// and optional EXPLAIN text.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    pub summary: RequestSummary,
    /// The spans and point events the request produced, in completion
    /// order (bounded by the trace capture cap).
    pub events: Vec<Event>,
    /// Plan EXPLAIN for ops that have one (exchange-shaped requests).
    pub explain: Option<String>,
}

impl SlowEntry {
    /// Render as one stable JSON line: the summary's fields plus
    /// `spans` (each an event object) and, when present, `explain`.
    pub fn to_json(&self) -> String {
        let mut s = self.summary.to_json();
        s.truncate(s.len() - 1); // reopen the summary object
        s.push_str(",\"spans\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&e.to_json());
        }
        s.push(']');
        if let Some(explain) = &self.explain {
            s.push_str(",\"explain\":\"");
            json_escape_into(&mut s, explain);
            s.push('"');
        }
        s.push('}');
        s
    }
}

fn json_escape_into(out: &mut String, text: &str) {
    for c in text.chars() {
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

/// The recorder. One per server; shared by session and worker threads.
pub struct FlightRecorder {
    recent_cap: usize,
    slow_cap: usize,
    /// Latency threshold (µs) past which a request keeps a slow entry.
    slow_threshold_us: u64,
    next_seq: AtomicU64,
    recent: Mutex<VecDeque<RequestSummary>>,
    slow: Mutex<VecDeque<SlowEntry>>,
}

impl FlightRecorder {
    pub fn new(recent_cap: usize, slow_cap: usize, slow_threshold_us: u64) -> FlightRecorder {
        FlightRecorder {
            recent_cap: recent_cap.max(1),
            slow_cap: slow_cap.max(1),
            slow_threshold_us,
            next_seq: AtomicU64::new(1),
            recent: Mutex::new(VecDeque::new()),
            slow: Mutex::new(VecDeque::new()),
        }
    }

    /// Should a request with this summary keep its full detail? True
    /// past the latency threshold and for every degraded, errored, or
    /// rejected request — the paths worth a postmortem.
    pub(crate) fn qualifies(&self, s: &RequestSummary) -> bool {
        s.latency_us >= self.slow_threshold_us
            || s.degraded
            || !matches!(s.outcome, Outcome::Ok)
    }

    /// Record one finished request. `detail` carries the captured span
    /// tree and EXPLAIN for requests that `Self::qualifies`; pass
    /// `None` when the caller captured nothing (rejections, fast
    /// requests). Returns the summary's assigned sequence.
    pub fn record(
        &self,
        mut summary: RequestSummary,
        detail: Option<(Vec<Event>, Option<String>)>,
    ) -> u64 {
        summary.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let seq = summary.seq;
        if self.qualifies(&summary) {
            let (events, explain) = detail.unwrap_or((Vec::new(), None));
            let mut slow = lock_ignoring_poison(&self.slow);
            if slow.len() == self.slow_cap {
                slow.pop_front();
            }
            slow.push_back(SlowEntry { summary: summary.clone(), events, explain });
        }
        let mut recent = lock_ignoring_poison(&self.recent);
        if recent.len() == self.recent_cap {
            recent.pop_front();
        }
        recent.push_back(summary);
        seq
    }

    /// Slow-log entries as stable JSON lines, oldest first, capped at
    /// `max` (0 = everything retained).
    pub(crate) fn slow_lines(&self, max: usize) -> Vec<String> {
        let buf = lock_ignoring_poison(&self.slow);
        let max = if max == 0 { buf.len() } else { max };
        let skip = buf.len().saturating_sub(max);
        buf.iter().skip(skip).map(SlowEntry::to_json).collect()
    }

    /// Entries currently held by the slow log.
    pub(crate) fn slow_len(&self) -> u64 {
        lock_ignoring_poison(&self.slow).len() as u64
    }

    /// Everything the recorder holds for `trace_id`: full slow entries
    /// when the trace kept one, bare summaries from the recent ring
    /// otherwise. Oldest first.
    pub(crate) fn trace_lines(&self, trace_id: u64) -> Vec<String> {
        if trace_id == 0 {
            return Vec::new();
        }
        let slow: Vec<String> = lock_ignoring_poison(&self.slow)
            .iter()
            .filter(|e| e.summary.trace_id == trace_id)
            .map(SlowEntry::to_json)
            .collect();
        if !slow.is_empty() {
            return slow;
        }
        lock_ignoring_poison(&self.recent)
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .map(RequestSummary::to_json)
            .collect()
    }

    /// Dump the slow log through `sink`, one JSON line per entry.
    /// Returns how many lines were written successfully.
    pub fn dump(&self, sink: &dyn LineSink) -> usize {
        self.slow_lines(0)
            .iter()
            .filter(|line| sink.append_line(line).is_ok())
            .count()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use mm_telemetry::VecSink;

    impl FlightRecorder {
        /// The most recent summaries, oldest first, capped at `max`.
        pub(crate) fn recent(&self, max: usize) -> Vec<RequestSummary> {
            let buf = lock_ignoring_poison(&self.recent);
            let skip = buf.len().saturating_sub(max);
            buf.iter().skip(skip).cloned().collect()
        }
    }

    fn summary(op: &'static str, latency_us: u64, trace_id: u64) -> RequestSummary {
        RequestSummary {
            seq: 0,
            op,
            req_id: 1,
            trace_id,
            latency_us,
            queue_wait_us: 5,
            steps: 10,
            rows: 2,
            code: 0,
            degraded: false,
            outcome: Outcome::Ok,
        }
    }

    #[test]
    fn fast_clean_requests_stay_out_of_the_slow_log() {
        let fr = FlightRecorder::new(4, 4, 1_000);
        fr.record(summary("ping", 10, 0), None);
        assert_eq!(fr.recent(16).len(), 1);
        assert_eq!(fr.slow_len(), 0);
    }

    #[test]
    fn slow_degraded_and_failed_requests_qualify() {
        let fr = FlightRecorder::new(8, 8, 1_000);
        fr.record(summary("exchange", 5_000, 0), None);
        let mut degraded = summary("mediate", 10, 0);
        degraded.degraded = true;
        fr.record(degraded, None);
        let mut failed = summary("script", 10, 0);
        failed.code = 30;
        failed.outcome = Outcome::Error;
        fr.record(failed, None);
        let mut shed = summary("exchange", 0, 0);
        shed.code = 50;
        shed.outcome = Outcome::Rejected;
        fr.record(shed, None);
        assert_eq!(fr.slow_len(), 4);
        assert_eq!(fr.recent(16).len(), 4);
    }

    #[test]
    fn rings_are_bounded_and_keep_the_newest() {
        let fr = FlightRecorder::new(2, 2, 0); // threshold 0: everything slow
        for i in 0..5u64 {
            fr.record(summary("ping", i, 0), None);
        }
        let recent = fr.recent(16);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].seq, 4);
        assert_eq!(recent[1].seq, 5);
        assert_eq!(fr.slow_lines(0).len(), 2);
        assert_eq!(fr.slow_lines(1).len(), 1);
    }

    #[test]
    fn json_lines_are_stable_and_parseable_shape() {
        let fr = FlightRecorder::new(4, 4, 0);
        fr.record(summary("exchange", 9, 77), Some((Vec::new(), Some("chase [mode=plan]".into()))));
        let lines = fr.slow_lines(0);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"seq\":1,\"op\":\"exchange\","));
        assert!(lines[0].contains("\"trace\":77"));
        assert!(lines[0].contains("\"spans\":[]"));
        assert!(lines[0].contains("\"explain\":\"chase [mode=plan]\""));
        assert!(lines[0].ends_with('}'));
        // byte-stable across reads
        assert_eq!(fr.slow_lines(0), lines);
    }

    #[test]
    fn trace_lookup_prefers_slow_entries_then_summaries() {
        let fr = FlightRecorder::new(4, 4, 1_000);
        fr.record(summary("ping", 1, 42), None);
        let by_summary = fr.trace_lines(42);
        assert_eq!(by_summary.len(), 1);
        assert!(!by_summary[0].contains("spans"));
        fr.record(summary("exchange", 5_000, 42), Some((Vec::new(), None)));
        let by_slow = fr.trace_lines(42);
        assert_eq!(by_slow.len(), 1);
        assert!(by_slow[0].contains("spans"));
        assert!(fr.trace_lines(0).is_empty());
        assert!(fr.trace_lines(4242).is_empty());
    }

    #[test]
    fn dump_streams_through_a_line_sink() {
        let fr = FlightRecorder::new(4, 4, 0);
        fr.record(summary("ping", 1, 0), None);
        fr.record(summary("ping", 2, 0), None);
        let sink = VecSink::new();
        assert_eq!(fr.dump(sink.as_ref()), 2);
        assert_eq!(sink.lines().len(), 2);
    }
}
