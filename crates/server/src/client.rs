//! A minimal blocking client for the wire protocol — the reference
//! peer the README quickstart, the verify smoke, and the fault tests
//! drive. One request at a time (no pipelining); the server itself
//! accepts pipelined requests from clients that interleave.

use crate::protocol::{
    self, begin_request, decode_response, read_frame, write_frame, HealthReport, OkBody, Op,
    Request, WireStats,
};
use mm_expr::{Expr, ViewSet};
use mm_instance::{Database, Relation, Tuple};
use mm_propagate::Notification;
use mm_repository::codec::Writer;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

pub use crate::protocol::{ERR_OVERLOADED, ERR_QUEUE_FULL, ERR_SHUTTING_DOWN};

/// Client-side failure: transport, protocol, or a typed server
/// rejection carrying its stable wire code.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    /// The stream desynchronized or a frame failed to decode.
    Protocol(String),
    /// A well-formed response answered the wrong request — on this
    /// strictly request/response client that means the stream skewed
    /// (e.g. a stale response from before a timeout). Typed so callers
    /// can tell skew (reconnect) from garbage (give up).
    ReqIdMismatch { got: u64, expected: u64 },
    /// The server answered with a typed error frame.
    Rejected { code: u32, message: String },
}

impl ClientError {
    pub fn code(&self) -> Option<u32> {
        match self {
            ClientError::Rejected { code, .. } => Some(*code),
            _ => None,
        }
    }

    pub fn is_overloaded(&self) -> bool {
        self.code() == Some(ERR_OVERLOADED)
    }
}

/// SplitMix64 finalizer: the trace-id generator. A pure bijective
/// mixer — deterministic per (connection, request) pair, well spread,
/// and dependency-free.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::ReqIdMismatch { got, expected } => {
                write!(f, "response for request {got}, expected {expected}")
            }
            ClientError::Rejected { code, message } => {
                write!(f, "server rejected (code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Result of a mediation query.
#[derive(Debug, Clone)]
pub struct MediateReply {
    pub rows: Relation,
    /// True when the mediator answered hop-by-hop through the chain.
    pub chained: bool,
    /// True when the collapsed plan degraded under budget pressure.
    pub degraded: bool,
}

/// The blocking client.
pub struct Client {
    stream: TcpStream,
    next_req: u64,
    max_frame_len: u32,
    /// Deadline request (milliseconds) stamped on every call; 0 asks
    /// for the server default.
    deadline_ms: u32,
    /// Per-connection trace seed; each call derives its trace id from
    /// this and the request counter.
    trace_seed: u64,
    /// The trace id stamped on the most recent call (0 before any).
    last_trace_id: u64,
}

impl Client {
    /// Connect with a 30-second read timeout (a hung server must not
    /// hang the client forever).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        // Process-unique connection counter -> splitmix-style seed: no
        // RNG dependency, no clock, and distinct across the clients of
        // one process (trace ids only need to avoid colliding within a
        // server's bounded flight-recorder window).
        static CONN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let conn = CONN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(Client {
            stream,
            next_req: 1,
            max_frame_len: protocol::DEFAULT_MAX_FRAME_LEN,
            deadline_ms: 0,
            trace_seed: mix64(conn ^ 0x6D6D_5F74_7261_6365), // "mm_trace"
            last_trace_id: 0,
        })
    }

    /// Request this per-call deadline (milliseconds, clamped by the
    /// server's `max_deadline`) on subsequent calls; 0 restores the
    /// server default.
    pub fn set_deadline_ms(&mut self, ms: u32) {
        self.deadline_ms = ms;
    }

    /// The trace id stamped on the most recent call (0 before the first
    /// call) — pass it to [`Client::trace`] to pull
    /// the server-side record of that request.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// The underlying stream — escape hatch for fault-injection tests
    /// that write hostile bytes directly.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// One round trip for a request that owns nothing worth borrowing.
    fn send(&mut self, req: &Request) -> Result<OkBody, ClientError> {
        self.call(req.op(), |w| protocol::encode_body(w, req))
    }

    /// One round trip: the prelude for `op`, the body `body` writes
    /// (straight from the caller's borrowed arguments), then the reply.
    fn call(&mut self, op: Op, body: impl FnOnce(&mut Writer)) -> Result<OkBody, ClientError> {
        let req_id = self.next_req;
        self.next_req += 1;
        // Guaranteed non-zero: 0 is the untraced sentinel, which only
        // other clients send.
        let trace_id = mix64(self.trace_seed.wrapping_add(req_id)) | 1;
        self.last_trace_id = trace_id;
        let mut w = begin_request(req_id, self.deadline_ms, trace_id, op);
        body(&mut w);
        write_frame(&mut self.stream, &w.finish())?;
        let frame = read_frame(&mut self.stream, self.max_frame_len)
            .map_err(|e| match e {
                protocol::FrameError::Io(io) => ClientError::Io(io),
                other => ClientError::Protocol(other.to_string()),
            })?;
        if !frame.crc_ok() {
            return Err(ClientError::Protocol("response checksum mismatch".to_string()));
        }
        let (id, body) =
            decode_response(frame.payload).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if id != req_id {
            return Err(ClientError::ReqIdMismatch { got: id, expected: req_id });
        }
        body.map_err(|(code, message)| ClientError::Rejected { code, message })
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.send(&Request::Ping)? {
            OkBody::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!("expected pong, got {other:?}"))),
        }
    }

    /// Data exchange: chase `source_db` through stored `mapping` into
    /// stored `target_schema`.
    pub fn exchange(
        &mut self,
        mapping: &str,
        target_schema: &str,
        source_db: &Database,
    ) -> Result<(Database, WireStats), ClientError> {
        let body =
            |w: &mut Writer| protocol::encode_exchange_body(w, mapping, target_schema, source_db);
        match self.call(Op::Exchange, body)? {
            OkBody::Exchange { db, stats } => Ok((db, stats)),
            other => Err(ClientError::Protocol(format!("expected exchange body, got {other:?}"))),
        }
    }

    /// Batch exchange; slots answer independently.
    #[allow(clippy::type_complexity)]
    pub fn exchange_batch(
        &mut self,
        items: &[(String, String, Database)],
    ) -> Result<Vec<Result<(Database, WireStats), (u32, String)>>, ClientError> {
        match self.call(Op::ExchangeBatch, |w| protocol::encode_exchange_batch_body(w, items))? {
            OkBody::Batch { slots } => Ok(slots),
            other => Err(ClientError::Protocol(format!("expected batch body, got {other:?}"))),
        }
    }

    /// Mediation query through a chain of stored view sets.
    pub fn mediate(
        &mut self,
        base_schema: &str,
        chain: &[String],
        query: &Expr,
        base_db: &Database,
    ) -> Result<MediateReply, ClientError> {
        let body = |w: &mut Writer| {
            protocol::encode_mediate_body(w, base_schema, chain, query, base_db)
        };
        match self.call(Op::Mediate, body)? {
            OkBody::Mediate { rows, chained, degraded } => {
                Ok(MediateReply { rows, chained, degraded })
            }
            other => Err(ClientError::Protocol(format!("expected mediate body, got {other:?}"))),
        }
    }

    /// Exchange with the EXPLAIN report rendered server-side.
    pub fn explain_exchange(
        &mut self,
        mapping: &str,
        target_schema: &str,
        source_db: &Database,
    ) -> Result<(Database, WireStats, String), ClientError> {
        let body =
            |w: &mut Writer| protocol::encode_exchange_body(w, mapping, target_schema, source_db);
        match self.call(Op::ExplainExchange, body)? {
            OkBody::Explain { db, stats, text } => Ok((db, stats, text)),
            other => Err(ClientError::Protocol(format!("expected explain body, got {other:?}"))),
        }
    }

    /// Run a transactional operator script; returns its output lines.
    pub fn script(&mut self, text: &str) -> Result<Vec<String>, ClientError> {
        match self.send(&Request::Script { text: text.to_string() })? {
            OkBody::Script { outputs } => Ok(outputs),
            other => Err(ClientError::Protocol(format!("expected script body, got {other:?}"))),
        }
    }

    // --- update propagation ------------------------------------------------

    /// Create or replace a tracked instance wholesale (bulk load): one
    /// WAL frame and one coalesced feed event server-side, however
    /// many tuples `db` carries. Returns the commit sequence.
    pub fn put_instance(&mut self, name: &str, db: &Database) -> Result<u64, ClientError> {
        match self.call(Op::PutInstance, |w| protocol::encode_put_instance_body(w, name, db))? {
            OkBody::Committed { seq } => Ok(seq),
            other => Err(ClientError::Protocol(format!("expected committed body, got {other:?}"))),
        }
    }

    /// Insert-only batch against a tracked instance; subscribers see
    /// one coalesced notification. Returns the commit sequence.
    pub fn insert_batch(
        &mut self,
        instance: &str,
        inserts: &[(String, Vec<Tuple>)],
    ) -> Result<u64, ClientError> {
        let body = |w: &mut Writer| protocol::encode_insert_batch_body(w, instance, inserts);
        match self.call(Op::InsertBatch, body)? {
            OkBody::Committed { seq } => Ok(seq),
            other => Err(ClientError::Protocol(format!("expected committed body, got {other:?}"))),
        }
    }

    /// Register a continuous query over a tracked instance. The first
    /// poll delivers the bootstrap snapshot. Returns the subscription
    /// id — keep it (with the last acked cursor) to resume after a
    /// disconnect.
    pub fn subscribe(&mut self, instance: &str, views: &ViewSet) -> Result<u64, ClientError> {
        match self.call(Op::Subscribe, |w| protocol::encode_subscribe_body(w, instance, views))? {
            OkBody::Subscribed { id } => Ok(id),
            other => Err(ClientError::Protocol(format!("expected subscribed body, got {other:?}"))),
        }
    }

    /// Drain up to `max` pending notifications. The `bool` is the
    /// lagging flag: true while the subscriber's server-side queue sits
    /// above the high-water mark — poll harder or expect a resync.
    pub fn poll(&mut self, id: u64, max: u32) -> Result<(Vec<Notification>, bool), ClientError> {
        match self.send(&Request::Poll { id, max })? {
            OkBody::Notifications { notifications, lagging } => Ok((notifications, lagging)),
            other => Err(ClientError::Protocol(format!("expected notifications, got {other:?}"))),
        }
    }

    /// Durably acknowledge everything up to `cursor`: the server
    /// journals the cursor advance, so it survives a crash on either
    /// side.
    pub fn ack(&mut self, id: u64, cursor: u64) -> Result<(), ClientError> {
        match self.send(&Request::Ack { id, cursor })? {
            OkBody::Done => Ok(()),
            other => Err(ClientError::Protocol(format!("expected done body, got {other:?}"))),
        }
    }

    /// After reconnecting, resume subscription `id` from the last
    /// durably acked `cursor`. Streaming continues if the server still
    /// covers everything past the cursor; otherwise the next poll
    /// delivers a cursor-lost resync snapshot.
    pub fn resume(&mut self, id: u64, cursor: u64) -> Result<(), ClientError> {
        match self.send(&Request::Resume { id, cursor })? {
            OkBody::Done => Ok(()),
            other => Err(ClientError::Protocol(format!("expected done body, got {other:?}"))),
        }
    }

    /// Drop subscription `id`.
    pub fn unsubscribe(&mut self, id: u64) -> Result<(), ClientError> {
        match self.send(&Request::Unsubscribe { id })? {
            OkBody::Done => Ok(()),
            other => Err(ClientError::Protocol(format!("expected done body, got {other:?}"))),
        }
    }

    // --- introspection (DESIGN.md §15) -------------------------------------

    /// A point-in-time metrics snapshot: stable sorted `(key, value)`
    /// rows (empty when the server runs without telemetry). Answered
    /// inline by the server even while it sheds or drains.
    pub fn metrics(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.send(&Request::Metrics)? {
            OkBody::Metrics { entries } => Ok(entries),
            other => Err(ClientError::Protocol(format!("expected metrics body, got {other:?}"))),
        }
    }

    /// Liveness, queue depth, and shed/drain state — enough to drive a
    /// scrape/alert loop without parsing metrics. Answered inline even
    /// while the server sheds or drains.
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        match self.send(&Request::Health)? {
            OkBody::Health(report) => Ok(report),
            other => Err(ClientError::Protocol(format!("expected health body, got {other:?}"))),
        }
    }

    /// Up to `max` slow-query log entries (0 = everything retained) as
    /// stable JSON lines, oldest first: summary fields plus the
    /// captured span tree and, for exchange-shaped ops, a plan EXPLAIN.
    pub fn slow_log(&mut self, max: u32) -> Result<Vec<String>, ClientError> {
        match self.send(&Request::SlowLog { max })? {
            OkBody::SlowLog { lines } => Ok(lines),
            other => Err(ClientError::Protocol(format!("expected slow-log body, got {other:?}"))),
        }
    }

    /// Everything the server's flight recorder holds for `trace_id`
    /// (see [`Client::last_trace_id`]), as stable JSON lines. Empty for
    /// id 0, unknown ids, and requests already evicted from the rings.
    pub fn trace(&mut self, trace_id: u64) -> Result<Vec<String>, ClientError> {
        match self.send(&Request::TraceGet { trace_id })? {
            OkBody::Trace { lines } => Ok(lines),
            other => Err(ClientError::Protocol(format!("expected trace body, got {other:?}"))),
        }
    }
}
