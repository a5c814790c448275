//! The wire protocol: length-prefixed, CRC32-framed request/response
//! messages over a byte stream.
//!
//! The framing reuses the WAL codec discipline from `mm-repository`
//! (little-endian [`Writer`]/[`Reader`], [`crc32`] over the payload,
//! allocation bounded by the declared length): a frame is
//!
//! ```text
//! magic u32 | len u32 | crc u32 | payload[len]
//! ```
//!
//! and a request payload opens with a fixed 22-byte versioned prelude —
//!
//! ```text
//! version u8 | req_id u64 | trace_id u64 | deadline_ms u32 | op u8 | body…
//! ```
//!
//! — so admission control can identify and reject a request from the
//! prelude alone, without checksumming or decoding the body.
//! `trace_id` is the client-generated distributed trace id stamped on
//! every span the request produces (0 = untraced); `version` is checked
//! against [`WireVersion`] with an exhaustive `match`, so bumping the
//! protocol is a compile-time event, not a runtime surprise. Response
//! payloads are `req_id u64 | status u8 | …` where status 0 carries an
//! op-tagged result body and status 1 carries `code u32 | message str`.
//!
//! Every error a client can receive has a stable numeric code; the
//! `exec_error_code`/[`engine_error_code`] maps are exhaustive
//! `match`es with no wildcard arm, so adding an error variant anywhere
//! in the engine fails to compile until the protocol assigns it a code.

use bytes::Bytes;
use mm_engine::EngineError;
use mm_expr::{Expr, ViewSet};
use mm_guard::ExecError;
use mm_instance::{Database, Relation, Tuple};
use mm_propagate::{Notification, PropagateError, ResyncCause};
use mm_repository::codec::{crc32, Decode, DecodeError, DecodeResult, Encode, Reader, Writer};
use std::fmt;
use std::io::{Read, Write};

/// Frame magic: `"MM20"` little-endian — Model Management 2.0.
pub const MAGIC: u32 = 0x3032_4D4D;

/// Frame header length: magic, payload length, payload CRC32.
pub const HEADER_LEN: usize = 12;

/// Request prelude length: version, req_id, trace_id, deadline_ms, op.
pub const PRELUDE_LEN: usize = 22;

/// Wire protocol versions this build knows. The prelude's leading byte
/// names one; every site that touches the prelude matches exhaustively
/// on [`CURRENT_VERSION`], so adding a variant here refuses to compile
/// until encoder, parser, and client all handle it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireVersion {
    /// The first versioned prelude (PR 9): adds the version byte itself
    /// and the 8-byte trace id to the original 13-byte layout.
    V2 = 2,
}

/// The version this build speaks (and emits).
pub const CURRENT_VERSION: WireVersion = WireVersion::V2;

/// Default cap on a single frame's payload (16 MiB).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

// ---------------------------------------------------------------------
// Stable wire error codes.
// ---------------------------------------------------------------------

pub const ERR_BUDGET_EXHAUSTED: u32 = 1;
pub const ERR_CANCELLED: u32 = 2;
pub const ERR_DIVERGED: u32 = 3;
pub const ERR_UNSUPPORTED: u32 = 4;
pub const ERR_MALFORMED: u32 = 5;
pub const ERR_INTERNAL: u32 = 6;
pub const ERR_IO: u32 = 7;
pub const ERR_DEADLINE_EXCEEDED: u32 = 8;

pub const ERR_REPOSITORY: u32 = 20;
pub const ERR_MODELGEN: u32 = 21;
pub const ERR_TRANSGEN: u32 = 22;
pub const ERR_COMPOSE: u32 = 23;
pub const ERR_EVAL: u32 = 24;
pub const ERR_CORR: u32 = 25;
pub const ERR_INVERSE: u32 = 26;

pub const ERR_SCRIPT: u32 = 30;

pub const ERR_BAD_MAGIC: u32 = 40;
pub const ERR_BAD_CRC: u32 = 41;
pub const ERR_FRAME_TOO_LARGE: u32 = 42;
pub const ERR_DECODE: u32 = 43;
pub const ERR_UNKNOWN_OP: u32 = 44;
pub const ERR_BAD_VERSION: u32 = 45;

pub const ERR_OVERLOADED: u32 = 50;
pub const ERR_QUEUE_FULL: u32 = 51;
pub const ERR_SHUTTING_DOWN: u32 = 52;

pub const ERR_UNKNOWN_SUBSCRIBER: u32 = 60;
pub const ERR_UNKNOWN_INSTANCE: u32 = 61;
pub const ERR_RESYNC_FAILED: u32 = 62;

/// The wire code for a governance error. Exhaustive on purpose: a new
/// [`ExecError`] variant is a compile error here until it gets a code.
pub(crate) fn exec_error_code(e: &ExecError) -> u32 {
    match e {
        ExecError::BudgetExhausted { .. } => ERR_BUDGET_EXHAUSTED,
        ExecError::Cancelled { .. } => ERR_CANCELLED,
        ExecError::Diverged { .. } => ERR_DIVERGED,
        ExecError::Unsupported { .. } => ERR_UNSUPPORTED,
        ExecError::Malformed { .. } => ERR_MALFORMED,
        ExecError::Internal { .. } => ERR_INTERNAL,
        ExecError::Io { .. } => ERR_IO,
        ExecError::DeadlineExceeded { .. } => ERR_DEADLINE_EXCEEDED,
    }
}

/// The wire code for a propagation error. Exhaustive on purpose, like
/// `exec_error_code`.
pub(crate) fn propagate_error_code(e: &PropagateError) -> u32 {
    match e {
        PropagateError::UnknownSubscriber(_) => ERR_UNKNOWN_SUBSCRIBER,
        PropagateError::UnknownInstance(_) => ERR_UNKNOWN_INSTANCE,
        PropagateError::Resync(_) => ERR_RESYNC_FAILED,
    }
}

/// The wire code for an engine error. Execution errors keep their
/// `exec_error_code` so a client sees the same code whether a budget
/// tripped inside `exchange` or a bare governed operator.
pub fn engine_error_code(e: &EngineError) -> u32 {
    match e {
        EngineError::Repository(_) => ERR_REPOSITORY,
        EngineError::ModelGen(_) => ERR_MODELGEN,
        EngineError::TransGen(_) => ERR_TRANSGEN,
        EngineError::Compose(_) => ERR_COMPOSE,
        EngineError::Eval(mm_engine::prelude::EvalError::Exec(exec)) => exec_error_code(exec),
        EngineError::Eval(_) => ERR_EVAL,
        EngineError::Corr(_) => ERR_CORR,
        EngineError::Inverse(_) => ERR_INVERSE,
        EngineError::Exec(exec) => exec_error_code(exec),
        EngineError::Propagate(e) => propagate_error_code(e),
    }
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// A received frame: the raw payload plus its declared CRC. The CRC is
/// *not* verified on receipt — admission control sheds load from the
/// prelude alone, and only requests that reach a worker pay for the
/// checksum ([`RawFrame::crc_ok`]) and body decode.
#[derive(Debug, Clone)]
pub struct RawFrame {
    pub payload: Bytes,
    pub crc: u32,
}

impl RawFrame {
    pub fn crc_ok(&self) -> bool {
        crc32(&self.payload) == self.crc
    }
}

/// Why a frame could not be read off the stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read failed or timed out (torn frame, slow
    /// writer, disconnect). The stream is unusable.
    Io(std::io::Error),
    /// The magic word did not match: the stream is out of sync (or the
    /// peer speaks another protocol). Unrecoverable for this stream.
    BadMagic(u32),
    /// The declared payload length exceeds the negotiated cap; reading
    /// it would be an unbounded allocation, so the stream is dropped.
    TooLarge { len: u32, max: u32 },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload {len} exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one frame: header then payload, flushed.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut head = [0u8; HEADER_LEN];
    head[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    head[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. Allocation is bounded by `max_len` *before* any
/// payload byte is read, so an adversarial length prefix cannot balloon
/// memory (the same discipline as `Reader::seq_len`).
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<RawFrame, FrameError> {
    let mut head = [0u8; HEADER_LEN];
    r.read_exact(&mut head).map_err(FrameError::Io)?;
    let magic = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if len > max_len {
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    let crc = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(RawFrame { payload: Bytes::from(payload), crc })
}

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

/// Operation selectors (the prelude's `op` byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    Ping = 1,
    Exchange = 2,
    ExchangeBatch = 3,
    Mediate = 4,
    ExplainExchange = 5,
    Script = 6,
    // Update propagation (DESIGN.md §14).
    PutInstance = 7,
    InsertBatch = 8,
    Subscribe = 9,
    Poll = 10,
    Ack = 11,
    Resume = 12,
    Unsubscribe = 13,
    // Read-only introspection (DESIGN.md §15). Answered inline on the
    // session thread, bypassing admission control: they must stay
    // answerable while the server sheds or drains.
    Metrics = 14,
    Health = 15,
    SlowLog = 16,
    TraceGet = 17,
}

/// Is `op` one of the read-only introspection selectors the server
/// answers inline, even while shedding or draining?
pub(crate) fn is_introspection_op(op: u8) -> bool {
    op == Op::Metrics as u8
        || op == Op::Health as u8
        || op == Op::SlowLog as u8
        || op == Op::TraceGet as u8
}

/// The parsed request prelude. `deadline_ms` is the client's requested
/// deadline relative to admission (0 = server default); `trace_id` is
/// the client-generated trace id (0 = untraced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHead {
    pub req_id: u64,
    pub trace_id: u64,
    pub deadline_ms: u32,
    pub op: u8,
}

/// Why a prelude failed to parse. Both are answerable with the frame
/// already consumed, so the session survives: `Runt` under req_id 0
/// (there is no id to echo), `Version` under the client's own req_id —
/// that field sits at a fixed offset in every version, so the server
/// can send a typed [`ERR_BAD_VERSION`] even for versions it does not
/// speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreludeError {
    /// Payload shorter than the prelude.
    Runt,
    /// Unknown leading version byte.
    Version { got: u8, req_id: u64 },
}

/// Parse the prelude without touching the body (or the CRC).
pub fn parse_head(payload: &[u8]) -> Result<RequestHead, PreludeError> {
    if payload.len() < PRELUDE_LEN {
        return Err(PreludeError::Runt);
    }
    let req_id = u64::from_le_bytes([
        payload[1], payload[2], payload[3], payload[4], payload[5], payload[6], payload[7],
        payload[8],
    ]);
    // Exhaustive over the enum: a new WireVersion variant is a compile
    // error here until the parser decides how to accept it.
    let supported = match CURRENT_VERSION {
        WireVersion::V2 => payload[0] == WireVersion::V2 as u8,
    };
    if !supported {
        return Err(PreludeError::Version { got: payload[0], req_id });
    }
    let trace_id = u64::from_le_bytes([
        payload[9], payload[10], payload[11], payload[12], payload[13], payload[14],
        payload[15], payload[16],
    ]);
    let deadline_ms =
        u32::from_le_bytes([payload[17], payload[18], payload[19], payload[20]]);
    Ok(RequestHead { req_id, trace_id, deadline_ms, op: payload[21] })
}

/// A fully decoded request body.
#[derive(Debug, Clone)]
pub enum Request {
    Ping,
    Exchange { mapping: String, target_schema: String, source_db: Database },
    ExchangeBatch { items: Vec<(String, String, Database)> },
    Mediate { base_schema: String, chain: Vec<String>, query: Expr, base_db: Database },
    ExplainExchange { mapping: String, target_schema: String, source_db: Database },
    Script { text: String },
    /// Create or replace a tracked instance wholesale (bulk load).
    PutInstance { name: String, db: Database },
    /// Insert-only batch against a tracked instance: one WAL frame, one
    /// coalesced feed event.
    InsertBatch { instance: String, inserts: Vec<(String, Vec<Tuple>)> },
    /// Register a continuous query over a tracked instance.
    Subscribe { instance: String, views: ViewSet },
    /// Drain up to `max` pending notifications for a subscription.
    Poll { id: u64, max: u32 },
    /// Durably acknowledge everything up to `cursor`.
    Ack { id: u64, cursor: u64 },
    /// Reconnect claiming everything up to `cursor` is applied.
    Resume { id: u64, cursor: u64 },
    /// Drop a subscription.
    Unsubscribe { id: u64 },
    /// Read-only: a point-in-time metrics snapshot (empty when the
    /// server runs without telemetry).
    Metrics,
    /// Read-only: liveness, queue depth, shed/drain state.
    Health,
    /// Read-only: up to `max` slow-query log entries, newest last.
    SlowLog { max: u32 },
    /// Read-only: everything the flight recorder holds for a trace id.
    TraceGet { trace_id: u64 },
}

/// Why a request body failed to decode (after the frame itself was
/// sound). Both map to typed error responses; the session stays usable.
#[derive(Debug)]
pub enum BodyError {
    UnknownOp(u8),
    Decode(DecodeError),
}

impl BodyError {
    pub fn code(&self) -> u32 {
        match self {
            BodyError::UnknownOp(_) => ERR_UNKNOWN_OP,
            BodyError::Decode(_) => ERR_DECODE,
        }
    }
}

impl fmt::Display for BodyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyError::UnknownOp(op) => write!(f, "unknown op {op}"),
            BodyError::Decode(e) => write!(f, "{e}"),
        }
    }
}

fn decode_exchange_triple(r: &mut Reader) -> DecodeResult<(String, String, Database)> {
    let mapping = r.str()?;
    let target = r.str()?;
    let db = decode_database(r)?;
    Ok((mapping, target, db))
}

/// Refuse bytes left unread after a complete body: a frame carries one
/// body, so a tail means a length field and the bytes disagree.
fn at_end(r: &Reader) -> DecodeResult<()> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(DecodeError("trailing bytes after the body".into()))
    }
}

/// Decode a request body for `op` (the bytes after the prelude). The
/// body must use every byte: trailing bytes are a decode error.
pub fn decode_request(op: u8, r: &mut Reader) -> Result<Request, BodyError> {
    let decoded = match op {
        x if x == Op::Ping as u8 => Ok(Request::Ping),
        x if x == Op::Exchange as u8 => decode_exchange_triple(r).map(
            |(mapping, target_schema, source_db)| Request::Exchange {
                mapping,
                target_schema,
                source_db,
            },
        ),
        x if x == Op::ExchangeBatch as u8 => r
            .seq(decode_exchange_triple)
            .map(|items| Request::ExchangeBatch { items }),
        x if x == Op::Mediate as u8 => (|| {
            let base_schema = r.str()?;
            let chain = r.seq(|r| r.str())?;
            let query = Expr::decode(r)?;
            let base_db = decode_database(r)?;
            Ok(Request::Mediate { base_schema, chain, query, base_db })
        })(),
        x if x == Op::ExplainExchange as u8 => decode_exchange_triple(r).map(
            |(mapping, target_schema, source_db)| Request::ExplainExchange {
                mapping,
                target_schema,
                source_db,
            },
        ),
        x if x == Op::Script as u8 => r.str().map(|text| Request::Script { text }),
        x if x == Op::PutInstance as u8 => (|| {
            let name = r.str()?;
            let db = decode_database(r)?;
            Ok(Request::PutInstance { name, db })
        })(),
        x if x == Op::InsertBatch as u8 => (|| {
            let instance = r.str()?;
            let inserts = r.seq(|r| {
                let rel = r.str()?;
                let tuples = r.seq(Tuple::decode)?;
                Ok((rel, tuples))
            })?;
            Ok(Request::InsertBatch { instance, inserts })
        })(),
        x if x == Op::Subscribe as u8 => (|| {
            let instance = r.str()?;
            let views = ViewSet::decode(r)?;
            Ok(Request::Subscribe { instance, views })
        })(),
        x if x == Op::Poll as u8 => (|| {
            let id = r.u64()?;
            let max = r.u32()?;
            Ok(Request::Poll { id, max })
        })(),
        x if x == Op::Ack as u8 => (|| {
            let id = r.u64()?;
            let cursor = r.u64()?;
            Ok(Request::Ack { id, cursor })
        })(),
        x if x == Op::Resume as u8 => (|| {
            let id = r.u64()?;
            let cursor = r.u64()?;
            Ok(Request::Resume { id, cursor })
        })(),
        x if x == Op::Unsubscribe as u8 => r.u64().map(|id| Request::Unsubscribe { id }),
        x if x == Op::Metrics as u8 => Ok(Request::Metrics),
        x if x == Op::Health as u8 => Ok(Request::Health),
        x if x == Op::SlowLog as u8 => r.u32().map(|max| Request::SlowLog { max }),
        x if x == Op::TraceGet as u8 => r.u64().map(|trace_id| Request::TraceGet { trace_id }),
        other => return Err(BodyError::UnknownOp(other)),
    };
    decoded.and_then(|request| at_end(r).map(|()| request)).map_err(BodyError::Decode)
}

impl Request {
    /// The prelude's op selector for this request.
    pub(crate) fn op(&self) -> Op {
        match self {
            Request::Ping => Op::Ping,
            Request::Exchange { .. } => Op::Exchange,
            Request::ExchangeBatch { .. } => Op::ExchangeBatch,
            Request::Mediate { .. } => Op::Mediate,
            Request::ExplainExchange { .. } => Op::ExplainExchange,
            Request::Script { .. } => Op::Script,
            Request::PutInstance { .. } => Op::PutInstance,
            Request::InsertBatch { .. } => Op::InsertBatch,
            Request::Subscribe { .. } => Op::Subscribe,
            Request::Poll { .. } => Op::Poll,
            Request::Ack { .. } => Op::Ack,
            Request::Resume { .. } => Op::Resume,
            Request::Unsubscribe { .. } => Op::Unsubscribe,
            Request::Metrics => Op::Metrics,
            Request::Health => Op::Health,
            Request::SlowLog { .. } => Op::SlowLog,
            Request::TraceGet { .. } => Op::TraceGet,
        }
    }
}

/// Start a request payload: the versioned prelude, ending in `op`. The
/// caller appends the op's body and [`Writer::finish`]es it for
/// [`write_frame`].
pub(crate) fn begin_request(req_id: u64, deadline_ms: u32, trace_id: u64, op: Op) -> Writer {
    let mut w = Writer::new();
    // Exhaustive on purpose: bumping CURRENT_VERSION forces this site
    // to decide what the new prelude looks like.
    match CURRENT_VERSION {
        WireVersion::V2 => w.u8(WireVersion::V2 as u8),
    }
    w.u64(req_id);
    w.u64(trace_id);
    w.u32(deadline_ms);
    w.u8(op as u8);
    w
}

// The bodies that carry data take borrowed arguments, so a caller that
// holds a `&Database` encodes it without first cloning it into an owned
// `Request`; [`encode_body`] delegates to the same functions.

/// Body of `Exchange` and `ExplainExchange`, and one `ExchangeBatch` item.
pub(crate) fn encode_exchange_body(w: &mut Writer, mapping: &str, target_schema: &str, db: &Database) {
    w.str(mapping);
    w.str(target_schema);
    encode_database(w, db);
}

/// Body of `ExchangeBatch`.
pub(crate) fn encode_exchange_batch_body(w: &mut Writer, items: &[(String, String, Database)]) {
    w.seq(items, |w, (mapping, target, db)| encode_exchange_body(w, mapping, target, db));
}

/// Body of `Mediate`.
pub(crate) fn encode_mediate_body(
    w: &mut Writer,
    base_schema: &str,
    chain: &[String],
    query: &Expr,
    base_db: &Database,
) {
    w.str(base_schema);
    w.seq(chain, |w, name| w.str(name));
    query.encode(w);
    encode_database(w, base_db);
}

/// Body of `PutInstance`.
pub(crate) fn encode_put_instance_body(w: &mut Writer, name: &str, db: &Database) {
    w.str(name);
    encode_database(w, db);
}

/// Body of `InsertBatch`.
pub(crate) fn encode_insert_batch_body(w: &mut Writer, instance: &str, inserts: &[(String, Vec<Tuple>)]) {
    w.str(instance);
    w.seq(inserts, |w, (rel, tuples)| {
        w.str(rel);
        w.seq(tuples, |w, t| t.encode(w));
    });
}

/// Body of `Subscribe`.
pub(crate) fn encode_subscribe_body(w: &mut Writer, instance: &str, views: &ViewSet) {
    w.str(instance);
    views.encode(w);
}

/// Encode the body of `req` (the bytes after the prelude).
pub(crate) fn encode_body(w: &mut Writer, req: &Request) {
    match req {
        Request::Ping | Request::Metrics | Request::Health => {}
        Request::Exchange { mapping, target_schema, source_db }
        | Request::ExplainExchange { mapping, target_schema, source_db } => {
            encode_exchange_body(w, mapping, target_schema, source_db)
        }
        Request::ExchangeBatch { items } => encode_exchange_batch_body(w, items),
        Request::Mediate { base_schema, chain, query, base_db } => {
            encode_mediate_body(w, base_schema, chain, query, base_db)
        }
        Request::Script { text } => w.str(text),
        Request::PutInstance { name, db } => encode_put_instance_body(w, name, db),
        Request::InsertBatch { instance, inserts } => {
            encode_insert_batch_body(w, instance, inserts)
        }
        Request::Subscribe { instance, views } => encode_subscribe_body(w, instance, views),
        Request::Poll { id, max } => {
            w.u64(*id);
            w.u32(*max);
        }
        Request::Ack { id, cursor } | Request::Resume { id, cursor } => {
            w.u64(*id);
            w.u64(*cursor);
        }
        Request::Unsubscribe { id } => w.u64(*id),
        Request::SlowLog { max } => w.u32(*max),
        Request::TraceGet { trace_id } => w.u64(*trace_id),
    }
}

/// Encode a request payload (versioned prelude + body) ready for
/// [`write_frame`].
pub fn encode_request(req_id: u64, deadline_ms: u32, trace_id: u64, req: &Request) -> Bytes {
    let mut w = begin_request(req_id, deadline_ms, trace_id, req.op());
    encode_body(&mut w, req);
    w.finish()
}

// ---------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------

/// Chase statistics on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    pub fired: u64,
    pub rounds: u64,
    pub nulls: u64,
}

impl From<mm_chase::ChaseStats> for WireStats {
    fn from(s: mm_chase::ChaseStats) -> Self {
        WireStats { fired: s.fired as u64, rounds: s.rounds as u64, nulls: s.nulls as u64 }
    }
}

/// A successful response body, tagged with its op byte on the wire so
/// responses are self-describing.
#[derive(Debug, Clone)]
pub enum OkBody {
    Pong,
    Exchange { db: Database, stats: WireStats },
    Batch { slots: Vec<Result<(Database, WireStats), (u32, String)>> },
    Mediate { rows: Relation, chained: bool, degraded: bool },
    Explain { db: Database, stats: WireStats, text: String },
    Script { outputs: Vec<String> },
    /// A committed data-path write (`PutInstance`/`InsertBatch`): the
    /// commit sequence, which is also the feed event's position.
    Committed { seq: u64 },
    /// A registered subscription id.
    Subscribed { id: u64 },
    /// Drained notifications plus the lagging flag.
    Notifications { notifications: Vec<Notification>, lagging: bool },
    /// Acknowledged (`Ack`/`Resume`/`Unsubscribe`).
    Done,
    /// A metrics snapshot: stable sorted `(key, value)` rows.
    Metrics { entries: Vec<(String, u64)> },
    /// A health report.
    Health(HealthReport),
    /// Slow-query log entries as stable JSON lines, oldest first.
    SlowLog { lines: Vec<String> },
    /// Flight-recorder data for one trace id as stable JSON lines:
    /// the request summary, then its captured span tree if the request
    /// was slow enough to keep one.
    Trace { lines: Vec<String> },
}

/// What the health op reports: enough to drive a scrape/alert loop
/// without parsing metrics. All point-in-time reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Drain in progress: new work is refused with code 52.
    pub draining: bool,
    /// Hysteresis shed latch is on: new work is refused with code 50.
    pub shedding: bool,
    /// Requests admitted but not yet completed.
    pub inflight: u64,
    /// Jobs waiting in the executor queue.
    pub queue_depth: u64,
    /// The executor queue's capacity.
    pub queue_capacity: u64,
    /// Live sessions.
    pub sessions: u64,
    /// Requests completed since boot (0 without telemetry).
    pub completed: u64,
    /// Requests shed since boot, all causes (0 without telemetry).
    pub shed: u64,
    /// Telemetry events lost to ring eviction or sink failures.
    pub events_dropped: u64,
    /// Entries currently held by the slow-query log.
    pub slow_entries: u64,
}

fn encode_health(w: &mut Writer, h: &HealthReport) {
    w.bool(h.draining);
    w.bool(h.shedding);
    w.u64(h.inflight);
    w.u64(h.queue_depth);
    w.u64(h.queue_capacity);
    w.u64(h.sessions);
    w.u64(h.completed);
    w.u64(h.shed);
    w.u64(h.events_dropped);
    w.u64(h.slow_entries);
}

fn decode_health(r: &mut Reader) -> DecodeResult<HealthReport> {
    Ok(HealthReport {
        draining: r.bool()?,
        shedding: r.bool()?,
        inflight: r.u64()?,
        queue_depth: r.u64()?,
        queue_capacity: r.u64()?,
        sessions: r.u64()?,
        completed: r.u64()?,
        shed: r.u64()?,
        events_dropped: r.u64()?,
        slow_entries: r.u64()?,
    })
}

/// Wire tag for a [`ResyncCause`] (stable: clients key retry/alert
/// logic on it).
fn resync_cause_code(c: ResyncCause) -> u8 {
    match c {
        ResyncCause::Initial => 0,
        ResyncCause::Overflow => 1,
        ResyncCause::CursorLost => 2,
        ResyncCause::Budget => 3,
        ResyncCause::Load => 4,
        ResyncCause::Error => 5,
    }
}

fn decode_resync_cause(tag: u8) -> DecodeResult<ResyncCause> {
    Ok(match tag {
        0 => ResyncCause::Initial,
        1 => ResyncCause::Overflow,
        2 => ResyncCause::CursorLost,
        3 => ResyncCause::Budget,
        4 => ResyncCause::Load,
        5 => ResyncCause::Error,
        other => return Err(DecodeError(format!("unknown resync cause tag {other}"))),
    })
}

/// Encode one notification (the typed push frame's body).
pub(crate) fn encode_notification(w: &mut Writer, n: &Notification) {
    match n {
        Notification::Delta { seq, view_inserts } => {
            w.u8(0);
            w.u64(*seq);
            w.seq(view_inserts, |w, (view, tuples)| {
                w.str(view);
                w.seq(tuples, |w, t| t.encode(w));
            });
        }
        Notification::Resync { seq, cause, views } => {
            w.u8(1);
            w.u64(*seq);
            w.u8(resync_cause_code(*cause));
            encode_database(w, views);
        }
    }
}

/// Decode one notification.
pub(crate) fn decode_notification(r: &mut Reader) -> DecodeResult<Notification> {
    Ok(match r.u8()? {
        0 => {
            let seq = r.u64()?;
            let view_inserts = r.seq(|r| {
                let view = r.str()?;
                let tuples = r.seq(Tuple::decode)?;
                Ok((view, tuples))
            })?;
            Notification::Delta { seq, view_inserts }
        }
        1 => {
            let seq = r.u64()?;
            let cause = decode_resync_cause(r.u8()?)?;
            let views = decode_database(r)?;
            Notification::Resync { seq, cause, views }
        }
        other => return Err(DecodeError(format!("unknown notification tag {other}"))),
    })
}

fn encode_exchange_ok(w: &mut Writer, db: &Database, stats: &WireStats) {
    encode_database(w, db);
    w.u64(stats.fired);
    w.u64(stats.rounds);
    w.u64(stats.nulls);
}

fn decode_exchange_ok(r: &mut Reader) -> DecodeResult<(Database, WireStats)> {
    let db = decode_database(r)?;
    let fired = r.u64()?;
    let rounds = r.u64()?;
    let nulls = r.u64()?;
    Ok((db, WireStats { fired, rounds, nulls }))
}

/// Encode a success response payload.
pub fn encode_ok(req_id: u64, body: &OkBody) -> Bytes {
    let mut w = Writer::new();
    w.u64(req_id);
    w.u8(0);
    match body {
        OkBody::Pong => w.u8(Op::Ping as u8),
        OkBody::Exchange { db, stats } => {
            w.u8(Op::Exchange as u8);
            encode_exchange_ok(&mut w, db, stats);
        }
        OkBody::Batch { slots } => {
            w.u8(Op::ExchangeBatch as u8);
            w.seq(slots, |w, slot| match slot {
                Ok((db, stats)) => {
                    w.u8(0);
                    encode_exchange_ok(w, db, stats);
                }
                Err((code, message)) => {
                    w.u8(1);
                    w.u32(*code);
                    w.str(message);
                }
            });
        }
        OkBody::Mediate { rows, chained, degraded } => {
            w.u8(Op::Mediate as u8);
            encode_relation(&mut w, rows);
            w.bool(*chained);
            w.bool(*degraded);
        }
        OkBody::Explain { db, stats, text } => {
            w.u8(Op::ExplainExchange as u8);
            encode_exchange_ok(&mut w, db, stats);
            w.str(text);
        }
        OkBody::Script { outputs } => {
            w.u8(Op::Script as u8);
            w.seq(outputs, |w, line| w.str(line));
        }
        OkBody::Committed { seq } => {
            w.u8(Op::PutInstance as u8);
            w.u64(*seq);
        }
        OkBody::Subscribed { id } => {
            w.u8(Op::Subscribe as u8);
            w.u64(*id);
        }
        OkBody::Notifications { notifications, lagging } => {
            w.u8(Op::Poll as u8);
            w.seq(notifications, encode_notification);
            w.bool(*lagging);
        }
        OkBody::Done => w.u8(Op::Ack as u8),
        OkBody::Metrics { entries } => {
            w.u8(Op::Metrics as u8);
            w.seq(entries, |w, (k, v)| {
                w.str(k);
                w.u64(*v);
            });
        }
        OkBody::Health(h) => {
            w.u8(Op::Health as u8);
            encode_health(&mut w, h);
        }
        OkBody::SlowLog { lines } => {
            w.u8(Op::SlowLog as u8);
            w.seq(lines, |w, line| w.str(line));
        }
        OkBody::Trace { lines } => {
            w.u8(Op::TraceGet as u8);
            w.seq(lines, |w, line| w.str(line));
        }
    }
    w.finish()
}

/// Encode an error response payload.
pub(crate) fn encode_err(req_id: u64, code: u32, message: &str) -> Bytes {
    let mut w = Writer::new();
    w.u64(req_id);
    w.u8(1);
    w.u32(code);
    w.str(message);
    w.finish()
}

/// A decoded response: the request id it answers and either a result
/// body or a typed `(code, message)` rejection.
pub type DecodedResponse = (u64, Result<OkBody, (u32, String)>);

/// Decode a response payload (the client side of [`encode_ok`]/
/// `encode_err`). The payload must use every byte: trailing bytes are
/// a decode error.
pub fn decode_response(payload: Bytes) -> DecodeResult<DecodedResponse> {
    let mut r = Reader::new(payload);
    let req_id = r.u64()?;
    let status = r.u8()?;
    if status == 1 {
        let code = r.u32()?;
        let message = r.str()?;
        at_end(&r)?;
        return Ok((req_id, Err((code, message))));
    }
    let op = r.u8()?;
    let body = match op {
        x if x == Op::Ping as u8 => OkBody::Pong,
        x if x == Op::Exchange as u8 => {
            let (db, stats) = decode_exchange_ok(&mut r)?;
            OkBody::Exchange { db, stats }
        }
        x if x == Op::ExchangeBatch as u8 => {
            let slots = r.seq(|r| {
                if r.u8()? == 0 {
                    decode_exchange_ok(r).map(Ok)
                } else {
                    let code = r.u32()?;
                    let message = r.str()?;
                    Ok(Err((code, message)))
                }
            })?;
            OkBody::Batch { slots }
        }
        x if x == Op::Mediate as u8 => {
            let rows = decode_relation(&mut r)?;
            let chained = r.bool()?;
            let degraded = r.bool()?;
            OkBody::Mediate { rows, chained, degraded }
        }
        x if x == Op::ExplainExchange as u8 => {
            let (db, stats) = decode_exchange_ok(&mut r)?;
            let text = r.str()?;
            OkBody::Explain { db, stats, text }
        }
        x if x == Op::Script as u8 => OkBody::Script { outputs: r.seq(|r| r.str())? },
        x if x == Op::PutInstance as u8 => OkBody::Committed { seq: r.u64()? },
        x if x == Op::Subscribe as u8 => OkBody::Subscribed { id: r.u64()? },
        x if x == Op::Poll as u8 => {
            let notifications = r.seq(decode_notification)?;
            let lagging = r.bool()?;
            OkBody::Notifications { notifications, lagging }
        }
        x if x == Op::Ack as u8 => OkBody::Done,
        x if x == Op::Metrics as u8 => {
            let entries = r.seq(|r| {
                let k = r.str()?;
                let v = r.u64()?;
                Ok((k, v))
            })?;
            OkBody::Metrics { entries }
        }
        x if x == Op::Health as u8 => OkBody::Health(decode_health(&mut r)?),
        x if x == Op::SlowLog as u8 => OkBody::SlowLog { lines: r.seq(|r| r.str())? },
        x if x == Op::TraceGet as u8 => OkBody::Trace { lines: r.seq(|r| r.str())? },
        other => return Err(DecodeError(format!("unknown response op tag {other}"))),
    };
    at_end(&r)?;
    Ok((req_id, Ok(body)))
}

// ---------------------------------------------------------------------
// Instance codec.
//
// Since the repository journals tracked instances (v3 snapshots and
// the `InstancePut`/`InstanceDelta` WAL records), the `Value`/`Tuple`/
// `Relation`/`Database` codecs live in `mm_repository::codec`; the
// wire delegates to them, so a database is byte-identical on the wire
// and in the WAL. These wrappers survive as the protocol's public
// names for them.
// ---------------------------------------------------------------------

/// Encode a relation: attribute list then tuple list.
pub(crate) fn encode_relation(w: &mut Writer, rel: &Relation) {
    rel.encode(w);
}

/// Decode a relation (tuples are deduplicated on insert, the same
/// set semantics [`Relation::insert`] maintains).
pub(crate) fn decode_relation(r: &mut Reader) -> DecodeResult<Relation> {
    Relation::decode(r)
}

/// Encode a database: name, labeled-null watermark, relations.
pub fn encode_database(w: &mut Writer, db: &Database) {
    db.encode(w);
}

/// Decode a database.
pub fn decode_database(r: &mut Reader) -> DecodeResult<Database> {
    Database::decode(r)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use mm_instance::{RelSchema, Value};
    use mm_metamodel::DataType;

    fn sample_db() -> Database {
        let mut db = Database::new("S");
        let mut rel = Relation::new(RelSchema::of(&[
            ("Id", DataType::Int),
            ("Name", DataType::Text),
            ("Score", DataType::Double),
        ]));
        rel.insert(Tuple::new(vec![
            Value::Int(1),
            Value::text("ada"),
            Value::Double(0.5),
        ]));
        rel.insert(Tuple::new(vec![Value::Int(2), Value::Null, Value::Labeled(7)]));
        db.insert_relation("Person", rel);
        db.set_label_watermark(8);
        db
    }

    #[test]
    fn database_round_trips() {
        let db = sample_db();
        let mut w = Writer::new();
        encode_database(&mut w, &db);
        let mut r = Reader::new(w.finish());
        let back = decode_database(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.name, db.name);
        assert_eq!(back.label_watermark(), 8);
        assert!(back.relation("Person").unwrap().set_eq(db.relation("Person").unwrap()));
    }

    #[test]
    fn frame_round_trips_and_crc_detects_flips() {
        let payload = encode_request(
            9,
            250,
            0xDEAD_BEEF,
            &Request::Exchange {
                mapping: "M".into(),
                target_schema: "T".into(),
                source_db: sample_db(),
            },
        );
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap();
        assert!(frame.crc_ok());
        let head = parse_head(&frame.payload).unwrap();
        assert_eq!(
            (head.req_id, head.trace_id, head.deadline_ms, head.op),
            (9, 0xDEAD_BEEF, 250, Op::Exchange as u8)
        );

        // Flip one payload bit (header intact): CRC must catch it.
        let mut torn = buf.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x10;
        let frame = read_frame(&mut torn.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap();
        assert!(!frame.crc_ok());
    }

    #[test]
    fn oversized_and_desynced_frames_are_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"x").unwrap();
        buf[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::BadMagic(_))
        ));

        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 64]).unwrap();
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 16),
            Err(FrameError::TooLarge { len: 64, max: 16 })
        ));
    }

    #[test]
    fn propagation_frames_round_trip() {
        // Requests.
        let mut views = ViewSet::new("S", "V");
        views.push(mm_expr::ViewDef::new("All", Expr::base("Person")));
        let reqs = vec![
            Request::PutInstance { name: "I".into(), db: sample_db() },
            Request::InsertBatch {
                instance: "I".into(),
                inserts: vec![("Person".into(), vec![Tuple::new(vec![Value::Int(3)])])],
            },
            Request::Subscribe { instance: "I".into(), views },
            Request::Poll { id: 7, max: 16 },
            Request::Ack { id: 7, cursor: 42 },
            Request::Resume { id: 7, cursor: 42 },
            Request::Unsubscribe { id: 7 },
        ];
        for req in &reqs {
            let payload = encode_request(1, 0, 7, req);
            let head = parse_head(&payload).unwrap();
            let body = payload.slice(PRELUDE_LEN..payload.len());
            let back = decode_request(head.op, &mut Reader::new(body)).unwrap();
            // Decode-then-re-encode must be bit-identical (Debug output
            // is unstable for hash-backed dedup state).
            assert_eq!(encode_request(1, 0, 7, &back), payload);
        }

        // Responses: a delta and a resync notification.
        let ok = encode_ok(
            2,
            &OkBody::Notifications {
                notifications: vec![
                    Notification::Delta {
                        seq: 5,
                        view_inserts: vec![(
                            "All".into(),
                            vec![Tuple::new(vec![Value::Int(1)])],
                        )],
                    },
                    Notification::Resync {
                        seq: 6,
                        cause: ResyncCause::Overflow,
                        views: sample_db(),
                    },
                ],
                lagging: true,
            },
        );
        let (id, body) = decode_response(ok).unwrap();
        assert_eq!(id, 2);
        match body.unwrap() {
            OkBody::Notifications { notifications, lagging } => {
                assert!(lagging);
                assert_eq!(notifications.len(), 2);
                assert_eq!(notifications[0].seq(), 5);
                match &notifications[1] {
                    Notification::Resync { cause, views, .. } => {
                        assert_eq!(*cause, ResyncCause::Overflow);
                        assert!(views
                            .relation("Person")
                            .unwrap()
                            .set_eq(sample_db().relation("Person").unwrap()));
                    }
                    other => panic!("expected resync, got {other:?}"),
                }
            }
            other => panic!("wrong body: {other:?}"),
        }

        let (_, committed) = decode_response(encode_ok(3, &OkBody::Committed { seq: 9 })).unwrap();
        assert!(matches!(committed.unwrap(), OkBody::Committed { seq: 9 }));
        let (_, done) = decode_response(encode_ok(4, &OkBody::Done)).unwrap();
        assert!(matches!(done.unwrap(), OkBody::Done));
    }

    #[test]
    fn unknown_prelude_version_is_typed_and_keeps_the_req_id() {
        let mut payload = encode_request(77, 0, 0, &Request::Ping).to_vec();
        payload[0] = 99;
        match parse_head(&payload) {
            Err(PreludeError::Version { got: 99, req_id: 77 }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
        assert_eq!(parse_head(&payload[..PRELUDE_LEN - 1]), Err(PreludeError::Runt));
    }

    #[test]
    fn introspection_frames_round_trip() {
        let reqs = vec![
            Request::Metrics,
            Request::Health,
            Request::SlowLog { max: 32 },
            Request::TraceGet { trace_id: 0xFEED },
        ];
        for req in &reqs {
            let payload = encode_request(1, 0, 0, req);
            let head = parse_head(&payload).unwrap();
            assert!(is_introspection_op(head.op));
            let body = payload.slice(PRELUDE_LEN..payload.len());
            let back = decode_request(head.op, &mut Reader::new(body)).unwrap();
            assert_eq!(encode_request(1, 0, 0, &back), payload);
        }
        assert!(!is_introspection_op(Op::Exchange as u8));

        let entries = vec![("chase_rounds".to_string(), 4u64), ("server.completed".into(), 9)];
        let (_, body) =
            decode_response(encode_ok(6, &OkBody::Metrics { entries: entries.clone() })).unwrap();
        match body.unwrap() {
            OkBody::Metrics { entries: back } => assert_eq!(back, entries),
            other => panic!("wrong body: {other:?}"),
        }

        let health = HealthReport {
            draining: false,
            shedding: true,
            inflight: 2,
            queue_depth: 4,
            queue_capacity: 64,
            sessions: 3,
            completed: 100,
            shed: 5,
            events_dropped: 1,
            slow_entries: 2,
        };
        let (_, body) = decode_response(encode_ok(7, &OkBody::Health(health))).unwrap();
        match body.unwrap() {
            OkBody::Health(back) => assert_eq!(back, health),
            other => panic!("wrong body: {other:?}"),
        }

        let lines = vec!["{\"seq\":1}".to_string(), "{\"seq\":2}".to_string()];
        let (_, body) =
            decode_response(encode_ok(8, &OkBody::SlowLog { lines: lines.clone() })).unwrap();
        match body.unwrap() {
            OkBody::SlowLog { lines: back } => assert_eq!(back, lines),
            other => panic!("wrong body: {other:?}"),
        }
        let (_, body) =
            decode_response(encode_ok(9, &OkBody::Trace { lines: lines.clone() })).unwrap();
        match body.unwrap() {
            OkBody::Trace { lines: back } => assert_eq!(back, lines),
            other => panic!("wrong body: {other:?}"),
        }
    }

    /// The wire format written out by hand — an independent statement of
    /// the byte layout — remembering where every length prefix sits.
    #[derive(Default)]
    struct Probe {
        bytes: Vec<u8>,
        lens: Vec<usize>,
    }

    impl Probe {
        fn raw(&mut self, bytes: &[u8]) {
            self.bytes.extend_from_slice(bytes);
        }

        fn len(&mut self, n: usize) {
            self.lens.push(self.bytes.len());
            self.raw(&(n as u32).to_le_bytes());
        }

        fn str(&mut self, s: &str) {
            self.len(s.len());
            self.raw(s.as_bytes());
        }

        fn value(&mut self, v: &Value) {
            match v {
                Value::Int(i) => {
                    self.raw(&[0]);
                    self.raw(&i.to_le_bytes());
                }
                Value::Double(d) => {
                    self.raw(&[1]);
                    self.raw(&d.to_le_bytes());
                }
                Value::Bool(b) => self.raw(&[2, *b as u8]),
                Value::Text(_) | Value::Sym(_) => {
                    self.raw(&[3]);
                    self.str(v.as_text().unwrap());
                }
                Value::Date(d) => {
                    self.raw(&[4]);
                    self.raw(&d.to_le_bytes());
                }
                Value::Null => self.raw(&[5]),
                Value::Labeled(l) => {
                    self.raw(&[6]);
                    self.raw(&l.to_le_bytes());
                }
            }
        }

        fn database(&mut self, db: &Database) {
            self.str(&db.name);
            self.raw(&db.label_watermark().to_le_bytes());
            self.len(db.relations().count());
            for (name, rel) in db.relations() {
                self.str(name);
                self.len(rel.schema.arity());
                for a in &rel.schema.attributes {
                    self.str(&a.name);
                    let ty = match a.ty {
                        DataType::Int => 0,
                        DataType::Double => 1,
                        DataType::Bool => 2,
                        DataType::Text => 3,
                        DataType::Date => 4,
                        DataType::Any => 5,
                    };
                    self.raw(&[ty, a.nullable as u8]);
                }
                self.len(rel.len());
                for t in rel.tuples() {
                    self.len(t.arity());
                    for v in t.values() {
                        self.value(v);
                    }
                }
            }
        }

        /// Every way to corrupt one byte of one length prefix.
        fn corrupted_lengths(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
            let offsets = self.lens.iter().flat_map(|&at| at..at + 4);
            offsets.flat_map(move |at| {
                (1..=255u8).map(move |flip| {
                    let mut bytes = self.bytes.clone();
                    bytes[at] ^= flip;
                    bytes
                })
            })
        }
    }

    /// A spilled (arity 5) tuple beside `sample_db`'s inline ones.
    fn wide_db() -> Database {
        let mut db = Database::new("W");
        let mut rel = Relation::new(RelSchema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Bool),
            ("c", DataType::Date),
            ("d", DataType::Text),
            ("e", DataType::Any),
        ]));
        rel.insert(Tuple::new(vec![
            Value::Int(-3),
            Value::Bool(true),
            Value::Date(19_000),
            Value::text(""),
            Value::Double(f64::NAN),
        ]));
        db.insert_relation("Wide", rel);
        db
    }

    /// Truncation and length-prefix sweep over a batch request: if a
    /// cursor read lost its bounds check, this panics instead of
    /// returning `Err`.
    #[test]
    fn batch_request_prefixes_and_corrupt_lengths_fail_typed() {
        let items = vec![
            ("M1".to_string(), "T1".to_string(), sample_db()),
            ("M2".to_string(), "T2".to_string(), wide_db()),
        ];
        let mut probe = Probe::default();
        probe.len(items.len());
        for (mapping, target, db) in &items {
            probe.str(mapping);
            probe.str(target);
            probe.database(db);
        }
        let payload = encode_request(1, 0, 0, &Request::ExchangeBatch { items });
        assert_eq!(payload[PRELUDE_LEN..], probe.bytes[..], "the probe speaks the wire format");

        let decode = |bytes: &[u8]| {
            decode_request(Op::ExchangeBatch as u8, &mut Reader::new(Bytes::copy_from_slice(bytes)))
        };
        assert!(decode(&probe.bytes).is_ok());
        for cut in 0..probe.bytes.len() {
            assert!(decode(&probe.bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
        for bytes in probe.corrupted_lengths() {
            // a lowered count leaves bytes unread, which is refused too
            assert!(decode(&bytes).is_err());
        }
        let mut trailing = probe.bytes.clone();
        trailing.push(0);
        assert!(matches!(decode(&trailing), Err(BodyError::Decode(_))), "one trailing byte");
    }

    /// The same sweep over a batch response (the client-side decoder).
    #[test]
    fn batch_response_prefixes_and_corrupt_lengths_fail_typed() {
        let stats = WireStats { fired: 3, rounds: 1, nulls: 2 };
        let mut probe = Probe::default();
        probe.raw(&7u64.to_le_bytes());
        probe.raw(&[0, Op::ExchangeBatch as u8]);
        probe.len(2);
        probe.raw(&[0]);
        probe.database(&sample_db());
        for n in [stats.fired, stats.rounds, stats.nulls] {
            probe.raw(&n.to_le_bytes());
        }
        probe.raw(&[1]);
        probe.raw(&ERR_EVAL.to_le_bytes());
        probe.str("boom");
        let body = OkBody::Batch {
            slots: vec![Ok((sample_db(), stats)), Err((ERR_EVAL, "boom".to_string()))],
        };
        let payload = encode_ok(7, &body);
        assert_eq!(payload[..], probe.bytes[..], "the probe speaks the wire format");

        let decode = |bytes: &[u8]| decode_response(Bytes::copy_from_slice(bytes));
        assert!(decode(&probe.bytes).is_ok());
        for cut in 0..probe.bytes.len() {
            assert!(decode(&probe.bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
        for bytes in probe.corrupted_lengths() {
            // a lowered count leaves bytes unread, which is refused too
            assert!(decode(&bytes).is_err());
        }
        let mut trailing = probe.bytes.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err(), "one trailing byte");
    }

    /// The issue-13 amplification payload through the request decoder: a
    /// tuple count claiming one 112-byte `Tuple` per remaining input byte.
    #[test]
    fn put_instance_with_a_lying_tuple_count_is_refused() {
        let mut w = Writer::new();
        w.str("I"); // instance name
        w.str("D"); // database name
        w.u64(0); // label watermark
        w.u32(1); // one relation
        w.str("R");
        w.u32(0); // no attributes
        let mut payload = w.finish().to_vec();
        let filler = DEFAULT_MAX_FRAME_LEN as usize - payload.len() - 4;
        payload.extend_from_slice(&(filler as u32).to_le_bytes());
        payload.resize(payload.len() + filler, 0xFF);
        let mut r = Reader::new(Bytes::from(payload));
        assert!(matches!(
            decode_request(Op::PutInstance as u8, &mut r),
            Err(BodyError::Decode(_))
        ));
    }

    /// A frame written by the parent of the sliced-CRC / cursor-decode
    /// change (commit 498f5f0): the bytes on the wire did not move, in
    /// either direction.
    #[test]
    fn a_frame_written_before_the_codec_rewrite_reads_and_rewrites_identically() {
        #[rustfmt::skip]
        const FRAME: [u8; 246] = [
            0x4d, 0x4d, 0x32, 0x30, 0xea, 0x00, 0x00, 0x00, 0xf3, 0x81, 0x8d, 0x66, 0x02, 0x09, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde, 0x00, 0x00, 0x00, 0x00, 0xfa, 0x00, 0x00,
            0x00, 0x02, 0x01, 0x00, 0x00, 0x00, 0x4d, 0x01, 0x00, 0x00, 0x00, 0x54, 0x01, 0x00, 0x00, 0x00,
            0x53, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00,
            0x00, 0x50, 0x65, 0x72, 0x73, 0x6f, 0x6e, 0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x49,
            0x64, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x4e, 0x61, 0x6d, 0x65, 0x03, 0x00, 0x05, 0x00, 0x00,
            0x00, 0x53, 0x63, 0x6f, 0x72, 0x65, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
            0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x03, 0x00, 0x00, 0x00, 0x61, 0x64,
            0x61, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x03, 0x00, 0x00, 0x00, 0x00, 0x02,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x06, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x04, 0x00, 0x00, 0x00, 0x57, 0x69, 0x64, 0x65, 0x05, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
            0x00, 0x61, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x62, 0x02, 0x00, 0x01, 0x00, 0x00, 0x00, 0x63,
            0x04, 0x00, 0x01, 0x00, 0x00, 0x00, 0x64, 0x03, 0x00, 0x01, 0x00, 0x00, 0x00, 0x65, 0x05, 0x00,
            0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            0xff, 0x02, 0x01, 0x04, 0x38, 0x4a, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0xf8, 0x7f,
        ];
        let frame = read_frame(&mut FRAME.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap();
        assert!(frame.crc_ok(), "the sliced CRC agrees with the bytewise one that wrote this");
        let head = parse_head(&frame.payload).unwrap();
        assert_eq!(
            (head.req_id, head.trace_id, head.deadline_ms, head.op),
            (9, 0xDEAD_BEEF, 250, Op::Exchange as u8)
        );
        let body = frame.payload.slice(PRELUDE_LEN..frame.payload.len());
        let req = decode_request(head.op, &mut Reader::new(body)).unwrap();
        match &req {
            Request::Exchange { mapping, target_schema, source_db } => {
                assert_eq!((mapping.as_str(), target_schema.as_str()), ("M", "T"));
                assert_eq!(source_db.label_watermark(), 8);
                assert_eq!(source_db.relation("Person"), sample_db().relation("Person"));
                assert_eq!(source_db.relation("Wide"), wide_db().relation("Wide"));
            }
            other => panic!("wrong request: {other:?}"),
        }
        let mut rewritten = Vec::new();
        write_frame(&mut rewritten, &encode_request(9, 250, 0xDEAD_BEEF, &req)).unwrap();
        assert_eq!(rewritten, FRAME);
    }

    #[test]
    fn responses_round_trip() {
        let ok = encode_ok(
            4,
            &OkBody::Exchange { db: sample_db(), stats: WireStats { fired: 3, rounds: 1, nulls: 2 } },
        );
        let (id, body) = decode_response(ok).unwrap();
        assert_eq!(id, 4);
        match body.unwrap() {
            OkBody::Exchange { stats, .. } => {
                assert_eq!(stats, WireStats { fired: 3, rounds: 1, nulls: 2 });
            }
            other => panic!("wrong body: {other:?}"),
        }

        let err = encode_err(5, ERR_OVERLOADED, "shed");
        let (id, body) = decode_response(err).unwrap();
        assert_eq!(id, 5);
        assert_eq!(body.unwrap_err(), (ERR_OVERLOADED, "shed".to_string()));
    }
}
