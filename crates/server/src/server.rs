//! The threaded wire server: accept loop, per-session reader threads,
//! a bounded worker pool, admission control, and graceful drain.
//!
//! Robustness invariants (the point of this module, tested in
//! `tests/server.rs` at the workspace root):
//!
//! * **Everything is bounded.** Sessions are capped ([`ServerConfig::max_sessions`],
//!   over-cap connects get a typed `Overloaded` frame), the request
//!   queue is capped ([`ServerConfig::queue_depth`], full pushes get
//!   `QueueFull`), and frame payloads are capped
//!   ([`ServerConfig::max_frame_len`]) before any allocation.
//! * **Shed before decode.** When inflight requests cross
//!   [`ServerConfig::high_water`] the server enters shedding and
//!   rejects from the 22-byte prelude alone — no CRC, no body decode —
//!   until inflight falls back to [`ServerConfig::low_water`]
//!   (hysteresis, so admission does not flap at the boundary).
//! * **Deadlines are enforced in the engine.** Every admitted request
//!   runs under an [`ExecBudget`] carrying a hard deadline
//!   (client-requested, clamped to [`ServerConfig::max_deadline`]);
//!   the governor surfaces `ExecError::DeadlineExceeded` mid-chase at
//!   its safepoints, not just at request boundaries.
//! * **Sessions meter collectively.** Each session owns a
//!   [`SharedMeter`]; request governors attach to it
//!   ([`Governor::attach_shared`]) so [`ServerConfig::session_budget`]
//!   caps a tenant's *total* work across requests.
//! * **Client faults never leak.** Torn frames, garbage bytes, slow
//!   writers (per-IO timeouts) and mid-request disconnects release the
//!   session slot and return the inflight gauge to zero; workers never
//!   panic on hostile input (typed errors all the way down, plus a
//!   `catch_unwind` backstop).
//! * **Shutdown drains.** [`ServerHandle::shutdown`] refuses new work
//!   with typed `ShuttingDown` frames, drains the queue and inflight
//!   requests, then checkpoints a durable repository so restart
//!   recovers from the snapshot.

use crate::flight::{FlightRecorder, Outcome, RequestSummary};
use crate::protocol::{
    self, encode_err, encode_ok, parse_head, read_frame, write_frame, HealthReport, OkBody,
    PreludeError, RawFrame, Request, RequestHead, WireStats, ERR_BAD_CRC, ERR_BAD_MAGIC,
    ERR_BAD_VERSION, ERR_DEADLINE_EXCEEDED, ERR_FRAME_TOO_LARGE, ERR_OVERLOADED,
    ERR_QUEUE_FULL, ERR_SCRIPT, ERR_SHUTTING_DOWN,
};
use mm_engine::{run_script, Engine, EngineError};
use mm_guard::{ExecBudget, ExecError, Governor, SharedMeter};
use mm_instance::Database;
use mm_telemetry::{clock, Field, Hist, ServerCounter, ServerOp, Span, Telemetry};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads and the accept loop wake to re-check
/// shutdown and session liveness.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Tuning knobs. The defaults are sized for tests and small
/// deployments; every limit exists so no resource is unbounded.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Concurrent session cap; further connects are refused with a
    /// typed `Overloaded` frame.
    pub max_sessions: usize,
    /// Executor queue capacity; full pushes are refused with `QueueFull`.
    pub queue_depth: usize,
    /// Inflight count at which admission starts shedding.
    pub high_water: usize,
    /// Inflight count at which shedding stops (must be ≤ `high_water`).
    pub low_water: usize,
    /// Frame payload cap, enforced before allocation.
    pub max_frame_len: u32,
    /// Per-IO timeout for socket reads/writes once a frame has started
    /// (slow-writer defense).
    pub io_timeout: Duration,
    /// Deadline applied when a request asks for none (`deadline_ms` 0).
    pub default_deadline: Duration,
    /// Upper clamp on client-requested deadlines.
    pub max_deadline: Duration,
    /// Budget caps shared by all requests of one session (metered
    /// through the session's [`SharedMeter`]).
    pub session_budget: ExecBudget,
    /// How long [`ServerHandle::shutdown`] waits for inflight work.
    pub drain_timeout: Duration,
    /// Service time past which a finished request keeps a full
    /// slow-log entry (span tree + EXPLAIN) in the flight recorder.
    pub slow_threshold: Duration,
    /// Flight-recorder recent ring capacity (per-request summaries).
    pub flight_recent: usize,
    /// Slow-query log capacity (full entries).
    pub flight_slow: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_sessions: 32,
            queue_depth: 64,
            high_water: 32,
            low_water: 16,
            max_frame_len: protocol::DEFAULT_MAX_FRAME_LEN,
            io_timeout: Duration::from_secs(2),
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(60),
            session_budget: ExecBudget::unbounded(),
            drain_timeout: Duration::from_secs(5),
            slow_threshold: Duration::from_millis(250),
            flight_recent: 256,
            flight_slow: 64,
        }
    }
}

/// Poison-proof lock: a panicking holder must not wedge the server, so
/// a poisoned mutex yields its inner guard (the protected state is a
/// queue/stream, valid under any interleaving of completed writes).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Bounded executor queue.
// ---------------------------------------------------------------------

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct JobQueue {
    inner: Mutex<QueueInner>,
    cond: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner { jobs: VecDeque::new(), closed: false }),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// Non-blocking push; hands the job back when the queue is full or
    /// closed (the caller turns that into a typed rejection).
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut inner = lock(&self.inner);
        if inner.closed || inner.jobs.len() >= self.capacity {
            return Err(job);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocking pop. Returns `None` only when the queue is closed *and*
    /// empty, so a closing server still drains queued work.
    fn pop(&self) -> Option<Job> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .cond
                .wait_timeout(inner, POLL_INTERVAL)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    fn close(&self) {
        lock(&self.inner).closed = true;
        self.cond.notify_all();
    }

    fn len(&self) -> usize {
        lock(&self.inner).jobs.len()
    }
}

// ---------------------------------------------------------------------
// Sessions and jobs.
// ---------------------------------------------------------------------

/// Per-connection state shared between the session reader thread and
/// the workers answering its requests.
struct Session {
    /// Response writes serialize through this lock so concurrent
    /// workers (pipelined requests) cannot interleave frames.
    writer: Mutex<TcpStream>,
    /// The session-wide consumption pool request governors attach to.
    meter: Arc<SharedMeter>,
    /// Cleared on any write failure or client EOF; the reader thread
    /// exits on the next poll.
    alive: AtomicBool,
    /// Requests admitted on this session and not yet answered. An EOF
    /// with `pending > 0` is a mid-request disconnect, not a clean
    /// close — the distinction feeds the `server.disconnects` counter.
    pending: AtomicUsize,
}

impl Session {
    /// Write one response frame; on failure mark the session dead and
    /// count a disconnect (exactly once, on the transition).
    fn send(&self, shared: &Shared, payload: &[u8]) -> bool {
        let mut stream = lock(&self.writer);
        let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
        match write_frame(&mut *stream, payload) {
            Ok(()) => true,
            Err(_) => {
                drop(stream);
                if self.alive.swap(false, Ordering::AcqRel) {
                    shared.tel.count_server(ServerCounter::Disconnects, 1);
                }
                false
            }
        }
    }
}

/// Decrements the inflight gauge (and the owning session's pending
/// count) when dropped — on the response path, on queue teardown, and
/// on worker panic alike, so neither gauge can leak whatever happens
/// to the request.
struct InflightGuard {
    shared: Arc<Shared>,
    session: Arc<Session>,
}

impl InflightGuard {
    fn new(shared: &Arc<Shared>, session: &Arc<Session>) -> Self {
        shared.inflight.fetch_add(1, Ordering::AcqRel);
        session.pending.fetch_add(1, Ordering::AcqRel);
        InflightGuard { shared: Arc::clone(shared), session: Arc::clone(session) }
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
        self.session.pending.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One admitted request, queued for a worker. Carries the raw frame:
/// CRC verification and body decode happen on the worker, after
/// admission control has already had its chance to shed.
struct Job {
    session: Arc<Session>,
    req_id: u64,
    op: u8,
    /// Client trace id from the prelude (0 = untraced).
    trace_id: u64,
    frame: RawFrame,
    deadline: Instant,
    /// When admission queued the job — the worker's pop time minus this
    /// is the queue-wait the latency histograms report.
    enqueued: Instant,
    _inflight: InflightGuard,
}

// ---------------------------------------------------------------------
// Shared server state.
// ---------------------------------------------------------------------

struct Shared {
    engine: Engine,
    cfg: ServerConfig,
    tel: Telemetry,
    queue: JobQueue,
    /// Requests admitted but not yet answered.
    inflight: AtomicUsize,
    /// Admission hysteresis state (high/low-water).
    shedding: AtomicBool,
    /// Set by [`ServerHandle::shutdown`]: refuse new work, drain.
    draining: AtomicBool,
    /// Set after drain: session/accept threads exit.
    stopped: AtomicBool,
    /// Live session count (the slot gauge).
    sessions: AtomicUsize,
    /// Per-request summaries and the slow-query log (DESIGN.md §15).
    flight: FlightRecorder,
}

/// The server: start with [`Server::start`], stop with
/// [`ServerHandle::shutdown`].
pub struct Server;

impl Server {
    /// Bind, spawn the accept loop and worker pool, and return a handle.
    /// The engine's telemetry handle (if any) receives all `server.*`
    /// counters, spans, and shed events.
    pub fn start(engine: Engine, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let tel = engine.telemetry().clone();
        let workers = cfg.workers.max(1);
        let flight = FlightRecorder::new(
            cfg.flight_recent,
            cfg.flight_slow,
            cfg.slow_threshold.as_micros().min(u128::from(u64::MAX)) as u64,
        );
        let shared = Arc::new(Shared {
            engine,
            queue: JobQueue::new(cfg.queue_depth),
            cfg,
            tel,
            inflight: AtomicUsize::new(0),
            shedding: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            sessions: AtomicUsize::new(0),
            flight,
        });
        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            worker_handles.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
        Ok(ServerHandle { shared, addr, accept: Some(accept), workers: worker_handles })
    }
}

/// Handle to a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests admitted but not yet answered.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Acquire)
    }

    /// Live sessions holding a slot.
    pub fn active_sessions(&self) -> usize {
        self.shared.sessions.load(Ordering::Acquire)
    }

    /// The telemetry handle the server meters into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tel
    }

    /// Graceful shutdown: refuse new requests with `ShuttingDown`,
    /// drain queued and inflight work (bounded by
    /// [`ServerConfig::drain_timeout`]), close sessions, join all
    /// threads, and checkpoint a durable repository so a restart
    /// recovers from the snapshot instead of replaying the WAL.
    pub fn shutdown(mut self) -> Result<(), EngineError> {
        let shared = &self.shared;
        shared.draining.store(true, Ordering::Release);
        let drain_until = Instant::now() + shared.cfg.drain_timeout;
        while (shared.inflight.load(Ordering::Acquire) > 0 || shared.queue.len() > 0)
            && Instant::now() < drain_until
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        shared.queue.close();
        shared.stopped.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let session_wait = Instant::now() + shared.cfg.drain_timeout;
        while shared.sessions.load(Ordering::Acquire) > 0 && Instant::now() < session_wait {
            std::thread::sleep(Duration::from_millis(2));
        }
        shared.engine.checkpoint()
    }
}

// ---------------------------------------------------------------------
// Accept loop.
// ---------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.stopped.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
                if shared.draining.load(Ordering::Acquire) {
                    refuse(stream, ERR_SHUTTING_DOWN, "server is draining");
                    continue;
                }
                if shared.sessions.load(Ordering::Acquire) >= shared.cfg.max_sessions {
                    shared.tel.count_server(ServerCounter::Rejected, 1);
                    refuse(stream, ERR_OVERLOADED, "session table full");
                    continue;
                }
                shared.sessions.fetch_add(1, Ordering::AcqRel);
                shared.tel.count_server(ServerCounter::Accepted, 1);
                let shared = Arc::clone(shared);
                // Detached on purpose: liveness is tracked through the
                // `sessions` gauge, which shutdown waits on.
                std::thread::spawn(move || {
                    session_loop(&shared, stream);
                    shared.sessions.fetch_sub(1, Ordering::AcqRel);
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_INTERVAL),
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Best-effort typed rejection to a connection that never got a
/// session slot.
fn refuse(mut stream: TcpStream, code: u32, message: &str) {
    let _ = write_frame(&mut stream, &encode_err(0, code, message));
}

// ---------------------------------------------------------------------
// Session reader loop.
// ---------------------------------------------------------------------

/// Read frames off one connection, apply admission control, and queue
/// accepted requests. Never panics on hostile bytes: every failure
/// path either answers with a typed error (framing intact) or closes
/// the connection (stream desynchronized), always releasing the slot.
fn session_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let session = Arc::new(Session {
        writer: Mutex::new(stream),
        meter: Arc::new(SharedMeter::new()),
        alive: AtomicBool::new(true),
        pending: AtomicUsize::new(0),
    });
    loop {
        if shared.stopped.load(Ordering::Acquire) || !session.alive.load(Ordering::Acquire) {
            break;
        }
        // Idle poll: wait for the first byte under POLL_INTERVAL so
        // shutdown and dead-session checks stay responsive, then switch
        // to the per-IO timeout once a frame has started (slow-writer
        // defense: a peer that starts a frame must keep bytes coming).
        let _ = reader.set_read_timeout(Some(POLL_INTERVAL));
        let mut probe = [0u8; 1];
        match reader.peek(&mut probe) {
            Ok(0) => {
                // EOF with work still inflight is a mid-request
                // disconnect, not a clean close.
                if session.pending.load(Ordering::Acquire) > 0 {
                    disconnect(shared, &session);
                }
                break;
            }
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => {
                disconnect(shared, &session);
                break;
            }
        }
        let _ = reader.set_read_timeout(Some(shared.cfg.io_timeout));
        let frame = match read_frame(&mut reader, shared.cfg.max_frame_len) {
            Ok(frame) => frame,
            Err(protocol::FrameError::BadMagic(m)) => {
                // Desynchronized stream: answer (best effort) and close.
                session.send(shared, &encode_err(0, ERR_BAD_MAGIC, &format!("bad magic {m:#010x}")));
                break;
            }
            Err(protocol::FrameError::TooLarge { len, max }) => {
                session.send(
                    shared,
                    &encode_err(0, ERR_FRAME_TOO_LARGE, &format!("frame {len} exceeds cap {max}")),
                );
                break;
            }
            Err(protocol::FrameError::Io(_)) => {
                // Torn frame, slow-writer timeout, or reset mid-frame.
                disconnect(shared, &session);
                break;
            }
        };
        let head = match parse_head(&frame.payload) {
            Ok(head) => head,
            Err(PreludeError::Runt) => {
                // Runt payload; framing is intact, so the session survives.
                session.send(shared, &encode_err(0, protocol::ERR_DECODE, "payload shorter than request prelude"));
                continue;
            }
            Err(PreludeError::Version { got, req_id }) => {
                // The req_id field sits at a fixed offset in every
                // version, so even a version mismatch gets a typed reply
                // under the client's own id and the session survives.
                session.send(
                    shared,
                    &encode_err(
                        req_id,
                        ERR_BAD_VERSION,
                        &format!(
                            "unsupported protocol version {got} (this server speaks {})",
                            protocol::CURRENT_VERSION as u8
                        ),
                    ),
                );
                continue;
            }
        };
        admit(shared, &session, head, frame);
    }
    session.alive.store(false, Ordering::Release);
}

fn disconnect(shared: &Shared, session: &Session) {
    if session.alive.swap(false, Ordering::AcqRel) {
        shared.tel.count_server(ServerCounter::Disconnects, 1);
    }
}

/// Admission control: runs on the session thread against the 22-byte
/// prelude only. Order matters — the introspection bypass first (the
/// observability plane must answer precisely when the data plane is
/// refusing work), then drain refusal, the shedding hysteresis, and
/// the bounded queue. Every rejection leaves a flight-recorder summary
/// so shed storms are visible after the fact.
fn admit(shared: &Arc<Shared>, session: &Arc<Session>, head: RequestHead, frame: RawFrame) {
    if protocol::is_introspection_op(head.op) {
        answer_introspection(shared, session, &head, &frame);
        return;
    }
    if shared.draining.load(Ordering::Acquire) {
        shared.tel.count_server(ServerCounter::ShedShutdown, 1);
        reject(shared, session, &head, ERR_SHUTTING_DOWN, "server is draining");
        return;
    }
    let inflight = shared.inflight.load(Ordering::Acquire);
    if inflight >= shared.cfg.high_water {
        shared.shedding.store(true, Ordering::Release);
    } else if inflight <= shared.cfg.low_water {
        shared.shedding.store(false, Ordering::Release);
    }
    if shared.shedding.load(Ordering::Acquire) {
        // Counter and event stay 1:1 — the parity tests key on this.
        shared.tel.count_server(ServerCounter::Shed, 1);
        shared.tel.event(
            "server.shed",
            head.req_id.to_string(),
            vec![Field { key: "inflight", value: (inflight as u64).into() }],
        );
        reject(shared, session, &head, ERR_OVERLOADED, "overloaded: shedding load");
        return;
    }
    let requested = if head.deadline_ms == 0 {
        shared.cfg.default_deadline
    } else {
        Duration::from_millis(u64::from(head.deadline_ms))
    };
    let deadline = mm_guard::deadline_in(requested.min(shared.cfg.max_deadline));
    let job = Job {
        session: Arc::clone(session),
        req_id: head.req_id,
        op: head.op,
        trace_id: head.trace_id,
        frame,
        deadline,
        enqueued: clock::now(),
        _inflight: InflightGuard::new(shared, session),
    };
    if let Err(job) = shared.queue.try_push(job) {
        drop(job); // releases the inflight slot
        shared.tel.count_server(ServerCounter::QueueFull, 1);
        reject(shared, session, &head, ERR_QUEUE_FULL, "request queue full");
    }
}

/// Send a typed admission rejection and leave its trail in the flight
/// recorder (latency 0 — rejections never start service; rejected
/// outcomes always qualify for the slow log, so the postmortem of a
/// shed storm is one `SlowLog` op away).
fn reject(shared: &Shared, session: &Session, head: &RequestHead, code: u32, message: &str) {
    session.send(shared, &encode_err(head.req_id, code, message));
    shared.flight.record(
        RequestSummary {
            seq: 0,
            op: op_name(head.op),
            req_id: head.req_id,
            trace_id: head.trace_id,
            latency_us: 0,
            queue_wait_us: 0,
            steps: 0,
            rows: 0,
            code,
            degraded: false,
            outcome: Outcome::Rejected,
        },
        None,
    );
}

/// The metrics/flight identity of a wire op byte; `None` for bytes this
/// build does not know (they answer `ERR_UNKNOWN_OP` downstream).
fn op_kind(op: u8) -> Option<ServerOp> {
    use protocol::Op;
    Some(match op {
        x if x == Op::Ping as u8 => ServerOp::Ping,
        x if x == Op::Exchange as u8 => ServerOp::Exchange,
        x if x == Op::ExchangeBatch as u8 => ServerOp::ExchangeBatch,
        x if x == Op::Mediate as u8 => ServerOp::Mediate,
        x if x == Op::ExplainExchange as u8 => ServerOp::ExplainExchange,
        x if x == Op::Script as u8 => ServerOp::Script,
        x if x == Op::PutInstance as u8 => ServerOp::PutInstance,
        x if x == Op::InsertBatch as u8 => ServerOp::InsertBatch,
        x if x == Op::Subscribe as u8 => ServerOp::Subscribe,
        x if x == Op::Poll as u8 => ServerOp::Poll,
        x if x == Op::Ack as u8 => ServerOp::Ack,
        x if x == Op::Resume as u8 => ServerOp::Resume,
        x if x == Op::Unsubscribe as u8 => ServerOp::Unsubscribe,
        x if x == Op::Metrics as u8 => ServerOp::Metrics,
        x if x == Op::Health as u8 => ServerOp::Health,
        x if x == Op::SlowLog as u8 => ServerOp::SlowLog,
        x if x == Op::TraceGet as u8 => ServerOp::TraceGet,
        _ => return None,
    })
}

/// Stable flight-recorder name for an op byte.
fn op_name(op: u8) -> &'static str {
    op_kind(op).map_or("unknown", ServerOp::name)
}

/// Answer a read-only introspection request inline on the session
/// thread, bypassing admission control entirely: no queue slot, no
/// inflight charge, no engine work — just point-in-time reads of
/// state the server already holds. That is what keeps metrics, health,
/// and the slow log reachable while the server sheds load or drains,
/// which is exactly when an operator needs them.
fn answer_introspection(
    shared: &Arc<Shared>,
    session: &Arc<Session>,
    head: &RequestHead,
    frame: &RawFrame,
) {
    let started = clock::now();
    let payload = if !frame.crc_ok() {
        encode_err(head.req_id, ERR_BAD_CRC, "payload checksum mismatch")
    } else {
        let body = frame.payload.slice(protocol::PRELUDE_LEN..frame.payload.len());
        match protocol::decode_request(head.op, &mut mm_repository::codec::Reader::new(body)) {
            Err(fault) => encode_err(head.req_id, fault.code(), &fault.to_string()),
            Ok(request) => encode_ok(head.req_id, &introspect(shared, &request)),
        }
    };
    session.send(shared, &payload);
    // Introspection keeps its service-time histogram but stays out of
    // the flight ring and the Completed counter: the observer should
    // not scroll the observed data or pad the data-plane throughput.
    if let Some(op) = op_kind(head.op) {
        shared.tel.observe_op_service_us(op, clock::elapsed_us(started));
    }
}

/// Evaluate one introspection request against the server's own state.
fn introspect(shared: &Shared, request: &Request) -> OkBody {
    match request {
        Request::Metrics => {
            let entries = shared
                .tel
                .metrics()
                .map_or_else(Vec::new, |m| m.snapshot().values.into_iter().collect());
            OkBody::Metrics { entries }
        }
        Request::Health => OkBody::Health(health_report(shared)),
        Request::SlowLog { max } => {
            OkBody::SlowLog { lines: shared.flight.slow_lines(*max as usize) }
        }
        Request::TraceGet { trace_id } => {
            OkBody::Trace { lines: shared.flight.trace_lines(*trace_id) }
        }
        // decode_request is keyed on the op byte, and only the four
        // introspection ops reach this function.
        _ => OkBody::Done,
    }
}

/// A point-in-time health read: gauges from the server's own atomics,
/// lifetime counters from telemetry (0 when the server runs without).
fn health_report(shared: &Shared) -> HealthReport {
    let get = |c| shared.tel.metrics().map_or(0, |m| m.get_server(c));
    HealthReport {
        draining: shared.draining.load(Ordering::Acquire),
        shedding: shared.shedding.load(Ordering::Acquire),
        inflight: shared.inflight.load(Ordering::Acquire) as u64,
        queue_depth: shared.queue.len() as u64,
        queue_capacity: shared.cfg.queue_depth as u64,
        sessions: shared.sessions.load(Ordering::Acquire) as u64,
        completed: get(ServerCounter::Completed),
        shed: get(ServerCounter::Shed)
            + get(ServerCounter::QueueFull)
            + get(ServerCounter::ShedShutdown),
        events_dropped: shared.tel.events_dropped(),
        slow_entries: shared.flight.slow_len(),
    }
}

// ---------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        // The engine's contract is typed errors, never panics; the
        // catch_unwind is a backstop so one violated invariant cannot
        // take the worker (and with it the queue) down.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process(shared, &job);
        }));
        if result.is_err() {
            job.session.send(
                shared,
                &encode_err(job.req_id, protocol::ERR_INTERNAL, "internal: request panicked"),
            );
        }
    }
}

/// What a slow request needs for a post-hoc plan EXPLAIN: the mapping
/// name and source instance, *moved* (never cloned) out of
/// exchange-shaped requests after execution borrowed them. The plan
/// explain runs only for requests that actually keep a slow-log entry,
/// after the reply bytes are on the wire — the fast path pays nothing.
struct ExplainCtx {
    mapping: String,
    source_db: Database,
}

/// Did the success body record a degradation the flight recorder should
/// flag (mediator fallback, propagation resync)?
fn body_degraded(body: &OkBody) -> bool {
    match body {
        OkBody::Mediate { degraded, .. } => *degraded,
        OkBody::Notifications { notifications, .. } => notifications
            .iter()
            .any(|n| matches!(n, mm_propagate::Notification::Resync { .. })),
        _ => false,
    }
}

/// Execute one admitted request end to end: deadline check, CRC
/// verification, body decode, governed execution, response — then the
/// observability epilogue: latency histograms, the flight-recorder
/// summary, and (for requests that qualify) the captured span tree
/// plus a plan EXPLAIN.
fn process(shared: &Arc<Shared>, job: &Job) {
    let tel = &shared.tel;
    let queue_wait_us = clock::elapsed_us(job.enqueued);
    tel.observe_hist(Hist::ServerQueueWaitUs, queue_wait_us);
    // Stamp the client's trace id on every span/event this request
    // produces, and keep a bounded copy for the slow log. The scope is
    // inert for untraced requests (they still get latency histograms
    // and an EXPLAIN, just no span tree).
    let mut scope = tel.trace_scope(job.trace_id, true);
    let started = clock::now();
    let mut span = Span::enter(tel, "server.request", job.req_id.to_string());
    span.field("op", u64::from(job.op));
    let mut code = 0u32;
    let mut degraded = false;
    let mut steps = 0u64;
    let mut rows = 0u64;
    let mut explain_ctx: Option<ExplainCtx> = None;
    let payload = if clock::now() > job.deadline {
        tel.count_server(ServerCounter::TimedOut, 1);
        code = ERR_DEADLINE_EXCEEDED;
        encode_err(job.req_id, ERR_DEADLINE_EXCEEDED, "deadline exceeded before execution")
    } else if !job.frame.crc_ok() {
        code = ERR_BAD_CRC;
        encode_err(job.req_id, ERR_BAD_CRC, "payload checksum mismatch")
    } else {
        let body = job.frame.payload.slice(protocol::PRELUDE_LEN..job.frame.payload.len());
        match protocol::decode_request(job.op, &mut mm_repository::codec::Reader::new(body)) {
            Err(fault) => {
                code = fault.code();
                encode_err(job.req_id, code, &fault.to_string())
            }
            Ok(request) => {
                let budget =
                    shared.cfg.session_budget.clone().with_deadline_at(job.deadline);
                let mut gov = Governor::attach_shared(&budget, &job.session.meter);
                let (outcome, ctx) = execute(shared, request, &mut gov);
                explain_ctx = ctx;
                gov.publish();
                steps = gov.steps_consumed();
                rows = gov.rows_consumed();
                match outcome {
                    Ok(body) => {
                        degraded = body_degraded(&body);
                        encode_ok(job.req_id, &body)
                    }
                    Err((c, message)) => {
                        if c == ERR_DEADLINE_EXCEEDED {
                            tel.count_server(ServerCounter::TimedOut, 1);
                        }
                        code = c;
                        encode_err(job.req_id, c, &message)
                    }
                }
            }
        }
    };
    job.session.send(shared, &payload);
    tel.count_server(ServerCounter::Completed, 1);
    span.finish();
    let latency_us = clock::elapsed_us(started);
    tel.observe_hist(Hist::ServerServiceUs, latency_us);
    if let Some(op) = op_kind(job.op) {
        tel.observe_op_service_us(op, latency_us);
    }
    let summary = RequestSummary {
        seq: 0,
        op: op_name(job.op),
        req_id: job.req_id,
        trace_id: job.trace_id,
        latency_us,
        queue_wait_us,
        steps,
        rows,
        code,
        degraded,
        outcome: if code == 0 { Outcome::Ok } else { Outcome::Error },
    };
    // The span drain and plan EXPLAIN run only for requests that keep a
    // slow entry, after the reply is already on the wire.
    let detail = shared.flight.qualifies(&summary).then(|| {
        let events = scope.take_captured();
        let explain = explain_ctx
            .and_then(|ctx| shared.engine.plan_explain(&ctx.mapping, &ctx.source_db).ok());
        (events, explain)
    });
    shared.flight.record(summary, detail);
}

fn engine_err(e: EngineError) -> (u32, String) {
    (protocol::engine_error_code(&e), e.to_string())
}

/// Run the decoded request. Besides the outcome, exchange-shaped
/// requests hand back an [`ExplainCtx`] (their mapping and source
/// instance, moved out after the borrowing calls return) so the flight
/// recorder can attach a plan EXPLAIN to slow entries without cloning
/// anything on the fast path.
fn execute(
    shared: &Shared,
    request: Request,
    gov: &mut Governor,
) -> (Result<OkBody, (u32, String)>, Option<ExplainCtx>) {
    let engine = &shared.engine;
    match request {
        Request::Ping => {
            let r = gov
                .check_now()
                .map(|()| OkBody::Pong)
                .map_err(|e: ExecError| (protocol::exec_error_code(&e), e.to_string()));
            (r, None)
        }
        Request::Exchange { mapping, target_schema, source_db } => {
            let r = engine
                .exchange_governed(&mapping, &target_schema, &source_db, gov)
                .map(|(db, stats)| OkBody::Exchange { db, stats: WireStats::from(stats) })
                .map_err(engine_err);
            (r, Some(ExplainCtx { mapping, source_db }))
        }
        Request::ExchangeBatch { items } => {
            let slots = items
                .iter()
                .map(|(mapping, target, db)| {
                    engine
                        .exchange_governed(mapping, target, db, gov)
                        .map(|(db, stats)| (db, WireStats::from(stats)))
                        .map_err(engine_err)
                })
                .collect();
            // The batch's first slot stands in for the EXPLAIN — one
            // plan per entry would defeat the cheap-epilogue rule.
            let ctx = items
                .into_iter()
                .next()
                .map(|(mapping, _, source_db)| ExplainCtx { mapping, source_db });
            (Ok(OkBody::Batch { slots }), ctx)
        }
        Request::Mediate { base_schema, chain, query, base_db } => {
            let r = engine
                .mediate_governed(&base_schema, &chain, &query, &base_db, gov)
                .map(|result| OkBody::Mediate {
                    rows: result.rows,
                    chained: matches!(result.mode, mm_runtime::MediationMode::Chained),
                    degraded: result.degradation.is_some(),
                })
                .map_err(engine_err);
            (r, None)
        }
        Request::ExplainExchange { mapping, target_schema, source_db } => {
            // Metered like the exchange it explains: the request's
            // deadline and the session's budget bound the whole run.
            let r = engine
                .explain_exchange(&mapping, &target_schema, &source_db, gov)
                .map(|(db, stats, explain)| OkBody::Explain {
                    db,
                    stats: WireStats::from(stats),
                    text: explain.to_string(),
                })
                .map_err(engine_err);
            (r, Some(ExplainCtx { mapping, source_db }))
        }
        Request::Script { text } => {
            let r = run_script(engine, &text)
                .map(|outputs| OkBody::Script { outputs })
                .map_err(|e| (ERR_SCRIPT, e.to_string()));
            (r, None)
        }
        // Update propagation (DESIGN.md §14). Writes are amortized (one
        // WAL frame, one coalesced feed event per request); polls run
        // at the consumer's pace, including any resync recompute.
        Request::PutInstance { name, db } => {
            let r = engine
                .put_instance(&name, db)
                .map(|seq| OkBody::Committed { seq })
                .map_err(engine_err);
            (r, None)
        }
        Request::InsertBatch { instance, inserts } => {
            let r = engine
                .insert_batch(&instance, inserts)
                .map(|seq| OkBody::Committed { seq })
                .map_err(engine_err);
            (r, None)
        }
        Request::Subscribe { instance, views } => {
            let r = engine
                .subscribe(&instance, views)
                .map(|id| OkBody::Subscribed { id })
                .map_err(engine_err);
            (r, None)
        }
        Request::Poll { id, max } => {
            let r = engine
                .poll(id, max as usize)
                .map(|response| OkBody::Notifications {
                    notifications: response.notifications,
                    lagging: response.lagging,
                })
                .map_err(engine_err);
            (r, None)
        }
        Request::Ack { id, cursor } => {
            let r = engine.ack(id, cursor).map(|()| OkBody::Done).map_err(engine_err);
            (r, None)
        }
        Request::Resume { id, cursor } => {
            let r = engine.resume(id, cursor).map(|()| OkBody::Done).map_err(engine_err);
            (r, None)
        }
        Request::Unsubscribe { id } => {
            let r = engine.unsubscribe(id).map(|()| OkBody::Done).map_err(engine_err);
            (r, None)
        }
        // Introspection ops are answered inline at admission; a worker
        // never sees them.
        req @ (Request::Metrics
        | Request::Health
        | Request::SlowLog { .. }
        | Request::TraceGet { .. }) => (Ok(introspect(shared, &req)), None),
    }
}
