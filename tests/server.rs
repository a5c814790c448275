//! Fault-injection suite for the wire front-end (`mm-server`).
//!
//! Robustness claims proven here:
//! * overload returns typed shed frames while in-flight requests
//!   still complete, and the inflight gauge returns to zero;
//! * every byte-mutated / truncated / spliced frame and every
//!   mid-request disconnect leaves the server serving subsequent
//!   requests — no panic, no hang, no leaked session slot;
//! * deadlines and session budgets surface as stable wire codes;
//! * graceful shutdown drains inflight work and checkpoints durably
//!   (recoverable via `open_durable`);
//! * shed events and the `server.shed` counter stay 1:1.

use mm_engine::prelude::*;
use mm_server::protocol::{
    self, encode_request, read_frame, write_frame, Request, ERR_BAD_CRC, ERR_BUDGET_EXHAUSTED,
    ERR_DEADLINE_EXCEEDED, ERR_OVERLOADED, ERR_QUEUE_FULL, ERR_SHUTTING_DOWN,
};
use mm_server::{Client, Server, ServerConfig};
use mm_workload::{faults, tgds};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// An engine preloaded with a copy mapping `copy: Src -> Dst` plus the
/// quadratic-join mapping `quad: QSrc -> QTgt` for slow requests.
fn test_engine(config: EngineConfig) -> Engine {
    let engine = Engine::with_config(config).expect("engine");
    engine.add_schema(tgds::binary_schema("Src", "A", 2)).expect("src");
    engine.add_schema(tgds::binary_schema("Dst", "B", 2)).expect("dst");
    let mut copy = Mapping::new("Src", "Dst");
    for t in tgds::copy_tgds("A", "B", 2) {
        copy.push_tgd(t);
    }
    engine.add_mapping("copy", copy).expect("copy mapping");

    let (qsrc, qtgt, _, qtgds) = faults::quadratic_join(4);
    engine.add_schema(qsrc).expect("qsrc");
    engine.add_schema(qtgt).expect("qtgt");
    let mut quad = Mapping::new("QSrc", "QTgt");
    for t in qtgds {
        quad.push_tgd(t);
    }
    engine.add_mapping("quad", quad).expect("quad mapping");
    engine
}

fn small_source() -> Database {
    let mut db = Database::new("S");
    let mut rel = Relation::new(RelSchema::of(&[("a", DataType::Int), ("b", DataType::Int)]));
    rel.insert(Tuple::new(vec![Value::Int(1), Value::Int(2)]));
    rel.insert(Tuple::new(vec![Value::Int(3), Value::Int(4)]));
    db.insert_relation("A0", rel.clone());
    db.insert_relation("A1", rel);
    db
}

/// A config tuned for fast tests: short IO timeouts, quick drains.
fn fast_config() -> ServerConfig {
    ServerConfig {
        io_timeout: Duration::from_millis(200),
        drain_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

/// Spin until `cond` holds or `timeout` passes; panics on timeout.
fn wait_for(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let until = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < until, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------
// Happy paths: the wire agrees with the embedded engine.
// ---------------------------------------------------------------------

#[test]
fn exchange_explain_and_script_round_trip() {
    let engine = test_engine(EngineConfig::default());
    let oracle = test_engine(EngineConfig::default());
    let handle = Server::start(engine, fast_config()).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.ping().expect("ping");

    let src = small_source();
    let (wire_db, wire_stats) = client.exchange("copy", "Dst", &src).expect("wire exchange");
    let (local_db, local_stats) = oracle.exchange("copy", "Dst", &src).expect("local exchange");
    assert_eq!(wire_stats.fired, local_stats.fired as u64);
    for (name, rel) in local_db.relations() {
        assert!(
            wire_db.relation(name).expect("relation").set_eq(rel),
            "wire and local exchange disagree on {name}"
        );
    }

    let (_, _, explain) = client.explain_exchange("copy", "Dst", &src).expect("explain");
    assert!(explain.contains("tgd"), "explain report looks empty: {explain:?}");
    // the report describes the run it explains: a wire exchange is
    // single-threaded under the request's governor
    assert!(explain.contains("threads=1"), "{explain}");

    let outputs = client
        .script("schema Extra {\n  table E0(a: int, b: int)\n}\nshow schema Extra")
        .expect("script");
    assert!(!outputs.is_empty());

    // Batch: two copies answer like two sequential exchanges.
    let items = vec![
        ("copy".to_string(), "Dst".to_string(), src.clone()),
        ("copy".to_string(), "Dst".to_string(), src.clone()),
    ];
    let slots = client.exchange_batch(&items).expect("batch");
    assert_eq!(slots.len(), 2);
    for slot in slots {
        let (db, _) = slot.expect("batch slot");
        assert!(db.relation("B0").expect("B0").set_eq(local_db.relation("B0").expect("B0")));
    }

    handle.shutdown().expect("shutdown");
}

#[test]
fn mediation_round_trips_over_the_wire() {
    // The runtime-services scenario: an ER model compiled onto tables,
    // queried back through the generated query views.
    let er = SchemaBuilder::new("ER")
        .entity("Party", &[("Id", DataType::Int), ("Name", DataType::Text)])
        .entity_sub("Customer", "Party", &[("Tier", DataType::Text)])
        .key("Party", &["Id"])
        .build()
        .expect("er schema");
    let gen = er_to_relational(&er, InheritanceStrategy::Vertical).expect("modelgen");
    let frags = parse_fragments(&er, &gen.schema, &gen.mapping).expect("fragments");
    let qv = query_views(&er, &gen.schema, &frags).expect("query views");
    let uv = update_views(&er, &gen.schema, &frags).expect("update views");
    let mut entities = Database::empty_of(&er);
    entities.insert_entity("Party", "Party", vec![Value::Int(1), Value::text("acme")]);
    entities.insert_entity(
        "Customer",
        "Customer",
        vec![Value::Int(2), Value::text("globex"), Value::text("gold")],
    );
    let tables = materialize_views(&uv, &er, &entities).expect("tables");

    let engine = Engine::new();
    let rel_name = gen.schema.name.clone();
    engine.add_schema(gen.schema.clone()).expect("rel schema");
    engine.add_viewset("qv", qv.clone()).expect("viewset");

    let handle = Server::start(engine, fast_config()).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let q = Expr::base("Customer")
        .select(Predicate::col_eq_lit("Tier", "gold"))
        .project(&["Name"]);
    let reply = client
        .mediate(&rel_name, &["qv".to_string()], &q, &tables)
        .expect("wire mediation");

    let mediator = Mediator::new(&gen.schema, vec![&qv]);
    let local = eval(&mediator.unfold(&q), &gen.schema, &tables).expect("local mediation");
    assert!(reply.rows.set_eq(&local));
    assert_eq!(reply.rows.len(), 1);
    handle.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------
// Overload: typed sheds, bounded queues, inflight completion.
// ---------------------------------------------------------------------

/// Raw single-stream driver: pipelines requests without waiting.
struct RawConn {
    stream: TcpStream,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        RawConn { stream }
    }

    fn send(&mut self, req_id: u64, deadline_ms: u32, req: &Request) {
        let payload = encode_request(req_id, deadline_ms, 0, req);
        write_frame(&mut self.stream, &payload).expect("send frame");
    }

    /// Read one response frame: (req_id, Ok(())|Err(code)).
    fn read_reply(&mut self) -> (u64, Result<(), u32>) {
        let frame =
            read_frame(&mut self.stream, protocol::DEFAULT_MAX_FRAME_LEN).expect("read frame");
        assert!(frame.crc_ok(), "server sent a corrupt frame");
        let (id, body) = protocol::decode_response(frame.payload).expect("decode response");
        (id, body.map(|_| ()).map_err(|(code, _)| code))
    }
}

fn slow_exchange_request(rows: usize) -> Request {
    let (_, _, db, _) = faults::quadratic_join(rows);
    Request::Exchange { mapping: "quad".into(), target_schema: "QTgt".into(), source_db: db }
}

#[test]
fn overload_sheds_typed_frames_while_inflight_completes() {
    let collector = RingCollector::with_capacity(4096);
    let tel = Telemetry::new(collector.clone());
    let engine = test_engine(EngineConfig { telemetry: tel.clone(), ..Default::default() });
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 4,
        high_water: 2,
        low_water: 0,
        ..fast_config()
    };
    let handle = Server::start(engine, cfg).expect("start");
    let mut conn = RawConn::connect(handle.addr());

    // Two slow requests saturate the single worker (one executing, one
    // queued); the third crosses the high-water mark and must be shed
    // from the prelude without touching the engine.
    conn.send(1, 0, &slow_exchange_request(400));
    conn.send(2, 0, &slow_exchange_request(400));
    conn.send(3, 0, &Request::Ping);

    let mut outcomes = std::collections::HashMap::new();
    for _ in 0..3 {
        let (id, outcome) = conn.read_reply();
        outcomes.insert(id, outcome);
    }
    assert_eq!(outcomes[&3], Err(ERR_OVERLOADED), "request 3 must be shed");
    assert_eq!(outcomes[&1], Ok(()), "inflight request 1 must still complete");
    assert_eq!(outcomes[&2], Ok(()), "queued request 2 must still complete");

    wait_for("inflight to drain", Duration::from_secs(5), || handle.inflight() == 0);

    // Shedding clears below the low-water mark: the next request runs.
    conn.send(4, 0, &Request::Ping);
    assert_eq!(conn.read_reply(), (4, Ok(())));

    // Shed events mirror the counter 1:1 (the degradation parity rule).
    let snap = tel.metrics().expect("metrics").snapshot();
    let shed_events =
        collector.events().iter().filter(|e| e.op == "server.shed").count() as u64;
    assert!(snap.value("server.shed") >= 1);
    assert_eq!(snap.value("server.shed"), shed_events, "shed counter/event parity");
    assert_eq!(snap.value("server.completed"), 3, "requests 1, 2, 4 reached workers");

    handle.shutdown().expect("shutdown");
}

#[test]
fn full_queue_rejects_with_queue_full() {
    let engine = test_engine(EngineConfig::default());
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 1,
        // high-water out of reach: this test isolates the queue bound
        high_water: 1000,
        low_water: 0,
        ..fast_config()
    };
    let handle = Server::start(engine, cfg).expect("start");
    let mut conn = RawConn::connect(handle.addr());

    conn.send(1, 0, &slow_exchange_request(400)); // worker
    conn.send(2, 0, &slow_exchange_request(400)); // queue slot
    conn.send(3, 0, &slow_exchange_request(400)); // queue full
    conn.send(4, 0, &Request::Ping); // also queue full

    let mut outcomes = std::collections::HashMap::new();
    for _ in 0..4 {
        let (id, outcome) = conn.read_reply();
        outcomes.insert(id, outcome);
    }
    let rejected = [3u64, 4]
        .iter()
        .filter(|id| outcomes[id] == Err(ERR_QUEUE_FULL))
        .count();
    assert!(rejected >= 1, "at least one request must hit the queue bound: {outcomes:?}");
    assert_eq!(outcomes[&1], Ok(()));

    handle.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------
// Introspection under duress (DESIGN.md §15): the observability plane
// answers inline, bypassing admission control, precisely when the data
// plane is refusing work.
// ---------------------------------------------------------------------

#[test]
fn introspection_answers_while_shedding_and_draining() {
    let tel = Telemetry::new(RingCollector::with_capacity(4096));
    let engine = test_engine(EngineConfig { telemetry: tel, ..Default::default() });
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 4,
        high_water: 2,
        low_water: 0,
        // Threshold 0: every finished request keeps a slow-log entry.
        slow_threshold: Duration::from_micros(0),
        ..fast_config()
    };
    let handle = Server::start(engine, cfg).expect("start");
    let mut conn = RawConn::connect(handle.addr());

    // Saturate the single worker: one slow request executing, one
    // queued — inflight sits at the high-water mark and the shed latch
    // closes the data plane for everything after. Sized so the window
    // stays open across all the probes below even on the compact data
    // plane (which runs this exchange several times faster).
    conn.send(1, 0, &slow_exchange_request(2400));
    conn.send(2, 0, &slow_exchange_request(2400));
    wait_for("saturation", Duration::from_secs(10), || handle.inflight() >= 2);

    // A second session: data-plane traffic is shed with code 50...
    let mut probe = Client::connect(handle.addr()).expect("probe");
    let err = probe.ping().expect_err("ping must be shed while saturated");
    assert_eq!(err.code(), Some(ERR_OVERLOADED));
    let shed_trace = probe.last_trace_id();

    // ...while all four introspection ops on the same shedding server
    // answer inline, with state that reflects the overload.
    let health = probe.health().expect("health must answer under overload");
    assert!(health.shedding, "health must report the shed latch");
    assert!(health.inflight >= 2);
    assert!(health.shed >= 1, "the shed ping must be counted");
    assert_eq!(health.queue_capacity, 4);
    let metrics = probe.metrics().expect("metrics must answer under overload");
    let read = |key: &str| {
        metrics.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v)
    };
    assert!(read("server.shed") >= 1, "snapshot must carry the shed counter");
    let slow = probe.slow_log(0).expect("slow log must answer under overload");
    assert!(
        slow.iter().any(|l| l.contains("\"code\":50") && l.contains("\"outcome\":\"rejected\"")),
        "the shed ping must be on the slow log: {slow:?}"
    );
    let trace = probe.trace(shed_trace).expect("trace must answer under overload");
    assert!(
        trace.iter().any(|l| l.contains("\"outcome\":\"rejected\"")),
        "the shed ping's trace id must resolve to its rejection: {trace:?}"
    );

    // Graceful shutdown on another thread: drain starts immediately,
    // and the saturating requests keep it open while we probe.
    let stopper = std::thread::spawn(move || handle.shutdown());
    wait_for("drain visible over the wire", Duration::from_secs(10), || {
        probe.health().map(|h| h.draining).unwrap_or(false)
    });
    let err = probe.ping().expect_err("data plane must refuse during drain");
    assert_eq!(err.code(), Some(ERR_SHUTTING_DOWN));
    let health = probe.health().expect("health must answer during drain");
    assert!(health.draining);
    let slow = probe.slow_log(0).expect("slow log must answer during drain");
    assert!(
        slow.iter().any(|l| l.contains("\"code\":52")),
        "the drain rejection must be on the slow log: {slow:?}"
    );

    // Drain means drain: the saturating requests still complete.
    let mut outcomes = std::collections::HashMap::new();
    for _ in 0..2 {
        let (id, outcome) = conn.read_reply();
        outcomes.insert(id, outcome);
    }
    assert_eq!(outcomes[&1], Ok(()), "inflight request must finish during drain");
    assert_eq!(outcomes[&2], Ok(()), "queued request must finish during drain");
    stopper.join().expect("stopper thread").expect("shutdown");
}

// ---------------------------------------------------------------------
// Hostile bytes and client faults.
// ---------------------------------------------------------------------

#[test]
fn payload_corruption_yields_typed_error_and_live_session() {
    let engine = test_engine(EngineConfig::default());
    let handle = Server::start(engine, fast_config()).expect("start");
    let mut conn = RawConn::connect(handle.addr());

    let payload = encode_request(7, 0, 0, &slow_exchange_request(8));
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).expect("frame");

    // Flip one bit in the payload region (frame header intact): a
    // typed error comes back and the same session stays usable. Byte 0
    // is the version byte — corrupting it answers `ERR_BAD_VERSION`
    // from the prelude (version dispatch runs before the CRC check);
    // everything past it is caught by the worker's CRC verification.
    for (bit_offset, expected) in [
        (0usize, protocol::ERR_BAD_VERSION),
        (5, ERR_BAD_CRC),
        (12, ERR_BAD_CRC),
        (40, ERR_BAD_CRC),
    ] {
        let corrupted = faults::bit_flip(
            &framed[protocol::HEADER_LEN..],
            bit_offset,
            (bit_offset % 8) as u32,
        );
        conn.stream.write_all(&framed[..protocol::HEADER_LEN]).expect("header");
        conn.stream.write_all(&corrupted).expect("payload");
        conn.stream.flush().expect("flush");
        let (_, outcome) = conn.read_reply();
        assert_eq!(outcome, Err(expected), "bit {bit_offset}");
    }

    // Same connection, valid request: the session survived.
    conn.send(8, 0, &Request::Ping);
    assert_eq!(conn.read_reply(), (8, Ok(())));
    handle.shutdown().expect("shutdown");
}

#[test]
fn trailing_body_byte_is_a_decode_error_and_the_session_lives() {
    let engine = test_engine(EngineConfig::default());
    let handle = Server::start(engine, fast_config()).expect("start");
    let mut conn = RawConn::connect(handle.addr());

    // A valid exchange plus one byte after its body, framed with a CRC
    // over the whole payload: the frame is sound, the body is not.
    let request = Request::Exchange {
        mapping: "copy".into(),
        target_schema: "Dst".into(),
        source_db: small_source(),
    };
    let mut payload = encode_request(5, 0, 0, &request).to_vec();
    payload.push(0);
    write_frame(&mut conn.stream, &payload).expect("send frame");
    assert_eq!(conn.read_reply(), (5, Err(protocol::ERR_DECODE)));

    // Same connection: the untouched request is answered.
    conn.send(6, 0, &request);
    assert_eq!(conn.read_reply(), (6, Ok(())));
    handle.shutdown().expect("shutdown");
}

#[test]
fn mutated_frames_never_kill_the_server() {
    let engine = test_engine(EngineConfig::default());
    let handle = Server::start(engine, fast_config()).expect("start");
    let addr = handle.addr();

    let payload = encode_request(1, 0, 0, &Request::Exchange {
        mapping: "copy".into(),
        target_schema: "Dst".into(),
        source_db: small_source(),
    });
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).expect("frame");

    for seed in 0..32u64 {
        let hostile = match seed % 4 {
            0 => faults::mutate_bytes(&framed, seed),
            1 => faults::truncate_at(&framed, (seed as usize * 7) % framed.len()),
            2 => faults::splice(&framed, (seed as usize * 11) % framed.len(), &faults::garbage_bytes(seed, 9)),
            _ => faults::garbage_bytes(seed, 64 + seed as usize),
        };
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        // The write itself may fail if the server already closed on us;
        // both outcomes are acceptable, panicking/hanging is not.
        let _ = stream.write_all(&hostile);
        let _ = stream.flush();
        // Read whatever comes back (typed error frame or EOF) until the
        // server closes or stops answering; then the stream is dropped
        // (possibly mid-request from the server's perspective).
        let _ = read_frame(&mut &stream, protocol::DEFAULT_MAX_FRAME_LEN);
        drop(stream);

        // The server must keep serving fresh sessions.
        let mut probe = Client::connect(addr).expect("reconnect");
        probe.ping().unwrap_or_else(|e| panic!("server dead after seed {seed}: {e}"));
    }

    // No leaked inflight slots; session slots drain once peers leave.
    wait_for("inflight drain", Duration::from_secs(5), || handle.inflight() == 0);
    wait_for("session drain", Duration::from_secs(5), || handle.active_sessions() <= 1);
    handle.shutdown().expect("shutdown");
}

#[test]
fn slow_writer_is_disconnected_not_waited_on() {
    let engine = test_engine(EngineConfig::default());
    let cfg = ServerConfig { io_timeout: Duration::from_millis(100), ..fast_config() };
    let handle = Server::start(engine, cfg).expect("start");

    let payload = encode_request(1, 0, 0, &Request::Ping);
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).expect("frame");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let spans = faults::chunk_plan(framed.len(), 4);
    // Send the first chunk, then stall far past the per-IO timeout.
    let (start, end) = spans[0];
    stream.write_all(&framed[start..end]).expect("first chunk");
    stream.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(400));
    // The server must have dropped us: finishing the frame cannot
    // produce a response (EOF or reset instead).
    for &(s, e) in &spans[1..] {
        if stream.write_all(&framed[s..e]).is_err() {
            break;
        }
    }
    let reply = read_frame(&mut &stream, protocol::DEFAULT_MAX_FRAME_LEN);
    assert!(reply.is_err(), "server answered a frame it should have abandoned");

    wait_for("slot release", Duration::from_secs(5), || handle.active_sessions() == 0);
    let mut probe = Client::connect(handle.addr()).expect("reconnect");
    probe.ping().expect("server must keep serving after a slow writer");
    handle.shutdown().expect("shutdown");
}

#[test]
fn mid_request_disconnect_returns_inflight_to_zero() {
    let collector = RingCollector::with_capacity(1024);
    let tel = Telemetry::new(collector);
    let engine = test_engine(EngineConfig { telemetry: tel.clone(), ..Default::default() });
    let handle = Server::start(engine, fast_config()).expect("start");

    let mut conn = RawConn::connect(handle.addr());
    conn.send(1, 0, &slow_exchange_request(6_000));
    // Give the session thread a moment to admit the request, then
    // vanish mid-request.
    wait_for("request admitted", Duration::from_secs(5), || handle.inflight() == 1);
    drop(conn);

    wait_for("inflight back to zero", Duration::from_secs(10), || handle.inflight() == 0);
    wait_for("session slot released", Duration::from_secs(5), || {
        handle.active_sessions() == 0
    });
    let snap = tel.metrics().expect("metrics").snapshot();
    assert!(snap.value("server.disconnects") >= 1, "disconnect must be counted");

    let mut probe = Client::connect(handle.addr()).expect("reconnect");
    probe.ping().expect("server must keep serving after a disconnect");
    handle.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------
// Deadlines and session budgets.
// ---------------------------------------------------------------------

#[test]
fn expired_deadline_surfaces_as_wire_code() {
    let collector = RingCollector::with_capacity(1024);
    let tel = Telemetry::new(collector);
    let engine = test_engine(EngineConfig { telemetry: tel.clone(), ..Default::default() });
    let handle = Server::start(engine, fast_config()).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.set_deadline_ms(1);
    let err = client
        .exchange("quad", "QTgt", &faults::quadratic_join(2_000).2)
        .expect_err("a 1ms deadline cannot satisfy a slow exchange");
    assert_eq!(err.code(), Some(ERR_DEADLINE_EXCEEDED), "got {err}");

    client.set_deadline_ms(0);
    client.exchange("copy", "Dst", &small_source()).expect("default deadline suffices");

    let snap = tel.metrics().expect("metrics").snapshot();
    assert!(snap.value("server.timed_out") >= 1);
    handle.shutdown().expect("shutdown");
}

/// An EXPLAIN is metered like the exchange it explains: the request's
/// deadline bounds the whole run, not just the admission check.
#[test]
fn explain_exchange_honours_the_request_deadline() {
    let handle = Server::start(test_engine(EngineConfig::default()), fast_config()).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.set_deadline_ms(1);
    let err = client
        .explain_exchange("quad", "QTgt", &faults::quadratic_join(2_000).2)
        .expect_err("a 1ms deadline cannot satisfy a slow explained exchange");
    assert_eq!(err.code(), Some(ERR_DEADLINE_EXCEEDED), "got {err}");

    client.set_deadline_ms(0);
    client.explain_exchange("copy", "Dst", &small_source()).expect("default deadline suffices");
    handle.shutdown().expect("shutdown");
}

#[test]
fn session_budget_caps_one_tenant_not_the_next() {
    let engine = test_engine(EngineConfig::default());
    let cfg = ServerConfig {
        session_budget: ExecBudget::unbounded().with_steps(2_000),
        ..fast_config()
    };
    let handle = Server::start(engine, cfg).expect("start");

    let mut greedy = Client::connect(handle.addr()).expect("connect");
    let err = greedy
        .exchange("quad", "QTgt", &faults::quadratic_join(200).2)
        .expect_err("the session step cap must trip");
    assert_eq!(err.code(), Some(ERR_BUDGET_EXHAUSTED), "got {err}");
    // The same session stays capped: even a small request sees the
    // meter the big one filled.
    let err = greedy
        .exchange("quad", "QTgt", &faults::quadratic_join(200).2)
        .expect_err("session meter persists across requests");
    assert_eq!(err.code(), Some(ERR_BUDGET_EXHAUSTED));

    // A fresh session gets a fresh meter.
    let mut modest = Client::connect(handle.addr()).expect("connect");
    modest.exchange("copy", "Dst", &small_source()).expect("small tenant unaffected");
    handle.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------
// Graceful shutdown.
// ---------------------------------------------------------------------

#[test]
fn shutdown_drains_inflight_refuses_new_and_checkpoints() {
    let storage = MemStorage::new();
    let tel = Telemetry::new(RingCollector::with_capacity(1024));
    let engine = Engine::with_config(EngineConfig {
        durability: Durability::Durable {
            storage: storage.clone(),
        },
        telemetry: tel.clone(),
        ..Default::default()
    })
    .expect("durable engine");
    engine.add_schema(tgds::binary_schema("Src", "A", 2)).expect("src");
    engine.add_schema(tgds::binary_schema("Dst", "B", 2)).expect("dst");
    let mut copy = Mapping::new("Src", "Dst");
    for t in tgds::copy_tgds("A", "B", 2) {
        copy.push_tgd(t);
    }
    engine.add_mapping("copy", copy).expect("copy");
    let (qsrc, qtgt, _, qtgds) = faults::quadratic_join(4);
    engine.add_schema(qsrc).expect("qsrc");
    engine.add_schema(qtgt).expect("qtgt");
    let mut quad = Mapping::new("QSrc", "QTgt");
    for t in qtgds {
        quad.push_tgd(t);
    }
    engine.add_mapping("quad", quad).expect("quad");

    let handle = Server::start(engine, fast_config()).expect("start");
    let addr = handle.addr();

    // A slow request goes inflight, then shutdown begins concurrently.
    let mut conn = RawConn::connect(addr);
    conn.send(1, 0, &slow_exchange_request(12_000));
    wait_for("request admitted", Duration::from_secs(5), || handle.inflight() == 1);

    let drain = std::thread::spawn(move || handle.shutdown());

    // While draining, new requests on the same session get the typed
    // ShuttingDown frame, and the inflight request still completes. The
    // drain thread races our first ping, so pings sent before it set
    // the draining flag may still succeed — keep pinging until one is
    // refused, bounded well below the inflight request's runtime.
    let mut outcomes = std::collections::HashMap::new();
    let mut refused_ping = None;
    for ping_id in 2u64..200 {
        conn.send(ping_id, 0, &Request::Ping);
        let (id, outcome) = conn.read_reply();
        outcomes.insert(id, outcome);
        // replies interleave with request 1's, so scan every ping seen
        if let Some((&id, _)) =
            outcomes.iter().find(|&(&id, &o)| id >= 2 && o == Err(ERR_SHUTTING_DOWN))
        {
            refused_ping = Some(id);
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(refused_ping.is_some(), "drain must refuse new work");
    while !outcomes.contains_key(&1) {
        let (id, outcome) = conn.read_reply();
        outcomes.insert(id, outcome);
    }
    assert_eq!(outcomes[&1], Ok(()), "inflight request must drain, not be dropped");

    drain.join().expect("drain thread").expect("shutdown");

    // The drain checkpointed: recovery comes up from the snapshot with
    // every artifact intact.
    let snap = tel.metrics().expect("metrics").snapshot();
    assert!(snap.value("checkpoints") >= 1, "shutdown must checkpoint");
    let recovered =
        Engine::open_durable(storage, DurableOptions::default()).expect("recover");
    recovered.repo.latest_mapping("copy").expect("mapping survives");
    recovered.repo.latest_schema("Dst").expect("schema survives");
    let (out, _) = recovered.exchange("copy", "Dst", &small_source()).expect("exchange");
    assert_eq!(out.relation("B0").expect("B0").len(), 2);
}

#[test]
fn new_connections_during_drain_get_shutting_down() {
    let engine = test_engine(EngineConfig::default());
    let handle = Server::start(engine, fast_config()).expect("start");
    let addr = handle.addr();

    let mut conn = RawConn::connect(addr);
    conn.send(1, 0, &slow_exchange_request(12_000));
    wait_for("request admitted", Duration::from_secs(5), || handle.inflight() == 1);
    let drain = std::thread::spawn(move || handle.shutdown());

    // Poll with fresh connections until the drain flag is visible; each
    // refused connect must carry the typed frame, never hang.
    let saw_refusal = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(5));
        let Ok(stream) = TcpStream::connect(addr) else {
            return false;
        };
        stream.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
        match read_frame(&mut &stream, protocol::DEFAULT_MAX_FRAME_LEN) {
            Ok(frame) => {
                let (_, body) = protocol::decode_response(frame.payload).expect("decode");
                body.err().map(|(code, _)| code) == Some(ERR_SHUTTING_DOWN)
            }
            Err(_) => false,
        }
    });
    assert!(saw_refusal, "no connection observed the ShuttingDown refusal");
    assert_eq!(conn.read_reply(), (1, Ok(())), "inflight request survives the drain");
    drain.join().expect("drain thread").expect("shutdown");
}

// ---------------------------------------------------------------------
// Property tests: the codec layer never panics on hostile bytes.
// ---------------------------------------------------------------------

mod codec_props {
    use super::*;
    use proptest::prelude::*;

    /// A pristine framed exchange request to corrupt.
    fn pristine_frame() -> Vec<u8> {
        let payload = encode_request(42, 250, 7, &Request::Exchange {
            mapping: "copy".into(),
            target_schema: "Dst".into(),
            source_db: small_source(),
        });
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("frame");
        framed
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrarily mutated frames decode to a typed outcome —
        /// `Ok`, a `FrameError`, a CRC mismatch, or a `BodyError` —
        /// and never panic or over-allocate on an adversarial length.
        #[test]
        fn mutated_frames_decode_to_typed_outcomes(seed in any::<u64>()) {
            let corrupt = faults::mutate_bytes(&pristine_frame(), seed);
            let mut cursor = &corrupt[..];
            if let Ok(frame) = read_frame(&mut cursor, protocol::DEFAULT_MAX_FRAME_LEN) {
                if frame.crc_ok() {
                    if let Ok(head) = protocol::parse_head(&frame.payload) {
                        let body = frame.payload.slice(protocol::PRELUDE_LEN..frame.payload.len());
                        let mut r = mm_repository::codec::Reader::new(body);
                        let _ = protocol::decode_request(head.op, &mut r);
                    }
                }
            }
        }

        /// Truncation at every boundary is a torn frame: reading yields
        /// `Ok` (truncation fell past the frame) or a typed error.
        #[test]
        fn truncated_frames_never_panic(at in 0usize..2048) {
            let pristine = pristine_frame();
            let torn = faults::truncate_at(&pristine, at % pristine.len());
            let mut cursor = &torn[..];
            let _ = read_frame(&mut cursor, protocol::DEFAULT_MAX_FRAME_LEN);
        }

        /// Spliced garbage (misdirected write) never panics the frame
        /// reader, and a payload splice never passes the CRC.
        #[test]
        fn spliced_frames_never_pass_crc(offset in any::<usize>(), seed in any::<u64>()) {
            let pristine = pristine_frame();
            let garbage = faults::garbage_bytes(seed, 1 + (seed as usize % 16));
            let spliced = faults::splice(&pristine, offset, &garbage);
            let mut cursor = &spliced[..];
            if let Ok(frame) = read_frame(&mut cursor, protocol::DEFAULT_MAX_FRAME_LEN) {
                let at = offset % (pristine.len() + 1);
                // A splice strictly inside the original payload region
                // either changes the bytes under the CRC or shifts the
                // frame boundary; equal-length reads with intact CRC can
                // only happen when the splice landed past the frame.
                if frame.crc_ok() && at >= protocol::HEADER_LEN {
                    let body_end = pristine.len();
                    prop_assert!(
                        at >= body_end
                            || frame.payload.as_ref()
                                == &pristine[protocol::HEADER_LEN..body_end],
                        "splice inside the payload survived the CRC"
                    );
                }
            }
        }

        /// Bit flips in the payload region are always caught by the
        /// CRC — the exact defense the wire relies on.
        #[test]
        fn payload_bit_flips_always_fail_crc(offset in any::<usize>(), bit in 0u32..8) {
            let pristine = pristine_frame();
            let body = faults::bit_flip(&pristine[protocol::HEADER_LEN..], offset, bit);
            let mut framed = pristine[..protocol::HEADER_LEN].to_vec();
            framed.extend_from_slice(&body);
            let mut cursor = &framed[..];
            let frame = read_frame(&mut cursor, protocol::DEFAULT_MAX_FRAME_LEN)
                .expect("header untouched");
            prop_assert!(!frame.crc_ok(), "flipped payload bit passed the CRC");
        }
    }
}
