//! The traced pass: every call the benchmark makes below the `Engine`
//! / `Server` / `Client` surface lives here, and only `mmbench-trace`
//! declares this module - a reshuffle of those crates can break the
//! ledger without touching the gated numbers.
//!
//! Client-side stages are timed on the live connection. Server-side
//! stages run on server threads, out of reach of a recorder in this
//! thread, so they are *replayed* here on the same bytes through the
//! same public functions the server calls; what the live round trip
//! took beyond the replayed stages is `server.unattributed_us`.

use bytes::Bytes;
use mm_engine::prelude::*;
use mm_instance::intern::alloc_counts;
use mm_repository::codec::{Reader, Writer};
use mm_server::protocol::{
    self, decode_request, decode_response, encode_ok, encode_request, parse_head, read_frame,
    write_frame, OkBody, Request, DEFAULT_MAX_FRAME_LEN, PRELUDE_LEN,
};
use mm_server::{Server, ServerConfig, ServerHandle};
use mmbench::scenario::{self as sc, step, Res};
use mmbench::spans::{unattributed, Recorder};
use mmbench::stats::median;
use mmbench::workloads::{Spec, BULK_TUPLES, EMBED_TUPLES, RECOVER_CYCLES};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer values of one workload, by metric name; a name never set
/// reads 0 (the workload's op does not reach that layer).
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a traced pass hands back: the ledger values, the spans behind
/// them, and whether every reply was right.
pub struct Traced {
    pub layers: Layers,
    pub recorder: Recorder,
    pub attempted: u64,
    pub failed: u64,
}

fn unbounded() -> Governor {
    Governor::new(&ExecBudget::unbounded())
}

/// Median µs of `reps` runs of `f`.
fn timed_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let clock = Instant::now();
            std::hint::black_box(f());
            clock.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// What a pass counts per op besides time: the probes' chase
/// statistics and the instance layer's allocation counters.
#[derive(Default)]
struct Tally {
    fired: usize,
    nulls: usize,
    spilled: u64,
    interned: u64,
}

impl Tally {
    /// Run `f`, charging it the tuples it spills and symbols it interns.
    fn allocating<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = alloc_counts();
        let out = f();
        let after = alloc_counts();
        self.spilled += after.0 - before.0;
        self.interned += after.1 - before.1;
        out
    }

    fn chased(&mut self, stats: ChaseStats) {
        self.fired += stats.fired;
        self.nulls += stats.nulls;
    }

    /// Per-op means, and the engine call split into the chase and the
    /// rest (all 0 for a pass that never chased).
    fn report(&self, layers: &mut Layers, rec: &Recorder, ops: usize) {
        let per_op = |n: f64| n / ops as f64;
        let (exchange, run) = (rec.median_us("engine.exchange"), rec.median_us("chase.run"));
        layers.set("engine.exchange_us", exchange);
        layers.set("chase.run_us", run);
        layers.set("engine.self_us", exchange - run);
        layers.set("chase.firings_per_op", per_op(self.fired as f64));
        layers.set("chase.nulls_per_op", per_op(self.nulls as f64));
        layers.set("instance.alloc_tuples_per_op", per_op(self.spilled as f64));
        layers.set("instance.interned_per_op", per_op(self.interned as f64));
    }
}

fn encoded(db: &Database) -> Bytes {
    let mut w = Writer::new();
    protocol::encode_database(&mut w, db);
    w.finish()
}

/// `db` as a server sees it: freshly decoded, no index or statistics
/// built yet.
fn cold(bytes: &Bytes) -> Res<Database> {
    step(
        "decode database",
        protocol::decode_database(&mut Reader::new(bytes.clone())),
    )
}

// ---------------------------------------------------------------------
// The wire, stage by stage.
// ---------------------------------------------------------------------

/// `Client::call` taken apart so each stage gets its own span.
struct Wire {
    stream: TcpStream,
    next_req: u64,
}

/// One traced round trip: the request payload as sent, the response
/// payload as received, and the decoded body.
struct RoundTrip {
    request: Bytes,
    response_len: usize,
    body: OkBody,
}

impl RoundTrip {
    /// Bytes on the wire each way, frame headers included.
    fn sizes(&self, layers: &mut Layers) {
        layers.set(
            "server.req_bytes",
            (self.request.len() + protocol::HEADER_LEN) as f64,
        );
        layers.set(
            "server.resp_bytes",
            (self.response_len + protocol::HEADER_LEN) as f64,
        );
    }
}

impl Wire {
    fn connect(addr: std::net::SocketAddr) -> Res<Wire> {
        let stream = step("connect", TcpStream::connect(addr))?;
        step("nodelay", stream.set_nodelay(true))?;
        step(
            "timeout",
            stream.set_read_timeout(Some(std::time::Duration::from_secs(30))),
        )?;
        Ok(Wire {
            stream,
            next_req: 1,
        })
    }

    fn call(&mut self, rec: &mut Recorder, req: &Request) -> Res<RoundTrip> {
        let req_id = self.next_req;
        self.next_req += 1;
        // Non-zero, as the client's own ids are: the server captures a
        // span tree only for traced requests.
        let trace_id = 0x6D6D_0000_0000_0000 | req_id;
        let request = rec.span("server.client_encode", |_| {
            encode_request(req_id, 0, trace_id, req)
        });
        let frame = rec.span("server.rtt", |_| {
            step("write frame", write_frame(&mut self.stream, &request))?;
            step(
                "read frame",
                read_frame(&mut self.stream, DEFAULT_MAX_FRAME_LEN),
            )
        })?;
        let response_len = frame.payload.len();
        let (id, body) = rec.span("server.client_decode", |_| {
            if !frame.crc_ok() {
                return Err("response checksum mismatch".to_string());
            }
            step("decode response", decode_response(frame.payload))
        })?;
        if id != req_id {
            return Err(format!("response for request {id}, expected {req_id}"));
        }
        let body = body.map_err(|(code, m)| format!("server refused ({code}): {m}"))?;
        Ok(RoundTrip {
            request,
            response_len,
            body,
        })
    }

    /// The server's own counters and histograms, through the public
    /// `Metrics` op.
    fn metrics(&mut self) -> Res<BTreeMap<String, u64>> {
        match self.call(&mut Recorder::default(), &Request::Metrics)?.body {
            OkBody::Metrics { entries } => Ok(entries.into_iter().collect()),
            other => Err(format!("expected metrics, got {other:?}")),
        }
    }
}

/// Replay the server side of one request on the bytes the client sent:
/// frame read + prelude parse + CRC, body decode, `execute`, response
/// encode + frame write - the worker's `process`, minus sockets,
/// queues and the telemetry epilogue.
fn replay(
    rec: &mut Recorder,
    request: &Bytes,
    execute: impl FnOnce(&mut Recorder, Request) -> Res<OkBody>,
) -> Res<()> {
    let mut on_wire = Vec::with_capacity(request.len() + protocol::HEADER_LEN);
    step("frame", write_frame(&mut on_wire, request))?;
    rec.span("replay", |rec| {
        let (head, frame) = rec.span("server.frame_crc", |_| {
            let frame = step(
                "read frame",
                read_frame(&mut on_wire.as_slice(), DEFAULT_MAX_FRAME_LEN),
            )?;
            let head = parse_head(&frame.payload).map_err(|e| format!("prelude: {e:?}"))?;
            if !frame.crc_ok() {
                return Err("request checksum mismatch".to_string());
            }
            Ok((head, frame))
        })?;
        let decoded = rec.span("server.decode", |_| {
            let body = frame.payload.slice(PRELUDE_LEN..frame.payload.len());
            decode_request(head.op, &mut Reader::new(body)).map_err(|e| e.to_string())
        })?;
        let body = execute(rec, decoded)?;
        rec.span("server.encode", |_| {
            let payload = encode_ok(head.req_id, &body);
            let mut sink = Vec::with_capacity(payload.len() + protocol::HEADER_LEN);
            step("write frame", write_frame(&mut sink, &payload))
        })
    })
}

/// The live stages, the replayed ones, and what neither explains.
fn wire_ledger(
    layers: &mut Layers,
    rec: &Recorder,
    engine_span: &'static str,
    engine_metric: &'static str,
) {
    let rtt = rec.median_us("server.rtt");
    let parts = [
        rec.median_us("server.frame_crc"),
        rec.median_us("server.decode"),
        rec.median_us(engine_span),
        rec.median_us("server.encode"),
    ];
    layers.set(
        "server.client_encode_us",
        rec.median_us("server.client_encode"),
    );
    layers.set("server.rtt_us", rtt);
    layers.set(
        "server.client_decode_us",
        rec.median_us("server.client_decode"),
    );
    layers.set("server.ping_rtt_us", rec.median_us("server.ping_rtt"));
    layers.set("server.frame_crc_us", parts[0]);
    layers.set("server.decode_us", parts[1]);
    layers.set(engine_metric, parts[2]);
    layers.set("server.encode_us", parts[3]);
    layers.set("server.replay_sum_us", parts.iter().sum());
    let rest = unattributed(rtt, &parts);
    layers.set("server.unattributed_us", rest);
    layers.set(
        "server.unattributed_share",
        if rtt > 0.0 { rest / rtt } else { 0.0 },
    );
}

fn scraped(layers: &mut Layers, metrics: &BTreeMap<String, u64>) {
    let read = |key: &str| metrics.get(key).copied().unwrap_or(0) as f64;
    layers.set("server.service_us_p50", read("server.service_us_p50"));
    layers.set("server.queue_wait_us_p50", read("server.queue_wait_us_p50"));
    layers.set("server.shed", read("server.shed"));
    layers.set("server.queue_full", read("server.queue_full"));
    let (hits, misses) = (read("plan_cache_hits"), read("plan_cache_misses"));
    if hits + misses > 0.0 {
        layers.set("engine.plan_cache_hit_share", hits / (hits + misses));
    }
}

/// End of a wire pass: the server's own metrics, the ping floor, a
/// clean shutdown, and the round-trip ledger.
fn close_wire(
    layers: &mut Layers,
    rec: &mut Recorder,
    mut wire: Wire,
    handle: ServerHandle,
    ops: usize,
    engine_span: &'static str,
    engine_metric: &'static str,
) -> Res<()> {
    // Scrape before the pings: they would swamp the histograms.
    scraped(layers, &wire.metrics()?);
    ping_floor(rec, &mut wire, ops.clamp(200, 2_000))?;
    drop(wire);
    step("server shutdown", handle.shutdown())?;
    wire_ledger(layers, rec, engine_span, engine_metric);
    Ok(())
}

/// The protocol floor on the same connection: `pings` ping round trips.
fn ping_floor(rec: &mut Recorder, wire: &mut Wire, pings: usize) -> Res<()> {
    let ping = encode_request(0, 0, 0, &Request::Ping);
    for i in 0..pings {
        rec.set_op(u64::MAX - i as u64);
        rec.span("server.ping_rtt", |_| {
            step("write ping", write_frame(&mut wire.stream, &ping))?;
            step(
                "read pong",
                read_frame(&mut wire.stream, DEFAULT_MAX_FRAME_LEN),
            )
        })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Exchange: wire_small, exchange_bulk, embed_chase.
// ---------------------------------------------------------------------

/// One mapping's worth of an exchange op, with what the probes below
/// the engine need: target schema, tgds, a compiled program.
struct Item {
    mapping: String,
    target: Schema,
    tgds: Vec<Tgd>,
    db: Database,
    /// CQ body over the source (scale families only).
    query: Vec<Atom>,
    program: ChaseProgram,
    wire_db: Bytes,
}

fn item(mapping: &str, target: Schema, tgds: Vec<Tgd>, db: Database, query: Vec<Atom>) -> Item {
    Item {
        mapping: mapping.to_string(),
        program: ChaseProgram::compile_costed(&tgds, &db),
        wire_db: encoded(&db),
        target,
        tgds,
        db,
        query,
    }
}

fn copy_item(seed: u64) -> Item {
    use mm_workload::tgds::{binary_schema, copy_tgds};
    item(
        sc::COPY_MAPPING,
        binary_schema(sc::COPY_TARGET, "B", 2),
        copy_tgds("A", "B", 2),
        sc::small_source(seed),
        Vec::new(),
    )
}

fn scale_items(tuples: usize, seed: u64) -> (Vec<mm_workload::ScaleScenario>, Vec<Item>) {
    let families = mm_workload::scale_scenarios(tuples, seed);
    let items = families
        .iter()
        .map(|f| {
            item(
                f.name,
                f.target.clone(),
                f.tgds.clone(),
                f.db.clone(),
                f.query.clone(),
            )
        })
        .collect();
    (families, items)
}

/// `chase.run`: the chase alone, on a precompiled program, the way
/// `exchange_governed` calls it. `cold` replays the wire case, where
/// the source was just decoded and has no index yet.
fn probe_chase(
    rec: &mut Recorder,
    items: &[Item],
    tel: &Telemetry,
    cold_source: bool,
) -> Res<ChaseStats> {
    let mut total = ChaseStats::default();
    for it in items {
        let fresh = if cold_source {
            Some(cold(&it.wire_db)?)
        } else {
            None
        };
        let source = fresh.as_ref().unwrap_or(&it.db);
        let (_, stats) = rec
            .span("chase.run", |_| {
                chase_st_prepared_governed(
                    &it.target,
                    &it.program,
                    source,
                    &mut unbounded(),
                    1,
                    tel,
                )
            })
            .map_err(|e| e.to_string())?;
        total.fired += stats.fired;
        total.nulls += stats.nulls;
    }
    Ok(total)
}

/// The instance codec on a workload's own databases, each given with
/// its wire form: encode, decode, bytes - per tuple.
fn codec_probes(layers: &mut Layers, dbs: &[(&Database, &Bytes)]) {
    let tuples = dbs.iter().map(|(db, _)| db.total_tuples()).sum::<usize>() as f64;
    let encode = timed_us(9, || {
        dbs.iter().map(|(db, _)| encoded(db).len()).sum::<usize>()
    });
    let decode = timed_us(9, || {
        dbs.iter()
            .map(|(_, bytes)| cold(bytes).map(|d| d.total_tuples()))
            .collect::<Vec<_>>()
    });
    let bytes = dbs.iter().map(|(_, bytes)| bytes.len()).sum::<usize>() as f64;
    layers.set("codec.encode_db_us_per_tuple", encode / tuples);
    layers.set("codec.decode_db_us_per_tuple", decode / tuples);
    layers.set("codec.bytes_per_tuple", bytes / tuples);
}

/// One-shot probes of the layers under an exchange, on its own inputs.
fn exchange_layer_probes(layers: &mut Layers, items: &[Item]) -> Res<()> {
    let tuples: usize = items.iter().map(|it| it.db.total_tuples()).sum();
    let per_tuple = |us: f64| us / tuples as f64;
    layers.set(
        "chase.compile_us",
        timed_us(9, || {
            items
                .iter()
                .map(|it| ChaseProgram::compile_costed(&it.tgds, &it.db).len())
                .sum::<usize>()
        }),
    );
    let wire_forms: Vec<(&Database, &Bytes)> =
        items.iter().map(|it| (&it.db, &it.wire_db)).collect();
    codec_probes(layers, &wire_forms);
    // Rebuilding each relation from its tuple list: insert + dedup
    // (the tuples are already interned and hashed).
    layers.set(
        "instance.build_us_per_tuple",
        per_tuple(timed_us(9, || {
            items
                .iter()
                .flat_map(|it| it.db.relations())
                .map(|(_, r)| Relation::with_tuples(r.schema.clone(), r.iter().cloned()).len())
                .sum::<usize>()
        })),
    );
    let queries: Vec<&Item> = items.iter().filter(|it| !it.query.is_empty()).collect();
    if !queries.is_empty() {
        let (mut rows, mut probes) = (0u64, 0u64);
        for it in &queries {
            let mut gov = unbounded();
            let found = step(
                "cq",
                find_homomorphisms_governed(&it.query, &it.db, &Default::default(), &mut gov),
            )?;
            rows += found.len() as u64;
            probes += gov.steps_consumed();
        }
        layers.set("eval.cq_rows", rows as f64);
        layers.set(
            "eval.hom_pruned_share",
            probes.saturating_sub(rows) as f64 / probes.max(1) as f64,
        );
        layers.set(
            "eval.cq_us",
            timed_us(9, || {
                queries
                    .iter()
                    .map(|it| find_homomorphisms(&it.query, &it.db).len())
                    .sum::<usize>()
            }),
        );
    }
    Ok(())
}

fn exchange_request(items: &[Item]) -> Request {
    let triple = |it: &Item| (it.mapping.clone(), it.target.name.clone(), it.db.clone());
    match items {
        [only] => {
            let (mapping, target_schema, source_db) = triple(only);
            Request::Exchange {
                mapping,
                target_schema,
                source_db,
            }
        }
        many => Request::ExchangeBatch {
            items: many.iter().map(triple).collect(),
        },
    }
}

/// Tuples in an exchange reply, or the refusal it carried.
fn reply_tuples(body: &OkBody) -> Res<usize> {
    match body {
        OkBody::Exchange { db, .. } => Ok(db.total_tuples()),
        OkBody::Batch { slots } => slots
            .iter()
            .map(|s| {
                s.as_ref()
                    .map(|(db, _)| db.total_tuples())
                    .map_err(|(c, m)| format!("slot refused ({c}): {m}"))
            })
            .sum(),
        other => Err(format!("expected an exchange body, got {other:?}")),
    }
}

/// What the server's `execute` does with an exchange-shaped request,
/// one `engine.exchange` span per mapping.
fn execute_exchange(rec: &mut Recorder, engine: &Engine, request: Request) -> Res<OkBody> {
    let mut run = |mapping: &str, target: &str, db: &Database| {
        rec.span("engine.exchange", |_| {
            engine.exchange_governed(mapping, target, db, &mut unbounded())
        })
        .map(|(db, stats)| (db, stats.into()))
        .map_err(|e| (protocol::engine_error_code(&e), e.to_string()))
    };
    match request {
        Request::Exchange {
            mapping,
            target_schema,
            source_db,
        } => {
            let (db, stats) = run(&mapping, &target_schema, &source_db).map_err(|(_, m)| m)?;
            Ok(OkBody::Exchange { db, stats })
        }
        Request::ExchangeBatch { items } => Ok(OkBody::Batch {
            slots: items.iter().map(|(m, t, db)| run(m, t, db)).collect(),
        }),
        other => Err(format!("not an exchange: {other:?}")),
    }
}

fn wire_exchange(
    items: Vec<Item>,
    register: impl Fn(&Engine) -> Res<()>,
    (warmup, ops): (usize, usize),
) -> Res<Traced> {
    let mut layers = Layers::default();
    let mut rec = Recorder::default();
    let served = sc::engine_with(sc::wire_telemetry())?;
    register(&served)?;
    // The replay engine is the served one's twin: same config, same
    // artifacts, plan cache warmed by the same warm-up.
    let twin = sc::engine_with(sc::wire_telemetry())?;
    register(&twin)?;
    let handle = step(
        "server start",
        Server::start(served, ServerConfig::default()),
    )?;
    let mut wire = Wire::connect(handle.addr())?;
    let want_tuples = reply_tuples(&execute_exchange(
        &mut Recorder::default(),
        &twin,
        exchange_request(&items),
    )?)?;
    for _ in 0..warmup {
        wire.call(&mut Recorder::default(), &exchange_request(&items))?;
    }
    let (mut failed, mut tally) = (0u64, Tally::default());
    for op in 0..ops as u64 {
        rec.set_op(op);
        // The request is built inside the op, as `Client::exchange`
        // builds (and clones the source into) its own.
        let trip = rec.span("op", |rec| wire.call(rec, &exchange_request(&items)))?;
        trip.sizes(&mut layers);
        if reply_tuples(&trip.body) != Ok(want_tuples) {
            failed += 1;
        }
        tally.allocating(|| {
            replay(&mut rec, &trip.request, |rec, request| {
                execute_exchange(rec, &twin, request)
            })
        })?;
        tally.chased(rec.span("probe", |rec| {
            probe_chase(rec, &items, twin.telemetry(), true)
        })?);
    }
    close_wire(
        &mut layers,
        &mut rec,
        wire,
        handle,
        ops,
        "engine.exchange",
        "engine.exchange_us",
    )?;
    tally.report(&mut layers, &rec, ops);
    exchange_layer_probes(&mut layers, &items)?;
    Ok(Traced {
        layers,
        recorder: rec,
        attempted: ops as u64,
        failed,
    })
}

pub fn wire_small(seed: u64, counts: (usize, usize)) -> Res<Traced> {
    wire_exchange(vec![copy_item(seed)], sc::register_copy, counts)
}

pub fn exchange_bulk(seed: u64, counts: (usize, usize)) -> Res<Traced> {
    let (families, items) = scale_items(BULK_TUPLES, seed);
    wire_exchange(
        items,
        |engine| sc::register_scale(engine, &families),
        counts,
    )
}

pub fn embed_chase(seed: u64, (warmup, ops): (usize, usize)) -> Res<Traced> {
    let mut layers = Layers::default();
    let mut rec = Recorder::default();
    let (families, items) = scale_items(EMBED_TUPLES, seed);
    // Telemetry on for this pass only, so the engine's own counters
    // (plan cache, firings) can be read back; it is part of what
    // `bench.trace_overhead_share` reports.
    let engine = sc::engine_with(sc::wire_telemetry())?;
    sc::register_scale(&engine, &families)?;
    let exchange_all = |rec: &mut Recorder| -> Res<usize> {
        items
            .iter()
            .map(|it| {
                rec.span("engine.exchange", |_| {
                    engine.exchange(&it.mapping, &it.target.name, &it.db)
                })
                .map(|(db, _)| db.total_tuples())
                .map_err(|e| e.to_string())
            })
            .sum()
    };
    let want_tuples = exchange_all(&mut Recorder::default())?;
    for _ in 1..warmup {
        exchange_all(&mut Recorder::default())?;
    }
    let (mut failed, mut tally) = (0u64, Tally::default());
    for op in 0..ops as u64 {
        rec.set_op(op);
        if tally.allocating(|| rec.span("op", exchange_all)) != Ok(want_tuples) {
            failed += 1;
        }
        tally.chased(rec.span("probe", |rec| {
            probe_chase(rec, &items, engine.telemetry(), false)
        })?);
    }
    if let Some(m) = engine.telemetry().metrics() {
        let (hits, misses) = (
            m.get(Counter::PlanCacheHits) as f64,
            m.get(Counter::PlanCacheMisses) as f64,
        );
        layers.set(
            "engine.plan_cache_hit_share",
            hits / (hits + misses).max(1.0),
        );
    }
    tally.report(&mut layers, &rec, ops);
    exchange_layer_probes(&mut layers, &items)?;
    Ok(Traced {
        layers,
        recorder: rec,
        attempted: ops as u64,
        failed,
    })
}

// ---------------------------------------------------------------------
// Mediation.
// ---------------------------------------------------------------------

pub fn mediate_views(seed: u64, (warmup, ops): (usize, usize)) -> Res<Traced> {
    let mut layers = Layers::default();
    let mut rec = Recorder::default();
    let served = sc::mediation(seed, sc::wire_telemetry())?;
    let twin = sc::mediation(seed, sc::wire_telemetry())?.engine;
    let (base, _) = step("base schema", twin.repo.latest_schema(&served.base_schema))?;
    let viewsets: Vec<ViewSet> = served
        .chain
        .iter()
        .map(|name| step(name, twin.repo.latest_viewset(name)).map(|(v, _)| v))
        .collect::<Res<_>>()?;
    let tables_wire = encoded(&served.tables);
    let request = || Request::Mediate {
        base_schema: served.base_schema.clone(),
        chain: served.chain.clone(),
        query: served.query.clone(),
        base_db: served.tables.clone(),
    };
    let handle = step(
        "server start",
        Server::start(served.engine, ServerConfig::default()),
    )?;
    let mut wire = Wire::connect(handle.addr())?;
    for _ in 0..warmup {
        wire.call(&mut Recorder::default(), &request())?;
    }
    let (mut failed, mut tally) = (0u64, Tally::default());
    for op in 0..ops as u64 {
        rec.set_op(op);
        let trip = rec.span("op", |rec| wire.call(rec, &request()))?;
        trip.sizes(&mut layers);
        match &trip.body {
            OkBody::Mediate {
                rows,
                chained: false,
                degraded: false,
            } if sc::reply_ids(rows) == served.expected_ids => {}
            _ => failed += 1,
        }
        tally.allocating(|| {
            replay(&mut rec, &trip.request, |rec, request| match request {
                Request::Mediate {
                    base_schema,
                    chain,
                    query,
                    base_db,
                } => {
                    let result = rec
                        .span("engine.mediate", |_| {
                            twin.mediate_governed(
                                &base_schema,
                                &chain,
                                &query,
                                &base_db,
                                &mut unbounded(),
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    Ok(OkBody::Mediate {
                        rows: result.rows,
                        chained: matches!(result.mode, MediationMode::Chained),
                        degraded: result.degradation.is_some(),
                    })
                }
                other => Err(format!("not a mediation: {other:?}")),
            })
        })?;
        // What `mediate_governed` does inside, call by call, on tables
        // as fresh as the server's.
        let tables = cold(&tables_wire)?;
        rec.span("probe", |rec| -> Res<()> {
            let mediator = Mediator::new(&base, viewsets.iter().collect());
            let plan = step(
                "plan",
                rec.span("runtime.plan", |_| mediator.plan(&ExecBudget::unbounded())),
            )?;
            let collapsed = rec
                .span("compose.views", |_| mediator.collapse())
                .ok_or("empty chain")?;
            step(
                "answer",
                rec.span("runtime.answer", |_| {
                    mediator.answer_with_plan(&plan, &served.query, &tables, &mut unbounded())
                }),
            )?;
            let unfolded = unfold_query(&served.query, &collapsed);
            step(
                "optimize",
                rec.span("eval.optimize", |_| optimize(&unfolded, &base)),
            )?;
            step(
                "eval",
                rec.span("eval.algebra", |_| eval(&unfolded, &base, &tables)),
            )?;
            Ok(())
        })?;
    }
    close_wire(
        &mut layers,
        &mut rec,
        wire,
        handle,
        ops,
        "engine.mediate",
        "engine.mediate_us",
    )?;
    for (metric, span) in [
        ("runtime.plan_us", "runtime.plan"),
        ("compose.views_us", "compose.views"),
        ("runtime.answer_us", "runtime.answer"),
        ("eval.optimize_us", "eval.optimize"),
        ("eval.algebra_us", "eval.algebra"),
    ] {
        layers.set(metric, rec.median_us(span));
    }
    tally.report(&mut layers, &rec, ops);
    codec_probes(&mut layers, &[(&served.tables, &tables_wire)]);
    Ok(Traced {
        layers,
        recorder: rec,
        attempted: ops as u64,
        failed,
    })
}

// ---------------------------------------------------------------------
// Change data capture and recovery.
// ---------------------------------------------------------------------

/// A durable repository holding what the cdc engine's holds, so WAL
/// append and cursor ack can be timed without the propagator on top.
fn twin_repository(cdc: &sc::Cdc) -> Res<Repository> {
    let repo = step(
        "open",
        Repository::open_durable(MemStorage::new(), DurableOptions::default()),
    )?;
    step(
        "schema",
        repo.store_schema(cdc.schema.name.clone(), cdc.schema.clone()),
    )?;
    step(
        "load",
        repo.put_instance(sc::ORDERS_INSTANCE, cdc.shadow.clone()),
    )?;
    step(
        "subscription",
        repo.register_subscription(Subscription {
            id: cdc.subscriber,
            instance: sc::ORDERS_INSTANCE.to_string(),
            views: cdc.views.clone(),
            cursor: 0,
        }),
    )?;
    Ok(repo)
}

/// Reopen, checkpoint, reopen: the repository's share of recovery, from
/// the WAL alone and from a snapshot.
fn recovery_probes(layers: &mut Layers, storage: &MemStorage) -> Res<()> {
    let reopen = |image: &BTreeMap<String, Vec<u8>>| {
        Repository::open_durable(
            MemStorage::from_files(image.clone()),
            DurableOptions::default(),
        )
        .map(|r| r.instance_names().len())
        .map_err(|e| e.to_string())
    };
    let wal_only = storage.dump();
    reopen(&wal_only)?;
    layers.set("repository.replay_us", timed_us(5, || reopen(&wal_only)));
    let disk = MemStorage::from_files(wal_only);
    let repo = step(
        "reopen",
        Repository::open_durable(disk.clone(), DurableOptions::default()),
    )?;
    let clock = Instant::now();
    step("checkpoint", repo.checkpoint())?;
    layers.set(
        "repository.checkpoint_us",
        clock.elapsed().as_secs_f64() * 1e6,
    );
    layers.set(
        "repository.snapshot_bytes",
        disk.len_of(SNAPSHOT_FILE).unwrap_or(0) as f64,
    );
    let snapshot = disk.dump();
    layers.set(
        "repository.snapshot_load_us",
        timed_us(5, || reopen(&snapshot)),
    );
    Ok(())
}

pub fn cdc_stream(seed: u64, (warmup, ops): (usize, usize)) -> Res<Traced> {
    let mut layers = Layers::default();
    let mut rec = Recorder::default();
    let mut cdc = sc::cdc(seed)?;
    let twin = twin_repository(&cdc)?;
    let view = cdc.views.views[0].expr.clone();
    for _ in 0..warmup {
        let batch = cdc.next_batch();
        step(
            "twin delta",
            twin.apply_instance_delta(sc::ORDERS_INSTANCE, vec![("Orders".into(), batch.clone())]),
        )?;
        cdc.cycle(batch)?;
    }
    let wal_before = cdc.wal_len();
    let rows_before = cdc.replica.delta_rows;
    let (mut failed, mut steps) = (0u64, Vec::with_capacity(ops));
    for op in 0..ops as u64 {
        rec.set_op(op);
        let before = cdc.shadow.clone();
        let batch = cdc.next_batch();
        let want = sc::big_orders_in(&batch);
        let inserts = vec![("Orders".to_string(), batch.clone())];
        let got = rec.span("op", |rec| -> Res<usize> {
            let seq = step(
                "insert_batch",
                rec.span("engine.insert_batch", |_| {
                    cdc.engine
                        .insert_batch(sc::ORDERS_INSTANCE, inserts.clone())
                }),
            )?;
            let polled = step(
                "poll",
                rec.span("engine.poll", |_| cdc.engine.poll(cdc.subscriber, 64)),
            )?;
            let rows = cdc.replica.apply(polled.notifications);
            step(
                "ack",
                rec.span("engine.ack", |_| cdc.engine.ack(cdc.subscriber, seq)),
            )?;
            Ok(rows)
        });
        if got != Ok(want) {
            failed += 1;
        }
        // The same batch through each layer on its own.
        rec.span("probe", |rec| -> Res<()> {
            let mut delta = Delta::new();
            batch.iter().for_each(|t| delta.insert("Orders", t.clone()));
            let mut gov = unbounded();
            step(
                "ivm delta",
                rec.span("runtime.ivm_delta", |_| {
                    view_insert_delta_governed(&view, &cdc.schema, &before, &delta, &mut gov)
                }),
            )?;
            steps.push(gov.steps_consumed() as f64);
            let seq = step(
                "wal append",
                rec.span("repository.wal_append", |_| {
                    twin.apply_instance_delta(sc::ORDERS_INSTANCE, inserts)
                }),
            )?;
            step(
                "ack",
                rec.span("repository.ack", |_| {
                    twin.advance_cursor(cdc.subscriber, seq)
                }),
            )?;
            Ok(())
        })?;
    }
    let wal_bytes = (cdc.wal_len() - wal_before) as f64;
    if cdc.verify().is_err() {
        failed += 1;
    }
    let insert = rec.median_us("engine.insert_batch");
    let append = rec.median_us("repository.wal_append");
    layers.set("repository.wal_append_us", append);
    layers.set("repository.ack_us", rec.median_us("repository.ack"));
    layers.set("repository.wal_bytes_per_op", wal_bytes / ops as f64);
    layers.set(
        "repository.wal_bytes_per_user_byte",
        wal_bytes / (ops * sc::BATCH_ROWS * sc::USER_BYTES_PER_ROW) as f64,
    );
    layers.set("propagate.publish_us", insert - append);
    layers.set("propagate.poll_us", rec.median_us("engine.poll"));
    layers.set(
        "propagate.delta_rows_per_op",
        (cdc.replica.delta_rows - rows_before) as f64 / ops as f64,
    );
    layers.set(
        "propagate.resync_share",
        cdc.replica.resyncs as f64 / ops as f64,
    );
    layers.set("runtime.ivm_delta_us", rec.median_us("runtime.ivm_delta"));
    layers.set("runtime.ivm_delta_steps", median(&steps));
    layers.set(
        "runtime.recompute_us",
        timed_us(5, || {
            materialize_views(&cdc.views, &cdc.schema, &cdc.shadow).map(|d| d.total_tuples())
        }),
    );
    recovery_probes(&mut layers, &cdc.storage)?;
    Ok(Traced {
        layers,
        recorder: rec,
        attempted: ops as u64,
        failed,
    })
}

pub fn cdc_recover(seed: u64, (warmup, ops): (usize, usize)) -> Res<Traced> {
    let mut layers = Layers::default();
    let mut rec = Recorder::default();
    let mut cdc = sc::cdc(seed)?;
    for _ in 0..RECOVER_CYCLES {
        let batch = cdc.next_batch();
        cdc.cycle(batch)?;
    }
    let image = cdc.storage.dump();
    let want = cdc.shadow.total_tuples();
    let open = |rec: &mut Recorder, storage: Arc<MemStorage>| {
        rec.span("engine.open_durable", |_| {
            Engine::open_durable(storage, DurableOptions::default())
        })
        .map_err(|e| e.to_string())
    };
    for _ in 0..warmup {
        open(
            &mut Recorder::default(),
            MemStorage::from_files(image.clone()),
        )?;
    }
    let mut failed = 0u64;
    for op in 0..ops as u64 {
        rec.set_op(op);
        let storage = MemStorage::from_files(image.clone());
        let engine = rec.span("op", |rec| open(rec, storage))?;
        let cursor = engine.subscriber_status(cdc.subscriber).map(|s| s.cursor);
        let tuples = engine
            .instance(sc::ORDERS_INSTANCE)
            .map(|db| db.total_tuples());
        if tuples != Some(want) || cursor.ok() != Some(cdc.replica.cursor) {
            failed += 1;
        }
    }
    recovery_probes(&mut layers, &cdc.storage)?;
    Ok(Traced {
        layers,
        recorder: rec,
        attempted: ops as u64,
        failed,
    })
}

pub fn trace(spec: &Spec, seed: u64, counts: (usize, usize)) -> Res<Traced> {
    match spec.name {
        "wire_small" => wire_small(seed, counts),
        "exchange_bulk" => exchange_bulk(seed, counts),
        "embed_chase" => embed_chase(seed, counts),
        "mediate_views" => mediate_views(seed, counts),
        "cdc_stream" => cdc_stream(seed, counts),
        _ => cdc_recover(seed, counts),
    }
}
