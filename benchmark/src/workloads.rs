//! The six workloads, driven the way a tool drives the product: through
//! `Engine`, `Server::start` and `Client`, closed loop, one connection,
//! depth 1, every reply checked outside the timer.

use crate::scenario::{self as sc, step, Res};
use crate::stats::Round;
use mm_engine::prelude::*;
use mm_server::{Client, ClientError, Server, ServerConfig, ServerHandle};
use mm_workload::{scale_scenarios, ScaleScenario};
use std::time::Instant;

/// A workload's fixed work. Op counts are per round at `--seconds 10`
/// and scale linearly with `--seconds`: the same count on both commits
/// of a comparison, never "as many as fit", so a faster commit is not
/// handed a different op mix (a `cdc_stream` cycle costs O(instance),
/// and the instance grows with every cycle).
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub op: &'static str,
    pub warmup: usize,
    pub ops: usize,
    /// The percentile `op_tail_us` reports, fixed so the number means
    /// the same thing on every commit: p99 where the pooled rounds
    /// leave hundreds of samples beyond it, p90 elsewhere (a p99 with
    /// ten samples beyond it moved by 16-25 % between identical runs).
    pub tail: u32,
    run: Run,
}

/// What every workload function takes: the round to fill, when the
/// process started, the seed, and `(warm-up, timed)` op counts.
type Run = fn(&mut Round, Instant, u64, (usize, usize)) -> Res<()>;

pub const BULK_TUPLES: usize = 4_000;
pub const EMBED_TUPLES: usize = 10_000;
/// Cycles `cdc_recover` commits in set-up, so the WAL it reopens holds
/// a load, 120 deltas and 121 cursor acks.
pub const RECOVER_CYCLES: usize = 120;

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "wire_small",
        why: "16-tuple exchange over the wire on a plan-cache hit: engine work is a fifth of the round trip, so mm-server dominates and a chase or codec change must show no change here",
        op: "Client::exchange(copy, Dst, 2 relations x 8 rows)",
        warmup: 1_000,
        ops: 15_000,
        tail: 99,
        run: wire_small,
    },
    Spec {
        name: "exchange_bulk",
        why: "one 1.1 MB batch of three scale families, 4 000 tuples each: codec and CRC are most of the time, the chase a fifth, and each request decodes a fresh Database, so indexes are built cold",
        op: "Client::exchange_batch(snowflake + inheritance + evolution, 4 000 tuples each)",
        warmup: 2,
        ops: 26,
        tail: 90,
        run: exchange_bulk,
    },
    Spec {
        name: "embed_chase",
        why: "the same families at 10 000 tuples each through the embedded Engine on long-lived Databases: chase, eval and instance are all of the time, server and codec none; the control for both wire exchanges",
        op: "3 x Engine::exchange (snowflake, inheritance, evolution, 10 000 tuples each)",
        warmup: 2,
        ops: 50,
        tail: 90,
        run: embed_chase,
    },
    Spec {
        name: "mediate_views",
        why: "a query through generated query views plus two hops over 1 700 table tuples: the view chain is re-composed on every request and the algebra evaluator answers; the read path the chase never takes",
        op: "Client::mediate(er_rel, [qv, L0, L1], project Id from the last leaf type)",
        warmup: 20,
        ops: 130,
        tail: 90,
        run: mediate_views,
    },
    Spec {
        name: "cdc_stream",
        why: "the write path on a durable engine: WAL append, feed publish, incremental view delta (O(instance) today) and durable cursor ack; the only workload that writes a WAL",
        op: "Engine::insert_batch(10 orders) -> poll -> ack on 8 000 orders + 800 customers feeding a join view",
        warmup: 10,
        ops: 200,
        tail: 90,
        run: cdc_stream,
    },
    Spec {
        name: "cdc_recover",
        why: "crash recovery of that engine from storage alone: WAL decode and replay, instances and subscriptions re-attached; what a versioned-root or snapshot-format change must not slow",
        op: "Engine::open_durable over the storage image left by a load and 120 cdc cycles",
        warmup: 3,
        ops: 200,
        tail: 90,
        run: cdc_recover,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// `(warm-up ops, timed ops)` scaled from the `--seconds 10`
    /// reference, at least 2 each so a first and a last op exist.
    pub fn counts(&self, seconds: f64) -> (usize, usize) {
        let scaled = |n: usize| ((n as f64 * seconds / 10.0).round() as usize).max(2);
        (scaled(self.warmup), scaled(self.ops))
    }
}

/// Whether timed op `i` gets the deep (set-equality) check: the first
/// and the last of the round.
fn deep(i: usize, (warmup, ops): (usize, usize)) -> bool {
    i == warmup || i == warmup + ops - 1
}

/// Warm up, then time `ops` calls of `op` one by one. `prepare` builds
/// an op's argument before its clock starts and `check` sees the reply
/// after it stopped. An error, a typed refusal or a wrong answer is a
/// failed op and contributes no latency sample.
fn drive<P, R>(
    round: &mut Round,
    started: Instant,
    (warmup, ops): (usize, usize),
    mut prepare: impl FnMut(usize) -> P,
    mut op: impl FnMut(P) -> Res<R>,
    mut check: impl FnMut(usize, R) -> Res<()>,
) -> Res<()> {
    for i in 0..warmup {
        let reply = op(prepare(i)).map_err(|e| format!("warm-up op {i}: {e}"))?;
        check(i, reply).map_err(|e| format!("warm-up op {i}: {e}"))?;
    }
    round.setup_s = started.elapsed().as_secs_f64();
    round.samples_us.reserve(ops);
    for i in warmup..warmup + ops {
        let arg = prepare(i);
        round.attempted += 1;
        let clock = Instant::now();
        let reply = op(arg);
        let us = clock.elapsed().as_secs_f64() * 1e6;
        match reply.and_then(|r| check(i, r)) {
            Ok(()) => round.samples_us.push(us),
            Err(e) => {
                if round.failed == 0 {
                    eprintln!("op {i} failed: {e}");
                }
                round.failed += 1;
            }
        }
    }
    Ok(())
}

fn wire_err(e: ClientError) -> String {
    e.to_string()
}

/// Boot a default-config server over `engine` and connect one client.
fn boot(engine: Engine) -> Res<(ServerHandle, Client)> {
    let handle = step(
        "server start",
        Server::start(engine, ServerConfig::default()),
    )?;
    let client = step("connect", Client::connect(handle.addr()))?;
    Ok((handle, client))
}

fn shutdown(handle: ServerHandle, client: Client) -> Res<()> {
    drop(client);
    step("server shutdown", handle.shutdown())
}

type Exchanged = (Database, ChaseStats);

/// A wire reply against the embedded engine's answer: tuple counts and
/// chase statistics on every op, set equality when `deep`.
fn check_exchange(got: &Database, fired: u64, nulls: u64, want: &Exchanged, deep: bool) -> Res<()> {
    let (db, stats) = want;
    if got.total_tuples() != db.total_tuples() {
        return Err(format!(
            "{} tuples, expected {}",
            got.total_tuples(),
            db.total_tuples()
        ));
    }
    if (fired, nulls) != (stats.fired as u64, stats.nulls as u64) {
        return Err(format!(
            "chase stats ({fired}, {nulls}), expected {stats:?}"
        ));
    }
    if deep && !sc::db_set_eq(got, db) {
        return Err("reply differs from the embedded exchange".into());
    }
    Ok(())
}

fn wire_small(round: &mut Round, started: Instant, seed: u64, counts: (usize, usize)) -> Res<()> {
    let src = sc::small_source(seed);
    let mut digest = sc::Digest::default();
    digest.database(&src);
    round.input_digest = digest.hex();
    let oracle = Engine::new();
    sc::register_copy(&oracle)?;
    let want = step(
        "embedded exchange",
        oracle.exchange(sc::COPY_MAPPING, sc::COPY_TARGET, &src),
    )?;
    let engine = sc::engine_with(sc::wire_telemetry())?;
    sc::register_copy(&engine)?;
    let (handle, mut client) = boot(engine)?;
    drive(
        round,
        started,
        counts,
        |_| (),
        |()| {
            client
                .exchange(sc::COPY_MAPPING, sc::COPY_TARGET, &src)
                .map_err(wire_err)
        },
        |i, (db, stats)| check_exchange(&db, stats.fired, stats.nulls, &want, deep(i, counts)),
    )?;
    shutdown(handle, client)
}

/// The families' inputs digested, and what the embedded engine makes
/// of each — the reference every reply is checked against.
fn scale_reference(
    round: &mut Round,
    families: &[ScaleScenario],
    engine: &Engine,
) -> Res<Vec<Exchanged>> {
    let mut digest = sc::Digest::default();
    families.iter().for_each(|f| digest.database(&f.db));
    round.input_digest = digest.hex();
    families
        .iter()
        .map(|f| step(f.name, engine.exchange(f.name, &f.target.name, &f.db)))
        .collect()
}

fn exchange_bulk(
    round: &mut Round,
    started: Instant,
    seed: u64,
    counts: (usize, usize),
) -> Res<()> {
    let families = scale_scenarios(BULK_TUPLES, seed);
    let oracle = Engine::new();
    sc::register_scale(&oracle, &families)?;
    let want = scale_reference(round, &families, &oracle)?;
    let engine = sc::engine_with(sc::wire_telemetry())?;
    sc::register_scale(&engine, &families)?;
    let items: Vec<(String, String, Database)> = families
        .iter()
        .map(|f| (f.name.to_string(), f.target.name.clone(), f.db.clone()))
        .collect();
    let (handle, mut client) = boot(engine)?;
    drive(
        round,
        started,
        counts,
        |_| (),
        |()| client.exchange_batch(&items).map_err(wire_err),
        |i, slots| {
            if slots.len() != want.len() {
                return Err(format!("{} slots, expected {}", slots.len(), want.len()));
            }
            for (slot, want) in slots.into_iter().zip(&want) {
                let (db, stats) =
                    slot.map_err(|(code, m)| format!("slot refused ({code}): {m}"))?;
                check_exchange(&db, stats.fired, stats.nulls, want, deep(i, counts))?;
            }
            Ok(())
        },
    )?;
    shutdown(handle, client)
}

fn embed_chase(round: &mut Round, started: Instant, seed: u64, counts: (usize, usize)) -> Res<()> {
    let families = scale_scenarios(EMBED_TUPLES, seed);
    let engine = Engine::new();
    sc::register_scale(&engine, &families)?;
    // The first embedded run is the reference: the chase is
    // deterministic (same tuples, same labeled-null ids), and every
    // family's tgds migrate each source row into its main target.
    let want = scale_reference(round, &families, &engine)?;
    for (f, (db, _)) in families.iter().zip(&want) {
        let (source, target) = match f.name {
            "snowflake" => ("fact", "sales_by_customer"),
            "evolution" => ("orders_v1", "orders_v2"),
            _ => ("", "flat"),
        };
        let rows =
            f.db.relation(source)
                .map_or(f.db.total_tuples(), Relation::len);
        if db.relation(target).map(Relation::len) != Some(rows) {
            return Err(format!("{}: `{target}` does not hold {rows} rows", f.name));
        }
    }
    drive(
        round,
        started,
        counts,
        |_| (),
        |()| -> Res<Vec<Exchanged>> {
            families
                .iter()
                .map(|f| step(f.name, engine.exchange(f.name, &f.target.name, &f.db)))
                .collect()
        },
        |i, got| {
            for ((db, stats), want) in got.iter().zip(&want) {
                check_exchange(
                    db,
                    stats.fired as u64,
                    stats.nulls as u64,
                    want,
                    deep(i, counts),
                )?;
            }
            Ok(())
        },
    )
}

fn mediate_views(
    round: &mut Round,
    started: Instant,
    seed: u64,
    counts: (usize, usize),
) -> Res<()> {
    let sc::Mediation {
        engine,
        base_schema,
        chain,
        query,
        tables,
        expected_ids,
        input_digest,
    } = sc::mediation(seed, sc::wire_telemetry())?;
    round.input_digest = input_digest;
    let (handle, mut client) = boot(engine)?;
    drive(
        round,
        started,
        counts,
        |_| (),
        |()| {
            client
                .mediate(&base_schema, &chain, &query, &tables)
                .map_err(wire_err)
        },
        |_, reply| {
            if reply.degraded || reply.chained {
                return Err("mediation fell back to chained unfolding".into());
            }
            if sc::reply_ids(&reply.rows) != expected_ids {
                return Err(format!(
                    "{} rows, expected the leaf type's {} ids",
                    reply.rows.len(),
                    expected_ids.len()
                ));
            }
            Ok(())
        },
    )?;
    shutdown(handle, client)
}

fn cdc_stream(round: &mut Round, started: Instant, seed: u64, counts: (usize, usize)) -> Res<()> {
    let mut cdc = sc::cdc(seed)?;
    let cycles = counts.0 + counts.1;
    let batches: Vec<Vec<Tuple>> = (0..cycles).map(|_| cdc.next_batch()).collect();
    round.input_digest = cdc.digest.hex();
    let wal_before = cdc.wal_len();
    drive(
        round,
        started,
        counts,
        |i| batches[i].clone(),
        |batch| cdc.cycle(batch),
        |i, rows| {
            let want = sc::big_orders_in(&batches[i]);
            if rows != want {
                return Err(format!("poll delivered {rows} view rows, expected {want}"));
            }
            Ok(())
        },
    )?;
    // An exact count: WAL growth per user byte inserted, over every
    // cycle (a warm-up cycle writes the same frames as a timed one).
    // It must repeat to the digit across rounds.
    let user_bytes = cycles * sc::BATCH_ROWS * sc::USER_BYTES_PER_ROW;
    let ratio = (cdc.wal_len() - wal_before) as f64 / user_bytes as f64;
    round
        .exact
        .push(("wal_bytes_per_user_byte".into(), format!("{ratio:.6}")));
    cdc.verify()
}

fn cdc_recover(round: &mut Round, started: Instant, seed: u64, counts: (usize, usize)) -> Res<()> {
    let mut cdc = sc::cdc(seed)?;
    for _ in 0..RECOVER_CYCLES {
        let batch = cdc.next_batch();
        cdc.cycle(batch)?;
    }
    round.input_digest = cdc.digest.hex();
    let image = cdc.storage.dump();
    round.exact.push((
        "wal_bytes".into(),
        image.get(WAL_FILE).map_or(0, Vec::len).to_string(),
    ));
    cdc.verify()?;
    drive(
        round,
        started,
        counts,
        // Copying the image is the crash, not the recovery.
        |_| MemStorage::from_files(image.clone()),
        |storage| {
            step(
                "open_durable",
                Engine::open_durable(storage, DurableOptions::default()),
            )
        },
        |i, engine| {
            let stored = engine
                .instance(sc::ORDERS_INSTANCE)
                .ok_or("instance not recovered")?;
            if stored.total_tuples() != cdc.shadow.total_tuples() {
                return Err(format!("{} tuples recovered", stored.total_tuples()));
            }
            if deep(i, counts) && !sc::db_set_eq(&stored, &cdc.shadow) {
                return Err("recovered instance differs from the generated one".into());
            }
            let status = step(
                "subscriber_status",
                engine.subscriber_status(cdc.subscriber),
            )?;
            if status.cursor != cdc.replica.cursor {
                return Err(format!(
                    "cursor {} recovered, {} acked",
                    status.cursor, cdc.replica.cursor
                ));
            }
            Ok(())
        },
    )
}

/// Run one round of `spec` in this process: `counts` = `(warm-up,
/// timed)` ops. `started` is when the process began, so `setup_s`
/// covers everything before the first timed op: input generation,
/// engine build, server boot, connect, warm-up.
pub fn run_round(spec: &Spec, seed: u64, counts: (usize, usize), started: Instant) -> Round {
    let mut round = Round::default();
    match (spec.run)(&mut round, started, seed, counts) {
        Ok(()) => round.oracle_ok = true,
        Err(e) => eprintln!("{}: {e}", spec.name),
    }
    round.peak_rss_mb = crate::host::peak_rss_mb();
    round
}
