//! The million-tuple soak harness.
//!
//! Times the chase and CQ hot paths over the `mm_workload::scale`
//! scenario families (snowflake / inheritance / evolution) at three
//! tiers (10^4, 10^5, 10^6 source tuples), one point per family, path
//! and tier. A comparison against an earlier layout is a comparison of
//! two commits' `BENCH_scale.json` files, not a second leg in this one.
//!
//! The mid tier crosses scale with the engine's operational dimensions:
//! threads (1 vs host), budgets (unbounded vs a tripping cap),
//! durability (put/exchange/checkpoint/recover round-trip incl. the v4
//! snapshot pool section), faults (torn WAL tail recovery), and a live
//! wire cell scraping the server's own p99 and queue depth through the
//! introspection ops (DESIGN.md §15). Each cell with a plain run to
//! compare against asserts its result bit-identical to it.
//!
//! `main` writes `BENCH_scale.json` at the workspace root. `SCALE_SMOKE=1`
//! (the CI smoke profile) runs the 10^4 tier alone. `attested` follows
//! the other benches: timings from a host with < 4 cpus are recorded
//! but flagged as shape-only evidence.

use criterion::{criterion_group, Criterion};
use mm_bench::{compile_and_chase, timed};
use mm_engine::prelude::*;
use mm_repository::codec::{Encode, Writer};
use mm_server::{Client, Server, ServerConfig};
use mm_workload::scale::{snowflake_scale, ScaleScenario};
use std::io::Write as _;

const FULL_TIERS: [usize; 3] = [10_000, 100_000, 1_000_000];
const SMOKE_TIERS: [usize; 1] = [10_000];
const SEED: u64 = 42;

fn tiers() -> &'static [usize] {
    if std::env::var("SCALE_SMOKE").is_ok_and(|v| v == "1") {
        &SMOKE_TIERS
    } else {
        &FULL_TIERS
    }
}

/// Canonical codec bytes of a database — the bit-identity witness.
fn db_bytes(db: &Database) -> bytes::Bytes {
    let mut w = Writer::new();
    db.encode(&mut w);
    w.finish()
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time one hot path over a freshly generated scenario, returning wall
/// ms; generation cost is excluded.
fn run_path(scenario: ScenarioFn, tier: usize, path: &str) -> f64 {
    let sc = scenario(tier, SEED);
    let t = match path {
        "chase" => timed(|| chase(&sc, &ExecBudget::unbounded()).expect("ok")).1,
        "cq" => timed(|| find_homomorphisms(&sc.query, &sc.db)).1,
        other => unreachable!("unknown path {other}"),
    };
    ms(t)
}

/// One exchange of the scenario from scratch under `budget`.
fn chase(sc: &ScaleScenario, budget: &ExecBudget) -> Result<(Database, ChaseStats), ChaseFailure> {
    compile_and_chase(&sc.target, &sc.tgds, &sc.db, budget)
}

/// Builds one scale scenario: `(tuples, seed) -> scenario`.
type ScenarioFn = fn(usize, u64) -> ScaleScenario;

fn scenario_fns() -> [(&'static str, ScenarioFn); 3] {
    [
        ("snowflake", mm_workload::scale::snowflake_scale as ScenarioFn),
        ("inheritance", mm_workload::scale::inheritance_scale),
        ("evolution", mm_workload::scale::evolution_scale),
    ]
}

// --- criterion groups (smoke tier only: the soak matrix lives in main) ----

fn bench_scale_chase(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_chase_10k");
    group.sample_size(10);
    for (name, f) in scenario_fns() {
        let sc = f(10_000, SEED);
        group.bench_function(name, |b| b.iter(|| chase(&sc, &ExecBudget::unbounded())));
    }
    group.finish();
}

fn bench_scale_cq(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_cq_10k");
    group.sample_size(10);
    for (name, f) in scenario_fns() {
        let sc = f(10_000, SEED);
        group.bench_function(name, |b| b.iter(|| find_homomorphisms(&sc.query, &sc.db)));
    }
    group.finish();
}

// --- the soak matrix ------------------------------------------------------

struct Point {
    json: String,
}

fn hot_path_points(points: &mut Vec<Point>) {
    for &tier in tiers() {
        for (name, f) in scenario_fns() {
            for path in ["chase", "cq"] {
                let t = run_path(f, tier, path);
                println!("{name:<12} {path:<6} tier {tier:>9}: {t:>10.1} ms");
                points.push(Point {
                    json: format!(
                        "    {{\"cell\": \"hot_path\", \"scenario\": \"{name}\", \"path\": \"{path}\", \"tuples\": {tier}, \"ms\": {t:.1}}}"
                    ),
                });
            }
        }
    }
}

/// Mid tier for the operational matrix: the middle of whatever tiers
/// ran (the only tier under smoke).
fn mid_tier() -> usize {
    let t = tiers();
    t[t.len() / 2]
}

fn thread_cell(points: &mut Vec<Point>) {
    let sc = snowflake_scale(mid_tier(), SEED);
    let program = ChaseProgram::compile(&sc.tgds, &sc.db);
    let on = |threads| {
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let ctx = &mut ExecCtx { threads, ..ExecCtx::new(&mut gov) };
        program.run_st(&sc.target, &sc.db, ctx).expect("unbounded").target
    };
    let (seq, t1) = timed(|| on(1));
    let host = mm_parallel::available_parallelism();
    let (par, tn) = timed(|| on(host));
    assert_eq!(db_bytes(&seq), db_bytes(&par), "parallel chase diverged at scale");
    println!(
        "matrix threads      tier {:>9}: 1 thread {:>10.1} ms  {host} threads {:>10.1} ms",
        mid_tier(), ms(t1), ms(tn)
    );
    points.push(Point {
        json: format!(
            "    {{\"cell\": \"threads\", \"scenario\": \"snowflake\", \"tuples\": {}, \"threads_1_ms\": {:.1}, \"threads_host_ms\": {:.1}, \"host_threads\": {host}, \"bit_identical\": true}}",
            mid_tier(), ms(t1), ms(tn)
        ),
    });
}

fn budget_cell(points: &mut Vec<Point>) {
    let sc = snowflake_scale(mid_tier(), SEED);
    // generous: completes identically to the unbudgeted run
    let generous = ExecBudget::unbounded().with_steps(u64::MAX / 2);
    let (full, t_ok) = timed(|| chase(&sc, &generous).expect("generous budget"));
    let (plain, _) = chase(&sc, &ExecBudget::unbounded()).expect("unbounded");
    assert_eq!(db_bytes(&full.0), db_bytes(&plain), "budgeted chase diverged");
    // tight: trips with a typed error, never a panic or partial commit
    let tight = ExecBudget::unbounded().with_steps(1_000);
    let (tripped, t_trip) = timed(|| chase(&sc, &tight));
    assert!(tripped.is_err(), "a 1k-step budget must trip at the mid tier");
    println!(
        "matrix budgets      tier {:>9}: generous {:>10.1} ms  tight trips in {:>7.1} ms",
        mid_tier(), ms(t_ok), ms(t_trip)
    );
    points.push(Point {
        json: format!(
            "    {{\"cell\": \"budgets\", \"scenario\": \"snowflake\", \"tuples\": {}, \"generous_ms\": {:.1}, \"tight_trip_ms\": {:.1}, \"typed_trip\": true, \"bit_identical\": true}}",
            mid_tier(), ms(t_ok), ms(t_trip)
        ),
    });
}

fn durability_cell(points: &mut Vec<Point>) {
    let sc = snowflake_scale(mid_tier(), SEED);
    let storage = MemStorage::new();
    let engine =
        Engine::open_durable(storage.clone(), DurableOptions::default()).expect("open durable");
    engine.add_schema(sc.source.clone()).expect("schema");
    engine.add_schema(sc.target.clone()).expect("schema");
    let mut mapping = Mapping::new(sc.source.name.clone(), sc.target.name.clone());
    for t in sc.tgds.clone() {
        mapping.push_tgd(t);
    }
    engine.add_mapping("soak", mapping).expect("mapping");
    let (_, t_put) = timed(|| engine.put_instance("src", sc.db.clone()).expect("put"));
    let ((out, _), t_ex) =
        timed(|| engine.exchange("soak", &sc.target.name, &sc.db).expect("exchange"));
    let (_, t_ckpt) = timed(|| engine.checkpoint().expect("checkpoint"));
    let before = db_bytes(&engine.instance("src").expect("tracked instance"));
    drop(engine);
    // recovery loads the v4 snapshot (intern-pool section included)
    let (reopened, t_rec) = timed(|| {
        Engine::open_durable(MemStorage::from_files(storage.dump()), DurableOptions::default())
            .expect("recover")
    });
    let after = db_bytes(&reopened.instance("src").expect("recovered instance"));
    assert_eq!(before, after, "durable round-trip diverged at scale");
    let _ = out;
    println!(
        "matrix durability   tier {:>9}: put {:>7.1} ms  exchange {:>9.1} ms  checkpoint {:>7.1} ms  recover {:>7.1} ms",
        mid_tier(), ms(t_put), ms(t_ex), ms(t_ckpt), ms(t_rec)
    );
    points.push(Point {
        json: format!(
            "    {{\"cell\": \"durability\", \"scenario\": \"snowflake\", \"tuples\": {}, \"put_ms\": {:.1}, \"exchange_ms\": {:.1}, \"checkpoint_ms\": {:.1}, \"recover_ms\": {:.1}, \"bit_identical\": true}}",
            mid_tier(), ms(t_put), ms(t_ex), ms(t_ckpt), ms(t_rec)
        ),
    });
}

fn fault_cell(points: &mut Vec<Point>) {
    let sc = snowflake_scale(mid_tier(), SEED);
    let storage = MemStorage::new();
    let engine =
        Engine::open_durable(storage.clone(), DurableOptions::default()).expect("open durable");
    engine.put_instance("src", sc.db.clone()).expect("put");
    engine.checkpoint().expect("checkpoint");
    let committed = db_bytes(&engine.instance("src").expect("tracked"));
    // post-checkpoint writes land in the WAL; tear its tail mid-frame
    engine
        .insert_batch("src", vec![(
            "fact".to_string(),
            vec![Tuple::from([
                Value::Int(-1),
                Value::Int(0),
                Value::Int(0),
                Value::text("channel-0-direct-to-consumer"),
            ])],
        )])
        .expect("post-checkpoint batch");
    drop(engine);
    let mut files = storage.dump();
    let torn = files
        .get_mut(WAL_FILE)
        .expect("post-checkpoint batch must leave a WAL");
    let keep = torn.len() / 2;
    torn.truncate(keep);
    let (recovered, t_rec) = timed(|| {
        Engine::open_durable(MemStorage::from_files(files.clone()), DurableOptions::default())
            .expect("torn-tail recovery must succeed")
    });
    let after = db_bytes(&recovered.instance("src").expect("instance survives the tear"));
    assert_eq!(committed, after, "torn WAL tail must recover the committed prefix");
    println!(
        "matrix faults       tier {:>9}: torn WAL tail ({keep} bytes kept) recovered in {:>7.1} ms",
        mid_tier(), ms(t_rec)
    );
    points.push(Point {
        json: format!(
            "    {{\"cell\": \"faults\", \"scenario\": \"snowflake\", \"tuples\": {}, \"fault\": \"torn_wal_tail\", \"recover_ms\": {:.1}, \"committed_prefix_recovered\": true}}",
            mid_tier(), ms(t_rec)
        ),
    });
}

/// Live introspection scrape: serve mid-tier exchanges over the wire,
/// then read the server's own p99 and queue depth back through the
/// Metrics/Health ops — the soak evidence for the full request path.
fn server_cell(points: &mut Vec<Point>) {
    // a wire-sized slice of the scenario: frames round-trip the full
    // codec, so the payload exercises symbol encode/decode end to end
    let sc = snowflake_scale(mid_tier().min(20_000), SEED);
    let tel = Telemetry::new(RingCollector::with_capacity(4_096));
    let engine = Engine::with_config(EngineConfig { telemetry: tel, ..EngineConfig::default() })
        .expect("engine");
    engine.add_schema(sc.source.clone()).expect("schema");
    engine.add_schema(sc.target.clone()).expect("schema");
    let mut mapping = Mapping::new(sc.source.name.clone(), sc.target.name.clone());
    for t in sc.tgds.clone() {
        mapping.push_tgd(t);
    }
    engine.add_mapping("soak", mapping).expect("mapping");
    let handle = Server::start(engine, ServerConfig::default()).expect("start server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    const REQUESTS: usize = 8;
    let (_, t_all) = timed(|| {
        for _ in 0..REQUESTS {
            client.exchange("soak", &sc.target.name, &sc.db).expect("wire exchange");
        }
    });
    let entries = client.metrics().expect("metrics scrape");
    let read = |key: &str| entries.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v);
    let p99 = read("server.service_us_p99");
    let alloc_tuples = read("alloc.tuples");
    let alloc_interned = read("alloc.interned");
    let health = client.health().expect("health scrape");
    println!(
        "matrix server       tier {:>9}: {REQUESTS} exchanges in {:>8.1} ms  service p99 {p99} us  queue depth {}  alloc.tuples {alloc_tuples}  alloc.interned {alloc_interned}",
        sc.tuples(), ms(t_all), health.queue_depth
    );
    assert!(p99 > 0, "served traffic must fill the service-time histogram");
    assert!(alloc_interned > 0, "scale exchanges must populate the alloc.interned gauge");
    points.push(Point {
        json: format!(
            "    {{\"cell\": \"server_scrape\", \"scenario\": \"snowflake\", \"tuples\": {}, \"requests\": {REQUESTS}, \"total_ms\": {:.1}, \"service_p99_us\": {p99}, \"queue_depth\": {}, \"alloc_tuples\": {alloc_tuples}, \"alloc_interned\": {alloc_interned}}}",
            sc.tuples(), ms(t_all), health.queue_depth
        ),
    });
    drop(client);
    handle.shutdown().expect("shutdown");
}

fn emit_baseline() {
    let host_cpus = mm_parallel::available_parallelism();
    let smoke = tiers().len() == 1;
    let mut points: Vec<Point> = Vec::new();

    hot_path_points(&mut points);
    thread_cell(&mut points);
    budget_cell(&mut points);
    durability_cell(&mut points);
    fault_cell(&mut points);
    server_cell(&mut points);

    let body = format!(
        "{{\n  \"experiment\": \"scale_soak\",\n  \"description\": \"million-tuple soak: chase and CQ hot paths over snowflake/inheritance/evolution scenarios at 10^4..10^6 source tuples, one single-thread wall-clock point per family, path and tier; the mid tier crosses scale with threads, budgets, durability (v4 snapshot with intern-pool section), torn-WAL faults, and a live server scrape via the Metrics/Health introspection ops\",\n  \"command\": \"cargo bench -p mm-bench --bench scale\",\n  \"host_cpus\": {host_cpus},\n  \"attested\": {attested},\n  \"smoke\": {smoke},\n  \"points\": [\n{}\n  ]\n}}\n",
        points.iter().map(|p| p.json.as_str()).collect::<Vec<_>>().join(",\n"),
        attested = host_cpus >= 4,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_scale.json");
    f.write_all(body.as_bytes()).expect("write BENCH_scale.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_scale_chase, bench_scale_cq);

fn main() {
    benches();
    emit_baseline();
}
