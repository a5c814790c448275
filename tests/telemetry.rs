//! Tier-1 telemetry suite: EXPLAIN reports populated and byte-stable,
//! degradation records mirrored one-to-one as events, plan-cache
//! counters tracking hit/miss/invalidation, and the JSON-lines stream
//! landing parseable on a `Storage` backend.

use model_management::prelude::*;
use std::sync::Arc;

/// Source schema R(a,b) ⋈ S(b,c), target U(a,c): a two-atom join body
/// so the compiled plan has a non-trivial join order.
fn join_scenario() -> (Schema, Schema, Mapping, Database) {
    let src = SchemaBuilder::new("Src")
        .relation("R", &[("a", DataType::Int), ("b", DataType::Int)])
        .relation("S", &[("b", DataType::Int), ("c", DataType::Int)])
        .build()
        .unwrap();
    let tgt = SchemaBuilder::new("Tgt")
        .relation("U", &[("a", DataType::Int), ("c", DataType::Int)])
        .build()
        .unwrap();
    let mut m = Mapping::new("Src", "Tgt");
    m.push_tgd(Tgd::new(
        vec![Atom::vars("R", &["x", "y"]), Atom::vars("S", &["y", "z"])],
        vec![Atom::vars("U", &["x", "z"])],
    ));
    let mut db = Database::empty_of(&src);
    for i in 0..4i64 {
        db.insert("R", Tuple::from([Value::Int(i), Value::Int(i + 1)]));
        db.insert("S", Tuple::from([Value::Int(i + 1), Value::Int(i + 2)]));
    }
    (src, tgt, m, db)
}

fn unbounded() -> Governor {
    Governor::new(&ExecBudget::unbounded())
}

fn engine_with(src: Schema, tgt: Schema, m: Mapping, tel: Telemetry) -> Engine {
    let engine =
        Engine::with_config(EngineConfig { telemetry: tel, ..Default::default() }).unwrap();
    engine.add_schema(src).unwrap();
    engine.add_schema(tgt).unwrap();
    engine.add_mapping("m", m).unwrap();
    engine
}

/// `Engine::explain_exchange` reports the compiled join order with
/// per-atom cardinalities, the per-round deltas, and renders
/// byte-identically across two identical runs.
#[test]
fn explain_exchange_is_populated_and_byte_stable() {
    let (src, tgt, m, db) = join_scenario();
    let engine = engine_with(src, tgt, m, Telemetry::disabled());

    let (out, stats, explain) =
        engine.explain_exchange("m", "Tgt", &db, &mut unbounded()).unwrap();
    assert_eq!(out.relation("U").unwrap().len(), 4);
    assert_eq!(stats.fired, 4);

    // program shape: one tgd, two-atom join order, cardinalities from db
    assert_eq!(explain.mode, "st");
    assert_eq!(explain.tgds.len(), 1);
    let body = &explain.tgds[0].body;
    assert_eq!(body.join_order.len(), 2);
    assert!(body.join_order.contains(&"R".to_string()));
    assert!(body.join_order.contains(&"S".to_string()));
    assert!(body.atoms.iter().all(|a| a.rows_total == 4));
    // the second atom in join order probes on the shared variable
    assert!(!body.atoms[1].probe_cols.is_empty());

    // round history: the st chase is a single pass that built the target
    assert_eq!(explain.rounds.len(), 1);
    assert_eq!(explain.rounds[0].round, 1);
    assert_eq!(explain.rounds[0].new_tuples, 4);

    // rendered text is deterministic: two identical runs, identical bytes
    let (_, _, again) = engine.explain_exchange("m", "Tgt", &db, &mut unbounded()).unwrap();
    assert_eq!(explain, again);
    let a = explain.to_node().to_string();
    let b = again.to_node().to_string();
    assert_eq!(a, b);
    assert!(a.starts_with("chase [mode=st"), "{a}");
    assert!(a.contains("join_order="), "{a}");
    assert!(a.contains("round#1"), "{a}");
}

/// The general chase explain carries one entry per fixpoint round, with
/// the productive rounds' deltas and the final empty round visible.
#[test]
fn explain_chase_general_reports_per_round_deltas() {
    let schema = SchemaBuilder::new("G")
        .relation("P", &[("a", DataType::Int)])
        .relation("Q", &[("a", DataType::Int)])
        .relation("W", &[("a", DataType::Int)])
        .build()
        .unwrap();
    let mut m = Mapping::new("G", "G");
    m.push_tgd(Tgd::new(vec![Atom::vars("P", &["x"])], vec![Atom::vars("Q", &["x"])]));
    m.push_tgd(Tgd::new(vec![Atom::vars("Q", &["x"])], vec![Atom::vars("W", &["x"])]));
    let engine = Engine::new();
    engine.add_schema(schema.clone()).unwrap();
    engine.add_mapping("m", m).unwrap();
    let mut db = Database::empty_of(&schema);
    db.insert("P", Tuple::from([Value::Int(7)]));

    let (out, outcome, explain) = engine.explain_chase_general("m", "G", &db).unwrap();
    assert!(matches!(outcome, ChaseOutcome::Done(_)));
    assert_eq!(out.relation("W").unwrap().len(), 1);

    assert_eq!(explain.mode, "general");
    assert!(explain.rounds.len() >= 2, "{:?}", explain.rounds);
    assert!(explain.rounds.iter().any(|r| r.new_tuples > 0));
    // the last round is the fixpoint check: nothing new
    assert_eq!(explain.rounds.last().unwrap().new_tuples, 0);
    // rounds are numbered 1..=n in order
    for (i, r) in explain.rounds.iter().enumerate() {
        assert_eq!(r.round, i + 1);
    }

    let (_, _, again) = engine.explain_chase_general("m", "G", &db).unwrap();
    assert_eq!(explain.to_node().to_string(), again.to_node().to_string());
}

/// The mediator explains which path it chose and why; a degraded plan
/// names the typed cause, and the rendering is byte-stable.
#[test]
fn mediation_explain_reports_path_and_cause() {
    let schema = SchemaBuilder::new("Base")
        .relation("R0", &[("a", DataType::Int), ("b", DataType::Int)])
        .build()
        .unwrap();
    let mut db = Database::empty_of(&schema);
    for i in 0..10i64 {
        db.insert("R0", Tuple::from([Value::Int(i), Value::Int(i)]));
    }
    let mut l1 = ViewSet::new("Base", "L1");
    l1.push(ViewDef::new("V1", Expr::base("R0")));
    let mut l2 = ViewSet::new("L1", "L2");
    l2.push(ViewDef::new("V2", Expr::base("V1").project(&["a"])));
    let mediator = Mediator::new(&schema, vec![&l1, &l2]);

    let fast = mediator.plan(&ExecBudget::unbounded()).unwrap();
    let explain = mediator.explain_plan(&fast);
    assert_eq!(explain.mode, MediationMode::Collapsed);
    assert_eq!(explain.hops, 2);
    assert!(!explain.why.is_empty());
    assert!(explain.cause.is_none());
    let text = explain.to_node().to_string();
    assert!(text.starts_with("mediation [mode=collapsed hops=2"), "{text}");

    let slow = mediator.plan(&ExecBudget::unbounded().with_clauses(1)).unwrap();
    let degraded = mediator.explain_plan(&slow);
    assert_eq!(degraded.mode, MediationMode::Chained);
    assert!(degraded.cause.is_some(), "degraded plan must name its cause");
    assert!(degraded.to_node().to_string().contains("cause="));

    // byte-stable: planning twice renders identically
    let again = mediator.explain_plan(&mediator.plan(&ExecBudget::unbounded()).unwrap());
    assert_eq!(text, again.to_node().to_string());
    let degraded_again =
        mediator.explain_plan(&mediator.plan(&ExecBudget::unbounded().with_clauses(1)).unwrap());
    assert_eq!(degraded.to_node().to_string(), degraded_again.to_node().to_string());
}

/// Every mediator degradation record is mirrored as exactly one
/// `mediator.degraded` event and counted at the mediator site by cause.
#[test]
fn mediator_degradations_mirror_as_events() {
    let schema = SchemaBuilder::new("Base")
        .relation("R0", &[("a", DataType::Int)])
        .build()
        .unwrap();
    let mut l1 = ViewSet::new("Base", "L1");
    l1.push(ViewDef::new("V1", Expr::base("R0")));
    let mut l2 = ViewSet::new("L1", "L2");
    l2.push(ViewDef::new("V2", Expr::base("V1").project(&["a"])));
    let ring = RingCollector::with_capacity(64);
    let tel = Telemetry::new(ring.clone());
    let mediator = Mediator::new(&schema, vec![&l1, &l2]);
    let plan = |budget: &ExecBudget| {
        let mut gov = Governor::new(budget);
        mediator.plan_governed(&mut ExecCtx { telemetry: tel.clone(), ..ExecCtx::new(&mut gov) })
    };

    let tight = ExecBudget::unbounded().with_clauses(1);
    let mut recorded = 0usize;
    for _ in 0..3 {
        let plan = plan(&tight).unwrap();
        if plan.degradation().is_some() {
            recorded += 1;
        }
    }
    assert_eq!(recorded, 3);
    let events = ring.events_for("mediator.degraded");
    assert_eq!(events.len(), recorded, "one event per recorded degradation");
    for e in &events {
        assert!(e.field("cause").is_some());
        assert_eq!(e.field("hops"), Some(&FieldValue::U64(2)));
    }
    let metrics = tel.metrics().unwrap();
    assert_eq!(metrics.degradations_at(DegradationSite::Mediator), 3);
    assert_eq!(metrics.degradations_by(DegradationSite::Mediator, Cause::Clauses), 3);

    // the happy path emits nothing
    plan(&ExecBudget::unbounded()).unwrap();
    assert_eq!(ring.events_for("mediator.degraded").len(), 3);
}

/// Every IVM degradation record is mirrored as exactly one
/// `ivm.degraded` event. The incremental pass shares one step meter
/// across views while each recompute gets a fresh one, so an expensive
/// self-join view drains the shared meter and the cheap identity view
/// behind it degrades — its delta rules trip, its recompute passes. The
/// scan finds that window deterministically (it is at least one step
/// wide: any budget covering the join's delta rules but not also the
/// identity view's leaves the fresh recompute meter with room to spare).
#[test]
fn ivm_degradations_mirror_as_events() {
    let schema = SchemaBuilder::new("Base")
        .relation("R0", &[("a", DataType::Int), ("b", DataType::Int)])
        .build()
        .unwrap();
    let mut db = Database::empty_of(&schema);
    for i in 0..6i64 {
        db.insert("R0", Tuple::from([Value::Int(i), Value::Int(i + 1)]));
    }
    let mut views = ViewSet::new("Base", "V");
    views.push(ViewDef::new(
        "SelfJoin",
        Expr::base("R0").join(Expr::base("R0").rename(&[("a", "b"), ("b", "c")]), &[("b", "b")]),
    ));
    views.push(ViewDef::new("Id", Expr::base("R0")));
    let plan = MaintenancePlan::compile(&views, &schema);
    // three rows, so the join's delta rules (three terms over each) cost
    // well over the nine steps of recomputing the identity view
    let mut delta = Delta::new();
    for a in 97..100i64 {
        delta.insert("R0", Tuple::from([Value::Int(a), Value::Int(0)]));
    }

    let mut witnessed = false;
    for steps in 1..=4_000u64 {
        let ring = RingCollector::with_capacity(64);
        let tel = Telemetry::new(ring.clone());
        let mut mat = materialize_views(&views, &schema, &db).unwrap();
        let mut gov = Governor::new(&ExecBudget::unbounded().with_steps(steps));
        let ctx = &mut ExecCtx { telemetry: tel.clone(), ..ExecCtx::new(&mut gov) };
        let Ok(reports) = plan.maintain(&schema, &db, &delta, &mut mat, ctx) else {
            continue; // even a fresh recompute meter tripped: below the window
        };
        let degraded: Vec<_> = reports.iter().filter(|r| r.degradation.is_some()).collect();
        let events = ring.events_for("ivm.degraded");
        assert_eq!(events.len(), degraded.len(), "one event per recorded degradation");
        assert_eq!(
            tel.metrics().unwrap().degradations_at(DegradationSite::Ivm) as usize,
            degraded.len()
        );
        for e in &events {
            assert!(e.field("cause").is_some());
            assert!(e.field("kind").is_some());
        }
        if !degraded.is_empty() {
            witnessed = true;
            // correctness survives the degraded path
            let mut new_db = db.clone();
            delta.apply_to(&mut new_db);
            let oracle = materialize_views(&views, &schema, &new_db).unwrap();
            for v in ["SelfJoin", "Id"] {
                assert!(oracle.relation(v).unwrap().set_eq(mat.relation(v).unwrap()));
            }
            break;
        }
    }
    assert!(witnessed, "no step budget produced a degradation with a passing recompute");
}

/// Satellite: plan-cache hits and misses are metered across repeated
/// exchanges of the same mapping version, a newly stored version
/// invalidates (new ArtifactId → miss), and a cache hit answers exactly
/// like a fresh engine's first call, which is a miss.
#[test]
fn plan_cache_counters_track_hits_misses_and_invalidation() {
    let (src, tgt, m, db) = join_scenario();
    let ring = RingCollector::with_capacity(256);
    let tel = Telemetry::new(ring.clone());
    let engine = engine_with(src.clone(), tgt.clone(), m.clone(), tel.clone());

    let value = |key: &str| tel.metrics().unwrap().snapshot().value(key);
    assert_eq!(value("plan_cache_hits"), 0);
    assert_eq!(value("plan_cache_misses"), 0);

    engine.exchange("m", "Tgt", &db).unwrap();
    assert_eq!((value("plan_cache_hits"), value("plan_cache_misses")), (0, 1));
    engine.exchange("m", "Tgt", &db).unwrap();
    engine.exchange("m", "Tgt", &db).unwrap();
    assert_eq!((value("plan_cache_hits"), value("plan_cache_misses")), (2, 1));

    // storing a new version yields a new ArtifactId: the next exchange
    // must compile (miss), later ones hit again
    engine.add_mapping("m", m.clone()).unwrap();
    engine.exchange("m", "Tgt", &db).unwrap();
    assert_eq!((value("plan_cache_hits"), value("plan_cache_misses")), (2, 2));
    let (cached, _) = engine.exchange("m", "Tgt", &db).unwrap();
    assert_eq!((value("plan_cache_hits"), value("plan_cache_misses")), (3, 2));

    let fresh_tel = Telemetry::new(RingCollector::with_capacity(256));
    let fresh = engine_with(src, tgt, m, fresh_tel.clone());
    let (compiled, _) = fresh.exchange("m", "Tgt", &db).unwrap();
    assert_eq!(fresh_tel.metrics().unwrap().snapshot().value("plan_cache_misses"), 1);
    assert_eq!(cached, compiled);
}

/// Engine operators nest spans (engine.exchange → chase.st), carry the
/// governor's final consumption in success-path fields, and feed the
/// chase counters.
#[test]
fn operator_spans_nest_and_carry_consumption() {
    let (src, tgt, m, db) = join_scenario();
    let ring = RingCollector::with_capacity(256);
    let tel = Telemetry::new(ring.clone());
    let engine = engine_with(src, tgt, m, tel.clone());
    engine.exchange("m", "Tgt", &db).unwrap();

    let chase = &ring.events_for("chase.st")[0];
    let outer = &ring.events_for("engine.exchange")[0];
    assert_eq!(chase.parent_id, Some(outer.span_id), "chase span nests under engine span");
    assert!(outer.artifact.starts_with("mapping:m@"), "{}", outer.artifact);
    // success-path consumption fields from the governor
    for key in ["steps", "rows", "wall_us"] {
        assert!(chase.field(key).is_some(), "missing {key}");
    }
    assert!(matches!(chase.field("steps"), Some(FieldValue::U64(n)) if *n > 0));

    let snap = tel.metrics().unwrap().snapshot();
    assert_eq!(snap.value("chase_firings"), 4);
    assert_eq!(snap.value("chase_delta_tuples"), 4);
    assert!(snap.value("budget_steps_consumed") > 0);
    assert_eq!(snap.value("chase_count"), 1);
}

/// A durable, telemetry-enabled engine meters WAL frames/bytes,
/// checkpoints, and recovery.
#[test]
fn durable_engine_meters_wal_checkpoint_and_recovery() {
    let storage = MemStorage::new();
    let (src, tgt, m, db) = join_scenario();
    {
        let ring = RingCollector::with_capacity(256);
        let tel = Telemetry::new(ring);
        let engine = Engine::with_config(EngineConfig {
            durability: Durability::Durable {
                storage: storage.clone(),
            },
            telemetry: tel.clone(),
            ..Default::default()
        })
        .unwrap();
        engine.add_schema(src).unwrap();
        engine.add_schema(tgt).unwrap();
        engine.add_mapping("m", m).unwrap();
        engine.exchange("m", "Tgt", &db).unwrap();
        let snap = tel.metrics().unwrap().snapshot();
        assert!(snap.value("wal_frames_appended") >= 3);
        assert!(snap.value("wal_bytes_appended") > 0);
        assert_eq!(snap.value("recoveries"), 1);
        engine.repo.checkpoint().unwrap();
        let snap = tel.metrics().unwrap().snapshot();
        assert_eq!(snap.value("checkpoints"), 1);
        assert_eq!(snap.value("checkpoint_count"), 1);
    }
    // reopen: recovery is timed and the recovered event names the state
    let ring = RingCollector::with_capacity(256);
    let tel = Telemetry::new(ring.clone());
    let engine = Engine::with_config(EngineConfig {
        durability: Durability::Durable { storage },
        telemetry: tel.clone(),
        ..Default::default()
    })
    .unwrap();
    assert!(engine.repo.latest_mapping("m").is_ok());
    let snap = tel.metrics().unwrap().snapshot();
    assert_eq!(snap.value("recoveries"), 1);
    assert_eq!(snap.value("recovery_count"), 1);
    let recovered = ring.events_for("repository.recovered");
    assert_eq!(recovered.len(), 1);
    assert!(recovered[0].field("snapshot_seq").is_some());
}

/// Minimal JSON reader used to prove the telemetry stream is parseable
/// (the workspace has no real serde). Accepts exactly one value and
/// requires the whole line to be consumed.
mod json {
    pub fn check(line: &str) -> Result<(), String> {
        let b = line.as_bytes();
        let mut i = 0usize;
        value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, b"true"),
            Some(b'f') => literal(b, i, b"false"),
            Some(b'n') => literal(b, i, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            other => Err(format!("unexpected {other:?} at {i}")),
        }
    }

    fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
        if b[*i..].starts_with(lit) {
            *i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at {i}"))
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        while *i < b.len() && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-')) {
            *i += 1;
        }
        if *i == start {
            Err(format!("empty number at {start}"))
        } else {
            Ok(())
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        *i += 1; // opening quote
        while *i < b.len() {
            match b[*i] {
                b'\\' => {
                    *i += 2;
                }
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                _ => *i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
        *i += 1; // '{'
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, i);
            string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(format!("expected ':' at {i}"));
            }
            *i += 1;
            value(b, i)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
        *i += 1; // '['
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(());
        }
        loop {
            value(b, i)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }
}

/// Satellite: histogram rows render under stable zero-elided keys — a
/// fresh registry snapshot carries no `_p50/_p90/_p99` keys at all (so
/// it is byte-identical to the pre-histogram era), touched histograms
/// materialize exactly their five keys, and rendering twice is
/// byte-identical.
#[test]
fn metrics_snapshot_elides_empty_histograms_and_is_byte_stable() {
    let m = EngineMetrics::new();
    let fresh = m.snapshot();
    for suffix in ["_p50", "_p90", "_p99"] {
        assert!(
            fresh.values.keys().all(|k| !k.ends_with(suffix)),
            "fresh snapshot must elide all histograms, found a {suffix} key"
        );
    }
    assert_eq!(fresh.to_string(), m.snapshot().to_string());

    m.observe_hist(Hist::ServerServiceUs, 700);
    m.observe_hist(Hist::ServerServiceUs, 90);
    m.observe_op_service_us(ServerOp::Ping, 12);
    let snap = m.snapshot();
    for key in [
        "server.service_us_p50",
        "server.service_us_p90",
        "server.service_us_p99",
        "server.service_us_max",
        "server.service_us_count",
        "server.op.ping.service_us_count",
    ] {
        assert!(snap.values.contains_key(key), "missing histogram key {key}");
    }
    // untouched histograms stay elided even once others are live
    assert!(!snap.values.contains_key("wal.append_us_count"));
    assert!(!snap.values.contains_key("server.op.exchange.service_us_count"));
    assert_eq!(snap.value("server.service_us_count"), 2);
    assert_eq!(snap.value("server.service_us_max"), 700);
    // two renders of the same state are byte-identical
    assert_eq!(snap.to_string(), m.snapshot().to_string());
}

/// Satellite: the log-bucketed histogram never panics, reports count
/// and max exactly, and its quantiles are monotone upper bounds on the
/// true order statistics within the promised 2x relative error.
mod histogram_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn observes_anything_with_exact_count_and_max(
            values in proptest::collection::vec(any::<u64>(), 0..256),
        ) {
            let h = Histogram::new();
            for &v in &values {
                h.observe(v);
            }
            let s = h.summary();
            prop_assert_eq!(s.count, values.len() as u64);
            prop_assert_eq!(s.max, values.iter().copied().max().unwrap_or(0));
        }

        #[test]
        fn quantiles_are_monotone_bounded_upper_estimates(
            values in proptest::collection::vec(any::<u64>(), 1..256),
            qs in proptest::collection::vec(0.0f64..1.0, 1..8),
        ) {
            let h = Histogram::new();
            for &v in &values {
                h.observe(v);
            }
            let s = h.summary();
            prop_assert!(s.p50 <= s.p90);
            prop_assert!(s.p90 <= s.p99);
            prop_assert!(s.p99 <= s.max);

            let mut sorted_q = qs;
            sorted_q.sort_by(|a, b| a.partial_cmp(b).expect("qs are finite"));
            let reported: Vec<u64> = sorted_q.iter().map(|&q| h.quantile(q)).collect();
            for w in reported.windows(2) {
                prop_assert!(w[0] <= w[1], "quantile not monotone: {w:?}");
            }

            // Each reported quantile is an upper bound on the true
            // order statistic, within 2x (power-of-two buckets), and
            // never exceeds the exact maximum.
            let mut sorted_v = values;
            sorted_v.sort_unstable();
            for (&q, &r) in sorted_q.iter().zip(&reported) {
                let rank = ((q * sorted_v.len() as f64).ceil() as usize)
                    .clamp(1, sorted_v.len());
                let truth = sorted_v[rank - 1];
                prop_assert!(r >= truth, "q={q}: reported {r} < true {truth}");
                prop_assert!(r >> 1 <= truth, "q={q}: reported {r} >2x true {truth}");
                prop_assert!(r <= s.max);
            }
        }
    }
}

/// The JSON-lines collector streams through `StorageLineSink` onto a
/// `MemStorage` backend; every line parses and carries the fixed keys.
#[test]
fn json_lines_stream_through_mem_storage_parses() {
    let storage = MemStorage::new();
    let sink = StorageLineSink::new(storage.clone(), "telemetry.jsonl");
    let collector = JsonLinesCollector::new(sink);
    let tel = Telemetry::new(collector.clone());

    let (src, tgt, m, db) = join_scenario();
    let engine = engine_with(src, tgt, m, tel);
    engine.exchange("m", "Tgt", &db).unwrap();
    engine.exchange("m", "Tgt", &db).unwrap();
    engine.explain_exchange("m", "Tgt", &db, &mut unbounded()).unwrap();

    let bytes = (storage as Arc<dyn Storage>).read("telemetry.jsonl").unwrap().unwrap();
    let text = String::from_utf8(bytes.to_vec()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 4, "expected several events, got {}", lines.len());
    for line in &lines {
        json::check(line).unwrap_or_else(|e| panic!("unparseable line ({e}): {line}"));
        assert!(line.contains("\"kind\":"), "{line}");
        assert!(line.contains("\"op\":"), "{line}");
        assert!(line.contains("\"fields\":"), "{line}");
    }
    assert!(lines.iter().any(|l| l.contains("\"op\":\"engine.exchange\"")));
    assert!(lines.iter().any(|l| l.contains("\"op\":\"chase.st\"")));
    assert_eq!(collector.write_errors(), 0);
}
