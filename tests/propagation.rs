//! End-to-end propagation parity suite (DESIGN.md §14).
//!
//! The headline property: a subscriber that applies the pushed
//! incremental deltas to its stale replica ends **bit-identical** to a
//! full recompute of its views over the current base instance — and
//! stays identical across forced mid-stream degradations
//! (overflow-triggered recompute-and-resync), client kills with
//! durable-cursor resume, and full engine restarts.
//!
//! Fault-injection claims proven here:
//! * a wedged subscriber never blocks the writer — every commit
//!   succeeds while the slow consumer is shed to resync-pending;
//! * degradations are recorded (counter + mirrored event), never
//!   silent;
//! * a killed client resumes from its durable cursor after an engine
//!   restart, and a stale cursor degrades to a cursor-lost resync
//!   rather than silently skipping events.

use mm_repository::codec::{Encode, Writer};
use model_management::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Fixture: base schema, views, and a subscriber-side replica.
// ---------------------------------------------------------------------

fn base_schema() -> Schema {
    SchemaBuilder::new("Base")
        .relation("R", &[("a", DataType::Int), ("b", DataType::Int)])
        .relation("S", &[("b", DataType::Int), ("c", DataType::Int)])
        .relation("X", &[("a", DataType::Int)])
        .build()
        .expect("static test schema")
}

/// One view per maintenance path: pass-through, filtered, a
/// two-relation join (fed on either side, and on both in one batch, so
/// all three delta terms fire), a self-join, a union, a projection that
/// collapses duplicates, a join whose key is a computed column (the
/// `scanned` fallback) and a difference (non-monotone: recomputed per
/// event; `X` is never fed, so it only grows and insert-only deltas can
/// carry it).
fn views() -> ViewSet {
    let mut vs = ViewSet::new("Base", "V");
    vs.push(ViewDef::new("VAll", Expr::base("R")));
    vs.push(ViewDef::new(
        "VPos",
        Expr::base("R")
            .select(Predicate::Cmp {
                op: CmpOp::Gt,
                left: Scalar::col("a"),
                right: Scalar::lit(0i64),
            })
            .project(&["a"]),
    ));
    vs.push(ViewDef::new("VJoin", Expr::base("R").join(Expr::base("S"), &[("b", "b")])));
    vs.push(ViewDef::new(
        "VSelf",
        Expr::base("R").join(Expr::base("R").rename(&[("a", "b"), ("b", "c")]), &[("b", "b")]),
    ));
    vs.push(ViewDef::new(
        "VUnion",
        Expr::base("R").project(&["b"]).union(Expr::base("S").project(&["c"])),
    ));
    vs.push(ViewDef::new("VBs", Expr::base("R").project(&["b"])));
    vs.push(ViewDef::new(
        "VScan",
        Expr::base("R").join(
            Expr::base("S")
                .extend("k", Scalar::Func(Func::Add, vec![Scalar::col("b"), Scalar::lit(1i64)]))
                .project(&["k", "c"]),
            &[("b", "k")],
        ),
    ));
    vs.push(ViewDef::new("VDiff", Expr::base("R").project(&["a"]).diff(Expr::base("X"))));
    vs
}

fn pairs(rows: &[(i64, i64)]) -> Vec<Tuple> {
    rows.iter().map(|(a, b)| Tuple::new(vec![Value::Int(*a), Value::Int(*b)])).collect()
}

fn seed_db(rows: &[(i64, i64)]) -> Database {
    let mut db = Database::empty_of(&base_schema());
    for t in pairs(rows) {
        db.insert("R", t);
    }
    for t in pairs(&[(1, 0), (2, 3), (10, 1)]) {
        db.insert("S", t);
    }
    for a in [-2i64, 3] {
        db.insert("X", Tuple::new(vec![Value::Int(a)]));
    }
    db
}

fn batch(rows: &[(i64, i64)]) -> Vec<(String, Vec<Tuple>)> {
    vec![("R".to_string(), pairs(rows))]
}

/// One commit feeding `R`, `S` or both (an empty side is left out).
fn batch_rs(r: &[(i64, i64)], s: &[(i64, i64)]) -> Vec<(String, Vec<Tuple>)> {
    [("R", r), ("S", s)]
        .into_iter()
        .filter(|(_, rows)| !rows.is_empty())
        .map(|(rel, rows)| (rel.to_string(), pairs(rows)))
        .collect()
}

/// The subscriber's local materialization: per-view tuple sets plus
/// the cursor of the last applied notification.
#[derive(Default)]
struct Replica {
    views: BTreeMap<String, std::collections::BTreeSet<Tuple>>,
    cursor: u64,
    resyncs: usize,
    /// Delta rows that told the replica nothing: already delivered by
    /// an earlier delta, or by the snapshot, since the last resync.
    redelivered: usize,
}

impl Replica {
    fn apply(&mut self, n: &Notification) {
        match n {
            Notification::Delta { seq, view_inserts } => {
                for (view, tuples) in view_inserts {
                    let held = self.views.entry(view.clone()).or_default();
                    for t in tuples {
                        if !held.insert(t.clone()) {
                            self.redelivered += 1;
                        }
                    }
                }
                self.cursor = *seq;
            }
            Notification::Resync { seq, views, .. } => {
                self.views.clear();
                for (name, rel) in views.relations() {
                    self.views
                        .insert(name.to_string(), rel.tuples().iter().cloned().collect());
                }
                self.cursor = *seq;
                self.resyncs += 1;
            }
        }
    }

    fn drain(&mut self, engine: &Engine, id: u64) {
        loop {
            let r = engine.poll(id, 64).expect("poll");
            if r.notifications.is_empty() {
                break;
            }
            for n in &r.notifications {
                self.apply(n);
            }
        }
    }

    /// Canonical byte image: every view's sorted tuples through the
    /// repository codec — the same bytes the WAL and the wire use.
    fn canon_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        for (name, tuples) in &self.views {
            w.str(name);
            w.u64(tuples.len() as u64);
            for t in tuples {
                t.encode(&mut w);
            }
        }
        w.finish().to_vec()
    }
}

/// Full recompute oracle: evaluate every view definition from scratch
/// over the engine's current committed instance, canonicalized through
/// the same codec as the replica.
fn recompute_bytes(engine: &Engine, instance: &str) -> Vec<u8> {
    recompute_bytes_over(&engine.instance(instance).expect("tracked instance"))
}

fn recompute_bytes_over(base: &Database) -> Vec<u8> {
    let schema = base_schema();
    let mut canon: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    for v in &views().views {
        let rel = eval(&v.expr, &schema, base).expect("recompute");
        canon.insert(v.name.clone(), rel.sorted_tuples());
    }
    let mut w = Writer::new();
    for (name, tuples) in &canon {
        w.str(name);
        w.u64(tuples.len() as u64);
        for t in tuples {
            t.encode(&mut w);
        }
    }
    w.finish().to_vec()
}

fn fresh_engine(config: EngineConfig) -> Engine {
    let engine = Engine::with_config(config).expect("engine");
    engine.add_schema(base_schema()).expect("base schema");
    engine.put_instance("I", seed_db(&[(1, 10), (-2, 20)])).expect("seed load");
    engine
}

// ---------------------------------------------------------------------
// Parity: pushed deltas == full recompute, bit for bit.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (subscribe → push deltas → apply) equals full recompute for
    /// arbitrary interleavings of batches and polls — including the
    /// batches committed *before* the first poll (folded into the
    /// bootstrap snapshot) and any overflow resyncs along the way.
    #[test]
    fn pushed_deltas_match_full_recompute(
        rows in proptest::collection::vec(
            (
                proptest::collection::vec((-5i64..12, 0i64..12), 0..4),
                proptest::collection::vec((0i64..12, 0i64..12), 0..3),
            ),
            1..12,
        ),
        poll_every in 1usize..4,
        queue_bound in 2usize..32,
    ) {
        let engine = fresh_engine(EngineConfig {
            propagate: PropagateConfig {
                queue_bound,
                high_water: queue_bound.saturating_sub(1).max(1),
                low_water: 1,
                ..PropagateConfig::default()
            },
            ..EngineConfig::default()
        });
        let id = engine.subscribe("I", views()).expect("subscribe");
        let mut replica = Replica::default();
        for (i, (r, s)) in rows.iter().enumerate() {
            engine.insert_batch("I", batch_rs(r, s)).expect("commit must never block");
            if i % poll_every == 0 {
                replica.drain(&engine, id);
            }
        }
        replica.drain(&engine, id);
        prop_assert_eq!(replica.canon_bytes(), recompute_bytes(&engine, "I"));
        prop_assert_eq!(replica.cursor, engine.repo.last_seq());
        prop_assert_eq!(replica.redelivered, 0, "a (view, row) was delivered twice");
    }
}

/// A forced mid-stream resync (queue overflow while the client is
/// wedged) leaves the replica bit-identical to recompute, the writer
/// unblocked, and the degradation recorded in the metrics and the
/// event stream.
#[test]
fn overflow_degrades_records_and_resyncs_to_parity() {
    let ring = RingCollector::with_capacity(256);
    let tel = Telemetry::new(ring.clone());
    let engine = fresh_engine(EngineConfig {
        telemetry: tel,
        propagate: PropagateConfig {
            queue_bound: 3,
            high_water: 2,
            low_water: 1,
            ..PropagateConfig::default()
        },
        ..EngineConfig::default()
    });
    let id = engine.subscribe("I", views()).expect("subscribe");
    let mut replica = Replica::default();
    replica.drain(&engine, id); // bootstrap snapshot
    assert_eq!(replica.resyncs, 1);

    // Wedge the consumer: 10 commits against a queue bounded at 3.
    // Every commit must succeed — the slow subscriber is shed, the
    // writer never waits.
    for i in 0..10i64 {
        engine.insert_batch("I", batch(&[(i, i * 2)])).expect("writer must not block");
    }
    let status = engine.subscriber_status(id).expect("status");
    assert_eq!(
        status.resync_pending,
        Some(ResyncCause::Overflow),
        "wedged consumer should be degraded, got {status:?}"
    );

    replica.drain(&engine, id);
    assert_eq!(replica.resyncs, 2, "recovery must arrive as one snapshot");
    assert_eq!(replica.canon_bytes(), recompute_bytes(&engine, "I"));

    // ...and streaming resumes incrementally after the resync: the
    // snapshot re-seeded what the subscriber holds, so a batch that
    // repeats a delivered row carries only the new one.
    engine.insert_batch("I", batch(&[(9, 18), (100, 0)])).expect("post-resync commit");
    replica.drain(&engine, id);
    assert_eq!(replica.resyncs, 2, "back to streaming — no extra snapshot");
    assert_eq!(replica.redelivered, 0, "(9, 18) arrived with the snapshot");
    assert_eq!(replica.canon_bytes(), recompute_bytes(&engine, "I"));

    // The degradation is counted and mirrored 1:1 as an event.
    let m = engine.telemetry().metrics().expect("telemetry enabled").snapshot();
    assert_eq!(
        m.value("propagate.resyncs_overflow"),
        1,
        "exactly one overflow degradation: {m:?}"
    );
    let degraded_events =
        ring.drain().iter().filter(|e| e.op == "propagate.degraded").count();
    assert_eq!(degraded_events, 1, "events mirror the counter 1:1");
}

// ---------------------------------------------------------------------
// Kill / restart: durable cursors and registry recovery.
// ---------------------------------------------------------------------

/// Kill the client, restart the engine from disk, resume from the
/// durable cursor: the registry and instances recover via
/// `open_durable`, a fresh-enough cursor keeps streaming, and parity
/// holds afterwards.
#[test]
fn resume_after_engine_restart_from_durable_cursor() {
    let mem = MemStorage::new();
    let (id, mut replica) = {
        let engine = Engine::open_durable(mem.clone(), DurableOptions::default()).expect("open");
        engine.add_schema(base_schema()).expect("schema");
        engine.put_instance("I", seed_db(&[(1, 1)])).expect("load");
        let id = engine.subscribe("I", views()).expect("subscribe");
        let mut replica = Replica::default();
        replica.drain(&engine, id);
        engine.insert_batch("I", batch(&[(2, 2)])).expect("commit");
        replica.drain(&engine, id);
        engine.ack(id, replica.cursor).expect("durable ack");
        (id, replica)
        // engine dropped here — the "crash"; `mem` holds the disk image
    };

    let recovered =
        Engine::open_durable(MemStorage::from_files(mem.dump()), DurableOptions::default())
            .expect("recovery");
    let sub = recovered.repo.subscription(id).expect("registry survived the restart");
    assert_eq!(sub.cursor, replica.cursor, "ack was durable");

    // Resume from the durable cursor: it matches everything delivered,
    // so streaming continues without a resync.
    recovered.resume(id, sub.cursor).expect("resume");
    recovered.insert_batch("I", batch(&[(3, 3)])).expect("post-restart commit");
    let before = replica.resyncs;
    replica.drain(&recovered, id);
    assert_eq!(replica.resyncs, before, "fresh cursor resumes incrementally");
    assert_eq!(replica.canon_bytes(), recompute_bytes(&recovered, "I"));
}

/// Recovery attaches subscriptions without evaluating a view; the first
/// commit after it seeds the subscriber's maintained views from the
/// pre-commit replica, so its delta carries exactly the rows the
/// resumed client lacks.
#[test]
fn recovery_evaluates_no_view_and_the_first_commit_seeds_them() {
    let mem = MemStorage::new();
    let (id, mut replica) = {
        let engine = Engine::open_durable(mem.clone(), DurableOptions::default()).expect("open");
        engine.add_schema(base_schema()).expect("schema");
        engine.put_instance("I", seed_db(&[(1, 1), (4, 2)])).expect("load");
        let id = engine.subscribe("I", views()).expect("subscribe");
        let mut replica = Replica::default();
        replica.drain(&engine, id);
        engine.insert_batch("I", batch(&[(2, 2)])).expect("commit");
        replica.drain(&engine, id);
        engine.ack(id, replica.cursor).expect("durable ack");
        (id, replica)
    };

    let ring = RingCollector::with_capacity(256);
    let tel = Telemetry::new(ring.clone());
    let recovered = Engine::with_config(EngineConfig {
        durability: Durability::Durable {
            storage: MemStorage::from_files(mem.dump()),
        },
        telemetry: tel.clone(),
        ..EngineConfig::default()
    })
    .expect("recovery");
    recovered.resume(id, replica.cursor).expect("resume");
    let quiet = |when: &str| {
        let m = tel.metrics().expect("telemetry enabled").snapshot();
        let work: Vec<_> = m.values.keys().filter(|k| k.starts_with("propagate.")).collect();
        assert!(work.is_empty(), "{when}: propagation work recorded: {work:?}");
        let spans: Vec<_> = ring.events().into_iter().filter(|e| e.op.starts_with("ivm.")).collect();
        assert!(spans.is_empty(), "{when}: a view was evaluated: {spans:?}");
    };
    quiet("after open_durable + resume");

    // (2, 2) repeats a row the client holds; (3, 2) joins stored rows
    // on both sides of the self-join.
    recovered.insert_batch("I", batch(&[(2, 2), (3, 2)])).expect("post-restart commit");
    let polled = recovered.poll(id, 64).expect("poll").notifications;
    match &polled[..] {
        [Notification::Delta { view_inserts, .. }] => {
            let all = view_inserts.iter().find(|(v, _)| v == "VAll").expect("VAll");
            assert_eq!(all.1, pairs(&[(3, 2)]), "only the row the client lacks");
        }
        other => panic!("expected one delta, got {other:?}"),
    }
    let resyncs = replica.resyncs;
    polled.iter().for_each(|n| replica.apply(n));
    assert_eq!(replica.resyncs, resyncs, "seeding is not a resync");
    assert_eq!(replica.redelivered, 0);
    assert_eq!(replica.canon_bytes(), recompute_bytes(&recovered, "I"));
    assert_eq!(ring.events_for("ivm.maintain").len(), 1);
    let m = tel.metrics().expect("telemetry enabled").snapshot();
    let held: usize = replica.views.values().map(|rows| rows.len()).sum();
    assert_eq!(m.value("propagate.view_rows"), held as u64, "the seeded views, advanced");
}

/// `unsubscribe` and a bulk load release the maintained views; the
/// load's resync seeds them again.
#[test]
fn unsubscribe_and_load_release_the_maintained_views() {
    let tel = Telemetry::new(RingCollector::with_capacity(64));
    let engine = fresh_engine(EngineConfig { telemetry: tel.clone(), ..EngineConfig::default() });
    let held = || tel.metrics().expect("telemetry enabled").snapshot().value("propagate.view_rows");
    let rows = |r: &Replica| r.views.values().map(|rows| rows.len() as u64).sum::<u64>();
    let (a, b) = (
        engine.subscribe("I", views()).expect("subscribe"),
        engine.subscribe("I", views()).expect("subscribe"),
    );
    let (mut ra, mut rb) = (Replica::default(), Replica::default());
    ra.drain(&engine, a);
    rb.drain(&engine, b);
    engine.insert_batch("I", batch_rs(&[(5, 1)], &[(1, 7)])).expect("commit");
    ra.drain(&engine, a);
    rb.drain(&engine, b);
    assert_eq!(held(), rows(&ra) + rows(&rb));

    engine.unsubscribe(b).expect("unsubscribe");
    assert_eq!(held(), rows(&ra));

    engine.put_instance("I", seed_db(&[(6, 6)])).expect("reload");
    assert_eq!(held(), 0, "the load voided what the subscriber held");
    ra.drain(&engine, a);
    assert_eq!(ra.canon_bytes(), recompute_bytes(&engine, "I"));
    assert_eq!(held(), rows(&ra));
    engine.insert_batch("I", batch(&[(6, 6), (7, 6)])).expect("commit");
    ra.drain(&engine, a);
    assert_eq!(ra.redelivered, 0);
    assert_eq!(ra.canon_bytes(), recompute_bytes(&engine, "I"));
    assert_eq!(held(), rows(&ra));
}

/// A client that comes back with a cursor *behind* what recovery can
/// cover is degraded to a cursor-lost resync — never silently skipped
/// ahead — and still converges to parity.
#[test]
fn stale_cursor_after_restart_degrades_to_resync() {
    let mem = MemStorage::new();
    let id = {
        let engine = Engine::open_durable(mem.clone(), DurableOptions::default()).expect("open");
        engine.add_schema(base_schema()).expect("schema");
        engine.put_instance("I", seed_db(&[(1, 1)])).expect("load");
        let id = engine.subscribe("I", views()).expect("subscribe");
        // Commit events the client never polls: after the restart the
        // feed no longer covers them.
        for i in 0..4i64 {
            engine.insert_batch("I", batch(&[(10 + i, 0)])).expect("commit");
        }
        id
    };

    let recovered =
        Engine::open_durable(MemStorage::from_files(mem.dump()), DurableOptions::default())
            .expect("recovery");
    // The client claims cursor 0 (it applied only the bootstrap): the
    // restarted feed starts past that, so resume must degrade.
    recovered.resume(id, 0).expect("resume");
    let mut replica = Replica::default();
    replica.drain(&recovered, id);
    assert_eq!(replica.resyncs, 1, "stale cursor must arrive as a snapshot");
    assert_eq!(replica.canon_bytes(), recompute_bytes(&recovered, "I"));
    let status = recovered.subscriber_status(id).expect("status");
    assert_eq!(status.queued, 0);
    assert_eq!(status.resync_pending, None, "resync delivered, streaming again");
}

// ---------------------------------------------------------------------
// Over the wire: kill the TCP client mid-stream, reconnect, resume.
// ---------------------------------------------------------------------

#[test]
fn wire_subscriber_killed_mid_stream_resumes_from_cursor() {
    use mm_server::{Client, Server, ServerConfig};
    use std::time::Duration;

    let engine = fresh_engine(EngineConfig::default());
    let handle = Server::start(
        engine,
        ServerConfig { io_timeout: Duration::from_millis(500), ..ServerConfig::default() },
    )
    .expect("start");

    let mut replica = Replica::default();
    let (id, cursor) = {
        let mut c = Client::connect(handle.addr()).expect("connect");
        let id = c.subscribe("I", &views()).expect("subscribe");
        let (ns, _) = c.poll(id, 64).expect("bootstrap poll");
        for n in &ns {
            replica.apply(n);
        }
        c.insert_batch("I", &batch(&[(7, 7)])).expect("wire commit");
        let (ns, _) = c.poll(id, 64).expect("poll");
        for n in &ns {
            replica.apply(n);
        }
        c.ack(id, replica.cursor).expect("ack");
        (id, replica.cursor)
        // client dropped without unsubscribe — the "kill"
    };

    // A second client commits while the subscriber is gone.
    let mut writer = Client::connect(handle.addr()).expect("writer connect");
    writer.insert_batch("I", &batch(&[(8, 8)])).expect("commit while disconnected");

    // Reconnect, resume from the durable cursor, drain, verify parity
    // against a full recompute over the base the wire history implies:
    // the seed load plus both committed batches.
    let mut c = Client::connect(handle.addr()).expect("reconnect");
    c.resume(id, cursor).expect("resume");
    loop {
        let (ns, _) = c.poll(id, 64).expect("poll");
        if ns.is_empty() {
            break;
        }
        for n in &ns {
            replica.apply(n);
        }
    }
    let base = seed_db(&[(1, 10), (-2, 20), (7, 7), (8, 8)]);
    assert_eq!(replica.canon_bytes(), recompute_bytes_over(&base));

    c.unsubscribe(id).expect("unsubscribe");
    handle.shutdown().expect("shutdown");
}
