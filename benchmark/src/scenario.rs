//! Seeded inputs for every workload, and the engines that serve them.
//!
//! Everything here goes through the `Engine` facade and the
//! `mm_workload` generators only: both binaries build their inputs from
//! this module, so the traced pass replays exactly what the gated run
//! measured, and the gated run survives a reshuffle of the crates below
//! the facade.

use mm_engine::prelude::*;
use mm_workload::{er_hierarchy, populate_er, tgds, ScaleScenario};
use std::fmt::Write as _;

/// What a failed set-up step reports; set-up never fails on a healthy
/// build, so a string that names the step is all a reader needs.
pub type Res<T> = Result<T, String>;

pub fn step<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// SplitMix64 finalizer over `(seed, salt, i)`: distinct, well-spread
/// value streams per column without carrying generator state around.
pub fn mix(seed: u64, salt: u64, i: usize) -> u64 {
    let mut x = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the printed form of every value the generator emits, so
/// two commits (or two rounds) can show they were fed the same inputs.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

impl Digest {
    pub fn database(&mut self, db: &Database) {
        for (name, rel) in db.relations() {
            let _ = write!(self, "{name}[");
            for t in rel.iter() {
                let _ = write!(self, "{t}");
            }
            let _ = write!(self, "]");
        }
    }

    pub fn tuples(&mut self, tuples: &[Tuple]) {
        for t in tuples {
            let _ = write!(self, "{t}");
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Relation-by-relation set equality (names and watermarks aside).
pub fn db_set_eq(a: &Database, b: &Database) -> bool {
    a.relation_names().eq(b.relation_names())
        && a.relations()
            .all(|(n, r)| b.relation(n).is_some_and(|o| r.set_eq(o)))
}

pub fn engine_with(telemetry: Telemetry) -> Res<Engine> {
    step(
        "engine",
        Engine::with_config(EngineConfig {
            telemetry,
            ..EngineConfig::default()
        }),
    )
}

/// The telemetry handle wire workloads serve under — on, as in
/// production, so observability overhead is inside every wire number.
pub fn wire_telemetry() -> Telemetry {
    Telemetry::new(RingCollector::with_capacity(4096))
}

// ---------------------------------------------------------------------
// wire_small: a 16-tuple copy exchange.
// ---------------------------------------------------------------------

pub const COPY_MAPPING: &str = "copy";
pub const COPY_TARGET: &str = "Dst";

/// 2 relations x 8 rows of seeded `(Int, Int)` pairs.
pub fn small_source(seed: u64) -> Database {
    let mut db = Database::empty_of(&tgds::binary_schema("Src", "A", 2));
    for rel in 0..2u64 {
        for i in 0..8usize {
            let a = (mix(seed, rel, i) % 1_000_000) as i64;
            let b = (mix(seed, rel + 2, i) % 1_000_000) as i64;
            db.insert(
                &format!("A{rel}"),
                Tuple::from([Value::Int(a), Value::Int(b)]),
            );
        }
    }
    db
}

pub fn register_copy(engine: &Engine) -> Res<()> {
    step("Src", engine.add_schema(tgds::binary_schema("Src", "A", 2)))?;
    step(
        "Dst",
        engine.add_schema(tgds::binary_schema(COPY_TARGET, "B", 2)),
    )?;
    let mut copy = Mapping::new("Src", COPY_TARGET);
    for t in tgds::copy_tgds("A", "B", 2) {
        copy.push_tgd(t);
    }
    step("copy", engine.add_mapping(COPY_MAPPING, copy))?;
    Ok(())
}

// ---------------------------------------------------------------------
// exchange_bulk / embed_chase: the three scale families.
// ---------------------------------------------------------------------

/// Store each scale family's schemas, and its tgd mapping under the
/// family name. (Snowflake, inheritance, evolution: their arities
/// straddle the inline-tuple bound, so a gain for one tuple shape that
/// costs another shows.)
pub fn register_scale(engine: &Engine, families: &[ScaleScenario]) -> Res<()> {
    for sc in families {
        step(sc.name, engine.add_schema(sc.source.clone()))?;
        step(sc.name, engine.add_schema(sc.target.clone()))?;
        let mut m = Mapping::new(sc.source.name.clone(), sc.target.name.clone());
        for t in &sc.tgds {
            m.push_tgd(t.clone());
        }
        step(sc.name, engine.add_mapping(sc.name, m))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// mediate_views: the paper's Fig. 2-3 scenario.
// ---------------------------------------------------------------------

pub const ENTITIES_PER_TYPE: usize = 100;

/// A 7-type entity hierarchy compiled onto tables (vertical
/// partitioning), queried back through the generated query views plus
/// two pass-through hops.
pub struct Mediation {
    pub engine: Engine,
    /// Name of the generated relational schema the tables instantiate.
    pub base_schema: String,
    pub chain: Vec<String>,
    /// Projects `Id` from the last leaf type.
    pub query: Expr,
    /// The entities pushed through the update views (~1 700 tuples).
    pub tables: Database,
    /// The answer, read off the generated entities rather than computed
    /// by the product: the leaf type's ids, ascending.
    pub expected_ids: Vec<i64>,
    pub input_digest: String,
}

fn passthrough(below: &ViewSet, name: &str) -> ViewSet {
    let mut hop = ViewSet::new(below.view_schema.clone(), name);
    for v in &below.views {
        hop.push(ViewDef::new(
            v.name.clone(),
            Expr::base(v.name.clone()).select(Predicate::True),
        ));
    }
    hop
}

/// The hierarchy's shape is fixed: `er_hierarchy` draws attribute
/// *types* from its seed, and a draw with more text columns is a
/// different workload (12.4 ms an op against 7.8 ms), not the same one
/// on other data. `--seed` picks the entities.
const HIERARCHY_SEED: u64 = 7;

pub fn mediation(seed: u64, telemetry: Telemetry) -> Res<Mediation> {
    let er = er_hierarchy(HIERARCHY_SEED, 2, 2, 3);
    let entities = populate_er(&er, seed, ENTITIES_PER_TYPE);
    let leaf = er
        .element_names()
        .last()
        .map(str::to_string)
        .ok_or("empty hierarchy")?;
    let mut expected_ids: Vec<i64> = entities
        .relation(&leaf)
        .into_iter()
        .flat_map(|r| r.iter())
        .filter_map(|t| match t.get(1) {
            Some(Value::Int(id)) => Some(*id),
            _ => None,
        })
        .collect();
    expected_ids.sort_unstable();
    let mut digest = Digest::default();
    let _ = write!(digest, "{er:?}");
    digest.database(&entities);

    let engine = engine_with(telemetry)?;
    step("er schema", engine.add_schema(er.clone()))?;
    let gen = step(
        "modelgen",
        engine.modelgen_er_to_relational(&er.name, InheritanceStrategy::Vertical),
    )?;
    let base_schema = gen.schema.name.clone();
    let (qv, uv) = step(
        "transgen",
        engine.transgen(
            &er.name,
            &base_schema,
            &format!("{}->{base_schema}", er.name),
        ),
    )?;
    let l0 = passthrough(&qv, "L0");
    let l1 = passthrough(&l0, "L1");
    for (name, views) in [("qv", qv), ("L0", l0), ("L1", l1)] {
        step(name, engine.add_viewset(name, views))?;
    }
    // The update views' materialization is what a bootstrap subscription
    // over the entities delivers.
    step("entities", engine.put_instance("entities", entities))?;
    let sub = step("subscribe", engine.subscribe("entities", uv))?;
    let tables = match step("bootstrap", engine.poll(sub, 1))?.notifications.pop() {
        Some(Notification::Resync { views, .. }) => views,
        other => return Err(format!("bootstrap poll delivered {other:?}")),
    };
    step("unsubscribe", engine.unsubscribe(sub))?;
    Ok(Mediation {
        engine,
        base_schema,
        chain: ["qv", "L0", "L1"].map(String::from).to_vec(),
        query: Expr::base(leaf).project(&["Id"]),
        tables,
        expected_ids,
        input_digest: digest.hex(),
    })
}

/// The ids a mediation reply carries, ascending.
pub fn reply_ids(rows: &Relation) -> Vec<i64> {
    let mut ids: Vec<i64> = rows
        .iter()
        .filter_map(|t| match t.get(0) {
            Some(Value::Int(id)) => Some(*id),
            _ => None,
        })
        .collect();
    ids.sort_unstable();
    ids
}

// ---------------------------------------------------------------------
// cdc_stream / cdc_recover: orders feeding a join view.
// ---------------------------------------------------------------------

pub const ORDERS: usize = 8_000;
pub const CUSTOMERS: usize = 800;
pub const BATCH_ROWS: usize = 10;
pub const ORDERS_INSTANCE: &str = "orders";
/// `Int` columns per `Orders` row, 8 user bytes each.
pub const USER_BYTES_PER_ROW: usize = 3 * 8;

pub fn orders_schema() -> Res<Schema> {
    step(
        "orders schema",
        SchemaBuilder::new("S")
            .relation(
                "Orders",
                &[
                    ("oid", DataType::Int),
                    ("cust", DataType::Int),
                    ("total", DataType::Int),
                ],
            )
            .relation(
                "Customers",
                &[("cid", DataType::Int), ("name", DataType::Text)],
            )
            .build(),
    )
}

fn order(seed: u64, oid: usize) -> Tuple {
    Tuple::from([
        Value::Int(oid as i64),
        Value::Int((mix(seed, 30, oid) % CUSTOMERS as u64) as i64),
        Value::Int((mix(seed, 31, oid) % 100) as i64),
    ])
}

pub fn orders_base(seed: u64, schema: &Schema) -> Database {
    let mut db = Database::empty_of(schema);
    for c in 0..CUSTOMERS {
        let tag = mix(seed, 32, c) % 10_000;
        db.insert(
            "Customers",
            Tuple::from([
                Value::Int(c as i64),
                Value::text(format!("customer-{c:04}-{tag:04}")),
            ]),
        );
    }
    for o in 0..ORDERS {
        db.insert("Orders", order(seed, o));
    }
    db
}

/// The `i`-th insert batch: ten fresh orders.
pub fn orders_batch(seed: u64, i: usize) -> Vec<Tuple> {
    (0..BATCH_ROWS)
        .map(|k| order(seed, ORDERS + i * BATCH_ROWS + k))
        .collect()
}

/// Rows of `batch` the `BigOrders` view admits (`total > 50`; every
/// order's customer exists, so each joins exactly once).
pub fn big_orders_in(batch: &[Tuple]) -> usize {
    batch
        .iter()
        .filter(|t| matches!(t.get(2), Some(Value::Int(total)) if *total > 50))
        .count()
}

/// The EQ5 join view: big orders with their customer's name.
pub fn big_orders_view() -> ViewSet {
    let mut views = ViewSet::new("S", "V");
    views.push(ViewDef::new(
        "BigOrders",
        Expr::base("Orders")
            .select(Predicate::Cmp {
                op: CmpOp::Gt,
                left: Scalar::col("total"),
                right: Scalar::lit(50i64),
            })
            .join(Expr::base("Customers"), &[("cust", "cid")])
            .project(&["oid", "name"]),
    ));
    views
}

/// A subscriber's copy of the views: the bootstrap snapshot plus every
/// delta applied since.
pub struct Replica {
    pub views: Database,
    /// Commit sequence of the last notification applied.
    pub cursor: u64,
    /// Resync snapshots received after the bootstrap one.
    pub resyncs: u64,
    pub delta_rows: u64,
}

impl Replica {
    pub fn bootstrap(notifications: Vec<Notification>) -> Res<Replica> {
        match <[Notification; 1]>::try_from(notifications) {
            Ok([Notification::Resync { seq, views, .. }]) => Ok(Replica {
                views,
                cursor: seq,
                resyncs: 0,
                delta_rows: 0,
            }),
            Ok(other) => Err(format!("bootstrap poll delivered {other:?}")),
            Err(all) => Err(format!(
                "bootstrap poll delivered {} notifications",
                all.len()
            )),
        }
    }

    /// Apply one poll's notifications; returns the view rows they added.
    pub fn apply(&mut self, notifications: Vec<Notification>) -> usize {
        let mut rows = 0;
        for n in notifications {
            self.cursor = n.seq();
            match n {
                Notification::Delta { view_inserts, .. } => {
                    for (view, tuples) in view_inserts {
                        rows += tuples.len();
                        if let Some(rel) = self.views.relation_mut(&view) {
                            for t in tuples {
                                rel.insert(t);
                            }
                        }
                    }
                }
                Notification::Resync { views, .. } => {
                    self.resyncs += 1;
                    self.views = views;
                }
            }
        }
        self.delta_rows += rows as u64;
        rows
    }
}

/// A durable engine over in-memory storage, loaded and subscribed.
pub struct Cdc {
    pub storage: std::sync::Arc<MemStorage>,
    pub engine: Engine,
    pub schema: Schema,
    pub views: ViewSet,
    pub subscriber: u64,
    pub replica: Replica,
    /// The generator's own copy of the instance, advanced with every
    /// batch it emits — the oracle the engine's state must equal.
    pub shadow: Database,
    pub digest: Digest,
    seed: u64,
    next_batch: usize,
}

pub fn cdc(seed: u64) -> Res<Cdc> {
    let storage = MemStorage::new();
    let engine = step(
        "open durable",
        Engine::open_durable(storage.clone(), DurableOptions::default()),
    )?;
    let schema = orders_schema()?;
    let shadow = orders_base(seed, &schema);
    let mut digest = Digest::default();
    digest.database(&shadow);
    let views = big_orders_view();
    step("schema", engine.add_schema(schema.clone()))?;
    step("load", engine.put_instance(ORDERS_INSTANCE, shadow.clone()))?;
    let subscriber = step(
        "subscribe",
        engine.subscribe(ORDERS_INSTANCE, views.clone()),
    )?;
    let replica = Replica::bootstrap(step("bootstrap", engine.poll(subscriber, 1))?.notifications)?;
    step("ack", engine.ack(subscriber, replica.cursor))?;
    Ok(Cdc {
        storage,
        engine,
        schema,
        views,
        subscriber,
        replica,
        shadow,
        digest,
        seed,
        next_batch: 0,
    })
}

impl Cdc {
    /// Emit the next batch: into the digest and the shadow instance.
    pub fn next_batch(&mut self) -> Vec<Tuple> {
        let batch = orders_batch(self.seed, self.next_batch);
        self.next_batch += 1;
        self.digest.tuples(&batch);
        for t in &batch {
            self.shadow.insert("Orders", t.clone());
        }
        batch
    }

    /// One cycle: commit a batch, drain the subscriber, acknowledge.
    /// Returns the view rows the poll delivered.
    pub fn cycle(&mut self, batch: Vec<Tuple>) -> Res<usize> {
        let seq = step(
            "insert_batch",
            self.engine
                .insert_batch(ORDERS_INSTANCE, vec![("Orders".to_string(), batch)]),
        )?;
        let polled = step("poll", self.engine.poll(self.subscriber, 64))?;
        let rows = self.replica.apply(polled.notifications);
        if self.replica.cursor != seq {
            return Err(format!(
                "poll reached seq {}, commit was {seq}",
                self.replica.cursor
            ));
        }
        step("ack", self.engine.ack(self.subscriber, seq))?;
        Ok(rows)
    }

    pub fn wal_len(&self) -> usize {
        self.storage.len_of(WAL_FILE).unwrap_or(0)
    }

    /// The end-of-run oracle: the engine's instance equals the
    /// generator's, and the replica (bootstrap snapshot plus every
    /// delta) equals what a fresh subscriber's recompute delivers.
    pub fn verify(&self) -> Res<()> {
        let stored = self
            .engine
            .instance(ORDERS_INSTANCE)
            .ok_or("instance vanished")?;
        if !db_set_eq(&stored, &self.shadow) {
            return Err("stored instance differs from the generated one".into());
        }
        let fresh = step(
            "subscribe",
            self.engine.subscribe(ORDERS_INSTANCE, self.views.clone()),
        )?;
        let recompute =
            Replica::bootstrap(step("poll", self.engine.poll(fresh, 1))?.notifications)?;
        step("unsubscribe", self.engine.unsubscribe(fresh))?;
        if self.replica.resyncs != 0 {
            return Err(format!(
                "{} pushes degraded to a resync",
                self.replica.resyncs
            ));
        }
        if !db_set_eq(&self.replica.views, &recompute.views) {
            return Err("accumulated deltas differ from a full recompute".into());
        }
        Ok(())
    }
}
