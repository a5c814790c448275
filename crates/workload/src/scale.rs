//! Million-tuple scale scenarios for the soak harness (DESIGN.md §16).
//!
//! Three text-heavy scenario families, each parameterized by an
//! approximate total tuple count, designed so the chase and CQ hot
//! paths stress exactly what the data plane is built around: string
//! interning (low-cardinality Text columns repeated across hundreds of
//! thousands of rows), inline tuple storage (arities straddling the
//! inline bound), cached tuple hashes (join probes and dedup inserts),
//! and labeled-null minting at scale.
//!
//! Generators are deterministic in `(tuples, seed)` and build values
//! through [`Value::text`], so low-cardinality strings collapse into the
//! intern pool.

// Fixture generators: schemas/data/tgd sets are built from static,
// known-good literals; `expect`/`unwrap` failures are generator bugs,
// not runtime failure modes (DESIGN.md §7).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mm_expr::{Atom, Lit, Term, Tgd};
use mm_instance::{Database, Tuple, Value};
use mm_metamodel::{Attribute, DataType, Element, ElementKind, Schema};

/// One soak scenario: a populated source, the migration tgds into a
/// target schema (the chase hot path), and a conjunctive-query body
/// over the source (the CQ hot path).
pub struct ScaleScenario {
    pub name: &'static str,
    pub source: Schema,
    pub target: Schema,
    pub db: Database,
    pub tgds: Vec<Tgd>,
    /// CQ body over the *source* instance; selective by construction so
    /// result counts stay proportional to the scenario size.
    pub query: Vec<Atom>,
}

impl ScaleScenario {
    /// Actual tuple count of the generated source instance.
    pub fn tuples(&self) -> usize {
        self.db.total_tuples()
    }
}

/// All three scenario families at the given scale.
pub fn scale_scenarios(tuples: usize, seed: u64) -> Vec<ScaleScenario> {
    vec![
        snowflake_scale(tuples, seed),
        inheritance_scale(tuples, seed),
        evolution_scale(tuples, seed),
    ]
}

fn relation(name: &str, attrs: &[(&str, DataType)]) -> Element {
    Element {
        name: name.into(),
        kind: ElementKind::Relation,
        attributes: attrs.iter().map(|(n, t)| Attribute::new(*n, *t)).collect(),
    }
}

/// A cheap deterministic mixer so column values are not trivially
/// sequential (distinct streams per `(seed, salt)`).
fn mix(seed: u64, salt: u64, i: usize) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

/// Snowflake (paper Figure 4 / warehousing): a fact table referencing
/// customer and product dimensions. Dimension descriptors are long,
/// low-cardinality strings — the interning showcase — while customer
/// and product names are unique, so the pool sees a realistic mix of
/// hot and cold strings. The tgds denormalize facts through each
/// dimension (index-probe joins), plus a dedup-heavy projection.
pub fn snowflake_scale(tuples: usize, seed: u64) -> ScaleScenario {
    let customers = (tuples / 5).max(1);
    let products = (tuples / 10).max(1);
    let facts = tuples.saturating_sub(customers + products).max(1);

    let mut source = Schema::new("SnowSrc");
    source
        .add_element(relation("customer", &[
            ("cid", DataType::Int),
            ("cname", DataType::Text),
            ("city", DataType::Text),
            ("segment", DataType::Text),
        ]))
        .expect("unique");
    source
        .add_element(relation("product", &[
            ("pid", DataType::Int),
            ("pname", DataType::Text),
            ("category", DataType::Text),
            ("brand", DataType::Text),
        ]))
        .expect("unique");
    source
        .add_element(relation("fact", &[
            ("fid", DataType::Int),
            ("cust", DataType::Int),
            ("prod", DataType::Int),
            ("channel", DataType::Text),
        ]))
        .expect("unique");

    let mut target = Schema::new("SnowTgt");
    target
        .add_element(relation("sales_by_customer", &[
            ("fid", DataType::Int),
            ("cname", DataType::Text),
            ("city", DataType::Text),
            ("segment", DataType::Text),
        ]))
        .expect("unique");
    target
        .add_element(relation("sales_by_product", &[
            ("fid", DataType::Int),
            ("pname", DataType::Text),
            ("category", DataType::Text),
            ("brand", DataType::Text),
        ]))
        .expect("unique");
    target
        .add_element(relation("segments", &[
            ("segment", DataType::Text),
            ("city", DataType::Text),
        ]))
        .expect("unique");

    let mut db = Database::empty_of(&source);
    for c in 0..customers {
        let city = mix(seed, 1, c) % 64;
        let seg = mix(seed, 2, c) % 8;
        db.insert("customer", Tuple::from([
            Value::Int(c as i64),
            Value::text(format!("customer-{c:07}")),
            Value::text(format!("city-{city:02}-metropolitan-district")),
            Value::text(format!("segment-{seg}-enterprise-accounts")),
        ]));
    }
    for p in 0..products {
        let cat = mix(seed, 3, p) % 32;
        let brand = mix(seed, 4, p) % 48;
        db.insert("product", Tuple::from([
            Value::Int(p as i64),
            Value::text(format!("product-{p:07}")),
            Value::text(format!("category-{cat:02}-consumer-durables")),
            Value::text(format!("brand-{brand:02}-holdings-international")),
        ]));
    }
    for f in 0..facts {
        let ch = mix(seed, 5, f) % 6;
        db.insert("fact", Tuple::from([
            Value::Int(f as i64),
            Value::Int((mix(seed, 6, f) % customers as u64) as i64),
            Value::Int((mix(seed, 7, f) % products as u64) as i64),
            Value::text(format!("channel-{ch}-direct-to-consumer")),
        ]));
    }

    let by_customer = Tgd::new(
        vec![
            Atom::vars("fact", &["f", "c", "p", "ch"]),
            Atom::vars("customer", &["c", "n", "city", "seg"]),
        ],
        vec![Atom::vars("sales_by_customer", &["f", "n", "city", "seg"])],
    );
    let by_product = Tgd::new(
        vec![
            Atom::vars("fact", &["f", "c", "p", "ch"]),
            Atom::vars("product", &["p", "n", "cat", "b"]),
        ],
        vec![Atom::vars("sales_by_product", &["f", "n", "cat", "b"])],
    );
    // dedup-heavy: 64 x 8 distinct (segment, city) pairs at most, so
    // nearly every firing hits the target relation's seen-set
    let segments = Tgd::new(
        vec![Atom::vars("customer", &["c", "n", "city", "seg"])],
        vec![Atom::vars("segments", &["seg", "city"])],
    );
    let query = by_customer.body.clone();
    ScaleScenario {
        name: "snowflake",
        source,
        target,
        db,
        tgds: vec![by_customer, by_product, segments],
        query,
    }
}

/// Inheritance (paper Figures 2–3 / ADO.NET): a Root hierarchy two
/// levels deep, entities stored canonically with a Text type tag in
/// column 0 — the tag alone repeats across every row of a set, so the
/// interner collapses it to one pool entry per type. Leaf tgds flatten
/// entities into one relational target; inner-type tgds introduce an
/// existential (labeled-null minting at scale). Leaf sets share the
/// same Id space, so the CQ self-join on Id is 1:1-selective.
pub fn inheritance_scale(tuples: usize, seed: u64) -> ScaleScenario {
    // Root(Id, label) ; A(area), B(grade) under Root ;
    // AA(region), AB(district), BA(zone), BB(sector) leaves
    const LEAVES: [(&str, &str); 4] =
        [("AA", "region"), ("AB", "district"), ("BA", "zone"), ("BB", "sector")];
    let mut source = Schema::new("ErSrc");
    source
        .add_element(Element {
            name: "Root".into(),
            kind: ElementKind::EntityType { parent: None },
            attributes: vec![
                Attribute::new("Id", DataType::Int),
                Attribute::new("label", DataType::Text),
            ],
        })
        .expect("unique");
    for (name, attr, parent) in
        [("A", "area", "Root"), ("B", "grade", "Root")]
    {
        source
            .add_element(Element {
                name: name.into(),
                kind: ElementKind::EntityType { parent: Some(parent.into()) },
                attributes: vec![Attribute::new(attr, DataType::Text)],
            })
            .expect("unique");
    }
    for (i, (name, attr)) in LEAVES.iter().enumerate() {
        let parent = if i < 2 { "A" } else { "B" };
        source
            .add_element(Element {
                name: (*name).into(),
                kind: ElementKind::EntityType { parent: Some(parent.into()) },
                attributes: vec![Attribute::new(*attr, DataType::Text)],
            })
            .expect("unique");
    }

    let mut target = Schema::new("ErTgt");
    target
        .add_element(relation("flat", &[
            ("id", DataType::Int),
            ("ty", DataType::Text),
            ("label", DataType::Text),
            ("leaf", DataType::Any),
        ]))
        .expect("unique");

    // canonical storage: each leaf set holds per_leaf entities; the
    // four sets share the same Id space so leaf-vs-leaf joins on Id
    // are 1:1. Stored rows are [tag, Id, label, mid_attr, leaf_attr].
    let per_leaf = (tuples / LEAVES.len()).max(1);
    let mut db = Database::empty_of(&source);
    for (li, (leaf, _)) in LEAVES.iter().enumerate() {
        for i in 0..per_leaf {
            let label = mix(seed, 8, i) % 100;
            let mid = mix(seed, 9 + li as u64, i) % 16;
            let lf = mix(seed, 13 + li as u64, i) % 24;
            db.insert_entity(leaf, leaf, vec![
                Value::Int(i as i64),
                Value::text(format!("label-{label:03}-organizational-unit")),
                Value::text(format!("mid-{mid:02}-administrative-area")),
                Value::text(format!("leaf-{lf:02}-operational-district")),
            ]);
        }
    }

    // leaf tgds flatten [tag, id, label, mid, leaf] -> flat(id, tag,
    // label, leaf); the Root set (empty under canonical storage at
    // this depth, but part of the program) introduces an existential.
    let mut tgds: Vec<Tgd> = LEAVES
        .iter()
        .map(|(leaf, _)| {
            Tgd::new(
                vec![Atom::vars(*leaf, &["t", "id", "l", "m", "r"])],
                vec![Atom::vars("flat", &["id", "t", "l", "r"])],
            )
        })
        .collect();
    tgds.push(Tgd::new(
        vec![Atom::vars("Root", &["t", "id", "l"])],
        vec![Atom::vars("flat", &["id", "t", "l", "z"])],
    ));

    // 1:1 self-join across two leaf sets on the shared Id space
    let query = vec![
        Atom::vars("AA", &["t1", "id", "l1", "m1", "r1"]),
        Atom::vars("BB", &["t2", "id", "l2", "m2", "r2"]),
    ];
    ScaleScenario { name: "inheritance", source, target, db, tgds, query }
}

/// Evolution (paper Figure 5): migrating a v1 order table into its v2
/// shape. The migration tgd introduces an existential per row — a
/// labeled null minted for the column v1 never carried — which is the
/// null-heavy soak: a million fresh nulls flowing through firing
/// buffers, dedup and the codec. The reference-data tgd is
/// dedup-dominated (12 tiers).
pub fn evolution_scale(tuples: usize, seed: u64) -> ScaleScenario {
    let orders = (tuples * 4 / 5).max(1);
    let custs = tuples.saturating_sub(orders).max(1);

    let mut source = Schema::new("EvoV1");
    source
        .add_element(relation("orders_v1", &[
            ("oid", DataType::Int),
            ("status", DataType::Text),
            ("region", DataType::Text),
            ("note", DataType::Text),
        ]))
        .expect("unique");
    source
        .add_element(relation("customers", &[
            ("cid", DataType::Int),
            ("tier", DataType::Text),
        ]))
        .expect("unique");

    let mut target = Schema::new("EvoV2");
    target
        .add_element(relation("orders_v2", &[
            ("oid", DataType::Int),
            ("status", DataType::Text),
            ("region", DataType::Text),
            ("migrated_at", DataType::Any),
        ]))
        .expect("unique");
    target
        .add_element(relation("tiers", &[("tier", DataType::Text)]))
        .expect("unique");

    let mut db = Database::empty_of(&source);
    for o in 0..orders {
        let st = mix(seed, 20, o) % 12;
        let rg = mix(seed, 21, o) % 24;
        db.insert("orders_v1", Tuple::from([
            Value::Int(o as i64),
            Value::text(format!("status-{st:02}-pending-fulfillment")),
            Value::text(format!("region-{rg:02}-distribution-center")),
            Value::text(format!("note-{o:07}")),
        ]));
    }
    for c in 0..custs {
        let tier = mix(seed, 22, c) % 12;
        db.insert("customers", Tuple::from([
            Value::Int(c as i64),
            Value::text(format!("tier-{tier:02}-loyalty-program")),
        ]));
    }

    let migrate = Tgd::new(
        vec![Atom::vars("orders_v1", &["o", "s", "r", "n"])],
        vec![Atom::vars("orders_v2", &["o", "s", "r", "z"])],
    );
    let tiers = Tgd::new(
        vec![Atom::vars("customers", &["c", "t"])],
        vec![Atom::vars("tiers", &["t"])],
    );
    // selective scan: one constant status picks ~1/12 of the orders
    let query = vec![Atom::new("orders_v1", vec![
        Term::var("o"),
        Term::Const(Lit::Text("status-03-pending-fulfillment".into())),
        Term::var("r"),
        Term::var("n"),
    ])];
    ScaleScenario {
        name: "evolution",
        source,
        target,
        db,
        tgds: vec![migrate, tiers],
        query,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_chase::{ChaseProgram, ChaseStats};
    use mm_eval::find_homomorphisms;
    use mm_guard::{ExecBudget, ExecCtx, Governor};

    fn chase(sc: &ScaleScenario) -> (Database, ChaseStats) {
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let run = ChaseProgram::compile(&sc.tgds, &sc.db)
            .run_st(&sc.target, &sc.db, &mut ExecCtx::new(&mut gov))
            .unwrap();
        (run.target, run.stats)
    }

    #[test]
    fn scenarios_hit_requested_scale() {
        for sc in scale_scenarios(1_000, 7) {
            let n = sc.tuples();
            assert!(
                (900..=1_100).contains(&n),
                "{}: {n} tuples for a 1000-tuple request",
                sc.name
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for (a, b) in scale_scenarios(500, 3).into_iter().zip(scale_scenarios(500, 3)) {
            assert_eq!(a.db, b.db, "{}", a.name);
        }
    }

    #[test]
    fn every_scenario_query_selects_rows() {
        for tuples in [200usize, 800] {
            for sc in scale_scenarios(tuples, 11) {
                let homs = find_homomorphisms(&sc.query, &sc.db);
                assert!(!homs.is_empty(), "{} query must select something", sc.name);
            }
        }
    }

    #[test]
    fn chase_produces_target_rows_and_nulls() {
        let sc = evolution_scale(500, 1);
        let (out, stats) = chase(&sc);
        assert_eq!(
            out.relation("orders_v2").map(|r| r.len()),
            sc.db.relation("orders_v1").map(|r| r.len()),
            "every v1 order migrates"
        );
        assert!(stats.nulls > 0, "migration mints a null per order");
        assert_eq!(out.relation("tiers").map(|r| r.len()), Some(12), "tiers dedup to 12");
    }
}
