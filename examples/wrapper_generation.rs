//! Object-to-relational wrapper generation — the paper's running concern
//! ("coding and configuring object-to-relational mappings was 30-40% of
//! the effort", §1). Derive an object (ER) wrapper over a legacy
//! relational database with ModelGen, query it through the mediator,
//! push object-level updates back down through update views, and see a
//! base-level integrity error translated into object terms.
//!
//! ```sh
//! cargo run --example wrapper_generation
//! ```

use model_management::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- the legacy database
    let legacy = SchemaBuilder::new("LegacyDB")
        .relation("customers", &[
            ("cid", DataType::Int),
            ("name", DataType::Text),
            ("city", DataType::Text),
        ])
        .relation("orders", &[
            ("oid", DataType::Int),
            ("cust", DataType::Int),
            ("total", DataType::Double),
        ])
        .key("customers", &["cid"])
        .key("orders", &["oid"])
        .foreign_key("orders", &["cust"], "customers", &["cid"])
        .build()?;
    let mut db = Database::empty_of(&legacy);
    for (cid, name, city) in [(1, "ann", "rome"), (2, "bob", "oslo")] {
        db.insert(
            "customers",
            Tuple::from([Value::Int(cid), Value::text(name), Value::text(city)]),
        );
    }
    for (oid, cust, total) in [(10, 1, 99.5), (11, 1, 12.0), (12, 2, 45.0)] {
        db.insert(
            "orders",
            Tuple::from([Value::Int(oid), Value::Int(cust), Value::Double(total)]),
        );
    }

    // --- ModelGen: derive the object wrapper schema + views
    let wrapper = relational_to_er(&legacy)?;
    println!("== Wrapper (ER) schema ==\n{}\n", wrapper.schema);

    // --- query through the wrapper: the mediator unfolds object queries
    // down to SQL-level scans (virtual integration, §5 peer-to-peer)
    let mediator = Mediator::new(&legacy, vec![&wrapper.views]);
    let q = Expr::base("customers")
        .select(Predicate::col_eq_lit("city", "rome"))
        .project(&["name"]);
    let romans = eval(&mediator.unfold(&q), &legacy, &db)?;
    println!("== Roman customers through the wrapper ==\n{romans}");

    // --- an entity-side mapping for update propagation: the wrapper's
    // entity sets written back to tables (Figure 2-style constraints)
    let er = wrapper.schema.clone();
    let mapping = Mapping::with_constraints(
        er.name.clone(),
        legacy.name.clone(),
        vec![
            MappingConstraint::ExprEq {
                source: entity_extent(&er, "customers")?.project(&["cid", "name", "city"]),
                target: Expr::base("customers"),
            },
            MappingConstraint::ExprEq {
                source: entity_extent(&er, "orders")?.project(&["oid", "cust", "total"]),
                target: Expr::base("orders"),
            },
        ],
    );
    let frags = parse_fragments(&er, &legacy, &mapping)?;
    let uviews = update_views(&er, &legacy, &frags)?;

    // object-level insert: a new customer object
    let mut entity_db = materialize_views(&wrapper.views, &legacy, &db)?;
    entity_db.insert_relation(
        "customers_orders",
        Relation::new(RelSchema::of(&[("$from", DataType::Any), ("$to", DataType::Any)])),
    );
    let mut delta = Delta::new();
    delta.insert(
        "customers",
        Tuple::from([
            Value::text("customers"),
            Value::Int(3),
            Value::text("cyd"),
            Value::text("rome"),
        ]),
    );
    let table_delta = propagate(&uviews, &er, &mut entity_db, &delta, &[])?;
    println!("== Table-level delta from the object insert ==");
    for (table, row) in &table_delta.inserts {
        println!("  +{table}{row}");
    }

    // --- error translation: a base-side violation in object terms
    let mut broken = db.clone();
    broken.insert(
        "orders",
        Tuple::from([Value::Int(13), Value::Int(99), Value::Double(5.0)]), // dangling cust
    );
    let violations = validate(&legacy, &broken);
    let translated = translate_violations(&legacy, &frags, &violations);
    println!("\n== Base violations in object terms ==");
    for t in &translated {
        println!("  {t}");
    }
    assert!(!translated.is_empty());
    Ok(())
}
