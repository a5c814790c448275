//! OLAP / report writing (§1.1: "OLAP databases, which map data sources
//! into data cubes" and "report writers that map between structured data
//! sources and a report format"): aggregate views over a mapped star
//! schema, optimized with predicate pushdown, maintained on refresh, and
//! explained with provenance.
//!
//! ```sh
//! cargo run --example olap_report
//! ```

use model_management::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- operational star schema
    let ops = SchemaBuilder::new("Ops")
        .relation("sales", &[
            ("sid", DataType::Int),
            ("product_ref", DataType::Int),
            ("region_ref", DataType::Int),
            ("amount", DataType::Int),
        ])
        .relation("products", &[("pid", DataType::Int), ("category", DataType::Text)])
        .relation("regions", &[("rid", DataType::Int), ("name", DataType::Text)])
        .key("sales", &["sid"])
        .key("products", &["pid"])
        .key("regions", &["rid"])
        .foreign_key("sales", &["product_ref"], "products", &["pid"])
        .foreign_key("sales", &["region_ref"], "regions", &["rid"])
        .build()?;
    let mut db = Database::empty_of(&ops);
    for (pid, cat) in [(1, "tools"), (2, "toys")] {
        db.insert("products", Tuple::from([Value::Int(pid), Value::text(cat)]));
    }
    for (rid, name) in [(10, "north"), (20, "south")] {
        db.insert("regions", Tuple::from([Value::Int(rid), Value::text(name)]));
    }
    for (sid, p, r, amt) in [
        (1, 1, 10, 100),
        (2, 1, 20, 250),
        (3, 2, 10, 40),
        (4, 2, 10, 60),
        (5, 1, 10, 300),
    ] {
        db.insert(
            "sales",
            Tuple::from([Value::Int(sid), Value::Int(p), Value::Int(r), Value::Int(amt)]),
        );
    }

    // --- the cube: a mapped, aggregated view (category × region)
    let mut cube = ViewSet::new("Ops", "Cube");
    cube.push(ViewDef::new(
        "SalesCube",
        Expr::base("sales")
            .join(Expr::base("products"), &[("product_ref", "pid")])
            .join(Expr::base("regions"), &[("region_ref", "rid")])
            .aggregate(
                &["category", "name"],
                vec![
                    AggSpec::of(AggFunc::Sum, "amount", "revenue"),
                    AggSpec::count("transactions"),
                    AggSpec::of(AggFunc::Max, "amount", "biggest"),
                ],
            ),
    ));
    let mat = materialize_views(&cube, &ops, &db)?;
    println!("== Sales cube (category × region) ==\n{}", mat.relation("SalesCube").expect("cube"));

    // --- a report query, optimized down to the base tables
    let report = Expr::base("SalesCube")
        .select(Predicate::col_eq_lit("category", "tools"))
        .project(&["name", "revenue"]);
    let unfolded = unfold_query(&report, &cube);
    let optimized = optimize(&unfolded, &ops)?;
    println!("== Optimized report plan ==\n{optimized}\n");
    let rows = eval(&optimized, &ops, &db)?;
    println!("== Tools revenue by region ==\n{rows}");
    assert_eq!(rows.len(), 2);

    // --- nightly refresh: aggregates are maintained by recompute
    // (detected automatically; see MaintenanceStrategy)
    let mut mat2 = mat.clone();
    let mut delta = Delta::new();
    delta.insert(
        "sales",
        Tuple::from([Value::Int(6), Value::Int(2), Value::Int(20), Value::Int(75)]),
    );
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let reports = MaintenancePlan::compile(&cube, &ops).maintain(
        &ops,
        &db,
        &delta,
        &mut mat2,
        &mut ExecCtx::new(&mut gov),
    )?;
    println!("== Refresh strategy ==");
    for r in &reports {
        println!("  {}: {:?}", r.view, r.strategy);
    }
    assert_eq!(reports[0].strategy, MaintenanceStrategy::Recompute);
    println!(
        "cube rows after refresh: {}\n",
        mat2.relation("SalesCube").expect("refreshed").len()
    );

    // --- "why is tools/north revenue 400?" — provenance of a cube cell
    let cell = Tuple::from([
        Value::text("tools"),
        Value::text("north"),
        Value::Int(400),
        Value::Int(2),
        Value::Int(300),
    ]);
    let witnesses = explain(&cube.views[0].expr, &ops, &db, &cell)?;
    println!("== Provenance of the tools/north cell ==");
    for w in &witnesses {
        for (rel, t) in w {
            println!("  {rel}{t}");
        }
    }
    assert_eq!(witnesses.len(), 1);
    // the witness contains both contributing sales rows
    assert_eq!(witnesses[0].iter().filter(|(r, _)| r == "sales").count(), 2);
    Ok(())
}
