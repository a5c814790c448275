//! Data-warehouse loading (ETL), the paper's first motivating tool
//! category (§1.1): match a source snowflake schema against the warehouse
//! schema, interpret the correspondences as mapping constraints (the
//! Figure 4 construction), exchange the data with the chase, keep the
//! warehouse fresh with incremental view maintenance, and answer "where
//! did this row come from?" with provenance.
//!
//! ```sh
//! cargo run --example data_warehouse
//! ```

use model_management::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- source: operational snowflake (Figure 4's left schema, enlarged)
    let source = SchemaBuilder::new("Ops")
        .relation("Empl", &[
            ("EID", DataType::Int),
            ("Name", DataType::Text),
            ("Tel", DataType::Text),
            ("AID", DataType::Int),
        ])
        .relation("Addr", &[
            ("AID", DataType::Int),
            ("City", DataType::Text),
            ("Zip", DataType::Text),
        ])
        .key("Empl", &["EID"])
        .foreign_key("Empl", &["AID"], "Addr", &["AID"])
        .build()?;

    // --- target: the warehouse dimension (Figure 4's right schema)
    let warehouse = SchemaBuilder::new("Warehouse")
        .relation("Staff", &[
            ("SID", DataType::Int),
            ("Name", DataType::Text),
            ("City", DataType::Text),
        ])
        .key("Staff", &["SID"])
        .build()?;

    // --- step 1: the matcher proposes candidates; the data architect
    // confirms the ones that matter (the incremental loop of §3.1.1)
    let candidates = match_schemas(&source, &warehouse, &MatchConfig::default());
    println!("== Matcher candidates (top-2 per source attribute) ==");
    for c in candidates.top_k(2).correspondences.iter().take(10) {
        println!("  {c}");
    }
    let mut session = IncrementalSession::new(candidates);
    session.accept(&PathRef::attr("Empl", "Name"), &PathRef::attr("Staff", "Name"));
    session.accept(&PathRef::attr("Addr", "City"), &PathRef::attr("Staff", "City"));

    // --- step 2: interpret as snowflake constraints (Figure 4)
    let mut confirmed = CorrespondenceSet::new("Ops", "Warehouse");
    confirmed.push(Correspondence::new(
        PathRef::element("Empl"),
        PathRef::element("Staff"),
        1.0,
    ));
    for (s, t) in session.accepted() {
        confirmed.push(Correspondence::new(s.clone(), t.clone(), 1.0));
    }
    let mapping = snowflake_constraints(&source, &warehouse, &confirmed)?;
    println!("\n== Mapping constraints (Figure 4 interpretation) ==\n{mapping}");

    // --- step 3: data exchange with the chase (certain-answer semantics)
    let tgds = vec![Tgd::new(
        vec![
            Atom::vars("Empl", &["eid", "name", "tel", "aid"]),
            Atom::vars("Addr", &["aid", "city", "zip"]),
        ],
        vec![Atom::vars("Staff", &["eid", "name", "city"])],
    )];
    let mut ops_db = Database::empty_of(&source);
    for (eid, name, tel, aid) in
        [(1, "ann", "555", 10), (2, "bob", "556", 20), (3, "cyd", "557", 10)]
    {
        ops_db.insert(
            "Empl",
            Tuple::from([Value::Int(eid), Value::text(name), Value::text(tel), Value::Int(aid)]),
        );
    }
    for (aid, city, zip) in [(10, "rome", "00100"), (20, "oslo", "0150")] {
        ops_db.insert(
            "Addr",
            Tuple::from([Value::Int(aid), Value::text(city), Value::text(zip)]),
        );
    }
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let chased = ChaseProgram::compile(&tgds, &ops_db)
        .run_st(&warehouse, &ops_db, &mut ExecCtx::new(&mut gov))
        .expect("first-order tgds chase");
    let (mut staff_db, stats) = (chased.target, chased.stats);
    println!("== Chase: {stats:?} ==");
    println!("Staff rows: {}", staff_db.relation("Staff").expect("chased").len());

    // --- step 4: nightly refresh via incremental view maintenance
    let mut etl = ViewSet::new("Ops", "Warehouse");
    etl.push(ViewDef::new(
        "Staff",
        Expr::base("Empl")
            .join(Expr::base("Addr"), &[("AID", "AID")])
            .project(&["EID", "Name", "City"])
            .rename(&[("EID", "SID")]),
    ));
    let mut delta = Delta::new();
    delta.insert(
        "Empl",
        Tuple::from([Value::Int(4), Value::text("dan"), Value::text("558"), Value::Int(20)]),
    );
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let reports = MaintenancePlan::compile(&etl, &source).maintain(
        &source,
        &ops_db,
        &delta,
        &mut staff_db,
        &mut ExecCtx::new(&mut gov),
    )?;
    println!("\n== Incremental refresh ==");
    for r in &reports {
        println!("  {}: {:?}", r.view, r.strategy);
    }
    println!("Staff rows after refresh: {}", staff_db.relation("Staff").expect("maintained").len());
    delta.apply_to(&mut ops_db);

    // --- step 5: provenance of a warehouse row
    let target = Tuple::from([Value::Int(4), Value::text("dan"), Value::text("oslo")]);
    let witnesses = explain(&etl.view("Staff").expect("etl view").expr, &source, &ops_db, &target)?;
    println!("\n== Provenance of {target} ==");
    for w in &witnesses {
        for (rel, tuple) in w {
            println!("  {rel}{tuple}");
        }
    }
    assert_eq!(witnesses.len(), 1);
    Ok(())
}
