//! Integration of the §5 runtime services over one realistic mapping:
//! an entity model compiled onto tables (TransGen), then mediated,
//! secured, synchronized, triggered, debugged, and index-advised — the
//! full "Mapping Runtime" box of Figure 1.

use model_management::prelude::*;

/// One shared scenario: a Customer hierarchy mapped vertically onto
/// tables, with data flowing both ways.
fn scenario() -> (Schema, Schema, Vec<Fragment>, ViewSet, ViewSet, Database) {
    let er = SchemaBuilder::new("ER")
        .entity("Party", &[("Id", DataType::Int), ("Name", DataType::Text)])
        .entity_sub("Customer", "Party", &[("Tier", DataType::Text)])
        .key("Party", &["Id"])
        .build()
        .expect("er schema");
    let gen = er_to_relational(&er, InheritanceStrategy::Vertical).expect("modelgen");
    let frags = parse_fragments(&er, &gen.schema, &gen.mapping).expect("fragments");
    let qv = query_views(&er, &gen.schema, &frags).expect("query views");
    let uv = update_views(&er, &gen.schema, &frags).expect("update views");

    let mut entities = Database::empty_of(&er);
    entities.insert_entity("Party", "Party", vec![Value::Int(1), Value::text("acme")]);
    entities.insert_entity(
        "Customer",
        "Customer",
        vec![Value::Int(2), Value::text("globex"), Value::text("gold")],
    );
    entities.insert_entity(
        "Customer",
        "Customer",
        vec![Value::Int(3), Value::text("initech"), Value::text("silver")],
    );
    let tables = materialize_views(&uv, &er, &entities).expect("tables");
    (er, gen.schema, frags, qv, uv, tables)
}

#[test]
fn mediation_plain_and_optimized_agree_over_compiled_views() {
    let (_, rel, _, qv, _, tables) = scenario();
    let mediator = Mediator::new(&rel, vec![&qv]);
    let q = Expr::base("Customer")
        .select(Predicate::col_eq_lit("Tier", "gold"))
        .project(&["Name"]);
    let unfolded = mediator.unfold(&q);
    let plain = eval(&unfolded, &rel, &tables).expect("plain");
    let optimized = optimize(&unfolded, &rel).expect("optimize");
    assert!(plain.set_eq(&eval(&optimized, &rel, &tables).expect("optimized")));
    assert_eq!(plain.len(), 1);
}

#[test]
fn access_policy_composes_with_query_views() {
    let (_, rel, _, qv, _, tables) = scenario();
    // the entity sets exposed to a restricted tool: no Tier column, only
    // customers (not plain parties)
    let policy = AccessPolicy::new().allow(
        "Customer",
        AccessRule::columns(&["Id", "Name"]),
    );
    let restricted = compile_policy(&qv, &policy);
    let mat = materialize_views(&restricted, &rel, &tables).expect("restricted");
    let c = mat.relation("Customer").expect("visible");
    assert!(!c.schema.has("Tier"));
    assert_eq!(c.len(), 2);
    assert!(mat.relation("Party").is_none());
    // static check rejects a Tier probe before any data moves
    let probe = Expr::base("Customer").project(&["Tier"]);
    assert!(!check_query(&probe, &policy).is_empty());
}

#[test]
fn triggers_fire_on_base_deltas_in_entity_terms() {
    let (_, rel, _, qv, _, tables) = scenario();
    let triggers = vec![Trigger::new("gold_signup", "Customer")
        .when(Predicate::col_eq_lit("Tier", "gold"))];
    let compiled = compile_triggers(&triggers, &qv, &rel);
    // a new gold customer arrives at the *table* level
    let mut delta = Delta::new();
    delta.insert("Party", Tuple::from([Value::Int(9), Value::text("hooli")]));
    delta.insert("Customer", Tuple::from([Value::Int(9), Value::text("gold")]));
    let firings = fire_triggers(&compiled, &rel, &tables, &delta).expect("fire");
    assert_eq!(firings.len(), 1);
    assert!(firings[0].row.values().contains(&Value::text("hooli")));
    // a silver customer does not fire
    let mut delta2 = Delta::new();
    delta2.insert("Party", Tuple::from([Value::Int(10), Value::text("pied")]));
    delta2.insert("Customer", Tuple::from([Value::Int(10), Value::text("silver")]));
    assert!(fire_triggers(&compiled, &rel, &tables, &delta2).expect("fire").is_empty());
}

#[test]
fn sync_rules_replicate_between_peers_sharing_the_entity_model() {
    let (er, rel, _, qv, uv, tables) = scenario();
    // peer 2: same entity model, fresh (empty) tables
    let mut peer2 = Database::empty_of(&rel);
    let rules = vec![SyncRule::filtered(
        "Customer",
        Predicate::col_eq_lit("Tier", "gold"),
    )];
    let translated = translate_rules(&rules, &qv, &rel);
    let stats = run_sync(&translated, &rel, &tables, &uv, &er, &mut peer2).expect("sync");
    assert_eq!(stats.rows_read, 1);
    // the gold customer landed in peer 2's Party AND Customer tables
    assert_eq!(peer2.relation("Party").expect("party").len(), 1);
    assert_eq!(peer2.relation("Customer").expect("customer").len(), 1);
}

#[test]
fn debugger_traces_the_generated_figure3_query() {
    let (_, rel, _, qv, _, tables) = scenario();
    let t = trace(&qv.view("Customer").expect("view").expr, &rel, &tables).expect("trace");
    // the compiled query has scans, a union of keys, left joins, the CASE
    // extension, and projections — all visible in the trace
    assert!(t.steps.iter().any(|s| s.operator.starts_with("scan")));
    assert!(t.steps.iter().any(|s| s.operator.starts_with('⟕')));
    assert!(t.steps.iter().any(|s| s.operator.starts_with("ext $type")));
    assert_eq!(t.steps.last().expect("root").output_rows, 2);
}

#[test]
fn index_advice_targets_the_join_keys_of_the_compiled_views() {
    let (_, rel, _, qv, _, _) = scenario();
    let workload = vec![
        Expr::base("Customer").select(Predicate::col_eq_lit("Tier", "gold")),
        Expr::base("Party").project(&["Name"]),
    ];
    let recs = advise_indexes(&workload, &qv, &rel);
    // the reconstruction queries join Party and Customer tables on Id
    assert!(
        recs.iter().any(|r| r.column == "Id"),
        "expected Id join-key advice, got {recs:?}"
    );
}

#[test]
fn error_translation_speaks_entity_language() {
    let (_, rel, frags, _, _, mut tables) = scenario();
    // corrupt the Customer table with a NULL tier
    tables.insert("Customer", Tuple::from([Value::Int(4), Value::Null]));
    let mut rel_nn = rel.clone();
    rel_nn
        .add_constraint(Constraint::NotNull {
            element: "Customer".into(),
            attribute: "Tier".into(),
        })
        .expect("constraint");
    let violations = validate(&rel_nn, &tables);
    assert!(!violations.is_empty());
    let translated = translate_violations(&rel_nn, &frags, &violations);
    assert!(translated
        .iter()
        .any(|e| e.entity_types.contains(&"Customer".to_string())
            && e.attribute.as_deref() == Some("Tier")));
}

#[test]
fn batch_load_bypasses_row_at_a_time_propagation() {
    let (er, _, _, _, uv, mut tables) = scenario();
    let mut batch = Database::empty_of(&er);
    for i in 100..110 {
        batch.insert_entity(
            "Customer",
            "Customer",
            vec![Value::Int(i), Value::Text(format!("bulk{i}")), Value::text("bronze")],
        );
    }
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let stats = batch_load(&uv, &er, &batch, &mut tables, &mut gov).expect("load");
    assert_eq!(stats.staged, 10);
    assert_eq!(stats.loaded, 20); // Party row + Customer row per entity
}
