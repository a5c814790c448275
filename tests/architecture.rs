//! EF1 — Figure 1 architecture: the engine drives every operator through
//! the repository, lineage connects the artifacts, and the repository
//! snapshot round-trips the whole session.

use model_management::prelude::*;

fn paper_er() -> Schema {
    SchemaBuilder::new("ER")
        .entity("Person", &[("Id", DataType::Int), ("Name", DataType::Text)])
        .entity_sub("Employee", "Person", &[("Dept", DataType::Text)])
        .entity_sub("Customer", "Person", &[
            ("CreditScore", DataType::Int),
            ("BillingAddr", DataType::Text),
        ])
        .key("Person", &["Id"])
        .build()
        .expect("paper schema")
}

#[test]
fn full_operator_tour_with_lineage() {
    let engine = Engine::new();
    engine.add_schema(paper_er()).unwrap();

    // ModelGen
    let gen = engine
        .modelgen_er_to_relational("ER", InheritanceStrategy::Vertical)
        .expect("modelgen");
    assert!(Metamodel::Relational.conforms(&gen.schema));

    // TransGen
    let (qv, uv) = engine.transgen("ER", "ER_rel", "ER->ER_rel").expect("transgen");
    assert_eq!(qv.len(), 3);
    assert_eq!(uv.len(), 3);

    // Match against an independent schema
    let legacy = SchemaBuilder::new("Legacy")
        .relation("staff", &[("id", DataType::Int), ("name", DataType::Text)])
        .build()
        .expect("legacy schema");
    engine.add_schema(legacy).unwrap();
    let (cs, _) = engine
        .match_schemas("ER", "Legacy", &MatchConfig::default())
        .expect("match");
    assert!(!cs.is_empty());

    // Compose stored view sets
    engine.add_viewset("fwd", gen.views.clone()).unwrap();
    let mut top = ViewSet::new("ER_rel", "Top");
    top.push(ViewDef::new("People", Expr::base("Person").project(&["Id", "Name"])));
    engine.add_viewset("top", top).unwrap();
    let collapsed = engine.compose("fwd", "top", "collapsed").expect("compose");
    // the collapsed view reads the ER entity sets directly
    let bases = mm_expr::analyze::base_relations(&collapsed.view("People").expect("view").expr);
    assert!(bases.contains(&"Person"));

    // Extract / Diff over the generated mapping
    let extract = engine.extract("ER", "ER->ER_rel").expect("extract");
    assert!(!extract.schema.is_empty());

    // Exchange via a tgd mapping
    let s = SchemaBuilder::new("Src")
        .relation("Emp", &[("e", DataType::Text)])
        .build()
        .expect("src");
    let t = SchemaBuilder::new("Tgt")
        .relation("Mgr", &[("e", DataType::Text), ("m", DataType::Text)])
        .build()
        .expect("tgt");
    engine.add_schema(s.clone()).unwrap();
    engine.add_schema(t).unwrap();
    let mut m = Mapping::new("Src", "Tgt");
    m.push_tgd(Tgd::new(vec![Atom::vars("Emp", &["e"])], vec![Atom::vars("Mgr", &["e", "m"])]));
    engine.add_mapping("exch", m).unwrap();
    let mut db = Database::empty_of(&s);
    db.insert("Emp", Tuple::from([Value::text("ann")]));
    let (universal, stats) = engine.exchange("exch", "Tgt", &db).expect("exchange");
    assert_eq!(stats.nulls, 1);
    assert!(!universal.is_ground());

    // certain answers over the universal instance
    let tgt_schema = engine.repo.latest_schema("Tgt").expect("stored").0;
    let certain = certain_answers(&Expr::base("Mgr").project(&["e"]), &tgt_schema, &universal)
        .expect("certain");
    assert_eq!(certain.len(), 1);

    // Lineage: transgen output reaches back to the ER schema
    let (_, qid) = engine.repo.latest_viewset("ER->ER_rel.qviews").expect("stored");
    let upstream = engine.repo.upstream(&qid);
    assert!(upstream.iter().any(|a| a.name.name == "ER" && a.kind == ArtifactKind::Schema));
    // ... and impact analysis runs the other way: the qviews are among
    // the artifacts derived from the ER schema
    let (_, er_id) = engine.repo.latest_schema("ER").expect("stored");
    assert!(engine.repo.downstream(&er_id).contains(&qid));

    // Snapshot round-trip preserves the session
    let bytes = engine.repo.snapshot();
    let restored = Repository::restore(bytes).expect("restore");
    assert_eq!(restored.lineage().len(), engine.repo.lineage().len());
    assert_eq!(
        restored.latest_mapping("ER->ER_rel").expect("restored mapping").0,
        engine.repo.latest_mapping("ER->ER_rel").expect("original mapping").0,
    );
}

#[test]
fn engine_surfaces_operator_errors() {
    let engine = Engine::new();
    // missing artifacts
    assert!(engine.transgen("nope", "nope", "nope").is_err());
    assert!(engine.compose("a", "b", "c").is_err());
    // modelgen on a non-ER schema
    let s = SchemaBuilder::new("Flat")
        .relation("T", &[("a", DataType::Int)])
        .build()
        .expect("flat schema");
    engine.add_schema(s).unwrap();
    assert!(matches!(
        engine.modelgen_er_to_relational("Flat", InheritanceStrategy::Flat),
        Err(EngineError::ModelGen(_))
    ));
}

/// ModelGen both ways (§3) through the engine: ER → relational → ER.
/// The wrapper direction recovers every entity and each of its declared
/// attributes by name, and stores its output with a lineage edge back to
/// the relational schema it was derived from.
#[test]
fn modelgen_round_trip_keeps_entity_and_attribute_names() {
    let engine = Engine::new();
    engine.add_schema(paper_er()).unwrap();
    let rel = engine
        .modelgen_er_to_relational("ER", InheritanceStrategy::Vertical)
        .expect("er -> relational");
    let back = engine.modelgen_relational_to_er(&rel.schema.name).expect("relational -> er");
    for entity in paper_er().elements() {
        let got = back
            .schema
            .element(&entity.name)
            .unwrap_or_else(|| panic!("entity {} lost:\n{}", entity.name, back.schema));
        for attr in entity.attribute_names() {
            assert!(
                got.attribute_names().any(|a| a == attr),
                "{}.{attr} lost:\n{}",
                entity.name,
                back.schema
            );
        }
    }
    let (_, id) = engine.repo.latest_schema(&back.schema.name).expect("stored");
    assert!(engine.repo.upstream(&id).iter().any(|a| a.name.name == rel.schema.name));
}
