//! Cross-crate pipeline tests: every inheritance strategy, from ModelGen
//! through TransGen to instance roundtrips — the "flexible mapping of
//! inheritance hierarchies to tables" the paper calls for (§3.2), wired
//! through the whole stack.

use model_management::prelude::*;
use mm_workload::{er_hierarchy, populate_er};

fn roundtrip_strategy(strategy: InheritanceStrategy) {
    let er = er_hierarchy(77, 2, 2, 2);
    let db = populate_er(&er, 5, 20);
    let gen = er_to_relational(&er, strategy).expect("modelgen");
    let frags = parse_fragments(&er, &gen.schema, &gen.mapping).expect("fragments");
    assert!(check_coverage(&er, &frags).is_empty());

    // forward: entities -> tables via ModelGen's compiled views
    let tables = materialize_views(&gen.views, &er, &db).expect("forward");
    // backward: tables -> entities via TransGen's query views
    let qv = query_views(&er, &gen.schema, &frags).expect("query views");
    let back = materialize_views(&qv, &gen.schema, &tables).expect("backward");
    for (name, rel) in db.relations() {
        let b = back.relation(name).unwrap_or_else(|| panic!("{strategy}: {name} missing"));
        assert!(
            rel.set_eq(b),
            "{strategy}: {name} diverged\nwant:\n{rel}\ngot:\n{b}"
        );
    }
}

#[test]
fn vertical_roundtrips_through_the_full_stack() {
    roundtrip_strategy(InheritanceStrategy::Vertical);
}

#[test]
fn horizontal_roundtrips_through_the_full_stack() {
    roundtrip_strategy(InheritanceStrategy::Horizontal);
}

#[test]
fn flat_roundtrips_through_the_full_stack() {
    roundtrip_strategy(InheritanceStrategy::Flat);
}

#[test]
fn horizontal_update_views_agree_with_modelgen_views() {
    // for horizontal, both ModelGen's forward views and TransGen's update
    // views express the same transformation — verify they agree on data
    let er = er_hierarchy(78, 2, 2, 2);
    let db = populate_er(&er, 6, 15);
    let gen = er_to_relational(&er, InheritanceStrategy::Horizontal).expect("modelgen");
    let frags = parse_fragments(&er, &gen.schema, &gen.mapping).expect("fragments");
    let uv = update_views(&er, &gen.schema, &frags).expect("update views");
    let via_modelgen = materialize_views(&gen.views, &er, &db).expect("modelgen route");
    let via_transgen = materialize_views(&uv, &er, &db).expect("transgen route");
    for (name, rel) in via_modelgen.relations() {
        assert!(rel.set_eq(via_transgen.relation(name).expect("same relations")));
    }
}

#[test]
fn constraint_propagation_holds_for_generated_hierarchies() {
    for strategy in [InheritanceStrategy::Vertical, InheritanceStrategy::Horizontal] {
        let er = er_hierarchy(79, 2, 2, 2);
        let db = populate_er(&er, 7, 10);
        let gen = er_to_relational(&er, strategy).expect("modelgen");
        let frags = parse_fragments(&er, &gen.schema, &gen.mapping).expect("fragments");
        let violations =
            check_implication(&er, &gen.schema, &frags, &db).expect("implication check");
        assert!(violations.is_empty(), "{strategy}: {violations:?}");
    }
}

#[test]
fn wrapper_direction_composes_with_forward_direction() {
    // relational -> ER (wrapper) then query the wrapper through mediation
    let rel = SchemaBuilder::new("DB")
        .relation("items", &[("iid", DataType::Int), ("label", DataType::Text)])
        .key("items", &["iid"])
        .build()
        .expect("schema");
    let wrapper = relational_to_er(&rel).expect("wrapper");
    let mut db = Database::empty_of(&rel);
    for i in 0..10 {
        db.insert(
            "items",
            Tuple::from([Value::Int(i), Value::Text(format!("item{i}"))]),
        );
    }
    let mediator = Mediator::new(&rel, vec![&wrapper.views]);
    let q = Expr::base("items").select(Predicate::col_eq_lit("label", "item3"));
    let unfolded = mediator.unfold(&q);
    let plain = eval(&unfolded, &rel, &db).expect("plain");
    let optimized = optimize(&unfolded, &rel).expect("optimize");
    assert!(plain.set_eq(&eval(&optimized, &rel, &db).expect("optimized")));
    assert_eq!(plain.len(), 1);
}
