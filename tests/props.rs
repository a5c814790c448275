//! Property-based tests on core invariants, spanning crates.

use mm_repository::codec::{Decode, Encode, Reader, Writer};
use model_management::prelude::*;
use proptest::prelude::*;

/// Compile and run the s-t chase under an unbounded budget.
fn st_chase(tgt: &Schema, tgds: &[Tgd], db: &Database) -> Database {
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let program = ChaseProgram::compile(tgds, db);
    program.run_st(tgt, db, &mut ExecCtx::new(&mut gov)).expect("first-order tgds").target
}

/// Compile and run the general chase (no egds) under `budget`.
fn general_chase(
    db: &mut Database,
    tgds: &[Tgd],
    budget: &ExecBudget,
) -> Result<ChaseOutcome, ChaseFailure> {
    let mut gov = Governor::new(budget);
    let program = ChaseProgram::compile(tgds, db);
    program.run_general(db, &[], &mut ExecCtx::new(&mut gov)).map(|run| run.outcome)
}

// --- generators -------------------------------------------------------------

fn arb_lit() -> impl Strategy<Value = Lit> {
    prop_oneof![
        any::<i64>().prop_map(Lit::Int),
        any::<bool>().prop_map(Lit::Bool),
        "[a-z]{0,8}".prop_map(Lit::Text),
        (-30000i32..30000).prop_map(Lit::Date),
        Just(Lit::Null),
        any::<f64>().prop_map(Lit::Double),
    ]
}

fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        "[a-z]{1,4}".prop_map(Term::Var),
        arb_lit().prop_map(Term::Const),
    ];
    leaf.prop_recursive(3, 12, 3, |inner| {
        ("[f-h]{1}", proptest::collection::vec(inner, 0..3))
            .prop_map(|(f, args)| Term::Func(f, args))
    })
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    ("[A-Z]{1,3}", proptest::collection::vec(arb_term(), 1..4))
        .prop_map(|(r, terms)| Atom { relation: r, terms })
}

/// Small SPJ expressions over the fixed two-relation test schema.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let base = prop_oneof![Just(Expr::base("R")), Just(Expr::base("T"))];
    base.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| e.select(Predicate::col_eq_lit("a", 1i64))),
            inner.clone().prop_map(|e| e.select(Predicate::True)),
            inner.clone().prop_map(|e| e.project(&["a"])),
            inner.clone().prop_map(|e| e.distinct()),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| {
                // align both sides to single column `a` for set ops
                l.project(&["a"]).union(r.project(&["a"]))
            }),
            inner.prop_map(|e| {
                e.aggregate(&["a"], vec![AggSpec::count("cnt")]).project(&["a"])
            }),
        ]
    })
}

fn test_schema() -> Schema {
    SchemaBuilder::new("P")
        .relation("R", &[("a", DataType::Int), ("b", DataType::Int)])
        .relation("T", &[("a", DataType::Int), ("b", DataType::Int)])
        .build()
        .expect("test schema")
}

fn db_from(rows_r: &[(i64, i64)], rows_t: &[(i64, i64)]) -> Database {
    let s = test_schema();
    let mut db = Database::empty_of(&s);
    for (a, b) in rows_r {
        db.insert("R", Tuple::from([Value::Int(*a), Value::Int(*b)]));
    }
    for (a, b) in rows_t {
        db.insert("T", Tuple::from([Value::Int(*a), Value::Int(*b)]));
    }
    db
}

fn codec_roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
    let mut w = Writer::new();
    v.encode(&mut w);
    let mut r = Reader::new(w.finish());
    let back = T::decode(&mut r).expect("decode");
    assert_eq!(&back, v);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // --- codec: every Lit/Term/Atom/Expr round-trips -----------------------
    #[test]
    fn codec_lit_roundtrip(l in arb_lit()) {
        codec_roundtrip(&l);
    }

    #[test]
    fn codec_term_roundtrip(t in arb_term()) {
        codec_roundtrip(&t);
    }

    #[test]
    fn codec_atom_roundtrip(a in arb_atom()) {
        codec_roundtrip(&a);
    }

    #[test]
    fn codec_expr_roundtrip(e in arb_expr()) {
        codec_roundtrip(&e);
    }

    // --- simplify preserves semantics ---------------------------------------
    #[test]
    fn simplify_preserves_evaluation(
        e in arb_expr(),
        rows_r in proptest::collection::vec((0i64..5, 0i64..5), 0..8),
        rows_t in proptest::collection::vec((0i64..5, 0i64..5), 0..8),
    ) {
        let s = test_schema();
        let db = db_from(&rows_r, &rows_t);
        let simplified = mm_expr::rewrite::simplify_fix(&e);
        let before = eval(&e, &s, &db).expect("well-typed by construction");
        let after = eval(&simplified, &s, &db).expect("simplified stays well-typed");
        prop_assert!(before.set_eq(&after), "simplify changed semantics\n{e}\n=>\n{simplified}");
    }

    // --- optimizer preserves semantics --------------------------------------
    #[test]
    fn optimizer_preserves_evaluation(
        e in arb_expr(),
        rows_r in proptest::collection::vec((0i64..5, 0i64..5), 0..8),
        rows_t in proptest::collection::vec((0i64..5, 0i64..5), 0..8),
    ) {
        let s = test_schema();
        let db = db_from(&rows_r, &rows_t);
        let optimized = mm_expr::optimize::optimize(&e, &s).expect("optimizable");
        let before = eval(&e, &s, &db).expect("well-typed by construction");
        let after = eval(&optimized, &s, &db).expect("optimized stays well-typed");
        prop_assert!(before.set_eq(&after), "optimize changed semantics\n{e}\n=>\n{optimized}");
    }

    #[test]
    fn optimizer_preserves_join_queries(
        rows_r in proptest::collection::vec((0i64..5, 0i64..5), 0..10),
        rows_t in proptest::collection::vec((0i64..5, 0i64..5), 0..10),
        pivot in 0i64..5,
    ) {
        let s = test_schema();
        let db = db_from(&rows_r, &rows_t);
        let e = Expr::base("R")
            .join(Expr::base("T").rename(&[("b", "c")]), &[("a", "a")])
            .select(Predicate::col_eq_lit("c", pivot).or(Predicate::col_eq_lit("b", pivot)))
            .project(&["a", "b"]);
        let optimized = mm_expr::optimize::optimize(&e, &s).expect("optimizable");
        let before = eval(&e, &s, &db).expect("plain");
        let after = eval(&optimized, &s, &db).expect("optimized");
        prop_assert!(before.set_eq(&after));
    }

    // --- view unfolding equals materialize-then-query ----------------------
    #[test]
    fn unfolding_agrees_with_materialization(
        rows_r in proptest::collection::vec((0i64..5, 0i64..5), 0..8),
        rows_t in proptest::collection::vec((0i64..5, 0i64..5), 0..8),
    ) {
        let s = test_schema();
        let db = db_from(&rows_r, &rows_t);
        let mut views = ViewSet::new("P", "V");
        views.push(ViewDef::new(
            "J",
            Expr::base("R").join(Expr::base("T").rename(&[("b", "c")]), &[("a", "a")]),
        ));
        let vschema = SchemaBuilder::new("V")
            .relation("J", &[("a", DataType::Int), ("b", DataType::Int), ("c", DataType::Int)])
            .build()
            .expect("view schema");
        let q = Expr::base("J").project(&["a", "c"]);
        let mat = materialize_views(&views, &s, &db).expect("materialize");
        let direct = eval(&q, &vschema, &mat).expect("query view");
        let unfolded = eval(&unfold_query(&q, &views), &s, &db).expect("unfolded");
        prop_assert!(direct.set_eq(&unfolded));
    }

    // --- chase: the result is a universal solution -------------------------
    #[test]
    fn chase_produces_satisfying_instance(
        rows_r in proptest::collection::vec((0i64..4, 0i64..4), 0..6),
    ) {
        let _src = test_schema();
        let tgt = SchemaBuilder::new("Tgt")
            .relation("U", &[("a", DataType::Int), ("w", DataType::Any)])
            .build()
            .expect("target");
        let tgds = vec![Tgd::new(
            vec![Atom::vars("R", &["x", "y"])],
            vec![Atom::vars("U", &["x", "w"])],
        )];
        let db = db_from(&rows_r, &[]);
        let out = st_chase(&tgt, &tgds, &db);
        // satisfaction: every R row has a U witness
        for t in db.relation("R").expect("R").iter() {
            let a = t.values()[0].clone();
            let found = out
                .relation("U")
                .expect("U")
                .iter()
                .any(|u| u.values()[0] == a);
            prop_assert!(found);
        }
        // chasing again adds nothing (fixpoint)
        let merged_schema = SchemaBuilder::new("M")
            .relation("R", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("U", &[("a", DataType::Int), ("w", DataType::Any)])
            .build()
            .expect("merged");
        let mut merged = Database::empty_of(&merged_schema);
        for (name, rel) in db.relations().chain(out.relations()) {
            if merged.relation(name).is_some() {
                for t in rel.iter() {
                    merged.insert(name, t.clone());
                }
            }
        }
        merged.set_label_watermark(out.label_watermark());
        let outcome = general_chase(&mut merged, &tgds, &ExecBudget::unbounded().with_rounds(5));
        prop_assert!(matches!(outcome, Ok(ChaseOutcome::Done(st)) if st.fired == 0));
    }

    // --- composition agrees with transport on copy chains -------------------
    #[test]
    fn composition_transport_equivalence(
        rows in proptest::collection::vec((0i64..4, 0i64..4), 0..6),
    ) {
        use mm_workload::composition_chain;
        let (s1, s2, s3, m12, m23) = composition_chain(2, 2);
        let mut d1 = Database::empty_of(&s1);
        for (i, (a, b)) in rows.iter().enumerate() {
            let rel = format!("S{}", i % 2);
            d1.insert(&rel, Tuple::from([Value::Int(*a), Value::Int(*b)]));
        }
        let (chased, _, _) = transport_via(&s2, &m12, &s3, &m23, &d1).expect("transport");
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let ctx = &mut ExecCtx::new(&mut gov);
        let so = compose_st_tgds(&m12, &m23, ctx).expect("compose");
        let direct = apply_sotgd(&so, &d1, &s3, &mut gov).expect("apply");
        prop_assert!(hom_equivalent(&chased, &direct));
    }

    // --- deskolemized compositions agree with SO application ----------------
    #[test]
    fn deskolemization_preserves_composition_semantics(
        rows in proptest::collection::vec((0i64..4, 0i64..4), 0..6),
    ) {
        use mm_workload::{copy_tgds, tgds::binary_schema};
        // full copy tgds compose to a first-order-expressible SO-tgd
        let s1 = binary_schema("S1", "A", 2);
        let s3 = binary_schema("S3", "C", 2);
        let m12 = copy_tgds("A", "B", 2);
        let m23 = copy_tgds("B", "C", 2);
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let ctx = &mut ExecCtx::new(&mut gov);
        let so = compose_st_tgds(&m12, &m23, ctx).expect("compose");
        let tgds =
            try_deskolemize(&so, &mut gov).expect("unbounded").expect("full tgds deskolemize");
        let mut d1 = Database::empty_of(&s1);
        for (i, (a, b)) in rows.iter().enumerate() {
            d1.insert(&format!("A{}", i % 2), Tuple::from([Value::Int(*a), Value::Int(*b)]));
        }
        let via_so = apply_sotgd(&so, &d1, &s3, &mut gov).expect("apply");
        let via_fo = st_chase(&s3, &tgds, &d1);
        prop_assert!(hom_equivalent(&via_so, &via_fo));
    }

    // --- matcher: top-k candidate lists are nested and sorted ---------------
    #[test]
    fn matcher_topk_nested(seed in 0u64..50) {
        use mm_workload::{perturb_schema, relational_schema};
        let s = relational_schema(seed, 3, 4);
        let (p, _) = perturb_schema(&s, seed + 1, 0.4, 0.1, 0.2);
        let cfg1 = MatchConfig { top_k: 1, threshold: 0.2, ..Default::default() };
        let cfg3 = MatchConfig { top_k: 3, threshold: 0.2, ..Default::default() };
        let top1 = match_schemas(&s, &p, &cfg1);
        let top3 = match_schemas(&s, &p, &cfg3);
        // every top-1 attribute candidate appears in the top-3 set
        for c in &top1.correspondences {
            if c.source.attribute.is_none() { continue; }
            prop_assert!(
                top3.correspondences
                    .iter()
                    .any(|d| d.source == c.source && d.target == c.target),
                "top-1 candidate {c} missing from top-3"
            );
        }
        // candidate lists are sorted by confidence
        for c in &top3.correspondences {
            let list = top3.candidates_for(&c.source);
            for w in list.windows(2) {
                prop_assert!(w[0].confidence >= w[1].confidence);
            }
        }
    }

    // --- schema text format round-trips -------------------------------------
    #[test]
    fn schema_display_parse_roundtrip(seed in 0u64..40, which in 0usize..3) {
        use mm_workload::{er_hierarchy, relational_schema, snowflake_schema};
        let schema = match which {
            0 => relational_schema(seed, 4, 5),
            1 => snowflake_schema(seed, 3, 3),
            _ => er_hierarchy(seed, 2, 2, 2),
        };
        let text = schema.to_string();
        let parsed = parse_schema(&text)
            .unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(parsed, schema);
    }

    // --- relation invariants -------------------------------------------------
    #[test]
    fn relation_set_semantics(rows in proptest::collection::vec((0i64..4, 0i64..4), 0..20)) {
        let mut rel = Relation::new(RelSchema::of(&[("a", DataType::Int), ("b", DataType::Int)]));
        for (a, b) in &rows {
            rel.insert(Tuple::from([Value::Int(*a), Value::Int(*b)]));
        }
        let unique: std::collections::HashSet<_> = rows.iter().collect();
        prop_assert_eq!(rel.len(), unique.len());
        // remove everything; relation is empty
        for (a, b) in &rows {
            rel.remove(&Tuple::from([Value::Int(*a), Value::Int(*b)]));
        }
        prop_assert!(rel.is_empty());
    }

    // --- roundtripping holds for generated hierarchies of any shape --------
    #[test]
    fn generated_hierarchies_roundtrip(
        seed in 0u64..20,
        depth in 1usize..3,
        fanout in 1usize..3,
    ) {
        use mm_workload::{er_hierarchy, populate_er};
        let er = er_hierarchy(seed, depth, fanout, 2);
        let gen = er_to_relational(&er, InheritanceStrategy::Vertical).expect("modelgen");
        let frags = parse_fragments(&er, &gen.schema, &gen.mapping).expect("fragments");
        prop_assert!(check_coverage(&er, &frags).is_empty());
        let db = populate_er(&er, seed, 3);
        let report = verify_roundtrip(&er, &gen.schema, &frags, &db).expect("roundtrip");
        prop_assert!(report.roundtrips(), "{:?}", report.mismatches);
    }

    // --- governance: weakly acyclic sets terminate under generous budgets ---
    #[test]
    fn weakly_acyclic_chase_terminates_under_budget(hops in 2usize..7) {
        use mm_workload::faults;
        let (_, mut db, tgds) = faults::terminating_chain(hops);
        let budget = ExecBudget::unbounded().with_rounds(64).with_steps(1_000_000);
        let out = general_chase(&mut db, &tgds, &budget).expect("terminates");
        prop_assert!(matches!(out, ChaseOutcome::Done(st) if st.fired == hops - 1));
        prop_assert_eq!(db.relation(&format!("R{}", hops - 1)).expect("last hop").len(), 1);
    }

    // --- governance: divergent sets trip a typed resource error -------------
    #[test]
    fn divergent_chase_trips_resource_error(cap in 1u64..12) {
        use mm_workload::faults;
        let (_, mut db, tgds) = faults::divergent_tgds();
        let budget = ExecBudget::unbounded().with_rounds(cap);
        let failure = general_chase(&mut db, &tgds, &budget).expect_err("must not converge");
        prop_assert!(
            matches!(
                failure.error,
                ExecError::Diverged { .. } | ExecError::BudgetExhausted { .. }
            ),
            "unexpected error: {}",
            failure.error
        );
    }

    // --- governance: cancellation stops chase and eval mid-run --------------
    #[test]
    fn cancellation_stops_chase_and_eval(polls in 1u64..6) {
        use mm_workload::faults;
        // chase: no round cap — the token alone must stop the divergent run
        let (_, mut db, tgds) = faults::divergent_tgds();
        let budget = ExecBudget::unbounded().with_cancel(faults::cancel_after(polls));
        let failure =
            general_chase(&mut db, &tgds, &budget).expect_err("cancellation must stop the chase");
        prop_assert!(matches!(failure.error, ExecError::Cancelled { .. }), "{}", failure.error);

        // eval: the token trips inside the join loops of a large self-join
        let (schema, big) = faults::oversized_instance(5_000);
        let q = Expr::base("R0")
            .join(Expr::base("R0").rename(&[("a", "b"), ("b", "c")]), &[("b", "b")]);
        let budget = ExecBudget::unbounded().with_cancel(faults::cancel_after(polls));
        let mut gov = Governor::new(&budget);
        let err = eval_governed(&q, &schema, &big, &mut gov)
            .expect_err("cancellation must stop evaluation");
        prop_assert!(matches!(err, EvalError::Exec(ExecError::Cancelled { .. })), "{err:?}");
    }
}
