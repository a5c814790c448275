//! Tier-1 fault-injection suite: every engine operator, driven with the
//! adversarial inputs from `mm_workload::faults`, must return a typed
//! error or a recorded degradation within its budget — never panic,
//! never run unbounded.

use mm_engine::prelude::*;
use mm_server::protocol::{engine_error_code, ERR_BUDGET_EXHAUSTED};
use mm_workload::faults;

fn store_tgd_mapping(engine: &Engine, name: &str, source: &str, target: &str, tgds: Vec<Tgd>) {
    let mut m = Mapping::new(source, target);
    for t in tgds {
        m.push_tgd(t);
    }
    engine.add_mapping(name, m).unwrap();
}

/// A view chain whose composition has `2^depth2 - 1 + 2^depth2 * (2^(depth1 + 1) - 1)`
/// nodes: `V1` is a balanced union tree with `2^depth1` leaves over `R0`,
/// and `V2` one with `2^depth2` leaves over `V1`. Unions survive
/// `compose_views`' simplification, and a balanced tree keeps the
/// recursion shallow.
fn union_chain(depth1: u32, depth2: u32) -> (ViewSet, ViewSet) {
    fn tree(leaf: &str, depth: u32) -> Expr {
        if depth == 0 {
            Expr::base(leaf)
        } else {
            tree(leaf, depth - 1).union_all(tree(leaf, depth - 1))
        }
    }
    let mut v1 = ViewSet::new("Big", "L1");
    v1.push(ViewDef::new("V1", tree("R0", depth1)));
    let mut v2 = ViewSet::new("L1", "L2");
    v2.push(ViewDef::new("V2", tree("V1", depth2)));
    (v1, v2)
}

/// The divergent tgd set trips `Diverged` at the budget's round cap
/// instead of silently stopping or spinning forever.
#[test]
fn divergent_chase_trips_diverged() {
    let (schema, db, tgds) = faults::divergent_tgds();
    let engine = Engine::with_config(EngineConfig {
        budget: ExecBudget::unbounded().with_rounds(16),
        ..Default::default()
    })
    .unwrap();
    engine.add_schema(schema).unwrap();
    store_tgd_mapping(&engine, "loop", "Loop", "Loop", tgds);
    let err = engine.chase_general("loop", "Loop", &db).unwrap_err();
    match err {
        EngineError::Exec(ExecError::Diverged { rounds }) => assert_eq!(rounds, 16),
        other => panic!("expected Diverged, got {other:?}"),
    }
}

/// The same divergent set under a wall-clock budget stops within the
/// deadline — boundedness does not depend on the round cap alone.
#[test]
fn divergent_chase_respects_wall_clock() {
    let (schema, db, tgds) = faults::divergent_tgds();
    let engine = Engine::with_config(EngineConfig {
        budget: ExecBudget::unbounded()
            .with_rounds(u64::MAX)
            .with_wall(std::time::Duration::from_millis(50)),
        ..Default::default()
    })
    .unwrap();
    engine.add_schema(schema).unwrap();
    store_tgd_mapping(&engine, "loop", "Loop", "Loop", tgds);
    let started = std::time::Instant::now();
    let err = engine.chase_general("loop", "Loop", &db).unwrap_err();
    assert!(started.elapsed() < std::time::Duration::from_secs(10), "ran unbounded");
    assert!(
        matches!(err, EngineError::Exec(ExecError::BudgetExhausted { .. })),
        "expected a budget trip, got {err:?}"
    );
}

/// A weakly acyclic set terminates normally under a generous budget —
/// governance must not break converging runs.
#[test]
fn terminating_chain_completes_under_budget() {
    let (schema, db, tgds) = faults::terminating_chain(5);
    let engine = Engine::new();
    engine.add_schema(schema).unwrap();
    store_tgd_mapping(&engine, "chain", "Chain", "Chain", tgds);
    let (out, outcome) = engine.chase_general("chain", "Chain", &db).unwrap();
    assert!(matches!(outcome, ChaseOutcome::Done(_)));
    assert_eq!(out.relation("R4").unwrap().len(), 1);
}

/// Mid-operation cancellation stops an otherwise-unbounded chase: no
/// round cap, no step cap — the token alone halts it.
#[test]
fn cancellation_stops_divergent_chase() {
    let (schema, db, tgds) = faults::divergent_tgds();
    let token = faults::cancel_after(5);
    let engine = Engine::with_config(EngineConfig {
        budget: ExecBudget::unbounded().with_rounds(u64::MAX).with_cancel(token),
        ..Default::default()
    })
    .unwrap();
    engine.add_schema(schema).unwrap();
    store_tgd_mapping(&engine, "loop", "Loop", "Loop", tgds);
    let err = engine.chase_general("loop", "Loop", &db).unwrap_err();
    assert!(matches!(err, EngineError::Exec(ExecError::Cancelled { .. })), "{err:?}");
}

/// Exchange of an oversized instance trips the row budget with a typed
/// error instead of materializing everything.
#[test]
fn exchange_respects_row_budget() {
    let (src, db) = faults::oversized_instance(5_000);
    let tgt = mm_workload::binary_schema("TgtBig", "T", 1);
    let tgds = vec![Tgd::new(
        vec![Atom::vars("R0", &["x", "y"])],
        vec![Atom::vars("T0", &["x", "y"])],
    )];
    let engine = Engine::with_config(EngineConfig {
        budget: ExecBudget::unbounded().with_rows(100),
        ..Default::default()
    })
    .unwrap();
    engine.add_schema(src).unwrap();
    engine.add_schema(tgt).unwrap();
    store_tgd_mapping(&engine, "copy", "Big", "TgtBig", tgds);
    let err = engine.exchange("copy", "TgtBig", &Database::new("Big")).map(|_| ()).err();
    // empty source: fine. Now the oversized one must trip.
    assert!(err.is_none() || matches!(err, Some(EngineError::Exec(_))));
    let err = engine.exchange("copy", "TgtBig", &db).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Exec(ExecError::BudgetExhausted { resource: Resource::Rows, .. })
        ),
        "{err:?}"
    );
}

/// Under the default (permissive) config the governed exchange agrees
/// with the naive scanning chase.
#[test]
fn governed_exchange_matches_legacy_chase() {
    let (src, db) = faults::oversized_instance(50);
    let tgt = mm_workload::binary_schema("TgtBig", "T", 1);
    let tgds = vec![Tgd::new(
        vec![Atom::vars("R0", &["x", "y"])],
        vec![Atom::vars("T0", &["x", "y"])],
    )];
    let engine = Engine::new();
    engine.add_schema(src).unwrap();
    engine.add_schema(tgt.clone()).unwrap();
    store_tgd_mapping(&engine, "copy", "Big", "TgtBig", tgds.clone());
    let (governed, stats) = engine.exchange("copy", "TgtBig", &db).unwrap();
    let (legacy, legacy_stats) =
        mm_chase::testkit::chase_st_reference(&tgt, &tgds, &db, &ExecBudget::unbounded()).unwrap();
    assert!(governed.relation("T0").unwrap().set_eq(legacy.relation("T0").unwrap()));
    assert_eq!(stats.fired, legacy_stats.fired);
}

/// Exponential SO-tgd composition trips the clause cap at the first
/// clause past it, with a typed error and nothing stored, instead of
/// materializing 4^4 clauses; a cap of exactly 4^4 lets it through.
#[test]
fn exponential_compose_trips_clause_bound() {
    let (_, _, _, m12, m23) = faults::exponential_compose(4, 4);
    let engine = |clauses: u64| {
        let e = Engine::with_config(EngineConfig {
            budget: ExecBudget::unbounded().with_clauses(clauses),
            ..Default::default()
        })
        .unwrap();
        store_tgd_mapping(&e, "m12", "S1", "S2", m12.clone());
        store_tgd_mapping(&e, "m23", "S2", "S3", m23.clone());
        e
    };

    let tight = engine(32); // < 4^4 = 256
    let err = tight.compose_tgd_mappings("m12", "m23", "m13").map(|_| ()).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Exec(ExecError::BudgetExhausted {
                resource: Resource::Clauses,
                consumed: 33,
                limit: 32,
            })
        ),
        "{err:?}"
    );
    assert!(tight.repo.latest_mapping("m13").is_err());

    let exact = engine(256);
    let (so, _folded) = exact.compose_tgd_mappings("m12", "m23", "m13").unwrap();
    assert_eq!(so.clauses.len(), 256);
}

/// One small clause budget bounds both compose operators, and a trip
/// is the same typed error with the same wire code in both: tgd
/// composition stops before materializing 4^4 clauses, view composition
/// before storing a 63-node chain.
#[test]
fn exponential_compose_trips_clause_budget() {
    let (_, _, _, m12, m23) = faults::exponential_compose(4, 4);
    let engine = Engine::with_config(EngineConfig {
        budget: ExecBudget::unbounded().with_clauses(32),
        ..Default::default()
    })
    .unwrap();
    store_tgd_mapping(&engine, "m12", "S1", "S2", m12);
    store_tgd_mapping(&engine, "m23", "S2", "S3", m23);
    let (v1, v2) = union_chain(1, 4); // 15 + 16 * 3 = 63 nodes
    engine.add_viewset("v1", v1).unwrap();
    engine.add_viewset("v2", v2).unwrap();
    let errors = [
        engine.compose_tgd_mappings("m12", "m23", "m13").map(|_| ()).unwrap_err(),
        engine.compose("v1", "v2", "v12").map(|_| ()).unwrap_err(),
    ];
    for err in &errors {
        assert!(
            matches!(
                err,
                EngineError::Exec(ExecError::BudgetExhausted {
                    resource: Resource::Clauses,
                    limit: 32,
                    ..
                })
            ),
            "{err:?}"
        );
        assert_eq!(engine_error_code(err), ERR_BUDGET_EXHAUSTED, "{err:?}");
    }
    assert!(engine.repo.latest_mapping("m13").is_err());
    assert!(engine.repo.latest_viewset("v12").is_err());
}

/// A budget that sets neither a round nor a clause cap still gets the
/// engine defaults: the general chase diverges at 256 rounds, tgd
/// composition stops at 65 536 clauses, and so does a view composition
/// past 65 536 nodes. Explicit caps win over the defaults.
#[test]
fn engine_defaults_fill_unset_caps() {
    let engine = |budget: ExecBudget| {
        Engine::with_config(EngineConfig { budget, ..Default::default() }).unwrap()
    };
    let defaults = engine(ExecBudget::unbounded().with_steps(u64::MAX));
    let explicit = engine(ExecBudget::unbounded().with_rounds(300).with_clauses(1 << 18));

    let (schema, db, tgds) = faults::divergent_tgds();
    for (e, rounds) in [(&defaults, 256), (&explicit, 300)] {
        e.add_schema(schema.clone()).unwrap();
        store_tgd_mapping(e, "loop", "Loop", "Loop", tgds.clone());
        let err = e.chase_general("loop", "Loop", &db).unwrap_err();
        assert!(
            matches!(err, EngineError::Exec(ExecError::Diverged { rounds: r }) if r == rounds),
            "{err:?}"
        );
    }

    // 257^2 = 66 049 clauses: the default trips at clause 65 537
    let (_, _, _, m12, m23) = faults::exponential_compose(257, 2);
    store_tgd_mapping(&defaults, "m12", "S1", "S2", m12);
    store_tgd_mapping(&defaults, "m23", "S2", "S3", m23);
    let err = defaults.compose_tgd_mappings("m12", "m23", "m13").map(|_| ()).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Exec(ExecError::BudgetExhausted {
                resource: Resource::Clauses,
                consumed: 65_537,
                limit: 65_536,
            })
        ),
        "{err:?}"
    );

    // 16 383 + 16 384 * 3 = 65 535 nodes fit the default; 131 071 do not
    for (name, depth1) in [("fits", 1), ("over", 2)] {
        let (v1, v2) = union_chain(depth1, 14);
        for e in [&defaults, &explicit] {
            e.add_viewset(&format!("{name}1"), v1.clone()).unwrap();
            e.add_viewset(&format!("{name}2"), v2.clone()).unwrap();
        }
    }
    let composed = defaults.compose("fits1", "fits2", "fits12").unwrap();
    assert_eq!(composed.views[0].expr.size(), 65_535);
    let err = defaults.compose("over1", "over2", "over12").unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Exec(ExecError::BudgetExhausted {
                resource: Resource::Clauses,
                consumed: 131_071,
                limit: 65_536,
            })
        ),
        "{err:?}"
    );
    let composed = explicit.compose("over1", "over2", "over12").unwrap();
    assert_eq!(composed.views[0].expr.size(), 131_071);
}

/// A feasible composition stores the deskolemized first-order mapping.
#[test]
fn feasible_compose_stores_folded_mapping() {
    let (_, _, _, m12, m23) = faults::exponential_compose(2, 2);
    let engine = Engine::new();
    store_tgd_mapping(&engine, "m12", "S1", "S2", m12);
    store_tgd_mapping(&engine, "m23", "S2", "S3", m23);
    let (so, _folded) = engine.compose_tgd_mappings("m12", "m23", "m13").unwrap();
    assert_eq!(so.clauses.len(), 4);
}

/// Applying a malformed SO-tgd (head variable never bound by the body)
/// returns `Malformed`, not a panic.
#[test]
fn malformed_sotgd_yields_typed_error() {
    let (src, tgt, so) = faults::unbound_variable_sotgd();
    let mut db = Database::empty_of(&src);
    db.insert("A0", Tuple::from([Value::Int(1), Value::Int(2)]));
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let err = apply_sotgd(&so, &db, &tgt, &mut gov).unwrap_err();
    assert!(matches!(err, ExecError::Malformed { .. }), "{err:?}");
}

/// The quadratic self-join workload trips a step budget inside the
/// homomorphism search, and a pre-cancelled token stops evaluation
/// before any work.
#[test]
fn eval_and_hom_search_respect_budgets() {
    let (src, tgt, db, tgds) = faults::quadratic_join(60);
    let tight = ExecBudget::unbounded().with_steps(200);
    let mut gov = Governor::new(&tight);
    let err = ChaseProgram::compile(&tgds, &db)
        .run_st(&tgt, &db, &mut ExecCtx::new(&mut gov))
        .unwrap_err();
    assert!(err.error.is_resource(), "{err}");
    assert!(err.stats.rounds <= 1);

    let token = CancelToken::new();
    token.cancel();
    let budget = ExecBudget::unbounded().with_cancel(token);
    let mut gov = Governor::new(&budget);
    let err = eval_governed(&Expr::base("R0"), &src, &db, &mut gov).unwrap_err();
    assert!(matches!(err, EvalError::Exec(ExecError::Cancelled { .. })), "{err:?}");
}

/// Governed batch load of an oversized batch trips the row budget and
/// leaves the base database untouched.
#[test]
fn batch_load_budget_trip_leaves_base_untouched() {
    let (schema, batch) = faults::oversized_instance(1_000);
    let mut views = ViewSet::new("Big", "Load");
    views.push(ViewDef::new("R0", Expr::base("R0")));
    let mut base = Database::empty_of(&schema);
    let mut gov = Governor::new(&ExecBudget::unbounded().with_rows(10));
    let err = batch_load(&views, &schema, &batch, &mut base, &mut gov).unwrap_err();
    assert!(matches!(err, EvalError::Exec(ExecError::BudgetExhausted { .. })), "{err:?}");
    assert_eq!(base.relation("R0").unwrap().len(), 0, "budget trip must not partially load");
}

/// The governed mediator prefers the collapsed plan and degrades to
/// chained unfolding — with the degradation recorded — when the collapse
/// trips the clause budget. Both paths return the same rows.
#[test]
fn mediator_degradation_is_recorded_and_correct() {
    let (schema, db) = faults::oversized_instance(20);
    let mut l1 = ViewSet::new("Big", "L1");
    l1.push(ViewDef::new("V1", Expr::base("R0")));
    let mut l2 = ViewSet::new("L1", "L2");
    l2.push(ViewDef::new("V2", Expr::base("V1").project(&["a"])));
    let mediator = Mediator::new(&schema, vec![&l1, &l2]);
    let q = Expr::base("V2");
    // plan, then answer; a degraded plan answers under a fresh step meter
    // from the same budget
    let answer = |budget: &ExecBudget| {
        let mut gov = Governor::new(budget);
        let plan = mediator.plan_governed(&mut ExecCtx::new(&mut gov)).map_err(EvalError::Exec)?;
        if plan.degradation().is_some() {
            gov = Governor::new(budget);
        }
        mediator.answer_with_plan(&plan, &q, &db, &mut gov)
    };

    let full = answer(&ExecBudget::unbounded()).unwrap();
    assert_eq!(full.mode, MediationMode::Collapsed);
    assert!(full.degradation.is_none());

    let tight = ExecBudget::unbounded().with_clauses(1);
    let degraded = answer(&tight).unwrap();
    assert_eq!(degraded.mode, MediationMode::Chained);
    let d = degraded.degradation.expect("degradation must be recorded");
    assert_eq!(d.kind, DegradationKind::CollapsedToChained);
    assert!(degraded.rows.set_eq(&full.rows));
}

/// IVM under a starved budget degrades to recompute per view, records
/// it, and still produces correct views.
#[test]
fn ivm_degradation_is_recorded_and_correct() {
    let (schema, db) = faults::oversized_instance(200);
    let mut views = ViewSet::new("Big", "V");
    views.push(ViewDef::new(
        "SelfJoin",
        Expr::base("R0")
            .join(Expr::base("R0").rename(&[("a", "b"), ("b", "c")]), &[("b", "b")]),
    ));
    let mut mat = materialize_views(&views, &schema, &db).unwrap();
    let mut delta = Delta::new();
    delta.insert("R0", Tuple::from([Value::Int(9_999), Value::Int(0)]));

    // starve the incremental pass: one step is never enough for the
    // join's delta rules, but the per-view recompute meter is fresh
    let mut gov = Governor::new(&ExecBudget::unbounded().with_steps(1));
    let reports = MaintenancePlan::compile(&views, &schema).maintain(
        &schema,
        &db,
        &delta,
        &mut mat,
        &mut ExecCtx::new(&mut gov),
    );
    match reports {
        Ok(reports) => {
            let r = &reports[0];
            assert_eq!(r.strategy, MaintenanceStrategy::Recompute);
            assert!(r.degradation.is_some(), "degradation must be recorded");
            let mut new_db = db.clone();
            delta.apply_to(&mut new_db);
            let oracle = materialize_views(&views, &schema, &new_db).unwrap();
            assert!(oracle.relation("SelfJoin").unwrap().set_eq(mat.relation("SelfJoin").unwrap()));
        }
        // also acceptable: the recompute itself cannot fit one step —
        // but then the error must be typed, not a panic
        Err(e) => assert!(matches!(e, EvalError::Exec(ExecError::BudgetExhausted { .. })), "{e:?}"),
    }
}

/// Every repository-backed engine operator handles adversarial inputs
/// with `Ok` or a typed error — this test's completion is the no-panic,
/// no-unbounded-run guarantee for the whole operator surface.
#[test]
fn engine_operator_surface_is_total() {
    let engine = Engine::with_config(EngineConfig {
        budget: ExecBudget::unbounded()
            .with_rounds(8)
            .with_steps(200_000)
            .with_rows(100_000)
            .with_clauses(64)
            .with_wall(std::time::Duration::from_secs(30)),
        ..Default::default()
    })
    .unwrap();

    // missing artifacts: typed repository errors
    assert!(matches!(engine.exchange("nope", "nope", &Database::new("x")),
        Err(EngineError::Repository(_))));
    assert!(matches!(engine.chase_general("nope", "nope", &Database::new("x")),
        Err(EngineError::Repository(_))));
    assert!(matches!(engine.compose("nope", "nope", "out"), Err(EngineError::Repository(_))));
    assert!(matches!(engine.compose_tgd_mappings("nope", "nope", "out"),
        Err(EngineError::Repository(_))));

    // non-tgd mapping where tgds are required: typed transgen error
    engine.add_mapping(
        "views-only",
        Mapping::with_constraints("A", "B", vec![MappingConstraint::ExprEq {
            source: Expr::base("X"),
            target: Expr::base("Y"),
        }]),
    )
    .unwrap();
    assert!(matches!(engine.compose_tgd_mappings("views-only", "views-only", "out"),
        Err(EngineError::TransGen(_))));

    // adversarial workloads under the capped config: each is Ok or typed
    let (schema, db, tgds) = faults::divergent_tgds();
    engine.add_schema(schema).unwrap();
    store_tgd_mapping(&engine, "loop", "Loop", "Loop", tgds);
    assert!(matches!(engine.chase_general("loop", "Loop", &db),
        Err(EngineError::Exec(_))));

    let (_, _, _, m12, m23) = faults::exponential_compose(4, 4);
    store_tgd_mapping(&engine, "m12", "S1", "S2", m12);
    store_tgd_mapping(&engine, "m23", "S2", "S3", m23);
    assert!(engine.compose_tgd_mappings("m12", "m23", "m13").is_err());
}
