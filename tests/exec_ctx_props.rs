//! The `ExecCtx` matrix: every execution context of an executor returns
//! exactly what its reference returns.
//!
//! `ChaseProgram::run_general` runs random tgds plus the key egds of a
//! keyed target under threads {1, 2, 4} × `replan_ratio` {None, 8.0} ×
//! explain {off, on} × telemetry {disabled, ring}; `run_st` runs random
//! source-to-target tgds under the same matrix without re-planning.
//! Each run must equal `testkit`'s oracle in tuples, labeled-null ids,
//! statistics and outcome — typed failures included — and the EXPLAIN
//! text of one re-planning setting must not depend on the thread count
//! (beyond the `threads` field that records the request).
//!
//! The other executors that take a context or a thread count:
//! `CqPlan::execute` (greedy and costed plans under threads × `limit`)
//! against the naive CQ oracle, and `MaintenancePlan::maintain` and
//! `compose_st_tgds` under telemetry {disabled, ring}.

use mm_chase::testkit::{chase_general_reference, chase_st_reference};
use mm_eval::testkit::find_homomorphisms_naive;
use mm_eval::{Binding, ExecOptions};
use mm_workload::tgds::binary_schema;
use model_management::prelude::*;
use proptest::prelude::*;

const VARS: [&str; 4] = ["x", "y", "z", "w"];
const THREADS: [usize; 3] = [1, 2, 4];
/// Round cap of the general chase: random tgd sets may diverge, and a
/// divergent run must fail identically everywhere.
const ROUNDS: u64 = 6;

/// A binary atom over one of `rels` with variables from a small pool,
/// so bodies join and heads mix frontier variables with existentials.
fn arb_atom(rels: &'static [&'static str]) -> impl Strategy<Value = Atom> {
    (0..rels.len(), 0..VARS.len(), 0..VARS.len())
        .prop_map(move |(r, a, b)| Atom::vars(rels[r], &[VARS[a], VARS[b]]))
}

fn arb_tgds(
    body: &'static [&'static str],
    head: &'static [&'static str],
) -> impl Strategy<Value = Vec<Tgd>> {
    let tgd = (
        proptest::collection::vec(arb_atom(body), 1..3),
        proptest::collection::vec(arb_atom(head), 1..3),
    )
        .prop_map(|(body, head)| Tgd::new(body, head));
    proptest::collection::vec(tgd, 1..4)
}

/// Source rows: enough that a driver atom splits across four workers,
/// with repeated first columns so key egds have work to do.
fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..10, 0i64..10), 32..96)
}

/// `T(k, v)` keyed on `k` and an unkeyed `U(a, b)`.
fn keyed_target(name: &str) -> Schema {
    SchemaBuilder::new(name)
        .relation("T", &[("k", DataType::Any), ("v", DataType::Any)])
        .relation("U", &[("a", DataType::Any), ("b", DataType::Any)])
        .key("T", &["k"])
        .build()
        .expect("static schema")
}

/// A telemetry handle of either kind: a disabled one or a ring.
fn telemetry(on: bool) -> Telemetry {
    if on {
        Telemetry::new(RingCollector::with_capacity(64))
    } else {
        Telemetry::disabled()
    }
}

/// The explain text with the thread request normalized away: what must
/// be identical across thread counts.
fn explain_text(report: Option<ChaseExplain>) -> Option<String> {
    report.map(|e| ChaseExplain { threads: 1, ..e }.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    #[test]
    fn run_general_matches_reference_under_every_context(
        rows in arb_rows(),
        // S0 twice: most bodies should start from the populated source
        tgds in arb_tgds(&["S0", "S0", "T", "U"], &["T", "U"]),
        diverge in any::<bool>(),
    ) {
        let schema = keyed_target("G");
        let mut db = Database::empty_of(&binary_schema("Src", "S", 1));
        for (name, rel) in Database::empty_of(&schema).relations() {
            db.insert_relation(name.to_string(), rel.clone());
        }
        for (a, b) in &rows {
            db.insert("S0", Tuple::from([Value::Int(*a), Value::Int(*b)]));
        }
        let mut tgds = tgds;
        if diverge {
            // U(x, y) → ∃w U(y, w) never closes: the round cap must trip
            // with the same partial instance everywhere
            let u = |x, y| vec![Atom::vars("U", &[x, y])];
            tgds.push(Tgd::new(vec![Atom::vars("S0", &["x", "y"])], u("x", "y")));
            tgds.push(Tgd::new(u("x", "y"), u("y", "w")));
        }
        let egds = egds_from_keys(&schema);
        let budget = ExecBudget::unbounded().with_rounds(ROUNDS);
        let mut ref_db = db.clone();
        let reference = chase_general_reference(&mut ref_db, &tgds, &egds, &budget);
        let program = ChaseProgram::compile_costed(&tgds, &db);
        for replan_ratio in [None, Some(8.0)] {
            let mut first_explain: Option<String> = None;
            for (on, explain, threads) in contexts() {
                let mut gov = Governor::new(&budget);
                let mut ctx = ExecCtx {
                    governor: &mut gov,
                    telemetry: telemetry(on),
                    threads,
                    replan_ratio,
                    explain,
                };
                let mut got_db = db.clone();
                let (outcome, report) = match program.run_general(&mut got_db, &egds, &mut ctx) {
                    Ok(run) => (Ok(run.outcome), run.explain),
                    Err(f) => (Err(f), None),
                };
                let at =
                    format!("threads={threads} replan={replan_ratio:?} explain={explain} tel={on}");
                prop_assert_eq!(&outcome, &reference, "{}", at);
                prop_assert_eq!(&got_db, &ref_db, "{}", at);
                prop_assert_eq!(report.is_some(), explain && outcome.is_ok(), "{}", at);
                if let Some(text) = explain_text(report) {
                    let first = first_explain.get_or_insert_with(|| text.clone());
                    prop_assert_eq!(&text, first, "{}", at);
                }
            }
        }
    }

    #[test]
    fn run_st_matches_reference_under_every_context(
        rows in arb_rows(),
        tgds in arb_tgds(&["S0", "S1"], &["T", "U"]),
    ) {
        let target = keyed_target("Tgt");
        let mut db = Database::empty_of(&binary_schema("Src", "S", 2));
        for (i, (a, b)) in rows.iter().enumerate() {
            db.insert(&format!("S{}", i % 2), Tuple::from([Value::Int(*a), Value::Int(*b)]));
        }
        let budget = ExecBudget::unbounded();
        let reference = chase_st_reference(&target, &tgds, &db, &budget);
        let program = ChaseProgram::compile_costed(&tgds, &db);
        let mut first_explain: Option<String> = None;
        for (on, explain, threads) in contexts() {
            let mut gov = Governor::new(&budget);
            let ctx = &mut ExecCtx {
                telemetry: telemetry(on),
                threads,
                explain,
                ..ExecCtx::new(&mut gov)
            };
            let (result, report) = match program.run_st(&target, &db, ctx) {
                Ok(run) => (Ok((run.target, run.stats)), run.explain),
                Err(f) => (Err(f), None),
            };
            let at = format!("threads={threads} explain={explain} tel={on}");
            prop_assert_eq!(&result, &reference, "{}", at);
            prop_assert_eq!(report.is_some(), explain && result.is_ok(), "{}", at);
            if let Some(text) = explain_text(report) {
                let first = first_explain.get_or_insert_with(|| text.clone());
                prop_assert_eq!(&text, first, "{}", at);
            }
        }
    }
}

/// Telemetry × explain × threads, threads innermost.
fn contexts() -> impl Iterator<Item = (bool, bool, usize)> {
    [false, true].into_iter().flat_map(|on| {
        [false, true]
            .into_iter()
            .flat_map(move |explain| THREADS.into_iter().map(move |t| (on, explain, t)))
    })
}

// --- conjunctive queries: `CqPlan::execute` ---------------------------------

/// A conjunctive query of 1..=3 binary atoms over `S0`/`S1`, each term a
/// pooled variable or (less often) a small constant.
fn arb_cq() -> impl Strategy<Value = Vec<Atom>> {
    let var = || (0..VARS.len()).prop_map(|v| Term::var(VARS[v]));
    let term = || prop_oneof![var(), var(), (0i64..10).prop_map(|c| Term::Const(Lit::Int(c)))];
    let atom =
        (0..2usize, term(), term()).prop_map(|(r, a, b)| Atom::new(["S0", "S1"][r], vec![a, b]));
    proptest::collection::vec(atom, 1..4)
}

/// `plan` run once on `threads` workers: the matches in canonical order
/// as named bindings, and the steps metered.
fn execute(
    plan: &CqPlan,
    table: &VarTable,
    db: &Database,
    limit: Option<usize>,
    threads: usize,
) -> (Vec<Binding>, u64) {
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let mut scratch = vec![None; table.len()];
    let mut out = Vec::new();
    let opts = ExecOptions { limit, ..Default::default() };
    plan.execute(db, &mut scratch, &opts, threads, &mut gov, &mut out).expect("unbounded");
    assert!(scratch.iter().all(Option::is_none), "scratch not restored");
    if plan.is_reordered() {
        out.sort_by(|a, b| a.positions.cmp(&b.positions));
    }
    let bindings = out
        .into_iter()
        .map(|m| {
            m.binding
                .into_iter()
                .enumerate()
                .filter_map(|(s, v)| Some((table.name(s)?.to_string(), v?)))
                .collect()
        })
        .collect();
    (bindings, gov.steps_consumed())
}

/// A binary pair relation `(a, b)`.
fn pairs_schema() -> Schema {
    let cols = [("a", DataType::Int), ("b", DataType::Int)];
    SchemaBuilder::new("P")
        .relation("R", &cols)
        .relation("S", &cols)
        .relation("T", &cols)
        .build()
        .expect("static schema")
}

/// The IVM property grammar over `pairs_schema`: every row-wise
/// operator, unions, probed and scanned joins, products, and the
/// non-monotone difference that forces a recompute.
fn pair_expr() -> BoxedStrategy<Expr> {
    let swap = |p: Expr| p.rename(&[("a", "b"), ("b", "a")]).project(&["a", "b"]);
    let sum = |p: Expr| {
        p.extend("s", Scalar::Func(Func::Add, vec![Scalar::col("a"), Scalar::col("b")]))
            .project(&["a", "s"])
            .rename(&[("s", "b")])
    };
    // l.b = r.a: both sides probe when they bottom out in a base relation
    let compose = |l: Expr, r: Expr| {
        l.join(r.rename(&[("a", "b"), ("b", "c")]), &[("b", "b")])
            .project(&["a", "c"])
            .rename(&[("c", "b")])
    };
    // l.b = r.a + 1: the computed key leaves the right side scanned
    let shifted = |l: Expr, r: Expr| {
        let r = r
            .extend("k", Scalar::Func(Func::Add, vec![Scalar::col("a"), Scalar::lit(1i64)]))
            .project(&["k", "b"])
            .rename(&[("b", "c")]);
        l.join(r, &[("b", "k")]).project(&["a", "c"]).rename(&[("c", "b")])
    };
    let leaf = prop_oneof![Just(Expr::base("R")), Just(Expr::base("S")), Just(Expr::base("T"))];
    leaf.prop_recursive(3, 16, 2, move |inner| {
        let two = (inner.clone(), inner.clone());
        prop_oneof![
            (inner.clone(), 0i64..4).prop_map(|(p, k)| {
                let (left, right) = (Scalar::col("a"), Scalar::lit(k));
                p.select(Predicate::Cmp { op: CmpOp::Gt, left, right })
            }),
            inner.clone().prop_map(swap),
            inner.clone().prop_map(sum),
            inner.clone().prop_map(Expr::distinct),
            two.clone().prop_map(|(l, r)| l.union(r)),
            two.clone().prop_map(move |(l, r)| compose(l, r)),
            two.clone().prop_map(move |(l, r)| shifted(l, r)),
            two.clone().prop_map(|(l, r)| l.project(&["a"]).product(r.project(&["b"]))),
            two.prop_map(|(l, r)| l.diff(r)),
        ]
    })
    .boxed()
}

/// A row of `R`, `S` or `T` over a small domain with NULLs.
fn pair_row() -> impl Strategy<Value = (usize, Tuple)> {
    let int = || (0i64..4).prop_map(Value::Int);
    let value = || prop_oneof![int(), int(), Just(Value::Null)];
    (0usize..3, value(), value()).prop_map(|(rel, a, b)| (rel, Tuple::from([a, b])))
}

/// What a maintenance report says, comparably.
type Reported = (String, MaintenanceStrategy, Vec<Tuple>, Option<Degradation>);

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// Greedy and costed plans of random CQs under threads × `limit`:
    /// without a limit every context returns the naive sequence and
    /// meters the same steps; with one, every thread count returns the
    /// sequential walk's matches — the naive prefix for a plan that walks
    /// in canonical order, an in-order subsequence of the same length for
    /// a reordered costed walk.
    #[test]
    fn cq_execute_matches_naive_under_every_context(rows in arb_rows(), atoms in arb_cq()) {
        let mut db = Database::empty_of(&binary_schema("Src", "S", 2));
        for (i, (a, b)) in rows.iter().enumerate() {
            db.insert(&format!("S{}", i % 2), Tuple::from([Value::Int(*a), Value::Int(*b)]));
        }
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let naive = find_homomorphisms_naive(&atoms, &db, &Binding::new(), &mut gov)
            .expect("unbounded");
        for costed in [false, true] {
            let mut table = VarTable::new();
            let plan = if costed {
                CqPlan::compile_costed(&atoms, &mut table, &db, &[])
            } else {
                CqPlan::compile(&atoms, &mut table, &db, &[])
            };
            for limit in [None, Some(1), Some(3)] {
                let (sequential, steps) = execute(&plan, &table, &db, limit, 1);
                for threads in THREADS {
                    let at = format!("costed={costed} limit={limit:?} threads={threads}");
                    let (got, got_steps) = execute(&plan, &table, &db, limit, threads);
                    prop_assert_eq!(&got, &sequential, "{}", at);
                    let Some(l) = limit else {
                        prop_assert_eq!(&got, &naive, "{}", at);
                        prop_assert_eq!(got_steps, steps, "{}", at);
                        continue;
                    };
                    prop_assert_eq!(got.len(), l.min(naive.len()), "{}", at);
                    let mut rest = naive.iter();
                    prop_assert!(got.iter().all(|g| rest.any(|n| n == g)), "{}", at);
                    if !plan.is_reordered() {
                        prop_assert_eq!(&got[..], &naive[..got.len()], "{}", at);
                    }
                }
            }
        }
    }

    /// `MaintenancePlan::maintain` over random grammar views, with or
    /// without a step cap that degrades views to a recompute: telemetry
    /// changes neither the reports nor the maintained views, and a traced
    /// pass is exactly one `ivm.maintain` span with one `ivm.degraded`
    /// event per degraded view.
    #[test]
    fn maintain_is_telemetry_invariant(
        exprs in proptest::collection::vec(pair_expr(), 1..4),
        seed in proptest::collection::vec(pair_row(), 0..12),
        batch in proptest::collection::vec(pair_row(), 0..6),
        cap in (any::<bool>(), 1u64..120).prop_map(|(on, n)| on.then_some(n)),
    ) {
        const RELS: [&str; 3] = ["R", "S", "T"];
        let schema = pairs_schema();
        let mut views = ViewSet::new("P", "V");
        for (i, e) in exprs.into_iter().enumerate() {
            views.push(ViewDef::new(format!("V{i}"), e));
        }
        let mut db = Database::empty_of(&schema);
        for (rel, t) in seed {
            db.insert(RELS[rel], t);
        }
        let mut delta = Delta::new();
        for (rel, t) in batch {
            delta.insert(RELS[rel], t);
        }
        let budget =
            cap.map_or_else(ExecBudget::unbounded, |n| ExecBudget::unbounded().with_steps(n));
        let plan = MaintenancePlan::compile(&views, &schema);
        let initial = materialize_views(&views, &schema, &db).expect("well-typed grammar");
        let mut outcomes = Vec::new();
        for on in [false, true] {
            let ring = RingCollector::with_capacity(64);
            let telemetry = if on { Telemetry::new(ring.clone()) } else { Telemetry::disabled() };
            let mut mat = initial.clone();
            let mut gov = Governor::new(&budget);
            let ctx = &mut ExecCtx { telemetry, ..ExecCtx::new(&mut gov) };
            let reports: Result<Vec<Reported>, EvalError> =
                plan.maintain(&schema, &db, &delta, &mut mat, ctx).map(|reports| {
                    reports
                        .into_iter()
                        .map(|r| (r.view, r.strategy, r.inserted, r.degradation))
                        .collect()
                });
            if on {
                prop_assert_eq!(ring.events_for("ivm.maintain").len(), 1);
                let degraded = reports.as_ref().map_or(0, |rs| {
                    rs.iter().filter(|r| r.3.is_some()).count()
                });
                prop_assert_eq!(ring.events_for("ivm.degraded").len(), degraded);
            }
            outcomes.push((reports, mat));
        }
        prop_assert_eq!(&outcomes[0].0, &outcomes[1].0);
        prop_assert_eq!(&outcomes[0].1, &outcomes[1].1);
    }

    /// `compose_st_tgds` under telemetry off and on returns the same
    /// SO-tgd — or the same typed failure under a small clause cap —
    /// and a traced call is exactly one `compose.splice` span.
    #[test]
    fn compose_is_telemetry_invariant(
        m12 in arb_tgds(&["S0", "S1"], &["T", "U"]),
        m23 in arb_tgds(&["T", "U"], &["V", "W"]),
        clauses in prop_oneof![Just(u64::MAX), 1u64..8],
    ) {
        let mut results = Vec::new();
        for on in [false, true] {
            let ring = RingCollector::with_capacity(16);
            let telemetry = if on { Telemetry::new(ring.clone()) } else { Telemetry::disabled() };
            let mut gov = Governor::new(&ExecBudget::unbounded().with_clauses(clauses));
            let ctx = &mut ExecCtx { telemetry, ..ExecCtx::new(&mut gov) };
            results.push(compose_st_tgds(&m12, &m23, ctx));
            prop_assert_eq!(ring.events_for("compose.splice").len(), usize::from(on));
        }
        prop_assert_eq!(&results[0], &results[1]);
    }
}
