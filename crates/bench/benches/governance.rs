//! Governance overhead — cost of metering the hot paths and of the
//! degradation fallbacks (DESIGN.md §7).
//!
//! Two questions:
//! * what do live budget caps cost the metered chase over an unbounded
//!   budget (target: <5% on the hot exchange path)?
//! * what does a mediation request pay when the collapse budget trips
//!   and the mediator degrades from collapsed to chained execution?

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mm_bench::compile_and_chase;
use mm_engine::prelude::*;
use mm_workload::{copy_tgds, tgds::binary_schema};

fn exchange_setup(relations: usize, rows: usize) -> (Schema, Vec<Tgd>, Database) {
    let src = binary_schema("Src", "A", relations);
    let tgt = binary_schema("Tgt", "B", relations);
    let tgds = copy_tgds("A", "B", relations);
    let mut db = Database::empty_of(&src);
    for i in 0..relations {
        for r in 0..rows {
            db.insert(
                &format!("A{i}"),
                Tuple::from([Value::Int(r as i64), Value::Int((r + 1) as i64)]),
            );
        }
    }
    (tgt, tgds, db)
}

/// The exchange chase under an unbounded budget vs under live caps on
/// every resource: the delta is the comparison branches of a metered
/// step (the counter bumps and the amortized cancel/deadline poll every
/// 1024 steps are paid by both).
fn bench_governed_chase_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("governance_chase_overhead");
    group.sample_size(10);
    for rows in [1_000usize, 5_000] {
        let (tgt, tgds, db) = exchange_setup(4, rows);
        let budget = ExecBudget::unbounded();
        group.bench_with_input(BenchmarkId::new("governed", rows), &(), |b, _| {
            b.iter(|| compile_and_chase(&tgt, &tgds, &db, &budget).expect("unbounded"))
        });
        // A budget with live caps exercises the comparison branches too.
        let capped = ExecBudget::unbounded()
            .with_steps(u64::MAX)
            .with_rows(u64::MAX)
            .with_rounds(u64::MAX);
        group.bench_with_input(BenchmarkId::new("governed_capped", rows), &(), |b, _| {
            b.iter(|| compile_and_chase(&tgt, &tgds, &db, &capped).expect("loose caps"))
        });
    }
    group.finish();
}

fn mediation_setup(hops: usize, rows: usize) -> (Schema, Vec<ViewSet>, Database) {
    let schema = SchemaBuilder::new("Base")
        .relation("People", &[
            ("id", DataType::Int),
            ("name", DataType::Text),
            ("age", DataType::Int),
        ])
        .build()
        .expect("schema");
    let mut db = Database::empty_of(&schema);
    for i in 0..rows {
        db.insert(
            "People",
            Tuple::from([
                Value::Int(i as i64),
                Value::text(format!("p{i}")),
                Value::Int((i % 90) as i64),
            ]),
        );
    }
    let mut chain: Vec<ViewSet> = Vec::with_capacity(hops);
    let mut l0 = ViewSet::new("Base", "L0");
    l0.push(ViewDef::new(
        "V0",
        Expr::base("People").select(Predicate::Cmp {
            op: CmpOp::Ge,
            left: Scalar::col("age"),
            right: Scalar::lit(18i64),
        }),
    ));
    chain.push(l0);
    for h in 1..hops {
        let mut vs = ViewSet::new(format!("L{}", h - 1), format!("L{h}"));
        vs.push(ViewDef::new(
            format!("V{h}"),
            Expr::base(format!("V{}", h - 1)).select(Predicate::True),
        ));
        chain.push(vs);
    }
    (schema, chain, db)
}

/// Plan the chain under `budget` and answer `query` through the plan; a
/// degraded plan answers under a fresh meter from the same budget.
fn mediate(
    mediator: &Mediator<'_>,
    query: &Expr,
    db: &Database,
    budget: &ExecBudget,
) -> MediationResult {
    let mut gov = Governor::new(budget);
    let plan = mediator.plan_governed(&mut ExecCtx::new(&mut gov)).expect("plan");
    if plan.degradation().is_some() {
        gov = Governor::new(budget);
    }
    mediator.answer_with_plan(&plan, query, db, &mut gov).expect("mediation")
}

/// Collapsed mediation vs the degraded (collapse budget trips → chained
/// fallback) path for the same query. The degraded run pays for the
/// partial collapse attempt plus a full chained evaluation.
fn bench_degraded_mediation(c: &mut Criterion) {
    let mut group = c.benchmark_group("governance_mediation_degraded");
    group.sample_size(10);
    for hops in [4usize, 8] {
        let (schema, chain, db) = mediation_setup(hops, 5_000);
        let refs: Vec<&ViewSet> = chain.iter().collect();
        let mediator = Mediator::new(&schema, refs);
        let query = Expr::base(format!("V{}", hops - 1)).project(&["name"]);

        let unbounded = ExecBudget::unbounded();
        group.bench_with_input(BenchmarkId::new("collapsed", hops), &(), |b, _| {
            b.iter(|| {
                let r = mediate(&mediator, &query, &db, &unbounded);
                assert!(r.degradation.is_none());
                r.rows
            })
        });
        // One clause is below any collapsed viewset's node count, so the
        // collapse attempt trips immediately and every request falls back.
        let tight = ExecBudget::unbounded().with_clauses(1);
        group.bench_with_input(BenchmarkId::new("degraded_chained", hops), &(), |b, _| {
            b.iter(|| {
                let r = mediate(&mediator, &query, &db, &tight);
                assert!(r.degradation.is_some());
                r.rows
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_governed_chase_overhead, bench_degraded_mediation);
criterion_main!(benches);
