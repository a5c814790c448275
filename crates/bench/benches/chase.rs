//! EQ7 — Criterion timings for the chase: data exchange vs compiled
//! views, certain answers, and core minimization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mm_bench::compile_and_chase;
use mm_engine::prelude::*;
use mm_workload::{copy_tgds, tgds::binary_schema};

fn exchange_setup(relations: usize, rows: usize) -> (Schema, Schema, Vec<Tgd>, Database) {
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
    (src, tgt, tgds, db)
}

fn bench_chase_vs_compiled(c: &mut Criterion) {
    let mut group = c.benchmark_group("eq7_exchange");
    group.sample_size(10);
    for rows in [200usize, 1_000] {
        let (src, tgt, tgds, db) = exchange_setup(4, rows);
        group.bench_with_input(BenchmarkId::new("chase", rows), &(), |b, _| {
            b.iter(|| compile_and_chase(&tgt, &tgds, &db, &ExecBudget::unbounded()))
        });
        let mut views = ViewSet::new("Src", "Tgt");
        for i in 0..4 {
            views.push(ViewDef::new(format!("B{i}"), Expr::base(format!("A{i}"))));
        }
        group.bench_with_input(BenchmarkId::new("compiled", rows), &(), |b, _| {
            b.iter(|| materialize_views(&views, &src, &db).expect("copy views"))
        });
    }
    group.finish();
}

fn bench_certain_answers(c: &mut Criterion) {
    let (_, tgt, tgds, db) = exchange_setup(4, 1_000);
    let (universal, _) =
        compile_and_chase(&tgt, &tgds, &db, &ExecBudget::unbounded()).expect("copy tgds");
    let q = Expr::base("B0").project(&["a"]);
    c.bench_function("eq7_certain_answers", |b| {
        b.iter(|| certain_answers(&q, &tgt, &universal).expect("certain"))
    });
}

fn bench_existential_chase(c: &mut Criterion) {
    // chase with existentials: every firing mints a labeled null
    let src = SchemaBuilder::new("Src")
        .relation("Emp", &[("e", DataType::Int)])
        .build()
        .expect("src");
    let tgt = SchemaBuilder::new("Tgt")
        .relation("Mgr", &[("e", DataType::Int), ("m", DataType::Any)])
        .relation("Person", &[("p", DataType::Any)])
        .build()
        .expect("tgt");
    let tgds = vec![Tgd::new(
        vec![Atom::vars("Emp", &["e"])],
        vec![Atom::vars("Mgr", &["e", "m"]), Atom::vars("Person", &["m"])],
    )];
    let mut group = c.benchmark_group("eq7_existential_chase");
    group.sample_size(10);
    for rows in [100usize, 400] {
        let mut db = Database::empty_of(&src);
        for i in 0..rows {
            db.insert("Emp", Tuple::from([Value::Int(i as i64)]));
        }
        group.bench_with_input(BenchmarkId::from_parameter(rows), &db, |b, db| {
            b.iter(|| compile_and_chase(&tgt, &tgds, db, &ExecBudget::unbounded()))
        });
    }
    group.finish();
}

fn bench_core_minimization(c: &mut Criterion) {
    // universal instance with redundant null tuples
    let mut db = Database::new("U");
    let mut rel = Relation::new(RelSchema::of(&[("a", DataType::Any), ("b", DataType::Any)]));
    for i in 0..20i64 {
        rel.insert(Tuple::from([Value::Int(i), Value::Int(i + 1)]));
        rel.insert(Tuple::from([Value::Int(i), Value::Labeled(i as u64)]));
    }
    db.insert_relation("R", rel);
    c.bench_function("eq7_core_minimization", |b| {
        b.iter(|| core_of(&db, &mut Governor::new(&ExecBudget::unbounded())))
    });
}

criterion_group!(
    benches,
    bench_chase_vs_compiled,
    bench_certain_answers,
    bench_existential_chase,
    bench_core_minimization
);
criterion_main!(benches);
