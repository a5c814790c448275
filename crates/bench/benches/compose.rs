//! EQ1 — Criterion timings for SO-tgd composition (and the algebraic
//! composition used by Figure 6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mm_engine::prelude::*;
use mm_workload::composition_chain;

fn bench_sotgd_composition(c: &mut Criterion) {
    let mut group = c.benchmark_group("eq1_compose_st_tgds");
    group.sample_size(20);
    for (producers, body_atoms) in [(2usize, 2usize), (2, 4), (2, 6), (3, 4), (4, 4)] {
        let (_, _, _, m12, m23) = composition_chain(producers, body_atoms);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("p{producers}_b{body_atoms}")),
            &(m12, m23),
            |b, (m12, m23)| {
                b.iter(|| {
                    let mut gov = Governor::new(&ExecBudget::unbounded());
                    compose_st_tgds(m12, m23, &mut ExecCtx::new(&mut gov))
                        .expect("within bound")
                })
            },
        );
    }
    group.finish();
}

fn bench_deskolemize(c: &mut Criterion) {
    let (_, _, _, m12, m23) = composition_chain(2, 6);
    let unbounded = || Governor::new(&ExecBudget::unbounded());
    let so =
        compose_st_tgds(&m12, &m23, &mut ExecCtx::new(&mut unbounded())).expect("compose");
    c.bench_function("eq1_deskolemize_attempt", |b| {
        b.iter(|| try_deskolemize(&so, &mut unbounded()))
    });
}

fn bench_view_composition(c: &mut Criterion) {
    // Figure 6 algebraic composition over a deep chain
    let mut group = c.benchmark_group("eq1_compose_views");
    for hops in [4usize, 16, 64] {
        let mut chain: Vec<ViewSet> = Vec::new();
        for h in 0..hops {
            let prev = if h == 0 { "Base".to_string() } else { format!("V{}", h - 1) };
            let mut vs = ViewSet::new(format!("L{h}"), format!("L{}", h + 1));
            vs.push(ViewDef::new(
                format!("V{h}"),
                Expr::base(prev).select(Predicate::True),
            ));
            chain.push(vs);
        }
        group.bench_with_input(BenchmarkId::from_parameter(hops), &chain, |b, chain| {
            b.iter(|| {
                let mut iter = chain.iter();
                let first = iter.next().expect("non-empty").clone();
                iter.fold(first, |acc, next| compose_views(&acc, next))
            })
        });
    }
    group.finish();
}

fn bench_transport_oracle(c: &mut Criterion) {
    // the semantic oracle: chase through the intermediate schema
    let (s1, s2, s3, m12, m23) = composition_chain(2, 2);
    let mut d1 = Database::empty_of(&s1);
    for i in 0..50 {
        d1.insert("S0", Tuple::from([Value::Int(i), Value::Int(i + 1)]));
        d1.insert("S1", Tuple::from([Value::Int(i), Value::Int(i + 2)]));
    }
    c.bench_function("eq1_transport_via_chase", |b| {
        b.iter(|| transport_via(&s2, &m12, &s3, &m23, &d1))
    });
}

criterion_group!(
    benches,
    bench_sotgd_composition,
    bench_deskolemize,
    bench_view_composition,
    bench_transport_oracle
);
criterion_main!(benches);
