//! Shared experiment drivers for the benchmark harness.
//!
//! Each `eqN_*` function implements one experiment from DESIGN.md's
//! per-experiment index; the `report` binary runs them all and prints the
//! tables recorded in EXPERIMENTS.md, while the Criterion benches under
//! `benches/` time the same drivers at fixed points.

#![forbid(unsafe_code)]
// Experiment-harness crate, not an engine library: fixtures are static
// and a panic is a broken experiment, not library behavior, so the
// non-panicking lint gate (DESIGN.md §7) does not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mm_engine::prelude::*;
use mm_workload as wl;
use std::time::{Duration, Instant};

/// Time a closure, returning (result, wall time).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Compile `tgds` against `db` and run the s-t chase under `budget`: one
/// exchange from scratch, the unit the chase experiments time.
pub fn compile_and_chase(
    tgt: &Schema,
    tgds: &[Tgd],
    db: &Database,
    budget: &ExecBudget,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    let mut gov = Governor::new(budget);
    let run = ChaseProgram::compile(tgds, db).run_st(tgt, db, &mut ExecCtx::new(&mut gov))?;
    Ok((run.target, run.stats))
}

// ---------------------------------------------------------------------------
// EQ1 — SO-tgd composition blowup

/// One grid point of the composition experiment.
#[derive(Debug, Clone)]
pub struct Eq1Row {
    pub producers: usize,
    pub body_atoms: usize,
    pub clauses: usize,
    pub atoms: usize,
    pub compose_ms: f64,
    pub deskolemizable: bool,
}

pub fn eq1_compose_point(producers: usize, body_atoms: usize) -> Eq1Row {
    let (_, _, _, m12, m23) = wl::composition_chain(producers, body_atoms);
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let (so, took) = timed(|| {
        compose_st_tgds(&m12, &m23, &mut ExecCtx::new(&mut gov)).expect("within bound")
    });
    let deskolemizable = try_deskolemize(&so, &mut gov).expect("unbounded").is_some();
    Eq1Row {
        producers,
        body_atoms,
        clauses: so.clauses.len(),
        atoms: so.size(),
        compose_ms: ms(took),
        deskolemizable,
    }
}

// ---------------------------------------------------------------------------
// EQ2 — compiled transformation vs generic three-copy ModelGen translation

#[derive(Debug, Clone)]
pub struct Eq2Row {
    pub strategy: InheritanceStrategy,
    pub types: usize,
    pub entities: usize,
    pub direct_ms: f64,
    pub three_copy_ms: f64,
    pub agree: bool,
}

pub fn eq2_modelgen_point(
    depth: usize,
    fanout: usize,
    per_type: usize,
    strategy: InheritanceStrategy,
) -> Eq2Row {
    let er = wl::er_hierarchy(17, depth, fanout, 3);
    let db = wl::populate_er(&er, 3, per_type);
    let gen = er_to_relational(&er, strategy).expect("modelgen");
    let (direct, direct_t) =
        timed(|| materialize_views(&gen.views, &er, &db).expect("compiled views"));
    let (generic, generic_t) = timed(|| {
        three_copy_translate(&er, &db, &gen.schema, strategy).expect("three-copy")
    });
    let agree = direct
        .relations()
        .all(|(n, r)| generic.relation(n).map(|g| r.set_eq(g)).unwrap_or(false));
    Eq2Row {
        strategy,
        types: er.len(),
        entities: db.total_tuples(),
        direct_ms: ms(direct_t),
        three_copy_ms: ms(generic_t),
        agree,
    }
}

// ---------------------------------------------------------------------------
// EQ3 — matcher quality: top-1 precision/recall vs top-k hit rate

#[derive(Debug, Clone)]
pub struct Eq3Row {
    pub strength: f64,
    pub truth_pairs: usize,
    pub top1_precision: f64,
    pub top1_recall: f64,
    /// hit rate of the correct target appearing among the top-k, k = 1..=5
    pub topk_hit: [f64; 5],
    pub match_ms: f64,
}

pub fn eq3_matcher_point(seed: u64, strength: f64, flooding: bool) -> Eq3Row {
    let source = wl::relational_schema(seed, 6, 6);
    let (target, truth) = wl::perturb_schema(&source, seed + 100, strength, 0.1, 0.2);
    let cfg = MatchConfig {
        top_k: 5,
        threshold: 0.0,
        flooding_iterations: if flooding { 2 } else { 0 },
        ..Default::default()
    };
    let (cs, took) = timed(|| match_schemas(&source, &target, &cfg));

    let attr_truth: Vec<_> = truth
        .pairs
        .iter()
        .filter(|(s, _)| s.attribute.is_some())
        .collect();
    let mut top1_correct = 0usize;
    let mut top1_emitted = 0usize;
    let mut hits = [0usize; 5];
    for (src, expected) in &attr_truth {
        let cands = cs.candidates_for(src);
        if let Some(best) = cands.first() {
            top1_emitted += 1;
            if &best.target == expected {
                top1_correct += 1;
            }
        }
        for (k, hit) in hits.iter_mut().enumerate() {
            if cands.iter().take(k + 1).any(|c| &c.target == expected) {
                *hit += 1;
            }
        }
    }
    let n = attr_truth.len().max(1) as f64;
    Eq3Row {
        strength,
        truth_pairs: attr_truth.len(),
        top1_precision: top1_correct as f64 / top1_emitted.max(1) as f64,
        top1_recall: top1_correct as f64 / n,
        topk_hit: hits.map(|h| h as f64 / n),
        match_ms: ms(took),
    }
}

// ---------------------------------------------------------------------------
// EQ4 — TransGen compile + roundtrip verification cost

#[derive(Debug, Clone)]
pub struct Eq4Row {
    pub types: usize,
    pub fragments: usize,
    pub compile_ms: f64,
    pub verify_ms: f64,
    pub roundtrips: bool,
}

pub fn eq4_transgen_point(depth: usize, fanout: usize, per_type: usize) -> Eq4Row {
    let er = wl::er_hierarchy(29, depth, fanout, 3);
    let gen = er_to_relational(&er, InheritanceStrategy::Vertical).expect("modelgen");
    let frags = parse_fragments(&er, &gen.schema, &gen.mapping).expect("fragments");
    let (views, compile_t) = timed(|| {
        let q = query_views(&er, &gen.schema, &frags).expect("qviews");
        let u = update_views(&er, &gen.schema, &frags).expect("uviews");
        (q, u)
    });
    let db = wl::populate_er(&er, 5, per_type);
    let (report, verify_t) =
        timed(|| verify_roundtrip(&er, &gen.schema, &frags, &db).expect("verify"));
    let _ = views;
    Eq4Row {
        types: er.len(),
        fragments: frags.len(),
        compile_ms: ms(compile_t),
        verify_ms: ms(verify_t),
        roundtrips: report.roundtrips(),
    }
}

// ---------------------------------------------------------------------------
// EQ5 — incremental view maintenance vs recompute

#[derive(Debug, Clone)]
pub struct Eq5Row {
    pub base_rows: usize,
    pub batch: usize,
    pub incremental_ms: f64,
    pub recompute_ms: f64,
    pub agree: bool,
}

fn eq5_setup(base_rows: usize) -> (Schema, Database, ViewSet) {
    let schema = SchemaBuilder::new("S")
        .relation("Orders", &[
            ("oid", DataType::Int),
            ("cust", DataType::Int),
            ("total", DataType::Int),
        ])
        .relation("Customers", &[("cid", DataType::Int), ("name", DataType::Text)])
        .build()
        .expect("eq5 schema");
    let mut db = Database::empty_of(&schema);
    let customers = (base_rows / 10).max(1);
    for c in 0..customers {
        db.insert(
            "Customers",
            Tuple::from([Value::Int(c as i64), Value::text(format!("c{c}"))]),
        );
    }
    for o in 0..base_rows {
        db.insert(
            "Orders",
            Tuple::from([
                Value::Int(o as i64),
                Value::Int((o % customers) as i64),
                Value::Int((o % 100) as i64),
            ]),
        );
    }
    let mut views = ViewSet::new("S", "V");
    views.push(ViewDef::new(
        "BigOrders",
        Expr::base("Orders")
            .select(Predicate::Cmp {
                op: CmpOp::Gt,
                left: Scalar::col("total"),
                right: Scalar::lit(50i64),
            })
            .join(Expr::base("Customers"), &[("cust", "cid")])
            .project(&["oid", "name"]),
    ));
    (schema, db, views)
}

pub fn eq5_ivm_point(base_rows: usize, batch: usize) -> Eq5Row {
    let (schema, db, views) = eq5_setup(base_rows);
    let mat0 = materialize_views(&views, &schema, &db).expect("initial materialization");

    let mut delta = Delta::new();
    for i in 0..batch {
        delta.insert(
            "Orders",
            Tuple::from([
                Value::Int((base_rows + i) as i64),
                Value::Int(0),
                Value::Int(99),
            ]),
        );
    }

    let mut mat_inc = mat0.clone();
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let (_, inc_t) = timed(|| {
        MaintenancePlan::compile(&views, &schema)
            .maintain(&schema, &db, &delta, &mut mat_inc, &mut ExecCtx::new(&mut gov))
            .expect("ivm")
    });

    let mut db2 = db.clone();
    delta.apply_to(&mut db2);
    let (mat_re, re_t) =
        timed(|| materialize_views(&views, &schema, &db2).expect("recompute"));

    let agree = mat_re
        .relations()
        .all(|(n, r)| mat_inc.relation(n).map(|m| r.set_eq(m)).unwrap_or(false));
    Eq5Row {
        base_rows,
        batch,
        incremental_ms: ms(inc_t),
        recompute_ms: ms(re_t),
        agree,
    }
}

// ---------------------------------------------------------------------------
// EQ6 — chained vs collapsed mediation

#[derive(Debug, Clone)]
pub struct Eq6Row {
    pub hops: usize,
    pub rows: usize,
    pub chained_ms: f64,
    pub collapse_once_ms: f64,
    pub collapsed_query_ms: f64,
    pub agree: bool,
}

pub fn eq6_mediation_point(hops: usize, rows: usize) -> Eq6Row {
    let schema = SchemaBuilder::new("Base")
        .relation("People", &[
            ("id", DataType::Int),
            ("name", DataType::Text),
            ("age", DataType::Int),
        ])
        .build()
        .expect("eq6 schema");
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
    // hop 0 filters; later hops project/rename through
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
    let refs: Vec<&ViewSet> = chain.iter().collect();
    let mediator = Mediator::new(&schema, refs);
    let query = Expr::base(format!("V{}", hops - 1)).project(&["name"]);

    let (chained, chained_t) =
        timed(|| eval(&mediator.unfold(&query), &schema, &db).expect("chained"));
    let (collapsed, collapse_t) = timed(|| mediator.collapse().expect("non-empty chain"));
    let (direct, direct_t) = timed(|| {
        eval(&unfold_query(&query, &collapsed), &schema, &db).expect("collapsed answer")
    });
    Eq6Row {
        hops,
        rows,
        chained_ms: ms(chained_t),
        collapse_once_ms: ms(collapse_t),
        collapsed_query_ms: ms(direct_t),
        agree: chained.set_eq(&direct),
    }
}

// ---------------------------------------------------------------------------
// EQ7 — chase-based exchange vs compiled copy views

#[derive(Debug, Clone)]
pub struct Eq7Row {
    pub relations: usize,
    pub rows: usize,
    pub chase_ms: f64,
    pub compiled_ms: f64,
    pub certain_ms: f64,
    pub agree: bool,
}

pub fn eq7_exchange_point(
    relations: usize,
    rows_per: usize,
) -> Result<Eq7Row, ChaseFailure> {
    let src = wl::tgds::binary_schema("Src", "A", relations);
    let tgt = wl::tgds::binary_schema("Tgt", "B", relations);
    let tgds = wl::copy_tgds("A", "B", relations);
    let mut db = Database::empty_of(&src);
    for i in 0..relations {
        for r in 0..rows_per {
            db.insert(
                &format!("A{i}"),
                Tuple::from([Value::Int(r as i64), Value::Int((r + 1) as i64)]),
            );
        }
    }
    let (chased, chase_t) =
        timed(|| compile_and_chase(&tgt, &tgds, &db, &ExecBudget::unbounded()));
    let (chased, _) = chased?;
    // compiled alternative: copy views Bi = Ai (rename-free scan)
    let mut views = ViewSet::new("Src", "Tgt");
    for i in 0..relations {
        views.push(ViewDef::new(format!("B{i}"), Expr::base(format!("A{i}"))));
    }
    let (compiled, compiled_t) =
        timed(|| materialize_views(&views, &src, &db).expect("copy views"));
    let (certain, certain_t) = timed(|| {
        certain_answers(&Expr::base("B0").project(&["a"]), &tgt, &chased).expect("certain")
    });
    let _ = certain;
    let agree = (0..relations).all(|i| {
        let b = format!("B{i}");
        chased
            .relation(&b)
            .zip(compiled.relation(&b))
            .map(|(x, y)| x.set_eq(y))
            .unwrap_or(false)
    });
    Ok(Eq7Row {
        relations,
        rows: db.total_tuples(),
        chase_ms: ms(chase_t),
        compiled_ms: ms(compiled_t),
        certain_ms: ms(certain_t),
        agree,
    })
}

// ---------------------------------------------------------------------------
// EQ9 — algebraic optimizer ablation

#[derive(Debug, Clone)]
pub struct Eq9Row {
    pub rows: usize,
    pub plain_size: usize,
    pub optimized_size: usize,
    pub plain_ms: f64,
    pub optimized_ms: f64,
    pub agree: bool,
}

/// Evaluate a selective query over a wide join, unoptimized vs optimized
/// (predicate pushdown + column pruning).
pub fn eq9_optimizer_point(rows: usize) -> Eq9Row {
    let schema = SchemaBuilder::new("S")
        .relation("Empl", &[
            ("EID", DataType::Int),
            ("Name", DataType::Text),
            ("Tel", DataType::Text),
            ("Bio", DataType::Text),
            ("AID", DataType::Int),
        ])
        .relation("Addr", &[
            ("AID", DataType::Int),
            ("City", DataType::Text),
            ("Zip", DataType::Text),
            ("Notes", DataType::Text),
        ])
        .build()
        .expect("eq9 schema");
    let mut db = Database::empty_of(&schema);
    let cities = 50usize;
    for i in 0..rows {
        db.insert(
            "Empl",
            Tuple::from([
                Value::Int(i as i64),
                Value::text(format!("n{i}")),
                Value::text(format!("t{i}")),
                Value::text(format!("long biography text {i}")),
                Value::Int((i % (rows / 2).max(1)) as i64),
            ]),
        );
    }
    for a in 0..(rows / 2).max(1) {
        db.insert(
            "Addr",
            Tuple::from([
                Value::Int(a as i64),
                Value::text(format!("city{}", a % cities)),
                Value::text(format!("z{a}")),
                Value::text(format!("free-form notes {a}")),
            ]),
        );
    }
    // a mediator-shaped query: selective filter above a wide join
    let query = Expr::base("Empl")
        .join(Expr::base("Addr"), &[("AID", "AID")])
        .select(Predicate::col_eq_lit("City", "city7"))
        .project(&["Name", "City"]);
    let optimized = optimize(&query, &schema).expect("optimize");
    let (plain, plain_t) = timed(|| eval(&query, &schema, &db).expect("plain eval"));
    let (fast, fast_t) = timed(|| eval(&optimized, &schema, &db).expect("optimized eval"));
    Eq9Row {
        rows: db.total_tuples(),
        plain_size: query.size(),
        optimized_size: optimized.size(),
        plain_ms: ms(plain_t),
        optimized_ms: ms(fast_t),
        agree: plain.set_eq(&fast),
    }
}

// ---------------------------------------------------------------------------
// EQ10 — match memory across sequential integration projects

#[derive(Debug, Clone)]
pub struct Eq10Row {
    pub strength: f64,
    pub top1_without: f64,
    pub top1_with: f64,
}

/// Simulate two integration projects against perturbed copies of the same
/// source. Project 1's confirmed ground truth seeds the memory; measure
/// project 2's top-1 accuracy with and without the memory.
pub fn eq10_memory_point(seed: u64, strength: f64) -> Eq10Row {
    let source = wl::relational_schema(seed, 6, 6);
    let (_, truth1) = wl::perturb_schema(&source, seed + 1, strength, 0.0, 0.1);
    let (target2, truth2) = wl::perturb_schema(&source, seed + 2, strength, 0.1, 0.2);

    let cfg = MatchConfig { top_k: 5, threshold: 0.0, ..Default::default() };
    let accuracy = |cs: &CorrespondenceSet| -> f64 {
        let attr_truth: Vec<_> =
            truth2.pairs.iter().filter(|(s, _)| s.attribute.is_some()).collect();
        let correct = attr_truth
            .iter()
            .filter(|(src, expected)| {
                cs.candidates_for(src).first().map(|c| &c.target == expected).unwrap_or(false)
            })
            .count();
        correct as f64 / attr_truth.len().max(1) as f64
    };

    let plain = match_schemas(&source, &target2, &cfg);
    let top1_without = accuracy(&plain);

    // project 1's confirmations: original-name -> perturbed-name pairs;
    // the memory keys are name pairs, so confirmations transfer when the
    // second perturbation renamed a column the same way (synonym /
    // convention flips repeat across projects)
    let mut memory = MatchMemory::new();
    for (s, t) in &truth1.pairs {
        memory.remember(s, t);
    }
    let mut boosted = match_schemas(&source, &target2, &cfg);
    memory.apply(&mut boosted);
    let top1_with = accuracy(&boosted);

    Eq10Row { strength, top1_without, top1_with }
}

// ---------------------------------------------------------------------------
// EQ8 — Merge scaling

#[derive(Debug, Clone)]
pub struct Eq8Row {
    pub elements: usize,
    pub attributes: usize,
    pub match_ms: f64,
    pub merge_ms: f64,
    pub merged_elements: usize,
}

pub fn eq8_merge_point(relations: usize, attrs_per: usize) -> Eq8Row {
    let left = wl::relational_schema(41, relations, attrs_per);
    let (right, truth) = wl::perturb_schema(&left, 43, 0.3, 0.1, 0.2);
    let cfg = MatchConfig::default();
    let (_cs, match_t) = timed(|| match_schemas(&left, &right, &cfg));
    // merge on the ground-truth correspondences (the architect-confirmed set)
    let mut confirmed = CorrespondenceSet::new(left.name.clone(), right.name.clone());
    for (s, t) in &truth.pairs {
        confirmed.push(Correspondence::new(s.clone(), t.clone(), 1.0));
    }
    let (merged, merge_t) = timed(|| merge(&left, &right, &confirmed));
    Eq8Row {
        elements: left.len(),
        attributes: left.attribute_count(),
        match_ms: ms(match_t),
        merge_ms: ms(merge_t),
        merged_elements: merged.schema.len(),
    }
}
