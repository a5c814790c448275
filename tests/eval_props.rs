//! Property tests for the indexed, semi-naive evaluation core (PR 2):
//! the compiled/indexed paths must be observationally identical to the
//! naive reference paths they replaced.
//!
//! * compiled + indexed CQ evaluation enumerates exactly the bindings of
//!   the naive nested-loop scan, in the same order, on random databases
//!   and random conjunctive queries;
//! * the semi-naive, index-probing chase reaches a bit-identical fixpoint
//!   (same tuples, same labeled-null identities, same [`ChaseStats`]) as
//!   the full-reevaluation scanning reference on the adversarial
//!   `workload::faults` inputs;
//! * (PR 7) the cost-based planner — statistics-driven join orders, the
//!   skewed `workload::skew` instances built to mislead the greedy
//!   heuristic, and the adaptive mid-chase re-planner — changes *how*
//!   bodies are walked but never *what* they enumerate: bindings, firing
//!   order, and labeled-null identities all stay bit-identical to the
//!   naive reference.

use mm_chase::testkit::{chase_general_reference, chase_st_reference};
use mm_chase::{egds_from_keys, ChaseFailure, ChaseOutcome, ChaseProgram, ChaseStats, Egd};
use mm_eval::testkit::find_homomorphisms_naive;
use mm_eval::{find_homomorphisms_costed, find_homomorphisms_governed, Binding};
use mm_expr::{Atom, Lit, Term, Tgd};
use mm_guard::{ExecBudget, ExecCtx, Governor};
use mm_instance::{Database, Tuple, Value};
use mm_metamodel::{DataType, Schema, SchemaBuilder};
use mm_workload::{faults, skew};
use proptest::prelude::*;

// --- generators -------------------------------------------------------------

/// The fixed schema random databases and queries range over: two binary
/// relations and a unary one, all over small ints so joins actually hit.
fn cq_schema() -> Schema {
    SchemaBuilder::new("P")
        .relation("R", &[("a", DataType::Int), ("b", DataType::Int)])
        .relation("S", &[("a", DataType::Int), ("b", DataType::Int)])
        .relation("U", &[("a", DataType::Int)])
        .build()
        .expect("static schema")
}

/// Random database: up to ~60 tuples over `R`/`S`/`U`, values in 0..6.
fn arb_db() -> impl Strategy<Value = Database> {
    let tuple = (0usize..3, 0i64..6, 0i64..6);
    proptest::collection::vec(tuple, 0..60).prop_map(|rows| {
        let mut db = Database::empty_of(&cq_schema());
        for (rel, a, b) in rows {
            match rel {
                0 => db.insert("R", Tuple::from([Value::Int(a), Value::Int(b)])),
                1 => db.insert("S", Tuple::from([Value::Int(a), Value::Int(b)])),
                _ => db.insert("U", Tuple::from([Value::Int(a)])),
            };
        }
        db
    })
}

/// A term over a small shared variable pool (so atoms join) or a small
/// constant (so selections sometimes hit, sometimes miss).
fn arb_cq_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        prop_oneof![Just("x"), Just("y"), Just("z"), Just("w")]
            .prop_map(|v| Term::Var(v.to_string())),
        prop_oneof![Just("x"), Just("y"), Just("z"), Just("w")]
            .prop_map(|v| Term::Var(v.to_string())),
        (0i64..6).prop_map(|c| Term::Const(Lit::Int(c))),
    ]
}

/// A conjunctive query of 1..=4 atoms over the fixed schema, with the
/// right arity per relation.
fn arb_cq() -> impl Strategy<Value = Vec<Atom>> {
    let atom = (0usize..3, arb_cq_term(), arb_cq_term()).prop_map(|(rel, t1, t2)| match rel {
        0 => Atom { relation: "R".into(), terms: vec![t1, t2] },
        1 => Atom { relation: "S".into(), terms: vec![t1, t2] },
        _ => Atom { relation: "U".into(), terms: vec![t1] },
    });
    proptest::collection::vec(atom, 1..5)
}

fn unbounded() -> ExecBudget {
    ExecBudget::unbounded()
}

/// The indexed s-t chase of a compiled `program` under `budget`.
fn run_st(
    tgt: &Schema,
    program: &ChaseProgram,
    db: &Database,
    budget: &ExecBudget,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    let mut gov = Governor::new(budget);
    let run = program.run_st(tgt, db, &mut ExecCtx::new(&mut gov))?;
    Ok((run.target, run.stats))
}

/// The semi-naive, indexed general chase of `tgds` under `budget`.
fn run_general(
    db: &mut Database,
    tgds: &[Tgd],
    egds: &[Egd],
    budget: &ExecBudget,
) -> Result<ChaseOutcome, ChaseFailure> {
    let mut gov = Governor::new(budget);
    let program = ChaseProgram::compile(tgds, db);
    program.run_general(db, egds, &mut ExecCtx::new(&mut gov)).map(|run| run.outcome)
}

// --- (a) indexed CQ evaluation == naive scan --------------------------------

proptest! {
    /// The compiled, index-probing homomorphism search returns exactly
    /// the naive nested-loop binding sequence — same bindings, same
    /// order — on random databases and queries.
    #[test]
    fn indexed_cq_matches_naive_scan(db in arb_db(), atoms in arb_cq()) {
        let budget = unbounded();
        let seed = Binding::new();
        let indexed =
            find_homomorphisms_governed(&atoms, &db, &seed, &mut Governor::new(&budget));
        let naive = find_homomorphisms_naive(&atoms, &db, &seed, &mut Governor::new(&budget));
        prop_assert_eq!(indexed.unwrap(), naive.unwrap());
    }

    /// Same equivalence with a pre-bound seed variable (the chase's
    /// head-satisfaction shape): seeded slots become probe columns on the
    /// indexed path and filters on the naive path.
    #[test]
    fn indexed_seeded_cq_matches_naive_scan(
        db in arb_db(),
        atoms in arb_cq(),
        seed_val in 0i64..6,
    ) {
        let budget = unbounded();
        let mut seed = Binding::new();
        seed.insert("x".to_string(), Value::Int(seed_val));
        let indexed =
            find_homomorphisms_governed(&atoms, &db, &seed, &mut Governor::new(&budget));
        let naive = find_homomorphisms_naive(&atoms, &db, &seed, &mut Governor::new(&budget));
        prop_assert_eq!(indexed.unwrap(), naive.unwrap());
    }
}

// --- (b) semi-naive chase == naive reference fixpoint -----------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// The semi-naive general chase of the terminating copy chain reaches
    /// the reference fixpoint bit-identically: same tuples, same rounds,
    /// same `ChaseStats.fired`.
    #[test]
    fn semi_naive_chain_chase_matches_reference(n in 2usize..10) {
        let (_, db, tgds) = faults::terminating_chain(n);
        let budget = unbounded().with_rounds(64);
        let mut fast_db = db.clone();
        let fast = run_general(&mut fast_db, &tgds, &[], &budget).unwrap();
        let mut ref_db = db;
        let reference = chase_general_reference(&mut ref_db, &tgds, &[], &budget).unwrap();
        prop_assert_eq!(fast, reference);
        prop_assert_eq!(fast_db, ref_db);
    }

    /// The indexed s-t chase of the quadratic self-join workload produces
    /// the reference universal instance bit-identically — including
    /// labeled-null identities, which are sensitive to firing order.
    #[test]
    fn indexed_st_chase_matches_reference_on_quadratic_join(rows in 3usize..24) {
        let (_, tgt, db, tgds) = faults::quadratic_join(rows);
        let budget = unbounded();
        let (fast_db, fast_stats) =
            run_st(&tgt, &ChaseProgram::compile(&tgds, &db), &db, &budget).unwrap();
        let (ref_db, ref_stats) = chase_st_reference(&tgt, &tgds, &db, &budget).unwrap();
        prop_assert_eq!(fast_stats, ref_stats);
        prop_assert_eq!(fast_db, ref_db);
    }

    /// Copy tgds over an oversized instance: the semi-naive chase fires
    /// each tgd exactly as often as the reference and inserts the same
    /// tuples, even when an existential head mints nulls per firing.
    #[test]
    fn st_chase_matches_reference_on_oversized_copy(rows in 1usize..200) {
        let (_, db) = faults::oversized_instance(rows);
        let tgt = SchemaBuilder::new("CopyT")
            .relation("C0", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("C1", &[("a", DataType::Int), ("b", DataType::Int)])
            .build()
            .unwrap();
        let tgds = vec![
            Tgd::new(vec![Atom::vars("R0", &["x", "y"])], vec![Atom::vars("C0", &["x", "y"])]),
            // existential head: one fresh null per source tuple
            Tgd::new(vec![Atom::vars("R0", &["x", "y"])], vec![Atom::vars("C1", &["x", "u"])]),
        ];
        let budget = unbounded();
        let (fast_db, fast_stats) =
            run_st(&tgt, &ChaseProgram::compile(&tgds, &db), &db, &budget).unwrap();
        let (ref_db, ref_stats) = chase_st_reference(&tgt, &tgds, &db, &budget).unwrap();
        prop_assert_eq!(fast_stats, ref_stats);
        prop_assert_eq!(fast_db, ref_db);
    }

    /// General chase with key egds (null-rewriting equates) stays
    /// bit-identical: the fast path resets its watermarks after every
    /// equate, so delta bookkeeping never hides a rewritten tuple.
    #[test]
    fn general_chase_with_key_egds_matches_reference(rows in 1usize..30) {
        let src = SchemaBuilder::new("KSrc")
            .relation("R0", &[("k", DataType::Int), ("v", DataType::Int)])
            .build()
            .unwrap();
        let tgt = SchemaBuilder::new("KTgt")
            .relation("T0", &[("k", DataType::Int), ("v", DataType::Int)])
            .key("T0", &["k"])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&src);
        for t in Database::empty_of(&tgt).relations().map(|(n, r)| (n.to_string(), r.clone())) {
            db.insert_relation(t.0, t.1);
        }
        for i in 0..rows {
            // two rows per key: the egd must merge their images in T0
            db.insert("R0", Tuple::from([Value::Int((i % 7) as i64), Value::Int(i as i64)]));
        }
        // two tgds that each mint a null for the same key
        let tgds = vec![
            Tgd::new(vec![Atom::vars("R0", &["k", "v"])], vec![Atom::vars("T0", &["k", "u"])]),
            Tgd::new(vec![Atom::vars("R0", &["k", "v"])], vec![Atom::vars("T0", &["k", "w"])]),
        ];
        let egds = egds_from_keys(&tgt);
        let budget = unbounded().with_rounds(64);
        let mut fast_db = db.clone();
        let fast = run_general(&mut fast_db, &tgds, &egds, &budget).unwrap();
        let mut ref_db = db;
        let reference = chase_general_reference(&mut ref_db, &tgds, &egds, &budget).unwrap();
        prop_assert!(matches!(fast, ChaseOutcome::Done(_)), "{fast:?}");
        prop_assert_eq!(fast, reference);
        prop_assert_eq!(fast_db, ref_db);
    }
}

// --- (c) cost-based planning == naive reference (PR 7) ----------------------

proptest! {
    /// The statistics-driven planner may walk atoms in any order it
    /// likes, but the canonical-order remap at the leaves must recover
    /// exactly the naive nested-loop binding sequence on random
    /// databases and queries.
    #[test]
    fn costed_cq_matches_naive_scan(db in arb_db(), atoms in arb_cq()) {
        let budget = unbounded();
        let seed = Binding::new();
        let costed = find_homomorphisms_costed(&atoms, &db, &seed, &mut Governor::new(&budget));
        let naive = find_homomorphisms_naive(&atoms, &db, &seed, &mut Governor::new(&budget));
        prop_assert_eq!(costed.unwrap(), naive.unwrap());
    }

    /// Same equivalence with a pre-bound seed variable, which changes
    /// the planner's selectivity arithmetic (seeded slots are free
    /// probe columns) but must not change the enumeration.
    #[test]
    fn costed_seeded_cq_matches_naive_scan(
        db in arb_db(),
        atoms in arb_cq(),
        seed_val in 0i64..6,
    ) {
        let budget = unbounded();
        let mut seed = Binding::new();
        seed.insert("x".to_string(), Value::Int(seed_val));
        let costed = find_homomorphisms_costed(&atoms, &db, &seed, &mut Governor::new(&budget));
        let naive = find_homomorphisms_naive(&atoms, &db, &seed, &mut Governor::new(&budget));
        prop_assert_eq!(costed.unwrap(), naive.unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// On the skewed instances built to make the greedy order
    /// catastrophic (fat hub, Zipfian hub, correlated selection), the
    /// costed planner picks a genuinely different walk — and still
    /// enumerates the naive binding sequence bit-identically.
    #[test]
    fn costed_cq_matches_naive_on_skewed_data(
        rows in 40usize..140,
        seed in 0u64..64,
        shape in 0usize..3,
    ) {
        let (_, db, atoms) = match shape {
            0 => skew::fat_hub_join(rows),
            1 => skew::zipf_join(rows, seed),
            _ => skew::correlated_join(rows, seed),
        };
        let budget = unbounded();
        let empty = Binding::new();
        let costed = find_homomorphisms_costed(&atoms, &db, &empty, &mut Governor::new(&budget));
        let naive = find_homomorphisms_naive(&atoms, &db, &empty, &mut Governor::new(&budget));
        prop_assert_eq!(costed.unwrap(), naive.unwrap());
    }

    /// An s-t chase whose tgd body is the skewed three-way join: the
    /// costed program must reproduce the reference universal instance
    /// bit-identically — firing order decides labeled-null identities,
    /// so any planner reordering that leaked through the canonical
    /// remap would show up here.
    #[test]
    fn costed_st_chase_matches_reference_on_skewed_data(
        rows in 40usize..140,
        seed in 0u64..64,
    ) {
        let (_, db, atoms) = skew::zipf_join(rows, seed);
        let tgt = SchemaBuilder::new("SkewT")
            .relation("Out", &[("x", DataType::Int), ("y", DataType::Int), ("tag", DataType::Int)])
            .build()
            .unwrap();
        // existential head: one fresh null per firing, so null ids trace
        // the firing order exactly
        let tgds = vec![Tgd::new(atoms, vec![Atom::vars("Out", &["x", "y", "u"])])];
        let budget = unbounded();
        let program = ChaseProgram::compile_costed(&tgds, &db);
        let (fast_db, fast_stats) = run_st(&tgt, &program, &db, &budget).unwrap();
        let (ref_db, ref_stats) = chase_st_reference(&tgt, &tgds, &db, &budget).unwrap();
        prop_assert_eq!(fast_stats, ref_stats);
        prop_assert_eq!(fast_db, ref_db);
    }

    /// The adaptive general chase on the growing copy chain: plans are
    /// costed against the *initial* instance (every relation past `R0`
    /// empty), so cardinalities drift as the chain fills and the
    /// re-planner must fire mid-run — and the re-planned run must still
    /// be bit-identical to the naive full-reevaluation reference.
    #[test]
    fn adaptive_chase_replans_and_matches_reference(n in 3usize..10) {
        let (_, db, tgds) = faults::terminating_chain(n);
        let budget = unbounded().with_rounds(64);
        let mut fast_db = db.clone();
        let program = ChaseProgram::compile_costed(&tgds, &fast_db);
        let mut gov = Governor::new(&budget);
        let ctx = &mut ExecCtx { replan_ratio: Some(1.5), ..ExecCtx::new(&mut gov) };
        let run = program.run_general(&mut fast_db, &[], ctx).unwrap();
        let (fast, replans) = (run.outcome, run.replans);
        let mut ref_db = db;
        let reference = chase_general_reference(&mut ref_db, &tgds, &[], &budget).unwrap();
        prop_assert!(replans > 0, "chain growth from empty must trigger a re-plan");
        prop_assert_eq!(fast, reference);
        prop_assert_eq!(fast_db, ref_db);
    }
}
