//! Property tests for the parallel execution core: every parallel
//! entry point must be **bit-identical** to its sequential counterpart —
//! same tuples, same labeled-null identities, same binding order, same
//! stats — at every thread count, because parallelism here is a pure
//! scheduling choice, never a semantic one.
//!
//! * parallel CQ evaluation enumerates exactly the sequential binding
//!   sequence on random databases and random conjunctive queries;
//! * the parallel s-t and general chases reach the sequential fixpoint
//!   bit-identically on the adversarial `workload::faults` inputs;
//! * cancellation and step-budget trips surface as their typed errors
//!   from inside a parallel region instead of wedging the pool.

use mm_eval::ExecOptions;
use mm_workload::faults;
use model_management::prelude::*;
use proptest::prelude::*;

/// Thread counts every parallel path is checked at. All of them must
/// agree with `threads = 1`; 8 oversubscribes the container on purpose.
const THREADS: [usize; 3] = [2, 4, 8];

/// The s-t chase of a compiled `program` on `threads` workers.
fn run_st(
    tgt: &Schema,
    program: &ChaseProgram,
    db: &Database,
    budget: &ExecBudget,
    threads: usize,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    let mut gov = Governor::new(budget);
    let run = program.run_st(tgt, db, &mut ExecCtx { threads, ..ExecCtx::new(&mut gov) })?;
    Ok((run.target, run.stats))
}

/// The general chase (no egds) of a compiled `program` on `threads`
/// workers.
fn run_general(
    db: &mut Database,
    program: &ChaseProgram,
    budget: &ExecBudget,
    threads: usize,
) -> Result<ChaseOutcome, ChaseFailure> {
    let mut gov = Governor::new(budget);
    let ctx = &mut ExecCtx { threads, ..ExecCtx::new(&mut gov) };
    program.run_general(db, &[], ctx).map(|run| run.outcome)
}

/// `atoms` compiled once and executed on `threads` workers: every
/// match's slot binding, in enumeration order.
fn execute(atoms: &[Atom], db: &Database, threads: usize) -> Vec<Vec<Option<Value>>> {
    let mut table = VarTable::new();
    let plan = CqPlan::compile(atoms, &mut table, db, &[]);
    let mut scratch = vec![None; table.len()];
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let mut out = Vec::new();
    let opts = ExecOptions::default();
    plan.execute(db, &mut scratch, &opts, threads, &mut gov, &mut out).expect("unbounded");
    out.into_iter().map(|m| m.binding).collect()
}

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

/// Random database: up to ~80 tuples over `R`/`S`/`U`, values in 0..6,
/// enough rows that the driver atom actually gets chunked across workers.
fn arb_db() -> impl Strategy<Value = Database> {
    let tuple = (0usize..3, 0i64..6, 0i64..6);
    proptest::collection::vec(tuple, 0..80).prop_map(|rows| {
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
fn arb_cq_term() -> impl Strategy<Value = mm_expr::Term> {
    prop_oneof![
        prop_oneof![Just("x"), Just("y"), Just("z"), Just("w")]
            .prop_map(|v| mm_expr::Term::Var(v.to_string())),
        (0i64..6).prop_map(|c| mm_expr::Term::Const(Lit::Int(c))),
    ]
}

/// A conjunctive query of 1..=4 atoms over the fixed schema.
fn arb_cq() -> impl Strategy<Value = Vec<Atom>> {
    let atom = (0usize..3, arb_cq_term(), arb_cq_term()).prop_map(|(rel, t1, t2)| match rel {
        0 => Atom { relation: "R".into(), terms: vec![t1, t2] },
        1 => Atom { relation: "S".into(), terms: vec![t1, t2] },
        _ => Atom { relation: "U".into(), terms: vec![t1] },
    });
    proptest::collection::vec(atom, 1..5)
}

// --- (a) parallel CQ evaluation == sequential -------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Chunking the driver atom across workers and merging in chunk
    /// order reproduces the sequential binding sequence exactly — same
    /// bindings, same order — at every thread count.
    #[test]
    fn parallel_cq_matches_sequential_bindings(db in arb_db(), atoms in arb_cq()) {
        let seq = execute(&atoms, &db, 1);
        for threads in THREADS {
            let par = execute(&atoms, &db, threads);
            prop_assert_eq!(&par, &seq, "threads={}", threads);
        }
    }
}

// --- (b) parallel chase == sequential fixpoint ------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// The parallel s-t chase of the quadratic self-join workload is
    /// bit-identical to the sequential prepared chase — including
    /// labeled-null identities, which are sensitive to firing order, so
    /// this fails if the merge ever reorders worker results.
    #[test]
    fn parallel_st_chase_matches_sequential(rows in 3usize..20) {
        let (_, tgt, db, tgds) = faults::quadratic_join(rows);
        let program = ChaseProgram::compile(&tgds, &db);
        let budget = ExecBudget::unbounded();
        let (seq_db, seq_stats) = run_st(&tgt, &program, &db, &budget, 1).expect("unbounded");
        for threads in THREADS {
            let (par_db, par_stats) =
                run_st(&tgt, &program, &db, &budget, threads).expect("unbounded");
            prop_assert_eq!(&par_stats, &seq_stats, "threads={}", threads);
            prop_assert_eq!(&par_db, &seq_db, "threads={}", threads);
        }
    }

    /// The parallel general chase (multi-round, semi-naive deltas)
    /// reaches the sequential fixpoint bit-identically: same tuples,
    /// same outcome, same per-round stats.
    #[test]
    fn parallel_general_chase_matches_sequential(n in 2usize..10) {
        let (_, db, tgds) = faults::terminating_chain(n);
        let program = ChaseProgram::compile(&tgds, &db);
        let budget = ExecBudget::unbounded().with_rounds(64);
        let mut seq_db = db.clone();
        let seq = run_general(&mut seq_db, &program, &budget, 1).expect("terminates");
        for threads in THREADS {
            let mut par_db = db.clone();
            let par = run_general(&mut par_db, &program, &budget, threads).expect("terminates");
            prop_assert_eq!(&par, &seq, "threads={}", threads);
            prop_assert_eq!(&par_db, &seq_db, "threads={}", threads);
        }
    }
}

// --- (c) faults inside a parallel region ------------------------------------

/// Cancellation tripped mid-run surfaces as [`ExecError::Cancelled`]
/// from the parallel chase at every thread count: the pool joins, the
/// error propagates, nothing wedges or panics.
#[test]
fn cancellation_mid_parallel_chase_surfaces_cleanly() {
    let (_, tgt, db, tgds) = faults::quadratic_join(220);
    let program = ChaseProgram::compile(&tgds, &db);
    for threads in [1, 2, 4, 8] {
        let budget = ExecBudget::unbounded().with_cancel(faults::cancel_after(2));
        let failure = match run_st(&tgt, &program, &db, &budget, threads) {
            Err(f) => f,
            Ok(_) => panic!("cancel_after(2) must trip at threads={threads}"),
        };
        assert!(
            matches!(failure.error, ExecError::Cancelled { .. }),
            "threads={threads}: {:?}",
            failure.error
        );
    }
}

/// A step cap below the sequential cost trips [`ExecError::BudgetExhausted`]
/// at every thread count: forked worker governors publish their steps to
/// the shared meter, so the *global* cap binds no matter how the work is
/// scheduled.
#[test]
fn step_budget_trips_inside_the_parallel_chase() {
    let (_, tgt, db, tgds) = faults::quadratic_join(220);
    let program = ChaseProgram::compile(&tgds, &db);
    let solo_steps = {
        let mut gov = Governor::new(&ExecBudget::unbounded());
        program.run_st(&tgt, &db, &mut ExecCtx::new(&mut gov)).expect("unbounded");
        gov.steps_consumed()
    };
    assert!(solo_steps > 2048, "workload must span safepoints: {solo_steps}");
    for threads in [1, 2, 4, 8] {
        let budget = ExecBudget::unbounded().with_steps(solo_steps / 2);
        let failure = match run_st(&tgt, &program, &db, &budget, threads) {
            Err(f) => f,
            Ok(_) => panic!("half the sequential step cost must trip at threads={threads}"),
        };
        assert!(
            matches!(
                failure.error,
                ExecError::BudgetExhausted { resource: Resource::Steps, .. }
            ),
            "threads={threads}: {:?}",
            failure.error
        );
    }
}

