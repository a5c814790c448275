//! The `ExecCtx` matrix: every execution context of the two chase
//! executors returns exactly what the naive reference returns.
//!
//! `ChaseProgram::run_general` runs random tgds plus the key egds of a
//! keyed target under threads {1, 2, 4} × `replan_ratio` {None, 8.0} ×
//! explain {off, on} × telemetry {disabled, ring}; `run_st` runs random
//! source-to-target tgds under the same matrix without re-planning.
//! Each run must equal `testkit`'s oracle in tuples, labeled-null ids,
//! statistics and outcome — typed failures included — and the EXPLAIN
//! text of one re-planning setting must not depend on the thread count
//! (beyond the `threads` field that records the request).

use mm_chase::testkit::{chase_general_reference, chase_st_reference};
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
