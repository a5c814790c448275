//! Conjunctive-query evaluation via homomorphism search.
//!
//! A conjunctive query is a list of atoms over variables and constants.
//! Evaluating it means finding every *binding* (homomorphism) of the
//! variables into the database that makes all atoms hold — the primitive
//! the chase (`mm-chase`), tgd satisfaction checking, and certain-answer
//! evaluation are built on.

use crate::plan::{CqPlan, ExecOptions, VarTable};
use mm_expr::Atom;
use mm_guard::{ExecBudget, ExecError, Governor};
use mm_instance::{Database, Value};
use std::collections::HashMap;

/// A variable binding: variable name → value.
pub type Binding = HashMap<String, Value>;

/// Find all homomorphisms from the conjunction `atoms` into `db`.
///
/// Atoms over relations missing from the database yield no bindings (an
/// empty relation, not an error — the chase routinely queries targets
/// whose relations are not yet populated).
pub fn find_homomorphisms(atoms: &[Atom], db: &Database) -> Vec<Binding> {
    let mut gov = Governor::new(&ExecBudget::unbounded());
    // an unbounded governor with a private token cannot fail
    find_homomorphisms_governed(atoms, db, &Binding::new(), &mut gov).unwrap_or_default()
}

/// Governed homomorphism search: every join probe is metered as one
/// budget step, so an exponential join trips `BudgetExhausted` (or
/// observes cancellation) instead of running unbounded. The governor is
/// borrowed, not owned, so a pipeline (e.g. one chase round firing many
/// tgds) accumulates work against a single budget. Variables pre-bound in
/// `seed` are fixed (labeled nulls in the seed match themselves, not
/// re-map) and flow into every result.
///
/// Compiles the conjunction into a [`CqPlan`] (slot bindings, index
/// probes) and executes that; results — including their order — are
/// identical to the naive oracle in [`crate::testkit`]. Callers that
/// evaluate the same conjunction repeatedly should compile a [`CqPlan`]
/// once instead.
pub fn find_homomorphisms_governed(
    atoms: &[Atom],
    db: &Database,
    seed: &Binding,
    gov: &mut Governor,
) -> Result<Vec<Binding>, ExecError> {
    search(atoms, db, seed, gov, CqPlan::compile)
}

/// [`find_homomorphisms_governed`] through the cost-based planner:
/// compiles with [`CqPlan::compile_costed`] (selectivity-estimated join
/// order from relation statistics) instead of the greedy heuristic, then
/// sorts the matches by their canonical position vectors so results —
/// including their order — are still identical to the naive oracle. This
/// is the planner's differential entry point: same contract, different
/// (hopefully cheaper) walk.
pub fn find_homomorphisms_costed(
    atoms: &[Atom],
    db: &Database,
    seed: &Binding,
    gov: &mut Governor,
) -> Result<Vec<Binding>, ExecError> {
    search(atoms, db, seed, gov, CqPlan::compile_costed)
}

fn search(
    atoms: &[Atom],
    db: &Database,
    seed: &Binding,
    gov: &mut Governor,
    compile: fn(&[Atom], &mut VarTable, &Database, &[usize]) -> CqPlan,
) -> Result<Vec<Binding>, ExecError> {
    gov.check_now()?;
    let mut table = VarTable::new();
    // intern seed vars first so they get slots (and flow into the output
    // bindings) even when they never occur in the atoms — the naive path
    // carries every seed entry through to every result
    let seed_slots: Vec<(usize, Value)> =
        seed.iter().map(|(k, v)| (table.intern(k), v.clone())).collect();
    let prebound: Vec<usize> = seed_slots.iter().map(|(s, _)| *s).collect();
    let plan = compile(atoms, &mut table, db, &prebound);
    let mut scratch = vec![None; table.len()];
    for (s, v) in &seed_slots {
        scratch[*s] = Some(v.clone());
    }
    let mut matches = Vec::new();
    plan.execute(db, &mut scratch, &ExecOptions::default(), 1, gov, &mut matches)?;
    // positions are emitted in canonical order; sorting recovers the
    // naive enumeration sequence under any walk order (skipped when the
    // chosen order already is the canonical one)
    if plan.is_reordered() {
        matches.sort_by(|a, b| a.positions.cmp(&b.positions));
    }
    Ok(matches
        .into_iter()
        .map(|m| {
            m.binding
                .into_iter()
                .enumerate()
                .filter_map(|(s, v)| Some((table.name(s)?.to_string(), v?)))
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_expr::{Lit, Term};
    use mm_instance::{RelSchema, Tuple};
    use mm_metamodel::DataType;

    fn db() -> Database {
        let mut db = Database::new("D");
        let mut r = mm_instance::Relation::new(RelSchema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
        ]));
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            r.insert(Tuple::from([Value::Int(a), Value::Int(b)]));
        }
        db.insert_relation("E", r);
        db
    }

    #[test]
    fn single_atom_binds_all_tuples() {
        let hs = find_homomorphisms(&[Atom::vars("E", &["x", "y"])], &db());
        assert_eq!(hs.len(), 3);
    }

    #[test]
    fn join_via_shared_variable() {
        // E(x,y) & E(y,z): paths of length 2
        let hs = find_homomorphisms(
            &[Atom::vars("E", &["x", "y"]), Atom::vars("E", &["y", "z"])],
            &db(),
        );
        assert_eq!(hs.len(), 2); // 1-2-3 and 2-3-4
        for h in &hs {
            let x = &h["x"];
            let z = &h["z"];
            assert_ne!(x, z);
        }
    }

    #[test]
    fn repeated_variable_forces_equality() {
        // E(x,x): no loops in this graph
        let hs = find_homomorphisms(&[Atom::vars("E", &["x", "x"])], &db());
        assert!(hs.is_empty());
    }

    #[test]
    fn constants_filter() {
        let atom = Atom::new(
            "E",
            vec![Term::Const(Lit::Int(2)), Term::var("y")],
        );
        let hs = find_homomorphisms(&[atom], &db());
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0]["y"], Value::Int(3));
    }

    #[test]
    fn missing_relation_yields_no_bindings() {
        let hs = find_homomorphisms(&[Atom::vars("Nope", &["x"])], &db());
        assert!(hs.is_empty());
    }

    #[test]
    fn empty_query_has_one_empty_binding() {
        let hs = find_homomorphisms(&[], &db());
        assert_eq!(hs.len(), 1);
        assert!(hs[0].is_empty());
    }

    #[test]
    fn arity_mismatch_never_matches() {
        let hs = find_homomorphisms(&[Atom::vars("E", &["x"])], &db());
        assert!(hs.is_empty());
    }

    #[test]
    fn compiled_path_agrees_with_naive_oracle_including_order() {
        let db = db();
        let cases: Vec<Vec<Atom>> = vec![
            vec![Atom::vars("E", &["x", "y"]), Atom::vars("E", &["y", "z"])],
            vec![Atom::vars("E", &["x", "x"])],
            vec![
                Atom::new("E", vec![Term::Const(Lit::Int(2)), Term::var("y")]),
                Atom::vars("E", &["y", "z"]),
            ],
            vec![],
        ];
        for atoms in cases {
            let mut g1 = Governor::new(&ExecBudget::unbounded());
            let mut g2 = Governor::new(&ExecBudget::unbounded());
            let seed = Binding::from([("w".to_string(), Value::Int(7))]);
            let fast = find_homomorphisms_governed(&atoms, &db, &seed, &mut g1).unwrap();
            let slow =
                crate::testkit::find_homomorphisms_naive(&atoms, &db, &seed, &mut g2).unwrap();
            assert_eq!(fast, slow, "atoms: {atoms:?}");
        }
    }

    #[test]
    fn labeled_nulls_participate_in_joins_by_label() {
        let mut db = Database::new("D");
        let mut r = mm_instance::Relation::new(RelSchema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
        ]));
        r.insert(Tuple::from([Value::Int(1), Value::Labeled(7)]));
        r.insert(Tuple::from([Value::Labeled(7), Value::Int(9)]));
        db.insert_relation("E", r);
        let hs = find_homomorphisms(
            &[Atom::vars("E", &["x", "y"]), Atom::vars("E", &["y", "z"])],
            &db,
        );
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0]["y"], Value::Labeled(7));
    }
}
