//! Core minimization of universal instances.
//!
//! Among the universal solutions of a data-exchange problem, the *core* is
//! the smallest one (Fagin, Kolaitis, Popa: "Data exchange: getting to the
//! core", cited in §4). This module computes it by folding: repeatedly
//! look for an endomorphism of the instance (constants fixed, labeled
//! nulls may map to anything) that is not surjective, and quotient the
//! instance by it.
//!
//! Exact core computation is exponential in the number of nulls per block,
//! so the search runs under a [`Governor`]: every backtracking node is one
//! step, and a step cap, wall clock or cancellation ends the search with
//! the typed [`ExecError`] rather than a silently non-minimal result.

use mm_guard::{ExecError, Governor};
use mm_instance::{Database, Tuple, Value};
use std::collections::HashMap;

/// Result of core minimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreStats {
    pub tuples_before: usize,
    pub tuples_after: usize,
}

/// Compute the core of `db` (in place on a clone), returning the reduced
/// database and stats. Each backtracking node of the endomorphism search
/// is one step on `gov`.
pub fn core_of(db: &Database, gov: &mut Governor) -> Result<(Database, CoreStats), ExecError> {
    let mut cur = db.clone();
    let before = cur.total_tuples();
    while let Some(h) = find_proper_endomorphism(&cur, gov)? {
        cur = apply_endomorphism(&cur, &h);
    }
    let after = cur.total_tuples();
    Ok((cur, CoreStats { tuples_before: before, tuples_after: after }))
}

/// Look for an endomorphism h (identity on constants, arbitrary on
/// labeled nulls) such that h(db) ⊆ db and h is not injective on the
/// tuples (i.e. the image has strictly fewer tuples).
fn find_proper_endomorphism(
    db: &Database,
    gov: &mut Governor,
) -> Result<Option<HashMap<u64, Value>>, ExecError> {
    // collect all labeled nulls
    let mut nulls: Vec<u64> = Vec::new();
    for (_, rel) in db.relations() {
        for t in rel.iter() {
            for v in t.values() {
                if let Value::Labeled(l) = v {
                    if !nulls.contains(l) {
                        nulls.push(*l);
                    }
                }
            }
        }
    }
    if nulls.is_empty() {
        return Ok(None);
    }
    // candidate images per null: any value occurring in the same column of
    // the same relation
    let mut candidates: HashMap<u64, Vec<Value>> = HashMap::new();
    for (_, rel) in db.relations() {
        for t in rel.iter() {
            for (i, v) in t.values().iter().enumerate() {
                if let Value::Labeled(l) = v {
                    let entry = candidates.entry(*l).or_default();
                    for t2 in rel.iter() {
                        let cand = &t2.values()[i];
                        if !entry.contains(cand) {
                            entry.push(cand.clone());
                        }
                    }
                }
            }
        }
    }
    // backtracking over null assignments; prune: every tuple's image must
    // stay in the database.
    let tuples: Vec<(String, Tuple)> = db
        .relations()
        .flat_map(|(n, r)| r.iter().map(move |t| (n.to_string(), t.clone())))
        .collect();
    let mut assign: HashMap<u64, Value> = HashMap::new();
    let found = search(db, &tuples, &nulls, 0, &candidates, &mut assign, gov)?;
    Ok(found.then_some(assign))
}

#[allow(clippy::expect_used)] // invariant-backed: see expect messages
fn search(
    db: &Database,
    tuples: &[(String, Tuple)],
    nulls: &[u64],
    idx: usize,
    candidates: &HashMap<u64, Vec<Value>>,
    assign: &mut HashMap<u64, Value>,
    gov: &mut Governor,
) -> Result<bool, ExecError> {
    gov.step()?;
    if idx == nulls.len() {
        // full assignment: is the image consistent and strictly smaller?
        let mut image_count = 0usize;
        let mut seen: HashMap<&str, std::collections::HashSet<Tuple>> = HashMap::new();
        for (name, t) in tuples {
            let img = map_tuple(t, assign);
            let rel = db.relation(name).expect("relation exists");
            if !rel.contains(&img) {
                return Ok(false);
            }
            if seen.entry(name.as_str()).or_default().insert(img) {
                image_count += 1;
            }
        }
        return Ok(image_count < tuples.len());
    }
    let n = nulls[idx];
    for cand in &candidates[&n] {
        // skip self-loops early only if identity; identity is allowed per
        // null (just not for all of them, enforced by the final check)
        assign.insert(n, cand.clone());
        // prune: every tuple fully mapped so far must be in db
        let ok = tuples.iter().all(|(name, t)| {
            let Some(img) = try_map_tuple(t, assign) else { return true };
            db.relation(name).expect("relation exists").contains(&img)
        });
        if ok && search(db, tuples, nulls, idx + 1, candidates, assign, gov)? {
            return Ok(true);
        }
        assign.remove(&n);
    }
    Ok(false)
}

fn map_tuple(t: &Tuple, assign: &HashMap<u64, Value>) -> Tuple {
    Tuple::new(
        t.values()
            .iter()
            .map(|v| match v {
                Value::Labeled(l) => assign.get(l).cloned().unwrap_or_else(|| v.clone()),
                _ => v.clone(),
            })
            .collect(),
    )
}

/// Map a tuple only if all its nulls are assigned; `None` = not yet fully
/// determined.
fn try_map_tuple(t: &Tuple, assign: &HashMap<u64, Value>) -> Option<Tuple> {
    let mut vals = Vec::with_capacity(t.arity());
    for v in t.values() {
        match v {
            Value::Labeled(l) => vals.push(assign.get(l)?.clone()),
            _ => vals.push(v.clone()),
        }
    }
    Some(Tuple::new(vals))
}

fn apply_endomorphism(db: &Database, h: &HashMap<u64, Value>) -> Database {
    let mut out = Database::new(db.name.clone());
    out.set_label_watermark(db.label_watermark());
    for (name, rel) in db.relations() {
        let mut nr = mm_instance::Relation::new(rel.schema.clone());
        for t in rel.iter() {
            nr.insert(map_tuple(t, h));
        }
        out.insert_relation(name, nr);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_guard::{ExecBudget, Resource};
    use mm_instance::RelSchema;
    use mm_metamodel::DataType;

    fn core(db: &Database) -> (Database, CoreStats) {
        core_of(db, &mut Governor::new(&ExecBudget::unbounded())).unwrap()
    }

    fn rel2() -> RelSchema {
        RelSchema::of(&[("a", DataType::Any), ("b", DataType::Any)])
    }

    #[test]
    fn redundant_null_tuple_folds_away() {
        // R(1, 2) and R(1, N0): N0 ↦ 2 folds the second tuple into the first
        let mut db = Database::new("U");
        let mut r = mm_instance::Relation::new(rel2());
        r.insert(Tuple::from([Value::Int(1), Value::Int(2)]));
        r.insert(Tuple::from([Value::Int(1), Value::Labeled(0)]));
        db.insert_relation("R", r);
        let (core, stats) = core(&db);
        assert_eq!(stats.tuples_before, 2);
        assert_eq!(stats.tuples_after, 1);
        assert!(core.relation("R").unwrap().contains(&Tuple::from([Value::Int(1), Value::Int(2)])));
    }

    #[test]
    fn non_redundant_nulls_survive() {
        // R(1, N0) alone: nothing to fold into
        let mut db = Database::new("U");
        let mut r = mm_instance::Relation::new(rel2());
        r.insert(Tuple::from([Value::Int(1), Value::Labeled(0)]));
        db.insert_relation("R", r);
        let (core, stats) = core(&db);
        assert_eq!(stats.tuples_after, 1);
        assert!(core.relation("R").unwrap().iter().next().unwrap().values()[1].is_labeled());
    }

    #[test]
    fn chained_nulls_fold_consistently() {
        // R(1, N0), R(N0, 2)  plus  R(1, 5), R(5, 2):
        // N0 ↦ 5 folds both null tuples simultaneously
        let mut db = Database::new("U");
        let mut r = mm_instance::Relation::new(rel2());
        r.insert(Tuple::from([Value::Int(1), Value::Labeled(0)]));
        r.insert(Tuple::from([Value::Labeled(0), Value::Int(2)]));
        r.insert(Tuple::from([Value::Int(1), Value::Int(5)]));
        r.insert(Tuple::from([Value::Int(5), Value::Int(2)]));
        db.insert_relation("R", r);
        let (core, stats) = core(&db);
        assert_eq!(stats.tuples_after, 2);
        assert!(core.is_ground());
    }

    #[test]
    fn ground_database_is_its_own_core() {
        let mut db = Database::new("U");
        let mut r = mm_instance::Relation::new(rel2());
        r.insert(Tuple::from([Value::Int(1), Value::Int(2)]));
        r.insert(Tuple::from([Value::Int(3), Value::Int(4)]));
        db.insert_relation("R", r);
        let (core, stats) = core(&db);
        assert_eq!(stats.tuples_before, stats.tuples_after);
        assert_eq!(core.total_tuples(), 2);
    }

    #[test]
    fn two_independent_redundant_nulls() {
        let mut db = Database::new("U");
        let mut r = mm_instance::Relation::new(rel2());
        r.insert(Tuple::from([Value::Int(1), Value::Int(2)]));
        r.insert(Tuple::from([Value::Int(1), Value::Labeled(0)]));
        r.insert(Tuple::from([Value::Int(3), Value::Int(4)]));
        r.insert(Tuple::from([Value::Int(3), Value::Labeled(1)]));
        db.insert_relation("R", r);
        let (core, _) = core(&db);
        assert_eq!(core.total_tuples(), 2);
        assert!(core.is_ground());
    }

    #[test]
    fn search_past_the_step_cap_is_a_typed_error() {
        // three interchangeable nulls: the search needs more than two
        // backtracking nodes to find the fold
        let mut db = Database::new("U");
        let mut r = mm_instance::Relation::new(rel2());
        r.insert(Tuple::from([Value::Int(1), Value::Int(2)]));
        for l in 0..3 {
            r.insert(Tuple::from([Value::Int(1), Value::Labeled(l)]));
        }
        db.insert_relation("R", r);
        let err = core_of(&db, &mut Governor::new(&ExecBudget::unbounded().with_steps(2)))
            .unwrap_err();
        assert!(
            matches!(err, ExecError::BudgetExhausted { resource: Resource::Steps, limit: 2, .. }),
            "{err:?}"
        );
        assert_eq!(core(&db).0.total_tuples(), 1);
    }
}
