//! Certain answers over universal instances.
//!
//! "A query over the target should return only those tuples that are in
//! the output of the query for every target database that satisfies the
//! constraints" (§4). For unions of conjunctive queries evaluated on a
//! universal instance, the certain answers are exactly the query's answers
//! with every tuple containing a labeled null removed.

use mm_eval::{eval, EvalError};
use mm_expr::Expr;
use mm_instance::{Database, Relation, Value};
use mm_metamodel::Schema;

/// Evaluate `query` on the universal instance `db` and keep only tuples
/// free of labeled nulls (the certain answers).
pub fn certain_answers(
    query: &Expr,
    schema: &Schema,
    db: &Database,
) -> Result<Relation, EvalError> {
    let raw = eval(query, schema, db)?;
    let mut out = Relation::new(raw.schema.clone());
    for t in raw.iter() {
        if !t.values().iter().any(Value::is_labeled) {
            out.insert(t.clone());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChaseProgram;
    use mm_expr::{Atom, Tgd};
    use mm_guard::{ExecBudget, ExecCtx, Governor};
    use mm_instance::Tuple;
    use mm_metamodel::{DataType, SchemaBuilder};

    #[test]
    fn labeled_nulls_filtered_from_answers() {
        let src = SchemaBuilder::new("Src")
            .relation("Emp", &[("e", DataType::Text)])
            .build()
            .unwrap();
        let tgt = SchemaBuilder::new("Tgt")
            .relation("Mgr", &[("e", DataType::Text), ("m", DataType::Text)])
            .build()
            .unwrap();
        let mut sdb = Database::empty_of(&src);
        sdb.insert("Emp", Tuple::from([Value::text("ann")]));
        let tgd = Tgd::new(vec![Atom::vars("Emp", &["e"])], vec![Atom::vars("Mgr", &["e", "m"])]);
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let tdb = ChaseProgram::compile(&[tgd], &sdb)
            .run_st(&tgt, &sdb, &mut ExecCtx::new(&mut gov))
            .unwrap()
            .target;

        // project the employee column: certain
        let q1 = Expr::base("Mgr").project(&["e"]);
        let r1 = certain_answers(&q1, &tgt, &tdb).unwrap();
        assert_eq!(r1.len(), 1);

        // project the manager column: a labeled null — not certain
        let q2 = Expr::base("Mgr").project(&["m"]);
        let r2 = certain_answers(&q2, &tgt, &tdb).unwrap();
        assert!(r2.is_empty());

        // but the join through the null still counts for the body — the
        // whole-row query is not certain either
        let q3 = Expr::base("Mgr");
        let r3 = certain_answers(&q3, &tgt, &tdb).unwrap();
        assert!(r3.is_empty());
    }
}
