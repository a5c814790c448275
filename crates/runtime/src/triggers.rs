//! Business logic across mappings (§5, "Business logic" and
//! "Notifications"): "Triggers and other business logic may be attached
//! to data in the context of T. It may be more efficient to execute them
//! in the context of S. This requires pushing the business logic through
//! mapST, which should be done statically."
//!
//! A [`Trigger`] is declared on a *target* (view-level) relation with a
//! firing condition. [`compile_triggers`] pushes each condition through
//! the mapping statically — unfolding to the base schema and optimizing —
//! so that at runtime, firing only requires a delta evaluation against
//! base-level changes.

use crate::ivm::{view_insert_delta_governed, Delta};
use mm_eval::EvalError;
use mm_expr::{Expr, Predicate, ViewSet};
use mm_guard::{ExecBudget, Governor};
use mm_instance::{Database, Tuple};
use mm_metamodel::Schema;

/// A trigger declared in target terms.
#[derive(Debug, Clone)]
pub struct Trigger {
    pub name: String,
    /// Fires when a new row of this view-level relation…
    pub on: String,
    /// …satisfies this condition (None = every new row).
    pub when: Option<Predicate>,
}

impl Trigger {
    pub fn new(name: impl Into<String>, on: impl Into<String>) -> Self {
        Trigger { name: name.into(), on: on.into(), when: None }
    }

    pub fn when(mut self, p: Predicate) -> Self {
        self.when = Some(p);
        self
    }
}

/// A trigger compiled to base level: its condition as an (optimized)
/// expression over the base schema.
#[derive(Debug, Clone)]
pub struct CompiledTrigger {
    pub name: String,
    pub on: String,
    pub base_condition: Expr,
}

/// Static compilation: unfold each trigger's condition through the
/// mapping and optimize.
pub fn compile_triggers(
    triggers: &[Trigger],
    views: &ViewSet,
    base_schema: &Schema,
) -> Vec<CompiledTrigger> {
    triggers
        .iter()
        .map(|t| {
            let mut q = Expr::base(t.on.clone());
            if let Some(p) = &t.when {
                q = q.select(p.clone());
            }
            let unfolded = mm_eval::unfold_query(&q, views);
            let base_condition =
                mm_expr::optimize(&unfolded, base_schema).unwrap_or(unfolded);
            CompiledTrigger { name: t.name.clone(), on: t.on.clone(), base_condition }
        })
        .collect()
}

/// A firing: which trigger, and the new target-level row that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    pub trigger: String,
    pub row: Tuple,
}

/// Evaluate all compiled triggers against a base-level delta: a trigger
/// fires once per *new* satisfying target row (rows derivable before the
/// delta do not re-fire).
pub fn fire_triggers(
    compiled: &[CompiledTrigger],
    base_schema: &Schema,
    base_db: &Database,
    delta: &Delta,
) -> Result<Vec<Firing>, EvalError> {
    let mut out = Vec::new();
    let mut gov = Governor::new(&ExecBudget::unbounded());
    for t in compiled {
        let new_rows =
            view_insert_delta_governed(&t.base_condition, base_schema, base_db, delta, &mut gov)?;
        for row in new_rows.iter() {
            out.push(Firing { trigger: t.name.clone(), row: row.clone() });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_expr::{CmpOp, Scalar, ViewDef};
    use mm_instance::Value;
    use mm_metamodel::{DataType, SchemaBuilder};

    fn setup() -> (Schema, Database, ViewSet) {
        let s = SchemaBuilder::new("S")
            .relation("orders", &[
                ("oid", DataType::Int),
                ("cust", DataType::Int),
                ("total", DataType::Int),
            ])
            .relation("customers", &[("cid", DataType::Int), ("name", DataType::Text)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("customers", Tuple::from([Value::Int(1), Value::text("ann")]));
        db.insert("orders", Tuple::from([Value::Int(10), Value::Int(1), Value::Int(40)]));
        let mut views = ViewSet::new("S", "Portal");
        views.push(ViewDef::new(
            "Orders",
            Expr::base("orders").join(Expr::base("customers"), &[("cust", "cid")]),
        ));
        (s, db, views)
    }

    #[test]
    fn compiled_condition_lives_on_the_base_schema() {
        let (s, _, views) = setup();
        let triggers = vec![Trigger::new("big_order", "Orders").when(Predicate::Cmp {
            op: CmpOp::Gt,
            left: Scalar::col("total"),
            right: Scalar::lit(100i64),
        })];
        let compiled = compile_triggers(&triggers, &views, &s);
        let bases = mm_expr::analyze::base_relations(&compiled[0].base_condition);
        assert!(bases.contains(&"orders"));
        assert!(!bases.contains(&"Orders"));
        // the condition was pushed to the orders scan
        assert!(
            compiled[0].base_condition.to_string().contains("orders) WHERE total > 100"),
            "{}",
            compiled[0].base_condition
        );
    }

    #[test]
    fn trigger_fires_only_on_new_satisfying_rows() {
        let (s, db, views) = setup();
        let triggers = vec![Trigger::new("big_order", "Orders").when(Predicate::Cmp {
            op: CmpOp::Gt,
            left: Scalar::col("total"),
            right: Scalar::lit(100i64),
        })];
        let compiled = compile_triggers(&triggers, &views, &s);

        // small order: no firing
        let mut small = Delta::new();
        small.insert("orders", Tuple::from([Value::Int(11), Value::Int(1), Value::Int(50)]));
        assert!(fire_triggers(&compiled, &s, &db, &small).unwrap().is_empty());

        // big order: fires once, with the joined target-level row
        let mut big = Delta::new();
        big.insert("orders", Tuple::from([Value::Int(12), Value::Int(1), Value::Int(500)]));
        let firings = fire_triggers(&compiled, &s, &db, &big).unwrap();
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].trigger, "big_order");
        assert!(firings[0].row.values().contains(&Value::text("ann")));
    }

    #[test]
    fn unconditioned_trigger_fires_per_new_row() {
        let (s, db, views) = setup();
        let compiled = compile_triggers(&[Trigger::new("any", "Orders")], &views, &s);
        let mut delta = Delta::new();
        delta.insert("orders", Tuple::from([Value::Int(11), Value::Int(1), Value::Int(1)]));
        delta.insert("orders", Tuple::from([Value::Int(12), Value::Int(1), Value::Int(2)]));
        // plus one row that joins to no customer: must not fire
        delta.insert("orders", Tuple::from([Value::Int(13), Value::Int(99), Value::Int(3)]));
        let firings = fire_triggers(&compiled, &s, &db, &delta).unwrap();
        assert_eq!(firings.len(), 2);
    }

    #[test]
    fn preexisting_rows_do_not_refire() {
        let (s, db, views) = setup();
        let compiled = compile_triggers(&[Trigger::new("any", "Orders")], &views, &s);
        // delta inserting a customer makes the existing order join — that
        // IS a new target row, so it fires; re-running with empty delta
        // fires nothing
        let firings = fire_triggers(&compiled, &s, &db, &Delta::new()).unwrap();
        assert!(firings.is_empty());
    }
}
