//! Batch loading (§5): "since most database systems have a high
//! performance interface for batch loading, in many scenarios it would be
//! more efficient to load data directly into S rather than through T.
//! This requires transforming the data to be loaded via mapST into the
//! format required by S's loader."
//!
//! The loader takes a staged batch formatted for the *target* (entity)
//! schema, pushes it through the update views once, and appends the
//! resulting table rows to the base database — bypassing per-row update
//! propagation.

use mm_eval::{materialize_views_governed, EvalError};
use mm_expr::ViewSet;
use mm_guard::Governor;
use mm_instance::Database;
use mm_metamodel::Schema;

/// Statistics of one batch load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadStats {
    /// Rows staged on the entity side.
    pub staged: usize,
    /// Rows appended to base tables (after dedup against existing rows).
    pub loaded: usize,
}

/// Transform `batch` (an instance of the entity schema) through the
/// update views and append the rows to `base_db`.
///
/// The view transformation and the per-row append both accrue against
/// `gov`, so an oversized or adversarial batch trips a typed error instead
/// of loading unboundedly. The base database is only mutated after the
/// transformation succeeds in full, so a budget trip leaves it untouched.
pub fn batch_load(
    update_views: &ViewSet,
    entity_schema: &Schema,
    batch: &Database,
    base_db: &mut Database,
    gov: &mut Governor,
) -> Result<LoadStats, EvalError> {
    let staged = batch.total_tuples();
    let tables = materialize_views_governed(update_views, entity_schema, batch, gov)?;
    // Charge the whole append before touching the base database.
    let append_rows: usize = tables.relations().map(|(_, r)| r.len()).sum();
    gov.rows_n(append_rows as u64).map_err(EvalError::Exec)?;
    let mut loaded = 0usize;
    for (name, rel) in tables.relations() {
        for t in rel.iter() {
            if let Some(target) = base_db.relation_mut(name) {
                if target.insert(t.clone()) {
                    loaded += 1;
                }
            } else {
                let mut r = mm_instance::Relation::new(rel.schema.clone());
                r.insert(t.clone());
                base_db.insert_relation(name, r);
                loaded += 1;
            }
        }
    }
    Ok(LoadStats { staged, loaded })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_expr::{entity_extent, Expr, Mapping, MappingConstraint};
    use mm_guard::ExecBudget;
    use mm_instance::Value;
    use mm_metamodel::{DataType, SchemaBuilder};
    use mm_transgen::{parse_fragments, update_views};

    #[test]
    fn batch_flows_through_mapping_and_dedups() {
        let er = SchemaBuilder::new("ER")
            .entity("Person", &[("Id", DataType::Int), ("Name", DataType::Text)])
            .key("Person", &["Id"])
            .build()
            .unwrap();
        let rel = SchemaBuilder::new("SQL")
            .relation("HR", &[("Id", DataType::Int), ("Name", DataType::Text)])
            .build()
            .unwrap();
        let m = Mapping::with_constraints(
            "ER",
            "SQL",
            vec![MappingConstraint::ExprEq {
                source: entity_extent(&er, "Person").unwrap().project(&["Id", "Name"]),
                target: Expr::base("HR"),
            }],
        );
        let frags = parse_fragments(&er, &rel, &m).unwrap();
        let uv = update_views(&er, &rel, &frags).unwrap();

        let mut base = Database::empty_of(&rel);
        base.insert(
            "HR",
            mm_instance::Tuple::from([Value::Int(1), Value::text("pat")]),
        );

        let mut batch = Database::empty_of(&er);
        batch.insert_entity("Person", "Person", vec![Value::Int(1), Value::text("pat")]); // dup
        batch.insert_entity("Person", "Person", vec![Value::Int(2), Value::text("eve")]);

        let mut gov = Governor::new(&ExecBudget::unbounded());
        let stats = batch_load(&uv, &er, &batch, &mut base, &mut gov).unwrap();
        assert_eq!(stats.staged, 2);
        assert_eq!(stats.loaded, 1); // only eve is new
        assert_eq!(base.relation("HR").unwrap().len(), 2);
    }
}
