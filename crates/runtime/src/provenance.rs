//! Why-provenance (§5, "Provenance"): "after moving data from source to
//! target, a user wants to know the source data that contributed to a
//! particular target data item."
//!
//! The evaluator here is a lineage-carrying twin of `mm-eval`: every
//! intermediate tuple carries the set of base tuples it was derived from;
//! a target tuple's *witnesses* are the lineage sets of its derivations
//! (one per derivation — why-provenance as a set of witness sets).

// Translator-internal lookups are guarded by construction (schemas and
// view sets built in this module); `expect` here documents invariants,
// not caller-facing failure modes (DESIGN.md §7).
#![allow(clippy::expect_used)]

use mm_eval::plan::lit_to_value;
use mm_eval::EvalError;
use mm_expr::{Expr, Predicate, Scalar};
use mm_instance::{Database, RelSchema, Tuple, Value};
use mm_metamodel::Schema;
use std::collections::{BTreeSet, HashMap};

/// One witness: the base facts (relation name, tuple) jointly justifying
/// a target tuple.
pub type Witness = BTreeSet<(String, Tuple)>;

struct Lineage {
    schema: RelSchema,
    rows: Vec<(Tuple, Witness)>,
}

/// Evaluate scalar/predicate against a row of a lineage relation by
/// staging a single-tuple scratch database (reuses the main evaluator's
/// semantics exactly).
fn row_passes(
    predicate: &Predicate,
    schema: &Schema,
    rel_schema: &RelSchema,
    tuple: &Tuple,
) -> Result<bool, EvalError> {
    let scratch = stage_single(rel_schema, tuple);
    let e = Expr::Select {
        input: Box::new(Expr::base("$row")),
        predicate: predicate.clone(),
    };
    let (s2, db) = scratch;
    let merged = merge_schema(schema, &s2);
    Ok(!mm_eval::eval(&e, &merged, &db)?.is_empty())
}

fn eval_scalar_on_row(
    scalar: &Scalar,
    schema: &Schema,
    rel_schema: &RelSchema,
    tuple: &Tuple,
) -> Result<Value, EvalError> {
    let (s2, db) = stage_single(rel_schema, tuple);
    let merged = merge_schema(schema, &s2);
    let e = Expr::base("$row").extend("$out", scalar.clone());
    let r = mm_eval::eval(&e, &merged, &db)?;
    let pos = r.schema.position("$out").expect("extended column");
    let value = r.iter().next().map(|t| t.values()[pos].clone()).unwrap_or(Value::Null);
    Ok(value)
}

fn stage_single(rel_schema: &RelSchema, tuple: &Tuple) -> (Schema, Database) {
    use mm_metamodel::{Element, ElementKind};
    let mut s = Schema::new("$scratch");
    s.add_element(Element {
        name: "$row".into(),
        kind: ElementKind::Relation,
        attributes: rel_schema.attributes.clone(),
    })
    .expect("fresh schema");
    let mut db = Database::new("$scratch");
    let mut r = mm_instance::Relation::new(rel_schema.clone());
    r.insert(tuple.clone());
    db.insert_relation("$row", r);
    (s, db)
}

fn merge_schema(base: &Schema, extra: &Schema) -> Schema {
    let mut s = base.clone();
    for e in extra.elements() {
        let _ = s.add_element(e.clone());
    }
    s
}

fn eval_lineage(expr: &Expr, schema: &Schema, db: &Database) -> Result<Lineage, EvalError> {
    let out_schema = RelSchema::new(
        mm_expr::output_schema(expr, schema).map_err(EvalError::Static)?,
    );
    let rows = match expr {
        Expr::Base(name) => {
            let rel = db
                .relation(name)
                .ok_or_else(|| EvalError::MissingRelation(name.clone()))?;
            rel.iter()
                .map(|t| {
                    let mut w = Witness::new();
                    w.insert((name.clone(), t.clone()));
                    (t.clone(), w)
                })
                .collect()
        }
        Expr::Literal { rows, .. } => rows
            .iter()
            .map(|r| (Tuple::new(r.iter().map(lit_to_value).collect()), Witness::new()))
            .collect(),
        Expr::Project { input, columns } => {
            let inner = eval_lineage(input, schema, db)?;
            let positions: Vec<usize> = columns
                .iter()
                .map(|c| inner.schema.position(c).expect("checked"))
                .collect();
            inner
                .rows
                .into_iter()
                .map(|(t, w)| (t.project(&positions), w))
                .collect()
        }
        Expr::Select { input, predicate } => {
            let inner = eval_lineage(input, schema, db)?;
            let mut out = Vec::new();
            for (t, w) in inner.rows {
                if row_passes(predicate, schema, &inner.schema, &t)? {
                    out.push((t, w));
                }
            }
            out
        }
        Expr::Rename { input, .. } => eval_lineage(input, schema, db)?.rows,
        Expr::Distinct { input } => eval_lineage(input, schema, db)?.rows,
        Expr::Extend { input, column: _, scalar } => {
            let inner = eval_lineage(input, schema, db)?;
            let mut out = Vec::new();
            for (t, w) in inner.rows {
                let v = eval_scalar_on_row(scalar, schema, &inner.schema, &t)?;
                let mut vals = t.values().to_vec();
                vals.push(v);
                out.push((Tuple::new(vals), w));
            }
            out
        }
        Expr::Union { left, right, .. } => {
            let mut l = eval_lineage(left, schema, db)?.rows;
            l.extend(eval_lineage(right, schema, db)?.rows);
            l
        }
        Expr::Diff { left, right } => {
            let l = eval_lineage(left, schema, db)?;
            let r = eval_lineage(right, schema, db)?;
            let exclude: std::collections::HashSet<&Tuple> =
                r.rows.iter().map(|(t, _)| t).collect();
            l.rows.into_iter().filter(|(t, _)| !exclude.contains(t)).collect()
        }
        Expr::Join { left, right, on } => {
            let l = eval_lineage(left, schema, db)?;
            let r = eval_lineage(right, schema, db)?;
            join_lineage(&l, &r, on, false)
        }
        Expr::LeftJoin { left, right, on } => {
            let l = eval_lineage(left, schema, db)?;
            let r = eval_lineage(right, schema, db)?;
            join_lineage(&l, &r, on, true)
        }
        Expr::Aggregate { input, group_by, aggregates } => {
            // a group's witnesses: one witness merging all member rows'
            // lineages (why-provenance of an aggregate needs every
            // contributor)
            let inner = eval_lineage(input, schema, db)?;
            let group_pos: Vec<usize> = group_by
                .iter()
                .map(|c| inner.schema.position(c).expect("checked"))
                .collect();
            let mut scratch_schema = Schema::new("$agg");
            let _ = scratch_schema.add_element(mm_metamodel::Element {
                name: "$in".into(),
                kind: mm_metamodel::ElementKind::Relation,
                attributes: inner.schema.attributes.clone(),
            });
            let mut scratch_db = Database::new("$agg");
            let mut rel = mm_instance::Relation::new(inner.schema.clone());
            for (t, _) in &inner.rows {
                rel.insert(t.clone());
            }
            scratch_db.insert_relation("$in", rel);
            let agg = Expr::Aggregate {
                input: Box::new(Expr::base("$in")),
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
            };
            let results = mm_eval::eval(&agg, &scratch_schema, &scratch_db)?;
            let mut out = Vec::new();
            for row in results.iter() {
                let key = row.project(&(0..group_pos.len()).collect::<Vec<_>>());
                let mut w = Witness::new();
                for (t, tw) in &inner.rows {
                    if t.project(&group_pos) == key {
                        w.extend(tw.iter().cloned());
                    }
                }
                out.push((row.clone(), w));
            }
            out
        }
        Expr::Product { left, right } => {
            let l = eval_lineage(left, schema, db)?;
            let r = eval_lineage(right, schema, db)?;
            let mut out = Vec::new();
            for (lt, lw) in &l.rows {
                for (rt, rw) in &r.rows {
                    let mut w = lw.clone();
                    w.extend(rw.iter().cloned());
                    out.push((lt.concat(rt), w));
                }
            }
            out
        }
    };
    Ok(Lineage { schema: out_schema, rows })
}

fn join_lineage(
    l: &Lineage,
    r: &Lineage,
    on: &[(String, String)],
    outer: bool,
) -> Vec<(Tuple, Witness)> {
    let l_keys: Vec<usize> =
        on.iter().map(|(a, _)| l.schema.position(a).expect("join col")).collect();
    let r_keys: Vec<usize> =
        on.iter().map(|(_, b)| r.schema.position(b).expect("join col")).collect();
    let keep_right: Vec<usize> =
        (0..r.schema.arity()).filter(|i| !r_keys.contains(i)).collect();
    let mut table: HashMap<Tuple, Vec<&(Tuple, Witness)>> = HashMap::new();
    for row in &r.rows {
        let key = row.0.project(&r_keys);
        if key.values().iter().any(Value::is_null) {
            continue;
        }
        table.entry(key).or_default().push(row);
    }
    let mut out = Vec::new();
    for (lt, lw) in &l.rows {
        let key = lt.project(&l_keys);
        let matches = if key.values().iter().any(Value::is_null) {
            None
        } else {
            table.get(&key)
        };
        match matches {
            Some(rows) => {
                for (rt, rw) in rows.iter().map(|r| (*r).clone()).collect::<Vec<_>>() {
                    let mut vals = lt.values().to_vec();
                    for &i in &keep_right {
                        vals.push(rt.values()[i].clone());
                    }
                    let mut w = lw.clone();
                    w.extend(rw);
                    out.push((Tuple::new(vals), w));
                }
            }
            None if outer => {
                let mut vals = lt.values().to_vec();
                vals.extend(std::iter::repeat_n(Value::Null, keep_right.len()));
                out.push((Tuple::new(vals), lw.clone()));
            }
            None => {}
        }
    }
    out
}

/// Why-provenance: all witnesses of `target` in the result of `expr` over
/// `db`. Empty if the tuple is not in the result.
pub fn explain(
    expr: &Expr,
    schema: &Schema,
    db: &Database,
    target: &Tuple,
) -> Result<Vec<Witness>, EvalError> {
    let lineage = eval_lineage(expr, schema, db)?;
    let mut out: Vec<Witness> = Vec::new();
    for (t, w) in lineage.rows {
        if &t == target && !out.contains(&w) {
            out.push(w);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_expr::Lit;
    use mm_metamodel::{DataType, SchemaBuilder};

    fn setup() -> (Schema, Database) {
        let s = SchemaBuilder::new("S")
            .relation("Names", &[("SID", DataType::Int), ("Name", DataType::Text)])
            .relation("Addresses", &[("SID", DataType::Int), ("City", DataType::Text)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("Names", Tuple::from([Value::Int(1), Value::text("ann")]));
        db.insert("Names", Tuple::from([Value::Int(2), Value::text("bob")]));
        db.insert("Addresses", Tuple::from([Value::Int(1), Value::text("rome")]));
        db.insert("Addresses", Tuple::from([Value::Int(2), Value::text("rome")]));
        (s, db)
    }

    #[test]
    fn join_witness_contains_both_sides() {
        let (s, db) = setup();
        let e = Expr::base("Names")
            .join(Expr::base("Addresses"), &[("SID", "SID")])
            .project(&["Name", "City"]);
        let target = Tuple::from([Value::text("ann"), Value::text("rome")]);
        let ws = explain(&e, &s, &db, &target).unwrap();
        assert_eq!(ws.len(), 1);
        let w = &ws[0];
        assert_eq!(w.len(), 2);
        assert!(w.contains(&("Names".to_string(), Tuple::from([Value::Int(1), Value::text("ann")]))));
        assert!(w.contains(&(
            "Addresses".to_string(),
            Tuple::from([Value::Int(1), Value::text("rome")])
        )));
    }

    #[test]
    fn projection_merge_yields_multiple_witnesses() {
        let (s, db) = setup();
        // π City over Addresses: 'rome' has two derivations
        let e = Expr::base("Addresses").project(&["City"]);
        let ws = explain(&e, &s, &db, &Tuple::from([Value::text("rome")])).unwrap();
        assert_eq!(ws.len(), 2);
    }

    #[test]
    fn absent_tuple_has_no_witnesses() {
        let (s, db) = setup();
        let e = Expr::base("Names").project(&["Name"]);
        let ws = explain(&e, &s, &db, &Tuple::from([Value::text("zoe")])).unwrap();
        assert!(ws.is_empty());
    }

    #[test]
    fn selection_preserves_witness() {
        let (s, db) = setup();
        let e = Expr::base("Names").select(Predicate::col_eq_lit("Name", "bob"));
        let t = Tuple::from([Value::Int(2), Value::text("bob")]);
        let ws = explain(&e, &s, &db, &t).unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].len(), 1);
    }

    #[test]
    fn aggregate_witness_merges_all_group_members() {
        use mm_expr::AggSpec;
        let (s, db) = setup();
        // count addresses per city: 'rome' has two contributing rows
        let e = Expr::base("Addresses").aggregate(&["City"], vec![AggSpec::count("n")]);
        let target = Tuple::from([Value::text("rome"), Value::Int(2)]);
        let ws = explain(&e, &s, &db, &target).unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].len(), 2, "both rome rows witness the count");
    }

    #[test]
    fn literal_rows_have_empty_witness() {
        let (s, db) = setup();
        let e = Expr::literal_row(&["c"], vec![Lit::text("US")]);
        let ws = explain(&e, &s, &db, &Tuple::from([Value::text("US")])).unwrap();
        assert_eq!(ws.len(), 1);
        assert!(ws[0].is_empty());
    }
}
