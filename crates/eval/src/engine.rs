//! Materializing evaluator for the relational algebra.

use crate::plan::lit_to_value;
use mm_expr::{CmpOp, Expr, ExprError, Func, Predicate, Scalar};
use mm_guard::{ExecBudget, ExecError, Governor};
use mm_instance::{Database, RelSchema, Relation, Tuple, Value};
use mm_metamodel::{Schema, TYPE_ATTR};
use std::collections::HashMap;
use std::fmt;

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Static analysis of the expression failed.
    Static(ExprError),
    /// The database lacks a relation the schema promises.
    MissingRelation(String),
    /// Governance failure (budget, cancellation) or malformed
    /// caller-supplied expression caught at runtime.
    Exec(ExecError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Static(e) => write!(f, "static error: {e}"),
            EvalError::MissingRelation(r) => write!(f, "missing relation `{r}`"),
            EvalError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ExprError> for EvalError {
    fn from(e: ExprError) -> Self {
        EvalError::Static(e)
    }
}

impl From<ExecError> for EvalError {
    fn from(e: ExecError) -> Self {
        EvalError::Exec(e)
    }
}

/// Resolve a column position or report the malformed reference as a
/// typed error (the static checker normally rules this out, but the
/// expression is caller-supplied data and must not panic the engine).
fn position_or_err(schema: &RelSchema, column: &str, context: &str) -> Result<usize, EvalError> {
    schema.position(column).ok_or_else(|| {
        EvalError::Exec(ExecError::malformed(format!(
            "column '{column}' not present in input of {context}"
        )))
    })
}

/// A resolved row context: column positions by name.
struct Row<'a> {
    positions: &'a HashMap<String, usize>,
    tuple: &'a Tuple,
}

fn eval_scalar(s: &Scalar, row: &Row<'_>, schema: &Schema) -> Value {
    match s {
        Scalar::Col(c) => {
            let i = row.positions[c.as_str()];
            row.tuple.values()[i].clone()
        }
        Scalar::Lit(l) => lit_to_value(l),
        Scalar::Func(f, args) => {
            let vals: Vec<Value> = args.iter().map(|a| eval_scalar(a, row, schema)).collect();
            eval_func(*f, &vals)
        }
        Scalar::Case { branches, otherwise } => {
            for (p, v) in branches {
                if eval_predicate(p, row, schema) {
                    return eval_scalar(v, row, schema);
                }
            }
            eval_scalar(otherwise, row, schema)
        }
    }
}

fn eval_func(f: Func, vals: &[Value]) -> Value {
    match f {
        Func::Concat => {
            if vals.iter().any(|v| matches!(v, Value::Null)) {
                return Value::Null;
            }
            let mut s = String::new();
            for v in vals {
                match v.as_text() {
                    Some(t) => s.push_str(t),
                    None => s.push_str(&v.to_string()),
                }
            }
            Value::text(s)
        }
        Func::Add | Func::Sub | Func::Mul => {
            let op: fn(f64, f64) -> f64 = match f {
                Func::Add => |a, b| a + b,
                Func::Sub => |a, b| a - b,
                _ => |a, b| a * b,
            };
            let mut acc: Option<Value> = None;
            for v in vals {
                acc = Some(match (acc, v) {
                    (None, v) => v.clone(),
                    (Some(Value::Int(a)), Value::Int(b)) => {
                        Value::Int(op(a as f64, *b as f64) as i64)
                    }
                    (Some(a), b) => match (num(&a), num(b)) {
                        (Some(x), Some(y)) => Value::Double(op(x, y)),
                        _ => return Value::Null,
                    },
                });
            }
            acc.unwrap_or(Value::Null)
        }
        Func::Coalesce => vals
            .iter()
            .find(|v| !matches!(v, Value::Null))
            .cloned()
            .unwrap_or(Value::Null),
        Func::Upper | Func::Lower => match vals.first() {
            Some(Value::Null) | None => Value::Null,
            Some(v) => match v.as_text() {
                Some(t) => Value::text(if f == Func::Upper {
                    t.to_uppercase()
                } else {
                    t.to_lowercase()
                }),
                None => v.clone(),
            },
        },
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Double(d) => Some(*d),
        _ => None,
    }
}

fn eval_predicate(p: &Predicate, row: &Row<'_>, schema: &Schema) -> bool {
    match p {
        Predicate::Cmp { op, left, right } => {
            let l = eval_scalar(left, row, schema);
            let r = eval_scalar(right, row, schema);
            // SQL-style: comparisons with NULL are not true. Labeled nulls
            // compare by label under Eq/Ne (chase semantics) but are
            // incomparable under order operators.
            if l.is_null() || r.is_null() {
                return false;
            }
            match op {
                CmpOp::Eq => l == r,
                CmpOp::Ne => l != r,
                _ if l.is_labeled() || r.is_labeled() => false,
                CmpOp::Lt => l < r,
                CmpOp::Le => l <= r,
                CmpOp::Gt => l > r,
                CmpOp::Ge => l >= r,
            }
        }
        Predicate::And(a, b) => {
            eval_predicate(a, row, schema) && eval_predicate(b, row, schema)
        }
        Predicate::Or(a, b) => {
            eval_predicate(a, row, schema) || eval_predicate(b, row, schema)
        }
        Predicate::Not(q) => !eval_predicate(q, row, schema),
        Predicate::IsNull(s) => eval_scalar(s, row, schema).is_null(),
        Predicate::IsOf { ty, only } => {
            let Some(&i) = row.positions.get(TYPE_ATTR) else { return false };
            match row.tuple.values()[i].as_text() {
                Some(actual) => {
                    if *only {
                        actual == ty
                    } else {
                        schema.is_subtype(actual, ty)
                    }
                }
                None => false,
            }
        }
        Predicate::True => true,
        Predicate::False => false,
    }
}

fn positions_of(schema: &RelSchema) -> HashMap<String, usize> {
    schema
        .attributes
        .iter()
        .enumerate()
        .map(|(i, a)| (a.name.clone(), i))
        .collect()
}

/// One input layout's column positions, for callers that apply a
/// `Select` predicate or an `Extend` scalar to rows one at a time (the
/// IVM delta rules) with exactly the semantics [`eval`] gives them.
/// The predicate or scalar must have been checked against that layout
/// ([`mm_expr::output_schema`] of the enclosing operator), as in `eval`:
/// a column it names that the layout lacks is a panic, not an error.
#[derive(Debug, Clone)]
pub struct RowLayout {
    positions: HashMap<String, usize>,
}

impl RowLayout {
    pub fn new(schema: &RelSchema) -> Self {
        RowLayout { positions: positions_of(schema) }
    }

    /// Whether `tuple` satisfies `predicate` (SQL three-valued: NULL
    /// comparisons are not true).
    pub fn matches(&self, predicate: &Predicate, tuple: &Tuple, schema: &Schema) -> bool {
        eval_predicate(predicate, &Row { positions: &self.positions, tuple }, schema)
    }

    /// `tuple` with the value of `scalar` appended — one `Extend` row.
    pub fn extend(&self, scalar: &Scalar, tuple: &Tuple, schema: &Schema) -> Tuple {
        let v = eval_scalar(scalar, &Row { positions: &self.positions, tuple }, schema);
        let mut vals = tuple.values().to_vec();
        vals.push(v);
        Tuple::new(vals)
    }
}

/// Evaluate `expr` against `db`, returning a materialized relation.
///
/// The expression is statically checked against `schema` first, so
/// evaluation itself can index by position without per-row checks.
/// Ungoverned: runs under an unbounded budget (still panic-free).
pub fn eval(expr: &Expr, schema: &Schema, db: &Database) -> Result<Relation, EvalError> {
    let mut gov = Governor::new(&ExecBudget::unbounded());
    eval_governed(expr, schema, db, &mut gov)
}

/// Evaluate `expr` under an execution governor: every produced tuple is
/// metered as a row and every processed input tuple as a step, so
/// runaway products/joins trip the budget (or observe cancellation)
/// instead of exhausting memory.
pub fn eval_governed(
    expr: &Expr,
    schema: &Schema,
    db: &Database,
    gov: &mut Governor,
) -> Result<Relation, EvalError> {
    // Entry safepoint: a pre-cancelled token or expired deadline trips
    // before any work, regardless of input size.
    gov.check_now()?;
    let out_attrs = mm_expr::output_schema(expr, schema)?;
    let out_schema = RelSchema::new(out_attrs);
    let tuples = eval_rows(expr, schema, db, gov)?;
    Ok(Relation::with_tuples(out_schema, tuples))
}

/// Internal: evaluate to a bag of tuples (dedup happens on
/// materialization, except where set semantics is required mid-pipeline).
fn eval_rows(
    expr: &Expr,
    schema: &Schema,
    db: &Database,
    gov: &mut Governor,
) -> Result<Vec<Tuple>, EvalError> {
    match expr {
        Expr::Base(name) => {
            let rel = db
                .relation(name)
                .ok_or_else(|| EvalError::MissingRelation(name.clone()))?;
            gov.steps_n(rel.len() as u64)?;
            Ok(rel.iter().cloned().collect())
        }
        Expr::Literal { rows, .. } => Ok(rows
            .iter()
            .map(|r| Tuple::new(r.iter().map(lit_to_value).collect()))
            .collect()),
        Expr::Project { input, columns } => {
            let in_attrs = mm_expr::output_schema(input, schema)?;
            let in_schema = RelSchema::new(in_attrs);
            let positions: Vec<usize> = columns
                .iter()
                .map(|c| position_or_err(&in_schema, c, "projection"))
                .collect::<Result<_, _>>()?;
            let rows = eval_rows(input, schema, db, gov)?;
            gov.steps_n(rows.len() as u64)?;
            Ok(rows.iter().map(|t| t.project(&positions)).collect())
        }
        Expr::Select { input, predicate } => {
            let in_attrs = mm_expr::output_schema(input, schema)?;
            let in_schema = RelSchema::new(in_attrs);
            let pos = positions_of(&in_schema);
            let rows = eval_rows(input, schema, db, gov)?;
            gov.steps_n(rows.len() as u64)?;
            Ok(rows
                .into_iter()
                .filter(|t| eval_predicate(predicate, &Row { positions: &pos, tuple: t }, schema))
                .collect())
        }
        Expr::Join { left, right, on } => {
            hash_join(expr, left, right, on, schema, db, false, gov)
        }
        Expr::LeftJoin { left, right, on } => {
            hash_join(expr, left, right, on, schema, db, true, gov)
        }
        Expr::Product { left, right } => {
            let l = eval_rows(left, schema, db, gov)?;
            let r = eval_rows(right, schema, db, gov)?;
            let mut out = Vec::with_capacity(l.len().saturating_mul(r.len()));
            for lt in &l {
                for rt in &r {
                    gov.row()?;
                    out.push(lt.concat(rt));
                }
            }
            Ok(out)
        }
        Expr::Union { left, right, all } => {
            let mut l = eval_rows(left, schema, db, gov)?;
            let r = eval_rows(right, schema, db, gov)?;
            l.extend(r);
            if !all {
                let mut seen = std::collections::HashSet::with_capacity(l.len());
                l.retain(|t| seen.insert(t.clone()));
            }
            Ok(l)
        }
        Expr::Diff { left, right } => {
            let l = eval_rows(left, schema, db, gov)?;
            let r: std::collections::HashSet<Tuple> =
                eval_rows(right, schema, db, gov)?.into_iter().collect();
            let mut seen = std::collections::HashSet::new();
            Ok(l.into_iter()
                .filter(|t| !r.contains(t) && seen.insert(t.clone()))
                .collect())
        }
        Expr::Rename { input, .. } => eval_rows(input, schema, db, gov),
        Expr::Extend { input, column: _, scalar } => {
            let in_attrs = mm_expr::output_schema(input, schema)?;
            let in_schema = RelSchema::new(in_attrs);
            let pos = positions_of(&in_schema);
            let rows = eval_rows(input, schema, db, gov)?;
            gov.steps_n(rows.len() as u64)?;
            Ok(rows
                .into_iter()
                .map(|t| {
                    let v = eval_scalar(scalar, &Row { positions: &pos, tuple: &t }, schema);
                    let mut vals = t.values().to_vec();
                    vals.push(v);
                    Tuple::new(vals)
                })
                .collect())
        }
        Expr::Distinct { input } => {
            let rows = eval_rows(input, schema, db, gov)?;
            let mut seen = std::collections::HashSet::with_capacity(rows.len());
            Ok(rows.into_iter().filter(|t| seen.insert(t.clone())).collect())
        }
        Expr::Aggregate { input, group_by, aggregates } => {
            let in_attrs = mm_expr::output_schema(input, schema)?;
            let in_schema = RelSchema::new(in_attrs);
            let group_pos: Vec<usize> = group_by
                .iter()
                .map(|c| position_or_err(&in_schema, c, "GROUP BY"))
                .collect::<Result<_, _>>()?;
            let agg_pos: Vec<Option<usize>> = aggregates
                .iter()
                .map(|a| {
                    a.column
                        .as_ref()
                        .map(|c| position_or_err(&in_schema, c, "aggregate"))
                        .transpose()
                })
                .collect::<Result<_, _>>()?;
            let rows = eval_rows(input, schema, db, gov)?;
            gov.steps_n(rows.len() as u64)?;
            // group preserving first-seen order
            let mut order: Vec<Tuple> = Vec::new();
            let mut groups: HashMap<Tuple, Vec<&Tuple>> = HashMap::new();
            for t in &rows {
                let key = t.project(&group_pos);
                if !groups.contains_key(&key) {
                    order.push(key.clone());
                }
                groups.entry(key).or_default().push(t);
            }
            let mut out = Vec::with_capacity(order.len());
            for key in order {
                let members = &groups[&key];
                let mut vals = key.values().to_vec();
                for (spec, pos) in aggregates.iter().zip(&agg_pos) {
                    vals.push(eval_aggregate(spec.func, *pos, members)?);
                }
                out.push(Tuple::new(vals));
            }
            Ok(out)
        }
    }
}

/// Compute one aggregate over a group. NULLs are skipped (SQL semantics);
/// an all-NULL (or empty) group yields NULL except for COUNT. A SUM /
/// AVG / MIN / MAX spec without a column is caller-supplied malformed
/// data and reports a typed error rather than panicking.
fn eval_aggregate(
    func: mm_expr::algebra::AggFunc,
    pos: Option<usize>,
    members: &[&Tuple],
) -> Result<Value, EvalError> {
    use mm_expr::algebra::AggFunc;
    let need_col = |pos: Option<usize>| {
        pos.ok_or_else(|| {
            EvalError::Exec(ExecError::malformed(format!(
                "aggregate {func:?} requires a column argument"
            )))
        })
    };
    Ok(match func {
        AggFunc::Count => match pos {
            None => Value::Int(members.len() as i64),
            Some(i) => Value::Int(
                members.iter().filter(|t| !t.values()[i].is_null()).count() as i64,
            ),
        },
        AggFunc::Sum | AggFunc::Avg => {
            let i = need_col(pos)?;
            let mut sum = 0f64;
            let mut n = 0usize;
            let mut all_int = true;
            for t in members {
                match &t.values()[i] {
                    Value::Int(v) => {
                        sum += *v as f64;
                        n += 1;
                    }
                    Value::Double(v) => {
                        sum += v;
                        n += 1;
                        all_int = false;
                    }
                    _ => {}
                }
            }
            if n == 0 {
                Value::Null
            } else if func == AggFunc::Avg {
                Value::Double(sum / n as f64)
            } else if all_int {
                Value::Int(sum as i64)
            } else {
                Value::Double(sum)
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let i = need_col(pos)?;
            let mut best: Option<Value> = None;
            for t in members {
                let v = &t.values()[i];
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v.clone(),
                    Some(b) => {
                        let keep_new = if func == AggFunc::Min { v < &b } else { v > &b };
                        if keep_new {
                            v.clone()
                        } else {
                            b
                        }
                    }
                });
            }
            best.unwrap_or(Value::Null)
        }
    })
}

#[allow(clippy::too_many_arguments)]
fn hash_join(
    _expr: &Expr,
    left: &Expr,
    right: &Expr,
    on: &[(String, String)],
    schema: &Schema,
    db: &Database,
    outer: bool,
    gov: &mut Governor,
) -> Result<Vec<Tuple>, EvalError> {
    let l_schema = RelSchema::new(mm_expr::output_schema(left, schema)?);
    let r_schema = RelSchema::new(mm_expr::output_schema(right, schema)?);
    let l_keys: Vec<usize> = on
        .iter()
        .map(|(a, _)| position_or_err(&l_schema, a, "join (left side)"))
        .collect::<Result<_, _>>()?;
    let r_keys: Vec<usize> = on
        .iter()
        .map(|(_, b)| position_or_err(&r_schema, b, "join (right side)"))
        .collect::<Result<_, _>>()?;
    // columns of the right side that survive (non-join columns)
    let keep_right: Vec<usize> = (0..r_schema.arity())
        .filter(|i| !r_keys.contains(i))
        .collect();

    let l_rows = eval_rows(left, schema, db, gov)?;
    let r_rows = eval_rows(right, schema, db, gov)?;

    // build on the right side
    let mut table: HashMap<Tuple, Vec<&Tuple>> = HashMap::with_capacity(r_rows.len());
    for t in &r_rows {
        gov.step()?;
        let key = t.project(&r_keys);
        // SQL join semantics: NULL keys never match
        if key.values().iter().any(Value::is_null) {
            continue;
        }
        table.entry(key).or_default().push(t);
    }

    let mut out = Vec::new();
    for lt in &l_rows {
        gov.step()?;
        let key = lt.project(&l_keys);
        let probe = if key.values().iter().any(Value::is_null) {
            None
        } else {
            table.get(&key)
        };
        match probe {
            Some(matches) => {
                for rt in matches {
                    gov.row()?;
                    let mut vals = lt.values().to_vec();
                    for &i in &keep_right {
                        vals.push(rt.values()[i].clone());
                    }
                    out.push(Tuple::new(vals));
                }
            }
            None if outer => {
                let mut vals = lt.values().to_vec();
                vals.extend(std::iter::repeat_n(Value::Null, keep_right.len()));
                out.push(Tuple::new(vals));
            }
            None => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_expr::Lit;
    use mm_metamodel::{DataType, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new("S")
            .relation("Empl", &[("EID", DataType::Int), ("Name", DataType::Text), ("AID", DataType::Int)])
            .relation_nullable("Addr", &[("AID", DataType::Int, false), ("City", DataType::Text, true)])
            .entity("Person", &[("Id", DataType::Int), ("Name", DataType::Text)])
            .entity_sub("Employee", "Person", &[("Dept", DataType::Text)])
            .build()
            .unwrap()
    }

    fn db() -> Database {
        let s = schema();
        let mut db = Database::empty_of(&s);
        db.insert("Empl", Tuple::from([Value::Int(1), Value::text("ann"), Value::Int(10)]));
        db.insert("Empl", Tuple::from([Value::Int(2), Value::text("bob"), Value::Int(20)]));
        db.insert("Empl", Tuple::from([Value::Int(3), Value::text("cyd"), Value::Int(99)]));
        db.insert("Addr", Tuple::from([Value::Int(10), Value::text("rome")]));
        db.insert("Addr", Tuple::from([Value::Int(20), Value::text("oslo")]));
        db.insert_entity("Person", "Person", vec![Value::Int(7), Value::text("pat")]);
        db.insert_entity(
            "Employee",
            "Employee",
            vec![Value::Int(8), Value::text("eve"), Value::text("hr")],
        );
        // Employee also appears in Person's set with its full Person layout
        db.insert_entity("Person", "Employee", vec![Value::Int(8), Value::text("eve")]);
        db
    }

    fn ints(rel: &Relation, col: &str) -> Vec<i64> {
        let i = rel.schema.position(col).unwrap();
        let mut v: Vec<i64> = rel
            .iter()
            .map(|t| match &t.values()[i] {
                Value::Int(x) => *x,
                other => panic!("not an int: {other}"),
            })
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn base_scan() {
        let r = eval(&Expr::base("Empl"), &schema(), &db()).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn select_with_predicate() {
        let e = Expr::base("Empl").select(Predicate::col_eq_lit("Name", "bob"));
        let r = eval(&e, &schema(), &db()).unwrap();
        assert_eq!(ints(&r, "EID"), [2]);
    }

    #[test]
    fn inner_join_drops_unmatched() {
        let e = Expr::base("Empl").join(Expr::base("Addr"), &[("AID", "AID")]);
        let r = eval(&e, &schema(), &db()).unwrap();
        assert_eq!(ints(&r, "EID"), [1, 2]);
        let names: Vec<&str> = r.schema.names().collect();
        assert_eq!(names, ["EID", "Name", "AID", "City"]);
    }

    #[test]
    fn left_join_pads_with_null() {
        let e = Expr::base("Empl").left_join(Expr::base("Addr"), &[("AID", "AID")]);
        let r = eval(&e, &schema(), &db()).unwrap();
        assert_eq!(r.len(), 3);
        let city = r.schema.position("City").unwrap();
        let eid = r.schema.position("EID").unwrap();
        let unmatched = r
            .iter()
            .find(|t| t.values()[eid] == Value::Int(3))
            .unwrap();
        assert_eq!(unmatched.values()[city], Value::Null);
    }

    #[test]
    fn null_join_keys_never_match() {
        let s = schema();
        let mut d = db();
        d.insert("Addr", Tuple::from([Value::Int(30), Value::Null]));
        // join Addr to itself on City: NULL city must not match NULL city
        let e = Expr::base("Addr")
            .rename(&[("AID", "A1")])
            .join(Expr::base("Addr").rename(&[("AID", "A2"), ("City", "City")]), &[("City", "City")]);
        let r = eval(&e, &s, &d).unwrap();
        // rome-rome and oslo-oslo only
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn projection_deduplicates_on_materialize() {
        let e = Expr::base("Addr").project(&["AID"]).union(Expr::base("Addr").project(&["AID"]));
        let r = eval(&e, &schema(), &db()).unwrap();
        assert_eq!(ints(&r, "AID"), [10, 20]);
    }

    #[test]
    fn union_all_is_deduped_only_at_materialization() {
        // internal bag semantics: union all of the same relation twice has
        // 4 rows mid-pipeline, but a materialized Relation is a set
        let e = Expr::base("Addr").union_all(Expr::base("Addr"));
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let rows = eval_rows(&e, &schema(), &db(), &mut gov).unwrap();
        assert_eq!(rows.len(), 4);
        let r = eval(&e, &schema(), &db()).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn diff_removes_matching() {
        let all = Expr::base("Empl").project(&["EID"]);
        let some = Expr::base("Empl")
            .select(Predicate::col_eq_lit("EID", 1i64))
            .project(&["EID"]);
        let r = eval(&all.diff(some), &schema(), &db()).unwrap();
        assert_eq!(ints(&r, "EID"), [2, 3]);
    }

    #[test]
    fn product_with_literal_constant() {
        let e = Expr::base("Addr").product(Expr::literal_row(&["Country"], vec![Lit::text("US")]));
        let r = eval(&e, &schema(), &db()).unwrap();
        assert_eq!(r.len(), 2);
        let c = r.schema.position("Country").unwrap();
        assert!(r.iter().all(|t| t.values()[c] == Value::text("US")));
    }

    #[test]
    fn extend_computes_scalar() {
        let e = Expr::base("Empl").extend(
            "Tag",
            Scalar::Func(Func::Concat, vec![Scalar::col("Name"), Scalar::lit("!")]),
        );
        let r = eval(&e, &schema(), &db()).unwrap();
        let tag = r.schema.position("Tag").unwrap();
        assert!(r.iter().any(|t| t.values()[tag] == Value::text("ann!")));
    }

    #[test]
    fn is_of_respects_subtyping() {
        let s = schema();
        let d = db();
        let all = Expr::base("Person")
            .select(Predicate::IsOf { ty: "Person".into(), only: false });
        assert_eq!(eval(&all, &s, &d).unwrap().len(), 2);
        let only_person = Expr::base("Person")
            .select(Predicate::IsOf { ty: "Person".into(), only: true });
        assert_eq!(eval(&only_person, &s, &d).unwrap().len(), 1);
        let employees = Expr::base("Person")
            .select(Predicate::IsOf { ty: "Employee".into(), only: false });
        assert_eq!(eval(&employees, &s, &d).unwrap().len(), 1);
    }

    #[test]
    fn case_scalar_in_projection() {
        let e = Expr::base("Empl").extend(
            "Size",
            Scalar::Case {
                branches: vec![(
                    Predicate::Cmp {
                        op: CmpOp::Lt,
                        left: Scalar::col("EID"),
                        right: Scalar::lit(3i64),
                    },
                    Scalar::lit("small"),
                )],
                otherwise: Box::new(Scalar::lit("big")),
            },
        );
        let r = eval(&e, &schema(), &db()).unwrap();
        let sz = r.schema.position("Size").unwrap();
        let bigs = r.iter().filter(|t| t.values()[sz] == Value::text("big")).count();
        assert_eq!(bigs, 1);
    }

    #[test]
    fn null_comparisons_are_false() {
        let s = schema();
        let mut d = db();
        d.insert("Addr", Tuple::from([Value::Int(30), Value::Null]));
        let e = Expr::base("Addr").select(Predicate::col_eq_lit("City", "rome"));
        assert_eq!(eval(&e, &s, &d).unwrap().len(), 1);
        let ne = Expr::base("Addr").select(
            Predicate::col_eq_lit("City", "rome").negate(),
        );
        // NULL <> 'rome' is not true in SQL semantics
        assert_eq!(eval(&ne, &s, &d).unwrap().len(), 1);
    }

    #[test]
    fn is_null_predicate() {
        let s = schema();
        let mut d = db();
        d.insert("Addr", Tuple::from([Value::Int(30), Value::Null]));
        let e = Expr::base("Addr").select(Predicate::IsNull(Scalar::col("City")));
        assert_eq!(eval(&e, &s, &d).unwrap().len(), 1);
    }

    #[test]
    fn missing_relation_is_runtime_error() {
        let s = schema();
        let d = Database::new("empty");
        assert_eq!(
            eval(&Expr::base("Empl"), &s, &d),
            Err(EvalError::MissingRelation("Empl".into()))
        );
    }

    #[test]
    fn coalesce_and_arithmetic() {
        let e = Expr::base("Empl")
            .extend("E2", Scalar::Func(Func::Add, vec![Scalar::col("EID"), Scalar::lit(100i64)]));
        let r = eval(&e, &schema(), &db()).unwrap();
        assert_eq!(ints(&r, "E2"), [101, 102, 103]);
        let c = Scalar::Func(Func::Coalesce, vec![Scalar::Lit(Lit::Null), Scalar::lit(5i64)]);
        let e2 = Expr::base("Addr").extend("C", c);
        let r2 = eval(&e2, &schema(), &db()).unwrap();
        assert_eq!(ints(&r2, "C"), [5, 5]);
    }

    #[test]
    fn aggregate_groups_count_and_sum() {
        use mm_expr::{AggFunc, AggSpec};
        let s = schema();
        let d = db();
        // group employees by AID, count them and sum their EIDs
        let e = Expr::base("Empl").aggregate(
            &["AID"],
            vec![AggSpec::count("n"), AggSpec::of(AggFunc::Sum, "EID", "total")],
        );
        let r = eval(&e, &s, &d).unwrap();
        assert_eq!(r.len(), 3); // AIDs 10, 20, 99
        let names: Vec<&str> = r.schema.names().collect();
        assert_eq!(names, ["AID", "n", "total"]);
        let aid = r.schema.position("AID").unwrap();
        let n = r.schema.position("n").unwrap();
        for t in r.iter() {
            assert_eq!(t.values()[n], Value::Int(1), "each AID occurs once");
            assert!(matches!(t.values()[aid], Value::Int(_)));
        }
    }

    #[test]
    fn aggregate_min_max_avg_and_null_handling() {
        use mm_expr::{AggFunc, AggSpec};
        let s = schema();
        let mut d = db();
        d.insert("Addr", Tuple::from([Value::Int(30), Value::Null]));
        // global (no group-by) aggregates over Addr.AID
        let e = Expr::base("Addr").aggregate(
            &[],
            vec![
                AggSpec::of(AggFunc::Min, "AID", "lo"),
                AggSpec::of(AggFunc::Max, "AID", "hi"),
                AggSpec::of(AggFunc::Avg, "AID", "mean"),
                AggSpec::of(AggFunc::Count, "City", "cities"),
                AggSpec::count("rows"),
            ],
        );
        let r = eval(&e, &s, &d).unwrap();
        assert_eq!(r.len(), 1);
        let row = r.iter().next().unwrap();
        assert_eq!(row.values()[0], Value::Int(10));
        assert_eq!(row.values()[1], Value::Int(30));
        assert_eq!(row.values()[2], Value::Double(20.0));
        // COUNT(City) skips the NULL city; COUNT(*) does not
        assert_eq!(row.values()[3], Value::Int(2));
        assert_eq!(row.values()[4], Value::Int(3));
    }

    #[test]
    fn aggregate_over_empty_input() {
        use mm_expr::{AggFunc, AggSpec};
        let s = schema();
        let d = Database::empty_of(&s);
        // grouped: no groups at all
        let grouped = Expr::base("Empl").aggregate(&["AID"], vec![AggSpec::count("n")]);
        assert_eq!(eval(&grouped, &s, &d).unwrap().len(), 0);
        // global: SQL yields one row (COUNT = 0, others NULL)... this
        // engine follows the grouped-set reading: zero groups
        let global = Expr::base("Empl").aggregate(
            &[],
            vec![AggSpec::count("n"), AggSpec::of(AggFunc::Sum, "EID", "s")],
        );
        assert_eq!(eval(&global, &s, &d).unwrap().len(), 0);
    }

    #[test]
    fn aggregate_display_reads_like_sql() {
        use mm_expr::AggSpec;
        let e = Expr::base("Orders").aggregate(&["cust"], vec![AggSpec::count("n")]);
        assert_eq!(
            e.to_string(),
            "SELECT cust, COUNT(*) AS n FROM (Orders) GROUP BY cust"
        );
    }

    #[test]
    fn rename_only_changes_names() {
        let e = Expr::base("Addr").rename(&[("City", "Town")]);
        let r = eval(&e, &schema(), &db()).unwrap();
        assert!(r.schema.has("Town"));
        assert_eq!(r.len(), 2);
    }
}
