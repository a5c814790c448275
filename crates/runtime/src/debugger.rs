//! Mapping debugging (§5, "Debugging"): "Like any program, a mapping
//! needs to be debugged. This could be done with breakpoints and
//! single-stepping, which are set in the context of T but may need to be
//! executed in the context of S."
//!
//! The debugger evaluates an expression operator by operator, recording a
//! [`TraceStep`] per node — the operator's description, its input/output
//! cardinalities, and a few sample rows — an `EXPLAIN ANALYZE` for
//! mappings. Together with [`crate::provenance::explain`] (the
//! route-style debugging of Chiticariu & Tan the paper cites) this covers
//! the single-stepping use case: a breakpoint is just a trace step you
//! stop at.

use mm_eval::{eval, EvalError};
use mm_expr::Expr;
use mm_instance::{Database, Relation, Tuple};
use mm_metamodel::Schema;
use std::fmt;

/// One evaluated operator in the trace.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// Depth in the operator tree (root = 0).
    pub depth: usize,
    /// Short operator description (`σ City = 'rome'`, `⋈ on AID=AID`, …).
    pub operator: String,
    /// Cardinalities of the inputs, in child order.
    pub input_rows: Vec<usize>,
    /// Output cardinality.
    pub output_rows: usize,
    /// Up to `SAMPLE` output rows for inspection.
    pub sample: Vec<Tuple>,
}

const SAMPLE: usize = 3;

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let indent = "  ".repeat(self.depth);
        let ins: Vec<String> = self.input_rows.iter().map(usize::to_string).collect();
        write!(
            f,
            "{indent}{} [in: {} -> out: {}]",
            self.operator,
            if ins.is_empty() { "-".to_string() } else { ins.join(", ") },
            self.output_rows
        )
    }
}

/// A full trace, in evaluation (post-) order with the root last.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub steps: Vec<TraceStep>,
}

impl Trace {
    /// Steps whose output is empty — where data "disappears".
    pub fn empty_steps(&self) -> Vec<&TraceStep> {
        self.steps.iter().filter(|s| s.output_rows == 0).collect()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.steps {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

fn describe(e: &Expr) -> String {
    match e {
        Expr::Base(n) => format!("scan {n}"),
        Expr::Literal { rows, .. } => format!("values ({} rows)", rows.len()),
        Expr::Project { columns, .. } => format!("π {}", columns.join(", ")),
        Expr::Select { predicate, .. } => format!("σ {predicate}"),
        Expr::Join { on, .. } => format!(
            "⋈ on {}",
            on.iter().map(|(a, b)| format!("{a}={b}")).collect::<Vec<_>>().join(", ")
        ),
        Expr::LeftJoin { on, .. } => format!(
            "⟕ on {}",
            on.iter().map(|(a, b)| format!("{a}={b}")).collect::<Vec<_>>().join(", ")
        ),
        Expr::Product { .. } => "×".to_string(),
        Expr::Union { all, .. } => if *all { "∪ all" } else { "∪" }.to_string(),
        Expr::Diff { .. } => "∖".to_string(),
        Expr::Rename { renames, .. } => format!(
            "ρ {}",
            renames.iter().map(|(a, b)| format!("{a}→{b}")).collect::<Vec<_>>().join(", ")
        ),
        Expr::Extend { column, scalar, .. } => format!("ext {column} := {scalar}"),
        Expr::Distinct { .. } => "distinct".to_string(),
        Expr::Aggregate { group_by, aggregates, .. } => format!(
            "γ [{}] {}",
            group_by.join(", "),
            aggregates
                .iter()
                .map(|a| a.output.clone())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// Evaluate `expr` while tracing every operator. The trace is recorded
/// bottom-up (children before parents), root last.
pub fn trace(expr: &Expr, schema: &Schema, db: &Database) -> Result<Trace, EvalError> {
    let mut t = Trace::default();
    walk(expr, schema, db, 0, &mut t)?;
    Ok(t)
}

fn children(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Base(_) | Expr::Literal { .. } => Vec::new(),
        Expr::Project { input, .. }
        | Expr::Select { input, .. }
        | Expr::Rename { input, .. }
        | Expr::Extend { input, .. }
        | Expr::Distinct { input }
        | Expr::Aggregate { input, .. } => vec![input],
        Expr::Join { left, right, .. }
        | Expr::LeftJoin { left, right, .. }
        | Expr::Product { left, right }
        | Expr::Union { left, right, .. }
        | Expr::Diff { left, right } => vec![left, right],
    }
}

fn walk(
    e: &Expr,
    schema: &Schema,
    db: &Database,
    depth: usize,
    t: &mut Trace,
) -> Result<Relation, EvalError> {
    let mut input_rows = Vec::new();
    for c in children(e) {
        let r = walk(c, schema, db, depth + 1, t)?;
        input_rows.push(r.len());
    }
    let out = eval(e, schema, db)?;
    t.steps.push(TraceStep {
        depth,
        operator: describe(e),
        input_rows,
        output_rows: out.len(),
        sample: out.iter().take(SAMPLE).cloned().collect(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_expr::Predicate;
    use mm_instance::Value;
    use mm_metamodel::{DataType, SchemaBuilder};

    impl Trace {
        /// The step with the largest intermediate result — usually where a
        /// mapping bug (missing join condition, wrong selection) shows up.
        /// On ties the deepest (first-evaluated) step wins: that is where the
        /// blowup originates.
        pub(crate) fn hottest(&self) -> Option<&TraceStep> {
            let mut best: Option<&TraceStep> = None;
            for s in &self.steps {
                if best.map(|b| s.output_rows > b.output_rows).unwrap_or(true) {
                    best = Some(s);
                }
            }
            best
        }
    }

    fn setup() -> (Schema, Database) {
        let s = SchemaBuilder::new("S")
            .relation("Names", &[("SID", DataType::Int), ("Name", DataType::Text)])
            .relation("Addresses", &[("SID", DataType::Int), ("City", DataType::Text)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        for i in 0..5 {
            db.insert("Names", Tuple::from([Value::Int(i), Value::text(format!("n{i}"))]));
        }
        db.insert("Addresses", Tuple::from([Value::Int(0), Value::text("rome")]));
        db.insert("Addresses", Tuple::from([Value::Int(1), Value::text("oslo")]));
        (s, db)
    }

    #[test]
    fn trace_records_every_operator_with_cardinalities() {
        let (s, db) = setup();
        let e = Expr::base("Names")
            .join(Expr::base("Addresses"), &[("SID", "SID")])
            .select(Predicate::col_eq_lit("City", "rome"))
            .project(&["Name"]);
        let t = trace(&e, &s, &db).unwrap();
        assert_eq!(t.steps.len(), 5); // 2 scans, join, select, project
        let root = t.steps.last().unwrap();
        assert_eq!(root.depth, 0);
        assert!(root.operator.starts_with('π'));
        assert_eq!(root.output_rows, 1);
        // the scans report their base sizes
        assert!(t.steps.iter().any(|s| s.operator == "scan Names" && s.output_rows == 5));
    }

    #[test]
    fn empty_steps_localize_where_data_disappears() {
        let (s, db) = setup();
        // a wrong selection value: data vanishes at the σ
        let e = Expr::base("Addresses")
            .select(Predicate::col_eq_lit("City", "atlantis"))
            .project(&["SID"]);
        let t = trace(&e, &s, &db).unwrap();
        let empty = t.empty_steps();
        assert!(!empty.is_empty());
        assert!(empty[0].operator.starts_with('σ'), "{}", empty[0].operator);
    }

    #[test]
    fn hottest_step_flags_blowups() {
        let (s, db) = setup();
        // missing join condition -> cross product blowup
        let e = Expr::base("Names")
            .product(Expr::base("Addresses").rename(&[("SID", "SID2")]))
            .project(&["Name", "City"]);
        let t = trace(&e, &s, &db).unwrap();
        let hot = t.hottest().unwrap();
        assert_eq!(hot.output_rows, 10);
        assert_eq!(hot.operator, "×");
    }

    #[test]
    fn samples_are_bounded() {
        let (s, db) = setup();
        let t = trace(&Expr::base("Names"), &s, &db).unwrap();
        assert!(t.steps[0].sample.len() <= 3);
    }

    #[test]
    fn trace_renders_indented() {
        let (s, db) = setup();
        let e = Expr::base("Names").project(&["Name"]);
        let t = trace(&e, &s, &db).unwrap();
        let text = t.to_string();
        assert!(text.contains("  scan Names"), "{text}");
        assert!(text.contains("π Name"), "{text}");
    }
}
