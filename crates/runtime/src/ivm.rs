//! Incremental view maintenance — the "Notifications" runtime service
//! (§5): "it may be valuable for certain actions on data in S to produce
//! notifications of corresponding actions to data in T. For update
//! actions, this is the problem of maintaining materialized views."
//!
//! Insert-only deltas are propagated with the algebraic delta rules in
//! the form that needs only the *pre-update* database and the delta
//! rows — Δ(A ⋈ B) = ΔA ⋈ Bᵒˡᵈ ∪ Aᵒˡᵈ ⋈ ΔB ∪ ΔA ⋈ ΔB, likewise for ×,
//! unary operators row by row over their child's delta — so a pass
//! neither copies the instance nor evaluates a view side it does not
//! need: a join term whose delta side is empty is skipped, and a
//! non-empty one looks the stored side up by join key. The key equality
//! is pushed down through `Select`/`Project`/`Rename`/`Extend`/
//! `Distinct` to a [`mm_instance::RelIndex`] probe on the base relation
//! (built once on a long-lived database, then kept up by
//! `Relation::insert`), which makes the pass O(|Δ| · fan-out). A stored
//! side the push-down cannot serve (a literal, union or nested join, a
//! key on an `Extend`ed column) is evaluated in full once per delta that
//! reaches it — correct, but O(instance); [`MaintenancePlan::explain`]
//! says `probed` or `scanned` per join side.
//!
//! The rules can re-derive rows the view already holds. The maintained
//! path ([`MaintenancePlan::maintain`]) answers "already derivable"
//! from the materialized view itself and reports the genuinely new rows;
//! the stateless [`view_insert_delta_governed`] has no view to ask and
//! evaluates a before-image, so it stays O(instance) whatever the delta.
//! Operators that are not insert-monotone (difference, outer join,
//! aggregation) force a recompute, which the maintainer reports via
//! [`MaintenanceStrategy`]. EQ5 benchmarks maintenance against recompute.

use mm_eval::{eval_governed, EvalError, RowLayout};
use mm_expr::{output_schema, Expr, Predicate, Scalar, ViewSet};
use mm_guard::{Degradation, DegradationKind, ExecCtx, ExecError, Governor};
use mm_instance::{Database, RelSchema, Relation, Tuple, Value};
use mm_metamodel::{Attribute, Schema};
use std::collections::{BTreeMap, HashMap};

fn position(attrs: &[Attribute], col: &str, context: &str) -> Result<usize, EvalError> {
    attrs.iter().position(|a| a.name == col).ok_or_else(|| {
        EvalError::Exec(ExecError::malformed(format!("column '{col}' missing in {context}")))
    })
}

/// A set-semantics delta: tuples inserted per relation. (Deletions force
/// recompute in this engine; see module docs.)
#[derive(Debug, Clone, Default)]
pub struct Delta {
    pub inserts: BTreeMap<String, Vec<Tuple>>,
}

impl Delta {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, relation: impl Into<String>, tuple: Tuple) {
        self.inserts.entry(relation.into()).or_default().push(tuple);
    }

    pub fn is_empty(&self) -> bool {
        self.inserts.values().all(Vec::is_empty)
    }

    pub fn len(&self) -> usize {
        self.inserts.values().map(Vec::len).sum()
    }

    /// Apply the delta to a database (inserting into existing relations).
    pub fn apply_to(&self, db: &mut Database) {
        for (rel, tuples) in &self.inserts {
            for t in tuples {
                db.insert(rel, t.clone());
            }
        }
    }
}

/// How a view was (or must be) maintained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceStrategy {
    /// Delta rules applied. Cost is proportional to the delta and its
    /// join fan-out — except for a join side the plan reports as
    /// `scanned` ([`MaintenancePlan::explain`]), which is evaluated in
    /// full whenever the other side's delta is non-empty.
    Incremental,
    /// The view contains a non-monotone operator; full recompute.
    Recompute,
}

/// Whether an expression is insert-monotone (delta rules apply).
fn monotone(expr: &Expr) -> bool {
    match expr {
        Expr::Base(_) | Expr::Literal { .. } => true,
        Expr::Project { input, .. }
        | Expr::Select { input, .. }
        | Expr::Rename { input, .. }
        | Expr::Extend { input, .. }
        | Expr::Distinct { input } => monotone(input),
        Expr::Join { left, right, .. } | Expr::Product { left, right } => {
            monotone(left) && monotone(right)
        }
        Expr::Union { left, right, .. } => monotone(left) && monotone(right),
        Expr::Diff { .. } | Expr::LeftJoin { .. } | Expr::Aggregate { .. } => false,
    }
}

/// One row-wise operator, resolved against its input layout.
#[derive(Debug, Clone)]
enum RowOp {
    Select { layout: RowLayout, predicate: Predicate },
    Project { positions: Vec<usize> },
    /// Appends its column at position `at` (the input arity).
    Extend { layout: RowLayout, scalar: Scalar, at: usize },
}

impl RowOp {
    /// The operator's output for `t`; `None` when a selection drops it.
    fn apply(&self, t: Tuple, schema: &Schema) -> Option<Tuple> {
        match self {
            RowOp::Select { layout, predicate } => {
                layout.matches(predicate, &t, schema).then_some(t)
            }
            RowOp::Project { positions } => Some(t.project(positions)),
            RowOp::Extend { layout, scalar, .. } => Some(layout.extend(scalar, &t, schema)),
        }
    }
}

/// Peel one row-wise operator off `expr`: its resolved form and its
/// input. The form is `None` for `Rename` and `Distinct`, which leave
/// rows as they are (a delta is deduplicated where it lands). `Ok(None)`
/// for every other operator.
fn peel<'e>(
    expr: &'e Expr,
    schema: &Schema,
) -> Result<Option<(Option<RowOp>, &'e Expr)>, EvalError> {
    Ok(Some(match expr {
        Expr::Rename { input, .. } | Expr::Distinct { input } => (None, input),
        Expr::Select { input, predicate } => {
            let layout = RowLayout::new(&RelSchema::new(output_schema(input, schema)?));
            (Some(RowOp::Select { layout, predicate: predicate.clone() }), input)
        }
        Expr::Project { input, columns } => {
            let attrs = output_schema(input, schema)?;
            let positions = columns
                .iter()
                .map(|c| position(&attrs, c, "projection delta"))
                .collect::<Result<_, _>>()?;
            (Some(RowOp::Project { positions }), input)
        }
        Expr::Extend { input, scalar, .. } => {
            let in_schema = RelSchema::new(output_schema(input, schema)?);
            let (layout, at) = (RowLayout::new(&in_schema), in_schema.arity());
            (Some(RowOp::Extend { layout, scalar: scalar.clone(), at }), input)
        }
        _ => return Ok(None),
    }))
}

/// What one delta evaluation reads: the pre-update database, the delta
/// rows, and the meter all of it accrues against.
struct DeltaCx<'a> {
    schema: &'a Schema,
    db: &'a Database,
    delta: &'a Delta,
    gov: &'a mut Governor,
}

/// How a join reaches its *stored* (pre-update) side for the delta rows
/// arriving on the other side.
#[derive(Debug, Clone)]
struct StoredSide {
    /// The join-key columns: positions in the base relation when
    /// `Probed`, in the side's own output when `Scanned`.
    keys: Vec<usize>,
    access: Access,
}

#[derive(Debug, Clone)]
enum Access {
    /// The key equality is pushed down to an index probe on `relation`;
    /// `ops` rebuilds the side's row from each hit.
    Probed { relation: String, ops: Vec<RowOp> },
    /// The side is evaluated in full, once per delta that reaches it.
    Scanned(Expr),
}

impl StoredSide {
    /// Push the equality on `keys` (positions in `side`'s output) down
    /// to a base relation if only row-wise operators are in the way.
    fn plan(side: &Expr, keys: &[usize], schema: &Schema) -> Result<StoredSide, EvalError> {
        let mut base_keys = keys.to_vec();
        let mut ops = Vec::new();
        let mut expr = side;
        loop {
            if let Expr::Base(relation) = expr {
                ops.reverse();
                let access = Access::Probed { relation: relation.clone(), ops };
                return Ok(StoredSide { keys: base_keys, access });
            }
            let Some((op, input)) = peel(expr, schema)? else { break };
            match &op {
                Some(RowOp::Project { positions }) => {
                    for k in &mut base_keys {
                        *k = positions[*k];
                    }
                }
                // a key on the computed column has no base column to probe
                Some(RowOp::Extend { at, .. }) if base_keys.contains(at) => break,
                Some(RowOp::Extend { .. } | RowOp::Select { .. }) | None => {}
            }
            ops.extend(op);
            expr = input;
        }
        Ok(StoredSide { keys: keys.to_vec(), access: Access::Scanned(side.clone()) })
    }

    /// For every row of `delta` (its key at `delta_keys`), every stored
    /// row with an equal key, as `emit(delta_row, stored_row)`: batch
    /// order, then the stored side's insertion order. NULL keys match
    /// nothing (SQL join semantics, as in `eval`).
    fn matches(
        &self,
        delta: &[Tuple],
        delta_keys: &[usize],
        cx: &mut DeltaCx<'_>,
        mut emit: impl FnMut(&Tuple, &Tuple),
    ) -> Result<(), EvalError> {
        let db = cx.db;
        let scanned;
        let (rel, ops): (&Relation, &[RowOp]) = match &self.access {
            Access::Probed { relation, ops } => {
                let rel = db
                    .relation(relation)
                    .ok_or_else(|| EvalError::MissingRelation(relation.clone()))?;
                (rel, ops)
            }
            Access::Scanned(expr) => {
                scanned = eval_governed(expr, cx.schema, db, cx.gov)?;
                (&scanned, &[])
            }
        };
        // This handle is dropped on return, so a caller that inserts
        // into `db` afterwards updates the cached index in place
        // instead of copying it (`Arc::make_mut` in `Relation::insert`).
        let index = rel.index(&self.keys);
        let mut key = Vec::with_capacity(delta_keys.len());
        for d in delta {
            cx.gov.step()?;
            key.clear();
            key.extend(delta_keys.iter().map(|&i| d.get(i).cloned().unwrap_or(Value::Null)));
            if key.iter().any(Value::is_null) {
                continue;
            }
            for &pos in index.probe(&key) {
                let hit = rel.tuples()[pos as usize].clone();
                if let Some(row) = ops.iter().try_fold(hit, |t, op| op.apply(t, cx.schema)) {
                    cx.gov.row()?;
                    emit(d, &row);
                }
            }
        }
        Ok(())
    }

    fn describe(&self, schema: &Schema) -> String {
        match &self.access {
            Access::Probed { relation, .. } => {
                let layout = schema.instance_layout(relation).unwrap_or_default();
                let cols: Vec<&str> = self
                    .keys
                    .iter()
                    .map(|&k| layout.get(k).map_or("?", |a| a.name.as_str()))
                    .collect();
                format!("probed {relation}({})", cols.join(","))
            }
            Access::Scanned(_) => "scanned".to_string(),
        }
    }
}

/// Δ(A ⋈ B) = ΔA ⋈ Bᵒˡᵈ ∪ Aᵒˡᵈ ⋈ ΔB ∪ ΔA ⋈ ΔB. A product is the join on
/// no columns: every key is the empty tuple, so each side matches whole.
#[derive(Debug, Clone)]
struct JoinDelta {
    left: DeltaNode,
    right: DeltaNode,
    l_keys: Vec<usize>,
    r_keys: Vec<usize>,
    /// Right-side columns that survive (its join columns are dropped).
    keep_right: Vec<usize>,
    stored_left: StoredSide,
    stored_right: StoredSide,
}

impl JoinDelta {
    fn compile(
        left: &Expr,
        right: &Expr,
        on: &[(String, String)],
        schema: &Schema,
    ) -> Result<DeltaNode, EvalError> {
        let l_attrs = output_schema(left, schema)?;
        let r_attrs = output_schema(right, schema)?;
        let l_keys: Vec<usize> = on
            .iter()
            .map(|(a, _)| position(&l_attrs, a, "join delta (left)"))
            .collect::<Result<_, _>>()?;
        let r_keys: Vec<usize> = on
            .iter()
            .map(|(_, b)| position(&r_attrs, b, "join delta (right)"))
            .collect::<Result<_, _>>()?;
        Ok(DeltaNode::Join(Box::new(JoinDelta {
            left: compile_delta(left, schema)?,
            right: compile_delta(right, schema)?,
            keep_right: (0..r_attrs.len()).filter(|i| !r_keys.contains(i)).collect(),
            stored_left: StoredSide::plan(left, &l_keys, schema)?,
            stored_right: StoredSide::plan(right, &r_keys, schema)?,
            l_keys,
            r_keys,
        })))
    }

    fn row(&self, l: &Tuple, r: &Tuple) -> Tuple {
        let mut vals = l.values().to_vec();
        vals.extend(self.keep_right.iter().map(|&i| r.get(i).cloned().unwrap_or(Value::Null)));
        Tuple::new(vals)
    }

    fn rows(&self, cx: &mut DeltaCx<'_>) -> Result<Vec<Tuple>, EvalError> {
        let dl = self.left.rows(cx)?;
        let dr = self.right.rows(cx)?;
        let mut out = Vec::new();
        if !dl.is_empty() {
            self.stored_right.matches(&dl, &self.l_keys, cx, |l, r| out.push(self.row(l, r)))?;
        }
        if !dr.is_empty() {
            self.stored_left.matches(&dr, &self.r_keys, cx, |r, l| out.push(self.row(l, r)))?;
        }
        if !dl.is_empty() && !dr.is_empty() {
            let mut by_key: HashMap<Tuple, Vec<&Tuple>> = HashMap::new();
            for r in &dr {
                cx.gov.step()?;
                let key = r.project(&self.r_keys);
                if !key.values().iter().any(Value::is_null) {
                    by_key.entry(key).or_default().push(r);
                }
            }
            for l in &dl {
                cx.gov.step()?;
                for r in by_key.get(&l.project(&self.l_keys)).into_iter().flatten() {
                    cx.gov.row()?;
                    out.push(self.row(l, r));
                }
            }
        }
        Ok(out)
    }
}

/// The delta rules for one monotone expression, resolved against a
/// schema: evaluates to the candidate inserted rows (a superset of the
/// new rows, possibly with repeats) from the pre-update database and the
/// delta alone.
#[derive(Debug, Clone)]
enum DeltaNode {
    /// Δ(R) = the delta's rows for `R`.
    Base(String),
    /// A literal never changes.
    Empty,
    Map { input: Box<DeltaNode>, op: RowOp },
    Union(Box<DeltaNode>, Box<DeltaNode>),
    Join(Box<JoinDelta>),
}

fn compile_delta(expr: &Expr, schema: &Schema) -> Result<DeltaNode, EvalError> {
    if let Some((op, input)) = peel(expr, schema)? {
        let input = compile_delta(input, schema)?;
        return Ok(match op {
            Some(op) => DeltaNode::Map { input: Box::new(input), op },
            None => input,
        });
    }
    match expr {
        Expr::Base(name) => Ok(DeltaNode::Base(name.clone())),
        Expr::Literal { .. } => Ok(DeltaNode::Empty),
        Expr::Union { left, right, .. } => Ok(DeltaNode::Union(
            Box::new(compile_delta(left, schema)?),
            Box::new(compile_delta(right, schema)?),
        )),
        Expr::Join { left, right, on } => JoinDelta::compile(left, right, on, schema),
        Expr::Product { left, right } => JoinDelta::compile(left, right, &[], schema),
        _ => Err(EvalError::Exec(ExecError::internal(
            "non-monotone operator reached the delta rules; recompute routing failed",
        ))),
    }
}

impl DeltaNode {
    /// Statically check `expr` (so row-wise evaluation can index by
    /// position, as in `eval`) and resolve its delta rules.
    fn compile(expr: &Expr, schema: &Schema) -> Result<DeltaNode, EvalError> {
        output_schema(expr, schema)?;
        compile_delta(expr, schema)
    }

    fn rows(&self, cx: &mut DeltaCx<'_>) -> Result<Vec<Tuple>, EvalError> {
        match self {
            DeltaNode::Base(name) => {
                let rows = cx.delta.inserts.get(name).map(Vec::as_slice).unwrap_or_default();
                if !rows.is_empty() {
                    cx.gov.steps_n(rows.len() as u64)?;
                }
                Ok(rows.to_vec())
            }
            DeltaNode::Empty => Ok(Vec::new()),
            DeltaNode::Map { input, op } => {
                let rows = input.rows(cx)?;
                let mut out = Vec::with_capacity(rows.len());
                for t in rows {
                    cx.gov.step()?;
                    out.extend(op.apply(t, cx.schema));
                }
                Ok(out)
            }
            DeltaNode::Union(left, right) => {
                let mut out = left.rows(cx)?;
                out.extend(right.rows(cx)?);
                Ok(out)
            }
            DeltaNode::Join(join) => join.rows(cx),
        }
    }

    /// One `join(left=…, right=…)` entry per join, outermost first.
    fn describe_joins(&self, schema: &Schema, out: &mut Vec<String>) {
        match self {
            DeltaNode::Base(_) | DeltaNode::Empty => {}
            DeltaNode::Map { input, .. } => input.describe_joins(schema, out),
            DeltaNode::Union(left, right) => {
                left.describe_joins(schema, out);
                right.describe_joins(schema, out);
            }
            DeltaNode::Join(j) => {
                out.push(format!(
                    "join(left={}, right={})",
                    j.stored_left.describe(schema),
                    j.stored_right.describe(schema)
                ));
                j.left.describe_joins(schema, out);
                j.right.describe_joins(schema, out);
            }
        }
    }
}

/// The inserted rows of `expr` under an insert-only base `delta`
/// (pre-update database `old_db`). Monotone expressions use the delta
/// rules; non-monotone ones fall back to evaluating before/after and
/// diffing. Rows already derivable before the delta are excluded.
///
/// The delta rules and the before-image accrue against `gov`. The call is
/// stateless — it has no maintained view to tell it which candidate rows
/// are new — so it evaluates `expr` over `old_db` in full every time:
/// O(instance), not O(delta). A stream of deltas belongs on
/// [`MaintenancePlan::maintain`].
pub fn view_insert_delta_governed(
    expr: &Expr,
    schema: &Schema,
    old_db: &Database,
    delta: &Delta,
    gov: &mut Governor,
) -> Result<Relation, EvalError> {
    let before = eval_governed(expr, schema, old_db, gov)?;
    let candidates = if monotone(expr) {
        let rules = DeltaNode::compile(expr, schema)?;
        rules.rows(&mut DeltaCx { schema, db: old_db, delta, gov })?
    } else {
        // eval(new) ∖ eval(old), the definition: also the oracle the
        // delta rules are tested against
        let mut new_db = old_db.clone();
        delta.apply_to(&mut new_db);
        eval_governed(expr, schema, &new_db, gov)?.tuples().to_vec()
    };
    let mut out = Relation::new(before.schema.clone());
    for t in candidates {
        gov.step()?;
        if !before.contains(&t) {
            out.insert(t);
        }
    }
    Ok(out)
}

/// A compiled maintenance plan: the delta-independent analysis of a view
/// set against its base schema — which views are insert-monotone, their
/// delta rules with every column resolved to a position, and how each
/// join reaches its stored side — done once and reused across deltas,
/// like the chase's compiled [`mm_chase::ChaseProgram`]s.
#[derive(Debug, Clone)]
pub struct MaintenancePlan {
    views: ViewSet,
    /// Per view, in view-set order: `None` for a non-monotone view
    /// (planned recompute); `Some(Err)` for a view that does not check
    /// against the schema, reported when it is maintained.
    rules: Vec<Option<Result<DeltaNode, EvalError>>>,
    explain: String,
}

impl MaintenancePlan {
    /// Analyze every view once against `base_schema`, the schema later
    /// maintenance calls must pass.
    pub fn compile(views: &ViewSet, base_schema: &Schema) -> MaintenancePlan {
        let mut rules = Vec::with_capacity(views.views.len());
        let mut explain = String::new();
        for v in &views.views {
            let rule = monotone(&v.expr).then(|| DeltaNode::compile(&v.expr, base_schema));
            let line = match &rule {
                None => "recompute (non-monotone)".to_string(),
                Some(Err(e)) => format!("invalid ({e})"),
                Some(Ok(node)) => {
                    let mut parts = vec!["incremental".to_string()];
                    node.describe_joins(base_schema, &mut parts);
                    parts.join(" ")
                }
            };
            explain.push_str(&format!("{}: {line}\n", v.name));
            rules.push(rule);
        }
        MaintenancePlan { views: views.clone(), rules, explain }
    }

    /// One line per view, in view-set order: `recompute`, or
    /// `incremental` followed by one `join(left=…, right=…)` per join
    /// (outermost first) saying how each stored side is reached —
    /// `probed R(cols)`, an index probe on base relation `R`, or
    /// `scanned`, a full evaluation of that side per delta reaching it
    /// (the O(instance) case; see [`MaintenanceStrategy::Incremental`]).
    pub fn explain(&self) -> &str {
        &self.explain
    }

    /// The views this plan maintains.
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// Maintain the materialized views (stored in `materialized`) under
    /// an insert-only base `delta`; `base_db` must be the *pre-update*
    /// database. Returns one [`MaintenanceReport`] per view, in view-set
    /// order.
    ///
    /// The analysis was paid once at [`MaintenancePlan::compile`]; each
    /// call runs the delta rules against `base_db` and the delta rows
    /// only, so an incremental view costs O(|Δ| · fan-out) (see
    /// [`MaintenanceStrategy::Incremental`] for the exception). On a
    /// long-lived `base_db` the caller advances *after* the call, the join
    /// indexes are built once and then kept up by its inserts.
    ///
    /// The context's governor meters the incremental pass as a whole.
    /// When the delta rules for a view exhaust it, the maintainer degrades
    /// to a full recompute of that view under a fresh step meter from the
    /// same budget (the wall-clock deadline and the cancellation token
    /// carry over, so the call stays bounded end to end) and records the
    /// [`Degradation`]. Cancellation and non-resource errors propagate —
    /// only `BudgetExhausted` triggers the fallback.
    ///
    /// With enabled telemetry the pass runs under an `ivm.maintain` span
    /// (whose `plan` field is [`MaintenancePlan::explain`]), and every
    /// report that carries a degradation is mirrored as exactly one
    /// `ivm.degraded` event and counted by cause at the IVM site. No other
    /// context field applies.
    pub fn maintain(
        &self,
        base_schema: &Schema,
        base_db: &Database,
        delta: &Delta,
        materialized: &mut Database,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<Vec<MaintenanceReport>, EvalError> {
        let tel = &ctx.telemetry;
        if !tel.is_enabled() {
            return self.run(base_schema, base_db, delta, materialized, ctx.governor);
        }
        let mut span = mm_telemetry::Span::enter(tel, "ivm.maintain", base_db.name.as_str());
        let result = self.run(base_schema, base_db, delta, materialized, ctx.governor);
        match &result {
            Ok(reports) => {
                let mut incremental = 0u64;
                let mut recomputed = 0u64;
                for r in reports {
                    match r.strategy {
                        MaintenanceStrategy::Incremental => incremental += 1,
                        MaintenanceStrategy::Recompute => recomputed += 1,
                    }
                    let Some(d) = &r.degradation else { continue };
                    if let Some(m) = tel.metrics() {
                        m.degradation(
                            mm_telemetry::DegradationSite::Ivm,
                            d.cause.telemetry_cause(),
                        );
                    }
                    tel.event(
                        "ivm.degraded",
                        r.view.as_str(),
                        vec![
                            mm_telemetry::Field { key: "kind", value: d.kind.to_string().into() },
                            mm_telemetry::Field { key: "cause", value: d.cause.to_string().into() },
                        ],
                    );
                }
                span.field("views", reports.len());
                span.field("incremental", incremental);
                span.field("recomputed", recomputed);
                span.field("delta_tuples", delta.len());
                span.field("plan", self.explain());
            }
            Err(e) => span.field("error", e.to_string()),
        }
        span.finish();
        result
    }

    /// The maintenance pass behind [`MaintenancePlan::maintain`].
    fn run(
        &self,
        base_schema: &Schema,
        base_db: &Database,
        delta: &Delta,
        materialized: &mut Database,
        gov: &mut Governor,
    ) -> Result<Vec<MaintenanceReport>, EvalError> {
        // Only a recompute needs the post-update database; an
        // all-incremental pass never builds it.
        let mut post_image: Option<Database> = None;
        let mut reports = Vec::with_capacity(self.views.views.len());
        for (v, rule) in self.views.views.iter().zip(&self.rules) {
            let mut degradation = None;
            if let Some(rule) = rule {
                let rule = rule.as_ref().map_err(Clone::clone)?;
                let mut cx = DeltaCx { schema: base_schema, db: base_db, delta, gov: &mut *gov };
                match rule.rows(&mut cx) {
                    Ok(rows) => {
                        if materialized.relation(&v.name).is_none() {
                            let layout = RelSchema::new(output_schema(&v.expr, base_schema)?);
                            materialized.insert_relation(v.name.clone(), Relation::new(layout));
                        }
                        let inserted = match materialized.relation_mut(&v.name) {
                            Some(rel) => {
                                rows.into_iter().filter(|t| rel.insert(t.clone())).collect()
                            }
                            None => Vec::new(),
                        };
                        reports.push(MaintenanceReport {
                            view: v.name.clone(),
                            strategy: MaintenanceStrategy::Incremental,
                            degradation: None,
                            inserted,
                        });
                        continue;
                    }
                    Err(EvalError::Exec(cause @ ExecError::BudgetExhausted { .. })) => {
                        degradation = Some(Degradation {
                            kind: DegradationKind::IncrementalToRecompute,
                            cause,
                        });
                    }
                    Err(e) => return Err(e),
                }
            }
            // Recompute, planned (non-monotone view) or degraded: under
            // its own step meter, so one expensive recompute does not
            // starve the incremental views.
            let post = post_image.get_or_insert_with(|| {
                let mut db = base_db.clone();
                delta.apply_to(&mut db);
                db
            });
            let mut recompute_gov = Governor::new(gov.budget());
            let r = eval_governed(&v.expr, base_schema, post, &mut recompute_gov)?;
            let inserted = match materialized.relation(&v.name) {
                Some(old) => r.iter().filter(|t| !old.contains(t)).cloned().collect(),
                None => r.tuples().to_vec(),
            };
            materialized.insert_relation(v.name.clone(), r);
            reports.push(MaintenanceReport {
                view: v.name.clone(),
                strategy: MaintenanceStrategy::Recompute,
                degradation,
                inserted,
            });
        }
        Ok(reports)
    }
}

/// How one view fared under [`MaintenancePlan::maintain`].
#[derive(Debug)]
pub struct MaintenanceReport {
    pub view: String,
    pub strategy: MaintenanceStrategy,
    /// `Some` when the delta rules tripped the budget and the maintainer
    /// fell back to a full recompute for this view.
    pub degradation: Option<Degradation>,
    /// The rows this pass added to the materialized view — those it did
    /// not already hold — in derivation order (batch order, then the
    /// stored side's insertion order). Rows a recompute *dropped* from a
    /// non-monotone view are not reported.
    pub inserted: Vec<Tuple>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_eval::{eval, materialize_views};
    use mm_expr::{CmpOp, Func, Lit, ViewDef};
    use mm_guard::ExecBudget;
    use mm_metamodel::{DataType, SchemaBuilder};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    impl MaintenancePlan {
        /// The strategy this plan will attempt for `view` (the incremental
        /// attempt can still degrade to a recompute at run time if the delta
        /// rules trip the budget).
        pub(crate) fn planned_strategy(&self, view: &str) -> Option<MaintenanceStrategy> {
            self.views.views.iter().position(|v| v.name == view).map(|i| {
                if self.rules[i].is_some() {
                    MaintenanceStrategy::Incremental
                } else {
                    MaintenanceStrategy::Recompute
                }
            })
        }
    }

    /// Maintain through a pre-compiled plan under a fresh meter for
    /// `budget`, telemetry off.
    fn maintain_with(
        plan: &MaintenancePlan,
        s: &Schema,
        db: &Database,
        delta: &Delta,
        mat: &mut Database,
        budget: &ExecBudget,
    ) -> Result<Vec<MaintenanceReport>, EvalError> {
        plan.maintain(s, db, delta, mat, &mut ExecCtx::new(&mut Governor::new(budget)))
    }

    /// [`maintain_with`] through a plan compiled for this call.
    fn maintain(
        vs: &ViewSet,
        s: &Schema,
        db: &Database,
        delta: &Delta,
        mat: &mut Database,
        budget: &ExecBudget,
    ) -> Result<Vec<MaintenanceReport>, EvalError> {
        maintain_with(&MaintenancePlan::compile(vs, s), s, db, delta, mat, budget)
    }

    /// The strategy per view of an unbounded [`maintain`].
    fn strategies(
        vs: &ViewSet,
        s: &Schema,
        db: &Database,
        delta: &Delta,
        mat: &mut Database,
    ) -> Result<Vec<(String, MaintenanceStrategy)>, EvalError> {
        let reports = maintain(vs, s, db, delta, mat, &ExecBudget::unbounded())?;
        Ok(reports.into_iter().map(|r| (r.view, r.strategy)).collect())
    }

    /// The stateless delta, unmetered.
    fn stateless(
        expr: &Expr,
        s: &Schema,
        db: &Database,
        delta: &Delta,
    ) -> Result<Relation, EvalError> {
        let mut gov = Governor::new(&ExecBudget::unbounded());
        view_insert_delta_governed(expr, s, db, delta, &mut gov)
    }

    fn orders_schema() -> Schema {
        SchemaBuilder::new("S")
            .relation("Orders", &[("oid", DataType::Int), ("cust", DataType::Int), ("total", DataType::Int)])
            .relation("Customers", &[("cid", DataType::Int), ("name", DataType::Text)])
            .build()
            .unwrap()
    }

    fn big_orders() -> Expr {
        Expr::base("Orders")
            .select(Predicate::Cmp {
                op: CmpOp::Gt,
                left: Scalar::col("total"),
                right: Scalar::lit(50i64),
            })
            .join(Expr::base("Customers"), &[("cust", "cid")])
            .project(&["oid", "name"])
    }

    fn order(oid: i64, cust: i64, total: i64) -> Tuple {
        Tuple::from([Value::Int(oid), Value::Int(cust), Value::Int(total)])
    }

    fn setup() -> (Schema, Database, ViewSet) {
        let s = orders_schema();
        let mut db = Database::empty_of(&s);
        db.insert("Customers", Tuple::from([Value::Int(1), Value::text("ann")]));
        db.insert("Customers", Tuple::from([Value::Int(2), Value::text("bob")]));
        db.insert("Orders", order(10, 1, 99));
        let mut vs = ViewSet::new("S", "V");
        vs.push(ViewDef::new("BigOrders", big_orders()));
        vs.push(ViewDef::new("AllCustomers", Expr::base("Customers")));
        (s, db, vs)
    }

    /// `eval(new) ∖ eval(old)`: the definition the delta rules answer to.
    fn naive_delta(expr: &Expr, s: &Schema, old: &Database, delta: &Delta) -> BTreeSet<Tuple> {
        let mut new = old.clone();
        delta.apply_to(&mut new);
        let before = eval(expr, s, old).unwrap();
        let after = eval(expr, s, &new).unwrap();
        after.iter().filter(|t| !before.contains(t)).cloned().collect()
    }

    #[test]
    fn incremental_insert_matches_recompute() {
        let (s, db, vs) = setup();
        let mut mat = materialize_views(&vs, &s, &db).unwrap();

        let mut delta = Delta::new();
        delta.insert("Orders", order(11, 2, 80));
        delta.insert("Orders", order(12, 2, 10)); // filtered
        delta.insert("Customers", Tuple::from([Value::Int(3), Value::text("cyd")]));

        let strategies = strategies(&vs, &s, &db, &delta, &mut mat).unwrap();
        assert!(strategies
            .iter()
            .all(|(_, st)| *st == MaintenanceStrategy::Incremental));

        // oracle: full recompute on the updated base
        let mut new_db = db.clone();
        delta.apply_to(&mut new_db);
        let oracle = materialize_views(&vs, &s, &new_db).unwrap();
        for (name, rel) in oracle.relations() {
            assert!(
                rel.set_eq(mat.relation(name).unwrap()),
                "view {name} diverged\noracle:\n{rel}\nmaintained:\n{}",
                mat.relation(name).unwrap()
            );
        }
        assert_eq!(mat.relation("BigOrders").unwrap().len(), 2);
    }

    #[test]
    fn join_delta_covers_both_sides() {
        let (s, db, vs) = setup();
        let mut mat = materialize_views(&vs, &s, &db).unwrap();
        // a new customer and that customer's first order arrive in the
        // same delta: neither stored side holds a partner, so only the
        // ΔA ⋈ ΔB term can derive the row — exactly once
        let mut delta = Delta::new();
        delta.insert("Orders", order(13, 3, 70));
        delta.insert("Customers", Tuple::from([Value::Int(3), Value::text("cyd")]));
        let reports =
            maintain(&vs, &s, &db, &delta, &mut mat, &ExecBudget::unbounded())
                .unwrap();
        assert_eq!(
            reports[0].inserted,
            vec![Tuple::from([Value::Int(13), Value::text("cyd")])]
        );
        let mut new_db = db.clone();
        delta.apply_to(&mut new_db);
        let oracle = materialize_views(&vs, &s, &new_db).unwrap();
        assert!(oracle
            .relation("BigOrders")
            .unwrap()
            .set_eq(mat.relation("BigOrders").unwrap()));
    }

    #[test]
    fn reports_carry_exactly_the_rows_the_view_did_not_hold() {
        let (s, db, _) = setup();
        let mut vs = ViewSet::new("S", "V");
        // collapses orders to their customer: most deltas re-derive a row
        vs.push(ViewDef::new("Buyers", Expr::base("Orders").project(&["cust"])));
        let mut mat = materialize_views(&vs, &s, &db).unwrap();
        let mut delta = Delta::new();
        delta.insert("Orders", order(11, 1, 5)); // cust 1 already a buyer
        delta.insert("Orders", order(12, 2, 5));
        delta.insert("Orders", order(13, 2, 6)); // cust 2 again, same batch
        let budget = ExecBudget::unbounded();
        let reports = maintain(&vs, &s, &db, &delta, &mut mat, &budget).unwrap();
        assert_eq!(reports[0].inserted, vec![Tuple::from([Value::Int(2)])]);
        assert_eq!(mat.relation("Buyers").unwrap().len(), 2);

        // a view the caller never materialized starts from the delta
        let mut empty = Database::new("V");
        let reports =
            maintain(&vs, &s, &db, &delta, &mut empty, &budget).unwrap();
        assert_eq!(reports[0].inserted.len(), 2);
        assert_eq!(empty.relation("Buyers").unwrap().schema, RelSchema::of(&[("cust", DataType::Int)]));
    }

    #[test]
    fn null_join_keys_match_nothing() {
        let (s, mut db, vs) = setup();
        db.insert("Customers", Tuple::from([Value::Null, Value::text("ghost")]));
        let mut mat = materialize_views(&vs, &s, &db).unwrap();
        let mut delta = Delta::new();
        delta.insert("Orders", Tuple::from([Value::Int(11), Value::Null, Value::Int(99)]));
        delta.insert("Customers", Tuple::from([Value::Null, Value::text("ghost2")]));
        let reports =
            maintain(&vs, &s, &db, &delta, &mut mat, &ExecBudget::unbounded())
                .unwrap();
        assert!(reports[0].inserted.is_empty());
        assert!(naive_delta(&big_orders(), &s, &db, &delta).is_empty());
    }

    /// `ρ(a→b, b→c)` renames simultaneously, as `output_schema` defines
    /// it: the delta rules once applied the pairs in sequence, resolved
    /// the join key to the wrong column and silently lost rows.
    #[test]
    fn overlapping_renames_resolve_as_in_eval() {
        let s = SchemaBuilder::new("P")
            .relation("R", &[("a", DataType::Int), ("b", DataType::Int)])
            .build()
            .unwrap();
        let pair = |a: i64, b: i64| Tuple::from([Value::Int(a), Value::Int(b)]);
        let mut db = Database::empty_of(&s);
        db.insert("R", pair(1, 2));
        db.insert("R", pair(2, 3));
        // paths of length two: R(a, b) ⋈ R(b, c)
        let paths = Expr::base("R")
            .join(Expr::base("R").rename(&[("a", "b"), ("b", "c")]), &[("b", "b")]);
        let mut delta = Delta::new();
        delta.insert("R", pair(3, 1)); // closes the cycle: 2-3-1 and 3-1-2
        let got: BTreeSet<Tuple> =
            stateless(&paths, &s, &db, &delta).unwrap().iter().cloned().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got, naive_delta(&paths, &s, &db, &delta));
    }

    #[test]
    fn non_monotone_views_recompute() {
        let (s, db, _) = setup();
        let mut vs = ViewSet::new("S", "V");
        vs.push(ViewDef::new(
            "CustomersWithoutOrders",
            Expr::base("Customers")
                .project(&["cid"])
                .diff(Expr::base("Orders").project(&["cust"]).rename(&[("cust", "cid")])),
        ));
        let mut mat = materialize_views(&vs, &s, &db).unwrap();
        assert_eq!(mat.relation("CustomersWithoutOrders").unwrap().len(), 1); // bob
        let mut delta = Delta::new();
        delta.insert("Orders", order(14, 2, 5));
        let st = strategies(&vs, &s, &db, &delta, &mut mat).unwrap();
        assert_eq!(st[0].1, MaintenanceStrategy::Recompute);
        // bob now has an order; the anti-join shrinks (only recompute can
        // express this under insert-only deltas)
        assert_eq!(mat.relation("CustomersWithoutOrders").unwrap().len(), 0);
    }

    #[test]
    fn aggregate_views_recompute() {
        use mm_expr::AggSpec;
        let (s, db, _) = setup();
        let mut vs = ViewSet::new("S", "V");
        vs.push(ViewDef::new(
            "OrdersPerCustomer",
            Expr::base("Orders").aggregate(&["cust"], vec![AggSpec::count("n")]),
        ));
        let mut mat = materialize_views(&vs, &s, &db).unwrap();
        let mut delta = Delta::new();
        delta.insert("Orders", order(20, 1, 5));
        let reports =
            maintain(&vs, &s, &db, &delta, &mut mat, &ExecBudget::unbounded())
                .unwrap();
        assert_eq!(reports[0].strategy, MaintenanceStrategy::Recompute);
        // customer 1 now has two orders: the existing group row CHANGED —
        // only recompute can express that under insert-only deltas
        let rel = mat.relation("OrdersPerCustomer").unwrap();
        let row = rel.iter().find(|t| t.values()[0] == Value::Int(1)).unwrap();
        assert_eq!(row.values()[1], Value::Int(2));
        // the changed row is new to the view; the one it replaced is
        // dropped silently
        assert_eq!(reports[0].inserted, vec![Tuple::from([Value::Int(1), Value::Int(2)])]);
    }

    /// Steps the delta rules alone consume for `delta` over `db`.
    fn delta_rule_steps(expr: &Expr, s: &Schema, db: &Database, delta: &Delta) -> (u64, Vec<Tuple>) {
        let rules = DeltaNode::compile(expr, s).unwrap();
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let rows = rules.rows(&mut DeltaCx { schema: s, db, delta, gov: &mut gov }).unwrap();
        (gov.steps_consumed(), rows)
    }

    #[test]
    fn governed_maintenance_degrades_to_recompute_on_tight_budget() {
        let (s, db, vs) = setup();
        let mut mat = materialize_views(&vs, &s, &db).unwrap();
        // The incremental pass shares one step meter across views; each
        // recompute gets a fresh one. A batch of orders makes the join
        // view's delta rules cost more than recomputing the three-row
        // customer view behind it, so a budget that just covers the
        // former trips the latter's rules and lets its fallback finish.
        let mut delta = Delta::new();
        for oid in 11..31 {
            delta.insert("Orders", order(oid, 2, 80));
        }
        delta.insert("Customers", Tuple::from([Value::Int(3), Value::text("cyd")]));
        let (join_cost, _) = delta_rule_steps(&vs.views[0].expr, &s, &db, &delta);
        let mut new_db = db.clone();
        delta.apply_to(&mut new_db);
        let mut g = Governor::new(&ExecBudget::unbounded());
        eval_governed(&vs.views[1].expr, &s, &new_db, &mut g).unwrap();
        assert!(g.steps_consumed() <= join_cost, "probe: {} vs {join_cost}", g.steps_consumed());
        let budget = ExecBudget::unbounded().with_steps(join_cost);
        let reports =
            maintain(&vs, &s, &db, &delta, &mut mat, &budget).unwrap();
        let degraded: Vec<_> = reports.iter().filter(|r| r.degradation.is_some()).collect();
        assert_eq!(degraded.len(), 1, "the view behind the join degrades: {reports:?}");
        for r in &degraded {
            assert_eq!(r.view, "AllCustomers");
            assert_eq!(r.strategy, MaintenanceStrategy::Recompute);
            assert_eq!(r.inserted, vec![Tuple::from([Value::Int(3), Value::text("cyd")])]);
            let d = r.degradation.as_ref().unwrap();
            assert_eq!(d.kind, mm_guard::DegradationKind::IncrementalToRecompute);
            assert!(matches!(d.cause, mm_guard::ExecError::BudgetExhausted { .. }));
        }
        // degraded maintenance must still produce the correct views
        let oracle = materialize_views(&vs, &s, &new_db).unwrap();
        for (name, rel) in oracle.relations() {
            assert!(rel.set_eq(mat.relation(name).unwrap()), "view {name} diverged");
        }
    }

    #[test]
    fn governed_maintenance_unbounded_matches_ungoverned() {
        let (s, db, vs) = setup();
        let mut mat = materialize_views(&vs, &s, &db).unwrap();
        let mut delta = Delta::new();
        delta.insert("Orders", order(11, 2, 80));
        let reports = maintain(
            &vs,
            &s,
            &db,
            &delta,
            &mut mat,
            &ExecBudget::unbounded(),
        )
        .unwrap();
        assert!(reports.iter().all(|r| r.degradation.is_none()));
        assert!(reports
            .iter()
            .all(|r| r.strategy == MaintenanceStrategy::Incremental));
    }

    #[test]
    fn compiled_plan_absorbs_a_stream_of_deltas() {
        let (s, db, vs) = setup();
        let plan = MaintenancePlan::compile(&vs, &s);
        assert_eq!(
            plan.planned_strategy("BigOrders"),
            Some(MaintenanceStrategy::Incremental)
        );
        assert_eq!(
            plan.planned_strategy("AllCustomers"),
            Some(MaintenanceStrategy::Incremental)
        );
        assert_eq!(plan.planned_strategy("NoSuchView"), None);

        let mut mat = materialize_views(&vs, &s, &db).unwrap();
        let mut base = db.clone();
        for (oid, cust, total) in [(21, 1, 70), (22, 2, 90), (23, 1, 5)] {
            let mut delta = Delta::new();
            delta.insert("Orders", order(oid, cust, total));
            let reports = maintain_with(
                &plan,
                &s,
                &base,
                &delta,
                &mut mat,
                &ExecBudget::unbounded(),
            )
            .unwrap();
            assert!(reports.iter().all(|r| r.strategy == MaintenanceStrategy::Incremental));
            delta.apply_to(&mut base);
        }
        let oracle = materialize_views(&vs, &s, &base).unwrap();
        for (name, rel) in oracle.relations() {
            assert!(rel.set_eq(mat.relation(name).unwrap()), "view {name} diverged");
        }
    }

    #[test]
    fn empty_delta_changes_nothing() {
        let (s, db, vs) = setup();
        let mut mat = materialize_views(&vs, &s, &db).unwrap();
        let before: Vec<usize> = mat.relations().map(|(_, r)| r.len()).collect();
        strategies(&vs, &s, &db, &Delta::new(), &mut mat).unwrap();
        let after: Vec<usize> = mat.relations().map(|(_, r)| r.len()).collect();
        assert_eq!(before, after);
    }

    /// The silent resync cliff (benchmark/README.md, Finding 3): the old
    /// rules spent ≈ 6.3 steps per *stored* order on a 10-order batch.
    /// The same batch must now cost the same steps whatever is stored.
    #[test]
    fn delta_rule_steps_do_not_depend_on_the_stored_size() {
        let s = orders_schema();
        let mut delta = Delta::new();
        for k in 0..10 {
            delta.insert("Orders", order(1_000_000 + k, k % 7, 45 + k));
        }
        let at = |orders: i64| {
            let mut db = Database::empty_of(&s);
            for c in 0..800 {
                db.insert("Customers", Tuple::from([Value::Int(c), Value::text(format!("c{c}"))]));
            }
            for o in 0..orders {
                db.insert("Orders", order(o, o % 800, o % 100));
            }
            delta_rule_steps(&big_orders(), &s, &db, &delta)
        };
        let (small_steps, small_rows) = at(1_000);
        let (large_steps, large_rows) = at(40_000);
        assert_eq!(small_rows.len(), 4, "totals 51..=54 pass the filter");
        assert_eq!(small_rows, large_rows);
        assert_eq!(small_steps, large_steps);
        assert!(small_steps < 100, "10 rows through select, probe, project: {small_steps}");
    }

    #[test]
    fn plan_explains_how_each_join_side_is_reached() {
        let s = orders_schema();
        let mut vs = ViewSet::new("S", "V");
        vs.push(ViewDef::new("BigOrders", big_orders()));
        // the key is a computed column: no base column to probe
        vs.push(ViewDef::new(
            "Shifted",
            Expr::base("Customers").project(&["cid"]).join(
                Expr::base("Orders").extend(
                    "next",
                    Scalar::Func(Func::Add, vec![Scalar::col("cust"), Scalar::lit(1i64)]),
                ),
                &[("cid", "next")],
            ),
        ));
        // a union on one side cannot be probed; the product's sides are
        // reached whole, through the index on no columns
        vs.push(ViewDef::new(
            "Mixed",
            Expr::base("Customers")
                .project(&["cid"])
                .union(Expr::base("Orders").project(&["cust"]))
                .product(Expr::base("Customers").project(&["name"])),
        ));
        vs.push(ViewDef::new("Gone", Expr::base("Customers").diff(Expr::base("Customers"))));
        vs.push(ViewDef::new("Broken", Expr::base("Customers").project(&["nope"])));
        let plan = MaintenancePlan::compile(&vs, &s);
        let lines: Vec<&str> = plan.explain().lines().collect();
        assert_eq!(
            lines[..4],
            [
                "BigOrders: incremental join(left=probed Orders(cust), right=probed Customers(cid))",
                "Shifted: incremental join(left=probed Customers(cid), right=scanned)",
                "Mixed: incremental join(left=scanned, right=probed Customers())",
                "Gone: recompute (non-monotone)",
            ]
        );
        assert!(lines[4].starts_with("Broken: invalid ("), "{}", lines[4]);
        assert_eq!(plan.planned_strategy("Gone"), Some(MaintenanceStrategy::Recompute));

        // the malformed view is reported when maintained, typed
        let db = Database::empty_of(&s);
        let mut mat = Database::new("V");
        let err = maintain_with(
            &plan,
            &s,
            &db,
            &Delta::new(),
            &mut mat,
            &ExecBudget::unbounded(),
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::Static(_)), "{err:?}");
    }

    // -----------------------------------------------------------------
    // Property: the delta rules + maintained contents are the naive
    // definition, over a small grammar of well-formed expressions.
    // -----------------------------------------------------------------

    fn pairs_schema() -> Schema {
        let cols = [("a", DataType::Int), ("b", DataType::Int)];
        SchemaBuilder::new("P")
            .relation("R", &cols)
            .relation("S", &cols)
            .relation("T", &cols)
            .build()
            .unwrap()
    }

    fn cmp(op: CmpOp, left: Scalar, right: Scalar) -> Predicate {
        Predicate::Cmp { op, left, right }
    }

    /// `(a, b)` with the columns' values exchanged.
    fn swap(p: Expr) -> Expr {
        p.rename(&[("a", "b"), ("b", "a")]).project(&["a", "b"])
    }

    /// `(a, a + b)`: a computed column, then projected back to a pair.
    fn sum(p: Expr) -> Expr {
        p.extend("s", Scalar::Func(Func::Add, vec![Scalar::col("a"), Scalar::col("b")]))
            .project(&["a", "s"])
            .rename(&[("s", "b")])
    }

    /// Relational composition `l.b = r.a`: both sides can be probed when
    /// they bottom out in a base relation.
    fn compose(l: Expr, r: Expr) -> Expr {
        l.join(r.rename(&[("a", "b"), ("b", "c")]), &[("b", "b")])
            .project(&["a", "c"])
            .rename(&[("c", "b")])
    }

    /// `l.b = r.a + 1`: the right key is computed, so that side is
    /// always `scanned`.
    fn compose_shifted(l: Expr, r: Expr) -> Expr {
        let r = r
            .extend("k", Scalar::Func(Func::Add, vec![Scalar::col("a"), Scalar::lit(1i64)]))
            .project(&["k", "b"])
            .rename(&[("b", "c")]);
        l.join(r, &[("b", "k")]).project(&["a", "c"]).rename(&[("c", "b")])
    }

    fn cross(l: Expr, r: Expr) -> Expr {
        l.project(&["a"]).product(r.project(&["b"]))
    }

    fn pair_expr() -> BoxedStrategy<Expr> {
        let leaf = prop_oneof![
            Just(Expr::base("R")),
            Just(Expr::base("S")),
            Just(Expr::base("T")),
            Just(Expr::Literal {
                columns: vec!["a".into(), "b".into()],
                rows: vec![vec![Lit::Int(1), Lit::Int(2)], vec![Lit::Int(2), Lit::Null]],
            }),
        ];
        leaf.prop_recursive(3, 16, 2, |inner| {
            let two = (inner.clone(), inner.clone());
            prop_oneof![
                (inner.clone(), 0i64..4).prop_map(|(p, k)| {
                    p.select(cmp(CmpOp::Gt, Scalar::col("a"), Scalar::lit(k)))
                }),
                inner.clone().prop_map(|p| {
                    p.select(cmp(CmpOp::Ne, Scalar::col("a"), Scalar::col("b")))
                }),
                inner.clone().prop_map(swap),
                inner.clone().prop_map(sum),
                inner.clone().prop_map(Expr::distinct),
                two.clone().prop_map(|(l, r)| l.union(r)),
                two.clone().prop_map(|(l, r)| compose(l, r)),
                two.clone().prop_map(|(l, r)| compose_shifted(l, r)),
                two.clone().prop_map(|(l, r)| cross(l, r)),
                two.prop_map(|(l, r)| l.diff(r)),
            ]
        })
    }

    /// Small domain with NULLs: collisions, re-derivations and NULL join
    /// keys are the common case, not the rare one.
    fn pair_row() -> impl Strategy<Value = (usize, Tuple)> {
        let value = || prop_oneof![(0i64..4).prop_map(Value::Int), (0i64..4).prop_map(Value::Int), Just(Value::Null)];
        (0usize..3, value(), value()).prop_map(|(rel, a, b)| (rel, Tuple::from([a, b])))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn maintained_deltas_are_the_naive_definition(
            exprs in proptest::collection::vec(pair_expr(), 1..4),
            seed in proptest::collection::vec(pair_row(), 0..10),
            batches in proptest::collection::vec(proptest::collection::vec(pair_row(), 0..5), 1..5),
        ) {
            const RELS: [&str; 3] = ["R", "S", "T"];
            let s = pairs_schema();
            let mut vs = ViewSet::new("P", "V");
            for (i, e) in exprs.iter().enumerate() {
                vs.push(ViewDef::new(format!("V{i}"), e.clone()));
            }
            let mut db = Database::empty_of(&s);
            for (rel, t) in seed {
                db.insert(RELS[rel], t);
            }
            let plan = MaintenancePlan::compile(&vs, &s);
            let mut mat = materialize_views(&vs, &s, &db).unwrap();
            for batch in batches {
                let mut delta = Delta::new();
                for (rel, t) in batch {
                    delta.insert(RELS[rel], t);
                }
                let reports = maintain_with(
                    &plan, &s, &db, &delta, &mut mat, &ExecBudget::unbounded(),
                ).unwrap();
                for (v, r) in vs.views.iter().zip(&reports) {
                    let naive = naive_delta(&v.expr, &s, &db, &delta);
                    let inserted: BTreeSet<Tuple> = r.inserted.iter().cloned().collect();
                    prop_assert_eq!(inserted.len(), r.inserted.len(), "a row reported twice: {}", v.expr);
                    prop_assert_eq!(&inserted, &naive, "maintained delta of {}\n{}", v.expr, plan.explain());
                    let stateless: BTreeSet<Tuple> =
                        stateless(&v.expr, &s, &db, &delta).unwrap().iter().cloned().collect();
                    prop_assert_eq!(&stateless, &naive, "stateless delta of {}", v.expr);
                }
                delta.apply_to(&mut db);
                let oracle = materialize_views(&vs, &s, &db).unwrap();
                for (name, rel) in oracle.relations() {
                    prop_assert!(rel.set_eq(mat.relation(name).unwrap()), "view {} diverged", name);
                }
            }
        }
    }
}
