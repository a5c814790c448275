//! Composition of st-tgd mappings via second-order tgds (Fagin, Kolaitis,
//! Popa, Tan: "Composing schema mappings: second-order dependencies to the
//! rescue", the algorithm §6.1 of the paper summarizes).
//!
//! st-tgds are not closed under composition; the algorithm Skolemizes both
//! mappings and splices every way of producing each intermediate-schema
//! body atom, which is where the exponential lower bound on output size
//! comes from (benchmark EQ1 measures exactly this growth).

use mm_eval::cq::find_homomorphisms_governed;
use mm_eval::plan::lit_to_value;
use mm_expr::{Atom, SoClause, SoTgd, Term, Tgd};
use mm_guard::{ExecCtx, ExecError, Governor};
use mm_instance::{Database, Tuple, Value};
use mm_metamodel::Schema;
use mm_telemetry::{Counter, Span, Timer};
use std::collections::HashMap;
use std::fmt;

/// Errors from logic-level composition.
#[derive(Debug, Clone, PartialEq)]
pub enum ComposeError {
    /// A constraint of the first mapping is not a valid tgd.
    InvalidTgd(String),
    /// Governance failure: the clause cap (the exponential blowup is
    /// real), another budget cap, or cancellation tripped while
    /// splicing.
    Exec(ExecError),
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::InvalidTgd(m) => write!(f, "invalid tgd: {m}"),
            ComposeError::Exec(e) => write!(f, "composition aborted: {e}"),
        }
    }
}

impl std::error::Error for ComposeError {}

impl From<ExecError> for ComposeError {
    fn from(e: ExecError) -> Self {
        ComposeError::Exec(e)
    }
}

/// Compose `m12 : S1 → S2` with `m23 : S2 → S3`, producing an SO-tgd from
/// S1 to S3.
///
/// The context's governor meters the splice: its clause cap (which
/// bounds the worst-case exponential output), step cap, wall clock and
/// cancellation token are observed per produced clause *before* the
/// clause is materialized, since the splice loop is the exponential
/// part. A budget without a clause cap does not bound the output. With
/// enabled telemetry the call runs under a `compose.splice` span carrying
/// input sizes, emitted-clause count and the governor's final
/// consumption, and feeds [`Counter::ComposeClausesEmitted`] and the
/// compose timer. No other context field applies.
pub fn compose_st_tgds(
    m12: &[Tgd],
    m23: &[Tgd],
    ctx: &mut ExecCtx<'_>,
) -> Result<SoTgd, ComposeError> {
    let tel = &ctx.telemetry;
    if !tel.is_enabled() {
        return compose_impl(m12, m23, ctx.governor);
    }
    let started = mm_telemetry::clock::now();
    let mut span = Span::enter(tel, "compose.splice", "");
    let result = compose_impl(m12, m23, ctx.governor);
    span.field("m12_tgds", m12.len());
    span.field("m23_tgds", m23.len());
    match &result {
        Ok(so) => {
            if let Some(m) = tel.metrics() {
                m.add(Counter::ComposeClausesEmitted, so.clauses.len() as u64);
            }
            let c = ctx.governor.consumption();
            tel.count(Counter::BudgetStepsConsumed, c.steps);
            span.field("clauses", so.clauses.len());
            span.field("steps", c.steps);
            span.field("wall_us", c.wall_us);
        }
        Err(e) => span.field("error", e.to_string()),
    }
    if let Some(m) = tel.metrics() {
        m.observe_us(Timer::Compose, mm_telemetry::clock::elapsed_us(started));
    }
    span.finish();
    result
}

fn compose_impl(m12: &[Tgd], m23: &[Tgd], gov: &mut Governor) -> Result<SoTgd, ComposeError> {
    for t in m12.iter().chain(m23) {
        t.validate().map_err(|e| ComposeError::InvalidTgd(e.to_string()))?;
    }
    // Skolemize both mappings; function symbols are global existentials.
    let so12 = SoTgd::skolemize(m12, "f");
    let so23 = SoTgd::skolemize(m23, "g");

    let mut functions = so12.functions.clone();
    functions.extend(so23.functions.iter().cloned());

    // index Σ12 head atoms by relation
    let mut producers: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (ci, c) in so12.clauses.iter().enumerate() {
        for (ai, a) in c.head.iter().enumerate() {
            producers.entry(a.relation.as_str()).or_default().push((ci, ai));
        }
    }

    let mut out_clauses: Vec<SoClause> = Vec::new();
    let mut fresh = 0usize;

    for clause23 in &so23.clauses {
        // all ways of assigning a producer to each body atom
        let options: Vec<&Vec<(usize, usize)>> = match clause23
            .body
            .iter()
            .map(|a| producers.get(a.relation.as_str()))
            .collect::<Option<Vec<_>>>()
        {
            Some(v) => v,
            // some body atom can never be produced by Σ12: this clause
            // contributes nothing to the composition
            None => continue,
        };
        let mut combo = vec![0usize; options.len()];
        loop {
            // govern *before* materializing the next clause: the clause
            // cap stops the exponential splice without first paying for
            // the oversized clause
            gov.clauses(out_clauses.len() as u64 + 1)?;
            gov.step()?;
            // build one spliced clause
            let mut body: Vec<Atom> = Vec::new();
            let mut eqs: Vec<(Term, Term)> = Vec::new();
            for (bi, atom23) in clause23.body.iter().enumerate() {
                let (ci, ai) = options[bi][combo[bi]];
                let clause12 = &so12.clauses[ci];
                // fresh-rename clause12's variables for this use
                let prefix = format!("u{fresh}_");
                fresh += 1;
                let sub = |v: &str| Some(Term::Var(format!("{prefix}{v}")));
                for b in &clause12.body {
                    body.push(b.substitute(&sub));
                }
                for (l, r) in &clause12.eqs {
                    eqs.push((l.substitute(&sub), r.substitute(&sub)));
                }
                let produced = clause12.head[ai].substitute(&sub);
                debug_assert_eq!(produced.relation, atom23.relation);
                for (t23, t12) in atom23.terms.iter().zip(&produced.terms) {
                    eqs.push((t23.clone(), t12.clone()));
                }
            }
            let mut clause = SoClause {
                body,
                eqs,
                head: clause23.head.clone(),
            };
            simplify_clause(&mut clause);
            out_clauses.push(clause);
            // next combination
            let mut i = 0;
            loop {
                if i == combo.len() {
                    break;
                }
                combo[i] += 1;
                if combo[i] < options[i].len() {
                    break;
                }
                combo[i] = 0;
                i += 1;
            }
            if i == combo.len() {
                break;
            }
        }
    }
    Ok(SoTgd { functions, clauses: out_clauses })
}

/// Eliminate equalities of the form `x = t` (or `t = x`) where `x` is a
/// plain variable, by substituting `t` for `x` throughout the clause.
///
/// An elimination is performed only when it is sound and keeps the clause
/// chaseable:
/// * occurs check — `t` must not contain `x`;
/// * body atoms must stay function-free (they are matched by first-order
///   homomorphism search), so a functional `t` is substituted only if `x`
///   does not occur in the body.
///
/// Equalities that cannot be eliminated (e.g. `f(e) = e` from the Fagin
/// self-manager example) remain as explicit conditions on the clause.
fn simplify_clause(clause: &mut SoClause) {
    loop {
        let mut picked: Option<usize> = None;
        for (i, (l, r)) in clause.eqs.iter().enumerate() {
            let candidate = match (l, r) {
                (Term::Var(v), t) | (t, Term::Var(v)) => Some((v, t)),
                _ => None,
            };
            let Some((v, t)) = candidate else { continue };
            // occurs check
            let mut vars = std::collections::BTreeSet::new();
            t.vars(&mut vars);
            if vars.contains(v.as_str()) && t != &Term::Var(v.clone()) {
                continue;
            }
            // keep bodies function-free
            if t.has_func() && clause.body.iter().any(|a| a.variables().contains(v.as_str())) {
                continue;
            }
            picked = Some(i);
            break;
        }
        let Some(idx) = picked else { return };
        let (l, r) = clause.eqs.remove(idx);
        let (var, term) = match (&l, &r) {
            (Term::Var(v), t) => (v.clone(), t.clone()),
            (t, Term::Var(v)) => (v.clone(), t.clone()),
            _ => unreachable!("picked eq has a variable side"),
        };
        if Term::Var(var.clone()) == term {
            continue; // x = x, dropped
        }
        let sub = |v: &str| (v == var).then(|| term.clone());
        for a in clause.body.iter_mut() {
            *a = a.substitute(&sub);
        }
        for a in clause.head.iter_mut() {
            *a = a.substitute(&sub);
        }
        for (el, er) in clause.eqs.iter_mut() {
            *el = el.substitute(&sub);
            *er = er.substitute(&sub);
        }
    }
}

/// Apply an SO-tgd to a source database under the **Skolem
/// interpretation**: each function term `f(v̄)` denotes a memoized labeled
/// null per argument vector, distinct from every constant and from every
/// other Skolem value. Equalities act as *filters*: a clause fires for a
/// binding only if each equality's two sides evaluate to the same value.
///
/// This interpretation yields the canonical universal solution — the same
/// instance (up to null renaming) the restricted chase produces when
/// transporting through the intermediate schema, which is what makes
/// [`crate::transport::transport_via`] a valid oracle for the composition
/// algorithm.
///
/// Homomorphism search and produced tuples are metered against `gov`. An
/// unbound variable in a head or equality (malformed SO-tgd) surfaces as
/// [`ExecError::Malformed`], not a panic.
pub fn apply_sotgd(
    sotgd: &SoTgd,
    source_db: &Database,
    target_schema: &Schema,
    gov: &mut Governor,
) -> Result<Database, ExecError> {
    let mut target = Database::empty_of(target_schema);
    target.set_label_watermark(source_db.label_watermark());
    // memoized Skolem values: (function, args) -> labeled null
    let mut skolem: HashMap<(String, Vec<Value>), Value> = HashMap::new();

    for clause in &sotgd.clauses {
        let bindings =
            find_homomorphisms_governed(&clause.body, source_db, &Default::default(), gov)?;
        'bindings: for b in bindings {
            for (l, r) in &clause.eqs {
                gov.step()?;
                let lv = eval_term_rec(l, &b, &mut skolem, &mut target)?;
                let rv = eval_term_rec(r, &b, &mut skolem, &mut target)?;
                if lv != rv {
                    continue 'bindings;
                }
            }
            for atom in &clause.head {
                gov.row()?;
                let vals: Vec<Value> = atom
                    .terms
                    .iter()
                    .map(|t| eval_term_rec(t, &b, &mut skolem, &mut target))
                    .collect::<Result<_, _>>()?;
                target.insert(&atom.relation, Tuple::new(vals));
            }
        }
    }
    Ok(target)
}

fn eval_term_rec(
    t: &Term,
    b: &mm_eval::cq::Binding,
    skolem: &mut HashMap<(String, Vec<Value>), Value>,
    target: &mut Database,
) -> Result<Value, ExecError> {
    Ok(match t {
        Term::Var(v) => b.get(v).cloned().ok_or_else(|| {
            ExecError::malformed(format!("unbound variable `{v}` in SO-tgd head/equality"))
        })?,
        Term::Const(l) => lit_to_value(l),
        Term::Func(f, args) => {
            let arg_vals: Vec<Value> = args
                .iter()
                .map(|a| eval_term_rec(a, b, skolem, target))
                .collect::<Result<_, _>>()?;
            skolem
                .entry((f.clone(), arg_vals))
                .or_insert_with(|| target.fresh_labeled())
                .clone()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::transport_via;
    use mm_chase::hom_equivalent;
    use mm_guard::ExecBudget;
    use mm_metamodel::{DataType, SchemaBuilder};

    /// Untraced composition under a clause cap.
    fn compose(m12: &[Tgd], m23: &[Tgd], clauses: u64) -> Result<SoTgd, ComposeError> {
        let mut gov = Governor::new(&ExecBudget::unbounded().with_clauses(clauses));
        compose_st_tgds(m12, m23, &mut ExecCtx::new(&mut gov))
    }

    /// A clause cap no test composition reaches.
    const CLAUSES: u64 = 1 << 16;

    fn apply(so: &SoTgd, db: &Database, target: &Schema) -> Result<Database, ExecError> {
        apply_sotgd(so, db, target, &mut Governor::new(&ExecBudget::unbounded()))
    }

    // The canonical Fagin et al. example:
    //   m12: Emp(e) -> exists m . Mgr1(e, m)
    //   m23: Mgr1(e, m) -> Mgr(e, m)
    //        Mgr1(e, e) -> SelfMgr(e)
    // composition requires a function symbol: Mgr(e, f(e)) and
    // SelfMgr(e) whenever f(e) = e.
    fn m12() -> Vec<Tgd> {
        vec![Tgd::new(vec![Atom::vars("Emp", &["e"])], vec![Atom::vars("Mgr1", &["e", "m"])])]
    }

    fn m23() -> Vec<Tgd> {
        vec![
            Tgd::new(vec![Atom::vars("Mgr1", &["e", "m"])], vec![Atom::vars("Mgr", &["e", "m"])]),
            Tgd::new(vec![Atom::vars("Mgr1", &["e", "e"])], vec![Atom::vars("SelfMgr", &["e"])]),
        ]
    }

    #[test]
    fn fagin_example_produces_function_terms_and_equality() {
        let so = compose(&m12(), &m23(), CLAUSES).unwrap();
        assert_eq!(so.clauses.len(), 2);
        // first clause: Emp(e) -> Mgr(e, f(e))
        let c0 = &so.clauses[0];
        assert!(c0.eqs.is_empty());
        assert_eq!(c0.head[0].relation, "Mgr");
        assert!(matches!(c0.head[0].terms[1], Term::Func(..)));
        // second clause: Emp(e) & f(e) = e -> SelfMgr(e)  (equality between
        // a function term and a universal variable term survives as an eq
        // after the variable-elimination pass folds one side)
        let c1 = &so.clauses[1];
        assert_eq!(c1.head[0].relation, "SelfMgr");
        assert_eq!(c1.eqs.len(), 1);
    }

    #[test]
    fn full_tgds_compose_to_function_free_clauses() {
        let a = vec![Tgd::new(vec![Atom::vars("R", &["x", "y"])], vec![Atom::vars("S", &["x", "y"])])];
        let b = vec![Tgd::new(vec![Atom::vars("S", &["x", "y"])], vec![Atom::vars("T", &["y", "x"])])];
        let so = compose(&a, &b, CLAUSES).unwrap();
        assert_eq!(so.clauses.len(), 1);
        let c = &so.clauses[0];
        assert!(c.eqs.is_empty());
        assert_eq!(c.body[0].relation, "R");
        assert_eq!(c.head[0].relation, "T");
        assert!(!c.head[0].has_func());
    }

    #[test]
    fn unproducible_body_atom_drops_clause() {
        let a = vec![Tgd::new(vec![Atom::vars("R", &["x"])], vec![Atom::vars("S", &["x"])])];
        // m23 needs S and Z; Z is never produced
        let b = vec![Tgd::new(
            vec![Atom::vars("S", &["x"]), Atom::vars("Z", &["x"])],
            vec![Atom::vars("T", &["x"])],
        )];
        let so = compose(&a, &b, CLAUSES).unwrap();
        assert!(so.clauses.is_empty());
    }

    #[test]
    fn splice_is_cartesian_over_producers() {
        // two producers of S, body with two S atoms -> 4 clauses
        let a = vec![
            Tgd::new(vec![Atom::vars("R1", &["x"])], vec![Atom::vars("S", &["x"])]),
            Tgd::new(vec![Atom::vars("R2", &["x"])], vec![Atom::vars("S", &["x"])]),
        ];
        let b = vec![Tgd::new(
            vec![Atom::vars("S", &["x"]), Atom::vars("S", &["y"])],
            vec![Atom::vars("T", &["x", "y"])],
        )];
        let so = compose(&a, &b, CLAUSES).unwrap();
        assert_eq!(so.clauses.len(), 4);
    }

    #[test]
    fn clause_bound_enforced() {
        let a = vec![
            Tgd::new(vec![Atom::vars("R1", &["x"])], vec![Atom::vars("S", &["x"])]),
            Tgd::new(vec![Atom::vars("R2", &["x"])], vec![Atom::vars("S", &["x"])]),
        ];
        let b = vec![Tgd::new(
            vec![
                Atom::vars("S", &["x"]),
                Atom::vars("S", &["y"]),
                Atom::vars("S", &["z"]),
            ],
            vec![Atom::vars("T", &["x", "y", "z"])],
        )];
        let err = compose(&a, &b, 4).unwrap_err();
        assert!(
            matches!(
                err,
                ComposeError::Exec(ExecError::BudgetExhausted {
                    resource: mm_guard::Resource::Clauses,
                    consumed: 5,
                    limit: 4
                })
            ),
            "{err:?}"
        );
    }

    /// End-to-end semantic validation: applying the composed SO-tgd to D1
    /// is homomorphically equivalent to chasing D1 → D2 → D3.
    #[test]
    fn composition_agrees_with_transport() {
        let s2 = SchemaBuilder::new("S2")
            .relation("Mgr1", &[("e", DataType::Text), ("m", DataType::Text)])
            .build()
            .unwrap();
        let s3 = SchemaBuilder::new("S3")
            .relation("Mgr", &[("e", DataType::Text), ("m", DataType::Text)])
            .relation("SelfMgr", &[("e", DataType::Text)])
            .build()
            .unwrap();
        let s1 = SchemaBuilder::new("S1")
            .relation("Emp", &[("e", DataType::Text)])
            .build()
            .unwrap();
        let mut d1 = Database::empty_of(&s1);
        d1.insert("Emp", Tuple::from([Value::text("ann")]));
        d1.insert("Emp", Tuple::from([Value::text("bob")]));

        // transport: chase through S2 then S3
        let (d3_chase, _, _) = transport_via(&s2, &m12(), &s3, &m23(), &d1).unwrap();

        // direct: apply composed SO-tgd
        let so = compose(&m12(), &m23(), CLAUSES).unwrap();
        let d3_direct = apply(&so, &d1, &s3).unwrap();

        assert!(
            hom_equivalent(&d3_chase, &d3_direct),
            "chase:\n{d3_chase}\ndirect:\n{d3_direct}"
        );
        // and neither claims a self-manager certainly
        assert!(d3_direct.relation("SelfMgr").unwrap().is_empty());
        assert_eq!(d3_direct.relation("Mgr").unwrap().len(), 2);
    }

    #[test]
    fn composed_equalities_unify_skolems_with_constants() {
        // m12: R(x) -> S(x, c) with constant via full tgd using const term
        // simpler: m12: R(x) -> S(x, x); m23: S(x, y) & S(y, x) -> T(x)
        let a = vec![Tgd::new(vec![Atom::vars("R", &["x"])], vec![Atom::vars("S", &["x", "x"])])];
        let b = vec![Tgd::new(
            vec![Atom::vars("S", &["x", "y"]), Atom::vars("S", &["y", "x"])],
            vec![Atom::vars("T", &["x"])],
        )];
        let so = compose(&a, &b, CLAUSES).unwrap();
        let s1 = SchemaBuilder::new("S1")
            .relation("R", &[("x", DataType::Int)])
            .build()
            .unwrap();
        let s3 = SchemaBuilder::new("S3")
            .relation("T", &[("x", DataType::Int)])
            .build()
            .unwrap();
        let mut d1 = Database::empty_of(&s1);
        d1.insert("R", Tuple::from([Value::Int(1)]));
        let d3 = apply(&so, &d1, &s3).unwrap();
        // S(1,1) satisfies both body atoms with x=y=1 -> T(1)
        assert!(d3.relation("T").unwrap().contains(&Tuple::from([Value::Int(1)])));
    }
}
