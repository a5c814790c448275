//! Deskolemization: folding an SO-tgd back into first-order st-tgds when
//! the function terms allow it.
//!
//! The composition of st-tgds is expressible as st-tgds in many practical
//! cases (e.g. when the first mapping is full); the SO-tgd algorithm still
//! produces Skolem terms syntactically. This pass detects when each
//! function symbol can be soundly replaced by an existential variable:
//!
//! * the clause has no residual equalities (an equality such as
//!   `f(e) = e` constrains the function and is genuinely second-order);
//! * each function symbol appears in at most one clause;
//! * within the clause, every occurrence of the symbol has the identical
//!   argument list, and the arguments are plain universal variables.
//!
//! Under these conditions `f(x̄)` behaves exactly like one existential
//! witness per binding of x̄, which is what a first-order existential
//! provides.

use mm_expr::{Atom, SoTgd, Term, Tgd};
use mm_guard::{ExecError, Governor};
use std::collections::HashMap;

/// Try to rewrite `so` as a set of first-order st-tgds. Returns
/// `Ok(None)` when any clause is genuinely second-order (by the
/// conservative conditions above).
///
/// The folding pass is linear in the SO-tgd, but composition can hand it
/// an exponentially large input, so the walk accrues one step per head
/// term against `gov`.
pub fn try_deskolemize(so: &SoTgd, gov: &mut Governor) -> Result<Option<Vec<Tgd>>, ExecError> {
    gov.clauses(so.clauses.len() as u64)?;
    // function symbol -> (clause index, argument list) of first sighting
    let mut usage: HashMap<&str, (usize, &[Term])> = HashMap::new();
    for (ci, clause) in so.clauses.iter().enumerate() {
        if !clause.eqs.is_empty() {
            return Ok(None);
        }
        for atom in &clause.head {
            for term in &atom.terms {
                gov.step()?;
                if !check_term(term, ci, &mut usage) {
                    return Ok(None);
                }
            }
        }
        // bodies must already be function-free (they are, by construction)
        if clause.body.iter().any(Atom::has_func) {
            return Ok(None);
        }
    }

    let mut out = Vec::with_capacity(so.clauses.len());
    for (ci, clause) in so.clauses.iter().enumerate() {
        let mut renames: HashMap<String, Term> = HashMap::new();
        let mut counter = 0usize;
        let head = clause
            .head
            .iter()
            .map(|a| Atom {
                relation: a.relation.clone(),
                terms: a
                    .terms
                    .iter()
                    .map(|t| fold_term(t, ci, &mut renames, &mut counter))
                    .collect(),
            })
            .collect();
        gov.steps_n(clause.body.len() as u64 + clause.head.len() as u64)?;
        out.push(Tgd::new(clause.body.clone(), head));
    }
    Ok(Some(out))
}

/// Validate one head term: function terms must have variable-only args,
/// appear in a single clause, and always with the same argument list.
fn check_term<'a>(
    term: &'a Term,
    clause_idx: usize,
    usage: &mut HashMap<&'a str, (usize, &'a [Term])>,
) -> bool {
    match term {
        Term::Var(_) | Term::Const(_) => true,
        Term::Func(f, args) => {
            if !args.iter().all(|a| matches!(a, Term::Var(_))) {
                return false; // nested functions or constants in args
            }
            match usage.get(f.as_str()) {
                Some((ci, prev_args)) => *ci == clause_idx && *prev_args == args.as_slice(),
                None => {
                    usage.insert(f, (clause_idx, args.as_slice()));
                    true
                }
            }
        }
    }
}

fn fold_term(
    term: &Term,
    clause_idx: usize,
    renames: &mut HashMap<String, Term>,
    counter: &mut usize,
) -> Term {
    match term {
        Term::Var(_) | Term::Const(_) => term.clone(),
        Term::Func(f, _) => renames
            .entry(f.clone())
            .or_insert_with(|| {
                let v = Term::Var(format!("ex{clause_idx}_{counter}"));
                *counter += 1;
                v
            })
            .clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sotgd::compose_st_tgds;
    use mm_expr::SoClause;
    use mm_guard::{ExecBudget, ExecCtx};

    /// Unmetered deskolemization.
    fn deskolemize(so: &SoTgd) -> Option<Vec<Tgd>> {
        try_deskolemize(so, &mut Governor::new(&ExecBudget::unbounded())).unwrap()
    }

    #[test]
    fn simple_skolem_head_folds_back() {
        // Emp(e) -> Mgr(e, f(e))  becomes  Emp(e) -> exists m . Mgr(e, m)
        let so = SoTgd {
            functions: vec!["f".into()],
            clauses: vec![SoClause {
                body: vec![Atom::vars("Emp", &["e"])],
                eqs: vec![],
                head: vec![Atom::new(
                    "Mgr",
                    vec![Term::var("e"), Term::Func("f".into(), vec![Term::var("e")])],
                )],
            }],
        };
        let tgds = deskolemize(&so).unwrap();
        assert_eq!(tgds.len(), 1);
        assert_eq!(tgds[0].existential_vars().len(), 1);
        assert!(tgds[0].validate().is_ok());
    }

    #[test]
    fn residual_equality_blocks_deskolemization() {
        let so = SoTgd {
            functions: vec!["f".into()],
            clauses: vec![SoClause {
                body: vec![Atom::vars("Emp", &["e"])],
                eqs: vec![(
                    Term::Func("f".into(), vec![Term::var("e")]),
                    Term::var("e"),
                )],
                head: vec![Atom::vars("SelfMgr", &["e"])],
            }],
        };
        assert!(deskolemize(&so).is_none());
    }

    #[test]
    fn function_shared_across_clauses_blocks() {
        let f = Term::Func("f".into(), vec![Term::var("x")]);
        let so = SoTgd {
            functions: vec!["f".into()],
            clauses: vec![
                SoClause {
                    body: vec![Atom::vars("A", &["x"])],
                    eqs: vec![],
                    head: vec![Atom::new("T", vec![Term::var("x"), f.clone()])],
                },
                SoClause {
                    body: vec![Atom::vars("B", &["x"])],
                    eqs: vec![],
                    head: vec![Atom::new("U", vec![Term::var("x"), f])],
                },
            ],
        };
        // f links the two clauses (same witness for A- and B-derived rows);
        // first-order existentials cannot express that
        assert!(deskolemize(&so).is_none());
    }

    #[test]
    fn shared_function_within_one_clause_folds_to_shared_existential() {
        let f = Term::Func("f".into(), vec![Term::var("x")]);
        let so = SoTgd {
            functions: vec!["f".into()],
            clauses: vec![SoClause {
                body: vec![Atom::vars("A", &["x"])],
                eqs: vec![],
                head: vec![
                    Atom::new("T", vec![Term::var("x"), f.clone()]),
                    Atom::new("U", vec![f]),
                ],
            }],
        };
        let tgds = deskolemize(&so).unwrap();
        let t = &tgds[0];
        // same existential variable in both head atoms
        assert_eq!(t.head[0].terms[1], t.head[1].terms[0]);
        assert_eq!(t.existential_vars().len(), 1);
    }

    #[test]
    fn nested_function_args_block() {
        let inner = Term::Func("g".into(), vec![Term::var("x")]);
        let so = SoTgd {
            functions: vec!["f".into(), "g".into()],
            clauses: vec![SoClause {
                body: vec![Atom::vars("A", &["x"])],
                eqs: vec![],
                head: vec![Atom::new("T", vec![Term::Func("f".into(), vec![inner])])],
            }],
        };
        assert!(deskolemize(&so).is_none());
    }

    #[test]
    fn composition_of_full_then_existential_mapping_deskolemizes() {
        // m12 full: R(x,y) -> S(x,y); m23: S(x,y) -> exists z . T(x, z)
        let m12 = vec![Tgd::new(
            vec![Atom::vars("R", &["x", "y"])],
            vec![Atom::vars("S", &["x", "y"])],
        )];
        let m23 = vec![Tgd::new(
            vec![Atom::vars("S", &["x", "y"])],
            vec![Atom::vars("T", &["x", "z"])],
        )];
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let so =
            compose_st_tgds(&m12, &m23, &mut ExecCtx::new(&mut gov)).unwrap();
        let tgds = deskolemize(&so).expect("composition should be first-order here");
        assert_eq!(tgds.len(), 1);
        assert_eq!(tgds[0].body[0].relation, "R");
        assert_eq!(tgds[0].head[0].relation, "T");
        assert_eq!(tgds[0].existential_vars().len(), 1);
    }
}
