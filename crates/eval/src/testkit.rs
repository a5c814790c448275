//! Differential-testing oracle: the naive nested-loop conjunctive-query
//! evaluator that the compiled [`crate::CqPlan`] paths must match binding
//! for binding, in order. Tests and benches link it from here; neither the
//! crate root nor the engine prelude re-exports it.

use crate::cq::Binding;
use crate::plan::lit_to_value;
use mm_expr::{Atom, Term};
use mm_guard::{ExecError, Governor};
use mm_instance::{Database, Tuple};
use std::collections::HashSet;

/// Try to extend `binding` so that `atom` maps onto `tuple`.
/// Returns `None` on conflict. Function terms never match (they only occur
/// in SO-tgd heads, which are not chased directly).
fn match_atom(atom: &Atom, tuple: &Tuple, binding: &Binding) -> Option<Binding> {
    if atom.terms.len() != tuple.arity() {
        return None;
    }
    let mut b = binding.clone();
    for (term, value) in atom.terms.iter().zip(tuple.values()) {
        match term {
            Term::Var(v) => match b.get(v) {
                Some(bound) if bound != value => return None,
                Some(_) => {}
                None => {
                    b.insert(v.clone(), value.clone());
                }
            },
            Term::Const(l) => {
                if &lit_to_value(l) != value {
                    return None;
                }
            }
            Term::Func(..) => return None,
        }
    }
    Some(b)
}

/// Order atoms so that atoms sharing variables with already-placed atoms
/// come early (greedy bound-variable heuristic) — the join-ordering step
/// of the naive evaluator, and the heuristic [`crate::CqPlan::compile`]
/// replicates so both paths enumerate identically. Deterministic for
/// reproducibility.
fn order_atoms<'a>(atoms: &'a [Atom], db: &Database) -> Vec<&'a Atom> {
    let mut remaining: Vec<(usize, &Atom)> = atoms.iter().enumerate().collect();
    let mut ordered: Vec<&Atom> = Vec::with_capacity(atoms.len());
    let mut bound: HashSet<&str> = HashSet::new();
    // pick the atom with the most bound variables; tie-break on the
    // smallest relation, then on the *original* atom index — the same
    // key [`crate::CqPlan::compile`] uses, so the naive oracle and the
    // compiled plan provably pick identical orders. The loop ends when
    // `remaining` is drained and `min_by_key` has nothing to yield.
    while let Some((idx, _)) = remaining
        .iter()
        .enumerate()
        .map(|(i, (ai, a))| {
            let bound_vars = a.variables().iter().filter(|v| bound.contains(**v)).count();
            let size = db.relation(&a.relation).map(|r| r.len()).unwrap_or(0);
            (i, (std::cmp::Reverse(bound_vars), size, *ai))
        })
        .min_by_key(|(_, k)| *k)
    {
        let (_, atom) = remaining.remove(idx);
        for v in atom.variables() {
            bound.insert(v);
        }
        ordered.push(atom);
    }
    ordered
}

/// The naive nested-loop evaluator: scans every relation per atom and
/// clones a string-keyed binding per probe. The reference oracle the
/// compiled-plan path is property-tested against (and the scan baseline
/// in the eval bench).
pub fn find_homomorphisms_naive(
    atoms: &[Atom],
    db: &Database,
    seed: &Binding,
    gov: &mut Governor,
) -> Result<Vec<Binding>, ExecError> {
    gov.check_now()?;
    if atoms.is_empty() {
        return Ok(vec![seed.clone()]);
    }
    let ordered = order_atoms(atoms, db);
    let mut bindings = vec![seed.clone()];
    for atom in ordered {
        let Some(rel) = db.relation(&atom.relation) else {
            return Ok(Vec::new());
        };
        let mut next = Vec::new();
        for b in &bindings {
            for t in rel.iter() {
                gov.step()?;
                if let Some(b2) = match_atom(atom, t, b) {
                    next.push(b2);
                }
            }
        }
        if next.is_empty() {
            return Ok(Vec::new());
        }
        bindings = next;
    }
    Ok(bindings)
}
