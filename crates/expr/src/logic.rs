//! Logic-based mapping constraints: tgds, source-to-target tgds, and
//! second-order tgds.
//!
//! A tgd is a formula ∀x̄ (φ(x̄) → ∃ȳ ψ(x̄, ȳ)) where φ and ψ are
//! conjunctions of relational atoms (§6.1, footnote 2 of the paper). When
//! φ only uses source relations and ψ only target relations it is an
//! st-tgd — the GLAV constraints of data exchange. SO-tgds extend st-tgds
//! with existentially quantified *function* symbols; Fagin et al. showed
//! they are the closure of st-tgds under composition, which is exactly why
//! `mm-compose` produces them.

use crate::literal::Lit;
use mm_metamodel::Schema;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A term in an atom: variable, constant, or (SO-tgds only) a function
/// application `f(t1, …, tn)` of an existentially quantified function
/// symbol — i.e. a Skolem term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Term {
    Var(String),
    Const(Lit),
    Func(String, Vec<Term>),
}

impl Term {
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// Collect the variables of the term into `out`.
    pub fn vars<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Term::Var(v) => {
                out.insert(v);
            }
            Term::Const(_) => {}
            Term::Func(_, args) => {
                for a in args {
                    a.vars(out);
                }
            }
        }
    }

    /// Whether the term contains any function application.
    pub fn has_func(&self) -> bool {
        matches!(self, Term::Func(..))
            || matches!(self, Term::Func(_, args) if args.iter().any(Term::has_func))
    }

    /// Simultaneously substitute variables using `subst` (variables not in
    /// the map are kept).
    pub fn substitute(&self, subst: &dyn Fn(&str) -> Option<Term>) -> Term {
        match self {
            Term::Var(v) => subst(v).unwrap_or_else(|| self.clone()),
            Term::Const(_) => self.clone(),
            Term::Func(f, args) => {
                Term::Func(f.clone(), args.iter().map(|a| a.substitute(subst)).collect())
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => f.write_str(v),
            Term::Const(c) => write!(f, "{c}"),
            Term::Func(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A relational atom `R(t1, …, tn)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Atom {
    pub relation: String,
    pub terms: Vec<Term>,
}

impl Atom {
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom { relation: relation.into(), terms }
    }

    /// Atom over plain variables, the common case: `R(x, y, z)`.
    pub fn vars(relation: impl Into<String>, vars: &[&str]) -> Self {
        Atom {
            relation: relation.into(),
            terms: vars.iter().map(|v| Term::var(*v)).collect(),
        }
    }

    pub fn variables(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        for t in &self.terms {
            t.vars(&mut out);
        }
        out
    }

    pub fn has_func(&self) -> bool {
        self.terms.iter().any(Term::has_func)
    }

    pub fn substitute(&self, subst: &dyn Fn(&str) -> Option<Term>) -> Atom {
        Atom {
            relation: self.relation.clone(),
            terms: self.terms.iter().map(|t| t.substitute(subst)).collect(),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A tuple-generating dependency ∀x̄ (body → ∃ȳ head).
///
/// The universally quantified variables are those occurring in the body;
/// the existential variables are the head variables that do not occur in
/// the body. Terms in a plain tgd must be function-free.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tgd {
    pub body: Vec<Atom>,
    pub head: Vec<Atom>,
}

/// Errors from tgd validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TgdError {
    EmptyBody,
    EmptyHead,
    FunctionInTgd,
    /// A body relation is not in the source schema (for st-tgd checks).
    BodyNotInSource(String),
    /// A head relation is not in the target schema.
    HeadNotInTarget(String),
    /// Atom arity disagrees with the relation's instance layout.
    ArityMismatch { relation: String, expected: usize, actual: usize },
}

impl fmt::Display for TgdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TgdError::EmptyBody => f.write_str("tgd with empty body"),
            TgdError::EmptyHead => f.write_str("tgd with empty head"),
            TgdError::FunctionInTgd => f.write_str("function symbol in first-order tgd"),
            TgdError::BodyNotInSource(r) => write!(f, "body relation `{r}` not in source"),
            TgdError::HeadNotInTarget(r) => write!(f, "head relation `{r}` not in target"),
            TgdError::ArityMismatch { relation, expected, actual } => {
                write!(f, "atom `{relation}` arity {actual}, relation has {expected}")
            }
        }
    }
}

impl std::error::Error for TgdError {}

impl Tgd {
    pub fn new(body: Vec<Atom>, head: Vec<Atom>) -> Self {
        Tgd { body, head }
    }

    /// Universally quantified variables: those of the body.
    pub(crate) fn universal_vars(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        for a in &self.body {
            for t in &a.terms {
                t.vars(&mut out);
            }
        }
        out
    }

    /// Existential variables: head variables not bound by the body.
    pub fn existential_vars(&self) -> BTreeSet<&str> {
        let uni = self.universal_vars();
        let mut out = BTreeSet::new();
        for a in &self.head {
            for t in &a.terms {
                t.vars(&mut out);
            }
        }
        out.retain(|v| !uni.contains(v));
        out
    }

    /// Basic well-formedness: non-empty body/head, no function symbols.
    pub fn validate(&self) -> Result<(), TgdError> {
        if self.body.is_empty() {
            return Err(TgdError::EmptyBody);
        }
        if self.head.is_empty() {
            return Err(TgdError::EmptyHead);
        }
        if self.body.iter().chain(&self.head).any(Atom::has_func) {
            return Err(TgdError::FunctionInTgd);
        }
        Ok(())
    }

    /// Validate as a *source-to-target* tgd: body over `source`, head over
    /// `target`, atom arities matching the relations' instance layouts.
    pub fn validate_st(&self, source: &Schema, target: &Schema) -> Result<(), TgdError> {
        self.validate()?;
        for a in &self.body {
            let layout = source
                .instance_layout(&a.relation)
                .ok_or_else(|| TgdError::BodyNotInSource(a.relation.clone()))?;
            if layout.len() != a.terms.len() {
                return Err(TgdError::ArityMismatch {
                    relation: a.relation.clone(),
                    expected: layout.len(),
                    actual: a.terms.len(),
                });
            }
        }
        for a in &self.head {
            let layout = target
                .instance_layout(&a.relation)
                .ok_or_else(|| TgdError::HeadNotInTarget(a.relation.clone()))?;
            if layout.len() != a.terms.len() {
                return Err(TgdError::ArityMismatch {
                    relation: a.relation.clone(),
                    expected: layout.len(),
                    actual: a.terms.len(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Tgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body: Vec<String> = self.body.iter().map(Atom::to_string).collect();
        let head: Vec<String> = self.head.iter().map(Atom::to_string).collect();
        let ex = self.existential_vars();
        if ex.is_empty() {
            write!(f, "{} -> {}", body.join(" & "), head.join(" & "))
        } else {
            let exs: Vec<&str> = ex.into_iter().collect();
            write!(f, "{} -> exists {} . {}", body.join(" & "), exs.join(","), head.join(" & "))
        }
    }
}

/// One clause of an SO-tgd: ∀x̄ (body ∧ equalities → head), where terms may
/// use the SO-tgd's function symbols.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoClause {
    pub body: Vec<Atom>,
    /// Equalities between terms (e.g. `f(x) = g(y)`), as produced by
    /// composition.
    pub eqs: Vec<(Term, Term)>,
    pub head: Vec<Atom>,
}

impl fmt::Display for SoClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = self.body.iter().map(Atom::to_string).collect();
        parts.extend(self.eqs.iter().map(|(a, b)| format!("{a} = {b}")));
        let head: Vec<String> = self.head.iter().map(Atom::to_string).collect();
        write!(f, "{} -> {}", parts.join(" & "), head.join(" & "))
    }
}

/// A second-order tgd: ∃f̄ ∧ᵢ ∀x̄ᵢ (φᵢ → ψᵢ).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoTgd {
    /// The existentially quantified function symbols.
    pub functions: Vec<String>,
    pub clauses: Vec<SoClause>,
}

impl SoTgd {
    /// Lift a set of st-tgds into an SO-tgd by Skolemizing each existential
    /// variable into a fresh function of the tgd's universal variables —
    /// the first step of the Fagin et al. composition algorithm.
    pub fn skolemize(tgds: &[Tgd], func_prefix: &str) -> SoTgd {
        let mut functions = Vec::new();
        let mut clauses = Vec::new();
        for (i, tgd) in tgds.iter().enumerate() {
            let uni: Vec<Term> =
                tgd.universal_vars().into_iter().map(Term::var).collect();
            let ex: Vec<String> =
                tgd.existential_vars().into_iter().map(String::from).collect();
            let mut subst_map = std::collections::BTreeMap::new();
            for (j, v) in ex.iter().enumerate() {
                let fname = format!("{func_prefix}{i}_{j}");
                functions.push(fname.clone());
                subst_map.insert(v.clone(), Term::Func(fname, uni.clone()));
            }
            let sub = |v: &str| subst_map.get(v).cloned();
            clauses.push(SoClause {
                body: tgd.body.clone(),
                eqs: Vec::new(),
                head: tgd.head.iter().map(|a| a.substitute(&sub)).collect(),
            });
        }
        SoTgd { functions, clauses }
    }

    /// Total number of atoms across clauses — the size metric reported by
    /// the composition benchmarks (EQ1).
    pub fn size(&self) -> usize {
        self.clauses.iter().map(|c| c.body.len() + c.head.len() + c.eqs.len()).sum()
    }
}

impl fmt::Display for SoTgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.functions.is_empty() {
            writeln!(f, "exists functions {}:", self.functions.join(", "))?;
        }
        for c in &self.clauses {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_metamodel::{DataType, SchemaBuilder};

    fn tgd_emp() -> Tgd {
        // Emp(e) -> exists m . Mgr(e, m)
        Tgd::new(vec![Atom::vars("Emp", &["e"])], vec![Atom::vars("Mgr", &["e", "m"])])
    }

    #[test]
    fn universal_and_existential_vars() {
        let t = tgd_emp();
        assert_eq!(t.universal_vars().into_iter().collect::<Vec<_>>(), ["e"]);
        assert_eq!(t.existential_vars().into_iter().collect::<Vec<_>>(), ["m"]);
    }

    #[test]
    fn validation_rejects_empty_and_functions() {
        assert_eq!(Tgd::new(vec![], vec![Atom::vars("S", &["x"])]).validate(), Err(TgdError::EmptyBody));
        assert_eq!(Tgd::new(vec![Atom::vars("R", &["x"])], vec![]).validate(), Err(TgdError::EmptyHead));
        let t = Tgd::new(
            vec![Atom::vars("R", &["x"])],
            vec![Atom::new("S", vec![Term::Func("f".into(), vec![Term::var("x")])])],
        );
        assert_eq!(t.validate(), Err(TgdError::FunctionInTgd));
    }

    #[test]
    fn st_validation_checks_schema_membership_and_arity() {
        let src = SchemaBuilder::new("Src")
            .relation("Emp", &[("e", DataType::Int)])
            .build()
            .unwrap();
        let tgt = SchemaBuilder::new("Tgt")
            .relation("Mgr", &[("e", DataType::Int), ("m", DataType::Int)])
            .build()
            .unwrap();
        assert!(tgd_emp().validate_st(&src, &tgt).is_ok());
        // wrong direction
        assert!(matches!(
            tgd_emp().validate_st(&tgt, &src),
            Err(TgdError::BodyNotInSource(_))
        ));
        // wrong arity
        let bad = Tgd::new(vec![Atom::vars("Emp", &["e", "x"])], vec![Atom::vars("Mgr", &["e", "m"])]);
        assert!(matches!(
            bad.validate_st(&src, &tgt),
            Err(TgdError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn skolemization_replaces_existentials_with_functions() {
        let so = SoTgd::skolemize(&[tgd_emp()], "f");
        assert_eq!(so.functions.len(), 1);
        let head = &so.clauses[0].head[0];
        match &head.terms[1] {
            Term::Func(name, args) => {
                assert_eq!(name, "f0_0");
                assert_eq!(args, &[Term::var("e")]);
            }
            other => panic!("expected function term, got {other}"),
        }
        // body untouched
        assert_eq!(so.clauses[0].body, vec![Atom::vars("Emp", &["e"])]);
    }

    #[test]
    fn skolemization_of_full_tgd_adds_no_functions() {
        let t = Tgd::new(vec![Atom::vars("R", &["x"])], vec![Atom::vars("S", &["x"])]);
        let so = SoTgd::skolemize(&[t], "f");
        assert!(so.functions.is_empty());
    }

    #[test]
    fn display_tgd() {
        assert_eq!(tgd_emp().to_string(), "Emp(e) -> exists m . Mgr(e, m)");
    }

    #[test]
    fn term_substitution_recurses_into_functions() {
        let t = Term::Func("f".into(), vec![Term::var("x"), Term::Const(Lit::Int(1))]);
        let r = t.substitute(&|v| (v == "x").then(|| Term::var("y")));
        assert_eq!(r, Term::Func("f".into(), vec![Term::var("y"), Term::Const(Lit::Int(1))]));
    }
}
