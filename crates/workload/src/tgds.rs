//! tgd-mapping generators for the composition benchmarks (EQ1, EQ7).

// Fixture generators: schemas/data/tgd sets are built from static,
// known-good literals; `expect`/`unwrap` failures are generator bugs,
// not runtime failure modes (DESIGN.md §7).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mm_expr::{Atom, Tgd};
use mm_metamodel::{Attribute, DataType, Element, ElementKind, Schema};

/// A schema of `n` binary relations `R0..Rn-1`.
pub fn binary_schema(name: &str, prefix: &str, n: usize) -> Schema {
    let mut s = Schema::new(name);
    for i in 0..n {
        s.add_element(Element {
            name: format!("{prefix}{i}"),
            kind: ElementKind::Relation,
            attributes: vec![
                Attribute::new("a", DataType::Int),
                Attribute::new("b", DataType::Int),
            ],
        })
        .expect("unique names");
    }
    s
}

/// Simple copy tgds `Ai(x,y) -> Bi(x,y)` for `n` relations.
pub fn copy_tgds(from_prefix: &str, to_prefix: &str, n: usize) -> Vec<Tgd> {
    (0..n)
        .map(|i| {
            Tgd::new(
                vec![Atom::vars(format!("{from_prefix}{i}"), &["x", "y"])],
                vec![Atom::vars(format!("{to_prefix}{i}"), &["x", "y"])],
            )
        })
        .collect()
}

/// A composition workload engineered to exercise the exponential splice:
///
/// * `m12`: `producers` tgds each producing the single mid relation `M0`
///   from distinct source relations (`S0..`), each head introducing an
///   existential;
/// * `m23`: one tgd whose body joins `body_atoms` copies of `M0` into the
///   target `T0`.
///
/// The spliced SO-tgd has `producers ^ body_atoms` clauses.
pub fn composition_chain(
    producers: usize,
    body_atoms: usize,
) -> (Schema, Schema, Schema, Vec<Tgd>, Vec<Tgd>) {
    let s1 = binary_schema("S1", "S", producers);
    let s2 = binary_schema("S2", "M", 1);
    let mut s3 = Schema::new("S3");
    s3.add_element(Element {
        name: "T0".into(),
        kind: ElementKind::Relation,
        attributes: (0..=body_atoms)
            .map(|i| Attribute::new(format!("c{i}"), DataType::Int))
            .collect(),
    })
    .expect("single element");

    let m12: Vec<Tgd> = (0..producers)
        .map(|i| {
            // Si(x, y) -> exists z . M0(x, z)
            Tgd::new(
                vec![Atom::vars(format!("S{i}"), &["x", "y"])],
                vec![Atom::vars("M0", &["x", "z"])],
            )
        })
        .collect();

    // M0(v0,v1) & M0(v1,v2) & ... -> T0(v0..vk)
    let body: Vec<Atom> = (0..body_atoms)
        .map(|i| {
            Atom::vars(
                "M0",
                &[format!("v{i}"), format!("v{}", i + 1)]
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let head_vars: Vec<String> = (0..=body_atoms).map(|i| format!("v{i}")).collect();
    let m23 = vec![Tgd::new(
        body,
        vec![Atom::vars("T0", &head_vars.iter().map(String::as_str).collect::<Vec<_>>())],
    )];

    (s1, s2, s3, m12, m23)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_compose::compose_st_tgds;
    use mm_guard::{ExecBudget, ExecCtx, Governor};

    #[test]
    fn copy_tgds_validate() {
        let src = binary_schema("A", "A", 3);
        let tgt = binary_schema("B", "B", 3);
        for t in copy_tgds("A", "B", 3) {
            t.validate_st(&src, &tgt).unwrap();
        }
    }

    #[test]
    fn composition_chain_clause_count_is_exponential() {
        for (p, b) in [(2usize, 2usize), (2, 3), (3, 2), (3, 3)] {
            let (_, _, _, m12, m23) = composition_chain(p, b);
            let mut gov = Governor::new(&ExecBudget::unbounded());
            let ctx = &mut ExecCtx::new(&mut gov);
            let so = compose_st_tgds(&m12, &m23, ctx).unwrap();
            assert_eq!(so.clauses.len(), p.pow(b as u32), "producers={p} atoms={b}");
        }
    }

    #[test]
    fn chain_mappings_validate_against_their_schemas() {
        let (s1, s2, s3, m12, m23) = composition_chain(3, 2);
        for t in &m12 {
            t.validate_st(&s1, &s2).unwrap();
        }
        for t in &m23 {
            t.validate_st(&s2, &s3).unwrap();
        }
    }
}
