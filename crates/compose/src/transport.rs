//! Instance transport through an intermediate schema — the semantic
//! oracle for composition.

use mm_chase::{ChaseFailure, ChaseProgram, ChaseStats};
use mm_expr::Tgd;
use mm_guard::{ExecBudget, ExecCtx, Governor};
use mm_instance::Database;
use mm_metamodel::Schema;

/// Chase `d1` through `m12` into S2, then through `m23` into S3 — the
/// instance-level composition ⟨D1, D3⟩ realized by the canonical universal
/// intermediate instance. Returns the final instance plus both chase
/// stats (the EQ1/EQ7 benchmarks report these); a tgd the chase cannot
/// instantiate (a function term in a head) is a typed [`ChaseFailure`].
pub fn transport_via(
    s2: &Schema,
    m12: &[Tgd],
    s3: &Schema,
    m23: &[Tgd],
    d1: &Database,
) -> Result<(Database, ChaseStats, ChaseStats), ChaseFailure> {
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let d2 = ChaseProgram::compile(m12, d1).run_st(s2, d1, &mut ExecCtx::new(&mut gov))?;
    let d3 = ChaseProgram::compile(m23, &d2.target).run_st(
        s3,
        &d2.target,
        &mut ExecCtx::new(&mut gov),
    )?;
    Ok((d3.target, d2.stats, d3.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sotgd::{apply_sotgd, compose_st_tgds};
    use mm_chase::hom_equivalent;
    use mm_expr::Atom;
    use mm_instance::{Tuple, Value};
    use mm_metamodel::{DataType, SchemaBuilder};

    /// Property-style check over a family of small mappings: composed
    /// SO-tgd application agrees with transport, including when
    /// existentials chain through the intermediate schema.
    #[test]
    fn chained_existentials_transport_equivalence() {
        let s1 = SchemaBuilder::new("S1")
            .relation("A", &[("x", DataType::Int)])
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .relation("B", &[("x", DataType::Int), ("w", DataType::Int)])
            .build()
            .unwrap();
        let s3 = SchemaBuilder::new("S3")
            .relation("C", &[("x", DataType::Int), ("w", DataType::Int), ("v", DataType::Int)])
            .build()
            .unwrap();
        // A(x) -> exists w . B(x, w); B(x, w) -> exists v . C(x, w, v)
        let m12 = vec![Tgd::new(vec![Atom::vars("A", &["x"])], vec![Atom::vars("B", &["x", "w"])])];
        let m23 =
            vec![Tgd::new(vec![Atom::vars("B", &["x", "w"])], vec![Atom::vars("C", &["x", "w", "v"])])];

        let mut d1 = Database::empty_of(&s1);
        for i in 0..4 {
            d1.insert("A", Tuple::from([Value::Int(i)]));
        }

        let (d3_chase, _, _) = transport_via(&s2, &m12, &s3, &m23, &d1).unwrap();
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let so =
            compose_st_tgds(&m12, &m23, &mut ExecCtx::new(&mut gov)).unwrap();
        let d3_direct = apply_sotgd(&so, &d1, &s3, &mut gov).unwrap();
        assert!(hom_equivalent(&d3_chase, &d3_direct));
        assert_eq!(d3_direct.relation("C").unwrap().len(), 4);
    }

    #[test]
    fn multi_atom_bodies_transport_equivalence() {
        let s1 = SchemaBuilder::new("S1")
            .relation("E", &[("a", DataType::Int), ("b", DataType::Int)])
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .relation("P", &[("a", DataType::Int), ("b", DataType::Int)])
            .build()
            .unwrap();
        let s3 = SchemaBuilder::new("S3")
            .relation("Q", &[("a", DataType::Int), ("c", DataType::Int)])
            .build()
            .unwrap();
        let m12 = vec![Tgd::new(
            vec![Atom::vars("E", &["a", "b"])],
            vec![Atom::vars("P", &["a", "b"])],
        )];
        // two-hop join in the middle schema
        let m23 = vec![Tgd::new(
            vec![Atom::vars("P", &["a", "b"]), Atom::vars("P", &["b", "c"])],
            vec![Atom::vars("Q", &["a", "c"])],
        )];
        let mut d1 = Database::empty_of(&s1);
        d1.insert("E", Tuple::from([Value::Int(1), Value::Int(2)]));
        d1.insert("E", Tuple::from([Value::Int(2), Value::Int(3)]));
        d1.insert("E", Tuple::from([Value::Int(3), Value::Int(1)]));

        let (d3_chase, _, _) = transport_via(&s2, &m12, &s3, &m23, &d1).unwrap();
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let so =
            compose_st_tgds(&m12, &m23, &mut ExecCtx::new(&mut gov)).unwrap();
        let d3_direct = apply_sotgd(&so, &d1, &s3, &mut gov).unwrap();
        assert!(hom_equivalent(&d3_chase, &d3_direct));
        assert_eq!(d3_direct.relation("Q").unwrap().len(), 3);
    }
}
