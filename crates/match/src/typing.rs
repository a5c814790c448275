//! Data-type compatibility scoring for attribute pairs.

use mm_metamodel::Attribute;

/// Similarity contribution of the attribute types: the metamodel's type
/// similarity scaled to leave head-room for a nullability-agreement bonus
/// (two nullable or two mandatory attributes are slightly more alike).
pub(crate) fn type_similarity(a: &Attribute, b: &Attribute) -> f64 {
    let base = 0.95 * a.ty.similarity(b.ty);
    let null_bonus = if a.nullable == b.nullable { 0.05 } else { 0.0 };
    base + null_bonus
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_metamodel::DataType;

    #[test]
    fn same_type_scores_high() {
        let a = Attribute::new("x", DataType::Int);
        let b = Attribute::new("y", DataType::Int);
        assert!(type_similarity(&a, &b) >= 1.0);
    }

    #[test]
    fn numeric_widening_scores_mid() {
        let a = Attribute::new("x", DataType::Int);
        let b = Attribute::new("y", DataType::Double);
        let s = type_similarity(&a, &b);
        assert!(s > 0.7 && s < 1.0);
    }

    #[test]
    fn incompatible_types_score_low() {
        let a = Attribute::new("x", DataType::Text);
        let b = Attribute::new("y", DataType::Bool);
        assert!(type_similarity(&a, &b) < 0.3);
    }

    #[test]
    fn nullability_mismatch_loses_bonus() {
        let a = Attribute::new("x", DataType::Int);
        let b = Attribute::nullable("y", DataType::Int);
        let c = Attribute::new("z", DataType::Int);
        assert!(type_similarity(&a, &c) > type_similarity(&a, &b));
    }
}
