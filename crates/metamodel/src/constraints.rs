//! Intra-schema integrity constraints.
//!
//! These are constraints on *one* schema, as opposed to the mapping
//! constraints of `mm-expr` which relate two schemas (§2 of the paper
//! draws exactly this distinction). The runtime needs them to reason about
//! constraint propagation across mappings (§5, "Integrity constraints"),
//! and ModelGen emits them when constructs are translated (e.g. the
//! disjointness of sibling subtypes becomes unrepresentable when classes
//! map to distinct tables — the paper's own example).

use crate::error::MetamodelError;
use crate::schema::Schema;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Key constraint: the given attributes uniquely identify a tuple/entity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Key {
    pub element: String,
    pub attributes: Vec<String>,
}

/// Foreign key: `from.(from_attrs)` references `to.(to_attrs)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    pub from: String,
    pub from_attrs: Vec<String>,
    pub to: String,
    pub to_attrs: Vec<String>,
}

/// Inclusion dependency: π(from_attrs)(from) ⊆ π(to_attrs)(to). A foreign
/// key is an inclusion dependency into a key; the general form is needed
/// for constraint propagation through mappings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InclusionDependency {
    pub from: String,
    pub from_attrs: Vec<String>,
    pub to: String,
    pub to_attrs: Vec<String>,
}

/// The integrity constraints of the universal metamodel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Constraint {
    Key(Key),
    ForeignKey(ForeignKey),
    Inclusion(InclusionDependency),
    /// Two sets of entity-type instances are disjoint (no shared entity is
    /// an instance of both most-derived types).
    Disjoint { left: String, right: String },
    /// Every instance of `parent` is an instance of one of `children`
    /// (total specialization).
    Covering { parent: String, children: Vec<String> },
    /// An attribute may not be null (expressed separately from the
    /// attribute's own nullability so ModelGen can move it between
    /// elements).
    NotNull { element: String, attribute: String },
}

impl Constraint {
    /// Every element the constraint mentions.
    pub fn elements(&self) -> Vec<&str> {
        match self {
            Constraint::Key(k) => vec![k.element.as_str()],
            Constraint::ForeignKey(fk) => vec![fk.from.as_str(), fk.to.as_str()],
            Constraint::Inclusion(i) => vec![i.from.as_str(), i.to.as_str()],
            Constraint::Disjoint { left, right } => vec![left.as_str(), right.as_str()],
            Constraint::Covering { parent, children } => {
                let mut v = vec![parent.as_str()];
                v.extend(children.iter().map(String::as_str));
                v
            }
            Constraint::NotNull { element, .. } => vec![element.as_str()],
        }
    }

    /// Validate that everything the constraint mentions exists in `schema`
    /// and is well-formed (arity matches, attributes exist).
    pub fn check(&self, schema: &Schema) -> Result<(), MetamodelError> {
        let check_attrs = |element: &str, attrs: &[String]| -> Result<(), MetamodelError> {
            let all = schema.all_attributes(element)?;
            for a in attrs {
                if !all.iter().any(|x| &x.name == a) {
                    return Err(MetamodelError::UnknownAttribute {
                        element: element.to_string(),
                        attribute: a.clone(),
                    });
                }
            }
            Ok(())
        };
        match self {
            Constraint::Key(k) => {
                if k.attributes.is_empty() {
                    return Err(MetamodelError::MalformedConstraint("empty key".into()));
                }
                check_attrs(&k.element, &k.attributes)
            }
            Constraint::ForeignKey(fk) => {
                if fk.from_attrs.len() != fk.to_attrs.len() || fk.from_attrs.is_empty() {
                    return Err(MetamodelError::MalformedConstraint(format!(
                        "foreign key {} -> {} arity mismatch",
                        fk.from, fk.to
                    )));
                }
                check_attrs(&fk.from, &fk.from_attrs)?;
                check_attrs(&fk.to, &fk.to_attrs)
            }
            Constraint::Inclusion(i) => {
                if i.from_attrs.len() != i.to_attrs.len() || i.from_attrs.is_empty() {
                    return Err(MetamodelError::MalformedConstraint(format!(
                        "inclusion {} -> {} arity mismatch",
                        i.from, i.to
                    )));
                }
                check_attrs(&i.from, &i.from_attrs)?;
                check_attrs(&i.to, &i.to_attrs)
            }
            Constraint::Disjoint { left, right } => {
                for e in [left, right] {
                    if schema.element(e).is_none() {
                        return Err(MetamodelError::UnknownElement(e.clone()));
                    }
                }
                Ok(())
            }
            Constraint::Covering { parent, children } => {
                if children.is_empty() {
                    return Err(MetamodelError::MalformedConstraint("empty covering".into()));
                }
                for e in std::iter::once(parent).chain(children.iter()) {
                    if schema.element(e).is_none() {
                        return Err(MetamodelError::UnknownElement(e.clone()));
                    }
                }
                Ok(())
            }
            Constraint::NotNull { element, attribute } => {
                check_attrs(element, std::slice::from_ref(attribute))
            }
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Key(k) => {
                write!(f, "key {}({})", k.element, k.attributes.join(", "))
            }
            Constraint::ForeignKey(fk) => write!(
                f,
                "fk {}({}) -> {}({})",
                fk.from,
                fk.from_attrs.join(", "),
                fk.to,
                fk.to_attrs.join(", ")
            ),
            Constraint::Inclusion(i) => write!(
                f,
                "incl {}({}) <= {}({})",
                i.from,
                i.from_attrs.join(", "),
                i.to,
                i.to_attrs.join(", ")
            ),
            Constraint::Disjoint { left, right } => write!(f, "disjoint({left}, {right})"),
            Constraint::Covering { parent, children } => {
                write!(f, "covering {} = {}", parent, children.join(" | "))
            }
            Constraint::NotNull { element, attribute } => {
                write!(f, "notnull {element}.{attribute}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::types::DataType;

    fn rel_schema() -> Schema {
        SchemaBuilder::new("S")
            .relation("R", &[("a", DataType::Int), ("b", DataType::Text)])
            .relation("T", &[("x", DataType::Int)])
            .build()
            .unwrap()
    }

    #[test]
    fn key_over_unknown_attribute_rejected() {
        let mut s = rel_schema();
        let err = s
            .add_constraint(Constraint::Key(Key {
                element: "R".into(),
                attributes: vec!["zzz".into()],
            }))
            .unwrap_err();
        assert!(matches!(err, MetamodelError::UnknownAttribute { .. }));
    }

    #[test]
    fn empty_key_rejected() {
        let mut s = rel_schema();
        let err = s
            .add_constraint(Constraint::Key(Key { element: "R".into(), attributes: vec![] }))
            .unwrap_err();
        assert!(matches!(err, MetamodelError::MalformedConstraint(_)));
    }

    #[test]
    fn fk_arity_mismatch_rejected() {
        let mut s = rel_schema();
        let err = s
            .add_constraint(Constraint::ForeignKey(ForeignKey {
                from: "R".into(),
                from_attrs: vec!["a".into(), "b".into()],
                to: "T".into(),
                to_attrs: vec!["x".into()],
            }))
            .unwrap_err();
        assert!(matches!(err, MetamodelError::MalformedConstraint(_)));
    }

    #[test]
    fn valid_fk_accepted_and_displayed() {
        let mut s = rel_schema();
        s.add_constraint(Constraint::ForeignKey(ForeignKey {
            from: "R".into(),
            from_attrs: vec!["a".into()],
            to: "T".into(),
            to_attrs: vec!["x".into()],
        }))
        .unwrap();
        assert_eq!(s.constraints.len(), 1);
        assert_eq!(s.constraints[0].to_string(), "fk R(a) -> T(x)");
    }

    #[test]
    fn key_on_inherited_attribute_is_valid() {
        let mut s = SchemaBuilder::new("ER")
            .entity("P", &[("Id", DataType::Int)])
            .entity_sub("E", "P", &[("D", DataType::Text)])
            .build()
            .unwrap();
        s.add_constraint(Constraint::Key(Key {
            element: "E".into(),
            attributes: vec!["Id".into()], // inherited from P
        }))
        .unwrap();
    }

    #[test]
    fn covering_lists_parent_then_children() {
        let c = Constraint::Covering {
            parent: "P".into(),
            children: vec!["E".into(), "C".into()],
        };
        assert_eq!(c.elements(), vec!["P", "E", "C"]);
    }
}
