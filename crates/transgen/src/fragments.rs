//! Recognizing Figure 2-style mapping constraints as *fragments*.
//!
//! A fragment is the structured reading of one constraint
//! `π_cols(σ_types(extent)) = table-expr`: which slice of which entity
//! hierarchy equals which relational expression. TransGen's compilation
//! works on fragments rather than raw ASTs.

use mm_expr::{entity_extent, Expr, Mapping, MappingConstraint, Predicate};
use mm_metamodel::Schema;
use std::fmt;

/// One type alternative of a fragment's membership test: `IS OF ty` /
/// `IS OF ONLY ty`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeAlt {
    pub ty: String,
    pub only: bool,
}

/// A structured Figure 2 constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// The entity type whose extent the source side selects from.
    pub extent_type: String,
    /// Root of the hierarchy `extent_type` belongs to.
    pub root: String,
    /// OR-ed type membership alternatives; empty means "all of the
    /// extent" (equivalent to `IS OF extent_type`).
    pub types: Vec<TypeAlt>,
    /// Projected entity attributes (in order), first ones forming the key.
    pub columns: Vec<String>,
    /// The relational side, with output columns positionally matching
    /// `columns`.
    pub table_expr: Expr,
    /// Table name when the relational side is a bare relation scan.
    pub table: Option<String>,
}

impl Fragment {
    /// Does an entity of most-derived type `ty` belong to this fragment?
    pub(crate) fn contains_type(&self, schema: &Schema, ty: &str) -> bool {
        if !schema.is_subtype(ty, &self.extent_type) {
            return false;
        }
        if self.types.is_empty() {
            return true;
        }
        self.types.iter().any(|alt| {
            if alt.only {
                alt.ty == ty
            } else {
                schema.is_subtype(ty, &alt.ty)
            }
        })
    }
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let types: Vec<String> = self
            .types
            .iter()
            .map(|a| {
                if a.only {
                    format!("ONLY {}", a.ty)
                } else {
                    a.ty.clone()
                }
            })
            .collect();
        write!(
            f,
            "π[{}](σ[{}]({})) = {}",
            self.columns.join(", "),
            if types.is_empty() { "*".to_string() } else { types.join(" | ") },
            self.extent_type,
            self.table.as_deref().unwrap_or("<expr>")
        )
    }
}

/// Errors from fragment recognition / compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum TransGenError {
    /// A constraint is not in the recognizable Figure 2 shape.
    Unrecognized(String),
    /// A constraint is recognized but refers to unknown schema parts.
    BadReference(String),
    /// The relational side's arity disagrees with the projected columns.
    ArityMismatch { constraint: String, source: usize, target: usize },
    /// No constraints for an entity hierarchy that the mapping claims to
    /// cover.
    Empty,
    /// Two entity types have identical fragment-membership vectors, so
    /// the reconstructed type of a row cannot be decided (an invalid
    /// mapping in the ADO.NET sense).
    AmbiguousTypes { left: String, right: String },
    /// No key columns shared by every fragment of a hierarchy, and no
    /// declared key — the fragments cannot be joined back together.
    NoJoinKey(String),
}

impl fmt::Display for TransGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransGenError::Unrecognized(c) => write!(f, "unrecognized constraint: {c}"),
            TransGenError::BadReference(m) => write!(f, "bad reference: {m}"),
            TransGenError::ArityMismatch { constraint, source, target } => write!(
                f,
                "arity mismatch in `{constraint}`: source {source} vs target {target}"
            ),
            TransGenError::Empty => f.write_str("no fragments"),
            TransGenError::AmbiguousTypes { left, right } => {
                write!(f, "types `{left}` and `{right}` are indistinguishable under the mapping")
            }
            TransGenError::NoJoinKey(root) => {
                write!(f, "hierarchy `{root}` has no join key across fragments")
            }
        }
    }
}

impl std::error::Error for TransGenError {}

/// Flatten an OR-tree of `IsOf` predicates into type alternatives.
fn parse_type_pred(p: &Predicate) -> Option<Vec<TypeAlt>> {
    match p {
        Predicate::IsOf { ty, only } => Some(vec![TypeAlt { ty: ty.clone(), only: *only }]),
        Predicate::Or(a, b) => {
            let mut l = parse_type_pred(a)?;
            l.extend(parse_type_pred(b)?);
            Some(l)
        }
        _ => None,
    }
}

#[allow(clippy::expect_used)] // invariant-backed: see expect messages
/// Try to recognize the source side as `π_cols(σ_types(ext(T)))`,
/// `π_cols(ext(T))`, or `σ_types(ext(T))` for some entity type `T` of
/// `er`.
fn parse_source(er: &Schema, src: &Expr) -> Option<(String, Vec<TypeAlt>, Vec<String>)> {
    // peel optional projection
    let (inner, columns): (&Expr, Option<Vec<String>>) = match src {
        Expr::Project { input, columns } => (input, Some(columns.clone())),
        other => (other, None),
    };
    // peel optional selection
    let (core, types): (&Expr, Vec<TypeAlt>) = match inner {
        Expr::Select { input, predicate } => (input, parse_type_pred(predicate)?),
        other => (other, Vec::new()),
    };
    // the core must be the extent of some entity type
    for e in er.elements() {
        if !e.is_entity_type() {
            continue;
        }
        if let Ok(ext) = entity_extent(er, &e.name) {
            if &ext == core {
                let columns = columns.unwrap_or_else(|| {
                    er.instance_layout(&e.name)
                        .expect("entity layout")
                        .into_iter()
                        .map(|a| a.name)
                        .collect()
                });
                return Some((e.name.clone(), types, columns));
            }
        }
    }
    None
}

#[allow(clippy::expect_used)] // invariant-backed: see expect messages
/// Parse every constraint of `mapping` into fragments. The mapping's
/// source schema is the ER side (`er`), its target the relational side
/// (`rel`).
pub fn parse_fragments(
    er: &Schema,
    rel: &Schema,
    mapping: &Mapping,
) -> Result<Vec<Fragment>, TransGenError> {
    let mut out = Vec::new();
    for c in &mapping.constraints {
        let MappingConstraint::ExprEq { source, target } = c else {
            return Err(TransGenError::Unrecognized(c.to_string()));
        };
        let Some((extent_type, types, columns)) = parse_source(er, source) else {
            return Err(TransGenError::Unrecognized(c.to_string()));
        };
        let root = er
            .ancestry(&extent_type)
            .map_err(|e| TransGenError::BadReference(e.to_string()))?
            .last()
            .map(|s| s.to_string())
            .expect("ancestry non-empty");
        // target arity check
        let tgt_attrs = mm_expr::output_schema(target, rel)
            .map_err(|e| TransGenError::BadReference(e.to_string()))?;
        if tgt_attrs.len() != columns.len() {
            return Err(TransGenError::ArityMismatch {
                constraint: c.to_string(),
                source: columns.len(),
                target: tgt_attrs.len(),
            });
        }
        let table = match target {
            Expr::Base(n) => Some(n.clone()),
            _ => None,
        };
        out.push(Fragment {
            extent_type,
            root,
            types,
            columns,
            table_expr: target.clone(),
            table,
        });
    }
    if out.is_empty() {
        return Err(TransGenError::Empty);
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mm_metamodel::{DataType, SchemaBuilder};

    pub(crate) fn fig2_er() -> Schema {
        SchemaBuilder::new("ER")
            .entity("Person", &[("Id", DataType::Int), ("Name", DataType::Text)])
            .entity_sub("Employee", "Person", &[("Dept", DataType::Text)])
            .entity_sub("Customer", "Person", &[
                ("CreditScore", DataType::Int),
                ("BillingAddr", DataType::Text),
            ])
            .key("Person", &["Id"])
            .build()
            .unwrap()
    }

    pub(crate) fn fig2_rel() -> Schema {
        SchemaBuilder::new("SQL")
            .relation("HR", &[("Id", DataType::Int), ("Name", DataType::Text)])
            .relation("Empl", &[("Id", DataType::Int), ("Dept", DataType::Text)])
            .relation("Client", &[
                ("Id", DataType::Int),
                ("Name", DataType::Text),
                ("Score", DataType::Int),
                ("Addr", DataType::Text),
            ])
            .build()
            .unwrap()
    }

    /// The paper's Figure 2, expressed in the engine's algebra.
    pub(crate) fn fig2_mapping(er: &Schema) -> Mapping {
        let ext = |ty: &str| entity_extent(er, ty).unwrap();
        let mut m = Mapping::new("ER", "SQL");
        // 1. persons that are ONLY Person or ONLY Employee -> HR
        m.push(MappingConstraint::ExprEq {
            source: ext("Person")
                .select(
                    Predicate::IsOf { ty: "Person".into(), only: true }.or(Predicate::IsOf {
                        ty: "Employee".into(),
                        only: true,
                    }),
                )
                .project(&["Id", "Name"]),
            target: Expr::base("HR"),
        });
        // 2. employees -> Empl
        m.push(MappingConstraint::ExprEq {
            source: ext("Employee")
                .select(Predicate::IsOf { ty: "Employee".into(), only: false })
                .project(&["Id", "Dept"]),
            target: Expr::base("Empl"),
        });
        // 3. customers -> Client (note the renamed columns Score/Addr)
        m.push(MappingConstraint::ExprEq {
            source: ext("Customer")
                .select(Predicate::IsOf { ty: "Customer".into(), only: false })
                .project(&["Id", "Name", "CreditScore", "BillingAddr"]),
            target: Expr::base("Client"),
        });
        m
    }

    #[test]
    fn fig2_constraints_parse_into_fragments() {
        let er = fig2_er();
        let rel = fig2_rel();
        let frags = parse_fragments(&er, &rel, &fig2_mapping(&er)).unwrap();
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].extent_type, "Person");
        assert_eq!(frags[0].types.len(), 2);
        assert!(frags[0].types.iter().all(|t| t.only));
        assert_eq!(frags[1].columns, ["Id", "Dept"]);
        assert_eq!(frags[2].table.as_deref(), Some("Client"));
        assert_eq!(frags[2].root, "Person");
    }

    #[test]
    fn membership_respects_only_and_subtyping() {
        let er = fig2_er();
        let rel = fig2_rel();
        let frags = parse_fragments(&er, &rel, &fig2_mapping(&er)).unwrap();
        let hr = &frags[0];
        assert!(hr.contains_type(&er, "Person"));
        assert!(hr.contains_type(&er, "Employee"));
        assert!(!hr.contains_type(&er, "Customer"));
        let empl = &frags[1];
        assert!(empl.contains_type(&er, "Employee"));
        assert!(!empl.contains_type(&er, "Person"));
        let client = &frags[2];
        assert!(client.contains_type(&er, "Customer"));
        assert!(!client.contains_type(&er, "Employee"));
    }

    #[test]
    fn unselected_extent_means_whole_type() {
        let er = fig2_er();
        let rel = SchemaBuilder::new("SQL")
            .relation("T", &[("Id", DataType::Int), ("Dept", DataType::Text)])
            .build()
            .unwrap();
        let m = Mapping::with_constraints(
            "ER",
            "SQL",
            vec![MappingConstraint::ExprEq {
                source: entity_extent(&er, "Employee").unwrap().project(&["Id", "Dept"]),
                target: Expr::base("T"),
            }],
        );
        let frags = parse_fragments(&er, &rel, &m).unwrap();
        assert!(frags[0].types.is_empty());
        assert!(frags[0].contains_type(&er, "Employee"));
        assert!(!frags[0].contains_type(&er, "Customer"));
    }

    #[test]
    fn arity_mismatch_detected() {
        let er = fig2_er();
        let rel = fig2_rel();
        let m = Mapping::with_constraints(
            "ER",
            "SQL",
            vec![MappingConstraint::ExprEq {
                source: entity_extent(&er, "Person").unwrap().project(&["Id"]),
                target: Expr::base("HR"),
            }],
        );
        assert!(matches!(
            parse_fragments(&er, &rel, &m),
            Err(TransGenError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn non_extent_source_rejected() {
        let er = fig2_er();
        let rel = fig2_rel();
        let m = Mapping::with_constraints(
            "ER",
            "SQL",
            vec![MappingConstraint::ExprEq {
                source: Expr::base("Person"), // bare set, not the extent
                target: Expr::base("HR"),
            }],
        );
        assert!(matches!(
            parse_fragments(&er, &rel, &m),
            Err(TransGenError::Unrecognized(_))
        ));
    }
}
