//! ER → relational translation: inheritance elimination.

// Translator-internal lookups are guarded by construction (schemas and
// view sets built in this module); `expect` here documents invariants,
// not caller-facing failure modes (DESIGN.md §7).
#![allow(clippy::expect_used)]

use mm_expr::{entity_extent, Expr, Mapping, MappingConstraint, Predicate, Scalar, ViewDef, ViewSet};
use mm_metamodel::{
    Attribute, Constraint, DataType, Element, ElementKind, ForeignKey, Key, Metamodel,
    MetamodelError, Schema, TYPE_ATTR,
};
use std::fmt;

/// How is-a hierarchies map to tables. The paper (§3.2) calls for "a
/// flexible mapping of inheritance hierarchies to tables, which is needed
/// for complex enterprise applications"; these are the three classical
/// strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InheritanceStrategy {
    /// Table per type holding the key plus the type's *own* attributes
    /// (TPT). Reconstructing an entity joins the chain — the shape of the
    /// paper's Figure 2/3 example.
    Vertical,
    /// Table per concrete type holding *all* (inherited + own) attributes
    /// (TPC). No joins to reconstruct, but supertype queries union.
    Horizontal,
    /// Single table per hierarchy with a type discriminator and nullable
    /// subtype columns (TPH).
    Flat,
}

impl fmt::Display for InheritanceStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InheritanceStrategy::Vertical => "vertical",
            InheritanceStrategy::Horizontal => "horizontal",
            InheritanceStrategy::Flat => "flat",
        })
    }
}

/// Errors from ModelGen rules.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelGenError {
    /// The input schema does not conform to the expected source profile.
    WrongProfile { expected: Metamodel, violations: Vec<String> },
    /// An entity hierarchy has no usable key (no key constraint and no
    /// attributes on the root).
    NoKey(String),
    /// Schema construction failed (e.g. generated name collision).
    Construction(MetamodelError),
    /// Attribute name collision while flattening a hierarchy.
    AttributeCollision { hierarchy: String, attribute: String },
}

impl fmt::Display for ModelGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelGenError::WrongProfile { expected, violations } => {
                write!(f, "schema outside {expected} profile: {}", violations.join("; "))
            }
            ModelGenError::NoKey(h) => write!(f, "hierarchy `{h}` has no key"),
            ModelGenError::Construction(e) => write!(f, "construction: {e}"),
            ModelGenError::AttributeCollision { hierarchy, attribute } => {
                write!(f, "attribute `{attribute}` collides in hierarchy `{hierarchy}`")
            }
        }
    }
}

impl std::error::Error for ModelGenError {}

impl From<MetamodelError> for ModelGenError {
    fn from(e: MetamodelError) -> Self {
        ModelGenError::Construction(e)
    }
}

/// The output of a ModelGen rule application: the translated schema, the
/// declarative mapping constraints between source and target, and the
/// forward transformation (target relations as queries over the source).
#[derive(Debug, Clone)]
pub struct ModelGenResult {
    pub schema: Schema,
    pub mapping: Mapping,
    pub views: ViewSet,
}

/// The key attributes of the hierarchy rooted at `root`: the root's key
/// constraint if present, otherwise its first attribute.
pub(crate) fn hierarchy_key(schema: &Schema, root: &str) -> Result<Vec<Attribute>, ModelGenError> {
    let attrs = schema.all_attributes(root).map_err(ModelGenError::Construction)?;
    for c in &schema.constraints {
        if let Constraint::Key(Key { element, attributes }) = c {
            if element == root {
                let key: Option<Vec<Attribute>> = attributes
                    .iter()
                    .map(|k| attrs.iter().find(|a| &a.name == k).cloned())
                    .collect();
                if let Some(k) = key {
                    return Ok(k);
                }
            }
        }
    }
    attrs
        .first()
        .cloned()
        .map(|a| vec![a])
        .ok_or_else(|| ModelGenError::NoKey(root.to_string()))
}

fn check_profile(schema: &Schema, expected: Metamodel) -> Result<(), ModelGenError> {
    let violations = expected.violations(schema);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(ModelGenError::WrongProfile {
            expected,
            violations: violations.iter().map(|v| v.to_string()).collect(),
        })
    }
}

/// Translate an ER schema (entity types + associations) into a flat
/// relational schema, with mapping constraints and forward views.
pub fn er_to_relational(
    er: &Schema,
    strategy: InheritanceStrategy,
) -> Result<ModelGenResult, ModelGenError> {
    check_profile(er, Metamodel::EntityRelationship)?;
    let rel_name = format!("{}_rel", er.name);
    let mut rel = Schema::new(rel_name.clone());
    let mut mapping = Mapping::new(er.name.clone(), rel_name.clone());
    let mut views = ViewSet::new(er.name.clone(), rel_name.clone());

    let roots: Vec<&Element> = er.roots().collect();
    for root in &roots {
        let key = hierarchy_key(er, &root.name)?;
        match strategy {
            InheritanceStrategy::Vertical => {
                translate_vertical(er, &root.name, &key, &mut rel, &mut mapping, &mut views)?
            }
            InheritanceStrategy::Horizontal => {
                translate_horizontal(er, &root.name, &mut rel, &mut mapping, &mut views)?
            }
            InheritanceStrategy::Flat => {
                translate_flat(er, &root.name, &key, &mut rel, &mut mapping, &mut views)?
            }
        }
    }

    // associations become link tables over the ends' keys
    for e in er.elements() {
        if let ElementKind::Association { from, to, .. } = &e.kind {
            let from_root = er.ancestry(from).map_err(ModelGenError::Construction)?;
            let to_root = er.ancestry(to).map_err(ModelGenError::Construction)?;
            let fk_ty = |root_chain: &[&str]| -> Result<DataType, ModelGenError> {
                let root = root_chain.last().expect("ancestry non-empty");
                Ok(hierarchy_key(er, root)?[0].ty)
            };
            rel.add_element(Element {
                name: e.name.clone(),
                kind: ElementKind::Relation,
                attributes: vec![
                    Attribute::new("from_key", fk_ty(&from_root)?),
                    Attribute::new("to_key", fk_ty(&to_root)?),
                ],
            })?;
            let link = Expr::base(e.name.clone())
                .rename(&[("$from", "from_key"), ("$to", "to_key")]);
            mapping.push(MappingConstraint::ExprEq {
                source: link.clone(),
                target: Expr::base(e.name.clone()),
            });
            views.push(ViewDef::new(e.name.clone(), link));
        }
    }

    Ok(ModelGenResult { schema: rel, mapping, views })
}

/// TPT: one table per type with the key + own attributes; subtype tables
/// foreign-key into their parent's table.
fn translate_vertical(
    er: &Schema,
    root: &str,
    key: &[Attribute],
    rel: &mut Schema,
    mapping: &mut Mapping,
    views: &mut ViewSet,
) -> Result<(), ModelGenError> {
    for ty in er.subtree(root) {
        let elem = er.element(ty).expect("subtree member exists");
        let mut cols: Vec<Attribute> = key.to_vec();
        for a in &elem.attributes {
            if cols.iter().any(|c| c.name == a.name) {
                // key attribute re-declared locally (root case) — skip dup
                if ty != root {
                    return Err(ModelGenError::AttributeCollision {
                        hierarchy: root.to_string(),
                        attribute: a.name.clone(),
                    });
                }
                continue;
            }
            cols.push(a.clone());
        }
        let col_names: Vec<String> = cols.iter().map(|c| c.name.clone()).collect();
        rel.add_element(Element {
            name: ty.to_string(),
            kind: ElementKind::Relation,
            attributes: cols,
        })?;
        rel.add_constraint(Constraint::Key(Key {
            element: ty.to_string(),
            attributes: key.iter().map(|k| k.name.clone()).collect(),
        }))?;
        if let Some(parent) = er.parent_of(ty) {
            rel.add_constraint(Constraint::ForeignKey(ForeignKey {
                from: ty.to_string(),
                from_attrs: key.iter().map(|k| k.name.clone()).collect(),
                to: parent.to_string(),
                to_attrs: key.iter().map(|k| k.name.clone()).collect(),
            }))?;
        }
        // π_{key ∪ own}(ext(ty)) = table ty
        let src = entity_extent(er, ty)
            .expect("entity type checked")
            .project_owned(col_names);
        mapping.push(MappingConstraint::ExprEq {
            source: src.clone(),
            target: Expr::base(ty),
        });
        views.push(ViewDef::new(ty, src));
    }
    Ok(())
}

/// TPC: one table per type with all flattened attributes; rows are the
/// entities whose most-derived type is exactly that type.
fn translate_horizontal(
    er: &Schema,
    root: &str,
    rel: &mut Schema,
    mapping: &mut Mapping,
    views: &mut ViewSet,
) -> Result<(), ModelGenError> {
    for ty in er.subtree(root) {
        let cols = er.all_attributes(ty).map_err(ModelGenError::Construction)?;
        let col_names: Vec<String> = cols.iter().map(|c| c.name.clone()).collect();
        rel.add_element(Element {
            name: ty.to_string(),
            kind: ElementKind::Relation,
            attributes: cols,
        })?;
        // π_attrs(σ_{IS OF ONLY ty}(ext(ty))) = table ty
        let src = entity_extent(er, ty)
            .expect("entity type checked")
            .select(Predicate::IsOf { ty: ty.to_string(), only: true })
            .project_owned(col_names);
        mapping.push(MappingConstraint::ExprEq {
            source: src.clone(),
            target: Expr::base(ty),
        });
        views.push(ViewDef::new(ty, src));
    }
    Ok(())
}

/// TPH: one table per hierarchy with a `type` discriminator column and
/// nullable columns for every subtype attribute.
fn translate_flat(
    er: &Schema,
    root: &str,
    key: &[Attribute],
    rel: &mut Schema,
    mapping: &mut Mapping,
    views: &mut ViewSet,
) -> Result<(), ModelGenError> {
    // collect all attributes of the subtree; root attrs stay mandatory,
    // subtype attrs become nullable
    let mut cols: Vec<Attribute> = vec![Attribute::new("type", DataType::Text)];
    let root_attrs = er.all_attributes(root).map_err(ModelGenError::Construction)?;
    cols.extend(root_attrs.iter().cloned());
    for ty in er.subtree(root) {
        if ty == root {
            continue;
        }
        for a in &er.element(ty).expect("subtree member").attributes {
            if cols.iter().any(|c| c.name == a.name) {
                return Err(ModelGenError::AttributeCollision {
                    hierarchy: root.to_string(),
                    attribute: a.name.clone(),
                });
            }
            cols.push(Attribute::nullable(a.name.clone(), a.ty));
        }
    }
    let all_names: Vec<String> = cols.iter().map(|c| c.name.clone()).collect();
    rel.add_element(Element {
        name: root.to_string(),
        kind: ElementKind::Relation,
        attributes: cols.clone(),
    })?;
    rel.add_constraint(Constraint::Key(Key {
        element: root.to_string(),
        attributes: key.iter().map(|k| k.name.clone()).collect(),
    }))?;

    // forward view: union over types of (σ ONLY ty (ext(ty))) padded with
    // NULLs for the columns the type lacks, with $type renamed to `type`
    let mut union: Option<Expr> = None;
    for ty in er.subtree(root) {
        let ty_attrs = er.all_attributes(ty).map_err(ModelGenError::Construction)?;
        let mut branch = entity_extent(er, ty)
            .expect("entity type checked")
            .select(Predicate::IsOf { ty: ty.to_string(), only: true })
            .rename(&[(TYPE_ATTR, "type")]);
        for c in &cols {
            if c.name != "type" && !ty_attrs.iter().any(|a| a.name == c.name) {
                branch = branch.extend(&c.name, Scalar::Lit(mm_expr::Lit::Null));
            }
        }
        let branch = branch.project_owned(all_names.clone());
        union = Some(match union {
            None => branch,
            Some(u) => u.union(branch),
        });

        // per-type mapping constraint: slice of the flat table equals the
        // type's exact extent
        let mut slice_cols: Vec<String> = key.iter().map(|k| k.name.clone()).collect();
        for a in &ty_attrs {
            if !slice_cols.contains(&a.name) {
                slice_cols.push(a.name.clone());
            }
        }
        mapping.push(MappingConstraint::ExprEq {
            source: entity_extent(er, ty)
                .expect("entity type checked")
                .select(Predicate::IsOf { ty: ty.to_string(), only: true })
                .project_owned(slice_cols.clone()),
            target: Expr::base(root)
                .select(Predicate::col_eq_lit("type", ty))
                .project_owned(slice_cols),
        });
    }
    views.push(ViewDef::new(root, union.expect("at least the root type")));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_metamodel::SchemaBuilder;

    fn person_er() -> Schema {
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

    #[test]
    fn vertical_produces_table_per_type_with_own_attrs() {
        let r = er_to_relational(&person_er(), InheritanceStrategy::Vertical).unwrap();
        assert!(Metamodel::Relational.conforms(&r.schema));
        let person = r.schema.element("Person").unwrap();
        let names: Vec<&str> = person.attribute_names().collect();
        assert_eq!(names, ["Id", "Name"]);
        let emp = r.schema.element("Employee").unwrap();
        let names: Vec<&str> = emp.attribute_names().collect();
        assert_eq!(names, ["Id", "Dept"]);
        // subtype tables FK into parent
        assert!(r.schema.constraints.iter().any(|c| matches!(
            c,
            Constraint::ForeignKey(fk) if fk.from == "Employee" && fk.to == "Person"
        )));
        assert_eq!(r.mapping.len(), 3);
        assert_eq!(r.views.len(), 3);
    }

    #[test]
    fn horizontal_tables_carry_inherited_attrs() {
        let r = er_to_relational(&person_er(), InheritanceStrategy::Horizontal).unwrap();
        let emp = r.schema.element("Employee").unwrap();
        let names: Vec<&str> = emp.attribute_names().collect();
        assert_eq!(names, ["Id", "Name", "Dept"]);
    }

    #[test]
    fn flat_single_table_with_discriminator_and_nullable_subtype_cols() {
        let r = er_to_relational(&person_er(), InheritanceStrategy::Flat).unwrap();
        assert_eq!(r.schema.len(), 1);
        let t = r.schema.element("Person").unwrap();
        let names: Vec<&str> = t.attribute_names().collect();
        assert_eq!(names, ["type", "Id", "Name", "CreditScore", "BillingAddr", "Dept"]);
        assert!(t.attribute("Dept").unwrap().nullable);
        assert!(!t.attribute("Name").unwrap().nullable);
        // one view for the whole hierarchy, three per-type constraints
        assert_eq!(r.views.len(), 1);
        assert_eq!(r.mapping.len(), 3);
    }

    #[test]
    fn association_becomes_link_table() {
        let er = SchemaBuilder::new("ER")
            .entity("A", &[("aid", DataType::Int)])
            .entity("B", &[("bid", DataType::Text)])
            .association("AB", "A", "B", mm_metamodel::Cardinality::One, mm_metamodel::Cardinality::Many)
            .build()
            .unwrap();
        let r = er_to_relational(&er, InheritanceStrategy::Vertical).unwrap();
        let ab = r.schema.element("AB").unwrap();
        assert!(ab.is_relation());
        assert_eq!(ab.attribute("from_key").unwrap().ty, DataType::Int);
        assert_eq!(ab.attribute("to_key").unwrap().ty, DataType::Text);
    }

    #[test]
    fn non_er_input_rejected() {
        let s = SchemaBuilder::new("S")
            .relation("T", &[("a", DataType::Int)])
            .build()
            .unwrap();
        assert!(matches!(
            er_to_relational(&s, InheritanceStrategy::Vertical),
            Err(ModelGenError::WrongProfile { .. })
        ));
    }

    #[test]
    fn flat_attribute_collision_detected() {
        let er = SchemaBuilder::new("ER")
            .entity("P", &[("Id", DataType::Int)])
            .entity_sub("A", "P", &[("X", DataType::Int)])
            .entity_sub("B", "P", &[("X", DataType::Text)])
            .build()
            .unwrap();
        assert!(matches!(
            er_to_relational(&er, InheritanceStrategy::Flat),
            Err(ModelGenError::AttributeCollision { .. })
        ));
    }

    #[test]
    fn hierarchy_key_prefers_key_constraint() {
        let er = SchemaBuilder::new("ER")
            .entity("P", &[("A", DataType::Int), ("B", DataType::Text)])
            .key("P", &["B"])
            .build()
            .unwrap();
        let k = hierarchy_key(&er, "P").unwrap();
        assert_eq!(k[0].name, "B");
        let er2 = SchemaBuilder::new("ER")
            .entity("P", &[("A", DataType::Int), ("B", DataType::Text)])
            .build()
            .unwrap();
        assert_eq!(hierarchy_key(&er2, "P").unwrap()[0].name, "A");
    }

    #[test]
    fn mapping_constraints_shape_matches_fig2() {
        // vertical on the paper's example: constraints are equalities of
        // a projected/selected entity expression and a bare table
        let r = er_to_relational(&person_er(), InheritanceStrategy::Vertical).unwrap();
        for c in &r.mapping.constraints {
            match c {
                MappingConstraint::ExprEq { target, .. } => {
                    assert!(matches!(target, Expr::Base(_)));
                }
                other => panic!("unexpected constraint {other}"),
            }
        }
    }
}
