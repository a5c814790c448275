//! Schemas and schema elements of the universal metamodel.

use crate::constraints::Constraint;
use crate::error::MetamodelError;
use crate::types::DataType;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A typed, named attribute of a relation, entity type, or nested element.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Attribute {
    pub name: String,
    pub ty: DataType,
    /// Whether SQL `NULL` is an admissible value.
    pub nullable: bool,
}

impl Attribute {
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Attribute { name: name.into(), ty, nullable: false }
    }

    pub fn nullable(name: impl Into<String>, ty: DataType) -> Self {
        Attribute { name: name.into(), ty, nullable: true }
    }
}

/// Cardinality of an association end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cardinality {
    One,
    ZeroOrOne,
    Many,
}

/// The construct kind of a schema element.
///
/// These are the universal metamodel's modeling constructs. Each concrete
/// metamodel profile ([`crate::profile::Metamodel`]) admits a subset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElementKind {
    /// A flat relation (SQL table).
    Relation,
    /// An ER entity type / OO class. `parent` introduces an is-a edge; the
    /// attributes listed on the element are those *added* at this level
    /// (inherited attributes are resolved via [`Schema::all_attributes`]).
    EntityType { parent: Option<String> },
    /// A binary association (ER relationship / OO reference) between two
    /// entity types.
    Association {
        from: String,
        to: String,
        from_card: Cardinality,
        to_card: Cardinality,
    },
    /// A nested collection (XML-like): a repeated group of attributes owned
    /// by `parent`. The implicit containment edge carries an ordinal.
    Nested { parent: String },
}

/// A named element of a schema together with its attributes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Element {
    pub name: String,
    pub kind: ElementKind,
    pub attributes: Vec<Attribute>,
}

impl Element {
    pub fn attribute(&self, name: &str) -> Option<&Attribute> {
        self.attributes.iter().find(|a| a.name == name)
    }

    pub fn attribute_names(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(|a| a.name.as_str())
    }

    pub fn is_entity_type(&self) -> bool {
        matches!(self.kind, ElementKind::EntityType { .. })
    }

    pub fn is_relation(&self) -> bool {
        matches!(self.kind, ElementKind::Relation)
    }
}

/// A schema: a named collection of elements plus integrity constraints.
///
/// Elements are stored in insertion order (deterministic iteration matters
/// for reproducible operator output) with a name index for O(1) lookup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    pub name: String,
    elements: Vec<Element>,
    index: BTreeMap<String, usize>,
    pub constraints: Vec<Constraint>,
}

impl Schema {
    pub fn new(name: impl Into<String>) -> Self {
        Schema { name: name.into(), elements: Vec::new(), index: BTreeMap::new(), constraints: Vec::new() }
    }

    /// Add an element, rejecting duplicates and dangling/cyclic references.
    pub fn add_element(&mut self, element: Element) -> Result<(), MetamodelError> {
        if self.index.contains_key(&element.name) {
            return Err(MetamodelError::DuplicateElement(element.name));
        }
        let mut seen = std::collections::HashSet::new();
        for a in &element.attributes {
            if !seen.insert(a.name.as_str()) {
                return Err(MetamodelError::DuplicateAttribute {
                    element: element.name.clone(),
                    attribute: a.name.clone(),
                });
            }
        }
        match &element.kind {
            ElementKind::EntityType { parent: Some(p) } => {
                let parent = self
                    .element(p)
                    .ok_or_else(|| MetamodelError::UnknownElement(p.clone()))?;
                if !parent.is_entity_type() {
                    return Err(MetamodelError::InvalidParent {
                        child: element.name.clone(),
                        parent: p.clone(),
                    });
                }
            }
            ElementKind::Association { from, to, .. } => {
                for end in [from, to] {
                    let e = self
                        .element(end)
                        .ok_or_else(|| MetamodelError::UnknownElement(end.clone()))?;
                    if !e.is_entity_type() {
                        return Err(MetamodelError::InvalidParent {
                            child: element.name.clone(),
                            parent: end.clone(),
                        });
                    }
                }
            }
            ElementKind::Nested { parent }
                if self.element(parent).is_none() => {
                    return Err(MetamodelError::UnknownElement(parent.clone()));
                }
            _ => {}
        }
        self.index.insert(element.name.clone(), self.elements.len());
        self.elements.push(element);
        Ok(())
    }

    pub fn element(&self, name: &str) -> Option<&Element> {
        self.index.get(name).map(|&i| &self.elements[i])
    }

    pub fn element_mut(&mut self, name: &str) -> Option<&mut Element> {
        self.index.get(name).copied().map(move |i| &mut self.elements[i])
    }

    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.elements.iter()
    }

    pub fn element_names(&self) -> impl Iterator<Item = &str> {
        self.elements.iter().map(|e| e.name.as_str())
    }

    pub fn len(&self) -> usize {
        self.elements.len()
    }

    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Add an integrity constraint after checking that everything it
    /// mentions exists.
    pub fn add_constraint(&mut self, c: Constraint) -> Result<(), MetamodelError> {
        c.check(self)?;
        self.constraints.push(c);
        Ok(())
    }

    /// The parent entity type of `name`, if any.
    pub fn parent_of(&self, name: &str) -> Option<&str> {
        match &self.element(name)?.kind {
            ElementKind::EntityType { parent } => parent.as_deref(),
            _ => None,
        }
    }

    /// Direct children of entity type `name`.
    pub(crate) fn children_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.elements.iter().filter(move |e| match &e.kind {
            ElementKind::EntityType { parent: Some(p) } => p == name,
            _ => false,
        })
    }

    /// `name` and all its transitive subtypes, in a deterministic
    /// (pre-order) order. Empty if `name` is not an entity type.
    pub fn subtree(&self, name: &str) -> Vec<&str> {
        let mut out = Vec::new();
        if self.element(name).map(Element::is_entity_type) != Some(true) {
            return out;
        }
        let mut stack = vec![name];
        while let Some(n) = stack.pop() {
            if let Some(e) = self.element(n) {
                out.push(e.name.as_str());
                let mut kids: Vec<&str> =
                    self.children_of(n).map(|c| c.name.as_str()).collect();
                kids.sort_unstable();
                for k in kids.into_iter().rev() {
                    stack.push(k);
                }
            }
        }
        out
    }

    /// The chain from `name` up to the root of its is-a hierarchy,
    /// inclusive, root last. Detects cycles defensively (construction
    /// prevents them, but schemas can be deserialized).
    pub fn ancestry<'a>(&'a self, name: &'a str) -> Result<Vec<&'a str>, MetamodelError> {
        let mut chain = Vec::new();
        let mut cur = Some(name);
        while let Some(n) = cur {
            if chain.contains(&n) {
                return Err(MetamodelError::InheritanceCycle(n.to_string()));
            }
            if self.element(n).is_none() {
                return Err(MetamodelError::UnknownElement(n.to_string()));
            }
            chain.push(n);
            cur = self.parent_of(n);
        }
        Ok(chain)
    }

    #[allow(clippy::expect_used)] // invariant-backed: see expect messages
    /// All attributes of an entity type, inherited first (root-most first),
    /// then locally declared — the flattened attribute list the instance
    /// layer and ModelGen operate on. For non-entity elements this is just
    /// the declared attribute list.
    pub fn all_attributes(&self, name: &str) -> Result<Vec<Attribute>, MetamodelError> {
        let elem = self
            .element(name)
            .ok_or_else(|| MetamodelError::UnknownElement(name.to_string()))?;
        if !elem.is_entity_type() {
            return Ok(elem.attributes.clone());
        }
        let chain = self.ancestry(name)?;
        let mut out = Vec::new();
        for n in chain.iter().rev() {
            out.extend(self.element(n).expect("ancestry checked").attributes.iter().cloned());
        }
        Ok(out)
    }

    /// Whether entity type `sub` is `sup` or a (transitive) subtype of it.
    pub fn is_subtype(&self, sub: &str, sup: &str) -> bool {
        self.ancestry(sub).map(|c| c.contains(&sup)).unwrap_or(false)
    }

    /// Root entity types (entity types without a parent).
    pub fn roots(&self) -> impl Iterator<Item = &Element> {
        self.elements.iter().filter(|e| {
            matches!(e.kind, ElementKind::EntityType { parent: None })
        })
    }

    /// Total number of attributes over all elements (schema "size" used by
    /// benchmarks and the matcher).
    pub fn attribute_count(&self) -> usize {
        self.elements.iter().map(|e| e.attributes.len()).sum()
    }

    /// The declared key attributes of `element`, if a key constraint
    /// exists for it.
    pub fn declared_key(&self, element: &str) -> Option<&[String]> {
        self.constraints.iter().find_map(|c| match c {
            crate::constraints::Constraint::Key(k) if k.element == element => {
                Some(k.attributes.as_slice())
            }
            _ => None,
        })
    }

    /// The instance-level column layout of element `name`:
    ///
    /// * relations — the declared attributes;
    /// * entity types — the reserved `$type` tag followed by the flattened
    ///   (inherited-first) attributes — the layout the paper's Figure 3
    ///   query constructs with its `CASE WHEN … THEN Employee(…)` branches;
    /// * associations — a binary `($from, $to)` link relation;
    /// * nested collections — `$parent` surrogate, declared attributes,
    ///   and an `$ord` ordinal.
    pub fn instance_layout(&self, name: &str) -> Option<Vec<Attribute>> {
        use crate::types::DataType;
        use crate::TYPE_ATTR;
        let e = self.element(name)?;
        let attrs = match &e.kind {
            ElementKind::Relation => e.attributes.clone(),
            ElementKind::EntityType { .. } => {
                let mut v = vec![Attribute::new(TYPE_ATTR, DataType::Text)];
                v.extend(self.all_attributes(name).ok()?);
                v
            }
            ElementKind::Association { .. } => vec![
                Attribute::new("$from", DataType::Any),
                Attribute::new("$to", DataType::Any),
            ],
            ElementKind::Nested { .. } => {
                let mut v = vec![Attribute::new("$parent", DataType::Any)];
                v.extend(e.attributes.iter().cloned());
                v.push(Attribute::new("$ord", DataType::Int));
                v
            }
        };
        Some(attrs)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schema {} {{", self.name)?;
        for e in &self.elements {
            match &e.kind {
                ElementKind::Relation => write!(f, "  table {}", e.name)?,
                ElementKind::EntityType { parent: None } => write!(f, "  entity {}", e.name)?,
                ElementKind::EntityType { parent: Some(p) } => {
                    write!(f, "  entity {} : {}", e.name, p)?
                }
                ElementKind::Association { from, to, from_card, to_card } => {
                    let card = |c: &Cardinality| match c {
                        Cardinality::One => "1",
                        Cardinality::ZeroOrOne => "?",
                        Cardinality::Many => "*",
                    };
                    write!(
                        f,
                        "  assoc {} ({} {}->{} {})",
                        e.name,
                        from,
                        card(from_card),
                        card(to_card),
                        to
                    )?
                }
                ElementKind::Nested { parent } => {
                    write!(f, "  nested {} in {}", e.name, parent)?
                }
            }
            let attrs: Vec<String> = e
                .attributes
                .iter()
                .map(|a| {
                    if a.nullable {
                        format!("{}: {}?", a.name, a.ty)
                    } else {
                        format!("{}: {}", a.name, a.ty)
                    }
                })
                .collect();
            writeln!(f, "({})", attrs.join(", "))?;
        }
        for c in &self.constraints {
            writeln!(f, "  {c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;

    fn person_schema() -> Schema {
        SchemaBuilder::new("ER")
            .entity("Person", &[("Id", DataType::Int), ("Name", DataType::Text)])
            .entity_sub("Employee", "Person", &[("Dept", DataType::Text)])
            .entity_sub("Customer", "Person", &[("CreditScore", DataType::Int)])
            .build()
            .unwrap()
    }

    #[test]
    fn duplicate_element_rejected() {
        let mut s = Schema::new("S");
        s.add_element(Element {
            name: "R".into(),
            kind: ElementKind::Relation,
            attributes: vec![Attribute::new("a", DataType::Int)],
        })
        .unwrap();
        let err = s
            .add_element(Element {
                name: "R".into(),
                kind: ElementKind::Relation,
                attributes: vec![],
            })
            .unwrap_err();
        assert_eq!(err, MetamodelError::DuplicateElement("R".into()));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut s = Schema::new("S");
        let err = s
            .add_element(Element {
                name: "R".into(),
                kind: ElementKind::Relation,
                attributes: vec![
                    Attribute::new("a", DataType::Int),
                    Attribute::new("a", DataType::Text),
                ],
            })
            .unwrap_err();
        assert!(matches!(err, MetamodelError::DuplicateAttribute { .. }));
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut s = Schema::new("S");
        let err = s
            .add_element(Element {
                name: "E".into(),
                kind: ElementKind::EntityType { parent: Some("Nope".into()) },
                attributes: vec![],
            })
            .unwrap_err();
        assert_eq!(err, MetamodelError::UnknownElement("Nope".into()));
    }

    #[test]
    fn relation_cannot_be_parent() {
        let mut s = Schema::new("S");
        s.add_element(Element {
            name: "R".into(),
            kind: ElementKind::Relation,
            attributes: vec![],
        })
        .unwrap();
        let err = s
            .add_element(Element {
                name: "E".into(),
                kind: ElementKind::EntityType { parent: Some("R".into()) },
                attributes: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, MetamodelError::InvalidParent { .. }));
    }

    #[test]
    fn inherited_attributes_flatten_root_first() {
        let s = person_schema();
        let attrs = s.all_attributes("Employee").unwrap();
        let names: Vec<&str> = attrs.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["Id", "Name", "Dept"]);
    }

    #[test]
    fn subtree_is_deterministic_preorder() {
        let s = person_schema();
        assert_eq!(s.subtree("Person"), ["Person", "Customer", "Employee"]);
        assert_eq!(s.subtree("Employee"), ["Employee"]);
    }

    #[test]
    fn subtype_checks() {
        let s = person_schema();
        assert!(s.is_subtype("Employee", "Person"));
        assert!(s.is_subtype("Person", "Person"));
        assert!(!s.is_subtype("Person", "Employee"));
        assert!(!s.is_subtype("Employee", "Customer"));
    }

    #[test]
    fn ancestry_root_last() {
        let s = person_schema();
        assert_eq!(s.ancestry("Customer").unwrap(), ["Customer", "Person"]);
    }

    #[test]
    fn roots_only_returns_parentless_entities() {
        let s = person_schema();
        let roots: Vec<&str> = s.roots().map(|e| e.name.as_str()).collect();
        assert_eq!(roots, ["Person"]);
    }

    #[test]
    fn display_renders_hierarchy() {
        let s = person_schema();
        let text = s.to_string();
        assert!(text.contains("entity Employee : Person"));
        assert!(text.contains("Id: int"));
    }
}
