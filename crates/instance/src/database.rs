//! Databases: named collections of relation instances.

use crate::relation::{RelSchema, Relation, Tuple};
use crate::value::Value;
use mm_metamodel::Schema;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An instance of a schema: one relation per element.
///
/// Entity sets are stored as relations whose first column is the reserved
/// [`mm_metamodel::TYPE_ATTR`] column carrying the entity's most-derived type, followed
/// by the flattened (inherited-first) attribute list — exactly the layout
/// the paper's Figure 3 query constructs with its `CASE WHEN ... THEN
/// Employee(...)` branches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Database {
    pub name: String,
    relations: BTreeMap<String, Relation>,
    /// Next fresh labeled-null id (monotone; shared across relations so
    /// labels are unique database-wide).
    next_label: u64,
}

impl Database {
    pub fn new(name: impl Into<String>) -> Self {
        Database { name: name.into(), relations: BTreeMap::new(), next_label: 0 }
    }

    #[allow(clippy::expect_used)] // invariant-backed: see expect messages
    /// Create an empty instance of `schema`: one empty relation per
    /// relation/entity-type/nested element (associations become link
    /// relations).
    pub fn empty_of(schema: &Schema) -> Self {
        let mut db = Database::new(schema.name.clone());
        for e in schema.elements() {
            let rel_schema = Self::instance_schema(schema, &e.name)
                .expect("element of schema must have an instance schema");
            db.relations.insert(e.name.clone(), Relation::new(rel_schema));
        }
        db
    }

    /// The instance-level column layout for element `name` of `schema`.
    /// Delegates to [`Schema::instance_layout`].
    pub(crate) fn instance_schema(schema: &Schema, name: &str) -> Option<RelSchema> {
        schema.instance_layout(name).map(RelSchema::new)
    }

    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    pub fn insert_relation(&mut self, name: impl Into<String>, relation: Relation) {
        self.relations.insert(name.into(), relation);
    }

    /// Insert a tuple into relation `name`; the relation must exist.
    /// Returns whether the tuple was new.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> bool {
        self.relations
            .get_mut(name)
            .unwrap_or_else(|| panic!("no relation `{name}` in database `{}`", self.name))
            .insert(tuple)
    }

    /// Insert an entity of most-derived type `ty` into entity set `set`
    /// with the flattened attribute values `values`.
    pub fn insert_entity(&mut self, set: &str, ty: &str, values: Vec<Value>) -> bool {
        let mut row = Vec::with_capacity(values.len() + 1);
        row.push(Value::text(ty));
        row.extend(values);
        self.insert(set, Tuple::new(row))
    }

    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    pub fn relations(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.relations.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total tuple count across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Mint a fresh labeled null.
    pub fn fresh_labeled(&mut self) -> Value {
        let v = Value::Labeled(self.next_label);
        self.next_label += 1;
        v
    }

    /// The largest labeled-null id in use plus one (used when merging
    /// databases so fresh labels stay unique).
    pub fn label_watermark(&self) -> u64 {
        self.next_label
    }

    pub fn set_label_watermark(&mut self, w: u64) {
        self.next_label = self.next_label.max(w);
    }

    /// Whether every tuple in every relation is ground (no nulls of either
    /// kind) — true of source databases in data exchange.
    pub fn is_ground(&self) -> bool {
        self.relations.values().all(|r| r.iter().all(Tuple::is_ground))
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "database {} {{", self.name)?;
        for (name, rel) in &self.relations {
            writeln!(f, "{name} ({} tuples)", rel.len())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_metamodel::{DataType, SchemaBuilder, TYPE_ATTR};

    fn er_schema() -> Schema {
        SchemaBuilder::new("ER")
            .entity("Person", &[("Id", DataType::Int), ("Name", DataType::Text)])
            .entity_sub("Employee", "Person", &[("Dept", DataType::Text)])
            .build()
            .unwrap()
    }

    #[test]
    fn empty_of_creates_relation_per_element() {
        let s = er_schema();
        let db = Database::empty_of(&s);
        assert!(db.relation("Person").is_some());
        assert!(db.relation("Employee").is_some());
        assert_eq!(db.total_tuples(), 0);
    }

    #[test]
    fn entity_set_layout_has_type_column_then_flattened_attrs() {
        let s = er_schema();
        let rs = Database::instance_schema(&s, "Employee").unwrap();
        let names: Vec<&str> = rs.names().collect();
        assert_eq!(names, [TYPE_ATTR, "Id", "Name", "Dept"]);
    }

    #[test]
    fn insert_entity_prepends_type() {
        let s = er_schema();
        let mut db = Database::empty_of(&s);
        db.insert_entity("Person", "Person", vec![Value::Int(1), Value::text("ann")]);
        let t = db.relation("Person").unwrap().iter().next().unwrap().clone();
        assert_eq!(t.get(0), Some(&Value::text("Person")));
        assert_eq!(t.get(1), Some(&Value::Int(1)));
    }

    #[test]
    fn fresh_labels_are_unique_and_watermark_moves() {
        let mut db = Database::new("D");
        let a = db.fresh_labeled();
        let b = db.fresh_labeled();
        assert_ne!(a, b);
        assert_eq!(db.label_watermark(), 2);
        db.set_label_watermark(10);
        assert_eq!(db.fresh_labeled(), Value::Labeled(10));
    }

    #[test]
    fn groundness_detects_labeled_nulls() {
        let s = er_schema();
        let mut db = Database::empty_of(&s);
        db.insert_entity("Person", "Person", vec![Value::Int(1), Value::text("a")]);
        assert!(db.is_ground());
        let n = db.fresh_labeled();
        db.insert_entity("Person", "Person", vec![Value::Int(2), n]);
        assert!(!db.is_ground());
    }

    #[test]
    #[should_panic(expected = "no relation")]
    fn insert_into_missing_relation_panics() {
        let mut db = Database::new("D");
        db.insert("nope", Tuple::from([Value::Int(1)]));
    }
}
