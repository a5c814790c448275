//! The generic three-data-copy instance translation baseline.
//!
//! §3.2: follow-ups to Atzeni & Torlone "generate instance translations
//! via three data-copy steps: (1) copy the source data into the universal
//! metamodel's format; (2) reshape the data using instance-level rules
//! that mimic the schema transformation rules; and (3) copy the reshaped
//! data into the target system. … It is rather inefficient for data
//! exchange." This module implements that pipeline faithfully — a triple
//! encoding as the universal format, per-entity reshaping rules, and a
//! decode — so benchmark EQ2 can quantify the inefficiency against the
//! directly compiled views of [`crate::er_rel`].

// Translator-internal lookups are guarded by construction (schemas and
// view sets built in this module); `expect` here documents invariants,
// not caller-facing failure modes (DESIGN.md §7).
#![allow(clippy::expect_used)]

use crate::er_rel::{hierarchy_key, InheritanceStrategy, ModelGenError};
use mm_instance::{Database, RelSchema, Relation, Tuple, Value};
use mm_metamodel::{DataType, ElementKind, Schema, TYPE_ATTR};
use std::collections::BTreeMap;

/// Column layout of the universal triple relation:
/// `(elem, tid, attr, vtype, value)`.
pub(crate) fn universal_layout() -> RelSchema {
    RelSchema::of(&[
        ("elem", DataType::Text),
        ("tid", DataType::Int),
        ("attr", DataType::Text),
        ("vtype", DataType::Text),
        ("value", DataType::Text),
    ])
}

fn encode_value(v: &Value) -> (Value, Value) {
    let (t, s) = match v {
        Value::Int(i) => ("int", i.to_string()),
        Value::Double(d) => ("double", format!("{:?}", d)),
        Value::Bool(b) => ("bool", b.to_string()),
        Value::Text(s) => ("text", s.clone()),
        Value::Sym(s) => ("text", s.as_str().to_string()),
        Value::Date(d) => ("date", d.to_string()),
        Value::Null => ("null", String::new()),
        Value::Labeled(l) => ("labeled", l.to_string()),
    };
    (Value::text(t), Value::text(s))
}

fn decode_value(vtype: &Value, value: &Value) -> Value {
    let (Some(t), Some(s)) = (vtype.as_text(), value.as_text()) else {
        return Value::Null;
    };
    match t {
        "int" => s.parse().map(Value::Int).unwrap_or(Value::Null),
        "double" => s.parse().map(Value::Double).unwrap_or(Value::Null),
        "bool" => s.parse().map(Value::Bool).unwrap_or(Value::Null),
        "text" => Value::text(s),
        "date" => s.parse().map(Value::Date).unwrap_or(Value::Null),
        "labeled" => s.parse().map(Value::Labeled).unwrap_or(Value::Null),
        _ => Value::Null,
    }
}

/// Copy 1: encode a database into the universal triple format.
pub(crate) fn encode_universal(schema: &Schema, db: &Database) -> Database {
    let mut out = Database::new(format!("{}_univ", db.name));
    let mut rel = Relation::new(universal_layout());
    let mut tid: i64 = 0;
    for e in schema.elements() {
        let Some(r) = db.relation(&e.name) else { continue };
        for t in r.iter() {
            for (attr, v) in r.schema.names().zip(t.values()) {
                let (vt, vs) = encode_value(v);
                rel.insert(Tuple::new(vec![
                    Value::text(e.name.clone()),
                    Value::Int(tid),
                    Value::text(attr),
                    vt,
                    vs,
                ]));
            }
            tid += 1;
        }
    }
    out.insert_relation("$univ", rel);
    out
}

/// Copy 3: decode universal triples into an instance of `target`.
pub(crate) fn decode_universal(target: &Schema, univ: &Database) -> Database {
    let mut out = Database::empty_of(target);
    let Some(rel) = univ.relation("$univ") else { return out };
    // group triples by (elem, tid) preserving first-seen order
    let mut groups: BTreeMap<(String, i64), BTreeMap<String, Value>> = BTreeMap::new();
    for t in rel.iter() {
        let [elem, tid, attr, vtype, value] = t.values() else { continue };
        let (Some(elem), &Value::Int(tid), Some(attr)) =
            (elem.as_text(), tid, attr.as_text())
        else {
            continue;
        };
        groups
            .entry((elem.to_string(), tid))
            .or_default()
            .insert(attr.to_string(), decode_value(vtype, value));
    }
    for ((elem, _tid), attrs) in groups {
        let Some(layout) = target.instance_layout(&elem) else { continue };
        let vals: Vec<Value> = layout
            .iter()
            .map(|a| attrs.get(&a.name).cloned().unwrap_or(Value::Null))
            .collect();
        out.insert(&elem, Tuple::new(vals));
    }
    out
}

/// Copy 2: reshape ER triples into relational triples per the inheritance
/// strategy — the instance-level twin of the schema rules in
/// [`crate::er_rel`].
pub(crate) fn reshape_er_to_rel(
    er: &Schema,
    univ: &Database,
    strategy: InheritanceStrategy,
) -> Result<Database, ModelGenError> {
    let mut out = Database::new(format!("{}_reshaped", univ.name));
    let mut rel = Relation::new(universal_layout());
    let src = univ.relation("$univ").expect("universal relation present");

    // regroup by (elem, tid)
    let mut groups: BTreeMap<(String, i64), BTreeMap<String, (Value, Value)>> =
        BTreeMap::new();
    for t in src.iter() {
        let [elem, tid, attr, vtype, value] = t.values() else { continue };
        let (Some(elem), &Value::Int(tid), Some(attr)) =
            (elem.as_text(), tid, attr.as_text())
        else {
            continue;
        };
        groups
            .entry((elem.to_string(), tid))
            .or_default()
            .insert(attr.to_string(), (vtype.clone(), value.clone()));
    }

    let mut fresh_tid: i64 = 0;
    let emit = |rel: &mut Relation,
                    elem: &str,
                    tid: i64,
                    attr: &str,
                    vv: &(Value, Value)| {
        rel.insert(Tuple::new(vec![
            Value::text(elem),
            Value::Int(tid),
            Value::text(attr),
            vv.0.clone(),
            vv.1.clone(),
        ]));
    };

    for ((elem, _tid), attrs) in &groups {
        let Some(src_elem) = er.element(elem) else { continue };
        match &src_elem.kind {
            ElementKind::EntityType { .. } => {
                // most-derived type from the encoded $type attribute
                let derived = attrs
                    .get(TYPE_ATTR)
                    .and_then(|(_, v)| v.as_text())
                    .map_or_else(|| elem.clone(), str::to_string);
                let chain = er.ancestry(&derived).map_err(ModelGenError::Construction)?;
                let root = *chain.last().expect("ancestry non-empty");
                let key = hierarchy_key(er, root)?;
                match strategy {
                    InheritanceStrategy::Vertical => {
                        for level in &chain {
                            let tid = fresh_tid;
                            fresh_tid += 1;
                            for k in &key {
                                if let Some(vv) = attrs.get(&k.name) {
                                    emit(&mut rel, level, tid, &k.name, vv);
                                }
                            }
                            for a in &er.element(level).expect("chain member").attributes {
                                if key.iter().any(|k| k.name == a.name) {
                                    continue;
                                }
                                if let Some(vv) = attrs.get(&a.name) {
                                    emit(&mut rel, level, tid, &a.name, vv);
                                }
                            }
                        }
                    }
                    InheritanceStrategy::Horizontal => {
                        let tid = fresh_tid;
                        fresh_tid += 1;
                        for (attr, vv) in attrs {
                            if attr != TYPE_ATTR {
                                emit(&mut rel, &derived, tid, attr, vv);
                            }
                        }
                    }
                    InheritanceStrategy::Flat => {
                        let tid = fresh_tid;
                        fresh_tid += 1;
                        emit(
                            &mut rel,
                            root,
                            tid,
                            "type",
                            &(Value::text("text"), Value::text(derived.clone())),
                        );
                        for (attr, vv) in attrs {
                            if attr != TYPE_ATTR {
                                emit(&mut rel, root, tid, attr, vv);
                            }
                        }
                    }
                }
            }
            ElementKind::Association { .. } => {
                let tid = fresh_tid;
                fresh_tid += 1;
                if let Some(vv) = attrs.get("$from") {
                    emit(&mut rel, elem, tid, "from_key", vv);
                }
                if let Some(vv) = attrs.get("$to") {
                    emit(&mut rel, elem, tid, "to_key", vv);
                }
            }
            _ => {}
        }
    }
    out.insert_relation("$univ", rel);
    Ok(out)
}

/// The full three-copy pipeline: ER instance → universal → reshaped →
/// relational instance of `target_schema` (which must be the schema
/// produced by [`crate::er_rel::er_to_relational`] with the same
/// strategy).
pub fn three_copy_translate(
    er: &Schema,
    er_db: &Database,
    target_schema: &Schema,
    strategy: InheritanceStrategy,
) -> Result<Database, ModelGenError> {
    let univ = encode_universal(er, er_db);
    let reshaped = reshape_er_to_rel(er, &univ, strategy)?;
    Ok(decode_universal(target_schema, &reshaped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er_rel::er_to_relational;
    use mm_eval::materialize_views;
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

    fn person_db(er: &Schema) -> Database {
        let mut db = Database::empty_of(er);
        db.insert_entity("Person", "Person", vec![Value::Int(1), Value::text("pat")]);
        db.insert_entity(
            "Employee",
            "Employee",
            vec![Value::Int(2), Value::text("eve"), Value::text("hr")],
        );
        db.insert_entity(
            "Customer",
            "Customer",
            vec![
                Value::Int(3),
                Value::text("carl"),
                Value::Int(700),
                Value::text("5 Rue"),
            ],
        );
        db
    }

    #[test]
    fn encode_decode_roundtrips_relational_data() {
        let s = SchemaBuilder::new("S")
            .relation("R", &[("a", DataType::Int), ("b", DataType::Text)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("R", Tuple::from([Value::Int(1), Value::text("x")]));
        db.insert("R", Tuple::from([Value::Int(2), Value::Null]));
        let univ = encode_universal(&s, &db);
        let back = decode_universal(&s, &univ);
        assert_eq!(back.relation("R").unwrap().len(), 2);
        assert!(back.relation("R").unwrap().set_eq(db.relation("R").unwrap()));
    }

    /// The headline property behind EQ2: the generic three-copy pipeline
    /// and the directly compiled views produce the same relational
    /// instance, for every strategy.
    #[test]
    fn three_copy_agrees_with_compiled_views_all_strategies() {
        let er = person_er();
        let db = person_db(&er);
        for strategy in [
            InheritanceStrategy::Vertical,
            InheritanceStrategy::Horizontal,
            InheritanceStrategy::Flat,
        ] {
            let gen = er_to_relational(&er, strategy).unwrap();
            let direct = materialize_views(&gen.views, &er, &db).unwrap();
            let generic = three_copy_translate(&er, &db, &gen.schema, strategy).unwrap();
            for (name, rel) in direct.relations() {
                let g = generic.relation(name).unwrap_or_else(|| {
                    panic!("{strategy}: relation {name} missing from generic output")
                });
                assert!(
                    rel.set_eq(g),
                    "{strategy}: mismatch in {name}\ndirect:\n{rel}\ngeneric:\n{g}"
                );
            }
        }
    }

    #[test]
    fn vertical_reshape_spreads_entity_over_ancestor_tables() {
        let er = person_er();
        let db = person_db(&er);
        let gen = er_to_relational(&er, InheritanceStrategy::Vertical).unwrap();
        let out = three_copy_translate(&er, &db, &gen.schema, InheritanceStrategy::Vertical)
            .unwrap();
        // eve (employee) appears in both Person and Employee tables
        assert_eq!(out.relation("Person").unwrap().len(), 3);
        assert_eq!(out.relation("Employee").unwrap().len(), 1);
        assert_eq!(out.relation("Customer").unwrap().len(), 1);
    }

    #[test]
    fn value_codec_covers_all_types() {
        for v in [
            Value::Int(-5),
            Value::Double(2.5),
            Value::Bool(true),
            Value::text("hello"),
            Value::Date(19000),
            Value::Null,
            Value::Labeled(9),
        ] {
            let (t, s) = encode_value(&v);
            assert_eq!(decode_value(&t, &s), v, "roundtrip of {v}");
        }
    }
}
