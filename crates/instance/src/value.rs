//! Typed atomic values, including labeled nulls and interned text.

use crate::intern::{self, Symbol};
use mm_metamodel::DataType;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// An atomic value in an instance.
///
/// `Labeled` is a *labeled null* (marked null): a placeholder invented by
/// the chase when an st-tgd's existential variable must be witnessed. Two
/// labeled nulls are equal iff their labels are equal; they are never equal
/// to constants. Certain-answer evaluation (§4, "semantics of certain
/// answers") filters them from query results.
///
/// Text has two physical forms with one logical meaning: `Text` owns its
/// string; `Sym` is a `u32` handle into the global interning pool
/// ([`crate::intern`]). The two are indistinguishable through `Eq`,
/// `Ord`, `Hash`, `Display`, and the wire codec — which form a value
/// takes is a layout choice ([`Value::text`] interns whatever the pool
/// accepts), never a semantic one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Int(i64),
    /// Stored as raw bits wrapped in a total order (NaN sorts last); the
    /// public constructors/accessors speak `f64`.
    Double(f64),
    Bool(bool),
    Text(String),
    /// Interned text: semantically identical to `Text` of the resolved
    /// string, but hashes from a precomputed digest and compares by id
    /// against other symbols.
    Sym(Symbol),
    /// Days since epoch.
    Date(i32),
    /// SQL NULL (unknown / inapplicable).
    Null,
    /// Labeled null `N<id>` for universal instances.
    Labeled(u64),
}

impl Value {
    /// Construct a text value, interned into the symbol pool when the
    /// string is poolable (short enough, pool not full). The pool is
    /// consulted by `&str` first; an owned `String` is only made when it
    /// refuses.
    pub fn text(s: impl AsRef<str> + Into<String>) -> Self {
        match intern::intern(s.as_ref()) {
            Some(sym) => Value::Sym(sym),
            None => Value::Text(s.into()),
        }
    }

    /// The string content if this is a text value (either form).
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            Value::Sym(sym) => Some(sym.as_str()),
            _ => None,
        }
    }

    /// The data type of the value, if it is a typed constant.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Text(_) | Value::Sym(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
            Value::Null | Value::Labeled(_) => None,
        }
    }

    /// Whether the value is a constant (not NULL and not a labeled null).
    pub(crate) fn is_constant(&self) -> bool {
        !matches!(self, Value::Null | Value::Labeled(_))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn is_labeled(&self) -> bool {
        matches!(self, Value::Labeled(_))
    }

    /// Whether the value conforms to the attribute type `ty`
    /// (`Int` is accepted where `Double` is expected).
    pub(crate) fn conforms_to(&self, ty: DataType) -> bool {
        match self.data_type() {
            Some(t) => t.compatible_with(ty),
            None => true, // nulls conform to any type; nullability is checked separately
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Labeled(_) => 1,
            Value::Bool(_) => 2,
            Value::Int(_) => 3,
            Value::Double(_) => 4,
            Value::Date(_) => 5,
            Value::Text(_) | Value::Sym(_) => 6,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Text(a), Value::Text(b)) => a == b,
            // same pool, so id equality is string equality
            (Value::Sym(a), Value::Sym(b)) => a == b,
            (Value::Text(a), Value::Sym(b)) | (Value::Sym(b), Value::Text(a)) => {
                a == b.as_str()
            }
            (Value::Date(a), Value::Date(b)) => a == b,
            (Value::Null, Value::Null) => true,
            (Value::Labeled(a), Value::Labeled(b)) => a == b,
            // cross-type numeric equality so `1 = 1.0` holds in predicates
            (Value::Int(a), Value::Double(b)) | (Value::Double(b), Value::Int(a)) => {
                (*a as f64).to_bits() == b.to_bits()
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            // hash ints and int-valued doubles identically, matching Eq
            Value::Int(a) => {
                state.write_u8(3);
                state.write_u64((*a as f64).to_bits());
            }
            Value::Double(d) => {
                state.write_u8(3);
                state.write_u64(d.to_bits());
            }
            Value::Bool(b) => {
                state.write_u8(2);
                state.write_u8(*b as u8);
            }
            // both text forms hash the same string digest, matching Eq;
            // a symbol reads its digest off the pool entry (no byte walk)
            Value::Text(s) => {
                state.write_u8(6);
                state.write_u64(intern::str_hash(s));
            }
            Value::Sym(sym) => {
                state.write_u8(6);
                state.write_u64(sym.hash64());
            }
            Value::Date(d) => {
                state.write_u8(5);
                state.write_i32(*d);
            }
            Value::Null => state.write_u8(0),
            Value::Labeled(l) => {
                state.write_u8(1);
                state.write_u64(*l);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Double(b)) => (*a as f64).total_cmp(b),
            (Value::Double(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (
                a @ (Value::Text(_) | Value::Sym(_)),
                b @ (Value::Text(_) | Value::Sym(_)),
            ) => a.as_text().cmp(&b.as_text()),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (Value::Labeled(a), Value::Labeled(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "'{v}'"),
            Value::Sym(v) => write!(f, "'{}'", v.as_str()),
            Value::Date(v) => write!(f, "date({v})"),
            Value::Null => f.write_str("NULL"),
            Value::Labeled(l) => write!(f, "N{l}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn labeled_nulls_equal_only_by_label() {
        assert_eq!(Value::Labeled(1), Value::Labeled(1));
        assert_ne!(Value::Labeled(1), Value::Labeled(2));
        assert_ne!(Value::Labeled(1), Value::Null);
        assert_ne!(Value::Labeled(1), Value::Int(1));
    }

    #[test]
    fn numeric_cross_type_equality_and_hash_agree() {
        let a = Value::Int(3);
        let b = Value::Double(3.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(Value::Int(3), Value::Double(3.5));
    }

    #[test]
    fn interned_and_owned_text_are_indistinguishable() {
        let owned = Value::Text("sym-test".to_string());
        let interned = Value::text("sym-test");
        assert!(matches!(interned, Value::Sym(_)));
        assert_eq!(owned, interned);
        assert_eq!(hash_of(&owned), hash_of(&interned));
        assert_eq!(owned.cmp(&interned), Ordering::Equal);
        assert_eq!(owned.to_string(), interned.to_string());
        assert_eq!(owned.data_type(), interned.data_type());
        assert_eq!(owned.as_text(), interned.as_text());
        assert_ne!(interned, Value::text("sym-test-other"));
    }

    #[test]
    fn oversized_text_stays_owned() {
        let long = "z".repeat(intern::MAX_INTERN_LEN + 1);
        let v = Value::text(long.clone());
        assert!(matches!(v, Value::Text(_)));
        assert_eq!(v.as_text(), Some(long.as_str()));
    }

    #[test]
    fn null_is_not_a_constant() {
        assert!(!Value::Null.is_constant());
        assert!(!Value::Labeled(7).is_constant());
        assert!(Value::Int(0).is_constant());
    }

    #[test]
    fn conformance_follows_type_compatibility() {
        assert!(Value::Int(1).conforms_to(DataType::Int));
        assert!(Value::Int(1).conforms_to(DataType::Double));
        assert!(!Value::text("x").conforms_to(DataType::Int));
        assert!(Value::Null.conforms_to(DataType::Int));
        assert!(Value::Labeled(1).conforms_to(DataType::Text));
    }

    #[test]
    fn ordering_is_total_and_groups_by_rank() {
        let mut vs = [Value::text("b"),
            Value::Int(2),
            Value::Null,
            Value::Labeled(0),
            Value::text("a"),
            Value::Int(1),
            Value::Bool(true)];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Labeled(0));
        assert_eq!(vs.last().unwrap(), &Value::text("b"));
    }

    #[test]
    fn mixed_form_text_ordering_matches_string_ordering() {
        let mut vs = [
            Value::Text("delta".into()),
            Value::text("alpha"),
            Value::Text("bravo".into()),
            Value::text("charlie"),
        ];
        vs.sort();
        let texts: Vec<&str> = vs.iter().filter_map(Value::as_text).collect();
        assert_eq!(texts, ["alpha", "bravo", "charlie", "delta"]);
    }

    #[test]
    fn nan_double_ordering_is_total() {
        let mut vs = [Value::Double(f64::NAN), Value::Double(1.0), Value::Double(-1.0)];
        vs.sort(); // must not panic
        assert_eq!(vs[0], Value::Double(-1.0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::text("hi").to_string(), "'hi'");
        assert_eq!(Value::Labeled(4).to_string(), "N4");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
