//! Instances (database states) of schemas in the universal metamodel.
//!
//! A schema defines a set of possible instances; a mapping between schemas
//! S1 and S2 defines a subset of D1 × D2, where Di is the set of possible
//! instances of Si (§2 of the paper). This crate supplies the instance
//! side of that semantics: typed values — including the **labeled nulls**
//! needed for universal instances in data exchange (§4) — tuples,
//! set-semantics relations, and databases, plus validation of instances
//! against schemas and their integrity constraints.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod database;
pub mod intern;
pub mod relation;
pub mod stats;
pub mod validate;
pub mod value;

pub use database::Database;
pub use intern::{FxHasher, Symbol};
pub use relation::{RelIndex, RelSchema, Relation, Tuple, INLINE_ARITY};
pub use stats::{ColSketch, RelStats};
pub use validate::{validate, InstanceViolation};
pub use value::Value;
