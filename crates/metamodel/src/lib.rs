//! Universal metamodel for the model management engine.
//!
//! A *schema* is an expression that defines a set of possible instances
//! (database states); a *metamodel* is a language for expressing schemas
//! (Bernstein & Melnik, SIGMOD 2007, §2). This crate provides a single
//! universal metamodel whose constructs cover the popular metamodels the
//! paper enumerates — SQL (relational), ER, object-oriented, and nested
//! (XML-like) — together with *profiles* that restrict the universal
//! metamodel to one of those concrete metamodels.
//!
//! The design follows Atzeni & Torlone's supermodel idea (cited in §3.2):
//! every concrete metamodel is a subset of the universal constructs, so
//! translating a schema between metamodels ([`crate::profile::Metamodel`]s)
//! reduces to eliminating the constructs the target profile forbids.
//! Construct elimination itself lives in the `mm-modelgen` crate.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod builder;
pub mod constraints;
pub mod error;
pub mod parse;
pub mod profile;
pub mod schema;
pub mod types;

pub use builder::SchemaBuilder;
pub use constraints::{Constraint, ForeignKey, InclusionDependency, Key};
pub use error::{MetamodelError, Violation};
pub use parse::{parse_schema, ParseError};
pub use profile::Metamodel;
pub use schema::{Attribute, Cardinality, Element, ElementKind, Schema};
pub use types::DataType;

/// The reserved attribute used to tag the most-derived type of an entity in
/// an entity set. Instance-level inheritance (`IS OF` tests, type-case
/// construction as in the paper's Figure 3) is driven by this attribute.
pub const TYPE_ATTR: &str = "$type";
