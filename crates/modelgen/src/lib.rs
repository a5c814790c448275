//! ModelGen: metamodel-to-metamodel schema translation with instance-level
//! mapping constraints (§3.2 of the paper).
//!
//! Following Atzeni & Torlone, translation is construct elimination over
//! the universal metamodel: a repertoire of rules rewrites the constructs
//! the target profile forbids. Unlike the original (schema-only) approach,
//! every rule here also emits *declarative mapping constraints* between
//! source and target — the capability the paper says generic ModelGen
//! still lacked ("it still falls short of the need for ModelGen to return
//! declarative mapping constraints") — plus a forward view set so the
//! translation is directly executable.
//!
//! Rules implemented:
//! * [`er_rel::er_to_relational`] — inheritance elimination with three
//!   strategies (vertical/TPT, horizontal/TPC, flat/TPH), association →
//!   link table, plus keys/FKs;
//! * [`rel_er::relational_to_er`] — tables to entity types, foreign keys
//!   to associations (wrapper generation direction);
//! * [`nested::shred_nested`] — XML-like nested collections to flat
//!   relations (shredding);
//! * [`three_copy`] — the generic three-data-copy instance translation
//!   (copy into a universal triple format, reshape, copy out), kept as the
//!   baseline the paper calls "rather inefficient for data exchange"
//!   (benchmark EQ2 quantifies this against the compiled views).

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod er_rel;
pub mod nest;
pub mod nested;
pub mod rel_er;
pub mod three_copy;

pub use er_rel::{er_to_relational, InheritanceStrategy, ModelGenError, ModelGenResult};
pub use nest::nest_relational;
pub use nested::shred_nested;
pub use rel_er::relational_to_er;
pub use three_copy::three_copy_translate;
