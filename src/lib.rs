//! `model-management` — a generic model management engine in Rust.
//!
//! Reproduction of Bernstein & Melnik, *Model Management 2.0: Manipulating
//! Richer Mappings* (SIGMOD 2007). The facade crate re-exports the engine
//! and every operator crate; see [`prelude`] for one-stop imports, and
//! `examples/` for runnable scenarios.
//!
//! # Example: ModelGen → TransGen → roundtrip
//!
//! ```
//! use model_management::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Engine::new();
//! engine.add_schema(
//!     SchemaBuilder::new("ER")
//!         .entity("Person", &[("Id", DataType::Int), ("Name", DataType::Text)])
//!         .entity_sub("Employee", "Person", &[("Dept", DataType::Text)])
//!         .key("Person", &["Id"])
//!         .build()?,
//! );
//!
//! // derive a relational schema + Figure-2-style mapping constraints
//! let generated = engine.modelgen_er_to_relational("ER", InheritanceStrategy::Vertical)?;
//! // compile them into query views (Figure 3) and update views
//! let (query_views, update_views) = engine.transgen("ER", "ER_rel", "ER->ER_rel")?;
//!
//! // run entities through the mapping and back: the identity
//! let er = engine.repo.latest_schema("ER")?.0;
//! let mut entities = Database::empty_of(&er);
//! entities.insert_entity(
//!     "Employee",
//!     "Employee",
//!     vec![Value::Int(1), Value::text("eve"), Value::text("hr")],
//! );
//! let tables = materialize_views(&update_views, &er, &entities)?;
//! let back = materialize_views(&query_views, &generated.schema, &tables)?;
//! assert!(entities.relations().all(|(n, r)| back.relation(n).is_some_and(|b| r.set_eq(b))));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use mm_engine::prelude;
pub use mm_engine::{Engine, EngineError};
