//! TransGen: generating executable transformations from mapping
//! constraints (§4 of the paper).
//!
//! The input is a set of Figure 2-style constraints — equalities between
//! a selected/projected slice of an entity hierarchy and a relational
//! expression. TransGen compiles them into two view sets, following the
//! ADO.NET mapping-compilation design the paper describes:
//!
//! * an **update view** per table: the source expressed as a function of
//!   the target entity model, used to translate entity updates into table
//!   updates ([`update_views()`]);
//! * a **query view** per entity set: the entity model reconstructed from
//!   the tables — the left-outer-join + `CASE WHEN _from…` query of the
//!   paper's Figure 3 ([`query_views()`]).
//!
//! "The views must be lossless … the composition of the update view with
//! the query view must equal the identity on the target. It is called
//! **roundtripping**." [`roundtrip`] checks exactly that, both on sample
//! instances and via coverage analysis.
//!
//! [`corr`] covers §3.1.2 — turning correspondences into mapping
//! constraints: the snowflake interpretation of the paper's Figure 4, and
//! the Clio'00-style "correspondences as a visual programming language"
//! baseline that generates transformations directly.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod constraint_prop;
pub mod corr;
pub mod fragments;
pub mod query_views;
pub mod roundtrip;
pub mod update_views;

pub use constraint_prop::{
    check_implication, propagate_to_tables, unexpressible_constraints, PropagatedConstraint,
    Unexpressible,
};
pub use corr::{correspondences_to_views, snowflake_constraints, CorrError};
pub use fragments::{parse_fragments, Fragment, TransGenError};
pub use query_views::query_views;
pub use roundtrip::{check_coverage, verify_roundtrip, CoverageGap, RoundtripReport};
pub use update_views::update_views;
