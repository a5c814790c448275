//! The mapping-runtime substrate: executing algebra expressions and
//! conjunctive queries over databases.
//!
//! §5 of the paper promotes the runtime that executes mappings to a
//! first-class model management component. This crate is the execution
//! core every runtime service builds on: a materializing relational
//! algebra evaluator (with Entity SQL-style `IS OF` type tests), a
//! conjunctive-query/homomorphism engine used by the chase and by tgd
//! checking, and view materialization/unfolding.
//!
//! A compiled conjunctive query runs through one executor,
//! [`CqPlan::execute`], metered by a borrowed [`mm_guard::Governor`] and
//! fanned across a requested thread count; the naive nested-loop oracle
//! it is tested against lives in the hidden `testkit` module.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cq;
pub mod engine;
pub mod plan;
#[doc(hidden)]
pub mod testkit;
pub mod view;

pub use cq::{find_homomorphisms, find_homomorphisms_costed, find_homomorphisms_governed, Binding};
pub use plan::{
    AtomExplain, AtomRange, CqPlan, ExecOptions, PlanExplain, PlanMatch, SlotTerm, VarTable,
    DP_MAX_ATOMS,
};
pub use engine::{eval, eval_governed, EvalError, RowLayout};
pub use view::{materialize_views, materialize_views_governed, unfold_query};
