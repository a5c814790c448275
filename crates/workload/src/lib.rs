//! Synthetic workload generators for the benchmark harness and property
//! tests.
//!
//! The paper has no public testbed; these generators produce the schema
//! and data families its scenarios assume (see DESIGN.md §"Substitutions"):
//! snowflake schemas (Figure 4 / data warehousing), inheritance
//! hierarchies (Figures 2–3 / ADO.NET), perturbed schema copies with
//! ground-truth correspondences (matcher evaluation), tgd chains with
//! controllable producer fan-out (composition blowup), and evolution
//! chains (Figure 5). Everything is seeded and deterministic.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod data;
pub mod evolution;
pub mod faults;
pub mod perturb;
pub mod scale;
pub mod schemas;
pub mod skew;
pub mod tgds;

pub use data::{populate_er, populate_relational};
pub use evolution::{evolution_chain, EvolutionStep};
pub use faults::{
    bit_flip, cancel_after, divergent_tgds, exponential_compose, mutate_bytes,
    oversized_instance, quadratic_join, repo_ops, splice, terminating_chain, truncate_at,
    unbound_variable_sotgd, RepoOp,
};
pub use perturb::{perturb_schema, GroundTruth};
pub use scale::{
    evolution_scale, inheritance_scale, scale_scenarios, snowflake_scale, ScaleScenario,
};
pub use schemas::{er_hierarchy, relational_schema, snowflake_schema};
pub use skew::{correlated_join, fat_hub_join, zipf_join};
pub use tgds::{binary_schema, composition_chain, copy_tgds};
