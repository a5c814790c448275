//! Schema evolution operators: Extract, Diff, Merge, Inverse (§6 of the
//! paper).
//!
//! When a schema changes, dependent artifacts — views, queries,
//! constraints, instances — must be repaired. The paper abstracts the
//! repairs as sequences of model management operations; this crate
//! supplies the operators beyond Compose (which lives in `mm-compose`):
//!
//! * [`diff::extract`] — the maximal sub-schema reachable through a
//!   mapping, with its embedding;
//! * [`diff::diff`] — Extract's complement: "the parts of S′ that do not
//!   participate in the mapping" (§6.2), keeping keys so the complement
//!   can be re-joined;
//! * [`merge::merge`] — combine two schemas modulo a correspondence
//!   mapping (Pottinger–Bernstein style, §6.3);
//! * [`inverse::invert_views`] / [`inverse::verify_inverse`] — compute
//!   and check (quasi-)inverses of view-defined transformations (§6.4,
//!   after Fagin);
//! * [`scenario`] — the paper's Figure 5 end-to-end evolution script.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod diff;
pub mod inverse;
pub mod merge;
pub mod scenario;

pub use diff::{diff, extract, ExtractResult, Side};
pub use inverse::{invert_views, verify_inverse, InverseError, InverseKind};
pub use merge::{merge, MergeResult};
pub use scenario::{evolve_view, EvolutionOutcome};
