//! Execution governance for model-management operators.
//!
//! Every potentially-unbounded computation in the engine — chase
//! fixpoints, SO-tgd composition splicing, homomorphism joins, IVM
//! delta maintenance — runs under an [`ExecBudget`]: caps on logical
//! steps, produced rows, fixpoint rounds, output clauses, and wall
//! clock, plus a cooperative [`CancelToken`]. Operators meter
//! themselves through a [`Governor`] and surface violations as typed
//! [`ExecError`]s instead of panicking or silently truncating.
//!
//! Degradations (an operator falling back to a cheaper strategy after
//! tripping a budget, rather than failing outright) are first-class:
//! see [`Degradation`].

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod budget;
mod cancel;
mod ctx;
mod error;
mod governor;

pub use budget::{deadline_in, ExecBudget};
pub use cancel::CancelToken;
pub use ctx::ExecCtx;
pub use error::{Degradation, DegradationKind, ExecError, Resource};
pub use governor::{Consumption, Governor, SharedMeter};
