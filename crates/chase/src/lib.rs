//! The chase: data exchange with universal instances.
//!
//! §4 of the paper describes the Clio/data-exchange approach to TransGen:
//! when mapping constraints are non-functional (GLAV / st-tgds), pick the
//! target instance with certain-answer semantics — a *universal instance*
//! containing labeled nulls "that are needed to compute the answers to
//! queries but are not allowed to be returned as part of the answer".
//! This crate implements that machinery:
//!
//! * [`ChaseProgram::run_st`] — the standard (restricted) chase of a
//!   source instance with st-tgds, producing a universal target instance;
//! * [`ChaseProgram::run_general`] — the bounded chase for arbitrary tgds
//!   (target tgds included) and egds, which may not terminate and is
//!   therefore round-capped (composition of non-s-t tgds is undecidable,
//!   §6.1);
//! * [`certain::certain_answers`] — query evaluation with labeled-null
//!   filtering;
//! * [`core::core_of`] — greedy core minimization of a universal instance
//!   ("Data exchange: getting to the core"), one governor step per
//!   backtracking node.
//!
//! Both chases run under an [`mm_guard::ExecCtx`]: budget, telemetry,
//! threads, adaptive re-planning and EXPLAIN are its fields, and no
//! combination of them changes a result.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod certain;
pub mod chase;
pub mod core;
pub mod explain;
pub mod hom;
pub mod plan;
#[doc(hidden)]
pub mod testkit;

pub use crate::core::core_of;
pub use certain::certain_answers;
#[doc(hidden)]
pub use chase::chase_st_prepared_governed;
pub use chase::{
    egds_from_keys, ChaseFailure, ChaseOutcome, ChaseStats, Egd, GeneralRun, StRun,
};
pub use explain::{ChaseExplain, RoundExplain, TgdExplain};
pub use hom::{exists_hom, hom_equivalent};
pub use plan::{ChaseProgram, TgdPlan};
