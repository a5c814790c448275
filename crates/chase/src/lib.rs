//! The chase: data exchange with universal instances.
//!
//! §4 of the paper describes the Clio/data-exchange approach to TransGen:
//! when mapping constraints are non-functional (GLAV / st-tgds), pick the
//! target instance with certain-answer semantics — a *universal instance*
//! containing labeled nulls "that are needed to compute the answers to
//! queries but are not allowed to be returned as part of the answer".
//! This crate implements that machinery:
//!
//! * [`chase::chase_st`] — the standard (restricted) chase of a source
//!   instance with st-tgds, producing a universal target instance;
//! * [`chase::chase_general`] — the bounded chase for arbitrary tgds
//!   (target tgds included), which may not terminate and is therefore
//!   step-bounded (composition of non-s-t tgds is undecidable, §6.1);
//! * [`certain::certain_answers`] — query evaluation with labeled-null
//!   filtering;
//! * [`core::core_of`] — greedy core minimization of a universal instance
//!   ("Data exchange: getting to the core").

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod certain;
pub mod chase;
pub mod core;
pub mod explain;
pub mod hom;
pub mod plan;

pub use crate::core::core_of;
pub use certain::certain_answers;
pub use chase::{
    chase_general, chase_general_adaptive, chase_general_adaptive_explained,
    chase_general_explained, chase_general_governed, chase_general_parallel,
    chase_general_parallel_traced, chase_general_prepared, chase_general_prepared_traced,
    chase_general_reference, chase_st, chase_st_explained, chase_st_governed, chase_st_parallel,
    chase_st_parallel_traced, chase_st_prepared, chase_st_prepared_governed,
    chase_st_prepared_traced, chase_st_reference, egds_from_keys, ChaseFailure, ChaseOutcome,
    ChaseStats, Egd,
};
pub use explain::{ChaseExplain, RoundExplain, TgdExplain};
pub use hom::{exists_hom, hom_equivalent};
pub use plan::{ChaseProgram, TgdPlan};
