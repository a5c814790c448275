//! The mapping runtime (§5 of the paper).
//!
//! "The runtime system does not simply execute queries over mappings. It
//! must also propagate updates, notifications, exceptions, and access
//! rights, and provide other services, such as debugging, synchronization,
//! and provenance." This crate supplies those services over the engine's
//! view-defined mappings:
//!
//! * [`mediator`] — query mediation through chains of mappings
//!   (peer-to-peer): hop-by-hop unfolding vs a collapsed (pre-composed)
//!   mapping;
//! * [`updates`] — update propagation: deltas against a view schema
//!   translated into deltas against the base;
//! * [`ivm`] — incremental view maintenance for materialized targets
//!   (the "Notifications" service): delta rules for monotone algebra,
//!   full recompute fallback otherwise;
//! * [`provenance`] — why-provenance: the base tuples that witness a
//!   target tuple;
//! * [`errors`] — error translation: base-level integrity violations
//!   re-expressed in the context of the mapped (target) schema;
//! * [`batch`] — batch loading through a mapping into base relations.
//!
//! Each service has one entry point. Those with a telemetry or thread
//! option take an [`mm_guard::ExecCtx`] ([`MaintenancePlan::maintain`],
//! [`Mediator::plan_governed`]); those whose only option is a budget take
//! a borrowed [`mm_guard::Governor`] ([`batch_load`],
//! [`view_insert_delta_governed`], [`Mediator::answer_with_plan`]). A
//! batch of mediated queries is a loop of `answer_with_plan` over one
//! plan.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod access;
pub mod batch;
pub mod debugger;
pub mod errors;
pub mod indexing;
pub mod ivm;
pub mod mediator;
pub mod provenance;
pub mod sync;
pub mod triggers;
pub mod updates;

pub use access::{check_query, compile_policy, AccessPolicy, AccessRule, AccessViolation};
pub use batch::batch_load;
pub use indexing::{advise_indexes, IndexRecommendation, IndexUse};
pub use errors::{translate_violations, TargetError};
pub use debugger::{trace, Trace, TraceStep};
pub use ivm::{
    view_insert_delta_governed, Delta, MaintenancePlan, MaintenanceReport, MaintenanceStrategy,
};
pub use mediator::{
    MediationExplain, MediationMode, MediationPlan, MediationResult, Mediator,
};
pub use provenance::{explain, Witness};
pub use sync::{run_sync, translate_rules, SyncRule, SyncStats, TranslatedRule};
pub use triggers::{compile_triggers, fire_triggers, CompiledTrigger, Firing, Trigger};
pub use updates::{propagate, UpdateError};
