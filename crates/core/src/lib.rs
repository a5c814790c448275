//! The model management engine: the reusable component of Figure 1.
//!
//! "A model management system is a component that supports the creation,
//! compilation, reuse, evolution, and execution of mappings between
//! schemas represented in a wide range of metamodels. … it is a reusable
//! component that can be embedded, with relatively modest customization,
//! into user-oriented tools" (§2). [`Engine`] is that component: a
//! metadata repository plus every operator, each invocation recorded as
//! lineage so tools get impact analysis for free.
//!
//! The operator sub-crates remain directly usable; the engine is the
//! convenience layer gluing them to the repository. All public types of
//! the sub-crates are re-exported under [`prelude`].
//!
//! Each operator has one entry point, and the served path is the only
//! path: data exchange is [`Engine::exchange`] (configured budget) or
//! [`Engine::exchange_governed`] (a caller's governor — the server's
//! entry point, which a wire batch loops over), and
//! [`Engine::explain_exchange`] shares that body under the caller's
//! governor. A function is `pub` only when something outside its crate
//! links it; the root `tests/surface.rs` holds each crate's `pub fn`
//! count to a committed ceiling.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod engine;
pub mod plan_cache;
pub mod script;

pub use engine::{
    Durability, Engine, EngineConfig, EngineError, DEFAULT_CHASE_ROUNDS,
};
pub use plan_cache::{PlanCache, PLAN_CACHE_SHARDS};
pub use script::{run_script, ScriptError};

/// One-stop imports for applications embedding the engine.
pub mod prelude {
    pub use crate::engine::{
        Durability, Engine, EngineConfig, EngineError, DEFAULT_CHASE_ROUNDS,
    };
    pub use crate::plan_cache::{PlanCache, PLAN_CACHE_SHARDS};
    pub use crate::script::{run_script, ScriptError};
    #[doc(hidden)]
    pub use mm_chase::chase_st_prepared_governed;
    pub use mm_chase::{
        certain_answers, core_of, egds_from_keys, exists_hom, hom_equivalent, ChaseExplain,
        ChaseFailure, ChaseOutcome, ChaseProgram, ChaseStats, Egd, GeneralRun, RoundExplain,
        StRun, TgdExplain,
    };
    pub use mm_compose::{
        apply_sotgd, compose_expr_mappings, compose_st_tgds, compose_views, transport_via,
        try_deskolemize, ComposeError,
    };
    pub use mm_eval::{
        eval, eval_governed, find_homomorphisms, find_homomorphisms_costed,
        find_homomorphisms_governed, materialize_views, materialize_views_governed, unfold_query,
        AtomExplain, CqPlan, EvalError, PlanExplain, VarTable,
    };
    pub use mm_guard::{
        CancelToken, Consumption, Degradation, DegradationKind, ExecBudget, ExecCtx, ExecError,
        Governor, Resource,
    };
    pub use mm_telemetry::{
        Cause, Collector, Counter, DegradationSite, EngineMetrics, Event, EventKind, ExplainNode,
        Field, FieldValue, Hist, Histogram, HistogramSummary, JsonLinesCollector, LineSink,
        MetricsSnapshot, RingCollector, ServerOp, Span, Telemetry, Timer, TraceScope,
    };
    pub use mm_evolution::{
        diff, evolve_view, extract, invert_views, merge, verify_inverse, EvolutionOutcome,
        ExtractResult, InverseError, InverseKind, MergeResult, Side,
    };
    pub use mm_expr::{
        entity_extent, optimize, output_schema, AggFunc, AggSpec, Atom, CmpOp, Correspondence, CorrespondenceSet, Expr,
        ExprError, Func, Lit, Mapping, MappingConstraint, PathRef, Predicate, Scalar, SoClause,
        SoTgd, Term, Tgd, ViewDef, ViewSet,
    };
    pub use mm_instance::{validate, Database, RelSchema, Relation, Tuple, Value};
    pub use mm_match::{
        match_schemas, remember_session, IncrementalSession, MatchConfig, MatchMemory,
    };
    pub use mm_metamodel::{
        parse_schema, Attribute, Cardinality, Constraint, DataType, Element, ElementKind, Key,
        Metamodel, ParseError, Schema, SchemaBuilder, TYPE_ATTR,
    };
    pub use mm_modelgen::{
        er_to_relational, nest_relational, relational_to_er, shred_nested, three_copy_translate,
        InheritanceStrategy, ModelGenError, ModelGenResult,
    };
    pub use mm_propagate::{
        ChangeFeed, ChangeKind, FeedEvent, Notification, PollResponse, PropagateConfig,
        PropagateError, Propagator, ResyncCause, SubscriberStatus,
    };
    pub use mm_repository::{
        ArtifactId, ArtifactKind, DurableOptions, FaultOp, FaultPlan, FaultStorage, LineageEdge,
        MemStorage, Repository, RepositoryError, Storage, StorageError, StorageLineSink,
        Subscription, SNAPSHOT_FILE, SNAPSHOT_TMP_FILE, WAL_FILE,
    };
    pub use mm_runtime::{
        advise_indexes, batch_load, check_query, compile_policy, compile_triggers, explain,
        fire_triggers, propagate, run_sync, trace, translate_rules, translate_violations,
        view_insert_delta_governed, AccessPolicy, AccessRule, AccessViolation, Delta, Firing,
        IndexRecommendation, IndexUse, MaintenancePlan, MaintenanceReport, MaintenanceStrategy,
        MediationExplain, MediationMode, MediationPlan, MediationResult, Mediator, SyncRule,
        SyncStats, Trace, TraceStep, Trigger, Witness,
    };
    pub use mm_transgen::{
        check_coverage, check_implication, correspondences_to_views, parse_fragments,
        propagate_to_tables, query_views, snowflake_constraints, unexpressible_constraints,
        update_views, verify_roundtrip, Fragment, PropagatedConstraint, RoundtripReport,
        TransGenError, Unexpressible,
    };
}
