//! The engine: repository-backed operator invocations.

use mm_chase::{ChaseExplain, ChaseProgram};
use mm_expr::{CorrespondenceSet, Expr, Mapping, SoTgd, Tgd, ViewSet};
use mm_guard::{ExecBudget, ExecCtx, Governor};
use mm_instance::{Database, Tuple};
use mm_match::MatchConfig;
use mm_metamodel::Schema;
use mm_modelgen::InheritanceStrategy;
use mm_propagate::{PollResponse, PropagateConfig, PropagateError, Propagator, SubscriberStatus};
use mm_repository::{
    ArtifactId, DurableOptions, Repository, RepositoryError, Storage, Subscription,
};
use mm_runtime::Delta;
use mm_telemetry::{Counter, Span, Telemetry};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

use crate::plan_cache::PlanCache;

/// Default round cap for the general chase. The general chase may not
/// terminate (composition of non-s-t tgds is undecidable, §6.1), so the
/// engine always runs it under a cap; exceeding the cap surfaces as
/// [`mm_guard::ExecError::Diverged`] rather than a silent stop.
pub const DEFAULT_CHASE_ROUNDS: u64 = 256;

/// Default clause cap for the engine's operators. SO-tgd composition is
/// worst-case exponential in its output (§6.1), so a composition past
/// this many clauses trips `BudgetExhausted { Clauses }`; the same cap
/// bounds the node count of a view-set composition.
const DEFAULT_CLAUSES: u64 = 1 << 16;

/// Drift threshold for adaptive re-optimization, as a ratio between a
/// plan's compile-time body-relation cardinalities and the live ones
/// (either direction, +1 smoothed). Chase programs are compiled by the
/// cost-based planner ([`mm_chase::ChaseProgram::compile_costed`]); a
/// cached or mid-run plan past the threshold is re-planned against
/// current statistics. Re-planning changes how much work a chase does,
/// never its result.
const REPLAN_RATIO: f64 = 8.0;

/// Where the engine's repository lives.
#[derive(Clone, Default)]
pub enum Durability {
    /// In-memory only — the historical behavior. A crash loses
    /// everything since startup.
    #[default]
    Ephemeral,
    /// Journal every repository write through a write-ahead log on this
    /// storage, running crash recovery on open (DESIGN.md §9).
    Durable { storage: Arc<dyn Storage> },
}

impl fmt::Debug for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Durability::Ephemeral => f.write_str("Ephemeral"),
            Durability::Durable { .. } => f.write_str("Durable"),
        }
    }
}

/// Engine knobs: the execution budget, parallelism, durability,
/// propagation and telemetry.
///
/// Every resource limit of an engine operator is a cap of
/// [`EngineConfig::budget`]. The default configuration is permissive:
/// an unbounded budget, into which the engine fills
/// [`DEFAULT_CHASE_ROUNDS`] rounds and 65 536 clauses, so the general
/// chase and SO-tgd composition still stop.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Execution budget (steps, rows, rounds, clauses, wall clock,
    /// cancellation) every governed operator runs under. A round or
    /// clause cap it leaves unset is filled in with the engine default
    /// ([`DEFAULT_CHASE_ROUNDS`] rounds, 65 536 clauses). Defaults to
    /// unbounded.
    pub budget: ExecBudget,
    /// Degree of parallelism for the within-round body-matching fan-out
    /// of `exchange` / `chase_general` (a governed exchange, the
    /// server's, always runs on one thread). `1` runs everything
    /// sequentially (the reference oracle — parallel runs are
    /// bit-identical to it). Defaults to the machine's available
    /// parallelism.
    pub threads: usize,
    /// Repository durability mode. Defaults to [`Durability::Ephemeral`].
    pub durability: Durability,
    /// Update-propagation knobs: subscriber queue bounds and the
    /// per-event delta budget (DESIGN.md §14).
    pub propagate: PropagateConfig,
    /// Telemetry handle threaded through every operator and the
    /// repository: operator spans, engine metrics, and degradation
    /// events all flow through it. Defaults to
    /// [`Telemetry::disabled`], which costs one branch per
    /// instrumentation site.
    pub telemetry: Telemetry,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            budget: ExecBudget::unbounded(),
            threads: mm_parallel::available_parallelism(),
            durability: Durability::Ephemeral,
            propagate: PropagateConfig::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Engine errors: repository misses plus operator failures, flattened for
/// tool consumption.
#[derive(Debug)]
pub enum EngineError {
    Repository(RepositoryError),
    ModelGen(mm_modelgen::ModelGenError),
    TransGen(mm_transgen::TransGenError),
    Compose(mm_compose::ComposeError),
    Eval(mm_eval::EvalError),
    Corr(mm_transgen::CorrError),
    Inverse(mm_evolution::InverseError),
    /// Resource governance: budget exhaustion, cancellation, divergence,
    /// or malformed caller-supplied data caught by a governed operator.
    Exec(mm_guard::ExecError),
    /// Update propagation: unknown subscriber/instance or a failed
    /// resync recompute.
    Propagate(PropagateError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Repository(e) => write!(f, "repository: {e}"),
            EngineError::ModelGen(e) => write!(f, "modelgen: {e}"),
            EngineError::TransGen(e) => write!(f, "transgen: {e}"),
            EngineError::Compose(e) => write!(f, "compose: {e}"),
            EngineError::Eval(e) => write!(f, "eval: {e}"),
            EngineError::Corr(e) => write!(f, "correspondence: {e}"),
            EngineError::Inverse(e) => write!(f, "inverse: {e}"),
            EngineError::Exec(e) => write!(f, "execution: {e}"),
            EngineError::Propagate(e) => write!(f, "propagation: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for EngineError {
            fn from(e: $ty) -> Self {
                EngineError::$variant(e)
            }
        }
    };
}

from_err!(Repository, RepositoryError);
from_err!(ModelGen, mm_modelgen::ModelGenError);
from_err!(TransGen, mm_transgen::TransGenError);

/// A budget trip inside composition is the same error as anywhere else
/// in the engine ([`EngineError::Exec`]), so it maps to the same wire
/// code; only a composition-specific failure stays `Compose`.
impl From<mm_compose::ComposeError> for EngineError {
    fn from(e: mm_compose::ComposeError) -> Self {
        match e {
            mm_compose::ComposeError::Exec(e) => EngineError::Exec(e),
            e => EngineError::Compose(e),
        }
    }
}
from_err!(Eval, mm_eval::EvalError);
from_err!(Corr, mm_transgen::CorrError);
from_err!(Inverse, mm_evolution::InverseError);
from_err!(Exec, mm_guard::ExecError);
from_err!(Propagate, PropagateError);

/// The model management engine: operators over a metadata repository.
///
/// Every operator method loads its inputs from the repository by name,
/// stores its outputs, and records a lineage edge — the Rondo-style
/// scripting surface: a "script" is simply a sequence of engine calls.
pub struct Engine {
    pub repo: Repository,
    pub config: EngineConfig,
    /// Compiled chase programs: a sharded, lock-striped cache keyed by
    /// mapping name (see [`PlanCache`]). Interior mutability because
    /// every operator takes `&self`.
    chase_plans: PlanCache,
    /// The update-propagation hub (DESIGN.md §14): change feed,
    /// subscriber queues, resync machinery.
    propagator: Propagator,
    /// Orders the (repository write → feed publish) pair across
    /// concurrent writers: without it two commits could publish out of
    /// sequence and the feed would refuse the stale one. Data-path
    /// writes only — metadata operators never take it.
    feed_order: Mutex<()>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    pub fn new() -> Self {
        let config = EngineConfig::default();
        Engine {
            repo: Repository::new(),
            propagator: Propagator::new(config.propagate.clone(), config.telemetry.clone()),
            config,
            chase_plans: PlanCache::default(),
            feed_order: Mutex::new(()),
        }
    }

    /// An engine with explicit knobs (execution budget, parallelism,
    /// durability, propagation, telemetry). Fallible because a
    /// [`Durability::Durable`] configuration opens the storage and runs
    /// crash recovery.
    pub fn with_config(config: EngineConfig) -> Result<Self, EngineError> {
        let repo = match &config.durability {
            Durability::Ephemeral => {
                let mut repo = Repository::new();
                repo.set_telemetry(config.telemetry.clone());
                repo
            }
            Durability::Durable { storage } => Repository::open_durable_with_telemetry(
                Arc::clone(storage),
                config.telemetry.clone(),
            )?,
        };
        let propagator = Propagator::new(config.propagate.clone(), config.telemetry.clone());
        // Re-attach recovered propagation state: every tracked instance
        // becomes a replica at its own last feed-event sequence (not the
        // global WAL sequence — registry writes don't count against a
        // subscriber), and every registered subscription comes back
        // streaming-from-now. A client that resumes with a cursor behind
        // real events is degraded to a resync at `resume` time, never
        // silently skipped ahead; a fully caught-up client keeps
        // streaming.
        for name in repo.instance_names() {
            if let Some(db) = repo.instance(&name) {
                let seq = repo.instance_seq(&name);
                propagator.track_instance(name, db, seq);
            }
        }
        for sub in repo.subscriptions() {
            if let Ok((schema, _)) = repo.latest_schema(&sub.views.base_schema) {
                // A subscription whose base schema is gone cannot be
                // served; leave it in the registry for inspection but
                // do not attach it.
                let _ = propagator.attach_recovered(sub, schema);
            }
        }
        Ok(Engine {
            repo,
            config,
            chase_plans: PlanCache::default(),
            propagator,
            feed_order: Mutex::new(()),
        })
    }

    /// The engine's telemetry handle — disabled unless
    /// [`EngineConfig::telemetry`] was set. Inspect metrics via
    /// `engine.telemetry().metrics()`.
    pub fn telemetry(&self) -> &Telemetry {
        &self.config.telemetry
    }

    /// Open (or recover) a durable engine over `storage` with otherwise
    /// default configuration — shorthand for [`Engine::with_config`]
    /// with [`Durability::Durable`]. [`DurableOptions`] has no fields.
    pub fn open_durable(
        storage: Arc<dyn Storage>,
        _options: DurableOptions,
    ) -> Result<Self, EngineError> {
        Engine::with_config(EngineConfig {
            durability: Durability::Durable { storage },
            ..EngineConfig::default()
        })
    }

    /// The compiled chase program for mapping `name` at version `id`,
    /// compiling and caching it on first use. The cache is sharded
    /// ([`PLAN_CACHE_SHARDS`](crate::plan_cache::PLAN_CACHE_SHARDS) lock
    /// stripes) and keyed by mapping *name*, with each entry remembering
    /// the [`ArtifactId`] it was compiled from. A cached plan compiled
    /// from an *older* version of the same name is treated as a miss and
    /// replaced, so a replaced mapping never serves its predecessor's
    /// plan, and a cached plan whose compile-time statistics have drifted
    /// from `db` beyond [`REPLAN_RATIO`] is invalidated and
    /// recompiled against current cardinalities (counted as a plan
    /// misestimate plus a re-plan). `db` only supplies cardinality
    /// statistics for the compile; plan order never affects result sets.
    fn chase_program(
        &self,
        name: &str,
        id: &ArtifactId,
        tgds: &[Tgd],
        db: &Database,
    ) -> Arc<ChaseProgram> {
        let tel = &self.config.telemetry;
        let compile =
            |tgds: &[Tgd], db: &Database| Arc::new(ChaseProgram::compile_costed(tgds, db));
        if let Some(program) = self.chase_plans.get(name, id) {
            if program.misestimated(db, REPLAN_RATIO) {
                tel.count(Counter::PlanMisestimates, 1);
                self.chase_plans.invalidate(name);
                let fresh = compile(tgds, db);
                self.chase_plans.insert(name, id.clone(), Arc::clone(&fresh));
                tel.count(Counter::PlanReplans, 1);
                return fresh;
            }
            tel.count(Counter::PlanCacheHits, 1);
            return program;
        }
        tel.count(Counter::PlanCacheMisses, 1);
        let program = compile(tgds, db);
        self.chase_plans.insert(name, id.clone(), Arc::clone(&program));
        program
    }

    /// Sample the instance layer's process-wide allocation totals into
    /// the `alloc.*` telemetry gauges. Called at operation boundaries so
    /// `BENCH_telemetry.json` (and live `metrics` requests) expose
    /// tuple-spill and intern-pool pressure — including the strings the
    /// pool silently refused — without the hot path paying for more than
    /// a handful of atomic reads per op.
    fn sample_alloc(&self) {
        use mm_instance::intern;
        use mm_telemetry::AllocCounter;
        let (tuples, interned) = intern::alloc_counts();
        let (refused_len, refused_capacity) = intern::refusal_counts();
        self.config.telemetry.sample_alloc(&[
            (AllocCounter::Tuples, tuples),
            (AllocCounter::Interned, interned),
            (AllocCounter::InternEntries, intern::pool_len() as u64),
            (AllocCounter::InternRefusedLen, refused_len),
            (AllocCounter::InternRefusedCapacity, refused_capacity),
        ]);
    }

    /// The budget every governor the engine creates meters against: the
    /// configured budget, with [`DEFAULT_CHASE_ROUNDS`] rounds and
    /// [`DEFAULT_CLAUSES`] clauses filled in where it sets no cap.
    fn budget(&self) -> ExecBudget {
        self.config.budget.clone().with_default_caps(DEFAULT_CHASE_ROUNDS, DEFAULT_CLAUSES)
    }

    /// The context every chase the engine runs executes under: the
    /// configured telemetry, threads and re-plan ratio, metering through
    /// `gov`.
    fn chase_ctx<'g>(&self, gov: &'g mut Governor) -> ExecCtx<'g> {
        ExecCtx {
            governor: gov,
            telemetry: self.config.telemetry.clone(),
            threads: self.config.threads,
            replan_ratio: Some(REPLAN_RATIO),
            explain: false,
        }
    }

    fn tgds_of(m: &Mapping) -> Result<Vec<Tgd>, EngineError> {
        Ok(m.as_tgds()
            .ok_or_else(|| {
                EngineError::TransGen(mm_transgen::TransGenError::Unrecognized(
                    "operator requires a tgd mapping".into(),
                ))
            })?
            .into_iter()
            .cloned()
            .collect())
    }

    /// Register a schema under its own name.
    pub fn add_schema(&self, schema: Schema) -> Result<ArtifactId, EngineError> {
        Ok(self.repo.store_schema(schema.name.clone(), schema)?)
    }

    fn schema(&self, name: &str) -> Result<(Schema, ArtifactId), EngineError> {
        Ok(self.repo.latest_schema(name)?)
    }

    /// Match: compute correspondences between two registered schemas and
    /// store them as `<source>~<target>`.
    pub fn match_schemas(
        &self,
        source: &str,
        target: &str,
        cfg: &MatchConfig,
    ) -> Result<(CorrespondenceSet, ArtifactId), EngineError> {
        let (s, sid) = self.schema(source)?;
        let (t, tid) = self.schema(target)?;
        let cs = mm_match::match_schemas(&s, &t, cfg);
        let out = self.repo.store_correspondences(format!("{source}~{target}"), cs.clone())?;
        self.repo.record("match", vec![sid, tid], out.clone())?;
        Ok((cs, out))
    }

    /// Match with memory: like [`Self::match_schemas`], but first replays
    /// every *confirmed* correspondence set stored in the repository
    /// (confidence 1.0 entries) into a [`mm_match::MatchMemory`] and
    /// boosts remembered pairs — the paper's "previous matches" evidence.
    pub(crate) fn match_schemas_with_memory(
        &self,
        source: &str,
        target: &str,
        cfg: &MatchConfig,
    ) -> Result<(CorrespondenceSet, ArtifactId), EngineError> {
        let (s, sid) = self.schema(source)?;
        let (t, tid) = self.schema(target)?;
        let mut memory = mm_match::MatchMemory::new();
        for name in self.repo.correspondence_names() {
            if let Ok((cs, _)) = self.repo.latest_correspondences(&name) {
                for c in &cs.correspondences {
                    if c.confidence >= 1.0 {
                        memory.remember(&c.source, &c.target);
                    }
                }
            }
        }
        let mut cs = mm_match::match_schemas(&s, &t, cfg);
        memory.apply(&mut cs);
        let out = self
            .repo
            .store_correspondences(format!("{source}~{target}"), cs.clone())?;
        self.repo.record("match+memory", vec![sid, tid], out.clone())?;
        Ok((cs, out))
    }

    /// ModelGen: translate a registered ER schema to a relational one;
    /// stores the generated schema, the mapping, and the forward views.
    pub fn modelgen_er_to_relational(
        &self,
        er: &str,
        strategy: InheritanceStrategy,
    ) -> Result<mm_modelgen::ModelGenResult, EngineError> {
        let (s, sid) = self.schema(er)?;
        let result = mm_modelgen::er_to_relational(&s, strategy)?;
        let out_schema =
            self.repo.store_schema(result.schema.name.clone(), result.schema.clone())?;
        let mapping_name = format!("{}->{}", er, result.schema.name);
        let out_mapping = self.repo.store_mapping(mapping_name.clone(), result.mapping.clone())?;
        let out_views =
            self.repo.store_viewset(format!("{mapping_name}.views"), result.views.clone())?;
        self.repo.record(
            format!("modelgen[{strategy}]"),
            vec![sid],
            out_schema.clone(),
        )?;
        self.repo.record(format!("modelgen[{strategy}]"), vec![out_schema], out_mapping.clone())?;
        self.repo.record("modelgen.views", vec![out_mapping], out_views)?;
        Ok(result)
    }

    /// ModelGen in the wrapper direction: relational to ER.
    pub fn modelgen_relational_to_er(
        &self,
        rel: &str,
    ) -> Result<mm_modelgen::ModelGenResult, EngineError> {
        let (s, sid) = self.schema(rel)?;
        let result = mm_modelgen::relational_to_er(&s)?;
        let out_schema =
            self.repo.store_schema(result.schema.name.clone(), result.schema.clone())?;
        self.repo.record("modelgen[rel->er]", vec![sid], out_schema)?;
        Ok(result)
    }

    /// TransGen: compile a stored constraint mapping into query and update
    /// views (stored as `<name>.qviews` / `<name>.uviews`).
    pub fn transgen(
        &self,
        er: &str,
        rel: &str,
        mapping_name: &str,
    ) -> Result<(ViewSet, ViewSet), EngineError> {
        let (er_schema, erid) = self.schema(er)?;
        let (rel_schema, relid) = self.schema(rel)?;
        let (mapping, mid) = self.repo.latest_mapping(mapping_name)?;
        let frags = mm_transgen::parse_fragments(&er_schema, &rel_schema, &mapping)?;
        let qv = mm_transgen::query_views(&er_schema, &rel_schema, &frags)?;
        let uv = mm_transgen::update_views(&er_schema, &rel_schema, &frags)?;
        let qid = self.repo.store_viewset(format!("{mapping_name}.qviews"), qv.clone())?;
        let uid = self.repo.store_viewset(format!("{mapping_name}.uviews"), uv.clone())?;
        self.repo.record("transgen.query", vec![erid.clone(), relid.clone(), mid.clone()], qid)?;
        self.repo.record("transgen.update", vec![erid, relid, mid], uid)?;
        Ok((qv, uv))
    }

    /// Store a hand-written mapping.
    pub fn add_mapping(&self, name: &str, mapping: Mapping) -> Result<ArtifactId, EngineError> {
        Ok(self.repo.store_mapping(name, mapping)?)
    }

    /// Store a hand-written view set.
    pub fn add_viewset(&self, name: &str, views: ViewSet) -> Result<ArtifactId, EngineError> {
        Ok(self.repo.store_viewset(name, views)?)
    }

    /// Compose two stored view sets (`first` base→mid, `second` mid→top),
    /// storing the collapsed result. The node count of the composed
    /// definitions is checked against the budget's clause cap (65 536
    /// unless the configured budget sets one), so a blowing-up chain
    /// trips `BudgetExhausted` instead of storing an enormous mapping.
    pub fn compose(
        &self,
        first: &str,
        second: &str,
        out_name: &str,
    ) -> Result<ViewSet, EngineError> {
        let (a, aid) = self.repo.latest_viewset(first)?;
        let (b, bid) = self.repo.latest_viewset(second)?;
        let composed = mm_compose::compose_views(&a, &b);
        let mut gov = Governor::new(&self.budget());
        let nodes: usize = composed.views.iter().map(|v| v.expr.size()).sum();
        gov.clauses(nodes as u64)?;
        gov.steps_n(nodes as u64)?;
        let out = self.repo.store_viewset(out_name, composed.clone())?;
        self.repo.record("compose", vec![aid, bid], out)?;
        Ok(composed)
    }

    /// Compose two stored *tgd* mappings (§6.1): Skolemize into an
    /// SO-tgd under the budget's clause cap (65 536 unless the configured
    /// budget sets one), then try to fold the result back into
    /// first-order st-tgds. When folding succeeds the first-order
    /// mapping is stored under `out_name`. A budget trip in either step
    /// is [`EngineError::Exec`], as in every other operator.
    pub fn compose_tgd_mappings(
        &self,
        first: &str,
        second: &str,
        out_name: &str,
    ) -> Result<(SoTgd, Option<Mapping>), EngineError> {
        let (m12, aid) = self.repo.latest_mapping(first)?;
        let (m23, bid) = self.repo.latest_mapping(second)?;
        let t12 = Self::tgds_of(&m12)?;
        let t23 = Self::tgds_of(&m23)?;
        let tel = &self.config.telemetry;
        let mut span = Span::enter(tel, "engine.compose.tgd", format!("{aid} * {bid}"));
        // compose and deskolemize are metered separately, each under a
        // fresh governor for the configured budget
        let mut gov = Governor::new(&self.budget());
        let so = match mm_compose::compose_st_tgds(
            &t12,
            &t23,
            &mut ExecCtx { telemetry: tel.clone(), ..ExecCtx::new(&mut gov) },
        ) {
            Ok(so) => {
                span.field("clauses", so.clauses.len());
                so
            }
            Err(e) => {
                span.field("error", e.to_string());
                return Err(e.into());
            }
        };
        let mut gov = Governor::new(&self.budget());
        let folded = match mm_compose::try_deskolemize(&so, &mut gov)? {
            Some(tgds) => {
                let mut m = Mapping::new(m12.source_schema.clone(), m23.target_schema.clone());
                for t in tgds {
                    m.push_tgd(t);
                }
                let out = self.repo.store_mapping(out_name, m.clone())?;
                self.repo.record("compose.tgd", vec![aid, bid], out)?;
                Some(m)
            }
            None => None,
        };
        span.field("folded", folded.is_some());
        span.finish();
        Ok((so, folded))
    }

    /// Diff a stored schema against a stored mapping (§6.2).
    pub fn diff(
        &self,
        schema: &str,
        mapping: &str,
    ) -> Result<mm_evolution::ExtractResult, EngineError> {
        let (s, sid) = self.schema(schema)?;
        let (m, mid) = self.repo.latest_mapping(mapping)?;
        let result = mm_evolution::diff(&s, &m, mm_evolution::diff::Side::Source);
        let out = self.repo.store_schema(result.schema.name.clone(), result.schema.clone())?;
        self.repo.record("diff", vec![sid, mid], out)?;
        Ok(result)
    }

    /// Extract the participating sub-schema (§6.2).
    pub fn extract(
        &self,
        schema: &str,
        mapping: &str,
    ) -> Result<mm_evolution::ExtractResult, EngineError> {
        let (s, sid) = self.schema(schema)?;
        let (m, mid) = self.repo.latest_mapping(mapping)?;
        let result = mm_evolution::extract(&s, &m, mm_evolution::diff::Side::Source);
        let out = self.repo.store_schema(result.schema.name.clone(), result.schema.clone())?;
        self.repo.record("extract", vec![sid, mid], out)?;
        Ok(result)
    }

    /// Invert (§6.2): the *syntactic* inverse — swap the source/target
    /// roles of a stored mapping (not the semantic Inverse of §6.4, which
    /// is `mm_evolution::invert_views`).
    pub(crate) fn invert(&self, mapping: &str, out_name: &str) -> Result<Mapping, EngineError> {
        let (m, mid) = self.repo.latest_mapping(mapping)?;
        let inverted = m.inverted();
        let out = self.repo.store_mapping(out_name, inverted.clone())?;
        self.repo.record("invert", vec![mid], out)?;
        Ok(inverted)
    }

    /// Merge two stored schemas modulo stored correspondences (§6.3).
    pub fn merge(
        &self,
        left: &str,
        right: &str,
        corrs: &str,
    ) -> Result<mm_evolution::MergeResult, EngineError> {
        let (l, lid) = self.schema(left)?;
        let (r, rid) = self.schema(right)?;
        let (cs, cid) = self.repo.latest_correspondences(corrs)?;
        let result = mm_evolution::merge(&l, &r, &cs);
        let out = self.repo.store_schema(result.schema.name.clone(), result.schema.clone())?;
        self.repo.record("merge", vec![lid, rid, cid], out)?;
        Ok(result)
    }

    /// Data exchange: chase a source instance through a stored tgd mapping
    /// into the (stored) target schema; returns the universal instance.
    ///
    /// Runs under the engine's configured [`ExecBudget`]; a budget trip or
    /// cancellation surfaces as [`EngineError::Exec`]. The s-t chase
    /// always terminates, so no round cap applies here — see
    /// [`Self::chase_general`] for the capped general chase.
    pub fn exchange(
        &self,
        mapping: &str,
        target_schema: &str,
        source_db: &Database,
    ) -> Result<(Database, mm_chase::ChaseStats), EngineError> {
        let mut gov = Governor::new(&self.budget());
        self.run_exchange(mapping, target_schema, source_db, &mut self.chase_ctx(&mut gov))
            .map(|run| (run.target, run.stats))
    }

    /// [`Self::exchange`] metered through a caller-supplied [`Governor`]
    /// instead of the engine's configured budget. This is the server's
    /// entry point: the governor carries the request's hard deadline and
    /// publishes into the session's shared meter, so one tenant's
    /// requests are bounded collectively while the engine itself stays
    /// budget-agnostic. Plan caching, telemetry spans, and results are
    /// identical to [`Self::exchange`].
    pub fn exchange_governed(
        &self,
        mapping: &str,
        target_schema: &str,
        source_db: &Database,
        gov: &mut Governor,
    ) -> Result<(Database, mm_chase::ChaseStats), EngineError> {
        let ctx = &mut ExecCtx { threads: 1, ..self.chase_ctx(gov) };
        self.run_exchange(mapping, target_schema, source_db, ctx)
            .map(|run| (run.target, run.stats))
    }

    /// [`Self::exchange_governed`] with an EXPLAIN report: alongside the
    /// universal instance, a [`ChaseExplain`] carrying the compiled join
    /// order and per-atom selectivities of every tgd body plus the
    /// per-round chase deltas. The report is computed against the
    /// *source* instance, so two identical invocations render
    /// byte-identical text, and it describes the run it came from: the
    /// same governor, the same single thread as a wire exchange.
    pub fn explain_exchange(
        &self,
        mapping: &str,
        target_schema: &str,
        source_db: &Database,
        gov: &mut Governor,
    ) -> Result<(Database, mm_chase::ChaseStats, ChaseExplain), EngineError> {
        let ctx = &mut ExecCtx { threads: 1, explain: true, ..self.chase_ctx(gov) };
        let run = self.run_exchange(mapping, target_schema, source_db, ctx)?;
        Ok((run.target, run.stats, explained(run.explain)?))
    }

    /// The one exchange body: resolve the mapping and target schema,
    /// fetch (or compile) the cached plan, and run the s-t chase under
    /// `ctx` inside an `engine.exchange` span.
    fn run_exchange(
        &self,
        mapping: &str,
        target_schema: &str,
        source_db: &Database,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<mm_chase::StRun, EngineError> {
        let (m, mid) = self.repo.latest_mapping(mapping)?;
        let (t, _) = self.schema(target_schema)?;
        let tgds = Self::tgds_of(&m)?;
        let tel = &self.config.telemetry;
        let mut span = Span::enter(tel, "engine.exchange", mid.to_string());
        let program = self.chase_program(mapping, &mid, &tgds, source_db);
        let result =
            program.run_st(&t, source_db, ctx).map_err(|f| EngineError::Exec(f.into()));
        match &result {
            Ok(run) => {
                span.field("fired", run.stats.fired);
                span.field("target_tuples", run.target.total_tuples());
            }
            Err(e) => span.field("error", e.to_string()),
        }
        self.sample_alloc();
        span.finish();
        result
    }

    /// Answer a conjunctive query against a stored base schema through a
    /// chain of stored view sets, metered through a caller-supplied
    /// [`Governor`] (the same server-facing contract as
    /// [`Self::exchange_governed`]). Builds the mediator over the chain,
    /// plans under the governor (degrading to chained unfolding on a
    /// budget trip, never on a deadline), and evaluates the query.
    pub fn mediate_governed(
        &self,
        base_schema: &str,
        chain: &[String],
        query: &Expr,
        base_db: &Database,
        gov: &mut Governor,
    ) -> Result<mm_runtime::MediationResult, EngineError> {
        let (base, _) = self.schema(base_schema)?;
        let viewsets: Vec<ViewSet> = chain
            .iter()
            .map(|name| Ok(self.repo.latest_viewset(name)?.0))
            .collect::<Result<_, EngineError>>()?;
        let mediator = mm_runtime::Mediator::new(&base, viewsets.iter().collect());
        let plan = mediator
            .plan_governed(&mut ExecCtx {
                telemetry: self.config.telemetry.clone(),
                ..ExecCtx::new(gov)
            })
            .map_err(EngineError::Exec)?;
        let result = mediator
            .answer_with_plan(&plan, query, base_db, gov)
            .map_err(EngineError::from);
        self.sample_alloc();
        result
    }

    /// Checkpoint the repository if it is durable (no-op otherwise) —
    /// the server's drain hook: called after inflight work completes so
    /// a restart recovers from the snapshot instead of replaying the
    /// session's whole WAL.
    pub fn checkpoint(&self) -> Result<(), EngineError> {
        if self.repo.is_durable() {
            self.repo.checkpoint()?;
        }
        Ok(())
    }

    // --- update propagation (DESIGN.md §14) --------------------------------

    /// Create or replace a tracked instance wholesale — the bulk-load
    /// path. However many tuples `value` carries, the write is one
    /// amortized WAL frame and one coalesced feed event; streaming
    /// subscribers on the instance flip to a (non-degradation) load
    /// resync. Returns the commit sequence.
    pub fn put_instance(&self, name: &str, value: Database) -> Result<u64, EngineError> {
        let _order = self.feed_order.lock();
        let seq = self.repo.put_instance(name, value.clone())?;
        self.propagator.publish_load(seq, name, value);
        Ok(seq)
    }

    /// Apply an insert-only batch to a tracked instance: validated and
    /// journaled as a single WAL record by the repository, then
    /// published as one coalesced feed event — subscribers see one
    /// notification per batch, not per tuple. Returns the commit
    /// sequence.
    pub fn insert_batch(
        &self,
        instance: &str,
        inserts: Vec<(String, Vec<Tuple>)>,
    ) -> Result<u64, EngineError> {
        let _order = self.feed_order.lock();
        let seq = self.repo.apply_instance_delta(instance, inserts.clone())?;
        let mut delta = Delta::new();
        for (rel, tuples) in inserts {
            for t in tuples {
                delta.insert(rel.clone(), t);
            }
        }
        self.propagator.publish_delta(seq, instance, &delta)?;
        Ok(seq)
    }

    /// A clone of a tracked instance's current committed state.
    pub fn instance(&self, name: &str) -> Option<Database> {
        self.repo.instance(name)
    }

    /// Register a continuous query over a tracked instance: the
    /// subscription is journaled WAL-first (it survives a crash), then
    /// attached to the propagator. The subscriber's first poll delivers
    /// the bootstrap snapshot. Returns the subscription id.
    pub fn subscribe(&self, instance: &str, views: ViewSet) -> Result<u64, EngineError> {
        if self.repo.instance(instance).is_none() {
            return Err(EngineError::Repository(RepositoryError::NotFound(format!(
                "instance `{instance}`"
            ))));
        }
        let (schema, _) = self.repo.latest_schema(&views.base_schema)?;
        let _order = self.feed_order.lock();
        let id = self
            .repo
            .subscriptions()
            .iter()
            .map(|s| s.id)
            .max()
            .unwrap_or(0)
            + 1;
        let sub = Subscription { id, instance: instance.to_string(), views, cursor: 0 };
        self.repo.register_subscription(sub.clone())?;
        self.propagator.subscribe(sub, schema)?;
        Ok(id)
    }

    /// Drain up to `max` pending notifications for subscriber `id` —
    /// incremental view deltas, or a single resync snapshot when the
    /// subscriber was degraded (or just subscribed/resumed off the
    /// feed).
    pub fn poll(&self, id: u64, max: usize) -> Result<PollResponse, EngineError> {
        Ok(self.propagator.poll(id, max)?)
    }

    /// Durably acknowledge everything up to `cursor` for subscriber
    /// `id`: the cursor advance is journaled (monotone), so a
    /// reconnecting client resumes from it after a crash.
    pub fn ack(&self, id: u64, cursor: u64) -> Result<(), EngineError> {
        self.repo.advance_cursor(id, cursor)?;
        self.propagator.ack(id, cursor)?;
        Ok(())
    }

    /// A client reconnected claiming it has applied everything up to
    /// `cursor` (normally its last durable ack). Streaming continues if
    /// the subscriber's queue still covers everything past the cursor;
    /// otherwise the next poll delivers a cursor-lost resync.
    pub fn resume(&self, id: u64, cursor: u64) -> Result<(), EngineError> {
        self.repo.advance_cursor(id, cursor)?;
        self.propagator.resume(id, cursor)?;
        Ok(())
    }

    /// Drop subscription `id` from the durable registry and the
    /// propagator.
    pub fn unsubscribe(&self, id: u64) -> Result<(), EngineError> {
        self.repo.drop_subscription(id)?;
        self.propagator.unsubscribe(id);
        Ok(())
    }

    /// Introspect one subscriber (queue depth, cursor, pending resync).
    pub fn subscriber_status(&self, id: u64) -> Result<SubscriberStatus, EngineError> {
        Ok(self.propagator.status(id)?)
    }

    /// A plan-only EXPLAIN of the exchange `mapping` would run over
    /// `source_db`: the compiled (cached) join orders and per-atom
    /// cardinalities of every tgd body, with no rounds — nothing
    /// executes, so this stays cheap even when the exchange itself was
    /// pathological. The server's slow-query log attaches this to
    /// exchange-shaped requests after the fact (DESIGN.md §15);
    /// `mode=plan` distinguishes it from the executed `st`/`general`
    /// reports.
    pub fn plan_explain(&self, mapping: &str, source_db: &Database) -> Result<String, EngineError> {
        let (m, mid) = self.repo.latest_mapping(mapping)?;
        let tgds = Self::tgds_of(&m)?;
        let program = self.chase_program(mapping, &mid, &tgds, source_db);
        let explain = ChaseExplain {
            mode: "plan",
            stats: mm_chase::ChaseStats::default(),
            tgds: program.explain(source_db),
            rounds: Vec::new(),
            threads: self.config.threads.max(1),
            replans: 0,
        };
        Ok(explain.to_string())
    }

    /// Run the bounded general chase of `source_db` with a stored tgd
    /// mapping's constraints plus the key egds of `schema`. The chase may
    /// diverge, so it runs under the budget's round cap (default
    /// [`DEFAULT_CHASE_ROUNDS`]); divergence surfaces as
    /// [`EngineError::Exec`] with [`mm_guard::ExecError::Diverged`].
    pub fn chase_general(
        &self,
        mapping: &str,
        schema: &str,
        source_db: &Database,
    ) -> Result<(Database, mm_chase::ChaseOutcome), EngineError> {
        let (m, mid) = self.repo.latest_mapping(mapping)?;
        let (s, _) = self.schema(schema)?;
        let tgds = Self::tgds_of(&m)?;
        let egds = mm_chase::egds_from_keys(&s);
        let mut db = source_db.clone();
        let tel = &self.config.telemetry;
        let mut span = Span::enter(tel, "engine.chase_general", mid.to_string());
        let program = self.chase_program(mapping, &mid, &tgds, &db);
        // adaptive: at each round boundary, plans whose statistics
        // drifted past the configured ratio are re-planned mid-run
        let mut gov = Governor::new(&self.budget());
        let result = program
            .run_general(&mut db, &egds, &mut self.chase_ctx(&mut gov))
            .map(|run| run.outcome)
            .map_err(|f| EngineError::Exec(f.into()));
        match &result {
            Ok(outcome) => span.field("outcome", outcome.to_string()),
            Err(e) => span.field("error", e.to_string()),
        }
        self.sample_alloc();
        span.finish();
        Ok((db, result?))
    }

    /// [`Self::chase_general`] with an EXPLAIN report: per-round deltas
    /// of the general-chase fixpoint plus the compiled body plans, with
    /// selectivities computed against the *pre-chase* instance so two
    /// identical invocations render byte-identical text.
    pub fn explain_chase_general(
        &self,
        mapping: &str,
        schema: &str,
        source_db: &Database,
    ) -> Result<(Database, mm_chase::ChaseOutcome, ChaseExplain), EngineError> {
        let (m, mid) = self.repo.latest_mapping(mapping)?;
        let (s, _) = self.schema(schema)?;
        let tgds = Self::tgds_of(&m)?;
        let egds = mm_chase::egds_from_keys(&s);
        let mut db = source_db.clone();
        let program = self.chase_program(mapping, &mid, &tgds, &db);
        let mut gov = Governor::new(&self.budget());
        let run = program
            .run_general(&mut db, &egds, &mut ExecCtx { explain: true, ..self.chase_ctx(&mut gov) })
            .map_err(|f| EngineError::Exec(f.into()))?;
        Ok((db, run.outcome, explained(run.explain)?))
    }
}

/// The report of a chase run with [`ExecCtx::explain`] set.
fn explained(explain: Option<ChaseExplain>) -> Result<ChaseExplain, EngineError> {
    explain.ok_or_else(|| {
        EngineError::Exec(mm_guard::ExecError::internal("an explained chase returned no report"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_cache::PLAN_CACHE_SHARDS;
    use mm_expr::{Expr, MappingConstraint};
    use mm_instance::Value;
    use mm_metamodel::{DataType, SchemaBuilder};

    impl Engine {
        /// How many compiled chase programs the engine currently holds.
        pub(crate) fn cached_chase_plans(&self) -> usize {
            self.chase_plans.len()
        }

        /// Per-shard plan counts of the sharded cache, in stripe order
        /// (length [`PLAN_CACHE_SHARDS`]). Sums to
        /// [`Self::cached_chase_plans`].
        pub(crate) fn cached_chase_plan_shards(&self) -> [usize; PLAN_CACHE_SHARDS] {
            self.chase_plans.shard_sizes()
        }
    }

    fn unbounded() -> Governor {
        Governor::new(&ExecBudget::unbounded())
    }

    fn er() -> Schema {
        SchemaBuilder::new("ER")
            .entity("Person", &[("Id", DataType::Int), ("Name", DataType::Text)])
            .entity_sub("Employee", "Person", &[("Dept", DataType::Text)])
            .key("Person", &["Id"])
            .build()
            .unwrap()
    }

    #[test]
    fn modelgen_then_transgen_end_to_end() {
        let engine = Engine::new();
        engine.add_schema(er()).unwrap();
        let gen = engine
            .modelgen_er_to_relational("ER", InheritanceStrategy::Vertical)
            .unwrap();
        assert_eq!(gen.schema.name, "ER_rel");
        let (qv, uv) = engine.transgen("ER", "ER_rel", "ER->ER_rel").unwrap();
        assert_eq!(qv.len(), 2); // Person + Employee entity sets
        assert_eq!(uv.len(), 2); // Person + Employee tables

        // lineage: the qviews trace back to the ER schema
        let (_, qid) = engine.repo.latest_viewset("ER->ER_rel.qviews").unwrap();
        let up = engine.repo.upstream(&qid);
        assert!(up.iter().any(|a| a.name.name == "ER"));
    }

    #[test]
    fn match_records_lineage() {
        let engine = Engine::new();
        engine.add_schema(er()).unwrap();
        let rel = SchemaBuilder::new("SQL")
            .relation("HR", &[("Id", DataType::Int), ("Name", DataType::Text)])
            .build()
            .unwrap();
        engine.add_schema(rel).unwrap();
        let (cs, cid) = engine
            .match_schemas("ER", "SQL", &MatchConfig::default())
            .unwrap();
        assert!(!cs.is_empty());
        let up = engine.repo.upstream(&cid);
        assert_eq!(up.len(), 2);
    }

    #[test]
    fn match_with_memory_boosts_confirmed_history() {
        use mm_expr::{Correspondence, PathRef};
        let engine = Engine::new();
        let s = SchemaBuilder::new("S")
            .relation("Empl", &[("dob", DataType::Date)])
            .build()
            .unwrap();
        let t = SchemaBuilder::new("T")
            .relation("Staff", &[("document", DataType::Date), ("geboortedatum", DataType::Date)])
            .build()
            .unwrap();
        engine.add_schema(s).unwrap();
        engine.add_schema(t).unwrap();
        // a previously confirmed (confidence 1.0) pair from another project
        let mut history = CorrespondenceSet::new("Old1", "Old2");
        history.push(Correspondence::new(
            PathRef::attr("X", "dob"),
            PathRef::attr("Y", "geboortedatum"),
            1.0,
        ));
        engine.repo.store_correspondences("history", history).unwrap();
        let cfg = MatchConfig { threshold: 0.0, top_k: 5, ..Default::default() };
        let (cs, _) = engine.match_schemas_with_memory("S", "T", &cfg).unwrap();
        let top = cs.candidates_for(&PathRef::attr("Empl", "dob"));
        assert_eq!(top[0].target, PathRef::attr("Staff", "geboortedatum"));
    }

    #[test]
    fn exchange_requires_tgds() {
        let engine = Engine::new();
        let s = SchemaBuilder::new("S")
            .relation("R", &[("a", DataType::Int)])
            .build()
            .unwrap();
        let t = SchemaBuilder::new("T")
            .relation("U", &[("a", DataType::Int)])
            .build()
            .unwrap();
        engine.add_schema(s.clone()).unwrap();
        engine.add_schema(t).unwrap();
        engine.add_mapping(
            "bad",
            Mapping::with_constraints("S", "T", vec![MappingConstraint::ExprEq {
                source: Expr::base("R"),
                target: Expr::base("U"),
            }]),
        )
        .unwrap();
        let db = Database::empty_of(&s);
        assert!(engine.exchange("bad", "T", &db).is_err());

        let mut good = Mapping::new("S", "T");
        good.push_tgd(mm_expr::Tgd::new(
            vec![mm_expr::Atom::vars("R", &["x"])],
            vec![mm_expr::Atom::vars("U", &["x"])],
        ));
        engine.add_mapping("good", good).unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("R", mm_instance::Tuple::from([Value::Int(1)]));
        let (out, stats) = engine.exchange("good", "T", &db).unwrap();
        assert_eq!(out.relation("U").unwrap().len(), 1);
        assert_eq!(stats.fired, 1);
    }

    #[test]
    fn plan_cache_reuses_per_mapping_version() {
        let copy_mapping = || {
            let mut m = Mapping::new("S", "T");
            m.push_tgd(mm_expr::Tgd::new(
                vec![mm_expr::Atom::vars("R", &["x"])],
                vec![mm_expr::Atom::vars("U", &["x"])],
            ));
            m
        };
        let schemas = |engine: &Engine| {
            let s = SchemaBuilder::new("S")
                .relation("R", &[("a", DataType::Int)])
                .build()
                .unwrap();
            let t = SchemaBuilder::new("T")
                .relation("U", &[("a", DataType::Int)])
                .build()
                .unwrap();
            engine.add_schema(s.clone()).unwrap();
            engine.add_schema(t).unwrap();
            s
        };

        let engine = Engine::new();
        let s = schemas(&engine);
        engine.add_mapping("m", copy_mapping()).unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("R", mm_instance::Tuple::from([Value::Int(1)]));

        let (out1, _) = engine.exchange("m", "T", &db).unwrap();
        assert_eq!(engine.cached_chase_plans(), 1);
        let (out2, _) = engine.exchange("m", "T", &db).unwrap();
        assert_eq!(engine.cached_chase_plans(), 1); // reused, not recompiled
        assert_eq!(out1, out2);

        // a new stored version under the same name *replaces* the cached
        // plan (stale-entry eviction), it does not accumulate
        engine.add_mapping("m", copy_mapping()).unwrap();
        engine.exchange("m", "T", &db).unwrap();
        assert_eq!(engine.cached_chase_plans(), 1);

        // the general chase shares the same cache keyspace (it chases
        // in place, so its db carries both source and target relations)
        let both = SchemaBuilder::new("ST")
            .relation("R", &[("a", DataType::Int)])
            .relation("U", &[("a", DataType::Int)])
            .build()
            .unwrap();
        let mut gdb = Database::empty_of(&both);
        gdb.insert("R", mm_instance::Tuple::from([Value::Int(1)]));
        engine.chase_general("m", "T", &gdb).unwrap();
        assert_eq!(engine.cached_chase_plans(), 1);
        assert_eq!(
            engine.cached_chase_plan_shards().iter().sum::<usize>(),
            engine.cached_chase_plans()
        );

        // the cached plan answers exactly like a fresh compile: a fresh
        // engine's first call is a cache miss
        let fresh = Engine::new();
        let s = schemas(&fresh);
        fresh.add_mapping("m", copy_mapping()).unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("R", mm_instance::Tuple::from([Value::Int(1)]));
        let (out3, _) = fresh.exchange("m", "T", &db).unwrap();
        assert_eq!(out1, out3);
    }

    #[test]
    fn intern_pool_refusals_surface_as_alloc_gauges() {
        let tel = Telemetry::new(mm_telemetry::RingCollector::with_capacity(16));
        let engine = Engine::with_config(EngineConfig {
            telemetry: tel.clone(),
            threads: 1,
            ..Default::default()
        })
        .unwrap();
        let s = SchemaBuilder::new("S").relation("R", &[("a", DataType::Text)]).build().unwrap();
        let t = SchemaBuilder::new("T").relation("U", &[("a", DataType::Text)]).build().unwrap();
        engine.add_schema(s.clone()).unwrap();
        engine.add_schema(t).unwrap();
        let mut m = Mapping::new("S", "T");
        m.push_tgd(mm_expr::Tgd::new(
            vec![mm_expr::Atom::vars("R", &["x"])],
            vec![mm_expr::Atom::vars("U", &["x"])],
        ));
        engine.add_mapping("m", m).unwrap();
        // one string past the pool's length bound: it silently stays owned text
        let long = "r".repeat(mm_instance::intern::MAX_INTERN_LEN + 1);
        let mut db = Database::empty_of(&s);
        db.insert("R", mm_instance::Tuple::from([Value::text(long)]));
        db.insert("R", mm_instance::Tuple::from([Value::text("short")]));
        engine.exchange("m", "T", &db).unwrap();
        let snap = tel.metrics().unwrap().snapshot();
        assert!(snap.value("alloc.intern_refused_len") >= 1, "the refusal is counted");
        assert!(snap.value("alloc.intern_entries") >= 1, "the pool's fill level is exported");
        assert!(
            !snap.values.contains_key("alloc.intern_refused_capacity"),
            "a pool that never filled carries no capacity-refusal row"
        );
    }

    #[test]
    fn stale_statistics_invalidate_and_replan_the_cached_plan() {
        // A plan compiled while Tiny was tiny and Big was big must be
        // detected as misestimated once the instance drifts the other
        // way: the cached entry is invalidated, recompiled against live
        // statistics (counted as one misestimate + one re-plan), and the
        // corrected join order shows up in EXPLAIN — with results
        // bit-identical throughout.
        let tel = Telemetry::new(mm_telemetry::RingCollector::with_capacity(256));
        let engine = Engine::with_config(EngineConfig {
            telemetry: tel.clone(),
            threads: 1,
            ..Default::default()
        })
        .unwrap();
        let s = SchemaBuilder::new("S")
            .relation("Big", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("Tiny", &[("a", DataType::Int)])
            .build()
            .unwrap();
        let t = SchemaBuilder::new("T")
            .relation("U", &[("a", DataType::Int), ("b", DataType::Int)])
            .build()
            .unwrap();
        engine.add_schema(s.clone()).unwrap();
        engine.add_schema(t).unwrap();
        let mut m = Mapping::new("S", "T");
        m.push_tgd(mm_expr::Tgd::new(
            vec![mm_expr::Atom::vars("Big", &["x", "y"]), mm_expr::Atom::vars("Tiny", &["x"])],
            vec![mm_expr::Atom::vars("U", &["x", "y"])],
        ));
        engine.add_mapping("m", m).unwrap();

        let mut db1 = Database::empty_of(&s);
        for i in 0..40 {
            db1.insert("Big", mm_instance::Tuple::from([Value::Int(i), Value::Int(i)]));
        }
        for i in 0..2 {
            db1.insert("Tiny", mm_instance::Tuple::from([Value::Int(i)]));
        }
        engine.exchange("m", "T", &db1).unwrap();
        assert_eq!(engine.cached_chase_plans(), 1);
        let (_, _, ex1) = engine.explain_exchange("m", "T", &db1, &mut unbounded()).unwrap();
        assert_eq!(ex1.tgds[0].body.join_order, ["Tiny", "Big"]);
        assert_eq!(tel.metrics().unwrap().snapshot().value("plan_replans"), 0);

        // drifted instance: Big shrank, Tiny grew — both past the ratio
        let mut db2 = Database::empty_of(&s);
        for i in 0..2 {
            db2.insert("Big", mm_instance::Tuple::from([Value::Int(i), Value::Int(i)]));
        }
        for i in 0..100 {
            db2.insert("Tiny", mm_instance::Tuple::from([Value::Int(i)]));
        }
        let (out, _) = engine.exchange("m", "T", &db2).unwrap();
        let snap = tel.metrics().unwrap().snapshot();
        assert_eq!(snap.value("plan_misestimates"), 1);
        assert_eq!(snap.value("plan_replans"), 1);
        assert_eq!(engine.cached_chase_plans(), 1, "invalidate then reinsert, no growth");
        let (_, _, ex2) = engine.explain_exchange("m", "T", &db2, &mut unbounded()).unwrap();
        assert_eq!(ex2.tgds[0].body.join_order, ["Big", "Tiny"], "order corrected");
        // the corrected plan fits current statistics: no further re-plan
        assert_eq!(tel.metrics().unwrap().snapshot().value("plan_replans"), 1);

        // bit-identity against the naive scanning oracle
        let (t, _) = engine.repo.latest_schema("T").unwrap();
        let (m, _) = engine.repo.latest_mapping("m").unwrap();
        let (ref_out, _) = mm_chase::testkit::chase_st_reference(
            &t,
            &Engine::tgds_of(&m).unwrap(),
            &db2,
            &ExecBudget::unbounded(),
        )
        .unwrap();
        assert_eq!(out, ref_out);
    }

    #[test]
    fn replacing_a_mapping_never_serves_the_stale_plan() {
        // v1 copies R into U; v2 copies R into V. After the replacement
        // an exchange must produce v2's output — a stale cached plan for
        // the name "m" would silently keep filling U.
        let engine = Engine::new();
        let s = SchemaBuilder::new("S")
            .relation("R", &[("a", DataType::Int)])
            .build()
            .unwrap();
        let t = SchemaBuilder::new("T")
            .relation("U", &[("a", DataType::Int)])
            .relation("V", &[("a", DataType::Int)])
            .build()
            .unwrap();
        engine.add_schema(s.clone()).unwrap();
        engine.add_schema(t).unwrap();
        let mapping_to = |rel: &str| {
            let mut m = Mapping::new("S", "T");
            m.push_tgd(mm_expr::Tgd::new(
                vec![mm_expr::Atom::vars("R", &["x"])],
                vec![mm_expr::Atom::vars(rel, &["x"])],
            ));
            m
        };
        let mut db = Database::empty_of(&s);
        db.insert("R", mm_instance::Tuple::from([Value::Int(7)]));

        engine.add_mapping("m", mapping_to("U")).unwrap();
        let (out1, _) = engine.exchange("m", "T", &db).unwrap();
        assert_eq!(out1.relation("U").unwrap().len(), 1);

        engine.add_mapping("m", mapping_to("V")).unwrap();
        let (out2, _) = engine.exchange("m", "T", &db).unwrap();
        assert_eq!(out2.relation("U").unwrap().len(), 0, "stale v1 plan served");
        assert_eq!(out2.relation("V").unwrap().len(), 1);
        assert_eq!(engine.cached_chase_plans(), 1);
    }

    #[test]
    fn invert_swaps_roles_and_records_lineage() {
        let engine = Engine::new();
        engine.add_mapping(
            "m",
            Mapping::with_constraints("S", "T", vec![MappingConstraint::ExprEq {
                source: Expr::base("A"),
                target: Expr::base("B"),
            }]),
        )
        .unwrap();
        let inv = engine.invert("m", "m_inv").unwrap();
        assert_eq!(inv.source_schema, "T");
        assert_eq!(inv.target_schema, "S");
        let (_, id) = engine.repo.latest_mapping("m_inv").unwrap();
        assert_eq!(engine.repo.upstream(&id).len(), 1);
    }

    #[test]
    fn compose_stored_viewsets() {
        use mm_expr::ViewDef;
        let engine = Engine::new();
        let mut ab = ViewSet::new("A", "B");
        ab.push(ViewDef::new("B1", Expr::base("A1").project(&["x", "y"])));
        let mut bc = ViewSet::new("B", "C");
        bc.push(ViewDef::new("C1", Expr::base("B1").project(&["x"])));
        engine.add_viewset("ab", ab).unwrap();
        engine.add_viewset("bc", bc).unwrap();
        let composed = engine.compose("ab", "bc", "ac").unwrap();
        assert_eq!(composed.view("C1").unwrap().expr, Expr::base("A1").project(&["x"]));
        assert_eq!(engine.repo.viewset_versions("ac"), 1);
    }

    #[test]
    fn diff_extract_merge_via_engine() {
        let engine = Engine::new();
        let s = SchemaBuilder::new("S")
            .relation("Empl", &[("EID", DataType::Int), ("Name", DataType::Text), ("Tel", DataType::Text)])
            .key("Empl", &["EID"])
            .build()
            .unwrap();
        engine.add_schema(s).unwrap();
        engine.add_mapping(
            "m",
            Mapping::with_constraints("S", "T", vec![MappingConstraint::ExprEq {
                source: Expr::base("Empl").project(&["EID", "Name"]),
                target: Expr::base("Staff"),
            }]),
        )
        .unwrap();
        let e = engine.extract("S", "m").unwrap();
        assert_eq!(
            e.schema.element("Empl").unwrap().attributes.len(),
            2 // EID, Name
        );
        let d = engine.diff("S", "m").unwrap();
        let names: Vec<&str> = d.schema.element("Empl").unwrap().attribute_names().collect();
        assert_eq!(names, ["EID", "Tel"]);

        // merge the diff back with the extract: full coverage again
        let mut cs = CorrespondenceSet::new(e.schema.name.clone(), d.schema.name.clone());
        cs.push(mm_expr::Correspondence::new(
            mm_expr::PathRef::element("Empl"),
            mm_expr::PathRef::element("Empl"),
            1.0,
        ));
        cs.push(mm_expr::Correspondence::new(
            mm_expr::PathRef::attr("Empl", "EID"),
            mm_expr::PathRef::attr("Empl", "EID"),
            1.0,
        ));
        engine.add_schema(e.schema.clone()).unwrap();
        engine.add_schema(d.schema.clone()).unwrap();
        let cid = engine.repo.store_correspondences("ed", cs).unwrap();
        let _ = cid;
        let m = engine.merge(&e.schema.name, &d.schema.name, "ed").unwrap();
        let names: Vec<&str> = m.schema.element("Empl").unwrap().attribute_names().collect();
        assert_eq!(names, ["EID", "Name", "Tel"]);
    }

    #[test]
    fn fragments_parse_from_engine_generated_mapping() {
        // the modelgen-produced mapping is in TransGen's language — the
        // "common metamodel and expressive mapping language" the paper's
        // conclusion calls for
        let engine = Engine::new();
        engine.add_schema(er()).unwrap();
        let gen = engine
            .modelgen_er_to_relational("ER", InheritanceStrategy::Horizontal)
            .unwrap();
        let er_schema = engine.repo.latest_schema("ER").unwrap().0;
        let frags =
            mm_transgen::parse_fragments(&er_schema, &gen.schema, &gen.mapping).unwrap();
        assert_eq!(frags.len(), 2);
        let gaps = mm_transgen::check_coverage(&er_schema, &frags);
        assert!(gaps.is_empty(), "{gaps:?}");
    }
}
