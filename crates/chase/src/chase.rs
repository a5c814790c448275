//! The chase procedure over tgds and egds.
//!
//! Since PR 2 the chase runs on compiled [`TgdPlan`]s (see
//! [`crate::plan`]): bodies and head-satisfaction checks execute as
//! indexed slot-binding joins, and the general chase is *semi-naive* —
//! after the first round each tgd body is only instantiated against
//! bindings touching at least one tuple inserted since that tgd's last
//! evaluation. Results are bit-identical (same tuples, same labeled-null
//! ids, same stats) to the naive full-reevaluation chase, which is kept
//! as [`crate::testkit`]'s oracles for differential testing and
//! benchmarking.
//!
//! There is one entry point per mode — [`ChaseProgram::run_st`] and
//! [`ChaseProgram::run_general`] — and every option (budget, telemetry,
//! threads, adaptive re-planning, EXPLAIN) is a field of the
//! [`ExecCtx`] it runs under.

use crate::explain::{ChaseExplain, RoundExplain};
use crate::plan::{ChaseProgram, TgdPlan};
use mm_eval::plan::{CqPlan, ExecOptions, VarTable};
use mm_expr::Atom;
use mm_guard::{ExecCtx, ExecError, Governor};
use mm_instance::{Database, Tuple, Value};
use mm_metamodel::Schema;
use mm_telemetry::{Counter, Hist, Span, Telemetry, Timer};
use std::collections::HashMap;
use std::fmt;

/// An equality-generating dependency: body → x = y for two body variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Egd {
    pub body: Vec<Atom>,
    pub left: String,
    pub right: String,
}

/// Derive the egds implied by a schema's key constraints: for a key on
/// columns K of relation R, two R-atoms agreeing on K must agree on every
/// other column. Chasing with these equates the labeled nulls that the
/// key forces together (the paper's §2 target-constraint reasoning).
pub fn egds_from_keys(schema: &Schema) -> Vec<Egd> {
    let mut out = Vec::new();
    for c in &schema.constraints {
        let mm_metamodel::Constraint::Key(k) = c else { continue };
        let Some(layout) = schema.instance_layout(&k.element) else { continue };
        // two atoms sharing variables on the key positions, distinct
        // variables elsewhere
        let mk_terms = |tag: &str| -> Vec<mm_expr::Term> {
            layout
                .iter()
                .map(|a| {
                    if k.attributes.contains(&a.name) {
                        mm_expr::Term::var(format!("k_{}", a.name))
                    } else {
                        mm_expr::Term::var(format!("{tag}_{}", a.name))
                    }
                })
                .collect()
        };
        for a in &layout {
            if k.attributes.contains(&a.name) {
                continue;
            }
            out.push(Egd {
                body: vec![
                    Atom::new(k.element.clone(), mk_terms("l")),
                    Atom::new(k.element.clone(), mk_terms("r")),
                ],
                left: format!("l_{}", a.name),
                right: format!("r_{}", a.name),
            });
        }
    }
    out
}

/// Statistics of a chase run (reported by the EQ7 bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Number of tgd firings that inserted at least one tuple.
    pub fired: usize,
    /// Number of fixpoint rounds.
    pub rounds: usize,
    /// Labeled nulls minted.
    pub nulls: usize,
}

/// Outcome of a general chase run that did not trip its budget (a
/// round cap that runs out surfaces as [`ExecError::Diverged`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ChaseOutcome {
    /// Fixpoint reached: the database satisfies all dependencies.
    Done(ChaseStats),
    /// An egd tried to equate two distinct constants — no solution exists.
    Failed { egd_index: usize },
}

impl fmt::Display for ChaseOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseOutcome::Done(s) => {
                write!(f, "done: {} firings, {} rounds, {} nulls", s.fired, s.rounds, s.nulls)
            }
            ChaseOutcome::Failed { egd_index } => write!(f, "failed at egd #{egd_index}"),
        }
    }
}

/// A governed chase that could not finish: the typed resource error plus
/// the statistics of the partial run (work done before the trip). For
/// [`ChaseProgram::run_general`] the partially chased database is left
/// in place, so callers can inspect or discard the partial instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaseFailure {
    pub error: ExecError,
    pub stats: ChaseStats,
}

impl fmt::Display for ChaseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chase aborted after {} firings / {} rounds: {}",
            self.stats.fired, self.stats.rounds, self.error
        )
    }
}

impl std::error::Error for ChaseFailure {}

impl From<ChaseFailure> for ExecError {
    fn from(f: ChaseFailure) -> Self {
        f.error
    }
}

/// What [`ChaseProgram::run_st`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StRun {
    /// The universal target instance.
    pub target: Database,
    pub stats: ChaseStats,
    /// The EXPLAIN report when [`ExecCtx::explain`] asked for one: per-tgd
    /// join orders (explained against the source's cardinalities), the
    /// single round's deltas, and the requested degree of parallelism.
    pub explain: Option<ChaseExplain>,
}

/// What [`ChaseProgram::run_general`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralRun {
    pub outcome: ChaseOutcome,
    /// Mid-run re-plans performed; zero unless [`ExecCtx::replan_ratio`]
    /// is set.
    pub replans: u32,
    /// The EXPLAIN report when [`ExecCtx::explain`] asked for one: per-tgd
    /// join orders (explained against the *pre-chase* database, so two
    /// identical runs report identically) and per-round deltas.
    pub explain: Option<ChaseExplain>,
}

impl ChaseProgram {
    /// The standard chase for **source-to-target** tgds: bodies are
    /// evaluated over `source_db`, heads asserted into a fresh target
    /// database. Because target relations never feed tgd bodies, one pass
    /// over the tgds reaches the fixpoint; the restricted chase still
    /// checks head satisfaction so re-chasing an already-consistent pair
    /// adds nothing.
    ///
    /// Join probes, head-satisfaction checks and inserted tuples are
    /// metered through `ctx.governor`; a trip returns the typed error plus
    /// the partial run's statistics as a [`ChaseFailure`]. With
    /// `ctx.threads > 1` each tgd's body matching fans across workers
    /// **bit-identically** — same tuples, same labeled-null ids, same
    /// [`ChaseStats`]: workers probe copy-on-write index snapshots
    /// read-only, their per-chunk match lists merge back in the sequential
    /// enumeration order, and head checks plus firing (where nulls are
    /// minted) stay sequential in that order. Enabled telemetry wraps the
    /// run in a `chase.st` span. The single pass has no round boundary, so
    /// `ctx.replan_ratio` is not consulted.
    pub fn run_st(
        &self,
        target_schema: &Schema,
        source_db: &Database,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<StRun, ChaseFailure> {
        st(self, target_schema, source_db, ctx, true)
    }

    /// The restricted chase for **general** tgds and egds over a single
    /// database (source and target relations may coincide — schema
    /// evolution scenarios chase views and bases together), semi-naive
    /// and indexed. The fixpoint loop runs until convergence or until
    /// `ctx.governor` trips:
    ///
    /// * exceeding the budget's **round** cap without converging reports
    ///   [`ExecError::Diverged`] — general tgds need not terminate;
    /// * step / row / wall-clock caps and cancellation report their own
    ///   [`ExecError`] variants;
    /// * an egd equating two distinct constants is a semantic answer, not
    ///   a resource failure: it stays `Ok` with [`ChaseOutcome::Failed`].
    ///
    /// On error the partially chased `db` is left in place (callers decide
    /// whether a partial universal instance is useful) together with the
    /// partial run's statistics in the [`ChaseFailure`].
    ///
    /// With `ctx.threads > 1` each round's body matching fans across
    /// workers bit-identically; firing and the egd pass stay sequential.
    /// With `ctx.replan_ratio` set, every round boundary (a governor
    /// safepoint) checks each cost-compiled plan
    /// ([`ChaseProgram::compile_costed`]) against live statistics and
    /// re-plans one whose body cardinalities drifted past the ratio in
    /// either direction. Re-planning keeps the plan's frozen canonical
    /// enumeration order, so only the walk (the work) changes, never the
    /// result. Enabled telemetry wraps the run in a `chase.general` span.
    pub fn run_general(
        &self,
        db: &mut Database,
        egds: &[Egd],
        ctx: &mut ExecCtx<'_>,
    ) -> Result<GeneralRun, ChaseFailure> {
        general(self, db, egds, ctx, true)
    }
}

/// [`ChaseProgram::run_st`] under its older signature, for callers that
/// link it by name.
#[doc(hidden)]
pub fn chase_st_prepared_governed(
    target_schema: &Schema,
    program: &ChaseProgram,
    source_db: &Database,
    gov: &mut Governor,
    threads: usize,
    tel: &Telemetry,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    program
        .run_st(
            target_schema,
            source_db,
            &mut ExecCtx { telemetry: tel.clone(), threads, ..ExecCtx::new(gov) },
        )
        .map(|run| (run.target, run.stats))
}

/// [`ChaseProgram::run_st`], and with `indexed` off the scanning oracle
/// [`crate::testkit::chase_st_reference`]: every join and head check then
/// runs as a full scan, never an index probe.
pub(crate) fn st(
    program: &ChaseProgram,
    target_schema: &Schema,
    source_db: &Database,
    ctx: &mut ExecCtx<'_>,
    indexed: bool,
) -> Result<StRun, ChaseFailure> {
    let tgds = ctx.explain.then(|| program.explain(source_db));
    let mut rounds = Vec::new();
    let explained = tgds.is_some().then_some(&mut rounds);
    let trace = RunTrace::enter(ctx, "chase.st", source_db.name.as_str());
    let result = st_pass(program, target_schema, source_db, ctx, indexed, explained);
    let new_tuples = result.as_ref().ok().map(|ran| ran.out.total_tuples());
    trace.finish(ctx, &[("tgds", program.len())], new_tuples, &result);
    let Ran { out: target, stats, .. } = result?;
    let explain = tgds.map(|tgds| ChaseExplain {
        mode: "st",
        stats,
        tgds,
        rounds,
        threads: ctx.threads.max(1),
        replans: 0,
    });
    Ok(StRun { target, stats, explain })
}

/// [`ChaseProgram::run_general`], and with `indexed` off the naive oracle
/// [`crate::testkit::chase_general_reference`]: every round then
/// re-evaluates every tgd body in full, by scan.
pub(crate) fn general(
    program: &ChaseProgram,
    db: &mut Database,
    egds: &[Egd],
    ctx: &mut ExecCtx<'_>,
    indexed: bool,
) -> Result<GeneralRun, ChaseFailure> {
    let tgds = ctx.explain.then(|| program.explain(db));
    let mut rounds = Vec::new();
    let explained = tgds.is_some().then_some(&mut rounds);
    let tuples_before = db.total_tuples();
    let trace = RunTrace::enter(ctx, "chase.general", db.name.as_str());
    let result = fixpoint(program, db, egds, ctx, indexed, explained);
    let new_tuples = Some(db.total_tuples().saturating_sub(tuples_before));
    let sizes = [("tgds", program.len()), ("egds", egds.len())];
    trace.finish(ctx, &sizes, new_tuples, &result);
    let Ran { out: outcome, stats, replans, .. } = result?;
    let explain = tgds.map(|tgds| ChaseExplain {
        mode: "general",
        stats,
        tgds,
        rounds,
        threads: ctx.threads.max(1),
        replans,
    });
    Ok(GeneralRun { outcome, replans, explain })
}

/// A finished chase: its result plus what telemetry and EXPLAIN report.
struct Ran<T> {
    out: T,
    /// Run statistics (none for a failed egd).
    stats: ChaseStats,
    par: mm_parallel::PoolRun,
    replans: u32,
}

/// The telemetry of one chase run: a `chase.st` / `chase.general` span
/// (with final consumption fields on success) plus the chase counters
/// and timer. Inert — no clock read, no field kept — when telemetry is
/// disabled.
struct RunTrace {
    span: Span,
    started: Option<std::time::Instant>,
    steps_before: u64,
    rows_before: u64,
}

impl RunTrace {
    fn enter(ctx: &ExecCtx<'_>, op: &'static str, artifact: &str) -> RunTrace {
        RunTrace {
            span: Span::enter(&ctx.telemetry, op, artifact),
            started: ctx.telemetry.is_enabled().then(mm_telemetry::clock::now),
            steps_before: ctx.governor.steps_consumed(),
            rows_before: ctx.governor.rows_consumed(),
        }
    }

    /// Close the span over `result`. `sizes` lead the span's fields;
    /// `new_tuples` feeds the delta-tuple counter. Pool statistics are
    /// recorded only when parallelism was requested and re-plans only
    /// when one fired, so sequential, non-adaptive spans keep their
    /// field set byte-for-byte.
    fn finish<T>(
        mut self,
        ctx: &ExecCtx<'_>,
        sizes: &[(&'static str, usize)],
        new_tuples: Option<usize>,
        result: &Result<Ran<T>, ChaseFailure>,
    ) {
        let Some(started) = self.started else { return };
        let tel = &ctx.telemetry;
        let stats = match result {
            Ok(ran) => ran.stats,
            Err(f) => f.stats,
        };
        if let Some(m) = tel.metrics() {
            m.add(Counter::ChaseRounds, stats.rounds as u64);
            m.add(Counter::ChaseFirings, stats.fired as u64);
            m.add(Counter::ChaseNullsMinted, stats.nulls as u64);
            if let Some(n) = new_tuples {
                m.add(Counter::ChaseDeltaTuples, n as u64);
            }
            m.observe_us(Timer::Chase, mm_telemetry::clock::elapsed_us(started));
        }
        let span = &mut self.span;
        for &(key, n) in sizes {
            span.field(key, n);
        }
        span.field("rounds", stats.rounds);
        span.field("fired", stats.fired);
        span.field("nulls", stats.nulls);
        match result {
            Ok(ran) => {
                if ctx.threads > 1 {
                    span.field("parallel.workers", ran.par.workers);
                    span.field("parallel.steals", ran.par.steals);
                    span.field("parallel.tasks", ran.par.tasks);
                    if let Some(m) = tel.metrics() {
                        m.add(Counter::ParallelWorkers, ran.par.workers as u64);
                        m.add(Counter::ParallelSteals, ran.par.steals);
                        m.add(Counter::ParallelTasks, ran.par.tasks);
                    }
                }
                if ran.replans > 0 {
                    span.field("replans", ran.replans);
                    tel.count(Counter::PlanMisestimates, u64::from(ran.replans));
                    tel.count(Counter::PlanReplans, u64::from(ran.replans));
                }
                let steps = ctx.governor.steps_consumed() - self.steps_before;
                let rows = ctx.governor.rows_consumed() - self.rows_before;
                tel.count(Counter::BudgetStepsConsumed, steps);
                tel.count(Counter::BudgetRowsConsumed, rows);
                span.field("steps", steps);
                span.field("rows", rows);
                span.field("wall_us", mm_telemetry::clock::elapsed_us(started));
            }
            Err(f) => span.field("error", f.error.to_string()),
        }
        self.span.finish();
    }
}

/// The single s-t pass: match every tgd body over the source, skip
/// satisfied heads, fire the rest into a fresh target.
fn st_pass(
    program: &ChaseProgram,
    target_schema: &Schema,
    source_db: &Database,
    ctx: &mut ExecCtx<'_>,
    indexed: bool,
    trace: Option<&mut Vec<RoundExplain>>,
) -> Result<Ran<Database>, ChaseFailure> {
    let gov = &mut *ctx.governor;
    let threads = ctx.threads;
    let started = ctx.telemetry.is_enabled().then(mm_telemetry::clock::now);
    let mut target = Database::empty_of(target_schema);
    target.set_label_watermark(source_db.label_watermark());
    let mut stats = ChaseStats { rounds: 1, ..Default::default() };
    let mut par = mm_parallel::PoolRun::default();
    for plan in program.plans() {
        let mut run = |stats: &mut ChaseStats,
                       par: &mut mm_parallel::PoolRun|
         -> Result<(), ExecError> {
            let mut matches = Vec::new();
            par.absorb(plan.body_matches(source_db, indexed, threads, gov, &mut matches)?);
            for m in matches {
                if plan.head_satisfied(&m.binding, &target, indexed, gov)? {
                    continue;
                }
                plan.fire(&m.binding, &mut target, stats, gov)?;
            }
            Ok(())
        };
        run(&mut stats, &mut par).map_err(|error| ChaseFailure { error, stats })?;
    }
    if let Some(t) = trace {
        t.push(RoundExplain {
            round: 1,
            fired: stats.fired,
            nulls: stats.nulls,
            new_tuples: target.total_tuples(),
        });
    }
    // the single pass is the round
    if let (Some(started), Some(m)) = (started, ctx.telemetry.metrics()) {
        m.observe_hist(Hist::ChaseRoundUs, mm_telemetry::clock::elapsed_us(started));
    }
    Ok(Ran { out: target, stats, par, replans: 0 })
}

/// The general chase's fixpoint loop: tgd rounds (semi-naive when
/// `indexed`), each followed by an egd pass, until nothing changes.
fn fixpoint(
    program: &ChaseProgram,
    db: &mut Database,
    egds: &[Egd],
    ctx: &mut ExecCtx<'_>,
    indexed: bool,
    mut trace: Option<&mut Vec<RoundExplain>>,
) -> Result<Ran<ChaseOutcome>, ChaseFailure> {
    let gov = &mut *ctx.governor;
    let tel = &ctx.telemetry;
    let threads = ctx.threads;
    let max_rounds = gov.budget().max_rounds();
    let mut stats = ChaseStats::default();
    let mut par = mm_parallel::PoolRun::default();
    // per-tgd semi-naive watermarks: body-relation name → relation length
    // at this tgd's previous body evaluation. `None` = evaluate in full
    // (first round, or after an egd rewrite shifted insertion positions).
    let mut watermarks: Vec<Option<HashMap<String, u32>>> = vec![None; program.len()];
    // adaptive re-optimization: a re-costed plan shadows the program's
    // compiled plan for the rest of this run. Watermarks are keyed by
    // relation name, not plan state, so they survive the swap.
    let mut overrides: Vec<Option<TgdPlan>> = vec![None; program.len()];
    let mut replans = 0u32;
    loop {
        if let Some(limit) = max_rounds {
            if stats.rounds as u64 >= limit {
                return Err(ChaseFailure {
                    error: ExecError::Diverged { rounds: limit },
                    stats,
                });
            }
        }
        gov.check_now().map_err(|error| ChaseFailure { error, stats })?;
        if let Some(ratio) = ctx.replan_ratio {
            // round boundaries are governor safepoints: compare each
            // costed plan's compile-time body cardinalities with the
            // live statistics; past the drift ratio, re-plan. recost()
            // keeps the frozen canonical enumeration order, so the swap
            // changes the walk (the work), never the results.
            for (slot, compiled) in overrides.iter_mut().zip(program.plans()) {
                let current = slot.as_ref().unwrap_or(compiled);
                if current.is_costed() && current.misestimated(db, ratio) {
                    if let Some(fresh) = current.recost(db) {
                        *slot = Some(fresh);
                        replans += 1;
                    }
                }
            }
        }
        stats.rounds += 1;
        // per-round latency: one clock read per round when enabled, and
        // clock reads never touch results, so bit-identity is preserved
        let round_started = tel.is_enabled().then(mm_telemetry::clock::now);
        let round_before = (stats.fired, stats.nulls, db.total_tuples());
        let mut changed = false;
        let mut round = |db: &mut Database,
                         stats: &mut ChaseStats,
                         changed: &mut bool,
                         watermarks: &mut Vec<Option<HashMap<String, u32>>>|
         -> Result<Option<ChaseOutcome>, ExecError> {
            for (ti, compiled) in program.plans().iter().enumerate() {
                let plan = overrides[ti].as_ref().unwrap_or(compiled);
                let rel_len =
                    |db: &Database, r: &str| db.relation(r).map_or(0, |rel| rel.tuples().len() as u32);
                let mut matches = Vec::new();
                let run = match watermarks[ti].as_ref().filter(|_| indexed) {
                    Some(wm) => {
                        let grew = plan
                            .body_rels()
                            .iter()
                            .any(|r| rel_len(db, r) > wm.get(r).copied().unwrap_or(0));
                        if !grew {
                            // no delta: every body binding was already
                            // enumerated (and its head satisfied or
                            // fired) at this tgd's previous evaluation
                            continue;
                        }
                        plan.body_matches_delta(db, wm, indexed, threads, gov, &mut matches)?
                    }
                    None => plan.body_matches(db, indexed, threads, gov, &mut matches)?,
                };
                par.absorb(run);
                // record the watermark before firing, so this tgd's own
                // insertions count as next round's delta
                watermarks[ti] = Some(
                    plan.body_rels()
                        .iter()
                        .map(|r| (r.clone(), rel_len(db, r)))
                        .collect(),
                );
                for m in matches {
                    if plan.head_satisfied(&m.binding, db, indexed, gov)? {
                        continue;
                    }
                    plan.fire(&m.binding, db, stats, gov)?;
                    *changed = true;
                }
            }
            let mut egd_changed = false;
            if let Some(failed) = egd_pass(db, egds, indexed, gov, &mut egd_changed)? {
                return Ok(Some(failed));
            }
            if egd_changed {
                *changed = true;
                // equate() removes and re-inserts tuples, shifting the
                // insertion positions the watermarks index — every body
                // must be evaluated in full next round
                for w in watermarks.iter_mut() {
                    *w = None;
                }
            }
            Ok(None)
        };
        let outcome = match round(db, &mut stats, &mut changed, &mut watermarks) {
            Ok(o) => o,
            Err(error) => return Err(ChaseFailure { error, stats }),
        };
        if let Some(t) = trace.as_deref_mut() {
            t.push(RoundExplain {
                round: stats.rounds,
                fired: stats.fired - round_before.0,
                nulls: stats.nulls - round_before.1,
                new_tuples: db.total_tuples().saturating_sub(round_before.2),
            });
        }
        if let (Some(started), Some(m)) = (round_started, tel.metrics()) {
            m.observe_hist(Hist::ChaseRoundUs, mm_telemetry::clock::elapsed_us(started));
        }
        if let Some(failed) = outcome {
            return Ok(Ran { out: failed, stats: ChaseStats::default(), par, replans });
        }
        if !changed {
            return Ok(Ran { out: ChaseOutcome::Done(stats), stats, par, replans });
        }
    }
}

/// One egd pass: evaluate every egd body and resolve violations by
/// equating labeled nulls (or failing on two distinct constants). Egd
/// bodies are compiled fresh each pass so the greedy join order tracks
/// current relation sizes, exactly like the per-call ordering of the
/// naive path — egd processing order decides which null survives, so it
/// must not drift between the reference and the indexed chase.
fn egd_pass(
    db: &mut Database,
    egds: &[Egd],
    use_indexes: bool,
    gov: &mut Governor,
    changed: &mut bool,
) -> Result<Option<ChaseOutcome>, ExecError> {
    for (i, egd) in egds.iter().enumerate() {
        let mut table = VarTable::new();
        let body = CqPlan::compile(&egd.body, &mut table, db, &[]);
        let mut scratch = vec![None; table.len()];
        let mut matches = Vec::new();
        let opts = ExecOptions { use_indexes, ..Default::default() };
        body.execute(db, &mut scratch, &opts, 1, gov, &mut matches)?;
        let lslot = table.slot(&egd.left);
        let rslot = table.slot(&egd.right);
        for m in matches {
            gov.step()?;
            let missing = |side: &str| {
                ExecError::malformed(format!(
                    "egd #{i} equates variable '{side}' not bound by its body"
                ))
            };
            let l = lslot
                .and_then(|s| m.binding[s].clone())
                .ok_or_else(|| missing(&egd.left))?;
            let r = rslot
                .and_then(|s| m.binding[s].clone())
                .ok_or_else(|| missing(&egd.right))?;
            if l == r {
                continue;
            }
            match (l.is_labeled(), r.is_labeled()) {
                (false, false) => return Ok(Some(ChaseOutcome::Failed { egd_index: i })),
                (true, _) => {
                    equate(db, l, r);
                    *changed = true;
                }
                (false, true) => {
                    equate(db, r, l);
                    *changed = true;
                }
            }
        }
    }
    Ok(None)
}

#[allow(clippy::expect_used)] // invariant-backed: see expect messages
/// Replace every occurrence of labeled null `from` with `to` across the
/// database (egd resolution).
fn equate(db: &mut Database, from: Value, to: Value) {
    debug_assert!(from.is_labeled());
    let names: Vec<String> = db.relation_names().map(String::from).collect();
    for name in names {
        let rel = db.relation(&name).expect("name enumerated");
        let mut replaced: Vec<(Tuple, Tuple)> = Vec::new();
        for t in rel.iter() {
            if t.values().contains(&from) {
                let new_vals: Vec<Value> = t
                    .values()
                    .iter()
                    .map(|v| if v == &from { to.clone() } else { v.clone() })
                    .collect();
                replaced.push((t.clone(), Tuple::new(new_vals)));
            }
        }
        if !replaced.is_empty() {
            let rel = db.relation_mut(&name).expect("name enumerated");
            for (old, new) in replaced {
                rel.remove(&old);
                rel.insert(new);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{chase_general_reference, chase_st_reference};
    use mm_expr::Tgd;
    use mm_guard::ExecBudget;
    use mm_metamodel::{DataType, SchemaBuilder};

    fn src_schema() -> Schema {
        SchemaBuilder::new("Src")
            .relation("Emp", &[("e", DataType::Text)])
            .build()
            .unwrap()
    }

    fn tgt_schema() -> Schema {
        SchemaBuilder::new("Tgt")
            .relation("Mgr", &[("e", DataType::Text), ("m", DataType::Text)])
            .relation("Person", &[("p", DataType::Text)])
            .build()
            .unwrap()
    }

    fn src_db() -> Database {
        let s = src_schema();
        let mut db = Database::empty_of(&s);
        db.insert("Emp", Tuple::from([Value::text("ann")]));
        db.insert("Emp", Tuple::from([Value::text("bob")]));
        db
    }

    /// Compile and run the s-t chase at `threads` under `budget`.
    fn st_chase(
        target: &Schema,
        tgds: &[Tgd],
        src: &Database,
        budget: &ExecBudget,
        threads: usize,
    ) -> Result<(Database, ChaseStats), ChaseFailure> {
        let mut gov = Governor::new(budget);
        let program = ChaseProgram::compile(tgds, src);
        let run = program.run_st(target, src, &mut ExecCtx { threads, ..ExecCtx::new(&mut gov) })?;
        Ok((run.target, run.stats))
    }

    /// Compile and run the general chase at `threads` under `budget`.
    fn general_chase(
        db: &mut Database,
        tgds: &[Tgd],
        egds: &[Egd],
        budget: &ExecBudget,
        threads: usize,
    ) -> Result<ChaseOutcome, ChaseFailure> {
        let mut gov = Governor::new(budget);
        let program = ChaseProgram::compile(tgds, db);
        let ctx = &mut ExecCtx { threads, ..ExecCtx::new(&mut gov) };
        program.run_general(db, egds, ctx).map(|run| run.outcome)
    }

    fn rounds(n: u64) -> ExecBudget {
        ExecBudget::unbounded().with_rounds(n)
    }

    #[test]
    fn st_chase_invents_nulls_for_existentials() {
        // Emp(e) -> exists m . Mgr(e, m) & Person(m)
        let tgd = Tgd::new(
            vec![Atom::vars("Emp", &["e"])],
            vec![Atom::vars("Mgr", &["e", "m"]), Atom::vars("Person", &["m"])],
        );
        let (tgt, stats) =
            st_chase(&tgt_schema(), &[tgd], &src_db(), &ExecBudget::unbounded(), 1).unwrap();
        assert_eq!(stats.fired, 2);
        assert_eq!(stats.nulls, 2);
        let mgr = tgt.relation("Mgr").unwrap();
        assert_eq!(mgr.len(), 2);
        // each Mgr row's null also appears in Person (shared existential)
        let person = tgt.relation("Person").unwrap();
        for t in mgr.iter() {
            let m = &t.values()[1];
            assert!(m.is_labeled());
            assert!(person.contains(&Tuple::new(vec![m.clone()])));
        }
    }

    #[test]
    fn st_chase_skips_satisfied_heads() {
        // full tgd: Emp(e) -> Person(e), chased twice adds nothing new
        let tgd = Tgd::new(vec![Atom::vars("Emp", &["e"])], vec![Atom::vars("Person", &["e"])]);
        let (tgt, stats) =
            st_chase(&tgt_schema(), &[tgd.clone(), tgd], &src_db(), &ExecBudget::unbounded(), 1)
                .unwrap();
        assert_eq!(tgt.relation("Person").unwrap().len(), 2);
        // second copy of the tgd fires nothing
        assert_eq!(stats.fired, 2);
    }

    #[test]
    fn st_chase_reports_function_terms_as_unsupported() {
        let tgd = Tgd::new(
            vec![Atom::vars("Emp", &["e"])],
            vec![Atom::new("Person", vec![mm_expr::Term::Func("f".into(), vec![])])],
        );
        let err = st_chase(&tgt_schema(), &[tgd], &src_db(), &ExecBudget::unbounded(), 1)
            .unwrap_err();
        assert!(matches!(err.error, ExecError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn general_chase_reaches_fixpoint_with_target_tgds() {
        // copy + transitive closure on a cycle-free graph terminates
        let s = SchemaBuilder::new("S")
            .relation("E", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("T", &[("a", DataType::Int), ("b", DataType::Int)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("E", Tuple::from([Value::Int(1), Value::Int(2)]));
        db.insert("E", Tuple::from([Value::Int(2), Value::Int(3)]));
        let copy = Tgd::new(vec![Atom::vars("E", &["x", "y"])], vec![Atom::vars("T", &["x", "y"])]);
        let trans = Tgd::new(
            vec![Atom::vars("T", &["x", "y"]), Atom::vars("T", &["y", "z"])],
            vec![Atom::vars("T", &["x", "z"])],
        );
        let out = general_chase(&mut db, &[copy, trans], &[], &rounds(10), 1).unwrap();
        assert!(matches!(out, ChaseOutcome::Done(_)), "{out}");
        assert_eq!(db.relation("T").unwrap().len(), 3); // 12, 23, 13
    }

    #[test]
    fn general_chase_diverges_on_nonterminating_tgd() {
        // R(x,y) -> exists z . R(y,z): grows forever
        let s = SchemaBuilder::new("S")
            .relation("R", &[("a", DataType::Int), ("b", DataType::Int)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("R", Tuple::from([Value::Int(1), Value::Int(2)]));
        let t = Tgd::new(vec![Atom::vars("R", &["x", "y"])], vec![Atom::vars("R", &["y", "z"])]);
        let err = general_chase(&mut db, &[t], &[], &rounds(5), 1).unwrap_err();
        assert_eq!(err.error, ExecError::Diverged { rounds: 5 });
        assert_eq!(err.stats.rounds, 5);
    }

    #[test]
    fn egd_equates_labeled_null_with_constant() {
        let s = SchemaBuilder::new("S")
            .relation("R", &[("k", DataType::Int), ("v", DataType::Any)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        let n = db.fresh_labeled();
        db.insert("R", Tuple::from([Value::Int(1), n]));
        db.insert("R", Tuple::from([Value::Int(1), Value::text("x")]));
        // key egd: R(k, v1) & R(k, v2) -> v1 = v2
        let egd = Egd {
            body: vec![Atom::vars("R", &["k", "v1"]), Atom::vars("R", &["k", "v2"])],
            left: "v1".into(),
            right: "v2".into(),
        };
        let out = general_chase(&mut db, &[], &[egd], &rounds(10), 1).unwrap();
        assert!(matches!(out, ChaseOutcome::Done(_)));
        let r = db.relation("R").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().values()[1], Value::text("x"));
    }

    #[test]
    fn egd_on_two_constants_fails() {
        let s = SchemaBuilder::new("S")
            .relation("R", &[("k", DataType::Int), ("v", DataType::Text)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("R", Tuple::from([Value::Int(1), Value::text("x")]));
        db.insert("R", Tuple::from([Value::Int(1), Value::text("y")]));
        let egd = Egd {
            body: vec![Atom::vars("R", &["k", "v1"]), Atom::vars("R", &["k", "v2"])],
            left: "v1".into(),
            right: "v2".into(),
        };
        let out = general_chase(&mut db, &[], &[egd], &rounds(10), 1).unwrap();
        assert_eq!(out, ChaseOutcome::Failed { egd_index: 0 });
    }

    #[test]
    fn key_egds_equate_nulls_forced_by_the_key() {
        let s = SchemaBuilder::new("S")
            .relation("R", &[("k", DataType::Int), ("v", DataType::Any), ("w", DataType::Any)])
            .key("R", &["k"])
            .build()
            .unwrap();
        let egds = egds_from_keys(&s);
        assert_eq!(egds.len(), 2); // one per non-key column
        let mut db = Database::empty_of(&s);
        let n1 = db.fresh_labeled();
        let n2 = db.fresh_labeled();
        db.insert("R", Tuple::from([Value::Int(1), n1, Value::text("x")]));
        db.insert("R", Tuple::from([Value::Int(1), Value::text("v!"), n2]));
        let out = general_chase(&mut db, &[], &egds, &rounds(10), 1).unwrap();
        assert!(matches!(out, ChaseOutcome::Done(_)), "{out}");
        let r = db.relation("R").unwrap();
        assert_eq!(r.len(), 1, "{r}");
        let t = r.iter().next().unwrap();
        assert_eq!(t.values()[1], Value::text("v!"));
        assert_eq!(t.values()[2], Value::text("x"));
    }

    #[test]
    fn key_egds_fail_on_true_key_conflicts() {
        let s = SchemaBuilder::new("S")
            .relation("R", &[("k", DataType::Int), ("v", DataType::Text)])
            .key("R", &["k"])
            .build()
            .unwrap();
        let egds = egds_from_keys(&s);
        let mut db = Database::empty_of(&s);
        db.insert("R", Tuple::from([Value::Int(1), Value::text("a")]));
        db.insert("R", Tuple::from([Value::Int(1), Value::text("b")]));
        assert!(matches!(
            general_chase(&mut db, &[], &egds, &rounds(10), 1),
            Ok(ChaseOutcome::Failed { .. })
        ));
    }

    #[test]
    fn semi_naive_general_chase_is_bit_identical_to_reference() {
        // copy + transitive closure + existential invention: multiple
        // rounds of semi-naive deltas, null minting order must match
        let s = SchemaBuilder::new("S")
            .relation("E", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("T", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("W", &[("a", DataType::Int), ("w", DataType::Any)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        for i in 1..6 {
            db.insert("E", Tuple::from([Value::Int(i), Value::Int(i + 1)]));
        }
        let tgds = [
            Tgd::new(vec![Atom::vars("E", &["x", "y"])], vec![Atom::vars("T", &["x", "y"])]),
            Tgd::new(
                vec![Atom::vars("T", &["x", "y"]), Atom::vars("T", &["y", "z"])],
                vec![Atom::vars("T", &["x", "z"])],
            ),
            Tgd::new(vec![Atom::vars("T", &["x", "y"])], vec![Atom::vars("W", &["y", "w"])]),
        ];
        let budget = rounds(32);
        let mut fast = db.clone();
        let mut slow = db;
        let a = general_chase(&mut fast, &tgds, &[], &budget, 1).unwrap();
        let b = chase_general_reference(&mut slow, &tgds, &[], &budget).unwrap();
        assert_eq!(a, b, "outcome (incl. fired/rounds/nulls stats) must match");
        assert_eq!(fast, slow, "instances must match tuple-for-tuple incl. null ids");
    }

    #[test]
    fn semi_naive_with_egd_rewrites_is_bit_identical_to_reference() {
        // two tgds mint different nulls for the same key; the key egd
        // equates them mid-chase, which rewrites tuples and forces the
        // semi-naive watermarks to reset — results must still match
        let s = SchemaBuilder::new("S")
            .relation("Src", &[("k", DataType::Int)])
            .relation("R", &[("k", DataType::Int), ("v", DataType::Any)])
            .key("R", &["k"])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("Src", Tuple::from([Value::Int(1)]));
        db.insert("Src", Tuple::from([Value::Int(2)]));
        let tgds = [
            Tgd::new(vec![Atom::vars("Src", &["k"])], vec![Atom::vars("R", &["k", "v"])]),
            Tgd::new(vec![Atom::vars("Src", &["k"])], vec![Atom::vars("R", &["k", "w"])]),
        ];
        let egds = egds_from_keys(&s);
        let budget = rounds(32);
        let mut fast = db.clone();
        let mut slow = db;
        let a = general_chase(&mut fast, &tgds, &egds, &budget, 1).unwrap();
        let b = chase_general_reference(&mut slow, &tgds, &egds, &budget).unwrap();
        assert_eq!(a, b);
        assert_eq!(fast, slow);
        assert_eq!(fast.relation("R").unwrap().len(), 2);
    }

    #[test]
    fn st_chase_indexed_is_bit_identical_to_reference() {
        let tgd = Tgd::new(
            vec![Atom::vars("Emp", &["e"])],
            vec![Atom::vars("Mgr", &["e", "m"]), Atom::vars("Person", &["m"])],
        );
        let budget = ExecBudget::unbounded();
        let tgds = std::slice::from_ref(&tgd);
        let (fast, fs) = st_chase(&tgt_schema(), tgds, &src_db(), &budget, 1).unwrap();
        let (slow, ss) = chase_st_reference(&tgt_schema(), tgds, &src_db(), &budget).unwrap();
        assert_eq!(fs, ss);
        assert_eq!(fast, slow);
    }

    #[test]
    fn chase_is_idempotent_on_consistent_instance() {
        let tgd = Tgd::new(
            vec![Atom::vars("Emp", &["e"])],
            vec![Atom::vars("Person", &["e"])],
        );
        let tgds = std::slice::from_ref(&tgd);
        let (tgt, _) =
            st_chase(&tgt_schema(), tgds, &src_db(), &ExecBudget::unbounded(), 1).unwrap();
        // merge source+target and chase again: nothing fires
        let s2 = SchemaBuilder::new("Both")
            .relation("Emp", &[("e", DataType::Text)])
            .relation("Mgr", &[("e", DataType::Text), ("m", DataType::Text)])
            .relation("Person", &[("p", DataType::Text)])
            .build()
            .unwrap();
        let mut both = Database::empty_of(&s2);
        for (name, rel) in src_db().relations() {
            for t in rel.iter() {
                both.insert(name, t.clone());
            }
        }
        for (name, rel) in tgt.relations() {
            for t in rel.iter() {
                both.insert(name, t.clone());
            }
        }
        let before = both.total_tuples();
        let out = general_chase(&mut both, tgds, &[], &rounds(10), 1).unwrap();
        assert!(matches!(out, ChaseOutcome::Done(st) if st.fired == 0));
        assert_eq!(both.total_tuples(), before);
    }

    #[test]
    fn parallel_st_chase_is_bit_identical_to_sequential() {
        // 300-edge chain with a 2-atom join body and an existential head:
        // large enough that the parallel CQ path actually splits the
        // driver atom, existential so null-id minting order is exercised
        let src_s = SchemaBuilder::new("Src")
            .relation("E", &[("a", DataType::Int), ("b", DataType::Int)])
            .build()
            .unwrap();
        let tgt_s = SchemaBuilder::new("Tgt")
            .relation("M", &[("a", DataType::Int), ("b", DataType::Int), ("w", DataType::Any)])
            .build()
            .unwrap();
        let mut src = Database::empty_of(&src_s);
        for i in 0..300 {
            src.insert("E", Tuple::from([Value::Int(i), Value::Int(i + 1)]));
        }
        let tgd = Tgd::new(
            vec![Atom::vars("E", &["x", "y"]), Atom::vars("E", &["y", "z"])],
            vec![Atom::vars("M", &["x", "z", "w"])],
        );
        let tgds = std::slice::from_ref(&tgd);
        let budget = ExecBudget::unbounded();
        let (seq, seq_stats) = st_chase(&tgt_s, tgds, &src, &budget, 1).unwrap();
        assert_eq!(seq_stats.nulls, 299, "every join match mints a null");
        for threads in [2, 4, 8] {
            let (par, par_stats) = st_chase(&tgt_s, tgds, &src, &budget, threads).unwrap();
            assert_eq!(par_stats, seq_stats, "stats must match at threads={threads}");
            assert_eq!(par, seq, "instances must match at threads={threads}");
        }
    }

    #[test]
    fn parallel_general_chase_is_bit_identical_to_sequential() {
        // copy + transitive closure + existential invention over a
        // 128-edge chain: several semi-naive rounds with real deltas,
        // each round's body matching fanned across workers
        let s = SchemaBuilder::new("S")
            .relation("E", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("T", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("W", &[("a", DataType::Int), ("w", DataType::Any)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        for i in 0..128 {
            db.insert("E", Tuple::from([Value::Int(i), Value::Int(i + 1)]));
        }
        let tgds = [
            Tgd::new(vec![Atom::vars("E", &["x", "y"])], vec![Atom::vars("T", &["x", "y"])]),
            Tgd::new(
                vec![Atom::vars("T", &["x", "y"]), Atom::vars("T", &["y", "z"])],
                vec![Atom::vars("T", &["x", "z"])],
            ),
            Tgd::new(vec![Atom::vars("T", &["x", "y"])], vec![Atom::vars("W", &["y", "w"])]),
        ];
        let budget = rounds(64);
        let mut seq = db.clone();
        let seq_out = general_chase(&mut seq, &tgds, &[], &budget, 1).unwrap();
        for threads in [2, 4, 8] {
            let mut par = db.clone();
            let par_out = general_chase(&mut par, &tgds, &[], &budget, threads).unwrap();
            assert_eq!(par_out, seq_out, "outcome must match at threads={threads}");
            assert_eq!(par, seq, "instances must match at threads={threads}");
        }
    }

    #[test]
    fn governed_st_chase_shares_a_batch_budget() {
        // two exchanges forked off one shared meter: together they trip a
        // step cap that either alone stays well under. The source is
        // sized so each exchange crosses several governor safepoints
        // (every 1024 steps) and publishes its consumption.
        let tgd = Tgd::new(
            vec![Atom::vars("Emp", &["e"])],
            vec![Atom::vars("Mgr", &["e", "m"]), Atom::vars("Person", &["m"])],
        );
        let s = src_schema();
        let mut src = Database::empty_of(&s);
        for i in 0..4000 {
            src.insert("Emp", Tuple::from([Value::text(format!("e{i}"))]));
        }
        let program = ChaseProgram::compile(std::slice::from_ref(&tgd), &src);
        let solo_steps = {
            let mut gov = Governor::new(&ExecBudget::unbounded());
            program.run_st(&tgt_schema(), &src, &mut ExecCtx::new(&mut gov)).unwrap();
            gov.steps_consumed()
        };
        assert!(solo_steps > 4096, "workload must span several safepoints: {solo_steps}");
        let budget = ExecBudget::unbounded().with_steps(solo_steps + solo_steps / 2);
        let lead = Governor::new(&budget);
        let (_, mut govs) = lead.fork_shared(2);
        let mut trips = 0;
        for g in govs.iter_mut() {
            if let Err(f) = program.run_st(&tgt_schema(), &src, &mut ExecCtx::new(g)) {
                assert!(matches!(f.error, ExecError::BudgetExhausted { .. }), "{f}");
                trips += 1;
            }
        }
        assert!(trips >= 1, "a 1.5x-solo cap must trip across two exchanges");
    }
}
