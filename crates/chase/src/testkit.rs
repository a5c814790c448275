//! Differential-testing oracles: the naive chases that the indexed,
//! semi-naive, parallel and adaptive executors must match bit for bit
//! (same tuples, same labeled-null ids, same statistics). Tests and
//! benches link them from here; neither the crate root nor the engine
//! prelude re-exports them.

use crate::chase::{general, st, ChaseFailure, ChaseOutcome, ChaseStats, Egd};
use crate::plan::ChaseProgram;
use mm_expr::Tgd;
use mm_guard::{ExecBudget, ExecCtx, Governor};
use mm_instance::Database;
use mm_metamodel::Schema;

/// Reference source-to-target chase: the structure of
/// [`ChaseProgram::run_st`], but every join and satisfaction check runs
/// as a full scan, never an index probe.
pub fn chase_st_reference(
    target_schema: &Schema,
    tgds: &[Tgd],
    source_db: &Database,
    budget: &ExecBudget,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    let program = ChaseProgram::compile(tgds, source_db);
    let mut gov = Governor::new(budget);
    st(&program, target_schema, source_db, &mut ExecCtx::new(&mut gov), false)
        .map(|run| (run.target, run.stats))
}

/// Reference general chase: every round re-evaluates every tgd body in
/// full, by scan — the naive fixpoint [`ChaseProgram::run_general`]'s
/// semi-naive deltas must reproduce.
pub fn chase_general_reference(
    db: &mut Database,
    tgds: &[Tgd],
    egds: &[Egd],
    budget: &ExecBudget,
) -> Result<ChaseOutcome, ChaseFailure> {
    let program = ChaseProgram::compile(tgds, db);
    let mut gov = Governor::new(budget);
    general(&program, db, egds, &mut ExecCtx::new(&mut gov), false).map(|run| run.outcome)
}
