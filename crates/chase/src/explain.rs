//! Structured explain reports for chase runs.
//!
//! [`ChaseExplain`] captures what a chase *did* and what its compiled
//! program *looks like*: per-tgd join orders and probe columns (via
//! [`mm_eval::PlanExplain`]), and per-round deltas (firings, minted
//! nulls, net new tuples). The report renders as a typed value and as a
//! deterministic [`mm_telemetry::ExplainNode`] tree whose `Display` is
//! byte-identical across identical runs.

use crate::chase::ChaseStats;
use crate::plan::ChaseProgram;
use mm_eval::PlanExplain;
use mm_instance::Database;
use mm_telemetry::ExplainNode;
use std::fmt;

/// One compiled tgd, described.
#[derive(Debug, Clone, PartialEq)]
pub struct TgdExplain {
    /// Position in the program's tgd list.
    pub index: usize,
    /// The head-satisfaction fast path applies (no existentials or
    /// function terms in the head).
    pub head_ground: bool,
    /// Distinct body relations — the semi-naive watermark domain.
    pub body_rels: Vec<String>,
    /// The body's compiled plan: join order, probe columns, per-atom
    /// cardinalities against the database explained against.
    pub body: PlanExplain,
}

/// What one fixpoint round contributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundExplain {
    /// 1-based round number.
    pub round: usize,
    /// Tgd firings that inserted at least one tuple this round.
    pub fired: usize,
    /// Labeled nulls minted this round.
    pub nulls: usize,
    /// Net change in total tuple count over the round (egd rewrites can
    /// shrink relations, so this is clamped at zero).
    pub new_tuples: usize,
}

/// Full report of a chase run: program shape plus per-round history.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaseExplain {
    /// `"st"` (source-to-target, single pass) or `"general"` (fixpoint).
    pub mode: &'static str,
    /// Final run statistics.
    pub stats: ChaseStats,
    pub tgds: Vec<TgdExplain>,
    pub rounds: Vec<RoundExplain>,
    /// Degree of parallelism the chase was asked to run with (1 =
    /// sequential). The *request*, not the achieved worker count: small
    /// inputs degrade to sequential without changing this field, so the
    /// report stays byte-identical across machines.
    pub threads: usize,
    /// Mid-run adaptive re-optimizations performed (see
    /// [`mm_guard::ExecCtx::replan_ratio`]). Zero for non-adaptive runs and
    /// rendered only when non-zero, keeping pre-existing reports
    /// byte-identical.
    pub replans: u32,
}

impl ChaseExplain {
    /// Render as a telemetry explain tree (stable field order).
    pub fn to_node(&self) -> ExplainNode {
        let mut node = ExplainNode::new("chase")
            .field("mode", self.mode)
            .field("threads", self.threads)
            .field("rounds", self.stats.rounds)
            .field("fired", self.stats.fired)
            .field("nulls", self.stats.nulls);
        if self.replans > 0 {
            node = node.field("replans", self.replans);
        }
        for t in &self.tgds {
            node.push_child(
                ExplainNode::new(format!("tgd#{}", t.index))
                    .field("head_ground", t.head_ground)
                    .field("join_order", t.body.join_order.join(","))
                    .field("body_rels", t.body_rels.join(","))
                    .child(t.body.to_node()),
            );
        }
        for r in &self.rounds {
            node.push_child(
                ExplainNode::new(format!("round#{}", r.round))
                    .field("fired", r.fired)
                    .field("nulls", r.nulls)
                    .field("new_tuples", r.new_tuples),
            );
        }
        node
    }
}

impl fmt::Display for ChaseExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_node().fmt(f)
    }
}

impl ChaseProgram {
    /// Describe every compiled tgd against `db` (cardinalities and
    /// range selectivities are read from `db`; nothing executes).
    pub fn explain(&self, db: &Database) -> Vec<TgdExplain> {
        self.plans()
            .iter()
            .enumerate()
            .map(|(i, p)| TgdExplain {
                index: i,
                head_ground: p.head_is_ground(),
                body_rels: p.body_rels().to_vec(),
                body: p.body_plan().explain(db, None),
            })
            .collect()
    }
}
