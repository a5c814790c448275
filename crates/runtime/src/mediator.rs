//! Query mediation through chains of mappings (§5, "Peer-to-peer").
//!
//! "There is a chain of mappings from the schema to be queried, T, to a
//! source S1, which is mapped to a source S2, etc. The mapping design tool
//! might optimize a query on T to collapse the chain into direct
//! mappings … the runtime needs to be able to process a query on T by
//! propagating it through the chain." Both strategies live here; EQ6
//! benchmarks them against each other.

use mm_compose::compose_views;
use mm_eval::{eval_governed, unfold_query, EvalError};
use mm_expr::{Expr, ViewSet};
use mm_guard::{Degradation, DegradationKind, ExecBudget, ExecCtx, ExecError, Governor};
use mm_instance::{Database, Relation};
use mm_metamodel::Schema;
use mm_telemetry::{DegradationSite, ExplainNode};
use std::fmt;

/// Which mediation strategy produced an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediationMode {
    /// The chain was pre-composed into one direct mapping.
    Collapsed,
    /// The query was unfolded hop by hop down the chain.
    Chained,
}

/// Result of a governed mediation: the rows plus a record of which
/// strategy ran and whether the mediator had to degrade to produce them.
#[derive(Debug, Clone)]
pub struct MediationResult {
    pub rows: Relation,
    pub mode: MediationMode,
    /// `Some` when the collapsed plan tripped the budget and the mediator
    /// fell back to hop-by-hop unfolding.
    pub degradation: Option<Degradation>,
}

/// A prepared mediation strategy: the collapse-or-degrade decision of
/// [`Mediator::plan_governed`], made once per chain and reusable across
/// queries — the runtime analogue of the engine's chase-plan cache.
/// Collapsing an n-hop chain is the expensive, query-independent part of
/// mediation; a plan amortizes it.
#[derive(Debug)]
pub struct MediationPlan {
    strategy: Strategy,
    /// `Some` when planning degraded (composing the chain tripped the
    /// budget); copied into every answer produced from this plan.
    degradation: Option<Degradation>,
}

#[derive(Debug)]
enum Strategy {
    /// Unfold queries through the pre-composed direct mapping.
    Collapsed(ViewSet),
    /// Unfold hop by hop: the chain is empty, or collapsing it degraded.
    Chained,
}

impl MediationPlan {
    /// Which strategy answers produced from this plan will report.
    pub fn mode(&self) -> MediationMode {
        match self.strategy {
            Strategy::Collapsed(_) => MediationMode::Collapsed,
            Strategy::Chained => MediationMode::Chained,
        }
    }

    /// The degradation recorded at plan time, if composing the chain
    /// tripped the budget.
    pub fn degradation(&self) -> Option<&Degradation> {
        self.degradation.as_ref()
    }
}

/// Why a [`MediationPlan`] answers the way it does: the path chosen
/// (collapsed vs chained) and, when the fast path was abandoned, the
/// typed cause. Returned by [`Mediator::explain_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediationExplain {
    pub mode: MediationMode,
    /// Chain length the mediator planned over.
    pub hops: usize,
    /// Human-readable reason the mode was chosen.
    pub why: String,
    /// Display of the [`ExecError`] that forced a degradation, if any.
    pub cause: Option<String>,
}

impl MediationExplain {
    /// Render as a telemetry explain tree (stable field order).
    pub fn to_node(&self) -> ExplainNode {
        let mode = match self.mode {
            MediationMode::Collapsed => "collapsed",
            MediationMode::Chained => "chained",
        };
        let mut node = ExplainNode::new("mediation")
            .field("mode", mode)
            .field("hops", self.hops)
            .field("why", &self.why);
        if let Some(c) = &self.cause {
            node.push_field("cause", c);
        }
        node
    }
}

impl fmt::Display for MediationExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_node().fmt(f)
    }
}

/// A mediator over a chain of view-defined mappings.
///
/// `chain[0]` defines the first virtual schema over the base; `chain[i]`
/// defines level i+1 over level i. Queries arrive against the top level.
pub struct Mediator<'a> {
    pub base_schema: &'a Schema,
    pub chain: Vec<&'a ViewSet>,
}

impl<'a> Mediator<'a> {
    pub fn new(base_schema: &'a Schema, chain: Vec<&'a ViewSet>) -> Self {
        Mediator { base_schema, chain }
    }

    /// Explain what answers produced from `plan` will do and why.
    pub fn explain_plan(&self, plan: &MediationPlan) -> MediationExplain {
        let (why, cause) = match (&plan.strategy, &plan.degradation) {
            (Strategy::Collapsed(_), _) => {
                ("chain pre-composed into a direct mapping within budget".to_string(), None)
            }
            (Strategy::Chained, Some(d)) => (
                "composing the chain tripped the budget; unfolding hop by hop".to_string(),
                Some(d.cause.to_string()),
            ),
            (Strategy::Chained, None) => {
                ("empty chain: queries already address the base".to_string(), None)
            }
        };
        MediationExplain { mode: plan.mode(), hops: self.chain.len(), why, cause }
    }

    /// Unfold a top-level query down to the base schema.
    pub fn unfold(&self, query: &Expr) -> Expr {
        let mut q = query.clone();
        for views in self.chain.iter().rev() {
            q = unfold_query(&q, views);
        }
        q
    }

    /// Collapse the chain into one direct mapping (design-time
    /// composition), returning the composed view set.
    pub fn collapse(&self) -> Option<ViewSet> {
        let mut iter = self.chain.iter();
        let first = (*iter.next()?).clone();
        Some(iter.fold(first, |acc, next| compose_views(&acc, next)))
    }

    /// Decide the mediation strategy once, under the context's governor:
    /// collapse the chain — charging the composed definitions' size to
    /// the clause and step meters after each hop, so a chain whose
    /// composition blows up trips `BudgetExhausted` instead of
    /// materializing an enormous mapping — or, when that trips, record a
    /// [`Degradation`] and plan to unfold hop by hop instead. With enabled
    /// telemetry the degradation is mirrored as one `mediator.degraded`
    /// event and counted by cause. Cancellation and non-budget errors
    /// propagate — there is nothing further to fall back to.
    pub fn plan_governed(&self, ctx: &mut ExecCtx<'_>) -> Result<MediationPlan, ExecError> {
        let mut iter = self.chain.iter();
        let Some(first) = iter.next() else {
            // Empty chain: queries already address the base.
            return Ok(MediationPlan { strategy: Strategy::Chained, degradation: None });
        };
        let collapsed = iter.try_fold((*first).clone(), |acc, next| {
            let acc = compose_views(&acc, next);
            let nodes: usize = acc.views.iter().map(|v| v.expr.size()).sum();
            ctx.governor.clauses(nodes as u64)?;
            ctx.governor.steps_n(nodes as u64)?;
            Ok(acc)
        });
        match collapsed {
            Ok(views) => {
                Ok(MediationPlan { strategy: Strategy::Collapsed(views), degradation: None })
            }
            Err(cause @ ExecError::BudgetExhausted { .. }) => {
                let tel = &ctx.telemetry;
                if tel.is_enabled() {
                    if let Some(m) = tel.metrics() {
                        m.degradation(DegradationSite::Mediator, cause.telemetry_cause());
                    }
                    tel.event(
                        "mediator.degraded",
                        "",
                        vec![
                            mm_telemetry::Field {
                                key: "kind",
                                value: DegradationKind::CollapsedToChained.to_string().into(),
                            },
                            mm_telemetry::Field { key: "cause", value: cause.to_string().into() },
                            mm_telemetry::Field { key: "hops", value: self.chain.len().into() },
                        ],
                    );
                }
                Ok(MediationPlan {
                    strategy: Strategy::Chained,
                    degradation: Some(Degradation {
                        kind: DegradationKind::CollapsedToChained,
                        cause,
                    }),
                })
            }
            Err(e) => Err(e),
        }
    }

    /// [`Self::plan_governed`] under a fresh governor for `budget`,
    /// telemetry off.
    pub fn plan(&self, budget: &ExecBudget) -> Result<MediationPlan, ExecError> {
        self.plan_governed(&mut ExecCtx::new(&mut Governor::new(budget)))
    }

    /// Answer one query through a prepared plan. The per-chain work
    /// (composition, the degrade decision) was already paid by
    /// [`Self::plan`]; this only unfolds and evaluates `query`.
    pub fn answer_with_plan(
        &self,
        plan: &MediationPlan,
        query: &Expr,
        base_db: &Database,
        gov: &mut Governor,
    ) -> Result<MediationResult, EvalError> {
        let q = match &plan.strategy {
            Strategy::Collapsed(collapsed) => unfold_query(query, collapsed),
            Strategy::Chained => self.unfold(query),
        };
        let rows = eval_governed(&q, self.base_schema, base_db, gov)?;
        Ok(MediationResult { rows, mode: plan.mode(), degradation: plan.degradation.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_eval::eval;
    use mm_expr::{Predicate, ViewDef};
    use mm_instance::{Tuple, Value};
    use mm_metamodel::{DataType, SchemaBuilder};

    impl MediationPlan {
        /// The pre-composed direct mapping, when the plan collapsed.
        pub(crate) fn collapsed_views(&self) -> Option<&ViewSet> {
            match &self.strategy {
                Strategy::Collapsed(vs) => Some(vs),
                Strategy::Chained => None,
            }
        }
    }

    /// One-shot governed mediation: plan under `budget`, then answer; a
    /// degraded plan restarts the step meter but keeps the deadline and
    /// cancellation token of the same budget.
    fn one_shot(
        m: &Mediator<'_>,
        q: &Expr,
        db: &Database,
        budget: &ExecBudget,
    ) -> Result<MediationResult, EvalError> {
        let mut gov = Governor::new(budget);
        let plan = m.plan_governed(&mut ExecCtx::new(&mut gov)).map_err(EvalError::Exec)?;
        if plan.degradation().is_some() {
            gov = Governor::new(budget);
        }
        m.answer_with_plan(&plan, q, db, &mut gov)
    }

    fn base() -> (Schema, Database) {
        let s = SchemaBuilder::new("Base")
            .relation("People", &[
                ("id", DataType::Int),
                ("name", DataType::Text),
                ("age", DataType::Int),
                ("city", DataType::Text),
            ])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        for (id, name, age, city) in [
            (1, "ann", 31, "rome"),
            (2, "bob", 17, "oslo"),
            (3, "cyd", 45, "rome"),
        ] {
            db.insert(
                "People",
                Tuple::from([
                    Value::Int(id),
                    Value::text(name),
                    Value::Int(age),
                    Value::text(city),
                ]),
            );
        }
        (s, db)
    }

    /// Two-hop chain: Adults over People; RomanAdults over Adults.
    fn chain() -> (ViewSet, ViewSet) {
        let mut l1 = ViewSet::new("Base", "L1");
        l1.push(ViewDef::new(
            "Adults",
            Expr::base("People").select(Predicate::Cmp {
                op: mm_expr::CmpOp::Ge,
                left: mm_expr::Scalar::col("age"),
                right: mm_expr::Scalar::lit(18i64),
            }),
        ));
        let mut l2 = ViewSet::new("L1", "L2");
        l2.push(ViewDef::new(
            "RomanAdults",
            Expr::base("Adults")
                .select(Predicate::col_eq_lit("city", "rome"))
                .project(&["id", "name"]),
        ));
        (l1, l2)
    }

    #[test]
    fn chained_and_collapsed_agree() {
        let (s, db) = base();
        let (l1, l2) = chain();
        let m = Mediator::new(&s, vec![&l1, &l2]);
        let q = Expr::base("RomanAdults").project(&["name"]);
        let chained = eval(&m.unfold(&q), &s, &db).unwrap();
        let collapsed = m.collapse().unwrap();
        let direct = eval(&unfold_query(&q, &collapsed), &s, &db).unwrap();
        assert!(chained.set_eq(&direct));
        assert_eq!(chained.len(), 2); // ann, cyd
    }

    #[test]
    fn collapsed_mapping_reads_base_directly() {
        let (s, _) = base();
        let (l1, l2) = chain();
        let m = Mediator::new(&s, vec![&l1, &l2]);
        let collapsed = m.collapse().unwrap();
        let v = collapsed.view("RomanAdults").unwrap();
        assert_eq!(mm_expr::analyze::base_relations(&v.expr), ["People"]);
    }

    #[test]
    fn optimized_mediation_agrees_with_plain() {
        let (s, db) = base();
        let (l1, l2) = chain();
        let m = Mediator::new(&s, vec![&l1, &l2]);
        let q = Expr::base("RomanAdults").project(&["name"]);
        let plain = eval(&m.unfold(&q), &s, &db).unwrap();
        let opt = mm_expr::optimize(&m.unfold(&q), &s).unwrap();
        assert!(plain.set_eq(&eval(&opt, &s, &db).unwrap()));
        // the optimized unfolding pushes both filters down to People
        assert!(opt.to_string().contains("People) WHERE"), "{opt}");
    }

    #[test]
    fn governed_mediation_prefers_collapsed() {
        let (s, db) = base();
        let (l1, l2) = chain();
        let m = Mediator::new(&s, vec![&l1, &l2]);
        let q = Expr::base("RomanAdults").project(&["name"]);
        let r = one_shot(&m, &q, &db, &ExecBudget::unbounded()).unwrap();
        assert_eq!(r.mode, MediationMode::Collapsed);
        assert!(r.degradation.is_none());
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn governed_mediation_degrades_to_chained_on_clause_budget() {
        let (s, db) = base();
        let (l1, l2) = chain();
        let m = Mediator::new(&s, vec![&l1, &l2]);
        let q = Expr::base("RomanAdults").project(&["name"]);
        // clause budget far below the collapsed mapping's expression size
        let budget = ExecBudget::unbounded().with_clauses(1);
        let r = one_shot(&m, &q, &db, &budget).unwrap();
        assert_eq!(r.mode, MediationMode::Chained);
        let d = r.degradation.expect("collapse should have tripped the budget");
        assert_eq!(d.kind, DegradationKind::CollapsedToChained);
        assert!(matches!(d.cause, ExecError::BudgetExhausted { .. }));
        // the degraded answer still agrees with the ungoverned one
        let oracle = eval(&m.unfold(&q), &s, &db).unwrap();
        assert!(r.rows.set_eq(&oracle));
    }

    #[test]
    fn governed_mediation_cancellation_propagates() {
        use mm_guard::CancelToken;
        let (s, db) = base();
        let (l1, l2) = chain();
        let m = Mediator::new(&s, vec![&l1, &l2]);
        let token = CancelToken::new();
        token.cancel();
        let q = Expr::base("RomanAdults");
        let err = one_shot(&m, &q, &db, &ExecBudget::unbounded().with_cancel(token)).unwrap_err();
        assert!(matches!(err, EvalError::Exec(ExecError::Cancelled { .. })), "{err:?}");
    }

    #[test]
    fn plan_is_reusable_across_queries_and_agrees_with_one_shot() {
        let (s, db) = base();
        let (l1, l2) = chain();
        let m = Mediator::new(&s, vec![&l1, &l2]);
        let budget = ExecBudget::unbounded();
        let plan = m.plan(&budget).unwrap();
        assert_eq!(plan.mode(), MediationMode::Collapsed);
        assert!(plan.degradation().is_none());
        assert!(plan.collapsed_views().is_some());
        for q in [
            Expr::base("RomanAdults").project(&["name"]),
            Expr::base("RomanAdults"),
            Expr::base("RomanAdults").project(&["id"]),
        ] {
            let planned =
                m.answer_with_plan(&plan, &q, &db, &mut Governor::new(&budget)).unwrap();
            let one_shot = one_shot(&m, &q, &db, &budget).unwrap();
            assert_eq!(planned.mode, one_shot.mode);
            assert!(planned.rows.set_eq(&one_shot.rows));
        }
    }

    #[test]
    fn degraded_plan_carries_its_degradation_into_every_answer() {
        let (s, db) = base();
        let (l1, l2) = chain();
        let m = Mediator::new(&s, vec![&l1, &l2]);
        let tight = ExecBudget::unbounded().with_clauses(1);
        let plan = m.plan(&tight).unwrap();
        assert_eq!(plan.mode(), MediationMode::Chained);
        assert!(plan.degradation().is_some());
        let q = Expr::base("RomanAdults").project(&["name"]);
        let r = m
            .answer_with_plan(&plan, &q, &db, &mut Governor::new(&ExecBudget::unbounded()))
            .unwrap();
        assert_eq!(r.mode, MediationMode::Chained);
        assert!(matches!(
            r.degradation,
            Some(Degradation { kind: DegradationKind::CollapsedToChained, .. })
        ));
        let oracle = eval(&m.unfold(&q), &s, &db).unwrap();
        assert!(r.rows.set_eq(&oracle));
    }

    #[test]
    fn empty_chain_collapse_is_none() {
        let (s, _) = base();
        let m = Mediator::new(&s, vec![]);
        assert!(m.collapse().is_none());
    }

    #[test]
    fn deep_chain_mediation() {
        // 5 identity-ish hops on top of the filter chain
        let (s, db) = base();
        let (l1, l2) = chain();
        let mut hops: Vec<ViewSet> = vec![l1, l2];
        for i in 0..5 {
            let prev = if i == 0 { "RomanAdults".to_string() } else { format!("V{}", i - 1) };
            let mut vs = ViewSet::new(format!("L{}", i + 2), format!("L{}", i + 3));
            vs.push(ViewDef::new(format!("V{i}"), Expr::base(prev)));
            hops.push(vs);
        }
        let refs: Vec<&ViewSet> = hops.iter().collect();
        let m = Mediator::new(&s, refs);
        let q = Expr::base("V4");
        let r = eval(&m.unfold(&q), &s, &db).unwrap();
        assert_eq!(r.len(), 2);
        let collapsed = m.collapse().unwrap();
        let r2 = eval(&unfold_query(&q, &collapsed), &s, &db).unwrap();
        assert!(r.set_eq(&r2));
    }
}
