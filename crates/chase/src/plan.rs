//! Compiled tgd plans and the delta-driven (semi-naive) machinery the
//! chase executes on.
//!
//! A [`TgdPlan`] compiles one tgd once: body and head become
//! [`CqPlan`]s over a shared [`VarTable`] (so a slot names the same
//! variable on both sides), and the head additionally compiles to a
//! firing template of slot/constant terms. Satisfaction checks seed the
//! head plan with the body-bound head variables and probe target indexes
//! instead of scanning the whole (growing) target — the quadratic hot
//! spot of the naive source-to-target chase.
//!
//! For the general chase, `TgdPlan::body_matches_delta` evaluates a
//! body against per-relation *watermarks* (the relation length at this
//! tgd's previous evaluation): the candidate set is the union over delta
//! splits d of "atoms before d see only pre-watermark tuples, atom d
//! sees only the delta, atoms after d see everything" — disjoint splits
//! that together cover exactly the bindings touching at least one new
//! tuple. Sorting the union by per-atom tuple positions restores the
//! naive enumeration order, which keeps firing order — and therefore
//! labeled-null identities — bit-identical to the naive chase.

use crate::chase::ChaseStats;
use mm_eval::plan::{lit_to_value, AtomRange, CqPlan, ExecOptions, PlanMatch, SlotTerm, VarTable};
use mm_expr::{Term, Tgd};
use mm_guard::{ExecError, Governor};
use mm_instance::{Database, Tuple, Value};
use std::collections::{BTreeSet, HashMap, HashSet};

/// One term of a compiled tgd-head atom, ready for firing.
#[derive(Debug, Clone)]
enum HeadTerm {
    /// A variable slot: universally bound by the body, or existential
    /// (minted fresh per firing when the binding leaves it `None`).
    Slot(usize),
    Const(Value),
    /// Function terms are not first-order instantiable; firing one
    /// reports a typed [`ExecError::Unsupported`], like the naive path.
    Func(String),
}

/// A tgd compiled for repeated chase execution.
#[derive(Debug, Clone)]
pub struct TgdPlan {
    table: VarTable,
    body: CqPlan,
    head: CqPlan,
    /// Slots of head variables the body binds — the seed of the
    /// head-satisfaction check.
    head_seed_slots: Vec<usize>,
    /// Head atoms in source order, compiled for firing.
    head_inst: Vec<(String, Vec<HeadTerm>)>,
    /// Whether every head term is a constant or a body-bound slot (no
    /// existentials, no function terms). A ground head is satisfied iff
    /// each instantiated head tuple is already present, so the check is a
    /// hash-set containment per atom instead of a plan execution.
    head_ground: bool,
    /// Distinct body relation names (watermark domain).
    body_rels: Vec<String>,
    /// Per body relation, the cardinality observed at compile time — the
    /// statistics this plan's cost estimates were derived from. Adaptive
    /// re-optimization compares these against current cardinalities to
    /// detect stale plans.
    compile_rows: Vec<(String, u32)>,
    /// The source tgd, retained for costed plans so mid-run
    /// re-optimization can recompile ([`TgdPlan::recost`]).
    src: Option<Tgd>,
}

impl TgdPlan {
    /// Compile `tgd`, using `db` only for join-order selectivity hints.
    pub fn compile(tgd: &Tgd, db: &Database) -> TgdPlan {
        TgdPlan::compile_inner(tgd, db, false, None)
    }

    /// Compile `tgd` with a cost-based body join order
    /// ([`CqPlan::compile_costed`]): the body walk runs in the
    /// selectivity-estimated cheapest order while emitted matches still
    /// sort back into the canonical naive enumeration (so firing order
    /// and labeled-null identities are unchanged). The head keeps the
    /// greedy order — it only ever runs as a limit-1 existence probe.
    pub fn compile_costed(tgd: &Tgd, db: &Database) -> TgdPlan {
        TgdPlan::compile_inner(tgd, db, true, None)
    }

    /// Re-plan a costed tgd against `db`'s *current* statistics: a fresh
    /// cost-based walk order, fresh estimates, fresh compile-time
    /// cardinalities — but the canonical enumeration order stays frozen
    /// at this plan's, so a chase that swaps plans mid-run keeps firing
    /// in exactly the reference sequence. Returns `None` for plans not
    /// compiled by the cost-based planner.
    pub(crate) fn recost(&self, db: &Database) -> Option<TgdPlan> {
        let tgd = self.src.as_ref()?;
        let canon = self.body.canonical_source_order();
        Some(TgdPlan::compile_inner(tgd, db, true, Some(&canon)))
    }

    fn compile_inner(
        tgd: &Tgd,
        db: &Database,
        costed: bool,
        canon: Option<&[usize]>,
    ) -> TgdPlan {
        let mut table = VarTable::new();
        let body = match (costed, canon) {
            (true, Some(c)) => {
                CqPlan::compile_costed_with_canon(&tgd.body, &mut table, db, &[], c)
            }
            (true, None) => CqPlan::compile_costed(&tgd.body, &mut table, db, &[]),
            (false, _) => CqPlan::compile(&tgd.body, &mut table, db, &[]),
        };
        let body_slots: HashSet<usize> = body
            .atoms()
            .iter()
            .flat_map(|a| a.terms())
            .filter_map(|t| match t {
                SlotTerm::Var(s) => Some(*s),
                SlotTerm::Const(_) => None,
            })
            .collect();
        let mut head_vars: BTreeSet<&str> = BTreeSet::new();
        for a in &tgd.head {
            for t in &a.terms {
                t.vars(&mut head_vars);
            }
        }
        let head_seed_slots: Vec<usize> = head_vars
            .iter()
            .filter_map(|v| table.slot(v))
            .filter(|s| body_slots.contains(s))
            .collect();
        let head = CqPlan::compile(&tgd.head, &mut table, db, &head_seed_slots);
        let head_inst: Vec<(String, Vec<HeadTerm>)> = tgd
            .head
            .iter()
            .map(|a| {
                let terms = a
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => HeadTerm::Slot(table.intern(v)),
                        Term::Const(l) => HeadTerm::Const(lit_to_value(l)),
                        Term::Func(name, _) => HeadTerm::Func(name.clone()),
                    })
                    .collect();
                (a.relation.clone(), terms)
            })
            .collect();
        let head_ground = head_inst.iter().all(|(_, terms)| {
            terms.iter().all(|t| match t {
                HeadTerm::Const(_) => true,
                HeadTerm::Slot(s) => body_slots.contains(s),
                HeadTerm::Func(_) => false,
            })
        });
        let mut body_rels: Vec<String> = Vec::new();
        for a in &tgd.body {
            if !body_rels.contains(&a.relation) {
                body_rels.push(a.relation.clone());
            }
        }
        let compile_rows = body_rels
            .iter()
            .map(|r| (r.clone(), db.relation(r).map_or(0, |rel| rel.len() as u32)))
            .collect();
        TgdPlan {
            table,
            body,
            head,
            head_seed_slots,
            head_inst,
            head_ground,
            body_rels,
            compile_rows,
            src: costed.then(|| tgd.clone()),
        }
    }

    /// Distinct body relation names — the domain of this tgd's
    /// semi-naive watermarks.
    pub(crate) fn body_rels(&self) -> &[String] {
        &self.body_rels
    }

    /// The compiled body plan (join order, probe columns) — what
    /// [`crate::explain`] reports.
    pub(crate) fn body_plan(&self) -> &CqPlan {
        &self.body
    }

    /// Whether every head term is a constant or a body-bound slot (the
    /// hash-containment satisfaction fast path applies).
    pub(crate) fn head_is_ground(&self) -> bool {
        self.head_ground
    }

    /// Slot count of the shared variable table; every binding passed back
    /// into `TgdPlan::head_satisfied`/[`TgdPlan::fire`] has this length.
    pub fn num_slots(&self) -> usize {
        self.table.len()
    }

    /// Whether the body was compiled by the cost-based planner (carries
    /// cardinality estimates).
    pub fn is_costed(&self) -> bool {
        self.body.is_costed()
    }

    /// Planner estimate of the body's total match count, when costed.
    pub fn estimated_matches(&self) -> Option<f64> {
        self.body.estimated_matches()
    }

    /// Whether any body relation's current cardinality in `db` has
    /// drifted from the compile-time cardinality by more than `ratio` in
    /// either direction (with +1 smoothing so empty relations compare
    /// sanely). A drifted plan's cost estimates — and hence its join
    /// order — may be arbitrarily wrong; the engine re-plans it.
    pub fn misestimated(&self, db: &Database, ratio: f64) -> bool {
        self.compile_rows.iter().any(|(rel, was)| {
            let now = db.relation(rel).map_or(0, |r| r.len() as u32);
            let (lo, hi) = if *was <= now { (*was, now) } else { (now, *was) };
            f64::from(hi + 1) / f64::from(lo + 1) > ratio
        })
    }

    /// Full body evaluation (every binding, naive-identical order), with
    /// the driver atom's range fanned across up to `threads` workers.
    /// Same bindings, same order, same metered step totals at every
    /// thread count ([`CqPlan::execute`]'s contract); `threads
    /// <= 1` and small driver relations run sequentially.
    pub(crate) fn body_matches(
        &self,
        db: &Database,
        use_indexes: bool,
        threads: usize,
        gov: &mut Governor,
        out: &mut Vec<PlanMatch>,
    ) -> Result<mm_parallel::PoolRun, ExecError> {
        let mut scratch = vec![None; self.table.len()];
        let opts = ExecOptions { use_indexes, ..Default::default() };
        let before = out.len();
        let run = self.body.execute(db, &mut scratch, &opts, threads, gov, out)?;
        if self.body.is_costed() {
            // a costed walk may enumerate out of canonical order; the
            // emitted positions sort it back into the naive sequence
            out[before..].sort_by(|a, b| a.positions.cmp(&b.positions));
        }
        Ok(run)
    }

    /// Semi-naive body evaluation: only bindings that touch at least one
    /// tuple inserted at or after its relation's watermark, in the exact
    /// order a full evaluation would have enumerated them. Each delta
    /// split's driver range fans across up to `threads` workers; the
    /// final position-vector sort restores the naive enumeration order
    /// whichever way the splits were chunked.
    pub(crate) fn body_matches_delta(
        &self,
        db: &Database,
        watermarks: &HashMap<String, u32>,
        use_indexes: bool,
        threads: usize,
        gov: &mut Governor,
        out: &mut Vec<PlanMatch>,
    ) -> Result<mm_parallel::PoolRun, ExecError> {
        let n = self.body.atoms().len();
        let wm_of = |relation: &str| watermarks.get(relation).copied().unwrap_or(0);
        let len_of =
            |relation: &str| db.relation(relation).map_or(0, |r| r.tuples().len() as u32);
        let mut scratch = vec![None; self.table.len()];
        let mut acc: Vec<PlanMatch> = Vec::new();
        let mut run = mm_parallel::PoolRun::default();
        for d in 0..n {
            let d_rel = &self.body.atoms()[d].relation;
            if len_of(d_rel) <= wm_of(d_rel) {
                continue; // this split's delta is empty
            }
            let ranges: Vec<AtomRange> = (0..n)
                .map(|i| {
                    let wm = wm_of(&self.body.atoms()[i].relation);
                    match i.cmp(&d) {
                        std::cmp::Ordering::Less => AtomRange::Below(wm),
                        std::cmp::Ordering::Equal => AtomRange::AtOrAbove(wm),
                        std::cmp::Ordering::Greater => AtomRange::Full,
                    }
                })
                .collect();
            let opts = ExecOptions { ranges: Some(&ranges), use_indexes, limit: None };
            run.absorb(self.body.execute(db, &mut scratch, &opts, threads, gov, &mut acc)?);
        }
        acc.sort_by(|a, b| a.positions.cmp(&b.positions));
        out.append(&mut acc);
        Ok(run)
    }

    /// Whether the head is already satisfied in `db` under `binding`:
    /// does some extension of the body-bound head variables map every
    /// head atom into the database? Probes target indexes seeded with the
    /// universal head variables and stops at the first witness.
    pub(crate) fn head_satisfied(
        &self,
        binding: &[Option<Value>],
        db: &Database,
        use_indexes: bool,
        gov: &mut Governor,
    ) -> Result<bool, ExecError> {
        if use_indexes && self.head_ground {
            // No existentials: satisfaction is per-atom tuple containment,
            // checked against one reusable value buffer — no tuple (or
            // tuple buffer) is allocated per candidate firing.
            let mut values: Vec<Value> = Vec::new();
            for (relation, terms) in &self.head_inst {
                gov.step()?;
                let Some(rel) = db.relation(relation) else { return Ok(false) };
                values.clear();
                for t in terms {
                    match t {
                        HeadTerm::Const(v) => values.push(v.clone()),
                        HeadTerm::Slot(s) => match &binding[*s] {
                            Some(v) => values.push(v.clone()),
                            None => return Ok(false),
                        },
                        // unreachable under head_ground; defensive
                        HeadTerm::Func(_) => return Ok(false),
                    }
                }
                if !rel.contains_values(&values) {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
        let mut scratch = vec![None; self.table.len()];
        for &s in &self.head_seed_slots {
            scratch[s] = binding[s].clone();
        }
        let opts = ExecOptions { use_indexes, limit: Some(1), ..Default::default() };
        let mut out = Vec::with_capacity(1);
        self.head.execute(db, &mut scratch, &opts, 1, gov, &mut out)?;
        Ok(!out.is_empty())
    }

    /// Fire the head under `binding`: instantiate every head atom —
    /// minting one fresh labeled null per existential slot per firing, in
    /// first-occurrence order (atom order, then left-to-right), exactly
    /// like the naive path — and insert the tuples.
    pub fn fire(
        &self,
        binding: &[Option<Value>],
        db: &mut Database,
        stats: &mut ChaseStats,
        gov: &mut Governor,
    ) -> Result<(), ExecError> {
        let mut memo: Vec<Option<Value>> = vec![None; self.table.len()];
        let mut minted = 0usize;
        // one firing buffer across head atoms: tuples are built from the
        // slice (inline small-tuple layout, hash cached at construction)
        let mut values: Vec<Value> = Vec::new();
        for (relation, terms) in &self.head_inst {
            gov.row()?;
            values.clear();
            for t in terms {
                values.push(match t {
                    HeadTerm::Const(v) => v.clone(),
                    HeadTerm::Func(name) => {
                        return Err(ExecError::unsupported(format!(
                            "function term '{name}' in first-order instantiation of atom '{relation}'"
                        )))
                    }
                    HeadTerm::Slot(s) => match (&binding[*s], &memo[*s]) {
                        (Some(v), _) => v.clone(),
                        (None, Some(v)) => v.clone(),
                        (None, None) => {
                            let v = db.fresh_labeled();
                            minted += 1;
                            memo[*s] = Some(v.clone());
                            v
                        }
                    },
                });
            }
            db.insert(relation, Tuple::from_slice(&values));
        }
        stats.nulls += minted;
        stats.fired += 1;
        Ok(())
    }
}

/// A set of tgds compiled for repeated chase execution — what the engine
/// plan cache stores per mapping and reuses across calls.
#[derive(Debug, Clone)]
pub struct ChaseProgram {
    plans: Vec<TgdPlan>,
}

impl ChaseProgram {
    /// Compile every tgd. `db` supplies join-order selectivity hints
    /// (typically the source instance of the first call; order only
    /// affects performance and enumeration order, never the result set).
    pub fn compile(tgds: &[Tgd], db: &Database) -> ChaseProgram {
        ChaseProgram { plans: tgds.iter().map(|t| TgdPlan::compile(t, db)).collect() }
    }

    /// Compile every tgd through the cost-based planner
    /// ([`TgdPlan::compile_costed`]): join orders are chosen from `db`'s
    /// cardinality statistics and the compiled plans carry their
    /// estimates for EXPLAIN and runtime misestimate detection. Results
    /// remain bit-identical to [`ChaseProgram::compile`]'s.
    pub fn compile_costed(tgds: &[Tgd], db: &Database) -> ChaseProgram {
        ChaseProgram { plans: tgds.iter().map(|t| TgdPlan::compile_costed(t, db)).collect() }
    }

    /// Whether any tgd plan's compile-time statistics have drifted from
    /// `db` beyond `ratio` ([`TgdPlan::misestimated`]).
    pub fn misestimated(&self, db: &Database, ratio: f64) -> bool {
        self.plans.iter().any(|p| p.misestimated(db, ratio))
    }

    pub fn plans(&self) -> &[TgdPlan] {
        &self.plans
    }

    pub fn len(&self) -> usize {
        self.plans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}
