//! Compiled conjunctive-query plans.
//!
//! A [`CqPlan`] compiles a conjunction of atoms once — variables interned
//! to dense `usize` slots by a [`VarTable`], a greedy join order fixed up
//! front, per-atom index-probe patterns precomputed — so evaluation runs
//! as a backtracking join over a single flat `Vec<Option<Value>>` scratch
//! instead of cloning a string-keyed `HashMap` per probe. Atom matching
//! probes a [`mm_instance::RelIndex`] bucket when any column is bound and
//! falls back to a scan otherwise.
//!
//! Execution order is deliberately identical to the naive nested-loop
//! evaluator in [`crate::testkit`]: the join order replicates its greedy
//! heuristic, and index buckets preserve relation insertion order, so the
//! compiled path enumerates matches in exactly the order the naive scan
//! would. Consumers that must be bit-identical to the naive path (the
//! chase, whose labeled-null ids depend on firing order) rely on this.
//!
//! [`CqPlan::compile_costed`] relaxes the *walk* order without giving up
//! that contract: it picks a selectivity-estimated join order from
//! [`mm_instance::RelStats`] cardinality sketches (exhaustive DP over
//! small atom sets, greedy-with-costs above `DP_MAX_ATOMS`), and emits
//! every [`PlanMatch`]'s position vector permuted into the *canonical*
//! greedy order — so sorting matches by positions recovers the exact
//! naive enumeration sequence no matter which order the walk ran in.

use mm_expr::{Atom, Lit, Term};
use mm_guard::{ExecError, Governor};
use mm_instance::{Database, RelIndex, Relation, Tuple, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Lower an expression-level literal to an instance-level value (shared
/// by the CQ matcher and the chase's head instantiation).
pub fn lit_to_value(l: &Lit) -> Value {
    match l {
        Lit::Int(v) => Value::Int(*v),
        Lit::Double(v) => Value::Double(*v),
        Lit::Bool(v) => Value::Bool(*v),
        Lit::Text(v) => Value::text(v.as_str()),
        Lit::Date(v) => Value::Date(*v),
        Lit::Null => Value::Null,
    }
}

/// Interner mapping variable names to dense slots. Shared across the
/// plans of one dependency (tgd body and head intern into the same table)
/// so a slot identifies a variable across both sides.
#[derive(Debug, Clone, Default)]
pub struct VarTable {
    names: Vec<String>,
    map: HashMap<String, usize>,
}

impl VarTable {
    pub fn new() -> Self {
        VarTable::default()
    }

    /// Slot of `name`, allocating the next dense slot on first sight.
    pub fn intern(&mut self, name: &str) -> usize {
        if let Some(&s) = self.map.get(name) {
            return s;
        }
        let s = self.names.len();
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), s);
        s
    }

    pub fn slot(&self, name: &str) -> Option<usize> {
        self.map.get(name).copied()
    }

    pub fn name(&self, slot: usize) -> Option<&str> {
        self.names.get(slot).map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One term of a compiled atom: an interned variable slot or a constant.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotTerm {
    Var(usize),
    Const(Value),
}

/// One atom of a compiled plan, in join order.
#[derive(Debug, Clone)]
pub struct AtomPlan {
    pub relation: String,
    terms: Vec<SlotTerm>,
    /// Columns usable as an index-probe key when execution reaches this
    /// atom: constant columns plus variable columns whose slot is bound
    /// by an earlier plan atom or pre-bound by the caller's seed.
    probe_cols: Vec<usize>,
}

impl AtomPlan {
    pub fn terms(&self) -> &[SlotTerm] {
        &self.terms
    }
}

/// Per-atom tuple-range restriction for semi-naive evaluation, phrased
/// in relation insertion positions (watermarks recorded as `rel.len()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomRange {
    /// All tuples.
    Full,
    /// Only tuples inserted before the watermark ("old" tuples).
    Below(u32),
    /// Only tuples at or after the watermark (the delta).
    AtOrAbove(u32),
    /// Only tuples in `[lo, hi)` — a chunk of another range, used by
    /// parallel execution to split a driver atom's interval across
    /// workers. Every other variant denotes a contiguous position
    /// interval, so chunks compose with any of them.
    Between(u32, u32),
}

impl AtomRange {
    fn admits(self, pos: u32) -> bool {
        match self {
            AtomRange::Full => true,
            AtomRange::Below(w) => pos < w,
            AtomRange::AtOrAbove(w) => pos >= w,
            AtomRange::Between(lo, hi) => pos >= lo && pos < hi,
        }
    }

    /// The contiguous `[start, end)` interval of insertion positions
    /// this range admits in a relation of `len` tuples.
    pub fn interval(self, len: usize) -> (usize, usize) {
        match self {
            AtomRange::Full => (0, len),
            AtomRange::Below(w) => (0, (w as usize).min(len)),
            AtomRange::AtOrAbove(w) => ((w as usize).min(len), len),
            AtomRange::Between(lo, hi) => {
                let lo = (lo as usize).min(len);
                (lo, (hi as usize).min(len).max(lo))
            }
        }
    }
}

/// One match of a plan: the slot values, plus the insertion position of
/// the tuple matched at each atom — in *canonical* (greedy) atom order,
/// which coincides with plan order except for cost-based plans, whose
/// walk order may differ. The position vector orders matches exactly as
/// the naive nested-loop enumeration would (lexicographic comparison),
/// which is what lets the semi-naive chase recover the naive firing
/// order after evaluating delta splits (or a reordered costed walk) out
/// of order.
#[derive(Debug, Clone)]
pub struct PlanMatch {
    pub binding: Vec<Option<Value>>,
    pub positions: Vec<u32>,
}

/// Knobs for one plan execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions<'r> {
    /// Per-plan-atom tuple ranges (plan order); `None` means all tuples.
    pub ranges: Option<&'r [AtomRange]>,
    /// Probe relation indexes where a bound column allows it; `false`
    /// forces the scan path (the benchmarked baseline).
    pub use_indexes: bool,
    /// Stop after this many matches (existence checks pass 1).
    pub limit: Option<usize>,
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        ExecOptions { ranges: None, use_indexes: true, limit: None }
    }
}

/// A compiled conjunctive query. Compile once, execute many times.
#[derive(Debug, Clone)]
pub struct CqPlan {
    atoms: Vec<AtomPlan>,
    /// Plan position → index of the originating atom in the source list.
    source: Vec<usize>,
    num_slots: usize,
    /// A function term appeared somewhere: the query matches nothing
    /// (function terms only occur in SO-tgd heads, which are not chased
    /// directly — same semantics as the naive matcher).
    unsat: bool,
    /// Canonical-rank → plan-position permutation applied to emitted
    /// position vectors, present only when the walk order differs from
    /// the canonical greedy order (cost-based plans). `None` ⇒ identity.
    canon: Option<Vec<usize>>,
    /// Estimated cumulative match cardinality after each plan atom (plan
    /// order); empty unless compiled by [`CqPlan::compile_costed`].
    estimates: Vec<f64>,
}

impl CqPlan {
    /// Compile `atoms` against `table`, choosing a greedy join order
    /// (most already-bound variables first; ties broken by smallest
    /// relation in `db`, then source position — the exact heuristic of
    /// the naive evaluator, so both paths enumerate identically).
    ///
    /// `prebound` lists slots the caller promises to seed before
    /// executing; they widen index-probe patterns but deliberately do
    /// not influence the join order (the naive path ignores seeds when
    /// ordering). A promised slot left unseeded at execution time only
    /// costs the probe — execution falls back to a scan.
    pub fn compile(
        atoms: &[Atom],
        table: &mut VarTable,
        db: &Database,
        prebound: &[usize],
    ) -> CqPlan {
        let source = greedy_order(atoms, db);
        let (plans, unsat) = build_atom_plans(atoms, &source, table, prebound);
        CqPlan {
            atoms: plans,
            source,
            num_slots: table.len(),
            unsat,
            canon: None,
            estimates: Vec::new(),
        }
    }

    /// Compile `atoms` with a cost-based join order: per-step work is
    /// estimated from [`mm_instance::RelStats`] sketches (exact
    /// constant-equality counts, `1/distinct` join selectivity), the
    /// order minimizing total estimated work is found by exhaustive DP
    /// over subsets up to [`DP_MAX_ATOMS`] atoms and by greedy
    /// cheapest-next-atom above that, and the per-atom cumulative
    /// cardinality estimates are carried on the plan for EXPLAIN and for
    /// runtime misestimate detection.
    ///
    /// The result set is identical to [`CqPlan::compile`]'s, and emitted
    /// [`PlanMatch::positions`] are permuted into the canonical greedy
    /// order — sorting matches lexicographically by positions yields the
    /// exact naive enumeration sequence, preserving the chase's
    /// bit-identity contract under the reordered walk.
    pub fn compile_costed(
        atoms: &[Atom],
        table: &mut VarTable,
        db: &Database,
        prebound: &[usize],
    ) -> CqPlan {
        let canon_source = greedy_order(atoms, db);
        CqPlan::compile_costed_with_canon(atoms, table, db, prebound, &canon_source)
    }

    /// [`CqPlan::compile_costed`] with an explicit canonical source-atom
    /// order instead of deriving it from `db`'s current greedy order.
    /// Mid-run re-optimization uses this: the enumeration order a chase
    /// must reproduce is frozen when its reference plan is first
    /// compiled, so a re-planned body picks a *new* walk order from
    /// current statistics while emitting positions in the *old* canonical
    /// order.
    pub fn compile_costed_with_canon(
        atoms: &[Atom],
        table: &mut VarTable,
        db: &Database,
        prebound: &[usize],
        canon_source: &[usize],
    ) -> CqPlan {
        let prebound_names: HashSet<&str> = prebound
            .iter()
            .filter_map(|&s| table.name(s))
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        let (source, estimates) = cost_order(atoms, db, &prebound_names);
        let (plans, unsat) = build_atom_plans(atoms, &source, table, prebound);
        // canonical rank k is held by source atom canon_source[k]; find
        // where the cost order placed it
        let canon: Vec<usize> = canon_source
            .iter()
            .map(|ai| source.iter().position(|s| s == ai).unwrap_or(0))
            .collect();
        let identity = canon.iter().enumerate().all(|(k, &p)| k == p);
        CqPlan {
            atoms: plans,
            source,
            num_slots: table.len(),
            unsat,
            canon: (!identity).then_some(canon),
            estimates,
        }
    }

    /// Source-atom indexes in canonical (greedy-at-first-compile) rank
    /// order — the enumeration order emitted position vectors are
    /// expressed in. Equals the walk order for greedy plans.
    pub fn canonical_source_order(&self) -> Vec<usize> {
        match &self.canon {
            Some(perm) => perm.iter().map(|&p| self.source[p]).collect(),
            None => self.source.clone(),
        }
    }

    /// Whether this plan walks atoms in a different order than the
    /// canonical enumeration — i.e. whether emitted position vectors
    /// need a sort to recover the naive sequence. Greedy plans and
    /// costed plans whose chosen order coincides with the canonical one
    /// emit in canonical order already.
    pub fn is_reordered(&self) -> bool {
        self.canon.is_some()
    }

    /// Number of slots the compiling table had seen when this plan was
    /// built; execution scratch must be at least this long.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    pub fn atoms(&self) -> &[AtomPlan] {
        &self.atoms
    }

    /// Whether this plan was compiled by [`CqPlan::compile_costed`]
    /// (carries cardinality estimates; positions are emitted in
    /// canonical order).
    pub fn is_costed(&self) -> bool {
        !self.estimates.is_empty()
    }

    /// Estimated total number of matches this plan produces (the last
    /// cumulative estimate), if compiled with cost estimates.
    pub fn estimated_matches(&self) -> Option<f64> {
        self.estimates.last().copied()
    }

    /// Describe this plan against `db`: the chosen join order, and per
    /// plan atom the probe columns, relation cardinality, and how many
    /// tuples the (optional) per-atom [`AtomRange`]s admit. Purely
    /// observational — compiles nothing, executes nothing.
    pub fn explain(&self, db: &Database, ranges: Option<&[AtomRange]>) -> PlanExplain {
        let atoms = self
            .atoms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let rows_total = db.relation(&a.relation).map(|r| r.len()).unwrap_or(0);
                let range = ranges.and_then(|rs| rs.get(i).copied()).unwrap_or(AtomRange::Full);
                let rows_admitted = {
                    let (start, end) = range.interval(rows_total);
                    end - start
                };
                let terms = a
                    .terms
                    .iter()
                    .map(|t| match t {
                        SlotTerm::Var(s) => format!("${s}"),
                        SlotTerm::Const(v) => v.to_string(),
                    })
                    .collect();
                AtomExplain {
                    relation: a.relation.clone(),
                    source_index: self.source[i],
                    terms,
                    probe_cols: a.probe_cols.clone(),
                    rows_total,
                    rows_admitted,
                    est_rows: self.estimates.get(i).map(|e| e.round() as u64),
                }
            })
            .collect();
        PlanExplain {
            join_order: self.atoms.iter().map(|a| a.relation.clone()).collect(),
            atoms,
            num_slots: self.num_slots,
            unsat: self.unsat,
        }
    }

    /// Execute over `db`, appending every match to `out`. `scratch`
    /// carries the seed (pre-bound slots as `Some`) and is restored to
    /// exactly that seed state on return. Every candidate tuple examined
    /// is metered as one governor step; on a budget trip the error
    /// propagates with `scratch` restored.
    ///
    /// With `threads > 1` the driver (first) atom's range is split into
    /// chunks fanned across up to `threads` workers, bit-identically to
    /// the sequential walk: every range variant admits one contiguous
    /// interval of the driver atom's insertion positions, chunks partition
    /// that interval in order, and within a chunk the walk enumerates
    /// exactly as the sequential walk would — so concatenating chunk
    /// outputs in chunk order *is* the sequential enumeration order, and
    /// the metered step count is identical too (range filtering happens
    /// before metering on both paths).
    ///
    /// A `limit` is honoured exactly: each chunk stops at `limit`
    /// locally, a shared counter of matches found in the *completed
    /// prefix* of chunks lets later chunks skip entirely once the prefix
    /// alone satisfies the limit (their matches could never displace
    /// prefix matches), and the merged output is truncated to the first
    /// `limit` matches — the same ones the sequential walk returns.
    ///
    /// Runs sequentially when `threads <= 1`, the driver interval is too
    /// small to be worth splitting, or the plan has no drivable atom.
    /// Returns the pool statistics (workers, steals, tasks) for telemetry.
    pub fn execute(
        &self,
        db: &Database,
        scratch: &mut [Option<Value>],
        opts: &ExecOptions<'_>,
        threads: usize,
        gov: &mut Governor,
        out: &mut Vec<PlanMatch>,
    ) -> Result<mm_parallel::PoolRun, ExecError> {
        let driver_span = (threads > 1 && !self.unsat && !self.atoms.is_empty())
            .then(|| {
                let range = opts.ranges.map_or(AtomRange::Full, |r| r[0]);
                let len =
                    db.relation(&self.atoms[0].relation).map(|r| r.len()).unwrap_or(0);
                range.interval(len)
            })
            .filter(|(start, end)| end - start >= threads * MIN_DRIVER_ROWS_PER_WORKER);
        let Some((start, end)) = driver_span else {
            self.walk(db, scratch, opts, gov, out)?;
            return Ok(mm_parallel::PoolRun { workers: 1, steals: 0, tasks: 1 });
        };

        // Pre-build every index snapshot on this thread so workers don't
        // race to construct the same index behind the relation's lock.
        let _prewarm = Handles::prepare(self, db, opts);

        let span = end - start;
        let chunks = (threads * CHUNKS_PER_WORKER).min(span);
        let base_ranges: Vec<AtomRange> = match opts.ranges {
            Some(rs) => rs.to_vec(),
            None => vec![AtomRange::Full; self.atoms.len()],
        };
        let (_meter, govs) = gov.fork_shared(chunks);
        let govs: Vec<std::sync::Mutex<Governor>> =
            govs.into_iter().map(std::sync::Mutex::new).collect();
        let prefix = PrefixCount::new(chunks);
        let seed: Vec<Option<Value>> = scratch.to_vec();

        let (merged, run) = mm_parallel::map_indexed::<Vec<PlanMatch>, ExecError, _>(
            threads,
            chunks,
            |c, _ctx| {
                if opts.limit.is_some_and(|l| prefix.confirmed() >= l) {
                    return Ok(Vec::new());
                }
                let lo = (start + c * span / chunks) as u32;
                let hi = (start + (c + 1) * span / chunks) as u32;
                let mut ranges = base_ranges.clone();
                ranges[0] = AtomRange::Between(lo, hi);
                let chunk_opts = ExecOptions { ranges: Some(&ranges), ..*opts };
                let mut local_scratch = seed.clone();
                let mut local_out = Vec::new();
                let mut wg = match govs[c].lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                self.walk(db, &mut local_scratch, &chunk_opts, &mut wg, &mut local_out)?;
                prefix.complete(c, local_out.len());
                Ok(local_out)
            },
        );
        for g in govs {
            let wg = match g.into_inner() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            gov.absorb(&wg.consumption())?;
        }
        let mut per_chunk = merged?;
        for chunk_out in &mut per_chunk {
            out.append(chunk_out);
        }
        if let Some(l) = opts.limit {
            out.truncate(l);
        }
        Ok(run)
    }

    /// The sequential backtracking walk behind [`CqPlan::execute`].
    fn walk(
        &self,
        db: &Database,
        scratch: &mut [Option<Value>],
        opts: &ExecOptions<'_>,
        gov: &mut Governor,
        out: &mut Vec<PlanMatch>,
    ) -> Result<(), ExecError> {
        if self.unsat {
            return Ok(());
        }
        debug_assert!(scratch.len() >= self.num_slots, "scratch shorter than plan slots");
        let handles = Handles::prepare(self, db, opts);
        let mut pos_acc = vec![0u32; self.atoms.len()];
        let mut walk = Walk { plan: self, handles: &handles, opts, out, key: Vec::new() };
        walk.step(0, scratch, &mut pos_acc, gov).map(|_| ())
    }
}

/// The greedy join order of the naive evaluator: most already-bound
/// variables first, ties broken by smallest relation, then source
/// position. This is the *canonical* order: the naive nested-loop scan
/// enumerates matches lexicographically in these atoms' tuple insertion
/// positions, and every plan — greedy or cost-based — expresses its
/// emitted [`PlanMatch::positions`] in it.
fn greedy_order(atoms: &[Atom], db: &Database) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    let mut source = Vec::with_capacity(atoms.len());
    let mut bound_names: HashSet<&str> = HashSet::new();
    while let Some((pick, _)) = remaining
        .iter()
        .enumerate()
        .map(|(i, &ai)| {
            let a = &atoms[ai];
            let bound_vars =
                a.variables().iter().filter(|v| bound_names.contains(**v)).count();
            let size = db.relation(&a.relation).map(|r| r.len()).unwrap_or(0);
            (i, (std::cmp::Reverse(bound_vars), size, ai))
        })
        .min_by_key(|(_, k)| *k)
    {
        let ai = remaining.remove(pick);
        for v in atoms[ai].variables() {
            bound_names.insert(v);
        }
        source.push(ai);
    }
    source
}

/// Build the per-atom plans for `atoms` taken in `order`, interning
/// variables into `table` and computing index-probe patterns from the
/// bound-slot frontier. Returns the plans and whether a function term
/// made the conjunction unsatisfiable.
fn build_atom_plans(
    atoms: &[Atom],
    order: &[usize],
    table: &mut VarTable,
    prebound: &[usize],
) -> (Vec<AtomPlan>, bool) {
    let mut unsat = false;
    let prebound: HashSet<usize> = prebound.iter().copied().collect();
    let mut bound_slots: HashSet<usize> = HashSet::new();
    let mut plans = Vec::with_capacity(order.len());
    for &ai in order {
        let atom = &atoms[ai];
        let mut terms = Vec::with_capacity(atom.terms.len());
        for t in &atom.terms {
            terms.push(match t {
                Term::Var(v) => SlotTerm::Var(table.intern(v)),
                Term::Const(l) => SlotTerm::Const(lit_to_value(l)),
                Term::Func(..) => {
                    unsat = true;
                    SlotTerm::Const(Value::Null)
                }
            });
        }
        let probe_cols: Vec<usize> = terms
            .iter()
            .enumerate()
            .filter(|(_, t)| match t {
                SlotTerm::Const(_) => true,
                SlotTerm::Var(s) => bound_slots.contains(s) || prebound.contains(s),
            })
            .map(|(c, _)| c)
            .collect();
        for t in &terms {
            if let SlotTerm::Var(s) = t {
                bound_slots.insert(*s);
            }
        }
        plans.push(AtomPlan { relation: atom.relation.clone(), terms, probe_cols });
    }
    (plans, unsat)
}

/// Exhaustive DP plan search is bounded to this many atoms (2^n subset
/// states); larger conjunctions fall back to greedy cheapest-next-atom.
pub const DP_MAX_ATOMS: usize = 10;

/// Per-step cost estimate for appending `atom` to a join prefix with
/// `bound` variable names: `(out_mult, work)` where `out_mult` is the
/// estimated matches produced per input binding and `work` the estimated
/// tuples examined per input binding (bucket size under an index probe,
/// full cardinality under a scan).
fn estimate_step(atom: &Atom, db: &Database, bound: &HashSet<&str>) -> (f64, f64) {
    let Some(rel) = db.relation(&atom.relation) else {
        return (0.0, 0.0);
    };
    let stats = rel.stats();
    let rows = f64::from(stats.rows());
    let mut sel = 1.0f64;
    let mut probe = false;
    let mut local: HashSet<&str> = HashSet::new();
    for (c, t) in atom.terms.iter().enumerate() {
        match t {
            Term::Const(l) => {
                sel *= stats.eq_selectivity(c, &lit_to_value(l));
                probe = true;
            }
            Term::Var(v) => {
                if bound.contains(v.as_str()) || local.contains(v.as_str()) {
                    sel *= stats.join_selectivity(c);
                    probe = true;
                } else {
                    local.insert(v);
                }
            }
            Term::Func(..) => return (0.0, 0.0),
        }
    }
    let out = rows * sel;
    let work = if probe { out.max(1.0) } else { rows.max(1.0) };
    (out, work)
}

/// Pick a cost-minimizing join order for `atoms` and return it together
/// with the cumulative cardinality estimate after each chosen atom.
/// Exhaustive subset DP up to [`DP_MAX_ATOMS`] atoms, greedy
/// cheapest-next-atom beyond; both are deterministic (ties keep the
/// earliest candidate).
fn cost_order(
    atoms: &[Atom],
    db: &Database,
    prebound: &HashSet<&str>,
) -> (Vec<usize>, Vec<f64>) {
    let n = atoms.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let order = if n <= DP_MAX_ATOMS { dp_order(atoms, db, prebound) } else {
        greedy_cost_order(atoms, db, prebound)
    };
    // replay the chosen order to record cumulative cardinality estimates
    let mut bound: HashSet<&str> = prebound.clone();
    let mut card = 1.0f64;
    let mut estimates = Vec::with_capacity(n);
    for &ai in &order {
        let (out, _) = estimate_step(&atoms[ai], db, &bound);
        card *= out;
        estimates.push(card);
        for v in atoms[ai].variables() {
            bound.insert(v);
        }
    }
    (order, estimates)
}

fn dp_order(atoms: &[Atom], db: &Database, prebound: &HashSet<&str>) -> Vec<usize> {
    let n = atoms.len();
    let full = (1usize << n) - 1;
    // per-subset: best (cost, cardinality, last atom, previous subset)
    let mut best: Vec<Option<(f64, f64, usize, usize)>> = vec![None; full + 1];
    best[0] = Some((0.0, 1.0, usize::MAX, 0));
    for mask in 0..=full {
        let Some((cost, card, ..)) = best[mask] else { continue };
        let mut bound: HashSet<&str> = prebound.clone();
        for (ai, atom) in atoms.iter().enumerate() {
            if mask & (1 << ai) != 0 {
                for v in atom.variables() {
                    bound.insert(v);
                }
            }
        }
        for (ai, atom) in atoms.iter().enumerate() {
            if mask & (1 << ai) != 0 {
                continue;
            }
            let (out, work) = estimate_step(atom, db, &bound);
            let next = mask | (1 << ai);
            let next_cost = cost + card.max(1.0) * work;
            let next_card = card * out;
            if best[next].is_none_or(|(c, ..)| next_cost < c) {
                best[next] = Some((next_cost, next_card, ai, mask));
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let Some((_, _, last, prev)) = best[mask] else { break };
        order.push(last);
        mask = prev;
    }
    order.reverse();
    if order.len() != n {
        // unreachable in practice; fall back to source order defensively
        return (0..n).collect();
    }
    order
}

fn greedy_cost_order(atoms: &[Atom], db: &Database, prebound: &HashSet<&str>) -> Vec<usize> {
    let n = atoms.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let mut bound: HashSet<&str> = prebound.clone();
    let mut card = 1.0f64;
    while !remaining.is_empty() {
        let mut pick = 0;
        let mut pick_cost = f64::INFINITY;
        let mut pick_out = 0.0;
        for (i, &ai) in remaining.iter().enumerate() {
            let (out, work) = estimate_step(&atoms[ai], db, &bound);
            let cost = card.max(1.0) * work;
            if cost < pick_cost {
                pick = i;
                pick_cost = cost;
                pick_out = out;
            }
        }
        let ai = remaining.remove(pick);
        card *= pick_out;
        for v in atoms[ai].variables() {
            bound.insert(v);
        }
        order.push(ai);
    }
    order
}

/// Driver intervals smaller than this per requested worker run
/// sequentially — the spawn/merge overhead would dominate.
const MIN_DRIVER_ROWS_PER_WORKER: usize = 8;
/// Chunks per worker: oversubscription so work stealing can smooth out
/// skewed chunks (one hot driver tuple fanning into a huge sub-join).
const CHUNKS_PER_WORKER: usize = 4;

/// Shared limit early-exit state: counts matches found in the completed
/// *prefix* of chunks. Once the prefix alone reaches the limit, chunks
/// after it can only produce matches that sort later than the limit-th
/// match, so workers skip them wholesale.
struct PrefixCount {
    inner: std::sync::Mutex<PrefixInner>,
    confirmed: std::sync::atomic::AtomicUsize,
}

struct PrefixInner {
    counts: Vec<Option<usize>>,
    next: usize,
    total: usize,
}

impl PrefixCount {
    fn new(chunks: usize) -> Self {
        PrefixCount {
            inner: std::sync::Mutex::new(PrefixInner {
                counts: vec![None; chunks],
                next: 0,
                total: 0,
            }),
            confirmed: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    fn confirmed(&self) -> usize {
        self.confirmed.load(std::sync::atomic::Ordering::Acquire)
    }

    fn complete(&self, chunk: usize, matches: usize) {
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.counts[chunk] = Some(matches);
        while inner.next < inner.counts.len() {
            let Some(n) = inner.counts[inner.next] else { break };
            inner.total += n;
            inner.next += 1;
        }
        self.confirmed.store(inner.total, std::sync::atomic::Ordering::Release);
    }
}

/// Per-execution prefetched relation handles and index snapshots (one
/// `index()` cache lookup per atom instead of one per candidate binding).
struct Handles<'a> {
    rels: Vec<Option<&'a Relation>>,
    indexes: Vec<Option<Arc<RelIndex>>>,
}

impl<'a> Handles<'a> {
    fn prepare(plan: &CqPlan, db: &'a Database, opts: &ExecOptions<'_>) -> Self {
        let rels: Vec<Option<&Relation>> =
            plan.atoms.iter().map(|a| db.relation(&a.relation)).collect();
        let indexes = plan
            .atoms
            .iter()
            .zip(&rels)
            .map(|(a, rel)| match rel {
                Some(rel) if opts.use_indexes && !a.probe_cols.is_empty() => {
                    Some(rel.index(&a.probe_cols))
                }
                _ => None,
            })
            .collect();
        Handles { rels, indexes }
    }
}

struct Walk<'p, 'c, 'o, 'r> {
    plan: &'p CqPlan,
    handles: &'c Handles<'c>,
    opts: &'o ExecOptions<'r>,
    out: &'o mut Vec<PlanMatch>,
    /// Reusable probe-key buffer: each depth clears and refills it right
    /// before its index probe (probes return positions borrowed from the
    /// index snapshot, so deeper recursion is free to reuse the buffer) —
    /// zero key allocations per candidate binding.
    key: Vec<Value>,
}

impl Walk<'_, '_, '_, '_> {
    /// Returns `Ok(true)` when the match limit was hit (stop unwinding).
    fn step(
        &mut self,
        depth: usize,
        scratch: &mut [Option<Value>],
        pos_acc: &mut Vec<u32>,
        gov: &mut Governor,
    ) -> Result<bool, ExecError> {
        if depth == self.plan.atoms.len() {
            let positions = match &self.plan.canon {
                Some(perm) => perm.iter().map(|&p| pos_acc[p]).collect(),
                None => pos_acc.clone(),
            };
            self.out.push(PlanMatch { binding: scratch.to_vec(), positions });
            return Ok(self.opts.limit.is_some_and(|l| self.out.len() >= l));
        }
        let ap = &self.plan.atoms[depth];
        let Some(rel) = self.handles.rels[depth] else {
            return Ok(false);
        };
        let range = self.opts.ranges.map_or(AtomRange::Full, |r| r[depth]);
        let idx = self.handles.indexes[depth].as_ref();
        let mut have_key = idx.is_some();
        if have_key {
            self.key.clear();
            for &c in &ap.probe_cols {
                match &ap.terms[c] {
                    SlotTerm::Const(v) => self.key.push(v.clone()),
                    SlotTerm::Var(s) => match &scratch[*s] {
                        Some(v) => self.key.push(v.clone()),
                        None => {
                            have_key = false;
                            break;
                        }
                    },
                }
            }
        }
        let mut trail: Vec<usize> = Vec::new();
        if let (true, Some(idx)) = (have_key, idx) {
            // positions-only probe against cached key hashes; tuples are
            // resolved through the backing relation's insertion-order slice
            let tuples = rel.tuples();
            for &pos in idx.probe(&self.key) {
                if !range.admits(pos) {
                    continue;
                }
                gov.step()?;
                let Some(tuple) = tuples.get(pos as usize) else {
                    continue;
                };
                let stop =
                    self.admit(ap, tuple, pos, depth, scratch, pos_acc, &mut trail, gov)?;
                if stop {
                    return Ok(true);
                }
            }
        } else {
            let tuples = rel.tuples();
            let (start, end) = range.interval(tuples.len());
            for (i, tuple) in tuples[start..end].iter().enumerate() {
                gov.step()?;
                let pos = (start + i) as u32;
                let stop =
                    self.admit(ap, tuple, pos, depth, scratch, pos_acc, &mut trail, gov)?;
                if stop {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Try to match `tuple` at `depth` and recurse; always unwinds the
    /// bindings this tuple introduced.
    #[allow(clippy::too_many_arguments)] // internal hot path, grouping would just re-spell the struct
    fn admit(
        &mut self,
        ap: &AtomPlan,
        tuple: &Tuple,
        pos: u32,
        depth: usize,
        scratch: &mut [Option<Value>],
        pos_acc: &mut Vec<u32>,
        trail: &mut Vec<usize>,
        gov: &mut Governor,
    ) -> Result<bool, ExecError> {
        let matched = try_match(ap, tuple, scratch, trail);
        let mut stop = false;
        if matched {
            pos_acc[depth] = pos;
            match self.step(depth + 1, scratch, pos_acc, gov) {
                Ok(s) => stop = s,
                Err(e) => {
                    for s in trail.drain(..) {
                        scratch[s] = None;
                    }
                    return Err(e);
                }
            }
        }
        for s in trail.drain(..) {
            scratch[s] = None;
        }
        Ok(stop)
    }
}

/// One plan atom, described: what [`CqPlan::explain`] reports per join
/// position.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomExplain {
    pub relation: String,
    /// Index of the originating atom in the caller's source list.
    pub source_index: usize,
    /// Terms in column order: `$n` for slot `n`, constants displayed.
    pub terms: Vec<String>,
    /// Columns bound (by constants or earlier atoms) when execution
    /// reaches this atom — the index-probe key.
    pub probe_cols: Vec<usize>,
    /// Relation cardinality in the database explained against.
    pub rows_total: usize,
    /// Tuples the per-atom [`AtomRange`] admits (equals `rows_total`
    /// without a range restriction).
    pub rows_admitted: usize,
    /// Planner estimate of the cumulative match cardinality after this
    /// atom — present only for cost-based plans. Comparing it against
    /// the observed cardinality is what drives adaptive re-optimization.
    pub est_rows: Option<u64>,
}


/// Structured description of a compiled plan: [`CqPlan::explain`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplain {
    /// Relation names in chosen join order.
    pub join_order: Vec<String>,
    pub atoms: Vec<AtomExplain>,
    pub num_slots: usize,
    /// The conjunction contained a function term and matches nothing.
    pub unsat: bool,
}

impl PlanExplain {
    /// Render as a telemetry explain tree (stable field order).
    pub fn to_node(&self) -> mm_telemetry::ExplainNode {
        let mut node = mm_telemetry::ExplainNode::new("plan")
            .field("join_order", self.join_order.join(","))
            .field("num_slots", self.num_slots.to_string());
        if self.unsat {
            node.push_field("unsat", "true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            let mut child =
                mm_telemetry::ExplainNode::new(format!("atom#{i}"))
                    .field("relation", a.relation.clone())
                    .field("source", a.source_index.to_string())
                    .field("terms", a.terms.join(","))
                    .field(
                        "probe_cols",
                        a.probe_cols
                            .iter()
                            .map(|c| c.to_string())
                            .collect::<Vec<_>>()
                            .join(","),
                    )
                    .field("rows", a.rows_total.to_string())
                    .field("admitted", a.rows_admitted.to_string());
            // appended only when present so plans without estimates
            // render byte-identically to the pre-planner text
            if let Some(est) = a.est_rows {
                child.push_field("est_rows", est.to_string());
            }
            node.push_child(child);
        }
        node
    }
}

/// Extend `scratch` so `ap` maps onto `tuple`; newly bound slots are
/// recorded on `trail` for the caller to unwind. Returns `false` on any
/// conflict (partial binds stay on the trail).
fn try_match(
    ap: &AtomPlan,
    tuple: &Tuple,
    scratch: &mut [Option<Value>],
    trail: &mut Vec<usize>,
) -> bool {
    let vals = tuple.values();
    if vals.len() != ap.terms.len() {
        return false;
    }
    for (c, term) in ap.terms.iter().enumerate() {
        match term {
            SlotTerm::Const(v) => {
                if v != &vals[c] {
                    return false;
                }
            }
            SlotTerm::Var(s) => match &scratch[*s] {
                Some(b) => {
                    if b != &vals[c] {
                        return false;
                    }
                }
                None => {
                    scratch[*s] = Some(vals[c].clone());
                    trail.push(*s);
                }
            },
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_guard::ExecBudget;
    use mm_instance::RelSchema;
    use mm_metamodel::DataType;

    impl CqPlan {
        /// Plan position → source-atom index.
        pub(crate) fn source_order(&self) -> &[usize] {
            &self.source
        }
    }

    fn db() -> Database {
        let mut db = Database::new("D");
        let mut r = mm_instance::Relation::new(RelSchema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
        ]));
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            r.insert(Tuple::from([Value::Int(a), Value::Int(b)]));
        }
        db.insert_relation("E", r);
        db
    }

    fn run(plan: &CqPlan, table: &VarTable, db: &Database, opts: &ExecOptions<'_>) -> Vec<PlanMatch> {
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let mut scratch = vec![None; table.len()];
        let mut out = Vec::new();
        plan.execute(db, &mut scratch, opts, 1, &mut gov, &mut out).unwrap();
        assert!(scratch.iter().all(Option::is_none), "scratch not restored");
        out
    }

    #[test]
    fn indexed_and_scan_paths_agree_including_order() {
        let db = db();
        let atoms = [Atom::vars("E", &["x", "y"]), Atom::vars("E", &["y", "z"])];
        let mut table = VarTable::new();
        let plan = CqPlan::compile(&atoms, &mut table, &db, &[]);
        let indexed = run(&plan, &table, &db, &ExecOptions::default());
        let scanned =
            run(&plan, &table, &db, &ExecOptions { use_indexes: false, ..Default::default() });
        assert_eq!(indexed.len(), 2);
        assert_eq!(indexed.len(), scanned.len());
        for (a, b) in indexed.iter().zip(&scanned) {
            assert_eq!(a.binding, b.binding);
            assert_eq!(a.positions, b.positions);
        }
    }

    #[test]
    fn ranges_restrict_to_delta_tuples() {
        let db = db();
        let atoms = [Atom::vars("E", &["x", "y"])];
        let mut table = VarTable::new();
        let plan = CqPlan::compile(&atoms, &mut table, &db, &[]);
        let delta = run(
            &plan,
            &table,
            &db,
            &ExecOptions { ranges: Some(&[AtomRange::AtOrAbove(2)]), ..Default::default() },
        );
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].positions, [2]);
        let old = run(
            &plan,
            &table,
            &db,
            &ExecOptions { ranges: Some(&[AtomRange::Below(2)]), ..Default::default() },
        );
        assert_eq!(old.len(), 2);
    }

    #[test]
    fn limit_short_circuits() {
        let db = db();
        let atoms = [Atom::vars("E", &["x", "y"])];
        let mut table = VarTable::new();
        let plan = CqPlan::compile(&atoms, &mut table, &db, &[]);
        let one = run(&plan, &table, &db, &ExecOptions { limit: Some(1), ..Default::default() });
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].positions, [0]);
    }

    #[test]
    fn prebound_slot_enables_probe_and_seeded_run() {
        let db = db();
        let atoms = [Atom::vars("E", &["x", "y"])];
        let mut table = VarTable::new();
        let x = table.intern("x");
        let plan = CqPlan::compile(&atoms, &mut table, &db, &[x]);
        let mut gov = Governor::new(&ExecBudget::unbounded());
        let mut scratch = vec![None; table.len()];
        scratch[x] = Some(Value::Int(2));
        let mut out = Vec::new();
        plan.execute(&db, &mut scratch, &ExecOptions::default(), 1, &mut gov, &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].binding[table.slot("y").unwrap()], Some(Value::Int(3)));
        // only the probed bucket was metered, not the whole relation
        assert_eq!(gov.steps_consumed(), 1);
        assert_eq!(scratch[x], Some(Value::Int(2)), "seed preserved");
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new("D");
        let mut r = mm_instance::Relation::new(RelSchema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
        ]));
        for i in 0..n {
            r.insert(Tuple::from([Value::Int(i), Value::Int(i + 1)]));
        }
        db.insert_relation("E", r);
        db
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_sequential() {
        let db = chain_db(256);
        let atoms = [Atom::vars("E", &["x", "y"]), Atom::vars("E", &["y", "z"])];
        let mut table = VarTable::new();
        let plan = CqPlan::compile(&atoms, &mut table, &db, &[]);
        for limit in [None, Some(1), Some(7), Some(10_000)] {
            let opts = ExecOptions { limit, ..Default::default() };
            let seq = run(&plan, &table, &db, &opts);
            for threads in [2, 4, 8] {
                let mut gov = Governor::new(&ExecBudget::unbounded());
                let mut scratch = vec![None; table.len()];
                let mut par = Vec::new();
                plan.execute(&db, &mut scratch, &opts, threads, &mut gov, &mut par)
                    .unwrap();
                assert_eq!(par.len(), seq.len(), "threads={threads} limit={limit:?}");
                for (a, b) in par.iter().zip(&seq) {
                    assert_eq!(a.binding, b.binding);
                    assert_eq!(a.positions, b.positions);
                }
            }
        }
    }

    #[test]
    fn parallel_step_totals_match_sequential_without_limit() {
        let db = chain_db(256);
        let atoms = [Atom::vars("E", &["x", "y"]), Atom::vars("E", &["y", "z"])];
        let mut table = VarTable::new();
        let plan = CqPlan::compile(&atoms, &mut table, &db, &[]);
        let opts = ExecOptions::default();
        let mut seq_gov = Governor::new(&ExecBudget::unbounded());
        let mut scratch = vec![None; table.len()];
        let mut seq = Vec::new();
        plan.execute(&db, &mut scratch, &opts, 1, &mut seq_gov, &mut seq).unwrap();
        let mut par_gov = Governor::new(&ExecBudget::unbounded());
        let mut par = Vec::new();
        plan.execute(&db, &mut scratch, &opts, 4, &mut par_gov, &mut par).unwrap();
        assert_eq!(par_gov.steps_consumed(), seq_gov.steps_consumed());
    }

    #[test]
    fn costed_plan_reorders_yet_matches_canonical_enumeration() {
        // Hub(h, x): h is a fat hub (one value covers most rows); Pick(h)
        // with a selective constant. Greedy (size-ordered) starts at Pick
        // only by luck of size — make Pick the *largest* so greedy starts
        // at Hub, while the cost model starts at the selective constant.
        let mut db = Database::new("D");
        let mut hub = mm_instance::Relation::new(RelSchema::of(&[
            ("h", DataType::Int),
            ("x", DataType::Int),
        ]));
        for i in 0..40 {
            hub.insert(Tuple::from([Value::Int(i % 2), Value::Int(i)]));
        }
        let mut pick = mm_instance::Relation::new(RelSchema::of(&[
            ("h", DataType::Int),
            ("k", DataType::Int),
        ]));
        for i in 0..50 {
            pick.insert(Tuple::from([Value::Int(i + 10), Value::Int(i)]));
        }
        pick.insert(Tuple::from([Value::Int(0), Value::Int(7)]));
        db.insert_relation("Hub", hub);
        db.insert_relation("Pick", pick);
        let atoms = [
            Atom::vars("Hub", &["h", "x"]),
            Atom::new("Pick", vec![Term::var("h"), Term::Const(Lit::Int(7))]),
        ];
        let mut gt = VarTable::new();
        let greedy = CqPlan::compile(&atoms, &mut gt, &db, &[]);
        let mut ct = VarTable::new();
        let costed = CqPlan::compile_costed(&atoms, &mut ct, &db, &[]);
        assert!(costed.is_costed());
        assert_eq!(greedy.source_order(), &[0, 1], "greedy starts at the smaller Hub");
        assert_eq!(costed.source_order(), &[1, 0], "cost model starts at the selective Pick");
        let base = run(&greedy, &gt, &db, &ExecOptions::default());
        let mut fast = run(&costed, &ct, &db, &ExecOptions::default());
        fast.sort_by(|a, b| a.positions.cmp(&b.positions));
        assert_eq!(base.len(), fast.len());
        // same var names intern to the same slots in both tables (atom
        // scan order differs but h/x cover both), so bindings compare
        for (a, b) in base.iter().zip(&fast) {
            assert_eq!(a.positions, b.positions);
            for v in ["h", "x"] {
                assert_eq!(a.binding[gt.slot(v).unwrap()], b.binding[ct.slot(v).unwrap()]);
            }
        }
    }

    #[test]
    fn function_terms_make_the_plan_unsatisfiable() {
        let db = db();
        let atoms = [Atom::new(
            "E",
            vec![Term::Func("f".into(), vec![]), Term::var("y")],
        )];
        let mut table = VarTable::new();
        let plan = CqPlan::compile(&atoms, &mut table, &db, &[]);
        assert!(run(&plan, &table, &db, &ExecOptions::default()).is_empty());
    }
}
