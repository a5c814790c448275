//! Fault injection: adversarial inputs for the governance test suite.
//!
//! Generators for the ways a model-management operator can run away or
//! be fed garbage: divergent tgd sets whose chase never closes,
//! mapping chains whose composition is exponential, malformed SO-tgds
//! and oversized instances, and pre-armed cancellation tokens for
//! mid-operation aborts. `tests/governance.rs` drives every engine
//! operator with these and asserts a typed error or a recorded
//! degradation — never a panic, never an unbounded run.

use crate::tgds::{binary_schema, composition_chain};
use mm_expr::{Atom, SoClause, SoTgd, Term, Tgd};
use mm_guard::CancelToken;
use mm_instance::{Database, Tuple, Value};
use mm_metamodel::Schema;

/// A divergent general-chase input: `R0(x, y) → ∃z . R0(y, z)` over a
/// nonempty `R0`. Every round fires with a fresh labeled null in second
/// position, so the fixpoint never closes and only a round cap (or
/// budget) stops the chase.
pub fn divergent_tgds() -> (Schema, Database, Vec<Tgd>) {
    let schema = binary_schema("Loop", "R", 1);
    let mut db = Database::empty_of(&schema);
    db.insert("R0", Tuple::from([Value::Int(0), Value::Int(1)]));
    let tgds = vec![Tgd::new(
        vec![Atom::vars("R0", &["x", "y"])],
        vec![Atom::vars("R0", &["y", "z"])],
    )];
    (schema, db, tgds)
}

/// A weakly acyclic (terminating) general-chase input: a copy chain
/// `R0 → R1 → … → R{n-1}` with one seed tuple. The chase closes after
/// `n` rounds, firing once per hop.
pub fn terminating_chain(n: usize) -> (Schema, Database, Vec<Tgd>) {
    let schema = binary_schema("Chain", "R", n);
    let mut db = Database::empty_of(&schema);
    db.insert("R0", Tuple::from([Value::Int(0), Value::Int(1)]));
    let tgds = (0..n.saturating_sub(1))
        .map(|i| {
            Tgd::new(
                vec![Atom::vars(format!("R{i}"), &["x", "y"])],
                vec![Atom::vars(format!("R{}", i + 1), &["x", "y"])],
            )
        })
        .collect();
    (schema, db, tgds)
}

/// A composition input engineered to splice `producers ^ body_atoms`
/// clauses — exponential in the second mapping's body width. A clause
/// cap below that count trips `BudgetExhausted { Clauses }`.
pub fn exponential_compose(
    producers: usize,
    body_atoms: usize,
) -> (Schema, Schema, Schema, Vec<Tgd>, Vec<Tgd>) {
    composition_chain(producers, body_atoms)
}

/// A malformed SO-tgd: the head of its single clause references a
/// variable the body never binds. Applying it must surface
/// `ExecError::Malformed`, not a panic.
pub fn unbound_variable_sotgd() -> (Schema, Schema, SoTgd) {
    let src = binary_schema("Src", "A", 1);
    let tgt = binary_schema("Tgt", "B", 1);
    let so = SoTgd {
        functions: Vec::new(),
        clauses: vec![SoClause {
            body: vec![Atom::vars("A0", &["x", "y"])],
            eqs: Vec::new(),
            head: vec![Atom {
                relation: "B0".into(),
                terms: vec![Term::var("x"), Term::var("never_bound")],
            }],
        }],
    };
    (src, tgt, so)
}

/// An oversized instance: `rows` tuples in the single relation `R0` of a
/// binary schema. Use with a row budget well below `rows` to verify that
/// materializing operators stop early instead of buffering everything.
pub fn oversized_instance(rows: usize) -> (Schema, Database) {
    let schema = binary_schema("Big", "R", 1);
    let mut db = Database::empty_of(&schema);
    for i in 0..rows {
        db.insert("R0", Tuple::from([Value::Int(i as i64), Value::Int((i + 1) as i64)]));
    }
    (schema, db)
}

/// A self-join workload whose homomorphism search is quadratic in `rows`:
/// `R0(x, y) & R0(y, z) → ∃w . T0(x, w)` over a dense `R0`. Good for
/// tripping step budgets inside the join loops rather than at the rim.
pub fn quadratic_join(rows: usize) -> (Schema, Schema, Database, Vec<Tgd>) {
    let src = binary_schema("QSrc", "R", 1);
    let tgt = binary_schema("QTgt", "T", 1);
    let mut db = Database::empty_of(&src);
    for i in 0..rows {
        // a clique-ish graph: everything points at everything mod a band
        for j in 0..3usize {
            db.insert(
                "R0",
                Tuple::from([Value::Int(i as i64), Value::Int(((i + j) % rows) as i64)]),
            );
        }
    }
    let tgds = vec![Tgd::new(
        vec![Atom::vars("R0", &["x", "y"]), Atom::vars("R0", &["y", "z"])],
        vec![Atom::vars("T0", &["x", "w"])],
    )];
    (src, tgt, db, tgds)
}

/// A cancellation token pre-armed to trip after `polls` governor
/// safepoints — deterministic mid-operation cancellation without
/// threads or timing.
pub fn cancel_after(polls: u64) -> CancelToken {
    let token = CancelToken::new();
    token.trip_after_polls(polls);
    token
}

// --- byte-level corruption (storage fault injection) ---------------------

/// Flip one bit: bit `bit % 8` of byte `offset % len`. No-op on empty
/// input.
pub fn bit_flip(bytes: &[u8], offset: usize, bit: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if !out.is_empty() {
        let i = offset % out.len();
        out[i] ^= 1u8 << (bit % 8);
    }
    out
}

/// Truncate to the first `len` bytes — a torn write / partial flush.
pub fn truncate_at(bytes: &[u8], len: usize) -> Vec<u8> {
    bytes[..len.min(bytes.len())].to_vec()
}

/// Splice `insert` into the buffer at `offset % (len + 1)` — simulates a
/// misdirected write or cross-file contamination.
pub fn splice(bytes: &[u8], offset: usize, insert: &[u8]) -> Vec<u8> {
    let at = offset % (bytes.len() + 1);
    let mut out = Vec::with_capacity(bytes.len() + insert.len());
    out.extend_from_slice(&bytes[..at]);
    out.extend_from_slice(insert);
    out.extend_from_slice(&bytes[at..]);
    out
}

/// Seeded compound mutator: applies 1–4 random bit-flip / truncate /
/// splice / byte-overwrite passes. Deterministic per seed, so a failing
/// corruption reproduces from its seed alone. Decoders must survive any
/// output of this with a typed error — never a panic, never an
/// oversized allocation.
pub fn mutate_bytes(bytes: &[u8], seed: u64) -> Vec<u8> {
    use rand::prelude::*;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = bytes.to_vec();
    let passes = rng.gen_range(1usize..5);
    for _ in 0..passes {
        if out.is_empty() {
            out = vec![rng.gen_range(0u64..256) as u8];
            continue;
        }
        match rng.gen_range(0u32..4) {
            0 => out = bit_flip(&out, rng.gen_range(0usize..out.len()), rng.gen_range(0u32..8)),
            1 => out = truncate_at(&out, rng.gen_range(0usize..out.len() + 1)),
            2 => {
                let garbage: Vec<u8> = (0..rng.gen_range(1usize..9))
                    .map(|_| rng.gen_range(0u64..256) as u8)
                    .collect();
                out = splice(&out, rng.gen_range(0usize..out.len() + 1), &garbage);
            }
            _ => {
                // overwrite a byte with an adversarial length-prefix-ish
                // value (0xFF bytes maximize u32 length fields)
                let i = rng.gen_range(0usize..out.len());
                out[i] = if rng.gen_bool(0.5) { 0xFF } else { 0x00 };
            }
        }
    }
    out
}

// --- client faults (wire-server robustness suite) ------------------------

/// A seeded stream of garbage bytes — what a confused peer (or a port
/// scanner) writes to a wire server. Deterministic per seed. Servers
/// must answer with a typed protocol error or close the connection;
/// never panic, hang, or leak the session slot.
pub fn garbage_bytes(seed: u64, len: usize) -> Vec<u8> {
    use rand::prelude::*;
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect()
}

/// A slow-writer schedule: split `len` bytes into `chunks` contiguous
/// `(offset, end)` spans covering the whole buffer in order. A client
/// fault driver writes one span at a time with a pause in between,
/// exercising the server's per-IO timeouts on half-delivered frames.
pub fn chunk_plan(len: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.clamp(1, len.max(1));
    let base = len / chunks;
    let mut spans = Vec::with_capacity(chunks);
    let mut off = 0;
    for i in 0..chunks {
        let end = if i + 1 == chunks { len } else { off + base };
        spans.push((off, end));
        off = end;
    }
    spans
}

// --- repository workloads (crash-recovery property suite) ----------------

/// One repository mutation in a generated workload. Artifacts are
/// addressed by *index into the ops issued so far* rather than by
/// `ArtifactId`, so the generator stays independent of the repository
/// crate; the crash suite materializes ids as it applies ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepoOp {
    /// Store a fresh version of schema `S{n}` (n in a small namespace,
    /// so versions accumulate).
    StoreSchema { n: usize },
    /// Store a fresh version of a tgd mapping `m{n}`.
    StoreMapping { n: usize },
    /// Record a lineage edge from the artifacts produced by earlier ops
    /// at `input_ops` (indices into the op list) to the one at
    /// `output_op`. The generator only emits indices of store ops that
    /// precede this op.
    RecordLineage { input_ops: Vec<usize>, output_op: usize },
    /// Bulk-load (create or replace) tracked instance `I{n}` with
    /// `rows` tuples — journaled as one amortized `InstancePut` frame.
    PutInstance { n: usize, rows: usize },
    /// Apply an insert-only delta of `rows` tuples to instance `I{n}`.
    /// Only generated after a `PutInstance` for `n`.
    InsertRows { n: usize, rows: usize },
    /// Register change-feed subscription `id` over instance `I{n}`.
    /// Only generated after a `PutInstance` for `n`.
    RegisterSubscription { id: u64, n: usize },
    /// Durably advance subscription `id`'s resume cursor. Only
    /// generated while `id` is registered.
    AdvanceCursor { id: u64, cursor: u64 },
    /// Drop subscription `id` from the registry. Only generated while
    /// `id` is registered.
    DropSubscription { id: u64 },
}

/// A seeded workload of `len` repository ops over a namespace of
/// `names` distinct artifact names. Every op is valid at the point it
/// is issued: lineage edges reference earlier store ops, instance
/// deltas and subscriptions reference instances already loaded, and
/// cursor/drop ops reference live subscription ids — so applying a
/// *prefix* of the workload never fails and never dangles, the
/// invariant the crash-recovery suite asserts survives recovery.
pub fn repo_ops(seed: u64, len: usize, names: usize) -> Vec<RepoOp> {
    use rand::prelude::*;
    let mut rng = SmallRng::seed_from_u64(seed);
    let names = names.max(1);
    let mut ops: Vec<RepoOp> = Vec::with_capacity(len);
    let mut store_ops: Vec<usize> = Vec::new();
    let mut instances: Vec<usize> = Vec::new();
    let mut live_subs: Vec<u64> = Vec::new();
    let mut next_sub: u64 = 1;
    for i in 0..len {
        let roll = rng.gen_range(0u32..100);
        let op = if roll < 20 && store_ops.len() >= 2 {
            let output_op = store_ops[rng.gen_range(0usize..store_ops.len())];
            let k = rng.gen_range(1usize..3.min(store_ops.len()) + 1);
            let mut input_ops = Vec::with_capacity(k);
            for _ in 0..k {
                let cand = store_ops[rng.gen_range(0usize..store_ops.len())];
                if cand != output_op && !input_ops.contains(&cand) {
                    input_ops.push(cand);
                }
            }
            if input_ops.is_empty() {
                RepoOp::StoreSchema { n: rng.gen_range(0usize..names) }
            } else {
                RepoOp::RecordLineage { input_ops, output_op }
            }
        } else if roll < 35 {
            RepoOp::StoreSchema { n: rng.gen_range(0usize..names) }
        } else if roll < 50 {
            RepoOp::StoreMapping { n: rng.gen_range(0usize..names) }
        } else if roll < 65 || instances.is_empty() {
            RepoOp::PutInstance {
                n: rng.gen_range(0usize..names),
                rows: rng.gen_range(1usize..4),
            }
        } else if roll < 80 {
            RepoOp::InsertRows {
                n: instances[rng.gen_range(0usize..instances.len())],
                rows: rng.gen_range(1usize..4),
            }
        } else if roll < 88 {
            let id = next_sub;
            next_sub += 1;
            RepoOp::RegisterSubscription {
                id,
                n: instances[rng.gen_range(0usize..instances.len())],
            }
        } else if roll < 95 && !live_subs.is_empty() {
            RepoOp::AdvanceCursor {
                id: live_subs[rng.gen_range(0usize..live_subs.len())],
                cursor: rng.gen_range(0u64..64),
            }
        } else if !live_subs.is_empty() {
            RepoOp::DropSubscription {
                id: live_subs[rng.gen_range(0usize..live_subs.len())],
            }
        } else {
            RepoOp::InsertRows {
                n: instances[rng.gen_range(0usize..instances.len())],
                rows: rng.gen_range(1usize..4),
            }
        };
        match &op {
            RepoOp::StoreSchema { .. } | RepoOp::StoreMapping { .. } => store_ops.push(i),
            RepoOp::PutInstance { n, .. } if !instances.contains(n) => instances.push(*n),
            RepoOp::RegisterSubscription { id, .. } => live_subs.push(*id),
            RepoOp::DropSubscription { id } => live_subs.retain(|s| s != id),
            _ => {}
        }
        ops.push(op);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_chase::{ChaseFailure, ChaseOutcome, ChaseProgram};
    use mm_guard::{ExecBudget, ExecCtx, Governor};

    fn chase(db: &mut Database, tgds: &[Tgd], rounds: u64) -> Result<ChaseOutcome, ChaseFailure> {
        let mut gov = Governor::new(&ExecBudget::unbounded().with_rounds(rounds));
        let program = ChaseProgram::compile(tgds, db);
        program.run_general(db, &[], &mut ExecCtx::new(&mut gov)).map(|run| run.outcome)
    }

    #[test]
    fn divergent_set_never_closes_under_round_cap() {
        let (_, mut db, tgds) = divergent_tgds();
        let err = chase(&mut db, &tgds, 8).unwrap_err();
        assert!(err.error.is_resource(), "{err}");
    }

    #[test]
    fn terminating_chain_closes() {
        let (_, mut db, tgds) = terminating_chain(4);
        let out = chase(&mut db, &tgds, 64).unwrap();
        assert!(matches!(out, ChaseOutcome::Done(_)));
        assert_eq!(db.relation("R3").unwrap().len(), 1);
    }

    #[test]
    fn oversized_instance_has_requested_rows() {
        let (_, db) = oversized_instance(100);
        assert_eq!(db.relation("R0").unwrap().len(), 100);
    }

    #[test]
    fn byte_mutators_are_deterministic_and_bounded() {
        let input: Vec<u8> = (0..64u8).collect();
        assert_eq!(mutate_bytes(&input, 7), mutate_bytes(&input, 7));
        assert_ne!(mutate_bytes(&input, 7), mutate_bytes(&input, 8));
        assert_eq!(bit_flip(&input, 3, 0)[3], input[3] ^ 1);
        assert_eq!(truncate_at(&input, 10).len(), 10);
        assert_eq!(truncate_at(&input, 1000).len(), 64);
        assert_eq!(splice(&input, 5, &[0xAA, 0xBB]).len(), 66);
        assert!(!mutate_bytes(&[], 3).is_empty()); // grows from empty
    }

    #[test]
    fn repo_ops_every_prefix_is_valid() {
        for seed in 0..20 {
            let ops = repo_ops(seed, 40, 4);
            assert_eq!(ops.len(), 40);
            let mut instances: Vec<usize> = Vec::new();
            let mut live_subs: Vec<u64> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    RepoOp::RecordLineage { input_ops, output_op } => {
                        for &r in input_ops.iter().chain([output_op]) {
                            assert!(r < i, "op {i} references op {r}");
                            assert!(matches!(
                                ops[r],
                                RepoOp::StoreSchema { .. } | RepoOp::StoreMapping { .. }
                            ));
                        }
                    }
                    RepoOp::PutInstance { n, rows } => {
                        assert!(*rows > 0);
                        if !instances.contains(n) {
                            instances.push(*n);
                        }
                    }
                    RepoOp::InsertRows { n, rows } => {
                        assert!(*rows > 0);
                        assert!(instances.contains(n), "op {i} delta on unloaded I{n}");
                    }
                    RepoOp::RegisterSubscription { id, n } => {
                        assert!(instances.contains(n), "op {i} subscribes to unloaded I{n}");
                        live_subs.push(*id);
                    }
                    RepoOp::AdvanceCursor { id, .. } => {
                        assert!(live_subs.contains(id), "op {i} advances dead sub #{id}");
                    }
                    RepoOp::DropSubscription { id } => {
                        assert!(live_subs.contains(id), "op {i} drops dead sub #{id}");
                        live_subs.retain(|s| s != id);
                    }
                    _ => {}
                }
            }
            // the generator mixes in propagation ops, so the torn-frame
            // suite exercises every WAL record kind
            assert!(
                ops.iter().any(|o| matches!(o, RepoOp::PutInstance { .. })),
                "seed {seed} generated no instance loads"
            );
        }
    }

    #[test]
    fn cancel_after_trips_at_the_requested_poll() {
        let token = cancel_after(3);
        assert!(!token.is_cancelled());
        let budget = ExecBudget::unbounded().with_cancel(token.clone());
        let mut gov = mm_guard::Governor::new(&budget);
        assert!(gov.check_now().is_ok());
        assert!(gov.check_now().is_ok());
        assert!(gov.check_now().is_err());
    }
}
