//! Text-form property suite (DESIGN.md §16).
//!
//! Text has two physical forms with one meaning: pooled (`Value::Sym`,
//! what `Value::text` builds for poolable strings) and owned
//! (`Value::Text`). Which form a value takes must never show: every
//! observable output — chased instances, minted null ids, canonical
//! codec bytes, EXPLAIN text, CQ answers — must be bit-identical whether
//! a workload's text was built pooled or owned. These properties drive
//! randomly generated and deliberately skewed text workloads through
//! both legs, through inline and spilled tuples alike, and diff the
//! bytes.
//!
//! The second half fuzzes durability: v4 snapshots carry an intern-pool
//! section (the distinct text values of all tracked instances), and a
//! recovery over arbitrarily mutated pool bytes must return Ok or a
//! typed error — never panic, whatever the corruption says about
//! string lengths or pool cardinality.

use mm_eval::{find_homomorphisms, Binding};
use mm_repository::codec::{Encode, Writer};
use mm_repository::{DurableOptions, MemStorage, Repository, SNAPSHOT_FILE, WAL_FILE};
use mm_workload::faults::{mutate_bytes, truncate_at};
use model_management::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

// --- workload generation ---------------------------------------------------

/// A text workload spec: a vocabulary plus rows that index into it.
/// Building the `Database` separately for each text form is what makes
/// the comparison honest — the spec itself holds no `Value`s.
#[derive(Debug, Clone)]
struct TextWorkload {
    vocab: Vec<String>,
    /// (a-word, b-word, payload) per row of `R(a, b, n)`.
    rows: Vec<(usize, usize, i64)>,
}

fn source_schema() -> Schema {
    SchemaBuilder::new("S")
        .relation(
            "R",
            &[("a", DataType::Text), ("b", DataType::Text), ("n", DataType::Int)],
        )
        .build()
        .expect("static source schema")
}

fn target_schema() -> Schema {
    SchemaBuilder::new("T")
        .relation(
            "Copy",
            &[("a", DataType::Text), ("b", DataType::Text), ("n", DataType::Int)],
        )
        .relation("Join", &[("a", DataType::Text), ("b", DataType::Text)])
        .relation("Tag", &[("a", DataType::Text), ("t", DataType::Text)])
        .relation(
            "Wide",
            &[
                ("a", DataType::Text),
                ("b", DataType::Text),
                ("n", DataType::Int),
                ("b2", DataType::Text),
                ("a2", DataType::Text),
                ("w", DataType::Text),
            ],
        )
        .build()
        .expect("static target schema")
}

/// A copy tgd (exercises inline arity-3 tuples), a self-join tgd
/// (exercises hash probes on interned keys), an existential tgd (mints
/// labelled nulls whose ids must come out identical), and a wide
/// existential tgd (arity-6 head: spilled tuples carrying text and
/// nulls).
fn workload_tgds() -> Vec<Tgd> {
    vec![
        Tgd::new(
            vec![Atom::vars("R", &["x", "y", "n"])],
            vec![Atom::vars("Copy", &["x", "y", "n"])],
        ),
        Tgd::new(
            vec![Atom::vars("R", &["x", "y", "n"]), Atom::vars("R", &["y", "z", "m"])],
            vec![Atom::vars("Join", &["x", "z"])],
        ),
        Tgd::new(
            vec![Atom::vars("R", &["x", "y", "n"])],
            vec![Atom::vars("Tag", &["x", "t"])],
        ),
        Tgd::new(
            vec![Atom::vars("R", &["x", "y", "n"])],
            vec![Atom::vars("Wide", &["x", "y", "n", "y", "x", "w"])],
        ),
    ]
}

fn query_atoms() -> Vec<Atom> {
    vec![Atom::vars("Copy", &["x", "y", "n"]), Atom::vars("Copy", &["y", "z", "m"])]
}

impl TextWorkload {
    /// Materialise the spec, building every text value with `text`.
    fn build(&self, text: fn(&str) -> Value) -> Database {
        let mut db = Database::empty_of(&source_schema());
        for &(a, b, n) in &self.rows {
            db.insert(
                "R",
                Tuple::new(vec![
                    text(&self.vocab[a % self.vocab.len()]),
                    text(&self.vocab[b % self.vocab.len()]),
                    Value::Int(n),
                ]),
            );
        }
        db
    }
}

/// Random workloads: a diverse vocabulary (up to 24 distinct words of
/// varied length, including words longer than `MAX_INTERN_LEN` so the
/// pool's length cap is exercised) and up to 60 rows.
fn arb_random_workload() -> impl Strategy<Value = TextWorkload> {
    (
        proptest::collection::vec("[a-z0-9 -]{0,160}", 1..24),
        proptest::collection::vec((any::<usize>(), any::<usize>(), any::<i64>()), 1..60),
    )
        .prop_map(|(vocab, rows)| TextWorkload { vocab, rows })
}

/// Skewed workloads: a tiny vocabulary (2–4 long low-cardinality
/// strings — the interning showcase) hammered by many rows, so hash
/// buckets collide heavily and the self-join fans out quadratically.
fn arb_skewed_workload() -> impl Strategy<Value = TextWorkload> {
    (
        proptest::collection::vec("[a-z]{24,48}", 2..4),
        proptest::collection::vec((0usize..4, 0usize..4, 0i64..8), 20..80),
    )
        .prop_map(|(vocab, rows)| TextWorkload { vocab, rows })
}

// --- canonical observations ------------------------------------------------

/// Canonical codec bytes of a database — the bit-identity witness.
/// `Value::Sym` encodes byte-identically to `Value::Text` by
/// construction, so any divergence here is a real result difference
/// (tuples, order, or null ids).
fn db_bytes(db: &Database) -> Vec<u8> {
    let mut w = Writer::new();
    db.encode(&mut w);
    w.finish().to_vec()
}

/// Canonical bytes of a CQ answer set: sorted per-binding (var, value)
/// pairs, then the bindings sorted, so enumeration order cannot hide
/// or fake a difference.
fn homs_bytes(homs: &[Binding]) -> Vec<u8> {
    let mut rows: Vec<Vec<u8>> = homs
        .iter()
        .map(|h| {
            let mut pairs: Vec<(&String, &Value)> = h.iter().collect();
            pairs.sort_by(|l, r| l.0.cmp(r.0));
            let mut w = Writer::new();
            for (name, v) in pairs {
                w.str(name);
                v.encode(&mut w);
            }
            w.finish().to_vec()
        })
        .collect();
    rows.sort();
    let mut w = Writer::new();
    w.u32(rows.len() as u32);
    let mut out = w.finish().to_vec();
    for r in rows {
        out.extend_from_slice(&r);
    }
    out
}

/// One full observation of a workload with its text built by `text`:
/// source bytes, chased-target bytes, null count, EXPLAIN text, and CQ
/// answer bytes.
struct Observation {
    source: Vec<u8>,
    chased: Vec<u8>,
    nulls: usize,
    explain: String,
    answers: Vec<u8>,
}

fn observe(w: &TextWorkload, text: fn(&str) -> Value) -> Observation {
    let db = w.build(text);
    let tgds = workload_tgds();
    let program = ChaseProgram::compile(&tgds, &db);
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let run = program
        .run_st(&target_schema(), &db, &mut ExecCtx { explain: true, ..ExecCtx::new(&mut gov) })
        .expect("unbounded chase on a bounded workload");
    let homs = find_homomorphisms(&query_atoms(), &run.target);
    Observation {
        source: db_bytes(&db),
        chased: db_bytes(&run.target),
        nulls: run.stats.nulls,
        explain: run.explain.expect("explain requested").to_string(),
        answers: homs_bytes(&homs),
    }
}

fn assert_bit_identical(w: &TextWorkload) {
    let pooled = observe(w, |s| Value::text(s));
    let owned = observe(w, |s| Value::Text(s.to_owned()));
    assert_eq!(pooled.source, owned.source, "source instance bytes diverged");
    assert_eq!(pooled.chased, owned.chased, "chased instance bytes diverged");
    assert_eq!(pooled.nulls, owned.nulls, "minted null count diverged");
    assert_eq!(pooled.explain, owned.explain, "EXPLAIN text diverged");
    assert_eq!(pooled.answers, owned.answers, "CQ answer bytes diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pooled and owned text are bit-identical on random text
    /// workloads: same codec bytes for source and chased instances,
    /// same null ids, same EXPLAIN, same CQ answers.
    #[test]
    fn compact_plane_is_bit_identical_on_random_workloads(
        w in arb_random_workload()
    ) {
        assert_bit_identical(&w);
    }

    /// Same property under heavy skew: a handful of long strings
    /// repeated across every row, colliding hash buckets, and a
    /// quadratic self-join.
    #[test]
    fn compact_plane_is_bit_identical_on_skewed_workloads(
        w in arb_skewed_workload()
    ) {
        assert_bit_identical(&w);
    }
}

// --- recovery never panics on mutated pool bytes ---------------------------

/// Pristine durable state with a deliberately large v4 pool section:
/// many distinct text values across two tracked instances, a
/// checkpoint (snapshot carries the pool), then post-checkpoint puts
/// (WAL carries text frames).
fn pristine_durable_files() -> BTreeMap<String, Vec<u8>> {
    let mem = MemStorage::new();
    let repo =
        Repository::open_durable(mem.clone(), DurableOptions::default()).expect("open");
    let mut db = Database::empty_of(&source_schema());
    for i in 0..40 {
        db.insert(
            "R",
            Tuple::new(vec![
                Value::text(format!("warehouse-district-{i:03}-primary")),
                Value::text(format!("{i}")),
                Value::Int(i),
            ]),
        );
    }
    repo.put_instance("I0", db.clone()).expect("put I0");
    repo.checkpoint().expect("checkpoint");
    for i in 0..10 {
        db.insert(
            "R",
            Tuple::new(vec![
                Value::text(format!("post-checkpoint-{i}")),
                Value::text("tail"),
                Value::Int(i),
            ]),
        );
    }
    repo.put_instance("I1", db).expect("put I1");
    mem.dump()
}

/// Reopen over the mutated files; the only acceptable outcomes are a
/// recovered repository or a typed error.
fn reopen(files: BTreeMap<String, Vec<u8>>) {
    let mem = MemStorage::from_files(files);
    let _ = Repository::open_durable(mem, DurableOptions::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary mutations anywhere in the snapshot (including its
    /// leading pool section) never panic recovery.
    #[test]
    fn recovery_never_panics_on_mutated_snapshot(seed in any::<u64>()) {
        let mut files = pristine_durable_files();
        let snap = files.get(SNAPSHOT_FILE).expect("snapshot exists").clone();
        files.insert(SNAPSHOT_FILE.to_string(), mutate_bytes(&snap, seed));
        reopen(files);
    }

    /// Targeted mutations of the pool section specifically: the
    /// section leads the store encoding, so corrupting the first 256
    /// bytes rewrites pool cardinality and string lengths. Recovery
    /// must survive every such rewrite (a corrupt section can waste
    /// pool entries, never abort or panic by itself).
    #[test]
    fn recovery_never_panics_on_mutated_pool_section(
        offset in 0usize..256,
        byte in any::<u8>(),
        do_truncate in any::<bool>(),
    ) {
        let mut files = pristine_durable_files();
        let mut snap = files.get(SNAPSHOT_FILE).expect("snapshot exists").clone();
        if do_truncate {
            snap = truncate_at(&snap, offset);
        } else {
            let i = offset % snap.len();
            snap[i] = byte;
        }
        files.insert(SNAPSHOT_FILE.to_string(), snap);
        reopen(files);
    }

    /// Mutated WAL tails (text-heavy put frames after the checkpoint)
    /// never panic recovery either — replay stops at the last valid
    /// committed prefix or reports a typed error.
    #[test]
    fn recovery_never_panics_on_mutated_wal(seed in any::<u64>()) {
        let mut files = pristine_durable_files();
        let wal = files.get(WAL_FILE).expect("wal exists").clone();
        files.insert(WAL_FILE.to_string(), mutate_bytes(&wal, seed));
        reopen(files);
    }

    /// `Repository::restore` on mutated standalone snapshot bytes with
    /// a large pool section returns Ok or a typed error.
    #[test]
    fn restore_never_panics_on_mutated_pool_snapshot(seed in any::<u64>()) {
        let files = pristine_durable_files();
        let snap = files.get(SNAPSHOT_FILE).expect("snapshot exists");
        let _ = Repository::restore(bytes::Bytes::from(mutate_bytes(snap, seed)));
    }
}

/// The pristine files round-trip exactly when nothing is mutated —
/// guards the fixtures above against vacuity.
#[test]
fn pristine_durable_files_recover_cleanly() {
    let files = pristine_durable_files();
    let mem = MemStorage::from_files(files);
    let repo = Repository::open_durable(mem, DurableOptions::default())
        .expect("pristine files must recover");
    assert_eq!(repo.instance_names().len(), 2);
    let db = repo.instance("I1").expect("I1 recovered");
    let rel = db.relation("R").expect("R exists");
    assert_eq!(rel.len(), 50);
}
