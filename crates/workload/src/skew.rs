//! Skewed-data generators for the cost-based planner.
//!
//! The greedy join-order heuristic sees only relation *sizes*; these
//! generators build instances whose sizes mislead it — a small hub
//! relation fans out into a huge intermediate, a Zipfian column hides a
//! tiny distinct count behind a big row count, a correlated column pair
//! defeats independence assumptions — so a planner that consults
//! per-column statistics (distinct counts, value frequencies) picks a
//! different, much cheaper order. Each generator returns the schema, the
//! populated instance, and a conjunctive-query body over it; the query
//! result is intentionally small so run time measures join *work*, not
//! result materialization. Everything is seeded and deterministic.

// Fixture generators: schemas/data are built from static, known-good
// literals; `expect`/`unwrap` failures are generator bugs, not runtime
// failure modes (DESIGN.md §7).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mm_expr::{Atom, Term};
use mm_instance::{Database, Tuple, Value};
use mm_metamodel::{DataType, Schema, SchemaBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Draw one value in `0..domain` from a Zipf-like distribution with the
/// given exponent (inverse-CDF over precomputed cumulative weights —
/// rank 0 is the heavy head). Exposed so tests and benches can reuse the
/// sampler for their own column shapes.
pub(crate) fn zipf_sample(cumulative: &[f64], rng: &mut SmallRng) -> usize {
    let total = *cumulative.last().expect("non-empty weights");
    let needle = rng.gen_range(0.0..total);
    cumulative.partition_point(|&c| c <= needle).min(cumulative.len() - 1)
}

/// Cumulative Zipf weights for `domain` ranks at `exponent` — feed to
/// [`zipf_sample`].
pub(crate) fn zipf_weights(domain: usize, exponent: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=domain.max(1))
        .map(|rank| {
            acc += 1.0 / (rank as f64).powf(exponent);
            acc
        })
        .collect()
}

fn three_way_schema() -> Schema {
    SchemaBuilder::new("Skew")
        .relation("Anchor", &[("x", DataType::Int)])
        .relation("Hub", &[("x", DataType::Int), ("y", DataType::Int)])
        .relation("Sel", &[("y", DataType::Int), ("k", DataType::Int)])
        .build()
        .expect("static schema")
}

/// The query every three-way generator shares:
/// `Anchor(x) ∧ Hub(x, y) ∧ Sel(y, 7)`.
///
/// Greedy starts at `Anchor` (the smallest relation) and walks into the
/// hub, materializing every `Hub` row as an intermediate binding before
/// the selective constant on `Sel` prunes; the cost-based planner starts
/// at `Sel[k = 7]` (one row by the column statistics) and probes
/// backwards, touching a handful of tuples.
fn three_way_query() -> Vec<Atom> {
    vec![
        Atom::vars("Anchor", &["x"]),
        Atom::vars("Hub", &["x", "y"]),
        Atom::new("Sel", vec![Term::var("y"), Term::Const(mm_expr::Lit::Int(7))]),
    ]
}

/// Fat-hub join: a small anchor fans out through a hub whose join column
/// takes only a few distinct values. `Anchor` has `rows/20` tuples,
/// `Hub` has `rows` (every one reachable from the anchor), `Sel` has
/// `rows` with exactly one `k = 7` tuple. The query result is one row.
pub fn fat_hub_join(rows: usize) -> (Schema, Database, Vec<Atom>) {
    let schema = three_way_schema();
    let mut db = Database::empty_of(&schema);
    let anchors = (rows / 20).max(2);
    for i in 0..anchors {
        db.insert("Anchor", Tuple::from([Value::Int(i as i64)]));
    }
    for i in 0..rows {
        // x cycles the anchor domain: every hub row joins some anchor
        db.insert(
            "Hub",
            Tuple::from([Value::Int((i % anchors) as i64), Value::Int(i as i64)]),
        );
    }
    for i in 0..rows {
        // k = 7 appears exactly once, at y = 7
        let k = if i == 7 { 7 } else { 1_000 + i as i64 };
        db.insert("Sel", Tuple::from([Value::Int(i as i64), Value::Int(k)]));
    }
    (schema, db, three_way_query())
}

/// Zipfian hub: like [`fat_hub_join`] but the hub's join column is drawn
/// from a Zipf distribution over the anchor domain, so a large share of
/// the hub hangs off a few head values. The *distinct count* the
/// statistics see is what tells the planner the hub probe explodes;
/// sizes alone look harmless.
pub fn zipf_join(rows: usize, seed: u64) -> (Schema, Database, Vec<Atom>) {
    let schema = three_way_schema();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = Database::empty_of(&schema);
    let anchors = (rows / 20).max(2);
    let cumulative = zipf_weights(anchors, 1.2);
    for i in 0..anchors {
        db.insert("Anchor", Tuple::from([Value::Int(i as i64)]));
    }
    for i in 0..rows {
        let x = zipf_sample(&cumulative, &mut rng) as i64;
        db.insert("Hub", Tuple::from([Value::Int(x), Value::Int(i as i64)]));
    }
    for i in 0..rows {
        let k = if i == 7 { 7 } else { 1_000 + i as i64 };
        db.insert("Sel", Tuple::from([Value::Int(i as i64), Value::Int(k)]));
    }
    (schema, db, three_way_query())
}

/// Correlated selection columns: `Sel`'s `y` and `k` co-vary (`k`
/// repeats a small modulus of `y`), so most `k` values are *frequent* —
/// except the probe constant, which stays rare. Per-value frequency
/// sketches see through the correlation where a naive
/// rows-over-distinct estimate would not.
pub fn correlated_join(rows: usize, seed: u64) -> (Schema, Database, Vec<Atom>) {
    let schema = three_way_schema();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = Database::empty_of(&schema);
    let anchors = (rows / 20).max(2);
    for i in 0..anchors {
        db.insert("Anchor", Tuple::from([Value::Int(i as i64)]));
    }
    for i in 0..rows {
        let x = rng.gen_range(0..anchors) as i64;
        db.insert("Hub", Tuple::from([Value::Int(x), Value::Int(i as i64)]));
    }
    for i in 0..rows {
        // k tracks y through a small modulus (heavily repeated values),
        // with the probe constant k = 7 planted exactly once at y = 7
        let k = if i == 7 { 7 } else { 100 + (i as i64 % 16) };
        db.insert("Sel", Tuple::from([Value::Int(i as i64), Value::Int(k)]));
    }
    (schema, db, three_way_query())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_selective() {
        for (schema, db, query) in [
            fat_hub_join(400),
            zipf_join(400, 11),
            correlated_join(400, 11),
        ] {
            assert_eq!(schema.name, "Skew");
            assert_eq!(db.relation("Hub").unwrap().len(), 400);
            assert_eq!(db.relation("Sel").unwrap().len(), 400);
            assert_eq!(query.len(), 3);
            // exactly one Sel tuple matches the probe constant
            let hits = db
                .relation("Sel")
                .unwrap()
                .iter()
                .filter(|t| t.values()[1] == Value::Int(7))
                .count();
            assert_eq!(hits, 1);
        }
        let (_, a, _) = zipf_join(400, 11);
        let (_, b, _) = zipf_join(400, 11);
        assert_eq!(a, b, "seeded generators must be deterministic");
    }

    #[test]
    fn zipf_head_is_heavy() {
        let (_, db, _) = zipf_join(2_000, 3);
        let head = db
            .relation("Hub")
            .unwrap()
            .iter()
            .filter(|t| t.values()[0] == Value::Int(0))
            .count();
        assert!(head > 2_000 / 100, "rank 0 must be far above uniform: {head}");
    }
}
