//! Cardinality statistics for relations: per-relation tuple counts plus
//! per-column distinct-count and most-common-value sketches.
//!
//! The cost-based planner (mm-eval) estimates join selectivities from
//! these. They follow the same lifecycle as the lazy [`crate::RelIndex`]
//! cache: built on first request, maintained incrementally on insert
//! behind an Arc copy-on-write snapshot (readers never block and never
//! see a half-updated sketch), invalidated wholesale on removal, and
//! never serialized or compared.

use crate::intern;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-column sketch: exact value counts (the relation already holds the
/// values; the map costs O(distinct) extra), the derived distinct count,
/// and an incrementally tracked most-common value.
///
/// Text keys are stored as interned symbols (4-byte ids, no `String`
/// clone per distinct value) whenever the pool takes them; lookups with
/// either text form still hit, since `Value`'s `Eq`/`Hash` see through
/// the representation.
#[derive(Debug, Clone, Default)]
pub struct ColSketch {
    counts: HashMap<Value, u32>,
    mcv: Option<(Value, u32)>,
}

impl ColSketch {
    /// The map-key form of `v`: owned text becomes a symbol instead of a
    /// cloned `String` (when the pool takes it).
    fn key_of(v: &Value) -> Value {
        match v {
            Value::Text(s) => intern::intern(s).map_or_else(|| v.clone(), Value::Sym),
            _ => v.clone(),
        }
    }

    fn note(&mut self, v: &Value) {
        let c = self.counts.entry(Self::key_of(v)).or_insert(0);
        *c += 1;
        let c = *c;
        match &self.mcv {
            Some((_, best)) if *best >= c => {}
            _ => self.mcv = Some((Self::key_of(v), c)),
        }
    }

    /// Number of distinct values observed in this column.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Exact number of rows carrying `v` in this column.
    pub fn count(&self, v: &Value) -> u32 {
        self.counts.get(v).copied().unwrap_or(0)
    }
}

/// Statistics snapshot for one relation. Obtained from
/// [`crate::Relation::stats`]; the handle stays internally consistent even
/// if the relation changes afterwards (copy-on-write).
#[derive(Debug, Clone, Default)]
pub struct RelStats {
    rows: u32,
    cols: Vec<ColSketch>,
}

impl RelStats {
    pub(crate) fn build(arity: usize, tuples: &[crate::relation::Tuple]) -> Self {
        let mut s = RelStats { rows: 0, cols: vec![ColSketch::default(); arity] };
        for t in tuples {
            s.note(t);
        }
        s
    }

    pub(crate) fn note(&mut self, tuple: &crate::relation::Tuple) {
        self.rows += 1;
        for (col, v) in self.cols.iter_mut().zip(tuple.values()) {
            col.note(v);
        }
    }

    /// Total row count at snapshot time.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The sketch for column `i`, if in range.
    pub fn col(&self, i: usize) -> Option<&ColSketch> {
        self.cols.get(i)
    }

    /// Estimated fraction of rows where column `i` equals `v`
    /// (exact under these sketches). 0.0 on an empty relation or
    /// out-of-range column.
    pub fn eq_selectivity(&self, i: usize, v: &Value) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        match self.cols.get(i) {
            Some(c) => f64::from(c.count(v)) / f64::from(self.rows),
            None => 0.0,
        }
    }

    /// Estimated fraction of rows matching an equality on column `i`
    /// against an unknown (already-bound) value: `1 / distinct`, the
    /// uniform-within-distinct assumption. 1.0 when nothing is known.
    pub fn join_selectivity(&self, i: usize) -> f64 {
        match self.cols.get(i) {
            Some(c) if c.distinct() > 0 => 1.0 / c.distinct() as f64,
            _ => 1.0,
        }
    }
}

/// Shared snapshot handle, as stored in the relation's stats slot.
pub(crate) type StatsSlot = Option<Arc<RelStats>>;

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::relation::Tuple;

    impl ColSketch {
        /// The most common value and its row count, if any rows exist.
        pub(crate) fn mcv(&self) -> Option<(&Value, u32)> {
            self.mcv.as_ref().map(|(v, c)| (v, *c))
        }
    }

    fn tup(a: i64, b: i64) -> Tuple {
        Tuple::from([Value::Int(a), Value::Int(b)])
    }

    #[test]
    fn build_counts_distincts_and_mcv() {
        let tuples = vec![tup(1, 10), tup(1, 20), tup(2, 30)];
        let s = RelStats::build(2, &tuples);
        assert_eq!(s.rows(), 3);
        let c0 = s.col(0).unwrap();
        assert_eq!(c0.distinct(), 2);
        assert_eq!(c0.count(&Value::Int(1)), 2);
        assert_eq!(c0.mcv(), Some((&Value::Int(1), 2)));
        let c1 = s.col(1).unwrap();
        assert_eq!(c1.distinct(), 3);
        assert_eq!(c1.mcv().map(|(_, n)| n), Some(1));
    }

    #[test]
    fn selectivities() {
        let tuples = vec![tup(1, 10), tup(1, 20), tup(1, 30), tup(2, 40)];
        let s = RelStats::build(2, &tuples);
        assert!((s.eq_selectivity(0, &Value::Int(1)) - 0.75).abs() < 1e-9);
        assert_eq!(s.eq_selectivity(0, &Value::Int(9)), 0.0);
        assert!((s.join_selectivity(0) - 0.5).abs() < 1e-9);
        assert!((s.join_selectivity(1) - 0.25).abs() < 1e-9);
        // out of range / empty degrade safely
        assert_eq!(s.eq_selectivity(7, &Value::Int(1)), 0.0);
        assert_eq!(RelStats::build(2, &[]).eq_selectivity(0, &Value::Int(1)), 0.0);
        assert_eq!(RelStats::build(2, &[]).join_selectivity(0), 1.0);
    }

    #[test]
    fn text_columns_sketch_by_symbol_and_answer_both_forms() {
        let tuples: Vec<Tuple> = ["a", "a", "b"]
            .iter()
            .map(|s| Tuple::from([Value::Text((*s).into())]))
            .collect();
        let s = RelStats::build(1, &tuples);
        let c = s.col(0).unwrap();
        assert_eq!(c.distinct(), 2);
        // stored keys are symbols, not clones of the owned strings
        assert!(matches!(c.mcv(), Some((Value::Sym(_), 2))));
        // lookups hit with either text form
        assert_eq!(c.count(&Value::Text("a".into())), 2);
        assert_eq!(c.count(&Value::text("a")), 2);
        assert_eq!(c.count(&Value::text("c")), 0);
    }

    #[test]
    fn incremental_note_matches_batch_build() {
        let tuples = vec![tup(5, 1), tup(5, 2), tup(6, 1), tup(5, 3)];
        let batch = RelStats::build(2, &tuples);
        let mut inc = RelStats::build(2, &tuples[..1]);
        for t in &tuples[1..] {
            inc.note(t);
        }
        assert_eq!(inc.rows(), batch.rows());
        for i in 0..2 {
            assert_eq!(inc.col(i).unwrap().distinct(), batch.col(i).unwrap().distinct());
            assert_eq!(inc.col(i).unwrap().mcv(), batch.col(i).unwrap().mcv());
        }
    }
}
