//! Tuples and set-semantics relations.
//!
//! The tuple layout is the engine's hot-path memory format (DESIGN.md
//! §16): small tuples store their values **inline** (no heap indirection),
//! wider ones spill to a shared `Arc<[Value]>` buffer, and every tuple
//! carries its hash, computed once at construction and reused by every
//! dedup check, index probe, and map insertion afterwards.

use crate::intern::{self, FxHasher};
use crate::stats::{RelStats, StatsSlot};
use crate::value::Value;
use mm_metamodel::{Attribute, DataType};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;
use std::sync::atomic::Ordering as AtomicOrdering;

/// Widest arity stored inline in a [`Tuple`]; wider tuples spill to a
/// shared heap buffer.
pub const INLINE_ARITY: usize = 4;

/// The canonical 64-bit hash of a value sequence: exactly what a
/// [`Tuple`] over the same values caches at construction, so slice-keyed
/// probes ([`RelIndex::probe`], [`Relation::contains_values`]) land in
/// the same buckets as stored tuples without building a tuple.
pub(crate) fn hash_values(values: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.write_usize(values.len());
    h.finish()
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Repr {
    /// Up to [`INLINE_ARITY`] values stored in place; slots past `len`
    /// are `Value::Null` padding and never observed.
    Inline { len: u8, vals: [Value; INLINE_ARITY] },
    /// Shared heap buffer for tuples wider than [`INLINE_ARITY`].
    Spilled(Arc<[Value]>),
}

/// A tuple: a fixed-arity row of values, hash-cached and inline up to
/// arity [`INLINE_ARITY`]. Cheap to clone (inline values memcpy; spilled
/// payloads bump an `Arc`), since evaluation and the chase pass tuples
/// around heavily.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tuple {
    /// `hash_values` of the payload, computed at construction.
    hash: u64,
    repr: Repr,
}

const NULL_PAD: Value = Value::Null;

impl Tuple {
    /// The one tuple builder: `arity` values drawn from `values`, stored
    /// inline up to [`INLINE_ARITY`] and spilled past it, hashed once.
    fn build(arity: usize, mut values: impl Iterator<Item = Value>) -> Self {
        if arity <= INLINE_ARITY {
            let vals: [Value; INLINE_ARITY] =
                std::array::from_fn(|_| values.next().unwrap_or(NULL_PAD));
            let hash = hash_values(&vals[..arity]);
            Tuple { hash, repr: Repr::Inline { len: arity as u8, vals } }
        } else {
            intern::ALLOC_TUPLES.fetch_add(1, AtomicOrdering::Relaxed);
            // via a `Vec`: `new`'s buffer is reused in place and moved with
            // one copy, and std fills a `Vec` from the other sources faster
            // than it fills an `Arc<[_]>` from an iterator
            let buf: Arc<[Value]> = values.collect::<Vec<Value>>().into();
            Tuple { hash: hash_values(&buf), repr: Repr::Spilled(buf) }
        }
    }

    pub fn new(values: Vec<Value>) -> Self {
        Tuple::build(values.len(), values.into_iter())
    }

    /// Build a tuple by cloning a value slice — the reusable-buffer entry
    /// point for the chase's firing scratch and eval's key buffers: the
    /// caller keeps refilling one `Vec` and never hands over ownership.
    pub fn from_slice(values: &[Value]) -> Self {
        Tuple::build(values.len(), values.iter().cloned())
    }

    pub fn values(&self) -> &[Value] {
        match &self.repr {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Spilled(buf) => buf,
        }
    }

    /// The hash cached at construction (`hash_values` of the payload).
    pub(crate) fn hash64(&self) -> u64 {
        self.hash
    }

    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values().get(i)
    }

    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// Project onto the given positions. Out-of-range positions yield
    /// [`Value::Null`] rather than panicking (the §7 no-panic guarantee on
    /// caller data): a NULL join key matches nothing under SQL semantics,
    /// so a malformed projection degrades to an empty join instead of
    /// aborting.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple::build(
            positions.len(),
            positions.iter().map(|&i| self.get(i).cloned().unwrap_or(Value::Null)),
        )
    }

    /// Concatenate with another tuple.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let (a, b) = (self.values(), other.values());
        Tuple::build(a.len() + b.len(), a.iter().chain(b).cloned())
    }

    /// Whether every value is a constant (no NULLs, no labeled nulls).
    pub fn is_ground(&self) -> bool {
        self.values().iter().all(Value::is_constant)
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        // cached hashes disagree => payloads disagree (same hash fn)
        self.hash == other.hash && self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.values().cmp(other.values())
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(vs: [Value; N]) -> Self {
        Tuple::new(vs.into())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// The column layout of a relation instance: ordered attribute list.
///
/// This is the instance-level schema; it is derived from (and checked
/// against) the metamodel-level [`mm_metamodel::Element`] but carried on
/// the relation so algebra evaluation is self-contained.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelSchema {
    pub attributes: Vec<Attribute>,
}

impl RelSchema {
    pub fn new(attributes: Vec<Attribute>) -> Self {
        RelSchema { attributes }
    }

    pub fn of(pairs: &[(&str, DataType)]) -> Self {
        RelSchema {
            attributes: pairs.iter().map(|(n, t)| Attribute::new(*n, *t)).collect(),
        }
    }

    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of attribute `name`.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(|a| a.name.as_str())
    }

    pub fn has(&self, name: &str) -> bool {
        self.position(name).is_some()
    }
}

/// One distinct key of a [`RelIndex`]: the projected key tuple (hash
/// cached like any tuple) plus the insertion positions of every tuple
/// carrying it, in insertion order.
#[derive(Debug, Clone)]
struct Bucket {
    key: Tuple,
    rows: Vec<u32>,
}

/// A hash index over one bound-position pattern of a relation.
///
/// Buckets are keyed by the **cached hash** of the projected key values
/// and store insertion positions only — probing hashes the key slice once
/// (no allocation, no tuple construction) and resolves rows through
/// [`Relation::tuples`]. Bucket rows preserve relation insertion order,
/// so an index probe enumerates exactly the subsequence a full scan with
/// a filter would — evaluation results are order-identical either way,
/// and the positions let semi-naive consumers restrict a probe to delta
/// tuples (`pos >= watermark`) without touching the rest of the bucket.
#[derive(Debug, Clone, Default)]
pub struct RelIndex {
    positions: Vec<usize>,
    buckets: HashMap<u64, Vec<Bucket>>,
}

impl RelIndex {
    fn build(positions: &[usize], tuples: &[Tuple]) -> Self {
        let mut idx = RelIndex { positions: positions.to_vec(), buckets: HashMap::new() };
        for (i, t) in tuples.iter().enumerate() {
            idx.add(i as u32, t);
        }
        idx
    }

    fn add(&mut self, pos: u32, tuple: &Tuple) {
        let key = tuple.project(&self.positions);
        let group = self.buckets.entry(key.hash64()).or_default();
        match group.iter_mut().find(|b| b.key == key) {
            Some(b) => b.rows.push(pos),
            None => group.push(Bucket { key, rows: vec![pos] }),
        }
    }

    /// The bound-position pattern this index covers.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Insertion positions of every tuple whose projection onto the index
    /// pattern equals `key`, in insertion order; empty when none match.
    /// Allocation-free: the key slice is hashed once (`hash_values`,
    /// matching the cached tuple hashes in the buckets) and compared only
    /// within its hash group.
    pub fn probe(&self, key: &[Value]) -> &[u32] {
        self.buckets
            .get(&hash_values(key))
            .and_then(|group| group.iter().find(|b| b.key.values() == key))
            .map_or(&[], |b| b.rows.as_slice())
    }
}

/// Hasher for maps keyed by a tuple's cached 64-bit hash: the key is
/// already mixed, so hashing it again (SipHash by default) buys nothing.
/// The table indexes buckets with the *low* bits, and the Fx hash ends in
/// a multiply, whose low bits are its weakest — so `finish` folds the
/// high bits down. Equal keys still share one group, so this adds no
/// collision class the group scan does not already handle.
#[derive(Debug, Clone, Copy, Default)]
struct TupleHashHasher(u64);

impl Hasher for TupleHashHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    // never reached by a `u64` key; kept total for the trait's sake
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
}

/// The insertion positions sharing one tuple hash. Distinct tuples
/// almost never share a 64-bit hash, so the one position lives inline
/// and only a genuine collision spills to the heap.
#[derive(Debug, Clone)]
enum Group {
    One(u32),
    Many(Vec<u32>),
}

impl Group {
    fn as_slice(&self) -> &[u32] {
        match self {
            Group::One(pos) => std::slice::from_ref(pos),
            Group::Many(all) => all,
        }
    }

    fn push(&mut self, pos: u32) {
        match self {
            Group::One(first) => *self = Group::Many(vec![*first, pos]),
            Group::Many(all) => all.push(pos),
        }
    }
}

/// Tuple hash -> the positions carrying it. Never iterated, so its
/// order cannot leak into results.
type Seen = HashMap<u64, Group, BuildHasherDefault<TupleHashHasher>>;

/// A set-semantics relation instance: dedup on insert, deterministic
/// (insertion-order) iteration.
///
/// Set semantics matches the paper's formal treatment of mappings
/// (instance-level semantics over sets of tuples); bag behaviour where it
/// matters (UNION ALL in generated queries, Fig 3) is handled by the
/// evaluator before tuples land in a relation.
///
/// Relations also carry a cache of [`RelIndex`]es keyed by bound-position
/// pattern, built lazily on first probe and maintained incrementally on
/// insert (removal invalidates the cache — deletions are rare relative to
/// probes in this engine). The cache lives behind a lock so probing works
/// through `&Relation`; it is never serialized or compared.
///
/// Dedup reuses the cached tuple hashes: `seen` maps each tuple hash to
/// the insertion positions carrying it, so membership checks compare
/// against stored tuples in place instead of keeping a second cloned copy
/// of every tuple in a `HashSet`. The map is keyed by that hash as-is
/// (`TupleHashHasher`) and holds its one position inline (`Group`),
/// so an insert neither re-hashes nor allocates.
#[derive(Debug, Serialize, Deserialize)]
pub struct Relation {
    pub schema: RelSchema,
    tuples: Vec<Tuple>,
    #[serde(skip)]
    seen: Seen,
    #[serde(skip)]
    indexes: RwLock<HashMap<Vec<usize>, Arc<RelIndex>>>,
    #[serde(skip)]
    stats: RwLock<StatsSlot>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        // index and stats caches are rebuilt lazily on the clone's first use
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.clone(),
            seen: self.seen.clone(),
            indexes: RwLock::default(),
            stats: RwLock::default(),
        }
    }
}

impl Relation {
    pub fn new(schema: RelSchema) -> Self {
        Relation {
            schema,
            tuples: Vec::new(),
            seen: Seen::default(),
            indexes: RwLock::default(),
            stats: RwLock::default(),
        }
    }

    pub fn with_tuples(schema: RelSchema, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let tuples = tuples.into_iter();
        let mut r = Relation::new(schema);
        r.reserve(tuples.size_hint().0);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// Make room for `additional` more tuples without regrowing.
    pub fn reserve(&mut self, additional: usize) {
        self.tuples.reserve(additional);
        self.seen.reserve(additional);
    }

    /// Insert a tuple; returns `true` if it was new. Panics in debug builds
    /// on arity mismatch (an arity mismatch is always an engine bug, not a
    /// data error).
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        debug_assert_eq!(
            tuple.arity(),
            self.schema.arity(),
            "arity mismatch inserting into relation"
        );
        self.insert_unchecked(tuple)
    }

    /// Insert without the arity debug-check: for decoders of outside
    /// input, where a tuple that disagrees with its attribute list is the
    /// instance validator's finding rather than an engine bug, and for
    /// the tests that exercise that validator.
    pub fn insert_unchecked(&mut self, tuple: Tuple) -> bool {
        let pos = self.tuples.len() as u32;
        match self.seen.entry(tuple.hash64()) {
            Entry::Occupied(mut group) => {
                if group.get().as_slice().iter().any(|&p| self.tuples[p as usize] == tuple) {
                    return false;
                }
                group.get_mut().push(pos);
            }
            Entry::Vacant(slot) => {
                slot.insert(Group::One(pos));
            }
        }
        for idx in self.indexes.get_mut().values_mut() {
            Arc::make_mut(idx).add(pos, &tuple);
        }
        if let Some(stats) = self.stats.get_mut().as_mut() {
            Arc::make_mut(stats).note(&tuple);
        }
        self.tuples.push(tuple);
        true
    }

    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.seen
            .get(&tuple.hash64())
            .is_some_and(|g| g.as_slice().iter().any(|&p| self.tuples[p as usize] == *tuple))
    }

    /// Membership check against a value slice without building a tuple —
    /// the chase's head-satisfaction fast path fills one reusable buffer
    /// per candidate firing and asks this instead of allocating.
    pub fn contains_values(&self, values: &[Value]) -> bool {
        self.seen
            .get(&hash_values(values))
            .is_some_and(|g| {
                g.as_slice().iter().any(|&p| self.tuples[p as usize].values() == values)
            })
    }

    /// Remove a tuple; returns `true` if it was present.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        if !self.contains(tuple) {
            return false;
        }
        // O(n); deletions are rare relative to scans in this engine
        if let Some(pos) = self.tuples.iter().position(|t| t == tuple) {
            self.tuples.remove(pos);
        }
        // removal shifts insertion positions: rebuild the dedup map and
        // drop the index/stats caches rather than patching every bucket
        self.rebuild_seen();
        self.indexes.get_mut().clear();
        *self.stats.get_mut() = None;
        true
    }

    fn rebuild_seen(&mut self) {
        self.seen.clear();
        for (i, t) in self.tuples.iter().enumerate() {
            let pos = i as u32;
            self.seen.entry(t.hash64()).and_modify(|g| g.push(pos)).or_insert(Group::One(pos));
        }
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The tuples in insertion order. Position `i` in this slice is the
    /// insertion position reported by [`RelIndex::probe`], and the slice
    /// tail from a recorded length watermark is exactly the delta since
    /// that watermark (as long as no removal happened in between).
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The hash index for the bound-position pattern `positions`, built
    /// on first request and cached; subsequent inserts maintain it
    /// incrementally, removals invalidate it. The returned handle stays
    /// valid (a snapshot) even if the relation changes afterwards.
    pub fn index(&self, positions: &[usize]) -> Arc<RelIndex> {
        if let Some(idx) = self.indexes.read().get(positions) {
            return Arc::clone(idx);
        }
        let mut cache = self.indexes.write();
        // re-check under the write lock: another thread may have built it
        Arc::clone(
            cache
                .entry(positions.to_vec())
                .or_insert_with(|| Arc::new(RelIndex::build(positions, &self.tuples))),
        )
    }

    /// Cardinality statistics for this relation: tuple count plus
    /// per-column distinct-count and most-common-value sketches, built on
    /// first request and cached; subsequent inserts maintain the sketch
    /// incrementally, removals invalidate it. Like [`Relation::index`],
    /// the returned handle is a consistent snapshot even if the relation
    /// changes afterwards.
    pub fn stats(&self) -> Arc<RelStats> {
        if let Some(s) = self.stats.read().as_ref() {
            return Arc::clone(s);
        }
        let mut slot = self.stats.write();
        // re-check under the write lock: another thread may have built it
        Arc::clone(slot.get_or_insert_with(|| {
            Arc::new(RelStats::build(self.schema.arity(), &self.tuples))
        }))
    }

    /// Sorted copy of the tuples — canonical form for equality checks in
    /// tests and roundtripping verification.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v = self.tuples.clone();
        v.sort();
        v
    }

    /// Set equality with another relation (ignores column names; positions
    /// must agree).
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.len() == other.len() && self.tuples.iter().all(|t| other.contains(t))
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.set_eq(other)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.schema.names().collect();
        writeln!(f, "[{}]", names.join(", "))?;
        for t in &self.tuples {
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r2(name_a: &str, name_b: &str) -> Relation {
        Relation::new(RelSchema::of(&[(name_a, DataType::Int), (name_b, DataType::Text)]))
    }

    fn t(i: i64, s: &str) -> Tuple {
        Tuple::from([Value::Int(i), Value::text(s)])
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = r2("a", "b");
        assert!(r.insert(t(1, "x")));
        assert!(!r.insert(t(1, "x")));
        assert!(r.insert(t(2, "y")));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn owned_and_pooled_text_tuples_are_interchangeable() {
        let owned = || Tuple::from([Value::Int(1), Value::Text("x".into())]);
        let pooled = Tuple::from([Value::Int(1), Value::text("x")]);
        assert!(matches!(pooled.get(1), Some(Value::Sym(_))));
        assert_eq!(pooled, owned());
        assert_eq!(pooled.hash64(), owned().hash64());
        assert_eq!(pooled.cmp(&owned()), std::cmp::Ordering::Equal);
        assert_eq!(pooled.to_string(), owned().to_string());
        let mut r = r2("a", "b");
        assert!(r.insert(pooled));
        assert!(!r.insert(owned())); // dedup sees through the text forms
        assert!(r.contains(&owned()));
    }

    /// Every constructor over arities 0..=8: the cached hash is
    /// `hash_values` of the payload, the layout is inline exactly up to
    /// `INLINE_ARITY`, and the same values built any way are one tuple.
    #[test]
    fn one_layout_rule_for_every_constructor() {
        fn check(t: &Tuple, vals: &[Value], how: &str) {
            let n = vals.len();
            assert_eq!(t.values(), vals, "{how} at arity {n}");
            assert_eq!(t.hash, hash_values(t.values()), "{how} at arity {n}: cached hash");
            assert_eq!(
                matches!(t.repr, Repr::Inline { .. }),
                n <= INLINE_ARITY,
                "{how} at arity {n}: layout"
            );
        }
        fn array<const N: usize>(vals: &[Value]) -> Tuple {
            let arr: [Value; N] = std::array::from_fn(|i| vals[i].clone());
            Tuple::from(arr)
        }
        let pool: Vec<Value> = (0..8)
            .map(|i| if i % 2 == 0 { Value::Int(i) } else { Value::text(format!("v{i}")) })
            .collect();
        let wide = Tuple::from_slice(&pool);
        for n in 0..=8 {
            let vals = &pool[..n];
            let from_array = match n {
                0 => array::<0>(vals),
                1 => array::<1>(vals),
                2 => array::<2>(vals),
                3 => array::<3>(vals),
                4 => array::<4>(vals),
                5 => array::<5>(vals),
                6 => array::<6>(vals),
                7 => array::<7>(vals),
                _ => array::<8>(vals),
            };
            let positions: Vec<usize> = (0..n).collect();
            let concat_at = |k: usize| {
                let (left, right) = vals.split_at(k);
                Tuple::from_slice(left).concat(&Tuple::from_slice(right))
            };
            let built = [
                ("new", Tuple::new(vals.to_vec())),
                ("from_slice", Tuple::from_slice(vals)),
                ("From<[Value; N]>", from_array),
                ("project", wide.project(&positions)),
                // two halves, then a last value onto everything before it
                // (a spilled left side from arity 6 on)
                ("concat halves", concat_at(n / 2)),
                ("concat tail", concat_at(n.saturating_sub(1))),
            ];
            for (how, t) in &built {
                check(t, vals, how);
                assert_eq!(t, &built[0].1, "{how} at arity {n}: equality");
                assert_eq!(t.hash64(), built[0].1.hash64(), "{how} at arity {n}: hash64");
            }
        }
    }

    #[test]
    fn wide_tuples_spill_and_still_roundtrip() {
        let wide = Tuple::new((0..7).map(Value::Int).collect());
        assert_eq!(wide.arity(), 7);
        assert_eq!(wide.get(6), Some(&Value::Int(6)));
        assert_eq!(wide, Tuple::from_slice(wide.values()));
        let narrow = Tuple::from_slice(&[Value::Int(0)]);
        assert_eq!(narrow.arity(), 1);
        assert_ne!(wide, narrow);
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut r = r2("a", "b");
        r.insert(t(3, "c"));
        r.insert(t(1, "a"));
        r.insert(t(2, "b"));
        let firsts: Vec<i64> = r
            .iter()
            .map(|tp| match tp.get(0).unwrap() {
                Value::Int(i) => *i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(firsts, [3, 1, 2]);
    }

    #[test]
    fn remove_keeps_index_consistent() {
        let mut r = r2("a", "b");
        r.insert(t(1, "x"));
        r.insert(t(2, "y"));
        assert!(r.remove(&t(1, "x")));
        assert!(!r.remove(&t(1, "x")));
        assert!(!r.contains(&t(1, "x")));
        assert!(r.insert(t(1, "x"))); // can be re-inserted
    }

    /// Two distinct tuples forged onto one cached hash (what a genuine
    /// 64-bit collision looks like): they share a `seen` group, which
    /// spills, and every operation still tells them apart.
    #[test]
    fn colliding_tuples_share_a_group_and_stay_distinct() {
        let forge = |i: i64, s: &str| Tuple { hash: 42, ..t(i, s) };
        let (a, b, c) = (forge(1, "x"), forge(2, "y"), forge(3, "z"));
        let mut r = r2("a", "b");
        assert!(r.insert(a.clone()));
        assert!(r.insert(b.clone()));
        assert!(r.insert(c.clone()));
        assert_eq!(r.seen.len(), 1, "one hash, one group");
        assert!(matches!(r.seen.get(&42), Some(Group::Many(all)) if all == &[0, 1, 2]));
        assert!(!r.insert(b.clone()), "dedup scans the whole group");
        assert!(r.contains(&a) && r.contains(&b) && r.contains(&c));
        assert!(!r.contains(&forge(4, "w")));

        let copy = r.clone();
        assert_eq!(copy, r);
        assert!(copy.contains(&c));

        assert!(r.remove(&a));
        assert!(!r.contains(&a) && r.contains(&b) && r.contains(&c));
        assert!(matches!(r.seen.get(&42), Some(Group::Many(all)) if all == &[0, 1]));
        assert!(r.remove(&b));
        assert!(matches!(r.seen.get(&42), Some(Group::One(0))), "back to one inline position");
        assert!(r.insert(a) && !r.insert(c));
        assert_eq!(r.len(), 2);
        assert!(copy.contains(&b), "the clone kept its own group");
    }

    #[test]
    fn set_equality_ignores_order() {
        let mut a = r2("a", "b");
        let mut b = r2("a", "b");
        a.insert(t(1, "x"));
        a.insert(t(2, "y"));
        b.insert(t(2, "y"));
        b.insert(t(1, "x"));
        assert!(a.set_eq(&b));
        b.insert(t(3, "z"));
        assert!(!a.set_eq(&b));
    }

    #[test]
    fn tuple_project_and_concat() {
        let tp = Tuple::from([Value::Int(1), Value::text("x"), Value::Bool(true)]);
        assert_eq!(tp.project(&[2, 0]), Tuple::from([Value::Bool(true), Value::Int(1)]));
        let q = Tuple::from([Value::Int(9)]);
        assert_eq!(
            tp.concat(&q),
            Tuple::new(vec![Value::Int(1), Value::text("x"), Value::Bool(true), Value::Int(9)])
        );
        // concat across the inline/spill boundary
        let wide = tp.concat(&tp);
        assert_eq!(wide.arity(), 6);
        assert_eq!(wide.get(4), Some(&Value::text("x")));
    }

    #[test]
    fn project_clamps_out_of_range_to_null() {
        let tp = Tuple::from([Value::Int(1), Value::text("x")]);
        assert_eq!(tp.project(&[0, 7]), Tuple::from([Value::Int(1), Value::Null]));
    }

    #[test]
    fn hash_values_matches_cached_tuple_hash() {
        let vals = [Value::Int(7), Value::text("k")];
        let tp = Tuple::from_slice(&vals);
        assert_eq!(tp.hash64(), hash_values(&vals));
    }

    #[test]
    fn contains_values_matches_contains() {
        let mut r = r2("a", "b");
        r.insert(t(1, "x"));
        assert!(r.contains_values(&[Value::Int(1), Value::text("x")]));
        assert!(r.contains_values(&[Value::Int(1), Value::Text("x".into())]));
        assert!(!r.contains_values(&[Value::Int(2), Value::text("x")]));
        assert!(!r.contains_values(&[Value::Int(1)]));
    }

    #[test]
    fn index_probe_matches_filtered_scan_in_order() {
        let mut r = r2("a", "b");
        r.insert(t(1, "x"));
        r.insert(t(2, "y"));
        r.insert(t(1, "z"));
        let idx = r.index(&[0]);
        assert_eq!(idx.probe(&[Value::Int(1)]), &[0, 2]);
        assert_eq!(r.tuples()[0], t(1, "x"));
        assert_eq!(r.tuples()[2], t(1, "z"));
        assert!(idx.probe(&[Value::Int(9)]).is_empty());
    }

    #[test]
    fn index_is_maintained_incrementally_on_insert() {
        let mut r = r2("a", "b");
        r.insert(t(1, "x"));
        let _warm = r.index(&[0]); // build the cache, then insert more
        r.insert(t(1, "y"));
        r.insert(t(2, "z"));
        let idx = r.index(&[0]);
        assert_eq!(idx.probe(&[Value::Int(1)]), &[0, 1]);
        assert_eq!(idx.probe(&[Value::Int(2)]), &[2]);
    }

    #[test]
    fn index_invalidated_by_remove() {
        let mut r = r2("a", "b");
        r.insert(t(1, "x"));
        r.insert(t(2, "y"));
        r.insert(t(1, "z"));
        let _warm = r.index(&[0]);
        r.remove(&t(1, "x"));
        let idx = r.index(&[0]);
        // positions reflect the post-removal layout
        assert_eq!(idx.probe(&[Value::Int(1)]), &[1]);
        assert_eq!(idx.probe(&[Value::Int(2)]), &[0]);
    }

    #[test]
    fn multi_column_index_and_snapshot_semantics() {
        let mut r = r2("a", "b");
        r.insert(t(1, "x"));
        let snapshot = r.index(&[0, 1]);
        r.insert(t(1, "y"));
        // the old handle is a snapshot; a fresh probe sees the new tuple
        assert_eq!(snapshot.probe(&[Value::Int(1), Value::text("y")]).len(), 0);
        let fresh = r.index(&[0, 1]);
        assert_eq!(fresh.probe(&[Value::Int(1), Value::text("y")]).len(), 1);
        assert_eq!(fresh.positions(), &[0, 1]);
    }

    #[test]
    fn stats_are_maintained_incrementally_and_snapshot() {
        let mut r = r2("a", "b");
        r.insert(t(1, "x"));
        r.insert(t(1, "y"));
        let snap = r.stats(); // build the sketch, then insert more
        assert_eq!(snap.rows(), 2);
        assert_eq!(snap.col(0).unwrap().distinct(), 1);
        r.insert(t(2, "z"));
        // the old handle is a snapshot; a fresh one sees the new tuple
        assert_eq!(snap.rows(), 2);
        let fresh = r.stats();
        assert_eq!(fresh.rows(), 3);
        assert_eq!(fresh.col(0).unwrap().distinct(), 2);
        assert_eq!(fresh.col(0).unwrap().mcv(), Some((&Value::Int(1), 2)));
        // removal invalidates; the rebuilt sketch reflects the new state
        r.remove(&t(1, "x"));
        assert_eq!(r.stats().rows(), 2);
        assert_eq!(r.stats().col(0).unwrap().count(&Value::Int(1)), 1);
    }

    #[test]
    fn groundness() {
        assert!(t(1, "x").is_ground());
        assert!(!Tuple::from([Value::Int(1), Value::Null]).is_ground());
        assert!(!Tuple::from([Value::Labeled(3)]).is_ground());
    }

    #[test]
    fn schema_positions() {
        let s = RelSchema::of(&[("a", DataType::Int), ("b", DataType::Text)]);
        assert_eq!(s.position("b"), Some(1));
        assert_eq!(s.position("z"), None);
        assert!(s.has("a"));
    }
}
