//! Sharded, lock-striped cache of compiled chase programs.
//!
//! PR 5 replaces the engine's single-mutex plan cache with sixteen
//! independently locked shards so concurrent batch workers resolving
//! different mappings never serialize on one lock. Entries are keyed by
//! the mapping's *name* and remember which [`ArtifactId`] (i.e. which
//! stored version) they were compiled from: storing a new version under
//! the same name makes the next lookup miss, recompile, and **replace**
//! the stale entry — a replaced mapping can never serve its
//! predecessor's plan, and dead versions do not accumulate.

use mm_chase::ChaseProgram;
use mm_repository::ArtifactId;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Number of lock stripes. A fixed power of two: batch fan-out in this
/// workspace is capped well below the point where more stripes would
/// measurably reduce contention.
pub const PLAN_CACHE_SHARDS: usize = 16;

struct CachedPlan {
    /// The exact stored version this plan was compiled from.
    id: ArtifactId,
    program: Arc<ChaseProgram>,
}

/// The cache: `name → (version, compiled program)`, striped by name hash.
#[derive(Default)]
pub struct PlanCache {
    shards: [Mutex<HashMap<String, CachedPlan>>; PLAN_CACHE_SHARDS],
}

impl PlanCache {
    fn shard(&self, name: &str) -> &Mutex<HashMap<String, CachedPlan>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) % PLAN_CACHE_SHARDS]
    }

    /// The plan cached for `name`, but only if it was compiled from
    /// exactly the artifact version `id` — a stale entry is a miss.
    pub fn get(&self, name: &str, id: &ArtifactId) -> Option<Arc<ChaseProgram>> {
        let shard = self.shard(name).lock();
        shard.get(name).filter(|e| &e.id == id).map(|e| Arc::clone(&e.program))
    }

    /// Cache `program` as the plan for `name` at version `id`, replacing
    /// (and thereby invalidating) any entry for an older version.
    pub fn insert(&self, name: &str, id: ArtifactId, program: Arc<ChaseProgram>) {
        self.shard(name).lock().insert(name.to_owned(), CachedPlan { id, program });
    }

    /// Drop the entry for `name` (any version). Returns whether an entry
    /// was present. This is the adaptive re-optimization hook: when the
    /// engine detects that a cached plan's compile-time statistics have
    /// drifted from the live instance, it invalidates here and recompiles
    /// against current cardinalities.
    pub(crate) fn invalidate(&self, name: &str) -> bool {
        self.shard(name).lock().remove(name).is_some()
    }

    /// Total cached plans across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_expr::{Atom, Tgd};
    use mm_instance::Database;
    use mm_metamodel::{DataType, SchemaBuilder};
    use mm_repository::Repository;

    impl PlanCache {
        /// Per-shard entry counts, in stripe order — observability for the
        /// striping itself (tests assert entries actually spread out).
        pub(crate) fn shard_sizes(&self) -> [usize; PLAN_CACHE_SHARDS] {
            let mut out = [0; PLAN_CACHE_SHARDS];
            for (o, s) in out.iter_mut().zip(&self.shards) {
                *o = s.lock().len();
            }
            out
        }
    }

    fn program() -> Arc<ChaseProgram> {
        let s = SchemaBuilder::new("S")
            .relation("R", &[("a", DataType::Int)])
            .build()
            .expect("schema");
        let db = Database::empty_of(&s);
        let tgd = Tgd::new(vec![Atom::vars("R", &["x"])], vec![Atom::vars("U", &["x"])]);
        Arc::new(ChaseProgram::compile(&[tgd], &db))
    }

    #[test]
    fn same_name_new_version_replaces_the_entry() {
        let repo = Repository::new();
        let v1 = repo.store_mapping("m", mm_expr::Mapping::new("S", "T")).expect("v1");
        let v2 = repo.store_mapping("m", mm_expr::Mapping::new("S", "T")).expect("v2");
        assert_ne!(v1, v2);
        let cache = PlanCache::default();
        cache.insert("m", v1.clone(), program());
        assert!(cache.get("m", &v1).is_some());
        assert!(cache.get("m", &v2).is_none(), "stale version must miss");
        cache.insert("m", v2.clone(), program());
        assert_eq!(cache.len(), 1, "replacement, not accumulation");
        assert!(cache.get("m", &v1).is_none(), "old version evicted");
        assert!(cache.get("m", &v2).is_some());
    }

    #[test]
    fn entries_stripe_across_shards() {
        let repo = Repository::new();
        let cache = PlanCache::default();
        let p = program();
        for i in 0..64 {
            let name = format!("m{i}");
            let id = repo.store_mapping(&name, mm_expr::Mapping::new("S", "T")).expect("store");
            cache.insert(&name, id, Arc::clone(&p));
        }
        assert_eq!(cache.len(), 64);
        let sizes = cache.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 64);
        let occupied = sizes.iter().filter(|&&n| n > 0).count();
        assert!(occupied > PLAN_CACHE_SHARDS / 2, "64 names must spread: {sizes:?}");
    }
}
