//! Global string interning pool, its allocation counters and the hasher
//! behind every tuple hash.
//!
//! Text values on hot paths are represented as [`Symbol`]s: `u32` handles
//! into a process-wide append-only pool. Each pool entry carries the
//! string itself (leaked, so resolution hands out `&'static str` with no
//! lifetime plumbing) plus its precomputed 64-bit string hash, so
//! hashing a symbol never touches the bytes again.
//!
//! The pool is organised like the `RelIndex` snapshots: append-only with
//! **lock-free reads**. Storage is a table of fixed-size chunks, each
//! slot a `OnceLock<Entry>`; readers do two atomic loads (chunk pointer,
//! slot) and never block. Writers serialise on a small mutex that guards
//! the dedup map and hands out ids; an entry is fully initialised before
//! the published length moves past it.
//!
//! Interning is **bounded**: strings longer than [`MAX_INTERN_LEN`] and
//! strings past the pool capacity are refused (callers fall back to plain
//! `Value::Text`), so adversarial wire input cannot grow the pool without
//! limit. The pool never shrinks — symbols stay valid for the process
//! lifetime, which is what makes `&'static str` resolution sound.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Longest string the pool will intern. Longer text stays `Value::Text`.
pub const MAX_INTERN_LEN: usize = 128;

const CHUNK_BITS: usize = 16;
const CHUNK_SIZE: usize = 1 << CHUNK_BITS; // 65 536 entries per chunk
const MAX_CHUNKS: usize = 64; // pool capacity ~4.2M distinct strings

#[derive(Debug)]
struct Entry {
    text: &'static str,
    /// Precomputed [`str_hash`] of `text`.
    hash: u64,
}

type Chunk = Box<[OnceLock<Entry>]>;

struct Pool {
    chunks: [OnceLock<Chunk>; MAX_CHUNKS],
    /// Published entry count; an id is readable iff `id < len` (Release
    /// store after the slot's `OnceLock::set`, Acquire load on read).
    len: AtomicU32,
    /// Writer side: dedup map from interned text to its id.
    dedup: Mutex<HashMap<&'static str, u32>>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        chunks: std::array::from_fn(|_| OnceLock::new()),
        len: AtomicU32::new(0),
        dedup: Mutex::new(HashMap::new()),
    })
}

/// A handle to an interned string: compares and hashes by id, resolves
/// in O(1) with no locks. Equal strings always intern to the same id, so
/// id equality is string equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw pool id.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Resolve to the interned string. Lock-free; `""` for an id that was
    /// never handed out by [`intern`] (unreachable through safe use, but
    /// the no-panic guarantee extends to decoded-then-corrupted state).
    pub fn as_str(self) -> &'static str {
        entry(self.0).map_or("", |e| e.text)
    }

    /// The precomputed string hash ([`str_hash`] of the resolved text).
    /// An unresolvable id hashes as `str_hash("")`, consistent with its
    /// `""` resolution.
    pub(crate) fn hash64(self) -> u64 {
        entry(self.0).map_or_else(|| str_hash(""), |e| e.hash)
    }
}

fn entry(id: u32) -> Option<&'static Entry> {
    let p = pool();
    if id >= p.len.load(Ordering::Acquire) {
        return None;
    }
    let chunk = p.chunks.get(id as usize >> CHUNK_BITS)?.get()?;
    chunk.get(id as usize & (CHUNK_SIZE - 1))?.get()
}

/// Intern `s`, returning its symbol. `None` when the string is longer
/// than [`MAX_INTERN_LEN`] or the pool is at capacity — the caller keeps
/// the owned string instead.
pub fn intern(s: &str) -> Option<Symbol> {
    if s.len() > MAX_INTERN_LEN {
        REFUSED_LEN.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    let p = pool();
    #[allow(clippy::unwrap_used)] // mutex poisoning requires a prior panic
    let mut dedup = p.dedup.lock().unwrap();
    if let Some(&id) = dedup.get(s) {
        return Some(Symbol(id));
    }
    let id = p.len.load(Ordering::Relaxed);
    let (ci, si) = (id as usize >> CHUNK_BITS, id as usize & (CHUNK_SIZE - 1));
    let Some(chunk) = p.chunks.get(ci) else {
        REFUSED_CAPACITY.fetch_add(1, Ordering::Relaxed);
        return None; // pool at capacity
    };
    let chunk = chunk.get_or_init(|| (0..CHUNK_SIZE).map(|_| OnceLock::new()).collect());
    let text: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let _ = chunk[si].set(Entry { text, hash: str_hash(text) });
    // publish after the slot is initialised; readers Acquire this
    p.len.store(id + 1, Ordering::Release);
    dedup.insert(text, id);
    ALLOC_INTERNED.fetch_add(1, Ordering::Relaxed);
    Some(Symbol(id))
}

/// Number of symbols currently in the pool.
pub fn pool_len() -> usize {
    pool().len.load(Ordering::Acquire) as usize
}

// ---------------------------------------------------------------------------
// Allocation counters (sampled into `mm-telemetry` at op boundaries)
// ---------------------------------------------------------------------------

/// Heap-spilled tuple buffers allocated (arity > [`crate::INLINE_ARITY`]).
/// Inline tuples never bump this.
pub(crate) static ALLOC_TUPLES: AtomicU64 = AtomicU64::new(0);

/// New symbols appended to the pool (dedup hits don't count).
pub(crate) static ALLOC_INTERNED: AtomicU64 = AtomicU64::new(0);

/// Strings [`intern`] refused for being longer than [`MAX_INTERN_LEN`]:
/// each one stays an owned `Value::Text` that hashes and compares by
/// walking its bytes.
static REFUSED_LEN: AtomicU64 = AtomicU64::new(0);

/// Strings [`intern`] refused because the pool was at capacity.
static REFUSED_CAPACITY: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the refusal counters `(refused_len, refused_capacity)`.
pub fn refusal_counts() -> (u64, u64) {
    (REFUSED_LEN.load(Ordering::Relaxed), REFUSED_CAPACITY.load(Ordering::Relaxed))
}

/// Snapshot of the allocation counters `(tuples, interned)`.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOC_TUPLES.load(Ordering::Relaxed), ALLOC_INTERNED.load(Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast non-cryptographic hasher (FxHash-style multiply-rotate) used
/// for tuple hashes, index bucket keys, and the interner's precomputed
/// string hashes. Deterministic across runs and platforms — cached tuple
/// hashes computed at insert time must match hashes recomputed at probe
/// time forever.
#[derive(Debug, Clone)]
pub struct FxHasher {
    state: u64,
}

impl Default for FxHasher {
    fn default() -> Self {
        // a non-zero start, so an empty input does not hash to 0
        FxHasher { state: SEED }
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(c);
            self.add(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// The canonical 64-bit hash of a string's bytes (length-salted so
/// prefixes don't collide trivially). This is the hash precomputed per
/// pool entry and written by `Value`'s `Hash` for text — computed here so
/// `Value::Text` and `Value::Sym` of equal strings hash identically.
pub(crate) fn str_hash(s: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.write_usize(s.len());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_resolves() {
        let a = intern("alpha").unwrap();
        let b = intern("alpha").unwrap();
        let c = intern("beta").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "alpha");
        assert_eq!(c.as_str(), "beta");
    }

    #[test]
    fn precomputed_hash_matches_str_hash() {
        let s = intern("gamma-hash").unwrap();
        assert_eq!(s.hash64(), str_hash("gamma-hash"));
    }

    #[test]
    fn oversized_strings_are_refused() {
        let long = "x".repeat(MAX_INTERN_LEN + 1);
        assert!(intern(&long).is_none());
        let max = "y".repeat(MAX_INTERN_LEN);
        assert!(intern(&max).is_some());
    }

    #[test]
    fn unknown_symbol_resolves_empty_not_panicking() {
        let bogus = Symbol(u32::MAX - 1);
        assert_eq!(bogus.as_str(), "");
        assert_eq!(bogus.hash64(), str_hash(""));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| {
                            let s = format!("conc-{}", i + t % 2);
                            (intern(&s).unwrap(), s)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (sym, s) in h.join().unwrap() {
                assert_eq!(sym.as_str(), s);
                assert_eq!(intern(&s).unwrap(), sym);
            }
        }
    }
}
