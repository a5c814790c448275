//! The storage abstraction under the durable repository.
//!
//! `crates/repository` never touches the filesystem directly: the WAL and
//! snapshot layers (`wal.rs`, `store.rs`) speak to a [`Storage`] — a tiny
//! file-system-shaped trait with exactly the operations the recovery
//! protocol needs (whole-file read, append, atomic replace-by-rename,
//! delete, truncate). Two implementations ship here:
//!
//! * [`MemStorage`] — an in-memory file map, the default backing for
//!   tests, benches, and embedded use. Deterministic and cheap enough
//!   to reopen thousands of times in the crash-recovery property suite.
//! * [`FaultStorage`] — a wrapper that injects the failure modes real
//!   disks exhibit: hard I/O errors, *torn writes* (an append or write
//!   that persists only a prefix before the crash), partial flushes at
//!   a chosen total byte offset, and failures of the rename/delete
//!   steps inside the snapshot-swap protocol. Once a fault trips, the
//!   storage is *crashed*: every later operation fails, and the
//!   underlying [`MemStorage`] holds exactly the bytes a machine would
//!   find on disk after power loss — reopening a repository over it is
//!   a faithful crash-recovery simulation.
//!
//! The trait is object-safe: the repository holds an `Arc<dyn Storage>`,
//! so a process can layer fault injection (or, later, a real
//! filesystem/remote backend) without touching repository code.

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A storage-layer failure, carrying the file and operation context so
/// recovery tooling can report *where* the fault hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A read/write/rename/delete failed (injected or real).
    Io { file: String, what: String },
    /// The storage crashed mid-operation: a previous fault tripped and
    /// every subsequent operation is refused, like a dead disk.
    Crashed { file: String },
}

impl StorageError {
    pub fn io(file: impl Into<String>, what: impl Into<String>) -> Self {
        StorageError::Io { file: file.into(), what: what.into() }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { file, what } => write!(f, "storage I/O error on `{file}`: {what}"),
            StorageError::Crashed { file } => {
                write!(f, "storage crashed: operation on `{file}` after a fatal fault")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<StorageError> for mm_guard::ExecError {
    fn from(e: StorageError) -> Self {
        mm_guard::ExecError::io(e.to_string())
    }
}

/// The file-system-shaped contract the durable repository builds on.
///
/// Semantics the recovery protocol relies on:
/// * `write` replaces the whole file (creating it if absent) — but is
///   **not** assumed atomic: a crash can leave a prefix. Atomicity comes
///   from `write` to a temporary name followed by `rename`.
/// * `append` extends a file (creating it if absent) — also tearable.
/// * `rename` is **atomic**: after a crash the destination holds either
///   its old content or the complete new content, never a mix. This is
///   the same contract POSIX `rename(2)` gives and is the only atomic
///   primitive the snapshot-swap protocol needs.
/// * `delete` and `truncate` are idempotent; deleting a missing file is
///   not an error.
pub trait Storage: Send + Sync {
    /// Read the whole file; `None` if it does not exist.
    fn read(&self, file: &str) -> Result<Option<Bytes>, StorageError>;
    /// Create or replace the whole file. Not assumed atomic.
    fn write(&self, file: &str, data: &[u8]) -> Result<(), StorageError>;
    /// Append to the file, creating it if absent. Not assumed atomic.
    fn append(&self, file: &str, data: &[u8]) -> Result<(), StorageError>;
    /// Atomically replace `to` with `from` (which ceases to exist).
    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError>;
    /// Remove the file; succeeds if it does not exist.
    fn delete(&self, file: &str) -> Result<(), StorageError>;
    /// Shrink the file to `len` bytes (no-op if already shorter or absent).
    fn truncate(&self, file: &str, len: usize) -> Result<(), StorageError>;
}

/// In-memory [`Storage`]: a mutex-guarded map of file name to bytes.
#[derive(Default)]
pub struct MemStorage {
    files: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemStorage {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Snapshot of the current file map — the "disk image" the crash
    /// suite inspects and replays from.
    pub fn dump(&self) -> BTreeMap<String, Vec<u8>> {
        self.files.lock().clone()
    }

    /// Build a storage pre-loaded with a file map (e.g. a captured
    /// crash image).
    pub fn from_files(files: BTreeMap<String, Vec<u8>>) -> Arc<Self> {
        Arc::new(MemStorage { files: Mutex::new(files) })
    }

    /// Length of a file, `None` if absent — test/bench observability.
    pub fn len_of(&self, file: &str) -> Option<usize> {
        self.files.lock().get(file).map(Vec::len)
    }
}

impl Storage for MemStorage {
    fn read(&self, file: &str) -> Result<Option<Bytes>, StorageError> {
        Ok(self.files.lock().get(file).map(|v| Bytes::from(v.clone())))
    }

    fn write(&self, file: &str, data: &[u8]) -> Result<(), StorageError> {
        self.files.lock().insert(file.to_string(), data.to_vec());
        Ok(())
    }

    fn append(&self, file: &str, data: &[u8]) -> Result<(), StorageError> {
        self.files.lock().entry(file.to_string()).or_default().extend_from_slice(data);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        let mut files = self.files.lock();
        match files.remove(from) {
            Some(v) => {
                files.insert(to.to_string(), v);
                Ok(())
            }
            None => Err(StorageError::io(from, "rename source does not exist")),
        }
    }

    fn delete(&self, file: &str) -> Result<(), StorageError> {
        self.files.lock().remove(file);
        Ok(())
    }

    fn truncate(&self, file: &str, len: usize) -> Result<(), StorageError> {
        if let Some(v) = self.files.lock().get_mut(file) {
            if v.len() > len {
                v.truncate(len);
            }
        }
        Ok(())
    }
}

/// Which snapshot-swap step a [`FaultPlan`] should fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    Rename,
    Delete,
    Truncate,
    Read,
}

/// A deterministic fault schedule for [`FaultStorage`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Total bytes (across `write`/`append`) that persist before the
    /// crash. The operation that crosses the budget persists exactly the
    /// remaining prefix — a torn write / partial flush — then the
    /// storage is crashed.
    pub byte_budget: Option<u64>,
    /// Crash on the nth (0-based) occurrence of the given operation,
    /// *before* it takes effect (the atomic-rename contract: a crashed
    /// rename never half-happens).
    pub fail_op: Option<(FaultOp, u64)>,
}

impl FaultPlan {
    /// Crash after exactly `n` persisted bytes.
    pub fn crash_after_bytes(n: u64) -> Self {
        FaultPlan { byte_budget: Some(n), fail_op: None }
    }

    /// Crash at the nth occurrence of `op`.
    pub fn crash_at(op: FaultOp, n: u64) -> Self {
        FaultPlan { byte_budget: None, fail_op: Some((op, n)) }
    }
}

struct FaultState {
    bytes_remaining: Option<u64>,
    fail_op: Option<(FaultOp, u64)>,
    op_counts: BTreeMap<&'static str, u64>,
    crashed: bool,
}

/// Fault-injecting [`Storage`] wrapper. See the module docs for the
/// failure model; after a fault trips, the wrapped storage holds the
/// simulated on-disk state at crash time.
pub struct FaultStorage {
    inner: Arc<dyn Storage>,
    state: Mutex<FaultState>,
}

impl FaultStorage {
    pub fn new(inner: Arc<dyn Storage>, plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultStorage {
            inner,
            state: Mutex::new(FaultState {
                bytes_remaining: plan.byte_budget,
                fail_op: plan.fail_op,
                op_counts: BTreeMap::new(),
                crashed: false,
            }),
        })
    }

    fn guard(&self, file: &str) -> Result<(), StorageError> {
        if self.state.lock().crashed {
            Err(StorageError::Crashed { file: file.to_string() })
        } else {
            Ok(())
        }
    }

    /// Charge `data.len()` bytes against the budget; returns how many
    /// bytes actually persist (the torn prefix), or the full length.
    fn charge(&self, len: usize) -> (usize, bool) {
        let mut st = self.state.lock();
        match &mut st.bytes_remaining {
            Some(rem) => {
                if (len as u64) <= *rem {
                    *rem -= len as u64;
                    (len, false)
                } else {
                    let keep = *rem as usize;
                    *rem = 0;
                    st.crashed = true;
                    (keep, true)
                }
            }
            None => (len, false),
        }
    }

    fn check_op(&self, op: FaultOp, file: &str) -> Result<(), StorageError> {
        let mut st = self.state.lock();
        let key = match op {
            FaultOp::Rename => "rename",
            FaultOp::Delete => "delete",
            FaultOp::Truncate => "truncate",
            FaultOp::Read => "read",
        };
        let count = st.op_counts.entry(key).or_insert(0);
        let this = *count;
        *count += 1;
        if let Some((fop, n)) = st.fail_op {
            if fop == op && this == n {
                st.crashed = true;
                return Err(StorageError::io(file, format!("injected fault on {key} #{n}")));
            }
        }
        Ok(())
    }
}

impl Storage for FaultStorage {
    fn read(&self, file: &str) -> Result<Option<Bytes>, StorageError> {
        self.guard(file)?;
        self.check_op(FaultOp::Read, file)?;
        self.inner.read(file)
    }

    fn write(&self, file: &str, data: &[u8]) -> Result<(), StorageError> {
        self.guard(file)?;
        let (keep, torn) = self.charge(data.len());
        if torn {
            // the torn prefix persists — a partially flushed new file
            self.inner.write(file, &data[..keep])?;
            return Err(StorageError::io(
                file,
                format!("torn write: {keep} of {} bytes persisted", data.len()),
            ));
        }
        self.inner.write(file, data)
    }

    fn append(&self, file: &str, data: &[u8]) -> Result<(), StorageError> {
        self.guard(file)?;
        let (keep, torn) = self.charge(data.len());
        if torn {
            self.inner.append(file, &data[..keep])?;
            return Err(StorageError::io(
                file,
                format!("torn append: {keep} of {} bytes persisted", data.len()),
            ));
        }
        self.inner.append(file, data)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        self.guard(from)?;
        self.check_op(FaultOp::Rename, from)?;
        self.inner.rename(from, to)
    }

    fn delete(&self, file: &str) -> Result<(), StorageError> {
        self.guard(file)?;
        self.check_op(FaultOp::Delete, file)?;
        self.inner.delete(file)
    }

    fn truncate(&self, file: &str, len: usize) -> Result<(), StorageError> {
        self.guard(file)?;
        self.check_op(FaultOp::Truncate, file)?;
        self.inner.truncate(file, len)
    }
}

/// A [`mm_telemetry::LineSink`] over a [`Storage`] file: the adapter
/// that lets a `JsonLinesCollector` persist telemetry events through
/// the same storage abstraction (and fault injection) the repository's
/// WAL uses. Each line is appended with a trailing newline.
pub struct StorageLineSink {
    storage: Arc<dyn Storage>,
    file: String,
}

impl StorageLineSink {
    pub fn new(storage: Arc<dyn Storage>, file: impl Into<String>) -> Arc<Self> {
        Arc::new(StorageLineSink { storage, file: file.into() })
    }

    /// The file events append to.
    pub fn file(&self) -> &str {
        &self.file
    }
}

impl mm_telemetry::LineSink for StorageLineSink {
    fn append_line(&self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.storage.append(&self.file, &bytes).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultStorage {
        /// Has a fault tripped yet?
        pub(crate) fn crashed(&self) -> bool {
            self.state.lock().crashed
        }
    }

    #[test]
    fn mem_storage_round_trips() {
        let s = MemStorage::new();
        assert_eq!(s.read("a").unwrap(), None);
        s.write("a", b"hello").unwrap();
        s.append("a", b" world").unwrap();
        assert_eq!(s.read("a").unwrap().unwrap().as_ref(), b"hello world");
        s.truncate("a", 5).unwrap();
        assert_eq!(s.read("a").unwrap().unwrap().as_ref(), b"hello");
        s.rename("a", "b").unwrap();
        assert_eq!(s.read("a").unwrap(), None);
        assert_eq!(s.read("b").unwrap().unwrap().as_ref(), b"hello");
        s.delete("b").unwrap();
        s.delete("b").unwrap(); // idempotent
        assert_eq!(s.read("b").unwrap(), None);
    }

    #[test]
    fn byte_budget_tears_the_crossing_write() {
        let mem = MemStorage::new();
        let faulty = FaultStorage::new(mem.clone(), FaultPlan::crash_after_bytes(7));
        faulty.append("log", b"aaaa").unwrap(); // 4 of 7
        let err = faulty.append("log", b"bbbb").unwrap_err(); // crosses at 7
        assert!(matches!(err, StorageError::Io { .. }), "{err}");
        assert!(faulty.crashed());
        // the torn prefix persisted: 4 + 3 bytes
        assert_eq!(mem.read("log").unwrap().unwrap().as_ref(), b"aaaabbb");
        // everything afterwards is refused
        assert!(matches!(faulty.read("log"), Err(StorageError::Crashed { .. })));
        assert!(matches!(faulty.append("log", b"x"), Err(StorageError::Crashed { .. })));
    }

    #[test]
    fn op_faults_trip_before_taking_effect() {
        let mem = MemStorage::new();
        mem.write("a", b"1").unwrap();
        let faulty = FaultStorage::new(mem.clone(), FaultPlan::crash_at(FaultOp::Rename, 0));
        assert!(faulty.rename("a", "b").is_err());
        // the rename never happened — atomic contract
        assert_eq!(mem.read("a").unwrap().unwrap().as_ref(), b"1");
        assert_eq!(mem.read("b").unwrap(), None);
    }
}
