//! The versioned artifact store with operator lineage, with an optional
//! crash-safe durable mode.
//!
//! A [`Repository`] is either *ephemeral* ([`Repository::new`] — pure
//! in-memory, the historical behavior) or *durable*
//! ([`Repository::open_durable`] — every committed mutation is
//! journaled through a checksummed write-ahead log before it is applied
//! in memory, and [`Repository::checkpoint`] compacts the log into an
//! atomically swapped snapshot). The recovery protocol and its
//! invariants are documented in DESIGN.md §9; the crash-recovery
//! property suite (`tests/crash_recovery.rs`) enforces them at every
//! WAL byte offset and snapshot-swap step.
//!
//! Multi-operator commits are transactional: [`Repository::begin`]
//! takes a whole-store savepoint, writes buffer into a single WAL batch
//! frame, and [`Repository::commit`] / [`Repository::rollback`] make
//! the batch all-or-nothing — against both errors and crashes.

use crate::codec::{crc32, Decode, DecodeError, Encode, Reader, Writer};
use crate::storage::{Storage, StorageError};
use crate::wal::{Wal, WalRecord};
use bytes::Bytes;
use mm_expr::{CorrespondenceSet, Mapping, ViewSet};
use mm_instance::{Database, Tuple};
use mm_metamodel::Schema;
use mm_telemetry::{Counter, Hist, Telemetry, Timer};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What kind of artifact an id refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArtifactKind {
    Schema,
    Mapping,
    ViewSet,
    Correspondences,
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArtifactKind::Schema => "schema",
            ArtifactKind::Mapping => "mapping",
            ArtifactKind::ViewSet => "viewset",
            ArtifactKind::Correspondences => "correspondences",
        })
    }
}

/// A (name, version) pair naming one stored artifact version.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionedName {
    pub name: String,
    pub version: u32,
}

impl fmt::Display for VersionedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@v{}", self.name, self.version)
    }
}

/// Fully qualified artifact id.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArtifactId {
    pub kind: ArtifactKind,
    pub name: VersionedName,
}

impl fmt::Display for ArtifactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind, self.name)
    }
}

/// A lineage edge: `operator(inputs) = output` — the repository's record
/// of one model-management operator invocation (impact analysis, §1.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageEdge {
    pub operator: String,
    pub inputs: Vec<ArtifactId>,
    pub output: ArtifactId,
}

/// A registered change-feed subscription: a set of continuous queries
/// (a [`ViewSet`]) over one tracked instance, plus the durable resume
/// cursor — the commit sequence of the last feed event the subscriber
/// acknowledged. Persisted WAL-first like every artifact, so recovery
/// restores the registry and a reconnecting client resumes from its
/// cursor instead of resubscribing from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Registry key, assigned by the caller (the engine allocates these
    /// monotonically).
    pub id: u64,
    /// Name of the tracked instance the queries read.
    pub instance: String,
    /// The continuous queries maintained for this subscriber.
    pub views: ViewSet,
    /// Commit sequence of the last acknowledged feed event.
    pub cursor: u64,
}

impl Encode for Subscription {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.id);
        w.str(&self.instance);
        self.views.encode(w);
        w.u64(self.cursor);
    }
}

impl Decode for Subscription {
    fn decode(r: &mut Reader) -> Result<Self, DecodeError> {
        Ok(Subscription {
            id: r.u64()?,
            instance: r.str()?,
            views: ViewSet::decode(r)?,
            cursor: r.u64()?,
        })
    }
}

/// Repository errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepositoryError {
    NotFound(String),
    Decode(DecodeError),
    /// Snapshot validation failed: bad magic, unknown format version, or
    /// a body checksum mismatch. The detail pinpoints the offset.
    BadSnapshot { detail: String },
    /// The storage layer failed (I/O error, torn write, crash).
    Storage(StorageError),
    /// `begin` while a transaction is already active, or `checkpoint`
    /// during a transaction (a snapshot must not persist uncommitted
    /// writes).
    TransactionActive,
    /// `commit`/`rollback` without an active transaction.
    NoTransaction,
    /// A durable-only operation (`checkpoint`) on an ephemeral repository.
    NotDurable,
    /// A data-path write was structurally invalid (unknown relation,
    /// arity mismatch) and was refused before journaling.
    InvalidWrite { detail: String },
}

impl fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepositoryError::NotFound(n) => write!(f, "artifact `{n}` not found"),
            RepositoryError::Decode(e) => write!(f, "{e}"),
            RepositoryError::BadSnapshot { detail } => write!(f, "bad snapshot: {detail}"),
            RepositoryError::Storage(e) => write!(f, "{e}"),
            RepositoryError::TransactionActive => {
                f.write_str("a repository transaction is already active")
            }
            RepositoryError::NoTransaction => f.write_str("no active repository transaction"),
            RepositoryError::NotDurable => {
                f.write_str("operation requires a durable repository")
            }
            RepositoryError::InvalidWrite { detail } => {
                write!(f, "invalid write: {detail}")
            }
        }
    }
}

impl std::error::Error for RepositoryError {}

impl From<DecodeError> for RepositoryError {
    fn from(e: DecodeError) -> Self {
        RepositoryError::Decode(e)
    }
}

impl From<StorageError> for RepositoryError {
    fn from(e: StorageError) -> Self {
        RepositoryError::Storage(e)
    }
}

#[derive(Default, Clone)]
struct Store {
    schemas: BTreeMap<String, Vec<Schema>>,
    mappings: BTreeMap<String, Vec<Mapping>>,
    viewsets: BTreeMap<String, Vec<ViewSet>>,
    correspondences: BTreeMap<String, Vec<CorrespondenceSet>>,
    lineage: Vec<LineageEdge>,
    subscriptions: BTreeMap<u64, Subscription>,
    instances: BTreeMap<String, Database>,
    /// Commit sequence of the last feed event (load or delta) per
    /// tracked instance. Registry writes and artifact stores bump the
    /// global sequence without touching this, so a resuming subscriber
    /// is judged against the events that actually concern it.
    instance_seqs: BTreeMap<String, u64>,
}

/// An open transaction: the pre-transaction state to roll back to, plus
/// the WAL records to flush as one batch frame on commit.
struct TxState {
    savepoint: Store,
    buffer: Vec<WalRecord>,
}

/// Options of [`Repository::open_durable`]. It has none: a durable
/// repository checkpoints only when [`Repository::checkpoint`] is called
/// (the server does at drain).
#[derive(Debug, Clone, Default)]
pub struct DurableOptions {}

struct DurState {
    /// Sequence number the next committed batch will carry.
    next_seq: u64,
}

struct DurableCore {
    storage: Arc<dyn Storage>,
    wal: Wal,
    state: Mutex<DurState>,
}

impl DurableCore {
    /// Append one committed batch, advancing the sequence counter only
    /// after the frame is fully persisted. Frame count and size feed the
    /// WAL telemetry counters.
    fn append_now(&self, records: &[WalRecord], tel: &Telemetry) -> Result<(), StorageError> {
        let mut st = self.state.lock();
        let started = tel.is_enabled().then(mm_telemetry::clock::now);
        let frame_bytes = self.wal.append_batch(st.next_seq, records)?;
        st.next_seq += 1;
        tel.count(Counter::WalFramesAppended, 1);
        tel.count(Counter::WalBytesAppended, frame_bytes as u64);
        if let (Some(t0), Some(m)) = (started, tel.metrics()) {
            m.observe_hist(Hist::WalAppendUs, mm_telemetry::clock::elapsed_us(t0));
        }
        Ok(())
    }
}

/// Thread-safe versioned metadata repository.
///
/// Lock order (held invariantly throughout this module, preventing
/// deadlock): `tx` mutex → `inner` RwLock → durable `state` mutex.
#[derive(Default)]
pub struct Repository {
    inner: RwLock<Store>,
    tx: Mutex<Option<TxState>>,
    durable: Option<DurableCore>,
    telemetry: Telemetry,
    /// Commit counter for ephemeral repositories, so the change feed
    /// has a cursor space in both modes (durable mode reads the WAL
    /// sequence instead).
    ephemeral_seq: AtomicU64,
}

const SNAPSHOT_MAGIC: u32 = 0x4D4D5232; // "MMR2"
/// Snapshot format version. v2 added the version byte, the last-applied
/// WAL sequence number, and the CRC32 body checksum; v3 added the
/// subscription registry and tracked instances; v4 prepends the interner
/// pool section (the distinct poolable text values of all stored
/// instances, bulk pre-interned on load so recovered databases come up
/// with a warm symbol pool). Snapshots are written and read at this
/// version only; any other version byte is refused as a bad snapshot.
const SNAPSHOT_VERSION: u8 = 4;
/// Snapshot header: magic (4) + version (1) + seq (8) + crc (4).
const SNAPSHOT_HEADER_LEN: usize = 17;

/// Storage file names of the durable layout.
pub const SNAPSHOT_FILE: &str = "snapshot";
pub const SNAPSHOT_TMP_FILE: &str = "snapshot.tmp";
pub const WAL_FILE: &str = "wal";

macro_rules! accessors {
    ($store_fn:ident, $get_fn:ident, $latest_fn:ident, $versions_fn:ident,
     $field:ident, $ty:ty, $kind:expr, $rec:ident) => {
        /// Store a new version; returns its id. In durable mode the
        /// write reaches the WAL (or the open transaction's buffer)
        /// before it is applied in memory; a storage failure leaves the
        /// repository unchanged.
        pub fn $store_fn(
            &self,
            name: impl Into<String>,
            value: $ty,
        ) -> Result<ArtifactId, RepositoryError> {
            let name = name.into();
            let id = {
                let mut tx = self.tx.lock();
                let mut store = self.inner.write();
                if let Some(tx) = tx.as_mut() {
                    tx.buffer.push(WalRecord::$rec {
                        name: name.clone(),
                        value: value.clone(),
                    });
                } else if let Some(d) = &self.durable {
                    d.append_now(&[WalRecord::$rec {
                        name: name.clone(),
                        value: value.clone(),
                    }], &self.telemetry)?;
                }
                let versions = store.$field.entry(name.clone()).or_default();
                versions.push(value);
                ArtifactId {
                    kind: $kind,
                    name: VersionedName { name, version: versions.len() as u32 - 1 },
                }
            };
            Ok(id)
        }

        /// Fetch a specific version.
        pub fn $get_fn(&self, name: &str, version: u32) -> Result<$ty, RepositoryError> {
            self.inner
                .read()
                .$field
                .get(name)
                .and_then(|v| v.get(version as usize))
                .cloned()
                .ok_or_else(|| RepositoryError::NotFound(format!("{name}@v{version}")))
        }

        /// Fetch the latest version with its id.
        pub fn $latest_fn(&self, name: &str) -> Result<($ty, ArtifactId), RepositoryError> {
            let store = self.inner.read();
            let versions = store
                .$field
                .get(name)
                .filter(|v| !v.is_empty())
                .ok_or_else(|| RepositoryError::NotFound(name.to_string()))?;
            let version = versions.len() as u32 - 1;
            let value = versions
                .last()
                .cloned()
                .ok_or_else(|| RepositoryError::NotFound(name.to_string()))?;
            Ok((
                value,
                ArtifactId {
                    kind: $kind,
                    name: VersionedName { name: name.to_string(), version },
                },
            ))
        }

        /// Number of stored versions.
        pub fn $versions_fn(&self, name: &str) -> u32 {
            self.inner.read().$field.get(name).map(|v| v.len() as u32).unwrap_or(0)
        }
    };
}

impl Repository {
    /// An ephemeral (in-memory only) repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (or create) a durable repository over `storage`, running
    /// crash recovery:
    ///
    /// 1. delete any half-written `snapshot.tmp` (the swap never
    ///    completed, so the previous snapshot is still authoritative);
    /// 2. load and validate the snapshot (magic, version, CRC32) if one
    ///    exists, noting the last WAL sequence it includes;
    /// 3. replay the longest valid WAL prefix, skipping frames at or
    ///    below the snapshot's sequence (idempotent replay);
    /// 4. physically truncate any torn/corrupted WAL tail so later
    ///    appends extend the valid prefix.
    ///
    /// [`DurableOptions`] has no fields.
    pub fn open_durable(
        storage: Arc<dyn Storage>,
        _opts: DurableOptions,
    ) -> Result<Self, RepositoryError> {
        Self::open_durable_with_telemetry(storage, Telemetry::disabled())
    }

    /// [`Repository::open_durable`] with a telemetry handle attached:
    /// the recovery pass is timed and counted, and the opened repository
    /// keeps the handle for WAL/checkpoint metering (equivalent to
    /// [`Repository::set_telemetry`] after a plain open).
    pub fn open_durable_with_telemetry(
        storage: Arc<dyn Storage>,
        tel: Telemetry,
    ) -> Result<Self, RepositoryError> {
        let started = mm_telemetry::clock::now();
        storage.delete(SNAPSHOT_TMP_FILE)?;
        let (mut store, base_seq) = match storage.read(SNAPSHOT_FILE)? {
            Some(bytes) => decode_snapshot(bytes)?,
            None => (Store::default(), 0),
        };
        let wal = Wal::new(Arc::clone(&storage), WAL_FILE);
        let replay = wal.replay()?;
        let truncated = replay.truncated();
        let valid_len = replay.valid_len;
        let batch_count = replay.batches.len();
        let mut last_seq = base_seq;
        for (seq, records) in replay.batches {
            if seq <= base_seq {
                continue; // already folded into the snapshot
            }
            for rec in records {
                apply_record(&mut store, rec, seq);
            }
            last_seq = seq;
        }
        if truncated {
            wal.truncate(valid_len)?;
        }
        if tel.is_enabled() {
            tel.count(Counter::Recoveries, 1);
            if let Some(m) = tel.metrics() {
                m.observe_us(Timer::Recovery, mm_telemetry::clock::elapsed_us(started));
            }
            tel.event(
                "repository.recovered",
                "",
                vec![
                    mm_telemetry::Field { key: "snapshot_seq", value: base_seq.into() },
                    mm_telemetry::Field { key: "wal_batches", value: batch_count.into() },
                    mm_telemetry::Field { key: "wal_truncated", value: truncated.into() },
                ],
            );
        }
        Ok(Repository {
            inner: RwLock::new(store),
            tx: Mutex::new(None),
            durable: Some(DurableCore {
                storage,
                wal,
                state: Mutex::new(DurState { next_seq: last_seq + 1 }),
            }),
            telemetry: tel,
            ephemeral_seq: AtomicU64::new(0),
        })
    }

    /// Attach (or replace) the telemetry handle metering WAL appends and
    /// checkpoints on this repository.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.telemetry = tel;
    }

    /// Is this repository journaling through a WAL?
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    accessors!(store_schema, get_schema, latest_schema, schema_versions,
               schemas, Schema, ArtifactKind::Schema, Schema);
    accessors!(store_mapping, get_mapping, latest_mapping, mapping_versions,
               mappings, Mapping, ArtifactKind::Mapping, Mapping);
    accessors!(store_viewset, get_viewset, latest_viewset, viewset_versions,
               viewsets, ViewSet, ArtifactKind::ViewSet, ViewSet);
    accessors!(store_correspondences, get_correspondences, latest_correspondences,
               correspondences_versions, correspondences, CorrespondenceSet,
               ArtifactKind::Correspondences, Correspondences);

    /// Names of all stored schemas.
    pub fn schema_names(&self) -> Vec<String> {
        self.inner.read().schemas.keys().cloned().collect()
    }

    /// Names of all stored mappings.
    pub fn mapping_names(&self) -> Vec<String> {
        self.inner.read().mappings.keys().cloned().collect()
    }

    /// Names of all stored correspondence sets.
    pub fn correspondence_names(&self) -> Vec<String> {
        self.inner.read().correspondences.keys().cloned().collect()
    }

    /// The sequence number of the last committed batch: the WAL
    /// sequence in durable mode, an in-memory commit counter otherwise.
    /// This is the cursor space of the change feed.
    pub fn last_seq(&self) -> u64 {
        match &self.durable {
            Some(d) => d.state.lock().next_seq - 1,
            None => self.ephemeral_seq.load(Ordering::Acquire),
        }
    }

    /// Journal one record and apply it, returning the commit sequence
    /// the write carries (the apply closure receives the same sequence,
    /// so state derived from it — e.g. per-instance event sequences —
    /// stays consistent between the live path and WAL replay). Inside
    /// an open transaction the record joins the transaction's batch and
    /// the returned sequence is the one the commit frame will carry
    /// (writes queue behind the tx lock, so no other frame can claim it
    /// first).
    fn journal_apply(
        &self,
        rec: WalRecord,
        apply: impl FnOnce(&mut Store, u64),
    ) -> Result<u64, RepositoryError> {
        let seq = {
            let mut tx = self.tx.lock();
            let mut store = self.inner.write();
            if let Some(tx) = tx.as_mut() {
                tx.buffer.push(rec);
                let seq = match &self.durable {
                    Some(d) => d.state.lock().next_seq,
                    None => self.ephemeral_seq.load(Ordering::Acquire) + 1,
                };
                apply(&mut store, seq);
                seq
            } else if let Some(d) = &self.durable {
                d.append_now(std::slice::from_ref(&rec), &self.telemetry)?;
                let seq = d.state.lock().next_seq - 1;
                apply(&mut store, seq);
                seq
            } else {
                let seq = self.ephemeral_seq.fetch_add(1, Ordering::AcqRel) + 1;
                apply(&mut store, seq);
                seq
            }
        };
        Ok(seq)
    }

    // --- tracked instances (the data the change feed propagates) ----------

    /// Create or replace a tracked instance wholesale — the bulk-load
    /// path. However many tuples `value` carries, it is journaled as one
    /// amortized WAL record inside one frame. Returns the commit
    /// sequence (the feed event for the load).
    pub fn put_instance(
        &self,
        name: impl Into<String>,
        value: Database,
    ) -> Result<u64, RepositoryError> {
        let name = name.into();
        self.journal_apply(
            WalRecord::InstancePut { name: name.clone(), value: value.clone() },
            move |store, seq| {
                store.instance_seqs.insert(name.clone(), seq);
                store.instances.insert(name, value);
            },
        )
    }

    /// A clone of a tracked instance.
    pub fn instance(&self, name: &str) -> Option<Database> {
        self.inner.read().instances.get(name).cloned()
    }

    /// Names of all tracked instances.
    pub fn instance_names(&self) -> Vec<String> {
        self.inner.read().instances.keys().cloned().collect()
    }

    /// Commit sequence of the last feed event (load or delta) that
    /// touched instance `name` — 0 if never written. Unlike
    /// [`Repository::last_seq`], registry and artifact writes do not
    /// advance this, so it is the correct resume horizon for a
    /// recovered subscriber.
    pub fn instance_seq(&self, name: &str) -> u64 {
        self.inner.read().instance_seqs.get(name).copied().unwrap_or(0)
    }

    /// Apply an insert-only delta (per-relation tuple batches) to a
    /// tracked instance, journaled as a single WAL record. The write is
    /// validated (instance and relations must exist, arities must
    /// match) *before* journaling, so the log never carries a record
    /// that cannot replay. Returns the commit sequence.
    pub fn apply_instance_delta(
        &self,
        name: &str,
        inserts: Vec<(String, Vec<Tuple>)>,
    ) -> Result<u64, RepositoryError> {
        {
            let store = self.inner.read();
            let Some(db) = store.instances.get(name) else {
                return Err(RepositoryError::NotFound(format!("instance `{name}`")));
            };
            for (rel_name, tuples) in &inserts {
                let Some(rel) = db.relation(rel_name) else {
                    return Err(RepositoryError::InvalidWrite {
                        detail: format!("no relation `{rel_name}` in instance `{name}`"),
                    });
                };
                let arity = rel.schema.arity();
                if let Some(t) = tuples.iter().find(|t| t.arity() != arity) {
                    return Err(RepositoryError::InvalidWrite {
                        detail: format!(
                            "arity mismatch inserting into `{rel_name}`: got {}, want {arity}",
                            t.arity()
                        ),
                    });
                }
            }
        }
        let owned = name.to_string();
        self.journal_apply(
            WalRecord::InstanceDelta { name: owned.clone(), inserts: inserts.clone() },
            move |store, seq| {
                store.instance_seqs.insert(owned.clone(), seq);
                apply_instance_delta_to(store, &owned, &inserts);
            },
        )
    }

    // --- the subscription registry -----------------------------------------

    /// Register (or replace) a change-feed subscription, WAL-first.
    /// Returns the commit sequence of the registration.
    pub fn register_subscription(&self, sub: Subscription) -> Result<u64, RepositoryError> {
        self.journal_apply(WalRecord::Subscription(sub.clone()), move |store, _seq| {
            store.subscriptions.insert(sub.id, sub);
        })
    }

    /// Drop a subscription from the registry.
    pub fn drop_subscription(&self, id: u64) -> Result<u64, RepositoryError> {
        if !self.inner.read().subscriptions.contains_key(&id) {
            return Err(RepositoryError::NotFound(format!("subscription #{id}")));
        }
        self.journal_apply(WalRecord::SubscriptionDrop { id }, move |store, _seq| {
            store.subscriptions.remove(&id);
        })
    }

    /// Durably advance a subscriber's resume cursor (monotone: a replay
    /// or a late ack can never move it backwards).
    pub fn advance_cursor(&self, id: u64, cursor: u64) -> Result<u64, RepositoryError> {
        if !self.inner.read().subscriptions.contains_key(&id) {
            return Err(RepositoryError::NotFound(format!("subscription #{id}")));
        }
        self.journal_apply(WalRecord::SubscriptionCursor { id, cursor }, move |store, _seq| {
            if let Some(sub) = store.subscriptions.get_mut(&id) {
                sub.cursor = sub.cursor.max(cursor);
            }
        })
    }

    /// A clone of one registered subscription.
    pub fn subscription(&self, id: u64) -> Option<Subscription> {
        self.inner.read().subscriptions.get(&id).cloned()
    }

    /// All registered subscriptions, in id order.
    pub fn subscriptions(&self) -> Vec<Subscription> {
        self.inner.read().subscriptions.values().cloned().collect()
    }

    /// Record an operator invocation. Journaled like a store: callers
    /// should store the output artifact *before* recording the edge, so
    /// a crash between the two can orphan an artifact but never dangle
    /// an edge.
    pub fn record(
        &self,
        operator: impl Into<String>,
        inputs: Vec<ArtifactId>,
        output: ArtifactId,
    ) -> Result<(), RepositoryError> {
        let edge = LineageEdge { operator: operator.into(), inputs, output };
        {
            let mut tx = self.tx.lock();
            let mut store = self.inner.write();
            if let Some(tx) = tx.as_mut() {
                tx.buffer.push(WalRecord::Lineage(edge.clone()));
            } else if let Some(d) = &self.durable {
                d.append_now(&[WalRecord::Lineage(edge.clone())], &self.telemetry)?;
            }
            store.lineage.push(edge);
        }
        Ok(())
    }

    /// All lineage edges (clone).
    pub fn lineage(&self) -> Vec<LineageEdge> {
        self.inner.read().lineage.clone()
    }

    /// Transitive inputs of an artifact — the static-lineage query of
    /// Microsoft Repository (§1.4).
    pub fn upstream(&self, of: &ArtifactId) -> Vec<ArtifactId> {
        let lineage = self.inner.read().lineage.clone();
        let mut out: Vec<ArtifactId> = Vec::new();
        let mut frontier = vec![of.clone()];
        while let Some(cur) = frontier.pop() {
            for e in &lineage {
                if e.output == cur {
                    for i in &e.inputs {
                        if !out.contains(i) && i != of {
                            out.push(i.clone());
                            frontier.push(i.clone());
                        }
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// Artifacts (transitively) derived from `of` — impact analysis.
    pub fn downstream(&self, of: &ArtifactId) -> Vec<ArtifactId> {
        let lineage = self.inner.read().lineage.clone();
        let mut out: Vec<ArtifactId> = Vec::new();
        let mut frontier = vec![of.clone()];
        while let Some(cur) = frontier.pop() {
            for e in &lineage {
                if e.inputs.contains(&cur) && !out.contains(&e.output) && e.output != *of {
                    out.push(e.output.clone());
                    frontier.push(e.output.clone());
                }
            }
        }
        out.sort();
        out
    }

    // --- transactions -----------------------------------------------------

    /// Begin a transaction: take a whole-store savepoint and start
    /// buffering journal records. One transaction at a time; writes from
    /// any thread while it is open belong to it (single-writer
    /// discipline is the caller's job, as with any savepoint API).
    pub fn begin(&self) -> Result<(), RepositoryError> {
        let mut tx = self.tx.lock();
        if tx.is_some() {
            return Err(RepositoryError::TransactionActive);
        }
        let store = self.inner.read();
        *tx = Some(TxState { savepoint: store.clone(), buffer: Vec::new() });
        Ok(())
    }

    /// Commit the open transaction. In durable mode the buffered records
    /// are flushed as **one** WAL batch frame — all-or-nothing against
    /// crashes — and a flush failure rolls the in-memory state back to
    /// the savepoint before surfacing the error, so memory and log never
    /// diverge.
    pub fn commit(&self) -> Result<(), RepositoryError> {
        {
            let mut tx = self.tx.lock();
            let Some(state) = tx.take() else {
                return Err(RepositoryError::NoTransaction);
            };
            if let Some(d) = &self.durable {
                if !state.buffer.is_empty() {
                    if let Err(e) = d.append_now(&state.buffer, &self.telemetry) {
                        *self.inner.write() = state.savepoint;
                        return Err(RepositoryError::Storage(e));
                    }
                }
            } else if !state.buffer.is_empty() {
                // ephemeral commits advance the feed cursor space too
                self.ephemeral_seq.fetch_add(1, Ordering::AcqRel);
            }
        }
        Ok(())
    }

    /// Abandon the open transaction, restoring the savepoint.
    pub fn rollback(&self) -> Result<(), RepositoryError> {
        let mut tx = self.tx.lock();
        let Some(state) = tx.take() else {
            return Err(RepositoryError::NoTransaction);
        };
        *self.inner.write() = state.savepoint;
        Ok(())
    }

    /// Is a transaction currently open?
    pub fn in_transaction(&self) -> bool {
        self.tx.lock().is_some()
    }

    // --- snapshots & checkpointing ----------------------------------------

    /// Compact the WAL into an atomically swapped snapshot:
    /// write-new-then-swap (`snapshot.tmp` → rename over `snapshot`),
    /// then reset the log. Never overwrites the live snapshot in place;
    /// a crash at any step leaves a recoverable state (see
    /// [`Repository::open_durable`]).
    pub fn checkpoint(&self) -> Result<(), RepositoryError> {
        let Some(d) = &self.durable else {
            return Err(RepositoryError::NotDurable);
        };
        let started = mm_telemetry::clock::now();
        // hold the tx lock throughout: writers queue behind it, so the
        // snapshot is a consistent cut, and no uncommitted transaction
        // state can leak into it
        let tx = self.tx.lock();
        if tx.is_some() {
            return Err(RepositoryError::TransactionActive);
        }
        let store = self.inner.read();
        let st = d.state.lock();
        let bytes = snapshot_bytes(&store, st.next_seq - 1);
        drop(store);
        d.storage.write(SNAPSHOT_TMP_FILE, &bytes)?;
        d.storage.rename(SNAPSHOT_TMP_FILE, SNAPSHOT_FILE)?;
        // from here the snapshot is authoritative; resetting the log is
        // best-effort (stale frames are skipped by sequence on recovery)
        d.wal.reset()?;
        self.telemetry.count(Counter::Checkpoints, 1);
        if let Some(m) = self.telemetry.metrics() {
            let elapsed = mm_telemetry::clock::elapsed_us(started);
            m.observe_us(Timer::Checkpoint, elapsed);
            m.observe_hist(Hist::WalCheckpointUs, elapsed);
        }
        Ok(())
    }

    /// Serialize the whole repository to a self-validating snapshot:
    /// magic, format version, last WAL sequence, CRC32 over the body.
    pub fn snapshot(&self) -> Bytes {
        let store = self.inner.read();
        let seq = self.durable.as_ref().map(|d| d.state.lock().next_seq - 1).unwrap_or(0);
        snapshot_bytes(&store, seq)
    }

    /// The canonical body encoding of the current state, without the
    /// snapshot header. Two repositories hold identical artifact and
    /// lineage state iff their `state_bytes` agree — the comparison the
    /// crash-recovery suite is built on.
    pub fn state_bytes(&self) -> Bytes {
        encode_store(&self.inner.read())
    }

    /// Restore an ephemeral repository from a snapshot.
    pub fn restore(bytes: Bytes) -> Result<Self, RepositoryError> {
        let (store, _) = decode_snapshot(bytes)?;
        Ok(Repository {
            inner: RwLock::new(store),
            tx: Mutex::new(None),
            durable: None,
            telemetry: Telemetry::disabled(),
            ephemeral_seq: AtomicU64::new(0),
        })
    }
}

fn apply_record(store: &mut Store, rec: WalRecord, seq: u64) {
    match rec {
        WalRecord::Schema { name, value } => {
            store.schemas.entry(name).or_default().push(value)
        }
        WalRecord::Mapping { name, value } => {
            store.mappings.entry(name).or_default().push(value)
        }
        WalRecord::ViewSet { name, value } => {
            store.viewsets.entry(name).or_default().push(value)
        }
        WalRecord::Correspondences { name, value } => {
            store.correspondences.entry(name).or_default().push(value)
        }
        WalRecord::Lineage(edge) => store.lineage.push(edge),
        WalRecord::Subscription(sub) => {
            store.subscriptions.insert(sub.id, sub);
        }
        WalRecord::SubscriptionDrop { id } => {
            store.subscriptions.remove(&id);
        }
        WalRecord::SubscriptionCursor { id, cursor } => {
            if let Some(sub) = store.subscriptions.get_mut(&id) {
                sub.cursor = sub.cursor.max(cursor);
            }
        }
        WalRecord::InstancePut { name, value } => {
            store.instance_seqs.insert(name.clone(), seq);
            store.instances.insert(name, value);
        }
        WalRecord::InstanceDelta { name, inserts } => {
            store.instance_seqs.insert(name.clone(), seq);
            apply_instance_delta_to(store, &name, &inserts);
        }
    }
}

/// Apply an insert-only delta to a tracked instance. Relations that do
/// not exist are skipped — the public write path validated the delta
/// before journaling, so this only arises for records hand-crafted
/// outside it, and replay must stay total (never panic on a log).
fn apply_instance_delta_to(store: &mut Store, name: &str, inserts: &[(String, Vec<Tuple>)]) {
    let Some(db) = store.instances.get_mut(name) else { return };
    for (rel_name, tuples) in inserts {
        if let Some(rel) = db.relation_mut(rel_name) {
            for t in tuples {
                rel.insert(t.clone());
            }
        }
    }
}

/// The v4 pool section: every distinct poolable text value in the
/// store's instances, in first-occurrence order (instance name →
/// relation → tuple insertion order → column), so a reload re-interns
/// them before any tuple decodes and the decoded databases land on warm
/// symbols with stable relative ids.
fn encode_pool_section(w: &mut Writer, store: &Store) {
    let mut seen: HashSet<&str> = HashSet::new();
    let mut strings: Vec<&str> = Vec::new();
    for db in store.instances.values() {
        for (_, rel) in db.relations() {
            for t in rel.iter() {
                for v in t.values() {
                    if let Some(s) = v.as_text() {
                        if s.len() <= mm_instance::intern::MAX_INTERN_LEN
                            && seen.insert(s)
                        {
                            strings.push(s);
                        }
                    }
                }
            }
        }
    }
    w.u32(strings.len() as u32);
    for s in strings {
        w.str(s);
    }
}

fn encode_store(store: &Store) -> Bytes {
    let mut w = Writer::new();
    encode_pool_section(&mut w, store);
    encode_versions(&mut w, &store.schemas);
    encode_versions(&mut w, &store.mappings);
    encode_versions(&mut w, &store.viewsets);
    encode_versions(&mut w, &store.correspondences);
    w.u32(store.lineage.len() as u32);
    for e in &store.lineage {
        e.encode(&mut w);
    }
    w.u32(store.subscriptions.len() as u32);
    for sub in store.subscriptions.values() {
        sub.encode(&mut w);
    }
    w.u32(store.instances.len() as u32);
    for (name, db) in &store.instances {
        w.str(name);
        w.u64(store.instance_seqs.get(name).copied().unwrap_or(0));
        db.encode(&mut w);
    }
    w.finish()
}

fn snapshot_bytes(store: &Store, seq: u64) -> Bytes {
    let body = encode_store(store);
    let mut w = Writer::new();
    w.u32(SNAPSHOT_MAGIC);
    w.u8(SNAPSHOT_VERSION);
    w.u64(seq);
    w.u32(crc32(&body));
    let mut out = w.finish().to_vec();
    out.extend_from_slice(&body);
    Bytes::from(out)
}

fn decode_snapshot(bytes: Bytes) -> Result<(Store, u64), RepositoryError> {
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return Err(RepositoryError::BadSnapshot {
            detail: format!(
                "truncated header: {} of {SNAPSHOT_HEADER_LEN} bytes",
                bytes.len()
            ),
        });
    }
    let mut r = Reader::new(bytes.slice(0..SNAPSHOT_HEADER_LEN));
    let magic = r.u32()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(RepositoryError::BadSnapshot {
            detail: format!("bad magic at offset 0: {magic:#010x}"),
        });
    }
    let version = r.u8()?;
    if version != SNAPSHOT_VERSION {
        return Err(RepositoryError::BadSnapshot {
            detail: format!("unsupported format version {version} at offset 4"),
        });
    }
    let seq = r.u64()?;
    let expected_crc = r.u32()?;
    let body = bytes.slice(SNAPSHOT_HEADER_LEN..bytes.len());
    let found_crc = crc32(&body);
    if found_crc != expected_crc {
        return Err(RepositoryError::BadSnapshot {
            detail: format!(
                "body checksum mismatch over offsets {SNAPSHOT_HEADER_LEN}..{}: \
                 expected {expected_crc:#010x}, found {found_crc:#010x}",
                bytes.len()
            ),
        });
    }
    let mut r = Reader::new(body);
    // pool section: bulk pre-intern. Interning is bounded (length and
    // pool-capacity caps) and infallible, so a corrupted section can
    // waste pool entries but never panic or fail recovery by itself —
    // the CRC above is the integrity gate.
    let n = r.seq_len()?;
    for _ in 0..n {
        let _ = mm_instance::intern::intern(r.str_ref()?);
    }
    let schemas = decode_versions::<Schema>(&mut r)?;
    let mappings = decode_versions::<Mapping>(&mut r)?;
    let viewsets = decode_versions::<ViewSet>(&mut r)?;
    let correspondences = decode_versions::<CorrespondenceSet>(&mut r)?;
    let lineage = r.seq(LineageEdge::decode)?;
    let n = r.seq_len()?;
    let mut subscriptions = BTreeMap::new();
    for _ in 0..n {
        let sub = Subscription::decode(&mut r)?;
        subscriptions.insert(sub.id, sub);
    }
    let n = r.seq_len()?;
    let mut instances = BTreeMap::new();
    let mut instance_seqs = BTreeMap::new();
    for _ in 0..n {
        let name = r.str()?;
        let event_seq = r.u64()?;
        if event_seq != 0 {
            instance_seqs.insert(name.clone(), event_seq);
        }
        instances.insert(name, Database::decode(&mut r)?);
    }
    Ok((
        Store {
            schemas,
            mappings,
            viewsets,
            correspondences,
            lineage,
            subscriptions,
            instances,
            instance_seqs,
        },
        seq,
    ))
}

fn encode_versions<T: Encode>(w: &mut Writer, map: &BTreeMap<String, Vec<T>>) {
    w.u32(map.len() as u32);
    for (name, versions) in map {
        w.str(name);
        w.u32(versions.len() as u32);
        for v in versions {
            v.encode(w);
        }
    }
}

fn decode_versions<T: Decode>(r: &mut Reader) -> Result<BTreeMap<String, Vec<T>>, DecodeError> {
    let n = r.seq_len()?;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let name = r.str()?;
        map.insert(name, r.seq(T::decode)?);
    }
    Ok(map)
}

impl Encode for ArtifactId {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self.kind {
            ArtifactKind::Schema => 0,
            ArtifactKind::Mapping => 1,
            ArtifactKind::ViewSet => 2,
            ArtifactKind::Correspondences => 3,
        });
        w.str(&self.name.name);
        w.u32(self.name.version);
    }
}

impl Decode for ArtifactId {
    fn decode(r: &mut Reader) -> Result<Self, DecodeError> {
        let kind = match r.u8()? {
            0 => ArtifactKind::Schema,
            1 => ArtifactKind::Mapping,
            2 => ArtifactKind::ViewSet,
            3 => ArtifactKind::Correspondences,
            t => return Err(DecodeError(format!("unknown artifact kind {t}"))),
        };
        Ok(ArtifactId { kind, name: VersionedName { name: r.str()?, version: r.u32()? } })
    }
}

impl Encode for LineageEdge {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.operator);
        w.seq(&self.inputs, |w, id| id.encode(w));
        self.output.encode(w);
    }
}

impl Decode for LineageEdge {
    fn decode(r: &mut Reader) -> Result<Self, DecodeError> {
        Ok(LineageEdge {
            operator: r.str()?,
            inputs: r.seq(ArtifactId::decode)?,
            output: ArtifactId::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use mm_expr::{Expr, MappingConstraint, ViewDef};
    use mm_metamodel::{DataType, SchemaBuilder};

    impl Repository {
        /// The sequence number of the last committed batch (durable mode).
        pub(crate) fn durable_seq(&self) -> Option<u64> {
            self.durable.as_ref().map(|d| d.state.lock().next_seq - 1)
        }
    }

    fn sample_schema(name: &str) -> Schema {
        SchemaBuilder::new(name)
            .relation("R", &[("a", DataType::Int)])
            .build()
            .unwrap()
    }

    #[test]
    fn versioning_is_monotone() {
        let repo = Repository::new();
        let v0 = repo.store_schema("S", sample_schema("S")).unwrap();
        let v1 = repo.store_schema("S", sample_schema("S")).unwrap();
        assert_eq!(v0.name.version, 0);
        assert_eq!(v1.name.version, 1);
        assert_eq!(repo.schema_versions("S"), 2);
        let (latest, id) = repo.latest_schema("S").unwrap();
        assert_eq!(id.name.version, 1);
        assert_eq!(latest.name, "S");
        assert!(repo.get_schema("S", 0).is_ok());
        assert!(repo.get_schema("S", 7).is_err());
    }

    #[test]
    fn lineage_upstream_downstream() {
        let repo = Repository::new();
        let s1 = repo.store_schema("S1", sample_schema("S1")).unwrap();
        let s2 = repo.store_schema("S2", sample_schema("S2")).unwrap();
        let m = repo
            .store_mapping(
                "m12",
                Mapping::with_constraints("S1", "S2", vec![MappingConstraint::ExprEq {
                    source: Expr::base("R"),
                    target: Expr::base("R"),
                }]),
            )
            .unwrap();
        repo.record("match", vec![s1.clone(), s2.clone()], m.clone()).unwrap();
        let mut vs = ViewSet::new("S1", "S2");
        vs.push(ViewDef::new("R", Expr::base("R")));
        let v = repo.store_viewset("v12", vs).unwrap();
        repo.record("transgen", vec![m.clone()], v.clone()).unwrap();

        let up = repo.upstream(&v);
        assert!(up.contains(&m));
        assert!(up.contains(&s1));
        assert!(up.contains(&s2));
        let down = repo.downstream(&s1);
        assert!(down.contains(&m));
        assert!(down.contains(&v));
        assert!(repo.upstream(&s1).is_empty());
    }

    #[test]
    fn snapshot_restores_everything() {
        let repo = Repository::new();
        let s = repo.store_schema("S", sample_schema("S")).unwrap();
        let m = repo
            .store_mapping(
                "m",
                Mapping::with_constraints("S", "T", vec![MappingConstraint::ExprEq {
                    source: Expr::base("R").project(&["a"]),
                    target: Expr::base("R2"),
                }]),
            )
            .unwrap();
        repo.record("modelgen", vec![s], m).unwrap();
        let mut cs = CorrespondenceSet::new("S", "T");
        cs.push(mm_expr::Correspondence::new(
            mm_expr::PathRef::attr("R", "a"),
            mm_expr::PathRef::attr("R2", "b"),
            0.9,
        ));
        repo.store_correspondences("c", cs).unwrap();

        let bytes = repo.snapshot();
        let restored = Repository::restore(bytes).unwrap();
        assert_eq!(restored.schema_versions("S"), 1);
        assert_eq!(restored.mapping_versions("m"), 1);
        assert_eq!(restored.correspondences_versions("c"), 1);
        assert_eq!(restored.lineage().len(), 1);
        assert_eq!(
            restored.get_mapping("m", 0).unwrap(),
            repo.get_mapping("m", 0).unwrap()
        );
    }

    #[test]
    fn bad_snapshot_rejected_with_detail() {
        match Repository::restore(Bytes::from_static(b"nope-and-padding-")) {
            Err(RepositoryError::BadSnapshot { detail }) => {
                assert!(detail.contains("magic"), "{detail}");
            }
            other => panic!("expected BadSnapshot, got {:?}", other.map(|_| ()).err()),
        }
        match Repository::restore(Bytes::from_static(b"x")) {
            Err(RepositoryError::BadSnapshot { detail }) => {
                assert!(detail.contains("truncated"), "{detail}");
            }
            other => panic!("expected BadSnapshot, got {:?}", other.map(|_| ()).err()),
        }
    }

    #[test]
    fn corrupted_snapshot_body_fails_checksum_with_offset_detail() {
        let repo = Repository::new();
        repo.store_schema("S", sample_schema("S")).unwrap();
        let pristine = repo.snapshot().to_vec();
        // flip one bit in every body byte position: always BadSnapshot,
        // never a garbled decode or bogus data
        for off in SNAPSHOT_HEADER_LEN..pristine.len() {
            let mut corrupt = pristine.clone();
            corrupt[off] ^= 0x01;
            match Repository::restore(Bytes::from(corrupt)) {
                Err(RepositoryError::BadSnapshot { detail }) => {
                    assert!(detail.contains("checksum"), "{detail}");
                    assert!(detail.contains("expected"), "{detail}");
                }
                other => panic!(
                    "offset {off}: expected BadSnapshot, got {:?}",
                    other.map(|_| ()).err()
                ),
            }
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let repo = Repository::new();
        repo.store_schema("S", sample_schema("S")).unwrap();
        let mut bytes = repo.snapshot().to_vec();
        bytes[4] = 9; // version byte
        match Repository::restore(Bytes::from(bytes)) {
            Err(RepositoryError::BadSnapshot { detail }) => {
                assert!(detail.contains("version 9"), "{detail}");
            }
            other => panic!("expected BadSnapshot, got {:?}", other.map(|_| ()).err()),
        }
    }

    #[test]
    fn v3_snapshot_is_refused() {
        // the header is outside the CRC, so this body still checksums:
        // only the version gate can refuse it
        let repo = Repository::new();
        repo.store_schema("S", sample_schema("S")).unwrap();
        let mut bytes = repo.snapshot().to_vec();
        bytes[4] = 3;
        match Repository::restore(Bytes::from(bytes)) {
            Err(RepositoryError::BadSnapshot { detail }) => {
                assert_eq!(detail, "unsupported format version 3 at offset 4");
            }
            other => panic!("expected BadSnapshot, got {:?}", other.map(|_| ()).err()),
        }
    }

    #[test]
    fn concurrent_reads_and_writes() {
        use std::sync::Arc;
        let repo = Arc::new(Repository::new());
        let mut handles = Vec::new();
        for i in 0..4 {
            let r = Arc::clone(&repo);
            handles.push(std::thread::spawn(move || {
                for j in 0..25 {
                    r.store_schema(format!("S{i}"), sample_schema(&format!("S{i}_{j}")))
                        .unwrap();
                    let _ = r.latest_schema(&format!("S{i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..4 {
            assert_eq!(repo.schema_versions(&format!("S{i}")), 25);
        }
    }

    #[test]
    fn durable_round_trip_via_wal_only() {
        let mem = MemStorage::new();
        {
            let repo =
                Repository::open_durable(mem.clone(), DurableOptions::default()).unwrap();
            let s = repo.store_schema("S", sample_schema("S")).unwrap();
            let m = repo
                .store_mapping(
                    "m",
                    Mapping::with_constraints("S", "T", vec![MappingConstraint::ExprEq {
                        source: Expr::base("R"),
                        target: Expr::base("U"),
                    }]),
                )
                .unwrap();
            repo.record("op", vec![s], m).unwrap();
            assert_eq!(repo.durable_seq(), Some(3));
        } // "crash": drop without checkpoint
        let reopened =
            Repository::open_durable(mem.clone(), DurableOptions::default()).unwrap();
        assert_eq!(reopened.schema_versions("S"), 1);
        assert_eq!(reopened.mapping_versions("m"), 1);
        assert_eq!(reopened.lineage().len(), 1);
        assert_eq!(reopened.durable_seq(), Some(3));
    }

    #[test]
    fn checkpoint_compacts_and_recovery_does_not_double_apply() {
        let mem = MemStorage::new();
        let repo = Repository::open_durable(mem.clone(), DurableOptions::default()).unwrap();
        repo.store_schema("S", sample_schema("S")).unwrap();
        repo.store_schema("S", sample_schema("S")).unwrap();
        repo.checkpoint().unwrap();
        assert_eq!(mem.len_of(WAL_FILE), None); // log reset
        repo.store_schema("T", sample_schema("T")).unwrap();
        drop(repo);
        let reopened =
            Repository::open_durable(mem.clone(), DurableOptions::default()).unwrap();
        assert_eq!(reopened.schema_versions("S"), 2); // exactly, not 4
        assert_eq!(reopened.schema_versions("T"), 1);
    }

    #[test]
    fn transaction_commit_is_one_frame_and_rollback_restores() {
        let mem = MemStorage::new();
        let repo = Repository::open_durable(mem.clone(), DurableOptions::default()).unwrap();
        repo.store_schema("base", sample_schema("base")).unwrap();
        let before = repo.state_bytes();

        repo.begin().unwrap();
        repo.store_schema("a", sample_schema("a")).unwrap();
        repo.store_schema("b", sample_schema("b")).unwrap();
        assert!(repo.in_transaction());
        repo.rollback().unwrap();
        assert_eq!(repo.state_bytes(), before);
        // nothing from the rolled-back tx reached the log
        let reopened =
            Repository::open_durable(mem.clone(), DurableOptions::default()).unwrap();
        assert_eq!(reopened.state_bytes(), before);

        repo.begin().unwrap();
        repo.store_schema("a", sample_schema("a")).unwrap();
        repo.store_schema("b", sample_schema("b")).unwrap();
        let seq_before = repo.durable_seq().unwrap();
        repo.commit().unwrap();
        assert_eq!(repo.durable_seq().unwrap(), seq_before + 1); // one frame
        let reopened =
            Repository::open_durable(mem.clone(), DurableOptions::default()).unwrap();
        assert_eq!(reopened.state_bytes(), repo.state_bytes());
    }

    #[test]
    fn nested_begin_and_stray_commit_are_typed_errors() {
        let repo = Repository::new();
        assert!(matches!(repo.commit(), Err(RepositoryError::NoTransaction)));
        assert!(matches!(repo.rollback(), Err(RepositoryError::NoTransaction)));
        repo.begin().unwrap();
        assert!(matches!(repo.begin(), Err(RepositoryError::TransactionActive)));
        repo.rollback().unwrap();
        assert!(matches!(repo.checkpoint(), Err(RepositoryError::NotDurable)));
    }
}
