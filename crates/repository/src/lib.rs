//! The metadata repository of Figure 1: versioned storage for schemas,
//! mappings, and view sets, with operator lineage between artifacts and
//! binary snapshots.
//!
//! The original model-management proposal grew out of Microsoft
//! Repository (§1.4); this crate is the modern, embeddable equivalent:
//! every operator invocation records a lineage edge from its inputs to
//! its output, supporting the impact-analysis and dependency-management
//! uses the paper attributes to the repository, while the artifacts
//! themselves are full mapping-language objects rather than "simple
//! relationships".
//!
//! Durability (DESIGN.md §9): [`Repository::open_durable`] layers a
//! checksummed write-ahead log ([`wal`]) and atomically swapped
//! snapshots over a pluggable [`storage::Storage`] backend, with a
//! fault-injecting wrapper ([`storage::FaultStorage`]) for crash
//! testing.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod codec;
pub mod storage;
pub mod store;
pub mod wal;

pub use storage::{
    FaultOp, FaultPlan, FaultStorage, MemStorage, Storage, StorageError, StorageLineSink,
};
pub use store::{
    ArtifactId, ArtifactKind, DurableOptions, LineageEdge, Repository, RepositoryError,
    Subscription, VersionedName, SNAPSHOT_FILE, SNAPSHOT_TMP_FILE, WAL_FILE,
};
pub use wal::{Wal, WalRecord, WalReplay};
