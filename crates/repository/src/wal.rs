//! The append-only write-ahead log of repository mutations.
//!
//! Every committed repository mutation — an artifact version stored, a
//! lineage edge recorded — becomes a [`WalRecord`] inside a *batch
//! frame* appended to a single log file through the [`Storage`]
//! abstraction. A frame is the unit of both atomicity and integrity:
//!
//! ```text
//! frame   := [u32 payload_len] [u32 crc32(payload)] [payload]
//! payload := [u64 seq] [u32 record_count] [record ...]
//! ```
//!
//! * **Atomicity** — a multi-operator transaction (e.g. one script)
//!   commits as a single frame, so a crash mid-append tears the whole
//!   batch off, never half of it.
//! * **Integrity** — the CRC32 over the payload catches torn writes and
//!   bit rot; [`Wal::replay`] returns the longest valid prefix and the
//!   byte offset where it ends, so recovery truncates cleanly to the
//!   last good frame instead of failing open or panicking.
//! * **Idempotent replay** — frames carry a strictly increasing sequence
//!   number; the snapshot header records the last sequence it includes,
//!   and recovery skips frames at or below it. A crash between the
//!   snapshot swap and the log reset therefore never double-applies.

use crate::codec::{crc32, Decode, DecodeResult, Encode, Reader, Writer};
use crate::storage::{Storage, StorageError};
use crate::store::{LineageEdge, Subscription};
use bytes::Bytes;
use mm_expr::{CorrespondenceSet, Mapping, ViewSet};
use mm_instance::{Database, Tuple};
use mm_metamodel::Schema;
use std::sync::Arc;

/// One logged repository mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    Schema { name: String, value: Schema },
    Mapping { name: String, value: Mapping },
    ViewSet { name: String, value: ViewSet },
    Correspondences { name: String, value: CorrespondenceSet },
    Lineage(LineageEdge),
    /// Register (or replace) a change-feed subscription. Journaled
    /// WAL-first like every artifact write, so a torn registration
    /// recovers to "no subscriber" — never a half-registered one.
    Subscription(Subscription),
    /// Drop a subscription from the registry.
    SubscriptionDrop { id: u64 },
    /// Durably advance a subscriber's resume cursor to a feed sequence
    /// it has acknowledged.
    SubscriptionCursor { id: u64, cursor: u64 },
    /// Create or replace a tracked base instance (bulk load writes one
    /// of these — a single amortized frame no matter the tuple count).
    InstancePut { name: String, value: Database },
    /// Insert-only delta against a tracked instance: per-relation tuple
    /// batches, one frame per committed batch.
    InstanceDelta { name: String, inserts: Vec<(String, Vec<Tuple>)> },
}

impl Encode for WalRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            WalRecord::Schema { name, value } => {
                w.u8(0);
                w.str(name);
                value.encode(w);
            }
            WalRecord::Mapping { name, value } => {
                w.u8(1);
                w.str(name);
                value.encode(w);
            }
            WalRecord::ViewSet { name, value } => {
                w.u8(2);
                w.str(name);
                value.encode(w);
            }
            WalRecord::Correspondences { name, value } => {
                w.u8(3);
                w.str(name);
                value.encode(w);
            }
            WalRecord::Lineage(edge) => {
                w.u8(4);
                edge.encode(w);
            }
            WalRecord::Subscription(sub) => {
                w.u8(5);
                sub.encode(w);
            }
            WalRecord::SubscriptionDrop { id } => {
                w.u8(6);
                w.u64(*id);
            }
            WalRecord::SubscriptionCursor { id, cursor } => {
                w.u8(7);
                w.u64(*id);
                w.u64(*cursor);
            }
            WalRecord::InstancePut { name, value } => {
                w.u8(8);
                w.str(name);
                value.encode(w);
            }
            WalRecord::InstanceDelta { name, inserts } => {
                w.u8(9);
                w.str(name);
                w.u32(inserts.len() as u32);
                for (rel, tuples) in inserts {
                    w.str(rel);
                    w.seq(tuples, |w, t| t.encode(w));
                }
            }
        }
    }
}

impl Decode for WalRecord {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => WalRecord::Schema { name: r.str()?, value: Schema::decode(r)? },
            1 => WalRecord::Mapping { name: r.str()?, value: Mapping::decode(r)? },
            2 => WalRecord::ViewSet { name: r.str()?, value: ViewSet::decode(r)? },
            3 => WalRecord::Correspondences {
                name: r.str()?,
                value: CorrespondenceSet::decode(r)?,
            },
            4 => WalRecord::Lineage(LineageEdge::decode(r)?),
            5 => WalRecord::Subscription(Subscription::decode(r)?),
            6 => WalRecord::SubscriptionDrop { id: r.u64()? },
            7 => WalRecord::SubscriptionCursor { id: r.u64()?, cursor: r.u64()? },
            8 => WalRecord::InstancePut { name: r.str()?, value: Database::decode(r)? },
            9 => WalRecord::InstanceDelta {
                name: r.str()?,
                inserts: r.seq(|r| Ok((r.str()?, r.seq(Tuple::decode)?)))?,
            },
            t => {
                return Err(crate::codec::DecodeError(format!("unknown WalRecord tag {t}")))
            }
        })
    }
}

/// The result of scanning a log: every decodable batch in order, plus
/// where the valid prefix ends.
#[derive(Debug)]
pub struct WalReplay {
    /// `(seq, records)` per valid frame, in log order.
    pub batches: Vec<(u64, Vec<WalRecord>)>,
    /// Byte offset one past the last valid frame.
    pub valid_len: usize,
    /// Total bytes in the log file.
    pub total_len: usize,
}

impl WalReplay {
    /// Did the scan stop before the end — i.e. is there a torn or
    /// corrupted tail that recovery should truncate away?
    pub(crate) fn truncated(&self) -> bool {
        self.valid_len < self.total_len
    }
}

/// The write-ahead log over a [`Storage`] file.
pub struct Wal {
    storage: Arc<dyn Storage>,
    file: String,
}

impl Wal {
    pub fn new(storage: Arc<dyn Storage>, file: impl Into<String>) -> Self {
        Wal { storage, file: file.into() }
    }

    /// The log's file name within its storage.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Append one committed batch as a single frame, returning the frame
    /// size in bytes (header + payload — what telemetry meters as WAL
    /// bytes appended). The frame only becomes visible to [`Wal::replay`]
    /// once every byte (including the trailing record bytes the CRC
    /// covers) is persisted — a torn append is indistinguishable from no
    /// append after recovery.
    pub(crate) fn append_batch(&self, seq: u64, records: &[WalRecord]) -> Result<usize, StorageError> {
        let mut body = Writer::new();
        body.u64(seq);
        body.u32(records.len() as u32);
        for rec in records {
            rec.encode(&mut body);
        }
        let payload = body.finish();
        let mut frame = Writer::new();
        frame.u32(payload.len() as u32);
        frame.u32(crc32(&payload));
        let mut bytes = frame.finish().to_vec();
        bytes.extend_from_slice(&payload);
        self.storage.append(&self.file, &bytes)?;
        Ok(bytes.len())
    }

    /// Scan the log, decoding the longest valid prefix of frames. Frames
    /// fail (and the scan stops) on: a truncated header or payload, a
    /// CRC mismatch, a payload that does not decode exactly, or a
    /// sequence number that is not strictly increasing.
    pub fn replay(&self) -> Result<WalReplay, StorageError> {
        let bytes = self.storage.read(&self.file)?.unwrap_or_else(Bytes::new);
        let total_len = bytes.len();
        let mut batches = Vec::new();
        let mut off = 0usize;
        let mut last_seq = 0u64;
        while off + 8 <= total_len {
            let len = u32::from_le_bytes([
                bytes[off],
                bytes[off + 1],
                bytes[off + 2],
                bytes[off + 3],
            ]) as usize;
            let crc = u32::from_le_bytes([
                bytes[off + 4],
                bytes[off + 5],
                bytes[off + 6],
                bytes[off + 7],
            ]);
            let start = off + 8;
            let Some(end) = start.checked_add(len).filter(|e| *e <= total_len) else {
                break; // torn: frame extends past the file
            };
            let payload = bytes.slice(start..end);
            if crc32(&payload) != crc {
                break; // torn or corrupted payload
            }
            let Some((seq, records)) = decode_payload(payload) else {
                break; // CRC collision on garbage — still refuse it
            };
            if !batches.is_empty() && seq <= last_seq {
                break; // sequence regression: corrupted frame boundary
            }
            last_seq = seq;
            batches.push((seq, records));
            off = end;
        }
        Ok(WalReplay { batches, valid_len: off, total_len })
    }

    /// Physically truncate the log to `len` bytes — recovery calls this
    /// to drop a torn tail so later appends extend the valid prefix.
    pub fn truncate(&self, len: usize) -> Result<(), StorageError> {
        self.storage.truncate(&self.file, len)
    }

    /// Reset the log to empty (after a snapshot made it redundant).
    pub fn reset(&self) -> Result<(), StorageError> {
        self.storage.delete(&self.file)
    }
}

fn decode_payload(payload: Bytes) -> Option<(u64, Vec<WalRecord>)> {
    let mut r = Reader::new(payload);
    let seq = r.u64().ok()?;
    let records = r.seq(WalRecord::decode).ok()?;
    if !r.is_empty() {
        return None; // trailing garbage inside a "valid" CRC — refuse
    }
    Some((seq, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use mm_metamodel::{DataType, SchemaBuilder};

    fn schema_record(name: &str) -> WalRecord {
        WalRecord::Schema {
            name: name.to_string(),
            value: SchemaBuilder::new(name)
                .relation("R", &[("a", DataType::Int)])
                .build()
                .unwrap(),
        }
    }

    #[test]
    fn append_replay_round_trips() {
        let mem = MemStorage::new();
        let wal = Wal::new(mem.clone(), "wal");
        wal.append_batch(1, &[schema_record("A")]).unwrap();
        wal.append_batch(2, &[schema_record("B"), schema_record("C")]).unwrap();
        let replay = wal.replay().unwrap();
        assert_eq!(replay.batches.len(), 2);
        assert_eq!(replay.batches[0].0, 1);
        assert_eq!(replay.batches[1].1.len(), 2);
        assert!(!replay.truncated());
        assert_eq!(replay.valid_len, replay.total_len);
    }

    #[test]
    fn torn_tail_truncates_to_last_good_frame() {
        let mem = MemStorage::new();
        let wal = Wal::new(mem.clone(), "wal");
        wal.append_batch(1, &[schema_record("A")]).unwrap();
        let good_len = mem.len_of("wal").unwrap();
        wal.append_batch(2, &[schema_record("B")]).unwrap();
        let full_len = mem.len_of("wal").unwrap();
        // tear the second frame at every byte offset: replay always
        // yields exactly the first frame
        for cut in good_len..full_len {
            let mut files = mem.dump();
            files.get_mut("wal").unwrap().truncate(cut);
            let torn = Wal::new(MemStorage::from_files(files), "wal");
            let replay = torn.replay().unwrap();
            assert_eq!(replay.batches.len(), 1, "cut at {cut}");
            assert_eq!(replay.valid_len, good_len, "cut at {cut}");
            assert_eq!(replay.truncated(), cut > good_len, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_never_panic_and_never_corrupt_accepted_frames() {
        let mem = MemStorage::new();
        let wal = Wal::new(mem.clone(), "wal");
        wal.append_batch(1, &[schema_record("A")]).unwrap();
        wal.append_batch(2, &[schema_record("B")]).unwrap();
        let pristine = mem.dump().remove("wal").unwrap();
        for byte in 0..pristine.len() {
            let mut flipped = pristine.clone();
            flipped[byte] ^= 0x40;
            let mut files = std::collections::BTreeMap::new();
            files.insert("wal".to_string(), flipped);
            let replay = Wal::new(MemStorage::from_files(files), "wal").replay().unwrap();
            // any accepted frame must be one of the two originals
            for (seq, records) in &replay.batches {
                assert!(*seq == 1 || *seq == 2);
                assert_eq!(records.len(), 1);
            }
        }
    }

    #[test]
    fn sequence_regression_stops_replay() {
        let mem = MemStorage::new();
        let wal = Wal::new(mem.clone(), "wal");
        wal.append_batch(5, &[schema_record("A")]).unwrap();
        wal.append_batch(3, &[schema_record("B")]).unwrap(); // regression
        let replay = wal.replay().unwrap();
        assert_eq!(replay.batches.len(), 1);
        assert!(replay.truncated());
    }
}
