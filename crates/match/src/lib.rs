//! Schema matching: computing correspondences between two schemas.
//!
//! §3.1.1 of the paper surveys matchers that "exploit lexical analysis of
//! element names, schema structure, data types, value distributions,
//! thesauri, ontologies, and previous matches", and argues that for
//! engineered mappings the matcher's job is to "return all viable
//! candidates for a given element, rather than only the best one". This
//! crate implements that stack:
//!
//! * [`lexical`] — tokenized name similarity (token Jaccard, trigram Dice,
//!   normalized edit distance) with a synonym thesaurus;
//! * [`typing`] — data-type compatibility scoring;
//! * [`structural`] — a similarity-flooding-style fixpoint that propagates
//!   similarity between elements and their attributes;
//! * [`matcher`] — the combiner producing ranked, top-k
//!   [`mm_expr::CorrespondenceSet`]s, plus an incremental session that
//!   re-ranks under user accept/reject feedback (the paper's "incremental
//!   schema matching").

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod lexical;
pub mod matcher;
pub mod memory;
pub mod structural;
pub mod typing;

pub use matcher::{match_schemas, IncrementalSession, MatchConfig};
pub use memory::{remember_session, MatchMemory, MEMORY_WEIGHT};
