//! The Compose operator (§6.1 of the paper).
//!
//! Given mappings `map12 : S1 → S2` and `map23 : S2 → S3`, the composition
//! `map12 ∘ map23` is the set of instance pairs ⟨D1, D3⟩ such that some D2
//! satisfies both mappings. This crate implements composition at the two
//! levels the paper discusses:
//!
//! * **Algebraic** ([`algebraic`]): functional mappings (view sets)
//!   compose by substitution — the Figure 6 schema-evolution example;
//! * **Logic** ([`sotgd`]): st-tgds are *not* closed under composition
//!   (Fagin et al.); the composition algorithm Skolemizes into second-
//!   order tgds, with a worst-case exponential output that only the
//!   governor's clause cap bounds (a trip is `ComposeError::Exec` with
//!   `BudgetExhausted { Clauses }`). [`deskolem`] tries to fold the
//!   result back into first-order st-tgds when the function terms allow
//!   it;
//! * **Transport** ([`transport`]): the instance-level semantics, used to
//!   validate the syntactic algorithms — chase through S2 and compare
//!   (up to homomorphic equivalence) with applying the composed mapping
//!   directly.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod algebraic;
pub mod deskolem;
pub mod sotgd;
pub mod transport;

pub use algebraic::{compose_expr_mappings, compose_views};
pub use deskolem::try_deskolemize;
pub use sotgd::{apply_sotgd, compose_st_tgds, ComposeError};
pub use transport::transport_via;
