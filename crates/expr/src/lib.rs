//! Mapping and query expression languages.
//!
//! §2 of the paper: "Given the tension between the expressiveness of
//! mapping constraints and the tractability of manipulating them, choosing
//! the mapping language is a major design challenge." This crate carries
//! the three representations the paper's three-step mapping design process
//! produces (§3.1):
//!
//! 1. **Correspondences** ([`mapping::Correspondence`]) — pairs of schema
//!    elements believed to be related, the output of Match;
//! 2. **Mapping constraints** — either logic-style *tgds / st-tgds /
//!    SO-tgds* ([`logic`]) or *equalities of algebra expressions*
//!    ([`mapping::MappingConstraint::ExprEq`], the paper's Figure 2 style);
//! 3. **Transformations** — functional mappings, i.e. view definitions
//!    ([`mapping::ViewDef`]) in the relational algebra of [`algebra`].
//!
//! The algebra doubles as the execution language of the mapping runtime
//! (`mm-eval`) and as TransGen's output language.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod algebra;
pub mod analyze;
pub mod literal;
pub mod logic;
pub mod mapping;
pub mod optimize;
pub mod rewrite;

pub use algebra::{AggFunc, AggSpec, CmpOp, Expr, Func, Predicate, Scalar};
pub use analyze::{entity_extent, output_schema, ExprError};
pub use literal::Lit;
pub use logic::{Atom, SoClause, SoTgd, Term, Tgd};
pub use optimize::optimize;
pub use mapping::{
    Correspondence, CorrespondenceSet, Mapping, MappingConstraint, PathRef, ViewDef, ViewSet,
};
