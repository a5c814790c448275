//! Match memory: reusing previous matches (§3.1.1 lists "previous
//! matches" among the evidence a matcher can exploit; reuse is exactly
//! what makes repeated integration projects cheaper than the first one).
//!
//! The memory stores *confirmed* correspondences as normalized
//! token-sequence pairs, independent of which schemas they came from. A
//! later match run consults the memory to boost candidates whose names
//! were confirmed before — including across different schema pairs.

use crate::lexical::tokenize;
use mm_expr::{CorrespondenceSet, PathRef};
use std::collections::HashSet;

/// Normalized name pair: token sequences of the two sides.
type NamePair = (Vec<String>, Vec<String>);

/// A store of confirmed name pairs learned from past matching sessions.
#[derive(Debug, Clone, Default)]
pub struct MatchMemory {
    attribute_pairs: HashSet<NamePair>,
    element_pairs: HashSet<NamePair>,
}

/// How strongly memory evidence pulls a candidate's confidence toward
/// certainty: `c' = c + (1 - c) · MEMORY_WEIGHT`. A blend (rather than an
/// override) keeps strong *current* evidence in charge — a remembered
/// pair never outranks a near-exact live match.
pub const MEMORY_WEIGHT: f64 = 0.6;

impl MatchMemory {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(path: &PathRef) -> (Vec<String>, Option<Vec<String>>) {
        (
            tokenize(&path.element),
            path.attribute.as_deref().map(tokenize),
        )
    }

    /// Record one confirmed correspondence.
    pub fn remember(&mut self, source: &PathRef, target: &PathRef) {
        let (se, sa) = Self::key(source);
        let (te, ta) = Self::key(target);
        match (sa, ta) {
            (Some(sa), Some(ta)) => {
                self.attribute_pairs.insert((sa, ta));
            }
            (None, None) => {
                self.element_pairs.insert((se, te));
            }
            _ => {}
        }
    }

    /// Whether this (source, target) pair matches remembered history.
    pub(crate) fn knows(&self, source: &PathRef, target: &PathRef) -> bool {
        let (se, sa) = Self::key(source);
        let (te, ta) = Self::key(target);
        match (sa, ta) {
            (Some(sa), Some(ta)) => self.attribute_pairs.contains(&(sa, ta)),
            (None, None) => self.element_pairs.contains(&(se, te)),
            _ => false,
        }
    }

    /// Boost remembered candidates in a fresh match result and re-rank.
    /// Candidates absent from the result are *not* invented — memory is
    /// evidence, not an oracle (the schemas must still exhibit the pair) —
    /// and it *blends* with the live score rather than overriding it.
    pub fn apply(&self, candidates: &mut CorrespondenceSet) {
        for c in &mut candidates.correspondences {
            if self.knows(&c.source, &c.target) {
                c.confidence += (1.0 - c.confidence) * MEMORY_WEIGHT;
            }
        }
        candidates
            .correspondences
            .sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
    }

    pub fn len(&self) -> usize {
        self.attribute_pairs.len() + self.element_pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attribute_pairs.is_empty() && self.element_pairs.is_empty()
    }
}

/// Convenience: remember only the pairs the architect explicitly accepted
/// in an incremental session.
pub fn remember_session(memory: &mut MatchMemory, accepted: &[(PathRef, PathRef)]) {
    for (s, t) in accepted {
        memory.remember(s, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{match_schemas, MatchConfig};
    use mm_expr::Correspondence;
    use mm_metamodel::{DataType, SchemaBuilder};

    #[test]
    fn memory_is_schema_independent_and_case_insensitive() {
        let mut m = MatchMemory::new();
        m.remember(
            &PathRef::attr("Empl", "cust_no"),
            &PathRef::attr("Staff", "ClientNumber"),
        );
        // same names, different elements and case conventions
        assert!(m.knows(
            &PathRef::attr("Workers", "CustNo"),
            &PathRef::attr("People", "client_number"),
        ));
        assert!(!m.knows(
            &PathRef::attr("Workers", "CustNo"),
            &PathRef::attr("People", "phone"),
        ));
    }

    #[test]
    fn boost_reranks_a_remembered_pair_to_the_top() {
        // a source attribute whose correct target is lexically distant:
        // without memory the matcher ranks it low; with memory it wins
        let s = SchemaBuilder::new("S")
            .relation("Empl", &[("dob", DataType::Date)])
            .build()
            .unwrap();
        let t = SchemaBuilder::new("T")
            .relation("Staff", &[
                ("document", DataType::Date), // lexically closer to "dob"? no—distractor
                ("geboortedatum", DataType::Date),
            ])
            .build()
            .unwrap();
        let cfg = MatchConfig { threshold: 0.0, top_k: 5, ..Default::default() };
        let mut cs = match_schemas(&s, &t, &cfg);
        let src = PathRef::attr("Empl", "dob");
        let before: Vec<_> =
            cs.candidates_for(&src).into_iter().cloned().collect();
        // sanity: the foreign-language target is not the top candidate
        assert_ne!(before[0].target, PathRef::attr("Staff", "geboortedatum"));

        let mut memory = MatchMemory::new();
        memory.remember(
            &PathRef::attr("AnyOldSchema", "dob"),
            &PathRef::attr("Whatever", "geboortedatum"),
        );
        memory.apply(&mut cs);
        let after = cs.candidates_for(&src);
        assert_eq!(after[0].target, PathRef::attr("Staff", "geboortedatum"));
        assert!(after[0].confidence > before[0].confidence);
    }

    #[test]
    fn memory_never_invents_candidates() {
        let mut cs = CorrespondenceSet::new("S", "T");
        cs.push(Correspondence::new(
            PathRef::attr("A", "x"),
            PathRef::attr("B", "y"),
            0.5,
        ));
        let mut memory = MatchMemory::new();
        memory.remember(&PathRef::attr("A", "z"), &PathRef::attr("B", "w"));
        memory.apply(&mut cs);
        assert_eq!(cs.len(), 1); // nothing added
        assert_eq!(cs.correspondences[0].confidence, 0.5); // nothing boosted
    }
}
