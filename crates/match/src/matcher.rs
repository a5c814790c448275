//! The combining matcher and the incremental (human-in-the-loop) session.

// `expect` here re-raises worker-thread panics from scoped joins and
// documents enumerated-key invariants — not caller-facing failure modes
// (DESIGN.md §7).
#![allow(clippy::expect_used)]

use crate::lexical::{name_similarity, Thesaurus};
use crate::structural::{Flooding, PairNode};
use crate::typing::type_similarity;
use mm_expr::{Correspondence, CorrespondenceSet, PathRef};
use mm_metamodel::Schema;
use std::collections::HashMap;

/// Matcher configuration.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Weight of lexical name similarity in the initial attribute score.
    pub w_lexical: f64,
    /// Weight of data-type similarity in the initial attribute score.
    pub w_type: f64,
    /// Similarity-flooding iterations (0 disables structural propagation).
    pub flooding_iterations: usize,
    /// Flooding damping factor.
    pub flooding_alpha: f64,
    /// How much of the final score comes from flooding vs the initial
    /// (lexical+type) score.
    pub w_structural: f64,
    /// Minimum final score for a correspondence to be emitted.
    pub threshold: f64,
    /// Candidates kept per source attribute (the paper's "all viable
    /// candidates" point — keep k > 1 for engineered-mapping use).
    pub top_k: usize,
    /// Synonym thesaurus.
    pub thesaurus: Thesaurus,
    /// Number of worker threads for the pairwise scoring pass (1 =
    /// sequential). Scoring is embarrassingly parallel over source
    /// elements.
    pub threads: usize,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            w_lexical: 0.75,
            w_type: 0.25,
            flooding_iterations: 2,
            flooding_alpha: 0.4,
            w_structural: 0.35,
            threshold: 0.45,
            top_k: 3,
            thesaurus: Thesaurus::with_defaults(),
            threads: 1,
        }
    }
}

type AttrScore = ((String, String), (String, String), f64);

/// Compute the initial (lexical + type) scores for every attribute pair.
/// Parallelized over source elements with scoped threads when
/// `cfg.threads > 1`.
fn initial_attribute_scores(
    source: &Schema,
    target: &Schema,
    cfg: &MatchConfig,
) -> Vec<AttrScore> {
    let sources: Vec<_> = source.elements().collect();
    let score_one = |se: &mm_metamodel::Element| {
        let mut out = Vec::new();
        for te in target.elements() {
            for sa in &se.attributes {
                for ta in &te.attributes {
                    let lex = name_similarity(&sa.name, &ta.name, &cfg.thesaurus);
                    let typ = type_similarity(sa, ta);
                    let score = cfg.w_lexical * lex + cfg.w_type * typ;
                    out.push((
                        (se.name.clone(), sa.name.clone()),
                        (te.name.clone(), ta.name.clone()),
                        score,
                    ));
                }
            }
        }
        out
    };
    if cfg.threads <= 1 || sources.len() < 2 {
        sources.into_iter().flat_map(score_one).collect()
    } else {
        let chunks: Vec<&[&mm_metamodel::Element]> =
            sources.chunks(sources.len().div_ceil(cfg.threads)).collect();
        let mut results: Vec<Vec<AttrScore>> = Vec::new();
        crossbeam::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| scope.spawn(move |_| {
                    chunk.iter().flat_map(|e| score_one(e)).collect::<Vec<_>>()
                }))
                .collect();
            for h in handles {
                results.push(h.join().expect("matcher worker panicked"));
            }
        })
        .expect("crossbeam scope");
        results.into_iter().flatten().collect()
    }
}

/// Match two schemas, producing a ranked correspondence set containing
/// attribute-level correspondences (top-k per source attribute) and
/// element-level correspondences (best target element per source element).
pub fn match_schemas(source: &Schema, target: &Schema, cfg: &MatchConfig) -> CorrespondenceSet {
    let initial = initial_attribute_scores(source, target, cfg);

    // element-level initial score: lexical on element names
    let mut elem_initial: HashMap<(String, String), f64> = HashMap::new();
    for se in source.elements() {
        for te in target.elements() {
            elem_initial.insert(
                (se.name.clone(), te.name.clone()),
                name_similarity(&se.name, &te.name, &cfg.thesaurus),
            );
        }
    }

    // structural pass
    let flooded = if cfg.flooding_iterations > 0 {
        let mut seeds: HashMap<PairNode, f64> = HashMap::new();
        for (s, t, score) in &initial {
            seeds.insert(
                PairNode::Attribute { source: s.clone(), target: t.clone() },
                *score,
            );
        }
        for ((s, t), score) in &elem_initial {
            seeds.insert(
                PairNode::Element { source: s.clone(), target: t.clone() },
                *score,
            );
        }
        let mut fl = Flooding::new(source, target, seeds);
        fl.run(cfg.flooding_iterations, cfg.flooding_alpha);
        Some(fl)
    } else {
        None
    };

    let mut out = CorrespondenceSet::new(source.name.clone(), target.name.clone());

    // attribute correspondences
    let mut per_source: HashMap<(String, String), Vec<(PathRef, f64)>> = HashMap::new();
    for (s, t, init_score) in &initial {
        let structural = flooded
            .as_ref()
            .map(|fl| fl.attribute_score(&s.0, &s.1, &t.0, &t.1))
            .unwrap_or(0.0);
        let score =
            (1.0 - cfg.w_structural) * init_score + cfg.w_structural * structural;
        if score >= cfg.threshold {
            per_source
                .entry(s.clone())
                .or_default()
                .push((PathRef::attr(t.0.clone(), t.1.clone()), score));
        }
    }
    let mut sources: Vec<(String, String)> = per_source.keys().cloned().collect();
    sources.sort();
    for skey in sources {
        let mut cands = per_source.remove(&skey).expect("key enumerated");
        cands.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (target_ref, score) in cands.into_iter().take(cfg.top_k) {
            out.push(Correspondence::new(
                PathRef::attr(skey.0.clone(), skey.1.clone()),
                target_ref,
                score,
            ));
        }
    }

    // element correspondences: best target for each source element
    for se in source.elements() {
        let mut best: Option<(String, f64)> = None;
        for te in target.elements() {
            let init = elem_initial[&(se.name.clone(), te.name.clone())];
            let structural = flooded
                .as_ref()
                .map(|fl| fl.element_score(&se.name, &te.name))
                .unwrap_or(0.0);
            let score = (1.0 - cfg.w_structural) * init + cfg.w_structural * structural;
            if best.as_ref().map(|(_, b)| score > *b).unwrap_or(true) {
                best = Some((te.name.clone(), score));
            }
        }
        if let Some((t, score)) = best {
            if score >= cfg.threshold {
                out.push(Correspondence::new(
                    PathRef::element(se.name.clone()),
                    PathRef::element(t),
                    score,
                ));
            }
        }
    }
    out
}

/// An incremental matching session (the paper's "Incremental Schema
/// Matching", §3.1.1): the data architect confirms or rejects candidates
/// and the session re-ranks the rest.
#[derive(Debug, Clone)]
pub struct IncrementalSession {
    pub candidates: CorrespondenceSet,
    accepted: Vec<(PathRef, PathRef)>,
    rejected: Vec<(PathRef, PathRef)>,
}

impl IncrementalSession {
    pub fn new(candidates: CorrespondenceSet) -> Self {
        IncrementalSession { candidates, accepted: Vec::new(), rejected: Vec::new() }
    }

    /// Confirm a correspondence. Confirming `(s, t)`:
    /// * pins it at confidence 1.0;
    /// * removes other candidates for `s` and for `t` (1:1 assumption at
    ///   the attribute level);
    /// * boosts candidates whose elements agree with the confirmed pair's
    ///   elements (structural feedback).
    pub fn accept(&mut self, source: &PathRef, target: &PathRef) {
        self.accepted.push((source.clone(), target.clone()));
        let (se, te) = (source.element.clone(), target.element.clone());
        self.candidates.correspondences.retain(|c| {
            (&c.source != source && &c.target != target)
                || (&c.source == source && &c.target == target)
        });
        for c in &mut self.candidates.correspondences {
            if &c.source == source && &c.target == target {
                c.confidence = 1.0;
            } else if c.source.element == se && c.target.element == te {
                c.confidence = (c.confidence + 0.15).min(0.99);
            }
        }
        self.sort();
    }

    /// Reject a correspondence: it is removed and candidates crossing the
    /// same pair of elements are *not* penalized (a single bad attribute
    /// pair says little about its element pair).
    pub fn reject(&mut self, source: &PathRef, target: &PathRef) {
        self.rejected.push((source.clone(), target.clone()));
        self.candidates
            .correspondences
            .retain(|c| !(&c.source == source && &c.target == target));
    }

    pub fn accepted(&self) -> &[(PathRef, PathRef)] {
        &self.accepted
    }

    fn sort(&mut self) {
        self.candidates
            .correspondences
            .sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_metamodel::{DataType, SchemaBuilder};

    impl IncrementalSession {
        /// Remaining undecided candidates for a source path, best first.
        pub(crate) fn undecided(&self, source: &PathRef) -> Vec<&Correspondence> {
            self.candidates
                .candidates_for(source)
                .into_iter()
                .filter(|c| {
                    !self
                        .accepted
                        .iter()
                        .any(|(s, t)| s == &c.source && t == &c.target)
                })
                .collect()
        }
    }

    fn schemas() -> (Schema, Schema) {
        let s = SchemaBuilder::new("S")
            .relation("Empl", &[
                ("EID", DataType::Int),
                ("Name", DataType::Text),
                ("Tel", DataType::Text),
                ("AID", DataType::Int),
            ])
            .relation("Addr", &[("AID", DataType::Int), ("City", DataType::Text), ("Zip", DataType::Text)])
            .build()
            .unwrap();
        let t = SchemaBuilder::new("T")
            .relation("Staff", &[
                ("SID", DataType::Int),
                ("Name", DataType::Text),
                ("BirthDate", DataType::Date),
                ("City", DataType::Text),
            ])
            .build()
            .unwrap();
        (s, t)
    }

    #[test]
    fn exact_name_matches_rank_first() {
        let (s, t) = schemas();
        let cs = match_schemas(&s, &t, &MatchConfig::default());
        let name_c = cs.candidates_for(&PathRef::attr("Empl", "Name"));
        assert!(!name_c.is_empty());
        assert_eq!(name_c[0].target, PathRef::attr("Staff", "Name"));
        let city_c = cs.candidates_for(&PathRef::attr("Addr", "City"));
        assert_eq!(city_c[0].target, PathRef::attr("Staff", "City"));
    }

    #[test]
    fn element_correspondence_emitted_for_synonymous_relations() {
        let (s, t) = schemas();
        let cs = match_schemas(&s, &t, &MatchConfig::default());
        // Empl ~ Staff via the thesaurus (empl ↔ employee ↔ staff needs
        // two hops; direct empl↔staff is not seeded, but flooding +
        // shared Name/City attributes should still pick Staff)
        let elem = cs.candidates_for(&PathRef::element("Empl"));
        assert!(!elem.is_empty());
        assert_eq!(elem[0].target, PathRef::element("Staff"));
    }

    #[test]
    fn top_k_respected() {
        let (s, t) = schemas();
        let cfg = MatchConfig { top_k: 1, threshold: 0.0, ..Default::default() };
        let cs = match_schemas(&s, &t, &cfg);
        for se in s.elements() {
            for sa in &se.attributes {
                let c = cs.candidates_for(&PathRef::attr(se.name.clone(), sa.name.clone()));
                assert!(c.len() <= 1, "{}.{} has {} candidates", se.name, sa.name, c.len());
            }
        }
    }

    #[test]
    fn threshold_filters_noise() {
        let (s, t) = schemas();
        let strict = MatchConfig { threshold: 0.9, ..Default::default() };
        let cs = match_schemas(&s, &t, &strict);
        // only near-perfect pairs survive
        for c in &cs.correspondences {
            assert!(c.confidence >= 0.9 * 0.99, "{c}");
        }
    }

    #[test]
    fn parallel_scoring_matches_sequential() {
        let (s, t) = schemas();
        let seq = match_schemas(&s, &t, &MatchConfig { threads: 1, ..Default::default() });
        let par = match_schemas(&s, &t, &MatchConfig { threads: 4, ..Default::default() });
        // same sets (order within equal confidence may differ)
        assert_eq!(seq.len(), par.len());
        for c in &seq.correspondences {
            assert!(par
                .correspondences
                .iter()
                .any(|d| d.source == c.source && d.target == c.target));
        }
    }

    #[test]
    fn incremental_accept_prunes_competitors() {
        let (s, t) = schemas();
        let cs = match_schemas(&s, &t, &MatchConfig { threshold: 0.1, ..Default::default() });
        let mut sess = IncrementalSession::new(cs);
        let src = PathRef::attr("Empl", "Name");
        let tgt = PathRef::attr("Staff", "Name");
        sess.accept(&src, &tgt);
        // no other candidate for Empl.Name remains; the accepted one is 1.0
        let remaining = sess.candidates.candidates_for(&src);
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].confidence, 1.0);
        // nothing else targets Staff.Name
        assert!(!sess
            .candidates
            .correspondences
            .iter()
            .any(|c| c.target == tgt && c.source != src));
    }

    #[test]
    fn incremental_reject_removes_candidate() {
        let (s, t) = schemas();
        let cs = match_schemas(&s, &t, &MatchConfig { threshold: 0.1, ..Default::default() });
        let mut sess = IncrementalSession::new(cs);
        let src = PathRef::attr("Empl", "Tel");
        if let Some(first) = sess.undecided(&src).first().map(|c| c.target.clone()) {
            sess.reject(&src, &first);
            assert!(!sess
                .candidates
                .correspondences
                .iter()
                .any(|c| c.source == src && c.target == first));
        }
    }
}
