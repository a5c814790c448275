//! Structural similarity propagation (similarity-flooding style).
//!
//! The idea of Melnik's similarity flooding: similarity between two nodes
//! flows to their neighbours. Here the graph is bipartite-pairs of
//! (source element, target element) and (source attribute, target
//! attribute), with edges between an element pair and each of its
//! attribute pairs, and between entity-type pairs and their parent pairs.
//! A few damped iterations propagate initial (lexical/type) scores.

use mm_metamodel::Schema;
use std::collections::HashMap;

/// Key for a pair node in the propagation graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PairNode {
    Element { source: String, target: String },
    Attribute { source: (String, String), target: (String, String) },
}

/// The propagation graph plus current scores.
pub struct Flooding {
    pub scores: HashMap<PairNode, f64>,
    edges: Vec<(PairNode, PairNode)>,
}

impl Flooding {
    /// Build the pair graph for all element pairs of `source` × `target`
    /// with the given initial scores.
    pub fn new(
        source: &Schema,
        target: &Schema,
        initial: HashMap<PairNode, f64>,
    ) -> Self {
        let mut edges = Vec::new();
        for se in source.elements() {
            for te in target.elements() {
                let elem_pair = PairNode::Element {
                    source: se.name.clone(),
                    target: te.name.clone(),
                };
                for sa in &se.attributes {
                    for ta in &te.attributes {
                        let attr_pair = PairNode::Attribute {
                            source: (se.name.clone(), sa.name.clone()),
                            target: (te.name.clone(), ta.name.clone()),
                        };
                        edges.push((elem_pair.clone(), attr_pair));
                    }
                }
                // parent pair edge: subtype similarity should flow from
                // supertype similarity and vice versa
                if let (Some(sp), Some(tp)) =
                    (source.parent_of(&se.name), target.parent_of(&te.name))
                {
                    edges.push((
                        elem_pair.clone(),
                        PairNode::Element { source: sp.to_string(), target: tp.to_string() },
                    ));
                }
            }
        }
        Flooding { scores: initial, edges }
    }

    /// Run `iterations` damped propagation steps:
    /// `s'(n) = (1-α)·s(n) + α·mean of neighbour scores`, then normalize
    /// by the global maximum (the classic flooding normalization).
    pub fn run(&mut self, iterations: usize, alpha: f64) {
        for _ in 0..iterations {
            let mut incoming: HashMap<&PairNode, (f64, usize)> = HashMap::new();
            for (a, b) in &self.edges {
                let sa = self.scores.get(a).copied().unwrap_or(0.0);
                let sb = self.scores.get(b).copied().unwrap_or(0.0);
                let ea = incoming.entry(a).or_insert((0.0, 0));
                ea.0 += sb;
                ea.1 += 1;
                let eb = incoming.entry(b).or_insert((0.0, 0));
                eb.0 += sa;
                eb.1 += 1;
            }
            let mut next: HashMap<PairNode, f64> = HashMap::with_capacity(self.scores.len());
            let mut maxv: f64 = 0.0;
            let keys: Vec<PairNode> = self
                .scores
                .keys()
                .cloned()
                .chain(incoming.keys().map(|k| (*k).clone()))
                .collect();
            for k in keys {
                if next.contains_key(&k) {
                    continue;
                }
                let own = self.scores.get(&k).copied().unwrap_or(0.0);
                let nb = incoming
                    .get(&k)
                    .map(|(sum, n)| if *n > 0 { sum / *n as f64 } else { 0.0 })
                    .unwrap_or(0.0);
                let v = (1.0 - alpha) * own + alpha * nb;
                maxv = maxv.max(v);
                next.insert(k, v);
            }
            if maxv > 0.0 {
                for v in next.values_mut() {
                    *v /= maxv;
                }
            }
            self.scores = next;
        }
    }

    pub(crate) fn attribute_score(&self, se: &str, sa: &str, te: &str, ta: &str) -> f64 {
        self.scores
            .get(&PairNode::Attribute {
                source: (se.to_string(), sa.to_string()),
                target: (te.to_string(), ta.to_string()),
            })
            .copied()
            .unwrap_or(0.0)
    }

    pub(crate) fn element_score(&self, se: &str, te: &str) -> f64 {
        self.scores
            .get(&PairNode::Element { source: se.to_string(), target: te.to_string() })
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_metamodel::{DataType, SchemaBuilder};

    fn schemas() -> (Schema, Schema) {
        let s = SchemaBuilder::new("S")
            .relation("Empl", &[("EID", DataType::Int), ("Name", DataType::Text)])
            .relation("Proj", &[("PID", DataType::Int), ("Title", DataType::Text)])
            .build()
            .unwrap();
        let t = SchemaBuilder::new("T")
            .relation("Staff", &[("SID", DataType::Int), ("Name", DataType::Text)])
            .relation("Project", &[("Id", DataType::Int), ("Title", DataType::Text)])
            .build()
            .unwrap();
        (s, t)
    }

    #[test]
    fn strong_attribute_pairs_lift_their_element_pair() {
        let (s, t) = schemas();
        let mut initial = HashMap::new();
        // only seed exact-name attribute pairs
        initial.insert(
            PairNode::Attribute {
                source: ("Empl".into(), "Name".into()),
                target: ("Staff".into(), "Name".into()),
            },
            1.0,
        );
        initial.insert(
            PairNode::Attribute {
                source: ("Proj".into(), "Title".into()),
                target: ("Project".into(), "Title".into()),
            },
            1.0,
        );
        let mut fl = Flooding::new(&s, &t, initial);
        fl.run(3, 0.5);
        // element pairs with a strong attribute pair beat cross pairs
        assert!(fl.element_score("Empl", "Staff") > fl.element_score("Empl", "Project"));
        assert!(fl.element_score("Proj", "Project") > fl.element_score("Proj", "Staff"));
    }

    #[test]
    fn element_similarity_flows_down_to_attributes() {
        let (s, t) = schemas();
        let mut initial = HashMap::new();
        initial.insert(
            PairNode::Element { source: "Empl".into(), target: "Staff".into() },
            1.0,
        );
        let mut fl = Flooding::new(&s, &t, initial);
        fl.run(2, 0.5);
        // attribute pairs under the strong element pair get a boost over
        // attribute pairs under unrelated element pairs
        assert!(
            fl.attribute_score("Empl", "EID", "Staff", "SID")
                > fl.attribute_score("Proj", "PID", "Staff", "SID")
        );
    }

    #[test]
    fn scores_stay_normalized() {
        let (s, t) = schemas();
        let mut initial = HashMap::new();
        initial.insert(
            PairNode::Element { source: "Empl".into(), target: "Staff".into() },
            1.0,
        );
        let mut fl = Flooding::new(&s, &t, initial);
        fl.run(5, 0.7);
        for v in fl.scores.values() {
            assert!((0.0..=1.0).contains(v), "score out of range: {v}");
        }
        assert!(fl.scores.values().any(|v| (*v - 1.0).abs() < 1e-9));
    }
}
