//! Lexical name similarity.

use std::collections::{HashMap, HashSet};

/// Split an identifier into lowercase word tokens: `camelCase`,
/// `PascalCase`, `snake_case`, `kebab-case`, and digit boundaries all
/// split.
pub(crate) fn tokenize(name: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut prev_lower = false;
    for ch in name.chars() {
        if ch == '_' || ch == '-' || ch == ' ' || ch == '.' || ch == '$' {
            if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
            prev_lower = false;
            continue;
        }
        if ch.is_uppercase() && prev_lower
            && !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
        prev_lower = ch.is_lowercase() || ch.is_ascii_digit();
        cur.extend(ch.to_lowercase());
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// Dice coefficient over character trigrams of the lowercased names —
/// robust to abbreviation and truncation.
pub(crate) fn trigram_dice(a: &str, b: &str) -> f64 {
    let ta = trigrams(a);
    let tb = trigrams(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let sa: HashSet<&[char; 3]> = ta.iter().collect();
    let sb: HashSet<&[char; 3]> = tb.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    2.0 * inter / (sa.len() + sb.len()) as f64
}

fn trigrams(s: &str) -> Vec<[char; 3]> {
    let lower: Vec<char> = s.to_lowercase().chars().collect();
    if lower.len() < 3 {
        return Vec::new();
    }
    lower.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
}

/// Levenshtein distance, normalized into a similarity in `[0, 1]`.
pub(crate) fn edit_similarity(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.to_lowercase().chars().collect();
    let b: Vec<char> = b.to_lowercase().chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let dist = levenshtein(&a, &b) as f64;
    1.0 - dist / a.len().max(b.len()) as f64
}

fn levenshtein(a: &[char], b: &[char]) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// A symmetric, transitively closed synonym thesaurus over word tokens:
/// `add("cust", "customer")` and `add("client", "customer")` make
/// `cust`/`client` synonyms too (synonym groups, union-find style).
#[derive(Debug, Clone, Default)]
pub struct Thesaurus {
    /// token → group id
    group: HashMap<String, usize>,
    next_group: usize,
}

impl Thesaurus {
    pub fn new() -> Self {
        Self::default()
    }

    /// A thesaurus seeded with common database naming synonyms.
    pub(crate) fn with_defaults() -> Self {
        let mut t = Self::new();
        for (a, b) in [
            ("id", "identifier"),
            ("id", "key"),
            ("id", "no"),
            ("id", "num"),
            ("name", "title"),
            ("emp", "employee"),
            ("empl", "employee"),
            ("dept", "department"),
            ("cust", "customer"),
            ("client", "customer"),
            ("addr", "address"),
            ("qty", "quantity"),
            ("amt", "amount"),
            ("dob", "birthdate"),
            ("tel", "phone"),
            ("zip", "postcode"),
            ("staff", "employee"),
        ] {
            t.add(a, b);
        }
        t
    }

    pub fn add(&mut self, a: &str, b: &str) {
        let a = a.to_lowercase();
        let b = b.to_lowercase();
        match (self.group.get(&a).copied(), self.group.get(&b).copied()) {
            (None, None) => {
                let g = self.next_group;
                self.next_group += 1;
                self.group.insert(a, g);
                self.group.insert(b, g);
            }
            (Some(g), None) => {
                self.group.insert(b, g);
            }
            (None, Some(g)) => {
                self.group.insert(a, g);
            }
            (Some(ga), Some(gb)) if ga != gb => {
                // merge gb into ga
                for v in self.group.values_mut() {
                    if *v == gb {
                        *v = ga;
                    }
                }
            }
            _ => {}
        }
    }

    pub(crate) fn are_synonyms(&self, a: &str, b: &str) -> bool {
        a == b
            || matches!(
                (self.group.get(a), self.group.get(b)),
                (Some(x), Some(y)) if x == y
            )
    }

    /// Jaccard over tokens where synonym pairs count as intersecting.
    pub(crate) fn synonym_jaccard(&self, a: &[String], b: &[String]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let mut matched_b = vec![false; b.len()];
        let mut inter = 0usize;
        for ta in a {
            if let Some(j) = b
                .iter()
                .enumerate()
                .position(|(j, tb)| !matched_b[j] && self.are_synonyms(ta, tb))
            {
                matched_b[j] = true;
                inter += 1;
            }
        }
        let union = a.len() + b.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

/// Combined lexical similarity: the maximum of synonym-aware token
/// Jaccard, trigram Dice, and edit similarity. Max (not mean) because each
/// signal covers a different failure mode of the others.
pub(crate) fn name_similarity(a: &str, b: &str, thesaurus: &Thesaurus) -> f64 {
    let ta = tokenize(a);
    let tb = tokenize(b);
    let tok = thesaurus.synonym_jaccard(&ta, &tb);
    let tri = trigram_dice(a, b);
    let edit = edit_similarity(a, b);
    tok.max(tri).max(edit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_splits_conventions() {
        assert_eq!(tokenize("customerName"), ["customer", "name"]);
        assert_eq!(tokenize("Customer_NAME"), ["customer", "name"]);
        assert_eq!(tokenize("cust-name"), ["cust", "name"]);
        assert_eq!(tokenize("BillingAddr2"), ["billing", "addr2"]);
        assert_eq!(tokenize("$type"), ["type"]);
    }

    #[test]
    fn identical_names_score_one() {
        let t = Thesaurus::with_defaults();
        assert!((name_similarity("EmployeeId", "employee_id", &t) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn synonyms_raise_similarity() {
        let t = Thesaurus::with_defaults();
        let with = name_similarity("CustName", "ClientName", &t);
        let without = name_similarity("CustName", "ClientName", &Thesaurus::new());
        assert!(with > without);
        assert!(with >= 0.99);
    }

    #[test]
    fn unrelated_names_score_low() {
        let t = Thesaurus::with_defaults();
        assert!(name_similarity("Temperature", "InvoiceId", &t) < 0.35);
    }

    #[test]
    fn edit_similarity_bounds() {
        assert_eq!(edit_similarity("abc", "abc"), 1.0);
        assert_eq!(edit_similarity("", ""), 1.0);
        assert!(edit_similarity("abc", "xyz") <= 0.0 + 1e-9);
    }

    #[test]
    fn trigram_dice_handles_short_strings() {
        assert_eq!(trigram_dice("ab", "ab"), 1.0); // both empty trigram sets
        assert_eq!(trigram_dice("ab", "abcdef"), 0.0);
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein(&['a', 'b'], &['a', 'c']), 1);
        assert_eq!(levenshtein(&[], &['a']), 1);
        assert_eq!(levenshtein(&['k', 'i', 't', 't', 'e', 'n'], &['s', 'i', 't', 't', 'i', 'n', 'g']), 3);
    }
}
