//! Insertion-ordered string dictionary, one per string column.
//!
//! Codes are assigned monotonically in first-appearance order and
//! never recycled. That ordering is load-bearing: a sealed segment's
//! min/max code zone map can prune an equality predicate exactly
//! because codes are comparable in the order they were minted, and
//! replaying the same append sequence mints the same codes — the
//! dictionary is as deterministic as the row stream.

use std::collections::HashMap;

/// One column's word table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Dictionary {
    words: Vec<String>,
    index: HashMap<String, u32>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// The code for `word`, minting the next one on first appearance.
    pub fn intern(&mut self, word: &str) -> u32 {
        if let Some(code) = self.index.get(word) {
            return *code;
        }
        // Invariant: 2³² distinct words would need > 100 GB of word table
        // (≥ 24 bytes of `String` header each, twice), so the process is
        // out of memory long before a code fails to fit; the codec's
        // word count is a `u32` for the same reason.
        let code = u32::try_from(self.words.len()).expect("dictionary holds < 2^32 words");
        self.words.push(word.to_string());
        self.index.insert(word.to_string(), code);
        code
    }

    /// The code for `word`, if it was ever interned.
    pub fn code(&self, word: &str) -> Option<u32> {
        self.index.get(word).copied()
    }

    /// The word behind `code`.
    pub fn word(&self, code: u32) -> &str {
        &self.words[code as usize]
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when no word was interned yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The words in code order (codec export).
    pub(crate) fn words(&self) -> &[String] {
        &self.words
    }

    /// Rebuilds a dictionary from its code-ordered word list.
    pub(crate) fn from_words(words: Vec<String>) -> Self {
        let index = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i as u32))
            .collect();
        Dictionary { words, index }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_insertion_ordered_and_stable() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("cms"), 0);
        assert_eq!(d.intern("atlas"), 1);
        assert_eq!(d.intern("cms"), 0, "re-interning returns the old code");
        assert_eq!(d.code("atlas"), Some(1));
        assert_eq!(d.code("alice"), None);
        assert_eq!(d.word(1), "atlas");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn roundtrips_through_word_list() {
        let mut d = Dictionary::new();
        for w in ["a", "b", "c"] {
            d.intern(w);
        }
        let back = Dictionary::from_words(d.words().to_vec());
        assert_eq!(back, d);
    }
}
