//! The canonical word space.
//!
//! A [`Vocabulary`] interns canonical word forms (tokenize → stem →
//! synonym) into dense [`WordId`]s. All downstream structures — the keyword
//! match index and both path-pattern indexes — key on these ids, which is
//! exactly how the paper shares index entries between a word, its stemmed
//! version, and its synonyms (§3).

use crate::stem::Stemmer;
use crate::synonyms::SynonymTable;
use patternkb_graph::interner::Interner;
use patternkb_graph::WordId;

/// Canonical-word interner plus the normalization pipeline.
#[derive(Clone, Debug)]
pub struct Vocabulary {
    words: Interner<WordId>,
    synonyms: SynonymTable,
    stemmer: Stemmer,
}

impl Default for Vocabulary {
    fn default() -> Self {
        Self::new(SynonymTable::new())
    }
}

impl Vocabulary {
    /// A vocabulary with the given synonym table and the default
    /// ([`Stemmer::Lite`]) stemmer.
    pub fn new(synonyms: SynonymTable) -> Self {
        Self::with_stemmer(synonyms, Stemmer::Lite)
    }

    /// A vocabulary normalizing through an explicit stemmer.
    pub fn with_stemmer(synonyms: SynonymTable, stemmer: Stemmer) -> Self {
        Vocabulary {
            words: Interner::new(),
            synonyms,
            stemmer,
        }
    }

    /// The stemmer this vocabulary normalizes through.
    pub fn stemmer(&self) -> Stemmer {
        self.stemmer
    }

    /// Normalize one raw token to its canonical string form.
    pub fn canonical_form(&self, token: &str) -> String {
        let lowered = token.to_ascii_lowercase();
        let stemmed = self.stemmer.apply(&lowered);
        self.synonyms.canonical(&stemmed).to_string()
    }

    /// Intern the canonical form of `token`, creating it if new.
    pub fn intern(&mut self, token: &str) -> WordId {
        let canon = self.canonical_form(token);
        self.words.get_or_intern(&canon)
    }

    /// Look up the canonical id of `token` without interning.
    pub fn lookup(&self, token: &str) -> Option<WordId> {
        let canon = self.canonical_form(token);
        self.words.get(&canon)
    }

    /// Look up an *already canonical* form (as returned by
    /// [`Self::resolve`]) without re-normalizing. Needed when remapping word
    /// ids between two vocabularies: stemming is not idempotent in general,
    /// so re-running the pipeline on a canonical form could miss.
    pub fn lookup_canonical(&self, canon: &str) -> Option<WordId> {
        self.words.get(canon)
    }

    /// Whether every id of `self` means the same canonical word in `other`
    /// — the *prefix rule* under which structures keyed by this
    /// vocabulary's ids stay valid against `other`. Interning is
    /// append-only, so it holds whenever `other` grew out of `self` (or
    /// interned the same texts in the same order).
    pub fn is_prefix_of(&self, other: &Vocabulary) -> bool {
        std::ptr::eq(self, other)
            || (self.len() <= other.len() && self.iter().zip(other.iter()).all(|(a, b)| a.1 == b.1))
    }

    /// The synonym table this vocabulary canonicalizes through.
    pub fn synonyms(&self) -> &SynonymTable {
        &self.synonyms
    }

    /// The canonical text behind a word id.
    pub fn resolve(&self, w: WordId) -> &str {
        self.words.resolve(w)
    }

    /// Number of canonical words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterate `(id, canonical text)`.
    pub fn iter(&self) -> impl Iterator<Item = (WordId, &str)> {
        self.words.iter()
    }

    /// Tokenize `text` and intern every token; returns the canonical ids in
    /// order (duplicates preserved).
    pub fn intern_text(&mut self, text: &str) -> Vec<WordId> {
        let mut out = Vec::new();
        crate::tokenize::for_each_token(text, |t| {
            let canon = {
                let lowered = t.to_ascii_lowercase();
                let stemmed = self.stemmer.apply(&lowered);
                self.synonyms.canonical(&stemmed).to_string()
            };
            out.push(self.words.get_or_intern(&canon));
        });
        out
    }

    /// Tokenize `text` into the *distinct, sorted* set of canonical ids —
    /// the token-set representation used for Jaccard similarity.
    pub fn intern_token_set(&mut self, text: &str) -> Vec<WordId> {
        let mut ids = self.intern_text(text);
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// [`Self::intern_token_set`] if it would intern nothing: `None` when
    /// some token of `text` is not in the vocabulary.
    pub fn known_token_set(&self, text: &str) -> Option<Vec<WordId>> {
        let mut ids = Vec::new();
        let mut known = true;
        crate::tokenize::for_each_token(text, |t| match self.lookup(t) {
            Some(id) => ids.push(id),
            None => known = false,
        });
        known.then(|| {
            ids.sort_unstable();
            ids.dedup();
            ids
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_share_ids() {
        let mut v = Vocabulary::default();
        let a = v.intern("Databases");
        let b = v.intern("database");
        assert_eq!(a, b);
    }

    #[test]
    fn synonyms_share_ids() {
        let mut v = Vocabulary::new(SynonymTable::default_english());
        let a = v.intern("movie");
        let b = v.intern("films");
        assert_eq!(a, b);
    }

    #[test]
    fn prefix_rule_compares_canonical_forms() {
        let mut a = Vocabulary::default();
        a.intern_text("alpha beta");
        let mut b = a.clone();
        assert!(a.is_prefix_of(&b) && b.is_prefix_of(&a));
        b.intern("gamma");
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a), "longer is never a prefix of shorter");
        // Same words, shifted ids.
        let mut c = Vocabulary::default();
        c.intern_text("gamma alpha beta");
        assert!(!a.is_prefix_of(&c));
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut v = Vocabulary::default();
        assert_eq!(v.lookup("ghost"), None);
        let id = v.intern("ghost");
        assert_eq!(v.lookup("ghosts"), Some(id));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn token_sets_are_sorted_unique() {
        let mut v = Vocabulary::default();
        let set = v.intern_token_set("big data, big databases, DATA");
        // "big", "data", "database" — sorted, dedup'd ("data" twice).
        assert_eq!(set.len(), 3);
        assert!(set.windows(2).all(|w| w[0] < w[1]));
    }
}
