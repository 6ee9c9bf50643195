//! A simple append-only string interner.
//!
//! Entity types, attribute types and vocabulary words all live behind `u32`
//! ids; the interner provides the bijection between ids and their text. The
//! interner is append-only, so resolved `&str` references stay valid for the
//! lifetime of the interner, and `resolve` is a plain indexed load. Each
//! string is one shared allocation, held by both directions and by every
//! clone — copying an interner to extend it copies pointers, not text.

use crate::fxhash::FxHashMap;
use crate::ids::Id;
use std::marker::PhantomData;
use std::sync::Arc;

/// Bidirectional `str ⇄ I` mapping, generic over the id newtype.
#[derive(Clone, Default)]
pub struct Interner<I: Id> {
    strings: Vec<Arc<str>>,
    lookup: FxHashMap<Arc<str>, u32>,
    _marker: PhantomData<I>,
}

impl<I: Id> Interner<I> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            strings: Vec::new(),
            lookup: FxHashMap::default(),
            _marker: PhantomData,
        }
    }

    /// An empty interner with room for `cap` strings.
    pub fn with_capacity(cap: usize) -> Self {
        Interner {
            strings: Vec::with_capacity(cap),
            lookup: crate::fxhash::map_with_capacity(cap),
            _marker: PhantomData,
        }
    }

    /// Intern `s`, returning its id; repeated calls with the same text return
    /// the same id.
    pub fn get_or_intern(&mut self, s: &str) -> I {
        if let Some(&id) = self.lookup.get(s) {
            return I::from_u32(id);
        }
        let id = self.strings.len() as u32;
        let shared: Arc<str> = s.into();
        self.strings.push(Arc::clone(&shared));
        self.lookup.insert(shared, id);
        I::from_u32(id)
    }

    /// Id of `s` if it has already been interned.
    pub fn get(&self, s: &str) -> Option<I> {
        self.lookup.get(s).map(|&id| I::from_u32(id))
    }

    /// The text behind `id`.
    ///
    /// # Panics
    /// If `id` was not produced by this interner.
    pub fn resolve(&self, id: I) -> &str {
        &self.strings[id.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate `(id, text)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (I::from_usize(i), s.as_ref()))
    }

    /// Total bytes of interned text (used for index-size accounting).
    pub fn text_bytes(&self) -> usize {
        self.strings.iter().map(|s| s.len()).sum()
    }
}

impl<I: Id> std::fmt::Debug for Interner<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Interner({} strings)", self.strings.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TypeId;

    #[test]
    fn intern_and_resolve() {
        let mut i: Interner<TypeId> = Interner::new();
        let a = i.get_or_intern("Software");
        let b = i.get_or_intern("Company");
        let a2 = i.get_or_intern("Software");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "Software");
        assert_eq!(i.resolve(b), "Company");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_without_interning() {
        let mut i: Interner<TypeId> = Interner::new();
        assert_eq!(i.get("x"), None);
        let id = i.get_or_intern("x");
        assert_eq!(i.get("x"), Some(id));
    }

    #[test]
    fn iteration_in_id_order() {
        let mut i: Interner<TypeId> = Interner::with_capacity(3);
        i.get_or_intern("a");
        i.get_or_intern("b");
        i.get_or_intern("c");
        let collected: Vec<_> = i.iter().map(|(id, s)| (id.0, s.to_string())).collect();
        assert_eq!(
            collected,
            vec![(0, "a".into()), (1, "b".into()), (2, "c".into())]
        );
    }

    #[test]
    fn empty_string_is_a_valid_entry() {
        let mut i: Interner<TypeId> = Interner::new();
        let e = i.get_or_intern("");
        assert_eq!(i.resolve(e), "");
        assert_eq!(i.text_bytes(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ids::WordId;
    use proptest::prelude::*;

    proptest! {
        /// Interning is a bijection: resolve(intern(s)) == s and equal strings
        /// get equal ids.
        #[test]
        fn bijective(strings in proptest::collection::vec("[a-z]{0,8}", 0..50)) {
            let mut interner: Interner<WordId> = Interner::new();
            let ids: Vec<WordId> = strings.iter().map(|s| interner.get_or_intern(s)).collect();
            for (s, id) in strings.iter().zip(&ids) {
                prop_assert_eq!(interner.resolve(*id), s.as_str());
            }
            for i in 0..strings.len() {
                for j in 0..strings.len() {
                    prop_assert_eq!(ids[i] == ids[j], strings[i] == strings[j]);
                }
            }
        }
    }
}
