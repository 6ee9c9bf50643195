//! Strongly-typed integer identifiers.
//!
//! Every entity in the system (graph node, entity type, attribute type,
//! vocabulary word) is referred to by a `u32` newtype. Using 4-byte ids keeps
//! the adjacency rows and the path indexes compact (the per-word path indexes
//! are the dominant memory consumer, cf. Figure 6 of the paper) and makes ids
//! `Copy`, hashable and directly usable as array offsets.

use std::fmt;

/// Common behaviour of all id newtypes: conversion to/from raw `u32`/`usize`.
pub trait Id: Copy + Eq + Ord + std::hash::Hash + fmt::Debug {
    /// Build an id from a raw index. Panics in debug builds on overflow.
    fn from_usize(i: usize) -> Self;
    /// The raw index, usable as an array offset.
    fn index(self) -> usize;
    /// Build from the raw `u32` representation.
    fn from_u32(i: u32) -> Self;
    /// The raw `u32` representation.
    fn as_u32(self) -> u32;
}

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(transparent)]
        pub struct $name(pub u32);

        impl Id for $name {
            #[inline]
            fn from_usize(i: usize) -> Self {
                debug_assert!(i <= u32::MAX as usize, "id overflow");
                $name(i as u32)
            }
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
            #[inline]
            fn from_u32(i: u32) -> Self {
                $name(i)
            }
            #[inline]
            fn as_u32(self) -> u32 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(v: $name) -> usize {
                v.0 as usize
            }
        }
    };
}

define_id!(
    /// A node (entity) in the knowledge graph.
    NodeId
);
define_id!(
    /// An entity type `τ(v) ∈ C` (e.g. `Software`, `Company`, `Person`).
    TypeId
);
define_id!(
    /// An attribute (edge) type `α(e) ∈ A` (e.g. `Developer`, `Revenue`).
    AttrId
);
define_id!(
    /// A canonical vocabulary word (post tokenization/stemming/synonyms).
    WordId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let n = NodeId::from_usize(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n.as_u32(), 42);
        assert_eq!(NodeId::from_u32(42), n);
        assert_eq!(usize::from(n), 42);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(TypeId(0) < TypeId(100));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", AttrId(7)), "7");
        assert_eq!(format!("{:?}", AttrId(7)), "AttrId(7)");
        assert_eq!(format!("{:?}", WordId(3)), "WordId(3)");
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; the test documents intent.
        fn takes_node(_: NodeId) {}
        takes_node(NodeId(0));
    }
}
