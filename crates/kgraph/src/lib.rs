//! # patternkb-graph
//!
//! Knowledge-graph substrate for the `patternkb` stack, reproducing the data
//! model of *"Finding Patterns in a Knowledge Base using Keywords to Compose
//! Table Answers"* (VLDB 2014), Section 2.1.
//!
//! A knowledge base is modeled as a directed graph `G = (V, E, τ, α)`:
//!
//! * every node is an **entity** labeled with a type `τ(v)` and free text;
//! * every edge is an **attribute** labeled with an attribute type `α(e)`;
//! * attribute values that are plain text become *dummy entities* carrying the
//!   reserved [`KnowledgeGraph::TEXT_TYPE`] type (the paper: "if `v.A` is
//!   plain text, we can create a dummy entity with text description exactly
//!   the same as the plain text").
//!
//! The crate provides:
//!
//! * compact adjacency-row storage, forward and reverse, in node chunks
//!   that graph versions share by reference ([`graph::KnowledgeGraph`]);
//! * string interners for types and attributes ([`interner::Interner`]);
//! * an incremental [`builder::GraphBuilder`];
//! * PageRank per Eq. (5) of the paper ([`pagerank`]);
//! * induced subgraphs for scalability experiments ([`subgraph`]);
//! * bounded simple-path traversal primitives ([`traversal`]);
//! * a versioned binary snapshot codec ([`snapshot`]);
//! * batched incremental mutation with id preservation ([`mutate`]) and
//!   name-to-id resolution for wire-level batches ([`resolve`]);
//! * the dataset summary the experiments report ([`stats`]).

#![warn(missing_docs)]

pub mod builder;
pub mod fxhash;
pub mod graph;
pub mod ids;
pub mod interner;
pub mod mutate;
pub mod pagerank;
pub mod resolve;
pub mod snapshot;
pub mod stats;
pub mod subgraph;
pub mod traversal;

pub use builder::GraphBuilder;
pub use fxhash::{FxHashMap, FxHashSet};
pub use graph::KnowledgeGraph;
pub use ids::{AttrId, NodeId, TypeId, WordId};
pub use resolve::{NameResolver, ResolveError};
pub use stats::GraphStats;
