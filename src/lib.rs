//! # patternkb
//!
//! Facade crate re-exporting the whole stack: keyword search over knowledge
//! graphs that composes **table answers** from d-height tree patterns,
//! reproducing *"Finding Patterns in a Knowledge Base using Keywords to
//! Compose Table Answers"* (VLDB 2014).
//!
//! The public surface is a request/response API around three types plus
//! one serving handle:
//!
//! * [`EngineBuilder`](prelude::EngineBuilder) — fluent construction;
//! * [`SearchRequest`](prelude::SearchRequest) — what to search for and
//!   every knob, all defaultable;
//! * [`SearchResponse`](prelude::SearchResponse) — ranked patterns, table
//!   answers, the chosen algorithm, stats;
//! * [`SharedEngine`](prelude::SharedEngine) — the concurrent serving
//!   handle with the version-aware result cache built in.
//!
//! ## Quickstart
//!
//! ```
//! use patternkb::prelude::*;
//!
//! // The paper's Figure-1 running example.
//! let (graph, _) = patternkb::datagen::figure1();
//! let engine = EngineBuilder::new().graph(graph).height(3).build()?;
//! let response = engine.respond(
//!     &SearchRequest::text("database software company revenue").k(10),
//! )?;
//! let top = response.top().unwrap();
//! assert_eq!(top.num_trees, 2); // SQL Server and Oracle DB rows
//! println!("{}", response.top_table().unwrap().render(engine.graph(), top));
//! # Ok::<(), patternkb::search::Error>(())
//! ```
//!
//! Serving with live updates goes through the shared handle — same entry
//! point, plus snapshot-swap ingest and response caching:
//!
//! ```
//! use patternkb::prelude::*;
//!
//! let (graph, _) = patternkb::datagen::figure1();
//! let service = EngineBuilder::new()
//!     .graph(graph)
//!     .cache_capacity(512)
//!     .build_shared()?;
//! let req = SearchRequest::text("database company");
//! assert_eq!(service.respond(&req)?.cache, CacheOutcome::Miss);
//! assert_eq!(service.respond(&req)?.cache, CacheOutcome::Hit);
//! # Ok::<(), patternkb::search::Error>(())
//! ```
//!
//! ## Sharded execution
//!
//! The engine partitions its path indexes into **root-range shards**
//! (default: one per available core; knob:
//! [`EngineBuilder::shards`](prelude::EngineBuilder::shards)). Every query
//! runs one worker per shard and merges the per-shard top-k heaps, with
//! answers **bit-identical** to a single-shard engine;
//! `response.stats.per_shard` reports how the work split.
//!
//! ## Serving over HTTP
//!
//! The [`serve`] crate (`patternkb-serve`, std-only) wraps the shared
//! handle in a production HTTP server — an admission gate bounding the
//! searches that run and wait, with 429/503 load shedding,
//! Prometheus `/metrics`, and `/admin/reload` hot snapshot swap. Boot it
//! with `patternkb-cli serve <dataset>`; drive it with the `loadgen` bin
//! from `patternkb-bench`. See the README's "Serving" section.

pub use patternkb_datagen as datagen;
pub use patternkb_graph as graph;
pub use patternkb_index as index;
pub use patternkb_search as search;
pub use patternkb_serve as serve;
pub use patternkb_text as text;

/// The items most applications need.
pub mod prelude {
    pub use patternkb_graph::mutate::{GraphDelta, PagerankMode};
    pub use patternkb_graph::{GraphBuilder, KnowledgeGraph, NodeId};
    pub use patternkb_index::{BuildConfig, IndexStats};
    pub use patternkb_search::cache::QueryCache;
    pub use patternkb_search::concurrent::SharedEngine;
    pub use patternkb_search::presentation::{present, ColumnOrder, PresentationConfig};
    pub use patternkb_search::topk::SamplingConfig;
    pub use patternkb_search::{
        Algorithm, AlgorithmChoice, CacheOutcome, EngineBuilder, Error, Query, SearchConfig,
        SearchEngine, SearchRequest, SearchResponse, SearchResult, TableAnswer,
    };
    pub use patternkb_text::{Stemmer, SynonymTable};
}
