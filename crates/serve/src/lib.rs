//! # patternkb-serve
//!
//! The production serving layer: an HTTP/1.1 server over
//! [`patternkb_search::SharedEngine`] that turns the engine into an
//! operable service — the missing piece between "answers one query fast"
//! and "serves sustained concurrent traffic". Std-only by design: the
//! workspace builds offline against vendored path crates, and a serving
//! layer with zero external dependencies keeps it that way.
//!
//! ## What it provides
//!
//! * **An admission gate** ([`server`]): each search runs on the
//!   connection thread that read it, once it holds one of `workers`
//!   turns, so engine concurrency is bounded regardless of open
//!   connections; with `queue_capacity` searches already waiting a
//!   newcomer sheds instantly with `429 Retry-After`, and a request whose
//!   deadline passes before its turn leaves with `503` before any search
//!   work (backpressure, not queue collapse).
//! * **The JSON wire API** ([`api`], [`json`]): strict request parsing
//!   (unknown/ill-typed fields are 400s naming the field) mapping 1:1
//!   onto [`patternkb_search::SearchRequest`] /
//!   [`patternkb_search::SearchResponse`].
//! * **Observability** ([`metrics`]): `GET /metrics` in Prometheus text
//!   format — request counts by route/status, a latency histogram, queue
//!   depth, shed counts, cache hit rate, per-shard work, epoch/version.
//! * **The online write path** ([`server`], [`api`]): `POST
//!   /admin/ingest` accepts a JSON mutation batch (`add_node`,
//!   `add_edge`, `add_text_edge`, `remove_edge` by stable names/ids),
//!   compiles it into a [`patternkb_graph::mutate::GraphDelta`] and
//!   applies it through
//!   [`patternkb_search::SharedEngine::ingest_with`]'s incremental index
//!   refresh — never a full rebuild, and reads keep serving the old
//!   snapshot until the pointer swap. Racing ingests serialize.
//! * **Lifecycle** ([`server`]): `POST /admin/reload` hot-swaps a
//!   rebuilt engine ([`patternkb_search::SharedEngine::replace`]) while
//!   in-flight queries finish on the old epoch; `POST /admin/shutdown`
//!   (or [`Server::trigger_shutdown`]) drains gracefully.
//!
//! ## Endpoints
//!
//! | Method | Path              | Purpose                                   |
//! |--------|-------------------|-------------------------------------------|
//! | POST   | `/search`         | One keyword query (JSON body)             |
//! | GET    | `/healthz`        | Liveness (503 while draining)             |
//! | GET    | `/metrics`        | Prometheus text exposition                |
//! | POST   | `/admin/ingest`   | Online mutation batch (incremental)       |
//! | POST   | `/admin/reload`   | Hot snapshot swap (rebuild + epoch bump)  |
//! | POST   | `/admin/shutdown` | Graceful drain + stop                     |
//!
//! See the repository README's "Serving" section for the request/response
//! schema and the backpressure knobs, and `patternkb-cli serve` for the
//! ready-made binary entry point.
//!
//! ```no_run
//! use patternkb_search::EngineBuilder;
//! use patternkb_serve::{ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let (graph, _) = patternkb_datagen::figure1();
//! let engine = Arc::new(EngineBuilder::new().graph(graph).build_shared()?);
//! let server = Server::start(
//!     engine,
//!     None, // no reload source
//!     ServeConfig {
//!         addr: "127.0.0.1:7878".into(),
//!         ..ServeConfig::default()
//!     },
//! )?;
//! println!("listening on {}", server.local_addr());
//! server.join(); // until POST /admin/shutdown
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;

pub use json::Json;
pub use metrics::ServerMetrics;
pub use server::{ReloadFn, ServeConfig, Server};
