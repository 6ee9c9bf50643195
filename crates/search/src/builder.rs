//! Fluent engine construction.
//!
//! [`EngineBuilder`] gathers everything the old free-floating constructors
//! (`SearchEngine::build`, `build_with_stemmer`, `load_index`,
//! `SharedEngine::new` + caller-managed `QueryCache`) took as positional
//! arguments: the graph, the text pipeline (stemmer, synonyms), the index
//! height `d`, build parallelism, result-cache capacity, and an optional
//! index-snapshot path to skip Algorithm-1 construction. `build()` yields
//! an immutable [`SearchEngine`]; `build_shared()` yields the
//! [`SharedEngine`] serving handle with its version-aware cache built in.
//!
//! ```
//! # use patternkb_search::EngineBuilder;
//! # use patternkb_datagen::figure1;
//! let (graph, _) = figure1();
//! let engine = EngineBuilder::new()
//!     .graph(graph)
//!     .height(3)
//!     .threads(1)
//!     .build()
//!     .unwrap();
//! assert_eq!(engine.d(), 3);
//! ```

use crate::concurrent::SharedEngine;
use crate::durability::{self, Durability, DurabilityOptions};
use crate::engine::SearchEngine;
use crate::error::Error;
use patternkb_graph::KnowledgeGraph;
use patternkb_index::storage::{open_file, open_region, Region};
use patternkb_index::{build_indexes, BuildConfig, StorageBackend};
use patternkb_text::{Stemmer, SynonymTable, TextIndex};
use patternkb_wal::{checkpoint, Wal, WalOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Builds a [`SearchEngine`] or [`SharedEngine`]. See the module docs.
///
/// ```
/// use patternkb_search::{EngineBuilder, SearchRequest};
///
/// let (graph, _) = patternkb_datagen::figure1();
/// let engine = EngineBuilder::new()
///     .graph(graph)
///     .height(3)   // index height d
///     .shards(2)   // root-range shards (answers are bit-identical)
///     .threads(1)  // build parallelism
///     .build()
///     .unwrap();
/// let response = engine
///     .respond(&SearchRequest::text("database software company").k(5))
///     .unwrap();
/// assert!(!response.patterns.is_empty());
/// ```
#[derive(Debug)]
pub struct EngineBuilder {
    graph: Option<KnowledgeGraph>,
    synonyms: SynonymTable,
    stemmer: Stemmer,
    d: usize,
    threads: usize,
    shards: usize,
    cache_capacity: usize,
    index_snapshot: Option<PathBuf>,
    storage: StorageBackend,
    data_dir: Option<PathBuf>,
    durability: DurabilityOptions,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// A builder with the paper's defaults: `d = 3`, lite stemmer, no
    /// synonyms, all available cores for index construction, one index
    /// shard per available core, a 256-entry result cache.
    pub fn new() -> Self {
        EngineBuilder {
            graph: None,
            synonyms: SynonymTable::new(),
            stemmer: Stemmer::Lite,
            d: 3,
            threads: 0,
            shards: 0,
            cache_capacity: 256,
            index_snapshot: None,
            storage: StorageBackend::Heap,
            data_dir: None,
            durability: DurabilityOptions::default(),
        }
    }

    /// The knowledge graph to index (required).
    pub fn graph(mut self, graph: KnowledgeGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Synonym table folded into the canonical word-id space.
    pub fn synonyms(mut self, synonyms: SynonymTable) -> Self {
        self.synonyms = synonyms;
        self
    }

    /// Stemmer used at index and query time (see [`Stemmer`] for the
    /// Lite/Porter/None trade-offs).
    pub fn stemmer(mut self, stemmer: Stemmer) -> Self {
        self.stemmer = stemmer;
        self
    }

    /// Height threshold `d` for the path indexes (the paper uses 3–5).
    pub fn height(mut self, d: usize) -> Self {
        self.d = d;
        self
    }

    /// OS threads for index construction; 0 = available parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Root-range shards the index is partitioned into; queries run one
    /// worker per shard and merge at the top-k heap, with answers
    /// **bit-identical** to `shards(1)`. 0 (the default) = available
    /// parallelism. When loading an [`Self::index_snapshot`] the stored
    /// shard layout wins.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Capacity of the [`SharedEngine`] result cache (entries). Only
    /// `build_shared` uses it.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Load the path indexes from a previously saved snapshot instead of
    /// building them (cf. Figure 6 — construction dominates). The synonym
    /// table and stemmer must match the ones used at save time, and the
    /// stored height overrides [`Self::height`].
    pub fn index_snapshot(mut self, path: impl Into<PathBuf>) -> Self {
        self.index_snapshot = Some(path.into());
        self
    }

    /// How the [`Self::index_snapshot`] file is read; it changes nothing
    /// else. Either way the snapshot is *opened* (header, bounds, pattern
    /// keys and lexicon), not decoded: each word decodes on first query
    /// touch, so boot cost stops scaling with index size. Answers are
    /// bit-identical.
    ///
    /// * [`StorageBackend::Heap`] (default): the file is read into memory.
    /// * [`StorageBackend::Mmap`]: the file is mapped read-only, so the
    ///   image pages no query touched stay out of the resident set.
    ///
    /// The engine reports the tier its bytes are on: an index built from
    /// the graph, and a [`Self::data_dir`] boot (which opens the
    /// checkpoint's index blob in place in the buffer the file was read
    /// into), report [`StorageBackend::Heap`] whatever this says.
    pub fn storage(mut self, storage: StorageBackend) -> Self {
        self.storage = storage;
        self
    }

    /// Boot durably from (and persist ingests into) `dir`: load the
    /// newest checkpoint if one exists (skipping graph/index
    /// construction), replay the write-ahead log tail past it, and attach
    /// a [`Durability`] handle so every subsequent ingest is logged
    /// before it is acked ([`SharedEngine::ingest_with`]). With no
    /// checkpoint yet, the engine cold-builds from [`Self::graph`] as
    /// usual and the directory is created. `build_shared` opens the log
    /// read-write (truncating any torn tail); `build` replays it
    /// read-only and leaves the files untouched.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Checkpoint once the log exceeds this many bytes (with
    /// [`Self::data_dir`]).
    pub fn checkpoint_bytes(mut self, bytes: u64) -> Self {
        self.durability.checkpoint_bytes = bytes;
        self
    }

    /// Checkpoint once the log holds this many records (with
    /// [`Self::data_dir`]).
    pub fn checkpoint_records(mut self, records: u64) -> Self {
        self.durability.checkpoint_records = records;
        self
    }

    fn validate(&self) -> Result<(), Error> {
        if self.graph.is_none() {
            return Err(Error::MissingGraph);
        }
        let max_d = patternkb_index::build::MAX_D;
        if self.index_snapshot.is_none() && !(1..=max_d).contains(&self.d) {
            return Err(Error::InvalidRequest(format!(
                "height d must be in 1..={max_d}, got {}",
                self.d
            )));
        }
        Ok(())
    }

    /// Build the immutable engine. With [`Self::data_dir`], this is the
    /// *read-only* durable boot: newest checkpoint + log replay, without
    /// truncating the log or opening it for append.
    pub fn build(self) -> Result<SearchEngine, Error> {
        self.validate()?;
        match self.data_dir.clone() {
            None => self.build_cold(),
            Some(dir) => {
                let mut engine = self.boot_base(&dir)?;
                let summary =
                    patternkb_wal::replay(&dir.join(durability::WAL_FILE)).map_err(Error::Io)?;
                durability::replay_records(&mut engine, &summary.records);
                Ok(engine)
            }
        }
    }

    /// The cold path of [`Self::build`]: construct everything from the
    /// given graph (or index snapshot), ignoring any data dir.
    fn build_cold(self) -> Result<SearchEngine, Error> {
        let EngineBuilder {
            graph,
            synonyms,
            stemmer,
            d,
            threads,
            shards,
            index_snapshot,
            storage,
            ..
        } = self;
        let graph = graph.expect("validated above");
        let text = TextIndex::build_with(&graph, synonyms, stemmer);
        let (idx, load_time) = match index_snapshot {
            Some(path) => {
                let t0 = std::time::Instant::now();
                let idx = open_file(&path, storage)?;
                (idx, Some(t0.elapsed()))
            }
            None => (
                build_indexes(&graph, &text, &BuildConfig { d, threads, shards }),
                None,
            ),
        };
        let mut engine = SearchEngine::from_parts(graph, text, idx);
        if let Some(took) = load_time {
            engine = engine.with_snapshot_load(took);
        }
        Ok(engine)
    }

    /// Base state of a durable boot: the newest readable checkpoint in
    /// `dir` (graph decoded, index opened, version restored), or a cold
    /// build when the directory holds none. The reported load time covers
    /// the whole boot from the checkpoint: file read and CRC included.
    fn boot_base(self, dir: &Path) -> Result<SearchEngine, Error> {
        let t0 = std::time::Instant::now();
        match checkpoint::load_latest(dir).map_err(Error::Io)? {
            None => self.build_cold(),
            Some((cp, path)) => {
                let wrap = |e| Error::Io(patternkb_graph::snapshot::invalid_data(&path, e));
                let graph = patternkb_graph::snapshot::decode(cp.graph()).map_err(wrap)?;
                let version = cp.version;
                // The index blob is *opened* (lexicon parse only) in
                // place in the file's buffer, not decoded.
                let (bytes, range) = cp.into_index();
                let idx = open_region(Region::from_vec_range(bytes, range)).map_err(wrap)?;
                let text = TextIndex::build_with(&graph, self.synonyms, self.stemmer);
                let mut engine =
                    SearchEngine::from_parts(graph, text, idx).with_snapshot_load(t0.elapsed());
                if version > 0 {
                    engine.rebase_version(version - 1);
                }
                Ok(engine)
            }
        }
    }

    /// Build the concurrent serving handle: the engine behind a
    /// snapshot-swap pointer plus a version-aware result cache of
    /// [`Self::cache_capacity`] entries. With [`Self::data_dir`], boots
    /// from the newest checkpoint plus the log tail (truncating any torn
    /// or unreplayable suffix — a damaged log never refuses to boot) and
    /// attaches the [`Durability`] handle driving the durable write path.
    pub fn build_shared(self) -> Result<SharedEngine, Error> {
        self.validate()?;
        let capacity = self.cache_capacity;
        match self.data_dir.clone() {
            None => Ok(SharedEngine::with_cache_capacity(
                self.build_cold()?,
                capacity,
            )),
            Some(dir) => {
                std::fs::create_dir_all(&dir).map_err(Error::Io)?;
                let opts = self.durability.clone();
                let mut engine = self.boot_base(&dir)?;
                let (wal, summary) =
                    Wal::open(dir.join(durability::WAL_FILE), WalOptions).map_err(Error::Io)?;
                if let Some(offset) = durability::replay_records(&mut engine, &summary.records) {
                    // A record that is CRC-intact but does not follow
                    // (version gap, unreplayable delta): drop it and its
                    // suffix — boot from what does replay.
                    wal.truncate_to(offset).map_err(Error::Io)?;
                }
                let handle = Arc::new(Durability::new(wal, dir, opts));
                Ok(SharedEngine::assemble(engine, capacity, Some(handle)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchRequest;
    use patternkb_datagen::figure1;

    #[test]
    fn builder_defaults_answer_figure1() {
        let (g, _) = figure1();
        let e = EngineBuilder::new().graph(g).threads(1).build().unwrap();
        let resp = e
            .respond(&SearchRequest::text("database software company revenue"))
            .unwrap();
        assert_eq!(resp.patterns.len(), 9);
    }

    #[test]
    fn missing_graph_is_typed() {
        assert!(matches!(
            EngineBuilder::new().build(),
            Err(Error::MissingGraph)
        ));
    }

    #[test]
    fn bad_height_is_typed() {
        let (g, _) = figure1();
        match EngineBuilder::new().graph(g).height(0).build() {
            Err(Error::InvalidRequest(msg)) => assert!(msg.contains("height")),
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_roundtrip_through_builder() {
        let (g, _) = figure1();
        let e = EngineBuilder::new().graph(g).threads(1).build().unwrap();
        let dir = std::env::temp_dir().join("patternkb_builder_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("builder.pkb5");
        e.save_index(&path).unwrap();

        let (g, _) = figure1();
        let reloaded = EngineBuilder::new()
            .graph(g)
            .index_snapshot(&path)
            .build()
            .unwrap();
        std::fs::remove_file(&path).ok();
        let resp = reloaded
            .respond(&SearchRequest::text("database software company revenue"))
            .unwrap();
        assert_eq!(resp.patterns.len(), 9);

        let (g, _) = figure1();
        match EngineBuilder::new()
            .graph(g)
            .index_snapshot(dir.join("missing.pkb5"))
            .build()
        {
            Err(Error::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn sharded_snapshot_layout_survives_reload() {
        // The stored shard layout wins over the builder's shards knob, and
        // the reloaded engine answers identically to a fresh build.
        let (g, _) = figure1();
        let e = EngineBuilder::new()
            .graph(g)
            .threads(1)
            .shards(3)
            .build()
            .unwrap();
        assert_eq!(e.num_shards(), 3);
        let dir = std::env::temp_dir().join("patternkb_builder_sharded_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sharded.pkb5");
        e.save_index(&path).unwrap();

        let (g, _) = figure1();
        let reloaded = EngineBuilder::new()
            .graph(g)
            .shards(7) // ignored: the snapshot's layout wins
            .index_snapshot(&path)
            .build()
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(reloaded.num_shards(), 3);
        let req = SearchRequest::text("database software company revenue").k(100);
        let a = e.respond(&req).unwrap();
        let b = reloaded.respond(&req).unwrap();
        assert_eq!(a.patterns.len(), b.patterns.len());
        for (x, y) in a.patterns.iter().zip(&b.patterns) {
            assert_eq!(x.key(), y.key());
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }
}
