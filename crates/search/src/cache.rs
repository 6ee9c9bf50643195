//! Version-aware LRU cache for query results.
//!
//! Keyword search is an online service with heavily repeated queries, so a
//! result cache sits naturally in front of the engine. The subtlety is
//! correctness under mutation: [`crate::engine::SearchEngine::apply_delta`]
//! changes answers and bumps the engine version, so every entry records
//! the **range of versions** `[first, last]` its answer is valid at. A
//! lookup at version `v` hits when `first ≤ v ≤ last`; past `last` the
//! entry is stale and is dropped; before `first` (an older snapshot still
//! answering, such as a `respond_on` batch that started before a publish)
//! it is a plain miss that neither removes nor overwrites the newer
//! entry. There is no time-based expiry — versions are exact.
//!
//! **What an answer depends on.** An answer is a function of the parsed
//! word ids in its key, of those words' posting lists on every shard, and
//! of the patterns those lists name by id — ids the append-only pattern
//! set never reassigns. Its composed tables also read the text and type
//! of its row nodes and the names of their types and attributes. No
//! [`patternkb_graph::mutate::GraphDelta`] op changes any of those:
//! `add_type`, `add_attr`, `add_node`, `add_edge`, `add_text_edge` and
//! `remove_edge` only append ids or edit edges, and under `Frozen`
//! PageRank the scores the lists cache stay as they were. A word id keeps
//! its meaning as long as the old vocabulary is a prefix of the new one,
//! so a new word can change which key a text parses to, but never the
//! answer stored under an existing key. Hence, when
//! [`crate::SharedEngine::ingest_with`] publishes version `v + 1`, it
//! first extends `last` from `v` to `v + 1` on every entry none of whose
//! words had a list replaced by the delta's refresh
//! ([`patternkb_index::ChangedWords`]); the rest go stale. A refresh that
//! replaced every list (recomputed PageRank, or shifted word ids) carries
//! nothing. Relaxation and explain traces read the serving snapshot per
//! request, outside the cache.
//!
//! The key covers everything that determines a result: the keyword-id
//! sequence (order matters — tree patterns are keyword-indexed vectors),
//! the algorithm *choice* (including sampling parameters, which change
//! answers; the planner's rule is fixed, so `Auto` decides the same way at
//! every lookup of one version), the full [`SearchConfig`], **and the
//! engine's shard count** — sharded
//! execution is answer-identical by construction, but `stats.per_shard`
//! and sampling determinism are layout-properties, and a rebuild with a
//! different `shards(n)` must never serve entries computed under the old
//! layout.
//!
//! **A hit never clones row data.** An entry is a `SharedAnswer`: each
//! ranked pattern (with its materialised rows) and the execution counters
//! sit behind their own [`Arc`], and a response takes reference counts on
//! them — on a hit and on the miss that created the entry alike.
//!
//! **Tables fill on first reuse.** A [`TableAnswer`] is a column layout
//! over its pattern's rows — headers, provenance, and the row slots
//! feeding each column — a pure function of the pattern and of the type
//! and attribute names no version in the entry's range changes. A miss
//! composes layouts for its own response, and its body reads each cell
//! from the rows and the graph's node text as it is written; the entry
//! retains nothing of them, because one-shot traffic must not hold
//! tables for queries that never come back. The first *hit* that wants
//! tables fills the entry's: layouts that also keep their cells' text in
//! one buffer per table (`TableAnswer::keep_text`), so that every later
//! hit writes its body from contiguous text instead of reading each cell
//! back out of the graph. They are handed out by `Arc` like the rest of
//! the answer; the request's post-processing flags (`compose_tables`,
//! `presentation`, `explain`, `relax`, `diversify`) stay outside the key.
//! That a query came back is a property of the traffic the cache can
//! observe, so nothing is configured ([`CacheStats::table_fills`] counts
//! the fills).
//!
//! The cache is internally synchronized (one `std::sync::Mutex`, its
//! poisoning recovered) and can be shared across query threads alongside
//! the immutable engine.

use crate::engine::{Algorithm, SearchEngine};
use crate::request::AlgorithmChoice;
use crate::result::{QueryStats, RankedPattern, SearchResult};
use crate::score::Aggregation;
use crate::table::TableAnswer;
use crate::topk::SamplingConfig;
use crate::{unpoisoned, Query, SearchConfig};
use patternkb_graph::{KnowledgeGraph, WordId};
use patternkb_index::ChangedWords;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Everything that determines a query's answer, in hashable form.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    words: Vec<u32>,
    /// Root-range shard count of the engine the entry was computed on
    /// (complements the version check: version survives a from-scratch
    /// rebuild with a different `shards(n)`).
    shards: usize,
    /// The request's choice, not the planner's pick, so `Auto` hits skip
    /// planning.
    algo: AlgorithmChoice,
    /// Sampling parameters, for `LinearEnumTopK` keys only: the other
    /// choices never read them.
    sampling: Option<(u64, u64, u64)>,
    k: usize,
    z: (u64, u64, u64),
    aggregation: Aggregation,
    strict_trees: bool,
    max_rows: usize,
}

impl CacheKey {
    /// Key for a request-level algorithm choice.
    fn for_choice(
        query: &Query,
        cfg: &SearchConfig,
        shards: usize,
        algo: AlgorithmChoice,
        sampling: &SamplingConfig,
    ) -> Self {
        let sampling = (algo == AlgorithmChoice::LinearEnumTopK)
            .then(|| (sampling.lambda, sampling.rho.to_bits(), sampling.seed));
        let s = cfg.scoring;
        CacheKey {
            words: query.keywords.iter().map(|w| w.0).collect(),
            shards,
            algo,
            sampling,
            k: cfg.k,
            z: (s.z1.to_bits(), s.z2.to_bits(), s.z3.to_bits()),
            aggregation: s.aggregation,
            strict_trees: cfg.strict_trees,
            max_rows: cfg.max_rows,
        }
    }
}

/// One executed search in the form responses share: every part a
/// response carries is behind a reference count, so handing the answer
/// out — from the cache or straight from the kernels — copies no rows.
pub(crate) struct SharedAnswer {
    /// Top-k patterns with their materialised rows, best first.
    pub(crate) patterns: Vec<Arc<RankedPattern>>,
    /// Execution counters of the run that produced `patterns`.
    pub(crate) stats: Arc<QueryStats>,
    /// The algorithm that produced the result (the planner's pick for
    /// `Auto` keys — reported on cached responses without re-planning).
    pub(crate) algorithm: Algorithm,
    /// Tables of `patterns`, aligned with it, keeping their cell text;
    /// set by the first cache hit that asks ([`QueryCache::tables`]).
    tables: OnceLock<Vec<Arc<TableAnswer>>>,
}

impl SharedAnswer {
    pub(crate) fn new(result: SearchResult, algorithm: Algorithm) -> Self {
        SharedAnswer {
            patterns: result.patterns.into_iter().map(Arc::new).collect(),
            stats: Arc::new(result.stats),
            algorithm,
            tables: OnceLock::new(),
        }
    }

    /// Compose one table layout per pattern, for the caller alone.
    pub(crate) fn compose_tables(&self, g: &KnowledgeGraph) -> Vec<Arc<TableAnswer>> {
        self.patterns
            .iter()
            .map(|p| Arc::new(TableAnswer::from_pattern(g, p)))
            .collect()
    }

    /// Compose the tables the entry's hits share: layouts that keep their
    /// cell text ([`TableAnswer::keep_text`]).
    fn compose_shared_tables(&self, g: &KnowledgeGraph) -> Vec<Arc<TableAnswer>> {
        self.patterns
            .iter()
            .map(|p| Arc::new(TableAnswer::from_pattern(g, p).keep_text(g, p)))
            .collect()
    }
}

struct Entry {
    answer: Arc<SharedAnswer>,
    /// The version the answer was computed at.
    first: u64,
    /// The newest version the answer is known to be valid at: `first`,
    /// extended by every [`QueryCache::carry`] that left its words alone.
    last: u64,
    /// Monotone access stamp for LRU eviction.
    last_used: u64,
}

/// Cache counters: cumulative, except the [`CacheStats::entries`] gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries resident right now.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Hits that had to compose their entry's tables — the first hit of
    /// an entry that asks for tables; every later one shares them.
    pub table_fills: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries rejected because the engine version moved on.
    pub stale_rejections: u64,
    /// Entries an ingest extended to the version it published, because
    /// the delta rebuilt no list of their words.
    pub carried: u64,
    /// Entries an ingest left behind at the old version, because the
    /// delta rebuilt a list of one of their words (or every list).
    pub invalidated: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
    stats: CacheStats,
}

/// A bounded, version-aware result cache. See the module docs.
pub struct QueryCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl QueryCache {
    /// A cache holding at most `capacity` results (≥ 1).
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            inner: Mutex::new(Inner {
                map: HashMap::with_capacity(capacity.max(1)),
                clock: 0,
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// The respond route's lookup: keyed by the request's algorithm
    /// *choice* so `Auto` hits skip planning. `resolve_and_run` is only
    /// called on a miss; its resolved algorithm is stored with the entry
    /// and reported back on hits. The flag is whether it was a hit.
    pub(crate) fn lookup_for_request(
        &self,
        engine: &SearchEngine,
        query: &Query,
        cfg: &SearchConfig,
        choice: AlgorithmChoice,
        sampling: &SamplingConfig,
        resolve_and_run: impl FnOnce() -> (SearchResult, Algorithm),
    ) -> (Arc<SharedAnswer>, bool) {
        let key = CacheKey::for_choice(query, cfg, engine.num_shards(), choice, sampling);
        self.lookup_with(key, engine.version(), resolve_and_run)
    }

    /// The tables of a *hit* `answer`, shared with every other hit of the
    /// entry: composed against `g` — the graph of the engine version the
    /// hit was checked against — by the first caller, reference counts
    /// after that.
    pub(crate) fn tables(
        &self,
        answer: &SharedAnswer,
        g: &KnowledgeGraph,
    ) -> Vec<Arc<TableAnswer>> {
        answer
            .tables
            .get_or_init(|| {
                unpoisoned(self.inner.lock()).stats.table_fills += 1;
                answer.compose_shared_tables(g)
            })
            .clone()
    }

    fn lookup_with(
        &self,
        key: CacheKey,
        version: u64,
        compute: impl FnOnce() -> (SearchResult, Algorithm),
    ) -> (Arc<SharedAnswer>, bool) {
        enum Lookup {
            Hit(Arc<SharedAnswer>),
            Stale,
            Miss,
        }
        // An entry this lookup removes can be the last holder of up to
        // k × max_rows rows and their tables, so it is dropped only after
        // the lock is released: a miss must not make every concurrent hit
        // wait for its victim to be freed.
        let stale: Option<Entry> = {
            let mut inner = unpoisoned(self.inner.lock());
            inner.clock += 1;
            let clock = inner.clock;
            let lookup = match inner.map.get_mut(&key) {
                Some(e) if e.first <= version && version <= e.last => {
                    e.last_used = clock;
                    Lookup::Hit(Arc::clone(&e.answer))
                }
                Some(e) if e.last < version => Lookup::Stale,
                // Computed on a newer version than this (older) snapshot:
                // the entry stays for the readers of the current one.
                Some(_) | None => Lookup::Miss,
            };
            inner.stats.misses += u64::from(!matches!(lookup, Lookup::Hit(_)));
            match lookup {
                Lookup::Hit(answer) => {
                    inner.stats.hits += 1;
                    return (answer, true);
                }
                Lookup::Stale => {
                    inner.stats.stale_rejections += 1;
                    inner.map.remove(&key)
                }
                Lookup::Miss => None,
            }
        }; // release the lock while computing
        drop(stale);
        let (result, algorithm) = compute();
        let answer = Arc::new(SharedAnswer::new(result, algorithm));
        let mut removed: Vec<Entry> = Vec::new();
        {
            let mut inner = unpoisoned(self.inner.lock());
            inner.clock += 1;
            let clock = inner.clock;
            // An entry valid at this version or a newer one (a concurrent
            // miss, or a reader of a newer snapshot) keeps its slot.
            let present = inner.map.get(&key).map(|e| e.last >= version);
            if present == Some(true) {
                return (answer, false);
            }
            if present.is_none() && inner.map.len() >= self.capacity {
                // Under capacity pressure, sweep version-stale corpses
                // first: entries valid only at versions older than the one
                // being inserted can only ever be hit again by a snapshot
                // that predates it (a transient respond_on batch), so they
                // must not squat LRU slots and evict live entries.
                // Strictly-older so an old-snapshot insert never sweeps
                // newer live entries. Without corpses, plain LRU. One
                // linear scan finds both: capacities are small (hundreds)
                // and eviction is off the hit path.
                let mut victims: Vec<CacheKey> = Vec::new();
                let mut lru: Option<(&CacheKey, u64)> = None;
                for (k, e) in &inner.map {
                    if e.last < version {
                        victims.push(k.clone());
                    } else if lru.map_or(true, |(_, used)| e.last_used < used) {
                        lru = Some((k, e.last_used));
                    }
                }
                if victims.is_empty() {
                    victims.extend(lru.map(|(k, _)| k.clone()));
                }
                removed.extend(victims.iter().filter_map(|k| inner.map.remove(k)));
                inner.stats.evictions += removed.len() as u64;
            }
            let entry = Entry {
                answer: Arc::clone(&answer),
                first: version,
                last: version,
                last_used: clock,
            };
            removed.extend(inner.map.insert(key, entry));
        }
        drop(removed);
        (answer, false)
    }

    /// An ingest is publishing version `next`, derived from `base` by a
    /// delta whose refresh replaced the lists of `changed`: every entry
    /// valid at `base` whose words are all outside `changed` is valid at
    /// `next` too, and is extended to it. The others stay at `base`, for
    /// the readers still on it, and go stale at `next`.
    ///
    /// Call it once the delta is durable and before `next` is published,
    /// so readers of either version keep hitting throughout and no version
    /// that was never acknowledged is ever carried to.
    pub(crate) fn carry(&self, base: u64, next: u64, changed: &ChangedWords) {
        let mut inner = unpoisoned(self.inner.lock());
        let Inner { map, stats, .. } = &mut *inner;
        for (key, e) in map.iter_mut().filter(|(_, e)| e.last == base) {
            if changed.touches(key.words.iter().map(|&w| WordId(w))) {
                stats.invalidated += 1;
            } else {
                e.last = next;
                stats.carried += 1;
            }
        }
    }

    /// Drop every entry (e.g. ahead of a bulk mutation).
    pub fn clear(&self) {
        unpoisoned(self.inner.lock()).map.clear();
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        unpoisoned(self.inner.lock()).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The counters, with the entry gauge read under the same lock.
    pub fn stats(&self) -> CacheStats {
        let inner = unpoisoned(self.inner.lock());
        CacheStats {
            entries: inner.map.len(),
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::AlgorithmChoice::{LinearEnum, PatternEnum};
    use crate::request::CacheOutcome;
    use patternkb_datagen::figure1;

    fn engine() -> SearchEngine {
        let (g, _) = figure1();
        crate::EngineBuilder::new()
            .graph(g)
            .threads(1)
            .build()
            .unwrap()
    }

    /// What `respond_with_cache` does with `cache` for an explicit
    /// algorithm choice under default sampling.
    fn get_or_compute(
        cache: &QueryCache,
        engine: &SearchEngine,
        query: &Query,
        cfg: &SearchConfig,
        choice: AlgorithmChoice,
    ) -> Arc<SharedAnswer> {
        let sampling = SamplingConfig::default();
        let run = || engine.plan_and_run(query, cfg, choice, &sampling);
        cache
            .lookup_for_request(engine, query, cfg, choice, &sampling, run)
            .0
    }

    #[test]
    fn hit_returns_shared_result() {
        let e = engine();
        let cache = QueryCache::new(8);
        let q = e.parse("database company").unwrap();
        let cfg = SearchConfig::top(10);
        let a = get_or_compute(&cache, &e, &q, &cfg, PatternEnum);
        let b = get_or_compute(&cache, &e, &q, &cfg, PatternEnum);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn different_shard_count_is_different_entry() {
        // Two engines at the same data version but different shard
        // layouts: a shared cache must never hand one engine's entry to
        // the other (the version check alone cannot tell them apart).
        let e1 = engine();
        let (g, _) = figure1();
        let e2 = crate::EngineBuilder::new()
            .graph(g)
            .threads(1)
            .shards(3)
            .build()
            .unwrap();
        assert_eq!(e1.version(), e2.version());
        assert_ne!(e1.num_shards(), e2.num_shards());
        let cache = QueryCache::new(8);
        let q = e1.parse("database company").unwrap();
        let cfg = SearchConfig::top(10);
        let _ = get_or_compute(&cache, &e1, &q, &cfg, PatternEnum);
        let _ = get_or_compute(&cache, &e2, &q, &cfg, PatternEnum);
        assert_eq!(
            cache.stats().misses,
            2,
            "shard layouts must not share entries"
        );
        assert_eq!(cache.len(), 2);
        // Each engine still hits its own entry.
        let _ = get_or_compute(&cache, &e1, &q, &cfg, PatternEnum);
        let _ = get_or_compute(&cache, &e2, &q, &cfg, PatternEnum);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn different_config_is_different_entry() {
        let e = engine();
        let cache = QueryCache::new(8);
        let q = e.parse("database company").unwrap();
        let a = get_or_compute(&cache, &e, &q, &SearchConfig::top(10), PatternEnum);
        let b = get_or_compute(&cache, &e, &q, &SearchConfig::top(5), PatternEnum);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
        // Same query, different algorithm: also distinct.
        let _ = get_or_compute(&cache, &e, &q, &SearchConfig::top(10), LinearEnum);
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn keyword_order_matters() {
        let e = engine();
        let cache = QueryCache::new(8);
        let q1 = e.parse("database company").unwrap();
        let q2 = e.parse("company database").unwrap();
        let _ = get_or_compute(&cache, &e, &q1, &SearchConfig::top(10), PatternEnum);
        let _ = get_or_compute(&cache, &e, &q2, &SearchConfig::top(10), PatternEnum);
        assert_eq!(
            cache.stats().misses,
            2,
            "permuted keywords are distinct keys"
        );
    }

    #[test]
    fn mutation_invalidates() {
        use patternkb_graph::mutate::{GraphDelta, PagerankMode};
        let mut e = engine();
        let cache = QueryCache::new(8);
        let q = e.parse("database software company revenue").unwrap();
        let cfg = SearchConfig::top(10);
        let before = get_or_compute(&cache, &e, &q, &cfg, PatternEnum);
        let before_table_rows = before.patterns[0].num_trees;
        assert_eq!(before_table_rows, 2);

        // Mutate: add DB2/IBM as a third row of the Figure-3 table.
        let g = e.graph();
        let soft = g.type_by_text("Software").unwrap();
        let comp = g.type_by_text("Company").unwrap();
        let model = g.type_by_text("Model").unwrap();
        let dev = g.attr_by_text("Developer").unwrap();
        let rev = g.attr_by_text("Revenue").unwrap();
        let genre = g.attr_by_text("Genre").unwrap();
        let mut d = GraphDelta::new(g);
        let db2 = d.add_node(soft, "DB2").unwrap();
        let ibm = d.add_node(comp, "IBM").unwrap();
        let rdb = d.add_node(model, "Relational database").unwrap();
        d.add_edge(db2, dev, ibm).unwrap();
        d.add_edge(db2, genre, rdb).unwrap();
        d.add_text_edge(ibm, rev, "US$ 57 billion").unwrap();
        e.apply_delta(&d, PagerankMode::Recompute).unwrap();

        let q = e.parse("database software company revenue").unwrap();
        let after = get_or_compute(&cache, &e, &q, &cfg, PatternEnum);
        assert_eq!(
            after.patterns[0].num_trees, 3,
            "stale cached answer served after mutation"
        );
        assert_eq!(cache.stats().stale_rejections, 1);
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let e = engine();
        let cache = QueryCache::new(2);
        let q1 = e.parse("database").unwrap();
        let q2 = e.parse("company").unwrap();
        let q3 = e.parse("revenue").unwrap();
        let cfg = SearchConfig::top(10);
        let _ = get_or_compute(&cache, &e, &q1, &cfg, PatternEnum);
        let _ = get_or_compute(&cache, &e, &q2, &cfg, PatternEnum);
        // Touch q1 so q2 becomes LRU.
        let _ = get_or_compute(&cache, &e, &q1, &cfg, PatternEnum);
        let _ = get_or_compute(&cache, &e, &q3, &cfg, PatternEnum);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // q1 must still hit; q2 was evicted.
        let hits_before = cache.stats().hits;
        let _ = get_or_compute(&cache, &e, &q1, &cfg, PatternEnum);
        assert_eq!(cache.stats().hits, hits_before + 1);
        let misses_before = cache.stats().misses;
        let _ = get_or_compute(&cache, &e, &q2, &cfg, PatternEnum);
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn eviction_leaves_the_victim_to_its_other_holders() {
        let e = engine();
        let cache = QueryCache::new(1);
        let cfg = SearchConfig::top(10);
        let q1 = e.parse("database").unwrap();
        let q2 = e.parse("company").unwrap();
        // A response still holds the answer its miss cached…
        let victim = get_or_compute(&cache, &e, &q1, &cfg, PatternEnum);
        assert_eq!(Arc::strong_count(&victim), 2, "the cache and this test");
        // …when the next miss evicts that entry.
        let _ = get_or_compute(&cache, &e, &q2, &cfg, PatternEnum);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(Arc::strong_count(&victim), 1, "the cache let go of it");
        assert!(!victim.patterns.is_empty(), "and the holder keeps its rows");
    }

    #[test]
    fn stale_corpses_are_evicted_before_live_entries() {
        use patternkb_graph::mutate::{GraphDelta, PagerankMode};
        // Two coexisting states: e0 at version 0, e1 at version 1 — the
        // respond_on micro-batching route really does insert at an old
        // version while newer entries exist.
        let e0 = engine();
        let g = e0.graph();
        let comp = g.type_by_text("Company").unwrap();
        let mut d = GraphDelta::new(g);
        d.add_node(comp, "Sybase").unwrap();
        let (e1, _, _) = e0.with_delta(&d, PagerankMode::Frozen).unwrap();
        assert_eq!((e0.version(), e1.version()), (0, 1));

        let cache = QueryCache::new(4);
        let cfg = SearchConfig::top(10);
        let q = |text: &str| e0.parse(text).unwrap();
        // Three live v1 entries…
        for text in ["database", "company", "revenue"] {
            let _ = get_or_compute(&cache, &e1, &q(text), &cfg, PatternEnum);
        }
        // …then a v0 corpse inserted LAST (highest LRU stamp: plain LRU
        // would protect it and evict the live "database" entry instead).
        let _ = get_or_compute(&cache, &e0, &q("software"), &cfg, PatternEnum);
        assert_eq!(cache.len(), 4);

        // Capacity pressure at v1: the corpse is swept, never a live one.
        let _ = get_or_compute(&cache, &e1, &q("microsoft"), &cfg, PatternEnum);
        assert_eq!(cache.stats().evictions, 1);
        let hits_before = cache.stats().hits;
        for text in ["database", "company", "revenue", "microsoft"] {
            let _ = get_or_compute(&cache, &e1, &q(text), &cfg, PatternEnum);
        }
        assert_eq!(
            cache.stats().hits,
            hits_before + 4,
            "every v1 entry survived while the v0 corpse was swept"
        );
        // The corpse is gone: re-querying it at v0 misses.
        let misses_before = cache.stats().misses;
        let _ = get_or_compute(&cache, &e0, &q("software"), &cfg, PatternEnum);
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn stale_sweep_frees_all_corpses_at_once() {
        use patternkb_graph::mutate::{GraphDelta, PagerankMode};
        let e0 = engine();
        let g = e0.graph();
        let comp = g.type_by_text("Company").unwrap();
        let mut d = GraphDelta::new(g);
        d.add_node(comp, "Sybase").unwrap();
        let (e1, _, _) = e0.with_delta(&d, PagerankMode::Frozen).unwrap();

        // Fill the cache entirely with v0 entries, bump to v1, insert.
        let cache = QueryCache::new(3);
        let cfg = SearchConfig::top(10);
        for text in ["database", "company", "revenue"] {
            let _ = get_or_compute(&cache, &e0, &e0.parse(text).unwrap(), &cfg, PatternEnum);
        }
        let _ = get_or_compute(
            &cache,
            &e1,
            &e1.parse("software").unwrap(),
            &cfg,
            PatternEnum,
        );
        // One insert swept every corpse, not just one LRU victim.
        assert_eq!(cache.stats().evictions, 3);
        assert_eq!(cache.len(), 1);
    }

    /// Figure 1 behind a `SharedEngine`, and one entry for the Figure-3
    /// query: a miss, then a hit.
    fn shared_with_entry() -> (crate::SharedEngine, crate::SearchRequest) {
        let (g, _) = figure1();
        let shared = crate::EngineBuilder::new()
            .graph(g)
            .threads(1)
            .build_shared()
            .unwrap();
        let request = crate::SearchRequest::text("database software company revenue").k(10);
        for expected in [CacheOutcome::Miss, CacheOutcome::Hit] {
            assert_eq!(shared.respond(&request).unwrap().cache, expected);
        }
        (shared, request)
    }

    /// Ingest one new node of `type_name`, named `name`.
    fn ingest_node(shared: &crate::SharedEngine, type_name: &str, name: &str) {
        use patternkb_graph::mutate::{DeltaError, GraphDelta, PagerankMode};
        shared
            .ingest_with(PagerankMode::Frozen, |snap| {
                let t = snap.graph().type_by_text(type_name).unwrap();
                let mut d = GraphDelta::new(snap.graph());
                d.add_node(t, name)?;
                Ok::<_, DeltaError>(d)
            })
            .unwrap();
    }

    #[test]
    fn an_entry_is_carried_across_an_ingest_that_spares_its_words() {
        let (shared, request) = shared_with_entry();
        let before = shared.snapshot();
        let cached = shared.respond(&request).unwrap();
        // A model named with a brand-new word: the delta splices the lists
        // of "zyzzyva" and "model", none of the query's.
        ingest_node(&shared, "Model", "Zyzzyva");
        let s = shared.cache_stats();
        assert_eq!((s.carried, s.invalidated), (1, 0));

        let after = shared.respond(&request).unwrap();
        assert_eq!(
            after.cache,
            CacheOutcome::Hit,
            "the entry spans both versions"
        );
        for (x, y) in cached.patterns.iter().zip(&after.patterns) {
            assert!(Arc::ptr_eq(x, y), "the same answer, not a recomputation");
        }
        // The base's readers keep hitting the same entry.
        let old = shared.respond_on(&before, &request).unwrap();
        assert_eq!(old.cache, CacheOutcome::Hit);
        let s = shared.cache_stats();
        assert_eq!((s.misses, s.stale_rejections, s.entries), (1, 0, 1));
    }

    #[test]
    fn an_entry_is_dropped_by_an_ingest_that_splices_one_of_its_words() {
        let (shared, request) = shared_with_entry();
        // A new company: the "company" list is spliced.
        ingest_node(&shared, "Company", "Initech");
        let s = shared.cache_stats();
        assert_eq!((s.carried, s.invalidated), (0, 1));
        assert_eq!(shared.respond(&request).unwrap().cache, CacheOutcome::Miss);
        assert_eq!(shared.cache_stats().stale_rejections, 1);
    }

    #[test]
    fn replace_flushes_carried_entries() {
        let (shared, request) = shared_with_entry();
        ingest_node(&shared, "Model", "Zyzzyva");
        assert_eq!(shared.cache_stats().carried, 1);
        let (g, _) = figure1();
        shared.replace(
            crate::EngineBuilder::new()
                .graph(g)
                .threads(1)
                .build()
                .unwrap(),
        );
        assert_eq!(shared.cache_stats().entries, 0);
        assert_eq!(shared.respond(&request).unwrap().cache, CacheOutcome::Miss);
    }

    #[test]
    fn an_older_snapshot_neither_evicts_nor_overwrites_a_newer_entry() {
        use patternkb_graph::mutate::{GraphDelta, PagerankMode};
        // v1 adds a company, so "company" answers differ between v0 and v1
        // and nothing carries the v1 entry back over v0.
        let e0 = engine();
        let comp = e0.graph().type_by_text("Company").unwrap();
        let mut d = GraphDelta::new(e0.graph());
        d.add_node(comp, "Sybase").unwrap();
        let (e1, _, _) = e0.with_delta(&d, PagerankMode::Frozen).unwrap();

        let cache = QueryCache::new(8);
        let cfg = SearchConfig::top(10);
        let q = e0.parse("company").unwrap();
        let live = get_or_compute(&cache, &e1, &q, &cfg, PatternEnum);
        // A micro-batch still on v0 interleaves with v1 readers.
        for _ in 0..2 {
            let old = get_or_compute(&cache, &e0, &q, &cfg, PatternEnum);
            assert!(!Arc::ptr_eq(&old, &live), "v0 computes its own answer");
            let again = get_or_compute(&cache, &e1, &q, &cfg, PatternEnum);
            assert!(Arc::ptr_eq(&again, &live), "the v1 entry survived");
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.stale_rejections), (2, 3, 0));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn clear_empties() {
        let e = engine();
        let cache = QueryCache::new(4);
        let q = e.parse("database").unwrap();
        let _ = get_or_compute(&cache, &e, &q, &SearchConfig::top(10), PatternEnum);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_lookups_are_safe() {
        let e = engine();
        let cache = QueryCache::new(16);
        let queries: Vec<Query> = ["database", "company", "revenue", "software"]
            .iter()
            .map(|s| e.parse(s).unwrap())
            .collect();
        let cfg = SearchConfig::top(10);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        for q in &queries {
                            let r = get_or_compute(&cache, &e, q, &cfg, PatternEnum);
                            assert!(!r.patterns.is_empty());
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 4 * 25 * 4);
        assert!(s.hits > s.misses, "steady state must be hit-dominated");
    }
}
