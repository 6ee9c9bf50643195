//! The engine: build once (via [`crate::EngineBuilder`]), answer
//! [`crate::SearchRequest`]s many times.
//!
//! [`SearchEngine::respond`] is the one entry point of the query route:
//! parse → plan → enumerate → rank → compose tables, with every failure
//! surfaced as a typed [`Error`]. Query execution is shard-parallel: the
//! index partitions by root range ([`patternkb_index::PathIndexes`]), each
//! algorithm runs one worker per shard, and the per-shard heaps merge at
//! the top-k ([`crate::common`]). The pre-0.2 `search_*`/`build*` facade
//! shims were removed in 0.3 — see the migration pointer in the crate
//! docs.

use crate::baseline::baseline;
use crate::cache::SharedAnswer;
use crate::common::QueryContext;
use crate::counting::{count_patterns, count_subtrees};
use crate::diversify::{diversify_order, DiversifyConfig};
use crate::error::Error;
use crate::individual::{top_individual, ScoredTree};
use crate::linear_enum::linear_enum;
use crate::pattern_enum::pattern_enum;
use crate::request::{AlgorithmChoice, CacheOutcome, QueryInput, SearchRequest, SearchResponse};
use crate::result::{RankedPattern, SearchResult};
use crate::table::TableAnswer;
use crate::topk::{linear_enum_topk, SamplingConfig};
use crate::{ParseError, PlannerConfig, Query, SearchConfig};
use patternkb_graph::KnowledgeGraph;
use patternkb_index::PathIndexes;
use patternkb_text::TextIndex;
use std::sync::Arc;

/// Which query algorithm to run (§5's Baseline / PETopK / LETopK).
#[derive(Clone, Copy, Debug, Default)]
pub enum Algorithm {
    /// Enumeration–aggregation over the raw graph (§2.3).
    Baseline,
    /// `PATTERNENUM` over the pattern-first index (Algorithm 2).
    #[default]
    PatternEnum,
    /// `PATTERNENUM` with admissible upper-bound pruning
    /// ([`crate::bound`]) — identical answers, fewer intersections.
    PatternEnumPruned,
    /// `LINEARENUM` over the root-first index (Algorithm 3), global dict.
    LinearEnum,
    /// `LINEARENUM-TOPK` with type partitioning and optional sampling
    /// (Algorithm 4).
    LinearEnumTopK(SamplingConfig),
}

/// A knowledge graph plus its text index and path indexes, ready to answer
/// keyword queries with table answers.
pub struct SearchEngine {
    g: KnowledgeGraph,
    text: TextIndex,
    idx: PathIndexes,
    /// Monotone data version; bumped by [`Self::apply_delta`]. Result
    /// caches ([`crate::cache`]) record the versions an entry is valid at.
    version: u64,
    /// How long loading/opening the index snapshot took at build time
    /// (`None` when the index was built from the graph instead). Carried
    /// across deltas so `/metrics` keeps reporting the boot cost.
    snapshot_load: Option<std::time::Duration>,
}

impl SearchEngine {
    /// Build from pre-constructed parts (used by [`crate::EngineBuilder`]
    /// and by the bench harness to time index construction separately).
    pub fn from_parts(g: KnowledgeGraph, text: TextIndex, idx: PathIndexes) -> Self {
        SearchEngine {
            g,
            text,
            idx,
            version: 0,
            snapshot_load: None,
        }
    }

    /// Record how long the index snapshot took to load/open (builder
    /// plumbing; feeds boot observability).
    pub(crate) fn with_snapshot_load(mut self, took: std::time::Duration) -> Self {
        self.snapshot_load = Some(took);
        self
    }

    /// Which storage tier backs the path indexes right now. An ingest
    /// patches the touched words over the shared base, so an engine booted
    /// on either tier stays on it across writes; only a refresh that
    /// has to rebuild every list (recomputed PageRank, or a delta adding
    /// type/attribute vocabulary — see [`patternkb_index::incremental`])
    /// returns a heap index, and the metric tracks that, not the boot flag.
    pub fn storage_backend(&self) -> patternkb_index::StorageBackend {
        self.idx.storage_backend()
    }

    /// How long loading/opening the index snapshot took at build time;
    /// `None` when the index was built from the graph.
    pub fn snapshot_load_time(&self) -> Option<std::time::Duration> {
        self.snapshot_load
    }

    /// The current data version: 0 after build, +1 per applied delta.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Rebase this engine's data version to be strictly newer than
    /// `floor`. Used by [`crate::SharedEngine::replace`] so a freshly
    /// rebuilt engine (version 0 again) can never collide with cache
    /// entries computed on the state it replaces.
    pub(crate) fn rebase_version(&mut self, floor: u64) {
        if self.version <= floor {
            self.version = floor + 1;
        }
    }

    /// Mutate the knowledge graph and incrementally refresh the indexes.
    ///
    /// The graph is replaced by `delta.apply(..)`; the text index is
    /// extended with the delta's new nodes (or rebuilt, when the delta
    /// adds a type or attribute, whose text is interned ahead of node
    /// text); and the path indexes are refreshed by re-enumerating only
    /// roots within reverse distance `d − 1` of the delta's dirty nodes
    /// and rebuilding only the word lists they touch
    /// ([`patternkb_index::incremental`]). All existing node ids keep
    /// their meaning, and the engine version is bumped. An answer
    /// computed before stays right afterwards unless the delta rebuilt a
    /// list of one of its words; [`Self::with_delta`] reports which, and
    /// [`crate::SharedEngine`]'s cache keeps every other entry.
    ///
    /// Queries parsed *before* a schema-adding mutation hold word ids from
    /// the old vocabulary and must be re-parsed.
    ///
    /// Fails, leaving the engine as it was, with [`Error::Delta`] when the
    /// delta does not apply, and with [`Error::Snapshot`] when a word list
    /// the refresh must splice has a damaged snapshot stream.
    pub fn apply_delta(
        &mut self,
        delta: &patternkb_graph::mutate::GraphDelta,
        mode: patternkb_graph::mutate::PagerankMode,
    ) -> Result<patternkb_index::RefreshStats, Error> {
        let (next, stats, _) = self.with_delta(delta, mode)?;
        *self = next;
        Ok(stats)
    }

    /// Non-mutating form of [`Self::apply_delta`]: computes the post-delta
    /// engine as a *new value* (version bumped), leaving `self` untouched.
    /// This is what lets [`crate::concurrent::SharedEngine`] keep serving
    /// queries from the old state while the refresh runs.
    ///
    /// Also returns the words whose lists the refresh replaced: an answer
    /// over none of them is the same on both engines.
    pub fn with_delta(
        &self,
        delta: &patternkb_graph::mutate::GraphDelta,
        mode: patternkb_graph::mutate::PagerankMode,
    ) -> Result<
        (
            SearchEngine,
            patternkb_index::RefreshStats,
            patternkb_index::ChangedWords,
        ),
        Error,
    > {
        use patternkb_graph::mutate::PagerankMode as Pm;
        let new_g = delta.apply(&self.g, mode)?;
        let new_text = if delta.adds_schema(&self.g) {
            let vocab = self.text.vocab();
            TextIndex::build_with(&new_g, vocab.synonyms().clone(), vocab.stemmer())
        } else {
            self.text.extended(&new_g, delta)
        };
        let (new_idx, stats, changed) = patternkb_index::try_refresh_indexes(
            &self.idx,
            &self.g,
            &new_g,
            &self.text,
            &new_text,
            &delta.dirty_nodes(),
            mode == Pm::Recompute,
        )
        .map_err(Error::Snapshot)?;
        Ok((
            SearchEngine {
                g: new_g,
                text: new_text,
                idx: new_idx,
                version: self.version + 1,
                snapshot_load: self.snapshot_load,
            },
            stats,
            changed,
        ))
    }

    /// The underlying knowledge graph.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.g
    }

    /// The text/keyword-match index.
    pub fn text(&self) -> &TextIndex {
        &self.text
    }

    /// The path indexes.
    pub fn index(&self) -> &PathIndexes {
        &self.idx
    }

    /// The height threshold `d` the engine was built for.
    pub fn d(&self) -> usize {
        self.idx.d()
    }

    /// Number of root-range index shards queries fan out over (set by
    /// [`crate::EngineBuilder::shards`]).
    pub fn num_shards(&self) -> usize {
        self.idx.num_shards()
    }

    /// Parse raw query text.
    pub fn parse(&self, input: &str) -> Result<Query, ParseError> {
        Query::parse(&self.text, input)
    }

    // ------------------------------------------------------------------
    // The single query route.
    // ------------------------------------------------------------------

    /// Serve one request end to end: parse (or adopt) the query, resolve
    /// the algorithm (planner under [`AlgorithmChoice::Auto`]), run the
    /// search, then apply the requested post-processing — diversification,
    /// table composition, presentation, relaxation, explain traces.
    ///
    /// Never panics on user input; every failure is a typed [`Error`].
    pub fn respond(&self, request: &SearchRequest) -> Result<SearchResponse, Error> {
        self.respond_with_cache(request, None)
    }

    /// [`Self::respond`] with an optional result cache in front of the
    /// search step ([`crate::concurrent::SharedEngine`]'s route).
    pub(crate) fn respond_with_cache(
        &self,
        request: &SearchRequest,
        cache: Option<&crate::cache::QueryCache>,
    ) -> Result<SearchResponse, Error> {
        let t0 = std::time::Instant::now();
        Self::validate_request(request)?;

        let query = match &request.input {
            QueryInput::Text(text) => self.parse(text)?,
            QueryInput::Parsed(q) if q.is_empty() => return Err(Error::EmptyQuery),
            QueryInput::Parsed(q) => q.clone(),
        };

        // Over a booted snapshot the per-word decode is deferred to first
        // touch; force it here so a damaged stream surfaces as a typed
        // error instead of the word silently contributing no postings.
        self.idx
            .prepare_words(&query.keywords)
            .map_err(Error::Snapshot)?;

        let cfg = SearchConfig {
            k: request.k,
            scoring: request.scoring,
            strict_trees: request.strict_trees,
            max_rows: request.max_rows,
        };

        let planned = request.algorithm == AlgorithmChoice::Auto;
        let (answer, cache_outcome) = match cache {
            Some(cache) => {
                // Keyed by the request's *choice* (the planner's decision
                // is deterministic per engine version), so cache hits skip
                // planning entirely.
                let (answer, hit) = cache.lookup_for_request(
                    self,
                    &query,
                    &cfg,
                    request.algorithm,
                    &request.sampling,
                    || self.plan_and_run(&query, &cfg, request.algorithm, &request.sampling),
                );
                let outcome = if hit {
                    CacheOutcome::Hit
                } else {
                    CacheOutcome::Miss
                };
                (answer, outcome)
            }
            None => {
                let (result, algorithm) =
                    self.plan_and_run(&query, &cfg, request.algorithm, &request.sampling);
                (
                    Arc::new(SharedAnswer::new(result, algorithm)),
                    CacheOutcome::Uncached,
                )
            }
        };

        // Reference counts on the answer's parts, never copies of them.
        let mut patterns: Vec<Arc<RankedPattern>> =
            answer.patterns.iter().map(Arc::clone).collect();
        // Presentation implies tables even when composition is opted out.
        let wants_tables = request.compose_tables || request.presentation.is_some();
        // A hit shares its entry's tables (composing them if it is the
        // first to ask); a miss composes for itself and the entry keeps
        // nothing — see the cache module docs for why.
        let mut tables = match cache {
            _ if !wants_tables => Vec::new(),
            Some(cache) if cache_outcome == CacheOutcome::Hit => cache.tables(&answer, &self.g),
            _ => answer.compose_tables(&self.g),
        };

        if let Some(lambda) = request.diversify {
            let order = diversify_order(
                &patterns,
                &DiversifyConfig {
                    lambda,
                    k: request.k,
                },
            );
            // `tables` is empty or aligned with `patterns`; pick both.
            tables = order
                .iter()
                .filter_map(|&i| tables.get(i).cloned())
                .collect();
            patterns = order.iter().map(|&i| Arc::clone(&patterns[i])).collect();
        }

        let presented = request.presentation.as_ref().map(|pc| {
            tables
                .iter()
                .map(|t| crate::presentation::present(&self.g, t, pc))
                .collect()
        });

        let relaxations = if request.relax && patterns.is_empty() {
            self.relax(&query)
        } else {
            Vec::new()
        };

        let explain = request.explain.then(|| {
            // Pre-parsed queries may carry word ids foreign to this
            // engine's vocabulary (e.g. held across a mutation); resolve
            // defensively instead of indexing out of bounds.
            let vocab = self.text.vocab();
            let keywords: Vec<&str> = query
                .keywords
                .iter()
                .map(|&w| {
                    if (w.0 as usize) < vocab.len() {
                        vocab.resolve(w)
                    } else {
                        "<unknown>"
                    }
                })
                .collect();
            patterns
                .iter()
                .map(|p| {
                    let mut out = crate::explain::explain_score(p);
                    if let Some(tree) = p.trees.first() {
                        out.push('\n');
                        out.push_str(&crate::explain::explain_tree(&self.g, tree, &keywords));
                    }
                    out
                })
                .collect()
        });

        Ok(SearchResponse {
            query,
            patterns,
            tables,
            presented,
            algorithm: answer.algorithm,
            planned,
            stats: Arc::clone(&answer.stats),
            relaxations,
            explain,
            cache: cache_outcome,
            elapsed: t0.elapsed(),
        })
    }

    fn validate_request(request: &SearchRequest) -> Result<(), Error> {
        if request.k == 0 {
            return Err(Error::InvalidRequest("k must be >= 1".into()));
        }
        let rho = request.sampling.rho;
        if !(rho > 0.0 && rho <= 1.0) {
            return Err(Error::InvalidRequest(format!(
                "sampling rho must be in (0, 1], got {rho}"
            )));
        }
        if let Some(lambda) = request.diversify {
            if !(0.0..=1.0).contains(&lambda) {
                return Err(Error::InvalidRequest(format!(
                    "diversify lambda must be in [0, 1], got {lambda}"
                )));
            }
        }
        Ok(())
    }

    /// Serve a whole request batch in parallel over `threads` OS threads
    /// (0 = available parallelism). The engine is immutable, so requests
    /// share it freely; responses come back in input order.
    pub fn respond_batch(
        &self,
        requests: &[SearchRequest],
        threads: usize,
    ) -> Vec<Result<SearchResponse, Error>> {
        let threads = if threads == 0 {
            crate::common::cores()
        } else {
            threads
        };
        let threads = threads.clamp(1, requests.len().max(1));
        if threads == 1 {
            return requests.iter().map(|r| self.respond(r)).collect();
        }
        let mut out: Vec<Option<Result<SearchResponse, Error>>> =
            (0..requests.len()).map(|_| None).collect();
        let chunk = requests.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (reqs, slots) in requests.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (r, slot) in reqs.iter().zip(slots.iter_mut()) {
                        *slot = Some(self.respond(r));
                    }
                });
            }
        });
        out.into_iter()
            .map(|r| r.expect("worker filled every slot"))
            .collect()
    }

    /// Resolve the request's algorithm choice and run it, sharing one
    /// [`QueryContext`] between the planner's estimate and the chosen
    /// algorithm so the candidate-root intersection is computed once.
    pub(crate) fn plan_and_run(
        &self,
        query: &Query,
        cfg: &SearchConfig,
        choice: AlgorithmChoice,
        sampling: &SamplingConfig,
    ) -> (SearchResult, Algorithm) {
        if choice == AlgorithmChoice::Baseline {
            return (
                baseline(
                    &self.g,
                    &self.text,
                    query,
                    cfg,
                    self.idx.d(),
                    self.idx.bounds(),
                ),
                Algorithm::Baseline,
            );
        }
        let ctx = QueryContext::new(&self.g, &self.idx, query);
        let algorithm = match choice {
            AlgorithmChoice::Auto => match &ctx {
                Some(ctx) => crate::plan::plan(ctx, &PlannerConfig::default()),
                // Provably empty; any algorithm exits in O(1).
                None => Algorithm::PatternEnumPruned,
            },
            AlgorithmChoice::PatternEnum => Algorithm::PatternEnum,
            AlgorithmChoice::PatternEnumPruned => Algorithm::PatternEnumPruned,
            AlgorithmChoice::LinearEnum => Algorithm::LinearEnum,
            AlgorithmChoice::LinearEnumTopK => Algorithm::LinearEnumTopK(*sampling),
            AlgorithmChoice::Baseline => unreachable!("handled above"),
        };
        let result = match &ctx {
            None => SearchResult::default(),
            Some(ctx) => match algorithm {
                Algorithm::PatternEnum => pattern_enum(ctx, cfg),
                Algorithm::PatternEnumPruned => crate::bound::pattern_enum_pruned(ctx, cfg),
                Algorithm::LinearEnum => linear_enum(ctx, cfg),
                Algorithm::LinearEnumTopK(samp) => linear_enum_topk(ctx, cfg, &samp),
                Algorithm::Baseline => unreachable!("handled above"),
            },
        };
        (result, algorithm)
    }

    // ------------------------------------------------------------------
    // Analysis utilities (not part of the query route).
    // ------------------------------------------------------------------

    /// Persist the built path indexes as a `PKB5` image; reload through
    /// [`crate::EngineBuilder::index_snapshot`] (on either storage tier)
    /// to skip the expensive Algorithm-1 construction (cf. Figure 6).
    pub fn save_index(&self, path: &std::path::Path) -> std::io::Result<()> {
        patternkb_index::storage::save_v5(&self.idx, path)
    }

    /// Top-k *individual* valid subtrees (§5.3).
    pub fn top_individual(&self, query: &Query, cfg: &SearchConfig, k: usize) -> Vec<ScoredTree> {
        match QueryContext::new(&self.g, &self.idx, query) {
            Some(ctx) => top_individual(&ctx, cfg, k),
            None => Vec::new(),
        }
    }

    /// Maximal answerable sub-queries of an unanswerable query
    /// ([`crate::relax`]). Empty when the query already has answers.
    pub fn relax(&self, query: &Query) -> Vec<crate::relax::Relaxation> {
        match QueryContext::new(&self.g, &self.idx, query) {
            Some(ctx) => crate::relax::relax(&ctx, query),
            None => Vec::new(),
        }
    }

    /// Exact number of d-height tree patterns for the query.
    pub fn count_patterns(&self, query: &Query) -> u64 {
        QueryContext::new(&self.g, &self.idx, query)
            .map(|ctx| count_patterns(&ctx))
            .unwrap_or(0)
    }

    /// Exact number of valid subtrees for the query.
    pub fn count_subtrees(&self, query: &Query) -> u64 {
        QueryContext::new(&self.g, &self.idx, query)
            .map(|ctx| count_subtrees(&ctx))
            .unwrap_or(0)
    }

    /// Compose the table answer for one ranked pattern.
    pub fn table(&self, pattern: &crate::result::RankedPattern) -> TableAnswer {
        TableAnswer::from_pattern(&self.g, pattern)
    }
}

impl std::fmt::Debug for SearchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SearchEngine {{ graph: {:?}, index: {:?} }}",
            self.g, self.idx
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineBuilder;
    use patternkb_datagen::figure1;
    use patternkb_graph::NodeId;

    fn engine() -> SearchEngine {
        let (g, _) = figure1();
        EngineBuilder::new().graph(g).threads(1).build().unwrap()
    }

    fn respond(e: &SearchEngine, text: &str, k: usize) -> SearchResponse {
        e.respond(
            &SearchRequest::text(text)
                .k(k)
                .algorithm(AlgorithmChoice::PatternEnum),
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_figure1() {
        let e = engine();
        let r = respond(&e, "database software company revenue", 10);
        assert_eq!(r.patterns.len(), 9);
        assert_eq!(r.tables.len(), 9);
        assert_eq!(r.top_table().unwrap().rows.len(), 2);
        assert_eq!(r.cache, CacheOutcome::Uncached);
        assert!(!r.planned);
    }

    #[test]
    fn all_algorithms_agree() {
        let e = engine();
        let choices = [
            AlgorithmChoice::Baseline,
            AlgorithmChoice::PatternEnum,
            AlgorithmChoice::PatternEnumPruned,
            AlgorithmChoice::LinearEnum,
            AlgorithmChoice::LinearEnumTopK,
        ];
        let results: Vec<SearchResponse> = choices
            .into_iter()
            .map(|a| {
                e.respond(&SearchRequest::text("database company").k(100).algorithm(a))
                    .unwrap()
            })
            .collect();
        for r in &results[1..] {
            assert_eq!(r.patterns.len(), results[0].patterns.len());
            for (a, b) in results[0].patterns.iter().zip(&r.patterns) {
                assert_eq!(a.key(), b.key());
                assert!((a.score - b.score).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn auto_reports_planner_choice() {
        let e = engine();
        let r = e
            .respond(&SearchRequest::text("database company").k(10))
            .unwrap();
        assert!(r.planned);
        // A handful of subtrees: linear enumeration, run inline.
        assert!(matches!(r.algorithm, Algorithm::LinearEnum));
        assert_eq!(r.stats.fanout, crate::common::Fanout::Inline);
        // Same answers as forcing the chosen algorithm.
        let forced = e
            .respond(
                &SearchRequest::text("database company")
                    .k(10)
                    .algorithm(AlgorithmChoice::LinearEnum),
            )
            .unwrap();
        assert!(!forced.planned);
        assert_eq!(r.patterns.len(), forced.patterns.len());
    }

    #[test]
    fn error_paths_are_typed() {
        let e = engine();
        assert!(matches!(
            e.respond(&SearchRequest::text("")),
            Err(Error::EmptyQuery)
        ));
        match e.respond(&SearchRequest::text("database qqqqzzzz")) {
            Err(Error::UnknownWords(ws)) => assert_eq!(ws, vec!["qqqqzzzz".to_string()]),
            other => panic!("expected UnknownWords, got {other:?}"),
        }
        assert!(matches!(
            e.respond(&SearchRequest::text("database").k(0)),
            Err(Error::InvalidRequest(_))
        ));
        assert!(matches!(
            e.respond(&SearchRequest::text("database").diversify(1.5)),
            Err(Error::InvalidRequest(_))
        ));
        let mut bad = SearchRequest::text("database");
        bad.sampling.rho = 0.0;
        assert!(matches!(e.respond(&bad), Err(Error::InvalidRequest(_))));
        // Pre-parsed empty queries are rejected, not panicked on.
        assert!(matches!(
            e.respond(&SearchRequest::query(Query { keywords: vec![] })),
            Err(Error::EmptyQuery)
        ));
    }

    #[test]
    fn explain_with_foreign_word_ids_does_not_panic() {
        // A pre-parsed query can carry ids outside this engine's
        // vocabulary (stale query across a mutation, or caller error);
        // explain must degrade, not index out of bounds.
        let e = engine();
        let q = Query::from_ids([patternkb_graph::WordId(u32::MAX)]);
        let r = e.respond(&SearchRequest::query(q).explain(true)).unwrap();
        assert!(r.patterns.is_empty());
        assert_eq!(r.explain.as_deref(), Some(&[][..]));
    }

    #[test]
    fn nan_knobs_are_rejected() {
        let e = engine();
        let mut bad = SearchRequest::text("database");
        bad.sampling.rho = f64::NAN;
        assert!(matches!(e.respond(&bad), Err(Error::InvalidRequest(_))));
        assert!(matches!(
            e.respond(&SearchRequest::text("database").diversify(f64::NAN)),
            Err(Error::InvalidRequest(_))
        ));
    }

    #[test]
    fn compose_tables_opt_out() {
        let e = engine();
        let r = e
            .respond(&SearchRequest::text("database company").compose_tables(false))
            .unwrap();
        assert!(!r.patterns.is_empty());
        assert!(r.tables.is_empty(), "opt-out skips composition");
        // Presentation overrides the opt-out (it needs the tables).
        let r = e
            .respond(
                &SearchRequest::text("database company")
                    .compose_tables(false)
                    .presentation(crate::presentation::PresentationConfig::default()),
            )
            .unwrap();
        assert_eq!(r.tables.len(), r.patterns.len());
        assert!(r.presented.is_some());
    }

    #[test]
    fn relax_and_explain_on_request() {
        let e = engine();
        // Unanswerable: no root reaches both oracle and gates.
        let r = e
            .respond(&SearchRequest::text("oracle gates").relax(true))
            .unwrap();
        assert!(r.is_empty());
        assert_eq!(r.relaxations.len(), 2);
        // Without the flag, no relaxation work is done.
        let r = e.respond(&SearchRequest::text("oracle gates")).unwrap();
        assert!(r.relaxations.is_empty());
        // Explain traces align with patterns.
        let r = e
            .respond(&SearchRequest::text("database company").explain(true))
            .unwrap();
        let traces = r.explain.as_ref().unwrap();
        assert_eq!(traces.len(), r.patterns.len());
        assert!(traces[0].contains("score"));
    }

    #[test]
    fn diversify_and_presentation_on_request() {
        let e = engine();
        let r = e
            .respond(
                &SearchRequest::text("database software company revenue")
                    .k(5)
                    .diversify(0.5)
                    .presentation(crate::presentation::PresentationConfig::default()),
            )
            .unwrap();
        assert!(r.patterns.len() <= 5);
        let presented = r.presented.as_ref().unwrap();
        assert_eq!(presented.len(), r.patterns.len());
        assert!(!presented[0].columns.is_empty());
    }

    #[test]
    fn respond_batch_matches_sequential() {
        let e = engine();
        let requests: Vec<SearchRequest> =
            ["database company", "revenue", "bill gates", "software"]
                .iter()
                .map(|s| {
                    SearchRequest::text(*s)
                        .k(10)
                        .algorithm(AlgorithmChoice::PatternEnum)
                })
                .collect();
        let seq: Vec<SearchResponse> = requests.iter().map(|r| e.respond(r).unwrap()).collect();
        let par = e.respond_batch(&requests, 3);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            let b = b.as_ref().unwrap();
            assert_eq!(a.patterns.len(), b.patterns.len());
            for (x, y) in a.patterns.iter().zip(&b.patterns) {
                assert_eq!(x.key(), y.key());
                assert!((x.score - y.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sharded_engine_answers_bit_identically() {
        let choices = [
            AlgorithmChoice::Baseline,
            AlgorithmChoice::PatternEnum,
            AlgorithmChoice::PatternEnumPruned,
            AlgorithmChoice::LinearEnum,
            AlgorithmChoice::LinearEnumTopK,
        ];
        let single = engine();
        for shards in [2usize, 4] {
            let (g, _) = figure1();
            let e = EngineBuilder::new()
                .graph(g)
                .threads(1)
                .shards(shards)
                .build()
                .unwrap();
            assert_eq!(e.num_shards(), shards);
            for choice in choices {
                let req = |engine: &SearchEngine| {
                    engine
                        .respond(
                            &SearchRequest::text("database software company revenue")
                                .k(100)
                                .algorithm(choice),
                        )
                        .unwrap()
                };
                let a = req(&single);
                let b = req(&e);
                assert_eq!(a.patterns.len(), b.patterns.len(), "{choice:?}");
                for (x, y) in a.patterns.iter().zip(&b.patterns) {
                    assert_eq!(x.key(), y.key(), "{choice:?}");
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "{choice:?}: scores must be bit-identical"
                    );
                    assert_eq!(x.num_trees, y.num_trees);
                }
                assert_eq!(a.stats.subtrees, b.stats.subtrees, "{choice:?}");
                assert!(!b.stats.per_shard.is_empty(), "{choice:?}");
            }
        }
    }

    #[test]
    fn counts_exposed() {
        let e = engine();
        let q = e.parse("database software company revenue").unwrap();
        assert_eq!(e.count_patterns(&q), 9);
        assert_eq!(e.count_subtrees(&q), 10);
    }

    #[test]
    fn individual_exposed() {
        let e = engine();
        let q = e.parse("database software company revenue").unwrap();
        let trees = e.top_individual(&q, &SearchConfig::default(), 3);
        assert_eq!(trees.len(), 3);
    }

    #[test]
    fn index_snapshot_roundtrip_through_engine() {
        let e = engine();
        let dir = std::env::temp_dir().join("patternkb_engine_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.pkb5");
        e.save_index(&path).unwrap();
        let (g, _) = figure1();
        let reloaded = EngineBuilder::new()
            .graph(g)
            .index_snapshot(&path)
            .build()
            .unwrap();
        std::fs::remove_file(&path).ok();
        let r = respond(&reloaded, "database software company revenue", 10);
        assert_eq!(r.patterns.len(), 9);
        assert!((r.patterns[0].score - 3.5).abs() < 1e-9);
    }

    #[test]
    fn relax_exposed() {
        let e = engine();
        let q = e.parse("oracle gates").unwrap();
        let r = respond(&e, "oracle gates", 10);
        assert!(r.patterns.is_empty());
        let relaxations = e.relax(&q);
        assert_eq!(relaxations.len(), 2);
    }

    #[test]
    fn parse_errors_surface() {
        let e = engine();
        assert!(e.parse("qqqqzzzz").is_err());
        assert!(e.parse("").is_err());
    }

    #[test]
    fn porter_stemmer_engine_answers() {
        let (g, _) = figure1();
        let e = EngineBuilder::new()
            .graph(g)
            .stemmer(patternkb_text::Stemmer::Porter)
            .threads(1)
            .build()
            .unwrap();
        // Porter collapses "companies"/"company" and "databases"/"database".
        let r = respond(&e, "databases companies", 10);
        assert!(!r.patterns.is_empty());
        let r2 = respond(&e, "database company", 10);
        assert_eq!(r.patterns.len(), r2.patterns.len());
    }

    #[test]
    fn apply_delta_updates_answers() {
        use patternkb_graph::mutate::{GraphDelta, PagerankMode};
        let mut e = engine();
        let before = respond(&e, "database software company revenue", 10);
        assert_eq!(before.patterns.len(), 9);
        assert_eq!(e.version(), 0);

        // Add a third database company: IBM with DB2.
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
        let stats = e.apply_delta(&d, PagerankMode::Recompute).unwrap();
        assert!(stats.postings_added > 0);
        assert_eq!(e.version(), 1);

        // The top pattern's table gains a row for DB2/IBM.
        let after = respond(&e, "database software company revenue", 10);
        assert_eq!(after.top_table().unwrap().rows.len(), 3);
    }

    #[test]
    fn apply_delta_matches_fresh_engine() {
        use patternkb_graph::mutate::{GraphDelta, PagerankMode};
        let mut e = engine();
        let g = e.graph();
        let comp = g.type_by_text("Company").unwrap();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(g);
        let v = d.add_node(comp, "Sybase").unwrap();
        d.add_edge(NodeId(0), dev, v).unwrap();
        let mutated_graph = d.apply(g, PagerankMode::Recompute).unwrap();
        e.apply_delta(&d, PagerankMode::Recompute).unwrap();

        let fresh = EngineBuilder::new()
            .graph(mutated_graph)
            .threads(1)
            .build()
            .unwrap();
        for text in ["database software company revenue", "company", "database"] {
            let r1 = respond(&e, text, 50);
            let r2 = respond(&fresh, text, 50);
            assert_eq!(r1.patterns.len(), r2.patterns.len(), "query {text:?}");
            for (a, b) in r1.patterns.iter().zip(&r2.patterns) {
                assert!((a.score - b.score).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn text_index_is_extended_or_rebuilt_by_what_the_delta_adds() {
        use patternkb_graph::mutate::{GraphDelta, PagerankMode};
        let mut e = engine();
        let lists =
            |e: &SearchEngine| -> usize { e.index().shards().iter().map(|s| s.num_words()).sum() };
        // Word ids and canonical forms must be what a boot from a
        // checkpoint of this graph would assign.
        let assert_ids_match_fresh_build = |e: &SearchEngine| {
            let vocab = e.text().vocab();
            let fresh = TextIndex::build_with(e.graph(), vocab.synonyms().clone(), vocab.stemmer());
            let ids = |t: &TextIndex| -> Vec<(patternkb_graph::WordId, String)> {
                t.vocab().iter().map(|(w, s)| (w, s.to_string())).collect()
            };
            assert_eq!(ids(e.text()), ids(&fresh));
        };

        // New type and attribute text is interned ahead of node text, so
        // the text index is rebuilt and every list re-keyed.
        let mut d = GraphDelta::new(e.graph());
        let lab = d.add_type("Research Lab");
        let sponsor = d.add_attr("Sponsor");
        let v = d.add_node(lab, "Xerox PARC").unwrap();
        d.add_edge(v, sponsor, NodeId(1)).unwrap();
        assert!(d.adds_schema(e.graph()));
        let stats = e.apply_delta(&d, PagerankMode::Frozen).unwrap();
        assert_ids_match_fresh_build(&e);
        assert_eq!(stats.words_rebuilt, lists(&e));
        assert_eq!(e.index().num_patched_words(), 0);
        assert!(!respond(&e, "research sponsor", 10).patterns.is_empty());

        // A schema-free delta extends it — same ids as a rebuild — and
        // patches only the lists it touches.
        let mut d = GraphDelta::new(e.graph());
        let v = d.add_node(lab, "Bell Labs").unwrap();
        d.add_edge(v, sponsor, NodeId(1)).unwrap();
        assert!(!d.adds_schema(e.graph()));
        let stats = e.apply_delta(&d, PagerankMode::Frozen).unwrap();
        assert_ids_match_fresh_build(&e);
        assert!(stats.words_rebuilt < lists(&e));
        assert_eq!(e.index().num_patched_words(), stats.words_rebuilt);
        assert_eq!(respond(&e, "lab sponsor", 10).patterns[0].num_trees, 2);
    }

    #[test]
    fn apply_delta_error_leaves_engine_untouched() {
        use patternkb_graph::mutate::{GraphDelta, PagerankMode};
        let mut e = engine();
        let g = e.graph();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(g);
        // Removing a non-existent edge fails at apply time.
        d.remove_edge(NodeId(1), dev, NodeId(0)).unwrap();
        assert!(e.apply_delta(&d, PagerankMode::Frozen).is_err());
        assert_eq!(e.version(), 0);
        assert_eq!(
            respond(&e, "database software company revenue", 10)
                .patterns
                .len(),
            9
        );
    }
}
