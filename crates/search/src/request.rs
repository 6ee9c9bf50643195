//! The request/response pair of the single query route.
//!
//! One conceptual pipeline — parse keywords → enumerate d-height tree
//! patterns → rank top-k → compose table answers — takes one request type
//! in and hands one response type back:
//!
//! ```text
//! SearchRequest ──▶ SearchEngine::respond / SharedEngine::respond ──▶ SearchResponse
//! ```
//!
//! Every knob on [`SearchRequest`] is defaultable; `SearchRequest::text("…")`
//! alone is a complete request (planner-routed algorithm, paper-default
//! scoring, k = 100). The fluent setters cover the same surface the old
//! `search_*` facade methods did: algorithm selection (including
//! [`AlgorithmChoice::Auto`]), sampling, MMR diversification, query
//! relaxation on empty results, presentation, and explain traces. `Auto`
//! always routes by the planner's fixed thresholds
//! ([`crate::PlannerConfig::default`]); a caller that wants a particular
//! algorithm names it instead.

use crate::engine::Algorithm;
use crate::presentation::{PresentationConfig, PresentedTable};
use crate::query::Query;
use crate::relax::Relaxation;
use crate::result::{QueryStats, RankedPattern};
use crate::score::ScoringConfig;
use crate::table::TableAnswer;
use crate::topk::SamplingConfig;
use std::sync::Arc;

/// How the caller names the query: raw text (parsed by the engine against
/// its vocabulary) or a pre-parsed [`Query`] (word ids must come from the
/// same engine version).
#[derive(Clone, Debug)]
pub enum QueryInput {
    /// Raw user text, tokenized/stemmed/canonicalized by the engine.
    Text(String),
    /// An already-parsed query.
    Parsed(Query),
}

/// Algorithm selection on a request. Unlike the resolved
/// [`Algorithm`], this can defer the decision to the cost-based planner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AlgorithmChoice {
    /// Let the planner pick per query from index statistics (the default;
    /// see [`crate::plan`]).
    #[default]
    Auto,
    /// Enumeration–aggregation over the raw graph (§2.3).
    Baseline,
    /// `PATTERNENUM` over the pattern-first index (Algorithm 2).
    PatternEnum,
    /// `PATTERNENUM` with admissible upper-bound pruning.
    PatternEnumPruned,
    /// `LINEARENUM` over the root-first index (Algorithm 3).
    LinearEnum,
    /// `LINEARENUM-TOPK` with type partitioning; honours the request's
    /// [`SearchRequest::sampling`] parameters (Algorithm 4).
    LinearEnumTopK,
}

/// One keyword-search request. Construct with [`SearchRequest::text`] or
/// [`SearchRequest::query`]; every other field has a sensible default and
/// a fluent setter. Fields are public so struct-update syntax works too.
#[derive(Clone, Debug)]
pub struct SearchRequest {
    /// What to search for.
    pub input: QueryInput,
    /// Number of tree patterns to return (the paper defaults to 100).
    pub k: usize,
    /// Which algorithm to run; `Auto` defers to the planner.
    pub algorithm: AlgorithmChoice,
    /// Sampling parameters used when `algorithm` is `LinearEnumTopK`
    /// (exact by default).
    pub sampling: SamplingConfig,
    /// The scoring function (Eqs. (2)–(6)).
    pub scoring: ScoringConfig,
    /// Reject path tuples whose union is not a tree (ablation knob; the
    /// paper's algorithms do not perform this check).
    pub strict_trees: bool,
    /// Materialize at most this many example subtrees (table rows) per
    /// pattern. Scores always aggregate over *all* subtrees.
    pub max_rows: usize,
    /// Compose a [`TableAnswer`] per pattern into
    /// [`SearchResponse::tables`] (the default). Turn off when only the
    /// ranked patterns matter — e.g. timing harnesses or count-only
    /// callers — to skip the layouts and the cells a body writes from
    /// them. A set [`Self::presentation`] overrides this back on.
    pub compose_tables: bool,
    /// MMR diversification trade-off λ ∈ [0, 1]; `None` = off. Lower
    /// values trade relevance headroom for interpretation coverage.
    pub diversify: Option<f64>,
    /// On an empty result, also compute maximal answerable sub-queries
    /// ([`crate::relax`]).
    pub relax: bool,
    /// Render presentation-ready tables (friendly columns, ordering) into
    /// [`SearchResponse::presented`].
    pub presentation: Option<PresentationConfig>,
    /// Include a per-pattern explain trace (score breakdown plus the top
    /// subtree rendered as a tree) in [`SearchResponse::explain`].
    pub explain: bool,
}

impl SearchRequest {
    fn with_input(input: QueryInput) -> Self {
        SearchRequest {
            input,
            k: 100,
            algorithm: AlgorithmChoice::Auto,
            sampling: SamplingConfig::exact(),
            scoring: ScoringConfig::default(),
            strict_trees: false,
            max_rows: 64,
            compose_tables: true,
            diversify: None,
            relax: false,
            presentation: None,
            explain: false,
        }
    }

    /// A request from raw query text, everything else defaulted.
    pub fn text(input: impl Into<String>) -> Self {
        Self::with_input(QueryInput::Text(input.into()))
    }

    /// A request from a pre-parsed query, everything else defaulted.
    pub fn query(query: Query) -> Self {
        Self::with_input(QueryInput::Parsed(query))
    }

    /// Set the number of patterns to return.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Select the algorithm (default: planner-routed `Auto`).
    pub fn algorithm(mut self, algorithm: AlgorithmChoice) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Set `LINEARENUM-TOPK` sampling parameters (implies nothing about
    /// the algorithm choice — combine with
    /// [`AlgorithmChoice::LinearEnumTopK`]).
    pub fn sampling(mut self, sampling: SamplingConfig) -> Self {
        self.sampling = sampling;
        self
    }

    /// Set the scoring function.
    pub fn scoring(mut self, scoring: ScoringConfig) -> Self {
        self.scoring = scoring;
        self
    }

    /// Enable the strict-tree ablation check.
    pub fn strict_trees(mut self, on: bool) -> Self {
        self.strict_trees = on;
        self
    }

    /// Cap materialized example rows per pattern.
    pub fn max_rows(mut self, max_rows: usize) -> Self {
        self.max_rows = max_rows;
        self
    }

    /// Toggle table composition (see the field docs).
    pub fn compose_tables(mut self, on: bool) -> Self {
        self.compose_tables = on;
        self
    }

    /// Diversify the top-k with MMR at trade-off `lambda`.
    pub fn diversify(mut self, lambda: f64) -> Self {
        self.diversify = Some(lambda);
        self
    }

    /// Compute relaxations (keywords to drop) when the result is empty.
    pub fn relax(mut self, on: bool) -> Self {
        self.relax = on;
        self
    }

    /// Render presentation-ready tables into the response.
    pub fn presentation(mut self, cfg: PresentationConfig) -> Self {
        self.presentation = Some(cfg);
        self
    }

    /// Include explain traces in the response.
    pub fn explain(mut self, on: bool) -> Self {
        self.explain = on;
        self
    }
}

/// Where a [`SharedEngine`](crate::concurrent::SharedEngine) answer came
/// from. Direct [`crate::SearchEngine::respond`] calls always report
/// [`CacheOutcome::Uncached`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the version-aware result cache.
    Hit,
    /// Computed and inserted into the cache.
    Miss,
    /// No cache on this route.
    Uncached,
}

/// Everything a query execution produced, in one value.
///
/// Patterns, tables and counters are held by reference count: on the
/// [`SharedEngine`](crate::concurrent::SharedEngine) route they are the
/// result cache's own, shared with every other response of the same
/// entry, so building (and cloning) a response copies no row data.
#[derive(Clone, Debug)]
pub struct SearchResponse {
    /// The parsed query that actually executed (canonical word ids).
    pub query: Query,
    /// Top-k patterns, best first.
    pub patterns: Vec<Arc<RankedPattern>>,
    /// One table layout per pattern, aligned with `patterns`, whose rows
    /// it reads (empty when the request opted out via
    /// [`SearchRequest::compose_tables`]).
    pub tables: Vec<Arc<TableAnswer>>,
    /// Presentation-ready tables, aligned with `patterns`, when the
    /// request asked for them.
    pub presented: Option<Vec<PresentedTable>>,
    /// The algorithm that actually ran (the planner's pick under `Auto`).
    pub algorithm: Algorithm,
    /// Whether `algorithm` was chosen by the planner.
    pub planned: bool,
    /// Execution counters of the search proper (on a cache hit: of the
    /// run that filled the entry).
    pub stats: Arc<QueryStats>,
    /// Maximal answerable sub-queries; non-empty only when the request
    /// asked for relaxation and the result was empty.
    pub relaxations: Vec<Relaxation>,
    /// Per-pattern explain traces, aligned with `patterns`, when
    /// requested.
    pub explain: Option<Vec<String>>,
    /// Cache disposition (always `Uncached` off the shared route).
    pub cache: CacheOutcome,
    /// Wall-clock time of the respond call: parsing, the cache lookup or
    /// planning and search, table composition and the other requested
    /// post-processing. Taken when the response is built, so serializing
    /// it (e.g. `patternkb_serve`'s body rendering) is not included.
    pub elapsed: std::time::Duration,
}

impl SearchResponse {
    /// The best pattern, if any.
    pub fn top(&self) -> Option<&RankedPattern> {
        self.patterns.first().map(|p| &**p)
    }

    /// The best pattern's table, if any.
    pub fn top_table(&self) -> Option<&TableAnswer> {
        self.tables.first().map(|t| &**t)
    }

    /// Whether the query produced no answers.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Number of answers returned.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let r = SearchRequest::text("database company");
        assert_eq!(r.k, 100);
        assert_eq!(r.algorithm, AlgorithmChoice::Auto);
        assert_eq!(r.max_rows, 64);
        assert!(!r.strict_trees && !r.relax && !r.explain);
        assert!(r.diversify.is_none() && r.presentation.is_none());
    }

    #[test]
    fn fluent_setters_compose() {
        let r = SearchRequest::text("a b")
            .k(7)
            .algorithm(AlgorithmChoice::LinearEnumTopK)
            .sampling(SamplingConfig::new(1000, 0.5, 9))
            .max_rows(3)
            .diversify(0.6)
            .relax(true)
            .explain(true);
        assert_eq!(r.k, 7);
        assert_eq!(r.algorithm, AlgorithmChoice::LinearEnumTopK);
        assert_eq!(r.sampling.lambda, 1000);
        assert_eq!(r.max_rows, 3);
        assert_eq!(r.diversify, Some(0.6));
        assert!(r.relax && r.explain);
    }
}
