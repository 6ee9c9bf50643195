//! Server observability: atomic counters, a latency histogram, and the
//! Prometheus text rendering behind `GET /metrics`.
//!
//! Everything on the request path is lock-free (`AtomicU64`); the only
//! mutex guards the per-shard aggregates, touched once per *answered*
//! search. Engine-side families (cache hit rate, epoch, data version) are
//! read live from the [`SharedEngine`] at render time rather than
//! mirrored, so they can never drift.

use crate::api::{algorithm_slot, ALGORITHM_NAMES};
use patternkb_search::common::Fanout;
use patternkb_search::{CacheOutcome, QueryStats, SearchResponse, SharedEngine};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Histogram bucket upper bounds in seconds (Prometheus `le` labels),
/// log-spaced from 250µs to 10s.
pub const LATENCY_BOUNDS: [f64; 13] = [
    0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 10.0,
];

/// Cumulative latency histogram (search requests answered 200).
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BOUNDS.len()],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        for (i, bound) in LATENCY_BOUNDS.iter().enumerate() {
            if secs <= *bound {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
            }
        }
        self.sum_micros
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn render(&self, name: &str, help: &str, out: &mut String) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
        for (i, bound) in LATENCY_BOUNDS.iter().enumerate() {
            out.push_str(&format!(
                "{name}_bucket{{le=\"{bound}\"}} {}\n",
                self.buckets[i].load(Ordering::Relaxed)
            ));
        }
        let count = self.count.load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
        out.push_str(&format!(
            "{name}_sum {}\n",
            self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!("{name}_count {count}\n"));
    }
}

/// Routes the request counter partitions on. Fixed set so the counter
/// matrix stays atomic (no label-string allocation on the hot path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `POST /search`
    Search,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /admin/reload`
    AdminReload,
    /// `POST /admin/ingest`
    AdminIngest,
    /// `POST /admin/checkpoint`
    AdminCheckpoint,
    /// `POST /admin/shutdown`
    AdminShutdown,
    /// Anything else (404s, bad requests, …).
    Other,
}

const ROUTES: [(Route, &str); 8] = [
    (Route::Search, "search"),
    (Route::Healthz, "healthz"),
    (Route::Metrics, "metrics"),
    (Route::AdminReload, "admin_reload"),
    (Route::AdminIngest, "admin_ingest"),
    (Route::AdminCheckpoint, "admin_checkpoint"),
    (Route::AdminShutdown, "admin_shutdown"),
    (Route::Other, "other"),
];

/// Status classes the counter matrix tracks per route — every code the
/// server emits (`http::reason` is the superset to keep in sync).
const CODES: [u16; 14] = [
    200, 400, 404, 405, 408, 409, 411, 413, 429, 431, 500, 501, 503, 505,
];

fn code_slot(code: u16) -> usize {
    CODES.iter().position(|&c| c == code).unwrap_or_else(|| {
        // Untracked codes fold into their class's generic slot.
        let fallback = if code >= 500 { 500 } else { 400 };
        CODES.iter().position(|&c| c == fallback).expect("in CODES")
    })
}

/// `mode` label values of `patternkb_search_fanout_total`.
const FANOUTS: [(Fanout, &str); 2] = [(Fanout::Inline, "inline"), (Fanout::Threads, "threads")];

/// Per-shard work aggregates accumulated across answered searches.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardAgg {
    /// Candidate roots routed to this shard.
    pub candidate_roots: u64,
    /// Valid subtrees enumerated by this shard.
    pub subtrees: u64,
}

/// All server counters. One instance per [`crate::server::Server`].
#[derive(Default)]
pub struct ServerMetrics {
    requests: [[AtomicU64; CODES.len()]; ROUTES.len()],
    /// Latency of answered searches (queueing + execution + rendering).
    pub latency: Histogram,
    /// Current admission-queue depth.
    pub queue_depth: AtomicU64,
    /// Requests refused because the queue was full (429).
    pub shed_queue_full: AtomicU64,
    /// Requests dropped because their deadline expired in the queue (503).
    pub shed_deadline: AtomicU64,
    /// Worker batch pops.
    pub batches: AtomicU64,
    /// Requests served through those batches.
    pub batched_requests: AtomicU64,
    /// Successful hot snapshot swaps.
    pub reloads: AtomicU64,
    /// Failed reload attempts.
    pub reload_failures: AtomicU64,
    /// Mutation batches applied through `POST /admin/ingest`.
    pub ingests: AtomicU64,
    /// Ingest batches refused (parse/resolution 400s, conflicts, closed).
    pub ingest_failures: AtomicU64,
    /// `(shard, word)` posting lists rebuilt by applied ingests.
    pub ingest_words_rebuilt: AtomicU64,
    /// Graph node chunks copied (not shared with the previous version) by
    /// applied ingests.
    pub ingest_graph_chunks_copied: AtomicU64,
    /// Duration of applied ingests: everything `SharedEngine::ingest_with`
    /// does, from delta compile to snapshot swap.
    pub ingest_refresh: Histogram,
    /// Recently drained (worker-served) request counts, for the
    /// [`Self::retry_after_secs`] estimate.
    drained: Mutex<VecDeque<(Instant, u64)>>,
    /// Connections accepted over the server's lifetime.
    pub connections_total: AtomicU64,
    /// Currently open connections.
    pub connections_active: AtomicU64,
    /// Connections refused at accept because the connection cap was hit.
    pub connections_refused: AtomicU64,
    shards: Mutex<Vec<ShardAgg>>,
    /// Executed (cache-missing) searches by resolved algorithm.
    executed: [AtomicU64; ALGORITHM_NAMES.len()],
    /// Executed searches by how their shard kernels ran.
    fanouts: [AtomicU64; FANOUTS.len()],
}

impl ServerMetrics {
    /// Count one finished HTTP exchange.
    pub fn record(&self, route: Route, code: u16) {
        let r = ROUTES
            .iter()
            .position(|(x, _)| *x == route)
            .unwrap_or(ROUTES.len() - 1);
        self.requests[r][code_slot(code)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests answered with `code` on `route` (test/diagnostics).
    pub fn count(&self, route: Route, code: u16) -> u64 {
        let r = ROUTES
            .iter()
            .position(|(x, _)| *x == route)
            .unwrap_or(ROUTES.len() - 1);
        self.requests[r][code_slot(code)].load(Ordering::Relaxed)
    }

    /// How far back the drain-rate window looks.
    const DRAIN_WINDOW: Duration = Duration::from_secs(5);

    /// Note that a worker just drained `n` requests off the admission
    /// queue (one call per batch pop).
    pub fn note_drained(&self, n: u64) {
        self.note_drained_at(Instant::now(), n);
    }

    fn note_drained_at(&self, now: Instant, n: u64) {
        let mut window = self.drained.lock().unwrap();
        window.push_back((now, n));
        while let Some(&(t, _)) = window.front() {
            if now.duration_since(t) > Self::DRAIN_WINDOW {
                window.pop_front();
            } else {
                break;
            }
        }
    }

    /// The `Retry-After` value (seconds) derived from the live queue:
    /// current depth ÷ recent drain throughput, clamped to `[1, 30]`.
    /// Every shedding site emits this one estimate so they cannot drift.
    ///
    /// An empty queue retries in 1 s (shed was a transient spike); a
    /// backlog with *no* recent drainage is the pessimistic 30 s (workers
    /// stalled or all capacity busy on long queries).
    pub fn retry_after_secs(&self) -> u64 {
        self.retry_after_secs_at(Instant::now())
    }

    fn retry_after_secs_at(&self, now: Instant) -> u64 {
        let depth = self.queue_depth.load(Ordering::Relaxed);
        if depth == 0 {
            return 1;
        }
        let drained: u64 = self
            .drained
            .lock()
            .unwrap()
            .iter()
            .filter(|(t, _)| now.duration_since(*t) <= Self::DRAIN_WINDOW)
            .map(|&(_, n)| n)
            .sum();
        if drained == 0 {
            return 30;
        }
        let rate = drained as f64 / Self::DRAIN_WINDOW.as_secs_f64();
        ((depth as f64 / rate).ceil() as u64).clamp(1, 30)
    }

    /// Fold one answered search's per-shard stats into the aggregates.
    fn record_shards(&self, stats: &QueryStats) {
        let mut shards = self.shards.lock().unwrap();
        for s in &stats.per_shard {
            if s.shard >= shards.len() {
                shards.resize(s.shard + 1, ShardAgg::default());
            }
            shards[s.shard].candidate_roots += s.candidate_roots as u64;
            shards[s.shard].subtrees += s.subtrees as u64;
        }
    }

    /// Fold one answered search into the per-shard aggregates and, when it
    /// was executed rather than served from the cache, into the
    /// algorithm and fan-out counters — what `Auto` picks, as it picks it.
    pub fn record_search(&self, resp: &SearchResponse) {
        self.record_shards(&resp.stats);
        if resp.cache == CacheOutcome::Hit {
            return;
        }
        self.executed[algorithm_slot(resp)].fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = FANOUTS.iter().position(|(f, _)| *f == resp.stats.fanout) {
            self.fanouts[slot].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Render the Prometheus exposition text. `engine` supplies the live
    /// cache/epoch/version families.
    pub fn render(&self, engine: &SharedEngine) -> String {
        let mut out = String::with_capacity(4096);

        out.push_str(
            "# HELP patternkb_requests_total HTTP requests by route and status code.\n\
             # TYPE patternkb_requests_total counter\n",
        );
        for (r, (_, route_name)) in ROUTES.iter().enumerate() {
            for (c, code) in CODES.iter().enumerate() {
                let n = self.requests[r][c].load(Ordering::Relaxed);
                if n > 0 || (*route_name == "search" && matches!(code, 200 | 429 | 503)) {
                    out.push_str(&format!(
                        "patternkb_requests_total{{route=\"{route_name}\",code=\"{code}\"}} {n}\n"
                    ));
                }
            }
        }

        self.latency.render(
            "patternkb_search_latency_seconds",
            "Search request latency (successful requests).",
            &mut out,
        );

        out.push_str(
            "# HELP patternkb_queue_depth Requests waiting in the admission queue.\n\
             # TYPE patternkb_queue_depth gauge\n",
        );
        out.push_str(&format!(
            "patternkb_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP patternkb_shed_total Requests shed by backpressure, by reason.\n\
             # TYPE patternkb_shed_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_shed_total{{reason=\"queue_full\"}} {}\n",
            self.shed_queue_full.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "patternkb_shed_total{{reason=\"deadline\"}} {}\n",
            self.shed_deadline.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP patternkb_batches_total Worker micro-batch pops.\n\
             # TYPE patternkb_batches_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_batches_total {}\n",
            self.batches.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP patternkb_batched_requests_total Search requests served through batches.\n\
             # TYPE patternkb_batched_requests_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_batched_requests_total {}\n",
            self.batched_requests.load(Ordering::Relaxed)
        ));

        let cache = engine.cache_stats();
        out.push_str(
            "# HELP patternkb_cache_hits_total Result-cache hits.\n\
             # TYPE patternkb_cache_hits_total counter\n",
        );
        out.push_str(&format!("patternkb_cache_hits_total {}\n", cache.hits));
        out.push_str(
            "# HELP patternkb_cache_misses_total Result-cache misses.\n\
             # TYPE patternkb_cache_misses_total counter\n",
        );
        out.push_str(&format!("patternkb_cache_misses_total {}\n", cache.misses));
        out.push_str(
            "# HELP patternkb_cache_table_fills_total Cache hits that composed their entry's tables (first reuse); later hits share them.\n\
             # TYPE patternkb_cache_table_fills_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_cache_table_fills_total {}\n",
            cache.table_fills
        ));
        out.push_str(
            "# HELP patternkb_cache_entries Results resident in the cache.\n\
             # TYPE patternkb_cache_entries gauge\n",
        );
        out.push_str(&format!("patternkb_cache_entries {}\n", cache.entries));
        out.push_str(
            "# HELP patternkb_cache_stale_total Entries rejected as version-stale.\n\
             # TYPE patternkb_cache_stale_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_cache_stale_total {}\n",
            cache.stale_rejections
        ));
        out.push_str(
            "# HELP patternkb_cache_evictions_total Entries evicted by capacity.\n\
             # TYPE patternkb_cache_evictions_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_cache_evictions_total {}\n",
            cache.evictions
        ));
        out.push_str(
            "# HELP patternkb_cache_carried_total Entries an ingest kept valid at its new version (it rebuilt no list of their words).\n\
             # TYPE patternkb_cache_carried_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_cache_carried_total {}\n",
            cache.carried
        ));
        out.push_str(
            "# HELP patternkb_cache_invalidated_total Entries an ingest left at the old version (it rebuilt a list of one of their words).\n\
             # TYPE patternkb_cache_invalidated_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_cache_invalidated_total {}\n",
            cache.invalidated
        ));

        // Storage families are read live from the serving snapshot. An
        // ingest patches touched words over the shared base, so the tier
        // stays what it was at boot; only a refresh that rebuilds every
        // list (recomputed PageRank, new schema vocabulary) lands on heap.
        let snapshot = engine.snapshot();
        let backend = snapshot.storage_backend();
        out.push_str(
            "# HELP patternkb_storage_backend Storage tier serving the path indexes (1 = active).\n\
             # TYPE patternkb_storage_backend gauge\n",
        );
        for candidate in [
            patternkb_search::StorageBackend::Heap,
            patternkb_search::StorageBackend::Mmap,
        ] {
            out.push_str(&format!(
                "patternkb_storage_backend{{backend=\"{candidate}\"}} {}\n",
                u8::from(candidate == backend)
            ));
        }
        out.push_str(
            "# HELP patternkb_index_patched_words Word lists rebuilt by ingests since the index image was built or loaded (checkpoint + reload folds them back in).\n\
             # TYPE patternkb_index_patched_words gauge\n",
        );
        out.push_str(&format!(
            "patternkb_index_patched_words {}\n",
            snapshot.index().num_patched_words()
        ));
        if let Some(load) = snapshot.snapshot_load_time() {
            out.push_str(
                "# HELP patternkb_snapshot_load_seconds Index snapshot load/open time at boot.\n\
                 # TYPE patternkb_snapshot_load_seconds gauge\n",
            );
            out.push_str(&format!(
                "patternkb_snapshot_load_seconds {}\n",
                load.as_secs_f64()
            ));
        }

        out.push_str(
            "# HELP patternkb_engine_epoch Hot-swap epoch (+1 per /admin/reload).\n\
             # TYPE patternkb_engine_epoch gauge\n",
        );
        out.push_str(&format!("patternkb_engine_epoch {}\n", engine.epoch()));
        out.push_str(
            "# HELP patternkb_engine_version Data version of the serving snapshot.\n\
             # TYPE patternkb_engine_version gauge\n",
        );
        out.push_str(&format!("patternkb_engine_version {}\n", engine.version()));
        out.push_str(
            "# HELP patternkb_reloads_total Successful hot snapshot swaps.\n\
             # TYPE patternkb_reloads_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_reloads_total {}\n",
            self.reloads.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP patternkb_reload_failures_total Failed reload attempts.\n\
             # TYPE patternkb_reload_failures_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_reload_failures_total {}\n",
            self.reload_failures.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP patternkb_ingests_total Mutation batches applied via /admin/ingest.\n\
             # TYPE patternkb_ingests_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_ingests_total {}\n",
            self.ingests.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP patternkb_ingest_failures_total Ingest batches refused.\n\
             # TYPE patternkb_ingest_failures_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_ingest_failures_total {}\n",
            self.ingest_failures.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP patternkb_ingest_words_rebuilt_total Posting lists rebuilt by applied ingests.\n\
             # TYPE patternkb_ingest_words_rebuilt_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_ingest_words_rebuilt_total {}\n",
            self.ingest_words_rebuilt.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP patternkb_ingest_graph_chunks_copied_total Graph node chunks copied, not shared with the previous version, by applied ingests.\n\
             # TYPE patternkb_ingest_graph_chunks_copied_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_ingest_graph_chunks_copied_total {}\n",
            self.ingest_graph_chunks_copied.load(Ordering::Relaxed)
        ));
        self.ingest_refresh.render(
            "patternkb_ingest_refresh_seconds",
            "Applied-ingest duration: delta compile, copy of the touched graph chunks, \
             text-index extension, rebuild of the touched posting lists, WAL append and \
             fsync when durable, snapshot swap.",
            &mut out,
        );

        out.push_str(
            "# HELP patternkb_connections_total Connections accepted.\n\
             # TYPE patternkb_connections_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_connections_total {}\n",
            self.connections_total.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP patternkb_connections_active Currently open connections.\n\
             # TYPE patternkb_connections_active gauge\n",
        );
        out.push_str(&format!(
            "patternkb_connections_active {}\n",
            self.connections_active.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP patternkb_connections_refused_total Connections refused at the cap.\n\
             # TYPE patternkb_connections_refused_total counter\n",
        );
        out.push_str(&format!(
            "patternkb_connections_refused_total {}\n",
            self.connections_refused.load(Ordering::Relaxed)
        ));

        if let Some(durability) = engine.durability() {
            let d = durability.metrics();
            out.push_str(
                "# HELP patternkb_wal_appended_total Delta records appended to the write-ahead log.\n\
                 # TYPE patternkb_wal_appended_total counter\n",
            );
            out.push_str(&format!(
                "patternkb_wal_appended_total {}\n",
                d.appended_total
            ));
            out.push_str(
                "# HELP patternkb_wal_bytes Current write-ahead log size (shrinks on checkpoint).\n\
                 # TYPE patternkb_wal_bytes gauge\n",
            );
            out.push_str(&format!("patternkb_wal_bytes {}\n", d.log_bytes));
            out.push_str(
                "# HELP patternkb_wal_records Records currently in the write-ahead log.\n\
                 # TYPE patternkb_wal_records gauge\n",
            );
            out.push_str(&format!("patternkb_wal_records {}\n", d.log_records));

            let name = "patternkb_wal_fsync_seconds";
            out.push_str(&format!(
                "# HELP {name} Write-ahead log fsync latency.\n# TYPE {name} histogram\n"
            ));
            for (i, bound) in patternkb_search::FSYNC_BOUNDS.iter().enumerate() {
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{bound}\"}} {}\n",
                    d.fsync.buckets[i]
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", d.fsync.count));
            out.push_str(&format!(
                "{name}_sum {}\n",
                d.fsync.total_micros as f64 / 1e6
            ));
            out.push_str(&format!("{name}_count {}\n", d.fsync.count));

            out.push_str(
                "# HELP patternkb_checkpoints_total Checkpoints completed since boot.\n\
                 # TYPE patternkb_checkpoints_total counter\n",
            );
            out.push_str(&format!(
                "patternkb_checkpoints_total {}\n",
                d.checkpoints_total
            ));
            out.push_str(
                "# HELP patternkb_checkpoint_failures_total Checkpoint attempts that failed.\n\
                 # TYPE patternkb_checkpoint_failures_total counter\n",
            );
            out.push_str(&format!(
                "patternkb_checkpoint_failures_total {}\n",
                d.checkpoint_failures
            ));
            if let Some(age) = d.last_checkpoint_age {
                out.push_str(
                    "# HELP patternkb_checkpoint_age_seconds Time since the last completed checkpoint.\n\
                     # TYPE patternkb_checkpoint_age_seconds gauge\n",
                );
                out.push_str(&format!(
                    "patternkb_checkpoint_age_seconds {}\n",
                    age.as_secs_f64()
                ));
            }
        }

        out.push_str(
            "# HELP patternkb_search_algorithm_total Executed (cache-missing) searches by resolved algorithm.\n\
             # TYPE patternkb_search_algorithm_total counter\n",
        );
        for (name, n) in ALGORITHM_NAMES.iter().zip(&self.executed) {
            out.push_str(&format!(
                "patternkb_search_algorithm_total{{algorithm=\"{name}\"}} {}\n",
                n.load(Ordering::Relaxed)
            ));
        }
        out.push_str(
            "# HELP patternkb_search_fanout_total Executed searches by how their shard kernels ran.\n\
             # TYPE patternkb_search_fanout_total counter\n",
        );
        for ((_, mode), n) in FANOUTS.iter().zip(&self.fanouts) {
            out.push_str(&format!(
                "patternkb_search_fanout_total{{mode=\"{mode}\"}} {}\n",
                n.load(Ordering::Relaxed)
            ));
        }

        out.push_str(
            "# HELP patternkb_shard_candidate_roots_total Candidate roots per index shard.\n\
             # TYPE patternkb_shard_candidate_roots_total counter\n\
             # HELP patternkb_shard_subtrees_total Valid subtrees enumerated per index shard.\n\
             # TYPE patternkb_shard_subtrees_total counter\n",
        );
        for (i, agg) in self.shards.lock().unwrap().iter().enumerate() {
            out.push_str(&format!(
                "patternkb_shard_candidate_roots_total{{shard=\"{i}\"}} {}\n",
                agg.candidate_roots
            ));
            out.push_str(&format!(
                "patternkb_shard_subtrees_total{{shard=\"{i}\"}} {}\n",
                agg.subtrees
            ));
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(100)); // <= every bound
        h.observe(Duration::from_millis(30)); // > 25ms bound
        assert_eq!(h.count(), 2);
        let mut out = String::new();
        h.render("t", "test histogram", &mut out);
        assert!(out.contains("t_bucket{le=\"0.00025\"} 1\n"));
        assert!(out.contains("t_bucket{le=\"0.05\"} 2\n"));
        assert!(out.contains("t_bucket{le=\"+Inf\"} 2\n"));
        assert!(out.contains("t_count 2\n"));
    }

    #[test]
    fn request_matrix_counts() {
        let m = ServerMetrics::default();
        m.record(Route::Search, 200);
        m.record(Route::Search, 200);
        m.record(Route::Search, 429);
        m.record(Route::Other, 404);
        // Unknown 5xx folds into the 500 slot; unknown 4xx into 400.
        m.record(Route::Search, 502);
        assert_eq!(m.count(Route::Search, 200), 2);
        assert_eq!(m.count(Route::Search, 429), 1);
        assert_eq!(m.count(Route::Other, 404), 1);
        assert_eq!(m.count(Route::Search, 500), 1);
    }

    #[test]
    fn retry_after_derives_from_queue_and_drain_rate() {
        let m = ServerMetrics::default();
        let now = Instant::now();

        // Empty queue: retry shortly no matter the drain history.
        assert_eq!(m.retry_after_secs_at(now), 1);

        // Backlog with nothing draining: pessimistic cap.
        m.queue_depth.store(100, Ordering::Relaxed);
        assert_eq!(m.retry_after_secs_at(now), 30);

        // 50 drained in the 5s window → 10/s; 100 queued → 10s.
        m.note_drained_at(now, 50);
        assert_eq!(m.retry_after_secs_at(now), 10);

        // Faster drainage shrinks the estimate, floored at 1.
        m.note_drained_at(now, 950);
        assert_eq!(m.retry_after_secs_at(now), 1);

        // Entries age out of the window; backlog alone is capped at 30.
        let later = now + Duration::from_secs(11);
        m.note_drained_at(later, 0); // triggers expiry of old entries
        assert_eq!(m.retry_after_secs_at(later), 30);
    }

    #[test]
    fn retry_after_is_clamped() {
        let m = ServerMetrics::default();
        let now = Instant::now();
        m.queue_depth.store(100_000, Ordering::Relaxed);
        m.note_drained_at(now, 1);
        assert_eq!(m.retry_after_secs_at(now), 30);
    }

    #[test]
    fn shard_aggregates_grow() {
        use patternkb_search::ShardStats;
        let m = ServerMetrics::default();
        let stats = QueryStats {
            per_shard: vec![
                ShardStats {
                    shard: 0,
                    candidate_roots: 3,
                    subtrees: 5,
                    patterns: 1,
                },
                ShardStats {
                    shard: 2,
                    candidate_roots: 1,
                    subtrees: 2,
                    patterns: 1,
                },
            ],
            ..QueryStats::default()
        };
        m.record_shards(&stats);
        m.record_shards(&stats);
        let shards = m.shards.lock().unwrap();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].candidate_roots, 6);
        assert_eq!(shards[2].subtrees, 4);
    }
}
