//! The concurrent serving handle: snapshot-swap around the immutable
//! [`SearchEngine`], with the version-aware result cache built in.
//!
//! The engine itself is immutable after build, so any number of threads
//! can query one instance. Mutation, however, replaces the whole state
//! (graph + text index + path indexes). [`SharedEngine`] reconciles the
//! two with the classic read-copy-update shape:
//!
//! * **readers** call [`SharedEngine::respond`], which takes a cheap
//!   [`Arc`] snapshot and serves the request through the built-in
//!   [`QueryCache`] — entries record the range of engine versions they are
//!   valid at (no time-based expiry);
//! * **writers** compute the post-delta engine *outside* any lock
//!   ([`SearchEngine::with_delta`] — the expensive incremental refresh),
//!   then swap the shared pointer under a short critical section. A writer
//!   mutex serializes ingests so two concurrent deltas (both derived from
//!   the same base) cannot silently lose one another's writes. Just before
//!   the swap, the writer extends to the new version every cache entry
//!   whose words the delta's refresh left alone; an ingest invalidates
//!   exactly the entries that read a list it replaced.
//!
//! Readers never block writers and writers never block readers; the only
//! contention is the pointer swap. Old snapshots are freed when their last
//! reader drops them — never under the pointer's write guard — and
//! consecutive versions share every posting list and every graph chunk
//! the delta between them did not touch, so holding one costs its text
//! index and the few chunks that were copied, not a second graph or
//! index. [`SharedEngine::snapshot`] remains available for
//! callers that need many queries against one consistent state.
//!
//! Two serving-lifecycle operations round this out:
//!
//! * [`SharedEngine::replace`] — **hot snapshot swap**: atomically swap in
//!   a rebuilt/refreshed engine (bumping the *epoch*) while in-flight
//!   queries finish on the old state;
//! * [`SharedEngine::close`] — graceful shutdown: stop admitting new
//!   responds (typed [`Error::Closed`]), then drain the in-flight ones.
//!   Idempotent.

use crate::cache::{CacheStats, QueryCache};
use crate::durability::Durability;
use crate::engine::SearchEngine;
use crate::error::Error;
use crate::request::{SearchRequest, SearchResponse};
use parking_lot::{Mutex, RwLock};
use patternkb_graph::mutate::{DeltaError, GraphDelta, PagerankMode};
use patternkb_index::RefreshStats;
use std::sync::Arc;

/// What one [`SharedEngine::ingest_with`] call changed.
#[derive(Clone, Copy, Debug)]
pub struct IngestOutcome {
    /// The incremental refresh's work counters (affected roots, postings
    /// kept/dropped/added, patterns interned).
    pub stats: RefreshStats,
    /// The data version now serving (strictly greater than before).
    pub version: u64,
    /// Graph node chunks the new version copied instead of sharing with
    /// its base ([`patternkb_graph::KnowledgeGraph::chunks_shared_with`]):
    /// a handful for a `Frozen` batch, all of them under `Recompute`.
    pub graph_chunks_copied: usize,
}

/// Why an [`SharedEngine::ingest_with`] call failed. `E` is the caller's
/// delta-builder error (wire parse/resolution failures in the serving
/// layer); the other variants are the engine's own refusals.
#[derive(Debug)]
pub enum IngestError<E> {
    /// The handle was closed ([`SharedEngine::close`]); no new writes are
    /// admitted. Maps to 503 on the serving surface.
    Closed,
    /// The caller's builder rejected the batch (nothing was mutated).
    Build(E),
    /// The built delta failed validation against its own base snapshot
    /// (duplicate edge, removal of a missing edge, …). Never
    /// [`DeltaError::BaseMismatch`] or [`DeltaError::SchemaMismatch`]: the
    /// delta is built under the writer lock, so the base cannot move
    /// between build and apply.
    Delta(DeltaError),
    /// The write-ahead log could not make the delta durable (append or
    /// fsync failure). The delta is **not** visible to readers — a write
    /// that was never durable must not be served. Only raised on handles
    /// built with [`crate::EngineBuilder::data_dir`]; maps to 503 on the
    /// serving surface.
    Durability(std::io::Error),
    /// A word list the refresh must splice has a damaged mapped stream
    /// (the same typed error a search touching it gets). Nothing was
    /// logged or published: the version does not move. Maps to 500
    /// `snapshot` on the serving surface.
    Snapshot(patternkb_graph::snapshot::SnapshotError),
}

impl<E: std::fmt::Display> std::fmt::Display for IngestError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Closed => write!(f, "engine is shutting down; ingest refused"),
            IngestError::Build(e) => write!(f, "delta build failed: {e}"),
            IngestError::Delta(e) => write!(f, "delta rejected: {e}"),
            IngestError::Durability(e) => write!(f, "ingest not made durable: {e}"),
            IngestError::Snapshot(e) => write!(f, "mapped index stream is damaged: {e}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for IngestError<E> {}

/// A queryable, mutable-by-swap handle shared across threads. Built by
/// [`crate::EngineBuilder::build_shared`].
pub struct SharedEngine {
    current: RwLock<Arc<SearchEngine>>,
    /// Serializes writers; held across the (long) delta computation so a
    /// second ingest starts from the first one's result.
    writer: Mutex<()>,
    /// Version-aware result cache consulted by [`Self::respond`].
    cache: QueryCache,
    /// Admission gate: counts in-flight responds and flips closed on
    /// [`Self::close`]. std primitives (not parking_lot) so the condvar
    /// wait in `close` composes with the guard's `Drop` on panic unwinds.
    gate: Gate,
    /// Hot-swap epoch: +1 per [`Self::replace`] (whole-engine snapshot
    /// swap), independent of the per-delta data version.
    epoch: std::sync::atomic::AtomicU64,
    /// The newest *built* engine state, possibly not yet published: with
    /// durability attached, an ingest builds on this tail (under the
    /// writer lock), appends to the log, then publishes to `current` only
    /// once durable. Letting the next ingest start from the unpublished
    /// tail is what makes group commit actually batch — without it every
    /// writer would hold the writer lock across its fsync wait.
    pending: Mutex<Option<Arc<SearchEngine>>>,
    /// The write-ahead log + checkpointer, when booted with
    /// [`crate::EngineBuilder::data_dir`].
    durability: Option<Arc<Durability>>,
}

/// Admission state: how many responds are in flight, and whether new ones
/// are still admitted.
struct Gate {
    state: std::sync::Mutex<GateState>,
    drained: std::sync::Condvar,
}

struct GateState {
    closed: bool,
    in_flight: usize,
}

/// RAII in-flight token: decrements the gate count (and wakes a pending
/// [`SharedEngine::close`]) when the respond call ends, even by panic.
struct InFlight<'a>(&'a Gate);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap();
        st.in_flight -= 1;
        if st.in_flight == 0 {
            self.0.drained.notify_all();
        }
    }
}

impl SharedEngine {
    /// Default capacity of the built-in result cache.
    pub const DEFAULT_CACHE_CAPACITY: usize = 256;

    /// Wrap a freshly built engine with the default cache capacity.
    pub fn new(engine: SearchEngine) -> Self {
        Self::with_cache_capacity(engine, Self::DEFAULT_CACHE_CAPACITY)
    }

    /// Wrap a freshly built engine with an explicit result-cache capacity
    /// (entries; ≥ 1).
    pub fn with_cache_capacity(engine: SearchEngine, capacity: usize) -> Self {
        Self::assemble(engine, capacity, None)
    }

    /// Wrap an engine with a durability handle attached (the
    /// [`crate::EngineBuilder::data_dir`] route).
    pub(crate) fn assemble(
        engine: SearchEngine,
        capacity: usize,
        durability: Option<Arc<Durability>>,
    ) -> Self {
        SharedEngine {
            current: RwLock::new(Arc::new(engine)),
            writer: Mutex::new(()),
            cache: QueryCache::new(capacity),
            gate: Gate {
                state: std::sync::Mutex::new(GateState {
                    closed: false,
                    in_flight: 0,
                }),
                drained: std::sync::Condvar::new(),
            },
            epoch: std::sync::atomic::AtomicU64::new(0),
            pending: Mutex::new(None),
            durability,
        }
    }

    /// The durability handle, when this engine was booted with
    /// [`crate::EngineBuilder::data_dir`]. `None` means ingests are
    /// memory-only (lost on restart).
    pub fn durability(&self) -> Option<&Arc<Durability>> {
        self.durability.as_ref()
    }

    /// Register one in-flight respond, or refuse if the handle is closed.
    fn enter(&self) -> Result<InFlight<'_>, Error> {
        let mut st = self.gate.state.lock().unwrap();
        if st.closed {
            return Err(Error::Closed);
        }
        st.in_flight += 1;
        Ok(InFlight(&self.gate))
    }

    /// Serve one request against the current state, through the built-in
    /// cache. [`SearchResponse::cache`] reports whether the search step
    /// was a hit. A hit takes reference counts on the entry's patterns and
    /// on its composed tables (filled by the entry's first hit — see
    /// [`crate::cache`]); presentation, explain and relaxation are
    /// computed per call.
    ///
    /// Concurrent [`Self::apply_delta`] calls are safe: the request runs
    /// against the snapshot current at its start, and a cached entry is
    /// served only at versions it is valid at — the one it was computed at
    /// and every later one whose delta replaced no list of its words.
    pub fn respond(&self, request: &SearchRequest) -> Result<SearchResponse, Error> {
        let _token = self.enter()?;
        let snapshot = self.snapshot();
        snapshot.respond_with_cache(request, Some(&self.cache))
    }

    /// [`Self::respond`] against a snapshot the caller already holds —
    /// the micro-batching route: a serving worker takes one
    /// [`Self::snapshot`] per admitted batch and answers every request of
    /// the batch through it (and through the shared cache), paying the
    /// swap-pointer read once instead of per request.
    ///
    /// The snapshot may be older than the current state (e.g. a
    /// [`Self::replace`] or an ingest landed mid-batch); answers stay
    /// internally consistent with that snapshot, cache entries are checked
    /// against its version so the two states never mix, and a miss on the
    /// older snapshot leaves the current state's entry in place.
    pub fn respond_on(
        &self,
        snapshot: &SearchEngine,
        request: &SearchRequest,
    ) -> Result<SearchResponse, Error> {
        let _token = self.enter()?;
        snapshot.respond_with_cache(request, Some(&self.cache))
    }

    /// An immutable snapshot of the current state. Queries, parsing, table
    /// composition — everything on [`SearchEngine`] — runs against it;
    /// it stays valid (and consistent) across later ingests.
    pub fn snapshot(&self) -> Arc<SearchEngine> {
        Arc::clone(&self.current.read())
    }

    /// The current data version (see [`SearchEngine::version`]).
    pub fn version(&self) -> u64 {
        self.current.read().version()
    }

    /// The hot-swap epoch: 0 at construction, +1 per [`Self::replace`].
    /// Per-delta ingests ([`Self::apply_delta`]) bump [`Self::version`]
    /// but not the epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Whether [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.gate.state.lock().unwrap().closed
    }

    /// Shut the handle down: stop admitting new [`Self::respond`] /
    /// [`Self::respond_on`] calls (they return [`Error::Closed`] from now
    /// on), then block until every in-flight respond has finished.
    /// Idempotent — later calls return immediately once drained.
    /// Snapshots already handed out stay valid; `close` only gates the
    /// shared respond route.
    pub fn close(&self) {
        let mut st = self.gate.state.lock().unwrap();
        st.closed = true;
        while st.in_flight > 0 {
            st = self.gate.drained.wait(st).unwrap();
        }
    }

    /// Hot snapshot swap: atomically replace the whole engine with a
    /// rebuilt/refreshed one while in-flight queries finish on the old
    /// state. Returns the new epoch.
    ///
    /// The incoming engine's data version is rebased strictly above the
    /// outgoing one, and the result cache is cleared, so entries computed
    /// on the old state can never be served against the new one — even
    /// when a concurrent respond races the swap and inserts afterwards
    /// (its entry's versions all lie below the new one), or an ingest
    /// built on the old state carries entries late (to a version below it).
    pub fn replace(&self, next: SearchEngine) -> u64 {
        let _writing = self.writer.lock();
        let mut next = next;
        // The rebase floor includes the unpublished ingest tail (durable
        // handles), so a swapped-in engine can never collide with a
        // version already written to the log.
        let mut floor = self.current.read().version();
        if let Some(tail) = self.pending.lock().take() {
            floor = floor.max(tail.version());
        }
        next.rebase_version(floor);
        swap_unlocked(&self.current, Arc::new(next), |_| true);
        self.cache.clear();
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1
    }

    /// Cumulative hit/miss/eviction counters of the built-in cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Ingest a pre-built delta. Equivalent to [`Self::ingest_with`] with
    /// a builder that just clones `delta` — so the delta must have been
    /// built against the latest state. If another ingest landed in
    /// between, the graphs no longer line up and the delta is rejected by
    /// validation ([`DeltaError::BaseMismatch`], or
    /// [`DeltaError::SchemaMismatch`] when only schema was added in
    /// between; surfaced as [`Error::Delta`]) — the caller must rebuild and
    /// retry.
    /// [`Self::ingest_with`] removes that race entirely by building the
    /// delta under the writer lock; prefer it for any concurrent write
    /// path.
    pub fn apply_delta(
        &self,
        delta: &GraphDelta,
        mode: PagerankMode,
    ) -> Result<RefreshStats, Error> {
        match self.ingest_with(mode, |_| Ok::<_, std::convert::Infallible>(delta.clone())) {
            Ok(outcome) => Ok(outcome.stats),
            Err(IngestError::Build(never)) => match never {},
            Err(IngestError::Delta(e)) => Err(Error::Delta(e)),
            Err(IngestError::Closed) => Err(Error::Closed),
            Err(IngestError::Durability(e)) => Err(Error::Durability(e)),
            Err(IngestError::Snapshot(e)) => Err(Error::Snapshot(e)),
        }
    }

    /// The online write path: build a delta **against the latest state,
    /// under the writer lock**, apply it through the incremental index
    /// refresh, and swap the result in — while readers keep serving the
    /// old snapshot (the only read-side cost is the pointer swap).
    ///
    /// Because `build` runs with the writer mutex held, the state it sees
    /// *is* the apply base, so two racing ingests serialize — the second
    /// one's `build` sees the first one's result — instead of one of them
    /// failing [`DeltaError::BaseMismatch`] validation. `build` should
    /// therefore be quick (resolve names, assemble the [`GraphDelta`]);
    /// the expensive part — the incremental refresh — also runs under the
    /// writer lock but off the snapshot `RwLock`, so reads never stall
    /// behind it. Returning `Err` from `build` abandons the ingest with
    /// no state change.
    ///
    /// With durability attached ([`crate::EngineBuilder::data_dir`]) the
    /// ordering is *log → durable → publish*: the compiled delta is
    /// appended to the write-ahead log before any pointer moves, the call
    /// acks only after a group-commit fsync covers the record, and the
    /// state is published to readers only then. The durability wait
    /// happens *outside* the
    /// writer lock — the next ingest builds on the not-yet-published tail
    /// meanwhile, so one shared fsync acks a whole batch (group commit).
    /// On an append/fsync failure the log poisons itself and the
    /// unpublished tail is abandoned: a delta that never became durable
    /// is never visible.
    ///
    /// ```
    /// use patternkb_graph::mutate::{DeltaError, GraphDelta, PagerankMode};
    /// use patternkb_search::EngineBuilder;
    ///
    /// let (graph, _) = patternkb_datagen::figure1();
    /// let shared = EngineBuilder::new()
    ///     .graph(graph)
    ///     .height(2)
    ///     .threads(1)
    ///     .build_shared()
    ///     .unwrap();
    /// let before = shared.version();
    /// let outcome = shared
    ///     .ingest_with(PagerankMode::Frozen, |snap| {
    ///         // `snap` is the pinned base: resolve against it, then
    ///         // assemble the delta.
    ///         let mut d = GraphDelta::new(snap.graph());
    ///         let company = d.add_type("Company");
    ///         d.add_node(company, "Initech")?;
    ///         Ok::<_, DeltaError>(d)
    ///     })
    ///     .unwrap();
    /// assert_eq!(outcome.version, before + 1);
    /// assert_eq!(shared.version(), outcome.version);
    /// ```
    pub fn ingest_with<E>(
        &self,
        mode: PagerankMode,
        build: impl FnOnce(&SearchEngine) -> Result<GraphDelta, E>,
    ) -> Result<IngestOutcome, IngestError<E>> {
        let (base_version, next, stats, changed, graph_chunks_copied, ticket) = {
            let _writing = self.writer.lock();
            if self.is_closed() {
                return Err(IngestError::Closed);
            }
            // The base is pinned: no other writer can move it while we
            // hold `writer`. It is the newest *built* state — under
            // durability possibly still waiting on its fsync — so the
            // delta `build` produces is applied to exactly the graph it
            // was built against.
            let base = self
                .pending
                .lock()
                .clone()
                .unwrap_or_else(|| self.snapshot());
            let delta = build(&base).map_err(IngestError::Build)?;
            let (next, stats, changed) = base.with_delta(&delta, mode).map_err(|e| match e {
                Error::Delta(e) => IngestError::Delta(e),
                Error::Snapshot(e) => IngestError::Snapshot(e),
                other => unreachable!("`with_delta` fails with Delta or Snapshot, not {other}"),
            })?;
            let (shared, total) = next.graph().chunks_shared_with(base.graph());
            let next = Arc::new(next);
            let ticket = match &self.durability {
                Some(d) => Some(
                    d.append(next.version(), mode, &delta)
                        .map_err(IngestError::Durability)?,
                ),
                None => None,
            };
            *self.pending.lock() = Some(Arc::clone(&next));
            (base.version(), next, stats, changed, total - shared, ticket)
        };
        if let Some(ticket) = ticket {
            let d = self.durability.as_ref().expect("ticket implies durability");
            d.sync(ticket).map_err(IngestError::Durability)?;
        }
        let version = next.version();
        // Acked: entries the delta left valid now cover `version` too, so
        // readers of the base and of `next` both keep hitting. When group
        // commit publishes out of order, a later version may already be
        // current; its readers never hit at `version`, so the race can only
        // cost carries, never serve a stale answer.
        self.cache.carry(base_version, version, &changed);
        self.publish_if_newer(next);
        if let Some(d) = &self.durability {
            d.maybe_checkpoint(&self.snapshot());
        }
        Ok(IngestOutcome {
            stats,
            version,
            graph_chunks_copied,
        })
    }

    /// Publish `next` unless something newer (a later ingest whose fsync
    /// completed first, or a hot swap) already landed.
    fn publish_if_newer(&self, next: Arc<SearchEngine>) {
        let version = next.version();
        swap_unlocked(&self.current, next, |cur| version > cur.version());
    }
}

/// Install `next` in `slot` if `admit` accepts the value it would replace.
/// The outgoing `Arc` is dropped only after the write guard is released:
/// when it is the last reference, freeing a whole engine takes
/// milliseconds, and no [`SharedEngine::snapshot`] caller should queue
/// behind that.
fn swap_unlocked<T>(slot: &RwLock<Arc<T>>, next: Arc<T>, admit: impl FnOnce(&T) -> bool) {
    let outgoing = {
        let mut cur = slot.write();
        if !admit(&cur) {
            return;
        }
        std::mem::replace(&mut *cur, next)
    };
    drop(outgoing);
}

impl std::fmt::Debug for SharedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedEngine {{ version: {} }}", self.version())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::CacheOutcome;
    use crate::EngineBuilder;
    use patternkb_datagen::figure1;

    fn shared() -> SharedEngine {
        let (g, _) = figure1();
        EngineBuilder::new()
            .graph(g)
            .threads(1)
            .build_shared()
            .unwrap()
    }

    fn ingest_vendor(s: &SharedEngine, step: usize) {
        let snap = s.snapshot();
        let g = snap.graph();
        let comp = g.type_by_text("Company").unwrap();
        let rev = g.attr_by_text("Revenue").unwrap();
        let mut d = GraphDelta::new(g);
        let v = d.add_node(comp, &format!("shared vendor {step}")).unwrap();
        d.add_text_edge(v, rev, &format!("US$ {step} million"))
            .unwrap();
        s.apply_delta(&d, PagerankMode::Frozen).unwrap();
    }

    #[test]
    fn outgoing_snapshot_is_freed_after_the_write_guard() {
        // The value in the slot records, as it is freed, whether a reader
        // could have taken the lock at that moment.
        struct Probe {
            slot: std::sync::Weak<RwLock<Arc<Probe>>>,
            readable_at_drop: Arc<std::sync::Mutex<Vec<bool>>>,
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                if let Some(slot) = self.slot.upgrade() {
                    let readable = slot.try_read().is_some();
                    self.readable_at_drop.lock().unwrap().push(readable);
                }
            }
        }
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let probe = |slot: &std::sync::Weak<RwLock<Arc<Probe>>>| {
            Arc::new(Probe {
                slot: slot.clone(),
                readable_at_drop: Arc::clone(&seen),
            })
        };
        let slot = Arc::new_cyclic(|weak| RwLock::new(probe(weak)));
        let weak = Arc::downgrade(&slot);
        // Admitted: the outgoing value's last reference dies in the swap.
        swap_unlocked(&slot, probe(&weak), |_| true);
        assert_eq!(*seen.lock().unwrap(), [true], "freed under the write guard");
        // Refused: the rejected incoming value dies instead.
        swap_unlocked(&slot, probe(&weak), |_| false);
        assert_eq!(*seen.lock().unwrap(), [true, true]);
    }

    #[test]
    fn respond_caches_and_invalidates() {
        let s = shared();
        let req = SearchRequest::text("company revenue").k(10);
        let first = s.respond(&req).unwrap();
        assert_eq!(first.cache, CacheOutcome::Miss);
        let second = s.respond(&req).unwrap();
        assert_eq!(second.cache, CacheOutcome::Hit);
        assert_eq!(first.patterns.len(), second.patterns.len());

        ingest_vendor(&s, 1);
        // The engine moved on: the cached entry is stale, never served.
        let third = s.respond(&req).unwrap();
        assert_eq!(third.cache, CacheOutcome::Miss);
        let stats = s.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.stale_rejections, 1);
    }

    #[test]
    fn auto_requests_cache_and_report_planner_choice() {
        // Auto requests are keyed by the choice, so a hit skips planning
        // but still reports the resolved algorithm.
        let s = shared();
        let req = SearchRequest::text("database company").k(10);
        let first = s.respond(&req).unwrap();
        assert_eq!(first.cache, CacheOutcome::Miss);
        assert!(first.planned);
        let second = s.respond(&req).unwrap();
        assert_eq!(second.cache, CacheOutcome::Hit);
        assert!(second.planned);
        assert_eq!(
            format!("{:?}", first.algorithm),
            format!("{:?}", second.algorithm),
            "cached response reports the same resolved algorithm"
        );
        assert!(matches!(first.algorithm, crate::Algorithm::LinearEnum));
    }

    #[test]
    fn respond_errors_are_typed_not_cached() {
        let s = shared();
        assert!(matches!(
            s.respond(&SearchRequest::text("")),
            Err(Error::EmptyQuery)
        ));
        assert!(matches!(
            s.respond(&SearchRequest::text("qqqqzzzz")),
            Err(Error::UnknownWords(_))
        ));
        let stats = s.cache_stats();
        assert_eq!(
            stats.hits + stats.misses,
            0,
            "errors must not touch the cache"
        );
    }

    #[test]
    fn snapshots_stay_consistent_across_ingest() {
        let s = shared();
        let before = s.snapshot();
        let req = SearchRequest::text("company revenue").k(100);
        let r_before = before.respond(&req).unwrap();

        ingest_vendor(&s, 1);
        assert_eq!(s.version(), 1);

        // The old snapshot still answers exactly as before.
        let r_again = before.respond(&req).unwrap();
        assert_eq!(r_before.patterns.len(), r_again.patterns.len());

        // A fresh respond sees the new vendor.
        let r_after = s
            .respond(&SearchRequest::text("vendor revenue").k(100))
            .unwrap();
        assert_eq!(r_after.top().unwrap().num_trees, 1);
    }

    #[test]
    fn stale_delta_is_rejected_not_lost() {
        let s = shared();
        // Build a delta against version 0 …
        let old_snap = s.snapshot();
        let g = old_snap.graph();
        let comp = g.type_by_text("Company").unwrap();
        let mut stale = GraphDelta::new(g);
        stale.add_node(comp, "stale corp").unwrap();
        // … then let another ingest land first.
        ingest_vendor(&s, 7);
        // The stale delta's node-count bookkeeping no longer matches:
        // a typed error, never a silent lost-update.
        let err = s.apply_delta(&stale, PagerankMode::Frozen).unwrap_err();
        assert!(matches!(err, Error::Delta(DeltaError::BaseMismatch { .. })));
        assert_eq!(s.version(), 1, "stale delta left the state untouched");
    }

    #[test]
    fn stale_delta_cannot_drop_schema() {
        // The racing ingest adds schema but no node, so the stale delta's
        // node count still matches: it must be refused all the same, or
        // the new type and attribute would silently disappear.
        let s = shared();
        let old_snap = s.snapshot();
        let g = old_snap.graph();
        let comp = g.type_by_text("Company").unwrap();
        let mut stale = GraphDelta::new(g);
        stale.add_node(comp, "stale corp").unwrap();
        let mut schema = GraphDelta::new(g);
        schema.add_type("Research Lab");
        schema.add_attr("Sponsor");
        s.apply_delta(&schema, PagerankMode::Frozen).unwrap();
        let (types, attrs) = (g.num_types() + 1, g.num_attrs() + 1);

        let err = s.apply_delta(&stale, PagerankMode::Frozen).unwrap_err();
        assert!(matches!(err, Error::Delta(DeltaError::SchemaMismatch)));
        assert_eq!(s.version(), 1, "stale delta left the state untouched");
        let now = s.snapshot();
        assert_eq!(
            (now.graph().num_types(), now.graph().num_attrs()),
            (types, attrs)
        );
    }

    #[test]
    fn concurrent_responders_and_writer() {
        let s = shared();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Readers hammer respond (cached and uncached) while the
            // writer ingests.
            for _ in 0..3 {
                scope.spawn(|| {
                    let req = SearchRequest::text("company revenue").k(10);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        // Every consistent state answers this query.
                        let r = s.respond(&req).unwrap();
                        assert!(!r.patterns.is_empty());
                    }
                });
            }
            scope.spawn(|| {
                for step in 0..5 {
                    ingest_vendor(&s, step);
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        });
        assert_eq!(s.version(), 5);
        let r = s.respond(&SearchRequest::text("vendor").k(100)).unwrap();
        assert_eq!(r.top().unwrap().num_trees, 5);
    }

    #[test]
    fn close_stops_admitting_and_is_idempotent() {
        let s = shared();
        let req = SearchRequest::text("company revenue").k(10);
        assert!(s.respond(&req).is_ok());
        assert!(!s.is_closed());
        s.close();
        assert!(s.is_closed());
        assert!(matches!(s.respond(&req), Err(Error::Closed)));
        assert!(matches!(
            s.respond_on(&s.snapshot(), &req),
            Err(Error::Closed)
        ));
        // Second close returns immediately (idempotent, no deadlock).
        s.close();
        // Snapshots already handed out keep answering.
        assert!(s.snapshot().respond(&req).is_ok());
    }

    #[test]
    fn close_drains_in_flight_responders() {
        let s = shared();
        let served = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let req = SearchRequest::text("company revenue").k(10);
                    loop {
                        match s.respond(&req) {
                            Ok(_) => {
                                served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            Err(Error::Closed) => break,
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    }
                });
            }
            // Let the responders get going, then close under fire.
            while served.load(std::sync::atomic::Ordering::Relaxed) < 8 {
                std::thread::yield_now();
            }
            s.close();
            // close() returned: nothing is in flight any more.
            assert_eq!(s.gate.state.lock().unwrap().in_flight, 0);
        });
        assert!(served.load(std::sync::atomic::Ordering::Relaxed) >= 8);
    }

    #[test]
    fn replace_bumps_epoch_and_invalidates_cache() {
        let s = shared();
        let req = SearchRequest::text("company revenue").k(10);
        assert_eq!(s.respond(&req).unwrap().cache, CacheOutcome::Miss);
        assert_eq!(s.respond(&req).unwrap().cache, CacheOutcome::Hit);
        assert_eq!(s.epoch(), 0);

        // Swap in a freshly rebuilt engine (same dataset, version 0 again).
        let (g, _) = figure1();
        let rebuilt = EngineBuilder::new().graph(g).threads(1).build().unwrap();
        assert_eq!(rebuilt.version(), 0);
        assert_eq!(s.replace(rebuilt), 1);
        assert_eq!(s.epoch(), 1);
        // The version was rebased past the old state's, so the pre-swap
        // cache entry can never be served on the new epoch.
        assert!(s.version() > 0);
        let post = s.respond(&req).unwrap();
        assert_eq!(post.cache, CacheOutcome::Miss);
        assert!(!post.patterns.is_empty());
    }

    #[test]
    fn replace_during_concurrent_responds_is_consistent() {
        let s = shared();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let req = SearchRequest::text("company revenue").k(10);
                    let mut seen = Vec::new();
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let r = s.respond(&req).unwrap();
                        seen.push(r.patterns.len());
                    }
                    // Both epochs hold the same dataset: every answer is
                    // from exactly one consistent state, never a blend.
                    assert!(seen.iter().all(|&n| n == seen[0]));
                });
            }
            scope.spawn(|| {
                for _ in 0..3 {
                    let (g, _) = figure1();
                    let next = EngineBuilder::new().graph(g).threads(1).build().unwrap();
                    s.replace(next);
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        });
        assert_eq!(s.epoch(), 3);
    }

    #[test]
    fn respond_on_shares_the_cache() {
        let s = shared();
        let req = SearchRequest::text("company revenue").k(10);
        let snap = s.snapshot();
        assert_eq!(s.respond_on(&snap, &req).unwrap().cache, CacheOutcome::Miss);
        // The entry is visible to both routes.
        assert_eq!(s.respond_on(&snap, &req).unwrap().cache, CacheOutcome::Hit);
        assert_eq!(s.respond(&req).unwrap().cache, CacheOutcome::Hit);
    }

    #[test]
    fn ingest_with_builds_under_the_writer_lock() {
        // Two threads ingest through `ingest_with` with NO retry loop:
        // the delta is built against the locked base, so BaseMismatch is
        // impossible and both land (serialized).
        let s = shared();
        std::thread::scope(|scope| {
            for t in 0..2 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..3 {
                        let outcome = s
                            .ingest_with(PagerankMode::Frozen, |snap| {
                                let g = snap.graph();
                                let comp = g.type_by_text("Company").unwrap();
                                let mut d = GraphDelta::new(g);
                                d.add_node(comp, &format!("racer {t} entity {i}"))?;
                                Ok::<_, DeltaError>(d)
                            })
                            .expect("serialized ingest cannot conflict");
                        assert!(outcome.version >= 1);
                    }
                });
            }
        });
        assert_eq!(s.version(), 6);
        let r = s
            .respond(&SearchRequest::text("racer entity").k(100))
            .unwrap();
        assert_eq!(r.top().unwrap().num_trees, 6);
    }

    #[test]
    fn ingest_with_surfaces_build_and_delta_errors() {
        let s = shared();
        // Builder refusal: nothing changes.
        let err = s
            .ingest_with(PagerankMode::Frozen, |_| Err::<GraphDelta, _>("nope"))
            .unwrap_err();
        assert!(matches!(err, IngestError::Build("nope")));
        assert_eq!(s.version(), 0);
        // Delta validation failure (remove of a missing edge): typed,
        // state untouched.
        let err = s
            .ingest_with(PagerankMode::Frozen, |snap| {
                let g = snap.graph();
                let dev = g.attr_by_text("Developer").unwrap();
                let mut d = GraphDelta::new(g);
                // Reversed direction: not present in Figure 1.
                d.remove_edge(patternkb_graph::NodeId(1), dev, patternkb_graph::NodeId(0))?;
                Ok::<_, DeltaError>(d)
            })
            .unwrap_err();
        assert!(matches!(
            err,
            IngestError::Delta(DeltaError::EdgeNotFound { .. })
        ));
        assert_eq!(s.version(), 0);
    }

    #[test]
    fn ingest_with_refused_after_close() {
        let s = shared();
        s.close();
        let err = s
            .ingest_with(PagerankMode::Frozen, |snap| {
                Ok::<_, DeltaError>(GraphDelta::new(snap.graph()))
            })
            .unwrap_err();
        assert!(matches!(err, IngestError::Closed));
    }

    #[test]
    fn ingest_with_reports_refresh_stats_and_version() {
        let s = shared();
        let outcome = s
            .ingest_with(PagerankMode::Frozen, |snap| {
                let g = snap.graph();
                let comp = g.type_by_text("Company").unwrap();
                let rev = g.attr_by_text("Revenue").unwrap();
                let mut d = GraphDelta::new(g);
                let v = d.add_node(comp, "ingest vendor")?;
                d.add_text_edge(v, rev, "US$ 1 million")?;
                Ok::<_, DeltaError>(d)
            })
            .unwrap();
        assert_eq!(outcome.version, 1);
        assert_eq!(s.version(), 1);
        assert!(outcome.stats.affected_roots > 0);
        assert!(outcome.stats.postings_added > 0);
        let r = s
            .respond(&SearchRequest::text("vendor revenue").k(10))
            .unwrap();
        assert_eq!(r.top().unwrap().num_trees, 1);
    }

    #[test]
    fn writers_serialize() {
        // Two threads each ingest 3 entities; all 6 must land.
        let s = shared();
        std::thread::scope(|scope| {
            for t in 0..2 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..3 {
                        // Retry on conflict: the delta is rebuilt from the
                        // latest snapshot each attempt.
                        loop {
                            let snap = s.snapshot();
                            let g = snap.graph();
                            let comp = g.type_by_text("Company").unwrap();
                            let mut d = GraphDelta::new(g);
                            d.add_node(comp, &format!("writer {t} entity {i}")).unwrap();
                            match s.apply_delta(&d, PagerankMode::Frozen) {
                                Ok(_) => break,
                                Err(Error::Delta(DeltaError::BaseMismatch { .. })) => continue,
                                Err(e) => panic!("unexpected delta error {e}"),
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(s.version(), 6);
        let r = s
            .respond(&SearchRequest::text("writer entity").k(100))
            .unwrap();
        assert_eq!(r.top().unwrap().num_trees, 6);
    }
}
