//! The server proper: acceptor, connection threads, the fixed worker
//! pool, and the serving lifecycle (reload, drain, shutdown).
//!
//! ## Thread model
//!
//! ```text
//! acceptor ──▶ connection threads (blocking IO, one per open conn)
//!                   │  admission: BoundedQueue::try_push  ── full ──▶ 429
//!                   ▼
//!           bounded admission queue
//!                   │  pop_batch (micro-batches)
//!                   ▼
//!          worker pool (fixed N) ──▶ SharedEngine::respond_on(snapshot, …)
//! ```
//!
//! Connection threads do only IO and parsing; every search runs on the
//! **fixed** worker pool, so at most `workers` searches are in flight no
//! matter how many connections are open. A search is not always one
//! thread: a worker running a root-first kernel (`LINEARENUM`,
//! `LINEARENUM-TOPK`, the baseline) over at least
//! [`FANOUT_MIN_ROOTS`](patternkb_search::common::FANOUT_MIN_ROOTS)
//! candidate roots spawns up to `min(cores, shards) − 1` scoped threads
//! while that search runs, so the engine runs on at most
//! `workers × min(cores, shards)` threads. `PATTERNENUM` never spawns.
//! Workers pop *batches*: one
//! [`SharedEngine::snapshot`] per batch answers every request in it —
//! the swap-pointer read, admission bookkeeping, and reload interleaving
//! are paid per batch, not per request, and a batch is guaranteed one
//! consistent engine state.
//!
//! ## Backpressure
//!
//! Admission is never blocking: a full queue sheds immediately with
//! `429` + `Retry-After`, and every admitted request carries a deadline
//! (`ServeConfig::deadline`, tightened per request via `timeout_ms`) —
//! a worker popping an expired request sheds it with `503` without
//! running the search. Under overload the queue length, not the latency
//! tail, absorbs the excess.
//!
//! ## Writes
//!
//! `POST /admin/ingest` is the **online write path**: a JSON mutation
//! batch is compiled into a [`patternkb_graph::mutate::GraphDelta`] and
//! applied through [`SharedEngine::ingest_with`] — the delta is built
//! against the snapshot pinned under the writer lock, refreshed
//! incrementally (never a full rebuild), and swapped in while reads keep
//! serving the old snapshot. Racing ingests serialize on the writer lock;
//! racing reads never stall beyond the pointer swap. Runs on the
//! connection thread (like reload), so the worker pool keeps answering
//! queries throughout.
//!
//! ## Lifecycle
//!
//! `POST /admin/reload` rebuilds the engine through the caller-provided
//! [`ReloadFn`] and hot-swaps it ([`SharedEngine::replace`]) — in-flight
//! queries finish on the old epoch. Shutdown (`POST /admin/shutdown` or
//! [`Server::trigger_shutdown`]) stops admission, drains the queue,
//! joins the workers, then closes the engine ([`SharedEngine::close`]).

use crate::api;
use crate::http::{write_response, HttpError, HttpLimits, HttpReader, Request};
use crate::json::{count, Json};
use crate::metrics::{Route, ServerMetrics};
use crate::queue::BoundedQueue;
use patternkb_search::{IngestError, SearchEngine, SearchRequest, SharedEngine};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads/pops wake to check the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(200);

/// Max requests a worker takes per batch pop.
const BATCH_MAX: usize = 16;

/// Everything tunable about a server. `Default` is a sane laptop/CI
/// profile; production deployments should size `workers`,
/// `queue_capacity`, and `deadline` to their latency budget.
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 = ephemeral).
    pub addr: String,
    /// Search worker threads; 0 = available parallelism. Each runs one
    /// search at a time, and a root-first kernel's search over at least
    /// [`FANOUT_MIN_ROOTS`](patternkb_search::common::FANOUT_MIN_ROOTS)
    /// candidate roots adds up to `min(cores, shards) − 1` scoped threads
    /// while it runs.
    pub workers: usize,
    /// Admission queue slots. 0 means *always shed* (drain/test mode).
    pub queue_capacity: usize,
    /// Per-request budget from admission to answer; expired requests are
    /// shed with 503. Request `timeout_ms` can tighten but not extend it.
    pub deadline: Duration,
    /// Request body cap (413 beyond it).
    pub max_body_bytes: usize,
    /// Open-connection cap (503 at accept beyond it).
    pub max_connections: usize,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// Whether `POST /admin/ingest` (the online write path) is served.
    /// Disabled servers answer it with 501.
    pub enable_ingest: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 0,
            queue_capacity: 1024,
            deadline: Duration::from_secs(2),
            max_body_bytes: 1024 * 1024,
            max_connections: 256,
            idle_timeout: Duration::from_secs(30),
            enable_ingest: true,
        }
    }
}

/// Rebuilds the engine for a hot snapshot swap (`POST /admin/reload`).
/// Runs on the connection thread that received the reload, serialized
/// with other reloads; queries keep flowing on the old state meanwhile.
pub type ReloadFn = dyn Fn() -> Result<SearchEngine, String> + Send + Sync;

/// One admitted search.
struct Job {
    request: SearchRequest,
    admitted: Instant,
    deadline: Instant,
    reply: mpsc::SyncSender<JobReply>,
}

enum JobReply {
    /// 200 with the rendered body.
    Ok(String),
    /// Engine-level failure: status + rendered body.
    Err(u16, String),
    /// Deadline expired in the queue.
    Deadline,
}

struct Shared {
    engine: Arc<SharedEngine>,
    cfg: ServeConfig,
    metrics: ServerMetrics,
    queue: BoundedQueue<Job>,
    reload: Option<Box<ReloadFn>>,
    /// Serializes /admin/reload calls.
    reload_lock: Mutex<()>,
    shutdown: AtomicBool,
    /// Signalled when shutdown is triggered ([`Server::join`] waits here).
    shutdown_signal: (Mutex<bool>, Condvar),
    addr: SocketAddr,
}

/// A running server. Construct with [`Server::start`]; stop with
/// [`Server::trigger_shutdown`] + [`Server::join`] (or let
/// `POST /admin/shutdown` trigger it remotely and just `join`).
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. `reload` powers `POST /admin/reload`
    /// (pass `None` to answer it with 501).
    pub fn start(
        engine: Arc<SharedEngine>,
        reload: Option<Box<ReloadFn>>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let worker_count = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        let queue = BoundedQueue::new(cfg.queue_capacity);
        let shared = Arc::new(Shared {
            engine,
            cfg,
            metrics: ServerMetrics::default(),
            queue,
            reload,
            reload_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            shutdown_signal: (Mutex::new(false), Condvar::new()),
            addr,
        });

        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("patternkb-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("patternkb-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, listener))?
        };

        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The serving handle (shared with the caller).
    pub fn engine(&self) -> &Arc<SharedEngine> {
        &self.shared.engine
    }

    /// Live server counters (tests and embedders).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Begin graceful shutdown: stop admitting, let the queue drain.
    /// Idempotent; returns immediately — pair with [`Server::join`].
    pub fn trigger_shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Block until shutdown is triggered, then finish it: drain and join
    /// the workers, join the acceptor, close the engine (draining any
    /// direct responders), and give open connections a grace period.
    pub fn join(mut self) {
        {
            let (lock, cv) = &self.shared.shutdown_signal;
            let mut triggered = lock.lock().unwrap();
            while !*triggered {
                triggered = cv.wait(triggered).unwrap();
            }
        }
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().ok();
        }
        for w in self.workers.drain(..) {
            w.join().ok();
        }
        // Workers are gone; now refuse/drain everything still holding the
        // engine handle (idempotent if the embedder closed it already).
        self.shared.engine.close();
        // Connection threads notice the flag within one poll tick; give
        // them a bounded grace period rather than joining each.
        let patience = Instant::now() + POLL_TICK * 10;
        while self
            .shared
            .metrics
            .connections_active
            .load(Ordering::SeqCst)
            > 0
            && Instant::now() < patience
        {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// The one `Retry-After` header every shedding site emits: derived from
/// the live queue (depth ÷ recent drain rate, clamped to `[1, 30]`) so
/// the three 429/503 paths cannot drift apart.
fn retry_after(shared: &Shared) -> (&'static str, String) {
    ("retry-after", shared.metrics.retry_after_secs().to_string())
}

fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already triggered
    }
    shared.queue.close();
    // Wake the acceptor out of its blocking accept.
    let _ = TcpStream::connect(shared.addr);
    let (lock, cv) = &shared.shutdown_signal;
    *lock.lock().unwrap() = true;
    cv.notify_all();
}

fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared
            .metrics
            .connections_total
            .fetch_add(1, Ordering::Relaxed);
        let active = shared.metrics.connections_active.load(Ordering::SeqCst);
        if active >= shared.cfg.max_connections as u64 {
            shared
                .metrics
                .connections_refused
                .fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let body = api::error_json("overloaded", "connection limit reached", vec![]).render();
            let _ = write_response(
                &mut stream,
                503,
                "application/json",
                &[retry_after(shared)],
                body.as_bytes(),
                false,
            );
            continue;
        }
        shared
            .metrics
            .connections_active
            .fetch_add(1, Ordering::SeqCst);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("patternkb-conn".to_string())
            .spawn(move || {
                let shared = conn_shared;
                // Decrement on every exit path, panics included.
                struct Active<'a>(&'a ServerMetrics);
                impl Drop for Active<'_> {
                    fn drop(&mut self) {
                        self.0.connections_active.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                let _active = Active(&shared.metrics);
                handle_connection(&shared, stream);
            });
        if spawned.is_err() {
            shared
                .metrics
                .connections_active
                .fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = shared.queue.pop_batch(BATCH_MAX, POLL_TICK);
        shared
            .metrics
            .queue_depth
            .store(shared.queue.len() as u64, Ordering::Relaxed);
        if batch.is_empty() {
            if shared.queue.is_closed() {
                break;
            }
            continue;
        }
        // One snapshot answers the whole batch: every request in it sees
        // exactly one engine state, even across a concurrent reload.
        let snapshot = shared.engine.snapshot();
        shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .batched_requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        shared.metrics.note_drained(batch.len() as u64);
        for job in batch {
            if Instant::now() >= job.deadline {
                shared.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
                job.reply.send(JobReply::Deadline).ok();
                continue;
            }
            match shared.engine.respond_on(&snapshot, &job.request) {
                Ok(resp) => {
                    shared.metrics.latency.observe(job.admitted.elapsed());
                    shared.metrics.record_search(&resp);
                    let body = api::render_response(&snapshot, &resp).render();
                    job.reply.send(JobReply::Ok(body)).ok();
                }
                Err(e) => {
                    let (status, body) = api::engine_error(&e);
                    job.reply.send(JobReply::Err(status, body.render())).ok();
                }
            }
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = stream;
    read_half.set_read_timeout(Some(POLL_TICK)).ok();
    write_half.set_nodelay(true).ok();
    let mut reader = HttpReader::new(read_half);
    let limits = HttpLimits {
        max_body_bytes: shared.cfg.max_body_bytes,
        ..HttpLimits::default()
    };
    let mut last_activity = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match reader.read_request(&limits) {
            Ok(request) => {
                last_activity = Instant::now();
                if !dispatch(shared, &request, &mut write_half) {
                    break;
                }
            }
            Err(HttpError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let stalled = last_activity.elapsed();
                if reader.has_partial() {
                    // Mid-request stall: cut slow-loris senders loose.
                    if stalled > shared.cfg.idle_timeout {
                        respond_error(
                            shared,
                            &mut write_half,
                            Route::Other,
                            408,
                            "request timeout",
                        );
                        break;
                    }
                } else if stalled > shared.cfg.idle_timeout {
                    break; // idle keep-alive connection
                }
            }
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => break,
            Err(e) => {
                if let Some((status, message)) = e.status() {
                    respond_error(shared, &mut write_half, Route::Other, status, message);
                }
                break; // framing is unreliable after an error: close
            }
        }
    }
}

/// Write an error response (connection closes after it).
fn respond_error(shared: &Shared, w: &mut TcpStream, route: Route, status: u16, message: &str) {
    shared.metrics.record(route, status);
    let body = api::error_json(kind_of(status), message, vec![]).render();
    let _ = write_response(w, status, "application/json", &[], body.as_bytes(), false);
}

fn kind_of(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        408 => "timeout",
        409 => "conflict",
        411 => "length_required",
        413 => "body_too_large",
        429 => "overloaded",
        431 => "head_too_large",
        501 => "not_implemented",
        503 => "unavailable",
        505 => "http_version",
        _ => "internal",
    }
}

/// Handle one request; returns whether to keep the connection open.
fn dispatch(shared: &Shared, request: &Request, w: &mut TcpStream) -> bool {
    let path = request.target.split('?').next().unwrap_or("");
    let keep = request.keep_alive;
    let send = |shared: &Shared,
                w: &mut TcpStream,
                route: Route,
                status: u16,
                extra: &[(&str, String)],
                body: &str,
                keep: bool|
     -> bool {
        shared.metrics.record(route, status);
        write_response(w, status, "application/json", extra, body.as_bytes(), keep).is_ok() && keep
    };

    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            if shared.shutdown.load(Ordering::SeqCst) {
                let body = api::error_json("unavailable", "draining", vec![]).render();
                send(shared, w, Route::Healthz, 503, &[], &body, false)
            } else {
                let body = Json::Obj(vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("epoch".to_string(), count(shared.engine.epoch())),
                    ("version".to_string(), count(shared.engine.version())),
                ])
                .render();
                send(shared, w, Route::Healthz, 200, &[], &body, keep)
            }
        }
        ("GET", "/metrics") => {
            let text = shared.metrics.render(&shared.engine);
            shared.metrics.record(Route::Metrics, 200);
            write_response(
                w,
                200,
                "text/plain; version=0.0.4",
                &[],
                text.as_bytes(),
                keep,
            )
            .is_ok()
                && keep
        }
        ("POST", "/search") => handle_search(shared, request, w),
        ("POST", "/admin/ingest") => handle_ingest(shared, request, w),
        ("POST", "/admin/reload") => handle_reload(shared, w, keep),
        ("POST", "/admin/checkpoint") => handle_checkpoint(shared, w, keep),
        ("POST", "/admin/shutdown") => {
            let body = Json::Obj(vec![
                ("ok".to_string(), Json::Bool(true)),
                ("draining".to_string(), Json::Bool(true)),
            ])
            .render();
            // Respond first, then trip the flag: the client sees the ack.
            send(shared, w, Route::AdminShutdown, 200, &[], &body, false);
            trigger_shutdown(shared);
            false
        }
        (
            _,
            "/healthz" | "/metrics" | "/search" | "/admin/ingest" | "/admin/reload"
            | "/admin/checkpoint" | "/admin/shutdown",
        ) => {
            respond_error(
                shared,
                w,
                Route::Other,
                405,
                "method not allowed for this path",
            );
            false
        }
        _ => {
            respond_error(shared, w, Route::Other, 404, "unknown path");
            false
        }
    }
}

fn handle_search(shared: &Shared, request: &Request, w: &mut TcpStream) -> bool {
    let keep = request.keep_alive;
    let parsed = match api::parse_search(&request.body) {
        Ok(p) => p,
        Err(e) => {
            shared.metrics.record(Route::Search, 400);
            let body = api::error_json(e.kind, &e.message, vec![]).render();
            return write_response(w, 400, "application/json", &[], body.as_bytes(), keep).is_ok()
                && keep;
        }
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        shared.metrics.record(Route::Search, 503);
        let body = api::error_json("closed", "server is draining", vec![]).render();
        let _ = write_response(w, 503, "application/json", &[], body.as_bytes(), false);
        return false;
    }

    let budget = parsed
        .timeout
        .map(|t| t.min(shared.cfg.deadline))
        .unwrap_or(shared.cfg.deadline);
    let now = Instant::now();
    let (tx, rx) = mpsc::sync_channel(1);
    let job = Job {
        request: parsed.request,
        admitted: now,
        deadline: now + budget,
        reply: tx,
    };
    match shared.queue.try_push(job) {
        Ok(depth) => {
            shared
                .metrics
                .queue_depth
                .store(depth as u64, Ordering::Relaxed);
        }
        Err(_refused) => {
            shared
                .metrics
                .shed_queue_full
                .fetch_add(1, Ordering::Relaxed);
            shared.metrics.record(Route::Search, 429);
            let body = api::error_json(
                "overloaded",
                "admission queue is full; retry shortly",
                vec![],
            )
            .render();
            let ok = write_response(
                w,
                429,
                "application/json",
                &[retry_after(shared)],
                body.as_bytes(),
                keep,
            )
            .is_ok();
            return ok && keep;
        }
    }

    // The worker always replies (answer, engine error, or deadline shed);
    // the timeout is a belt-and-braces bound for a worker lost to a panic.
    let (status, body, extra): (u16, String, Vec<(&str, String)>) = match rx
        .recv_timeout(budget + Duration::from_secs(5))
    {
        Ok(JobReply::Ok(body)) => (200, body, vec![]),
        Ok(JobReply::Err(status, body)) => (status, body, vec![]),
        Ok(JobReply::Deadline) => (
            503,
            api::error_json("deadline", "request expired in the admission queue", vec![]).render(),
            vec![retry_after(shared)],
        ),
        Err(_) => (
            500,
            api::error_json("internal", "worker did not answer", vec![]).render(),
            vec![],
        ),
    };
    shared.metrics.record(Route::Search, status);
    write_response(w, status, "application/json", &extra, body.as_bytes(), keep).is_ok() && keep
}

/// `POST /admin/ingest`: compile the mutation batch into a delta against
/// the snapshot pinned by [`SharedEngine::ingest_with`]'s writer lock and
/// apply it through the incremental refresh. Runs on the connection
/// thread; racing ingests serialize on the writer lock, and reads keep
/// serving the old snapshot until the pointer swap.
fn handle_ingest(shared: &Shared, request: &Request, w: &mut TcpStream) -> bool {
    let keep = request.keep_alive;
    if !shared.cfg.enable_ingest {
        respond_error(
            shared,
            w,
            Route::AdminIngest,
            501,
            "server booted without the ingest write path",
        );
        return false;
    }
    let batch = match api::parse_ingest(&request.body) {
        Ok(batch) => batch,
        Err(e) => {
            shared
                .metrics
                .ingest_failures
                .fetch_add(1, Ordering::Relaxed);
            shared.metrics.record(Route::AdminIngest, 400);
            let body = api::error_json(e.kind, &e.message, vec![]).render();
            return write_response(w, 400, "application/json", &[], body.as_bytes(), keep).is_ok()
                && keep;
        }
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        shared
            .metrics
            .ingest_failures
            .fetch_add(1, Ordering::Relaxed);
        shared.metrics.record(Route::AdminIngest, 503);
        let body = api::error_json("closed", "server is draining", vec![]).render();
        let _ = write_response(w, 503, "application/json", &[], body.as_bytes(), false);
        return false;
    }

    let t0 = Instant::now();
    let applied = shared.engine.ingest_with(batch.mode, |snapshot| {
        api::compile_delta(snapshot.graph(), &batch)
    });
    match applied {
        Ok(outcome) => {
            let elapsed = t0.elapsed();
            shared.metrics.ingests.fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .ingest_words_rebuilt
                .fetch_add(outcome.stats.words_rebuilt as u64, Ordering::Relaxed);
            shared
                .metrics
                .ingest_graph_chunks_copied
                .fetch_add(outcome.graph_chunks_copied as u64, Ordering::Relaxed);
            shared.metrics.ingest_refresh.observe(elapsed);
            shared.metrics.record(Route::AdminIngest, 200);
            let body = api::render_ingest(&outcome, elapsed).render();
            write_response(w, 200, "application/json", &[], body.as_bytes(), keep).is_ok() && keep
        }
        Err(e) => {
            shared
                .metrics
                .ingest_failures
                .fetch_add(1, Ordering::Relaxed);
            // 400: the batch itself is invalid (unresolvable name, bad
            // reference). 409: shape was fine but the graph disagrees
            // (duplicate edge, removal of a missing edge) — retryable
            // after re-reading state, so keep-alive survives like every
            // other 4xx on this route. 503 `closed`: racing shutdown.
            // 503 `durability`: the WAL could not make the write durable;
            // the delta was NOT applied and the log refuses further
            // appends until the operator intervenes (restart). Both 503s
            // drop the connection. 500 `snapshot`: a word the delta
            // touches has a damaged snapshot stream, as on `/search`.
            let (status, body) = match &e {
                IngestError::Build(api_err) => {
                    (400, api::error_json(api_err.kind, &api_err.message, vec![]))
                }
                IngestError::Delta(delta_err) => (
                    409,
                    api::error_json("conflict", &delta_err.to_string(), vec![]),
                ),
                IngestError::Closed => (503, api::error_json("closed", &e.to_string(), vec![])),
                IngestError::Durability(_) => {
                    (503, api::error_json("durability", &e.to_string(), vec![]))
                }
                IngestError::Snapshot(_) => {
                    (500, api::error_json("snapshot", &e.to_string(), vec![]))
                }
            };
            shared.metrics.record(Route::AdminIngest, status);
            let body = body.render();
            let keep = keep && status != 503;
            write_response(w, status, "application/json", &[], body.as_bytes(), keep).is_ok()
                && keep
        }
    }
}

/// `POST /admin/checkpoint`: synchronously write a graph+index snapshot
/// and truncate the write-ahead log behind it. Runs on the connection
/// thread (like reload); racing ingests keep flowing — the checkpoint
/// captures whichever published snapshot it pins.
fn handle_checkpoint(shared: &Shared, w: &mut TcpStream, keep: bool) -> bool {
    let Some(durability) = shared.engine.durability().cloned() else {
        respond_error(
            shared,
            w,
            Route::AdminCheckpoint,
            501,
            "server booted without a data dir; nothing to checkpoint",
        );
        return false;
    };
    let snapshot = shared.engine.snapshot();
    match durability.checkpoint_now(&snapshot) {
        Ok(path) => {
            shared.metrics.record(Route::AdminCheckpoint, 200);
            let body = Json::Obj(vec![
                ("ok".to_string(), Json::Bool(true)),
                ("version".to_string(), count(snapshot.version())),
                ("path".to_string(), Json::Str(path.display().to_string())),
            ])
            .render();
            write_response(w, 200, "application/json", &[], body.as_bytes(), keep).is_ok() && keep
        }
        Err(e) => {
            shared.metrics.record(Route::AdminCheckpoint, 500);
            let body = api::error_json(
                "checkpoint_failed",
                &format!("checkpoint failed: {e}"),
                vec![],
            )
            .render();
            let _ = write_response(w, 500, "application/json", &[], body.as_bytes(), false);
            false
        }
    }
}

fn handle_reload(shared: &Shared, w: &mut TcpStream, keep: bool) -> bool {
    // A durable server's history lives in the write-ahead log; swapping in
    // an engine built outside the log would fork that history (the next
    // appended version could collide with one already on disk under a
    // different delta). Restart-from-the-data-dir is the durable reload.
    if shared.engine.durability().is_some() {
        shared
            .metrics
            .reload_failures
            .fetch_add(1, Ordering::Relaxed);
        respond_error(
            shared,
            w,
            Route::AdminReload,
            409,
            "reload would fork the write-ahead log; restart from the data dir instead",
        );
        return false;
    }
    let Some(reload) = shared.reload.as_deref() else {
        respond_error(
            shared,
            w,
            Route::AdminReload,
            501,
            "server booted without a reload source",
        );
        return false;
    };
    // Serialize reloads; queries keep flowing on the current state.
    let _serialized = shared.reload_lock.lock().unwrap();
    match reload() {
        Ok(next) => {
            let epoch = shared.engine.replace(next);
            shared.metrics.reloads.fetch_add(1, Ordering::Relaxed);
            shared.metrics.record(Route::AdminReload, 200);
            let body = Json::Obj(vec![
                ("ok".to_string(), Json::Bool(true)),
                ("epoch".to_string(), count(epoch)),
                ("version".to_string(), count(shared.engine.version())),
            ])
            .render();
            write_response(w, 200, "application/json", &[], body.as_bytes(), keep).is_ok() && keep
        }
        Err(message) => {
            shared
                .metrics
                .reload_failures
                .fetch_add(1, Ordering::Relaxed);
            shared.metrics.record(Route::AdminReload, 500);
            let body = api::error_json("reload_failed", &message, vec![]).render();
            let _ = write_response(w, 500, "application/json", &[], body.as_bytes(), false);
            false
        }
    }
}
