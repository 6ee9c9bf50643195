//! The server proper: acceptor, connection threads, the admission gate
//! that bounds engine work, and the serving lifecycle (reload, drain,
//! shutdown).
//!
//! ## Thread model
//!
//! ```text
//! acceptor ──▶ connection threads (blocking IO, one per open conn)
//!                   │  POST /search: Gate::enter ── closed ──▶ 503
//!                   │                             ── full ────▶ 429
//!                   │                             ── expired ─▶ 503
//!                   ▼  holding one of `workers` turns, same thread
//!          SharedEngine::respond_on(snapshot, …) ──▶ render ──▶ free the turn
//! ```
//!
//! Every search runs on the connection thread that read it, once it
//! holds a turn of the admission gate: at most `workers` turns are held,
//! so at most `workers` searches are in flight no matter how many
//! connections are open, and at most `queue_capacity` more wait for a
//! turn. A search is not always one thread: a root-first kernel
//! (`LINEARENUM`, `LINEARENUM-TOPK`, the baseline) over at least
//! [`FANOUT_MIN_ROOTS`](patternkb_search::common::FANOUT_MIN_ROOTS)
//! candidate roots spawns up to `min(cores, shards) − 1` scoped threads
//! while that search runs, so the engine runs on at most
//! `workers × min(cores, shards)` threads. `PATTERNENUM` never spawns.
//! A search takes one [`SharedEngine::snapshot`] and is answered and
//! rendered on it, so its response sees one consistent engine state.
//!
//! A freed turn wakes every waiter, and they race for it: std's `Condvar`
//! promises no wake-up order, so strict FIFO among waiters is not
//! promised. Each waiter's deadline bounds its wait, and since all of them
//! wake, one that gives up never swallows the wake-up another needed.
//!
//! ## Backpressure
//!
//! Admission is never blocking: with `queue_capacity` searches already
//! waiting, a newcomer sheds immediately with `429` + `Retry-After`, and
//! every admitted request carries a deadline (`ServeConfig::deadline`,
//! tightened per request via `timeout_ms`) — a request whose deadline
//! passes before it holds a turn leaves with `503` without running the
//! search. Under overload the waiting count, not the latency tail,
//! absorbs the excess.
//!
//! ## Writes
//!
//! `POST /admin/ingest` is the **online write path**: a JSON mutation
//! batch is compiled into a [`patternkb_graph::mutate::GraphDelta`] and
//! applied through [`SharedEngine::ingest_with`] — the delta is built
//! against the snapshot pinned under the writer lock, refreshed
//! incrementally (never a full rebuild), and swapped in while reads keep
//! serving the old snapshot. Racing ingests serialize on the writer lock;
//! racing reads never stall beyond the pointer swap. Ingests take no turn
//! of the gate, so searches keep being answered throughout.
//!
//! ## Lifecycle
//!
//! `POST /admin/reload` rebuilds the engine through the caller-provided
//! [`ReloadFn`] and hot-swaps it ([`SharedEngine::replace`]) — in-flight
//! queries finish on the old epoch. Shutdown (`POST /admin/shutdown` or
//! [`Server::trigger_shutdown`]) closes the gate to newcomers, answers
//! the searches already admitted, then closes the engine
//! ([`SharedEngine::close`]).

use crate::api;
use crate::http::{write_response, HttpError, HttpLimits, HttpReader, Request};
use crate::json::{count, Json};
use crate::metrics::{Route, ServerMetrics};
use patternkb_search::{IngestError, SearchEngine, SharedEngine};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake to check the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(200);

/// Everything tunable about a server. `Default` is a sane laptop/CI
/// profile; production deployments should size `workers`,
/// `queue_capacity`, and `deadline` to their latency budget.
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 = ephemeral).
    pub addr: String,
    /// Searches that run at once, each on its connection thread; 0 =
    /// available parallelism. A root-first kernel's search over at least
    /// [`FANOUT_MIN_ROOTS`](patternkb_search::common::FANOUT_MIN_ROOTS)
    /// candidate roots adds up to `min(cores, shards) − 1` scoped threads
    /// while it runs.
    pub workers: usize,
    /// Searches that may wait for one of the `workers` turns. 0 means
    /// *always shed* (drain/test mode).
    pub queue_capacity: usize,
    /// Per-request budget from admission to answer; requests still
    /// waiting for a turn at it are shed with 503. Request `timeout_ms`
    /// can tighten but not extend it.
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

/// The admission gate: at most `turns` searches hold a turn, at most
/// `capacity` wait for one. See the module docs.
struct Gate {
    state: Mutex<GateState>,
    /// Signalled whenever `running` or `waiting` drops.
    freed: Condvar,
    turns: usize,
    capacity: usize,
}

#[derive(Default)]
struct GateState {
    running: usize,
    waiting: usize,
    closed: bool,
}

/// Why [`Gate::enter`] gave no turn.
#[derive(Debug, PartialEq)]
enum Refused {
    /// The gate is closed: the server is draining.
    Closed,
    /// `capacity` searches already wait.
    Full,
    /// The deadline passed before a turn came.
    Deadline,
}

/// A held turn. Dropping it frees the turn, on unwinding too.
struct Turn<'a>(&'a Gate);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.0.state().running -= 1;
        self.0.freed.notify_all();
    }
}

impl Gate {
    fn new(turns: usize, capacity: usize) -> Gate {
        Gate {
            state: Mutex::default(),
            freed: Condvar::new(),
            turns,
            capacity,
        }
    }

    /// The counts. Every update is one field's step, valid at every point,
    /// so a guard poisoned by a panic elsewhere is still sound to use —
    /// and [`Turn`]'s `Drop` must not panic.
    fn state(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit a search and wait for a turn until `deadline`. `depth`
    /// mirrors the waiting count (the queue-depth gauge).
    fn enter(&self, deadline: Instant, depth: &AtomicU64) -> Result<Turn<'_>, Refused> {
        let mut st = self.state();
        if st.closed {
            return Err(Refused::Closed);
        }
        if st.waiting >= self.capacity {
            return Err(Refused::Full);
        }
        st.waiting += 1;
        depth.store(st.waiting as u64, Ordering::Relaxed);
        let granted = loop {
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            if st.running < self.turns {
                break true;
            }
            st = self
                .freed
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        st.waiting -= 1;
        depth.store(st.waiting as u64, Ordering::Relaxed);
        if !granted {
            drop(st);
            // A drain may be waiting for the count to reach zero.
            self.freed.notify_all();
            return Err(Refused::Deadline);
        }
        st.running += 1;
        Ok(Turn(self))
    }

    /// Refuse newcomers from now on; searches already waiting keep their
    /// place.
    fn close(&self) {
        self.state().closed = true;
    }

    /// Block until no search holds or waits for a turn.
    fn drain(&self) {
        let mut st = self.state();
        while st.running + st.waiting > 0 {
            st = self.freed.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Shared {
    engine: Arc<SharedEngine>,
    cfg: ServeConfig,
    metrics: ServerMetrics,
    gate: Gate,
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
    acceptor: JoinHandle<()>,
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
        let turns = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            engine,
            gate: Gate::new(turns, cfg.queue_capacity),
            cfg,
            metrics: ServerMetrics::default(),
            reload,
            reload_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            shutdown_signal: (Mutex::new(false), Condvar::new()),
            addr,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("patternkb-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, listener))?
        };
        Ok(Server { shared, acceptor })
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

    /// Begin graceful shutdown: stop admitting, let the admitted searches
    /// finish. Idempotent; returns immediately — pair with
    /// [`Server::join`].
    pub fn trigger_shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Block until shutdown is triggered, then finish it: join the
    /// acceptor, wait until no search runs or waits for a turn, close the
    /// engine (draining any direct responders), and give open connections
    /// a grace period.
    pub fn join(self) {
        {
            let (lock, cv) = &self.shared.shutdown_signal;
            let mut triggered = lock.lock().unwrap();
            while !*triggered {
                triggered = cv.wait(triggered).unwrap();
            }
        }
        self.acceptor.join().ok();
        self.shared.gate.drain();
        // No search is left; now refuse/drain everything still holding the
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
/// the live gate (waiting searches ÷ recent drain rate, clamped to
/// `[1, 30]`) so the three 429/503 paths cannot drift apart.
fn retry_after(shared: &Shared) -> (&'static str, String) {
    ("retry-after", shared.metrics.retry_after_secs().to_string())
}

fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already triggered
    }
    shared.gate.close();
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
            // Refused before any request is read: nothing to count per
            // route.
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
                let reply = dispatch(shared, &request);
                let shutdown = reply.route == Route::AdminShutdown;
                let keep = send(shared, &mut write_half, reply);
                if shutdown {
                    // Respond first, then trip the flag: the client sees
                    // the ack.
                    trigger_shutdown(shared);
                }
                if !keep {
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
                        let reply = Reply::error(Route::Other, 408, "request timeout");
                        send(shared, &mut write_half, reply);
                        break;
                    }
                } else if stalled > shared.cfg.idle_timeout {
                    break; // idle keep-alive connection
                }
            }
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => break,
            Err(e) => {
                if let Some((status, message)) = e.status() {
                    send(
                        shared,
                        &mut write_half,
                        Reply::error(Route::Other, status, message),
                    );
                }
                break; // framing is unreliable after an error: close
            }
        }
    }
}

/// One answer to one request: what [`send`] counts and writes.
struct Reply {
    route: Route,
    status: u16,
    body: String,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    keep_alive: bool,
}

impl Reply {
    /// A JSON answer.
    fn json(route: Route, status: u16, body: String, keep_alive: bool) -> Reply {
        Reply {
            route,
            status,
            body,
            content_type: "application/json",
            headers: Vec::new(),
            keep_alive,
        }
    }

    /// A JSON error whose kind follows from `status`; the connection
    /// closes after it.
    fn error(route: Route, status: u16, message: &str) -> Reply {
        let body = api::error_json(kind_of(status), message, vec![]).render();
        Reply::json(route, status, body, false)
    }
}

/// Count the exchange and write the answer; returns whether the
/// connection stays open.
fn send(shared: &Shared, w: &mut TcpStream, reply: Reply) -> bool {
    shared.metrics.record(reply.route, reply.status);
    write_response(
        w,
        reply.status,
        reply.content_type,
        &reply.headers,
        reply.body.as_bytes(),
        reply.keep_alive,
    )
    .is_ok()
        && reply.keep_alive
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

/// Answer one request.
fn dispatch(shared: &Shared, request: &Request) -> Reply {
    let path = request.target.split('?').next().unwrap_or("");
    let keep = request.keep_alive;
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            if shared.shutdown.load(Ordering::SeqCst) {
                Reply::error(Route::Healthz, 503, "draining")
            } else {
                let body = Json::Obj(vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("epoch".to_string(), count(shared.engine.epoch())),
                    ("version".to_string(), count(shared.engine.version())),
                ])
                .render();
                Reply::json(Route::Healthz, 200, body, keep)
            }
        }
        ("GET", "/metrics") => Reply {
            route: Route::Metrics,
            status: 200,
            body: shared.metrics.render(&shared.engine),
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            keep_alive: keep,
        },
        ("POST", "/search") => handle_search(shared, request),
        ("POST", "/admin/ingest") => handle_ingest(shared, request),
        ("POST", "/admin/reload") => handle_reload(shared, keep),
        ("POST", "/admin/checkpoint") => handle_checkpoint(shared, keep),
        ("POST", "/admin/shutdown") => {
            let body = Json::Obj(vec![
                ("ok".to_string(), Json::Bool(true)),
                ("draining".to_string(), Json::Bool(true)),
            ])
            .render();
            Reply::json(Route::AdminShutdown, 200, body, false)
        }
        (
            _,
            "/healthz" | "/metrics" | "/search" | "/admin/ingest" | "/admin/reload"
            | "/admin/checkpoint" | "/admin/shutdown",
        ) => Reply::error(Route::Other, 405, "method not allowed for this path"),
        _ => Reply::error(Route::Other, 404, "unknown path"),
    }
}

/// `POST /search`: admit the request, wait for a turn until its deadline,
/// then answer and render it on one snapshot while holding the turn.
fn handle_search(shared: &Shared, request: &Request) -> Reply {
    let keep = request.keep_alive;
    let parsed = match api::parse_search(&request.body) {
        Ok(p) => p,
        Err(e) => {
            let body = api::error_json(e.kind, &e.message, vec![]).render();
            return Reply::json(Route::Search, 400, body, keep);
        }
    };
    let admitted = Instant::now();
    let budget = parsed
        .timeout
        .map_or(shared.cfg.deadline, |t| t.min(shared.cfg.deadline));
    let _turn = match shared
        .gate
        .enter(admitted + budget, &shared.metrics.queue_depth)
    {
        Ok(turn) => turn,
        Err(Refused::Closed) => {
            let body = api::error_json("closed", "server is draining", vec![]).render();
            return Reply::json(Route::Search, 503, body, false);
        }
        Err(Refused::Full) => {
            shared
                .metrics
                .shed_queue_full
                .fetch_add(1, Ordering::Relaxed);
            let message = "admission queue is full; retry shortly";
            let body = api::error_json("overloaded", message, vec![]).render();
            let mut reply = Reply::json(Route::Search, 429, body, keep);
            reply.headers.push(retry_after(shared));
            return reply;
        }
        Err(Refused::Deadline) => {
            shared.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
            let message = "request expired in the admission queue";
            let body = api::error_json("deadline", message, vec![]).render();
            let mut reply = Reply::json(Route::Search, 503, body, keep);
            reply.headers.push(retry_after(shared));
            return reply;
        }
    };
    shared.metrics.note_drained(1);
    let snapshot = shared.engine.snapshot();
    match shared.engine.respond_on(&snapshot, &parsed.request) {
        Ok(resp) => {
            shared.metrics.latency.observe(admitted.elapsed());
            shared.metrics.record_search(&resp);
            let body = api::render_response(&snapshot, &resp).render();
            Reply::json(Route::Search, 200, body, keep)
        }
        Err(e) => {
            let (status, body) = api::engine_error(&e);
            Reply::json(Route::Search, status, body.render(), keep)
        }
    }
}

/// `POST /admin/ingest`: compile the mutation batch into a delta against
/// the snapshot pinned by [`SharedEngine::ingest_with`]'s writer lock and
/// apply it through the incremental refresh. Runs on the connection
/// thread; racing ingests serialize on the writer lock, and reads keep
/// serving the old snapshot until the pointer swap.
fn handle_ingest(shared: &Shared, request: &Request) -> Reply {
    let keep = request.keep_alive;
    if !shared.cfg.enable_ingest {
        return Reply::error(
            Route::AdminIngest,
            501,
            "server booted without the ingest write path",
        );
    }
    let batch = match api::parse_ingest(&request.body) {
        Ok(batch) => batch,
        Err(e) => {
            shared
                .metrics
                .ingest_failures
                .fetch_add(1, Ordering::Relaxed);
            let body = api::error_json(e.kind, &e.message, vec![]).render();
            return Reply::json(Route::AdminIngest, 400, body, keep);
        }
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        shared
            .metrics
            .ingest_failures
            .fetch_add(1, Ordering::Relaxed);
        let body = api::error_json("closed", "server is draining", vec![]).render();
        return Reply::json(Route::AdminIngest, 503, body, false);
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
            let body = api::render_ingest(&outcome, elapsed).render();
            Reply::json(Route::AdminIngest, 200, body, keep)
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
            let keep = keep && status != 503;
            Reply::json(Route::AdminIngest, status, body.render(), keep)
        }
    }
}

/// `POST /admin/checkpoint`: synchronously write a graph+index snapshot
/// and truncate the write-ahead log behind it. Runs on the connection
/// thread (like reload); racing ingests keep flowing — the checkpoint
/// captures whichever published snapshot it pins.
fn handle_checkpoint(shared: &Shared, keep: bool) -> Reply {
    let Some(durability) = shared.engine.durability().cloned() else {
        return Reply::error(
            Route::AdminCheckpoint,
            501,
            "server booted without a data dir; nothing to checkpoint",
        );
    };
    let snapshot = shared.engine.snapshot();
    match durability.checkpoint_now(&snapshot) {
        Ok(path) => {
            let body = Json::Obj(vec![
                ("ok".to_string(), Json::Bool(true)),
                ("version".to_string(), count(snapshot.version())),
                ("path".to_string(), Json::Str(path.display().to_string())),
            ])
            .render();
            Reply::json(Route::AdminCheckpoint, 200, body, keep)
        }
        Err(e) => {
            let body = api::error_json(
                "checkpoint_failed",
                &format!("checkpoint failed: {e}"),
                vec![],
            )
            .render();
            Reply::json(Route::AdminCheckpoint, 500, body, false)
        }
    }
}

fn handle_reload(shared: &Shared, keep: bool) -> Reply {
    // A durable server's history lives in the write-ahead log; swapping in
    // an engine built outside the log would fork that history (the next
    // appended version could collide with one already on disk under a
    // different delta). Restart-from-the-data-dir is the durable reload.
    if shared.engine.durability().is_some() {
        shared
            .metrics
            .reload_failures
            .fetch_add(1, Ordering::Relaxed);
        return Reply::error(
            Route::AdminReload,
            409,
            "reload would fork the write-ahead log; restart from the data dir instead",
        );
    }
    let Some(reload) = shared.reload.as_deref() else {
        return Reply::error(
            Route::AdminReload,
            501,
            "server booted without a reload source",
        );
    };
    // Serialize reloads; queries keep flowing on the current state.
    let _serialized = shared.reload_lock.lock().unwrap();
    match reload() {
        Ok(next) => {
            let epoch = shared.engine.replace(next);
            shared.metrics.reloads.fetch_add(1, Ordering::Relaxed);
            let body = Json::Obj(vec![
                ("ok".to_string(), Json::Bool(true)),
                ("epoch".to_string(), count(epoch)),
                ("version".to_string(), count(shared.engine.version())),
            ])
            .render();
            Reply::json(Route::AdminReload, 200, body, keep)
        }
        Err(message) => {
            shared
                .metrics
                .reload_failures
                .fetch_add(1, Ordering::Relaxed);
            let body = api::error_json("reload_failed", &message, vec![]).render();
            Reply::json(Route::AdminReload, 500, body, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// Spin until `depth` reads `n` (the gate stores it under its lock).
    fn wait_depth(depth: &AtomicU64, n: u64) {
        while depth.load(Ordering::Relaxed) != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn at_most_turns_are_held_at_once() {
        let gate = Gate::new(3, 64);
        let depth = AtomicU64::new(0);
        let (inside, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..12 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let _turn = gate.enter(far(), &depth).unwrap();
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        most.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        inside.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!((1..=3).contains(&most.load(Ordering::SeqCst)));
        assert_eq!(depth.load(Ordering::Relaxed), 0);
        gate.drain(); // nothing runs or waits: returns at once
    }

    #[test]
    fn capacity_waiters_are_admitted_and_the_next_is_refused() {
        // Zero capacity refuses even with every turn free.
        let zero = Gate::new(1, 0);
        let depth = AtomicU64::new(0);
        assert_eq!(zero.enter(far(), &depth).err(), Some(Refused::Full));

        let gate = Gate::new(1, 2);
        let held = gate.enter(far(), &depth).unwrap();
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| gate.enter(far(), &depth).map(drop)))
                .collect();
            wait_depth(&depth, 2);
            assert_eq!(gate.enter(far(), &depth).err(), Some(Refused::Full));
            drop(held);
            for waiter in waiters {
                assert_eq!(waiter.join().unwrap(), Ok(()));
            }
        });
    }

    #[test]
    fn a_waiter_past_its_deadline_leaves_and_a_later_one_gets_the_turn() {
        let gate = Gate::new(1, 4);
        let depth = AtomicU64::new(0);
        // A deadline already past is refused even with a turn free.
        let past = Instant::now();
        assert_eq!(gate.enter(past, &depth).err(), Some(Refused::Deadline));

        let held = gate.enter(far(), &depth).unwrap();
        std::thread::scope(|scope| {
            let patient = scope.spawn(|| gate.enter(far(), &depth).map(drop));
            wait_depth(&depth, 1);
            let soon = Instant::now() + Duration::from_millis(30);
            assert_eq!(gate.enter(soon, &depth).err(), Some(Refused::Deadline));
            assert!(Instant::now() >= soon);
            drop(held);
            assert_eq!(patient.join().unwrap(), Ok(()));
        });
        assert_eq!(depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn close_refuses_newcomers_while_waiters_still_run() {
        let gate = Gate::new(1, 4);
        let depth = AtomicU64::new(0);
        let held = gate.enter(far(), &depth).unwrap();
        let ran = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let _turn = gate.enter(far(), &depth).unwrap();
                ran.store(true, Ordering::SeqCst);
            });
            wait_depth(&depth, 1);
            gate.close();
            assert_eq!(gate.enter(far(), &depth).err(), Some(Refused::Closed));
            let drain = scope.spawn(|| gate.drain());
            drop(held);
            waiter.join().unwrap();
            drain.join().unwrap();
        });
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn a_turn_holder_that_panics_frees_its_turn() {
        let gate = Gate::new(1, 1);
        let depth = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _turn = gate.enter(far(), &depth).unwrap();
                panic!("search panicked while holding its turn");
            });
            assert!(holder.join().is_err());
        });
        let soon = Instant::now() + Duration::from_secs(5);
        assert!(gate.enter(soon, &depth).is_ok());
    }
}
