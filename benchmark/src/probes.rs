//! The traced run: replays the workload with each op executed as separate
//! public calls, one span per call, then probes the layers the op list
//! does not reach (boot, log, checkpoint, the HTTP hop). Produces the
//! per-layer metrics; end-to-end metrics are never taken from here.
//!
//! Spans are recorded here, around the calls into each layer — spans
//! inside the library are a later change. Where one library call hides
//! several layers (`respond_on`, `ingest_with`), the traced op runs the
//! real call first and then *replays* its stages as the public calls they
//! are made of; see [`crate::trace`] for how replays enter self time.

use crate::measure::{driver_threads, search_op, Measured, PassRecord, Runner, Traffic};
use crate::stats::{median, HostSample};
use crate::trace::{self, Tracer, NO_OP};
use crate::workload::{Op, Plan, QueryCase, Scale, Workload, GRAPH_FILE, INDEX_FILE};
use patternkb_graph::{NameResolver, WordId};
use patternkb_index::{cursor, refresh_indexes, RefreshStats, StorageBackend};
use patternkb_search::common::QueryContext;
use patternkb_search::durability::encode_payload;
use patternkb_search::request::QueryInput;
use patternkb_search::{
    plan, AlgorithmChoice, CacheOutcome, Durability, DurabilityOptions, PlannerConfig,
    SearchEngine, SearchRequest, SharedEngine,
};
use patternkb_serve::{api, ServeConfig, Server};
use patternkb_text::{Stemmer, SynonymTable, TextIndex};
use patternkb_wal::{Wal, WalOptions};
use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything the traced ops accumulate besides spans.
#[derive(Default)]
struct Counts {
    searches: u64,
    response_bytes: u64,
    candidate_roots: u64,
    subtrees: u64,
    patterns: u64,
    combos_tried: u64,
    combos_pruned: u64,
    intersect_seeks: u64,
    blocks_decoded: u64,
    blocks_skipped: u64,
    keys_interned: u64,
    cache_hits: u64,
    /// Distinct words first touched on a mapped tier.
    mapped_words: HashSet<WordId>,
    refreshes: Vec<RefreshStats>,
    /// Log payloads of the run's own ingests.
    payloads: Vec<Vec<u8>>,
}

struct Trace {
    tracer: Tracer,
    counts: Counts,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// One `/search` as separate public calls. Returns the response bytes.
fn traced_search(
    t: &mut Trace,
    shared: &SharedEngine,
    case: &QueryCase,
    op_id: u32,
) -> Result<String, String> {
    let tr = &mut t.tracer;
    // Outside the op: the keyword ids, needed to name the words whose
    // mapped postings `prepare_words` will touch.
    let snapshot = shared.snapshot();
    let text = match api::parse_search(case.body.as_bytes()).map(|p| p.request.input) {
        Ok(QueryInput::Text(text)) => text,
        _ => return Err(format!("{}: not a text query", case.body)),
    };
    let query = snapshot.parse(&text).map_err(|e| e.to_string())?;
    if snapshot.storage_backend() == StorageBackend::Mmap {
        t.counts.mapped_words.extend(query.keywords.iter().copied());
    }
    drop(snapshot);

    let op = tr.begin("op.search", None, op_id, false);
    let parsed = tr.timed("serve.parse", Some(op), op_id, false, || {
        api::parse_search(case.body.as_bytes())
    });
    let parsed = parsed.map_err(|e| e.to_string())?;
    let snapshot = tr.timed("search.snapshot", Some(op), op_id, false, || {
        shared.snapshot()
    });
    // `respond_on` starts with this call; made here it takes the mapped
    // tier's first-touch decode out of `search.respond` and into its own
    // span, at no change to the op's total.
    tr.timed("pathindex.prepare_words", Some(op), op_id, false, || {
        snapshot.index().prepare_words(&query.keywords)
    })
    .map_err(|e| e.to_string())?;
    let respond = tr.begin("search.respond", Some(op), op_id, false);
    let response = shared.respond_on(&snapshot, &parsed.request);
    tr.end(respond);
    let response = response.map_err(|e| e.to_string())?;
    let json = tr.timed("serve.render", Some(op), op_id, false, || {
        api::render_response(&snapshot, &response)
    });
    let body = tr.timed("serve.json_render", Some(op), op_id, false, || {
        json.render()
    });
    tr.end(op);

    // Replays of what `respond_on` did inside, as children of its span.
    let parent = Some(respond);
    tr.timed("ktext.parse", parent, op_id, true, || snapshot.parse(&text))
        .map_err(|e| e.to_string())?;
    if response.cache != CacheOutcome::Hit {
        let request = SearchRequest::query(query.clone())
            .k(parsed.request.k)
            .compose_tables(false);
        let execute = tr.begin("search.execute", parent, op_id, true);
        let replayed = snapshot.respond(&request);
        tr.end(execute);
        replayed.map_err(|e| e.to_string())?;

        let context = tr.begin("search.context", Some(execute), op_id, true);
        let ctx = QueryContext::new(snapshot.graph(), snapshot.index(), &query);
        if let Some(ctx) = &ctx {
            std::hint::black_box(ctx.candidate_roots().len());
        }
        tr.end(context);
        if let Some(ctx) = &ctx {
            tr.timed("search.plan", Some(execute), op_id, true, || {
                plan::choose(&plan::estimate(ctx), &PlannerConfig::default())
            });
            tr.timed("pathindex.intersect", Some(context), op_id, true, || {
                for shard in &ctx.shards {
                    let lists: Vec<&[u32]> = shard.words.iter().map(|w| w.roots()).collect();
                    std::hint::black_box(cursor::intersect_sorted(&lists));
                }
            });
        }
    }
    // Tables are composed after the cache, on hits and misses alike.
    tr.timed("search.compose", parent, op_id, true, || {
        for p in &response.patterns {
            std::hint::black_box(snapshot.table(p));
        }
    });

    let c = &mut t.counts;
    c.searches += 1;
    c.response_bytes += body.len() as u64;
    c.cache_hits += u64::from(response.cache == CacheOutcome::Hit);
    let s = &response.stats;
    c.candidate_roots += s.candidate_roots as u64;
    c.subtrees += s.subtrees as u64;
    c.patterns += s.patterns as u64;
    c.combos_tried += s.combos_tried as u64;
    c.combos_pruned += s.combos_pruned as u64;
    c.intersect_seeks += s.hot.intersect_seeks;
    c.blocks_decoded += s.hot.blocks_decoded;
    c.blocks_skipped += s.hot.blocks_skipped;
    c.keys_interned += s.hot.keys_interned;
    Ok(body)
}

/// One `/admin/ingest` as separate public calls. Returns the acked version.
fn traced_ingest(
    t: &mut Trace,
    shared: &SharedEngine,
    body: &str,
    op_id: u32,
) -> Result<u64, String> {
    let tr = &mut t.tracer;
    let op = tr.begin("op.ingest", None, op_id, false);
    let batch = tr
        .timed("serve.parse_ingest", Some(op), op_id, false, || {
            api::parse_ingest(body.as_bytes())
        })
        .map_err(|e| e.to_string())?;
    let ingest = tr.begin("search.ingest", Some(op), op_id, false);
    let t0 = Instant::now();
    let outcome = shared.ingest_with(batch.mode, |s| api::compile_delta(s.graph(), &batch));
    tr.end(ingest);
    let outcome = outcome.map_err(|e| e.to_string())?;
    tr.timed("serve.render_ingest", Some(op), op_id, false, || {
        api::render_ingest(&outcome, t0.elapsed()).render()
    });
    tr.end(op);

    // Replays of what `ingest_with` did inside: the same batch once more,
    // against the state it just produced (one entity larger; batch-local
    // names make the batch repeatable). Not against the state it was
    // applied to: holding that alive would make the replay's index a
    // third copy in fresh memory, and first-touch cost would be measured
    // instead of the refresh (see README, "Memory").
    let base = shared.snapshot();
    let parent = Some(ingest);
    let delta = tr
        .timed("serve.compile_delta", parent, op_id, true, || {
            api::compile_delta(base.graph(), &batch)
        })
        .map_err(|e| e.to_string())?;
    let graph = tr
        .timed("kgraph.delta_apply", parent, op_id, true, || {
            delta.apply(base.graph(), batch.mode)
        })
        .map_err(|e| e.to_string())?;
    let vocab = base.text().vocab();
    let text = tr.timed("ktext.index_build", parent, op_id, true, || {
        TextIndex::build_with(&graph, vocab.synonyms().clone(), vocab.stemmer())
    });
    let (_, stats) = tr.timed("pathindex.refresh", parent, op_id, true, || {
        refresh_indexes(
            base.index(),
            base.graph(),
            &graph,
            base.text(),
            &text,
            &delta.dirty_nodes(),
            false,
        )
    });
    t.counts.refreshes.push(stats);
    t.counts.payloads.push(encode_payload(batch.mode, &delta));
    Ok(outcome.version)
}

/// The traced counterpart of `Runner::drive`: same ops, same checks.
fn drive_traced(
    traffic: &Traffic,
    t: &mut Trace,
    shared: &SharedEngine,
    bodies: &[String],
) -> PassRecord {
    let mut out = PassRecord::default();
    let mut bodies = bodies.iter();
    for (i, op) in traffic.plan.ops.iter().enumerate() {
        match op {
            Op::Search(q) => {
                let case = &traffic.plan.queries[*q as usize];
                let answer = traced_search(t, shared, case, i as u32);
                traffic.check_answer(case, answer, &mut out.tally);
            }
            Op::Ingest => {
                traffic
                    .digests_hold
                    .store(false, std::sync::atomic::Ordering::SeqCst);
                let body = bodies.next().expect("one body per ingest op");
                out.tally.attempted += 1;
                match traced_ingest(t, shared, body, i as u32) {
                    Ok(version) => out.acked.push(version),
                    Err(e) => out.tally.fail(format!("ingest: {e}")),
                }
            }
        }
    }
    out
}

/// Median duration in µs of the spans called `name` (0 if there are none:
/// the layer did no work in this run).
fn median_us(layers: &BTreeMap<&'static str, trace::Layer>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |l| {
        let d: Vec<f64> = l.durations_ns.iter().map(|&ns| us(ns)).collect();
        median(&d)
    })
}

fn time_s<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = call();
    (out, t0.elapsed().as_secs_f64())
}

/// Per fixed algorithm and query size, the median µs of `respond` without
/// table composition; plus `Auto`'s regret against the best fixed choice.
fn algorithm_sweep(
    engine: &SearchEngine,
    r: &Runner,
    metrics: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    const FIXED: [(&str, AlgorithmChoice); 4] = [
        ("search.pattern_enum_us", AlgorithmChoice::PatternEnum),
        (
            "search.pattern_enum_pruned_us",
            AlgorithmChoice::PatternEnumPruned,
        ),
        ("search.linear_enum_us", AlgorithmChoice::LinearEnum),
        (
            "search.linear_enum_topk_us",
            AlgorithmChoice::LinearEnumTopK,
        ),
    ];
    let sample = 4 * r.scale.sweep_per_m.min(r.plan().queries.len() / 4);
    let mut by_size: BTreeMap<(&str, bool), Vec<f64>> = BTreeMap::new();
    let mut regret = Vec::new();
    for case in &r.plan().queries[..sample] {
        let parsed = api::parse_search(case.body.as_bytes()).map_err(|e| e.to_string())?;
        let QueryInput::Text(text) = &parsed.request.input else {
            return Err("pool query is not text".into());
        };
        let query = engine.parse(text).map_err(|e| e.to_string())?;
        let time = |choice: AlgorithmChoice| -> Result<f64, String> {
            let request = SearchRequest::query(query.clone())
                .k(parsed.request.k)
                .algorithm(choice)
                .compose_tables(false);
            let (answer, s) = time_s(|| engine.respond(&request));
            answer.map_err(|e| e.to_string())?;
            Ok(s * 1e6)
        };
        let mut best = f64::INFINITY;
        for (name, choice) in FIXED {
            let took = time(choice)?;
            best = best.min(took);
            // The paper's small queries are the selective 3–4-keyword
            // ones, its large ones the 1–2-keyword ones.
            by_size.entry((name, case.m >= 3)).or_default().push(took);
        }
        regret.push(time(AlgorithmChoice::Auto)? / best);
    }
    for (name, _) in FIXED {
        for (small, suffix) in [(true, "small"), (false, "large")] {
            let samples = by_size
                .get(&(name, small))
                .ok_or("sweep sample misses a size")?;
            metrics.push((format!("{name}.{suffix}"), median(samples)));
        }
    }
    metrics.push(("search.auto_regret".into(), median(&regret)));
    Ok(())
}

/// Keep-alive HTTP/1.1 client for `POST /search`, just enough for the
/// overhead probe.
struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(HttpClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// Returns the status code; the body is read and discarded.
    fn post_search(&mut self, body: &str) -> std::io::Result<u16> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let head = format!(
            "POST /search HTTP/1.1\r\nhost: benchmark\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        let end = head_end + 4 + length;
        while self.buf.len() < end {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        self.buf.drain(..end);
        Ok(status)
    }
}

/// The socket and queue hop the gated path leaves out: the same searches
/// through a real `Server` on loopback. Returns `(median over the ops of
/// round trip minus in-process time in µs, closed-loop requests/s over
/// one connection per core)`. Consumes the engine: a server closes it on shutdown.
fn http_probe(
    shared: Arc<SharedEngine>,
    plan: &Plan,
    http_ops: usize,
) -> Result<(f64, f64), String> {
    let bodies: Vec<&str> = plan
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Search(q) => Some(plan.queries[*q as usize].body.as_str()),
            Op::Ingest => None,
        })
        .take(http_ops)
        .collect();
    // Fill the cache first, so both sides see the hit ratio of a rerun.
    let in_process = |shared: &SharedEngine| -> Result<Vec<f64>, String> {
        let mut took = Vec::with_capacity(bodies.len());
        for body in &bodies {
            let (answer, s) = time_s(|| search_op(shared, body.as_bytes()));
            answer?;
            took.push(s * 1e6);
        }
        Ok(took)
    };
    in_process(&shared)?;
    let direct = in_process(&shared)?;

    let server = Server::start(
        shared,
        None,
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let io = |e: std::io::Error| format!("loopback request: {e}");
    let probe = || -> Result<(f64, f64), String> {
        let mut client = HttpClient::connect(addr).map_err(io)?;
        let mut round_trips = Vec::with_capacity(bodies.len());
        for body in &bodies {
            let (status, s) = time_s(|| client.post_search(body));
            if status.map_err(io)? != 200 {
                return Err("loopback search did not answer 200".into());
            }
            round_trips.push(s * 1e6);
        }
        drop(client);
        let threads = driver_threads();
        let slice = bodies.len().div_ceil(threads);
        let (served, wall) = time_s(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = bodies
                    .chunks(slice)
                    .map(|chunk| {
                        scope.spawn(move || -> std::io::Result<bool> {
                            let mut client = HttpClient::connect(addr)?;
                            let mut ok = true;
                            for body in chunk {
                                ok &= client.post_search(body)? == 200;
                            }
                            Ok(ok)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect::<std::io::Result<Vec<bool>>>()
            })
        });
        if !served.map_err(io)?.into_iter().all(|ok| ok) {
            return Err("loopback search did not answer 200".into());
        }
        // Paired per op: the same searches in the same order on both sides.
        let extra: Vec<f64> = round_trips
            .iter()
            .zip(&direct)
            .map(|(rt, d)| rt - d)
            .collect();
        Ok((median(&extra), bodies.len() as f64 / wall))
    };
    let result = probe();
    server.trigger_shutdown();
    server.join();
    result
}

/// Append-and-sync the run's own payloads to a scratch log, replay it,
/// and (for workloads without a durable engine) checkpoint `engine`
/// through a scratch `Durability`. Returns the checkpoint's
/// `(seconds, bytes)` when it made one.
fn wal_probe(
    scratch: &Path,
    payloads: &[Vec<u8>],
    checkpoint_of: Option<&SearchEngine>,
    metrics: &mut Vec<(String, f64)>,
) -> Result<Option<(f64, u64)>, String> {
    let io = |e: std::io::Error| format!("scratch log in {}: {e}", scratch.display());
    std::fs::create_dir_all(scratch).map_err(io)?;
    let log = scratch.join("wal.log");
    let (wal, _) = Wal::open(&log, WalOptions::default()).map_err(io)?;
    let (mut append_us, mut sync_us) = (Vec::new(), Vec::new());
    for (i, payload) in payloads.iter().enumerate() {
        let (ticket, s) = time_s(|| wal.append(i as u64 + 1, payload));
        append_us.push(s * 1e6);
        let ticket = ticket.map_err(io)?;
        let (synced, s) = time_s(|| wal.sync(ticket));
        synced.map_err(io)?;
        sync_us.push(s * 1e6);
    }
    let n = payloads.len().max(1) as f64;
    metrics.push(("wal.append_us".into(), median(&append_us)));
    metrics.push(("wal.sync_us".into(), median(&sync_us)));
    metrics.push((
        "wal.fsyncs_per_ingest".into(),
        wal.fsync_stats().count as f64 / n,
    ));
    // Header excluded: bytes a single ingest adds to the log.
    let record_bytes: usize = payloads.iter().map(|p| p.len() + 16).sum();
    metrics.push(("wal.bytes_per_ingest".into(), record_bytes as f64 / n));
    let (summary, s) = time_s(|| patternkb_wal::replay(&log));
    if summary.map_err(io)?.records.len() != payloads.len() {
        return Err("scratch log did not replay every record".into());
    }
    metrics.push(("wal.replay_ms".into(), s * 1e3));

    let Some(engine) = checkpoint_of else {
        return Ok(None);
    };
    let durability = Durability::new(wal, scratch.to_path_buf(), DurabilityOptions::default());
    let (path, s) = time_s(|| durability.checkpoint_now(engine));
    let bytes = std::fs::metadata(path.map_err(io)?).map_err(io)?.len();
    Ok(Some((s, bytes)))
}

pub fn run(dir: &Path, scale: Scale, trace_file: &Path) -> Result<Measured, String> {
    let host0 = HostSample::now();
    let mut r = Runner::new(dir, scale)?;
    let workload = r.workload();
    let postings = r.plan().postings as f64;
    let mut metrics: Vec<(String, f64)> = Vec::new();

    let mut engine = None;
    r.reboot(&mut engine)?;
    if workload != Workload::Coldstart {
        r.pass(engine.as_ref().expect("booted above"), None);
    }
    // The untraced reference: passes of exactly the code the untraced run
    // times, in this process, one right before and one right after the
    // traced passes; their mean, so that drift over the run cancels.
    let mut reference = r.passes(&mut engine, 1, |r, s| r.pass(s, None))?;

    let mut t = Trace {
        tracer: Tracer::new(),
        counts: Counts::default(),
    };
    // One traced pass: each op leaves about ten spans.
    let traced = r.passes(&mut engine, 1, |r, shared| {
        r.pass_with(shared, |traffic, bodies| {
            drive_traced(traffic, &mut t, shared, bodies)
        })
    })?;

    reference.extend(r.passes(&mut engine, 1, |r, s| r.pass(s, None))?);
    // Wall-clock on both sides: spans are not read on the calibrated clock.
    let reference_ms = reference.iter().map(|p| p.raw_ops_ms).sum::<f64>() / reference.len() as f64;
    let shared = engine.take().expect("booted above");

    // Read-only workloads: the write epilogue, traced.
    if workload != Workload::MixedWrite {
        for body in r.mint_ingest_bodies(r.scale.epilogue_warmups + r.scale.epilogue_ingests) {
            let before = shared.version();
            r.traffic
                .digests_hold
                .store(false, std::sync::atomic::Ordering::SeqCst);
            r.out.attempted += 1;
            match traced_ingest(&mut t, &shared, &body, NO_OP) {
                Ok(v) if v == before + 1 => {}
                Ok(v) => r.out.fail(format!("ingest acked v{v} on top of v{before}")),
                Err(e) => r.out.fail(format!("ingest: {e}")),
            }
        }
    }

    // ---- per-op layer metrics from the spans ----
    let spans = std::mem::take(&mut t.tracer.spans);
    let layers = trace::layers(&spans, |_| true);
    let c = &t.counts;
    let per_search = |total: u64| total as f64 / c.searches.max(1) as f64;
    for (metric, span) in [
        ("serve.parse_us", "serve.parse"),
        ("serve.parse_ingest_us", "serve.parse_ingest"),
        ("serve.compile_delta_us", "serve.compile_delta"),
        ("search.plan_us", "search.plan"),
        ("search.auto_us", "search.execute"),
        ("search.compose_us", "search.compose"),
        ("ktext.parse_us", "ktext.parse"),
        ("pathindex.intersect_us", "pathindex.intersect"),
        ("pathindex.prepare_words_us", "pathindex.prepare_words"),
        ("kgraph.delta_apply_us", "kgraph.delta_apply"),
    ] {
        metrics.push((metric.into(), median_us(&layers, span)));
    }
    // Rendering is two calls on the request path; reported as one layer.
    let render: Vec<f64> = match (layers.get("serve.render"), layers.get("serve.json_render")) {
        (Some(a), Some(b)) => a
            .durations_ns
            .iter()
            .zip(&b.durations_ns)
            .map(|(x, y)| us(x + y))
            .collect(),
        _ => return Err("no search was traced".into()),
    };
    metrics.push(("serve.render_us".into(), median(&render)));
    metrics.push(("serve.response_bytes".into(), per_search(c.response_bytes)));
    metrics.push(("search.cache_hit_ratio".into(), per_search(c.cache_hits)));
    for (name, total) in [
        ("search.candidate_roots", c.candidate_roots),
        ("search.subtrees", c.subtrees),
        ("search.patterns", c.patterns),
        ("search.combos_tried", c.combos_tried),
        ("search.intersect_seeks", c.intersect_seeks),
        ("search.blocks_decoded", c.blocks_decoded),
        ("search.blocks_skipped", c.blocks_skipped),
        ("search.keys_interned", c.keys_interned),
    ] {
        metrics.push((name.into(), per_search(total)));
    }
    metrics.push((
        "search.pruned_ratio".into(),
        c.combos_pruned as f64 / c.combos_tried.max(1) as f64,
    ));
    metrics.push((
        "pathindex.words_decoded".into(),
        c.mapped_words.len() as f64,
    ));

    let ingest = layers.get("search.ingest").ok_or("no ingest was traced")?;
    let ingests = ingest.durations_ns.len() as f64;
    metrics.push((
        "search.ingest_ms".into(),
        median_us(&layers, "search.ingest") / 1e3,
    ));
    metrics.push((
        "search.ingest_self_ms".into(),
        ingest.self_ns as f64 / ingests / 1e6,
    ));
    metrics.push((
        "pathindex.refresh_ms".into(),
        median_us(&layers, "pathindex.refresh") / 1e3,
    ));
    let per_refresh = |f: fn(&RefreshStats) -> usize| {
        c.refreshes.iter().map(f).sum::<usize>() as f64 / c.refreshes.len().max(1) as f64
    };
    metrics.push((
        "pathindex.refresh_affected_roots".into(),
        per_refresh(|s| s.affected_roots),
    ));
    metrics.push((
        "pathindex.refresh_postings_kept".into(),
        per_refresh(|s| s.postings_kept),
    ));
    metrics.push((
        "pathindex.refresh_postings_added".into(),
        per_refresh(|s| s.postings_added),
    ));

    // The traced passes' own layers (the write epilogue's ops are outside
    // the op list and carry `NO_OP`). Σ self times of every layer under
    // the op spans ÷ the same ops untraced; and the op spans' own
    // duration ÷ the same. Both per pass: the reference is one pass.
    let pass_layers = trace::layers(&spans, |s| s.op != NO_OP);
    let is_op = |name: &str| name.starts_with("op.");
    let op_ns: u64 = pass_layers
        .iter()
        .filter(|(name, _)| is_op(name))
        .flat_map(|(_, l)| &l.durations_ns)
        .sum();
    let layer_self_ns: u64 = pass_layers
        .iter()
        .filter(|(name, _)| !is_op(name))
        .map(|(_, l)| l.self_ns)
        .sum();
    let reference_ns = reference_ms * 1e6 * traced.len() as f64;
    metrics.push(("trace.coverage".into(), layer_self_ns as f64 / reference_ns));
    metrics.push(("trace.overhead_ratio".into(), op_ns as f64 / reference_ns));
    print_layer_table(workload, op_ns, &pass_layers);

    // ---- probes of what the op list does not reach ----
    let snapshot = shared.snapshot();
    let hit_us: Result<Vec<f64>, String> = r.plan().queries[..r.plan().queries.len().min(64)]
        .iter()
        .map(|case| {
            let request = api::parse_search(case.body.as_bytes())
                .map_err(|e| e.to_string())?
                .request;
            shared
                .respond_on(&snapshot, &request)
                .map_err(|e| e.to_string())?;
            let (again, s) = time_s(|| shared.respond_on(&snapshot, &request));
            match again.map_err(|e| e.to_string())?.cache {
                CacheOutcome::Hit => Ok(s * 1e6),
                other => Err(format!("repeated {} was {other:?}, not a hit", case.body)),
            }
        })
        .collect();
    metrics.push(("search.cache_hit_us".into(), median(&hit_us?)));
    algorithm_sweep(&snapshot, &r, &mut metrics)?;
    let (_, s) = time_s(|| NameResolver::new(snapshot.graph()));
    metrics.push(("kgraph.resolver_build_us".into(), s * 1e6));

    let io = |e: std::io::Error| format!("boot probe: {e}");
    let (graph, s) = time_s(|| patternkb_graph::snapshot::load(&dir.join(GRAPH_FILE)));
    let graph = graph.map_err(io)?;
    metrics.push(("kgraph.snapshot_load_s".into(), s));
    let (_, s) =
        time_s(|| TextIndex::build_with(&graph, SynonymTable::default_english(), Stemmer::Lite));
    metrics.push(("ktext.index_build_s".into(), s));
    drop(graph);
    let (mapped, s) = time_s(|| patternkb_index::storage::open_mapped(&dir.join(INDEX_FILE)));
    mapped.map_err(io)?;
    metrics.push(("pathindex.mmap_open_ms".into(), s * 1e3));
    let (heap, s) = time_s(|| patternkb_index::snapshot::load(&dir.join(INDEX_FILE)));
    let heap = heap.map_err(io)?;
    metrics.push(("pathindex.heap_decode_s".into(), s));
    metrics.push((
        "pathindex.heap_bytes_per_posting".into(),
        heap.heap_bytes() as f64 / heap.num_postings() as f64,
    ));
    drop(heap);

    let scratch_checkpoint = (workload != Workload::MixedWrite).then_some(&*snapshot);
    let scratch = wal_probe(
        &dir.join("scratch"),
        &c.payloads,
        scratch_checkpoint,
        &mut metrics,
    )?;
    drop(snapshot);
    // The durable engine is released for the recovery check; what
    // follows runs on a fresh boot of the same directory.
    let ((checkpoint_s, checkpoint_bytes), shared) = match scratch {
        Some(made) => (made, shared),
        None => (r.durability_check(shared)?, r.boot()?),
    };
    metrics.push(("wal.checkpoint_s".into(), checkpoint_s));
    metrics.push((
        "wal.checkpoint_bytes_per_posting".into(),
        checkpoint_bytes as f64 / postings,
    ));

    // Last: shutting the server down closes the engine.
    let (overhead_us, http_qps) = http_probe(shared, r.plan(), r.scale.http_ops)?;
    metrics.push(("serve.http_overhead_us".into(), overhead_us));
    metrics.push(("serve.http_qps".into(), http_qps));

    let (steal, delay) = host0.ratios_until(&HostSample::now());
    metrics.push(("host.steal_ratio".into(), steal));
    metrics.push(("host.run_delay_ratio".into(), delay));

    trace::write_json(trace_file, &spans).map_err(|e| format!("{}: {e}", trace_file.display()))?;
    println!(
        "# {}: {} traced passes, {} spans written to {}",
        workload.name(),
        traced.len(),
        spans.len(),
        trace_file.display()
    );
    r.out.metrics = metrics;
    Ok(r.out)
}

/// Where the traced ops' time went: per layer, its share of the summed
/// op time by self time.
fn print_layer_table(
    workload: Workload,
    total: u64,
    layers: &BTreeMap<&'static str, trace::Layer>,
) {
    println!(
        "# {} layer table (self time, share of traced op time)",
        workload.name()
    );
    let mut rows: Vec<(&str, &trace::Layer)> = layers.iter().map(|(n, l)| (*n, l)).collect();
    rows.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
    for (name, layer) in rows {
        println!(
            "#   {name:<26} {:>10.3} ms {:>6.1} %  ({} spans)",
            layer.self_ns as f64 / 1e6,
            100.0 * layer.self_ns as f64 / total.max(1) as f64,
            layer.durations_ns.len()
        );
    }
}
