//! HTTP load generator for `patternkb-cli serve` — drives sustained
//! concurrent traffic over real sockets and gates the outcome counts the
//! `serve-*` CI legs check.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7878 [--dataset figure1|wiki|imdb]
//!         [--entities N] [--movies N] [--seed N] [--d N]
//!         [--mode closed|open] [--conns N] [--rate R]
//!         [--duration-s S] [--k N] [--zipf-theta F] [--timeout-ms N]
//!         [--write-rate W] [--json PATH]
//!         [--min-ok N] [--max-errors N] [--max-p99-ms F]
//!         [--max-shed N] [--min-429 N]
//!         [--min-writes-ok N] [--max-write-errors N] [--max-write-conflicts N]
//! ```
//!
//! * **Query mix**: the same deterministic generators the server builds
//!   its dataset from ([`patternkb_datagen`]) regenerate the graph
//!   locally (same spec ⇒ same vocabulary), then
//!   [`patternkb_datagen::queries::QueryGenerator`] samples an anchored
//!   query pool and each request draws from it **Zipf-weighted** — hot
//!   queries repeat, exercising the server's result cache like real
//!   traffic does.
//! * **Closed loop** (`--mode closed`, default): `--conns` keep-alive
//!   connections each issue requests back-to-back — measures capacity.
//! * **Open loop** (`--mode open --rate R`): requests are paced at R/s
//!   across the connections regardless of completions — measures latency
//!   at an offered load (queueing shows up instead of hiding in the
//!   closed loop's self-throttling).
//! * **Mixed read/write** (`--write-rate W`): one writer connection
//!   additionally issues `POST /admin/ingest` batches at W/s — entities
//!   typed with the *dataset's own* first entity type and attribute (the
//!   same datagen spec the server built from), so writes grow the live
//!   graph the reads are querying. The report tracks write outcomes and
//!   checks the returned engine version is monotone.
//! * **Report**: one JSON object on stdout (and `--json PATH`):
//!   counts by outcome, throughput, shed rate, p50/p90/p95/p99/max/mean.
//! * **Gates**: the `--min-ok` / `--max-errors` / `--max-p99-ms` /
//!   `--max-shed` / `--min-429` flags turn the run into a CI check
//!   (non-zero exit on violation) — see the `serve-smoke` job.

use patternkb_datagen::queries::QueryGenerator;
use patternkb_datagen::zipf::Zipf;
use patternkb_graph::KnowledgeGraph;
use patternkb_text::{Stemmer, SynonymTable, TextIndex};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr: String = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let dataset: String = flag(&args, "--dataset").unwrap_or_else(|| "figure1".to_string());
    let seed: u64 = flag(&args, "--seed").unwrap_or(42);
    let d: usize = flag(&args, "--d").unwrap_or(3);
    let mode: String = flag(&args, "--mode").unwrap_or_else(|| "closed".to_string());
    let conns: usize = flag(&args, "--conns").unwrap_or(4).max(1);
    let rate: f64 = flag(&args, "--rate").unwrap_or(100.0);
    let duration_s: f64 = flag(&args, "--duration-s").unwrap_or(10.0);
    let k: usize = flag(&args, "--k").unwrap_or(10);
    let theta: f64 = flag(&args, "--zipf-theta").unwrap_or(0.9);
    let timeout_ms: Option<u64> = flag(&args, "--timeout-ms");
    let write_rate: f64 = flag(&args, "--write-rate").unwrap_or(0.0);
    let json_path: Option<String> = flag(&args, "--json");

    if !matches!(mode.as_str(), "closed" | "open") {
        eprintln!("--mode must be closed or open, got {mode:?}");
        std::process::exit(2);
    }

    // Regenerate the server's dataset locally: same spec, same seed ⇒
    // same vocabulary, so generated surfaces parse on the server.
    let graph = match build_graph(&dataset, &args, seed) {
        Ok(g) => g,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let text = TextIndex::build_with(&graph, SynonymTable::default_english(), Stemmer::Lite);
    let pool = query_pool(&graph, &text, d, seed);
    if pool.is_empty() {
        eprintln!("could not sample any queries from dataset {dataset:?}");
        std::process::exit(2);
    }
    eprintln!(
        "[loadgen] {} queries in pool over {dataset}; mode={mode} conns={conns} duration={duration_s}s",
        pool.len()
    );

    // Pre-render the request bodies once.
    let bodies: Vec<String> = pool
        .iter()
        .map(|q| {
            let text = q.surface.join(" ");
            let timeout = timeout_ms
                .map(|t| format!(",\"timeout_ms\":{t}"))
                .unwrap_or_default();
            format!(
                "{{\"q\":\"{}\",\"k\":{k}{timeout}}}",
                text.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();

    let duration = Duration::from_secs_f64(duration_s);
    let zipf = Zipf::new(bodies.len(), theta);
    let open_interval = if mode == "open" {
        Some(Duration::from_secs_f64(conns as f64 / rate.max(0.001)))
    } else {
        None
    };

    // Mixed read/write mode: the ingest batches type their entities with
    // the dataset's own vocabulary (first entity type / first attribute),
    // so the spec stays the single source of truth for reads and writes.
    let write_spec = if write_rate > 0.0 {
        match ingest_spec(&graph) {
            Some(spec) => Some(spec),
            None => {
                eprintln!(
                    "--write-rate needs a dataset with at least one entity type and attribute"
                );
                std::process::exit(2);
            }
        }
    } else {
        None
    };

    let started = Instant::now();
    let mut tallies: Vec<Tally> = Vec::new();
    let mut writes = WriteTally::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..conns {
            let addr = addr.as_str();
            let bodies = &bodies;
            let zipf = &zipf;
            handles.push(scope.spawn(move || {
                run_connection(
                    addr,
                    bodies,
                    zipf,
                    seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    started,
                    duration,
                    open_interval,
                )
            }));
        }
        let writer = write_spec.as_ref().map(|(type_name, attr_name)| {
            let addr = addr.as_str();
            scope.spawn(move || {
                run_writer(addr, type_name, attr_name, write_rate, started, duration)
            })
        });
        for h in handles {
            tallies.push(h.join().expect("connection thread"));
        }
        if let Some(w) = writer {
            writes = w.join().expect("writer thread");
        }
    });
    let elapsed = started.elapsed();

    let mut total = Tally::default();
    for t in &tallies {
        total.merge(t);
    }
    total.latencies_us.sort_unstable();

    let report = render_report(
        &mode,
        conns,
        &dataset,
        rate,
        elapsed,
        bodies.len(),
        &total,
        &writes,
    );
    println!("{report}");
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
    }

    // CI gates.
    let mut failures = Vec::new();
    if let Some(min_ok) = flag::<u64>(&args, "--min-ok") {
        if total.ok < min_ok {
            failures.push(format!("ok {} < --min-ok {min_ok}", total.ok));
        }
    }
    if let Some(max_errors) = flag::<u64>(&args, "--max-errors") {
        let errors = total.errors();
        if errors > max_errors {
            failures.push(format!("errors {errors} > --max-errors {max_errors}"));
        }
    }
    if let Some(max_p99) = flag::<f64>(&args, "--max-p99-ms") {
        let p99 = total.percentile_ms(0.99);
        if p99 > max_p99 {
            failures.push(format!("p99 {p99:.1}ms > --max-p99-ms {max_p99}ms"));
        }
    }
    if let Some(max_shed) = flag::<u64>(&args, "--max-shed") {
        let shed = total.shed_429 + total.shed_503;
        if shed > max_shed {
            failures.push(format!("shed {shed} > --max-shed {max_shed}"));
        }
    }
    if let Some(min_429) = flag::<u64>(&args, "--min-429") {
        if total.shed_429 < min_429 {
            failures.push(format!("429s {} < --min-429 {min_429}", total.shed_429));
        }
    }
    if let Some(min_writes_ok) = flag::<u64>(&args, "--min-writes-ok") {
        if writes.ok < min_writes_ok {
            failures.push(format!(
                "writes ok {} < --min-writes-ok {min_writes_ok}",
                writes.ok
            ));
        }
    }
    if let Some(max_write_errors) = flag::<u64>(&args, "--max-write-errors") {
        if writes.errors > max_write_errors {
            failures.push(format!(
                "write errors {} > --max-write-errors {max_write_errors}",
                writes.errors
            ));
        }
    }
    if let Some(max_conflicts) = flag::<u64>(&args, "--max-write-conflicts") {
        if writes.conflicts > max_conflicts {
            failures.push(format!(
                "write conflicts {} > --max-write-conflicts {max_conflicts}",
                writes.conflicts
            ));
        }
    }
    if writes.sent > 0 && !writes.version_monotone {
        // Not flag-gated: a version that ever went backwards is a
        // correctness bug, never an acceptable load outcome.
        failures.push("engine version went backwards across ingests".to_string());
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[loadgen] GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}

fn build_graph(dataset: &str, args: &[String], seed: u64) -> Result<KnowledgeGraph, String> {
    match dataset {
        "figure1" => Ok(patternkb_datagen::figure1().0),
        "wiki" => {
            let entities = flag(args, "--entities").unwrap_or(10_000);
            let cfg = patternkb_datagen::WikiConfig {
                entities,
                seed,
                ..patternkb_datagen::WikiConfig::default()
            };
            Ok(patternkb_datagen::wiki::wiki(&cfg))
        }
        "imdb" => {
            let movies = flag(args, "--movies").unwrap_or(5_000);
            let cfg = patternkb_datagen::ImdbConfig { movies, seed };
            Ok(patternkb_datagen::imdb::imdb(&cfg))
        }
        other => Err(format!(
            "unknown dataset {other:?} (figure1|wiki|imdb; must match the server's)"
        )),
    }
}

/// Anchored queries (answerable by construction), 1–4 keywords.
fn query_pool(
    g: &KnowledgeGraph,
    text: &TextIndex,
    d: usize,
    seed: u64,
) -> Vec<patternkb_datagen::queries::QuerySpec> {
    let mut qg = QueryGenerator::new(g, text, d, seed);
    qg.batch(20, 4)
}

#[derive(Default)]
struct Tally {
    sent: u64,
    ok: u64,
    shed_429: u64,
    shed_503: u64,
    http_4xx: u64,
    http_5xx: u64,
    io_errors: u64,
    latencies_us: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed_429 += other.shed_429;
        self.shed_503 += other.shed_503;
        self.http_4xx += other.http_4xx;
        self.http_5xx += other.http_5xx;
        self.io_errors += other.io_errors;
        self.latencies_us.extend_from_slice(&other.latencies_us);
    }

    /// Hard failures: transport errors plus unexpected HTTP statuses.
    /// 429/503 are *shedding* (correct overload behavior), not errors.
    fn errors(&self) -> u64 {
        self.io_errors + self.http_4xx + self.http_5xx
    }

    /// Latency percentile over successful requests, in ms (0 when none).
    fn percentile_ms(&self, q: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let idx = ((self.latencies_us.len() - 1) as f64 * q).round() as usize;
        self.latencies_us[idx] as f64 / 1e3
    }
}

/// The (entity type, attribute) the writer mints ingest batches with:
/// the dataset's first non-text entity type and first attribute.
fn ingest_spec(g: &KnowledgeGraph) -> Option<(String, String)> {
    use patternkb_graph::{AttrId, TypeId};
    if g.num_attrs() == 0 {
        return None;
    }
    let t = (0..g.num_types() as u32)
        .map(TypeId)
        .find(|&t| !g.type_text(t).is_empty())?;
    Some((
        g.type_text(t).to_string(),
        g.attr_text(AttrId(0)).to_string(),
    ))
}

fn jstr(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[derive(Default)]
struct WriteTally {
    sent: u64,
    ok: u64,
    conflicts: u64,
    errors: u64,
    io_errors: u64,
    last_version: u64,
    /// Highest engine version the server ever acknowledged with a 200.
    /// Against a durable server this is the recovery floor: after a crash
    /// and reboot, `patternkb_engine_version` must be ≥ this value (an
    /// acked write is never lost).
    acked_version_hwm: u64,
    version_monotone: bool,
}

/// One keep-alive writer connection issuing `POST /admin/ingest` batches
/// at `rate`/s: a fresh entity plus one text attribute per batch. Batch
/// names are referenced batch-locally, so repeated runs against one
/// server never collide on ambiguous names.
fn run_writer(
    addr: &str,
    type_name: &str,
    attr_name: &str,
    rate: f64,
    started: Instant,
    duration: Duration,
) -> WriteTally {
    let mut tally = WriteTally {
        version_monotone: true,
        ..WriteTally::default()
    };
    let interval = Duration::from_secs_f64(1.0 / rate.max(0.001));
    let mut client: Option<Client> = None;
    let mut next_send = Instant::now();
    let mut seq = 0u64;
    // Per-process nonce so consecutive CI legs against one server mint
    // distinct names (names only need batch-local uniqueness, but
    // distinct names keep /search assertions on fresh facts readable).
    let nonce = std::process::id();
    while started.elapsed() < duration {
        let now = Instant::now();
        if now < next_send {
            std::thread::sleep(next_send - now);
        }
        next_send += interval;
        let name = format!("loadgen vendor {nonce} {seq}");
        let body = format!(
            "{{\"mutations\":[{{\"op\":\"add_node\",\"type\":{},\"name\":{}}},\
             {{\"op\":\"add_text_edge\",\"source\":{},\"attr\":{},\"value\":{}}}]}}",
            jstr(type_name),
            jstr(&name),
            jstr(&name),
            jstr(attr_name),
            jstr(&format!("ingestmark {seq}"))
        );
        seq += 1;
        let c = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(addr) {
                Ok(c) => client.insert(c),
                Err(_) => {
                    tally.io_errors += 1;
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            },
        };
        tally.sent += 1;
        match c.post("/admin/ingest", &body) {
            Ok((200, reply)) => {
                tally.ok += 1;
                if let Some(v) = extract_version(&reply) {
                    if v < tally.last_version {
                        tally.version_monotone = false;
                    }
                    tally.last_version = v;
                    tally.acked_version_hwm = tally.acked_version_hwm.max(v);
                }
            }
            // 400/409 replies keep the connection alive (they are
            // client-fixable outcomes, like search 4xxs); anything else
            // closes it server-side.
            Ok((409, _)) => tally.conflicts += 1,
            Ok((400, _)) => tally.errors += 1,
            Ok(_) => {
                tally.errors += 1;
                client = None;
            }
            Err(_) => {
                tally.errors += 1;
                client = None;
            }
        }
    }
    tally
}

/// Pull `"version":N` out of an ingest reply without a JSON parser.
fn extract_version(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"version\":")? + "\"version\":".len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn run_connection(
    addr: &str,
    bodies: &[String],
    zipf: &Zipf,
    seed: u64,
    started: Instant,
    duration: Duration,
    open_interval: Option<Duration>,
) -> Tally {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    let mut client: Option<Client> = None;
    let mut next_send = Instant::now();
    while started.elapsed() < duration {
        if let Some(interval) = open_interval {
            // Open loop: fixed arrival schedule, independent of service
            // times (late arrivals are sent immediately, back to back).
            let now = Instant::now();
            if now < next_send {
                std::thread::sleep(next_send - now);
            }
            next_send += interval;
        }
        let body = &bodies[zipf.sample(&mut rng) % bodies.len()];
        let c = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(addr) {
                Ok(c) => client.insert(c),
                Err(_) => {
                    // No request went on the wire: an io_error but not a
                    // `sent` (keeps shed_rate's denominator honest).
                    tally.io_errors += 1;
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            },
        };
        tally.sent += 1;
        let t0 = Instant::now();
        match c.post_search(body) {
            Ok(status) => {
                match status {
                    200 => {
                        tally.ok += 1;
                        tally.latencies_us.push(t0.elapsed().as_micros() as u64);
                    }
                    429 => tally.shed_429 += 1,
                    503 => tally.shed_503 += 1,
                    s if (400..500).contains(&s) => tally.http_4xx += 1,
                    _ => tally.http_5xx += 1,
                }
                // Sheds answer with connection handling intact; errors
                // close the connection server-side.
                if status != 200 && status != 429 && status != 503 {
                    client = None;
                }
            }
            Err(_) => {
                tally.io_errors += 1;
                client = None;
            }
        }
    }
    tally
}

/// Minimal keep-alive HTTP client for `POST /search`.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    fn post_search(&mut self, body: &str) -> std::io::Result<u16> {
        // The reply body is discarded without the copy `post` pays —
        // this is the measured hot loop.
        self.request("/search", body, false)
            .map(|(status, _)| status)
    }

    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request(path, body, true)
            .map(|(status, reply)| (status, reply.unwrap_or_default()))
    }

    fn request(
        &mut self,
        path: &str,
        body: &str,
        capture_reply: bool,
    ) -> std::io::Result<(u16, Option<String>)> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nhost: loadgen\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        // Read head.
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head_text = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status: u16 = head_text
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let content_length: usize = head_text
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                if k.eq_ignore_ascii_case("content-length") {
                    v.trim().parse().ok()
                } else {
                    None
                }
            })
            .unwrap_or(0);
        let body_start = head_end + 4;
        while self.buf.len() < body_start + content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let reply = capture_reply.then(|| {
            String::from_utf8_lossy(&self.buf[body_start..body_start + content_length]).to_string()
        });
        self.buf.drain(..body_start + content_length);
        Ok((status, reply))
    }
}

#[allow(clippy::too_many_arguments)]
fn render_report(
    mode: &str,
    conns: usize,
    dataset: &str,
    rate: f64,
    elapsed: Duration,
    pool: usize,
    t: &Tally,
    w: &WriteTally,
) -> String {
    let secs = elapsed.as_secs_f64().max(1e-9);
    let shed = t.shed_429 + t.shed_503;
    let mean_ms = if t.latencies_us.is_empty() {
        0.0
    } else {
        t.latencies_us.iter().sum::<u64>() as f64 / t.latencies_us.len() as f64 / 1e3
    };
    let rate_field = if mode == "open" {
        format!("{rate}")
    } else {
        "null".to_string()
    };
    format!(
        "{{\n  \"bench\": \"serve_load\",\n  \"mode\": \"{mode}\",\n  \"dataset\": \"{dataset}\",\n  \
         \"conns\": {conns},\n  \"offered_rate_rps\": {rate_field},\n  \"duration_s\": {secs:.3},\n  \
         \"queries_in_pool\": {pool},\n  \"sent\": {sent},\n  \"ok\": {ok},\n  \"shed_429\": {s429},\n  \
         \"shed_503\": {s503},\n  \"http_4xx\": {e4},\n  \"http_5xx\": {e5},\n  \"io_errors\": {io},\n  \
         \"throughput_rps\": {rps:.2},\n  \"shed_rate\": {shed_rate:.4},\n  \"writes\": {{\n    \
         \"sent\": {wsent},\n    \"ok\": {wok},\n    \"conflicts\": {wconf},\n    \
         \"errors\": {werr},\n    \"io_errors\": {wio},\n    \"last_version\": {wver},\n    \
         \"acked_version_hwm\": {whwm},\n    \
         \"version_monotone\": {wmono}\n  }},\n  \"latency_ms\": {{\n    \
         \"mean\": {mean:.3},\n    \"p50\": {p50:.3},\n    \"p90\": {p90:.3},\n    \"p95\": {p95:.3},\n    \
         \"p99\": {p99:.3},\n    \"max\": {max:.3}\n  }}\n}}",
        wsent = w.sent,
        wok = w.ok,
        wconf = w.conflicts,
        werr = w.errors,
        wio = w.io_errors,
        wver = w.last_version,
        whwm = w.acked_version_hwm,
        wmono = if w.sent == 0 || w.version_monotone {
            "true"
        } else {
            "false"
        },
        sent = t.sent,
        ok = t.ok,
        s429 = t.shed_429,
        s503 = t.shed_503,
        e4 = t.http_4xx,
        e5 = t.http_5xx,
        io = t.io_errors,
        rps = t.ok as f64 / secs,
        shed_rate = if t.sent == 0 {
            0.0
        } else {
            shed as f64 / t.sent as f64
        },
        mean = mean_ms,
        p50 = t.percentile_ms(0.50),
        p90 = t.percentile_ms(0.90),
        p95 = t.percentile_ms(0.95),
        p99 = t.percentile_ms(0.99),
        max = t.percentile_ms(1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_merge() {
        let mut a = Tally {
            sent: 2,
            ok: 2,
            latencies_us: vec![1000, 2000],
            ..Tally::default()
        };
        let b = Tally {
            sent: 2,
            ok: 1,
            shed_429: 1,
            latencies_us: vec![3000],
            ..Tally::default()
        };
        a.merge(&b);
        a.latencies_us.sort_unstable();
        assert_eq!(a.sent, 4);
        assert_eq!(a.ok, 3);
        assert_eq!(a.shed_429, 1);
        assert_eq!(a.percentile_ms(0.5), 2.0);
        assert_eq!(a.percentile_ms(1.0), 3.0);
        assert_eq!(a.errors(), 0);
    }

    #[test]
    fn report_is_valid_jsonish() {
        let t = Tally {
            sent: 10,
            ok: 8,
            shed_429: 2,
            latencies_us: vec![500, 1000, 1500],
            ..Tally::default()
        };
        let w = WriteTally {
            sent: 5,
            ok: 4,
            conflicts: 1,
            last_version: 4,
            acked_version_hwm: 4,
            version_monotone: true,
            ..WriteTally::default()
        };
        let r = render_report(
            "closed",
            4,
            "figure1",
            0.0,
            Duration::from_secs(2),
            30,
            &t,
            &w,
        );
        assert!(r.contains("\"ok\": 8"));
        assert!(r.contains("\"shed_429\": 2"));
        assert!(r.contains("\"shed_rate\": 0.2000"));
        assert!(r.contains("\"p99\": 1.500"));
        assert!(r.contains("\"last_version\": 4"));
        assert!(r.contains("\"acked_version_hwm\": 4"));
        assert!(r.contains("\"version_monotone\": true"));
        // Balanced braces (hand-rolled JSON sanity).
        assert_eq!(
            r.matches('{').count(),
            r.matches('}').count(),
            "unbalanced: {r}"
        );
    }

    #[test]
    fn figure1_pool_is_nonempty_and_parsable() {
        let g = patternkb_datagen::figure1().0;
        let text = TextIndex::build_with(&g, SynonymTable::default_english(), Stemmer::Lite);
        let pool = query_pool(&g, &text, 3, 42);
        assert!(!pool.is_empty());
        for q in &pool {
            assert!(!q.surface.is_empty());
        }
    }

    #[test]
    fn graph_specs() {
        assert!(build_graph("figure1", &[], 42).is_ok());
        assert!(build_graph("venus", &[], 42).is_err());
    }

    #[test]
    fn ingest_spec_picks_dataset_vocabulary() {
        let g = patternkb_datagen::figure1().0;
        let (type_name, attr_name) = ingest_spec(&g).unwrap();
        assert!(!type_name.is_empty(), "TEXT_TYPE must be skipped");
        assert!(g.type_by_text(&type_name).is_some());
        assert!(g.attr_by_text(&attr_name).is_some());
    }

    #[test]
    fn version_extraction_and_escaping() {
        assert_eq!(
            extract_version(r#"{"ok":true,"version":17,"affected_roots":3}"#),
            Some(17)
        );
        assert_eq!(extract_version(r#"{"ok":true}"#), None);
        assert_eq!(jstr(r#"a "b" \c"#), r#""a \"b\" \\c""#);
    }
}
