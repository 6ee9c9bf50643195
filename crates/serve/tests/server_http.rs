//! End-to-end server tests over real TCP sockets: boot [`Server`] on an
//! ephemeral port with the Figure-1 engine and drive it with raw HTTP —
//! happy paths, malformed input, backpressure shedding, hot reload under
//! concurrent load, and graceful shutdown.

use patternkb_search::{EngineBuilder, Error, SearchEngine, SearchRequest, SharedEngine};
use patternkb_serve::{Json, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn figure1_engine() -> SearchEngine {
    let (g, _) = patternkb_datagen::figure1();
    EngineBuilder::new().graph(g).threads(1).build().unwrap()
}

fn shared_engine() -> Arc<SharedEngine> {
    let (g, _) = patternkb_datagen::figure1();
    Arc::new(
        EngineBuilder::new()
            .graph(g)
            .threads(1)
            .build_shared()
            .unwrap(),
    )
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    }
}

/// One-shot HTTP exchange (`Connection: close`); returns (status, head,
/// body).
fn exchange(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8_lossy(&response).to_string();
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let (head, body) = text
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or((text.clone(), String::new()));
    (status, head, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn search(addr: SocketAddr, body: &str) -> (u16, String, String) {
    post(addr, "/search", body)
}

#[test]
fn search_healthz_metrics_happy_path() {
    let server = Server::start(shared_engine(), None, test_config()).unwrap();
    let addr = server.local_addr();

    let (status, _, body) = search(
        addr,
        r#"{"q": "database software company revenue", "k": 5}"#,
    );
    assert_eq!(status, 200, "body: {body}");
    let json = Json::parse(&body).unwrap();
    assert_eq!(json.get("cache").unwrap().as_str(), Some("miss"));
    let patterns = json.get("patterns").unwrap().as_arr().unwrap();
    assert!(!patterns.is_empty());
    let top = &patterns[0];
    assert_eq!(top.get("num_trees").unwrap().as_u64(), Some(2));
    assert!(top.get("columns").is_some() && top.get("rows").is_some());
    let stats = json.get("stats").unwrap();
    assert!(stats.get("shards").unwrap().as_u64().unwrap() >= 1);

    // Same request again: served from the shared result cache.
    let (_, _, body2) = search(
        addr,
        r#"{"q": "database software company revenue", "k": 5}"#,
    );
    let json2 = Json::parse(&body2).unwrap();
    assert_eq!(json2.get("cache").unwrap().as_str(), Some("hit"));

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(health.get("epoch").unwrap().as_u64(), Some(0));

    let (status, head, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain"));
    for family in [
        "patternkb_requests_total{route=\"search\",code=\"200\"} 2",
        "patternkb_search_latency_seconds_bucket",
        "patternkb_search_latency_seconds_count 2",
        "patternkb_queue_depth",
        "patternkb_shed_total{reason=\"queue_full\"} 0",
        "patternkb_shed_total{reason=\"deadline\"} 0",
        "patternkb_cache_hits_total 1",
        "patternkb_cache_misses_total 1",
        "patternkb_cache_table_fills_total 1",
        "patternkb_cache_entries 1",
        "patternkb_engine_epoch 0",
        "patternkb_shard_subtrees_total",
        "patternkb_connections_active",
        "patternkb_storage_backend{backend=\"heap\"} 1",
        "patternkb_storage_backend{backend=\"mmap\"} 0",
    ] {
        assert!(
            metrics.contains(family),
            "missing {family:?} in:\n{metrics}"
        );
    }

    server.trigger_shutdown();
    server.join();
}

/// `/metrics` says what `Auto` picked and how the shard kernels ran —
/// for executed searches only: a cache hit moves neither family.
#[test]
fn metrics_count_executed_searches_by_algorithm_and_fanout() {
    let server = Server::start(shared_engine(), None, test_config()).unwrap();
    let addr = server.local_addr();
    let request = r#"{"q": "database software company revenue", "k": 5}"#;
    for expected in ["miss", "hit"] {
        let (status, _, body) = search(addr, request);
        assert_eq!(status, 200, "body: {body}");
        let json = Json::parse(&body).unwrap();
        assert_eq!(json.get("cache").unwrap().as_str(), Some(expected));
        assert_eq!(json.get("algorithm").unwrap().as_str(), Some("linear_enum"));
    }
    let (_, _, metrics) = get(addr, "/metrics");
    for family in [
        "patternkb_search_algorithm_total{algorithm=\"linear_enum\"} 1",
        "patternkb_search_algorithm_total{algorithm=\"pattern_enum_pruned\"} 0",
        "patternkb_search_algorithm_total{algorithm=\"linear_enum_topk\"} 0",
        "patternkb_search_fanout_total{mode=\"inline\"} 1",
        "patternkb_search_fanout_total{mode=\"threads\"} 0",
    ] {
        assert!(
            metrics.contains(family),
            "missing {family:?} in:\n{metrics}"
        );
    }
    server.trigger_shutdown();
    server.join();
}

/// The parts of a `/search` body that are not per-response: everything
/// but `cache`, `engine_version` and `elapsed_us`.
fn answer_of(body: &str) -> (&str, &str) {
    let head = &body[..body.find(",\"cache\":").expect("cache field")];
    let tail = &body[body.find(",\"stats\":").expect("stats field")..];
    (head, tail)
}

const FIGURE3_QUERY: &str = r#"{"q": "database software company revenue", "k": 10}"#;

/// An ingest keeps the cached answers it cannot have changed: one that
/// splices none of the query's words leaves the repeated search a hit,
/// with the same answer at the new version; one that splices a word
/// invalidates it. `/metrics` counts both.
#[test]
fn an_ingest_keeps_the_cached_answers_whose_words_it_spared() {
    let server = Server::start(shared_engine(), None, test_config()).unwrap();
    let addr = server.local_addr();
    let (_, _, miss) = search(addr, FIGURE3_QUERY);
    let (_, _, hit) = search(addr, FIGURE3_QUERY);
    assert!(
        hit.contains("\"cache\":\"hit\",\"engine_version\":0"),
        "{hit}"
    );

    let model = r#"{"mutations":[{"op":"add_node","type":"Model","name":"Zyzzyva"}]}"#;
    let (status, _, body) = post(addr, "/admin/ingest", model);
    assert_eq!(status, 200, "{body}");
    let (_, _, carried) = search(addr, FIGURE3_QUERY);
    assert!(
        carried.contains("\"cache\":\"hit\",\"engine_version\":1"),
        "{carried}"
    );
    assert_eq!(answer_of(&carried), answer_of(&miss));
    let (_, _, metrics) = get(addr, "/metrics");
    for family in [
        "patternkb_cache_carried_total 1",
        "patternkb_cache_invalidated_total 0",
        "patternkb_cache_stale_total 0",
    ] {
        assert!(
            metrics.contains(family),
            "missing {family:?} in:\n{metrics}"
        );
    }

    let company = r#"{"mutations":[{"op":"add_node","type":"Company","name":"Initech"}]}"#;
    let (status, _, body) = post(addr, "/admin/ingest", company);
    assert_eq!(status, 200, "{body}");
    let (_, _, recomputed) = search(addr, FIGURE3_QUERY);
    assert!(recomputed.contains("\"cache\":\"miss\""), "{recomputed}");
    let (_, _, metrics) = get(addr, "/metrics");
    for family in [
        "patternkb_cache_carried_total 1",
        "patternkb_cache_invalidated_total 1",
        "patternkb_cache_stale_total 1",
    ] {
        assert!(
            metrics.contains(family),
            "missing {family:?} in:\n{metrics}"
        );
    }
    server.trigger_shutdown();
    server.join();
}

/// Booting from a v5 snapshot on the mapped tier flips the
/// `patternkb_storage_backend` gauge and exposes the load time; an ingest
/// leaves the tier mapped and shows up in the patch gauges.
#[test]
fn metrics_report_mmap_backend_and_snapshot_load_time() {
    use patternkb_search::StorageBackend;

    let dir = std::env::temp_dir().join(format!("patternkb_serve_mmap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("figure1.pkb5");
    let engine = figure1_engine();
    patternkb_index::storage::save_v5(engine.index(), &path).unwrap();

    let (g, _) = patternkb_datagen::figure1();
    let shared = Arc::new(
        EngineBuilder::new()
            .graph(g)
            .threads(1)
            .index_snapshot(&path)
            .storage(StorageBackend::Mmap)
            .build_shared()
            .unwrap(),
    );
    let server = Server::start(shared, None, test_config()).unwrap();
    let addr = server.local_addr();

    let (status, _, body) = search(
        addr,
        r#"{"q": "database software company revenue", "k": 5}"#,
    );
    assert_eq!(status, 200, "body: {body}");

    let (_, _, metrics) = get(addr, "/metrics");
    for family in [
        "patternkb_storage_backend{backend=\"mmap\"} 1",
        "patternkb_storage_backend{backend=\"heap\"} 0",
        "patternkb_snapshot_load_seconds",
        "patternkb_index_patched_words 0",
        "patternkb_ingest_words_rebuilt_total 0",
        "patternkb_ingest_graph_chunks_copied_total 0",
    ] {
        assert!(
            metrics.contains(family),
            "missing {family:?} in:\n{metrics}"
        );
    }

    // A write patches the touched word lists over the mapped image: the
    // tier does not change, and the patch-map gauge says how far the
    // serving index has drifted from it.
    let (status, _, body) = post(
        addr,
        "/admin/ingest",
        r#"{"mutations":[
            {"op":"add_node","type":"Company","name":"Initech"},
            {"op":"add_text_edge","source":"Initech","attr":"Revenue","value":"US$ 1 million"}
        ]}"#,
    );
    assert_eq!(status, 200, "body: {body}");
    let reply = Json::parse(&body).unwrap();
    let stat = |name: &str| {
        reply
            .get("stats")
            .and_then(|s| s.get(name))
            .and_then(|n| n.as_u64())
            .unwrap_or_else(|| panic!("ingest reply reports {name}"))
    };
    let rebuilt = stat("words_rebuilt");
    assert!(rebuilt > 0);
    // Figure 1 fits one graph chunk, and the new nodes land in it.
    assert_eq!(stat("graph_chunks_copied"), 1);
    let (status, _, body) = search(addr, r#"{"q": "initech revenue", "k": 5}"#);
    assert_eq!(status, 200, "body: {body}");
    let (_, _, metrics) = get(addr, "/metrics");
    for family in [
        "patternkb_storage_backend{backend=\"mmap\"} 1".to_string(),
        "patternkb_storage_backend{backend=\"heap\"} 0".to_string(),
        format!("patternkb_index_patched_words {rebuilt}"),
        format!("patternkb_ingest_words_rebuilt_total {rebuilt}"),
        "patternkb_ingest_graph_chunks_copied_total 1".to_string(),
    ] {
        assert!(
            metrics.contains(&family),
            "missing {family:?} in:\n{metrics}"
        );
    }

    server.trigger_shutdown();
    server.join();
    std::fs::remove_file(&path).ok();
}

/// A heap-tier snapshot boot opens the image and decodes words as
/// searches touch them: `patternkb_index_resident_bytes` is smaller right
/// after boot than after one `/search`.
#[test]
fn resident_bytes_grow_as_a_heap_snapshot_boot_serves() {
    let dir = std::env::temp_dir().join(format!("patternkb_serve_resident_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("figure1.pkb5");
    patternkb_index::storage::save_v5(figure1_engine().index(), &path).unwrap();
    let (g, _) = patternkb_datagen::figure1();
    let shared = EngineBuilder::new()
        .graph(g)
        .threads(1)
        .index_snapshot(&path)
        .build_shared()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let server = Server::start(Arc::new(shared), None, test_config()).unwrap();
    let addr = server.local_addr();
    let resident = || {
        let (_, _, metrics) = get(addr, "/metrics");
        assert!(
            metrics.contains("patternkb_storage_backend{backend=\"heap\"} 1"),
            "{metrics}"
        );
        metrics
            .lines()
            .find_map(|l| l.strip_prefix("patternkb_index_resident_bytes "))
            .unwrap_or_else(|| panic!("no resident-bytes gauge in:\n{metrics}"))
            .parse::<u64>()
            .unwrap()
    };

    let booted = resident();
    let (status, _, body) = search(addr, FIGURE3_QUERY);
    assert_eq!(status, 200, "body: {body}");
    let served = resident();
    assert!(booted < served, "resident bytes {booted} -> {served}");
    server.trigger_shutdown();
    server.join();
}

#[test]
fn query_errors_are_4xx_json() {
    let server = Server::start(shared_engine(), None, test_config()).unwrap();
    let addr = server.local_addr();

    // Unknown keywords: 400 listing the words.
    let (status, _, body) = search(addr, r#"{"q": "qqqqzzzz"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("unknown_words") && body.contains("qqqqzzzz"));

    // Empty query: 400.
    let (status, _, body) = search(addr, r#"{"q": ""}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("empty_query"));

    // Strict schema: typo'd field named in the error.
    let (status, _, body) = search(addr, r#"{"q": "a", "kk": 3}"#);
    assert_eq!(status, 400);
    assert!(body.contains("unknown_field") && body.contains("kk"));

    server.trigger_shutdown();
    server.join();
}

#[test]
fn malformed_http_and_oversized_bodies_do_not_kill_the_server() {
    let cfg = ServeConfig {
        max_body_bytes: 64,
        ..test_config()
    };
    let server = Server::start(shared_engine(), None, cfg).unwrap();
    let addr = server.local_addr();

    // Garbage request line → 400.
    let (status, _, _) = exchange(addr, "complete nonsense\r\n\r\n");
    assert_eq!(status, 400);

    // Bad JSON body → 400.
    let (status, _, body) = search(addr, "{not json");
    assert_eq!(status, 400);
    assert!(body.contains("bad_json"));

    // Oversized body → 413 before buffering it.
    let big = format!(r#"{{"q": "{}"}}"#, "x".repeat(500));
    let (status, _, _) = search(addr, &big);
    assert_eq!(status, 413);

    // Chunked transfer → 411.
    let (status, _, _) = exchange(
        addr,
        "POST /search HTTP/1.1\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 411);

    // Unknown path → 404; wrong method → 405.
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(post(addr, "/healthz", "").0, 405);

    // After all that abuse the server still answers normally.
    let (status, _, _) = search(addr, r#"{"q": "company revenue"}"#);
    assert_eq!(status, 200);

    server.trigger_shutdown();
    server.join();
}

#[test]
fn full_queue_sheds_429_with_retry_after() {
    // Capacity 0: every admission sheds — the deterministic overload.
    let cfg = ServeConfig {
        queue_capacity: 0,
        ..test_config()
    };
    let server = Server::start(shared_engine(), None, cfg).unwrap();
    let addr = server.local_addr();

    let (status, head, body) = search(addr, r#"{"q": "company revenue"}"#);
    assert_eq!(status, 429);
    assert!(head.to_lowercase().contains("retry-after: 1"));
    assert!(body.contains("overloaded"));
    assert_eq!(
        server
            .metrics()
            .shed_queue_full
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    let (_, _, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("patternkb_shed_total{reason=\"queue_full\"} 1"));

    server.trigger_shutdown();
    server.join();
}

#[test]
fn expired_deadline_sheds_503_without_searching() {
    let cfg = ServeConfig {
        deadline: Duration::ZERO,
        ..test_config()
    };
    let server = Server::start(shared_engine(), None, cfg).unwrap();
    let addr = server.local_addr();

    let (status, _, body) = search(addr, r#"{"q": "company revenue"}"#);
    assert_eq!(status, 503);
    assert!(body.contains("deadline"));
    assert_eq!(
        server
            .metrics()
            .shed_deadline
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // The search never ran: no latency observations.
    assert_eq!(server.metrics().latency.count(), 0);

    server.trigger_shutdown();
    server.join();
}

#[test]
fn reload_swaps_epochs_under_concurrent_load() {
    let reload: Box<patternkb_serve::ReloadFn> = Box::new(|| Ok(figure1_engine()));
    let server = Server::start(shared_engine(), Some(reload), test_config()).unwrap();
    let addr = server.local_addr();

    let errors = std::sync::atomic::AtomicUsize::new(0);
    let stop_flag = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop_flag;
        let errors = &errors;
        let mut clients = Vec::new();
        for _ in 0..3 {
            clients.push(scope.spawn(move || {
                let mut counts = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (status, _, body) = search(
                        addr,
                        r#"{"q": "database software company revenue", "k": 9}"#,
                    );
                    if status != 200 {
                        errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        continue;
                    }
                    let json = Json::parse(&body).unwrap();
                    // Exactly one epoch answered: the response is
                    // internally consistent (all fields from one state).
                    let n = json.get("patterns").unwrap().as_arr().unwrap().len();
                    let v = json.get("engine_version").unwrap().as_u64().unwrap();
                    counts.push((n, v));
                }
                counts
            }));
        }
        // Three hot swaps while the clients hammer.
        for i in 0..3 {
            let (status, _, body) = post(addr, "/admin/reload", "");
            assert_eq!(status, 200, "reload {i}: {body}");
            let json = Json::parse(&body).unwrap();
            assert_eq!(json.get("epoch").unwrap().as_u64(), Some(i + 1));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for c in clients {
            let counts = c.join().unwrap();
            // Both datasets are Figure-1: answers must be identical across
            // epochs (same patterns), while versions step on each swap.
            assert!(counts.iter().all(|&(n, _)| n == counts[0].0));
        }
    });
    assert_eq!(errors.load(std::sync::atomic::Ordering::Relaxed), 0);

    let (_, _, body) = get(addr, "/healthz");
    assert_eq!(
        Json::parse(&body).unwrap().get("epoch").unwrap().as_u64(),
        Some(3)
    );
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("patternkb_reloads_total 3"));

    server.trigger_shutdown();
    server.join();
}

#[test]
fn reload_without_source_is_501() {
    let server = Server::start(shared_engine(), None, test_config()).unwrap();
    let (status, _, body) = post(server.local_addr(), "/admin/reload", "");
    assert_eq!(status, 501);
    assert!(body.contains("not_implemented"));
    server.trigger_shutdown();
    server.join();
}

#[test]
fn admin_shutdown_drains_gracefully() {
    let engine = shared_engine();
    let server = Server::start(Arc::clone(&engine), None, test_config()).unwrap();
    let addr = server.local_addr();

    // Serve something first.
    assert_eq!(search(addr, r#"{"q": "company revenue"}"#).0, 200);

    // The shutdown ack arrives before the server stops.
    let (status, _, body) = post(addr, "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("draining"));

    // join() returns: workers drained and joined, engine closed.
    server.join();
    assert!(engine.is_closed());
    assert!(matches!(
        engine.respond(&SearchRequest::text("company revenue")),
        Err(Error::Closed)
    ));

    // The listener is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err());
}

#[test]
fn ingest_applies_online_while_reads_flow() {
    let server = Server::start(shared_engine(), None, test_config()).unwrap();
    let addr = server.local_addr();

    // Readers hammer a query whose answer the ingest will change; every
    // response must come from exactly one consistent snapshot.
    let errors = std::sync::atomic::AtomicUsize::new(0);
    let stop_flag = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop_flag;
        let errors = &errors;
        for _ in 0..2 {
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (status, _, body) = search(
                        addr,
                        r#"{"q": "database software company revenue", "k": 9}"#,
                    );
                    if status != 200 {
                        errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        continue;
                    }
                    let json = Json::parse(&body).unwrap();
                    let top = &json.get("patterns").unwrap().as_arr().unwrap()[0];
                    let rows = top.get("num_trees").unwrap().as_u64().unwrap();
                    // 2 rows before the ingest lands, 3 after — never
                    // anything else (no torn state).
                    assert!(rows == 2 || rows == 3, "inconsistent row count {rows}");
                }
            });
        }

        // The DB2/IBM ingest from the paper's running example, by name.
        let (status, _, body) = post(
            addr,
            "/admin/ingest",
            r#"{"mutations":[
                {"op":"add_node","type":"Software","name":"DB2"},
                {"op":"add_node","type":"Company","name":"IBM"},
                {"op":"add_edge","source":"DB2","attr":"Developer","target":"IBM"},
                {"op":"add_edge","source":"DB2","attr":"Genre","target":"Relational database"},
                {"op":"add_text_edge","source":"IBM","attr":"Revenue","value":"US$ 57 billion"}
            ],"pagerank":"recompute"}"#,
        );
        assert_eq!(status, 200, "{body}");
        let json = Json::parse(&body).unwrap();
        assert_eq!(json.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(json.get("version").unwrap().as_u64(), Some(1));
        assert!(json.get("affected_roots").unwrap().as_u64().unwrap() > 0);
        let stats = json.get("stats").unwrap();
        assert!(stats.get("postings_added").unwrap().as_u64().unwrap() > 0);

        // The new facts are queryable immediately after the 200.
        let (status, _, body) = search(
            addr,
            r#"{"q": "database software company revenue", "k": 9}"#,
        );
        assert_eq!(status, 200);
        let json = Json::parse(&body).unwrap();
        let top = &json.get("patterns").unwrap().as_arr().unwrap()[0];
        assert_eq!(top.get("num_trees").unwrap().as_u64(), Some(3));
        assert_eq!(json.get("engine_version").unwrap().as_u64(), Some(1));

        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(errors.load(std::sync::atomic::Ordering::Relaxed), 0);

    let (_, _, metrics) = get(addr, "/metrics");
    for family in [
        "patternkb_ingests_total 1",
        "patternkb_ingest_failures_total 0",
        "patternkb_ingest_refresh_seconds_count 1",
        "patternkb_engine_version 1",
    ] {
        assert!(
            metrics.contains(family),
            "missing {family:?} in:\n{metrics}"
        );
    }

    server.trigger_shutdown();
    server.join();
}

#[test]
fn racing_ingests_both_succeed_serialized() {
    let server = Server::start(shared_engine(), None, test_config()).unwrap();
    let addr = server.local_addr();

    // Two connection threads fire ingest batches concurrently with no
    // retry logic: the writer lock serializes them, so both must land
    // (never a BaseMismatch rejection).
    std::thread::scope(|scope| {
        for t in 0..2 {
            scope.spawn(move || {
                for i in 0..3 {
                    let body = format!(
                        r#"{{"mutations":[
                            {{"op":"add_node","type":"Company","name":"racer {t} entity {i}"}},
                            {{"op":"add_text_edge","source":"racer {t} entity {i}","attr":"Revenue","value":"US$ {t}{i} million"}}
                        ]}}"#
                    );
                    let (status, _, reply) = post(addr, "/admin/ingest", &body);
                    assert_eq!(status, 200, "racer {t} batch {i}: {reply}");
                }
            });
        }
    });
    assert_eq!(server.engine().version(), 6);

    // All six entities are queryable.
    let (status, _, body) = search(addr, r#"{"q": "racer entity", "k": 100}"#);
    assert_eq!(status, 200, "{body}");
    let json = Json::parse(&body).unwrap();
    let top = &json.get("patterns").unwrap().as_arr().unwrap()[0];
    assert_eq!(top.get("num_trees").unwrap().as_u64(), Some(6));

    server.trigger_shutdown();
    server.join();
}

#[test]
fn ingest_errors_are_typed_400_409_501() {
    let server = Server::start(shared_engine(), None, test_config()).unwrap();
    let addr = server.local_addr();

    // Unknown field: 400 naming it.
    let (status, _, body) = post(addr, "/admin/ingest", r#"{"mutation":[]}"#);
    assert_eq!(status, 400);
    assert!(body.contains("unknown_field") && body.contains("mutation"));

    // Unresolvable name: 400 naming the mutation.
    let (status, _, body) = post(
        addr,
        "/admin/ingest",
        r#"{"mutations":[{"op":"add_text_edge","source":"Hooli","attr":"Revenue","value":"x"}]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unresolved_node") && body.contains("Hooli"));

    // Removing a non-existent edge: validation conflict → 409.
    let (status, _, body) = post(
        addr,
        "/admin/ingest",
        r#"{"mutations":[{"op":"remove_edge","source":"Microsoft","attr":"Developer","target":"SQL Server"}]}"#,
    );
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("conflict"));

    // Nothing landed.
    assert_eq!(server.engine().version(), 0);
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("patternkb_ingests_total 0"));
    assert!(metrics.contains("patternkb_ingest_failures_total 3"));
    server.trigger_shutdown();
    server.join();

    // A server booted without the write path answers 501.
    let cfg = ServeConfig {
        enable_ingest: false,
        ..test_config()
    };
    let server = Server::start(shared_engine(), None, cfg).unwrap();
    let (status, _, body) = post(server.local_addr(), "/admin/ingest", r#"{"mutations":[]}"#);
    assert_eq!(status, 501, "{body}");
    server.trigger_shutdown();
    server.join();
}

#[test]
fn closed_engine_maps_to_503_for_queries_and_ingests() {
    // An embedder can close the shared engine while the HTTP front-end is
    // still up (e.g. a shutdown race): both routes must answer with the
    // typed 503, not a fall-through 500.
    let engine = shared_engine();
    let server = Server::start(Arc::clone(&engine), None, test_config()).unwrap();
    let addr = server.local_addr();
    engine.close();

    let (status, _, body) = search(addr, r#"{"q": "company revenue"}"#);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"closed\""), "{body}");

    let (status, _, body) = post(
        addr,
        "/admin/ingest",
        r#"{"mutations":[{"op":"add_node","type":"Company","name":"latecomer"}]}"#,
    );
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"closed\""), "{body}");

    server.trigger_shutdown();
    server.join();
}

#[test]
fn retry_after_is_a_single_derived_value() {
    // All shedding sites emit the same derived header; with an idle
    // queue the estimate is the 1s floor.
    let cfg = ServeConfig {
        queue_capacity: 0,
        ..test_config()
    };
    let server = Server::start(shared_engine(), None, cfg).unwrap();
    let addr = server.local_addr();
    let (status, head, _) = search(addr, r#"{"q": "company revenue"}"#);
    assert_eq!(status, 429);
    let retry: u64 = head
        .to_lowercase()
        .lines()
        .find_map(|l| l.strip_prefix("retry-after: ").map(str::to_string))
        .expect("retry-after header present")
        .trim()
        .parse()
        .expect("integer seconds");
    assert!((1..=30).contains(&retry));
    server.trigger_shutdown();
    server.join();
}

#[test]
fn per_request_timeout_is_clamped_and_applied() {
    // A generous server deadline, but the request asks for 1ms and the
    // queue is pre-expired by the zero-capacity... instead: use a normal
    // queue and rely on the clamp path being exercised by a healthy
    // request (the timeout only tightens; the request still succeeds).
    let server = Server::start(shared_engine(), None, test_config()).unwrap();
    let addr = server.local_addr();
    let (status, _, _) = search(addr, r#"{"q": "company revenue", "timeout_ms": 30000}"#);
    assert_eq!(status, 200);
    let (status, _, body) = search(addr, r#"{"q": "company revenue", "timeout_ms": 0}"#);
    assert_eq!(status, 400, "{body}");
    server.trigger_shutdown();
    server.join();
}

/// Fresh scratch directory for a durable-server test; removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("patternkb_serve_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_engine(dir: &std::path::Path) -> Arc<SharedEngine> {
    let (g, _) = patternkb_datagen::figure1();
    Arc::new(
        EngineBuilder::new()
            .graph(g)
            .threads(1)
            .data_dir(dir)
            .build_shared()
            .unwrap(),
    )
}

const DB2_BATCH: &str = r#"{"mutations":[
    {"op":"add_node","type":"Software","name":"DB2"},
    {"op":"add_node","type":"Company","name":"IBM"},
    {"op":"add_edge","source":"DB2","attr":"Developer","target":"IBM"},
    {"op":"add_edge","source":"DB2","attr":"Genre","target":"Relational database"},
    {"op":"add_text_edge","source":"IBM","attr":"Revenue","value":"US$ 57 billion"}
],"pagerank":"recompute"}"#;

#[test]
fn durable_server_acks_survive_reboot() {
    let scratch = ScratchDir::new("reboot");
    let server = Server::start(durable_engine(&scratch.0), None, test_config()).unwrap();
    let addr = server.local_addr();

    let (status, _, body) = post(addr, "/admin/ingest", DB2_BATCH);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        Json::parse(&body).unwrap().get("version").unwrap().as_u64(),
        Some(1)
    );

    // The WAL families show up on /metrics once a durable write landed.
    let (_, _, metrics) = get(addr, "/metrics");
    for family in [
        "patternkb_wal_appended_total 1",
        "patternkb_wal_records 1",
        "patternkb_wal_fsync_seconds_count",
        "patternkb_checkpoints_total 0",
    ] {
        assert!(
            metrics.contains(family),
            "missing {family:?} in:\n{metrics}"
        );
    }

    // Reload would fork the log's history: refused while durable.
    let (status, _, body) = post(addr, "/admin/reload", "");
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("conflict"), "{body}");

    // Capture the answer the live server gives, to compare after reboot.
    let (status, _, before) = search(
        addr,
        r#"{"q": "database software company revenue", "k": 9}"#,
    );
    assert_eq!(status, 200, "{before}");

    server.trigger_shutdown();
    server.join();

    // Reboot from the same directory: the acked version and its facts
    // come back from checkpoint + log replay, not from the dataset spec.
    let server = Server::start(durable_engine(&scratch.0), None, test_config()).unwrap();
    let addr = server.local_addr();
    assert_eq!(server.engine().version(), 1);
    let (status, _, body) = search(
        addr,
        r#"{"q": "database software company revenue", "k": 9}"#,
    );
    assert_eq!(status, 200, "{body}");
    let json = Json::parse(&body).unwrap();
    let top = &json.get("patterns").unwrap().as_arr().unwrap()[0];
    assert_eq!(top.get("num_trees").unwrap().as_u64(), Some(3));
    // The replayed engine answers exactly what the live one did (modulo
    // the per-response cache marker and wall-clock timing).
    let strip = |s: &str| -> String {
        let s = s
            .replace("\"cache\":\"miss\"", "")
            .replace("\"cache\":\"hit\"", "");
        match s.split_once("\"elapsed_us\":") {
            Some((head, tail)) => {
                let rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
                format!("{head}{rest}")
            }
            None => s,
        }
    };
    assert_eq!(strip(&body), strip(&before));
    server.trigger_shutdown();
    server.join();
}

#[test]
fn admin_checkpoint_truncates_log_and_counts() {
    let scratch = ScratchDir::new("checkpoint");
    let server = Server::start(durable_engine(&scratch.0), None, test_config()).unwrap();
    let addr = server.local_addr();

    let (status, _, body) = post(addr, "/admin/ingest", DB2_BATCH);
    assert_eq!(status, 200, "{body}");

    let (status, _, body) = post(addr, "/admin/checkpoint", "");
    assert_eq!(status, 200, "{body}");
    let json = Json::parse(&body).unwrap();
    assert_eq!(json.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(json.get("version").unwrap().as_u64(), Some(1));
    let path = json.get("path").unwrap().as_str().unwrap().to_string();
    assert!(std::path::Path::new(&path).exists(), "{path}");

    // The log was rotated behind the checkpoint and the age gauge ticks.
    let (_, _, metrics) = get(addr, "/metrics");
    for family in [
        "patternkb_checkpoints_total 1",
        "patternkb_checkpoint_failures_total 0",
        "patternkb_wal_records 0",
        "patternkb_checkpoint_age_seconds",
    ] {
        assert!(
            metrics.contains(family),
            "missing {family:?} in:\n{metrics}"
        );
    }

    server.trigger_shutdown();
    server.join();

    // Reboot answers from the checkpoint alone (empty tail).
    let server = Server::start(durable_engine(&scratch.0), None, test_config()).unwrap();
    assert_eq!(server.engine().version(), 1);
    server.trigger_shutdown();
    server.join();
}

#[test]
fn a_durable_boot_reports_its_load_time_on_both_tiers() {
    use patternkb_search::StorageBackend;

    let scratch = ScratchDir::new("boot_load");
    {
        let shared = durable_engine(&scratch.0);
        let durability = shared.durability().expect("durable boot");
        durability.checkpoint_now(&shared.snapshot()).unwrap();
    }
    for storage in [StorageBackend::Heap, StorageBackend::Mmap] {
        let (g, _) = patternkb_datagen::figure1();
        let shared = EngineBuilder::new()
            .graph(g)
            .threads(1)
            .data_dir(&scratch.0)
            .storage(storage)
            .build_shared()
            .unwrap();
        let server = Server::start(Arc::new(shared), None, test_config()).unwrap();
        let (_, _, metrics) = get(server.local_addr(), "/metrics");
        // The gauge times the boot from the checkpoint file on: read, CRC
        // and decode (or open).
        let seconds: f64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix("patternkb_snapshot_load_seconds "))
            .unwrap_or_else(|| panic!("{storage}: no load time in:\n{metrics}"))
            .parse()
            .unwrap();
        assert!(seconds > 0.0, "{storage}: load time {seconds}");
        server.trigger_shutdown();
        server.join();
    }
}

#[test]
fn checkpoint_without_data_dir_is_501() {
    let server = Server::start(shared_engine(), None, test_config()).unwrap();
    let (status, _, body) = post(server.local_addr(), "/admin/checkpoint", "");
    assert_eq!(status, 501, "{body}");
    assert!(body.contains("not_implemented"), "{body}");
    server.trigger_shutdown();
    server.join();
}

#[test]
fn wal_failure_maps_to_distinct_503_and_is_never_visible() {
    let scratch = ScratchDir::new("poison");
    let server = Server::start(durable_engine(&scratch.0), None, test_config()).unwrap();
    let addr = server.local_addr();

    // Simulate the disk dying under the log: every later append must be
    // refused, and a refused write must never become visible to reads.
    let durability = server.engine().durability().expect("durable boot").clone();
    durability.wal().poison("injected: disk gone");

    let (status, _, body) = post(addr, "/admin/ingest", DB2_BATCH);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"durability\""), "{body}");
    assert!(body.contains("injected: disk gone"), "{body}");

    // Not applied: version unmoved, the fact is not queryable.
    assert_eq!(server.engine().version(), 0);
    let (status, _, body) = search(
        addr,
        r#"{"q": "database software company revenue", "k": 9}"#,
    );
    assert_eq!(status, 200, "{body}");
    let json = Json::parse(&body).unwrap();
    let top = &json.get("patterns").unwrap().as_arr().unwrap()[0];
    assert_eq!(top.get("num_trees").unwrap().as_u64(), Some(2));

    // The failure is visible on /metrics as an ingest failure.
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("patternkb_ingest_failures_total 1"),
        "{metrics}"
    );

    server.trigger_shutdown();
    server.join();
}

#[test]
fn a_write_that_was_never_durable_carries_no_cache_entry() {
    let scratch = ScratchDir::new("uncarried");
    let server = Server::start(durable_engine(&scratch.0), None, test_config()).unwrap();
    let addr = server.local_addr();
    search(addr, FIGURE3_QUERY);
    let durability = server.engine().durability().expect("durable boot").clone();
    durability.wal().poison("injected: disk gone");

    // The batch spares every word of the cached query, but it is refused.
    let model = r#"{"mutations":[{"op":"add_node","type":"Model","name":"Zyzzyva"}]}"#;
    let (status, _, body) = post(addr, "/admin/ingest", model);
    assert_eq!(status, 503, "{body}");
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("patternkb_cache_carried_total 0"),
        "{metrics}"
    );
    let (_, _, body) = search(addr, FIGURE3_QUERY);
    assert!(
        body.contains("\"cache\":\"hit\",\"engine_version\":0"),
        "{body}"
    );

    server.trigger_shutdown();
    server.join();
}
