//! Interactive keyword-search shell — and HTTP server — over a knowledge
//! base.
//!
//! ```text
//! patternkb-cli figure1                 # the paper's running example
//! patternkb-cli wiki  [--entities N]    # synthetic Wiki-like KB
//! patternkb-cli imdb  [--movies N]      # synthetic IMDB-like KB
//! patternkb-cli load  <graph.pkbg>      # a saved graph snapshot
//!   options: --d <2..5>  --seed <u64>  --shards <n>  (0 = one per core)
//!
//! patternkb-cli serve <dataset…>        # HTTP server instead of a REPL
//!   options: --addr <ip:port>  --workers <n>  --queue <slots>
//!            --deadline-ms <ms>  --max-body-bytes <n>
//!            --no-ingest (disable the online write path)
//!            --index-snapshot <file> (boot from a saved index snapshot)
//!            --storage heap|mmap (map the snapshot instead of reading
//!            it into memory; either way each word decodes on first
//!            touch — see README "Storage backends")
//!   endpoints: POST /search, GET /healthz, GET /metrics,
//!              POST /admin/ingest (online mutation batch applied via
//!              incremental index refresh — see README "Writes"),
//!              POST /admin/reload (rebuilds the same dataset — or, with
//!              --index-snapshot, re-opens the snapshot file: swap the
//!              file, reload, and the server remaps it — and hot-swaps
//!              it), POST /admin/shutdown (graceful exit 0)
//!
//! patternkb-cli snapshot <dataset…> --out <file>
//!   build a dataset's indexes once and write them as a snapshot file —
//!   the `PKB5` offset-table container that `--storage heap` reads into
//!   memory and `--storage mmap` maps; both boot without decoding it.
//! ```
//!
//! Then type keyword queries; commands start with `:`
//!
//! ```text
//! :k 10            answers per query
//! :algo pe|pruned|le|topk|baseline|auto
//! :rho 0.1         sampling rate for topk
//! :lambda 1000     sampling threshold for topk
//! :rows 5          table rows shown
//! :mmr 0.7         diversify answers (MMR λ; `:mmr off` disables)
//! :explain 1       show the subtrees behind answer #1 of the last query
//! :stats           dataset and index statistics
//! :quit
//! ```
//!
//! Every query is one [`SearchRequest`] answered by
//! [`SearchEngine::respond`]; parse failures come back as typed errors
//! with "did you mean" suggestions.

use patternkb::graph::{snapshot, GraphStats, KnowledgeGraph};
use patternkb::prelude::*;
use patternkb::search::explain;
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        serve_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("snapshot") {
        snapshot_main(&args[1..]);
    }
    let (graph, label) =
        match check_flags(&args, &[DATASET_FLAGS]).and_then(|()| build_graph(&args)) {
            Ok(pair) => pair,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!("{}", usage("", &[DATASET_FLAGS]));
                std::process::exit(2);
            }
        };
    let d = flag_value(&args, "--d").unwrap_or(3);
    let shards = flag_value(&args, "--shards").unwrap_or(0);
    eprintln!("[{label}] {}", GraphStats::of(&graph));
    eprintln!("building indexes (d = {d}) …");
    let t0 = std::time::Instant::now();
    let engine = match EngineBuilder::new()
        .graph(graph)
        .synonyms(SynonymTable::default_english())
        .height(d)
        .shards(shards)
        .build()
    {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("cannot build engine: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "indexes ready in {:.2}s: {:?}",
        t0.elapsed().as_secs_f64(),
        engine.index()
    );
    repl(&engine);
}

/// Parse the `--storage heap|mmap` flag (default heap), loudly rejecting
/// unknown tiers instead of silently falling back.
fn parse_storage(spec: &[String]) -> Result<patternkb::search::StorageBackend, String> {
    match spec
        .iter()
        .position(|a| a == "--storage")
        .and_then(|i| spec.get(i + 1))
    {
        None => Ok(patternkb::search::StorageBackend::Heap),
        Some(raw) => raw
            .parse()
            .map_err(|e| format!("invalid --storage {raw:?}: {e}")),
    }
}

/// Build the serving engine for a dataset spec (shared by boot and the
/// `/admin/reload` hot-swap path). Without `--index-snapshot` a reload is
/// a true rebuild; with it, a reload re-opens the snapshot file — so
/// swapping the file on disk and POSTing /admin/reload is a full index
/// swap (an open with no decode: a re-read, or under `--storage mmap` a
/// remap).
fn build_serve_engine(spec: &[String]) -> Result<SearchEngine, String> {
    let (graph, _) = build_graph(spec)?;
    let d = flag_value(spec, "--d").unwrap_or(3);
    let shards = flag_value(spec, "--shards").unwrap_or(0);
    let mut builder = EngineBuilder::new()
        .graph(graph)
        .synonyms(SynonymTable::default_english())
        .height(d)
        .shards(shards)
        .storage(parse_storage(spec)?);
    if let Some(path) = flag_value::<String>(spec, "--index-snapshot") {
        builder = builder.index_snapshot(path);
    }
    builder
        .build()
        .map_err(|e| format!("cannot build engine: {e}"))
}

/// Build the durable serving handle for `--data-dir` boots: newest
/// checkpoint plus write-ahead-log tail when the directory has state,
/// the dataset spec only on first boot (and as the text/synonym source).
fn build_serve_shared(spec: &[String], dir: &str) -> Result<SharedEngine, String> {
    let (graph, _) = build_graph(spec)?;
    let d = flag_value(spec, "--d").unwrap_or(3);
    let shards = flag_value(spec, "--shards").unwrap_or(0);
    let mut builder = EngineBuilder::new()
        .graph(graph)
        .synonyms(SynonymTable::default_english())
        .height(d)
        .shards(shards)
        .storage(parse_storage(spec)?)
        .data_dir(dir);
    if let Some(bytes) = flag_value(spec, "--checkpoint-bytes") {
        builder = builder.checkpoint_bytes(bytes);
    }
    if let Some(records) = flag_value(spec, "--checkpoint-records") {
        builder = builder.checkpoint_records(records);
    }
    builder
        .build_shared()
        .map_err(|e| format!("cannot build engine: {e}"))
}

/// The `snapshot` subcommand body: build a dataset's indexes once and
/// write them to `--out` as a `PKB5` image — what
/// `serve --index-snapshot` boots from instantly, on either tier.
fn run_snapshot(args: &[String]) -> Result<String, String> {
    check_flags(args, SNAPSHOT_ARGS)?;
    let (graph, label) = build_graph(args)?;
    let out: String = flag_value(args, "--out").ok_or("snapshot needs --out <file>")?;
    let d = flag_value(args, "--d").unwrap_or(3);
    let shards = flag_value(args, "--shards").unwrap_or(0);
    let engine = EngineBuilder::new()
        .graph(graph)
        .synonyms(SynonymTable::default_english())
        .height(d)
        .shards(shards)
        .build()
        .map_err(|e| format!("cannot build engine: {e}"))?;
    engine
        .save_index(std::path::Path::new(&out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "wrote v5 snapshot of {label} to {out}: {:?}",
        engine.index()
    ))
}

/// The `snapshot` subcommand: write a dataset's index snapshot and exit.
fn snapshot_main(args: &[String]) -> ! {
    match run_snapshot(args) {
        Ok(msg) => {
            println!("{msg}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{}", usage("snapshot ", SNAPSHOT_ARGS));
            std::process::exit(2);
        }
    }
}

/// Translate `serve` flags into a [`patternkb::serve::ServeConfig`].
fn serve_config(args: &[String]) -> patternkb::serve::ServeConfig {
    let defaults = patternkb::serve::ServeConfig::default();
    patternkb::serve::ServeConfig {
        addr: flag_value(args, "--addr").unwrap_or_else(|| defaults.addr.clone()),
        workers: flag_value(args, "--workers").unwrap_or(defaults.workers),
        queue_capacity: flag_value(args, "--queue").unwrap_or(defaults.queue_capacity),
        deadline: std::time::Duration::from_millis(
            flag_value(args, "--deadline-ms").unwrap_or(defaults.deadline.as_millis() as u64),
        ),
        max_body_bytes: flag_value(args, "--max-body-bytes").unwrap_or(defaults.max_body_bytes),
        enable_ingest: !args.iter().any(|a| a == "--no-ingest"),
        ..defaults
    }
}

/// The `serve` subcommand: boot the HTTP server over the dataset and run
/// until `POST /admin/shutdown` drains it (then exit 0).
fn serve_main(args: &[String]) -> ! {
    let spec: Vec<String> = args.to_vec();
    let usage = usage("serve ", SERVE_ARGS);
    if let Err(msg) = check_flags(&spec, SERVE_ARGS) {
        eprintln!("{msg}");
        eprintln!("{usage}");
        std::process::exit(2);
    }
    eprintln!(
        "building engine for {:?} …",
        spec.first().map(String::as_str).unwrap_or("figure1")
    );
    let t0 = std::time::Instant::now();
    let data_dir: Option<String> = flag_value(&spec, "--data-dir");
    let shared = match &data_dir {
        Some(dir) => match build_serve_shared(&spec, dir) {
            Ok(shared) => shared,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        },
        None => match build_serve_engine(&spec) {
            Ok(engine) => SharedEngine::new(engine),
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        },
    };
    let cfg = serve_config(&spec);
    let boot = shared.snapshot();
    eprintln!(
        "engine ready in {:.2}s ({} shard(s), version {}, storage {}{}){}{}",
        t0.elapsed().as_secs_f64(),
        boot.num_shards(),
        shared.version(),
        boot.storage_backend(),
        match boot.snapshot_load_time() {
            Some(took) => format!(", snapshot loaded in {:.3}s", took.as_secs_f64()),
            None => String::new(),
        },
        match &data_dir {
            Some(dir) => format!("; durable in {dir} (reload via restart)"),
            None => "; hot-swappable via POST /admin/reload".to_string(),
        },
        if cfg.enable_ingest {
            ", writable via POST /admin/ingest"
        } else {
            "; ingest disabled (--no-ingest)"
        }
    );
    let shared = std::sync::Arc::new(shared);
    let reload_spec = spec.clone();
    let reload: Box<patternkb::serve::ReloadFn> =
        Box::new(move || build_serve_engine(&reload_spec));
    let server = match patternkb::serve::Server::start(shared, Some(reload), cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            std::process::exit(2);
        }
    };
    // The machine-readable boot line CI and loadgen wait for.
    println!("listening on http://{}", server.local_addr());
    server.join();
    eprintln!("shutdown complete");
    std::process::exit(0);
}

/// Session state mutated by `:commands`.
struct Session {
    k: usize,
    rows: usize,
    algo: AlgorithmChoice,
    rho: f64,
    lambda: u64,
    /// MMR diversification trade-off; `None` = off.
    mmr: Option<f64>,
}

impl Default for Session {
    fn default() -> Self {
        Session {
            k: 5,
            rows: 8,
            algo: AlgorithmChoice::PatternEnum,
            rho: 0.1,
            lambda: 100_000,
            mmr: None,
        }
    }
}

impl Session {
    /// The request this session sends for `line`.
    fn request(&self, line: &str) -> SearchRequest {
        let mut req = SearchRequest::text(line)
            .k(self.k)
            .algorithm(self.algo)
            .sampling(SamplingConfig::new(self.lambda, self.rho, 42))
            .max_rows(self.rows.max(1))
            .relax(true);
        if let Some(lambda) = self.mmr {
            req = req.diversify(lambda);
        }
        req
    }
}

/// Outcome of applying one `:command` line to the session.
enum CommandResult {
    Applied(String),
    Explain(usize),
    Stats,
    Quit,
    Error(String),
}

/// Parse and apply a `:command`; pure so it is unit-testable.
fn apply_command(session: &mut Session, line: &str) -> CommandResult {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().unwrap_or("");
    let arg = parts.next();
    match (cmd, arg) {
        (":quit" | ":q" | ":exit", _) => CommandResult::Quit,
        (":stats", _) => CommandResult::Stats,
        (":k", Some(v)) => match v.parse::<usize>() {
            Ok(k) if k >= 1 => {
                session.k = k;
                CommandResult::Applied(format!("k = {k}"))
            }
            _ => CommandResult::Error("k must be a positive integer".into()),
        },
        (":rows", Some(v)) => match v.parse::<usize>() {
            Ok(r) => {
                session.rows = r;
                CommandResult::Applied(format!("rows = {r}"))
            }
            _ => CommandResult::Error("rows must be an integer".into()),
        },
        (":rho", Some(v)) => match v.parse::<f64>() {
            Ok(r) if r > 0.0 && r <= 1.0 => {
                session.rho = r;
                CommandResult::Applied(format!("rho = {r}"))
            }
            _ => CommandResult::Error("rho must be in (0, 1]".into()),
        },
        (":lambda", Some(v)) => match v.parse::<u64>() {
            Ok(l) => {
                session.lambda = l;
                CommandResult::Applied(format!("lambda = {l}"))
            }
            _ => CommandResult::Error("lambda must be an integer".into()),
        },
        (":algo", Some(v)) => {
            let algo = match v {
                "pe" => AlgorithmChoice::PatternEnum,
                "pruned" => AlgorithmChoice::PatternEnumPruned,
                "le" => AlgorithmChoice::LinearEnum,
                "topk" => AlgorithmChoice::LinearEnumTopK,
                "baseline" => AlgorithmChoice::Baseline,
                "auto" => AlgorithmChoice::Auto,
                _ => {
                    return CommandResult::Error(
                        "algo must be pe|pruned|le|topk|baseline|auto".into(),
                    )
                }
            };
            session.algo = algo;
            CommandResult::Applied(format!("algo = {v}"))
        }
        (":mmr", Some("off")) => {
            session.mmr = None;
            CommandResult::Applied("mmr = off".into())
        }
        (":mmr", Some(v)) => match v.parse::<f64>() {
            Ok(l) if (0.0..=1.0).contains(&l) => {
                session.mmr = Some(l);
                CommandResult::Applied(format!("mmr = {l}"))
            }
            _ => CommandResult::Error("mmr takes a λ in [0,1] or `off`".into()),
        },
        (":explain", Some(v)) => match v.parse::<usize>() {
            Ok(i) if i >= 1 => CommandResult::Explain(i - 1),
            _ => CommandResult::Error("explain takes an answer rank (1-based)".into()),
        },
        _ => CommandResult::Error(format!(
            "unknown command {cmd:?}; commands: :k :rows :algo :rho :lambda :mmr :explain :stats :quit"
        )),
    }
}

fn repl(engine: &SearchEngine) {
    let mut session = Session::default();
    let mut last: Option<SearchResponse> = None;
    let stdin = std::io::stdin();
    loop {
        print!("patternkb> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with(':') {
            match apply_command(&mut session, line) {
                CommandResult::Quit => break,
                CommandResult::Applied(msg) => println!("{msg}"),
                CommandResult::Error(msg) => println!("error: {msg}"),
                CommandResult::Stats => {
                    println!("graph: {}", GraphStats::of(engine.graph()));
                    println!("index: {:?}", engine.index());
                }
                CommandResult::Explain(i) => match &last {
                    Some(resp) => match resp.patterns.get(i) {
                        Some(p) => {
                            let keywords: Vec<&str> = resp
                                .query
                                .keywords
                                .iter()
                                .map(|&w| engine.text().vocab().resolve(w))
                                .collect();
                            println!("{}", explain::explain_score(p));
                            if let Some(row) = p.trees.first() {
                                println!(
                                    "{}",
                                    explain::explain_tree(
                                        engine.graph(),
                                        &p.pattern,
                                        row,
                                        &keywords
                                    )
                                );
                            }
                        }
                        None => println!("error: last query had {} answers", resp.patterns.len()),
                    },
                    None => println!("error: run a query first"),
                },
            }
            continue;
        }

        // A keyword query: one request, one response.
        let response = match engine.respond(&session.request(line)) {
            Ok(response) => response,
            Err(e) => {
                println!("error: {e}");
                if let Error::UnknownWords(ref ws) = e {
                    for w in ws {
                        let hints = patternkb::text::suggest::suggest(engine.text().vocab(), w);
                        if !hints.is_empty() {
                            let names: Vec<&str> =
                                hints.iter().take(5).map(|(_, t)| t.as_str()).collect();
                            println!("  did you mean ({w}): {}?", names.join(", "));
                        }
                    }
                }
                continue;
            }
        };
        if session.algo == AlgorithmChoice::Auto {
            println!("(planner chose {:?})", response.algorithm);
        }
        if response.is_empty() && !response.relaxations.is_empty() {
            println!("no answers; try dropping keywords:");
            for r in response.relaxations.iter().take(3) {
                let kept: Vec<&str> = r
                    .keywords
                    .iter()
                    .map(|&w| engine.text().vocab().resolve(w))
                    .collect();
                println!(
                    "  {:?} ({} candidate roots)",
                    kept.join(" "),
                    r.candidate_roots
                );
            }
        }
        println!(
            "{} pattern(s) from {} subtree(s), {} candidate roots over {} shard(s), {:.2} ms",
            response.patterns.len(),
            response.stats.subtrees,
            response.stats.candidate_roots,
            response.stats.per_shard.len().max(1),
            response.stats.elapsed.as_secs_f64() * 1e3
        );
        for (rank, (p, table)) in response.patterns.iter().zip(&response.tables).enumerate() {
            println!(
                "\n#{} score={:.5} rows={}  {}",
                rank + 1,
                p.score,
                p.num_trees,
                p.display(engine.graph())
            );
            let preview = table.truncate_rows(session.rows);
            println!("{}", preview.render(engine.graph(), p));
        }
        last = Some(response);
    }
}

/// A group of flags, each written as in the usage line: `--flag` alone
/// is a switch, `--flag N` takes a non-negative integer, and any other
/// placeholder takes text.
type Flags = &'static [&'static str];

/// What every dataset spec takes, in each mode.
const DATASET_FLAGS: Flags = &[
    "--d N",
    "--shards N",
    "--seed N",
    "--entities N",
    "--movies N",
];

/// What only `serve` takes: server sizing, the write-path switch, the
/// index source and tier, the data directory and its checkpoints.
const SERVE_FLAGS: Flags = &[
    "--addr A",
    "--workers N",
    "--queue N",
    "--deadline-ms N",
    "--max-body-bytes N",
    "--no-ingest",
    "--index-snapshot FILE",
    "--storage heap|mmap",
    "--data-dir DIR",
    "--checkpoint-bytes N",
    "--checkpoint-records N",
];

const SERVE_ARGS: &[Flags] = &[DATASET_FLAGS, SERVE_FLAGS];
const SNAPSHOT_ARGS: &[Flags] = &[&["--out FILE"], DATASET_FLAGS];

/// The usage line of `mode` (`"serve "`, `"snapshot "`, or `""` for the
/// REPL) with every flag it takes.
fn usage(mode: &str, accepted: &[Flags]) -> String {
    let flags: String = accepted
        .iter()
        .flat_map(|g| g.iter())
        .map(|f| format!(" [{f}]"))
        .collect();
    format!("usage: patternkb-cli {mode}figure1|wiki|imdb|load <file>{flags}")
}

/// Check `args`, a dataset spec followed by flags, against the flag
/// groups a mode takes. An unknown flag, a missing value or a count that
/// does not parse is an error naming it: [`flag_value`] would otherwise
/// read it as absent and boot with the default.
fn check_flags(args: &[String], accepted: &[Flags]) -> Result<(), String> {
    // The dataset name, and the file `load` reads.
    let positional = if args.first().is_some_and(|a| a == "load") {
        2
    } else {
        1
    };
    let mut rest = args.iter().skip(positional);
    while let Some(flag) = rest.next() {
        let spec = accepted
            .iter()
            .flat_map(|g| g.iter())
            .find(|spec| spec.split(' ').next() == Some(flag.as_str()))
            .ok_or_else(|| format!("unknown flag {flag:?}"))?;
        let Some((_, placeholder)) = spec.split_once(' ') else {
            continue;
        };
        let raw = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if placeholder == "N" && raw.parse::<u64>().is_err() {
            return Err(format!(
                "invalid {flag} {raw:?}: want a non-negative integer"
            ));
        }
    }
    Ok(())
}

fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn build_graph(args: &[String]) -> Result<(KnowledgeGraph, String), String> {
    let mode = args.first().map(String::as_str).unwrap_or("figure1");
    let seed: u64 = flag_value(args, "--seed").unwrap_or(42);
    match mode {
        "figure1" => Ok((patternkb::datagen::figure1().0, "figure1".into())),
        "wiki" => {
            let entities = flag_value(args, "--entities").unwrap_or(10_000);
            let cfg = patternkb::datagen::WikiConfig {
                entities,
                seed,
                ..patternkb::datagen::WikiConfig::default()
            };
            Ok((
                patternkb::datagen::wiki::wiki(&cfg),
                format!("wiki/{entities}"),
            ))
        }
        "imdb" => {
            let movies = flag_value(args, "--movies").unwrap_or(5_000);
            let cfg = patternkb::datagen::ImdbConfig { movies, seed };
            Ok((
                patternkb::datagen::imdb::imdb(&cfg),
                format!("imdb/{movies}"),
            ))
        }
        "load" => {
            let path = args.get(1).ok_or("load needs a file path")?;
            let g = snapshot::load(std::path::Path::new(path))
                .map_err(|e| format!("cannot load {path}: {e}"))?;
            Ok((g, format!("load/{path}")))
        }
        other => Err(format!("unknown dataset {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_mutate_session() {
        let mut s = Session::default();
        assert!(matches!(
            apply_command(&mut s, ":k 25"),
            CommandResult::Applied(_)
        ));
        assert_eq!(s.k, 25);
        assert!(matches!(
            apply_command(&mut s, ":algo topk"),
            CommandResult::Applied(_)
        ));
        assert_eq!(s.algo, AlgorithmChoice::LinearEnumTopK);
        assert!(matches!(
            apply_command(&mut s, ":rho 0.25"),
            CommandResult::Applied(_)
        ));
        assert!(matches!(
            apply_command(&mut s, ":lambda 500"),
            CommandResult::Applied(_)
        ));
        assert!(matches!(
            apply_command(&mut s, ":quit"),
            CommandResult::Quit
        ));
    }

    #[test]
    fn session_builds_requests() {
        let mut s = Session::default();
        apply_command(&mut s, ":k 3");
        apply_command(&mut s, ":algo auto");
        apply_command(&mut s, ":mmr 0.5");
        let req = s.request("database company");
        assert_eq!(req.k, 3);
        assert_eq!(req.algorithm, AlgorithmChoice::Auto);
        assert_eq!(req.diversify, Some(0.5));
        assert!(req.relax);
    }

    #[test]
    fn mmr_command() {
        let mut s = Session::default();
        assert!(matches!(
            apply_command(&mut s, ":mmr 0.5"),
            CommandResult::Applied(_)
        ));
        assert_eq!(s.mmr, Some(0.5));
        assert!(matches!(
            apply_command(&mut s, ":mmr off"),
            CommandResult::Applied(_)
        ));
        assert_eq!(s.mmr, None);
        assert!(matches!(
            apply_command(&mut s, ":mmr 1.5"),
            CommandResult::Error(_)
        ));
        assert!(matches!(
            apply_command(&mut s, ":mmr banana"),
            CommandResult::Error(_)
        ));
    }

    #[test]
    fn bad_commands_error() {
        let mut s = Session::default();
        assert!(matches!(
            apply_command(&mut s, ":k zero"),
            CommandResult::Error(_)
        ));
        assert!(matches!(
            apply_command(&mut s, ":rho 2.0"),
            CommandResult::Error(_)
        ));
        assert!(matches!(
            apply_command(&mut s, ":algo quantum"),
            CommandResult::Error(_)
        ));
        assert!(matches!(
            apply_command(&mut s, ":frobnicate"),
            CommandResult::Error(_)
        ));
    }

    #[test]
    fn explain_is_one_based() {
        let mut s = Session::default();
        match apply_command(&mut s, ":explain 3") {
            CommandResult::Explain(i) => assert_eq!(i, 2),
            _ => panic!("expected Explain"),
        }
        assert!(matches!(
            apply_command(&mut s, ":explain 0"),
            CommandResult::Error(_)
        ));
    }

    #[test]
    fn graph_modes() {
        let (g, label) = build_graph(&["figure1".to_string()]).unwrap();
        assert_eq!(g.num_nodes(), 13);
        assert_eq!(label, "figure1");
        assert!(build_graph(&["marsian".to_string()]).is_err());
    }

    #[test]
    fn serve_config_from_flags() {
        let args: Vec<String> = [
            "figure1",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--queue",
            "64",
            "--deadline-ms",
            "250",
            "--max-body-bytes",
            "4096",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = serve_config(&args);
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_capacity, 64);
        assert_eq!(cfg.deadline, std::time::Duration::from_millis(250));
        assert_eq!(cfg.max_body_bytes, 4096);
        assert!(cfg.enable_ingest, "ingest is on unless opted out");
        let mut args = args;
        args.push("--no-ingest".to_string());
        assert!(!serve_config(&args).enable_ingest);
    }

    #[test]
    fn serve_config_defaults() {
        let cfg = serve_config(&["figure1".to_string()]);
        let defaults = patternkb::serve::ServeConfig::default();
        assert_eq!(cfg.addr, defaults.addr);
        assert_eq!(cfg.queue_capacity, defaults.queue_capacity);
        assert_eq!(cfg.deadline, defaults.deadline);
    }

    #[test]
    fn serve_engine_builds_for_figure1() {
        let engine = build_serve_engine(&["figure1".to_string()]).unwrap();
        assert_eq!(engine.d(), 3);
        assert!(build_serve_engine(&["marsian".to_string()]).is_err());
    }

    #[test]
    fn storage_flag_parses_and_rejects() {
        use patternkb::search::StorageBackend;
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_storage(&to_args(&["figure1"])).unwrap(),
            StorageBackend::Heap
        );
        assert_eq!(
            parse_storage(&to_args(&["figure1", "--storage", "mmap"])).unwrap(),
            StorageBackend::Mmap
        );
        assert!(parse_storage(&to_args(&["figure1", "--storage", "disk"]))
            .unwrap_err()
            .contains("--storage"));
    }

    #[test]
    fn snapshot_subcommand_writes_v5_and_serve_maps_it() {
        let dir = std::env::temp_dir().join("patternkb_cli_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("figure1.pkb5");
        let args: Vec<String> = ["figure1", "--out", out.to_str().unwrap(), "--shards", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let msg = run_snapshot(&args).unwrap();
        assert!(msg.contains("v5"), "{msg}");

        // The written file boots on the mapped tier and answers queries.
        let spec: Vec<String> = [
            "figure1",
            "--index-snapshot",
            out.to_str().unwrap(),
            "--storage",
            "mmap",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let engine = build_serve_engine(&spec).unwrap();
        assert_eq!(
            engine.storage_backend(),
            patternkb::search::StorageBackend::Mmap
        );
        assert!(engine.snapshot_load_time().is_some());
        let resp = engine
            .respond(&SearchRequest::text("database software company revenue"))
            .unwrap();
        assert_eq!(resp.patterns.len(), 9);

        // Same file under the heap tier: read into memory, same answers.
        let spec_heap: Vec<String> = ["figure1", "--index-snapshot", out.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let heap = build_serve_engine(&spec_heap).unwrap();
        assert_eq!(
            heap.storage_backend(),
            patternkb::search::StorageBackend::Heap
        );
        let resp_heap = heap
            .respond(&SearchRequest::text("database software company revenue"))
            .unwrap();
        for (a, b) in resp.patterns.iter().zip(&resp_heap.patterns) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        std::fs::remove_file(&out).ok();
        assert!(
            run_snapshot(&["figure1".to_string()]).is_err(),
            "--out required"
        );
    }

    #[test]
    fn unknown_flags_and_bad_values_are_rejected() {
        let check = |v: &[&str], accepted: &[Flags]| {
            check_flags(
                &v.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                accepted,
            )
        };
        assert!(check(&["figure1", "--workers", "2", "--no-ingest"], SERVE_ARGS).is_ok());
        assert!(check(&["load", "g.pkbg", "--storage", "mmap"], SERVE_ARGS).is_ok());
        for (args, named) in [
            (&["figure1", "--worker", "2"][..], "--worker"),
            (&["figure1", "--workers", "two"], "--workers"),
            (&["figure1", "--workers"], "--workers"),
            (&["figure1", "--fsync", "always"], "--fsync"),
            (&["figure1", "--batch", "16"], "--batch"),
        ] {
            let err = check(args, SERVE_ARGS).unwrap_err();
            assert!(err.contains(named), "{args:?}: {err}");
        }
        // Each mode takes only its own flags.
        assert!(check(&["figure1", "--addr", "127.0.0.1:0"], &[DATASET_FLAGS]).is_err());
        assert!(
            run_snapshot(&["figure1".into(), "--data-dir".into(), "kb".into()])
                .unwrap_err()
                .contains("--data-dir")
        );
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["wiki", "--d", "4", "--entities", "99"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value::<usize>(&args, "--d"), Some(4));
        assert_eq!(flag_value::<usize>(&args, "--entities"), Some(99));
        assert_eq!(flag_value::<usize>(&args, "--seed"), None);
    }
}
