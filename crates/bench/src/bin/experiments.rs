//! Regenerate every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! experiments [--scale small|full] [--shards N] [--json PATH]
//!             [--check BASELINE.json]
//!             [fig6 fig7 fig8 fig9 fig10 expk fig11 fig12 fig13 fig16
//!              case worstcase smoke hotpath coldboot | all]
//! ```
//!
//! Each experiment prints a paper-style table; `all` runs everything in
//! figure order. `--shards N` partitions every engine's index into N
//! root-range shards (0 = one per core; answers are identical, only
//! latency moves). `--json PATH` additionally writes the per-algorithm
//! timings collected by the timed experiments as machine-readable JSON —
//! the `smoke` experiment exists for exactly that: a fast per-algorithm
//! sweep CI runs as a `shards = {1, 4}` matrix and uploads as the
//! benchmark-trajectory artifact. Absolute times differ from the paper's
//! C#/Xeon setup — the reproduced quantities are the *shapes*: who wins,
//! scaling slopes, and the sampling trade-off (see EXPERIMENTS.md).

use patternkb_bench::datasets::{imdb_graph, wiki_graph, Scale};
use patternkb_bench::{bucket_of, ErrorBar, Report};
use patternkb_datagen::queries::QueryGenerator;
use patternkb_graph::{subgraph, KnowledgeGraph};
use patternkb_index::{build_indexes, BuildConfig, IndexStats};
use patternkb_search::topk::SamplingConfig;
use patternkb_search::{
    AlgorithmChoice, EngineBuilder, Query, SearchConfig, SearchEngine, SearchRequest,
    SearchResponse,
};
use patternkb_text::{SynonymTable, TextIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Root-range shard count applied to every engine this process builds
/// (`--shards`; 0 = available parallelism). A process-wide knob so the
/// dozens of `engine_for` call sites stay untouched.
static SHARDS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// One machine-readable timing record emitted into the `--json` file.
struct JsonTiming {
    experiment: &'static str,
    dataset: String,
    algorithm: String,
    queries: usize,
    total_ms: f64,
    geo_ms: f64,
}

/// Calibration time (ms) of a fixed integer workload, measured once per
/// process by the `hotpath` experiment. The regression gate divides every
/// tracked metric by it, so baselines recorded on one machine stay
/// meaningful on another (both metric and calibration scale with the
/// host's single-core speed). Stored as `f64` bits; 0 = not measured.
static CALIBRATION_MS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Time a fixed xorshift workload — the machine-speed yardstick.
fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut acc = 0u64;
    for _ in 0..40_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    CALIBRATION_MS.store(ms.to_bits(), std::sync::atomic::Ordering::Relaxed);
    ms
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut picks: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => {
                check_path = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--check takes a committed baseline JSON path");
                    std::process::exit(2);
                }));
            }
            "--scale" => {
                let v = it.next().unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?}; use small|full");
                    std::process::exit(2);
                });
            }
            "--shards" => {
                let v = it.next().unwrap_or_default();
                let shards: usize = v.parse().unwrap_or_else(|_| {
                    eprintln!("--shards takes an integer (0 = one per core), got {v:?}");
                    std::process::exit(2);
                });
                SHARDS.store(shards, std::sync::atomic::Ordering::Relaxed);
            }
            "--json" => {
                json_path = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--json takes an output path");
                    std::process::exit(2);
                }));
            }
            other => picks.push(other.to_string()),
        }
    }
    if picks.is_empty() || picks.iter().any(|p| p == "all") {
        picks = [
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "expk",
            "fig11",
            "fig12",
            "fig13",
            "fig16",
            "case",
            "worstcase",
            "ablation",
            "smoke",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let mut report = Report::new();
    let mut timings: Vec<JsonTiming> = Vec::new();
    report.line(&format!(
        "patternkb experiments — scale {scale:?}, shards {}",
        match SHARDS.load(std::sync::atomic::Ordering::Relaxed) {
            0 => "auto".to_string(),
            n => n.to_string(),
        }
    ));
    for pick in &picks {
        match pick.as_str() {
            "fig6" => fig6(&mut report, scale),
            "fig7" => fig7(&mut report, scale),
            "fig8" => fig8(&mut report, scale),
            "fig9" => fig9(&mut report, scale),
            "fig10" => fig10(&mut report, scale),
            "expk" => expk(&mut report, scale),
            "fig11" => fig11(&mut report, scale),
            "fig12" => fig12(&mut report, scale),
            "fig13" => fig13(&mut report, scale),
            "fig16" => fig16(&mut report, scale),
            "case" => case_study(&mut report, scale),
            "worstcase" => worst_case(&mut report),
            "ablation" => ablation(&mut report, scale),
            "smoke" => smoke(&mut report, scale, &mut timings),
            "hotpath" => hotpath(&mut report, scale, &mut timings),
            "coldboot" => coldboot(&mut report, scale, &mut timings),
            other => eprintln!("unknown experiment {other:?}"),
        }
    }
    report.print();

    if let Some(path) = json_path {
        let json = render_json(scale, &timings);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} timing record(s) to {path}", timings.len());
    }
    if let Some(path) = check_path {
        check_regression(&path, &timings);
    }
}

/// The bench-regression gate: compare this run's `hotpath` metrics against
/// a committed baseline JSON and fail the process when any tracked metric
/// regresses more than [`REGRESSION_TOLERANCE`]. Both sides are
/// normalized by their run's `calibration_ms`, so a baseline recorded on
/// a faster or slower machine still gates meaningfully.
const REGRESSION_TOLERANCE: f64 = 1.25;

fn check_regression(baseline_path: &str, timings: &[JsonTiming]) {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    // Take the top-level calibration only — the committed baseline may
    // carry a historical `pre_change` section with its own calibration.
    let head = text.split("\"pre_change\"").next().unwrap_or(&text);
    // A baseline with `"shards": 0` predates the resolved-count fix (the
    // raw `--shards` sentinel leaked into the report); refuse it so stale
    // baselines get regenerated rather than silently trusted.
    let base_shards = json_number(head, "shards").unwrap_or(0.0);
    if base_shards <= 0.0 {
        eprintln!("baseline {baseline_path} records shards = {base_shards}; regenerate it (the report must carry the resolved shard count)");
        std::process::exit(1);
    }
    let base_cal = json_number(head, "calibration_ms").unwrap_or(0.0);
    let cur_cal = f64::from_bits(CALIBRATION_MS.load(std::sync::atomic::Ordering::Relaxed));
    if base_cal <= 0.0 || cur_cal <= 0.0 {
        eprintln!("regression check needs calibration_ms in both runs (did you run `hotpath`?)");
        std::process::exit(1);
    }
    let mut checked = 0usize;
    let mut failures = Vec::new();
    for t in timings.iter().filter(|t| t.experiment == "hotpath") {
        let Some(base_geo) = baseline_metric(&text, &t.dataset, &t.algorithm) else {
            eprintln!(
                "baseline has no record for {}/{} — skipping (new metric?)",
                t.dataset, t.algorithm
            );
            continue;
        };
        checked += 1;
        let ratio = (t.geo_ms / cur_cal) / (base_geo / base_cal);
        let verdict = if ratio > REGRESSION_TOLERANCE {
            failures.push(format!(
                "{}/{}: {:.3} ms vs baseline {:.3} ms (normalized ratio {:.2} > {:.2})",
                t.dataset, t.algorithm, t.geo_ms, base_geo, ratio, REGRESSION_TOLERANCE
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "check {}/{}: normalized ratio {:.2} [{}]",
            t.dataset, t.algorithm, ratio, verdict
        );
    }
    if checked == 0 {
        eprintln!("regression check matched no hotpath metrics — refusing to pass vacuously");
        std::process::exit(1);
    }
    if !failures.is_empty() {
        eprintln!("bench regression gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    eprintln!("bench regression gate passed ({checked} metric(s) within tolerance)");
}

/// Extract a top-level `"key": <number>` from our own JSON schema.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Find the `geo_ms` of the baseline's hotpath record for
/// `(dataset, algorithm)`. Hand-rolled against our own `render_json`
/// output (the build environment vendors no serde).
fn baseline_metric(text: &str, dataset: &str, algorithm: &str) -> Option<f64> {
    for line in text.lines() {
        if line.contains("\"experiment\": \"hotpath\"")
            && line.contains(&format!("\"dataset\": \"{dataset}\""))
            && line.contains(&format!("\"algorithm\": \"{algorithm}\""))
        {
            return json_number(line, "geo_ms");
        }
    }
    None
}

/// Serialize the collected timings as JSON (hand-rolled — the build
/// environment vendors no serde).
fn render_json(scale: Scale, timings: &[JsonTiming]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str(&format!("  \"shards\": {},\n", resolved_shards()));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    ));
    let cal = f64::from_bits(CALIBRATION_MS.load(std::sync::atomic::Ordering::Relaxed));
    if cal > 0.0 {
        out.push_str(&format!("  \"calibration_ms\": {cal:.3},\n"));
    }
    out.push_str("  \"timings\": [\n");
    let rows: Vec<String> = timings
        .iter()
        .map(|t| {
            format!(
                "    {{\"experiment\": \"{}\", \"dataset\": \"{}\", \"algorithm\": \"{}\", \
                 \"queries\": {}, \"total_ms\": {:.3}, \"geo_ms\": {:.3}}}",
                esc(t.experiment),
                esc(&t.dataset),
                esc(&t.algorithm),
                t.queries,
                t.total_ms,
                t.geo_ms
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The shard count engines actually get: the `--shards` knob with the
/// `0 = one per core` sentinel resolved to the host's available
/// parallelism. The `--json` report records this (never the raw knob, so
/// a default run no longer reports the nonsensical `"shards": 0`).
fn resolved_shards() -> usize {
    match SHARDS.load(std::sync::atomic::Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        n => n,
    }
}

fn engine_for(g: KnowledgeGraph, d: usize) -> SearchEngine {
    EngineBuilder::new()
        .graph(g)
        .synonyms(SynonymTable::default_english())
        .height(d)
        .shards(SHARDS.load(std::sync::atomic::Ordering::Relaxed))
        .build()
        .expect("d in range")
}

/// One measured request: a pre-parsed query run under `cfg` with an
/// explicit algorithm (and optional sampling). Times reported by callers
/// use `response.stats.elapsed` — the search proper, measured inside each
/// algorithm — so the figures stay comparable to the pre-0.2 harness.
fn respond_algo(
    e: &SearchEngine,
    q: &Query,
    cfg: &SearchConfig,
    algo: AlgorithmChoice,
    sampling: Option<SamplingConfig>,
) -> SearchResponse {
    let mut req = SearchRequest::query(q.clone())
        .k(cfg.k)
        .scoring(cfg.scoring)
        .strict_trees(cfg.strict_trees)
        .max_rows(cfg.max_rows)
        .algorithm(algo);
    if let Some(s) = sampling {
        req = req.sampling(s);
    }
    e.respond(&req).expect("pre-parsed query always responds")
}

fn query_batch(e: &SearchEngine, scale: Scale, max_m: usize, seed: u64) -> Vec<Query> {
    let per_m = match scale {
        Scale::Small => 8,
        Scale::Full => 50,
    };
    let mut qg = QueryGenerator::new(e.graph(), e.text(), e.d(), seed);
    qg.batch(per_m, max_m)
        .into_iter()
        .map(|s| Query::from_ids(s.keywords))
        .collect()
}

/// Per-query measurement shared by Figures 7–9 and 16.
struct Measurement {
    m: usize,
    n_patterns: u64,
    n_subtrees: u64,
    times: BTreeMap<&'static str, Duration>,
}

const ALGOS: [(&str, AlgorithmChoice); 3] = [
    ("Baseline", AlgorithmChoice::Baseline),
    ("LETopK", AlgorithmChoice::LinearEnumTopK),
    ("PETopK", AlgorithmChoice::PatternEnum),
];

fn sweep(e: &SearchEngine, queries: &[Query], cfg: &SearchConfig) -> Vec<Measurement> {
    queries
        .iter()
        .map(|q| {
            let mut times = BTreeMap::new();
            for (name, algo) in ALGOS {
                let r = respond_algo(e, q, cfg, algo, None);
                times.insert(name, r.stats.elapsed);
            }
            Measurement {
                m: q.len(),
                n_patterns: e.count_patterns(q),
                n_subtrees: e.count_subtrees(q),
                times,
            }
        })
        .collect()
}

fn bucket_table(report: &mut Report, ms: &[Measurement], by_subtrees: bool) {
    let mut buckets: BTreeMap<u64, Vec<&Measurement>> = BTreeMap::new();
    for m in ms {
        let key = bucket_of(if by_subtrees {
            m.n_subtrees
        } else {
            m.n_patterns
        });
        buckets.entry(key).or_default().push(m);
    }
    let mut rows = vec![vec![
        if by_subtrees {
            "#subtrees<"
        } else {
            "#patterns<"
        }
        .to_string(),
        "queries".to_string(),
        "Baseline min/geo/max (ms)".to_string(),
        "LETopK min/geo/max (ms)".to_string(),
        "PETopK min/geo/max (ms)".to_string(),
    ]];
    for (bucket, group) in &buckets {
        let mut row = vec![format!("{bucket}"), format!("{}", group.len())];
        for (name, _) in ALGOS {
            let ds: Vec<Duration> = group.iter().map(|m| m.times[name]).collect();
            let eb = ErrorBar::of(&ds).unwrap();
            row.push(format!(
                "{:.2}/{:.2}/{:.2}",
                eb.min_ms, eb.geo_ms, eb.max_ms
            ));
        }
        rows.push(row);
    }
    report.table(&rows);
}

// ------------------------------------------------------------------
// Figure 6: index construction cost on Wiki for different d.
// ------------------------------------------------------------------
fn fig6(report: &mut Report, scale: Scale) {
    report.section("Figure 6: index construction cost on Wiki (time & size vs d)");
    let g = wiki_graph(scale);
    report.line(&format!("graph: {g:?}"));
    let text = TextIndex::build(&g, SynonymTable::default_english());
    let mut rows = vec![vec![
        "d".into(),
        "build time (s)".into(),
        "size (MB)".into(),
        "postings".into(),
        "patterns".into(),
    ]];
    for d in [2, 3, 4] {
        let t0 = Instant::now();
        let idx = build_indexes(
            &g,
            &text,
            &BuildConfig {
                d,
                threads: 0,
                shards: 0,
            },
        );
        let secs = t0.elapsed().as_secs_f64();
        let stats = IndexStats::of(&idx);
        rows.push(vec![
            format!("{d}"),
            format!("{secs:.2}"),
            format!("{:.1}", stats.megabytes()),
            format!("{}", stats.postings),
            format!("{}", stats.patterns),
        ]);
    }
    report.table(&rows);
    report.line("(paper: 43s/229MB, 502s/2.6GB, 7011s/34GB at 1.89M entities — same exponential-in-d shape)");
}

// ------------------------------------------------------------------
// Figure 7: execution time vs #patterns, d = 2, 3, 4, Wiki.
// ------------------------------------------------------------------
fn fig7(report: &mut Report, scale: Scale) {
    report.section("Figure 7: execution time vs #tree patterns on Wiki (d = 2, 3, 4)");
    let g = wiki_graph(scale);
    for d in [2, 3, 4] {
        let e = engine_for(g.clone(), d);
        let queries = query_batch(&e, scale, 6, 17);
        let ms = sweep(&e, &queries, &SearchConfig::top(100));
        report.line(&format!("-- d = {d} ({} queries) --", queries.len()));
        bucket_table(report, &ms, false);
    }
    report.line("(expected shape: PETopK fastest, LETopK <= Baseline, all growing with #patterns)");
}

// ------------------------------------------------------------------
// Figure 8: the same on IMDB, d = 3.
// ------------------------------------------------------------------
fn fig8(report: &mut Report, scale: Scale) {
    report.section("Figure 8: execution time vs #tree patterns on IMDB (d = 3)");
    let e = engine_for(imdb_graph(scale), 3);
    let queries = query_batch(&e, scale, 6, 19);
    let ms = sweep(&e, &queries, &SearchConfig::top(100));
    report.line(&format!("({} queries)", queries.len()));
    bucket_table(report, &ms, false);
}

// ------------------------------------------------------------------
// Figure 9: execution time vs #valid subtrees, Wiki & IMDB.
// ------------------------------------------------------------------
fn fig9(report: &mut Report, scale: Scale) {
    report.section("Figure 9(a): execution time vs #valid subtrees on Wiki (d = 3)");
    let e = engine_for(wiki_graph(scale), 3);
    let queries = query_batch(&e, scale, 6, 23);
    let ms = sweep(&e, &queries, &SearchConfig::top(100));
    bucket_table(report, &ms, true);

    report.section("Figure 9(b): execution time vs #valid subtrees on IMDB (d = 3)");
    let e = engine_for(imdb_graph(scale), 3);
    let queries = query_batch(&e, scale, 6, 29);
    let ms = sweep(&e, &queries, &SearchConfig::top(100));
    bucket_table(report, &ms, true);
}

// ------------------------------------------------------------------
// Figure 10: scalability — induced subgraphs of 10%..100% of entities.
// ------------------------------------------------------------------
fn fig10(report: &mut Report, scale: Scale) {
    report.section("Figure 10: execution time on Wiki subsets (10%-100% of entities)");
    let g = wiki_graph(scale);
    let fractions: &[f64] = match scale {
        Scale::Small => &[0.25, 0.5, 0.75, 1.0],
        Scale::Full => &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
    };
    let mut rows = vec![vec![
        "entities %".into(),
        "nodes".into(),
        "Baseline geo (ms)".into(),
        "LETopK geo (ms)".into(),
        "PETopK geo (ms)".into(),
    ]];
    for &frac in fractions {
        let mut rng = SmallRng::seed_from_u64(31);
        let sub = subgraph::induced_by(&g, |_| rng.gen::<f64>() < frac);
        let n = sub.graph.num_nodes();
        let e = engine_for(sub.graph, 3);
        let queries = query_batch(&e, scale, 4, 37);
        if queries.is_empty() {
            continue;
        }
        let ms = sweep(&e, &queries, &SearchConfig::top(100));
        let mut row = vec![format!("{:.0}%", frac * 100.0), format!("{n}")];
        for (name, _) in ALGOS {
            let ds: Vec<Duration> = ms.iter().map(|m| m.times[name]).collect();
            row.push(format!("{:.2}", ErrorBar::of(&ds).unwrap().geo_ms));
        }
        rows.push(row);
    }
    report.table(&rows);
    report.line("(paper: near-linear growth in the number of entities)");
}

// ------------------------------------------------------------------
// Exp-IV: varying k has little impact.
// ------------------------------------------------------------------
fn expk(report: &mut Report, scale: Scale) {
    report.section("Exp-IV: execution time vs k (should be flat)");
    let e = engine_for(wiki_graph(scale), 3);
    let queries = query_batch(&e, scale, 4, 41);
    let mut rows = vec![vec![
        "k".into(),
        "LETopK geo (ms)".into(),
        "PETopK geo (ms)".into(),
    ]];
    for k in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
        let cfg = SearchConfig::top(k);
        let mut le = Vec::new();
        let mut pe = Vec::new();
        for q in &queries {
            let r = respond_algo(&e, q, &cfg, AlgorithmChoice::LinearEnumTopK, None);
            le.push(r.stats.elapsed);
            let r = respond_algo(&e, q, &cfg, AlgorithmChoice::PatternEnum, None);
            pe.push(r.stats.elapsed);
        }
        rows.push(vec![
            format!("{k}"),
            format!("{:.2}", ErrorBar::of(&le).unwrap().geo_ms),
            format!("{:.2}", ErrorBar::of(&pe).unwrap().geo_ms),
        ]);
    }
    report.table(&rows);
}

/// The heaviest 2–3 keyword queries by #subtrees (mirrors §5.2's query 1–3
/// selection).
fn heavy_queries(e: &SearchEngine, count: usize) -> Vec<(Query, u64)> {
    let mut qg = QueryGenerator::new(e.graph(), e.text(), e.d(), 53);
    let mut seen: Vec<(Query, u64)> = Vec::new();
    for m in [2usize, 3] {
        for _ in 0..200 {
            if let Some(spec) = qg.anchored(m) {
                let q = Query::from_ids(spec.keywords);
                let n = e.count_subtrees(&q);
                if !seen.iter().any(|(existing, _)| existing == &q) {
                    seen.push((q, n));
                }
            }
        }
    }
    seen.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    seen.truncate(count);
    seen
}

fn precision_against(exact_keys: &[Vec<u32>], approx: &SearchResponse) -> f64 {
    let approx_keys: Vec<Vec<u32>> = approx.patterns.iter().map(|p| p.key()).collect();
    patternkb_search::metrics::precision(exact_keys, &approx_keys)
}

// ------------------------------------------------------------------
// Figure 11: varying sampling threshold Λ (ρ = 0.01, 0.1).
// ------------------------------------------------------------------
fn fig11(report: &mut Report, scale: Scale) {
    report.section("Figure 11: LETopK with varying sampling threshold (k = 100)");
    let e = engine_for(wiki_graph(scale), 3);
    let cfg = SearchConfig::top(100);
    let heavy = heavy_queries(&e, 3);
    let mut rows = vec![vec![
        "query".into(),
        "N subtrees".into(),
        "lambda".into(),
        "rho".into(),
        "time (ms)".into(),
        "precision".into(),
        "PETopK (ms)".into(),
    ]];
    for (qi, (q, n)) in heavy.iter().enumerate() {
        let exact = respond_algo(&e, q, &cfg, AlgorithmChoice::LinearEnumTopK, None);
        let exact_keys: Vec<Vec<u32>> = exact.patterns.iter().map(|p| p.key()).collect();
        let pe = respond_algo(&e, q, &cfg, AlgorithmChoice::PatternEnum, None);
        let pe_ms = pe.stats.elapsed.as_secs_f64() * 1e3;
        for rho in [0.01, 0.1] {
            for lambda in [100u64, 1_000, 10_000, 100_000, 1_000_000, 10_000_000] {
                let approx = respond_algo(
                    &e,
                    q,
                    &cfg,
                    AlgorithmChoice::LinearEnumTopK,
                    Some(SamplingConfig::new(lambda, rho, 77)),
                );
                let ms = approx.stats.elapsed.as_secs_f64() * 1e3;
                rows.push(vec![
                    format!("q{}", qi + 1),
                    format!("{n}"),
                    format!("{lambda}"),
                    format!("{rho}"),
                    format!("{ms:.2}"),
                    format!("{:.3}", precision_against(&exact_keys, &approx)),
                    format!("{pe_ms:.2}"),
                ]);
            }
        }
    }
    report.table(&rows);
    report.line("(expected: time and precision both rise with the threshold)");
}

// ------------------------------------------------------------------
// Figure 12: varying sampling rate ρ (Λ fixed).
// ------------------------------------------------------------------
fn fig12(report: &mut Report, scale: Scale) {
    report.section("Figure 12: LETopK with varying sampling rate (k = 100)");
    let e = engine_for(wiki_graph(scale), 3);
    let cfg = SearchConfig::top(100);
    // Λ: the paper uses 1e5 on queries with ~5e5–2.5e6 subtrees; scale it to
    // sit below our heavy queries' N the same way.
    let heavy = heavy_queries(&e, 3);
    let lambda = match scale {
        Scale::Small => 1_000,
        Scale::Full => 100_000,
    };
    let mut rows = vec![vec![
        "query".into(),
        "N subtrees".into(),
        "rho".into(),
        "time (ms)".into(),
        "precision".into(),
        "PETopK (ms)".into(),
    ]];
    for (qi, (q, n)) in heavy.iter().enumerate() {
        let exact = respond_algo(&e, q, &cfg, AlgorithmChoice::LinearEnumTopK, None);
        let exact_keys: Vec<Vec<u32>> = exact.patterns.iter().map(|p| p.key()).collect();
        let pe = respond_algo(&e, q, &cfg, AlgorithmChoice::PatternEnum, None);
        let pe_ms = pe.stats.elapsed.as_secs_f64() * 1e3;
        for rho in [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let approx = respond_algo(
                &e,
                q,
                &cfg,
                AlgorithmChoice::LinearEnumTopK,
                Some(SamplingConfig::new(lambda, rho, 77)),
            );
            let ms = approx.stats.elapsed.as_secs_f64() * 1e3;
            rows.push(vec![
                format!("q{}", qi + 1),
                format!("{n}"),
                format!("{rho}"),
                format!("{ms:.2}"),
                format!("{:.3}", precision_against(&exact_keys, &approx)),
                format!("{pe_ms:.2}"),
            ]);
        }
    }
    report.table(&rows);
    report.line(
        "(expected: smaller rho → faster, lower precision; precision high already at moderate rho)",
    );
}

// ------------------------------------------------------------------
// Figure 13: individual trees vs tree patterns.
// ------------------------------------------------------------------
fn fig13(report: &mut Report, scale: Scale) {
    report.section("Figure 13: coverage of top-k individual subtrees in top-k patterns");
    let e = engine_for(wiki_graph(scale), 3);
    let queries = query_batch(&e, scale, 4, 61);
    let mut rows = vec![vec![
        "k".into(),
        "avg coverage %".into(),
        "avg new patterns %".into(),
        "queries".into(),
    ]];
    for k in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
        let cfg = SearchConfig::top(k);
        let mut cov = Vec::new();
        let mut new = Vec::new();
        for q in &queries {
            let patterns = respond_algo(&e, q, &cfg, AlgorithmChoice::PatternEnum, None);
            if patterns.patterns.is_empty() {
                continue;
            }
            let keys: Vec<Vec<u32>> = patterns
                .patterns
                .iter()
                .filter_map(|p| {
                    let mut key = Vec::with_capacity(p.pattern.len());
                    for pat in &p.pattern {
                        key.push(e.index().patterns().get_key(&pat.encode())?.0);
                    }
                    Some(key)
                })
                .collect();
            let trees = e.top_individual(q, &cfg, k);
            if trees.is_empty() {
                continue;
            }
            let covered = trees
                .iter()
                .filter(|t| keys.contains(&t.pattern_key))
                .count();
            cov.push(covered as f64 / trees.len() as f64);
            let fresh = keys
                .iter()
                .filter(|key| trees.iter().all(|t| &t.pattern_key != *key))
                .count();
            new.push(fresh as f64 / keys.len().max(1) as f64);
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        rows.push(vec![
            format!("{k}"),
            format!("{:.1}", avg(&cov) * 100.0),
            format!("{:.1}", avg(&new) * 100.0),
            format!("{}", cov.len()),
        ]);
    }
    report.table(&rows);
    report.line("(paper: coverage ~42-50%, new patterns ~30-70%)");
}

// ------------------------------------------------------------------
// Figure 16 (appendix): execution time vs number of keywords.
// ------------------------------------------------------------------
fn fig16(report: &mut Report, scale: Scale) {
    report.section("Figure 16: execution time vs number of keywords on Wiki (d = 3)");
    let e = engine_for(wiki_graph(scale), 3);
    let max_m = match scale {
        Scale::Small => 6,
        Scale::Full => 10,
    };
    let queries = query_batch(&e, scale, max_m, 67);
    let ms = sweep(&e, &queries, &SearchConfig::top(100));
    let mut by_m: BTreeMap<usize, Vec<&Measurement>> = BTreeMap::new();
    for m in &ms {
        by_m.entry(m.m).or_default().push(m);
    }
    let mut rows = vec![vec![
        "#keywords".into(),
        "queries".into(),
        "Baseline min/geo/max (ms)".into(),
        "LETopK min/geo/max (ms)".into(),
        "PETopK min/geo/max (ms)".into(),
    ]];
    for (m, group) in &by_m {
        let mut row = vec![format!("{m}"), format!("{}", group.len())];
        for (name, _) in ALGOS {
            let ds: Vec<Duration> = group.iter().map(|x| x.times[name]).collect();
            let eb = ErrorBar::of(&ds).unwrap();
            row.push(format!(
                "{:.2}/{:.2}/{:.2}",
                eb.min_ms, eb.geo_ms, eb.max_ms
            ));
        }
        rows.push(row);
    }
    report.table(&rows);
    report.line("(paper: performance does not deteriorate with more keywords)");
}

// ------------------------------------------------------------------
// Case study (Figures 14–15): individual subtrees vs the table answer.
// ------------------------------------------------------------------
fn case_study(report: &mut Report, scale: Scale) {
    report.section("Case study (Figures 14-15): top individual subtrees vs top-1 pattern");
    let e = engine_for(wiki_graph(scale), 3);
    let heavy = heavy_queries(&e, 1);
    let Some((q, _)) = heavy.into_iter().next() else {
        report.line("no suitable query found");
        return;
    };
    let words: Vec<&str> = q
        .keywords
        .iter()
        .map(|&w| e.text().vocab().resolve(w))
        .collect();
    report.line(&format!("query: {:?}", words.join(" ")));

    report.line("\nTop individual valid subtrees:");
    for (rank, t) in e
        .top_individual(&q, &SearchConfig::default(), 3)
        .iter()
        .enumerate()
    {
        let g = e.graph();
        let paths: Vec<String> = t
            .tree
            .paths
            .iter()
            .map(|p| {
                p.nodes
                    .iter()
                    .map(|&n| g.node_text(n).to_string())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            })
            .collect();
        report.line(&format!(
            "  top-{} (score {:.4}): {}",
            rank + 1,
            t.tree.score,
            paths.join("  |  ")
        ));
    }

    let r = respond_algo(
        &e,
        &q,
        &SearchConfig::top(1),
        AlgorithmChoice::PatternEnum,
        None,
    );
    if let (Some(top), Some(table)) = (r.top(), r.top_table()) {
        report.line(&format!(
            "\nTop-1 tree pattern ({} rows): {}",
            top.num_trees,
            top.display(e.graph())
        ));
        report.line(&table.render());
    }
}

// ------------------------------------------------------------------
// Smoke: a fast per-algorithm sweep for CI's shards={1,4} matrix.
// ------------------------------------------------------------------
fn smoke(report: &mut Report, scale: Scale, timings: &mut Vec<JsonTiming>) {
    report.section("Smoke: per-algorithm timings (CI shard matrix)");
    let shards = SHARDS.load(std::sync::atomic::Ordering::Relaxed);
    let algos: [(&'static str, AlgorithmChoice); 5] = [
        ("Baseline", AlgorithmChoice::Baseline),
        ("PETopK", AlgorithmChoice::PatternEnum),
        ("PETopK-pruned", AlgorithmChoice::PatternEnumPruned),
        ("LinearEnum", AlgorithmChoice::LinearEnum),
        ("LETopK", AlgorithmChoice::LinearEnumTopK),
    ];
    for (dataset, g) in [
        ("zipf-wiki", wiki_graph(scale)),
        ("figure1", patternkb_datagen::figure1().0),
    ] {
        let e = engine_for(g, 3);
        let queries = query_batch(&e, scale, 3, 97);
        if queries.is_empty() {
            report.line(&format!("{dataset}: no queries generated, skipped"));
            continue;
        }
        report.line(&format!(
            "{dataset}: {} nodes, {} shard(s), {} queries",
            e.graph().num_nodes(),
            e.num_shards(),
            queries.len()
        ));
        let mut rows = vec![vec![
            "algorithm".into(),
            "queries".into(),
            "total (ms)".into(),
            "geo (ms)".into(),
        ]];
        for (name, algo) in algos {
            let mut durations = Vec::with_capacity(queries.len());
            for q in &queries {
                let r = respond_algo(&e, q, &SearchConfig::top(10), algo, None);
                durations.push(r.stats.elapsed);
            }
            let eb = ErrorBar::of(&durations).expect("non-empty");
            let total_ms: f64 = durations.iter().map(|d| d.as_secs_f64() * 1e3).sum();
            rows.push(vec![
                name.to_string(),
                format!("{}", queries.len()),
                format!("{total_ms:.2}"),
                format!("{:.3}", eb.geo_ms),
            ]);
            timings.push(JsonTiming {
                experiment: "smoke",
                dataset: dataset.to_string(),
                algorithm: name.to_string(),
                queries: queries.len(),
                total_ms,
                geo_ms: eb.geo_ms,
            });
        }
        report.table(&rows);
    }
    report.line(&format!(
        "(sharded answers are bit-identical to shards=1; this table tracks latency at shards={})",
        if shards == 0 {
            "auto".into()
        } else {
            shards.to_string()
        }
    ));
}

// ------------------------------------------------------------------
// Hotpath: the query data-plane kernels the regression gate tracks —
// sorted-list intersection, per-codec root-column decode, and end-to-end
// pattern_enum_pruned on zipf-wiki. (Whole-image decode is measured on the
// real format by the gated benchmark's `pathindex.heap_decode_s`.)
// `--json` + `--check` turn this into the CI bench gate against the
// committed BENCH_hotpath.json.
// ------------------------------------------------------------------
fn hotpath(report: &mut Report, scale: Scale, timings: &mut Vec<JsonTiming>) {
    report.section("Hotpath: intersection / codec decode / pattern_enum_pruned (regression-gated)");
    let cal = calibrate();
    report.line(&format!("calibration workload: {cal:.1} ms"));

    let mut push = |report: &mut Report,
                    dataset: &str,
                    algorithm: &str,
                    durations: &[Duration],
                    queries: usize| {
        let eb = ErrorBar::of(durations).expect("non-empty");
        let total_ms: f64 = durations.iter().map(|d| d.as_secs_f64() * 1e3).sum();
        report.line(&format!(
            "{algorithm}: total {total_ms:.2} ms, geo {:.4} ms over {} obs",
            eb.geo_ms,
            durations.len()
        ));
        timings.push(JsonTiming {
            experiment: "hotpath",
            dataset: dataset.to_string(),
            algorithm: algorithm.to_string(),
            queries,
            total_ms,
            geo_ms: eb.geo_ms,
        });
    };

    // --- 1. Intersection kernel: the engine's sorted-list intersection
    //     primitive over synthetic posting-style root lists (skewed sizes,
    //     like zipf word frequencies). ---
    let mut rng = SmallRng::seed_from_u64(0xb10cf00d);
    let universe = 1u32 << 20;
    let mut make_list = |len: usize| -> Vec<u32> {
        let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let lists: Vec<Vec<u32>> = [80_000usize, 20_000, 4_000, 800]
        .iter()
        .map(|&n| make_list(n))
        .collect();
    let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
    let mut durations = Vec::new();
    let mut matched = 0usize;
    for _ in 0..60 {
        let t0 = Instant::now();
        let out = patternkb_search::common::intersect_sorted(&refs);
        durations.push(t0.elapsed());
        matched = out.len();
    }
    report.line(&format!(
        "intersect: {} lists (sizes {:?}), {} common",
        refs.len(),
        lists.iter().map(Vec::len).collect::<Vec<_>>(),
        matched
    ));
    push(report, "zipf-wiki", "intersect", &durations, 60);

    // --- 2. Per-codec decode microbench: identical root lists forced
    //     through each of the three encodings, streamed back with
    //     `read_into` (the decoder the word streams actually use).
    //     Shapes chosen so every codec can represent them (strictly
    //     ascending); the adaptive selector would pick differently per
    //     list — that is exactly what this row isolates. ---
    {
        use patternkb_index::{BlockList, Encoding};
        let mut rng = SmallRng::seed_from_u64(0xdec0de);
        // A mix of shapes: sparse random (delta territory), long runs
        // (rle territory) and dense ranges (bitmap territory).
        let mut lists: Vec<Vec<u32>> = Vec::new();
        for _ in 0..8 {
            let mut v: Vec<u32> = (0..20_000).map(|_| rng.gen_range(0..1u32 << 22)).collect();
            v.sort_unstable();
            v.dedup();
            lists.push(v);
        }
        for i in 0..8u32 {
            lists.push((i * 40_000..i * 40_000 + 20_000).collect());
        }
        for i in 0..8u32 {
            let base = i * 60_000;
            lists.push((base..base + 40_000).filter(|x| x % 3 != 0).collect());
        }
        for (enc, name) in [
            (Encoding::Delta, "decode_delta"),
            (Encoding::Rle, "decode_rle"),
            (Encoding::Bitmap, "decode_bitmap"),
        ] {
            let mut bytes = Vec::new();
            let mut total = 0usize;
            for l in &lists {
                BlockList::encode_as(l, enc)
                    .expect("strictly ascending input fits every codec")
                    .write(&mut bytes);
                total += l.len();
            }
            let mut durations = Vec::new();
            let mut scratch = Vec::new();
            let mut out = Vec::with_capacity(total);
            for _ in 0..20 {
                out.clear();
                let mut pos = 0usize;
                let t0 = Instant::now();
                for l in &lists {
                    BlockList::read_into(&bytes, &mut pos, &mut scratch, &mut out, l.len())
                        .expect("self-written stream decodes");
                }
                durations.push(t0.elapsed());
                assert_eq!(out.len(), total);
            }
            push(report, "codec-micro", name, &durations, 20);
        }
    }

    // --- 3. End-to-end: pattern_enum_pruned over a fixed query batch on
    //     zipf-wiki (the acceptance workload). Pinned to one shard: every
    //     hotpath metric must be single-threaded so the single-core
    //     calibration workload normalizes it (the gate would otherwise
    //     under-read regressions on many-core runners). The single shard
    //     worker runs inline, so the metric tracks kernel speed, not the
    //     host's core count; `--shards` deliberately does not apply here.
    //     Per-query minimum over 3 passes to damp scheduler noise. ---
    let e = EngineBuilder::new()
        .graph(wiki_graph(scale))
        .synonyms(SynonymTable::default_english())
        .height(3)
        .shards(1)
        .build()
        .expect("d in range");
    let queries = query_batch(&e, scale, 4, 131);
    let cfg = SearchConfig::top(10);
    let mut best: Vec<Duration> = vec![Duration::MAX; queries.len()];
    for _ in 0..3 {
        for (q, slot) in queries.iter().zip(best.iter_mut()) {
            let r = respond_algo(&e, q, &cfg, AlgorithmChoice::PatternEnumPruned, None);
            *slot = (*slot).min(r.stats.elapsed);
        }
    }
    push(
        report,
        "zipf-wiki",
        "pattern_enum_pruned",
        &best,
        queries.len(),
    );
}

// ------------------------------------------------------------------
// Cold boot: the same v5 zipf-wiki snapshot opened by full decode (what
// a heap boot pays) vs mapped in place (what `--storage mmap` pays).
// Run with `--json BENCH_coldboot.json`; the committed report backs the
// "mapped boot ≥ 5× faster" claim, and the resident-byte lines show the
// out-of-core point — mapped residency scales with what was touched,
// not with the index.
// ------------------------------------------------------------------
fn coldboot(report: &mut Report, scale: Scale, timings: &mut Vec<JsonTiming>) {
    report.section("Cold boot: v5 snapshot, full decode vs mmap open");
    if f64::from_bits(CALIBRATION_MS.load(std::sync::atomic::Ordering::Relaxed)) == 0.0 {
        let cal = calibrate();
        report.line(&format!("calibration workload: {cal:.1} ms"));
    }

    let g = wiki_graph(scale);
    let text = TextIndex::build(&g, SynonymTable::default_english());
    // One shard, like every hotpath metric: boot decode is single-
    // threaded, so the single-core calibration normalizes it.
    let idx = build_indexes(
        &g,
        &text,
        &BuildConfig {
            d: 3,
            threads: 0,
            shards: 1,
        },
    );
    let dir = std::env::temp_dir().join(format!("patternkb_coldboot_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("zipf-wiki.pkb5");
    patternkb_index::storage::save_v5(&idx, &path).expect("snapshot written");
    let file_len = std::fs::metadata(&path).expect("written").len();

    let mut push = |report: &mut Report, algorithm: &str, durations: &[Duration]| {
        let eb = ErrorBar::of(durations).expect("non-empty");
        let total_ms: f64 = durations.iter().map(|d| d.as_secs_f64() * 1e3).sum();
        report.line(&format!(
            "{algorithm}: geo {:.4} ms over {} boots",
            eb.geo_ms,
            durations.len()
        ));
        timings.push(JsonTiming {
            experiment: "coldboot",
            dataset: "zipf-wiki".to_string(),
            algorithm: algorithm.to_string(),
            queries: durations.len(),
            total_ms,
            geo_ms: eb.geo_ms,
        });
        eb.geo_ms
    };

    const BOOTS: usize = 7;
    let mut decode_ds = Vec::with_capacity(BOOTS);
    let mut decoded_resident = 0usize;
    for _ in 0..BOOTS {
        let t0 = Instant::now();
        let full = patternkb_index::snapshot::load(&path).expect("v5 decodes");
        decode_ds.push(t0.elapsed());
        decoded_resident = full.heap_bytes();
    }
    let mut map_ds = Vec::with_capacity(BOOTS);
    let mut mapped_resident = 0usize;
    for _ in 0..BOOTS {
        let t0 = Instant::now();
        let mapped = patternkb_index::storage::open_mapped(&path).expect("v5 maps");
        map_ds.push(t0.elapsed());
        mapped_resident = mapped.heap_bytes();
    }
    // The deferred work the mapped boot did NOT do: decoding every word
    // (queries pay it per touched word; this is the total).
    let mut touch_ds = Vec::with_capacity(3);
    for _ in 0..3 {
        let mapped = patternkb_index::storage::open_mapped(&path).expect("v5 maps");
        let words = mapped.word_ids();
        let t0 = Instant::now();
        mapped.prepare_words(&words).expect("streams decode");
        touch_ds.push(t0.elapsed());
    }

    let decode_geo = push(report, "boot_full_decode", &decode_ds);
    let mmap_geo = push(report, "boot_mmap_open", &map_ds);
    push(report, "mmap_decode_all_words", &touch_ds);
    report.line(&format!(
        "snapshot {file_len} bytes; resident after boot: decode {decoded_resident} B, mmap {mapped_resident} B ({:.1}% of decoded)",
        100.0 * mapped_resident as f64 / decoded_resident.max(1) as f64
    ));
    report.line(&format!(
        "cold-boot speedup (full decode / mmap open): {:.1}x",
        decode_geo / mmap_geo.max(f64::MIN_POSITIVE)
    ));
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------------
// §4.1 worst case: PETopK's Θ(p²) empty joins vs LETopK.
// ------------------------------------------------------------------
fn worst_case(report: &mut Report) {
    report.section("Section 4.1 worst case: PETopK wastes p^2 empty pattern joins");
    let mut rows = vec![vec![
        "p".into(),
        "PETopK combos".into(),
        "PETopK (us)".into(),
        "LETopK (us)".into(),
    ]];
    for p in [8usize, 16, 32, 64, 128] {
        let g = patternkb_datagen::worstcase::worstcase(p);
        let e = EngineBuilder::new()
            .graph(g)
            .height(2)
            .threads(1)
            .build()
            .expect("d in range");
        let q = e
            .parse(&format!(
                "{} {}",
                patternkb_datagen::worstcase::W1,
                patternkb_datagen::worstcase::W2
            ))
            .unwrap();
        let cfg = SearchConfig::top(10);
        let pe = respond_algo(&e, &q, &cfg, AlgorithmChoice::PatternEnum, None);
        let pe_us = pe.stats.elapsed.as_micros();
        let le = respond_algo(&e, &q, &cfg, AlgorithmChoice::LinearEnumTopK, None);
        let le_us = le.stats.elapsed.as_micros();
        assert!(pe.patterns.is_empty() && le.patterns.is_empty());
        rows.push(vec![
            format!("{p}"),
            format!("{}", pe.stats.combos_tried),
            format!("{pe_us}"),
            format!("{le_us}"),
        ]);
    }
    report.table(&rows);
    report.line("(combos grow as p^2; LETopK sees zero candidate roots and exits immediately)");
}

// ------------------------------------------------------------------
// Ablations called out in DESIGN.md: aggregation functions, strict tree
// filtering, and d-sensitivity on a citation graph.
// ------------------------------------------------------------------
fn ablation(report: &mut Report, scale: Scale) {
    use patternkb_search::{Aggregation, ScoringConfig};

    report.section("Ablation A: pattern-aggregation functions (top-10 overlap vs Sum)");
    let e = engine_for(wiki_graph(scale), 3);
    let queries = query_batch(&e, scale, 3, 71);
    let aggs = [
        ("Sum", Aggregation::Sum),
        ("Avg", Aggregation::Avg),
        ("Max", Aggregation::Max),
        ("Count", Aggregation::Count),
    ];
    let mut rows = vec![vec![
        "aggregation".into(),
        "avg top-10 overlap with Sum".into(),
        "queries".into(),
    ]];
    for (name, agg) in aggs {
        let mut overlaps = Vec::new();
        for q in &queries {
            let base_cfg = SearchConfig::top(10);
            let base = respond_algo(&e, q, &base_cfg, AlgorithmChoice::PatternEnum, None);
            if base.patterns.is_empty() {
                continue;
            }
            let cfg = SearchConfig {
                scoring: ScoringConfig {
                    aggregation: agg,
                    ..ScoringConfig::default()
                },
                ..SearchConfig::top(10)
            };
            let alt = respond_algo(&e, q, &cfg, AlgorithmChoice::PatternEnum, None);
            let base_keys: Vec<Vec<u32>> = base.patterns.iter().map(|p| p.key()).collect();
            let hits = alt
                .patterns
                .iter()
                .filter(|p| base_keys.contains(&p.key()))
                .count();
            overlaps.push(hits as f64 / base_keys.len() as f64);
        }
        let avg = overlaps.iter().sum::<f64>() / overlaps.len().max(1) as f64;
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", avg),
            format!("{}", overlaps.len()),
        ]);
    }
    report.table(&rows);
    report.line("(Sum vs Count agree when subtree scores are homogeneous; Avg/Max reorder toward singular patterns)");

    report.section("Ablation B: strict tree filtering (non-tree path tuples)");
    let mut rows = vec![vec![
        "mode".into(),
        "total subtrees".into(),
        "total patterns".into(),
        "geo time (ms)".into(),
    ]];
    for strict in [false, true] {
        let cfg = SearchConfig {
            strict_trees: strict,
            ..SearchConfig::top(100)
        };
        let mut subtrees = 0usize;
        let mut patterns = 0usize;
        let mut times = Vec::new();
        for q in &queries {
            let r = respond_algo(&e, q, &cfg, AlgorithmChoice::LinearEnum, None);
            times.push(r.stats.elapsed);
            subtrees += r.stats.subtrees;
            patterns += r.stats.patterns;
        }
        rows.push(vec![
            if strict { "strict" } else { "paper (lax)" }.to_string(),
            format!("{subtrees}"),
            format!("{patterns}"),
            format!("{:.2}", ErrorBar::of(&times).unwrap().geo_ms),
        ]);
    }
    report.table(&rows);
    report.line(
        "(strict mode drops tuples whose path union converges; the paper's products keep them)",
    );

    report.section("Ablation C: d-sensitivity on a citation graph (DBLP-like)");
    let g = patternkb_datagen::dblp::dblp(&patternkb_datagen::DblpConfig {
        papers: match scale {
            Scale::Small => 1_500,
            Scale::Full => 10_000,
        },
        avg_citations: 3.0,
        seed: 5,
    });
    let mut rows = vec![vec![
        "d".into(),
        "avg #patterns".into(),
        "avg #subtrees".into(),
        "PETopK geo (ms)".into(),
    ]];
    for d in [2usize, 3, 4] {
        let e = engine_for(g.clone(), d);
        let queries = query_batch(&e, scale, 2, 73);
        if queries.is_empty() {
            continue;
        }
        let mut pats = 0u64;
        let mut subs = 0u64;
        let mut times = Vec::new();
        for q in &queries {
            pats += e.count_patterns(q);
            subs += e.count_subtrees(q);
            let r = respond_algo(
                &e,
                q,
                &SearchConfig::top(100),
                AlgorithmChoice::PatternEnum,
                None,
            );
            times.push(r.stats.elapsed);
        }
        let n = queries.len() as u64;
        rows.push(vec![
            format!("{d}"),
            format!("{}", pats / n),
            format!("{}", subs / n),
            format!("{:.2}", ErrorBar::of(&times).unwrap().geo_ms),
        ]);
    }
    report.table(&rows);
    report.line("(citation chains keep adding interpretations with d, unlike the IMDB schema)");

    ablation_pruning(report, scale);
    ablation_incremental(report, scale);
    ablation_stemmer(report, scale);
}

/// Ablation G: stemmer choice (Lite vs full Porter vs none).
///
/// The synthetic KB vocabularies are uninflected base forms, so index
/// sizes barely move; what the stemmer determines is whether *inflected
/// queries* ("movies", "publishing") reach the index entries of their base
/// forms (§3: word, stemmed version and synonyms share entries). We
/// measure that directly: inflect the KB vocabulary with the common
/// English suffixes and count how many variant forms collapse onto an
/// existing canonical word under each stemmer.
fn ablation_stemmer(report: &mut Report, scale: Scale) {
    use patternkb_text::{Stemmer, Vocabulary};

    report.section("Ablation G: stemmer choice (inflected-query reachability)");
    let g = wiki_graph(scale);
    let base_text = TextIndex::build(&g, SynonymTable::new());
    let base_words: Vec<String> = base_text
        .vocab()
        .iter()
        .map(|(_, s)| s.to_string())
        .filter(|s| s.len() >= 4 && s.bytes().all(|b| b.is_ascii_lowercase()))
        .take(300)
        .collect();
    let inflect = |w: &str| -> Vec<String> {
        let mut v = vec![format!("{w}s")];
        if let Some(stem) = w.strip_suffix('e') {
            v.push(format!("{stem}ing"));
            v.push(format!("{w}d"));
        } else {
            v.push(format!("{w}ing"));
            v.push(format!("{w}ed"));
        }
        v
    };

    let mut rows = vec![vec![
        "stemmer".into(),
        "distinct canonicals".into(),
        "variants reaching base".into(),
        "variant forms".into(),
    ]];
    for (name, stemmer) in [
        ("none", Stemmer::None),
        ("lite (default)", Stemmer::Lite),
        ("porter", Stemmer::Porter),
    ] {
        let mut vocab = Vocabulary::with_stemmer(SynonymTable::new(), stemmer);
        for w in &base_words {
            vocab.intern(w);
        }
        let mut total = 0usize;
        let mut reached = 0usize;
        for w in &base_words {
            let base_id = vocab.lookup(w).expect("base interned");
            for form in inflect(w) {
                total += 1;
                if vocab.lookup(&form) == Some(base_id) {
                    reached += 1;
                }
            }
        }
        rows.push(vec![
            name.to_string(),
            format!("{}", vocab.len()),
            format!("{:.1}%", 100.0 * reached as f64 / total.max(1) as f64),
            format!("{total}"),
        ]);
    }
    report.table(&rows);
    report.line("(Porter reaches the most inflected variants; Lite trades some recall to keep entity nouns distinct; None requires exact surface forms)");
}

/// Ablation D: admissible upper-bound pruning for PATTERNENUM.
fn ablation_pruning(report: &mut Report, scale: Scale) {
    report.section("Ablation D: PATTERNENUM upper-bound pruning (identical answers)");
    let e = engine_for(wiki_graph(scale), 3);
    let queries = query_batch(&e, scale, 4, 79);
    let mut rows = vec![vec![
        "k".into(),
        "exact geo (ms)".into(),
        "pruned geo (ms)".into(),
        "combos tried".into(),
        "combos pruned".into(),
    ]];
    for k in [1usize, 10, 100] {
        let cfg = SearchConfig {
            max_rows: 4,
            ..SearchConfig::top(k)
        };
        let mut t_exact = Vec::new();
        let mut t_pruned = Vec::new();
        let mut tried = 0usize;
        let mut pruned = 0usize;
        for q in &queries {
            let r = respond_algo(&e, q, &cfg, AlgorithmChoice::PatternEnum, None);
            t_exact.push(r.stats.elapsed);
            let r = respond_algo(&e, q, &cfg, AlgorithmChoice::PatternEnumPruned, None);
            t_pruned.push(r.stats.elapsed);
            tried += r.stats.combos_tried;
            pruned += r.stats.combos_pruned;
        }
        rows.push(vec![
            format!("{k}"),
            format!("{:.3}", ErrorBar::of(&t_exact).unwrap().geo_ms),
            format!("{:.3}", ErrorBar::of(&t_pruned).unwrap().geo_ms),
            format!("{tried}"),
            format!("{pruned}"),
        ]);
    }
    report.table(&rows);
    report.line(
        "(small k lets the threshold bite early; the pruner skips intersections, never answers)",
    );
}

/// Ablation E: incremental index refresh vs full rebuild.
fn ablation_incremental(report: &mut Report, scale: Scale) {
    use patternkb_graph::mutate::{GraphDelta, PagerankMode};
    use patternkb_index::refresh_indexes;

    report.section("Ablation E: incremental index refresh vs full rebuild");
    let cfg = BuildConfig {
        d: 3,
        threads: 0,
        shards: 1,
    };
    let g = wiki_graph(scale);
    let text = TextIndex::build(&g, SynonymTable::default_english());
    let idx = build_indexes(&g, &text, &cfg);
    let mut rows = vec![vec![
        "delta (entities)".into(),
        "affected roots".into(),
        "refresh (ms)".into(),
        "rebuild (ms)".into(),
        "speedup".into(),
    ]];
    for batch in [1usize, 16, 128] {
        let comp = g.types().iter().nth(1).map(|(t, _)| t).unwrap();
        let attr = g.attrs().iter().next().map(|(a, _)| a).unwrap();
        let mut delta = GraphDelta::new(&g);
        for i in 0..batch {
            let v = delta
                .add_node(comp, &format!("streamed entity number {i}"))
                .unwrap();
            let anchor = patternkb_graph::NodeId((i * 97 % g.num_nodes()) as u32);
            delta.add_edge(anchor, attr, v).unwrap();
        }
        let g2 = delta.apply(&g, PagerankMode::Frozen).unwrap();
        let text2 = TextIndex::build(&g2, SynonymTable::default_english());
        let dirty = delta.dirty_nodes();

        let t0 = Instant::now();
        let (_, stats) = refresh_indexes(&idx, &g, &g2, &text, &text2, &dirty, false);
        let t_refresh = t0.elapsed();
        let t0 = Instant::now();
        let _ = build_indexes(&g2, &text2, &cfg);
        let t_rebuild = t0.elapsed();
        rows.push(vec![
            format!("{batch}"),
            format!("{}", stats.affected_roots),
            format!("{:.2}", t_refresh.as_secs_f64() * 1e3),
            format!("{:.2}", t_rebuild.as_secs_f64() * 1e3),
            format!(
                "{:.1}x",
                t_rebuild.as_secs_f64() / t_refresh.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    report.table(&rows);
    report.line("(refresh cost tracks the delta's d-neighbourhood, not the KB size — Fig. 6's build cost amortizes away)");
}
