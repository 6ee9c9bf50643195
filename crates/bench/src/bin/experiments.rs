//! Regenerate every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! experiments [--scale small|full] [--shards N]
//!             [fig6 fig7 fig8 fig9 fig10 expk fig11 fig12 fig13 fig16
//!              case worstcase ablation accumulate | all]
//! ```
//!
//! Each experiment prints a paper-style table; `all` (or no pick) runs
//! everything in figure order. `--shards N` partitions every engine's
//! index into N root-range shards (0 = one per core; answers are
//! identical, only latency moves). An unknown pick or flag prints the
//! usage and exits 2 before anything runs. Absolute times differ from the
//! paper's C#/Xeon setup — the reproduced quantities are the *shapes*:
//! who wins, scaling slopes, and the sampling trade-off. The numbers this
//! system's performance is judged by are not here: they are the gated
//! metrics of `BENCHMARK.json`, produced by `benchmark/`.

use patternkb_bench::datasets::{imdb_graph, wiki_graph, Scale};
use patternkb_bench::{bucket_of, ErrorBar, Report};
use patternkb_datagen::queries::QueryGenerator;
use patternkb_graph::{subgraph, KnowledgeGraph};
use patternkb_index::{build_indexes, BuildConfig, IndexStats};
use patternkb_search::individual::{coverage, pattern_key_of};
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

/// Every pick, in the order `all` runs them.
const PICKS: [(&str, fn(&mut Report, Scale)); 14] = [
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("expk", expk),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig16", fig16),
    ("case", case_study),
    ("worstcase", worst_case),
    ("ablation", ablation),
    ("accumulate", accumulate),
];

fn usage_exit(problem: &str) -> ! {
    let names: Vec<&str> = PICKS.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "{problem}\nusage: experiments [--scale small|full] [--shards N] [{} | all]",
        names.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::Small;
    let mut picks: Vec<fn(&mut Report, Scale)> = Vec::new();
    let mut all = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_default();
                scale = Scale::parse(&v)
                    .unwrap_or_else(|| usage_exit(&format!("unknown scale {v:?}; use small|full")));
            }
            "--shards" => {
                let v = it.next().unwrap_or_default();
                let shards: usize = v.parse().unwrap_or_else(|_| {
                    usage_exit(&format!(
                        "--shards takes an integer (0 = one per core), got {v:?}"
                    ))
                });
                SHARDS.store(shards, std::sync::atomic::Ordering::Relaxed);
            }
            "all" => all = true,
            other => match PICKS.iter().find(|&&(name, _)| name == other) {
                Some(&(_, run)) => picks.push(run),
                None if other.starts_with("--") => usage_exit(&format!("unknown flag {other:?}")),
                None => usage_exit(&format!("unknown experiment {other:?}")),
            },
        }
    }
    if all || picks.is_empty() {
        picks = PICKS.iter().map(|&(_, run)| run).collect();
    }

    let mut report = Report::new();
    report.line(&format!(
        "patternkb experiments — scale {scale:?}, shards {}",
        match SHARDS.load(std::sync::atomic::Ordering::Relaxed) {
            0 => "auto".to_string(),
            n => n.to_string(),
        }
    ));
    for run in picks {
        run(&mut report, scale);
    }
    report.print();
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
/// algorithm.
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
                .filter_map(|p| pattern_key_of(e.index().patterns(), p))
                .collect();
            let trees = e.top_individual(q, &cfg, k);
            if trees.is_empty() {
                continue;
            }
            let m = coverage(&trees, &keys);
            cov.push(m.coverage);
            new.push(m.new_patterns);
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
        report.line(&table.render(e.graph(), top));
    }
}

// ------------------------------------------------------------------
// §4.1 worst case: PETopK's Θ(p²) empty joins vs LETopK.
// ------------------------------------------------------------------
fn worst_case(report: &mut Report, _scale: Scale) {
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
// Quality ablations: aggregation functions (A), strict tree filtering
// (B), d-sensitivity on a citation graph (C) and stemmer choice (G). The
// timing ablations D (pruning) and E (incremental refresh) are gated
// metrics of the benchmark now (`search.pruned_ratio`,
// `pathindex.refresh_ms`).
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

// ------------------------------------------------------------------
// The pattern-score accumulator: `ExactSum`'s fixed-point window against
// the `Partials` fallback it keeps for inputs outside the window.
// ------------------------------------------------------------------
fn accumulate(report: &mut Report, _scale: Scale) {
    use patternkb_search::score::{ExactSum, Partials};
    use std::hint::black_box;

    /// Best of three passes over `scores` in sums of `group` pushes, each
    /// read by `value`: ns per push, and every sum's bits.
    fn time<A: Default>(
        scores: &[f64],
        group: usize,
        push: impl Fn(&mut A, f64),
        value: impl Fn(&A) -> f64,
    ) -> (f64, Vec<u64>) {
        let mut best = Duration::MAX;
        let mut bits = Vec::new();
        for _ in 0..3 {
            bits.clear();
            let t0 = Instant::now();
            for chunk in scores.chunks(group) {
                let mut acc = A::default();
                for &x in chunk {
                    push(&mut acc, black_box(x));
                }
                bits.push(black_box(value(&acc)).to_bits());
            }
            best = best.min(t0.elapsed());
        }
        (best.as_nanos() as f64 / scores.len() as f64, bits)
    }

    report.section("Pattern-score accumulation: ExactSum vs its Partials fallback (ns per push)");
    // Subtree scores as default scoring makes them: exponents −22 … −7.
    let mut rng = SmallRng::seed_from_u64(7);
    let scores: Vec<f64> = (0..1usize << 20)
        .map(|_| 2f64.powf(rng.gen_range(-22.0..-7.0)))
        .collect();
    let mut rows = vec![vec!["sums".into(), "Partials".into(), "ExactSum".into()]];
    for (label, group) in [("groups of 17", 17), ("one of 2^20", scores.len())] {
        let (partials, want) = time(&scores, group, Partials::push, Partials::value);
        let (exact, got) = time(&scores, group, ExactSum::push, ExactSum::value);
        assert_eq!(got, want, "{label}: ExactSum and Partials disagree");
        rows.push(vec![
            label.into(),
            format!("{partials:.1}"),
            format!("{exact:.1}"),
        ]);
    }
    report.table(&rows);
    report.line("(every sum compared bit for bit; a correctly rounded sum is unique)");
}
