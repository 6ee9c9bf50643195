//! The online write path is **equivalent to rebuilding**: chaining N
//! random `GraphDelta` batches (adds *and* removes, including removing a
//! node's last text edge) through [`SharedEngine::ingest_with`] must leave
//! an engine that answers bit-identically to a fresh build on the final
//! graph — across shard counts {1, 3}.
//!
//! This is the correctness contract behind `POST /admin/ingest`: the
//! incremental refresh may re-enumerate only the affected roots, but no
//! sequence of online mutations may ever make its answers drift from what
//! a full offline rebuild would say.

use patternkb_datagen::wiki::{wiki, WikiConfig};
use patternkb_graph::mutate::{DeltaError, GraphDelta, PagerankMode};
use patternkb_graph::{AttrId, KnowledgeGraph, NodeId, TypeId};
use patternkb_search::{
    AlgorithmChoice, EngineBuilder, Error, SearchRequest, SearchResponse, SharedEngine,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Word pool for generated node names and text values: new vocabulary
/// (exercising text-index growth) mixed with nothing graph-specific.
const WORDS: [&str; 10] = [
    "quasar", "nebula", "pulsar", "comet", "meteor", "aurora", "zenith", "parsec", "quark",
    "photon",
];

/// One planned mutation. Ids are precomputed by the generator (delta ids
/// are deterministic: base nodes, then additions in order), so the same
/// plan builds the same delta against the same base graph twice — once
/// inside `ingest_with`, once on the independently tracked graph.
#[derive(Clone, Debug)]
enum Op {
    AddNode { t: TypeId, name: String },
    AddEdge { s: NodeId, a: AttrId, t: NodeId },
    AddTextEdge { s: NodeId, a: AttrId, value: String },
    RemoveEdge { s: NodeId, a: AttrId, t: NodeId },
}

fn build_delta(g: &KnowledgeGraph, plan: &[Op]) -> GraphDelta {
    let mut d = GraphDelta::new(g);
    for op in plan {
        match op {
            Op::AddNode { t, name } => {
                d.add_node(*t, name).unwrap();
            }
            Op::AddEdge { s, a, t } => d.add_edge(*s, *a, *t).unwrap(),
            Op::AddTextEdge { s, a, value } => {
                d.add_text_edge(*s, *a, value).unwrap();
            }
            Op::RemoveEdge { s, a, t } => d.remove_edge(*s, *a, *t).unwrap(),
        }
    }
    d
}

/// Generate a batch of mutations valid against `g` (so `GraphDelta::apply`
/// cannot reject it): no duplicate additions, no double removals, and
/// every id in range. Mirrors the delta's id assignment (including
/// text-value dedup within the batch).
fn gen_plan(g: &KnowledgeGraph, rng: &mut SmallRng, max_ops: usize) -> Vec<Op> {
    let base_nodes = g.num_nodes();
    let mut next_id = base_nodes;
    let mut text_values: HashMap<String, NodeId> = HashMap::new();
    let mut added: HashSet<(NodeId, AttrId, NodeId)> = HashSet::new();
    let mut removed: HashSet<(NodeId, AttrId, NodeId)> = HashSet::new();
    let base_edges: Vec<(NodeId, AttrId, NodeId)> =
        g.edges().map(|e| (e.source, e.attr, e.target)).collect();
    // Text nodes whose single incoming edge a removal would orphan — the
    // "remove a node's last text edge" case the refresh must survive.
    let last_text_edges: Vec<(NodeId, AttrId, NodeId)> = base_edges
        .iter()
        .copied()
        .filter(|&(_, _, t)| g.is_text_node(t) && g.in_degree(t) == 1)
        .collect();

    let mut plan = Vec::new();
    let word = |rng: &mut SmallRng| WORDS[rng.gen_range(0..WORDS.len())].to_string();
    let ops = 1 + rng.gen_range(0..max_ops);
    for _ in 0..ops {
        match rng.gen_range(0..4u32) {
            0 => {
                // Skip TEXT_TYPE (type 0): plain-text nodes come from
                // add_text_edge, like the production wire format.
                if g.num_types() < 2 {
                    continue;
                }
                let t = TypeId(rng.gen_range(1..g.num_types() as u32));
                let name = format!("{} {}", word(rng), word(rng));
                plan.push(Op::AddNode { t, name });
                next_id += 1;
            }
            1 => {
                if g.num_attrs() == 0 {
                    continue;
                }
                let s = NodeId(rng.gen_range(0..next_id as u32));
                let a = AttrId(rng.gen_range(0..g.num_attrs() as u32));
                let value = format!("{} {}", word(rng), word(rng));
                let t = match text_values.get(&value) {
                    Some(&t) => t,
                    None => {
                        let t = NodeId(next_id as u32);
                        text_values.insert(value.clone(), t);
                        next_id += 1;
                        t
                    }
                };
                // A duplicate (s, a, t) is only possible when `t` came
                // from an earlier plan entry's value (a freshly minted id
                // is greater than anything in `added`), so skipping the
                // push leaves the id bookkeeping consistent.
                if added.insert((s, a, t)) {
                    plan.push(Op::AddTextEdge { s, a, value });
                }
            }
            2 => {
                if g.num_attrs() == 0 {
                    continue;
                }
                let s = NodeId(rng.gen_range(0..next_id as u32));
                let t = NodeId(rng.gen_range(0..next_id as u32));
                let a = AttrId(rng.gen_range(0..g.num_attrs() as u32));
                let survives_in_base = g.has_edge(s, a, t) && !removed.contains(&(s, a, t));
                if survives_in_base || !added.insert((s, a, t)) {
                    continue;
                }
                plan.push(Op::AddEdge { s, a, t });
            }
            _ => {
                if base_edges.is_empty() {
                    continue;
                }
                // Half the time, aim specifically at a last-text-edge.
                let pool = if !last_text_edges.is_empty() && rng.gen_bool(0.5) {
                    &last_text_edges
                } else {
                    &base_edges
                };
                let (s, a, t) = pool[rng.gen_range(0..pool.len())];
                if added.contains(&(s, a, t)) || !removed.insert((s, a, t)) {
                    continue;
                }
                plan.push(Op::RemoveEdge { s, a, t });
            }
        }
    }
    plan
}

fn small_wiki(seed: u64) -> KnowledgeGraph {
    wiki(&WikiConfig {
        entities: 60,
        types: 4,
        attrs_per_type: 3,
        attr_pool: 6,
        vocab: 30,
        avg_degree: 3.0,
        value_pool: 12,
        seed,
        ..WikiConfig::default()
    })
}

/// Distinct query tokens drawn from the final graph's node texts plus the
/// generator's word pool (covers both surviving old facts and ingested
/// new ones).
fn query_words(g: &KnowledgeGraph) -> Vec<String> {
    let mut words: Vec<String> = Vec::new();
    let mut seen = HashSet::new();
    for v in g.nodes() {
        for tok in g.node_text(v).split_whitespace().take(1) {
            if seen.insert(tok.to_lowercase()) {
                words.push(tok.to_string());
            }
            if words.len() >= 6 {
                break;
            }
        }
        if words.len() >= 6 {
            break;
        }
    }
    words.extend(WORDS.iter().take(3).map(|w| w.to_string()));
    words
}

fn respond_pair(
    chained: &SharedEngine,
    fresh: &patternkb_search::SearchEngine,
    req: &SearchRequest,
    label: &str,
) {
    // Pruned execution visits combinations in an index-layout-dependent
    // order, so its *work counters* may differ between a refreshed and a
    // fresh index; the answers must not.
    let compare_work = !matches!(req.algorithm, AlgorithmChoice::PatternEnumPruned);
    let a = chained.respond(req);
    let b = fresh.respond(req);
    match (a, b) {
        (Ok(a), Ok(b)) => assert_bit_identical(&a, &b, compare_work, label),
        (Err(Error::UnknownWords(wa)), Err(Error::UnknownWords(wb))) => {
            assert_eq!(wa, wb, "{label}: unknown-word sets diverge")
        }
        (a, b) => panic!("{label}: outcome mismatch: {a:?} vs {b:?}"),
    }
}

fn assert_bit_identical(a: &SearchResponse, b: &SearchResponse, compare_work: bool, label: &str) {
    assert_eq!(a.patterns.len(), b.patterns.len(), "{label}: result size");
    for (x, y) in a.patterns.iter().zip(&b.patterns) {
        assert_eq!(x.key(), y.key(), "{label}: pattern identity/order");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{label}: score bits ({} vs {})",
            x.score,
            y.score
        );
        assert_eq!(x.num_trees, y.num_trees, "{label}: |trees(P)|");
    }
    if compare_work {
        assert_eq!(a.stats.subtrees, b.stats.subtrees, "{label}: subtrees");
    }
}

/// Chain `batches` random deltas through `ingest_with` at `shards`, then
/// compare against a fresh build on the independently tracked final graph.
fn check_chain(seed: u64, batches: usize, shards: usize) {
    let mut current = small_wiki(seed);
    let shared = EngineBuilder::new()
        .graph(small_wiki(seed))
        .threads(1)
        .shards(shards)
        .build_shared()
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5DEECE66D);

    for b in 0..batches {
        let plan = gen_plan(&current, &mut rng, 6);
        if plan.is_empty() {
            continue;
        }
        let before = shared.version();
        let outcome = shared
            .ingest_with(PagerankMode::Recompute, |snap| {
                Ok::<_, DeltaError>(build_delta(snap.graph(), &plan))
            })
            .unwrap_or_else(|e| panic!("seed {seed} batch {b}: ingest failed: {e}"));
        assert_eq!(outcome.version, before + 1);
        // Track the same mutation independently of the engine.
        let delta = build_delta(&current, &plan);
        current = delta.apply(&current, PagerankMode::Recompute).unwrap();
        assert_eq!(shared.snapshot().graph().num_nodes(), current.num_nodes());
        assert_eq!(shared.snapshot().graph().num_edges(), current.num_edges());
    }

    let words = query_words(&current);
    let fresh = EngineBuilder::new()
        .graph(current)
        .threads(1)
        .shards(shards)
        .build()
        .unwrap();
    for k in [1usize, 10, 50] {
        for w in &words {
            for (algo, name) in [
                (AlgorithmChoice::PatternEnum, "pattern_enum"),
                (AlgorithmChoice::PatternEnumPruned, "pruned"),
                (AlgorithmChoice::LinearEnum, "linear_enum"),
            ] {
                let req = SearchRequest::text(w).k(k).algorithm(algo);
                respond_pair(
                    &shared,
                    &fresh,
                    &req,
                    &format!("seed {seed} shards {shards} {name} k={k} q={w:?}"),
                );
            }
        }
        // One multi-keyword query too.
        if words.len() >= 2 {
            let q = format!("{} {}", words[0], words[1]);
            let req = SearchRequest::text(&q)
                .k(k)
                .algorithm(AlgorithmChoice::PatternEnum);
            respond_pair(
                &shared,
                &fresh,
                &req,
                &format!("seed {seed} shards {shards} multi k={k}"),
            );
        }
    }
}

#[test]
fn removing_a_nodes_last_text_edge_matches_fresh_build() {
    // Deterministic version of the nastiest case: the text value node is
    // orphaned (its only incoming edge removed), its word postings must
    // vanish, and the refreshed index must agree with a rebuild.
    let (g, _) = patternkb_datagen::figure1();
    let shared = EngineBuilder::new()
        .graph(g.clone())
        .threads(1)
        .build_shared()
        .unwrap();
    // Find some text node with exactly one incoming edge.
    let (s, a, t) = g
        .edges()
        .map(|e| (e.source, e.attr, e.target))
        .find(|&(_, _, t)| g.is_text_node(t) && g.in_degree(t) == 1)
        .expect("figure1 has single-use text values");
    shared
        .ingest_with(PagerankMode::Recompute, |snap| {
            let mut d = GraphDelta::new(snap.graph());
            d.remove_edge(s, a, t)?;
            Ok::<_, DeltaError>(d)
        })
        .unwrap();

    let mut d = GraphDelta::new(&g);
    d.remove_edge(s, a, t).unwrap();
    let final_g = d.apply(&g, PagerankMode::Recompute).unwrap();
    let fresh = EngineBuilder::new()
        .graph(final_g)
        .threads(1)
        .build()
        .unwrap();
    for q in ["database software company revenue", "company", "revenue"] {
        let req = SearchRequest::text(q).k(50);
        respond_pair(&shared, &fresh, &req, &format!("last-text-edge q={q:?}"));
    }
}

/// Scratch data dir for a durable chain; removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("patternkb_recovery_{tag}_{}", std::process::id()));
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

/// Crash recovery ≡ fresh build of the surviving prefix: chain random
/// batches through a durable engine, then simulate a crash by truncating
/// the on-disk write-ahead log at arbitrary byte positions — clean record
/// boundaries and torn mid-record cuts alike — and reboot from the data
/// dir. Whatever prefix of the acked history survives the cut, the
/// recovered engine must answer bit-identically to an engine built fresh
/// on that prefix's graph. A mid-chain checkpoint (when the history is
/// long enough) additionally exercises the checkpoint + tail boot path.
fn check_crash_recovery(seed: u64, batches: usize, shards: usize) {
    let scratch = ScratchDir::new(&format!("s{seed}_sh{shards}"));
    let dir = &scratch.0;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
    // checkpoint_after = version to checkpoint at (0 = never).
    let checkpoint_after = if batches >= 2 {
        rng.gen_range(0..batches as u64)
    } else {
        0
    };

    // graphs[v] = the graph at engine version v, tracked independently.
    let mut graphs = vec![small_wiki(seed)];
    let mut cp_version = 0u64;
    {
        let shared = EngineBuilder::new()
            .graph(small_wiki(seed))
            .threads(1)
            .shards(shards)
            .data_dir(dir)
            .build_shared()
            .unwrap();
        for b in 0..batches {
            let plan = gen_plan(graphs.last().unwrap(), &mut rng, 5);
            if !plan.is_empty() {
                shared
                    .ingest_with(PagerankMode::Recompute, |snap| {
                        Ok::<_, DeltaError>(build_delta(snap.graph(), &plan))
                    })
                    .unwrap_or_else(|e| panic!("seed {seed} batch {b}: ingest failed: {e}"));
                let delta = build_delta(graphs.last().unwrap(), &plan);
                graphs.push(
                    delta
                        .apply(graphs.last().unwrap(), PagerankMode::Recompute)
                        .unwrap(),
                );
            }
            if shared.version() == checkpoint_after && shared.version() > 0 && cp_version == 0 {
                let d = shared.durability().expect("durable boot");
                d.checkpoint_now(&shared.snapshot()).unwrap();
                cp_version = shared.version();
            }
        }
        assert_eq!(shared.version() as usize, graphs.len() - 1);
    } // drop: joins the flusher + checkpointer, final sync

    let wal_path = dir.join("wal.log");
    let pristine = std::fs::read(&wal_path).unwrap();
    let full = patternkb_wal::replay(&wal_path).unwrap();

    // Cut points: every clean record boundary (including the bare header
    // and the full file) plus a torn cut inside every record.
    let mut cuts: Vec<usize> = full.records.iter().map(|r| r.offset as usize).collect();
    cuts.push(full.valid_len as usize);
    for r in &full.records {
        let start = r.offset as usize;
        let end = start + 16 + r.payload.len();
        cuts.push(rng.gen_range(start + 1..end));
    }
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        std::fs::write(&wal_path, &pristine[..cut]).unwrap();
        let surviving = patternkb_wal::replay(&wal_path).unwrap();
        let expected = surviving
            .records
            .last()
            .map(|r| r.version)
            .unwrap_or(cp_version)
            .max(cp_version);

        let recovered = EngineBuilder::new()
            .graph(small_wiki(seed))
            .threads(1)
            .shards(shards)
            .data_dir(dir)
            .build_shared()
            .unwrap();
        assert_eq!(
            recovered.version(),
            expected,
            "seed {seed} shards {shards} cut {cut}: wrong recovered version"
        );

        let prefix_graph = graphs[expected as usize].clone();
        let words = query_words(&prefix_graph);
        let fresh = EngineBuilder::new()
            .graph(prefix_graph)
            .threads(1)
            .shards(shards)
            .build()
            .unwrap();
        for w in words.iter().take(4) {
            for algo in [
                AlgorithmChoice::PatternEnum,
                AlgorithmChoice::PatternEnumPruned,
            ] {
                let req = SearchRequest::text(w).k(10).algorithm(algo);
                respond_pair(
                    &recovered,
                    &fresh,
                    &req,
                    &format!("seed {seed} shards {shards} cut {cut} q={w:?}"),
                );
            }
        }
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// N chained random batches ≡ fresh build, at 1 and 3 shards.
        #[test]
        fn chained_ingests_match_fresh_build(
            seed in 0u64..500,
            batches in 1usize..4,
        ) {
            for shards in [1usize, 3] {
                check_chain(seed, batches, shards);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Reboot after a crash (log truncated anywhere) ≡ fresh build of
        /// the surviving prefix, at 1 and 3 shards.
        #[test]
        fn crash_recovery_matches_fresh_build_of_surviving_prefix(
            seed in 0u64..500,
            batches in 1usize..4,
        ) {
            for shards in [1usize, 3] {
                check_crash_recovery(seed, batches, shards);
            }
        }
    }
}
