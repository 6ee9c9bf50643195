//! The four workloads: their names, sizes, op lists and request bodies,
//! and the plan file the set-up process hands to the measured process.
//!
//! The knowledge base and the query pool are the benchmark's fixed
//! dataset ([`DATA_SEED`]). `--seed` drives only the traffic: the order
//! of the Zipf draws (`hot`, `mixed-write`) or the visiting order (`cold`,
//! `coldstart`). Every seed therefore issues the same amount of work,
//! which is what lets runs with different seeds be compared.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

pub const GRAPH_FILE: &str = "graph.pkbg";
pub const INDEX_FILE: &str = "index.pkb5";
pub const DATA_DIR: &str = "data";
pub const PLAN_FILE: &str = "plan.txt";

/// Seed of `datagen::wiki` and of the query pool. A constant, not
/// `--seed`: with seed-dependent data `cold/search_p99_ms` differed 2×
/// between seeds for reasons that are not noise.
pub const DATA_SEED: u64 = 42;
/// Results per search (`k`), the paper's usual page of answers.
pub const K: usize = 10;
/// Zipf exponent of the hot query mix (same as `loadgen`'s default).
const ZIPF_THETA: f64 = 0.9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Cold,
    MixedWrite,
    Coldstart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Hot,
        Workload::Cold,
        Workload::MixedWrite,
        Workload::Coldstart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Cold => "cold",
            Workload::MixedWrite => "mixed-write",
            Workload::Coldstart => "coldstart",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Every size the run protocol fixes: a run's length is set by these
/// counts, never by a timer. Two presets: the gated scale and the
/// `--smoke` scale the crate's own test uses.
#[derive(Clone, Debug)]
pub struct Scale {
    pub entities: usize,
    /// Pool queries per keyword count m ∈ 1..=4 for `hot`/`mixed-write`.
    pub hot_per_m: usize,
    /// Zipf draws per `hot` pass.
    pub hot_draws: usize,
    /// Distinct queries per m for `cold` and `coldstart` (the same
    /// queries: the two differ in tier and in booting per pass).
    pub cold_per_m: usize,
    /// `mixed-write`: searches between two ingests, and ingests per pass.
    pub searches_per_ingest: usize,
    pub ingests_per_pass: usize,
    /// Records in the write-ahead-log tail `mixed-write` boots through.
    pub wal_tail: usize,
    /// Boots of the measured process before the first pass.
    pub boots: usize,
    /// Repeats of the timed set-up (the first is unreported, like the
    /// first boot).
    pub setup_repeats: usize,
    /// Reported passes with one driver (P) and with `nproc` drivers (T);
    /// one unreported pass of the same kind precedes each group.
    pub latency_passes: usize,
    pub throughput_passes: usize,
    /// The write epilogue of the read-only workloads: unreported ingests
    /// first, then the reported ones.
    pub epilogue_warmups: usize,
    pub epilogue_ingests: usize,
    /// Queries per m in the traced run's algorithm sweep.
    pub sweep_per_m: usize,
    /// Ops the traced run replays over a real loopback server.
    pub http_ops: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            entities: 50_000,
            hot_per_m: 16,
            hot_draws: 3_000,
            cold_per_m: 250,
            searches_per_ingest: 500,
            ingests_per_pass: 3,
            wal_tail: 1,
            boots: 5,
            setup_repeats: 4,
            latency_passes: 3,
            throughput_passes: 3,
            epilogue_warmups: 3,
            epilogue_ingests: 5,
            sweep_per_m: 25,
            http_ops: 500,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            entities: 2_000,
            hot_draws: 2_000,
            cold_per_m: 75,
            searches_per_ingest: 250,
            ingests_per_pass: 4,
            boots: 2,
            setup_repeats: 2,
            latency_passes: 1,
            throughput_passes: 1,
            epilogue_warmups: 0,
            epilogue_ingests: 1,
            sweep_per_m: 4,
            http_ops: 200,
            ..Scale::full()
        }
    }

    /// Distinct queries per m in `w`'s pool.
    pub fn per_m(&self, w: Workload) -> usize {
        match w {
            Workload::Hot | Workload::MixedWrite => self.hot_per_m,
            Workload::Cold | Workload::Coldstart => self.cold_per_m,
        }
    }
}

/// Searches one driver issues between two probes of the calibrated
/// clock: about 50 ms of work at the gated scale (a cached search takes
/// ≈ 0.35 ms, an executed one ≈ 2 ms on average).
pub fn probe_every(w: Workload) -> usize {
    match w {
        Workload::Hot => 150,
        Workload::MixedWrite => 100,
        Workload::Cold | Workload::Coldstart => 25,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Search the pool query with this index.
    Search(u32),
    /// Ingest one fresh entity with one text attribute.
    Ingest,
}

/// The fixed op list of one pass of `w` over a pool of `queries` queries.
/// Every seed yields the same multiset of ops; the seed sets their order.
pub fn op_list(w: Workload, scale: &Scale, queries: usize, seed: u64) -> Vec<Op> {
    assert!(queries > 0, "empty query pool");
    let mut rng = SmallRng::seed_from_u64(seed);
    match w {
        Workload::Hot => zipf_mix(&mut rng, queries, scale.hot_draws),
        Workload::MixedWrite => {
            let mut ops = Vec::new();
            for _ in 0..scale.ingests_per_pass {
                ops.extend(zipf_mix(&mut rng, queries, scale.searches_per_ingest));
                ops.push(Op::Ingest);
            }
            ops
        }
        // Each query once: more distinct queries than the result cache
        // holds, so LRU misses on every visit.
        Workload::Cold | Workload::Coldstart => {
            let mut order: Vec<Op> = (0..queries as u32).map(Op::Search).collect();
            shuffle(&mut rng, &mut order);
            order
        }
    }
}

fn shuffle(rng: &mut SmallRng, ops: &mut [Op]) {
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.gen_range(0..=i));
    }
}

/// `draws` searches whose query frequencies follow Zipf(0.9) over the
/// pool ranks *exactly* (expected counts, largest remainders first), in
/// seeded order. Sampling the draws instead would change the mix from
/// seed to seed, and a percentile over a 64-query mix moves in steps when
/// the mix does.
fn zipf_mix(rng: &mut SmallRng, queries: usize, draws: usize) -> Vec<Op> {
    let weights: Vec<f64> = (1..=queries)
        .map(|rank| (rank as f64).powf(-ZIPF_THETA))
        .collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / total * draws as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..queries).collect();
    by_remainder.sort_by(|&a, &b| {
        shares[b]
            .fract()
            .total_cmp(&shares[a].fract())
            .then(a.cmp(&b))
    });
    let missing = draws - counts.iter().sum::<usize>();
    for &q in by_remainder.iter().take(missing) {
        counts[q] += 1;
    }
    let mut ops: Vec<Op> = counts
        .iter()
        .enumerate()
        .flat_map(|(q, &n)| vec![Op::Search(q as u32); n])
        .collect();
    shuffle(rng, &mut ops);
    ops
}

fn json_string(s: &str) -> String {
    patternkb_serve::Json::Str(s.to_string()).render()
}

/// The `/search` body for a keyword list.
pub fn search_body(surface: &[String]) -> String {
    format!("{{\"q\":{},\"k\":{K}}}", json_string(&surface.join(" ")))
}

/// The `/admin/ingest` body minting entity number `seq`: a fresh node of
/// the dataset's first entity type plus one text attribute whose value,
/// `ingestmark <seq>`, makes the write findable by a search.
pub fn ingest_body(type_name: &str, attr_name: &str, seq: u64) -> String {
    let name = json_string(&format!("bench vendor {seq}"));
    format!(
        "{{\"mutations\":[{{\"op\":\"add_node\",\"type\":{},\"name\":{name}}},\
         {{\"op\":\"add_text_edge\",\"source\":{name},\"attr\":{},\"value\":{}}}]}}",
        json_string(type_name),
        json_string(attr_name),
        json_string(&ingest_mark(seq)),
    )
}

pub fn ingest_mark(seq: u64) -> String {
    format!("ingestmark {seq}")
}

/// Digest of the parts of a `/search` response that are a function of the
/// query and the data alone: everything before `"cache"` (query echo,
/// algorithm, planned) and everything from the `"patterns"` array on
/// (scores, tree counts, tables). Left out: the cache outcome, engine
/// version, elapsed time, and the `stats` object, whose pruning counters
/// depend on how the shard threads interleave. `None` if the body lacks
/// either marker.
pub fn stable_digest(body: &str) -> Option<u64> {
    let head = &body[..body.find(",\"cache\":")?];
    // With the bracket: `stats` has a `patterns` count of its own.
    let tail = &body[body.find(",\"patterns\":[")?..];
    Some(mix(
        mix(0x9E37_79B9_7F4A_7C15, head.as_bytes()),
        tail.as_bytes(),
    ))
}

/// Whether a `/search` response carries at least one pattern.
pub fn has_patterns(body: &str) -> bool {
    body.contains(",\"patterns\":[{")
}

/// A multiply-xorshift hash over 8-byte words: cheap enough (well under
/// 1 ns/byte) to run on every response inside a throughput pass.
fn mix(mut h: u64, bytes: &[u8]) -> u64 {
    const M: u64 = 0xFF51_AFD7_ED55_8CCD;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk"))).wrapping_mul(M);
        h ^= h >> 32;
    }
    let mut last = [0u8; 8];
    let rest = chunks.remainder();
    last[..rest.len()].copy_from_slice(rest);
    h = (h ^ u64::from_le_bytes(last) ^ ((bytes.len() as u64) << 56)).wrapping_mul(M);
    h ^ (h >> 32)
}

/// One pool query as the measured process sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryCase {
    /// Keyword count.
    pub m: usize,
    pub body: String,
    /// [`stable_digest`] of the answer computed at set-up.
    pub digest: u64,
}

/// Everything the measured process receives besides the artefacts.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    pub workload: Workload,
    /// `PathIndexes::num_postings` of the index the artefacts hold.
    pub postings: u64,
    /// Bytes of the index artefact the workload boots from.
    pub index_bytes: u64,
    pub ingest_type: String,
    pub ingest_attr: String,
    /// Ingests already applied when the measured process boots (the
    /// write-ahead-log tail); the next one mints `bench vendor <this>`.
    pub ingests_done: u64,
    pub queries: Vec<QueryCase>,
    pub ops: Vec<Op>,
}

impl Plan {
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        out.push_str(&format!("workload {}\n", self.workload.name()));
        out.push_str(&format!("postings {}\n", self.postings));
        out.push_str(&format!("index_bytes {}\n", self.index_bytes));
        out.push_str(&format!("ingest_type {}\n", self.ingest_type));
        out.push_str(&format!("ingest_attr {}\n", self.ingest_attr));
        out.push_str(&format!("ingests_done {}\n", self.ingests_done));
        for q in &self.queries {
            out.push_str(&format!("q {} {:016x} {}\n", q.m, q.digest, q.body));
        }
        for op in &self.ops {
            match op {
                Op::Search(i) => out.push_str(&format!("s {i}\n")),
                Op::Ingest => out.push_str("i\n"),
            }
        }
        std::fs::write(path, out)
    }

    pub fn load(path: &Path) -> Result<Plan, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut plan = Plan {
            workload: Workload::Hot,
            postings: 0,
            index_bytes: 0,
            ingest_type: String::new(),
            ingest_attr: String::new(),
            ingests_done: 0,
            queries: Vec::new(),
            ops: Vec::new(),
        };
        for (n, line) in text.lines().enumerate() {
            let bad = || format!("{}:{}: malformed plan line {line:?}", path.display(), n + 1);
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "workload" => plan.workload = Workload::parse(rest).ok_or_else(bad)?,
                "postings" => plan.postings = rest.parse().map_err(|_| bad())?,
                "index_bytes" => plan.index_bytes = rest.parse().map_err(|_| bad())?,
                "ingest_type" => plan.ingest_type = rest.to_string(),
                "ingest_attr" => plan.ingest_attr = rest.to_string(),
                "ingests_done" => plan.ingests_done = rest.parse().map_err(|_| bad())?,
                "q" => {
                    let mut parts = rest.splitn(3, ' ');
                    let m = parts.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
                    let digest = parts
                        .next()
                        .and_then(|x| u64::from_str_radix(x, 16).ok())
                        .ok_or_else(bad)?;
                    let body = parts.next().ok_or_else(bad)?.to_string();
                    plan.queries.push(QueryCase { m, body, digest });
                }
                "s" => plan.ops.push(Op::Search(rest.parse().map_err(|_| bad())?)),
                "i" => plan.ops.push(Op::Ingest),
                _ => return Err(bad()),
            }
        }
        let pool = plan.queries.len() as u32;
        if plan.ops.is_empty()
            || plan
                .ops
                .iter()
                .any(|op| matches!(op, Op::Search(i) if *i >= pool))
        {
            return Err(format!(
                "{}: empty op list or query index out of range",
                path.display()
            ));
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lists_are_a_function_of_the_seed() {
        let scale = Scale::full();
        for w in Workload::ALL {
            let n = 4 * scale.per_m(w);
            let a = op_list(w, &scale, n, 7);
            assert_eq!(a, op_list(w, &scale, n, 7), "{}: same seed", w.name());
            assert_ne!(a, op_list(w, &scale, n, 8), "{}: other seed", w.name());
        }
    }

    fn sorted_searches(ops: &[Op]) -> Vec<u32> {
        let mut seen: Vec<u32> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Search(i) => Some(*i),
                Op::Ingest => None,
            })
            .collect();
        seen.sort_unstable();
        seen
    }

    #[test]
    fn every_seed_issues_the_same_multiset_of_ops() {
        let scale = Scale::full();
        for w in Workload::ALL {
            let n = 4 * scale.per_m(w);
            let (a, b) = (op_list(w, &scale, n, 1), op_list(w, &scale, n, 2));
            assert_eq!(a.len(), b.len(), "{}", w.name());
            assert_eq!(sorted_searches(&a), sorted_searches(&b), "{}", w.name());
        }
        assert_eq!(op_list(Workload::Hot, &scale, 64, 1).len(), scale.hot_draws);
        // cold visits every query exactly once.
        let cold = op_list(Workload::Cold, &scale, 1200, 1);
        assert_eq!(sorted_searches(&cold), (0..1200).collect::<Vec<u32>>());
        // mixed-write: one ingest after every `searches_per_ingest`
        // searches, each block the same mix.
        let mixed = op_list(Workload::MixedWrite, &scale, 64, 3);
        let block = scale.searches_per_ingest + 1;
        assert_eq!(mixed.len(), scale.ingests_per_pass * block);
        for (i, op) in mixed.iter().enumerate() {
            assert_eq!(*op == Op::Ingest, (i + 1) % block == 0, "op {i}");
        }
        assert_eq!(
            sorted_searches(&mixed[..block]),
            sorted_searches(&mixed[block..2 * block])
        );
    }

    #[test]
    fn the_mix_follows_zipf_exactly() {
        let ops = op_list(Workload::Hot, &Scale::full(), 64, 42);
        let count = |q: u32| ops.iter().filter(|op| **op == Op::Search(q)).count();
        let total: f64 = (1..=64).map(|r| f64::from(r).powf(-0.9)).sum();
        for q in [0u32, 1, 9, 63] {
            let expected = f64::from(q + 1).powf(-0.9) / total * ops.len() as f64;
            assert!(
                (count(q) as f64 - expected).abs() <= 1.0,
                "rank {q}: {} vs {expected}",
                count(q)
            );
        }
        assert!(count(0) > 4 * count(40));
        // Every pool query is drawn at least once, so every one of them
        // is re-executed once per version on `mixed-write`.
        let block = op_list(Workload::MixedWrite, &Scale::full(), 64, 1);
        let first: Vec<u32> = sorted_searches(&block[..Scale::full().searches_per_ingest]);
        assert!((0..64).all(|q| first.contains(&q)));
    }

    #[test]
    fn digest_ignores_volatile_fields_and_sees_the_answer() {
        let body = |cache: &str, version: u64, us: u64, pruned: u64, score: &str| {
            format!(
                "{{\"query\":[\"a\"],\"algorithm\":\"pattern_enum_pruned\",\"planned\":true,\
                 \"cache\":\"{cache}\",\"engine_version\":{version},\"elapsed_us\":{us},\
                 \"stats\":{{\"subtrees\":9,\"patterns\":{pruned},\"combos_pruned\":{pruned}}},\
                 \"patterns\":[{{\"score\":{score}}}]}}"
            )
        };
        let base = stable_digest(&body("miss", 0, 120, 3, "1.5")).unwrap();
        assert_eq!(stable_digest(&body("hit", 9, 7, 4, "1.5")), Some(base));
        assert_ne!(stable_digest(&body("miss", 0, 120, 3, "1.25")), Some(base));
        assert_eq!(stable_digest("{\"error\":{}}"), None);
        assert!(has_patterns(&body("hit", 0, 1, 0, "1")));
        assert!(!has_patterns("{\"stats\":{},\"patterns\":[]}"));
    }

    #[test]
    fn bodies_parse_through_the_wire_api() {
        let s = search_body(&["open".to_string(), "source \"db\"".to_string()]);
        let parsed = patternkb_serve::api::parse_search(s.as_bytes()).unwrap();
        assert_eq!(parsed.request.k, K);
        let i = ingest_body("Company", "Revenue", 12);
        let batch = patternkb_serve::api::parse_ingest(i.as_bytes()).unwrap();
        assert_eq!(batch.mutations.len(), 2);
        assert!(i.contains("ingestmark 12") && i.contains("bench vendor 12"));
    }

    #[test]
    fn plan_round_trips_through_its_file() {
        let plan = Plan {
            workload: Workload::MixedWrite,
            postings: 123,
            index_bytes: 4567,
            ingest_type: "Type Name".into(),
            ingest_attr: "Attr".into(),
            ingests_done: 2,
            queries: vec![
                QueryCase {
                    m: 2,
                    body: search_body(&["alpha".into(), "beta".into()]),
                    digest: 0xDEAD_BEEF_0000_0001,
                },
                QueryCase {
                    m: 1,
                    body: search_body(&["gamma".into()]),
                    digest: 7,
                },
            ],
            ops: vec![Op::Search(1), Op::Ingest, Op::Search(0)],
        };
        let dir = crate::report::out_dir().join(format!("test-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(PLAN_FILE);
        plan.save(&path).unwrap();
        assert_eq!(Plan::load(&path).unwrap(), plan);
        std::fs::write(&path, "workload hot\ns 0\n").unwrap();
        assert!(Plan::load(&path).is_err(), "query index out of range");
        std::fs::remove_dir_all(&dir).ok();
    }
}
