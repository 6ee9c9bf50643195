//! The wire schema: JSON bodies mapping 1:1 onto [`SearchRequest`] /
//! [`SearchResponse`], plus the `/admin/ingest` mutation-batch format.
//!
//! Requests are parsed *strictly*: unknown fields, wrong types, and
//! out-of-range knobs are 400s naming the offending field — a typo'd knob
//! must fail loudly, not silently run with defaults. The response schema
//! mirrors [`SearchResponse`] minus the engine-internal types (patterns
//! render through their table answers and display strings).
//!
//! Ingest bodies are a batch of mutations addressing nodes by stable
//! name or id; [`parse_ingest`] checks the shape (graph-free, so parse
//! errors never hold the writer lock) and [`compile_delta`] resolves the
//! references against one pinned snapshot into a
//! [`patternkb_graph::mutate::GraphDelta`].
//!
//! See the README "Serving" and "Writes" sections for the full field
//! reference.

use crate::json::{count, s, write_array, write_number, write_string, Json};
use patternkb_graph::mutate::{GraphDelta, PagerankMode};
use patternkb_graph::{KnowledgeGraph, NameResolver, NodeId};
use patternkb_search::topk::SamplingConfig;
use patternkb_search::{
    AlgorithmChoice, CacheOutcome, Error, IngestOutcome, SearchEngine, SearchRequest,
    SearchResponse,
};
use std::time::Duration;

/// A parse/validation failure on the request body. Always a 400.
#[derive(Debug)]
pub struct ApiError {
    /// Machine-readable error class.
    pub kind: &'static str,
    /// Human-readable description naming the offending field.
    pub message: String,
}

impl ApiError {
    fn new(kind: &'static str, message: impl Into<String>) -> Self {
        ApiError {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ApiError {}

/// A decoded `/search` body: the engine request plus the request-level
/// deadline override (`timeout_ms`), which the server clamps to its own
/// configured deadline.
#[derive(Debug)]
pub struct ParsedSearch {
    /// The engine request.
    pub request: SearchRequest,
    /// Per-request deadline override.
    pub timeout: Option<Duration>,
}

const FIELDS: [&str; 11] = [
    "q",
    "k",
    "algorithm",
    "max_rows",
    "compose_tables",
    "diversify",
    "relax",
    "explain",
    "strict_trees",
    "sampling",
    "timeout_ms",
];

/// Parse a `/search` body.
pub fn parse_search(body: &[u8]) -> Result<ParsedSearch, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new("bad_body", "request body is not UTF-8"))?;
    let json =
        Json::parse(text).map_err(|e| ApiError::new("bad_json", format!("malformed JSON: {e}")))?;
    let Json::Obj(fields) = &json else {
        return Err(ApiError::new(
            "bad_body",
            "request body must be a JSON object",
        ));
    };
    for (key, _) in fields {
        if !FIELDS.contains(&key.as_str()) {
            return Err(ApiError::new(
                "unknown_field",
                format!("unknown field {key:?}; accepted: {}", FIELDS.join(", ")),
            ));
        }
    }

    let q = json
        .get("q")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::new("missing_field", "field \"q\" (string) is required"))?;
    let mut request = SearchRequest::text(q);

    if let Some(v) = json.get("k") {
        let k = v
            .as_u64()
            .filter(|&k| k >= 1)
            .ok_or_else(|| ApiError::new("bad_field", "\"k\" must be a positive integer"))?;
        request = request.k(k as usize);
    }
    if let Some(v) = json.get("algorithm") {
        let name = v
            .as_str()
            .ok_or_else(|| ApiError::new("bad_field", "\"algorithm\" must be a string"))?;
        let choice = match name {
            "auto" => AlgorithmChoice::Auto,
            "baseline" => AlgorithmChoice::Baseline,
            "pattern_enum" => AlgorithmChoice::PatternEnum,
            "pattern_enum_pruned" => AlgorithmChoice::PatternEnumPruned,
            "linear_enum" => AlgorithmChoice::LinearEnum,
            "linear_enum_topk" => AlgorithmChoice::LinearEnumTopK,
            other => {
                return Err(ApiError::new(
                    "bad_field",
                    format!(
                        "unknown algorithm {other:?}; one of auto, baseline, pattern_enum, \
                         pattern_enum_pruned, linear_enum, linear_enum_topk"
                    ),
                ))
            }
        };
        request = request.algorithm(choice);
    }
    if let Some(v) = json.get("max_rows") {
        let rows = v
            .as_u64()
            .ok_or_else(|| ApiError::new("bad_field", "\"max_rows\" must be an integer"))?;
        request = request.max_rows(rows as usize);
    }
    if let Some(v) = json.get("compose_tables") {
        let on = v
            .as_bool()
            .ok_or_else(|| ApiError::new("bad_field", "\"compose_tables\" must be a bool"))?;
        request = request.compose_tables(on);
    }
    if let Some(v) = json.get("diversify") {
        if !v.is_null() {
            let lambda = v
                .as_f64()
                .filter(|l| (0.0..=1.0).contains(l))
                .ok_or_else(|| {
                    ApiError::new(
                        "bad_field",
                        "\"diversify\" must be a number in [0, 1] or null",
                    )
                })?;
            request = request.diversify(lambda);
        }
    }
    if let Some(v) = json.get("relax") {
        let on = v
            .as_bool()
            .ok_or_else(|| ApiError::new("bad_field", "\"relax\" must be a bool"))?;
        request = request.relax(on);
    }
    if let Some(v) = json.get("explain") {
        let on = v
            .as_bool()
            .ok_or_else(|| ApiError::new("bad_field", "\"explain\" must be a bool"))?;
        request = request.explain(on);
    }
    if let Some(v) = json.get("strict_trees") {
        let on = v
            .as_bool()
            .ok_or_else(|| ApiError::new("bad_field", "\"strict_trees\" must be a bool"))?;
        request = request.strict_trees(on);
    }
    if let Some(v) = json.get("sampling") {
        if let Json::Obj(sub) = v {
            for (key, _) in sub {
                if !matches!(key.as_str(), "lambda" | "rho" | "seed") {
                    return Err(ApiError::new(
                        "unknown_field",
                        format!("unknown field \"sampling.{key}\"; accepted: lambda, rho, seed"),
                    ));
                }
            }
        } else {
            return Err(ApiError::new("bad_field", "\"sampling\" must be an object"));
        }
        let lambda = v
            .get("lambda")
            .and_then(Json::as_u64)
            .ok_or_else(|| ApiError::new("bad_field", "\"sampling.lambda\" must be an integer"))?;
        let rho = v
            .get("rho")
            .and_then(Json::as_f64)
            .filter(|r| *r > 0.0 && *r <= 1.0)
            .ok_or_else(|| {
                ApiError::new("bad_field", "\"sampling.rho\" must be a number in (0, 1]")
            })?;
        let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(42);
        request = request.sampling(SamplingConfig::new(lambda, rho, seed));
    }
    let timeout = match json.get("timeout_ms") {
        None => None,
        Some(v) => Some(Duration::from_millis(
            v.as_u64().filter(|&t| t >= 1).ok_or_else(|| {
                ApiError::new("bad_field", "\"timeout_ms\" must be a positive integer")
            })?,
        )),
    };

    Ok(ParsedSearch { request, timeout })
}

// ---------------------------------------------------------------------
// The ingest wire format (`POST /admin/ingest`).
// ---------------------------------------------------------------------

/// A wire-level node reference: a JSON string is a node *name* (resolved
/// against the pinned snapshot, batch-added names first), a JSON integer
/// is a raw [`NodeId`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeRef {
    /// Address by node id (always unambiguous).
    Id(u32),
    /// Address by node text; must resolve to exactly one node.
    Name(String),
}

impl std::fmt::Display for NodeRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeRef::Id(id) => write!(f, "#{id}"),
            NodeRef::Name(name) => write!(f, "{name:?}"),
        }
    }
}

/// One mutation of an ingest batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Add an entity (`type` is interned if new); its `name` becomes
    /// referenceable by later mutations of the same batch.
    AddNode {
        /// Entity type text.
        type_name: String,
        /// Node text (the batch-local reference name).
        name: String,
    },
    /// Add an attribute edge between two existing-or-batch-added nodes.
    AddEdge {
        /// Edge source.
        source: NodeRef,
        /// Attribute type text (interned if new).
        attr: String,
        /// Edge target.
        target: NodeRef,
    },
    /// Add an attribute whose value is plain text (creates/reuses the
    /// dummy text node).
    AddTextEdge {
        /// Edge source.
        source: NodeRef,
        /// Attribute type text (interned if new).
        attr: String,
        /// The plain-text value.
        value: String,
    },
    /// Remove an existing base-graph edge.
    RemoveEdge {
        /// Edge source.
        source: NodeRef,
        /// Attribute type text.
        attr: String,
        /// Edge target (plain-text values are addressed by their text).
        target: NodeRef,
    },
}

/// A decoded `/admin/ingest` body.
#[derive(Clone, Debug)]
pub struct IngestBatch {
    /// The mutations, in order.
    pub mutations: Vec<Mutation>,
    /// How to refresh PageRank (`"frozen"` default, or `"recompute"`).
    pub mode: PagerankMode,
}

const INGEST_FIELDS: [&str; 2] = ["mutations", "pagerank"];

fn ref_field(v: &Json, path: &str) -> Result<NodeRef, ApiError> {
    match v {
        Json::Str(name) => Ok(NodeRef::Name(name.clone())),
        Json::Num(_) => {
            let id = v
                .as_u64()
                .filter(|&id| id <= u32::MAX as u64)
                .ok_or_else(|| {
                    ApiError::new("bad_field", format!("{path:?} must be a node id (u32)"))
                })?;
            Ok(NodeRef::Id(id as u32))
        }
        _ => Err(ApiError::new(
            "bad_field",
            format!("{path:?} must be a node name (string) or id (integer)"),
        )),
    }
}

fn str_field(m: &Json, path: &str, key: &str) -> Result<String, ApiError> {
    m.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| {
            ApiError::new(
                "missing_field",
                format!("field \"{path}.{key}\" (string) is required"),
            )
        })
}

fn node_ref_field(m: &Json, path: &str, key: &str) -> Result<NodeRef, ApiError> {
    let v = m.get(key).ok_or_else(|| {
        ApiError::new(
            "missing_field",
            format!("field \"{path}.{key}\" (name or id) is required"),
        )
    })?;
    ref_field(v, &format!("{path}.{key}"))
}

fn check_fields(m: &[(String, Json)], path: &str, accepted: &[&str]) -> Result<(), ApiError> {
    for (key, _) in m {
        if !accepted.contains(&key.as_str()) {
            return Err(ApiError::new(
                "unknown_field",
                format!(
                    "unknown field \"{path}.{key}\"; accepted: {}",
                    accepted.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

/// Parse a `/admin/ingest` body (shape only — node references are
/// resolved later by [`compile_delta`] against the pinned snapshot).
pub fn parse_ingest(body: &[u8]) -> Result<IngestBatch, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new("bad_body", "request body is not UTF-8"))?;
    let json =
        Json::parse(text).map_err(|e| ApiError::new("bad_json", format!("malformed JSON: {e}")))?;
    let Json::Obj(fields) = &json else {
        return Err(ApiError::new(
            "bad_body",
            "request body must be a JSON object",
        ));
    };
    for (key, _) in fields {
        if !INGEST_FIELDS.contains(&key.as_str()) {
            return Err(ApiError::new(
                "unknown_field",
                format!(
                    "unknown field {key:?}; accepted: {}",
                    INGEST_FIELDS.join(", ")
                ),
            ));
        }
    }

    let mode = match json.get("pagerank") {
        None => PagerankMode::Frozen,
        Some(v) => match v.as_str() {
            Some("frozen") => PagerankMode::Frozen,
            Some("recompute") => PagerankMode::Recompute,
            _ => {
                return Err(ApiError::new(
                    "bad_field",
                    "\"pagerank\" must be \"frozen\" or \"recompute\"",
                ))
            }
        },
    };

    let items = json
        .get("mutations")
        .and_then(Json::as_arr)
        .ok_or_else(|| {
            ApiError::new(
                "missing_field",
                "field \"mutations\" (non-empty array) is required",
            )
        })?;
    if items.is_empty() {
        return Err(ApiError::new(
            "bad_field",
            "\"mutations\" must not be empty",
        ));
    }

    let mut mutations = Vec::with_capacity(items.len());
    for (i, m) in items.iter().enumerate() {
        let path = format!("mutations[{i}]");
        let Json::Obj(obj) = m else {
            return Err(ApiError::new(
                "bad_field",
                format!("\"{path}\" must be an object"),
            ));
        };
        let op = m.get("op").and_then(Json::as_str).ok_or_else(|| {
            ApiError::new(
                "missing_field",
                format!("field \"{path}.op\" (string) is required"),
            )
        })?;
        let mutation = match op {
            "add_node" => {
                check_fields(obj, &path, &["op", "type", "name"])?;
                Mutation::AddNode {
                    type_name: str_field(m, &path, "type")?,
                    name: str_field(m, &path, "name")?,
                }
            }
            "add_edge" => {
                check_fields(obj, &path, &["op", "source", "attr", "target"])?;
                Mutation::AddEdge {
                    source: node_ref_field(m, &path, "source")?,
                    attr: str_field(m, &path, "attr")?,
                    target: node_ref_field(m, &path, "target")?,
                }
            }
            "add_text_edge" => {
                check_fields(obj, &path, &["op", "source", "attr", "value"])?;
                Mutation::AddTextEdge {
                    source: node_ref_field(m, &path, "source")?,
                    attr: str_field(m, &path, "attr")?,
                    value: str_field(m, &path, "value")?,
                }
            }
            "remove_edge" => {
                check_fields(obj, &path, &["op", "source", "attr", "target"])?;
                Mutation::RemoveEdge {
                    source: node_ref_field(m, &path, "source")?,
                    attr: str_field(m, &path, "attr")?,
                    target: node_ref_field(m, &path, "target")?,
                }
            }
            other => {
                return Err(ApiError::new(
                    "bad_field",
                    format!(
                        "unknown op {other:?} in \"{path}\"; one of add_node, add_edge, \
                         add_text_edge, remove_edge"
                    ),
                ))
            }
        };
        mutations.push(mutation);
    }
    Ok(IngestBatch { mutations, mode })
}

/// Resolve a batch's references against `g` and assemble the
/// [`GraphDelta`]. Runs inside [`patternkb_search::SharedEngine::ingest_with`]'s
/// builder, so `g` is pinned: the delta is guaranteed to apply to exactly
/// this graph. Every failure is a 400-class [`ApiError`] naming the
/// offending mutation.
pub fn compile_delta(g: &KnowledgeGraph, batch: &IngestBatch) -> Result<GraphDelta, ApiError> {
    // The resolver's text→id table costs a full graph pass, and this runs
    // under the writer lock — build it only when a mutation actually
    // addresses a node by name (id-only batches skip it entirely; the
    // lock still pins the snapshot, so lazy construction is equivalent).
    let mut resolver: Option<NameResolver<'_>> = None;
    // Names minted by this batch's add_node ops, consulted before the
    // snapshot so later mutations can reference them.
    let mut local: std::collections::HashMap<&str, NodeId> = std::collections::HashMap::new();
    let mut delta = GraphDelta::new(g);
    fn resolve<'g>(
        g: &'g KnowledgeGraph,
        resolver: &mut Option<NameResolver<'g>>,
        local: &std::collections::HashMap<&str, NodeId>,
        r: &NodeRef,
        path: String,
    ) -> Result<NodeId, ApiError> {
        match r {
            NodeRef::Id(id) => Ok(NodeId(*id)),
            NodeRef::Name(name) => {
                if let Some(&v) = local.get(name.as_str()) {
                    return Ok(v);
                }
                resolver
                    .get_or_insert_with(|| NameResolver::new(g))
                    .resolve(name)
                    .map_err(|e| ApiError::new("unresolved_node", format!("{path}: {e}")))
            }
        }
    }
    for (i, m) in batch.mutations.iter().enumerate() {
        let path = |field: &str| format!("mutations[{i}].{field}");
        let mutated = match m {
            Mutation::AddNode { type_name, name } => {
                let t = delta.add_type(type_name);
                let v = delta.add_node(t, name);
                if let Ok(v) = v {
                    if local.insert(name.as_str(), v).is_some() {
                        return Err(ApiError::new(
                            "duplicate_name",
                            format!(
                                "{}: {name:?} was already added by this batch; \
                                 batch-local names must be unique",
                                path("name")
                            ),
                        ));
                    }
                }
                v.map(|_| ())
            }
            Mutation::AddEdge {
                source,
                attr,
                target,
            } => {
                let s = resolve(g, &mut resolver, &local, source, path("source"))?;
                let t = resolve(g, &mut resolver, &local, target, path("target"))?;
                let a = delta.add_attr(attr);
                delta.add_edge(s, a, t)
            }
            Mutation::AddTextEdge {
                source,
                attr,
                value,
            } => {
                let s = resolve(g, &mut resolver, &local, source, path("source"))?;
                let a = delta.add_attr(attr);
                delta.add_text_edge(s, a, value).map(|_| ())
            }
            Mutation::RemoveEdge {
                source,
                attr,
                target,
            } => {
                let s = resolve(g, &mut resolver, &local, source, path("source"))?;
                let t = resolve(g, &mut resolver, &local, target, path("target"))?;
                match g.attr_by_text(attr) {
                    Some(a) => delta.remove_edge(s, a, t),
                    None => {
                        return Err(ApiError::new(
                            "unresolved_attr",
                            format!("{}: no attribute named {attr:?} exists", path("attr")),
                        ))
                    }
                }
            }
        };
        mutated.map_err(|e| ApiError::new("bad_mutation", format!("mutations[{i}]: {e}")))?;
    }
    Ok(delta)
}

/// Render a successful ingest as the response body.
pub fn render_ingest(outcome: &IngestOutcome, elapsed: Duration) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("version".to_string(), count(outcome.version)),
        (
            "affected_roots".to_string(),
            count(outcome.stats.affected_roots as u64),
        ),
        (
            "stats".to_string(),
            Json::Obj(vec![
                (
                    "postings_dropped".to_string(),
                    count(outcome.stats.postings_dropped as u64),
                ),
                (
                    "postings_kept".to_string(),
                    count(outcome.stats.postings_kept as u64),
                ),
                (
                    "postings_added".to_string(),
                    count(outcome.stats.postings_added as u64),
                ),
                (
                    "patterns_added".to_string(),
                    count(outcome.stats.patterns_added as u64),
                ),
                (
                    "words_rebuilt".to_string(),
                    count(outcome.stats.words_rebuilt as u64),
                ),
                (
                    "graph_chunks_copied".to_string(),
                    count(outcome.graph_chunks_copied as u64),
                ),
            ]),
        ),
        ("elapsed_us".to_string(), count(elapsed.as_micros() as u64)),
    ])
}

/// A rendered `/search` response body; [`SearchBody::render`] hands the
/// text over.
#[derive(Debug)]
pub struct SearchBody(String);

impl SearchBody {
    /// The body text.
    pub fn render(self) -> String {
        self.0
    }
}

/// Render a successful search as the response body. `engine` is the
/// snapshot that answered (for vocabulary/graph rendering and its data
/// version).
///
/// The body is written once, straight from the response's shared tables
/// into one buffer sized for it — no [`Json`] node and no `String` per
/// cell in between: the `patterns` array is ≈ 95 % of a body and, on a
/// cache hit, writing it is most of what the request costs.
pub fn render_response(engine: &SearchEngine, resp: &SearchResponse) -> SearchBody {
    let vocab = engine.text().vocab();
    let write_count = |out: &mut String, n: usize| write_number(n as f64, out);

    // Every cell with its quotes and comma, plus room for the envelope
    // and each pattern's scalar fields.
    let table_bytes: usize = resp
        .tables
        .iter()
        .flat_map(|t| t.rows.iter().flatten().chain(&t.columns))
        .map(|cell| cell.len() + 3)
        .sum();
    let mut out = String::with_capacity(512 + 256 * resp.patterns.len() + table_bytes);

    out.push_str("{\"query\":");
    write_array(&mut out, &resp.query.keywords, |out, &w| {
        write_string(vocab.resolve(w), out)
    });
    out.push_str(",\"algorithm\":");
    write_string(ALGORITHM_NAMES[algorithm_slot(resp)], &mut out);
    out.push_str(",\"planned\":");
    out.push_str(if resp.planned { "true" } else { "false" });
    out.push_str(",\"cache\":");
    out.push_str(match resp.cache {
        CacheOutcome::Hit => "\"hit\"",
        CacheOutcome::Miss => "\"miss\"",
        CacheOutcome::Uncached => "\"uncached\"",
    });
    out.push_str(",\"engine_version\":");
    write_number(engine.version() as f64, &mut out);
    out.push_str(",\"elapsed_us\":");
    write_number(resp.elapsed.as_micros() as u64 as f64, &mut out);

    out.push_str(",\"stats\":{\"candidate_roots\":");
    write_count(&mut out, resp.stats.candidate_roots);
    out.push_str(",\"subtrees\":");
    write_count(&mut out, resp.stats.subtrees);
    out.push_str(",\"patterns\":");
    write_count(&mut out, resp.stats.patterns);
    out.push_str(",\"combos_tried\":");
    write_count(&mut out, resp.stats.combos_tried);
    out.push_str(",\"combos_pruned\":");
    write_count(&mut out, resp.stats.combos_pruned);
    out.push_str(",\"shards\":");
    write_count(&mut out, resp.stats.per_shard.len());
    out.push('}');

    out.push_str(",\"patterns\":");
    write_array(&mut out, resp.patterns.iter().enumerate(), |out, (i, p)| {
        out.push_str("{\"score\":");
        write_number(p.score, out);
        out.push_str(",\"num_trees\":");
        write_count(out, p.num_trees);
        out.push_str(",\"display\":");
        write_string(&p.display(engine.graph()), out);
        if let Some(table) = resp.tables.get(i) {
            let strings = |out: &mut String, cells: &[String]| {
                write_array(out, cells, |out, cell| write_string(cell, out))
            };
            out.push_str(",\"columns\":");
            strings(out, &table.columns);
            out.push_str(",\"rows\":");
            write_array(out, &table.rows, |out, row| strings(out, row));
        }
        out.push('}');
    });

    if !resp.relaxations.is_empty() {
        out.push_str(",\"relaxations\":");
        write_array(&mut out, &resp.relaxations, |out, r| {
            out.push_str("{\"keywords\":");
            write_array(out, &r.keywords, |out, &w| {
                write_string(vocab.resolve(w), out)
            });
            out.push_str(",\"candidate_roots\":");
            write_count(out, r.candidate_roots);
            out.push('}');
        });
    }
    if let Some(explain) = &resp.explain {
        out.push_str(",\"explain\":");
        write_array(&mut out, explain, |out, trace| write_string(trace, out));
    }
    out.push('}');
    SearchBody(out)
}

/// Wire names of the resolved algorithms, indexed by [`algorithm_slot`]
/// (the response's `algorithm` field and the `/metrics` label share them).
pub(crate) const ALGORITHM_NAMES: [&str; 5] = [
    "baseline",
    "pattern_enum",
    "pattern_enum_pruned",
    "linear_enum",
    "linear_enum_topk",
];

pub(crate) fn algorithm_slot(resp: &SearchResponse) -> usize {
    use patternkb_search::Algorithm;
    match resp.algorithm {
        Algorithm::Baseline => 0,
        Algorithm::PatternEnum => 1,
        Algorithm::PatternEnumPruned => 2,
        Algorithm::LinearEnum => 3,
        Algorithm::LinearEnumTopK(_) => 4,
    }
}

/// The `{"error": …}` body for any failure.
pub fn error_json(kind: &str, message: &str, extra: Vec<(String, Json)>) -> Json {
    let mut err = vec![
        ("kind".to_string(), s(kind)),
        ("message".to_string(), s(message)),
    ];
    err.extend(extra);
    Json::Obj(vec![("error".to_string(), Json::Obj(err))])
}

/// Map an engine [`Error`] to `(status, body)`.
pub fn engine_error(e: &Error) -> (u16, Json) {
    match e {
        Error::EmptyQuery => (400, error_json("empty_query", &e.to_string(), vec![])),
        Error::UnknownWords(words) => (
            400,
            error_json(
                "unknown_words",
                &e.to_string(),
                vec![(
                    "words".to_string(),
                    Json::Arr(words.iter().map(|x| s(x.as_str())).collect()),
                )],
            ),
        ),
        Error::InvalidRequest(_) => (400, error_json("invalid_request", &e.to_string(), vec![])),
        Error::Closed => (503, error_json("closed", &e.to_string(), vec![])),
        // A damaged snapshot index stream is a server-side data fault, not
        // a client error; name it so operators can tell it from generic
        // internals.
        Error::Snapshot(_) => (500, error_json("snapshot", &e.to_string(), vec![])),
        _ => (500, error_json("internal", &e.to_string(), vec![])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_defaults() {
        let p = parse_search(br#"{"q": "database company"}"#).unwrap();
        match &p.request.input {
            patternkb_search::request::QueryInput::Text(t) => {
                assert_eq!(t, "database company")
            }
            other => panic!("expected text input, got {other:?}"),
        }
        assert_eq!(p.request.k, 100);
        assert_eq!(p.request.algorithm, AlgorithmChoice::Auto);
        assert!(p.timeout.is_none());
    }

    #[test]
    fn full_request_parses() {
        let p = parse_search(
            br#"{"q":"a b","k":7,"algorithm":"linear_enum_topk","max_rows":3,
                "compose_tables":false,"diversify":0.5,"relax":true,"explain":true,
                "strict_trees":true,"sampling":{"lambda":1000,"rho":0.25,"seed":9},
                "timeout_ms":250}"#,
        )
        .unwrap();
        assert_eq!(p.request.k, 7);
        assert_eq!(p.request.algorithm, AlgorithmChoice::LinearEnumTopK);
        assert_eq!(p.request.max_rows, 3);
        assert!(!p.request.compose_tables);
        assert_eq!(p.request.diversify, Some(0.5));
        assert!(p.request.relax && p.request.explain && p.request.strict_trees);
        assert_eq!(p.request.sampling.lambda, 1000);
        assert_eq!(p.timeout, Some(Duration::from_millis(250)));
    }

    #[test]
    fn unknown_and_bad_fields_are_named() {
        let e = parse_search(br#"{"q":"a","qq":1}"#).unwrap_err();
        assert_eq!(e.kind, "unknown_field");
        assert!(e.message.contains("qq"));

        let e = parse_search(br#"{"k":5}"#).unwrap_err();
        assert_eq!(e.kind, "missing_field");

        for (body, field) in [
            (&br#"{"q":"a","k":0}"#[..], "k"),
            (br#"{"q":"a","k":-1}"#, "k"),
            (br#"{"q":"a","algorithm":"quantum"}"#, "quantum"),
            (br#"{"q":"a","diversify":1.5}"#, "diversify"),
            (br#"{"q":"a","sampling":{"lambda":1,"rho":0}}"#, "rho"),
            // Strictness reaches nested objects too: a typo'd seed must
            // not silently fall back to the default.
            (
                br#"{"q":"a","sampling":{"lambda":1,"rho":0.5,"sed":7}}"#,
                "sampling.sed",
            ),
            (br#"{"q":"a","sampling":7}"#, "sampling"),
            (br#"{"q":"a","timeout_ms":0}"#, "timeout_ms"),
            (br#"{"q":"a","relax":"yes"}"#, "relax"),
        ] {
            let e = parse_search(body).unwrap_err();
            assert!(
                e.message.contains(field),
                "{field}: {} should name it",
                e.message
            );
        }
    }

    #[test]
    fn malformed_bodies_are_typed() {
        assert_eq!(parse_search(b"{oops").unwrap_err().kind, "bad_json");
        assert_eq!(parse_search(b"[1,2]").unwrap_err().kind, "bad_body");
        assert_eq!(parse_search(&[0xff, 0xfe]).unwrap_err().kind, "bad_body");
    }

    fn figure1_graph() -> KnowledgeGraph {
        patternkb_datagen::figure1().0
    }

    #[test]
    fn ingest_batch_parses_and_compiles() {
        let batch = parse_ingest(
            br#"{"mutations":[
                {"op":"add_node","type":"Company","name":"Initech"},
                {"op":"add_text_edge","source":"Initech","attr":"Revenue","value":"US$ 1 million"},
                {"op":"add_edge","source":"SQL Server","attr":"Developer","target":"Initech"},
                {"op":"remove_edge","source":"SQL Server","attr":"Developer","target":"Microsoft"}
            ],"pagerank":"recompute"}"#,
        )
        .unwrap();
        assert_eq!(batch.mutations.len(), 4);
        assert_eq!(batch.mode, PagerankMode::Recompute);
        assert_eq!(
            batch.mutations[0],
            Mutation::AddNode {
                type_name: "Company".into(),
                name: "Initech".into()
            }
        );

        let g = figure1_graph();
        let delta = compile_delta(&g, &batch).unwrap();
        assert_eq!(delta.num_new_nodes(), 2); // Initech + the text value
        assert_eq!(delta.num_added_edges(), 2);
        assert_eq!(delta.num_removed_edges(), 1);
        // The compiled delta actually applies.
        let g2 = delta.apply(&g, PagerankMode::Recompute).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes() + 2);
    }

    #[test]
    fn ingest_default_pagerank_is_frozen_and_ids_work() {
        let batch = parse_ingest(
            br#"{"mutations":[{"op":"add_edge","source":0,"attr":"Developer","target":1}]}"#,
        )
        .unwrap();
        assert_eq!(batch.mode, PagerankMode::Frozen);
        assert_eq!(
            batch.mutations[0],
            Mutation::AddEdge {
                source: NodeRef::Id(0),
                attr: "Developer".into(),
                target: NodeRef::Id(1),
            }
        );
        // Duplicate of an existing edge (addressed purely by id): compile
        // passes shape-wise, the delta itself reports it at apply time
        // (409 on the wire).
        let g = figure1_graph();
        let e = g.edges().next().unwrap();
        let batch = parse_ingest(
            format!(
                r#"{{"mutations":[{{"op":"add_edge","source":{},"attr":{:?},"target":{}}}]}}"#,
                e.source.0,
                g.attr_text(e.attr),
                e.target.0
            )
            .as_bytes(),
        )
        .unwrap();
        let delta = compile_delta(&g, &batch).unwrap();
        assert!(delta.apply(&g, PagerankMode::Frozen).is_err());
    }

    #[test]
    fn ingest_parse_errors_name_the_field() {
        for (body, needle) in [
            (&br#"{"mutations":[]}"#[..], "mutations"),
            (br#"{"mutations":[{"op":"warp"}]}"#, "warp"),
            (
                br#"{"mutations":[{"op":"add_node","type":"T"}]}"#,
                "mutations[0].name",
            ),
            (
                br#"{"mutations":[{"op":"add_node","type":"T","name":"x","extra":1}]}"#,
                "mutations[0].extra",
            ),
            (
                br#"{"mutations":[{"op":"add_edge","source":true,"attr":"A","target":1}]}"#,
                "mutations[0].source",
            ),
            (
                br#"{"mutations":[{"op":"add_node","type":"T","name":"x"}],"pagerank":"sometimes"}"#,
                "pagerank",
            ),
            (br#"{"mutatons":[]}"#, "mutatons"),
        ] {
            let e = parse_ingest(body).unwrap_err();
            assert!(
                e.message.contains(needle),
                "{needle}: {} should name it",
                e.message
            );
        }
    }

    #[test]
    fn ingest_compile_errors_are_typed() {
        let g = figure1_graph();
        // Unknown name.
        let batch = parse_ingest(
            br#"{"mutations":[{"op":"add_text_edge","source":"Hooli","attr":"Revenue","value":"x"}]}"#,
        )
        .unwrap();
        let e = compile_delta(&g, &batch).unwrap_err();
        assert_eq!(e.kind, "unresolved_node");
        assert!(e.message.contains("Hooli"));
        // Unknown attribute on remove (cannot possibly match an edge).
        let batch = parse_ingest(
            br#"{"mutations":[{"op":"remove_edge","source":"SQL Server","attr":"Frobnicates","target":"Microsoft"}]}"#,
        )
        .unwrap();
        let e = compile_delta(&g, &batch).unwrap_err();
        assert_eq!(e.kind, "unresolved_attr");
        // Duplicate batch-local name.
        let batch = parse_ingest(
            br#"{"mutations":[
                {"op":"add_node","type":"Company","name":"Twin"},
                {"op":"add_node","type":"Company","name":"Twin"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(
            compile_delta(&g, &batch).unwrap_err().kind,
            "duplicate_name"
        );
        // Out-of-range id is caught at delta-build time.
        let batch = parse_ingest(
            br#"{"mutations":[{"op":"add_edge","source":9999,"attr":"Developer","target":0}]}"#,
        )
        .unwrap();
        assert_eq!(compile_delta(&g, &batch).unwrap_err().kind, "bad_mutation");
    }

    #[test]
    fn ingest_batch_local_names_resolve_in_order() {
        let g = figure1_graph();
        let batch = parse_ingest(
            br#"{"mutations":[
                {"op":"add_node","type":"Software","name":"DB2"},
                {"op":"add_node","type":"Company","name":"IBM"},
                {"op":"add_edge","source":"DB2","attr":"Developer","target":"IBM"}
            ]}"#,
        )
        .unwrap();
        let delta = compile_delta(&g, &batch).unwrap();
        assert_eq!(delta.num_new_nodes(), 2);
        assert_eq!(delta.num_added_edges(), 1);
        assert!(delta.apply(&g, PagerankMode::Frozen).is_ok());
    }

    #[test]
    fn ingest_render_reports_version_and_stats() {
        let outcome = IngestOutcome {
            stats: patternkb_search::RefreshStats {
                affected_roots: 3,
                postings_dropped: 1,
                postings_kept: 40,
                postings_added: 7,
                patterns_added: 2,
                words_rebuilt: 6,
            },
            version: 5,
            graph_chunks_copied: 2,
        };
        let body = render_ingest(&outcome, Duration::from_micros(1500)).render();
        assert!(body.contains("\"version\":5"));
        assert!(body.contains("\"affected_roots\":3"));
        assert!(body.contains("\"postings_added\":7"));
        assert!(body.contains("\"words_rebuilt\":6"));
        assert!(body.contains("\"graph_chunks_copied\":2"));
        assert!(body.contains("\"elapsed_us\":1500"));
    }

    // ------------------------------------------------------------------
    // The search body: written directly, byte for byte what the `Json`
    // tree rendered.
    // ------------------------------------------------------------------

    /// The tree builder `render_response` was before it wrote the body
    /// directly; kept as the reference the writer must match.
    fn reference_body(engine: &SearchEngine, resp: &SearchResponse) -> Json {
        use crate::json::num;
        let vocab = engine.text().vocab();
        let words = |ids: &[_]| Json::Arr(ids.iter().map(|&w| s(vocab.resolve(w))).collect());
        let strings = |xs: &[String]| Json::Arr(xs.iter().map(|x| s(x.as_str())).collect());
        let field = |k: &str, v: Json| (k.to_string(), v);

        let mut patterns = Vec::new();
        for (i, p) in resp.patterns.iter().enumerate() {
            let mut entry = vec![
                field("score", num(p.score)),
                field("num_trees", count(p.num_trees as u64)),
                field("display", s(p.display(engine.graph()))),
            ];
            if let Some(table) = resp.tables.get(i) {
                entry.push(field("columns", strings(&table.columns)));
                entry.push(field(
                    "rows",
                    Json::Arr(table.rows.iter().map(|row| strings(row)).collect()),
                ));
            }
            patterns.push(Json::Obj(entry));
        }
        let stats = Json::Obj(vec![
            field("candidate_roots", count(resp.stats.candidate_roots as u64)),
            field("subtrees", count(resp.stats.subtrees as u64)),
            field("patterns", count(resp.stats.patterns as u64)),
            field("combos_tried", count(resp.stats.combos_tried as u64)),
            field("combos_pruned", count(resp.stats.combos_pruned as u64)),
            field("shards", count(resp.stats.per_shard.len() as u64)),
        ]);
        let mut fields = vec![
            field("query", words(&resp.query.keywords)),
            field("algorithm", s(ALGORITHM_NAMES[algorithm_slot(resp)])),
            field("planned", Json::Bool(resp.planned)),
            field(
                "cache",
                s(match resp.cache {
                    CacheOutcome::Hit => "hit",
                    CacheOutcome::Miss => "miss",
                    CacheOutcome::Uncached => "uncached",
                }),
            ),
            field("engine_version", count(engine.version())),
            field("elapsed_us", count(resp.elapsed.as_micros() as u64)),
            field("stats", stats),
            field("patterns", Json::Arr(patterns)),
        ];
        if !resp.relaxations.is_empty() {
            let relaxations = resp.relaxations.iter().map(|r| {
                Json::Obj(vec![
                    field("keywords", words(&r.keywords)),
                    field("candidate_roots", count(r.candidate_roots as u64)),
                ])
            });
            fields.push(field("relaxations", Json::Arr(relaxations.collect())));
        }
        if let Some(explain) = &resp.explain {
            fields.push(field("explain", strings(explain)));
        }
        Json::Obj(fields)
    }

    fn assert_body_is_the_tree(engine: &SearchEngine, resp: &SearchResponse, label: &str) {
        let body = render_response(engine, resp).render();
        let tree = reference_body(engine, resp);
        assert_eq!(body, tree.render(), "{label}");
        assert_eq!(
            Json::parse(&body).as_ref(),
            Ok(&tree),
            "{label}: round trip"
        );
    }

    /// A graph whose labels need every escape the writer has.
    fn hostile_graph() -> KnowledgeGraph {
        let mut b = patternkb_graph::GraphBuilder::new();
        let product = b.add_type("Pro\"duct\\");
        let maker = b.add_type("Maker\u{2028}");
        let made_by = b.add_attr("made\tby");
        let motto = b.add_attr("motto\n");
        for (name, by, says) in [
            (
                "widget \"alpha\"",
                "acme\u{1} corp",
                "caf\u{e9} \\ cr\u{e8}me",
            ),
            ("widget beta\u{7}", "acme \u{1f600} labs", "line\r\nbreak"),
            ("widget\u{2029}gamma", "", "\u{0}nul \u{10ffff}"),
        ] {
            let p = b.add_node(product, name);
            let m = b.add_node(maker, by);
            b.add_edge(p, made_by, m);
            b.add_text_edge(m, motto, says);
        }
        b.build()
    }

    #[test]
    fn body_writer_matches_the_tree_builder() {
        use patternkb_search::presentation::PresentationConfig;
        let figure1 = patternkb_search::EngineBuilder::new()
            .graph(figure1_graph())
            .build()
            .unwrap();
        let wiki = patternkb_search::EngineBuilder::new()
            .graph(patternkb_datagen::wiki::wiki(
                &patternkb_datagen::wiki::WikiConfig {
                    entities: 400,
                    seed: 3,
                    ..Default::default()
                },
            ))
            .shards(3)
            .build_shared()
            .unwrap();
        let hostile = patternkb_search::EngineBuilder::new()
            .graph(hostile_graph())
            .build()
            .unwrap();

        let variants = |text: &str| {
            let base = SearchRequest::text(text).k(6);
            [
                base.clone(),
                base.clone().compose_tables(false),
                base.clone().explain(true).relax(true),
                base.clone().diversify(0.4).max_rows(2),
                base.clone()
                    .compose_tables(false)
                    .presentation(PresentationConfig::default()),
                base.algorithm(AlgorithmChoice::LinearEnumTopK)
                    .sampling(SamplingConfig::new(10, 0.5, 7)),
            ]
        };
        let mut bodies = 0;
        for text in [
            "database software company revenue",
            "database",
            // Answerable only after dropping a keyword: `relaxations`.
            "oracle gates",
        ] {
            for (i, request) in variants(text).iter().enumerate() {
                let resp = figure1.respond(request).unwrap();
                assert_body_is_the_tree(&figure1, &resp, &format!("figure1 {text:?} #{i}"));
                bodies += 1;
            }
        }
        for text in ["widget", "acme motto", "widget made maker"] {
            for (i, request) in variants(text).iter().enumerate() {
                let resp = hostile.respond(request).unwrap();
                assert!(!resp.is_empty(), "hostile {text:?} #{i} has answers");
                assert_body_is_the_tree(&hostile, &resp, &format!("hostile {text:?} #{i}"));
                bodies += 1;
            }
        }
        // Through the cache: miss, the hit that fills, a hit that shares.
        let snapshot = wiki.snapshot();
        for text in ["baq", "baq ceq"] {
            for (i, request) in variants(text).iter().enumerate() {
                for round in 0..3 {
                    let resp = wiki.respond_on(&snapshot, request).unwrap();
                    let label = format!("wiki {text:?} #{i} round {round}");
                    assert_body_is_the_tree(&snapshot, &resp, &label);
                    bodies += 1;
                }
            }
        }
        assert_eq!(bodies, 18 + 18 + 36);
    }

    #[test]
    fn golden_figure1_body_pins_the_field_order() {
        let engine = patternkb_search::EngineBuilder::new()
            .graph(figure1_graph())
            .shards(1)
            .build()
            .unwrap();
        let request = SearchRequest::text("oracle revenue")
            .k(2)
            .algorithm(AlgorithmChoice::PatternEnum)
            .explain(true);
        let mut resp = engine.respond(&request).unwrap();
        resp.elapsed = Duration::from_micros(1234);
        resp.explain = Some(vec!["trace\n1".to_string(), "trace \"2\"".to_string()]);
        assert_eq!(
            render_response(&engine, &resp).render(),
            GOLDEN_FIGURE1_BODY
        );

        // No answer: `relaxations` sits between `patterns` and `explain`.
        let request = SearchRequest::text("oracle gates")
            .relax(true)
            .explain(true);
        let mut resp = engine.respond(&request).unwrap();
        resp.elapsed = Duration::from_micros(7);
        assert_eq!(
            render_response(&engine, &resp).render(),
            GOLDEN_FIGURE1_RELAXED
        );
    }

    const GOLDEN_FIGURE1_BODY: &str = concat!(
        r#"{"query":["oracle","revenue"],"algorithm":"pattern_enum","planned":false,"#,
        r#""cache":"uncached","engine_version":0,"elapsed_us":1234,"#,
        r#""stats":{"candidate_roots":2,"subtrees":3,"patterns":3,"combos_tried":3,"#,
        r#""combos_pruned":0,"shards":1},"#,
        r#""patterns":[{"score":1,"num_trees":1,"#,
        r#""display":"[(Company) | (Company) (Revenue)]","#,
        r#""columns":["Company","Revenue"],"rows":[["Oracle Corp","US$ 37 billion"]]},"#,
        r#"{"score":0.75,"num_trees":1,"#,
        r#""display":"[(Software) | (Software) (Developer) (Company) (Revenue)]","#,
        r#""columns":["Software","Developer (Company)","Revenue"],"#,
        r#""rows":[["Oracle DB","Oracle Corp","US$ 37 billion"]]}],"#,
        r#""explain":["trace\n1","trace \"2\""]}"#,
    );

    const GOLDEN_FIGURE1_RELAXED: &str = concat!(
        r#"{"query":["oracle","gate"],"algorithm":"linear_enum","planned":true,"#,
        r#""cache":"uncached","engine_version":0,"elapsed_us":7,"#,
        r#""stats":{"candidate_roots":0,"subtrees":0,"patterns":0,"combos_tried":0,"#,
        r#""combos_pruned":0,"shards":1},"patterns":[],"#,
        r#""relaxations":[{"keywords":["gate"],"candidate_roots":3},"#,
        r#"{"keywords":["oracle"],"candidate_roots":2}],"explain":[]}"#,
    );

    #[test]
    fn miss_and_hit_bodies_differ_only_in_cache_and_elapsed() {
        let (g, _) = patternkb_datagen::figure1();
        let shared = patternkb_search::EngineBuilder::new()
            .graph(g)
            .build_shared()
            .unwrap();
        let snapshot = shared.snapshot();
        let request = parse_search(br#"{"q":"database software company revenue","k":10}"#)
            .unwrap()
            .request;
        let mut bodies = Vec::new();
        for expected in ["miss", "hit", "hit"] {
            let resp = shared.respond_on(&snapshot, &request).unwrap();
            let body = Json::parse(&render_response(&snapshot, &resp).render()).unwrap();
            assert_eq!(body.get("cache").and_then(Json::as_str), Some(expected));
            let Json::Obj(mut fields) = body else {
                panic!("body is an object")
            };
            fields.retain(|(k, _)| k != "cache" && k != "elapsed_us");
            bodies.push(Json::Obj(fields).render());
        }
        assert!(
            bodies[0].contains("\"rows\":[[\"SQL Server\""),
            "{}",
            bodies[0]
        );
        assert_eq!(bodies[0], bodies[1]);
        assert_eq!(bodies[0], bodies[2]);
        assert_eq!(shared.cache_stats().table_fills, 1);
    }

    #[test]
    fn engine_errors_map_to_statuses() {
        assert_eq!(engine_error(&Error::EmptyQuery).0, 400);
        assert_eq!(engine_error(&Error::UnknownWords(vec!["x".into()])).0, 400);
        assert_eq!(engine_error(&Error::Closed).0, 503);
        let (code, body) = engine_error(&Error::UnknownWords(vec!["zebra".into()]));
        assert_eq!(code, 400);
        assert!(body.render().contains("zebra"));
    }
}
