//! Dataset construction for the experiments binary,
//! with on-disk snapshot caching so repeated runs skip regeneration.

use patternkb_datagen::{imdb, wiki, ImdbConfig, WikiConfig};
use patternkb_graph::{snapshot, KnowledgeGraph};
use std::path::PathBuf;

/// Experiment scale, selecting generator configs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast graphs for CI and quick local runs.
    Small,
    /// The default experiment scale (minutes end-to-end).
    Full,
}

impl Scale {
    /// Parse from a CLI flag / env string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Wiki generator config for a scale.
pub fn wiki_config(scale: Scale) -> WikiConfig {
    match scale {
        Scale::Small => WikiConfig {
            entities: 3_000,
            types: 40,
            attrs_per_type: 4,
            attr_pool: 25,
            vocab: 400,
            avg_degree: 4.0,
            value_pool: 120,
            seed: 42,
            ..WikiConfig::default()
        },
        Scale::Full => WikiConfig::default(),
    }
}

/// IMDB generator config for a scale.
pub fn imdb_config(scale: Scale) -> ImdbConfig {
    match scale {
        Scale::Small => ImdbConfig {
            movies: 2_000,
            seed: 42,
        },
        Scale::Full => ImdbConfig::default(),
    }
}

fn cache_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("patternkb-datasets");
    std::fs::create_dir_all(&dir).ok();
    dir
}

fn cached(name: &str, make: impl FnOnce() -> KnowledgeGraph) -> KnowledgeGraph {
    let path = cache_dir().join(format!("{name}.pkbg"));
    if let Ok(g) = snapshot::load(&path) {
        return g;
    }
    let g = make();
    snapshot::save(&g, &path).ok();
    g
}

/// The Wiki-like dataset at `scale` (cached under the system temp dir).
pub fn wiki_graph(scale: Scale) -> KnowledgeGraph {
    let cfg = wiki_config(scale);
    cached(&format!("wiki-{}-{}", cfg.entities, cfg.seed), || {
        wiki(&cfg)
    })
}

/// The IMDB-like dataset at `scale`.
pub fn imdb_graph(scale: Scale) -> KnowledgeGraph {
    let cfg = imdb_config(scale);
    cached(&format!("imdb-{}-{}", cfg.movies, cfg.seed), || imdb(&cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn small_graphs_build_and_cache() {
        let a = wiki_graph(Scale::Small);
        let b = wiki_graph(Scale::Small); // cache hit
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        let i = imdb_graph(Scale::Small);
        assert!(i.num_nodes() > 2_000);
    }
}
