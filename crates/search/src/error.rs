//! The one error type of the query route.
//!
//! Everything that can go wrong between a raw request and a
//! [`crate::SearchResponse`] surfaces here as a typed variant instead of a
//! panic: parse failures ([`Error::EmptyQuery`], [`Error::UnknownWords`]),
//! invalid request knobs ([`Error::InvalidRequest`]), mutation conflicts
//! ([`Error::Delta`]) and persistence I/O ([`Error::Io`]). `From`
//! conversions from the lower-level error types mean `?` works throughout
//! the engine internals.

use crate::query::ParseError;
use patternkb_graph::mutate::DeltaError;

/// Why a request could not be served. Non-exhaustive: new variants may be
/// added as the serving surface grows.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The query text contained no tokens at all.
    EmptyQuery,
    /// Some keywords never occur in the knowledge base (canonical forms
    /// listed); they can match nothing, so the query has zero answers by
    /// construction.
    UnknownWords(Vec<String>),
    /// The request's knobs are inconsistent (`k = 0`, a sampling rate
    /// outside `(0, 1]`, …). The message names the offending field.
    InvalidRequest(String),
    /// A graph mutation was rejected (stale base, unknown node, …).
    Delta(DeltaError),
    /// Persistence (index snapshot save/load) failed.
    Io(std::io::Error),
    /// The write-ahead log could not make an ingest durable (append or
    /// fsync failure). The delta was **not** applied — a write that is
    /// not durable is never made visible.
    Durability(std::io::Error),
    /// A snapshot index stream needed by this query is damaged (on
    /// either tier): the deferred per-word decode failed with a typed snapshot
    /// error carrying the byte offset of the corruption. The engine
    /// refuses to answer from a partial index rather than silently
    /// treating the word as absent.
    Snapshot(patternkb_graph::snapshot::SnapshotError),
    /// The engine builder was not given a graph source.
    MissingGraph,
    /// The serving handle was closed ([`crate::SharedEngine::close`]);
    /// no new queries are admitted.
    Closed,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::EmptyQuery => write!(f, "empty query"),
            Error::UnknownWords(ws) => {
                write!(
                    f,
                    "keywords not found in the knowledge base: {}",
                    ws.join(", ")
                )
            }
            Error::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            Error::Delta(e) => write!(f, "graph mutation rejected: {e}"),
            Error::Io(e) => write!(f, "index persistence failed: {e}"),
            Error::Durability(e) => write!(f, "ingest not made durable: {e}"),
            Error::Snapshot(e) => write!(f, "index stream is damaged: {e}"),
            Error::MissingGraph => write!(f, "engine builder needs a graph (EngineBuilder::graph)"),
            Error::Closed => write!(f, "engine is shutting down; no new queries admitted"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Delta(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Durability(e) => Some(e),
            Error::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        match e {
            ParseError::Empty => Error::EmptyQuery,
            ParseError::UnknownWords(ws) => Error::UnknownWords(ws),
        }
    }
}

impl From<DeltaError> for Error {
    fn from(e: DeltaError) -> Self {
        Error::Delta(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_convert() {
        let e: Error = ParseError::Empty.into();
        assert!(matches!(e, Error::EmptyQuery));
        let e: Error = ParseError::UnknownWords(vec!["zebra".into()]).into();
        match &e {
            Error::UnknownWords(ws) => assert_eq!(ws, &["zebra".to_string()]),
            other => panic!("expected UnknownWords, got {other:?}"),
        }
        assert!(e.to_string().contains("zebra"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        use std::error::Error as _;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Error::EmptyQuery.to_string(), "empty query");
        assert!(Error::Closed.to_string().contains("shutting down"));
        assert!(Error::MissingGraph.to_string().contains("graph"));
        assert!(Error::InvalidRequest("k must be >= 1".into())
            .to_string()
            .contains("k must be >= 1"));
    }
}
