//! # patternkb-bench
//!
//! Helpers for the `experiments` binary, which regenerates every table
//! and figure of the paper's §5: cached datasets, the paper's log₁₀
//! buckets and min/geo/max error bars, and plain-text reports. The crate
//! also ships `loadgen`, the HTTP load generator the `serve-*` CI legs
//! drive. Performance numbers that are gated live in `benchmark/` (see
//! `BENCHMARK.json`), not here.

#![warn(missing_docs)]

pub mod buckets;
pub mod datasets;
pub mod report;
pub mod timing;

pub use buckets::bucket_of;
pub use report::Report;
pub use timing::ErrorBar;
