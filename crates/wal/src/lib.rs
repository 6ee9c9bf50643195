//! # patternkb-wal
//!
//! The durability subsystem: a write-ahead log of serialized
//! [`patternkb_graph::mutate::GraphDelta`] payloads plus the checkpoint
//! files that bound its replay cost. Together they make the online write
//! path crash-safe — an acked ingest survives `SIGKILL`, and boot cost is
//! `O(checkpoint + tail)`, not `O(history)`.
//!
//! ## The log ([`Wal`])
//!
//! One append-only file of length-prefixed, CRC-checksummed,
//! monotonically versioned records (format details on [`Wal`]). Appends
//! are acked by **group commit**: they buffer into the OS file and a
//! dedicated flusher thread fsyncs as soon as it can; every record that
//! accumulated while the previous fsync was in flight is made durable by
//! the next one, and all its waiting callers are woken by that single
//! shared fsync. [`Wal::sync`] returns only after an fsync covering its
//! record.
//!
//! ## Recovery ([`replay`])
//!
//! Replay walks the log and stops cleanly at the first torn or corrupt
//! tail record — a crash mid-append loses at most the unacked suffix,
//! and [`Wal::open`] truncates it so the next append continues from the
//! last good record. A damaged log never refuses to boot.
//!
//! ## Checkpoints ([`checkpoint`])
//!
//! A checkpoint file freezes the engine's graph + index snapshot at one
//! version; [`Wal::rotate`] then atomically truncates the log (write a
//! fresh log holding only the newer tail, `rename` over the old one), so
//! the log never grows without bound.
//!
//! The crate stores opaque payload bytes — `patternkb-search` owns the
//! mapping between payloads and engine deltas, and `patternkb-serve`
//! exposes the log's counters under `/metrics`.

#![warn(missing_docs)]

pub mod checkpoint;
mod crc;
pub mod log;

pub use crc::crc32;
pub use log::{replay, FsyncStats, Record, ReplaySummary, Ticket, Wal, WalOptions, FSYNC_BOUNDS};
