//! # rslpa-serve — live community serving over a mutating graph
//!
//! The paper's deployment story (§V-B3) is "let the algorithm handle
//! changes continuously, and calculate the communities once per hour".
//! This crate turns that sentence into a subsystem: a long-lived
//! in-memory service that ingests edge edits while answering community
//! queries, with the two sides decoupled so neither waits on the other.
//!
//! ## Architecture
//!
//! ```text
//!  writers ──▶ EditQueue ──▶ coordinator ──▶ router ─┬▶ shard worker 0 ◀─┐
//!             (micro-batch    net-resolve   (deltas  ├▶ shard worker 1 ◀─┤ p2p mailbox
//!              per policy)    + growth)     by owner)└▶ shard worker N ◀─┘ mesh rounds
//!                                  │                    (each owns its label rows;
//!                                  │                     replies carry slot deltas)
//!                                  │ shards = 1: the       │ shards > 1: the
//!                                  │ detector's slot       │ workers' slot deltas,
//!                                  ▼ deltas                ▼ in reply order
//!                        one EdgeCounters store on the coordinator ──▶ snapshot ──▶ SnapshotStore
//!                        (publish reads weights off exact counters,    build        (epoch chain)
//!                         never re-merging a surviving edge)                            │
//!  readers ◀─────────────────── lock-free refresh ◀────────────────────────────────────┘
//! ```
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the full
//! layer-by-layer book, including the counter invariant and a worked
//! example.
//!
//! * [`queue`] — MPSC ingestion queue carrying [`EditOp`]s, barriers, and
//!   shutdown, in submission order.
//! * [`policy`] — pluggable micro-batching: flush by size (with a linger
//!   bound for partial batches), or only at explicit barriers.
//! * [`maintain`] — the maintenance coordinator; folds op soup into valid
//!   [`EditBatch`](rslpa_graph::EditBatch)es (net-effect resolution),
//!   repairs the label state through the engine, has the engine fold
//!   the repair's slot changes into its edge-weight counters, and publishes
//!   snapshots by reading weights off exact integer counters (no
//!   histogram is ever re-merged for a surviving edge).
//! * `shards` (internal) — the repair engine: a single-writer
//!   [`RslpaDetector`](rslpa_core::RslpaDetector) at `shards = 1` (the
//!   default), or per-partition workers on a peer-to-peer mailbox mesh,
//!   re-partitioned around each published cover, at `shards > 1` — in
//!   front of one counter store either way. Rosters are bit-identical
//!   across shard counts.
//! * [`snapshot`] — versioned immutable [`CommunitySnapshot`]s linked into
//!   an epoch chain; readers advance with atomic loads only and can pin
//!   any epoch indefinitely.
//! * [`query`] — vertex membership, community roster, vertex overlap, and
//!   epoch-to-epoch membership diffs, all latency-accounted.
//! * [`stats`] — wait-free latency histograms, plus one locked record of
//!   every counter (global, per-shard, and boundary-exchange); p50/p99
//!   summaries resolved to log₂-bucket geometric means.
//!
//! The facade is [`CommunityService`]; see its docs for a runnable
//! example.

pub(crate) mod hubs;
pub mod maintain;
pub mod policy;
pub mod query;
pub mod queue;
pub mod service;
pub(crate) mod shards;
pub mod snapshot;
pub mod stats;

pub use policy::{BarrierOnly, BySize, FlushPolicy};
pub use query::QueryEngine;
pub use queue::EditOp;
pub use service::{CommunityService, IngestHandle, ServeConfig, ServiceClosed, TraceOptions};
pub use snapshot::{
    fingerprint_weights, membership_diff, CommunitySnapshot, MembershipDiff, SnapshotReader,
    SnapshotStore,
};
pub use stats::{
    HistogramSnapshot, LatencyHistogram, LatencySummary, QualityWindow, ServeStats, ShardCounts,
    StatsReport,
};

// Re-exported so downstream crates (the CLI, the bench harness) can drive
// the flight recorder without a direct `rslpa_trace` dependency.
pub use rslpa_trace as trace;
