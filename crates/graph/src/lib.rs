//! Graph substrate for the rSLPA reproduction.
//!
//! This crate provides everything the higher layers need to talk about
//! *distributed, dynamic, undirected, unweighted ("binary") graphs*:
//!
//! * [`AdjacencyGraph`] — a mutable adjacency-list store with sorted
//!   neighbor lists, the working representation for dynamic graphs.
//! * [`CsrGraph`] — an immutable compressed-sparse-row snapshot used by
//!   read-only passes (post-processing, metrics, partitioning).
//! * [`EditBatch`] / [`DynamicGraph`] — validated batches of edge
//!   insertions and deletions plus the per-vertex neighborhood deltas the
//!   incremental algorithm consumes (paper §IV).
//! * [`rng`] — a deterministic, counter-based random number generator so
//!   that every random pick made by Algorithm 1 is a pure function of
//!   `(seed, vertex, iteration, epoch)`. This is what makes label
//!   propagation *trackable* ("pretend that we use the same series of
//!   random numbers", paper §IV-A).
//! * [`fxhash`] — an FxHash-style fast hasher (integer-keyed hash maps are
//!   on the hot path everywhere; the std SipHash is measurably slower).
//! * [`connectivity`] — sequential union-find connected components, the
//!   centralized counterpart of the distributed hash-to-min pass.
//! * [`partition`] — vertex partitioners for the distributed simulator
//!   and the sharded serve path (hash, block, BFS-locality, and
//!   community-aligned planned partitions).
//! * [`sharding`] — partition-aware edit routing and boundary-vertex
//!   bookkeeping for sharded maintenance.
//! * [`io`] — plain-text edge-list reading/writing and the paper's data
//!   preparation pipeline (symmetrize, dedupe, drop self-loops, §V-B1).
//!
//! # Example
//!
//! ```
//! use rslpa_graph::{AdjacencyGraph, DynamicGraph, EditBatch};
//!
//! let g = AdjacencyGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
//! let mut dg = DynamicGraph::new(g);
//! let applied = dg.apply(&EditBatch::from_lists([(0, 3)], [(1, 2)])).unwrap();
//! assert_eq!(dg.graph().num_edges(), 3);
//! // Per-vertex neighborhood deltas drive incremental repair downstream.
//! assert!(applied.deltas[&0].added.contains(&3));
//! assert!(applied.deltas[&1].removed.contains(&2));
//! ```

pub mod adjacency;
pub mod builder;
pub mod connectivity;
pub mod cover;
pub mod csr;
pub mod dynamic;
pub mod edits;
pub mod fxhash;
pub mod io;
pub mod mem;
pub mod partition;
pub mod rng;
pub mod sharding;
pub mod slab;
pub mod stats;

pub use adjacency::AdjacencyGraph;
pub use builder::GraphBuilder;
pub use connectivity::{connected_components, UnionFind};
pub use cover::Cover;
pub use csr::CsrGraph;
pub use dynamic::{AppliedBatch, DynamicGraph, VertexDelta};
pub use edits::{EditBatch, EditError};
pub use fxhash::{FxHashMap, FxHashSet};
pub use mem::{MemAccounted, MemFootprint};
pub use partition::{BlockPartitioner, HashPartitioner, HubPull, Partitioner, PlannedPartitioner};
pub use rng::{DetRng, PickKey};
pub use sharding::{compact_slot_deltas, split_deltas, BoundaryTracker, SlotDelta};
pub use slab::SlabRows;
pub use stats::GraphStats;

/// Vertex identifier. Graphs are addressed with dense ids `0..n`.
///
/// `u32` keeps the per-label provenance state of rSLPA at 4 bytes per entry
/// (the paper's largest graph has 6.65M vertices, well within range).
pub type VertexId = u32;

/// A community label. Labels are seeded with vertex ids (paper §II-B), so
/// they share the vertex id space.
pub type Label = u32;
