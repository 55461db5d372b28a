//! Partition-aware edit routing and boundary bookkeeping for sharded
//! maintenance.
//!
//! A sharded maintenance pipeline owns one adjacency + repair state slice
//! per [`Partitioner`] part. Two pieces of graph-level plumbing live here:
//!
//! * [`split_deltas`] — route the per-vertex neighborhood deltas of an
//!   [`AppliedBatch`] to their owner shards. Every delta lands on exactly
//!   one shard (its vertex's owner); nothing is dropped or duplicated —
//!   the property the serve router's correctness rests on.
//! * [`BoundaryTracker`] — incremental bookkeeping of *boundary vertices*
//!   (vertices with at least one neighbor owned by another shard) and the
//!   cut-edge count. Boundary vertices are exactly the ones whose label
//!   corrections may cross shards, so their count bounds the
//!   boundary-exchange traffic per flush.
//! * [`SlotDelta`] / [`compact_slot_deltas`] — the unit of streaming
//!   edge-weight maintenance: a label-slot value change emitted by a
//!   repair engine, shipped (possibly across a shard boundary) to
//!   whoever maintains per-edge common-label counters. Compaction
//!   collapses a slot's intra-flush rewrite chain `a→b→c` into the net
//!   `a→c` so counter work tracks *net* label movement, not cascade
//!   traffic.

use crate::dynamic::{AppliedBatch, VertexDelta};
use crate::edits::EditBatch;
use crate::fxhash::FxHashMap;
use crate::partition::Partitioner;
use crate::{AdjacencyGraph, Label, VertexId};

/// One label-slot value change: vertex `v`'s slot `slot` went from `old`
/// to `new` during a repair.
///
/// This is the routing unit of streaming edge-weight maintenance: every
/// counter `common_uv = Σ_l f_u(l)·f_v(l)` incident to `v` moves by
/// exactly `f_w(new) - f_w(old)` per neighbor `w`, so a delta stream is
/// all a counter store needs to stay exact — no histogram re-merge.
/// Engines must emit deltas in application order per `(v, slot)` (the
/// chain `old → new` values must compose); interleaving across distinct
/// slots or vertices is unconstrained because counter updates commute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotDelta {
    /// The vertex whose label sequence changed.
    pub v: VertexId,
    /// The slot (iteration index, `1..=T`) that changed.
    pub slot: u32,
    /// Value before the change.
    pub old: Label,
    /// Value after the change.
    pub new: Label,
}

/// Collapse a flush's slot-delta stream to its net effect: per `(v, slot)`
/// the chain `a→b`, `b→c` becomes `a→c`, and chains that return to their
/// starting value (`a→…→a`) are dropped entirely.
///
/// Cascade repair can rewrite one slot several times per flush (a repick
/// followed by corrections arriving from upstream); counter maintenance
/// pays `O(deg)` per surviving delta, so compaction bounds that cost by
/// *net* label movement. Output order is first-occurrence order, which
/// preserves per-slot chaining by construction (one delta per slot
/// remains).
pub fn compact_slot_deltas(deltas: &[SlotDelta]) -> Vec<SlotDelta> {
    let mut index: FxHashMap<(VertexId, u32), usize> = FxHashMap::default();
    let mut out: Vec<SlotDelta> = Vec::new();
    for d in deltas {
        match index.get(&(d.v, d.slot)) {
            Some(&i) => {
                debug_assert_eq!(out[i].new, d.old, "slot-delta chain broken");
                out[i].new = d.new;
            }
            None => {
                index.insert((d.v, d.slot), out.len());
                out.push(*d);
            }
        }
    }
    out.retain(|d| d.old != d.new);
    out
}

/// Route an applied batch's per-vertex deltas to their owner shards.
///
/// Returns one list per shard, sorted by vertex id (deterministic
/// processing order for the shard workers). The union of the lists is
/// exactly `applied.deltas`: each affected vertex appears once, on the
/// shard `p.assign(v)`.
pub fn split_deltas(
    applied: &AppliedBatch,
    p: &dyn Partitioner,
) -> Vec<Vec<(VertexId, VertexDelta)>> {
    let mut per_shard: Vec<Vec<(VertexId, VertexDelta)>> = vec![Vec::new(); p.num_parts()];
    for (&v, delta) in &applied.deltas {
        per_shard[p.assign(v)].push((v, delta.clone()));
    }
    for shard in &mut per_shard {
        shard.sort_unstable_by_key(|(v, _)| *v);
    }
    per_shard
}

/// Incremental boundary-vertex and cut-edge bookkeeping under a fixed
/// partitioner.
///
/// `remote_deg[v]` counts v's neighbors owned by other shards; `v` is a
/// boundary vertex of its owner shard while that count is positive. Both
/// the per-shard boundary counts and the global cut-edge count are
/// maintained in `O(batch)` per edit batch.
#[derive(Clone, Debug)]
pub struct BoundaryTracker {
    remote_deg: Vec<u32>,
    boundary_per_shard: Vec<usize>,
    cut_edges: usize,
}

impl BoundaryTracker {
    /// Scan `graph` once and build the initial bookkeeping.
    pub fn new(graph: &AdjacencyGraph, p: &dyn Partitioner) -> Self {
        let n = graph.num_vertices();
        let mut tracker = Self {
            remote_deg: vec![0; n],
            boundary_per_shard: vec![0; p.num_parts()],
            cut_edges: 0,
        };
        for (u, v) in graph.edges() {
            if p.assign(u) != p.assign(v) {
                tracker.note_cut_edge(u, v, p, true);
            }
        }
        tracker
    }

    /// Grow the vertex space to `n` (new vertices start interior).
    pub fn ensure_vertices(&mut self, n: usize) {
        if self.remote_deg.len() < n {
            self.remote_deg.resize(n, 0);
        }
    }

    /// Account for one applied edit batch (must be the batch that was
    /// actually applied, after net resolution).
    pub fn apply(&mut self, batch: &EditBatch, p: &dyn Partitioner) {
        for &(u, v) in batch.insertions() {
            self.ensure_vertices(u.max(v) as usize + 1);
            if p.assign(u) != p.assign(v) {
                self.note_cut_edge(u, v, p, true);
            }
        }
        for &(u, v) in batch.deletions() {
            if p.assign(u) != p.assign(v) {
                self.note_cut_edge(u, v, p, false);
            }
        }
    }

    fn note_cut_edge(&mut self, u: VertexId, v: VertexId, p: &dyn Partitioner, inserted: bool) {
        for w in [u, v] {
            let deg = &mut self.remote_deg[w as usize];
            if inserted {
                *deg += 1;
                if *deg == 1 {
                    self.boundary_per_shard[p.assign(w)] += 1;
                }
            } else {
                debug_assert!(*deg > 0, "cut-edge deletion under zero remote degree");
                *deg -= 1;
                if *deg == 0 {
                    self.boundary_per_shard[p.assign(w)] -= 1;
                }
            }
        }
        if inserted {
            self.cut_edges += 1;
        } else {
            self.cut_edges -= 1;
        }
    }

    /// Edges whose endpoints live on different shards.
    pub fn cut_edges(&self) -> usize {
        self.cut_edges
    }

    /// Boundary-vertex count per shard.
    pub fn boundary_per_shard(&self) -> &[usize] {
        &self.boundary_per_shard
    }

    /// Total boundary vertices across all shards.
    pub fn boundary_vertices(&self) -> usize {
        self.boundary_per_shard.iter().sum()
    }

    /// Whether `v` currently has an off-shard neighbor.
    pub fn is_boundary(&self, v: VertexId) -> bool {
        self.remote_deg.get(v as usize).is_some_and(|&deg| deg > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicGraph;
    use crate::partition::BlockPartitioner;

    fn two_blocks() -> AdjacencyGraph {
        // Vertices 0..3 on shard 0, 4..7 on shard 1 (block partitioner).
        AdjacencyGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (4, 5),
                (5, 6),
                (6, 7),
                (3, 4),
                (0, 7),
            ],
        )
    }

    #[test]
    fn split_deltas_routes_every_vertex_once() {
        let mut dg = DynamicGraph::new(two_blocks());
        let p = BlockPartitioner::new(8, 2);
        let applied = dg
            .apply(&EditBatch::from_lists([(0, 5)], [(3, 4)]))
            .unwrap();
        let split = split_deltas(&applied, &p);
        assert_eq!(split.len(), 2);
        let mut seen: Vec<VertexId> = Vec::new();
        for (shard, deltas) in split.iter().enumerate() {
            for (v, delta) in deltas {
                assert_eq!(p.assign(*v), shard, "vertex {v} on wrong shard");
                assert_eq!(&applied.deltas[v], delta, "delta mutated in routing");
                seen.push(*v);
            }
            assert!(deltas.windows(2).all(|w| w[0].0 < w[1].0), "unsorted");
        }
        seen.sort_unstable();
        assert_eq!(seen, applied.affected_vertices(), "dropped or duplicated");
    }

    #[test]
    fn boundary_tracker_initial_scan() {
        let g = two_blocks();
        let p = BlockPartitioner::new(8, 2);
        let t = BoundaryTracker::new(&g, &p);
        // Cut edges: (3,4) and (0,7).
        assert_eq!(t.cut_edges(), 2);
        assert_eq!(t.boundary_per_shard(), &[2, 2]);
        for v in [0u32, 3, 4, 7] {
            assert!(t.is_boundary(v), "{v}");
        }
        for v in [1u32, 2, 5, 6] {
            assert!(!t.is_boundary(v), "{v}");
        }
    }

    #[test]
    fn boundary_tracker_follows_edits() {
        let g = two_blocks();
        let p = BlockPartitioner::new(8, 2);
        let mut t = BoundaryTracker::new(&g, &p);
        // Delete one cut edge, insert two new ones (one reusing vertex 0).
        let batch = EditBatch::from_lists([(0, 6), (1, 5)], [(3, 4)]);
        t.apply(&batch, &p);
        assert_eq!(t.cut_edges(), 3);
        assert!(!t.is_boundary(3), "lost its only remote neighbor");
        assert!(!t.is_boundary(4));
        assert!(t.is_boundary(1) && t.is_boundary(5) && t.is_boundary(6));
        assert_eq!(t.boundary_vertices(), 5); // {0, 1} | {5, 6, 7}
    }

    #[test]
    fn compact_collapses_chains_and_drops_round_trips() {
        let d = |v, slot, old, new| SlotDelta { v, slot, old, new };
        let stream = [
            d(3, 1, 7, 9), // chains with the next 3→…
            d(5, 2, 1, 4), // survives untouched
            d(3, 1, 9, 2), // 7→9→2 nets to 7→2
            d(6, 4, 8, 3), // round-trips with the next 6→…
            d(6, 4, 3, 8), // 8→3→8 nets to nothing
            d(3, 3, 0, 1), // same vertex, different slot: independent
        ];
        let net = compact_slot_deltas(&stream);
        assert_eq!(
            net,
            vec![d(3, 1, 7, 2), d(5, 2, 1, 4), d(3, 3, 0, 1)],
            "first-occurrence order, chained values, round-trips dropped"
        );
    }

    #[test]
    fn compact_of_empty_stream_is_empty() {
        assert!(compact_slot_deltas(&[]).is_empty());
    }

    #[test]
    fn tracker_matches_fresh_scan_after_churn() {
        let mut dg = DynamicGraph::new(two_blocks());
        let p = BlockPartitioner::new(16, 2);
        let mut t = BoundaryTracker::new(dg.graph(), &p);
        let batches = [
            EditBatch::from_lists([(0, 4), (2, 6)], [(0, 7)]),
            EditBatch::from_lists([(1, 7)], [(3, 4), (0, 4)]),
            EditBatch::from_lists([(8, 0), (8, 9)], []),
        ];
        for batch in &batches {
            let max = batch
                .insertions()
                .iter()
                .flat_map(|&(u, v)| [u, v])
                .max()
                .unwrap_or(0);
            dg.ensure_vertices(max as usize + 1);
            t.ensure_vertices(max as usize + 1);
            dg.apply(batch).unwrap();
            t.apply(batch, &p);
            let fresh = BoundaryTracker::new(dg.graph(), &p);
            assert_eq!(t.cut_edges(), fresh.cut_edges());
            assert_eq!(t.boundary_per_shard(), fresh.boundary_per_shard());
        }
    }
}
