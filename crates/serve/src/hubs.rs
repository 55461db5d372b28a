//! Forming-hub detection for hub-aware repartitioning.
//!
//! The flash-crowd failure mode starts as a degree signal: a handful of
//! vertices gain edges much faster than everyone else, and by the time
//! the published cover reflects the new structure, their spokes are
//! scattered across shards and every correction wave pays the boundary
//! exchange. [`HubTracker`] watches net degree deltas between
//! repartitions and nominates the top gainers as
//! [`HubPull`](rslpa_graph::HubPull)s, which the publish-time
//! repartition pins — spokes and all — onto one shard.

use rslpa_graph::{AdjacencyGraph, EditBatch, FxHashMap, HubPull, VertexId};

/// How many top degree-gainers a single repartition may pull.
const TOP_K: usize = 8;

/// Minimum net degree gain since the last repartition for a vertex to
/// count as a forming hub. Ordinary churn (a few edges per vertex per
/// window) stays well below this; a flash crowd's anchors blow past it.
const MIN_DELTA: i64 = 16;

/// Net per-vertex degree deltas since the last repartition.
#[derive(Debug, Default)]
pub struct HubTracker {
    deltas: FxHashMap<VertexId, i64>,
}

impl HubTracker {
    /// Fold one applied edit batch into the per-vertex deltas: +1 per
    /// endpoint of an inserted edge, −1 per endpoint of a deleted one.
    pub fn note_batch(&mut self, batch: &EditBatch) {
        for &(u, v) in batch.insertions() {
            *self.deltas.entry(u).or_insert(0) += 1;
            *self.deltas.entry(v).or_insert(0) += 1;
        }
        for &(u, v) in batch.deletions() {
            *self.deltas.entry(u).or_insert(0) -= 1;
            *self.deltas.entry(v).or_insert(0) -= 1;
        }
    }

    /// Largest net degree gain currently tracked (a publish-window gauge;
    /// 0 when nothing gained).
    pub fn max_degree_delta(&self) -> i64 {
        self.deltas.values().copied().max().unwrap_or(0).max(0)
    }

    /// Nominate the forming hubs — the top [`TOP_K`] net gainers at or
    /// above [`MIN_DELTA`], each with its *current* neighbor set as the
    /// spoke frontier — and reset the deltas for the next
    /// inter-repartition window. Ordering is deterministic: delta
    /// descending, vertex id ascending on ties.
    pub fn take_hubs(&mut self, graph: &AdjacencyGraph) -> Vec<HubPull> {
        let mut gainers: Vec<(VertexId, i64)> = self
            .deltas
            .drain()
            .filter(|&(_, d)| d >= MIN_DELTA)
            .collect();
        gainers.sort_unstable_by_key(|&(v, d)| (std::cmp::Reverse(d), v));
        gainers.truncate(TOP_K);
        gainers
            .into_iter()
            .map(|(hub, _)| {
                let mut spokes: Vec<VertexId> = graph.neighbors(hub).to_vec();
                spokes.sort_unstable();
                HubPull { hub, spokes }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_of(ins: &[(u32, u32)], del: &[(u32, u32)]) -> EditBatch {
        EditBatch::from_lists(ins.iter().copied(), del.iter().copied())
    }

    #[test]
    fn quiet_churn_nominates_nothing() {
        let g = AdjacencyGraph::from_edges(6, [(0, 1), (2, 3)]);
        let mut t = HubTracker::default();
        t.note_batch(&batch_of(&[(0, 2), (1, 3)], &[(0, 1)]));
        assert!(t.max_degree_delta() < MIN_DELTA);
        assert!(t.take_hubs(&g).is_empty());
    }

    #[test]
    fn flash_crowd_anchor_is_nominated_with_its_spokes() {
        let edges: Vec<(u32, u32)> = (1..=20u32).map(|i| (0, i)).collect();
        let g = AdjacencyGraph::from_edges(21, edges.clone());
        let mut t = HubTracker::default();
        t.note_batch(&batch_of(&edges, &[]));
        assert!(t.max_degree_delta() >= 20);
        let hubs = t.take_hubs(&g);
        assert_eq!(hubs.len(), 1, "only vertex 0 crosses MIN_DELTA");
        assert_eq!(hubs[0].hub, 0);
        assert_eq!(hubs[0].spokes, (1..=20u32).collect::<Vec<_>>());
        // take_hubs resets the window.
        assert!(t.take_hubs(&g).is_empty());
        assert_eq!(t.max_degree_delta(), 0);
    }

    #[test]
    fn deletions_cancel_insertions() {
        let edges: Vec<(u32, u32)> = (1..=20u32).map(|i| (0, i)).collect();
        let g = AdjacencyGraph::from_edges(21, Vec::<(u32, u32)>::new());
        let mut t = HubTracker::default();
        t.note_batch(&batch_of(&edges, &[]));
        t.note_batch(&batch_of(&[], &edges[..10]));
        // Net +10 at the anchor: below the hub threshold.
        assert!(t.take_hubs(&g).is_empty());
    }

    #[test]
    fn top_k_caps_the_pull_list_deterministically() {
        // 12 anchors gain ≥ MIN_DELTA; only the 8 biggest gainers (ties
        // to lower ids) are nominated.
        let mut t = HubTracker::default();
        let mut edges = Vec::new();
        for hub in 0..12u32 {
            let gain = 16 + i64::from(hub % 3); // deltas 16, 17, 18 repeating
            for k in 0..gain as u32 {
                edges.push((hub, 100 + hub * 32 + k));
            }
        }
        let n = 100 + 12 * 32;
        let g = AdjacencyGraph::from_edges(n as usize, edges.clone());
        t.note_batch(&batch_of(&edges, &[]));
        let hubs = t.take_hubs(&g);
        assert_eq!(hubs.len(), TOP_K);
        let ids: Vec<u32> = hubs.iter().map(|h| h.hub).collect();
        // Delta 18 → hubs 2,5,8,11; delta 17 → 1,4,7,10 — in that order.
        assert_eq!(ids, vec![2, 5, 8, 11, 1, 4, 7, 10]);
    }
}
