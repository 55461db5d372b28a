//! Mutable adjacency-list graph with sorted neighbor lists.
//!
//! This is the working representation for dynamic graphs: edge insertion and
//! deletion are `O(deg)` (binary search + shift), neighbor access is a
//! contiguous sorted slice — which the label-propagation inner loop indexes
//! by a random offset, and which set-difference style delta computations can
//! merge-scan.
//!
//! Every vertex owns one sorted `Vec<VertexId>` row, so `neighbors()`
//! hands out that row as a plain `&[VertexId]` with no indirection.

use crate::mem::{MemAccounted, MemFootprint};
use crate::VertexId;

/// Insert `w` into a sorted row; `false` if already present.
fn insert_sorted(row: &mut Vec<VertexId>, w: VertexId) -> bool {
    match row.binary_search(&w) {
        Ok(_) => false,
        Err(p) => {
            row.insert(p, w);
            true
        }
    }
}

/// Remove `w` from a sorted row; `false` if absent.
fn remove_sorted(row: &mut Vec<VertexId>, w: VertexId) -> bool {
    match row.binary_search(&w) {
        Ok(p) => {
            row.remove(p);
            true
        }
        Err(_) => false,
    }
}

/// An undirected, unweighted ("binary") graph over dense vertex ids `0..n`.
///
/// Invariants (checked in debug builds, relied upon everywhere):
/// * neighbor lists are strictly sorted (no duplicates),
/// * no self-loops,
/// * symmetry: `u ∈ adj[v] ⇔ v ∈ adj[u]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdjacencyGraph {
    adj: Vec<Vec<VertexId>>,
    num_edges: usize,
}

impl AdjacencyGraph {
    /// An empty graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Build from an edge iterator; duplicate edges and self-loops are
    /// rejected with a panic (use [`crate::GraphBuilder`] for dirty input).
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        let mut g = Self::new(n);
        for (u, v) in edges {
            assert!(
                g.insert_edge(u, v),
                "duplicate or self-loop edge ({u}, {v})"
            );
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// True if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_vertices() == 0
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Whether the undirected edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Append an isolated vertex, returning its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.adj.push(Vec::new());
        (self.adj.len() - 1) as VertexId
    }

    /// Insert the undirected edge `{u, v}`.
    ///
    /// Returns `false` (and leaves the graph unchanged) if the edge already
    /// exists. Panics on self-loops or out-of-range vertices: those are
    /// logic errors in callers, not data conditions.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        assert_ne!(u, v, "self-loop ({u}, {u})");
        let n = self.num_vertices();
        assert!((u as usize) < n && (v as usize) < n, "vertex out of range");
        if !insert_sorted(&mut self.adj[u as usize], v) {
            return false;
        }
        let other = insert_sorted(&mut self.adj[v as usize], u);
        assert!(other, "symmetry violated: edge half-present");
        self.num_edges += 1;
        true
    }

    /// Remove the undirected edge `{u, v}`. Returns `false` if absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !remove_sorted(&mut self.adj[u as usize], v) {
            return false;
        }
        let other = remove_sorted(&mut self.adj[v as usize], u);
        assert!(other, "symmetry violated: edge half-present");
        self.num_edges -= 1;
        true
    }

    /// Remove all edges incident to `v` (used by vertex deletion, which the
    /// paper reduces to edge deletions). Returns the removed neighbors.
    pub fn isolate_vertex(&mut self, v: VertexId) -> Vec<VertexId> {
        let nbrs = std::mem::take(&mut self.adj[v as usize]);
        for &u in &nbrs {
            let removed = remove_sorted(&mut self.adj[u as usize], v);
            assert!(removed, "symmetry violated");
        }
        self.num_edges -= nbrs.len();
        nbrs
    }

    /// Iterate undirected edges with `u < v`, in vertex order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Vertices with degree zero.
    pub fn isolated_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as VertexId).filter(move |&v| self.neighbors(v).is_empty())
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2|E| / |V|` (0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_vertices() as f64
        }
    }

    /// Verify all structural invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.num_vertices();
        let mut count = 0usize;
        for u in 0..n as VertexId {
            let nbrs = self.neighbors(u);
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("neighbors of {u} not strictly sorted"));
            }
            for &v in nbrs {
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if (v as usize) >= n {
                    return Err(format!("neighbor {v} of {u} out of range"));
                }
                if self.neighbors(v).binary_search(&u).is_err() {
                    return Err(format!("asymmetric edge ({u}, {v})"));
                }
                if u < v {
                    count += 1;
                }
            }
        }
        if count != self.num_edges {
            return Err(format!("edge count {count} != cached {}", self.num_edges));
        }
        Ok(())
    }
}

impl MemAccounted for AdjacencyGraph {
    fn mem_footprint(&self) -> MemFootprint {
        self.adj.mem_footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn triangle() -> AdjacencyGraph {
        AdjacencyGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn basic_construction() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(2), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn has_edge_symmetric() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        let g2 = AdjacencyGraph::from_edges(4, [(0, 1)]);
        assert!(!g2.has_edge(2, 3));
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut g = AdjacencyGraph::new(5);
        assert!(g.insert_edge(0, 4));
        assert!(
            !g.insert_edge(4, 0),
            "duplicate rejected (either orientation)"
        );
        assert_eq!(g.num_edges(), 1);
        assert!(g.remove_edge(0, 4));
        assert!(!g.remove_edge(0, 4), "double delete rejected");
        assert_eq!(g.num_edges(), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = AdjacencyGraph::new(2);
        g.insert_edge(1, 1);
    }

    #[test]
    fn isolate_vertex_removes_all_incident_edges() {
        let mut g = triangle();
        let removed = g.isolate_vertex(1);
        assert_eq!(removed, vec![0, 2]);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 2));
        assert_eq!(g.degree(1), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn edges_iterate_canonical() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn degree_statistics() {
        let g = AdjacencyGraph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
        assert_eq!(g.isolated_vertices().count(), 0);
        let h = AdjacencyGraph::new(3);
        assert_eq!(h.isolated_vertices().count(), 3);
    }

    #[test]
    fn add_vertex_extends_id_space() {
        let mut g = triangle();
        let v = g.add_vertex();
        assert_eq!(v, 3);
        assert!(g.insert_edge(3, 0));
        g.check_invariants().unwrap();
    }

    proptest! {
        /// Random interleavings of inserts/removes preserve all invariants
        /// and agree with a reference HashSet-of-edges model.
        #[test]
        fn random_edit_sequence_matches_model(ops in proptest::collection::vec((0u32..20, 0u32..20, proptest::bool::ANY), 1..200)) {
            let mut g = AdjacencyGraph::new(20);
            let mut model: std::collections::HashSet<(u32, u32)> = Default::default();
            for (a, b, insert) in ops {
                if a == b { continue; }
                let key = (a.min(b), a.max(b));
                if insert {
                    prop_assert_eq!(g.insert_edge(a, b), model.insert(key));
                } else {
                    prop_assert_eq!(g.remove_edge(a, b), model.remove(&key));
                }
            }
            prop_assert_eq!(g.num_edges(), model.len());
            prop_assert!(g.check_invariants().is_ok());
            for &(u, v) in &model {
                prop_assert!(g.has_edge(u, v));
            }
        }
    }
}
