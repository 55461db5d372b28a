//! Web-scale graph simulators.
//!
//! The paper's real-world dataset is the `eu-2015-tpd` crawl (6.65M pages,
//! 170M hyperlinks; Table II), distributed in WebGraph/LLP compressed form
//! we cannot ship. We substitute generators that reproduce the properties
//! the evaluation actually depends on — heavy-tailed degrees and local
//! clustering at tunable scale:
//!
//! * [`rmat`] — the recursive-matrix generator (Chakrabarti et al., SDM'04)
//!   with the standard web-graph corner weights; emits a *directed
//!   multigraph* which is then run through the paper's own preparation
//!   pipeline (symmetrize, dedupe, drop self-loops).
//! * [`barabasi_albert`] — preferential attachment, a second heavy-tailed
//!   model for cross-checking generator sensitivity.

use rslpa_graph::rng::DetRng;
use rslpa_graph::{AdjacencyGraph, EditBatch, FxHashSet, GraphBuilder, VertexId};

/// R-MAT parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Directed edge samples to draw (before cleaning).
    pub edges: usize,
    /// Corner probabilities; must sum to 1. Standard web-graph values:
    /// a = 0.57, b = 0.19, c = 0.19, d = 0.05.
    pub a: f64,
    /// See `a`.
    pub b: f64,
    /// See `a`.
    pub c: f64,
    /// See `a`.
    pub d: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RmatParams {
    /// Standard web-graph corner weights at the given scale, sized for the
    /// paper's average degree (~25.6): `edges ≈ 12.8 · 2^scale` directed
    /// samples, which after symmetrize/dedupe lands near that average.
    pub fn web(scale: u32, seed: u64) -> Self {
        let n = 1usize << scale;
        Self {
            scale,
            edges: n * 13,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            seed,
        }
    }
}

/// Generate an R-MAT graph, cleaned into a binary graph via the paper's
/// preparation pipeline.
pub fn rmat(params: &RmatParams) -> AdjacencyGraph {
    let sum = params.a + params.b + params.c + params.d;
    assert!(
        (sum - 1.0).abs() < 1e-9,
        "corner probabilities must sum to 1, got {sum}"
    );
    let n = 1usize << params.scale;
    let mut rng = DetRng::new(params.seed);
    let mut builder = GraphBuilder::with_capacity(params.edges);
    for _ in 0..params.edges {
        let (mut u, mut v) = (0usize, 0usize);
        for _level in 0..params.scale {
            u <<= 1;
            v <<= 1;
            let r = rng.unit_f64();
            if r < params.a {
                // top-left: no bits set
            } else if r < params.a + params.b {
                v |= 1;
            } else if r < params.a + params.b + params.c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        builder.add_edge(u as VertexId, v as VertexId);
    }
    builder.build_with_vertices(n)
}

/// Deterministic R-MAT churn stream for scale benchmarks.
///
/// Each batch mixes three kinds of traffic against the evolving graph:
///
/// * **insertions** sampled by the same corner-weighted recursive walk as
///   the seed generator (over the current id space rounded up to a power
///   of two), so new edges keep the web graph's hub bias;
/// * **deletions** sampled endpoint-then-neighbor (degree-biased toward
///   hubs, like real link churn), distinct within the batch;
/// * **growth**: `grow_per_batch` brand-new vertex ids appended past the
///   current `n`, each wired to one corner-walk-sampled anchor — the
///   stream deliberately outgrows whatever id universe the consumer
///   planned for.
///
/// The stream is a pure function of the seed and the graphs it is shown:
/// replaying the same batches against the same seed graph reproduces the
/// same edit log bit-for-bit (which is what lets the scale bench pin the
/// final graph's edge fingerprint against a committed baseline).
pub struct RmatChurn {
    /// Corner probabilities (the `scale`/`edges` fields are ignored; the
    /// walk depth tracks the evolving graph instead).
    corners: RmatParams,
    rng: DetRng,
    /// Fresh vertices appended per batch.
    pub grow_per_batch: usize,
}

impl RmatChurn {
    /// A churn stream with the given corner weights and seed.
    pub fn new(corners: RmatParams, grow_per_batch: usize, seed: u64) -> Self {
        let sum = corners.a + corners.b + corners.c + corners.d;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "corner probabilities must sum to 1, got {sum}"
        );
        Self {
            corners,
            rng: DetRng::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            grow_per_batch,
        }
    }

    /// One corner-weighted recursive walk over `levels` bit positions.
    fn corner_walk(&mut self, levels: u32) -> (usize, usize) {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..levels {
            u <<= 1;
            v <<= 1;
            let r = self.rng.unit_f64();
            if r < self.corners.a {
                // top-left: no bits set
            } else if r < self.corners.a + self.corners.b {
                v |= 1;
            } else if r < self.corners.a + self.corners.b + self.corners.c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        (u, v)
    }

    /// The next batch against the current `graph`: `inserts` new edges,
    /// `deletes` removed edges, plus `grow_per_batch` fresh vertices.
    /// Insertions may reference ids `>= graph.num_vertices()` (the growth
    /// wires); the consumer grows the id space before applying, exactly
    /// as a live serve stream would.
    pub fn next_batch(
        &mut self,
        graph: &AdjacencyGraph,
        inserts: usize,
        deletes: usize,
    ) -> EditBatch {
        let n = graph.num_vertices();
        assert!(n >= 2, "churn needs at least two vertices");
        let levels = usize::BITS - (n - 1).leading_zeros(); // ceil(log2 n)
        let nv = n as u64;

        let deletes = deletes.min(graph.num_edges());
        let mut deletions: Vec<(VertexId, VertexId)> = Vec::with_capacity(deletes);
        let mut seen_del: FxHashSet<(VertexId, VertexId)> = Default::default();
        let mut guard = 0usize;
        while deletions.len() < deletes {
            guard += 1;
            assert!(guard < 1000 * deletes + 100_000, "deletion sampling stuck");
            let u = self.rng.bounded(nv) as VertexId;
            let deg = graph.degree(u);
            if deg == 0 {
                continue;
            }
            let v = graph.neighbors(u)[self.rng.bounded(deg as u64) as usize];
            let key = (u.min(v), u.max(v));
            if seen_del.insert(key) {
                deletions.push(key);
            }
        }

        let mut insertions: Vec<(VertexId, VertexId)> = Vec::with_capacity(inserts);
        let mut seen_ins: FxHashSet<(VertexId, VertexId)> = Default::default();
        let mut guard = 0usize;
        while insertions.len() < inserts {
            guard += 1;
            assert!(
                guard < 1000 * inserts + 100_000,
                "insertion sampling stuck (graph too dense?)"
            );
            let (u, v) = self.corner_walk(levels);
            if u >= n || v >= n || u == v {
                continue;
            }
            let (u, v) = (u as VertexId, v as VertexId);
            if graph.has_edge(u, v) {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if seen_del.contains(&key) || !seen_ins.insert(key) {
                continue;
            }
            insertions.push(key);
        }

        // Growth: fresh ids past the current universe, each anchored to a
        // corner-walk-sampled existing vertex (hubs attract newcomers).
        for i in 0..self.grow_per_batch {
            let fresh = (n + i) as VertexId;
            let mut guard = 0usize;
            let anchor = loop {
                guard += 1;
                assert!(guard < 100_000, "anchor sampling stuck");
                let (u, _) = self.corner_walk(levels);
                if u < n {
                    break u as VertexId;
                }
            };
            insertions.push((anchor, fresh));
        }

        EditBatch::from_lists(insertions, deletions)
    }
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m` existing vertices chosen proportionally to degree.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> AdjacencyGraph {
    assert!(m >= 1 && n > m, "need n > m >= 1");
    let mut g = AdjacencyGraph::new(n);
    let mut rng = DetRng::new(seed);
    // Repeated-endpoints list: picking a uniform element is degree-
    // proportional sampling (the standard BA implementation trick).
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * m);
    // Seed clique over the first m+1 vertices.
    for u in 0..=(m as VertexId) {
        for v in (u + 1)..=(m as VertexId) {
            g.insert_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in (m + 1)..n {
        let v = v as VertexId;
        let mut attached = 0usize;
        let mut guard = 0usize;
        while attached < m {
            let &target = rng.pick(&endpoints);
            guard += 1;
            if target != v && g.insert_edge(v, target) {
                endpoints.push(v);
                endpoints.push(target);
                attached += 1;
            }
            assert!(guard < 100 * m + 1000, "preferential attachment stuck");
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_produces_heavy_tail() {
        let g = rmat(&RmatParams::web(12, 1)); // 4096 vertices
        assert_eq!(g.num_vertices(), 4096);
        assert!(g.num_edges() > 10_000);
        // Web graphs: max degree far above average.
        assert!(
            (g.max_degree() as f64) > 8.0 * g.avg_degree(),
            "max {} avg {}",
            g.max_degree(),
            g.avg_degree()
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn rmat_is_deterministic() {
        let a = rmat(&RmatParams::web(10, 7));
        let b = rmat(&RmatParams::web(10, 7));
        assert_eq!(a, b);
        let c = rmat(&RmatParams::web(10, 8));
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rmat_rejects_bad_corners() {
        let _ = rmat(&RmatParams {
            a: 0.9,
            ..RmatParams::web(8, 1)
        });
    }

    #[test]
    fn rmat_churn_batches_validate_and_grow() {
        let mut g = rslpa_graph::DynamicGraph::new(rmat(&RmatParams::web(10, 3)));
        let mut churn = RmatChurn::new(RmatParams::web(10, 3), 4, 17);
        for round in 0..5 {
            let n0 = g.graph().num_vertices();
            let batch = churn.next_batch(g.graph(), 200, 100);
            assert_eq!(batch.deletions().len(), 100);
            // 200 churn inserts + 4 growth wires.
            assert_eq!(batch.insertions().len(), 204);
            let max_id = batch
                .insertions()
                .iter()
                .map(|&(_, v)| v as usize)
                .max()
                .unwrap();
            assert_eq!(max_id, n0 + 3, "round {round}: growth wires missing");
            g.ensure_vertices(max_id + 1);
            g.apply(&batch).expect("churn batch validates");
        }
        assert_eq!(g.graph().num_vertices(), 1024 + 20);
        g.graph().check_invariants().unwrap();
    }

    #[test]
    fn rmat_churn_is_deterministic() {
        let seed = rmat(&RmatParams::web(9, 5));
        let replay = |()| {
            let mut g = rslpa_graph::DynamicGraph::new(seed.clone());
            let mut churn = RmatChurn::new(RmatParams::web(9, 5), 2, 8);
            for _ in 0..3 {
                let batch = churn.next_batch(g.graph(), 50, 25);
                let max_id = batch
                    .insertions()
                    .iter()
                    .map(|&(_, v)| v as usize)
                    .max()
                    .unwrap();
                g.ensure_vertices(max_id + 1);
                g.apply(&batch).unwrap();
            }
            g.graph().clone()
        };
        assert_eq!(replay(()), replay(()));
    }

    #[test]
    fn ba_degree_and_size() {
        let g = barabasi_albert(2000, 4, 3);
        assert_eq!(g.num_vertices(), 2000);
        // Each of the n-m-1 arrivals adds m edges, plus the seed clique.
        let expected = (2000 - 5) * 4 + 10;
        assert_eq!(g.num_edges(), expected);
        assert!(
            g.max_degree() > 40,
            "hubs expected, max = {}",
            g.max_degree()
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn ba_is_connected() {
        let g = barabasi_albert(500, 2, 9);
        let labels = rslpa_graph::connected_components(500, g.edges());
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn ba_deterministic_in_seed() {
        assert_eq!(barabasi_albert(300, 3, 5), barabasi_albert(300, 3, 5));
        assert_ne!(barabasi_albert(300, 3, 5), barabasi_albert(300, 3, 6));
    }
}
