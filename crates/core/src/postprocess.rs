//! Post-processing: from label sequences to overlapping communities
//! (paper §III-B).
//!
//! 1. **Edge weights**: `w_ij = P(l_i = l_j)` for labels drawn uniformly
//!    from the two sequences — computable by counting common labels:
//!    `w_ij = Σ_l f(l,i)·f(l,j) / (T+1)²`.
//! 2. **τ2** (Eq. 2): `min_i max_j w_ij` over vertices with at least one
//!    neighbor — the weak-attachment threshold guaranteeing "no isolated
//!    vertex" has zero attachment options.
//! 3. **τ1** (Eq. 1): the strong threshold maximizing the size entropy of
//!    the communities (connected components with ≥ 2 vertices of the
//!    `w ≥ τ1` subgraph). The paper scans `[τ2, max w]` on a 0.001 grid;
//!    we sweep the *exact* breakpoints (distinct edge weights) descending
//!    with an incremental union-find, which evaluates every grid the paper
//!    could choose at `O(|E| α)` total cost: a counting sort over the
//!    distinct weights (each an integer numerator over `(T+1)²`, so there
//!    are few) orders the edges without comparing them.
//! 4. **Extraction**: components of the τ1-filtered graph (size ≥ 2) are
//!    communities; a vertex left isolated by the filter weakly attaches to
//!    the community of every neighbor with `w ≥ τ2` — overlaps arise
//!    exactly there ("two communities will overlap when some vertices
//!    belong to both of them weakly").

use rslpa_graph::{AdjacencyGraph, Cover, FxHashMap, Label, UnionFind, VertexId};

use crate::state::LabelState;

/// Outcome of post-processing.
#[derive(Clone, Debug)]
pub struct PostprocessResult {
    /// Extracted overlapping communities.
    pub cover: Cover,
    /// Strong threshold chosen by entropy maximization.
    pub tau1: f64,
    /// Weak-attachment threshold (Eq. 2).
    pub tau2: f64,
    /// Entropy achieved at `tau1`.
    pub entropy: f64,
    /// Canonical edge list with weights (diagnostics / distributed replay).
    pub weights: Vec<(VertexId, VertexId, f64)>,
}

/// The integer numerator of [`sequence_similarity`]: the common-label
/// cross product `Σ_l f_a(l)·f_b(l)` of two sorted histograms.
///
/// This is the quantity the streaming
/// [`EdgeCounters`](crate::edge_counters::EdgeCounters) maintain per edge;
/// exposing the exact `u64` keeps the two paths bit-identical by
/// construction — both divide the same integer by the same `m²`.
pub fn common_labels(hist_a: &[(Label, u32)], hist_b: &[(Label, u32)]) -> u64 {
    let mut common = 0u64;
    let (mut i, mut j) = (0, 0);
    while i < hist_a.len() && j < hist_b.len() {
        match hist_a[i].0.cmp(&hist_b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += u64::from(hist_a[i].1) * u64::from(hist_b[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    common
}

/// Similarity of two label histograms: `P(l_i = l_j)` under independent
/// uniform draws — `Σ_l f_i(l)·f_j(l) / (m_i·m_j)`.
pub fn sequence_similarity(hist_a: &[(Label, u32)], hist_b: &[(Label, u32)], m: usize) -> f64 {
    common_labels(hist_a, hist_b) as f64 / (m as f64 * m as f64)
}

/// Compute `w_ij` for every edge of `graph` from the label state.
pub fn edge_weights(graph: &AdjacencyGraph, state: &LabelState) -> Vec<(VertexId, VertexId, f64)> {
    let n = graph.num_vertices();
    let m = state.iterations() + 1;
    let histograms: Vec<_> = (0..n as VertexId).map(|v| state.histogram(v)).collect();
    let mut out = Vec::with_capacity(graph.num_edges());
    for (u, v) in graph.edges() {
        let w = sequence_similarity(&histograms[u as usize], &histograms[v as usize], m);
        out.push((u, v, w));
    }
    out
}

/// τ2 = `min_i max_j w_ij` (Eq. 2) over vertices with ≥ 1 neighbor.
///
/// # Degenerate inputs
///
/// Eq. 2 quantifies only over vertices that *have* an edge, so a graph of
/// `n` isolated vertices contributes no terms at all — exactly like an
/// empty weight list. Both degenerate the same way by construction: the
/// inner fold runs over zero finite per-vertex maxima, yields `+∞`, and
/// the final `.min(1.0)` clamps that to **τ2 = 1.0**. The contract is
/// deliberate: with no attachment options anywhere, the weak-attachment
/// threshold must not admit anything, and `1.0` (the maximum possible
/// similarity) is the least-permissive finite value. Callers can rely on
/// `select_tau2(n, &[]) == 1.0` for every `n`, including `n = 0`.
pub fn select_tau2(n: usize, weights: &[(VertexId, VertexId, f64)]) -> f64 {
    let mut best = vec![f64::NEG_INFINITY; n];
    for &(u, v, w) in weights {
        best[u as usize] = best[u as usize].max(w);
        best[v as usize] = best[v as usize].max(w);
    }
    best.iter()
        .copied()
        .filter(|w| w.is_finite())
        .fold(f64::INFINITY, f64::min)
        .min(1.0) // empty weight list ⇒ τ2 defaults to 1.0
}

/// `(weight, end)` per weight group, and the edges grouped by weight.
type WeightGroups = (Vec<(f64, usize)>, Vec<(VertexId, VertexId)>);

/// The edges grouped by weight, heaviest group first, each group's edges
/// in input order — the order a stable descending comparison sort gives —
/// by a counting sort over the distinct values. Every weight the pipelines
/// produce is an integer numerator over `(T+1)²`, so a list holds at most
/// `(T+1)² + 1` distinct values however many edges it has: one hash lookup
/// per edge ranks them, and only the distinct values are compared.
/// Returns `(weight, end)` per group — the weight of its first edge, bit
/// for bit, and the end of its run in the returned edge list.
fn group_descending(weights: &[(VertexId, VertexId, f64)]) -> WeightGroups {
    let mut bucket_of: FxHashMap<u64, u32> = FxHashMap::default();
    let mut values: Vec<f64> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let buckets: Vec<u32> = weights
        .iter()
        .map(|&(_, _, w)| {
            assert!(!w.is_nan(), "edge weights are never NaN");
            // `+ 0.0` folds -0.0 into 0.0: they compare equal, so they tie.
            let b = *bucket_of.entry((w + 0.0).to_bits()).or_insert_with(|| {
                values.push(w);
                counts.push(0);
                values.len() as u32 - 1
            });
            counts[b as usize] += 1;
            b
        })
        .collect();
    let mut order: Vec<u32> = (0..values.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| values[b as usize].total_cmp(&values[a as usize]));
    // `counts[b]` becomes bucket `b`'s next free position in `edges`.
    let mut groups = Vec::with_capacity(order.len());
    let mut next = 0;
    for &b in &order {
        let count = counts[b as usize];
        counts[b as usize] = next;
        next += count;
        groups.push((values[b as usize], next));
    }
    let mut edges = vec![(0, 0); weights.len()];
    for (&(u, v, _), &b) in weights.iter().zip(&buckets) {
        let slot = &mut counts[b as usize];
        edges[*slot] = (u, v);
        *slot += 1;
    }
    (groups, edges)
}

/// Sweep τ1 candidates (descending distinct weights ≥ τ2) with an
/// incremental union-find, returning `(τ1, entropy at τ1)`.
///
/// Entropy is maintained incrementally: communities are components of size
/// ≥ 2; each union updates only the two merged components' terms. The
/// candidates come off a counting sort over the distinct weights, linear
/// in `|E|`; its stable tie order fixes the union order and so the
/// entropy's floating-point sum.
pub fn select_tau1(n: usize, weights: &[(VertexId, VertexId, f64)], tau2: f64) -> (f64, f64) {
    let (groups, edges) = group_descending(weights);
    let nf = n as f64;
    // `-p ln p` of a community of `size` vertices, memoized: unions keep
    // meeting the same few sizes, so most `ln` calls are saved.
    let mut terms = vec![f64::NAN; n + 1];
    let mut term = |size: usize| -> f64 {
        if size < 2 {
            return 0.0;
        }
        let t = &mut terms[size];
        if t.is_nan() {
            let p = size as f64 / nf;
            *t = -p * p.ln();
        }
        *t
    };
    let mut uf = UnionFind::new(n);
    let mut entropy = 0.0;
    let mut best = (f64::INFINITY, f64::NEG_INFINITY); // (tau1, entropy)
    let mut start = 0;
    // Each group is one candidate: adding it admits every edge of weight
    // ≥ its own.
    for &(w, end) in &groups {
        if w < tau2 {
            break; // paper scans only [τ2, max w]
        }
        for &(u, v) in &edges[start..end] {
            let (ru, rv) = (uf.find(u), uf.find(v));
            if ru != rv {
                let (su, sv) = (uf.set_size(ru), uf.set_size(rv));
                entropy += term(su + sv) - term(su) - term(sv);
                uf.union(ru, rv);
            }
        }
        start = end;
        if entropy > best.1 + 1e-15 {
            best = (w, entropy);
        }
    }
    if best.1 == f64::NEG_INFINITY {
        // No edge reaches τ2 (degenerate); fall back to τ2 itself.
        (tau2, 0.0)
    } else {
        best
    }
}

/// Extract the final cover at `(τ1, τ2)`. Dense per-vertex arrays name
/// each member's community, and a weak attachment is pushed without
/// checking for an earlier one — [`Cover::new`] sorts and deduplicates
/// every community.
pub fn extract_communities(
    n: usize,
    weights: &[(VertexId, VertexId, f64)],
    tau1: f64,
    tau2: f64,
) -> Cover {
    const NONE: u32 = u32::MAX;
    // Strong components under w >= τ1.
    let mut uf = UnionFind::new(n);
    for &(u, v, w) in weights {
        if w >= tau1 {
            uf.union(u, v);
        }
    }
    // `community[v]`: index of v's strong community, if it has one;
    // `of_root` names each component's community by its union-find root.
    let mut community = vec![NONE; n];
    let mut of_root = vec![NONE; n];
    let mut communities: Vec<Vec<VertexId>> = Vec::new();
    for v in 0..n as VertexId {
        let root = uf.find(v);
        if uf.set_size(root) < 2 {
            continue;
        }
        let c = &mut of_root[root as usize];
        if *c == NONE {
            *c = communities.len() as u32;
            communities.push(Vec::new());
        }
        community[v as usize] = *c;
        communities[*c as usize].push(v);
    }
    // Weak attachment of filter-isolated vertices (overlap source).
    for &(u, v, w) in weights {
        if w < tau2 {
            continue;
        }
        match (community[u as usize], community[v as usize]) {
            (NONE, NONE) => {}
            (NONE, c) => communities[c as usize].push(u),
            (c, NONE) => communities[c as usize].push(v),
            _ => {}
        }
    }
    Cover::new(communities)
}

/// Threshold selection and extraction over a canonical weight list of an
/// `n`-vertex graph — the tail every pipeline shares, whether its weights
/// come from a fresh merge ([`postprocess`]), the streaming
/// [`EdgeCounters`](crate::edge_counters::EdgeCounters), or the
/// partitioned stores of a mesh.
pub fn result_from_weights(n: usize, weights: Vec<(VertexId, VertexId, f64)>) -> PostprocessResult {
    let tau2 = select_tau2(n, &weights);
    let (tau1, entropy) = select_tau1(n, &weights, tau2);
    let cover = extract_communities(n, &weights, tau1, tau2);
    PostprocessResult {
        cover,
        tau1,
        tau2,
        entropy,
        weights,
    }
}

/// Full post-processing pipeline (centralized).
pub fn postprocess(graph: &AdjacencyGraph, state: &LabelState) -> PostprocessResult {
    result_from_weights(graph.num_vertices(), edge_weights(graph, state))
}

#[cfg(test)]
mod reference {
    //! The comparison-sort τ1 sweep and the `contains`-based extraction the
    //! linear versions replaced, kept as oracles for the equivalence tests.

    use rslpa_graph::{Cover, UnionFind, VertexId};

    /// [`super::select_tau1`] with a comparison sort.
    pub fn select_tau1(n: usize, weights: &[(VertexId, VertexId, f64)], tau2: f64) -> (f64, f64) {
        let mut sorted: Vec<(f64, VertexId, VertexId)> =
            weights.iter().map(|&(u, v, w)| (w, u, v)).collect();
        sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("weights are finite"));
        let nf = n as f64;
        let term = |size: usize| -> f64 {
            if size < 2 {
                return 0.0;
            }
            let p = size as f64 / nf;
            -p * p.ln()
        };
        let mut uf = UnionFind::new(n);
        let mut entropy = 0.0;
        let mut best = (f64::INFINITY, f64::NEG_INFINITY); // (tau1, entropy)
        let mut i = 0;
        while i < sorted.len() {
            let w = sorted[i].0;
            if w < tau2 {
                break; // paper scans only [τ2, max w]
            }
            // Add all edges with weight >= w (the tie group).
            while i < sorted.len() && sorted[i].0 >= w {
                let (_, u, v) = sorted[i];
                let (ru, rv) = (uf.find(u), uf.find(v));
                if ru != rv {
                    let (su, sv) = (uf.set_size(ru), uf.set_size(rv));
                    entropy += term(su + sv) - term(su) - term(sv);
                    uf.union(ru, rv);
                }
                i += 1;
            }
            if entropy > best.1 + 1e-15 {
                best = (w, entropy);
            }
        }
        if best.1 == f64::NEG_INFINITY {
            // No edge reaches τ2 (degenerate); fall back to τ2 itself.
            (tau2, 0.0)
        } else {
            best
        }
    }

    /// [`super::extract_communities`] with a hash map per root and a
    /// `contains` scan per weak attachment.
    pub fn extract_communities(
        n: usize,
        weights: &[(VertexId, VertexId, f64)],
        tau1: f64,
        tau2: f64,
    ) -> Cover {
        // Strong components under w >= τ1.
        let mut uf = UnionFind::new(n);
        for &(u, v, w) in weights {
            if w >= tau1 {
                uf.union(u, v);
            }
        }
        let labels = uf.component_labels();
        let mut size_of: rslpa_graph::FxHashMap<VertexId, usize> = Default::default();
        for &l in &labels {
            *size_of.entry(l).or_insert(0) += 1;
        }
        let is_member = |v: VertexId| size_of[&labels[v as usize]] >= 2;
        let mut communities: rslpa_graph::FxHashMap<VertexId, Vec<VertexId>> = Default::default();
        for v in 0..n as VertexId {
            if is_member(v) {
                communities.entry(labels[v as usize]).or_default().push(v);
            }
        }
        // Weak attachment of filter-isolated vertices (overlap source).
        for &(u, v, w) in weights {
            if w < tau2 {
                continue;
            }
            for (iso, anchor) in [(u, v), (v, u)] {
                if !is_member(iso) && is_member(anchor) {
                    let c = communities
                        .get_mut(&labels[anchor as usize])
                        .expect("anchor community");
                    if !c.contains(&iso) {
                        c.push(iso);
                    }
                }
            }
        }
        Cover::new(communities.into_values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::run_propagation;
    use proptest::prelude::*;

    #[test]
    fn similarity_of_identical_sequences_is_concentration() {
        // Histogram [(7, 4)] over m=4: P = 16/16 = 1.
        let h = vec![(7u32, 4u32)];
        assert!((sequence_similarity(&h, &h, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_of_disjoint_sequences_is_zero() {
        let a = vec![(1u32, 3u32)];
        let b = vec![(2u32, 3u32)];
        assert_eq!(sequence_similarity(&a, &b, 3), 0.0);
    }

    #[test]
    fn similarity_counts_cross_products() {
        // a: 2×x + 1×y, b: 1×x + 2×y over m=3: (2·1 + 1·2)/9 = 4/9.
        let a = vec![(1u32, 2u32), (2, 1)];
        let b = vec![(1u32, 1u32), (2, 2)];
        assert!((sequence_similarity(&a, &b, 3) - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn tau2_is_min_of_max() {
        // Vertex degrees of attachment: 0: max(.9,.2)=.9, 1: .9, 2: max(.2,.5)=.5, 3: .5
        let w = vec![(0, 1, 0.9), (0, 2, 0.2), (2, 3, 0.5)];
        assert!((select_tau2(4, &w) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tau1_prefers_balanced_split() {
        // Two dense triangles (w=.9) bridged by w=.3. Every vertex's best
        // edge is 0.9, so τ2 = 0.9, the sweep never admits the bridge, and
        // the entropy optimum is the two-triple split.
        let w = vec![
            (0, 1, 0.9),
            (1, 2, 0.9),
            (0, 2, 0.9),
            (3, 4, 0.9),
            (4, 5, 0.9),
            (3, 5, 0.9),
            (2, 3, 0.3),
        ];
        let tau2 = select_tau2(6, &w);
        assert!((tau2 - 0.9).abs() < 1e-12);
        let (tau1, entropy) = select_tau1(6, &w, tau2);
        assert!(
            tau1 > 0.3,
            "strong threshold must exclude the bridge, got {tau1}"
        );
        assert!(entropy > 0.0);
        let cover = extract_communities(6, &w, tau1, tau2);
        assert_eq!(cover.sizes(), vec![3, 3]);
    }

    #[test]
    fn tau1_sweep_separates_weakly_bridged_groups() {
        // Strong pairs {0,1} and {4,5}; vertices 2 and 3 hang off them at
        // 0.45 and bridge each other at 0.4. τ2 = 0.45 (the weakest
        // vertex's best edge); the sweep picks the pair split (τ1 = 0.9),
        // and the weak attachment pulls 2 and 3 into the pairs.
        let w = vec![
            (0, 1, 0.9),
            (4, 5, 0.9),
            (1, 2, 0.45),
            (3, 4, 0.45),
            (2, 3, 0.4),
        ];
        let tau2 = select_tau2(6, &w);
        assert!((tau2 - 0.45).abs() < 1e-12);
        let (tau1, _) = select_tau1(6, &w, tau2);
        assert!((tau1 - 0.9).abs() < 1e-12, "got {tau1}");
        let cover = extract_communities(6, &w, tau1, tau2);
        assert_eq!(cover.sizes(), vec![3, 3]);
        assert_eq!(cover.num_overlapping(6), 0);
    }

    #[test]
    fn weak_attachment_creates_overlap() {
        // Groups {0,1} and {3,4} at w=.9; vertex 2 attaches weakly (w=.5)
        // to both — it must appear in both communities.
        let w = vec![(0, 1, 0.9), (3, 4, 0.9), (1, 2, 0.5), (2, 3, 0.5)];
        let tau2 = select_tau2(5, &w);
        assert!((tau2 - 0.5).abs() < 1e-12);
        let cover = extract_communities(5, &w, 0.9, tau2);
        assert_eq!(cover.len(), 2);
        assert_eq!(cover.num_overlapping(5), 1);
        for c in cover.communities() {
            assert!(
                c.contains(&2),
                "vertex 2 in both: {:?}",
                cover.communities()
            );
        }
    }

    #[test]
    fn full_pipeline_on_two_cliques() {
        let mut g = AdjacencyGraph::new(8);
        for base in [0u32, 4] {
            for i in base..base + 4 {
                for j in (i + 1)..base + 4 {
                    g.insert_edge(i, j);
                }
            }
        }
        g.insert_edge(3, 4);
        let state = run_propagation(&g, 60, 5);
        let result = postprocess(&g, &state);
        assert!(result.tau2 <= result.tau1 + 1e-12);
        assert!(
            result.cover.len() >= 2,
            "cliques must separate: {:?}",
            result.cover.communities()
        );
        // Every vertex should be covered (paper's no-isolated principle).
        assert_eq!(
            result.cover.covered_vertices().len(),
            8,
            "{:?}",
            result.cover.communities()
        );
        let left = result
            .cover
            .communities()
            .iter()
            .any(|c| c.windows(2).count() >= 2 && c.contains(&0) && c.contains(&1));
        assert!(left, "{:?}", result.cover.communities());
    }

    #[test]
    fn tau2_of_isolated_vertex_graph_equals_empty_weight_list() {
        // The documented degenerate contract: a graph of only isolated
        // vertices produces an empty weight list, and both roads lead to
        // τ2 = 1.0 via the `.min(1.0)` clamp — for any n, including 0.
        for n in [0usize, 1, 3, 100] {
            let g = AdjacencyGraph::new(n);
            let state = run_propagation(&g, 4, 1);
            let weights = edge_weights(&g, &state);
            assert!(weights.is_empty());
            assert_eq!(select_tau2(n, &weights).to_bits(), 1.0f64.to_bits());
            assert_eq!(select_tau2(n, &[]).to_bits(), 1.0f64.to_bits());
        }
        // Sanity: one isolated vertex alongside a real edge does not drag
        // τ2 to the degenerate value — Eq. 2 skips the isolated vertex.
        let w = vec![(0u32, 1u32, 0.25)];
        assert!((select_tau2(3, &w) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_pipeline_degenerates_gracefully() {
        let g = AdjacencyGraph::new(3);
        let state = run_propagation(&g, 5, 1);
        let r = postprocess(&g, &state);
        assert!(r.cover.is_empty());
        assert_eq!(r.weights.len(), 0);
    }

    /// A weight list over `n` vertices: each raw `(a, b, c)` becomes the
    /// edge `{a mod n, b mod n}` (self-loops dropped) with weight
    /// `(c mod (den+1)) / den` — the integer-over-denominator shape of real
    /// weights, with heavy ties when `den` is small.
    fn weight_list(n: usize, raw: &[(u32, u32, u64)], den: u64) -> Vec<(VertexId, VertexId, f64)> {
        if n < 2 {
            return Vec::new();
        }
        raw.iter()
            .filter_map(|&(a, b, c)| {
                let (u, v) = (a % n as u32, b % n as u32);
                (u != v).then(|| (u.min(v), u.max(v), (c % (den + 1)) as f64 / den as f64))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn linear_tau1_and_extraction_match_the_comparison_sort(
            n in 0usize..16,
            raw in proptest::collection::vec((0u32..16, 0u32..16, 0u64..1 << 21), 0..80),
            den_pick in 0usize..3,
            cut in 0u64..=8,
        ) {
            let den = [4u64, 2601, 1 << 20][den_pick];
            let w = weight_list(n, &raw, den);
            let tau2 = select_tau2(n, &w);
            let got = select_tau1(n, &w, tau2);
            let want = reference::select_tau1(n, &w, tau2);
            prop_assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want.0.to_bits(), want.1.to_bits())
            );
            prop_assert_eq!(
                extract_communities(n, &w, got.0, tau2),
                reference::extract_communities(n, &w, want.0, tau2)
            );
            // Thresholds the sweep would not pick, including a τ2 above
            // τ1 and the degenerate no-edge-reaches-τ2 case.
            let (tau1, tau2) = (cut as f64 / 8.0, (8 - cut) as f64 / 8.0);
            let got = select_tau1(n, &w, tau2);
            let want = reference::select_tau1(n, &w, tau2);
            prop_assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want.0.to_bits(), want.1.to_bits())
            );
            prop_assert_eq!(
                extract_communities(n, &w, tau1, tau2),
                reference::extract_communities(n, &w, tau1, tau2)
            );
        }
    }

    #[test]
    fn negative_zero_ties_with_zero() {
        // -0.0 == 0.0, so the comparison sort keeps them in input order
        // and a tie group led by -0.0 yields τ1 = -0.0; the counting sort
        // must put both in one bucket to do the same.
        let lists = [
            vec![(0, 1, -0.0), (1, 2, 0.0), (2, 3, 0.0)],
            vec![(0, 1, 0.0), (2, 3, -0.0), (1, 2, 0.0), (3, 4, 0.5)],
        ];
        for w in &lists {
            for tau2 in [0.0, -0.0] {
                let got = select_tau1(5, w, tau2);
                let want = reference::select_tau1(5, w, tau2);
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits())
                );
            }
        }
    }
}
