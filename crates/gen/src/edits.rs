//! Dynamic-graph workloads: edit-batch generators.
//!
//! §V-B1 of the paper: "we generate the graph edit batch by randomly
//! selecting edges for insertion and deletion. Typically, the batch size is
//! set from 100 to 100,000, and then for each size we randomly pick half
//! edges to insert and half to delete." [`uniform_batch`] is exactly that
//! workload; the targeted variants power ablations (intra-community churn
//! vs. cross-community rewiring) not present in the paper.

use rslpa_graph::rng::DetRng;
use rslpa_graph::{AdjacencyGraph, Cover, EditBatch, VertexId};

// The adversarial scenario family lives in its own module but is part of
// this crate's edit-workload vocabulary; re-export it here so callers can
// keep importing every churn generator from `rslpa_gen::edits`.
pub use crate::adversarial::{
    named_scenarios, CascadeDelete, ChurnScenario, FlashCrowd, GroundTruthTrack, ScenarioWindow,
    SkewBurst, SplitMergeStorm,
};

/// Convenience wrapper naming the workload kind (for experiment reports).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditWorkload {
    /// Half uniform insertions of non-edges, half uniform deletions of
    /// existing edges (the paper's workload).
    Uniform,
    /// Insertions biased inside ground-truth communities, deletions of
    /// cross-community edges (consolidates communities).
    Consolidating,
    /// Insertions across communities, deletions inside (erodes communities).
    Eroding,
    /// All edits confined to a small contiguous vertex window (hot-spot
    /// churn): most of the graph — and most shard boundaries — stays
    /// untouched between publishes, which is the workload where
    /// dirty-diff publish collects pay off.
    Localized,
}

/// Localized hot-spot batch: every endpoint drawn from the window
/// `[0, max(32, n/20))`. Deletions pick existing edges inside the window,
/// insertions non-edges inside it; both fall back to slightly relaxed
/// sampling (one endpoint in the window) if the dense little window runs
/// out of candidates.
pub fn localized_batch(graph: &AdjacencyGraph, size: usize, seed: u64) -> EditBatch {
    let n = graph.num_vertices();
    let window = (n / 20).max(32).min(n) as VertexId;
    let mut rng = DetRng::new(seed);
    let del_target = size / 2;
    let ins_target = size - del_target;

    // Deletions: shuffled scan of window-internal edges, relaxing to
    // window-incident ones if the hot spot is too sparse.
    let mut edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
    rng.shuffle(&mut edges);
    let mut deletions = Vec::with_capacity(del_target);
    for &(u, v) in &edges {
        if deletions.len() == del_target {
            break;
        }
        if u < window && v < window {
            deletions.push((u, v));
        }
    }
    for &(u, v) in &edges {
        if deletions.len() == del_target {
            break;
        }
        if (u < window || v < window) && !deletions.contains(&(u, v)) {
            deletions.push((u, v));
        }
    }
    assert!(
        deletions.len() == del_target,
        "graph too sparse around the hot-spot window for {del_target} deletions"
    );

    // Insertions: rejection-sample non-edges inside the window, relaxing
    // one endpoint once the window saturates.
    let excluded: rslpa_graph::FxHashSet<(VertexId, VertexId)> =
        deletions.iter().copied().collect();
    let mut insertions = Vec::with_capacity(ins_target);
    let mut seen: rslpa_graph::FxHashSet<(VertexId, VertexId)> = Default::default();
    let mut guard = 0usize;
    while insertions.len() < ins_target {
        guard += 1;
        assert!(
            guard < 1000 * ins_target + 100_000,
            "localized insertion sampling stuck"
        );
        let relaxed = guard >= 100 * ins_target;
        let u = rng.bounded(u64::from(window)) as VertexId;
        let v = if relaxed {
            rng.bounded(n as u64) as VertexId
        } else {
            rng.bounded(u64::from(window)) as VertexId
        };
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if excluded.contains(&key) || !seen.insert(key) {
            continue;
        }
        insertions.push(key);
    }
    EditBatch::from_lists(insertions, deletions)
}

/// The paper's uniform workload: `size/2` insertions + `size/2` deletions.
///
/// Panics if the graph cannot supply enough edges/non-edges.
pub fn uniform_batch(graph: &AdjacencyGraph, size: usize, seed: u64) -> EditBatch {
    let del = size / 2;
    let ins = size - del;
    let mut rng = DetRng::new(seed);
    let deletions = sample_existing_edges(graph, del, &mut rng);
    let insertions = sample_non_edges(graph, ins, &mut rng, &deletions);
    EditBatch::from_lists(insertions, deletions)
}

/// Insertions-only batch (uniform non-edges).
pub fn insertions_only(graph: &AdjacencyGraph, size: usize, seed: u64) -> EditBatch {
    let mut rng = DetRng::new(seed);
    EditBatch::from_lists(sample_non_edges(graph, size, &mut rng, &[]), [])
}

/// Deletions-only batch (uniform existing edges).
pub fn deletions_only(graph: &AdjacencyGraph, size: usize, seed: u64) -> EditBatch {
    let mut rng = DetRng::new(seed);
    EditBatch::from_lists([], sample_existing_edges(graph, size, &mut rng))
}

/// Targeted batch per [`EditWorkload`], using a ground-truth cover to bias
/// edge selection.
pub fn targeted_batch(
    graph: &AdjacencyGraph,
    cover: &Cover,
    workload: EditWorkload,
    size: usize,
    seed: u64,
) -> EditBatch {
    if workload == EditWorkload::Uniform {
        return uniform_batch(graph, size, seed);
    }
    if workload == EditWorkload::Localized {
        return localized_batch(graph, size, seed);
    }
    let n = graph.num_vertices();
    let memberships = cover.memberships(n);
    let shares = |u: VertexId, v: VertexId| -> bool {
        memberships[u as usize]
            .iter()
            .any(|c| memberships[v as usize].contains(c))
    };
    let mut rng = DetRng::new(seed);
    let del_target = size / 2;
    let ins_target = size - del_target;

    // Deletions: scan a shuffled edge list for edges matching the bias.
    let mut edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
    rng.shuffle(&mut edges);
    let want_intra_del = workload == EditWorkload::Eroding;
    let mut deletions = Vec::with_capacity(del_target);
    for &(u, v) in &edges {
        if deletions.len() == del_target {
            break;
        }
        if shares(u, v) == want_intra_del {
            deletions.push((u, v));
        }
    }
    // Fall back to arbitrary edges if the biased pool ran dry.
    for &(u, v) in &edges {
        if deletions.len() == del_target {
            break;
        }
        if !deletions.contains(&(u, v)) {
            deletions.push((u, v));
        }
    }

    // Insertions: rejection-sample vertex pairs matching the bias.
    let want_intra_ins = workload == EditWorkload::Consolidating;
    let mut insertions = Vec::with_capacity(ins_target);
    let mut seen: rslpa_graph::FxHashSet<(VertexId, VertexId)> = Default::default();
    let mut guard = 0usize;
    while insertions.len() < ins_target {
        guard += 1;
        assert!(
            guard < 1000 * ins_target + 100_000,
            "insertion sampling stuck"
        );
        let u = rng.bounded(n as u64) as VertexId;
        let v = rng.bounded(n as u64) as VertexId;
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        // Relax the bias once rejection gets expensive.
        let biased = guard < 100 * ins_target;
        if biased && shares(u, v) != want_intra_ins {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            insertions.push(key);
        }
    }
    EditBatch::from_lists(insertions, deletions)
}

/// Uniformly sample `count` distinct existing edges.
fn sample_existing_edges(
    graph: &AdjacencyGraph,
    count: usize,
    rng: &mut DetRng,
) -> Vec<(VertexId, VertexId)> {
    assert!(
        count <= graph.num_edges(),
        "cannot delete {count} of {} edges",
        graph.num_edges()
    );
    let mut edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
    // Partial Fisher–Yates: shuffle only the prefix we need.
    for i in 0..count {
        let j = i + rng.bounded((edges.len() - i) as u64) as usize;
        edges.swap(i, j);
    }
    edges.truncate(count);
    edges
}

/// Uniformly sample `count` distinct non-edges (also avoiding `exclude`,
/// so a deletion in the same batch is never immediately re-inserted).
fn sample_non_edges(
    graph: &AdjacencyGraph,
    count: usize,
    rng: &mut DetRng,
    exclude: &[(VertexId, VertexId)],
) -> Vec<(VertexId, VertexId)> {
    let n = graph.num_vertices() as u64;
    let possible = n * (n - 1) / 2 - graph.num_edges() as u64;
    assert!(count as u64 <= possible, "cannot insert {count} new edges");
    let excluded: rslpa_graph::FxHashSet<(VertexId, VertexId)> = exclude.iter().copied().collect();
    let mut out = Vec::with_capacity(count);
    let mut seen: rslpa_graph::FxHashSet<(VertexId, VertexId)> = Default::default();
    let mut guard = 0usize;
    while out.len() < count {
        guard += 1;
        assert!(
            guard < 1000 * count + 1_000_000,
            "non-edge sampling stuck (graph too dense?)"
        );
        let u = rng.bounded(n) as VertexId;
        let v = rng.bounded(n) as VertexId;
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if excluded.contains(&key) || !seen.insert(key) {
            continue;
        }
        out.push(key);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er::erdos_renyi;

    fn graph() -> AdjacencyGraph {
        erdos_renyi(200, 800, 11)
    }

    #[test]
    fn uniform_batch_has_half_and_half() {
        let g = graph();
        let b = uniform_batch(&g, 100, 1);
        assert_eq!(b.insertions().len(), 50);
        assert_eq!(b.deletions().len(), 50);
        assert!(b.validate(&g).is_ok());
    }

    #[test]
    fn odd_size_rounds_insertions_up() {
        let g = graph();
        let b = uniform_batch(&g, 7, 1);
        assert_eq!(b.insertions().len(), 4);
        assert_eq!(b.deletions().len(), 3);
    }

    #[test]
    fn batches_are_deterministic() {
        let g = graph();
        assert_eq!(uniform_batch(&g, 40, 5), uniform_batch(&g, 40, 5));
        assert_ne!(uniform_batch(&g, 40, 5), uniform_batch(&g, 40, 6));
    }

    #[test]
    fn insertions_only_and_deletions_only() {
        let g = graph();
        let ins = insertions_only(&g, 20, 2);
        assert_eq!(ins.insertions().len(), 20);
        assert!(ins.deletions().is_empty());
        assert!(ins.validate(&g).is_ok());
        let del = deletions_only(&g, 20, 2);
        assert_eq!(del.deletions().len(), 20);
        assert!(del.validate(&g).is_ok());
    }

    #[test]
    fn targeted_batches_validate_and_bias() {
        let lfr = crate::lfr::LfrParams {
            seed: 3,
            ..crate::lfr::LfrParams::scaled(400)
        };
        let inst = lfr.generate().unwrap();
        let n = inst.graph.num_vertices();
        let memb = inst.ground_truth.memberships(n);
        let shares = |u: VertexId, v: VertexId| {
            memb[u as usize]
                .iter()
                .any(|c| memb[v as usize].contains(c))
        };

        let cons = targeted_batch(
            &inst.graph,
            &inst.ground_truth,
            EditWorkload::Consolidating,
            60,
            4,
        );
        assert!(cons.validate(&inst.graph).is_ok());
        let intra_ins = cons
            .insertions()
            .iter()
            .filter(|&&(u, v)| shares(u, v))
            .count();
        assert!(
            intra_ins * 2 > cons.insertions().len(),
            "consolidating batch should insert mostly intra"
        );

        let erode = targeted_batch(
            &inst.graph,
            &inst.ground_truth,
            EditWorkload::Eroding,
            60,
            4,
        );
        assert!(erode.validate(&inst.graph).is_ok());
        let intra_del = erode
            .deletions()
            .iter()
            .filter(|&&(u, v)| shares(u, v))
            .count();
        assert!(
            intra_del * 2 > erode.deletions().len(),
            "eroding batch should delete mostly intra"
        );
    }

    #[test]
    fn localized_batch_confines_edits_to_the_window() {
        let g = erdos_renyi(1000, 6000, 13);
        let window: VertexId = 50; // (n / 20).max(32).min(n) at n = 1000
        let b = localized_batch(&g, 60, 9);
        assert!(b.validate(&g).is_ok());
        assert_eq!(b.insertions().len() + b.deletions().len(), 60);
        let touches_window = |&(u, v): &(VertexId, VertexId)| u < window || v < window;
        assert!(b.insertions().iter().all(touches_window));
        assert!(b.deletions().iter().all(touches_window));
        // The unrelaxed path keeps *both* endpoints inside for most edits.
        let fully_inside = b
            .insertions()
            .iter()
            .chain(b.deletions())
            .filter(|&&(u, v)| u < window && v < window)
            .count();
        assert!(fully_inside * 2 > 60, "only {fully_inside}/60 fully inside");
        // Deterministic, and dispatched through targeted_batch.
        assert_eq!(localized_batch(&g, 60, 9), localized_batch(&g, 60, 9));
        let via_targeted = targeted_batch(&g, &Cover::default(), EditWorkload::Localized, 60, 9);
        assert_eq!(via_targeted, b);
    }

    #[test]
    #[should_panic(expected = "cannot delete")]
    fn oversized_deletion_panics() {
        let g = AdjacencyGraph::from_edges(3, [(0, 1)]);
        let _ = deletions_only(&g, 5, 1);
    }

    #[test]
    fn batch_does_not_reinsert_deleted_edges() {
        let g = graph();
        for seed in 0..20 {
            let b = uniform_batch(&g, 200, seed);
            for e in b.insertions() {
                assert!(!b.deletions().contains(e));
            }
        }
    }
}
