//! Distribution-equivalence tests for Correction Propagation.
//!
//! The paper's central claim (§IV, Theorems 4–5): after an edit batch, the
//! incrementally repaired label state is distributed **identically** to a
//! from-scratch run of Algorithm 1 on the new graph. One repaired sample
//! cannot be compared to one scratch sample by equality (both are random),
//! so these tests compare *ensembles*:
//!
//! * pick marginals: the repaired `(src, pos)` of a probe slot must be
//!   uniform over `N'(v) × {0..t-1}` (χ² test);
//! * label marginals: per-slot label histograms over many seeds must match
//!   between the incremental and scratch populations (total variation);
//! * end-to-end: detected-community quality (NMI vs LFR ground truth)
//!   must be statistically indistinguishable between the two paths.

use rslpa_core::incremental::apply_correction;
use rslpa_core::propagation::run_propagation;
use rslpa_core::verify::check_consistency;
use rslpa_core::{postprocess, RslpaConfig, RslpaDetector};
use rslpa_gen::lfr::LfrParams;
use rslpa_graph::{AdjacencyGraph, DynamicGraph, EditBatch};
use rslpa_metrics::overlapping_nmi;

/// Test fixture: an 8-vertex graph with enough structure for interesting
/// cascades (two squares joined by two bridges).
fn base_graph() -> AdjacencyGraph {
    AdjacencyGraph::from_edges(
        8,
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 4),
            (0, 4),
            (2, 6),
        ],
    )
}

fn mixed_batch() -> EditBatch {
    EditBatch::from_lists([(1, 5), (3, 7)], [(0, 1), (2, 6)])
}

/// After the batch, probe slots must have uniform `(src, pos)` marginals
/// over the *new* neighborhood — Theorems 4/5 composed over a real batch.
#[test]
fn repaired_pick_marginals_are_uniform() {
    let t_max = 6usize;
    let probe_v = 0u32;
    let probe_t = 4u32;
    let trials = 4000u64;
    // New neighborhood of vertex 0 after the batch: loses 1, keeps 3, 4.
    let mut counts: std::collections::HashMap<(u32, u32), u64> = Default::default();
    for seed in 0..trials {
        let mut dg = DynamicGraph::new(base_graph());
        let mut state = run_propagation(dg.graph(), t_max, seed);
        let applied = dg.apply(&mixed_batch()).unwrap();
        apply_correction(&mut state, dg.graph(), &applied, None, &mut Vec::new());
        let (src, pos) = state.pick(probe_v, probe_t);
        *counts.entry((src, pos)).or_insert(0) += 1;
    }
    let nbrs: Vec<u32> = base_graph().neighbors(probe_v).to_vec();
    assert_eq!(nbrs, vec![1, 3, 4], "fixture sanity");
    let new_nbrs = [3u32, 4u32];
    let cells: Vec<(u32, u32)> = new_nbrs
        .iter()
        .flat_map(|&s| (0..probe_t).map(move |p| (s, p)))
        .collect();
    // Every observed pick must be legal.
    for &(src, pos) in counts.keys() {
        assert!(new_nbrs.contains(&src), "illegal src {src}");
        assert!(pos < probe_t, "illegal pos {pos}");
    }
    // χ² uniformity over the 8 cells: 7 dof, 99.9% critical value 24.3.
    let expected = trials as f64 / cells.len() as f64;
    let chi2: f64 = cells
        .iter()
        .map(|c| {
            let o = *counts.get(c).unwrap_or(&0) as f64;
            (o - expected).powi(2) / expected
        })
        .sum();
    assert!(chi2 < 30.0, "chi2 = {chi2}, counts = {counts:?}");
}

/// Label histograms at probe slots: incremental population vs scratch
/// population on the new graph. Total variation distance must be small.
#[test]
fn repaired_label_marginals_match_scratch() {
    let t_max = 6usize;
    let trials = 3000u64;
    let probes = [(0u32, 3u32), (5u32, 6u32), (2u32, 5u32)];
    let mut inc_counts = vec![std::collections::HashMap::<u32, u64>::new(); probes.len()];
    let mut scr_counts = vec![std::collections::HashMap::<u32, u64>::new(); probes.len()];
    for seed in 0..trials {
        // Incremental path.
        let mut dg = DynamicGraph::new(base_graph());
        let mut state = run_propagation(dg.graph(), t_max, seed);
        let applied = dg.apply(&mixed_batch()).unwrap();
        apply_correction(&mut state, dg.graph(), &applied, None, &mut Vec::new());
        // Scratch path on the new graph, independent randomness.
        let scratch = run_propagation(dg.graph(), t_max, seed + 1_000_000);
        for (i, &(v, t)) in probes.iter().enumerate() {
            *inc_counts[i].entry(state.label(v, t)).or_insert(0) += 1;
            *scr_counts[i].entry(scratch.label(v, t)).or_insert(0) += 1;
        }
    }
    for (i, &(v, t)) in probes.iter().enumerate() {
        let labels: std::collections::HashSet<u32> = inc_counts[i]
            .keys()
            .chain(scr_counts[i].keys())
            .copied()
            .collect();
        let tv: f64 = labels
            .iter()
            .map(|l| {
                let a = *inc_counts[i].get(l).unwrap_or(&0) as f64 / trials as f64;
                let b = *scr_counts[i].get(l).unwrap_or(&0) as f64 / trials as f64;
                (a - b).abs()
            })
            .sum::<f64>()
            / 2.0;
        // With 3000 samples over ≤ 8 labels, sampling noise alone gives
        // TV ≈ 0.02; 0.05 flags any real distributional drift.
        assert!(tv < 0.05, "probe ({v}, {t}): total variation {tv}");
    }
}

/// Multi-batch stress: five consecutive batches keep the state consistent
/// and the final pick marginals legal.
#[test]
fn consecutive_batches_remain_consistent() {
    for seed in 0..20u64 {
        let mut dg = DynamicGraph::new(base_graph());
        let mut state = run_propagation(dg.graph(), 8, seed);
        let batches = [
            EditBatch::from_lists([(1, 5)], [(0, 1)]),
            EditBatch::from_lists([(0, 1)], [(1, 5), (2, 3)]),
            EditBatch::from_lists([(2, 3), (3, 5)], []),
            EditBatch::from_lists([], [(0, 4)]),
            EditBatch::from_lists([(0, 4), (1, 7)], [(3, 5)]),
        ];
        for batch in batches {
            let applied = dg.apply(&batch).unwrap();
            apply_correction(&mut state, dg.graph(), &applied, None, &mut Vec::new());
            check_consistency(&state, dg.graph()).unwrap();
        }
    }
}

/// End-to-end: on an LFR benchmark, communities detected after incremental
/// repair score the same NMI (vs ground truth) as a from-scratch rerun.
#[test]
fn nmi_after_incremental_matches_scratch_on_lfr() {
    let params = LfrParams {
        seed: 21,
        ..LfrParams::scaled(400)
    };
    let instance = params.generate().expect("LFR generation");
    let n = instance.graph.num_vertices();
    let t_max = 60usize;
    let mut nmi_inc = 0.0;
    let mut nmi_scr = 0.0;
    let runs = 3;
    for seed in 0..runs {
        let mut detector =
            RslpaDetector::new(instance.graph.clone(), RslpaConfig::quick(t_max, seed));
        let batch = rslpa_gen::edits::uniform_batch(detector.graph(), 40, seed + 7);
        detector.apply_batch(&batch).unwrap();
        let inc_cover = detector.detect().result.cover;
        nmi_inc += overlapping_nmi(&inc_cover, &instance.ground_truth, n);
        // Scratch on the same post-batch graph with fresh randomness.
        let scratch = run_propagation(detector.graph(), t_max, seed + 5_000);
        let scr_cover = postprocess(detector.graph(), &scratch).cover;
        nmi_scr += overlapping_nmi(&scr_cover, &instance.ground_truth, n);
    }
    nmi_inc /= runs as f64;
    nmi_scr /= runs as f64;
    assert!(
        (nmi_inc - nmi_scr).abs() < 0.12,
        "incremental NMI {nmi_inc} vs scratch NMI {nmi_scr}"
    );
    assert!(nmi_inc > 0.5, "detection quality sanity: {nmi_inc}");
}
