//! Property-based invariants: random graphs × random batch sequences.
//!
//! Whatever the edit history, the repaired state must be structurally
//! indistinguishable from a freshly propagated one: picks inside current
//! neighborhoods, labels consistent with provenance, records a bijection.

use proptest::prelude::*;
use rslpa_core::incremental::apply_correction;
use rslpa_core::propagation::run_propagation;
use rslpa_core::verify::check_consistency;
use rslpa_graph::{AdjacencyGraph, DynamicGraph, EditBatch};

const N: u32 = 12;

/// Random initial edge set over N vertices.
fn arb_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..N, 0..N), 0..40).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter(|(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect()
    })
}

/// A batch is a list of candidate toggles; applied as insert-if-absent /
/// delete-if-present against the live graph so it always validates.
fn arb_toggles() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..N, 0..N), 1..15).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter(|(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect()
    })
}

fn build_graph(edges: &[(u32, u32)]) -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new(N as usize);
    for &(u, v) in edges {
        g.insert_edge(u, v);
    }
    g
}

fn toggles_to_batch(g: &AdjacencyGraph, toggles: &[(u32, u32)]) -> EditBatch {
    let mut batch = EditBatch::new();
    let mut pending: std::collections::HashSet<(u32, u32)> = Default::default();
    for &(u, v) in toggles {
        if !pending.insert((u, v)) {
            continue; // same edge toggled twice in one batch: skip
        }
        if g.has_edge(u, v) {
            batch.delete(u, v);
        } else {
            batch.insert(u, v);
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One batch on a random graph keeps all invariants.
    #[test]
    fn single_batch_preserves_invariants(
        edges in arb_edges(),
        toggles in arb_toggles(),
        seed in 0u64..1000,
        t_max in 1usize..12,
    ) {
        let g = build_graph(&edges);
        let batch = toggles_to_batch(&g, &toggles);
        let mut dg = DynamicGraph::new(g);
        let mut state = run_propagation(dg.graph(), t_max, seed);
        let applied = dg.apply(&batch).expect("toggle batches always validate");
        apply_correction(&mut state, dg.graph(), &applied, None, &mut Vec::new());
        check_consistency(&state, dg.graph()).map_err(TestCaseError::fail)?;
    }

    /// A sequence of batches keeps invariants at every step.
    #[test]
    fn batch_sequences_preserve_invariants(
        edges in arb_edges(),
        rounds in proptest::collection::vec(arb_toggles(), 1..4),
        seed in 0u64..1000,
    ) {
        let g = build_graph(&edges);
        let mut dg = DynamicGraph::new(g);
        let mut state = run_propagation(dg.graph(), 8, seed);
        for toggles in rounds {
            let batch = toggles_to_batch(dg.graph(), &toggles);
            let applied = dg.apply(&batch).expect("valid");
            apply_correction(&mut state, dg.graph(), &applied, None, &mut Vec::new());
            check_consistency(&state, dg.graph()).map_err(TestCaseError::fail)?;
        }
    }

    /// Records and picks stay in bijection: total records equals the
    /// number of non-sentinel picks.
    #[test]
    fn record_count_matches_live_picks(
        edges in arb_edges(),
        toggles in arb_toggles(),
        seed in 0u64..1000,
    ) {
        let g = build_graph(&edges);
        let batch = toggles_to_batch(&g, &toggles);
        let mut dg = DynamicGraph::new(g);
        let mut state = run_propagation(dg.graph(), 6, seed);
        let applied = dg.apply(&batch).expect("valid");
        apply_correction(&mut state, dg.graph(), &applied, None, &mut Vec::new());
        let live_picks = (0..N)
            .map(|v| {
                (1..=6u32)
                    .filter(|&t| state.pick(v, t).0 != rslpa_core::state::NO_SOURCE)
                    .count()
            })
            .sum::<usize>();
        prop_assert_eq!(state.total_records(), live_picks);
    }
}
