//! Workspace-level integration tests: every crate working together.

use rslpa::baselines::{run_slpa, SlpaConfig};
use rslpa::core::postprocess_bsp::postprocess_bsp_with_candidates;
use rslpa::core::propagation_bsp::run_propagation_bsp;
use rslpa::gen::gn::{gn_benchmark, GnParams};
use rslpa::metrics::partition_nmi;
use rslpa::prelude::*;

/// LFR → rSLPA → overlapping NMI: the Fig. 7 pipeline at test scale.
#[test]
fn lfr_to_nmi_pipeline() {
    let params = LfrParams {
        seed: 3,
        ..LfrParams::scaled(600)
    };
    let instance = params.generate().expect("generation");
    let n = instance.graph.num_vertices();
    let state = run_propagation(&instance.graph, 80, 1);
    let cover = postprocess(&instance.graph, &state).cover;
    let nmi = overlapping_nmi(&cover, &instance.ground_truth, n);
    assert!(
        nmi > 0.6,
        "rSLPA should find most of the planted structure, NMI = {nmi}"
    );
}

/// SLPA and rSLPA both detect the GN benchmark's planted partition.
#[test]
fn both_algorithms_crack_gn_benchmark() {
    let (graph, truth) = gn_benchmark(&GnParams::default());
    let n = graph.num_vertices();

    let slpa = run_slpa(
        &graph,
        &SlpaConfig {
            iterations: 100,
            threshold: 0.3,
            seed: 2,
        },
    );
    let slpa_nmi = overlapping_nmi(&slpa.cover, &truth, n);
    assert!(slpa_nmi > 0.6, "SLPA NMI = {slpa_nmi}");

    let state = run_propagation(&graph, 120, 2);
    let cover = postprocess(&graph, &state).cover;
    let rslpa_nmi = overlapping_nmi(&cover, &truth, n);
    assert!(rslpa_nmi > 0.6, "rSLPA NMI = {rslpa_nmi}");
}

/// Dynamic end-to-end: a stream of batches with incremental repair keeps
/// quality within noise of scratch recomputation.
#[test]
fn dynamic_stream_preserves_quality() {
    let params = LfrParams {
        seed: 11,
        ..LfrParams::scaled(500)
    };
    let instance = params.generate().expect("generation");
    let n = instance.graph.num_vertices();
    let truth = &instance.ground_truth;
    let mut detector = RslpaDetector::new(instance.graph, RslpaConfig::quick(80, 4));
    for round in 0..4u64 {
        let batch = uniform_batch(detector.graph(), 60, round);
        detector.apply_batch(&batch).unwrap();
    }
    let incremental_nmi = overlapping_nmi(&detector.detect().result.cover, truth, n);
    detector.recompute_from_scratch();
    let scratch_nmi = overlapping_nmi(&detector.detect().result.cover, truth, n);
    assert!(
        (incremental_nmi - scratch_nmi).abs() < 0.15,
        "incremental {incremental_nmi} vs scratch {scratch_nmi}"
    );
}

/// Distributed pipeline equals the centralized one end to end (same seed).
#[test]
fn distributed_pipeline_matches_centralized() {
    let (graph, _) = gn_benchmark(&GnParams {
        groups: 3,
        group_size: 12,
        ..Default::default()
    });
    let csr = CsrGraph::from_adjacency(&graph);
    let partitioner = HashPartitioner::new(4);
    let t_max = 40;

    let central_state = run_propagation(&graph, t_max, 9);
    let central = postprocess(&graph, &central_state);

    let (bsp_state, _) = run_propagation_bsp(&csr, t_max, 9, &partitioner, Executor::Parallel);
    // Exhaustive candidate budget: the sweep evaluates every distinct
    // weight and must therefore agree with the centralized sweep exactly.
    let (bsp, _) = postprocess_bsp_with_candidates(
        &csr,
        &bsp_state,
        &partitioner,
        Executor::Parallel,
        usize::MAX,
    );

    for v in 0..graph.num_vertices() as u32 {
        assert_eq!(central_state.label_sequence(v), bsp_state.label_sequence(v));
    }
    assert_eq!(central.cover, bsp.cover);
}

/// The traffic claim of §III-A: per-iteration messages O(|V|) for rSLPA
/// vs O(|E|) for SLPA, on a graph dense enough to matter.
#[test]
fn rslpa_traffic_beats_slpa_on_dense_graphs() {
    use rslpa::baselines::SlpaProgram;
    use rslpa::distsim::BspEngine;

    let (graph, _) = gn_benchmark(&GnParams {
        groups: 4,
        group_size: 16,
        z_in: 10.0,
        z_out: 2.0,
        seed: 3,
    });
    let csr = CsrGraph::from_adjacency(&graph);
    let partitioner = HashPartitioner::new(4);
    let iterations = 20;

    let (_, rslpa_stats) =
        run_propagation_bsp(&csr, iterations, 1, &partitioner, Executor::Sequential);

    let config = SlpaConfig {
        iterations,
        threshold: 0.2,
        seed: 1,
    };
    let mut engine = BspEngine::new(
        &csr,
        SlpaProgram { config },
        &partitioner,
        Executor::Sequential,
    );
    engine.run(iterations + 2);
    let slpa_stats = engine.stats().clone();

    // rSLPA: 2 messages per vertex per iteration. SLPA: 2 per edge.
    assert!(
        rslpa_stats.total_messages() < slpa_stats.total_messages() / 2,
        "rSLPA {} vs SLPA {}",
        rslpa_stats.total_messages(),
        slpa_stats.total_messages()
    );
}

/// Vertex arrival/departure: the paper's reduction of vertex operations to
/// edge batches, through the public API.
#[test]
fn vertex_arrival_and_departure() {
    let graph = AdjacencyGraph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
    let mut detector = RslpaDetector::new(graph, RslpaConfig::quick(30, 6));
    // Arrival: vertex 6 joins the first triangle.
    detector.ensure_vertices(7);
    detector
        .apply_batch(&EditBatch::from_lists([(6, 0), (6, 1), (6, 2)], []))
        .unwrap();
    let cover = detector.detect().result.cover;
    assert!(cover.communities().iter().any(|c| c.contains(&6)));
    // Departure: vertex 6 loses all edges again.
    detector
        .apply_batch(&EditBatch::from_lists([], [(6, 0), (6, 1), (6, 2)]))
        .unwrap();
    let cover = detector.detect().result.cover;
    assert!(cover.communities().iter().all(|c| !c.contains(&6)));
}

/// Sanity: partition NMI and overlapping NMI agree on disjoint covers.
#[test]
fn nmi_variants_agree_on_partitions() {
    let a = Cover::new(vec![vec![0, 1, 2], vec![3, 4, 5]]);
    let b = Cover::new(vec![vec![0, 1, 2], vec![3, 4, 5]]);
    assert!((overlapping_nmi(&a, &b, 6) - 1.0).abs() < 1e-12);
    assert!((partition_nmi(&[0, 0, 0, 1, 1, 1], &[5, 5, 5, 9, 9, 9]) - 1.0).abs() < 1e-12);
}
