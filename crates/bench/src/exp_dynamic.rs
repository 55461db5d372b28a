//! Figure 9 and the §IV-D validation: incremental vs from-scratch cost.

use std::time::Instant;

use rslpa_core::complexity::{eta_lower_bound, eta_upper_bound, expected_eta, p_c};
use rslpa_core::incremental::apply_correction;
use rslpa_core::incremental_bsp::run_correction_bsp;
use rslpa_core::propagation::run_propagation;
use rslpa_core::propagation_bsp::run_propagation_bsp;
use rslpa_distsim::{Executor, RunStats, SuperstepStats};
use rslpa_gen::edits::uniform_batch;
use rslpa_gen::er::erdos_renyi;
use rslpa_graph::{CsrGraph, DynamicGraph, HashPartitioner};

use crate::exp_web::web_graph;
use crate::report::{f3, Table};
use crate::scale::Scale;

/// Replace superstep 0 of a correction run (full state residency in our
/// engine) with the work a persistent deployment would do: only affected
/// vertices scan their `T` picks.
fn repair_cost(stats: &RunStats, affected: usize, t_max: usize, workers: usize) -> RunStats {
    let mut adjusted = stats.clone();
    if let Some(s0) = adjusted.supersteps.first_mut() {
        let compute = (affected * t_max) as u64;
        *s0 = SuperstepStats {
            active_vertices: affected as u64,
            max_worker_compute: compute.div_ceil(workers as u64).max(1),
            ..*s0
        };
    }
    adjusted
}

/// Fig. 9: incremental updating vs running from scratch, per batch size.
pub fn fig9(scale: &Scale) {
    let g = web_graph(scale);
    let csr = CsrGraph::from_adjacency(&g);
    let partitioner = HashPartitioner::new(scale.workers);
    let model = crate::scale::scaled_model();
    let t_max = scale.t_rslpa;

    // From-scratch reference: one full BSP propagation on the edited graph.
    let scratch_start = Instant::now();
    let (state0, scratch_stats) =
        run_propagation_bsp(&csr, t_max, 4, &partitioner, Executor::Parallel);
    let scratch_wall = scratch_start.elapsed().as_secs_f64();
    let scratch_time = scratch_stats.simulated_time(&model);

    let mut table = Table::new(
        format!(
            "Fig. 9 — incremental vs scratch on the web graph (|V|={}, |E|={}, T={t_max})",
            g.num_vertices(),
            g.num_edges()
        ),
        &[
            "batch",
            "eta",
            "eta/|labels|",
            "incr time (sim s)",
            "scratch (sim s)",
            "speedup",
            "incr wall (s)",
        ],
    );
    let total_labels = (g.num_vertices() * t_max) as f64;
    for &batch_size in &scale.batch_sizes {
        if batch_size / 2 >= g.num_edges() {
            continue;
        }
        // Apply the batch and repair, measuring both implementations.
        let mut dg = DynamicGraph::new(g.clone());
        let batch = uniform_batch(dg.graph(), batch_size, 1000 + batch_size as u64);
        let applied = dg.apply(&batch).expect("valid batch");
        let csr_after = CsrGraph::from_adjacency(dg.graph());

        let wall_start = Instant::now();
        let mut central_state = state0.clone();
        let report = apply_correction(
            &mut central_state,
            dg.graph(),
            &applied,
            None,
            &mut Vec::new(),
        );
        let incr_wall = wall_start.elapsed().as_secs_f64();

        let (_, bsp_stats) = run_correction_bsp(
            &state0,
            &csr_after,
            &applied,
            &partitioner,
            Executor::Parallel,
        );
        let adjusted = repair_cost(&bsp_stats, report.affected_vertices, t_max, scale.workers);
        let incr_time = adjusted.simulated_time(&model);
        table.row(vec![
            batch_size.to_string(),
            report.eta.to_string(),
            f3(report.eta as f64 / total_labels),
            f3(incr_time),
            f3(scratch_time),
            format!("{:.1}x", scratch_time / incr_time.max(1e-9)),
            format!("{incr_wall:.3}"),
        ]);
    }
    table.print();
    println!(
        "scratch wall-clock (centralized-equivalent BSP run): {scratch_wall:.2}s.\n\
         expected shape: incremental time grows sublinearly in batch size and stays\n\
         below scratch for every batch the paper tested.\n"
    );
}

/// §IV-D (Eqs. 8/10/12): measured η against the model and its bounds.
pub fn eq8(scale: &Scale) {
    let n = 2_000usize;
    let m = 12_000usize;
    let t_max = scale.t_rslpa.min(100);
    let trials = scale.runs.max(3);
    let mut table = Table::new(
        format!("Eq. 8 — measured eta vs model (ER n={n}, m={m}, T={t_max}, {trials} trials)"),
        &[
            "batch",
            "p_c",
            "lower (Eq.10)",
            "eta-hat (Eq.8)",
            "measured",
            "upper (Eq.12)",
        ],
    );
    for &batch_size in &[40usize, 100, 200, 400, 800] {
        let pc = p_c(batch_size / 2, batch_size - batch_size / 2, m);
        let mut measured = 0.0;
        for seed in 0..trials {
            let g = erdos_renyi(n, m, 9_000 + seed);
            let mut dg = DynamicGraph::new(g);
            let mut state = run_propagation(dg.graph(), t_max, seed);
            let batch = uniform_batch(dg.graph(), batch_size, 31 + seed);
            let applied = dg.apply(&batch).expect("valid");
            let report = apply_correction(&mut state, dg.graph(), &applied, None, &mut Vec::new());
            measured += report.eta as f64;
        }
        measured /= trials as f64;
        table.row(vec![
            batch_size.to_string(),
            f3(pc),
            f3(eta_lower_bound(t_max, n, pc)),
            f3(expected_eta(t_max, n, pc)),
            f3(measured),
            f3(eta_upper_bound(t_max, n, pc)),
        ]);
    }
    table.print();
    println!("expected: measured within [lower, upper], tracking eta-hat.\n");
}

/// §I's criticisms of the prior dynamic detectors, measured: LabelRankT's
/// incremental updates drift from its own scratch results, while rSLPA's
/// stay statistically indistinguishable; iLCD simply has no deletion API.
pub fn abl_dyn(scale: &Scale) {
    use rslpa_baselines::{LabelRankConfig, LabelRankT};
    use rslpa_core::{postprocess, RslpaConfig, RslpaDetector};
    use rslpa_metrics::overlapping_nmi;

    let params = scale.lfr(scale.lfr_n.min(1_000), 41);
    let instance = params.generate().expect("LFR generation");
    let truth = &instance.ground_truth;
    let n = instance.graph.num_vertices();
    let t_max = scale.t_rslpa.min(120);
    let rounds = 5u64;
    let batch_size = 100usize;

    let mut table = Table::new(
        format!(
            "Ablation — incremental vs scratch parity after {rounds} batches of {batch_size} edits"
        ),
        &["algorithm", "NMI incremental", "NMI scratch", "|gap|"],
    );

    // rSLPA: Correction Propagation vs fresh run on the final graph.
    let mut detector = RslpaDetector::new(instance.graph.clone(), RslpaConfig::quick(t_max, 3));
    let mut batches = Vec::new();
    for round in 0..rounds {
        let batch = uniform_batch(detector.graph(), batch_size, 400 + round);
        detector.apply_batch(&batch).expect("valid");
        batches.push(batch);
    }
    let rslpa_inc = overlapping_nmi(&detector.detect().result.cover, truth, n);
    let scratch_state = run_propagation(detector.graph(), t_max, 999);
    let rslpa_scr = overlapping_nmi(
        &postprocess(detector.graph(), &scratch_state).cover,
        truth,
        n,
    );
    table.row(vec![
        "rSLPA".into(),
        f3(rslpa_inc),
        f3(rslpa_scr),
        f3((rslpa_inc - rslpa_scr).abs()),
    ]);

    // LabelRankT: selective updates vs a full rerun on the final graph.
    let mut lrt = LabelRankT::new(&instance.graph, LabelRankConfig::default());
    let mut graph = instance.graph.clone();
    for batch in &batches {
        let mut dg = DynamicGraph::new(graph);
        dg.apply(batch).expect("valid");
        graph = dg.graph().clone();
        lrt.apply_batch(&graph, batch);
    }
    let lrt_inc = overlapping_nmi(&lrt.communities(), truth, n);
    let lrt_scr = overlapping_nmi(
        &LabelRankT::new(&graph, LabelRankConfig::default()).communities(),
        truth,
        n,
    );
    table.row(vec![
        "LabelRankT".into(),
        f3(lrt_inc),
        f3(lrt_scr),
        f3((lrt_inc - lrt_scr).abs()),
    ]);
    table.print();
    println!(
        "expected: rSLPA's gap is sampling noise (its incremental state is *provably*\n\
         distributed as a scratch run); LabelRankT carries no such guarantee — its gap\n\
         varies with the workload — and its absolute quality is far lower.\n\
         (iLCD is omitted: its API has no deletion operation — the paper's other §I point.)\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_speedup_holds_at_tiny_scale() {
        let mut scale = Scale::quick();
        scale.web_scale = 9;
        scale.t_rslpa = 30;
        scale.batch_sizes = vec![10, 50];
        // Smoke: runs end-to-end and incremental beats scratch.
        let g = web_graph(&scale);
        let csr = CsrGraph::from_adjacency(&g);
        let p = HashPartitioner::new(scale.workers);
        let model = crate::scale::scaled_model();
        let (state0, scratch) =
            run_propagation_bsp(&csr, scale.t_rslpa, 4, &p, Executor::Sequential);
        let mut dg = DynamicGraph::new(g);
        let batch = uniform_batch(dg.graph(), 10, 2);
        let applied = dg.apply(&batch).unwrap();
        let csr_after = CsrGraph::from_adjacency(dg.graph());
        let mut central = state0.clone();
        let report = apply_correction(&mut central, dg.graph(), &applied, None, &mut Vec::new());
        let (_, bsp_stats) =
            run_correction_bsp(&state0, &csr_after, &applied, &p, Executor::Sequential);
        let adjusted = repair_cost(
            &bsp_stats,
            report.affected_vertices,
            scale.t_rslpa,
            scale.workers,
        );
        assert!(
            adjusted.simulated_time(&model) < scratch.simulated_time(&model),
            "incremental must beat scratch for a 10-edge batch"
        );
    }
}
