//! Ablations backing individual claims from §III–§IV.

use rslpa_baselines::slpa_bsp::SlpaProgram;
use rslpa_baselines::SlpaConfig;
use rslpa_core::propagation_bsp::run_propagation_bsp;
use rslpa_core::{postprocess, run_propagation};
use rslpa_distsim::{distributed_components, BspEngine, Executor};
use rslpa_gen::edits::{targeted_batch, EditWorkload};
use rslpa_gen::er::erdos_renyi;
use rslpa_graph::partition::{edge_cut, BfsPartitioner, BlockPartitioner};
use rslpa_graph::{AdjacencyGraph, CsrGraph, HashPartitioner, Partitioner};
use rslpa_metrics::overlapping_nmi;

use crate::report::{f3, Table};
use crate::scale::Scale;

/// §III-A claim: per-iteration traffic O(|V|) for rSLPA vs O(|E|) for
/// SLPA — sweep average degree and watch who grows.
pub fn abl_msgs(scale: &Scale) {
    let n = 2_000usize;
    let iters = 10usize;
    let mut table = Table::new(
        format!("Ablation — per-iteration messages vs density (n={n}, T={iters})"),
        &[
            "avg degree",
            "|E|",
            "SLPA msgs/iter",
            "rSLPA msgs/iter",
            "ratio",
        ],
    );
    let partitioner = HashPartitioner::new(scale.workers);
    for &k in &[4usize, 8, 16, 32, 64] {
        let g = erdos_renyi(n, n * k / 2, 42);
        let csr = CsrGraph::from_adjacency(&g);
        let config = SlpaConfig {
            iterations: iters,
            threshold: 0.2,
            seed: 1,
        };
        let mut engine = BspEngine::new(
            &csr,
            SlpaProgram { config },
            &partitioner,
            Executor::Sequential,
        );
        engine.run(iters + 2);
        let slpa = engine.stats().total_messages() as f64 / iters as f64;
        let (_, stats) = run_propagation_bsp(&csr, iters, 1, &partitioner, Executor::Sequential);
        let rslpa = stats.total_messages() as f64 / iters as f64;
        table.row(vec![
            k.to_string(),
            g.num_edges().to_string(),
            f3(slpa),
            f3(rslpa),
            format!("{:.1}x", slpa / rslpa),
        ]);
    }
    table.print();
    println!("expected: SLPA grows linearly with degree; rSLPA stays ~2|V|.\n");
}

/// §III-B claim: post-processing components converge in O(log d) rounds.
pub fn abl_post(_scale: &Scale) {
    let mut table = Table::new(
        "Ablation — hash-to-min rounds vs graph diameter",
        &["path length (diameter)", "rounds", "log2(d)"],
    );
    for &d in &[64usize, 256, 1024, 4096] {
        let g = AdjacencyGraph::from_edges(d + 1, (0..d as u32).map(|i| (i, i + 1)));
        let csr = CsrGraph::from_adjacency(&g);
        let (_, stats) = distributed_components(
            &csr,
            |_, _| true,
            &HashPartitioner::new(4),
            Executor::Sequential,
            100_000,
        );
        table.row(vec![
            d.to_string(),
            stats.rounds().to_string(),
            f3((d as f64).log2()),
        ]);
    }
    table.print();
    println!("expected: rounds grow ~logarithmically, far below the diameter.\n");
}

/// Extension ablation: targeted batches — does churn direction matter?
pub fn abl_edits(scale: &Scale) {
    let params = scale.lfr(scale.lfr_n.min(1_000), 23);
    let instance = params.generate().expect("LFR generation");
    let truth = instance.ground_truth.clone();
    let n = instance.graph.num_vertices();
    let t_max = scale.t_rslpa.min(120);
    let mut table = Table::new(
        "Ablation — NMI after 4 targeted batches of 100 edits",
        &["workload", "NMI before", "NMI after", "eta total"],
    );
    for workload in [
        EditWorkload::Uniform,
        EditWorkload::Consolidating,
        EditWorkload::Eroding,
    ] {
        let mut detector = rslpa_core::RslpaDetector::new(
            instance.graph.clone(),
            rslpa_core::RslpaConfig::quick(t_max, 2),
        );
        let before = overlapping_nmi(&detector.detect().result.cover, &truth, n);
        let mut eta = 0usize;
        for round in 0..4u64 {
            let batch = targeted_batch(detector.graph(), &truth, workload, 100, 50 + round);
            eta += detector.apply_batch(&batch).expect("valid").eta;
        }
        let after = overlapping_nmi(&detector.detect().result.cover, &truth, n);
        table.row(vec![
            format!("{workload:?}"),
            f3(before),
            f3(after),
            eta.to_string(),
        ]);
    }
    table.print();
    println!(
        "expected: eta is workload-insensitive (p_c depends only on batch size); NMI\n\
         differences between churn directions are within run-to-run noise at this scale.\n"
    );
}

/// Extension ablation: partitioner sensitivity of remote traffic.
pub fn abl_part(scale: &Scale) {
    let params = scale.lfr(scale.lfr_n.min(2_000), 29);
    let instance = params.generate().expect("LFR generation");
    let csr = CsrGraph::from_adjacency(&instance.graph);
    let t_max = 20usize;
    let mut table = Table::new(
        format!(
            "Ablation — partitioner sensitivity ({} workers, T={t_max})",
            scale.workers
        ),
        &[
            "partitioner",
            "edge cut",
            "remote msgs",
            "total msgs",
            "remote %",
        ],
    );
    let hash = HashPartitioner::new(scale.workers);
    let block = BlockPartitioner::new(csr.num_vertices(), scale.workers);
    let bfs = BfsPartitioner::plan(&csr, scale.workers);
    let parts: Vec<(&str, &dyn Partitioner)> =
        vec![("hash", &hash), ("block", &block), ("bfs-locality", &bfs)];
    for (name, p) in parts {
        let (_, stats) = run_propagation_bsp(&csr, t_max, 1, p, Executor::Sequential);
        let remote = stats.total_remote_messages();
        let total = stats.total_messages();
        table.row(vec![
            name.into(),
            f3(edge_cut(&csr, p)),
            remote.to_string(),
            total.to_string(),
            format!("{:.0}%", 100.0 * remote as f64 / total as f64),
        ]);
    }
    table.print();
    println!(
        "expected: locality partitioning cuts remote traffic; totals identical (same algorithm).\n"
    );
}

/// Extension: per-stage centralized wall-clock profile of the rSLPA
/// pipeline (not in the paper; engineering visibility).
pub fn profile(scale: &Scale) {
    use std::time::Instant;
    let params = scale.lfr(scale.lfr_n, 31);
    let instance = params.generate().expect("LFR generation");
    let t_max = scale.t_rslpa;
    let start = Instant::now();
    let state = run_propagation(&instance.graph, t_max, 1);
    let prop = start.elapsed();
    let start = Instant::now();
    let result = postprocess(&instance.graph, &state);
    let post = start.elapsed();
    let mut table = Table::new(
        format!(
            "Profile — centralized rSLPA on LFR n={} (T={t_max})",
            instance.graph.num_vertices()
        ),
        &["stage", "wall (ms)", "notes"],
    );
    table.row(vec![
        "label propagation".into(),
        format!("{:.1}", prop.as_secs_f64() * 1e3),
        format!("{} picks", instance.graph.num_vertices() * t_max),
    ]);
    table.row(vec![
        "post-processing".into(),
        format!("{:.1}", post.as_secs_f64() * 1e3),
        format!(
            "{} communities, tau1={:.3}",
            result.cover.len(),
            result.tau1
        ),
    ]);
    table.row(vec![
        "state memory".into(),
        format!("{:.1}", state.memory_bytes() as f64 / 1e6),
        "MB resident".into(),
    ]);
    table.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_smoke() {
        let mut scale = Scale::quick();
        scale.lfr_n = 300;
        scale.t_rslpa = 30;
        scale.workers = 3;
        abl_post(&scale);
        abl_part(&scale);
    }
}
