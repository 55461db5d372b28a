//! Table II and Figure 8: the (simulated) web-graph experiments.

use rslpa_baselines::slpa_bsp::{extract_cover_bsp, SlpaProgram};
use rslpa_baselines::SlpaConfig;
use rslpa_core::postprocess_bsp::postprocess_bsp;
use rslpa_core::propagation_bsp::run_propagation_bsp;
use rslpa_distsim::{BspEngine, Executor, RunStats};
use rslpa_gen::webgraph::{rmat, RmatParams};
use rslpa_graph::{AdjacencyGraph, CsrGraph, GraphStats, HashPartitioner};

use crate::report::{f3, Table};
use crate::scale::Scale;

/// The web graph standing in for `eu-2015-tpd` (see [`rslpa_gen::webgraph`]
/// for the substitution argument).
pub fn web_graph(scale: &Scale) -> AdjacencyGraph {
    rmat(&RmatParams::web(scale.web_scale, 2015))
}

/// Table II: statistics of the simulated crawl after preparation.
pub fn table2(scale: &Scale) {
    let g = web_graph(scale);
    let stats = GraphStats::compute(&g);
    let mut table = Table::new(
        format!(
            "Table II — simulated web graph (R-MAT scale {}, eu-2015-tpd stand-in)",
            scale.web_scale
        ),
        &["statistic", "value"],
    );
    table.row(vec!["# nodes".into(), stats.num_vertices.to_string()]);
    table.row(vec![
        "# edges (undirected)".into(),
        stats.num_edges.to_string(),
    ]);
    table.row(vec!["avg. degree".into(), f3(stats.avg_degree)]);
    table.row(vec!["max degree".into(), stats.max_degree.to_string()]);
    table.row(vec![
        "isolated vertices".into(),
        stats.isolated_vertices.to_string(),
    ]);
    table.row(vec![
        "# components".into(),
        stats.num_components.to_string(),
    ]);
    table.row(vec![
        "largest component".into(),
        stats.largest_component.to_string(),
    ]);
    table.print();
    println!("paper's crawl: 6,650,532 nodes, 170,145,510 directed edges, avg degree 25.58.\n");
}

/// Fig. 8 measurement bundle for one algorithm.
pub struct Fig8Row {
    /// Algorithm name.
    pub name: &'static str,
    /// Label-propagation stats.
    pub propagation: RunStats,
    /// Post-processing stats.
    pub post: RunStats,
}

/// Run both algorithms on the web graph, distributed; return rows.
pub fn fig8_measure(scale: &Scale) -> Vec<Fig8Row> {
    let g = web_graph(scale);
    let csr = CsrGraph::from_adjacency(&g);
    let partitioner = HashPartitioner::new(scale.workers);

    // SLPA: T = 100, voting, thresholding post-processing.
    let config = SlpaConfig {
        iterations: scale.t_slpa,
        threshold: 0.2,
        seed: 8,
    };
    let mut engine = BspEngine::new(
        &csr,
        SlpaProgram { config },
        &partitioner,
        Executor::Parallel,
    );
    engine.run(scale.t_slpa + 2);
    let slpa_prop = engine.stats().clone();
    let memories = engine.into_states();
    let (_, slpa_post) = extract_cover_bsp(
        &csr,
        &memories,
        config.threshold,
        &partitioner,
        Executor::Parallel,
    );

    // rSLPA: T = 200, randomized propagation, similarity post-processing.
    let (state, rslpa_prop) =
        run_propagation_bsp(&csr, scale.t_rslpa, 8, &partitioner, Executor::Parallel);
    let (_, rslpa_post) = postprocess_bsp(&csr, &state, &partitioner, Executor::Parallel);

    vec![
        Fig8Row {
            name: "SLPA",
            propagation: slpa_prop,
            post: slpa_post,
        },
        Fig8Row {
            name: "rSLPA",
            propagation: rslpa_prop,
            post: rslpa_post,
        },
    ]
}

/// Fig. 8: running-time split, label propagation vs post-processing.
pub fn fig8(scale: &Scale) {
    let rows = fig8_measure(scale);
    let model = crate::scale::scaled_model();
    let mut table = Table::new(
        format!(
            "Fig. 8 — static running time on the web graph ({} workers, simulated seconds)",
            scale.workers
        ),
        &[
            "algorithm",
            "T",
            "LP msgs (M)",
            "LP time",
            "post msgs (M)",
            "post time",
            "total",
        ],
    );
    for row in &rows {
        let t = if row.name == "SLPA" {
            scale.t_slpa
        } else {
            scale.t_rslpa
        };
        let lp = row.propagation.simulated_time(&model);
        let post = row.post.simulated_time(&model);
        table.row(vec![
            row.name.into(),
            t.to_string(),
            f3(row.propagation.total_messages() as f64 / 1e6),
            f3(lp),
            f3(row.post.total_messages() as f64 / 1e6),
            f3(post),
            f3(lp + post),
        ]);
    }
    table.print();
    let lp_ratio = {
        let slpa = &rows[0];
        let rslpa = &rows[1];
        // Per-iteration message ratio (paper: SLPA > 5x rSLPA per iteration).
        (slpa.propagation.total_messages() as f64 / scale.t_slpa as f64)
            / (rslpa.propagation.total_messages() as f64 / scale.t_rslpa as f64)
    };
    println!(
        "per-iteration label traffic: SLPA/rSLPA = {lp_ratio:.1}x (paper: >5x).\n\
         expected shape: rSLPA faster in propagation, slower in post-processing, faster overall.\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape_holds_at_tiny_scale() {
        let mut scale = Scale::quick();
        scale.web_scale = 9; // 512 vertices
        scale.t_slpa = 20;
        scale.t_rslpa = 40;
        let rows = fig8_measure(&scale);
        let model = crate::scale::scaled_model();
        let slpa = &rows[0];
        let rslpa = &rows[1];
        // Per-iteration traffic: SLPA ~2|E|, rSLPA ~2|V|; avg degree ~20 so
        // the gap must be wide.
        let slpa_per_iter = slpa.propagation.total_messages() as f64 / scale.t_slpa as f64;
        let rslpa_per_iter = rslpa.propagation.total_messages() as f64 / scale.t_rslpa as f64;
        assert!(
            slpa_per_iter > 3.0 * rslpa_per_iter,
            "SLPA {slpa_per_iter} vs rSLPA {rslpa_per_iter} per iteration"
        );
        // Post-processing: rSLPA's similarity pipeline costs more than
        // SLPA's thresholding shuffle.
        assert!(
            rslpa.post.simulated_time(&model) > slpa.post.simulated_time(&model),
            "rSLPA post must be the slower stage"
        );
    }
}
