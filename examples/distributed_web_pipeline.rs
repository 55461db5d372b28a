//! The distributed web-graph pipeline of the paper's §V-B, end to end on
//! the simulated cluster: generate a web-like graph (the `eu-2015-tpd`
//! stand-in), prepare it (symmetrize/dedupe/drop self-loops), run BSP
//! rSLPA on 7 simulated workers, post-process distributedly, and report
//! per-phase communication costs under the α–β–γ time model.
//!
//! ```sh
//! cargo run --release --example distributed_web_pipeline
//! ```

use rslpa::core::postprocess_bsp::postprocess_bsp;
use rslpa::core::propagation_bsp::run_propagation_bsp;
use rslpa::graph::GraphStats;
use rslpa::metrics::modularity;
use rslpa::prelude::*;

fn main() {
    // 1. "Crawl": an R-MAT graph with web-like corner weights (the
    //    `rslpa_gen::webgraph` module docs give the substitution
    //    argument), then the paper's own preparation pipeline — rmat()
    //    already symmetrizes, dedupes and drops self-loops through
    //    GraphBuilder.
    let scale = 13; // 8192 pages; raise to taste
    let raw = rslpa::gen::webgraph::rmat(&rslpa::gen::webgraph::RmatParams::web(scale, 2015));
    println!(
        "simulated web crawl (Table II analogue):\n{}",
        GraphStats::compute(&raw)
    );

    // 2. Distribute over 7 workers (the paper's cluster size).
    let csr = CsrGraph::from_adjacency(&raw);
    let workers = 7;
    let partitioner = HashPartitioner::new(workers);

    // 3. BSP label propagation, T = 200 (the paper's rSLPA setting).
    let t_max = 200;
    let (state, prop_stats) =
        run_propagation_bsp(&csr, t_max, 42, &partitioner, Executor::Parallel);
    let model = CostModel::default();
    println!(
        "\nlabel propagation: {} rounds, {:.1}M messages ({:.1}M remote), simulated {:.2}s on {workers} workers",
        prop_stats.rounds(),
        prop_stats.total_messages() as f64 / 1e6,
        prop_stats.total_remote_messages() as f64 / 1e6,
        prop_stats.simulated_time(&model),
    );

    // 4. Distributed post-processing.
    let (result, post_stats) = postprocess_bsp(&csr, &state, &partitioner, Executor::Parallel);
    println!(
        "post-processing:   {} rounds, {:.1}M messages, {:.1} MB shipped, simulated {:.2}s",
        post_stats.rounds(),
        post_stats.total_messages() as f64 / 1e6,
        post_stats.total_bytes() as f64 / 1e6,
        post_stats.simulated_time(&model),
    );

    // 5. Report.
    let cover = &result.cover;
    let sizes = cover.sizes();
    println!(
        "\ndetected {} communities (tau1 = {:.4}, tau2 = {:.4})",
        cover.len(),
        result.tau1,
        result.tau2
    );
    if !sizes.is_empty() {
        let max = sizes.iter().max().unwrap();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        println!("community sizes: avg {avg:.1}, max {max}");
    }
    println!(
        "coverage: {} of {} pages in >=1 community, {} overlapping",
        cover.covered_vertices().len(),
        raw.num_vertices(),
        cover.num_overlapping(raw.num_vertices()),
    );
    println!(
        "modularity of the (first-membership) partition: {:.3}",
        modularity(&raw, cover)
    );
}
