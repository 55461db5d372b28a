//! Convergence study (the pivot experiment behind Fig. 7a): how many
//! iterations does rSLPA need before detection quality stabilizes, and how
//! does that compare to SLPA at its default T = 100?
//!
//! ```sh
//! cargo run --release --example convergence_study
//! ```

use rslpa::prelude::*;

fn main() {
    let n = 1_000;
    let params = LfrParams {
        seed: 5,
        ..LfrParams::scaled(n)
    };
    let instance = params.generate().expect("LFR generation");
    let truth = &instance.ground_truth;
    println!(
        "LFR benchmark: {n} vertices, {} edges, mixing {:.3}, {} communities",
        instance.graph.num_edges(),
        instance.achieved_mixing,
        truth.len()
    );

    println!("\n rSLPA NMI vs iterations (avg of 3 seeds):");
    println!("  T    NMI");
    for t_max in [25usize, 50, 100, 150, 200, 300] {
        let mut nmi = 0.0;
        let runs = 3;
        for seed in 0..runs {
            let state = run_propagation(&instance.graph, t_max, seed);
            let cover = postprocess(&instance.graph, &state).cover;
            nmi += overlapping_nmi(&cover, truth, n);
        }
        println!("  {t_max:<4} {:.3}", nmi / runs as f64);
    }

    let slpa = run_slpa(
        &instance.graph,
        &SlpaConfig {
            iterations: 100,
            threshold: 0.2,
            seed: 1,
        },
    );
    let slpa_nmi = overlapping_nmi(&slpa.cover, truth, n);
    println!("\n SLPA reference (T = 100, tau = 0.2): NMI {slpa_nmi:.3}");
    println!("\n(The paper's Fig. 7a: rSLPA stabilizes for T >= 200; use `repro fig7a` for the full sweep.)");
}
