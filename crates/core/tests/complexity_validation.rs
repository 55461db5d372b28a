//! Empirical validation of the §IV-D complexity model.
//!
//! The model's assumptions ("edges are deleted and inserted randomly with
//! no prior distribution", "no priori knowledge about the distribution of
//! vertex degrees") describe exactly the Erdős–Rényi + uniform-batch
//! workload, so measured update counts must track η̂ and respect the
//! best/worst bounds there.

use rslpa_core::complexity::{eta_lower_bound, eta_upper_bound, expected_eta, p_c};
use rslpa_core::incremental::apply_correction;
use rslpa_core::propagation::run_propagation;
use rslpa_gen::edits::uniform_batch;
use rslpa_gen::er::erdos_renyi;
use rslpa_graph::DynamicGraph;

/// Average measured η over `trials` seeds for one batch size.
fn measure_eta(n: usize, m: usize, t_max: usize, batch: usize, trials: u64) -> f64 {
    let mut total = 0usize;
    for seed in 0..trials {
        let g = erdos_renyi(n, m, 1000 + seed);
        let mut dg = DynamicGraph::new(g);
        let mut state = run_propagation(dg.graph(), t_max, seed);
        let b = uniform_batch(dg.graph(), batch, 77 + seed);
        let applied = dg.apply(&b).unwrap();
        let report = apply_correction(&mut state, dg.graph(), &applied, None, &mut Vec::new());
        total += report.eta;
    }
    total as f64 / trials as f64
}

#[test]
fn measured_eta_within_model_bounds() {
    let (n, m, t_max) = (300usize, 1800usize, 30usize);
    for batch in [20usize, 60, 120] {
        let pc = p_c(batch / 2, batch - batch / 2, m);
        let lo = eta_lower_bound(t_max, n, pc);
        let hi = eta_upper_bound(t_max, n, pc);
        let measured = measure_eta(n, m, t_max, batch, 8);
        assert!(
            measured >= 0.8 * lo,
            "batch {batch}: measured {measured} below lower bound {lo}"
        );
        assert!(
            measured <= 1.2 * hi,
            "batch {batch}: measured {measured} above upper bound {hi}"
        );
    }
}

#[test]
fn measured_eta_tracks_expectation() {
    let (n, m, t_max) = (300usize, 1800usize, 30usize);
    let batch = 60usize;
    let pc = p_c(batch / 2, batch - batch / 2, m);
    let expected = expected_eta(t_max, n, pc);
    let measured = measure_eta(n, m, t_max, batch, 12);
    let ratio = measured / expected;
    // The estimator uses mean-field edge-switch probabilities; on ER
    // graphs it should land within a factor ~2 of the measurement.
    assert!(
        (0.4..=2.5).contains(&ratio),
        "measured {measured} vs η̂ {expected} (ratio {ratio})"
    );
}

#[test]
fn eta_grows_sublinearly_in_batch_size() {
    // Fig. 9's qualitative claim: 10× batch ⇒ < 10× updates, because
    // overlapping propagation trees share corrections.
    let (n, m, t_max) = (300usize, 1800usize, 30usize);
    let small = measure_eta(n, m, t_max, 30, 6);
    let large = measure_eta(n, m, t_max, 300, 6);
    assert!(large > small, "more edits must cost more");
    assert!(
        large < 10.0 * small,
        "10x batch should be sublinear: {small} -> {large}"
    );
}
