//! Criterion: the post-processing pipeline — edge weights, the τ1 entropy
//! sweep, extraction — against SLPA's cheap thresholding (Fig. 8's post
//! stage).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rslpa_baselines::slpa::extract_cover;
use rslpa_baselines::{run_slpa, SlpaConfig};
use rslpa_core::postprocess::{edge_weights, postprocess, select_tau1, select_tau2};
use rslpa_core::run_propagation;
use rslpa_gen::er::erdos_renyi;

fn bench_postprocess(c: &mut Criterion) {
    let mut group = c.benchmark_group("postprocess");
    group.sample_size(10);
    for &n in &[1_000usize, 4_000] {
        let g = erdos_renyi(n, n * 8, 5);
        let t = 100;
        let state = run_propagation(&g, t, 1);
        group.bench_with_input(BenchmarkId::new("edge_weights", n), &g, |b, g| {
            b.iter(|| edge_weights(g, &state));
        });
        let weights = edge_weights(&g, &state);
        group.bench_with_input(
            BenchmarkId::new("tau_selection", n),
            &weights,
            |b, weights| {
                b.iter(|| {
                    let tau2 = select_tau2(n, weights);
                    select_tau1(n, weights, tau2)
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("full_pipeline", n), &g, |b, g| {
            b.iter(|| postprocess(g, &state));
        });
        let slpa = run_slpa(
            &g,
            &SlpaConfig {
                iterations: t,
                threshold: 0.2,
                seed: 1,
            },
        );
        group.bench_with_input(
            BenchmarkId::new("slpa_thresholding", n),
            &slpa.memories,
            |b, m| {
                b.iter(|| extract_cover(m, 0.2));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_postprocess);
criterion_main!(benches);
