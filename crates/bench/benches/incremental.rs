//! Criterion: Correction Propagation vs from-scratch recomputation across
//! batch sizes (the Fig. 9 microbenchmark).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rslpa_core::incremental::apply_correction;
use rslpa_core::run_propagation;
use rslpa_gen::edits::uniform_batch;
use rslpa_gen::er::erdos_renyi;
use rslpa_graph::DynamicGraph;

fn bench_incremental(c: &mut Criterion) {
    let n = 4_000usize;
    let m = 40_000usize;
    let t = 100usize;
    let base = erdos_renyi(n, m, 3);
    let state0 = run_propagation(&base, t, 1);

    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    group.bench_function("scratch_baseline", |b| {
        b.iter(|| run_propagation(&base, t, 2));
    });
    for &batch_size in &[10usize, 100, 1_000] {
        let batch = uniform_batch(&base, batch_size, 9);
        group.bench_with_input(
            BenchmarkId::new("correction", batch_size),
            &batch,
            |b, batch| {
                b.iter(|| {
                    let mut dg = DynamicGraph::new(base.clone());
                    let mut state = state0.clone();
                    let applied = dg.apply(batch).expect("valid");
                    apply_correction(&mut state, dg.graph(), &applied, None, &mut Vec::new())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
