//! Adversarial churn suite: the named break-it scenarios scored
//! end-to-end against the serve loop.
//!
//! Not a paper experiment — the paper's dynamics (§V-B1) are uniform
//! half-insert/half-delete rewiring, exactly the churn shape dirty-region
//! incrementality handles best. This driver runs the four named
//! adversarial generators from [`rslpa_gen::adversarial`] (plus a
//! uniform-churn control over the same planted backbone) through
//! [`rslpa_serve`] at shards {1, 4}, scoring every published roster
//! against the tracked ground-truth cover with `rslpa_metrics`
//! (ONMI / F1 / omega) and reading the dirty-region counters the repair
//! plane surfaces. The output — `BENCH_churn.json` — is the honest answer
//! to "where does incremental publish degenerate toward full
//! recompute?": a scenario whose dirty-fraction is several times the
//! uniform control's is churn the incremental path no longer pays for.

use std::time::Instant;

use rslpa_gen::edits::uniform_batch;
use rslpa_gen::gn::{gn_benchmark, GnParams};
use rslpa_gen::{named_scenarios, ChurnScenario, GroundTruthTrack, ScenarioWindow};
use rslpa_graph::{AdjacencyGraph, Cover, DynamicGraph};
use rslpa_metrics::{avg_f1, omega_index, overlapping_nmi};
use rslpa_serve::{BarrierOnly, CommunityService, QualityWindow, ServeConfig, StatsReport};

use crate::host_cores;
use crate::report::{f3, Table};

/// Workload knobs for the suite.
#[derive(Clone, Debug)]
pub struct ChurnWorkload {
    /// Human label recorded in the JSON (`full` / `smoke`).
    pub mode: &'static str,
    /// Generator scale toggle (forwarded to `named_scenarios`).
    pub smoke: bool,
    /// Barrier windows replayed per scenario.
    pub windows: usize,
    /// Detector iterations `T`.
    pub iterations: usize,
    /// Shard counts swept.
    pub shards: [usize; 2],
    /// Base seed for generators and the service.
    pub seed: u64,
    /// Optional scenario-name filter (`--scenario NAME`): replay only the
    /// named scenario across the full shard sweep. Break-it
    /// ratios need the uniform control and are skipped unless it runs.
    pub scenario: Option<String>,
}

impl ChurnWorkload {
    /// The committed configuration: every scenario × shards {1,4} at full
    /// generator scale.
    pub fn full() -> Self {
        Self {
            mode: "full",
            smoke: false,
            windows: 12,
            iterations: 50,
            shards: [1, 4],
            seed: 0xC0FFEE,
            scenario: None,
        }
    }

    /// CI-scale smoke: same sweep, smoke-scale generators, fewer windows.
    pub fn smoke() -> Self {
        Self {
            mode: "smoke",
            smoke: true,
            windows: 6,
            iterations: 25,
            shards: [1, 4],
            seed: 0xC0FFEE,
            scenario: None,
        }
    }
}

/// Uniform-churn control over the same planted GN backbone the
/// truth-bearing adversarial scenarios use: the §V-B1 rewiring shape at a
/// modest steady rate (a few percent of the vertex count per window — the
/// operating point the paper's incrementality argument assumes), scored
/// against the static planted cover. Every break-it ratio in the report
/// is relative to this run: adversarial scenarios differ from it in both
/// *shape* and *volume*, because an adversarial event (a flash crowd, a
/// partition storm) is precisely a volume-and-locality anomaly.
struct UniformControl {
    params: GnParams,
    per_window: usize,
    seed: u64,
    window: usize,
}

impl UniformControl {
    fn scaled(smoke: bool, seed: u64) -> Self {
        let (params, per_window) = if smoke {
            (
                GnParams {
                    groups: 4,
                    group_size: 32,
                    z_in: 14.0,
                    z_out: 2.0,
                    seed,
                },
                4,
            )
        } else {
            (
                GnParams {
                    groups: 12,
                    group_size: 64,
                    z_in: 20.0,
                    z_out: 2.0,
                    seed,
                },
                8,
            )
        };
        Self {
            params,
            per_window,
            seed,
            window: 0,
        }
    }
}

impl ChurnScenario for UniformControl {
    fn name(&self) -> &'static str {
        "uniform_control"
    }

    fn seed_graph(&mut self) -> (AdjacencyGraph, Option<Cover>) {
        let (graph, truth) = gn_benchmark(&self.params);
        (graph, Some(truth))
    }

    fn next_window(&mut self, graph: &AdjacencyGraph) -> ScenarioWindow {
        let batch = uniform_batch(
            graph,
            self.per_window,
            self.seed
                .wrapping_add((self.window as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        self.window += 1;
        ScenarioWindow { batch, truth: None }
    }
}

/// The suite: the four named adversarial scenarios plus the uniform
/// control, freshly seeded (scenarios are stateful; every replay config
/// needs its own instances).
fn scenario_suite(smoke: bool, seed: u64) -> Vec<Box<dyn ChurnScenario>> {
    let mut suite = named_scenarios(smoke, seed);
    suite.push(Box::new(UniformControl::scaled(smoke, seed ^ 0x5eed_0004)));
    suite
}

/// One scenario replayed through one service configuration.
pub struct ChurnRun {
    /// Scenario name (`flash_crowd`, ..., `uniform_control`).
    pub scenario: &'static str,
    /// Maintenance shards.
    pub shards: usize,
    /// Edit ops submitted (insert + delete, no barriers).
    pub edits_submitted: u64,
    /// First submit → final barrier, seconds.
    pub ingest_secs: f64,
    /// Sustained ingest including publishes.
    pub edits_per_sec: f64,
    /// Final published epoch.
    pub final_epoch: u64,
    /// Final epoch's weight-list fingerprint (bit-identity check key).
    pub final_fingerprint: u64,
    /// Communities in the final roster.
    pub final_communities: usize,
    /// Final service stats (carries `quality_per_window`, dirty counters).
    pub stats: StatsReport,
}

/// Replay one freshly-seeded scenario through a service, scoring every
/// barrier window's published roster against the tracked cover.
fn run_one(scenario: &mut dyn ChurnScenario, w: &ChurnWorkload, shards: usize) -> ChurnRun {
    let (graph, truth0) = scenario.seed_graph();
    let mut track = GroundTruthTrack::seeded(truth0);
    let mut shadow = DynamicGraph::new(graph.clone());
    let service = CommunityService::start(
        graph,
        ServeConfig::quick(w.iterations, w.seed)
            .with_policy(BarrierOnly)
            .with_shards(shards),
    );
    let ingest = service.ingest();
    let mut submitted = 0u64;
    let started = Instant::now();
    for window in 0..w.windows {
        let sw = scenario.next_window(shadow.graph());
        if let Some(m) = sw.batch.insertions().iter().map(|&(u, v)| u.max(v)).max() {
            shadow.ensure_vertices((m as usize + 1).max(shadow.graph().num_vertices()));
        }
        shadow.apply(&sw.batch).expect("scenario batch validates");
        for &(u, v) in sw.batch.deletions() {
            ingest.delete(u, v).expect("service alive");
        }
        for &(u, v) in sw.batch.insertions() {
            ingest.insert(u, v).expect("service alive");
        }
        submitted += sw.batch.len() as u64;
        let epoch = ingest.barrier().expect("service alive");
        track.push(sw.truth);
        if let Some(truth) = track.cover_at(window) {
            let snap = service.latest();
            let n = snap.num_vertices;
            service.note_quality_window(QualityWindow {
                epoch,
                onmi: overlapping_nmi(&snap.cover, truth, n),
                f1: avg_f1(&snap.cover, truth, n),
                omega: omega_index(&snap.cover, truth, n),
            });
        }
    }
    let ingest_secs = started.elapsed().as_secs_f64();
    let last = service.latest();
    let (final_fingerprint, final_communities, final_epoch) =
        (last.weights_fingerprint, last.cover.len(), last.epoch);
    drop(last);
    let stats = service.shutdown();
    ChurnRun {
        scenario: scenario.name(),
        shards,
        edits_submitted: submitted,
        ingest_secs,
        edits_per_sec: stats.edits_enqueued as f64 / ingest_secs.max(1e-9),
        final_epoch,
        final_fingerprint,
        final_communities,
        stats,
    }
}

/// Last scored window's ONMI, if any window was scored.
fn final_onmi(r: &ChurnRun) -> Option<f64> {
    r.stats.quality_per_window.last().map(|q| q.onmi)
}

fn quality_json(stats: &StatsReport) -> String {
    stats
        .quality_per_window
        .iter()
        .map(|q| {
            format!(
                "{{\"epoch\": {}, \"onmi\": {:.6}, \"f1\": {:.6}, \"omega\": {:.6}}}",
                q.epoch, q.onmi, q.f1, q.omega
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Run the sweep, print per-scenario tables, verify cross-config
/// bit-identity, and write `out_path` (`BENCH_churn.json`).
pub fn churn(w: &ChurnWorkload, out_path: &str) {
    let all_names: Vec<&'static str> = scenario_suite(w.smoke, w.seed)
        .iter()
        .map(|s| s.name())
        .collect();
    if let Some(filter) = &w.scenario {
        assert!(
            all_names.iter().any(|n| n == filter),
            "--scenario {filter:?} is not in the suite; known scenarios: {all_names:?}"
        );
        eprintln!("[churn:{}] filtered to scenario {filter}", w.mode);
    }
    let selected = |name: &str| w.scenario.as_deref().is_none_or(|f| f == name);
    eprintln!(
        "[churn:{}] {} windows x shards {:?}, T={}",
        w.mode, w.windows, w.shards, w.iterations
    );
    let mut runs: Vec<ChurnRun> = Vec::new();
    for &shards in &w.shards {
        for scenario in &mut scenario_suite(w.smoke, w.seed) {
            if !selected(scenario.name()) {
                continue;
            }
            let t = Instant::now();
            let run = run_one(scenario.as_mut(), w, shards);
            eprintln!(
                "[churn] {} shards={} done in {:.1}s",
                run.scenario,
                shards,
                t.elapsed().as_secs_f64()
            );
            runs.push(run);
        }
    }

    let scenario_names: Vec<&'static str> =
        all_names.iter().copied().filter(|n| selected(n)).collect();

    // Bit-identity: every config of a scenario must publish the same
    // final roster bytes (fingerprint) — partitioning is a throughput
    // knob, never a semantics knob, even under break-it churn.
    let mut bit_identical = true;
    for name in &scenario_names {
        let fps: Vec<u64> = runs
            .iter()
            .filter(|r| r.scenario == *name)
            .map(|r| r.final_fingerprint)
            .collect();
        if fps.windows(2).any(|p| p[0] != p[1]) {
            bit_identical = false;
            eprintln!("[churn] BIT-IDENTITY VIOLATION in {name}: fingerprints {fps:x?}");
        }
    }

    // Break-it ratios vs the uniform control, compared at the same shard
    // count.
    let control = |shards: usize| -> Option<&ChurnRun> {
        runs.iter()
            .find(|r| r.scenario == "uniform_control" && r.shards == shards)
    };
    let mut worst_dirty: Option<(String, f64)> = None;
    for r in &runs {
        if r.scenario == "uniform_control" {
            continue;
        }
        let Some(c) = control(r.shards) else {
            continue;
        };
        let label = format!("{} (shards={})", r.scenario, r.shards);
        let dirty_ratio = r.stats.dirty_fraction() / c.stats.dirty_fraction().max(1e-12);
        if worst_dirty.as_ref().is_none_or(|(_, d)| dirty_ratio > *d) {
            worst_dirty = Some((label, dirty_ratio));
        }
    }

    let mut table = Table::new(
        format!("adversarial churn sweep ({} mode)", w.mode),
        &[
            "scenario",
            "shards",
            "edits/s",
            "dirty frac",
            "publish p99 (ms)",
            "final ONMI",
            "final F1",
        ],
    );
    for r in &runs {
        table.row(vec![
            r.scenario.to_string(),
            r.shards.to_string(),
            format!("{:.0}", r.edits_per_sec),
            f3(r.stats.dirty_fraction()),
            format!("{:.2}", r.stats.snapshots.p99_ns as f64 / 1e6),
            final_onmi(r).map_or("n/a".into(), f3),
            r.stats
                .quality_per_window
                .last()
                .map_or("n/a".into(), |q| f3(q.f1)),
        ]);
    }
    table.print();
    if let Some((label, dirty)) = &worst_dirty {
        eprintln!("[churn] worst dirty-fraction stress: {label} — {dirty:.1}x the uniform control");
    }

    let runs_json = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"scenario\": \"{}\", \"shards\": {}, \
                 \"edits_submitted\": {}, \"ingest_secs\": {:.4}, \"edits_per_sec\": {:.1}, \
                 \"final_epoch\": {}, \"weights_fingerprint\": \"{:016x}\", \
                 \"final_communities\": {}, \"dirty_vertices\": {}, \"dirty_span\": {}, \
                 \"dirty_fraction\": {:.6}, \"hub_pulls\": {}, \"damped_deferrals\": {}, \
                 \"repartition_vertices_moved\": {}, \"max_degree_delta\": {}, \
                 \"publish_p99_us\": {:.3}, \"final_onmi\": {}, \
                 \"quality_per_window\": [{}]}}",
                r.scenario,
                r.shards,
                r.edits_submitted,
                r.ingest_secs,
                r.edits_per_sec,
                r.final_epoch,
                r.final_fingerprint,
                r.final_communities,
                r.stats.dirty_vertices,
                r.stats.dirty_span,
                r.stats.dirty_fraction(),
                r.stats.hub_pulls,
                r.stats.damped_deferrals,
                r.stats.vertices_migrated,
                r.stats.max_degree_delta,
                r.stats.snapshots.p99_ns as f64 / 1e3,
                final_onmi(r).map_or("null".into(), |v| format!("{v:.6}")),
                quality_json(&r.stats),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let stress_json = format!(
        "{{\"dirty_fraction\": {}}}",
        worst_dirty
            .as_ref()
            .map_or("null".to_string(), |(label, ratio)| {
                format!("{{\"label\": \"{label}\", \"ratio_vs_uniform\": {ratio:.2}}}")
            })
    );
    let json = format!(
        "{{\n  \"experiment\": \"churn\",\n  \"mode\": \"{}\",\n  \
         \"config\": {{\"windows\": {}, \"iterations\": {}, \"shards\": {:?}, \
         \"seed\": {}, \"cores\": {}}},\n  \
         \"scenarios\": [{}],\n  \
         \"bit_identical\": {},\n  \"worst_stress\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        w.mode,
        w.windows,
        w.iterations,
        w.shards,
        w.seed,
        host_cores(),
        scenario_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
        bit_identical,
        stress_json,
        runs_json,
    );
    std::fs::write(out_path, &json).expect("write BENCH_churn.json");
    eprintln!("[churn] wrote {out_path}");
    assert!(
        bit_identical,
        "adversarial churn diverged across shard counts"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_control_emits_valid_windows() {
        let mut c = UniformControl::scaled(true, 99);
        let (g, truth) = c.seed_graph();
        assert!(truth.is_some());
        let mut dg = DynamicGraph::new(g);
        for _ in 0..3 {
            let w = c.next_window(dg.graph());
            assert!(w.truth.is_none());
            w.batch.validate(dg.graph()).expect("valid control batch");
            dg.apply(&w.batch).unwrap();
        }
    }

    #[test]
    fn smoke_suite_has_five_scenarios_ending_with_the_control() {
        let names: Vec<_> = scenario_suite(true, 1).iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "flash_crowd",
                "split_merge_storm",
                "cascade_delete",
                "skew_burst",
                "uniform_control"
            ]
        );
    }
}
