//! `repro weights` — merge-on-publish vs streaming common-label counters.
//!
//! PR 3 measured the per-publish edge-weight pass as the snapshot floor:
//! `sequence_similarity` re-merges two ≤T+1-entry histograms for every
//! dirty-incident edge (~6 ms of the ~10 ms publish at n=2000/T=50 under
//! uniform churn, which dirties everything). This experiment pits that
//! baseline against the streaming [`EdgeCounters`] path on the same
//! repair stream:
//!
//! * **merge** — PR 3's dirty-region semantics, reimplemented here: cache
//!   per-vertex histograms and the previous weight list; at publish,
//!   re-merge every edge with a dirty endpoint, reuse the rest.
//! * **counters** — maintain `common_uv` incrementally from the repair's
//!   compacted slot-delta stream (`O(deg)` per net change, paid at flush
//!   time), and at publish read every weight as `common / m²`.
//!
//! Both paths see the identical detector state, and every publish asserts
//! their weight lists are bit-identical before timing is recorded. The
//! JSON lands in `BENCH_serve.json` (override with `--out`).

use std::time::Instant;

use rslpa_core::postprocess::sequence_similarity;
use rslpa_core::state::histogram_of;
use rslpa_core::{EdgeCounters, RslpaConfig, RslpaDetector};
use rslpa_gen::edits::{targeted_batch, uniform_batch, EditWorkload};
use rslpa_gen::lfr::LfrParams;
use rslpa_graph::{AdjacencyGraph, Cover, FxHashSet, Label, VertexId};

use crate::report::Table;

/// Workload knobs (mirrors the serve acceptance configuration).
#[derive(Clone, Copy, Debug)]
pub struct WeightsWorkload {
    /// Human label recorded in the JSON.
    pub mode: &'static str,
    /// Approximate vertex count of the LFR seed graph.
    pub graph_n: usize,
    /// Detector iterations `T`.
    pub iterations: usize,
    /// Edits per flush (the serve loop's micro-batch size).
    pub flush_edits: usize,
    /// Flushes between publishes (the serve loop's `snapshot_every`).
    pub flushes_per_publish: usize,
    /// Publishes measured.
    pub publishes: usize,
    /// Edit-stream bias: the paper's uniform rewiring (dirties every
    /// vertex — the adversarial case) or churn respecting the planted
    /// communities (the serving case streaming upkeep is built for).
    pub churn: EditWorkload,
    /// Workload seed.
    pub seed: u64,
}

impl WeightsWorkload {
    /// The acceptance configuration: the serve workload's n=2000/T=50
    /// uniform churn, 256-edit flushes, publish every 8 flushes.
    pub fn full() -> Self {
        Self {
            mode: "full",
            graph_n: 2_000,
            iterations: 50,
            flush_edits: 256,
            flushes_per_publish: 8,
            publishes: 12,
            churn: EditWorkload::Uniform,
            seed: 42,
        }
    }

    /// CI-scale smoke: same shape, two orders of magnitude lighter.
    pub fn smoke() -> Self {
        Self {
            mode: "smoke",
            graph_n: 400,
            iterations: 25,
            flush_edits: 128,
            flushes_per_publish: 4,
            publishes: 4,
            churn: EditWorkload::Uniform,
            seed: 42,
        }
    }
}

fn churn_label(churn: EditWorkload) -> &'static str {
    match churn {
        EditWorkload::Uniform => "uniform",
        EditWorkload::Consolidating => "consolidating",
        EditWorkload::Eroding => "eroding",
        EditWorkload::Localized => "localized",
    }
}

/// PR 3's dirty-region merge pass, reimplemented as the baseline: cached
/// histograms + previous weight list, re-merge only dirty-incident edges.
struct MergeBaseline {
    m: usize,
    hists: Vec<Vec<(Label, u32)>>,
    prev: Vec<(VertexId, VertexId, f64)>,
}

impl MergeBaseline {
    fn new(det: &RslpaDetector) -> Self {
        let state = det.state();
        Self {
            m: state.iterations() + 1,
            hists: (0..state.num_vertices() as VertexId)
                .map(|v| state.histogram(v))
                .collect(),
            prev: Vec::new(),
        }
    }

    /// Refresh dirty histograms (PR 3 did this in `sync_dirty`, outside
    /// the measured weight pass — kept outside here too, in the
    /// baseline's favor).
    fn sync(&mut self, det: &RslpaDetector, dirty: &FxHashSet<VertexId>) {
        for &v in dirty {
            self.hists[v as usize] = histogram_of(det.state().label_sequence(v));
        }
    }

    /// The measured pass: merge stale edges, reuse clean ones.
    fn publish(
        &mut self,
        graph: &AdjacencyGraph,
        dirty: &FxHashSet<VertexId>,
    ) -> Vec<(VertexId, VertexId, f64)> {
        let mut out = Vec::with_capacity(graph.num_edges());
        let mut old = self.prev.iter().peekable();
        for (u, v) in graph.edges() {
            while let Some(&&(ou, ov, _)) = old.peek() {
                if (ou, ov) < (u, v) {
                    old.next();
                } else {
                    break;
                }
            }
            let mut w = f64::NAN;
            if !dirty.contains(&u) && !dirty.contains(&v) {
                if let Some(&&(ou, ov, ow)) = old.peek() {
                    if (ou, ov) == (u, v) {
                        w = ow;
                    }
                }
            }
            if w.is_nan() {
                w = sequence_similarity(&self.hists[u as usize], &self.hists[v as usize], self.m);
            }
            out.push((u, v, w));
        }
        self.prev.clone_from(&out);
        out
    }
}

/// Per-publish measurements, all in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct WeightsBenchResult {
    /// Baseline merge-pass wall time per publish.
    pub merge_ns: Vec<u64>,
    /// Counter-read weight pass wall time per publish.
    pub counter_read_ns: Vec<u64>,
    /// Counter maintenance wall time per publish interval (summed over
    /// its flushes).
    pub counter_maint_ns: Vec<u64>,
    /// Net slot deltas folded per publish interval.
    pub net_deltas: Vec<u64>,
    /// Dirty vertices per publish interval (the merge baseline's input).
    pub dirty_vertices: Vec<u64>,
    /// Edges in the graph at each publish.
    pub edges: Vec<u64>,
}

fn mean(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.iter().sum::<u64>() as f64 / ns.len() as f64
}

/// Run the workload and return the measurements.
pub fn run_workload(w: &WeightsWorkload) -> WeightsBenchResult {
    let instance = LfrParams {
        seed: w.seed,
        ..LfrParams::scaled(w.graph_n)
    }
    .generate()
    .expect("LFR generation");
    let truth: Cover = instance.ground_truth;
    let next_batch = |graph: &AdjacencyGraph, seed: u64| match w.churn {
        EditWorkload::Uniform => uniform_batch(graph, w.flush_edits, seed),
        bias => targeted_batch(graph, &truth, bias, w.flush_edits, seed),
    };
    let mut det = RslpaDetector::new(instance.graph, RslpaConfig::quick(w.iterations, w.seed));
    let mut merge = MergeBaseline::new(&det);
    let mut counters = EdgeCounters::new(det.state());
    // Both sides pay their genesis pass before the clock starts.
    merge.publish(det.graph(), &FxHashSet::default());
    counters.refresh_weights(det.graph(), 1);

    let mut result = WeightsBenchResult::default();
    let mut round = 0u64;
    for _ in 0..w.publishes {
        let mut dirty: FxHashSet<VertexId> = FxHashSet::default();
        let mut maint_ns = 0u64;
        let mut net = 0u64;
        for _ in 0..w.flushes_per_publish {
            let batch = next_batch(det.graph(), w.seed.wrapping_add(round));
            round += 1;
            let mut deltas = Vec::new();
            det.apply_batch_streaming(&batch, &mut deltas)
                .expect("generated batch validates");
            dirty.extend(deltas.iter().map(|d| d.v));
            // Streaming side: per-flush counter maintenance.
            let t = Instant::now();
            for &(u, v) in batch.deletions() {
                counters.delete_edge(u, v);
            }
            net += counters.apply_slot_deltas(det.graph(), &deltas) as u64;
            maint_ns += t.elapsed().as_nanos() as u64;
        }
        // Publish: merge baseline (hist sync unmeasured, in its favor).
        merge.sync(&det, &dirty);
        let t = Instant::now();
        let w_merge = merge.publish(det.graph(), &dirty);
        let merge_ns = t.elapsed().as_nanos() as u64;
        // Publish: counter read.
        let t = Instant::now();
        let w_ctr = counters.refresh_weights(det.graph(), 1);
        let read_ns = t.elapsed().as_nanos() as u64;
        // Equality is the contract; a drift invalidates the measurement.
        assert_eq!(w_merge.len(), w_ctr.len());
        for (a, b) in w_merge.iter().zip(&w_ctr) {
            assert_eq!((a.0, a.1), (b.0, b.1), "edge order drifted");
            assert_eq!(a.2.to_bits(), b.2.to_bits(), "weight drifted at {a:?}");
        }
        result.merge_ns.push(merge_ns);
        result.counter_read_ns.push(read_ns);
        result.counter_maint_ns.push(maint_ns);
        result.net_deltas.push(net);
        result.dirty_vertices.push(dirty.len() as u64);
        result.edges.push(det.graph().num_edges() as u64);
    }
    result
}

fn json_list(ns: &[u64]) -> String {
    ns.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
}

/// Render one run as JSON key/value lines, no outer braces (shared by the
/// top-level uniform run and the nested consolidating run).
fn json_body(w: &WeightsWorkload, r: &WeightsBenchResult, indent: &str) -> String {
    let merge_mean = mean(&r.merge_ns);
    let read_mean = mean(&r.counter_read_ns);
    let maint_mean = mean(&r.counter_maint_ns);
    format!(
        "\"config\": {{\"graph_n\": {}, \"iterations\": {}, \"flush_edits\": {}, \
         \"flushes_per_publish\": {}, \"publishes\": {}, \"churn\": \"{}\", \
         \"cores\": {}, \"seed\": {}}},\n{i}\
         \"merge_pass_ns\": [{}],\n{i}\"counter_read_ns\": [{}],\n{i}\
         \"counter_maint_ns\": [{}],\n{i}\"net_deltas\": [{}],\n{i}\
         \"dirty_vertices\": [{}],\n{i}\"edges\": [{}],\n{i}\
         \"merge_pass_mean_ns\": {:.0},\n{i}\"counter_read_mean_ns\": {:.0},\n{i}\
         \"counter_maint_mean_ns\": {:.0},\n{i}\
         \"publish_weight_pass_speedup\": {:.2},\n{i}\
         \"speedup_incl_maintenance\": {:.2},\n{i}\"bit_identical\": true",
        w.graph_n,
        w.iterations,
        w.flush_edits,
        w.flushes_per_publish,
        w.publishes,
        churn_label(w.churn),
        crate::host_cores(),
        w.seed,
        json_list(&r.merge_ns),
        json_list(&r.counter_read_ns),
        json_list(&r.counter_maint_ns),
        json_list(&r.net_deltas),
        json_list(&r.dirty_vertices),
        json_list(&r.edges),
        merge_mean,
        read_mean,
        maint_mean,
        merge_mean / read_mean.max(1.0),
        merge_mean / (read_mean + maint_mean).max(1.0),
        i = indent,
    )
}

/// Serialize the sweep as the `BENCH_serve.json` payload: the uniform
/// (acceptance) run at top level, the other runs nested by name.
pub fn to_json(
    w: &WeightsWorkload,
    r: &WeightsBenchResult,
    extras: &[(&str, &WeightsWorkload, &WeightsBenchResult)],
) -> String {
    let extra: String = extras
        .iter()
        .map(|(key, ew, er)| {
            format!(
                ",\n  \"{key}\": {{\n    {}\n  }}",
                json_body(ew, er, "    ")
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"weights\",\n  \"mode\": \"{}\",\n  {}{}\n}}\n",
        w.mode,
        json_body(w, r, "  "),
        extra,
    )
}

/// Run the sweep (uniform + consolidating churn), print the table, and
/// write `out_path`.
pub fn weights(w: &WeightsWorkload, out_path: &str) {
    let mut t = Table::new(
        format!(
            "publish-time weight pass: merge vs streaming counters ({})",
            w.mode
        ),
        &[
            "churn",
            "merge (ms)",
            "ctr read (ms)",
            "upkeep/publish (ms)",
            "publish speedup",
            "incl. upkeep",
            "dirty/publish",
            "net deltas",
        ],
    );
    // The acceptance run, the community-respecting variant, and the
    // freshness-first cadence (the serve default publishes every flush,
    // where upkeep amortizes against a merge pass *per flush*).
    let configs: [(&str, EditWorkload, usize); 3] = [
        ("uniform", EditWorkload::Uniform, w.flushes_per_publish),
        (
            "consolidating",
            EditWorkload::Consolidating,
            w.flushes_per_publish,
        ),
        ("publish_per_flush", EditWorkload::Uniform, 1),
    ];
    let mut runs: Vec<(WeightsWorkload, WeightsBenchResult)> = Vec::new();
    for &(_, churn, per_publish) in &configs {
        let wc = WeightsWorkload {
            churn,
            flushes_per_publish: per_publish,
            publishes: w.publishes * w.flushes_per_publish / per_publish.max(1),
            ..*w
        };
        eprintln!(
            "[weights:{}] n={}, T={}, {}x{}-edit flushes per publish, {} publishes, {} churn",
            wc.mode,
            wc.graph_n,
            wc.iterations,
            wc.flushes_per_publish,
            wc.flush_edits,
            wc.publishes,
            churn_label(churn),
        );
        let r = run_workload(&wc);
        let merge_mean = mean(&r.merge_ns);
        let read_mean = mean(&r.counter_read_ns);
        let maint_mean = mean(&r.counter_maint_ns);
        t.row(vec![
            format!("{} (x{})", churn_label(churn), per_publish),
            format!("{:.3}", merge_mean / 1e6),
            format!("{:.3}", read_mean / 1e6),
            format!("{:.3}", maint_mean / 1e6),
            format!("{:.2}x", merge_mean / read_mean.max(1.0)),
            format!("{:.2}x", merge_mean / (read_mean + maint_mean).max(1.0)),
            format!("{:.0}", mean(&r.dirty_vertices)),
            format!("{:.0}", mean(&r.net_deltas)),
        ]);
        runs.push((wc, r));
    }
    t.print();
    let json = to_json(
        &runs[0].0,
        &runs[0].1,
        &[
            ("consolidating", &runs[1].0, &runs[1].1),
            ("publish_per_flush", &runs[2].0, &runs[2].1),
        ],
    );
    std::fs::write(out_path, &json).expect("write weights JSON");
    eprintln!("[weights:{}] wrote {out_path}", w.mode);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_workload_is_bit_identical_and_serializes() {
        let w = WeightsWorkload {
            mode: "micro",
            graph_n: 150,
            iterations: 12,
            flush_edits: 40,
            flushes_per_publish: 2,
            publishes: 3,
            churn: EditWorkload::Uniform,
            seed: 7,
        };
        // run_workload asserts bit-identity internally at every publish.
        let r = run_workload(&w);
        assert_eq!(r.merge_ns.len(), 3);
        assert_eq!(r.counter_read_ns.len(), 3);
        let json = to_json(&w, &r, &[]);
        assert!(json.contains("\"experiment\": \"weights\""));
        assert!(json.contains("\"bit_identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
