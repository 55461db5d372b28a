//! Million-vertex adjacency scale benchmark.
//!
//! Not a paper experiment — this measures holding a web-scale dynamic
//! graph in memory and sustaining churn against it. `repro scale` builds
//! an R-MAT seed graph, replays a deterministic churn stream through
//! [`rslpa_graph::DynamicGraph`] — including id-space growth past the
//! seed universe — and reports sustained edits/sec *and*
//! `bytes_per_vertex` into `BENCH_serve.json`.
//!
//! The final graph and its footprint are pure functions of the op
//! sequence, so CI gates both against the committed
//! `BENCH_scale_smoke.json`: the edge fingerprint must match exactly and
//! `bytes_per_vertex` may not regress by more than 10%.

use std::time::Instant;

use rslpa_gen::webgraph::{rmat, RmatChurn, RmatParams};
use rslpa_graph::{AdjacencyGraph, AppliedBatch, DynamicGraph, MemAccounted};

use crate::host_cores;
use crate::report::Table;

/// Workload knobs.
#[derive(Clone, Copy, Debug)]
pub struct ScaleWorkload {
    /// Human label recorded in the JSON (`full` / `smoke`).
    pub mode: &'static str,
    /// log2 of the seed vertex count (R-MAT scale).
    pub scale: u32,
    /// Churn rounds replayed.
    pub rounds: usize,
    /// Edge insertions sampled per round.
    pub batch_inserts: usize,
    /// Edge deletions sampled per round.
    pub batch_deletes: usize,
    /// Fresh vertices appended per round (id-space growth).
    pub grow_per_batch: usize,
    /// Workload seed.
    pub seed: u64,
}

impl ScaleWorkload {
    /// The acceptance configuration: n = 2^20 = 1,048,576 vertices,
    /// ~13.6M directed R-MAT samples, 20 churn rounds (~770k edit ops).
    pub fn full() -> Self {
        Self {
            mode: "full",
            scale: 20,
            rounds: 20,
            batch_inserts: 25_000,
            batch_deletes: 12_500,
            grow_per_batch: 1_000,
            seed: 42,
        }
    }

    /// CI-scale smoke: n = 2^17 = 131,072 vertices (~100k-class), one
    /// order of magnitude lighter churn.
    pub fn smoke() -> Self {
        Self {
            mode: "smoke",
            scale: 17,
            rounds: 8,
            batch_inserts: 6_000,
            batch_deletes: 3_000,
            grow_per_batch: 500,
            seed: 42,
        }
    }

    /// Seed vertex count.
    pub fn n(&self) -> usize {
        1usize << self.scale
    }
}

/// Measurements of one replay.
#[derive(Clone, Copy, Debug)]
pub struct ScaleBenchResult {
    /// Seconds to generate the seed graph.
    pub build_secs: f64,
    /// Wall seconds replaying all churn rounds.
    pub churn_secs: f64,
    /// Sustained edit ops (insert+delete) per second during churn.
    pub edits_per_sec: f64,
    /// Final vertex count (seed + growth).
    pub final_vertices: usize,
    /// Final undirected edge count.
    pub final_edges: usize,
    /// Adjacency bytes occupied by live entries.
    pub mem_live_bytes: usize,
    /// Adjacency bytes reserved by the backing buffers.
    pub mem_capacity_bytes: usize,
    /// FNV-1a fingerprint over the final sorted edge list (a pure function
    /// of the workload; recorded so CI diffs catch drift).
    pub edges_fingerprint: u64,
}

impl ScaleBenchResult {
    /// Reserved adjacency bytes per vertex — the headline number.
    pub fn bytes_per_vertex(&self) -> f64 {
        self.mem_capacity_bytes as f64 / self.final_vertices.max(1) as f64
    }

    /// Fraction of reserved bytes that are live.
    pub fn utilization(&self) -> f64 {
        if self.mem_capacity_bytes == 0 {
            1.0
        } else {
            self.mem_live_bytes as f64 / self.mem_capacity_bytes as f64
        }
    }
}

/// Build the seed graph and replay the churn stream against it.
pub fn run_workload(w: &ScaleWorkload) -> ScaleBenchResult {
    let build_started = Instant::now();
    let seed_graph = rmat(&RmatParams::web(w.scale, w.seed));
    let build_secs = build_started.elapsed().as_secs_f64();
    eprintln!(
        "[scale:{}] seed built: n={}, m={}, {:.2}s",
        w.mode,
        seed_graph.num_vertices(),
        seed_graph.num_edges(),
        build_secs,
    );

    let mut graph = DynamicGraph::new(seed_graph);
    let mut churn = RmatChurn::new(RmatParams::web(w.scale, w.seed), w.grow_per_batch, w.seed);
    let mut applied = AppliedBatch::default();
    let mut total_ops = 0usize;
    let churn_started = Instant::now();
    for _ in 0..w.rounds {
        let batch = churn.next_batch(graph.graph(), w.batch_inserts, w.batch_deletes);
        if let Some(max_id) = batch.insertions().iter().map(|&(_, v)| v as usize).max() {
            if max_id >= graph.graph().num_vertices() {
                graph.ensure_vertices(max_id + 1);
            }
        }
        total_ops += batch.len();
        graph
            .apply_into(&batch, &mut applied)
            .expect("churn batch validates");
    }
    let churn_secs = churn_started.elapsed().as_secs_f64();

    let mem = graph.graph().mem_footprint();
    let r = ScaleBenchResult {
        build_secs,
        churn_secs,
        edits_per_sec: total_ops as f64 / churn_secs,
        final_vertices: graph.graph().num_vertices(),
        final_edges: graph.graph().num_edges(),
        mem_live_bytes: mem.live_bytes,
        mem_capacity_bytes: mem.capacity_bytes,
        edges_fingerprint: fingerprint_edges(graph.graph()),
    };
    eprintln!(
        "[scale:{}] churn done: {} ops in {:.2}s ({:.0} edits/s), {:.1} bytes/vertex",
        w.mode,
        total_ops,
        churn_secs,
        r.edits_per_sec,
        r.bytes_per_vertex(),
    );
    r
}

/// FNV-1a over the (u, v) edge stream in iteration order.
fn fingerprint_edges(graph: &AdjacencyGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (u, v) in graph.edges() {
        fold(u);
        fold(v);
    }
    h
}

/// Serialize the result (one JSON object, same envelope style as the
/// other bench writers).
pub fn to_json(w: &ScaleWorkload, r: &ScaleBenchResult) -> String {
    format!(
        "{{\n  \"experiment\": \"scale\",\n  \"mode\": \"{}\",\n  \
         \"config\": {{\"scale\": {}, \"seed_n\": {}, \"rounds\": {}, \"batch_inserts\": {}, \
         \"batch_deletes\": {}, \"grow_per_batch\": {}, \"cores\": {}, \"seed\": {}}},\n  \
         \"edges_fingerprint\": \"{:016x}\",\n  \
         \"build_secs\": {:.4},\n  \"churn_secs\": {:.4},\n  \"edits_per_sec\": {:.1},\n  \
         \"final_vertices\": {},\n  \"final_edges\": {},\n  \
         \"mem_live_bytes\": {},\n  \"mem_capacity_bytes\": {},\n  \
         \"bytes_per_vertex\": {:.2},\n  \"utilization\": {:.4}\n}}\n",
        w.mode,
        w.scale,
        w.n(),
        w.rounds,
        w.batch_inserts,
        w.batch_deletes,
        w.grow_per_batch,
        host_cores(),
        w.seed,
        r.edges_fingerprint,
        r.build_secs,
        r.churn_secs,
        r.edits_per_sec,
        r.final_vertices,
        r.final_edges,
        r.mem_live_bytes,
        r.mem_capacity_bytes,
        r.bytes_per_vertex(),
        r.utilization(),
    )
}

/// Run the workload, print the table, and write `out_path`.
pub fn scale(w: &ScaleWorkload, out_path: &str) {
    eprintln!(
        "[scale:{}] n=2^{}={}, {} rounds x ({} ins + {} del + {} grown)",
        w.mode,
        w.scale,
        w.n(),
        w.rounds,
        w.batch_inserts,
        w.batch_deletes,
        w.grow_per_batch,
    );
    let r = run_workload(w);
    let mut t = Table::new(
        format!("storage scale ({}, n={})", w.mode, w.n()),
        &[
            "build (s)",
            "churn edits/s",
            "final edges",
            "bytes/vertex",
            "utilization",
        ],
    );
    t.row(vec![
        format!("{:.2}", r.build_secs),
        format!("{:.0}", r.edits_per_sec),
        r.final_edges.to_string(),
        format!("{:.1}", r.bytes_per_vertex()),
        format!("{:.3}", r.utilization()),
    ]);
    t.print();
    eprintln!(
        "[scale:{}] edge fingerprint {:016x}",
        w.mode, r.edges_fingerprint,
    );
    let json = to_json(w, &r);
    std::fs::write(out_path, &json).expect("write scale bench JSON");
    eprintln!("[scale:{}] wrote {out_path}", w.mode);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_scale_replay_is_deterministic_and_serializes() {
        let w = ScaleWorkload {
            mode: "micro",
            scale: 10,
            rounds: 3,
            batch_inserts: 200,
            batch_deletes: 100,
            grow_per_batch: 16,
            seed: 5,
        };
        let r = run_workload(&w);
        assert_eq!(r.final_vertices, 1024 + 3 * 16);
        assert!(r.final_edges > 0 && r.mem_capacity_bytes > 0);
        // CI pins the fingerprint and the footprint against a committed
        // baseline, so a replay must reproduce both exactly.
        let again = run_workload(&w);
        assert_eq!(r.edges_fingerprint, again.edges_fingerprint);
        assert_eq!(r.final_edges, again.final_edges);
        assert_eq!(r.mem_live_bytes, again.mem_live_bytes);
        assert_eq!(r.mem_capacity_bytes, again.mem_capacity_bytes);
        let json = to_json(&w, &r);
        assert!(json.contains("\"experiment\": \"scale\""));
        assert!(json.contains("\"edges_fingerprint\""));
        assert!(json.contains("\"bytes_per_vertex\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
