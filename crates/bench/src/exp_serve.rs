//! Mixed read/write workload against the live serve subsystem.
//!
//! Not a paper experiment — this drives `rslpa_serve` the way the ROADMAP's
//! production north star would be driven: a writer replays a stream of
//! edits (micro-batched by the ingestion policy) while reader threads
//! hammer the snapshot query API for the whole replay, at a configured
//! read/write ratio or more. The driver reports sustained edits/sec and
//! query latency percentiles and writes them to `BENCH_serve.json`,
//! giving the perf trajectory a data point per PR.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rslpa_gen::edits::{localized_batch, targeted_batch, uniform_batch, EditWorkload};
use rslpa_gen::lfr::LfrParams;
use rslpa_gen::webgraph::{rmat, RmatParams};
use rslpa_graph::rng::DetRng;
use rslpa_graph::{AdjacencyGraph, Cover, DynamicGraph, EditBatch, VertexId};
use rslpa_serve::trace::Dump;
use rslpa_serve::{BySize, CommunityService, LatencySummary, ServeConfig, TraceOptions};

use crate::host_cores;

use crate::report::Table;

/// Graph family the edit stream runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// LFR benchmark graph (planted overlapping communities).
    Lfr,
    /// R-MAT web graph (power-law, the paper's Table 2 family).
    Rmat,
}

impl Topology {
    fn label(self) -> &'static str {
        match self {
            Topology::Lfr => "lfr",
            Topology::Rmat => "rmat",
        }
    }
}

/// Workload knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeWorkload {
    /// Human label recorded in the JSON (`full` / `smoke` / `full-rmat`).
    pub mode: &'static str,
    /// Graph family the stream runs over.
    pub topology: Topology,
    /// Approximate vertex count of the seed graph (R-MAT rounds up to the
    /// next power of two).
    pub graph_n: usize,
    /// Detector iterations `T`.
    pub iterations: usize,
    /// Total edit operations replayed.
    pub total_edits: usize,
    /// Edits generated per workload round (each round is one valid
    /// uniform batch against the evolving graph).
    pub round_edits: usize,
    /// Interleaved queries per edit: the readers' quota, a floor on the
    /// read/write ratio (readers keep going until the final barrier).
    pub queries_per_edit: usize,
    /// Reader threads sharing the query quota.
    pub query_threads: usize,
    /// Micro-batch flush threshold.
    pub flush_size: usize,
    /// Publish a snapshot every this many flushes.
    pub snapshot_every: usize,
    /// Maintenance shards (1 = the single-writer baseline).
    pub shards: usize,
    /// Edit-stream bias: the paper's uniform rewiring, or churn that
    /// respects the planted communities (the realistic serving case,
    /// where partition locality exists to be exploited).
    pub churn: EditWorkload,
    /// Workload seed.
    pub seed: u64,
}

impl ServeWorkload {
    /// The acceptance configuration: 100k edits, 10:1 reads over an LFR
    /// graph. Takes a couple of seconds in release mode.
    pub fn full() -> Self {
        Self {
            mode: "full",
            topology: Topology::Lfr,
            graph_n: 2_000,
            iterations: 50,
            total_edits: 100_000,
            round_edits: 1_000,
            queries_per_edit: 10,
            query_threads: 4,
            flush_size: 256,
            snapshot_every: 8,
            shards: 1,
            churn: EditWorkload::Uniform,
            seed: 42,
        }
    }

    /// The full workload at a given shard count.
    pub fn full_sharded(shards: usize) -> Self {
        Self {
            shards,
            ..Self::full()
        }
    }

    /// The full workload over an R-MAT web graph instead of LFR.
    pub fn full_rmat() -> Self {
        Self {
            mode: "full-rmat",
            topology: Topology::Rmat,
            ..Self::full()
        }
    }

    /// CI-scale smoke: same shape, two orders of magnitude lighter.
    pub fn smoke() -> Self {
        Self {
            mode: "smoke",
            topology: Topology::Lfr,
            graph_n: 400,
            iterations: 25,
            total_edits: 4_000,
            round_edits: 400,
            queries_per_edit: 10,
            query_threads: 2,
            flush_size: 128,
            snapshot_every: 4,
            shards: 1,
            churn: EditWorkload::Uniform,
            seed: 42,
        }
    }

    /// The smoke workload at a given shard count.
    pub fn smoke_sharded(shards: usize) -> Self {
        Self {
            shards,
            ..Self::smoke()
        }
    }
}

/// Numbers the driver reports (and serializes).
#[derive(Clone, Debug)]
pub struct ServeBenchResult {
    /// Seconds spent in initial propagation + genesis snapshot.
    pub startup_secs: f64,
    /// Wall seconds from first edit submitted to final barrier answered.
    pub ingest_secs: f64,
    /// Sustained write throughput including snapshot publishing.
    pub edits_per_sec: f64,
    /// Wall seconds the reader threads ran (at least the whole ingest:
    /// readers stop only once the final barrier has returned).
    pub query_secs: f64,
    /// Aggregate read throughput across reader threads.
    pub queries_per_sec: f64,
    /// Queries actually issued.
    pub queries_issued: u64,
    /// Final published epoch.
    pub final_epoch: u64,
    /// Roster of the final epoch (canonical cover, for cross-shard
    /// divergence checks).
    pub final_cover: Cover,
    /// Weight-list fingerprint of the final epoch (equal ⇔ bit-identical
    /// weights; diffed alongside the roster in CI).
    pub final_weights_fingerprint: u64,
    /// Per-window query-latency summaries: one interval per barrier
    /// checkpoint (≈10 windows per run) plus a trailing window for the
    /// queries after the last checkpoint, from
    /// [`HistogramSnapshot::delta_since`](rslpa_serve::HistogramSnapshot::delta_since)
    /// — so a latency regression late in the replay shows up instead of
    /// being averaged into the cumulative percentiles. The windows
    /// partition the run: their counts sum to `stats.queries.count`.
    pub query_windows: Vec<LatencySummary>,
    /// Final service stats.
    pub stats: rslpa_serve::StatsReport,
}

/// Build the seed graph for the configured topology, plus the planted
/// cover when one exists (it parameterizes community-respecting churn).
fn seed_graph(w: &ServeWorkload) -> (AdjacencyGraph, Option<Cover>) {
    match w.topology {
        Topology::Lfr => {
            let instance = LfrParams {
                seed: w.seed,
                ..LfrParams::scaled(w.graph_n)
            }
            .generate()
            .expect("LFR generation");
            (instance.graph, Some(instance.ground_truth))
        }
        Topology::Rmat => {
            let scale = (w.graph_n.max(2) as f64).log2().ceil() as u32;
            (rmat(&RmatParams::web(scale, w.seed)), None)
        }
    }
}

/// One round's edit batch under the configured churn bias.
fn next_batch(
    w: &ServeWorkload,
    graph: &AdjacencyGraph,
    truth: Option<&Cover>,
    size: usize,
    seed: u64,
) -> EditBatch {
    match (w.churn, truth) {
        // Hot-spot churn needs no planted cover — it works on any topology.
        (EditWorkload::Localized, _) => localized_batch(graph, size, seed),
        (EditWorkload::Uniform, _) | (_, None) => uniform_batch(graph, size, seed),
        (bias, Some(cover)) => targeted_batch(graph, cover, bias, size, seed),
    }
}

/// Run the workload and return the measurements.
pub fn run_workload(w: &ServeWorkload) -> ServeBenchResult {
    run_workload_traced(w, None).0
}

/// Run the workload with the flight recorder optionally attached. Returns
/// the measurements plus the drained trace when tracing was on (`None`
/// otherwise — the disabled recorder records nothing).
pub fn run_workload_traced(
    w: &ServeWorkload,
    trace: Option<TraceOptions>,
) -> (ServeBenchResult, Option<Dump>) {
    let (graph, truth) = seed_graph(w);
    let n = graph.num_vertices();

    let startup = Instant::now();
    // A long linger keeps batch boundaries purely size-driven (the writer
    // never stalls), so the same edit log produces the same batch sequence
    // — and therefore the same rosters — at every shard count.
    let policy = BySize {
        max_edits: w.flush_size,
        max_linger: Duration::from_secs(30),
    };
    let mut config = ServeConfig::quick(w.iterations, w.seed)
        .with_policy(policy)
        .with_snapshot_every(w.snapshot_every)
        .with_shards(w.shards);
    if let Some(t) = trace {
        config = config.with_trace(t);
    }
    let service = Arc::new(CommunityService::start(graph.clone(), config));
    let startup_secs = startup.elapsed().as_secs_f64();

    let total_queries = (w.total_edits * w.queries_per_edit) as u64;
    let per_thread = total_queries.div_ceil(w.query_threads as u64);
    let mut result = ServeBenchResult {
        startup_secs,
        ingest_secs: 0.0,
        edits_per_sec: 0.0,
        query_secs: 0.0,
        queries_per_sec: 0.0,
        queries_issued: 0,
        final_epoch: 0,
        final_cover: Cover::default(),
        final_weights_fingerprint: 0,
        query_windows: Vec::new(),
        stats: Default::default(),
    };

    // Taken before any reader starts, so the windows below partition
    // every query of the run.
    let mut window_prev = service.query_latency_snapshot();
    let writer_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Readers: a 60/25/15 mix of membership / overlap / roster point
        // queries, answered lock-free from the newest epoch snapshot.
        // They keep reading until the writer's final barrier returns, so
        // every window measures reads under writes on any schedule; the
        // quota is only a floor. Each returns its own wall time.
        let mut readers = Vec::with_capacity(w.query_threads);
        for t in 0..w.query_threads {
            let service = Arc::clone(&service);
            let writer_done = &writer_done;
            readers.push(s.spawn(move || {
                let started = Instant::now();
                let mut queries = service.query();
                let mut rng = DetRng::new(w.seed ^ 0xdead_beef_u64.rotate_left(t as u32));
                for i in 0.. {
                    if i >= per_thread && writer_done.load(Ordering::Relaxed) {
                        break;
                    }
                    let u = rng.bounded(n as u64) as VertexId;
                    match i % 20 {
                        0..=11 => {
                            let _ = queries.membership(u);
                        }
                        12..=16 => {
                            let v = rng.bounded(n as u64) as VertexId;
                            let _ = queries.overlap(u, v);
                        }
                        _ => {
                            let c = queries.membership(u).first().copied().unwrap_or(0);
                            let _ = queries.roster(c);
                        }
                    }
                }
                started.elapsed().as_secs_f64()
            }));
        }

        // Writer (this thread): replay rounds of valid batches generated
        // against a shadow copy of the evolving graph.
        let ingest = service.ingest();
        let mut shadow = DynamicGraph::new(graph);
        let rounds = w.total_edits.div_ceil(w.round_edits);
        let barrier_every = (rounds / 10).max(1);
        let ingest_started = Instant::now();
        let mut submitted = 0usize;
        for round in 0..rounds {
            let size = w.round_edits.min(w.total_edits - submitted);
            let batch = next_batch(
                w,
                shadow.graph(),
                truth.as_ref(),
                size,
                w.seed.wrapping_add(round as u64),
            );
            shadow.apply(&batch).expect("generated batch validates");
            for &(u, v) in batch.deletions() {
                ingest.delete(u, v).expect("service alive");
            }
            for &(u, v) in batch.insertions() {
                ingest.insert(u, v).expect("service alive");
            }
            submitted += size;
            if (round + 1) % barrier_every == 0 {
                ingest.barrier().expect("service alive");
                // One interval view per checkpoint: delta against the
                // previous snapshot, not against time zero.
                let now = service.query_latency_snapshot();
                result
                    .query_windows
                    .push(now.delta_since(&window_prev).summarize());
                window_prev = now;
            }
        }
        result.final_epoch = ingest.barrier().expect("service alive");
        result.ingest_secs = ingest_started.elapsed().as_secs_f64();
        writer_done.store(true, Ordering::Relaxed);
        result.query_secs = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .fold(0.0, f64::max);
        // The trailing window: queries after the last checkpoint.
        result.query_windows.push(
            service
                .query_latency_snapshot()
                .delta_since(&window_prev)
                .summarize(),
        );
    });

    let service = Arc::into_inner(service).expect("threads joined");
    let last = service.latest();
    result.final_cover = last.cover.clone();
    result.final_weights_fingerprint = last.weights_fingerprint;
    drop(last);
    let tracer = service.tracer();
    result.stats = service.shutdown();
    result.edits_per_sec = result.stats.edits_enqueued as f64 / result.ingest_secs.max(1e-9);
    result.queries_issued = result.stats.queries.count;
    result.queries_per_sec = result.queries_issued as f64 / result.query_secs.max(1e-9);
    // Drain after shutdown: every writer lane has joined, so the dump is
    // the complete record of the run.
    let dump = trace.map(|_| tracer.drain());
    (result, dump)
}

/// Serialize one run as the `BENCH_serve.json` payload.
pub fn to_json(w: &ServeWorkload, r: &ServeBenchResult) -> String {
    to_json_with_extra(w, r, "")
}

fn churn_label(churn: EditWorkload) -> &'static str {
    match churn {
        EditWorkload::Uniform => "uniform",
        EditWorkload::Consolidating => "consolidating",
        EditWorkload::Eroding => "eroding",
        EditWorkload::Localized => "localized",
    }
}

/// Serialize one run, splicing `extra` (either empty or a string starting
/// with `,\n  `) before the closing brace.
pub(crate) fn to_json_with_extra(w: &ServeWorkload, r: &ServeBenchResult, extra: &str) -> String {
    let windows = |f: &dyn Fn(&LatencySummary) -> u64| -> String {
        r.query_windows
            .iter()
            .map(|s| format!("{:.3}", f(s) as f64 / 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\n  \"experiment\": \"serve\",\n  \"mode\": \"{}\",\n  \
         \"config\": {{\"topology\": \"{}\", \"graph_n\": {}, \"iterations\": {}, \"total_edits\": {}, \
         \"queries_per_edit\": {}, \"query_threads\": {}, \"flush_size\": {}, \
         \"snapshot_every\": {}, \"shards\": {}, \"churn\": \"{}\", \
         \"cores\": {}, \"seed\": {}}},\n  \
         \"startup_secs\": {:.4},\n  \"ingest_secs\": {:.4},\n  \
         \"edits_per_sec\": {:.1},\n  \"query_secs\": {:.4},\n  \
         \"queries_per_sec\": {:.1},\n  \"queries_issued\": {},\n  \
         \"query_p50_us\": {:.3},\n  \"query_p90_us\": {:.3},\n  \
         \"query_p99_us\": {:.3},\n  \"query_max_us\": {:.3},\n  \
         \"query_window_p50_us\": [{}],\n  \"query_window_p99_us\": [{}],\n  \
         \"final_epoch\": {},\n  \"stats\": {}{}\n}}\n",
        w.mode,
        w.topology.label(),
        w.graph_n,
        w.iterations,
        w.total_edits,
        w.queries_per_edit,
        w.query_threads,
        w.flush_size,
        w.snapshot_every,
        w.shards,
        churn_label(w.churn),
        host_cores(),
        w.seed,
        r.startup_secs,
        r.ingest_secs,
        r.edits_per_sec,
        r.query_secs,
        r.queries_per_sec,
        r.queries_issued,
        r.stats.queries.p50_ns as f64 / 1e3,
        r.stats.queries.p90_ns as f64 / 1e3,
        r.stats.queries.p99_ns as f64 / 1e3,
        r.stats.queries.max_ns as f64 / 1e3,
        windows(&|s| s.p50_ns),
        windows(&|s| s.p99_ns),
        r.final_epoch,
        r.stats.to_json(),
        extra,
    )
}

/// Write the final roster as plain text: one community per line, members
/// space-separated, canonical (sorted) order, followed by the epoch's
/// weight-list fingerprint — so one `cmp` across runs diffs rosters
/// **and** weights.
pub fn write_roster(cover: &Cover, weights_fingerprint: u64, path: &str) {
    let mut out = String::new();
    for c in cover.communities() {
        let line: Vec<String> = c.iter().map(u32::to_string).collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    out.push_str(&format!(
        "# weights_fingerprint {weights_fingerprint:016x}\n"
    ));
    std::fs::write(path, out).expect("write roster file");
    eprintln!("[serve] wrote roster to {path}");
}

/// Run the workload, print the table, and write `out_path`; optionally
/// dump the final roster for cross-run divergence checks.
pub fn serve_to(w: &ServeWorkload, out_path: &str, roster_out: Option<&str>) {
    eprintln!(
        "[serve:{}] {} n={}, {} edits, {}:1 reads over {} threads, {} shard(s)",
        w.mode,
        w.topology.label(),
        w.graph_n,
        w.total_edits,
        w.queries_per_edit,
        w.query_threads,
        w.shards,
    );
    let r = run_workload(w);
    let mut t = Table::new(format!("serve workload ({})", w.mode), &["metric", "value"]);
    t.row(vec![
        "edits applied".into(),
        r.stats.edits_applied.to_string(),
    ]);
    t.row(vec![
        "edits/sec (sustained)".into(),
        format!("{:.0}", r.edits_per_sec),
    ]);
    t.row(vec!["queries issued".into(), r.queries_issued.to_string()]);
    t.row(vec![
        "queries/sec".into(),
        format!("{:.0}", r.queries_per_sec),
    ]);
    t.row(vec![
        "query p50 (us)".into(),
        format!("{:.2}", r.stats.queries.p50_ns as f64 / 1e3),
    ]);
    t.row(vec![
        "query p99 (us)".into(),
        format!("{:.2}", r.stats.queries.p99_ns as f64 / 1e3),
    ]);
    t.row(vec![
        "flush p99 (us)".into(),
        format!("{:.2}", r.stats.flushes.p99_ns as f64 / 1e3),
    ]);
    t.row(vec![
        "snapshot publish p99 (us)".into(),
        format!("{:.2}", r.stats.snapshots.p99_ns as f64 / 1e3),
    ]);
    t.row(vec![
        "batches flushed".into(),
        r.stats.batches_flushed.to_string(),
    ]);
    t.row(vec![
        "snapshots published".into(),
        r.stats.snapshots_published.to_string(),
    ]);
    t.row(vec!["final epoch".into(), r.final_epoch.to_string()]);
    if w.shards > 1 {
        t.row(vec![
            "exchange rounds".into(),
            r.stats.exchange_rounds.to_string(),
        ]);
        t.row(vec![
            "boundary msgs".into(),
            r.stats.boundary_msgs.to_string(),
        ]);
    }
    t.print();
    let json = to_json(w, &r);
    std::fs::write(out_path, &json).expect("write BENCH_serve.json");
    eprintln!("[serve:{}] wrote {out_path}", w.mode);
    if let Some(path) = roster_out {
        write_roster(&r.final_cover, r.final_weights_fingerprint, path);
    }
}

/// Run the workload, print the table, and write `out_path`.
pub fn serve(w: &ServeWorkload, out_path: &str) {
    serve_to(w, out_path, None);
}

/// Run the 1/2/4/8-shard series for one churn bias, print its table, and
/// render its JSON object.
fn sharded_series(churn: EditWorkload) -> (Vec<(ServeWorkload, ServeBenchResult)>, String) {
    let shard_counts = [1usize, 2, 4, 8];
    let mut runs: Vec<(ServeWorkload, ServeBenchResult)> = Vec::new();
    for &shards in &shard_counts {
        let w = ServeWorkload {
            mode: "sharded",
            churn,
            ..ServeWorkload::full_sharded(shards)
        };
        eprintln!(
            "[serve-sharded] shards={shards} churn={}: {} edits over {} n={}",
            churn_label(churn),
            w.total_edits,
            w.topology.label(),
            w.graph_n
        );
        runs.push((w, run_workload(&w)));
    }
    let baseline = runs[0].1.edits_per_sec;
    let rosters_match = runs
        .iter()
        .all(|(_, r)| r.final_cover == runs[0].1.final_cover);

    let mut t = Table::new(
        format!(
            "serve sharded sweep (100k-edit LFR workload, {} churn)",
            churn_label(churn)
        ),
        &[
            "shards",
            "edits/sec",
            "speedup",
            "flush p99 (us)",
            "snap mean (ms)",
            "snap p99 (ms)",
            "rounds",
            "boundary msgs",
        ],
    );
    for (w, r) in &runs {
        t.row(vec![
            w.shards.to_string(),
            format!("{:.0}", r.edits_per_sec),
            format!("{:.2}x", r.edits_per_sec / baseline),
            format!("{:.1}", r.stats.flushes.p99_ns as f64 / 1e3),
            format!("{:.2}", r.stats.snapshots.mean_ns as f64 / 1e6),
            format!("{:.2}", r.stats.snapshots.p99_ns as f64 / 1e6),
            r.stats.exchange_rounds.to_string(),
            r.stats.boundary_msgs.to_string(),
        ]);
    }
    t.print();
    assert!(
        rosters_match,
        "final rosters diverged across shard counts — sharding changed semantics"
    );

    let fmt = |f: &dyn Fn(&ServeBenchResult) -> String| -> String {
        runs.iter()
            .map(|(_, r)| f(r))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let json = format!(
        "{{\n    \"churn\": \"{}\",\n    \"shard_counts\": [{}],\n    \
         \"edits_per_sec\": [{}],\n    \"speedup_vs_1\": [{}],\n    \
         \"flush_p99_ns\": [{}],\n    \"snapshot_mean_ns\": [{}],\n    \
         \"snapshot_p99_ns\": [{}],\n    \"exchange_rounds\": [{}],\n    \
         \"boundary_msgs\": [{}],\n    \"vertices_migrated\": [{}],\n    \
         \"rosters_match\": {}\n  }}",
        churn_label(churn),
        shard_counts
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        fmt(&|r| format!("{:.1}", r.edits_per_sec)),
        fmt(&|r| format!("{:.3}", r.edits_per_sec / baseline)),
        fmt(&|r| r.stats.flushes.p99_ns.to_string()),
        fmt(&|r| r.stats.snapshots.mean_ns.to_string()),
        fmt(&|r| r.stats.snapshots.p99_ns.to_string()),
        fmt(&|r| r.stats.exchange_rounds.to_string()),
        fmt(&|r| r.stats.boundary_msgs.to_string()),
        fmt(&|r| r.stats.vertices_migrated.to_string()),
        rosters_match,
    );
    (runs, json)
}

/// The sharded sweep: the full workload at 1/2/4/8 maintenance shards
/// under both churn biases — the paper's uniform rewiring (locality-
/// adversarial: the graph converges to random) and community-respecting
/// churn (the serving case partition locality is built for). Every shard
/// count must land on the same final roster; the whole series (baseline
/// fields = the uniform shards=1 run) goes to `out_path`.
pub fn serve_sharded(out_path: &str) {
    let (uniform_runs, uniform_json) = sharded_series(EditWorkload::Uniform);
    let (_, consolidating_json) = sharded_series(EditWorkload::Consolidating);
    let extra = format!(
        ",\n  \"sharded\": {uniform_json},\n  \"sharded_consolidating\": {consolidating_json}"
    );
    let (w1, r1) = &uniform_runs[0];
    let json = to_json_with_extra(w1, r1, &extra);
    std::fs::write(out_path, &json).expect("write BENCH_serve.json");
    eprintln!("[serve-sharded] wrote {out_path}");
}

/// Derived metrics of one `serve-p2p` cell.
impl ServeBenchResult {
    /// Mean counter upkeep per flush: `counters` holds one sample per
    /// non-empty flush, so mean × count is its total, amortized here over
    /// every flush.
    fn upkeep_per_flush_ns(&self) -> f64 {
        let s = &self.stats;
        (s.counters.mean_ns * s.counters.count) as f64 / s.batches_flushed.max(1) as f64
    }

    /// Mean flush (repair + exchange coordination) + upkeep wall time.
    fn exchange_upkeep_ns(&self) -> f64 {
        self.stats.flushes.mean_ns as f64 + self.upkeep_per_flush_ns()
    }

    /// The cell's fields of the `serve-p2p` JSON.
    fn p2p_json(&self) -> String {
        let s = &self.stats;
        format!(
            "\"edits_per_sec\": {:.1}, \"flush_mean_ns\": {}, \"flush_p99_ns\": {}, \
             \"upkeep_per_flush_ns\": {:.0}, \"exchange_upkeep_per_flush_ns\": {:.0}, \
             \"snapshot_mean_ns\": {}, \"exchange_rounds\": {}, \"boundary_msgs\": {}, \
             \"envelope_hops\": {}, \"mailbox_depth_p99\": {}, \"barrier_wait_p99_ns\": {}, \
             \"slot_deltas_net\": {}, \"weights_fingerprint\": \"{:016x}\"",
            self.edits_per_sec,
            s.flushes.mean_ns,
            s.flushes.p99_ns,
            self.upkeep_per_flush_ns(),
            self.exchange_upkeep_ns(),
            s.snapshots.mean_ns,
            s.exchange_rounds,
            s.boundary_msgs,
            s.envelope_hops,
            s.mailbox_depth.p99_ns,
            s.barrier_wait.p99_ns,
            s.slot_deltas_net,
            self.final_weights_fingerprint,
        )
    }
}

/// The mailbox-mesh sweep (`repro serve-p2p`): the full 100k-edit
/// workload at 4 shards, under uniform, consolidating, and localized
/// churn, publishing per flush and per 8 flushes, plus a read-heavy
/// hot-spot cell. Every cell reports the per-flush exchange+upkeep wall
/// time and the mesh's envelope traffic and barrier waits. `smoke` runs
/// the CI-scale localized sweep across shard counts instead
/// (`serve_p2p_smoke`).
pub fn serve_p2p(smoke: bool, out_path: &str) {
    if smoke {
        serve_p2p_smoke(out_path);
        return;
    }
    let full = ServeWorkload {
        mode: "p2p",
        ..ServeWorkload::full_sharded(4)
    };
    let cells: [ServeWorkload; 5] = [
        ServeWorkload {
            snapshot_every: 1,
            ..full
        },
        ServeWorkload {
            snapshot_every: 8,
            ..full
        },
        ServeWorkload {
            churn: EditWorkload::Consolidating,
            snapshot_every: 1,
            ..full
        },
        ServeWorkload {
            churn: EditWorkload::Consolidating,
            snapshot_every: 8,
            ..full
        },
        // The read-heavy hot-spot cell: a few edits per publish, confined
        // to a window of ~n/20 vertices, so the repair cascade's
        // per-publish footprint stays far below the boundary set.
        ServeWorkload {
            churn: EditWorkload::Localized,
            total_edits: 10_000,
            round_edits: 200,
            flush_size: 8,
            snapshot_every: 1,
            ..full
        },
    ];
    let mut t = Table::new(
        "serve p2p: mailbox mesh (4 shards, 100k edits)".to_string(),
        &[
            "churn/cadence",
            "edits/sec",
            "flush+upkeep (us)",
            "envelope hops",
            "barrier p99 (us)",
        ],
    );
    let mut cell_json = Vec::new();
    for w in &cells {
        let (churn, snapshot_every) = (w.churn, w.snapshot_every);
        eprintln!(
            "[serve-p2p] churn={} snapshot_every={} ({} edits, flush {})",
            churn_label(churn),
            snapshot_every,
            w.total_edits,
            w.flush_size,
        );
        let r = run_workload(w);
        let s = &r.stats;
        t.row(vec![
            format!("{} (x{})", churn_label(churn), snapshot_every),
            format!("{:.0}", r.edits_per_sec),
            format!("{:.1}", r.exchange_upkeep_ns() / 1e3),
            s.envelope_hops.to_string(),
            format!("{:.1}", s.barrier_wait.p99_ns as f64 / 1e3),
        ]);
        cell_json.push(format!(
            "{{\n    \"churn\": \"{}\",\n    \"snapshot_every\": {},\n    \
             \"total_edits\": {},\n    \"flush_size\": {},\n    {}\n  }}",
            churn_label(churn),
            snapshot_every,
            w.total_edits,
            w.flush_size,
            r.p2p_json(),
        ));
    }
    t.print();
    let json = format!(
        "{{\n  \"experiment\": \"serve-p2p\",\n  \"config\": {{\"graph_n\": {}, \
         \"iterations\": {}, \"total_edits\": {}, \"flush_size\": {}, \"shards\": 4, \
         \"cores\": {}, \"seed\": {}}},\n  \"cells\": [{}]\n}}\n",
        ServeWorkload::full().graph_n,
        ServeWorkload::full().iterations,
        ServeWorkload::full().total_edits,
        ServeWorkload::full().flush_size,
        host_cores(),
        ServeWorkload::full().seed,
        cell_json.join(", "),
    );
    std::fs::write(out_path, &json).expect("write BENCH_serve.json");
    eprintln!("[serve-p2p] wrote {out_path}");
}

/// CI-scale `serve-p2p --smoke`: localized hot-spot churn at 1/4/8
/// shards. Gates two invariants cheaply enough for every CI run:
///
/// 1. cross-shard bit-identity — every shard count lands on the roster
///    and weight fingerprint of the 1-shard run;
/// 2. one counter stream — every shard count folds exactly the 1-shard
///    run's net slot changes into the counter store (`slot_deltas_net`,
///    above 0), so the mesh's gathered streams neither lose nor invent a
///    change.
fn serve_p2p_smoke(out_path: &str) {
    let mut t = Table::new(
        "serve p2p smoke: localized churn".to_string(),
        &["shards", "edits/sec", "net slot deltas"],
    );
    let mut cell_json = Vec::new();
    let mut reference: Option<(Cover, u64, u64)> = None;
    for shards in [1usize, 4, 8] {
        let w = ServeWorkload {
            mode: "p2p-smoke",
            churn: EditWorkload::Localized,
            ..ServeWorkload::smoke_sharded(shards)
        };
        eprintln!("[serve-p2p:smoke] shards={shards}");
        let r = run_workload(&w);
        let s = &r.stats;
        t.row(vec![
            shards.to_string(),
            format!("{:.0}", r.edits_per_sec),
            s.slot_deltas_net.to_string(),
        ]);
        assert!(s.slot_deltas_net > 0, "no slot change reached the counters");
        match &reference {
            None => {
                reference = Some((
                    r.final_cover.clone(),
                    r.final_weights_fingerprint,
                    s.slot_deltas_net,
                ))
            }
            Some((cover, fingerprint, net)) => {
                assert_eq!(
                    cover, &r.final_cover,
                    "shard count changed the final roster at {shards} shard(s)"
                );
                assert_eq!(
                    *fingerprint, r.final_weights_fingerprint,
                    "shard count changed the final weights at {shards} shard(s)"
                );
                assert_eq!(
                    *net, s.slot_deltas_net,
                    "shard count changed the net slot changes at {shards} shard(s)"
                );
            }
        }
        cell_json.push(format!(
            "{{\n    \"shards\": {shards},\n    {},\n    \
             \"rosters_and_weights_match\": true\n  }}",
            r.p2p_json(),
        ));
    }
    t.print();
    let smoke = ServeWorkload::smoke();
    let json = format!(
        "{{\n  \"experiment\": \"serve-p2p\",\n  \"mode\": \"smoke\",\n  \
         \"config\": {{\"graph_n\": {}, \"iterations\": {}, \"total_edits\": {}, \
         \"flush_size\": {}, \"churn\": \"localized\", \"cores\": {}, \"seed\": {}}},\n  \
         \"cells\": [{}]\n}}\n",
        smoke.graph_n,
        smoke.iterations,
        smoke.total_edits,
        smoke.flush_size,
        host_cores(),
        smoke.seed,
        cell_json.join(", "),
    );
    std::fs::write(out_path, &json).expect("write BENCH_serve.json");
    eprintln!("[serve-p2p:smoke] wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_workload_round_trips_to_json() {
        let w = ServeWorkload {
            mode: "micro",
            topology: Topology::Lfr,
            graph_n: 200,
            iterations: 15,
            total_edits: 300,
            round_edits: 100,
            queries_per_edit: 3,
            query_threads: 1,
            flush_size: 64,
            snapshot_every: 2,
            shards: 1,
            churn: EditWorkload::Uniform,
            seed: 7,
        };
        let r = run_workload(&w);
        assert_eq!(r.stats.edits_enqueued, 300);
        assert!(r.stats.edits_applied > 0);
        assert!(r.queries_issued >= 300, "{r:?}");
        assert!(r.final_epoch >= 1);
        assert!(r.edits_per_sec > 0.0);
        assert!(
            r.stats.mem_capacity_bytes > 0 && r.stats.mem_vertices > 0,
            "memory gauges not set at publish: {:?}",
            (r.stats.mem_capacity_bytes, r.stats.mem_vertices)
        );
        let json = to_json(&w, &r);
        assert!(json.contains("\"experiment\": \"serve\""));
        assert!(json.contains("\"query_p99_us\""));
        assert!(json.contains("\"query_window_p50_us\""));
        assert!(
            !r.query_windows.is_empty(),
            "no per-window query summaries collected"
        );
        // The first window opens before any reader starts and the
        // trailing one closes after every reader joined, so the windows
        // partition the run's queries exactly, on any schedule.
        let windowed: u64 = r.query_windows.iter().map(|s| s.count).sum();
        assert_eq!(
            windowed, r.stats.queries.count,
            "window counts must partition the cumulative count"
        );
        assert!(json.contains("\"edits_per_sec\""));
        assert!(json.contains("\"bytes_per_vertex\""));
        // Crude but effective: balanced braces, parseable-ish.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.contains("\"shards\": 1"));
    }

    #[test]
    fn micro_workload_rosters_agree_across_shard_counts() {
        let base = ServeWorkload {
            mode: "micro",
            topology: Topology::Lfr,
            graph_n: 200,
            iterations: 15,
            total_edits: 400,
            round_edits: 100,
            queries_per_edit: 1,
            query_threads: 1,
            flush_size: 64,
            snapshot_every: 2,
            shards: 1,
            churn: EditWorkload::Uniform,
            seed: 9,
        };
        let r1 = run_workload(&base);
        let r4 = run_workload(&ServeWorkload { shards: 4, ..base });
        assert!(!r1.final_cover.is_empty());
        assert_eq!(
            r1.final_cover, r4.final_cover,
            "sharding changed the final roster"
        );
        assert_eq!(r1.final_epoch, r4.final_epoch, "snapshot cadence drifted");
        assert_eq!(r4.stats.shards.len(), 4);
    }
}
