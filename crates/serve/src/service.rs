//! [`CommunityService`]: the long-lived facade tying queue, policy,
//! maintenance loop, snapshot store, and query engine together.

use std::sync::Arc;
use std::thread::JoinHandle;

use rslpa_core::{DampingConfig, DetectionResult, RslpaConfig};
use rslpa_graph::{AdjacencyGraph, VertexId};
use rslpa_trace::Tracer;

use crate::maintain::MaintenanceLoop;
use crate::policy::{BySize, FlushPolicy};
use crate::query::QueryEngine;
use crate::queue::{BarrierGate, Command, EditOp, EditQueue};
use crate::shards::RepairEngine;
use crate::snapshot::{CommunitySnapshot, SnapshotReader, SnapshotStore};
use crate::stats::{ServeStats, StatsReport};

/// How many recent epochs stay addressable for diff queries.
const HISTORY: usize = 64;

/// Flight-recorder configuration (see [`ServeConfig::with_trace`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOptions {
    /// Ring capacity per lane, in records (one lane for the maintenance
    /// thread plus one per shard worker; 32 bytes per record). When a
    /// lane's ring wraps, the oldest records are overwritten and counted
    /// in `trace_dropped_records`.
    pub capacity_per_lane: usize,
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self {
            capacity_per_lane: 1 << 16,
        }
    }
}

/// Service configuration.
pub struct ServeConfig {
    /// Detector parameters (iterations, seed, cascade damping).
    pub detector: RslpaConfig,
    /// Micro-batching policy for the ingestion queue.
    pub policy: Box<dyn FlushPolicy>,
    /// Publish a snapshot every this many flushes (≥ 1). Barriers and
    /// shutdown always publish. Post-processing dominates flush cost, so
    /// raising this trades snapshot freshness for ingest throughput.
    pub snapshot_every: usize,
    /// Maintenance shards. `1` (the default) keeps the single-writer
    /// path; `> 1` partitions the vertex space and repairs flushes on
    /// that many worker threads with boundary exchange. Rosters are
    /// bit-identical across shard counts for the same edit/barrier
    /// sequence.
    ///
    /// `0` is clamped to the single-writer path at start-up rather than
    /// panicking downstream. Counts above the seed graph's vertex count
    /// are honored as-is: live streams grow the id space, so a service
    /// seeded small may still want many shards (a shard that owns no
    /// vertex yet idles until a repartition hands it some). The effective
    /// count is what [`StatsReport::shards`](crate::StatsReport) reports.
    pub shards: usize,
    /// Flight-recorder setup. `None` (the default) wires every span site
    /// to a permanently-off recorder — one relaxed atomic load per site,
    /// no storage. `Some` allocates one ring per thread and records the
    /// full maintain path for export via
    /// [`CommunityService::tracer`].
    pub trace: Option<TraceOptions>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            // The serve path is the one place damping defaults *on*: a
            // live service is exactly where a flash crowd's unbounded
            // cascade blows up flush latency and dirty fractions. The
            // library default (`RslpaConfig`) stays `None` — batch and
            // reference paths keep the paper's Algorithm 2 verbatim.
            detector: RslpaConfig {
                damping: Some(DampingConfig::default()),
                ..RslpaConfig::default()
            },
            policy: Box::new(BySize::default()),
            snapshot_every: 1,
            shards: 1,
            trace: None,
        }
    }
}

impl ServeConfig {
    /// Small-iteration config for tests and examples. Keeps the serve
    /// default of damping *on* (see [`Default`]).
    pub fn quick(iterations: usize, seed: u64) -> Self {
        Self {
            detector: RslpaConfig {
                damping: Some(DampingConfig::default()),
                ..RslpaConfig::quick(iterations, seed)
            },
            ..Self::default()
        }
    }

    /// Replace the flush policy (builder style).
    pub fn with_policy(mut self, policy: impl FlushPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Set the snapshot cadence (builder style).
    pub fn with_snapshot_every(mut self, every: usize) -> Self {
        self.snapshot_every = every.max(1);
        self
    }

    /// Set the maintenance shard count (builder style).
    ///
    /// `1` (the default) keeps the single-writer repair path; `N > 1`
    /// partitions the vertex space across `N` worker threads that repair
    /// flushes in parallel and exchange boundary corrections. Shard count
    /// is purely a throughput knob: for the same edit/barrier sequence,
    /// every shard count publishes bit-identical rosters.
    ///
    /// ```
    /// use rslpa_graph::AdjacencyGraph;
    /// use rslpa_serve::{CommunityService, ServeConfig};
    ///
    /// let graph = AdjacencyGraph::from_edges(6, [
    ///     (0, 1), (1, 2), (0, 2),
    ///     (3, 4), (4, 5), (3, 5),
    ///     (2, 3),
    /// ]);
    /// let run = |shards: usize| {
    ///     let config = ServeConfig::quick(25, 7).with_shards(shards);
    ///     let service = CommunityService::start(graph.clone(), config);
    ///     service.ingest().insert(1, 4).unwrap();
    ///     service.ingest().barrier().unwrap();
    ///     let roster = service.latest().cover.clone();
    ///     service.shutdown();
    ///     roster
    /// };
    /// assert_eq!(run(1), run(4)); // sharding never changes semantics
    /// ```
    ///
    /// `0` is clamped to the single-writer path; any larger count is
    /// honored as-is, even above the seed graph's vertex count (see
    /// [`shards`](Self::shards)).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Enable the flight recorder (builder style): every maintain-path
    /// span (queue drain, flush, repair wave, mesh exchange round, barrier
    /// wait, counter upkeep, publish sub-phases) records into a per-thread
    /// ring, exportable as Chrome trace JSON via
    /// [`CommunityService::tracer`].
    ///
    /// ```
    /// use rslpa_graph::AdjacencyGraph;
    /// use rslpa_serve::{CommunityService, ServeConfig, TraceOptions};
    ///
    /// let graph = AdjacencyGraph::from_edges(6, [
    ///     (0, 1), (1, 2), (0, 2),
    ///     (3, 4), (4, 5), (3, 5),
    ///     (2, 3),
    /// ]);
    /// let config = ServeConfig::quick(20, 7)
    ///     .with_shards(2)
    ///     .with_trace(TraceOptions::default());
    /// let service = CommunityService::start(graph, config);
    /// service.ingest().insert(1, 4).unwrap();
    /// service.ingest().barrier().unwrap();
    /// let tracer = service.tracer();
    /// service.shutdown();
    /// let dump = tracer.drain();
    /// assert!(dump.records.iter().any(|r| r.lane == 0), "maintain lane recorded");
    /// let json = dump.chrome_json(&["maintain", "shard 0", "shard 1"]);
    /// assert!(json.starts_with("{\"traceEvents\":["));
    /// ```
    pub fn with_trace(mut self, trace: TraceOptions) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// Error submitting to a service that has shut down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceClosed;

impl std::fmt::Display for ServiceClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "community service is shut down")
    }
}

impl std::error::Error for ServiceClosed {}

/// A clonable write handle: feeds edits and barriers into the queue from
/// any thread.
#[derive(Clone)]
pub struct IngestHandle {
    queue: Arc<EditQueue>,
}

impl IngestHandle {
    /// Enqueue one edit operation.
    pub fn submit(&self, op: EditOp) -> Result<(), ServiceClosed> {
        if self.queue.push(Command::Edit(op)) {
            Ok(())
        } else {
            Err(ServiceClosed)
        }
    }

    /// Enqueue an edge insertion.
    pub fn insert(&self, u: VertexId, v: VertexId) -> Result<(), ServiceClosed> {
        self.submit(EditOp::Insert(u, v))
    }

    /// Enqueue an edge deletion.
    pub fn delete(&self, u: VertexId, v: VertexId) -> Result<(), ServiceClosed> {
        self.submit(EditOp::Delete(u, v))
    }

    /// Block until every edit enqueued before this call is applied and a
    /// covering snapshot is published; returns that snapshot's epoch.
    pub fn barrier(&self) -> Result<u64, ServiceClosed> {
        let gate = BarrierGate::new();
        if !self.queue.push(Command::Barrier(gate.clone())) {
            return Err(ServiceClosed);
        }
        Ok(gate.wait())
    }
}

/// A live, queryable community-detection service over a mutating graph.
///
/// ```
/// use rslpa_graph::AdjacencyGraph;
/// use rslpa_serve::{CommunityService, ServeConfig};
///
/// let graph = AdjacencyGraph::from_edges(6, [
///     (0, 1), (1, 2), (0, 2),
///     (3, 4), (4, 5), (3, 5),
///     (2, 3),
/// ]);
/// let service = CommunityService::start(graph, ServeConfig::quick(30, 7));
/// let mut queries = service.query();
///
/// // Reads are served from the genesis snapshot immediately.
/// assert!(!queries.membership(0).is_empty());
///
/// // Writes flow through the ingestion queue; a barrier waits for them.
/// service.ingest().insert(1, 4).unwrap();
/// let epoch = service.ingest().barrier().unwrap();
/// assert!(epoch > 0);
/// let report = service.shutdown();
/// assert_eq!(report.edits_applied, 1);
/// ```
pub struct CommunityService {
    queue: Arc<EditQueue>,
    store: Arc<SnapshotStore>,
    stats: Arc<ServeStats>,
    tracer: Arc<Tracer>,
    worker: Option<JoinHandle<()>>,
}

impl CommunityService {
    /// Run initial label propagation on `graph`, publish the genesis
    /// snapshot (epoch 0), and start the maintenance thread (plus shard
    /// workers when `config.shards > 1`).
    pub fn start(graph: AdjacencyGraph, config: ServeConfig) -> Self {
        // Clamp the shard count below to 1 (0 would have no writer at
        // all). There is deliberately no upper clamp at the *initial*
        // vertex count: streams grow the id space, so a service seeded
        // with a small genesis graph may legitimately ask for more shards
        // than it has vertices today — a shard that owns no vertex yet
        // just idles until repartitioning hands it some.
        let shards = config.shards.max(1);
        let stats = Arc::new(ServeStats::with_shards(shards));
        // Lane 0 is the maintenance thread; lanes 1 + s the shard workers.
        // Without trace options the tracer is the permanently-off variant,
        // so every span site still holds a writer and pays exactly one
        // relaxed load.
        let tracer = Arc::new(match config.trace {
            Some(t) => Tracer::new(shards + 1, t.capacity_per_lane),
            None => Tracer::disabled(),
        });
        let bootstrap = RepairEngine::bootstrap(graph, &config.detector, shards, &stats, &tracer);
        let detection = DetectionResult {
            result: bootstrap.genesis,
        };
        let genesis = CommunitySnapshot::build(0, bootstrap.engine.graph(), &detection, 0);
        let store = Arc::new(SnapshotStore::new(genesis, HISTORY));
        let queue = EditQueue::new();
        let worker = MaintenanceLoop {
            engine: bootstrap.engine,
            queue: Arc::clone(&queue),
            store: Arc::clone(&store),
            stats: Arc::clone(&stats),
            policy: config.policy,
            snapshot_every: config.snapshot_every.max(1),
            flushes_since_snapshot: 0,
            dirty_since_snapshot: false,
            resolve_scratch: Default::default(),
            hubs: Default::default(),
            trace: tracer.writer(0),
        };
        let handle = std::thread::Builder::new()
            .name("rslpa-serve-maintain".into())
            .spawn(move || worker.run())
            .expect("spawn maintenance thread");
        Self {
            queue,
            store,
            stats,
            tracer,
            worker: Some(handle),
        }
    }

    /// The service's flight recorder. With tracing off (the default) this
    /// is the permanently-disabled recorder — draining it yields nothing.
    /// Grab the `Arc` before [`CommunityService::shutdown`] to export the
    /// final trace (see [`ServeConfig::with_trace`] for an example).
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.tracer)
    }

    /// A clonable write handle.
    pub fn ingest(&self) -> IngestHandle {
        IngestHandle {
            queue: Arc::clone(&self.queue),
        }
    }

    /// A latency-accounted query engine (one per reader thread).
    pub fn query(&self) -> QueryEngine {
        QueryEngine::new(
            self.store.reader(),
            Arc::clone(&self.store),
            Arc::clone(&self.stats),
        )
    }

    /// A raw lock-free snapshot reader.
    pub fn reader(&self) -> SnapshotReader {
        self.store.reader()
    }

    /// The newest published snapshot.
    pub fn latest(&self) -> Arc<CommunitySnapshot> {
        self.store.latest()
    }

    /// Newest published epoch.
    pub fn latest_epoch(&self) -> u64 {
        self.store.latest_epoch()
    }

    /// Commands currently waiting in the ingestion queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Point-in-time operation counters and latency summaries.
    pub fn stats(&self) -> StatsReport {
        self.report()
    }

    /// Record one externally-scored publish window (the published roster
    /// compared against a tracked ground-truth cover). The serve loop
    /// never scores itself — quality harnesses (`repro churn`) compute
    /// ONMI/F1/omega with `rslpa_metrics` and deposit the scores here so
    /// they travel with the stats report (`quality_per_window`, schema
    /// v4).
    pub fn note_quality_window(&self, window: crate::stats::QualityWindow) {
        self.stats.note_quality_window(window);
    }

    /// Frozen bucket counts of the query-latency histogram. Subtract an
    /// earlier snapshot
    /// ([`HistogramSnapshot::delta_since`](crate::HistogramSnapshot::delta_since))
    /// to get per-window percentiles instead of cumulative-only.
    pub fn query_latency_snapshot(&self) -> crate::HistogramSnapshot {
        self.stats.queries.snapshot()
    }

    /// Flush remaining edits, publish a final snapshot, stop the
    /// maintenance thread, and return the final stats.
    pub fn shutdown(mut self) -> StatsReport {
        self.shutdown_inner();
        self.report()
    }

    /// The stats record, plus the edit count the queue keeps under its
    /// own lock (so a submit takes one lock, not two).
    fn report(&self) -> StatsReport {
        StatsReport {
            edits_enqueued: self.queue.edits_accepted(),
            ..self.stats.report()
        }
    }

    fn shutdown_inner(&mut self) {
        self.queue.push(Command::Shutdown);
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CommunityService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BarrierOnly, BySize};
    use std::time::Duration;

    fn two_triangles() -> AdjacencyGraph {
        AdjacencyGraph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn fully_rejected_flush_does_not_publish_a_duplicate_epoch() {
        // An op stream that nets to nothing (here: inserting an edge that
        // already exists) must not make the next barrier churn out an
        // identical epoch.
        let svc = CommunityService::start(
            two_triangles(),
            ServeConfig::quick(20, 3).with_policy(BySize::new(1)),
        );
        let ingest = svc.ingest();
        ingest.insert(0, 1).unwrap(); // already present → rejected
        let epoch = ingest.barrier().unwrap();
        assert_eq!(epoch, 0, "no-op flush must not bump the epoch");
        let report = svc.shutdown();
        assert_eq!(report.edits_rejected, 1);
        assert_eq!(report.snapshots_published, 0);
    }

    #[test]
    fn genesis_snapshot_is_queryable_before_any_edit() {
        let svc = CommunityService::start(two_triangles(), ServeConfig::quick(30, 3));
        let snap = svc.latest();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.num_vertices, 6);
        assert!(!snap.cover.is_empty());
        let mut q = svc.query();
        assert!(!q.membership(0).is_empty());
        assert!(svc.stats().queries.count >= 1);
    }

    #[test]
    fn barrier_applies_all_enqueued_edits() {
        let svc = CommunityService::start(
            two_triangles(),
            ServeConfig::quick(30, 3).with_policy(BarrierOnly),
        );
        let ingest = svc.ingest();
        ingest.insert(0, 3).unwrap();
        ingest.insert(1, 4).unwrap();
        ingest.delete(2, 3).unwrap();
        let epoch = ingest.barrier().unwrap();
        assert!(epoch >= 1);
        let snap = svc.latest();
        assert_eq!(snap.epoch, epoch);
        assert_eq!(snap.num_edges, 7 + 2 - 1);
        let report = svc.shutdown();
        assert_eq!(report.edits_applied, 3);
        assert_eq!(report.edits_rejected, 0);
        assert_eq!(report.barriers, 1);
    }

    #[test]
    fn noop_edits_are_rejected_not_fatal() {
        let svc = CommunityService::start(
            two_triangles(),
            ServeConfig::quick(20, 1).with_policy(BarrierOnly),
        );
        let ingest = svc.ingest();
        ingest.insert(0, 1).unwrap(); // exists
        ingest.delete(0, 4).unwrap(); // absent
        ingest.insert(2, 2).unwrap(); // self-loop
        ingest.barrier().unwrap();
        let report = svc.shutdown();
        assert_eq!(report.edits_applied, 0);
        assert_eq!(report.edits_rejected, 3);
    }

    #[test]
    fn quiet_barriers_do_not_mint_new_epochs() {
        let svc = CommunityService::start(two_triangles(), ServeConfig::quick(20, 1));
        let ingest = svc.ingest();
        let e1 = ingest.barrier().unwrap();
        let e2 = ingest.barrier().unwrap();
        assert_eq!(e1, 0, "no edits -> genesis still current");
        assert_eq!(e2, 0);
        assert_eq!(svc.shutdown().snapshots_published, 0);
    }

    #[test]
    fn edits_reference_fresh_vertices() {
        let svc = CommunityService::start(
            two_triangles(),
            ServeConfig::quick(25, 5).with_policy(BarrierOnly),
        );
        let ingest = svc.ingest();
        ingest.insert(6, 0).unwrap();
        ingest.insert(6, 1).unwrap();
        ingest.barrier().unwrap();
        let snap = svc.latest();
        assert_eq!(snap.num_vertices, 7);
        assert!(
            !snap.membership(6).is_empty(),
            "new vertex joins a community"
        );
        drop(svc);
    }

    #[test]
    fn immediate_policy_flushes_per_edit() {
        let svc = CommunityService::start(
            two_triangles(),
            ServeConfig::quick(20, 2).with_policy(BySize::new(1)),
        );
        let ingest = svc.ingest();
        ingest.insert(0, 4).unwrap();
        ingest.insert(1, 5).unwrap();
        ingest.barrier().unwrap();
        let report = svc.shutdown();
        assert_eq!(report.edits_applied, 2);
        assert!(
            report.batches_flushed >= 2,
            "a one-edit size policy batches nothing: {report:?}"
        );
    }

    #[test]
    fn size_policy_batches_edits() {
        let svc = CommunityService::start(
            two_triangles(),
            ServeConfig::quick(20, 2).with_policy(BySize {
                max_edits: 64,
                max_linger: Duration::from_millis(50),
            }),
        );
        let ingest = svc.ingest();
        ingest.insert(0, 4).unwrap();
        ingest.insert(1, 5).unwrap();
        ingest.insert(2, 5).unwrap();
        ingest.barrier().unwrap();
        let report = svc.shutdown();
        assert_eq!(report.edits_applied, 3);
        assert_eq!(
            report.batches_flushed, 1,
            "one barrier flush expected: {report:?}"
        );
    }

    #[test]
    fn submissions_after_shutdown_fail_cleanly() {
        let svc = CommunityService::start(two_triangles(), ServeConfig::quick(10, 1));
        let ingest = svc.ingest();
        svc.shutdown();
        assert_eq!(ingest.insert(0, 4), Err(ServiceClosed));
        assert_eq!(ingest.barrier(), Err(ServiceClosed));
        assert!(ServiceClosed.to_string().contains("shut down"));
    }

    #[test]
    fn snapshot_every_throttles_publishing() {
        let svc = CommunityService::start(
            two_triangles(),
            ServeConfig::quick(20, 4)
                .with_policy(BySize::new(1))
                .with_snapshot_every(1000),
        );
        let ingest = svc.ingest();
        for v in 0..3u32 {
            ingest.insert(v, v + 3).unwrap();
        }
        // No barrier: snapshots are throttled, so the epoch may lag...
        std::thread::sleep(Duration::from_millis(20));
        let lagging = svc.latest_epoch();
        // ...but shutdown always publishes the final state.
        let report = svc.shutdown();
        assert!(lagging <= report.snapshots_published);
        assert_eq!(report.edits_applied, 3);
        assert!(report.snapshots_published >= 1);
    }

    #[test]
    fn query_engine_diff_across_barrier() {
        let svc = CommunityService::start(
            two_triangles(),
            ServeConfig::quick(30, 11).with_policy(BarrierOnly),
        );
        let ingest = svc.ingest();
        let q0 = ingest.barrier().unwrap();
        // Tear the bridge and the right triangle apart.
        ingest.delete(2, 3).unwrap();
        ingest.delete(3, 4).unwrap();
        ingest.delete(4, 5).unwrap();
        ingest.delete(3, 5).unwrap();
        let q1 = ingest.barrier().unwrap();
        let q = svc.query();
        let diff = q.membership_diff(q0, q1).expect("both epochs in history");
        assert!(diff.changed.iter().any(|&v| v >= 3), "{diff:?}");
        drop(svc);
    }
}
