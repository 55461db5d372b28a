//! Per-operation latency/throughput accounting for the serve loop.
//!
//! Queries and flushes record into log₂-bucketed histograms of atomic
//! counters, so recording from many reader threads is wait-free and a
//! percentile read never stops the world. Percentiles are resolved to the
//! *geometric mean* of the containing bucket's bounds — the unbiased
//! representative of a log₂ bucket (the upper bound would overstate
//! latencies by up to 2×).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of log₂ buckets: bucket `i` holds samples in `[2^(i-1), 2^i)` ns
/// (bucket 0 holds 0 ns). 2^63 ns ≈ 292 years — nothing saturates.
const BUCKETS: usize = 64;

/// The value a percentile resolves to when it lands in bucket `i`: the
/// geometric mean of the bucket bounds `[2^(i-1), 2^i)`, i.e.
/// `2^(i - 0.5)`, rounded to whole nanoseconds. Bucket 0 holds only
/// zero-duration samples.
fn bucket_representative(i: usize) -> u64 {
    if i == 0 {
        return 0;
    }
    let lo = (1u64 << (i - 1)) as f64;
    let hi = (1u64 << i) as f64;
    (lo * hi).sqrt().round() as u64
}

/// A wait-free latency histogram over nanosecond samples.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    saturated: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            saturated: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.record_value(ns);
    }

    /// Record one dimensionless sample (the histogram is just log₂
    /// buckets over `u64`; queue depths and message counts bucket the
    /// same way latencies do — the `*_ns` summary fields then carry raw
    /// values instead of nanoseconds).
    pub fn record_value(&self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize; // 0 for value == 0
        if idx >= BUCKETS {
            // The sample clamps into the top bucket: count it so saturated
            // data never silently reads as clean.
            self.saturated.fetch_add(1, Ordering::Relaxed);
        }
        self.buckets[idx.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(value, Ordering::Relaxed);
        self.max_ns.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Samples that clamped into the top bucket (value ≥ 2^63).
    pub fn saturated_samples(&self) -> u64 {
        self.saturated.load(Ordering::Relaxed)
    }

    /// Freeze the raw bucket counts. Two snapshots of the same histogram
    /// subtract ([`HistogramSnapshot::delta_since`]) into an *interval*
    /// view, so callers can report per-window percentiles instead of
    /// cumulative-only.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            saturated: self.saturated.load(Ordering::Relaxed),
        }
    }

    /// Freeze into a plain summary (counts read once; concurrent recording
    /// keeps the summary internally consistent enough for reporting).
    pub fn summarize(&self) -> LatencySummary {
        self.snapshot().summarize()
    }
}

/// Frozen bucket counts of a [`LatencyHistogram`]: summarize directly for
/// the cumulative view, or subtract an earlier snapshot for a per-window
/// (interval) view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    sum_ns: u64,
    max_ns: u64,
    saturated: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            sum_ns: 0,
            max_ns: 0,
            saturated: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Samples that clamped into the top bucket.
    pub fn saturated_samples(&self) -> u64 {
        self.saturated
    }

    /// The interval `prev .. self`: bucket-wise difference of two
    /// snapshots of the same (monotone) histogram. The interval's `max_ns`
    /// is approximated by the representative of its highest occupied
    /// bucket — the true max of just this window is not recoverable from
    /// cumulative counters.
    pub fn delta_since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].saturating_sub(prev.buckets[i]));
        let max_ns = buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_representative);
        HistogramSnapshot {
            buckets,
            sum_ns: self.sum_ns.saturating_sub(prev.sum_ns),
            max_ns,
            saturated: self.saturated.saturating_sub(prev.saturated),
        }
    }

    /// Resolve percentiles over the snapshot's buckets.
    ///
    /// An empty snapshot (a window that recorded no samples — e.g. a
    /// query-less barrier window under a delete-heavy scenario) summarizes
    /// to all-zero fields, never to a bucket bound or the saturated top
    /// bucket's representative.
    pub fn summarize(&self) -> LatencySummary {
        let total = self.count();
        if total == 0 {
            return LatencySummary::default();
        }
        let percentile = |q: f64| -> u64 {
            let target = (q * total as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return bucket_representative(i);
                }
            }
            self.max_ns
        };
        LatencySummary {
            count: total,
            mean_ns: self.sum_ns / total,
            p50_ns: percentile(0.50),
            p90_ns: percentile(0.90),
            p99_ns: percentile(0.99),
            max_ns: self.max_ns,
        }
    }
}

/// Frozen histogram view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: u64,
    /// Median (geometric mean of the containing bucket's bounds), ns.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1}us p50={:.1}us p99={:.1}us max={:.1}us",
            self.count,
            self.mean_ns as f64 / 1e3,
            self.p50_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
            self.max_ns as f64 / 1e3,
        )
    }
}

/// Per-shard monotone counters (sharded maintenance only; a single-writer
/// service has exactly one entry).
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Per-vertex edit deltas routed to this shard.
    pub edits_routed: AtomicU64,
    /// Label slots this shard repaired (Σ per-shard η).
    pub slots_repaired: AtomicU64,
    /// Wall nanoseconds this shard's worker spent actively processing
    /// commands (flush waves, exchange stepping, migration), *excluding*
    /// barrier parks.
    pub work_ns: AtomicU64,
    /// Wall nanoseconds the worker spent blocked on its command sub-queue
    /// waiting for the coordinator (the "mailbox wait").
    pub mailbox_wait_ns: AtomicU64,
    /// Wall nanoseconds the worker spent parked at mesh round barriers.
    pub barrier_wait_ns: AtomicU64,
    /// Of `barrier_wait_ns`, the arrive phase: parked until the round's
    /// last participant arrived (straggler / load-imbalance cost).
    pub barrier_arrive_ns: AtomicU64,
    /// Of `barrier_wait_ns`, the depart phase: between the leader's
    /// release and this worker resuming (wakeup/scheduling latency —
    /// dominates when workers outnumber cores).
    pub barrier_depart_ns: AtomicU64,
    /// Gauge: total wall nanoseconds of the worker's command loop, set
    /// once at shutdown. `work + mailbox_wait + barrier_wait` should
    /// account for ≥ 90% of it — the rest is loop bookkeeping.
    pub wall_ns: AtomicU64,
}

/// Plain point-in-time view of one shard's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounts {
    /// See [`ShardStats::edits_routed`].
    pub edits_routed: u64,
    /// See [`ShardStats::slots_repaired`].
    pub slots_repaired: u64,
    /// See [`ShardStats::work_ns`].
    pub work_ns: u64,
    /// See [`ShardStats::mailbox_wait_ns`].
    pub mailbox_wait_ns: u64,
    /// See [`ShardStats::barrier_wait_ns`].
    pub barrier_wait_ns: u64,
    /// See [`ShardStats::barrier_arrive_ns`].
    pub barrier_arrive_ns: u64,
    /// See [`ShardStats::barrier_depart_ns`].
    pub barrier_depart_ns: u64,
    /// See [`ShardStats::wall_ns`].
    pub wall_ns: u64,
}

impl ShardCounts {
    /// Fraction of the worker's wall time attributed to work, mailbox
    /// wait, or barrier wait (0.0 before shutdown sets the wall gauge).
    pub fn attribution_coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        let accounted = self.work_ns + self.mailbox_wait_ns + self.barrier_wait_ns;
        accounted as f64 / self.wall_ns as f64
    }
}

/// Shared counters for one service instance. All fields are monotone
/// counters updated with relaxed atomics; a [`StatsReport`] is a consistent
/// enough point-in-time read for reporting.
#[derive(Debug)]
pub struct ServeStats {
    /// Query latency (all query kinds pooled).
    pub queries: LatencyHistogram,
    /// Flush latency: net-batch resolution + incremental repair only;
    /// detection/publish cost is tracked separately in `snapshots`.
    pub flushes: LatencyHistogram,
    /// Snapshot publish latency: counter-read weight pass, thresholding,
    /// index build and epoch swap. Its count is the number of snapshots
    /// published.
    pub snapshots: LatencyHistogram,
    /// Per-flush edge-weight counter maintenance latency (retiring
    /// deleted edges' counters + folding the compacted slot-delta stream
    /// into the common-label counters on the maintenance thread), at
    /// every shard count.
    pub counters: LatencyHistogram,
    /// Edit operations accepted into the queue.
    pub edits_enqueued: AtomicU64,
    /// Edit operations applied to the graph.
    pub edits_applied: AtomicU64,
    /// Edit operations dropped as no-ops (inserting a present edge,
    /// deleting an absent one, self-loops).
    pub edits_rejected: AtomicU64,
    /// Micro-batches flushed into the maintenance engine.
    pub batches_flushed: AtomicU64,
    /// Label slots repaired across all flushes (Σ η).
    pub slots_repaired: AtomicU64,
    /// Net slot deltas folded into the edge-weight counters (after
    /// intra-flush compaction; ≤ `slots_repaired`).
    pub slot_deltas_net: AtomicU64,
    /// Barriers honored.
    pub barriers: AtomicU64,
    /// Mesh boundary-exchange rounds (0 under a single writer).
    pub exchange_rounds: AtomicU64,
    /// Envelopes that crossed a shard boundary.
    pub boundary_msgs: AtomicU64,
    /// Boundary envelopes the mesh ports wrote into their peers' mailbox
    /// cells, one hop each. Tallied port-side, independently of the
    /// route-side `boundary_msgs`, so equality of the two cross-checks
    /// delivery.
    pub envelope_hops: AtomicU64,
    /// Inbox depth per delivering mesh round (envelopes one shard read
    /// from its mailbox cells in one round; empty under the single
    /// writer).
    pub mailbox_depth: LatencyHistogram,
    /// Wall time workers spent parked on the mesh round barrier: one
    /// sample per shard per flush, since every shard joins every flush's
    /// exchange (empty under the single writer).
    pub barrier_wait: LatencyHistogram,
    /// Gauge: edges whose endpoints live on different shards.
    pub cut_edges: AtomicU64,
    /// Gauge: vertices with at least one off-shard neighbor.
    pub boundary_vertices: AtomicU64,
    /// Publish-time repartitions performed.
    pub repartitions: AtomicU64,
    /// Vertex rows migrated between shards by repartitions.
    pub vertices_migrated: AtomicU64,
    /// Forming hubs pulled (with their spoke frontiers) onto single
    /// shards by hub-aware repartitions.
    pub hub_pulls: AtomicU64,
    /// Cascade re-sprays deferred at over-cap vertices by degree-capped
    /// damping (0 with damping off).
    pub damped_deferrals: AtomicU64,
    /// Gauge: largest net per-vertex degree gain observed in the window
    /// ending at the last publish (the hub-detector's input signal).
    pub max_degree_delta: AtomicU64,
    /// Gauge: coordinator-resident live bytes (graph + label rows +
    /// counters, per the engine's ownership split) at the last publish.
    pub mem_live_bytes: AtomicU64,
    /// Gauge: coordinator-resident reserved bytes at the last publish.
    pub mem_capacity_bytes: AtomicU64,
    /// Gauge: vertex count the memory gauges were sampled at.
    pub mem_vertices: AtomicU64,
    /// Gauge: flight-recorder records lost to ring overwrite (refreshed at
    /// each publish while tracing is enabled; 0 when tracing is off).
    pub trace_dropped_records: AtomicU64,
    /// Distinct vertices whose stored labels changed, summed over all
    /// non-empty flushes (the dirty-region numerator).
    pub dirty_vertices: AtomicU64,
    /// Σ over the same flushes of the vertex count at flush time (the
    /// dirty-region denominator; `dirty_vertices / dirty_span` is the
    /// mean per-flush dirty fraction).
    pub dirty_span: AtomicU64,
    /// Roster-quality scores recorded by an external harness (one entry
    /// per scored publish window; empty unless a driver scores the run).
    pub quality_windows: Mutex<Vec<QualityWindow>>,
    /// Per-shard counters (length = shard count).
    pub shards: Vec<ShardStats>,
}

/// One externally-scored publish window: the published roster compared
/// against a tracked ground-truth cover. Recorded by bench drivers via
/// [`ServeStats::note_quality_window`]; the serve crate itself never
/// computes metric values (it has no dependency on `rslpa_metrics`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QualityWindow {
    /// Epoch of the snapshot that was scored.
    pub epoch: u64,
    /// Overlapping NMI of roster vs tracked cover, in `[0, 1]`.
    pub onmi: f64,
    /// Best-match average F1 (symmetrized), in `[0, 1]`.
    pub f1: f64,
    /// Omega index (chance-corrected pair agreement), ≤ 1.
    pub omega: f64,
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

macro_rules! bump {
    ($field:expr) => {
        $field.fetch_add(1, Ordering::Relaxed)
    };
    ($field:expr, $n:expr) => {
        $field.fetch_add($n, Ordering::Relaxed)
    };
}

impl ServeStats {
    /// Counters for a service with `shards` maintenance shards (≥ 1).
    pub fn with_shards(shards: usize) -> Self {
        Self {
            queries: LatencyHistogram::new(),
            flushes: LatencyHistogram::new(),
            snapshots: LatencyHistogram::new(),
            counters: LatencyHistogram::new(),
            edits_enqueued: AtomicU64::new(0),
            edits_applied: AtomicU64::new(0),
            edits_rejected: AtomicU64::new(0),
            batches_flushed: AtomicU64::new(0),
            slots_repaired: AtomicU64::new(0),
            slot_deltas_net: AtomicU64::new(0),
            barriers: AtomicU64::new(0),
            exchange_rounds: AtomicU64::new(0),
            boundary_msgs: AtomicU64::new(0),
            envelope_hops: AtomicU64::new(0),
            mailbox_depth: LatencyHistogram::new(),
            barrier_wait: LatencyHistogram::new(),
            cut_edges: AtomicU64::new(0),
            boundary_vertices: AtomicU64::new(0),
            repartitions: AtomicU64::new(0),
            vertices_migrated: AtomicU64::new(0),
            hub_pulls: AtomicU64::new(0),
            damped_deferrals: AtomicU64::new(0),
            max_degree_delta: AtomicU64::new(0),
            mem_live_bytes: AtomicU64::new(0),
            mem_capacity_bytes: AtomicU64::new(0),
            mem_vertices: AtomicU64::new(0),
            trace_dropped_records: AtomicU64::new(0),
            dirty_vertices: AtomicU64::new(0),
            dirty_span: AtomicU64::new(0),
            quality_windows: Mutex::new(Vec::new()),
            shards: (0..shards.max(1)).map(|_| ShardStats::default()).collect(),
        }
    }

    pub(crate) fn note_enqueued(&self) {
        bump!(self.edits_enqueued);
    }

    pub(crate) fn note_shard_flush(&self, shard: usize, edits_routed: u64, slots_repaired: u64) {
        let s = &self.shards[shard];
        bump!(s.edits_routed, edits_routed);
        bump!(s.slots_repaired, slots_repaired);
    }

    pub(crate) fn note_exchange(&self, rounds: u64, boundary_msgs: u64) {
        bump!(self.exchange_rounds, rounds);
        bump!(self.boundary_msgs, boundary_msgs);
    }

    pub(crate) fn note_envelope_hops(&self, hops: u64) {
        bump!(self.envelope_hops, hops);
    }

    /// Fold one worker's per-flush mesh accounting into the histograms.
    pub(crate) fn note_mesh(&self, depths: &[u64], barrier_wait: Duration) {
        for &d in depths {
            self.mailbox_depth.record_value(d);
        }
        self.barrier_wait.record(barrier_wait);
    }

    /// One worker command's active-processing and barrier-park time, the
    /// park split into its arrive (waiting for stragglers) and depart
    /// (release-to-resume wakeup latency) phases. The `barrier_wait_ns`
    /// total stays their sum so attribution coverage is unchanged.
    pub(crate) fn note_shard_cmd(
        &self,
        shard: usize,
        work: Duration,
        barrier_arrive: Duration,
        barrier_depart: Duration,
    ) {
        let ns = |d: Duration| d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let s = &self.shards[shard];
        bump!(s.work_ns, ns(work));
        bump!(s.barrier_wait_ns, ns(barrier_arrive) + ns(barrier_depart));
        bump!(s.barrier_arrive_ns, ns(barrier_arrive));
        bump!(s.barrier_depart_ns, ns(barrier_depart));
    }

    /// Time one worker spent blocked on its command sub-queue.
    pub(crate) fn note_shard_mailbox_wait(&self, shard: usize, wait: Duration) {
        bump!(
            self.shards[shard].mailbox_wait_ns,
            wait.as_nanos().min(u128::from(u64::MAX)) as u64
        );
    }

    /// Total wall time of a worker's command loop, set once at shutdown.
    pub(crate) fn set_shard_wall(&self, shard: usize, wall: Duration) {
        self.shards[shard].wall_ns.store(
            wall.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    pub(crate) fn set_trace_dropped(&self, dropped: u64) {
        self.trace_dropped_records.store(dropped, Ordering::Relaxed);
    }

    pub(crate) fn set_mem_gauges(&self, live_bytes: u64, capacity_bytes: u64, vertices: u64) {
        self.mem_live_bytes.store(live_bytes, Ordering::Relaxed);
        self.mem_capacity_bytes
            .store(capacity_bytes, Ordering::Relaxed);
        self.mem_vertices.store(vertices, Ordering::Relaxed);
    }

    pub(crate) fn set_boundary_gauges(&self, cut_edges: u64, boundary_vertices: u64) {
        self.cut_edges.store(cut_edges, Ordering::Relaxed);
        self.boundary_vertices
            .store(boundary_vertices, Ordering::Relaxed);
    }

    pub(crate) fn note_repartition(&self, moved: u64) {
        bump!(self.repartitions);
        bump!(self.vertices_migrated, moved);
    }

    /// Hubs nominated for this publish's repartition (0 most windows).
    pub(crate) fn note_hub_pulls(&self, pulls: u64) {
        bump!(self.hub_pulls, pulls);
    }

    /// Cascade deliveries deferred by degree-capped damping in one flush.
    pub(crate) fn note_damped_deferrals(&self, deferred: u64) {
        bump!(self.damped_deferrals, deferred);
    }

    /// Gauge: the hub-detector's max net degree delta for the window
    /// ending at this publish.
    pub(crate) fn set_max_degree_delta(&self, delta: u64) {
        self.max_degree_delta.store(delta, Ordering::Relaxed);
    }

    pub(crate) fn note_flush(&self, applied: u64, rejected: u64, eta: u64, took: Duration) {
        bump!(self.batches_flushed);
        bump!(self.edits_applied, applied);
        bump!(self.edits_rejected, rejected);
        bump!(self.slots_repaired, eta);
        self.flushes.record(took);
    }

    pub(crate) fn note_snapshot(&self, took: Duration) {
        self.snapshots.record(took);
    }

    pub(crate) fn note_counters(&self, net_deltas: u64, took: Duration) {
        bump!(self.slot_deltas_net, net_deltas);
        self.counters.record(took);
    }

    pub(crate) fn note_barrier(&self) {
        bump!(self.barriers);
    }

    /// One non-empty flush's dirty region: `dirty` distinct value-changed
    /// vertices out of `span` vertices present at flush time.
    pub(crate) fn note_dirty_region(&self, dirty: u64, span: u64) {
        bump!(self.dirty_vertices, dirty);
        bump!(self.dirty_span, span);
    }

    /// Record one externally-scored publish window (roster vs tracked
    /// ground-truth cover). Called by bench/CLI harnesses, not by the
    /// serve loop itself.
    pub fn note_quality_window(&self, window: QualityWindow) {
        self.quality_windows
            .lock()
            .expect("quality window lock poisoned")
            .push(window);
    }

    /// Point-in-time report.
    pub fn report(&self) -> StatsReport {
        let snapshots = self.snapshots.summarize();
        StatsReport {
            queries: self.queries.summarize(),
            flushes: self.flushes.summarize(),
            counters: self.counters.summarize(),
            snapshots_published: snapshots.count,
            snapshots,
            edits_enqueued: self.edits_enqueued.load(Ordering::Relaxed),
            edits_applied: self.edits_applied.load(Ordering::Relaxed),
            edits_rejected: self.edits_rejected.load(Ordering::Relaxed),
            batches_flushed: self.batches_flushed.load(Ordering::Relaxed),
            slots_repaired: self.slots_repaired.load(Ordering::Relaxed),
            slot_deltas_net: self.slot_deltas_net.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            exchange_rounds: self.exchange_rounds.load(Ordering::Relaxed),
            boundary_msgs: self.boundary_msgs.load(Ordering::Relaxed),
            boundary_hists_shipped: 0,
            collect_bytes: 0,
            publish_failures: 0,
            envelope_hops: self.envelope_hops.load(Ordering::Relaxed),
            mailbox_depth: self.mailbox_depth.summarize(),
            barrier_wait: self.barrier_wait.summarize(),
            cut_edges: self.cut_edges.load(Ordering::Relaxed),
            boundary_vertices: self.boundary_vertices.load(Ordering::Relaxed),
            repartitions: self.repartitions.load(Ordering::Relaxed),
            vertices_migrated: self.vertices_migrated.load(Ordering::Relaxed),
            hub_pulls: self.hub_pulls.load(Ordering::Relaxed),
            damped_deferrals: self.damped_deferrals.load(Ordering::Relaxed),
            max_degree_delta: self.max_degree_delta.load(Ordering::Relaxed),
            mem_live_bytes: self.mem_live_bytes.load(Ordering::Relaxed),
            mem_capacity_bytes: self.mem_capacity_bytes.load(Ordering::Relaxed),
            mem_vertices: self.mem_vertices.load(Ordering::Relaxed),
            trace_dropped_records: self.trace_dropped_records.load(Ordering::Relaxed),
            dirty_vertices: self.dirty_vertices.load(Ordering::Relaxed),
            dirty_span: self.dirty_span.load(Ordering::Relaxed),
            quality_per_window: self
                .quality_windows
                .lock()
                .expect("quality window lock poisoned")
                .clone(),
            saturated_samples: [
                &self.queries,
                &self.flushes,
                &self.snapshots,
                &self.counters,
                &self.mailbox_depth,
                &self.barrier_wait,
            ]
            .iter()
            .map(|h| h.saturated_samples())
            .sum(),
            shards: self
                .shards
                .iter()
                .map(|s| ShardCounts {
                    edits_routed: s.edits_routed.load(Ordering::Relaxed),
                    slots_repaired: s.slots_repaired.load(Ordering::Relaxed),
                    work_ns: s.work_ns.load(Ordering::Relaxed),
                    mailbox_wait_ns: s.mailbox_wait_ns.load(Ordering::Relaxed),
                    barrier_wait_ns: s.barrier_wait_ns.load(Ordering::Relaxed),
                    barrier_arrive_ns: s.barrier_arrive_ns.load(Ordering::Relaxed),
                    barrier_depart_ns: s.barrier_depart_ns.load(Ordering::Relaxed),
                    wall_ns: s.wall_ns.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// Plain point-in-time view of [`ServeStats`].
#[derive(Clone, Debug, Default)]
pub struct StatsReport {
    /// Query latency summary.
    pub queries: LatencySummary,
    /// Flush latency summary (repair only; see `snapshots` for detect).
    pub flushes: LatencySummary,
    /// Per-flush edge-weight counter maintenance latency summary.
    pub counters: LatencySummary,
    /// Snapshot publish latency summary (counter-read weight pass +
    /// thresholding + build + swap).
    pub snapshots: LatencySummary,
    /// Snapshots published (== `snapshots.count`, kept for readability).
    pub snapshots_published: u64,
    /// See [`ServeStats::edits_enqueued`].
    pub edits_enqueued: u64,
    /// See [`ServeStats::edits_applied`].
    pub edits_applied: u64,
    /// See [`ServeStats::edits_rejected`].
    pub edits_rejected: u64,
    /// See [`ServeStats::batches_flushed`].
    pub batches_flushed: u64,
    /// See [`ServeStats::slots_repaired`].
    pub slots_repaired: u64,
    /// See [`ServeStats::slot_deltas_net`].
    pub slot_deltas_net: u64,
    /// See [`ServeStats::barriers`].
    pub barriers: u64,
    /// See [`ServeStats::exchange_rounds`].
    pub exchange_rounds: u64,
    /// See [`ServeStats::boundary_msgs`].
    pub boundary_msgs: u64,
    /// Always 0: publish ships no boundary histogram. Kept, like
    /// `collect_bytes` and `publish_failures`, only because `servebench`
    /// still reads it; not in the JSON.
    pub boundary_hists_shipped: u64,
    /// Always 0: publish collects nothing from the workers.
    pub collect_bytes: u64,
    /// Always 0: publish no longer talks to the workers, so it cannot
    /// fail; a dead worker surfaces at the next flush or repartition.
    pub publish_failures: u64,
    /// See [`ServeStats::envelope_hops`].
    pub envelope_hops: u64,
    /// Mesh inbox depth distribution (raw counts, not nanoseconds).
    pub mailbox_depth: LatencySummary,
    /// Mesh round-barrier wait distribution.
    pub barrier_wait: LatencySummary,
    /// See [`ServeStats::cut_edges`].
    pub cut_edges: u64,
    /// See [`ServeStats::boundary_vertices`].
    pub boundary_vertices: u64,
    /// See [`ServeStats::repartitions`].
    pub repartitions: u64,
    /// See [`ServeStats::vertices_migrated`].
    pub vertices_migrated: u64,
    /// See [`ServeStats::hub_pulls`].
    pub hub_pulls: u64,
    /// See [`ServeStats::damped_deferrals`].
    pub damped_deferrals: u64,
    /// See [`ServeStats::max_degree_delta`].
    pub max_degree_delta: u64,
    /// See [`ServeStats::mem_live_bytes`].
    pub mem_live_bytes: u64,
    /// See [`ServeStats::mem_capacity_bytes`].
    pub mem_capacity_bytes: u64,
    /// See [`ServeStats::mem_vertices`].
    pub mem_vertices: u64,
    /// See [`ServeStats::trace_dropped_records`].
    pub trace_dropped_records: u64,
    /// See [`ServeStats::dirty_vertices`].
    pub dirty_vertices: u64,
    /// See [`ServeStats::dirty_span`].
    pub dirty_span: u64,
    /// Externally-scored publish windows, in recording order (empty
    /// unless a quality harness scored the run).
    pub quality_per_window: Vec<QualityWindow>,
    /// Histogram samples (summed over every histogram in the report) that
    /// clamped into the top bucket instead of landing in a real one.
    pub saturated_samples: u64,
    /// Per-shard routed-edit, repair, and work/wait attribution counts.
    pub shards: Vec<ShardCounts>,
}

impl StatsReport {
    /// Coordinator-resident reserved bytes per vertex at the last publish
    /// (0.0 before the first publish).
    pub fn bytes_per_vertex(&self) -> f64 {
        if self.mem_vertices == 0 {
            0.0
        } else {
            self.mem_capacity_bytes as f64 / self.mem_vertices as f64
        }
    }

    /// Mean per-flush dirty fraction: distinct value-changed vertices
    /// over the vertex span of all non-empty flushes (0.0 before the
    /// first flush). This is the incrementality signal — a fraction
    /// approaching 1.0 means repair is touching the whole graph and a
    /// full recompute would cost the same.
    pub fn dirty_fraction(&self) -> f64 {
        if self.dirty_span == 0 {
            0.0
        } else {
            self.dirty_vertices as f64 / self.dirty_span as f64
        }
    }

    /// Render as a JSON object fragment (no external deps; all fields are
    /// numbers, so no escaping is needed). The shape is versioned via
    /// `schema_version`; version 2 added the `attribution_per_shard`
    /// block, `trace_dropped_records`, and `saturated_samples`; version 3
    /// split the per-shard barrier wait into `barrier_arrive_us` /
    /// `barrier_depart_us` (their sum is `barrier_wait_us`) and added the
    /// publish-collect counters `boundary_hists_shipped`,
    /// `boundary_hists_total`, `boundary_dirty_marked`, `collect_bytes`,
    /// and `publish_failures`; version 4 added the dirty-region counters
    /// `dirty_vertices` / `dirty_span` / `dirty_fraction` and the
    /// `quality_per_window` array of externally-scored publish windows;
    /// version 5 added the hub-aware repartition counters `hub_pulls` /
    /// `repartition_vertices_moved` (an alias of `vertices_migrated`),
    /// the damping counter `damped_deferrals`, and the per-window degree
    /// gauge `max_degree_delta`; version 6 removed the channel-hop
    /// counter, and `envelope_hops` now counts the envelopes the mesh
    /// ports sent (one hop each, so it equals `boundary_msgs`); version 7
    /// removed the publish-collect counters (`boundary_hists_shipped`,
    /// `boundary_hists_total`, `boundary_dirty_marked`, `collect_bytes`,
    /// `publish_failures`) and the per-shard upkeep (`upkeep_per_shard`,
    /// `attribution_per_shard.upkeep_us`), since counter upkeep now runs
    /// on the maintenance thread at every shard count (the `counter_*`
    /// fields).
    pub fn to_json(&self) -> String {
        let quality = self
            .quality_per_window
            .iter()
            .map(|q| {
                format!(
                    "{{\"epoch\":{},\"onmi\":{:.6},\"f1\":{:.6},\"omega\":{:.6}}}",
                    q.epoch, q.onmi, q.f1, q.omega
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let join = |f: fn(&ShardCounts) -> u64| -> String {
            self.shards
                .iter()
                .map(|s| f(s).to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        // Nanosecond counters exported as microseconds, one decimal.
        let join_us = |f: fn(&ShardCounts) -> u64| -> String {
            self.shards
                .iter()
                .map(|s| format!("{:.1}", f(s) as f64 / 1e3))
                .collect::<Vec<_>>()
                .join(",")
        };
        let coverage = self
            .shards
            .iter()
            .map(|s| format!("{:.3}", s.attribution_coverage()))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema_version\":7,\
             \"edits_enqueued\":{},\"edits_applied\":{},\"edits_rejected\":{},\
             \"batches_flushed\":{},\"snapshots_published\":{},\"slots_repaired\":{},\
             \"slot_deltas_net\":{},\"barriers\":{},\
             \"shards\":{},\"shard_edits_routed\":[{}],\"shard_slots_repaired\":[{}],\
             \"attribution_per_shard\":{{\"work_us\":[{}],\"barrier_wait_us\":[{}],\
             \"barrier_arrive_us\":[{}],\"barrier_depart_us\":[{}],\
             \"mailbox_wait_us\":[{}],\"wall_us\":[{}],\"coverage\":[{}]}},\
             \"trace_dropped_records\":{},\"saturated_samples\":{},\
             \"exchange_rounds\":{},\"boundary_msgs\":{},\
             \"dirty_vertices\":{},\"dirty_span\":{},\"dirty_fraction\":{:.6},\
             \"quality_per_window\":[{}],\
             \"envelope_hops\":{},\
             \"mailbox_depth\":{{\"count\":{},\"p50\":{},\"p99\":{},\"max\":{}}},\
             \"barrier_wait_us\":{{\"count\":{},\"mean\":{:.3},\"p50\":{:.3},\"p99\":{:.3}}},\
             \"cut_edges\":{},\"boundary_vertices\":{},\
             \"repartitions\":{},\"vertices_migrated\":{},\
             \"repartition_vertices_moved\":{},\"hub_pulls\":{},\
             \"damped_deferrals\":{},\"max_degree_delta\":{},\
             \"mem_live_bytes\":{},\"mem_capacity_bytes\":{},\
             \"mem_vertices\":{},\"bytes_per_vertex\":{:.2},\
             \"query_count\":{},\"query_mean_ns\":{},\"query_p50_ns\":{},\
             \"query_p90_ns\":{},\"query_p99_ns\":{},\"query_max_ns\":{},\
             \"flush_count\":{},\"flush_mean_ns\":{},\"flush_p50_ns\":{},\
             \"flush_p99_ns\":{},\"counter_mean_ns\":{},\"counter_p50_ns\":{},\
             \"counter_p99_ns\":{},\"snapshot_mean_ns\":{},\"snapshot_p50_ns\":{},\
             \"snapshot_p99_ns\":{}}}",
            self.edits_enqueued,
            self.edits_applied,
            self.edits_rejected,
            self.batches_flushed,
            self.snapshots_published,
            self.slots_repaired,
            self.slot_deltas_net,
            self.barriers,
            self.shards.len(),
            join(|s| s.edits_routed),
            join(|s| s.slots_repaired),
            join_us(|s| s.work_ns),
            join_us(|s| s.barrier_wait_ns),
            join_us(|s| s.barrier_arrive_ns),
            join_us(|s| s.barrier_depart_ns),
            join_us(|s| s.mailbox_wait_ns),
            join_us(|s| s.wall_ns),
            coverage,
            self.trace_dropped_records,
            self.saturated_samples,
            self.exchange_rounds,
            self.boundary_msgs,
            self.dirty_vertices,
            self.dirty_span,
            self.dirty_fraction(),
            quality,
            self.envelope_hops,
            self.mailbox_depth.count,
            self.mailbox_depth.p50_ns,
            self.mailbox_depth.p99_ns,
            self.mailbox_depth.max_ns,
            self.barrier_wait.count,
            self.barrier_wait.mean_ns as f64 / 1e3,
            self.barrier_wait.p50_ns as f64 / 1e3,
            self.barrier_wait.p99_ns as f64 / 1e3,
            self.cut_edges,
            self.boundary_vertices,
            self.repartitions,
            self.vertices_migrated,
            self.vertices_migrated,
            self.hub_pulls,
            self.damped_deferrals,
            self.max_degree_delta,
            self.mem_live_bytes,
            self.mem_capacity_bytes,
            self.mem_vertices,
            self.bytes_per_vertex(),
            self.queries.count,
            self.queries.mean_ns,
            self.queries.p50_ns,
            self.queries.p90_ns,
            self.queries.p99_ns,
            self.queries.max_ns,
            self.flushes.count,
            self.flushes.mean_ns,
            self.flushes.p50_ns,
            self.flushes.p99_ns,
            self.counters.mean_ns,
            self.counters.p50_ns,
            self.counters.p99_ns,
            self.snapshots.mean_ns,
            self.snapshots.p50_ns,
            self.snapshots.p99_ns,
        )
    }
}

impl std::fmt::Display for StatsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "edits: {} applied, {} rejected of {} enqueued in {} flushes",
            self.edits_applied, self.edits_rejected, self.edits_enqueued, self.batches_flushed
        )?;
        writeln!(
            f,
            "snapshots: {} published, {} barriers, {} slots repaired ({} net counter deltas)",
            self.snapshots_published, self.barriers, self.slots_repaired, self.slot_deltas_net
        )?;
        if self.shards.len() > 1 {
            writeln!(
                f,
                "shards: {} ({} exchange rounds, {} boundary msgs, {} cut edges, {} boundary vertices, {} migrated over {} repartitions)",
                self.shards.len(),
                self.exchange_rounds,
                self.boundary_msgs,
                self.cut_edges,
                self.boundary_vertices,
                self.vertices_migrated,
                self.repartitions,
            )?;
            writeln!(
                f,
                "coordination: {} envelope hops; mailbox depth p50/p99 {}/{}; barrier wait p99 {:.1}us",
                self.envelope_hops,
                self.mailbox_depth.p50_ns,
                self.mailbox_depth.p99_ns,
                self.barrier_wait.p99_ns as f64 / 1e3,
            )?;
            for (i, s) in self.shards.iter().enumerate() {
                writeln!(
                    f,
                    "  shard {i}: {} edits routed, {} slots repaired",
                    s.edits_routed, s.slots_repaired,
                )?;
                if s.wall_ns > 0 {
                    writeln!(
                        f,
                        "    attribution: work {:.2}ms, barrier {:.2}ms \
                         (arrive {:.2} / depart {:.2}), mailbox {:.2}ms \
                         of {:.2}ms wall ({:.1}% accounted)",
                        s.work_ns as f64 / 1e6,
                        s.barrier_wait_ns as f64 / 1e6,
                        s.barrier_arrive_ns as f64 / 1e6,
                        s.barrier_depart_ns as f64 / 1e6,
                        s.mailbox_wait_ns as f64 / 1e6,
                        s.wall_ns as f64 / 1e6,
                        s.attribution_coverage() * 100.0,
                    )?;
                }
            }
        }
        if self.mem_vertices > 0 {
            writeln!(
                f,
                "memory: {:.1} MiB live / {:.1} MiB reserved over {} vertices ({:.1} bytes/vertex)",
                self.mem_live_bytes as f64 / (1024.0 * 1024.0),
                self.mem_capacity_bytes as f64 / (1024.0 * 1024.0),
                self.mem_vertices,
                self.bytes_per_vertex(),
            )?;
        }
        writeln!(f, "queries: {}", self.queries)?;
        writeln!(f, "flushes: {}", self.flushes)?;
        writeln!(f, "counter upkeep: {}", self.counters)?;
        write!(f, "publishes: {}", self.snapshots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.summarize(), LatencySummary::default());
    }

    #[test]
    fn percentiles_are_bucket_geometric_means() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_nanos(100)); // bucket 7 = [64, 128)
        }
        h.record(Duration::from_micros(100)); // ~1e5 ns
        let s = h.summarize();
        assert_eq!(s.count, 100);
        // √(64 · 128) = √8192 ≈ 90.51 → 91, not the 127 upper bound.
        assert_eq!(s.p50_ns, 91);
        assert_eq!(s.p99_ns, 91);
        assert!(s.max_ns >= 100_000);
        assert!(s.mean_ns > 100 && s.mean_ns < 2_000);
    }

    #[test]
    fn bucket_representatives_are_pinned() {
        // Bucket 0 holds only zero samples; bucket i spans [2^(i-1), 2^i).
        assert_eq!(bucket_representative(0), 0);
        assert_eq!(bucket_representative(1), 1); // √(1·2) ≈ 1.41 → 1
        assert_eq!(bucket_representative(7), 91); // √(64·128) ≈ 90.51
        assert_eq!(bucket_representative(11), 1448); // √(1024·2048)
                                                     // 2 µs sample lands in bucket 11 → 1448 ns, within √2 of truth.
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(2_000));
        assert_eq!(h.summarize().p50_ns, 1448);
        // The old upper-bound rule for bucket 21 reported 2²¹−1 exactly;
        // the geometric mean is √(2²⁰·2²¹) = 2^20.5.
        assert_eq!(bucket_representative(21), 1_482_910);
    }

    #[test]
    fn per_shard_counters_roll_up_into_the_report() {
        let stats = ServeStats::with_shards(3);
        stats.note_shard_flush(0, 5, 40);
        stats.note_shard_flush(2, 7, 11);
        stats.note_shard_flush(2, 1, 2);
        stats.note_exchange(4, 9);
        stats.set_boundary_gauges(17, 6);
        let r = stats.report();
        assert_eq!(r.shards.len(), 3);
        assert_eq!(r.shards[0].edits_routed, 5);
        assert_eq!(r.shards[1], ShardCounts::default());
        assert_eq!(r.shards[2].slots_repaired, 13);
        assert_eq!((r.exchange_rounds, r.boundary_msgs), (4, 9));
        assert_eq!((r.cut_edges, r.boundary_vertices), (17, 6));
        let json = r.to_json();
        assert!(json.contains("\"shards\":3"));
        assert!(json.contains("\"shard_edits_routed\":[5,0,8]"));
        assert!(json.contains("\"shard_slots_repaired\":[40,0,13]"));
        assert!(json.contains("\"boundary_msgs\":9"));
    }

    #[test]
    fn zero_duration_lands_in_bucket_zero() {
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        let s = h.summarize();
        assert_eq!(s.p50_ns, 0);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn report_json_is_wellformed_enough() {
        let stats = ServeStats::default();
        stats.note_enqueued();
        stats.note_flush(1, 0, 5, Duration::from_micros(3));
        let json = stats.report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"edits_applied\":1"));
        assert!(json.contains("\"slots_repaired\":5"));
    }

    #[test]
    fn two_intervals_sum_to_the_cumulative_counts() {
        let h = LatencyHistogram::new();
        let t0 = h.snapshot();
        for i in 0..100u64 {
            h.record(Duration::from_nanos(50 + i));
        }
        let t1 = h.snapshot();
        for _ in 0..40 {
            h.record(Duration::from_micros(10));
        }
        let t2 = h.snapshot();

        let w1 = t1.delta_since(&t0);
        let w2 = t2.delta_since(&t1);
        assert_eq!(w1.count(), 100);
        assert_eq!(w2.count(), 40);
        assert_eq!(w1.count() + w2.count(), t2.count());
        // Bucket-wise, the two windows reassemble the cumulative snapshot.
        assert_eq!(
            w2.delta_since(&HistogramSnapshot::default()).count() + w1.count(),
            h.count()
        );
        // The windows have distinct percentile profiles: window 1 is all
        // ~100ns samples, window 2 all ~10µs samples; cumulative p50 sits
        // in window 1's range.
        let s1 = w1.summarize();
        let s2 = w2.summarize();
        assert!(s1.p50_ns < 200, "window 1 p50 = {}", s1.p50_ns);
        assert!(s2.p50_ns > 5_000, "window 2 p50 = {}", s2.p50_ns);
        assert_eq!(s2.p50_ns, s2.max_ns, "interval max is bucket-resolved");
        let cum = t2.summarize();
        assert_eq!(cum.count, 140);
        assert!(cum.p50_ns < 200);
    }

    #[test]
    fn empty_interval_summarizes_to_zeros() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100));
        let snap = h.snapshot();
        let w = snap.delta_since(&snap);
        assert_eq!(w.count(), 0);
        assert_eq!(w.summarize(), LatencySummary::default());
    }

    #[test]
    fn top_bucket_clamps_are_counted_as_saturated() {
        let h = LatencyHistogram::new();
        h.record_value(100);
        assert_eq!(h.saturated_samples(), 0);
        // Values ≥ 2^63 overflow the last real bucket and clamp.
        h.record_value(u64::MAX);
        h.record_value(1u64 << 63);
        assert_eq!(h.saturated_samples(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.snapshot().saturated_samples(), 2);

        let stats = ServeStats::default();
        stats.queries.record_value(u64::MAX);
        stats.flushes.record_value(u64::MAX);
        let r = stats.report();
        assert_eq!(r.saturated_samples, 2);
        assert!(r.to_json().contains("\"saturated_samples\":2"));
    }

    #[test]
    fn attribution_rolls_into_json_and_coverage() {
        let stats = ServeStats::with_shards(2);
        stats.note_shard_cmd(
            0,
            Duration::from_micros(600),
            Duration::from_micros(100),
            Duration::from_micros(50),
        );
        stats.note_shard_mailbox_wait(0, Duration::from_micros(200));
        stats.set_shard_wall(0, Duration::from_micros(1_000));
        let r = stats.report();
        let s0 = &r.shards[0];
        assert_eq!(s0.work_ns, 600_000);
        assert_eq!(s0.barrier_wait_ns, 150_000);
        assert_eq!(s0.barrier_arrive_ns, 100_000);
        assert_eq!(s0.barrier_depart_ns, 50_000);
        assert_eq!(s0.mailbox_wait_ns, 200_000);
        assert_eq!(s0.wall_ns, 1_000_000);
        assert!((s0.attribution_coverage() - 0.95).abs() < 1e-9);
        assert_eq!(r.shards[1].attribution_coverage(), 0.0);
        let json = r.to_json();
        assert!(json.starts_with("{\"schema_version\":7,"));
        assert!(json.contains("\"attribution_per_shard\":{\"work_us\":[600.0,0.0]"));
        assert!(json.contains("\"barrier_wait_us\":[150.0,0.0]"));
        assert!(json.contains("\"barrier_arrive_us\":[100.0,0.0]"));
        assert!(json.contains("\"barrier_depart_us\":[50.0,0.0]"));
        assert!(json.contains("\"mailbox_wait_us\":[200.0,0.0]"));
        assert!(json.contains("\"wall_us\":[1000.0,0.0]"));
        assert!(json.contains("\"coverage\":[0.950,0.000]"));
        assert!(json.contains("\"trace_dropped_records\":0"));
    }

    #[test]
    fn hub_and_damping_counters_roll_into_json() {
        let stats = ServeStats::with_shards(2);
        stats.note_hub_pulls(3);
        stats.note_damped_deferrals(40);
        stats.note_damped_deferrals(2);
        stats.set_max_degree_delta(97);
        stats.set_max_degree_delta(12); // gauge: last write wins
        stats.note_repartition(7);
        let r = stats.report();
        assert_eq!(r.hub_pulls, 3);
        assert_eq!(r.damped_deferrals, 42);
        assert_eq!(r.max_degree_delta, 12);
        let json = r.to_json();
        assert!(json.contains("\"hub_pulls\":3"));
        assert!(json.contains("\"damped_deferrals\":42"));
        assert!(json.contains("\"max_degree_delta\":12"));
        // repartition_vertices_moved aliases vertices_migrated.
        assert!(json.contains("\"vertices_migrated\":7"));
        assert!(json.contains("\"repartition_vertices_moved\":7"));
    }

    #[test]
    fn empty_histogram_percentiles_are_zero_not_bucket_bounds() {
        // A window that records no samples at all — e.g. a query-less
        // barrier window under a delete-heavy adversarial scenario —
        // must summarize to zeros, never to a bucket representative or
        // the saturated top-bucket bound.
        let h = LatencyHistogram::new();
        let s = h.summarize();
        assert_eq!(s, LatencySummary::default());
        assert_eq!((s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns), (0, 0, 0, 0));

        // Same guarantee through the full report path: untouched query
        // and snapshot histograms on an otherwise-active service.
        let stats = ServeStats::default();
        stats.note_flush(4, 0, 9, Duration::from_micros(2));
        let r = stats.report();
        assert_eq!(r.queries, LatencySummary::default());
        assert_eq!(r.snapshots, LatencySummary::default());
        assert_eq!(r.flushes.count, 1);
        let json = r.to_json();
        assert!(json.contains("\"query_count\":0"));
        assert!(json.contains("\"query_p99_ns\":0"));
        assert!(json.contains("\"query_max_ns\":0"));
    }

    #[test]
    fn dirty_region_counters_roll_into_json() {
        let stats = ServeStats::default();
        stats.note_dirty_region(25, 1_000);
        stats.note_dirty_region(75, 1_000);
        let r = stats.report();
        assert_eq!(r.dirty_vertices, 100);
        assert_eq!(r.dirty_span, 2_000);
        assert!((r.dirty_fraction() - 0.05).abs() < 1e-12);
        let json = r.to_json();
        assert!(json.contains("\"dirty_vertices\":100"));
        assert!(json.contains("\"dirty_span\":2000"));
        assert!(json.contains("\"dirty_fraction\":0.050000"));
        // No flush yet → fraction is defined as 0, not NaN.
        assert_eq!(ServeStats::default().report().dirty_fraction(), 0.0);
    }

    #[test]
    fn quality_windows_roll_into_json_in_order() {
        let stats = ServeStats::default();
        stats.note_quality_window(QualityWindow {
            epoch: 1,
            onmi: 0.97,
            f1: 0.99,
            omega: 0.9,
        });
        stats.note_quality_window(QualityWindow {
            epoch: 2,
            onmi: 0.5,
            f1: 0.625,
            omega: 0.25,
        });
        let r = stats.report();
        assert_eq!(r.quality_per_window.len(), 2);
        assert_eq!(r.quality_per_window[0].epoch, 1);
        let json = r.to_json();
        assert!(json.contains(
            "\"quality_per_window\":[\
             {\"epoch\":1,\"onmi\":0.970000,\"f1\":0.990000,\"omega\":0.900000},\
             {\"epoch\":2,\"onmi\":0.500000,\"f1\":0.625000,\"omega\":0.250000}]"
        ));
        // An unscored run emits an empty array, keeping the shape stable.
        assert!(ServeStats::default()
            .report()
            .to_json()
            .contains("\"quality_per_window\":[]"));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(Duration::from_nanos(i));
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.summarize().count, 4000);
    }
}
