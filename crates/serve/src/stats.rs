//! Per-operation latency/throughput accounting for the serve loop.
//!
//! Latencies (and mesh inbox depths) record into log₂-bucketed histograms
//! of atomic counters, so recording from many reader threads is wait-free
//! and a percentile read never stops the world. Percentiles are resolved
//! to the *geometric mean* of the containing bucket's bounds — the
//! unbiased representative of a log₂ bucket (the upper bound would
//! overstate latencies by up to 2×).
//!
//! Every counter and gauge is declared once, as a field of
//! [`StatsReport`], and lives in one such record behind one lock. Writers
//! compute their values first and take the lock only to add them in, and
//! [`ServeStats::report`] clones the record, so a report is one
//! point-in-time read. The one exception is `edits_enqueued`: the
//! ingestion queue counts accepted edits under the lock it takes anyway,
//! and the service copies that count into each report it hands out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
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

/// `d` in whole nanoseconds, saturating at `u64::MAX` (≈ 584 years).
pub(crate) fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
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
        self.record_value(nanos(elapsed));
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

/// One shard's counters (sharded maintenance only; a single-writer
/// service has exactly one entry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounts {
    /// Per-vertex edit deltas routed to this shard.
    pub edits_routed: u64,
    /// Label slots this shard repaired (Σ per-shard η).
    pub slots_repaired: u64,
    /// Wall nanoseconds this shard's worker spent actively processing
    /// commands (flush waves, exchange stepping, migration), *excluding*
    /// barrier parks.
    pub work_ns: u64,
    /// Wall nanoseconds the worker spent blocked on its command sub-queue
    /// waiting for the coordinator (the "mailbox wait").
    pub mailbox_wait_ns: u64,
    /// Wall nanoseconds the worker spent parked at mesh round barriers.
    pub barrier_wait_ns: u64,
    /// Of `barrier_wait_ns`, the arrive phase: parked until the round's
    /// last participant arrived (straggler / load-imbalance cost).
    pub barrier_arrive_ns: u64,
    /// Of `barrier_wait_ns`, the depart phase: between the leader's
    /// release and this worker resuming (wakeup/scheduling latency —
    /// dominates when workers outnumber cores).
    pub barrier_depart_ns: u64,
    /// Gauge: total wall nanoseconds of the worker's command loop, set
    /// once at shutdown. `work + mailbox_wait + barrier_wait` should
    /// account for ≥ 90% of it — the rest is loop bookkeeping.
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

/// Shared stats for one service instance: wait-free latency histograms,
/// plus one [`StatsReport`] record under a lock that holds every counter
/// and gauge.
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
    /// Inbox depth per delivering mesh round (envelopes one shard read
    /// from its mailbox cells in one round; empty under the single
    /// writer).
    pub mailbox_depth: LatencyHistogram,
    /// Wall time workers spent parked on the mesh round barrier: one
    /// sample per shard per flush, since every shard joins every flush's
    /// exchange (empty under the single writer).
    pub barrier_wait: LatencyHistogram,
    /// Every counter and gauge. The histogram summaries,
    /// `snapshots_published` and `saturated_samples` stay at their
    /// defaults here; [`report`](Self::report) fills them in.
    record: Mutex<StatsReport>,
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

impl ServeStats {
    /// Stats for a service with `shards` maintenance shards (≥ 1).
    pub fn with_shards(shards: usize) -> Self {
        Self {
            queries: LatencyHistogram::new(),
            flushes: LatencyHistogram::new(),
            snapshots: LatencyHistogram::new(),
            counters: LatencyHistogram::new(),
            mailbox_depth: LatencyHistogram::new(),
            barrier_wait: LatencyHistogram::new(),
            record: Mutex::new(StatsReport {
                shards: vec![ShardCounts::default(); shards.max(1)],
                ..StatsReport::default()
            }),
        }
    }

    /// Add to the counter record under its lock. Callers compute their
    /// values before the call, so the lock covers only the additions.
    pub(crate) fn update(&self, f: impl FnOnce(&mut StatsReport)) {
        f(&mut self.record());
    }

    /// The record stays readable after a panicking update: it holds plain
    /// integers, each addition whole, so no update can leave it invalid.
    fn record(&self) -> MutexGuard<'_, StatsReport> {
        self.record.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one externally-scored publish window (roster vs tracked
    /// ground-truth cover). Called by bench/CLI harnesses, not by the
    /// serve loop itself.
    pub fn note_quality_window(&self, window: QualityWindow) {
        self.update(|r| r.quality_per_window.push(window));
    }

    /// Point-in-time report: the counter record, read under its lock,
    /// plus the histogram summaries.
    pub fn report(&self) -> StatsReport {
        let histograms = [
            &self.queries,
            &self.flushes,
            &self.snapshots,
            &self.counters,
            &self.mailbox_depth,
            &self.barrier_wait,
        ];
        let snapshots = self.snapshots.summarize();
        StatsReport {
            queries: self.queries.summarize(),
            flushes: self.flushes.summarize(),
            counters: self.counters.summarize(),
            snapshots_published: snapshots.count,
            snapshots,
            mailbox_depth: self.mailbox_depth.summarize(),
            barrier_wait: self.barrier_wait.summarize(),
            saturated_samples: histograms.iter().map(|h| h.saturated_samples()).sum(),
            ..self.record().clone()
        }
    }
}

/// Plain point-in-time view of [`ServeStats`]. Its counters and gauges
/// are declared here and nowhere else: the service keeps them in one
/// record of this type.
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
    /// Edit operations accepted into the queue. The queue counts them
    /// under its own lock; [`ServeStats::report`] leaves this field as
    /// the record holds it, and `CommunityService::stats` and
    /// `CommunityService::shutdown` fill it in.
    pub edits_enqueued: u64,
    /// Edit operations applied to the graph.
    pub edits_applied: u64,
    /// Edit operations dropped as no-ops (inserting a present edge,
    /// deleting an absent one, self-loops).
    pub edits_rejected: u64,
    /// Micro-batches flushed into the maintenance engine.
    pub batches_flushed: u64,
    /// Label slots repaired across all flushes (Σ η).
    pub slots_repaired: u64,
    /// Net slot deltas folded into the edge-weight counters (after
    /// intra-flush compaction; ≤ `slots_repaired`).
    pub slot_deltas_net: u64,
    /// Barriers honored.
    pub barriers: u64,
    /// Mesh boundary-exchange rounds (0 under a single writer).
    pub exchange_rounds: u64,
    /// Envelopes that crossed a shard boundary.
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
    /// Boundary envelopes the mesh ports wrote into their peers' mailbox
    /// cells, one hop each. Tallied port-side, independently of the
    /// route-side `boundary_msgs`, so equality of the two cross-checks
    /// delivery.
    pub envelope_hops: u64,
    /// Mesh inbox depth distribution (raw counts, not nanoseconds).
    pub mailbox_depth: LatencySummary,
    /// Mesh round-barrier wait distribution.
    pub barrier_wait: LatencySummary,
    /// Gauge: edges whose endpoints live on different shards.
    pub cut_edges: u64,
    /// Gauge: vertices with at least one off-shard neighbor.
    pub boundary_vertices: u64,
    /// Publish-time repartitions performed.
    pub repartitions: u64,
    /// Vertex rows migrated between shards by repartitions.
    pub vertices_migrated: u64,
    /// Forming hubs pulled (with their spoke frontiers) onto single
    /// shards by hub-aware repartitions.
    pub hub_pulls: u64,
    /// Cascade re-sprays deferred at over-cap vertices by degree-capped
    /// damping (0 with damping off).
    pub damped_deferrals: u64,
    /// Gauge: largest net per-vertex degree gain observed in the window
    /// ending at the last publish (the hub-detector's input signal).
    pub max_degree_delta: u64,
    /// Gauge: coordinator-resident live bytes (graph + label rows +
    /// counters, per the engine's ownership split) at the last publish.
    pub mem_live_bytes: u64,
    /// Gauge: coordinator-resident reserved bytes at the last publish.
    pub mem_capacity_bytes: u64,
    /// Gauge: vertex count the memory gauges were sampled at.
    pub mem_vertices: u64,
    /// Gauge: flight-recorder records lost to ring overwrite (refreshed at
    /// each publish while tracing is enabled; 0 when tracing is off).
    pub trace_dropped_records: u64,
    /// Distinct vertices whose stored labels changed, summed over all
    /// non-empty flushes (the dirty-region numerator).
    pub dirty_vertices: u64,
    /// Σ over the same flushes of the vertex count at flush time (the
    /// dirty-region denominator; `dirty_vertices / dirty_span` is the
    /// mean per-flush dirty fraction).
    pub dirty_span: u64,
    /// Externally-scored publish windows, in recording order (empty
    /// unless a quality harness scored the run).
    pub quality_per_window: Vec<QualityWindow>,
    /// Histogram samples (summed over every histogram in the report) that
    /// clamped into the top bucket instead of landing in a real one.
    pub saturated_samples: u64,
    /// Per-shard routed-edit, repair, and work/wait attribution counts
    /// (length = shard count).
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
        for (shard, routed, repaired) in [(0, 5, 40), (2, 7, 11), (2, 1, 2)] {
            stats.update(|r| {
                r.shards[shard].edits_routed += routed;
                r.shards[shard].slots_repaired += repaired;
            });
        }
        stats.update(|r| {
            r.exchange_rounds += 4;
            r.boundary_msgs += 9;
        });
        let r = stats.report();
        assert_eq!(r.shards.len(), 3);
        assert_eq!(r.shards[1], ShardCounts::default());
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
        stats.flushes.record(Duration::from_micros(3));
        stats.update(|r| {
            r.edits_enqueued += 1;
            r.batches_flushed += 1;
            r.edits_applied += 1;
            r.slots_repaired += 5;
        });
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
        stats.update(|r| {
            r.shards[0] = ShardCounts {
                work_ns: 600_000,
                barrier_wait_ns: 150_000,
                barrier_arrive_ns: 100_000,
                barrier_depart_ns: 50_000,
                mailbox_wait_ns: 200_000,
                wall_ns: 1_000_000,
                ..ShardCounts::default()
            }
        });
        let r = stats.report();
        assert!((r.shards[0].attribution_coverage() - 0.95).abs() < 1e-9);
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
        stats.update(|r| {
            r.hub_pulls += 3;
            r.damped_deferrals += 42;
            r.max_degree_delta = 12;
            r.repartitions += 1;
            r.vertices_migrated += 7;
        });
        let json = stats.report().to_json();
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
        stats.flushes.record(Duration::from_micros(2));
        stats.update(|r| {
            r.batches_flushed += 1;
            r.edits_applied += 4;
            r.slots_repaired += 9;
        });
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
        for dirty in [25, 75] {
            stats.update(|r| {
                r.dirty_vertices += dirty;
                r.dirty_span += 1_000;
            });
        }
        let r = stats.report();
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

    /// Every counter, gauge and histogram the report carries, driven to a
    /// distinct nonzero value and pinned byte for byte in both renderings.
    #[test]
    fn report_json_and_display_are_pinned() {
        let us = Duration::from_micros;
        let stats = ServeStats::with_shards(2);
        stats.queries.record(Duration::from_nanos(700));
        stats.queries.record(us(3));
        stats.flushes.record(us(250));
        stats.flushes.record(us(400));
        stats.counters.record(us(40));
        for ms in [2, 5, 1] {
            stats.snapshots.record(Duration::from_millis(ms));
        }
        for depth in [3, 12, u64::MAX] {
            stats.mailbox_depth.record_value(depth);
        }
        stats.barrier_wait.record(us(80));
        stats.barrier_wait.record(us(120));
        stats.update(|r| {
            r.edits_enqueued = 321;
            (r.edits_applied, r.edits_rejected, r.batches_flushed) = (300, 21, 2);
            (r.slots_repaired, r.slot_deltas_net, r.barriers) = (4_200, 3_900, 4);
            r.shards[0] = ShardCounts {
                edits_routed: 190,
                slots_repaired: 2_600,
                work_ns: 600_000,
                mailbox_wait_ns: 200_000,
                barrier_wait_ns: 150_000,
                barrier_arrive_ns: 100_000,
                barrier_depart_ns: 50_000,
                wall_ns: 1_000_000,
            };
            (r.shards[1].edits_routed, r.shards[1].slots_repaired) = (110, 1_600);
            (r.exchange_rounds, r.boundary_msgs, r.envelope_hops) = (6, 450, 451);
            r.trace_dropped_records = 9;
            (r.dirty_vertices, r.dirty_span) = (75, 1_000);
            (r.cut_edges, r.boundary_vertices) = (17, 5);
            (r.repartitions, r.vertices_migrated, r.hub_pulls) = (5, 40, 13);
            (r.damped_deferrals, r.max_degree_delta) = (42, 97);
            (r.mem_live_bytes, r.mem_capacity_bytes, r.mem_vertices) = (1 << 20, 2 << 20, 1_024);
        });
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
        assert_eq!(
            r.to_json(),
            "{\"schema_version\":7,\"edits_enqueued\":321,\"edits_applied\":300,\
            \"edits_rejected\":21,\"batches_flushed\":2,\"snapshots_published\":3,\
            \"slots_repaired\":4200,\"slot_deltas_net\":3900,\"barriers\":4,\
            \"shards\":2,\"shard_edits_routed\":[190,110],\
            \"shard_slots_repaired\":[2600,1600],\
            \"attribution_per_shard\":{\"work_us\":[600.0,0.0],\
            \"barrier_wait_us\":[150.0,0.0],\"barrier_arrive_us\":[100.0,0.0],\
            \"barrier_depart_us\":[50.0,0.0],\"mailbox_wait_us\":[200.0,0.0],\
            \"wall_us\":[1000.0,0.0],\"coverage\":[0.950,0.000]},\
            \"trace_dropped_records\":9,\"saturated_samples\":1,\
            \"exchange_rounds\":6,\"boundary_msgs\":450,\"dirty_vertices\":75,\
            \"dirty_span\":1000,\"dirty_fraction\":0.075000,\
            \"quality_per_window\":[{\"epoch\":1,\"onmi\":0.970000,\
            \"f1\":0.990000,\"omega\":0.900000},{\"epoch\":2,\"onmi\":0.500000,\
            \"f1\":0.625000,\"omega\":0.250000}],\"envelope_hops\":451,\
            \"mailbox_depth\":{\"count\":3,\"p50\":11,\"p99\":6521908912666391552,\
            \"max\":18446744073709551615},\"barrier_wait_us\":{\"count\":2,\
            \"mean\":100.000,\"p50\":92.682,\"p99\":92.682},\"cut_edges\":17,\
            \"boundary_vertices\":5,\"repartitions\":5,\"vertices_migrated\":40,\
            \"repartition_vertices_moved\":40,\"hub_pulls\":13,\
            \"damped_deferrals\":42,\"max_degree_delta\":97,\
            \"mem_live_bytes\":1048576,\"mem_capacity_bytes\":2097152,\
            \"mem_vertices\":1024,\"bytes_per_vertex\":2048.00,\"query_count\":2,\
            \"query_mean_ns\":1850,\"query_p50_ns\":724,\"query_p90_ns\":2896,\
            \"query_p99_ns\":2896,\"query_max_ns\":3000,\"flush_count\":2,\
            \"flush_mean_ns\":325000,\"flush_p50_ns\":185364,\
            \"flush_p99_ns\":370728,\"counter_mean_ns\":40000,\
            \"counter_p50_ns\":46341,\"counter_p99_ns\":46341,\
            \"snapshot_mean_ns\":2666666,\"snapshot_p50_ns\":1482910,\
            \"snapshot_p99_ns\":5931642}"
        );
        assert_eq!(
            format!("{r}"),
            "edits: 300 applied, 21 rejected of 321 enqueued in 2 flushes\n\
            snapshots: 3 published, 4 barriers, 4200 slots repaired (3900 net counter deltas)\n\
            shards: 2 (6 exchange rounds, 450 boundary msgs, 17 cut edges, 5 boundary vertices, 40 migrated over 5 repartitions)\n\
            coordination: 451 envelope hops; mailbox depth p50/p99 11/6521908912666391552; barrier wait p99 92.7us\n  \
            shard 0: 190 edits routed, 2600 slots repaired\n    \
            attribution: work 0.60ms, barrier 0.15ms (arrive 0.10 / depart 0.05), mailbox 0.20ms of 1.00ms wall (95.0% accounted)\n  \
            shard 1: 110 edits routed, 1600 slots repaired\n\
            memory: 1.0 MiB live / 2.0 MiB reserved over 1024 vertices (2048.0 bytes/vertex)\n\
            queries: n=2 mean=1.9us p50=0.7us p99=2.9us max=3.0us\n\
            flushes: n=2 mean=325.0us p50=185.4us p99=370.7us max=400.0us\n\
            counter upkeep: n=1 mean=40.0us p50=46.3us p99=46.3us max=40.0us\n\
            publishes: n=3 mean=2666.7us p50=1482.9us p99=5931.6us max=5000.0us"
        );
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        let stats = ServeStats::default();
        let writers_done = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        stats.update(|r| r.edits_enqueued += 1);
                    }
                    writers_done.fetch_add(1, Ordering::Release);
                });
            }
            s.spawn(|| {
                let mut last = 0;
                loop {
                    // Read the flag first, so the last report comes after
                    // every writer finished.
                    let finished = writers_done.load(Ordering::Acquire) == 4;
                    let now = stats.report().edits_enqueued;
                    assert!(now >= last, "report went back from {last} to {now}");
                    last = now;
                    if finished {
                        break;
                    }
                }
            });
        });
        assert_eq!(stats.report().edits_enqueued, 40_000);
    }
}
