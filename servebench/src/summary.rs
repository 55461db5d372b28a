//! Per-trial numbers, computed in the trial process from its raw samples:
//! the end-to-end metrics, the state to check against the oracle, the
//! work counters, and (for a traced trial) the per-layer split.

use std::collections::BTreeMap;

use rslpa_graph::Cover;
use rslpa_serve::trace::names;
use rslpa_serve::StatsReport;

use crate::drive::{Block, Kind, Trial};
use crate::record::{fnv1a, Record};
use crate::stats::{median, nearest_rank};
use crate::trace;

/// Digest of a cover's communities, member by member.
pub fn cover_digest(cover: &Cover) -> u64 {
    fnv1a(
        cover
            .communities()
            .iter()
            .flat_map(|c| c.iter().chain(&[u32::MAX]).map(|&m| u64::from(m))),
    )
}

/// The service's work counters. The script fixes every flush boundary,
/// so the work is deterministic and these repeat exactly across trials
/// and runs of one seed, except [`SCHEDULE_DEPENDENT`] on the mesh.
pub fn work_counters(r: &StatsReport) -> Vec<(String, u64)> {
    let mut c: Vec<(String, u64)> = [
        ("edits_applied", r.edits_applied),
        ("edits_rejected", r.edits_rejected),
        ("batches_flushed", r.batches_flushed),
        ("snapshots_published", r.snapshots_published),
        ("slots_repaired", r.slots_repaired),
        ("slot_deltas_net", r.slot_deltas_net),
        ("dirty_vertices", r.dirty_vertices),
        ("dirty_span", r.dirty_span),
        ("damped_deferrals", r.damped_deferrals),
        ("exchange_rounds", r.exchange_rounds),
        ("boundary_msgs", r.boundary_msgs),
        ("boundary_hists_shipped", r.boundary_hists_shipped),
        ("collect_bytes", r.collect_bytes),
        ("repartitions", r.repartitions),
        ("vertices_migrated", r.vertices_migrated),
        ("hub_pulls", r.hub_pulls),
        ("mem_capacity_bytes", r.mem_capacity_bytes),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    if r.shards.len() > 1 {
        for (i, s) in r.shards.iter().enumerate() {
            c.push((format!("shard{i}_slots_repaired"), s.slots_repaired));
        }
    }
    c
}

/// Counters of the multi-shard mesh that differ by a few parts in ten
/// thousand between trials of one script, although the final roster and
/// weights do not: how the exchange splits into rounds depends on thread
/// timing, and these count per round. They are reported with their
/// range over the trials instead of being compared exactly.
pub const SCHEDULE_DEPENDENT: [&str; 4] = [
    "exchange_rounds",
    "boundary_msgs",
    "damped_deferrals",
    "dirty_vertices",
];

fn block_means(t: &Trial, kind: Option<Kind>) -> Vec<f64> {
    t.blocks_in_flight()
        .filter(|b| b.kind == kind)
        .map(Block::mean_us)
        .collect()
}

/// Everything the run process needs from one trial.
pub fn summarize(t: &Trial, shards: usize, expected_samples: usize) -> Record {
    let mut r = Record::default();
    let queries = block_means(t, None);
    r.num("e2e.setup_s", t.setup_s);
    r.num(
        "e2e.ingest_eps",
        t.report.edits_applied as f64 / t.write_s().max(1e-9),
    );
    // Raw, so the run can pool every trial's edits into one percentile.
    let visible: Vec<String> = t
        .visible_ns
        .iter()
        .map(|v| (v / 1000).to_string())
        .collect();
    r.text("samples.visible_us", visible.join(" "));
    r.num(
        "e2e.query_p50_us",
        nearest_rank(&queries, 50.0).unwrap_or(0.0),
    );
    r.num(
        "e2e.query_p90_us",
        nearest_rank(&queries, 90.0).unwrap_or(0.0),
    );
    r.num("e2e.peak_rss_mb", t.peak_rss_mb);

    r.text(
        "check.cover_digest",
        format!("{:016x}", cover_digest(&t.cover)),
    );
    r.text(
        "check.weights_fingerprint",
        format!("{:016x}", t.weights_fingerprint),
    );
    r.num("check.client_ops", t.client_ops as f64);
    r.num("check.closed_errors", t.closed_errors as f64);
    r.num("check.publish_failures", t.report.publish_failures as f64);
    r.num(
        "check.snapshots_published",
        t.report.snapshots_published as f64,
    );
    r.num("check.visible_samples", t.visible_ns.len() as f64);
    r.num("check.expected_samples", expected_samples as f64);
    r.num("check.visibility_events", t.visibility_events as f64);
    r.num("check.query_blocks", t.blocks_in_flight().count() as f64);
    for (k, v) in work_counters(&t.report) {
        r.num(format!("count.{k}"), v as f64);
    }
    let late: Vec<f64> = t.send_late_ns.iter().map(|&v| v as f64 / 1e3).collect();
    r.num("late.p99_us", nearest_rank(&late, 99.0).unwrap_or(0.0));
    r.num("late.max_us", nearest_rank(&late, 100.0).unwrap_or(0.0));
    if t.dump.is_some() {
        layer_metrics(t, shards, &mut r);
    }
    r
}

/// The per-layer split of a traced trial, under `layer.` keys, plus the
/// `dominant` report line.
fn layer_metrics(t: &Trial, shards: usize, out: &mut Record) {
    let dump = t.dump.as_ref().expect("traced trial carries its dump");
    let st = trace::self_times(&dump.records);
    let ms = |ns: u64| ns as f64 / 1e6;
    let lane0 = |name: u16| ms(st.get(&(0, name)).copied().unwrap_or(0));
    let workers = |name: u16| {
        ms(st
            .iter()
            .filter(|(&(lane, n), _)| lane > 0 && n == name)
            .map(|(_, &v)| v)
            .sum())
    };
    // Worker busy time per lane: everything but waiting.
    let mut busy: BTreeMap<u16, u64> = BTreeMap::new();
    for (&(lane, name), &v) in &st {
        if lane > 0 && trace::is_worker_work(name) {
            *busy.entry(lane).or_default() += v;
        }
    }
    let skew = match busy.values().max() {
        Some(&max) => max as f64 * busy.len() as f64 / busy.values().sum::<u64>().max(1) as f64,
        None => 0.0,
    };
    let r = &t.report;
    let (from, to) = t.write_window_trace_ns;
    let top_level = [names::QUEUE_DRAIN, names::FLUSH, names::PUBLISH];
    let layers = [
        // Repair.
        ("incremental.repair_ms", lane0(names::REPAIR)),
        (
            "edge_counters.upkeep_ms",
            lane0(names::COUNTER_UPKEEP) + workers(names::UPKEEP),
        ),
        ("incremental.slots_repaired", r.slots_repaired as f64),
        ("incremental.dirty_fraction", r.dirty_fraction()),
        ("edge_counters.deltas_net", r.slot_deltas_net as f64),
        // Publish.
        ("postprocess.weights_ms", lane0(names::PUBLISH_WEIGHTS)),
        ("snapshot.roster_ms", lane0(names::PUBLISH_ROSTER)),
        ("publish.self_ms", lane0(names::PUBLISH)),
        ("snapshot.publishes", r.snapshots_published as f64),
        // Mesh.
        ("shard.flush_ms", workers(names::SHARD_FLUSH)),
        (
            "shard.exchange_ms",
            workers(names::EXCHANGE) + workers(names::EXCHANGE_ROUND),
        ),
        ("barrier.arrive_ms", workers(names::BARRIER_ARRIVE)),
        ("barrier.depart_ms", workers(names::BARRIER_DEPART)),
        ("shard.collect_ms", workers(names::COLLECT)),
        ("shard.migrate_ms", workers(names::MIGRATE)),
        ("shard.idle_ms", workers(names::MAILBOX_WAIT)),
        ("shard.skew", skew),
        ("shards.collect_ms", lane0(names::PUBLISH_COLLECT)),
        ("shards.migrate_ms", lane0(names::PUBLISH_MIGRATE)),
        ("shard.rounds", r.exchange_rounds as f64),
        ("shard.envelopes", r.boundary_msgs as f64),
        ("shards.hists_shipped", r.boundary_hists_shipped as f64),
        ("shards.collect_bytes", r.collect_bytes as f64),
        ("shards.vertices_migrated", r.vertices_migrated as f64),
        ("hubs.pulls", r.hub_pulls as f64),
        ("incremental.damped_deferrals", r.damped_deferrals as f64),
        // Ingest.
        (
            "client.submit_us",
            median(&t.submit_ns).unwrap_or(0.0) / 1e3,
        ),
        ("maintain.resolve_ms", lane0(names::RESOLVE)),
        ("maintain.flushes", r.batches_flushed as f64),
        ("maintain.edits_rejected", r.edits_rejected as f64),
        ("queue.idle_ms", lane0(names::QUEUE_DRAIN)),
        (
            "maintain.coverage",
            trace::coverage(&dump.records, 0, &top_level, from, to),
        ),
        // Read.
        (
            "query.membership_us",
            median(&block_means(t, Some(Kind::Membership))).unwrap_or(0.0),
        ),
        (
            "query.overlap_us",
            median(&block_means(t, Some(Kind::Overlap))).unwrap_or(0.0),
        ),
        (
            "query.roster_us",
            median(&block_means(t, Some(Kind::Roster))).unwrap_or(0.0),
        ),
        // Storage.
        ("mem.bytes_per_vertex", r.bytes_per_vertex()),
        // The recorder itself.
        ("trace.records", dump.records.len() as f64),
        (
            "trace.lost_records",
            (dump.dropped + dump.torn_reads) as f64,
        ),
    ];
    for (name, value) in layers {
        out.num(format!("layer.{name}"), value);
    }
    out.text("dominant", dominant_layer(&st, &busy, shards));
}

/// Name the layer with the largest share of the maintenance thread's busy
/// time, its top spans, and (with workers) the busiest worker's top spans.
fn dominant_layer(
    st: &BTreeMap<(u16, u16), u64>,
    busy: &BTreeMap<u16, u64>,
    shards: usize,
) -> String {
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    let mut spans: Vec<(u64, u16)> = Vec::new();
    for (&(lane, name), &v) in st {
        if lane == 0 && name != names::QUEUE_DRAIN {
            *layers
                .entry(trace::maintenance_layer(name, shards))
                .or_default() += v;
            spans.push((v, name));
        }
    }
    let share = |v: u64, of: u64| 100.0 * v as f64 / of.max(1) as f64;
    let top = |spans: &mut Vec<(u64, u16)>, of: u64, k: usize| {
        spans.sort_unstable_by(|a, b| b.cmp(a));
        spans
            .iter()
            .take(k)
            .map(|&(v, name)| format!("{} {:.1}%", names::name_of(name), share(v, of)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let busy0: u64 = layers.values().sum();
    let Some((layer, &v)) = layers.iter().max_by_key(|(_, &v)| v) else {
        return "no maintenance spans recorded".into();
    };
    let mut line = format!(
        "{layer} ({:.1}% of maintenance busy time; top spans: {})",
        share(v, busy0),
        top(&mut spans, busy0, 3)
    );
    if let Some((&lane, &lane_busy)) = busy.iter().max_by_key(|(_, &v)| v) {
        let mut worker: Vec<(u64, u16)> = st
            .iter()
            .filter(|(&(l, n), _)| l == lane && trace::is_worker_work(n))
            .map(|(&(_, n), &v)| (v, n))
            .collect();
        line += &format!(
            "; busiest worker shard-{} ({:.1} ms busy: {})",
            lane - 1,
            lane_busy as f64 / 1e6,
            top(&mut worker, lane_busy, 2)
        );
    }
    line
}
