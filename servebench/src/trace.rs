//! Reading the flight recorder: span self times, maintenance-lane
//! coverage, and the layer each span belongs to.

use std::collections::BTreeMap;

use rslpa_serve::trace::{names, Record, RecordKind};

/// Self time in nanoseconds per `(lane, span name)`: each span's duration
/// minus the part of it that its direct children cover. Spans on one lane
/// nest (they are RAII guards on one thread), so a stack walk in start
/// order finds every span's parent.
pub fn self_times(records: &[Record]) -> BTreeMap<(u16, u16), u64> {
    let mut lanes: BTreeMap<u16, Vec<&Record>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.kind == RecordKind::Span) {
        lanes.entry(r.lane).or_default().push(r);
    }
    let mut out = BTreeMap::new();
    for (lane, mut spans) in lanes {
        // Parents first: earlier start, and on a tie the longer span.
        spans.sort_by_key(|r| (r.start_ns, std::cmp::Reverse(r.dur_ns)));
        // Open spans: (end, name, self time so far).
        let mut open: Vec<(u64, u16, u64)> = Vec::new();
        let mut close = |(_, name, own): (u64, u16, u64)| {
            *out.entry((lane, name)).or_insert(0) += own;
        };
        for r in spans {
            let end = r.start_ns + r.dur_ns;
            while open.last().is_some_and(|&(e, _, _)| e <= r.start_ns) {
                close(open.pop().expect("checked non-empty"));
            }
            if let Some(parent) = open.last_mut() {
                let covered = end.min(parent.0).saturating_sub(r.start_ns);
                parent.2 = parent.2.saturating_sub(covered);
            }
            open.push((end, r.name, r.dur_ns));
        }
        while let Some(s) = open.pop() {
            close(s);
        }
    }
    out
}

/// Share of `[from, to)` covered by the union of `lane`'s spans named in
/// `top_level`.
pub fn coverage(records: &[Record], lane: u16, top_level: &[u16], from: u64, to: u64) -> f64 {
    let mut spans: Vec<(u64, u64)> = records
        .iter()
        .filter(|r| r.lane == lane && r.kind == RecordKind::Span && top_level.contains(&r.name))
        .map(|r| (r.start_ns.max(from), (r.start_ns + r.dur_ns).min(to)))
        .filter(|&(s, e)| s < e)
        .collect();
    spans.sort_unstable();
    let (mut covered, mut reach) = (0u64, from);
    for (s, e) in spans {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered as f64 / to.saturating_sub(from).max(1) as f64
}

/// The layer a maintenance-lane span's self time is charged to. With more
/// than one shard, the coordinator's repair and publish-collect/migrate
/// spans are waits on the worker mesh.
pub fn maintenance_layer(name: u16, shards: usize) -> &'static str {
    match name {
        names::QUEUE_DRAIN => "idle",
        names::RESOLVE | names::FLUSH => "ingest",
        names::REPAIR if shards > 1 => "mesh",
        names::REPAIR | names::COUNTER_UPKEEP => "repair",
        names::PUBLISH_COLLECT | names::PUBLISH_MIGRATE if shards > 1 => "mesh",
        _ => "publish",
    }
}

/// Whether a worker-lane span is work (as opposed to waiting for the
/// coordinator or for peers at the round barrier).
pub fn is_worker_work(name: u16) -> bool {
    !matches!(
        name,
        names::MAILBOX_WAIT | names::BARRIER_WAIT | names::BARRIER_ARRIVE | names::BARRIER_DEPART
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lane: u16, name: u16, start_ns: u64, dur_ns: u64) -> Record {
        Record {
            lane,
            name,
            kind: RecordKind::Span,
            seq: 0,
            start_ns,
            dur_ns,
            aux: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let records = [
            // flush [0, 100) > resolve [10, 20), repair [20, 80) > upkeep-like child [30, 50)
            span(0, names::FLUSH, 0, 100),
            span(0, names::RESOLVE, 10, 10),
            span(0, names::REPAIR, 20, 60),
            span(0, names::COUNTER_UPKEEP, 30, 20),
            // a sibling after the flush, and a span on another lane at the same time
            span(0, names::PUBLISH, 100, 40),
            span(1, names::SHARD_FLUSH, 0, 100),
        ];
        let st = self_times(&records);
        assert_eq!(st[&(0, names::FLUSH)], 100 - 10 - 60);
        assert_eq!(st[&(0, names::RESOLVE)], 10);
        assert_eq!(st[&(0, names::REPAIR)], 60 - 20);
        assert_eq!(st[&(0, names::COUNTER_UPKEEP)], 20);
        assert_eq!(st[&(0, names::PUBLISH)], 40);
        assert_eq!(st[&(1, names::SHARD_FLUSH)], 100);
        // Self times partition the lane's busy interval exactly.
        let lane0: u64 = st.iter().filter(|(k, _)| k.0 == 0).map(|(_, v)| v).sum();
        assert_eq!(lane0, 140);
    }

    #[test]
    fn self_time_sums_repeated_spans_and_handles_equal_starts() {
        let records = [
            span(0, names::PUBLISH, 0, 50),
            span(0, names::PUBLISH_WEIGHTS, 0, 30), // starts with its parent
            span(0, names::PUBLISH, 60, 10),
        ];
        let st = self_times(&records);
        assert_eq!(st[&(0, names::PUBLISH)], 20 + 10);
        assert_eq!(st[&(0, names::PUBLISH_WEIGHTS)], 30);
    }

    #[test]
    fn coverage_is_the_union_clipped_to_the_window() {
        let records = [
            span(0, names::QUEUE_DRAIN, 0, 30),
            span(0, names::FLUSH, 30, 40),
            span(0, names::REPAIR, 35, 10), // nested: must not count twice
            span(0, names::PUBLISH, 80, 40),
            span(1, names::SHARD_FLUSH, 70, 10), // other lane
        ];
        let top = [names::QUEUE_DRAIN, names::FLUSH, names::PUBLISH];
        let c = coverage(&records, 0, &top, 10, 110);
        assert!((c - 0.9).abs() < 1e-12, "{c}"); // gap [70, 80) uncovered
    }
}
