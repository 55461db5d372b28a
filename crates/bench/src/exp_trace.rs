//! Flight-recorder driver (`repro trace`): the mixed serve workload at
//! 4 shards with the recorder attached.
//!
//! Produces two artifacts: a Chrome trace-event JSON (load it in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) — one
//! "process" per lane: the maintenance thread plus one per shard worker)
//! and a `BENCH_serve.json` with the run's throughput numbers plus a
//! `trace` block summarizing the recording. The driver also re-runs the
//! identical workload with the recorder off, so the reported overhead is
//! measured, not assumed.
//!
//! The per-shard wall-time attribution (work / barrier / mailbox-wait)
//! comes from the always-on [`ServeStats`] counters, not from the
//! trace — it is asserted to cover ≥ 90% of each worker's wall time, which
//! is the acceptance bar for "we can see where every microsecond goes".
//!
//! [`ServeStats`]: rslpa_serve::ServeStats

use rslpa_serve::trace::{names, Dump, RecordKind};
use rslpa_serve::TraceOptions;

use crate::exp_serve::{run_workload_traced, to_json_with_extra, ServeWorkload};
use crate::report::Table;

/// Shard count of the traced workload — matches the `serve-p2p` cell so
/// the attribution numbers answer the sharded-exchange questions.
const SHARDS: usize = 4;

/// Lane labels for the Chrome export: lane 0 is the maintenance thread,
/// lanes `1..=shards` the shard workers.
pub fn lane_labels(shards: usize) -> Vec<String> {
    let mut labels = vec!["maintenance".to_string()];
    labels.extend((0..shards).map(|s| format!("shard-{s}")));
    labels
}

/// Render a [`Dump`] with the standard lane labels: Chrome trace-event
/// JSON by default, one-record-per-line JSONL when `path` ends in
/// `.jsonl`.
pub fn render_trace(dump: &Dump, shards: usize, path: &str) -> String {
    if path.ends_with(".jsonl") {
        dump.jsonl()
    } else {
        let labels = lane_labels(shards);
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        dump.chrome_json(&refs)
    }
}

/// Fraction of the maintenance lane's wall time covered by its top-level
/// spans (queue drain, flush, publish). Nested spans (resolve, repair,
/// publish sub-phases) are excluded so overlap never double-counts.
fn maintain_busy_frac(dump: &Dump) -> f64 {
    let top_level = [names::QUEUE_DRAIN, names::FLUSH, names::PUBLISH];
    let lane0: Vec<_> = dump
        .records
        .iter()
        .filter(|r| r.lane == 0 && r.kind == RecordKind::Span)
        .collect();
    let Some(first) = lane0.iter().map(|r| r.start_ns).min() else {
        return 0.0;
    };
    let last = lane0
        .iter()
        .map(|r| r.start_ns + r.dur_ns)
        .max()
        .unwrap_or(first);
    let busy: u64 = lane0
        .iter()
        .filter(|r| top_level.contains(&r.name))
        .map(|r| r.dur_ns)
        .sum();
    busy as f64 / (last - first).max(1) as f64
}

/// Run the traced workload, write the trace to `trace_out`, and fold the
/// throughput + recording summary into `out_path`.
pub fn trace(smoke: bool, out_path: &str, trace_out: &str) {
    let w = ServeWorkload {
        mode: "trace",
        ..if smoke {
            ServeWorkload::smoke_sharded(SHARDS)
        } else {
            ServeWorkload::full_sharded(SHARDS)
        }
    };
    eprintln!(
        "[trace{}] {} edits at {} shards, flight recorder on",
        if smoke { ":smoke" } else { "" },
        w.total_edits,
        w.shards,
    );
    let (r, dump) = run_workload_traced(&w, Some(TraceOptions::default()));
    let dump = dump.expect("tracing was enabled");
    // Control run: identical workload, recorder fully disabled. The delta
    // is the measured cost of tracing; the roster must not move.
    let (base, _) = run_workload_traced(&w, None);
    assert_eq!(
        r.final_cover, base.final_cover,
        "attaching the flight recorder changed the final roster"
    );

    // Per-name span census over the whole dump.
    let mut count = vec![0u64; names::NAMES.len()];
    let mut total_ns = vec![0u64; names::NAMES.len()];
    for rec in &dump.records {
        if rec.kind == RecordKind::Span {
            if let Some(slot) = count.get_mut(rec.name as usize) {
                *slot += 1;
                total_ns[rec.name as usize] += rec.dur_ns;
            }
        }
    }

    let busy_frac = maintain_busy_frac(&dump);
    let overhead = 1.0 - r.edits_per_sec / base.edits_per_sec.max(1e-9);

    let mut t = Table::new(
        format!("traced serve workload ({} shards)", w.shards),
        &["metric", "value"],
    );
    t.row(vec![
        "edits/sec (recorder on)".into(),
        format!("{:.0}", r.edits_per_sec),
    ]);
    t.row(vec![
        "edits/sec (recorder off)".into(),
        format!("{:.0}", base.edits_per_sec),
    ]);
    t.row(vec![
        "tracing overhead".into(),
        format!("{:.1}%", overhead * 100.0),
    ]);
    t.row(vec![
        "records captured".into(),
        dump.records.len().to_string(),
    ]);
    t.row(vec!["records dropped".into(), dump.dropped.to_string()]);
    t.row(vec!["torn reads".into(), dump.torn_reads.to_string()]);
    t.row(vec![
        "maintain-lane busy".into(),
        format!("{:.1}%", busy_frac * 100.0),
    ]);
    t.print();

    let mut t = Table::new(
        "per-shard wall-time attribution".to_string(),
        &[
            "shard",
            "work (ms)",
            "barrier (ms)",
            "mailbox (ms)",
            "wall (ms)",
            "coverage",
        ],
    );
    let mut min_coverage = f64::INFINITY;
    for (i, s) in r.stats.shards.iter().enumerate() {
        let coverage = s.attribution_coverage();
        min_coverage = min_coverage.min(coverage);
        t.row(vec![
            i.to_string(),
            format!("{:.2}", s.work_ns as f64 / 1e6),
            format!("{:.2}", s.barrier_wait_ns as f64 / 1e6),
            format!("{:.2}", s.mailbox_wait_ns as f64 / 1e6),
            format!("{:.2}", s.wall_ns as f64 / 1e6),
            format!("{:.1}%", coverage * 100.0),
        ]);
    }
    t.print();
    assert!(
        min_coverage >= 0.9,
        "attribution covers only {:.1}% of some worker's wall time \
         (acceptance bar: 90%)",
        min_coverage * 100.0
    );

    std::fs::write(trace_out, render_trace(&dump, w.shards, trace_out)).expect("write trace file");
    eprintln!("[trace] wrote {trace_out} ({} records)", dump.records.len());

    let spans = names::NAMES
        .iter()
        .enumerate()
        .filter(|&(i, _)| count[i] > 0)
        .map(|(i, name)| {
            format!(
                "\"{name}\": {{\"count\": {}, \"total_us\": {:.1}}}",
                count[i],
                total_ns[i] as f64 / 1e3
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let extra = format!(
        ",\n  \"trace\": {{\n    \"trace_file\": \"{trace_out}\",\n    \
         \"records\": {},\n    \"dropped_records\": {},\n    \
         \"torn_reads\": {},\n    \"maintain_busy_frac\": {busy_frac:.4},\n    \
         \"min_shard_coverage\": {min_coverage:.4},\n    \
         \"edits_per_sec_untraced\": {:.1},\n    \
         \"tracing_overhead_frac\": {overhead:.4},\n    \"spans\": {{{spans}}}\n  }}",
        dump.records.len(),
        dump.dropped,
        dump.torn_reads,
        base.edits_per_sec,
    );
    let json = to_json_with_extra(&w, &r, &extra);
    std::fs::write(out_path, &json).expect("write BENCH_serve.json");
    eprintln!("[trace] wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rslpa_gen::edits::EditWorkload;

    use crate::exp_serve::Topology;

    fn micro(shards: usize) -> ServeWorkload {
        ServeWorkload {
            mode: "micro",
            topology: Topology::Lfr,
            graph_n: 200,
            iterations: 15,
            total_edits: 300,
            round_edits: 100,
            queries_per_edit: 1,
            query_threads: 1,
            flush_size: 64,
            snapshot_every: 2,
            shards,
            churn: EditWorkload::Uniform,
            seed: 7,
        }
    }

    #[test]
    fn micro_traced_run_covers_every_lane() {
        let w = micro(2);
        let (r, dump) = run_workload_traced(&w, Some(TraceOptions::default()));
        let dump = dump.expect("tracing on");
        assert!(dump.torn_reads == 0, "single-writer lanes cannot tear");
        for lane in 0..=2u16 {
            assert!(
                dump.records.iter().any(|rec| rec.lane == lane),
                "no records on lane {lane}"
            );
        }
        // The maintain path and the shard path both show up by name.
        for name in [names::FLUSH, names::PUBLISH, names::SHARD_FLUSH] {
            assert!(
                dump.records.iter().any(|rec| rec.name == name),
                "no {} spans recorded",
                names::name_of(name)
            );
        }
        assert!(maintain_busy_frac(&dump) > 0.0);
        // Attribution accounts for (nearly) all of each worker's wall
        // time; the 0.8 floor leaves slack for scheduler noise in CI.
        assert_eq!(r.stats.shards.len(), 2);
        for s in &r.stats.shards {
            assert!(
                s.attribution_coverage() > 0.8,
                "attribution coverage {:.3} too low: {s:?}",
                s.attribution_coverage()
            );
        }
        let chrome = render_trace(&dump, 2, "t.json");
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("process_name"));
        assert!(chrome.contains("\"maintenance\""));
        assert!(chrome.contains("\"shard-1\""));
        let jsonl = render_trace(&dump, 2, "t.jsonl");
        assert_eq!(jsonl.lines().count(), dump.records.len());
    }

    #[test]
    fn untraced_run_records_nothing() {
        let (r, dump) = run_workload_traced(&micro(1), None);
        assert!(dump.is_none());
        assert_eq!(r.stats.trace_dropped_records, 0);
    }
}
