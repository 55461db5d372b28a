//! # servebench — what an `rslpa-serve` client sees, split by layer
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload uniform_batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run generates a workload's seed graph and whole edit script from
//! `--seed`, replays the script through the centralized `RslpaDetector`
//! (the oracle), and then repeats *trials* for `--seconds`. Each trial is
//! a process of its own (this binary with `--trial`): it regenerates the
//! same inputs, starts a fresh `CommunityService`, drives the script
//! through the public API with one writer thread and one reader thread,
//! shuts the service down, and prints its numbers and final state. The
//! run checks every trial's final roster and `weights_fingerprint`
//! against the oracle and its work counters against the first trial's,
//! and reports the median over trials of each metric. Every metric is
//! printed by name with its unit; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! * `--trace 0` reports the end-to-end metrics from untraced trials.
//! * `--trace 1` alternates traced and untraced trials and reports the
//!   per-layer split: span self times from the flight recorder, the
//!   service's work counters, and the client's own timers.
//!
//! Seeds: 1 is the default seed, 7919 the held-out seed for checking a
//! claim on inputs it was not tuned on.
//!
//! The workloads (see `workload.rs` for their exact shapes):
//!
//! * `uniform_batch` — closed loop, 1000-edit §V-B1 batches on LFR
//!   n=20k, one shard: repair and counter upkeep dominate.
//! * `hotspot_stream` — open loop at a fixed rate, hot-spot edits cut
//!   into 100-edit flushes: publish dominates.
//! * `rmat_sharded` — closed loop, growing R-MAT churn on 2 shards: the
//!   only workload that runs the mesh, collect and migration.

mod drive;
mod host;
mod oracle;
mod record;
mod stats;
mod summary;
mod trace;
mod workload;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use rslpa_metrics::overlapping_nmi;
use rslpa_serve::TraceOptions;

use record::{fnv1a, Record};
use stats::{median, nearest_rank};
use summary::{cover_digest, SCHEDULE_DEPENDENT};
use workload::{Inputs, Workload};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Trials per run at the least, however long they take.
const MIN_TRIALS: usize = 3;
/// No new trial starts once this much of the measuring has gone by.
const HARD_STOP: Duration = Duration::from_secs(120);
/// A trial process still running after this long is killed.
const TRIAL_TIMEOUT: Duration = Duration::from_secs(40);

const USAGE: &str = "usage: servebench --workload <uniform_batch|hotspot_stream|rmat_sharded> \
[--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a trial process: whether to trace it.
    trial: Option<bool>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, DEFAULT_SEED, 10.0);
    let (mut trace, mut trial) = (false, None);
    let flag01 = |v: &str| match v {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err("expected 0 or 1".to_string()),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: String| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or_else(|| bad("unknown workload".into()))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(format!("{e}")))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(format!("{e}")))?,
            "--trace" => trace = flag01(&value).map_err(bad)?,
            "--trial" => trial = Some(flag01(&value).map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trial,
    })
}

/// Flight-recorder ring per lane: room for every record of one trial
/// (at most a queue drain per edit, plus ample room per flush for the
/// workers' exchange rounds). A trial that still overflows fails.
fn ring_capacity(inputs: &Inputs) -> usize {
    (2 * inputs.num_ops() + 1024 * inputs.batches.len()).next_power_of_two()
}

/// A trial process: run one trial and print its record.
fn trial_main(w: &Workload, seed: u64, traced: bool) -> ExitCode {
    let inputs = w.inputs(seed);
    let trace = traced.then(|| TraceOptions {
        capacity_per_lane: ring_capacity(&inputs),
    });
    let trial = drive::run(w, &inputs, seed, trace);
    print!(
        "{}",
        summary::summarize(&trial, w.shards, inputs.num_ops()).render()
    );
    ExitCode::SUCCESS
}

/// Run one trial in a process of its own and parse what it printed. A
/// trial that outlives `TRIAL_TIMEOUT` is killed and counts as an error.
fn spawn_trial(args: &Args, traced: bool) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let seed = args.seed.to_string();
    let mut child = Command::new(exe)
        .args(["--workload", args.workload.name, "--seed", &seed])
        .args(["--trial", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting a trial process: {e}"))?;
    // The child's stdout closes when it exits; read it on a thread so the
    // timeout can still fire while the child runs.
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        // The receiver is gone only after a timeout; nothing to report then.
        let _ = tx.send(stdout.read_to_string(&mut text).map(|_| text));
    });
    let text = match rx.recv_timeout(TRIAL_TIMEOUT) {
        Ok(read) => read.map_err(|e| format!("reading trial output: {e}")),
        Err(_) => {
            // Best effort: the process may have exited meanwhile.
            let _ = child.kill();
            Err(format!(
                "trial process exceeded {TRIAL_TIMEOUT:?} and was killed"
            ))
        }
    };
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a trial: {e}"))?;
    reader
        .join()
        .map_err(|_| "trial output reader panicked".to_string())?;
    let text = text?;
    if !status.success() {
        return Err(format!("trial process failed: {status}"));
    }
    Ok(Record::parse(&text))
}

/// The unit a per-layer metric's name implies.
fn unit_of(name: &str) -> &'static str {
    match name {
        n if n.ends_with("_ms") => "ms",
        n if n.ends_with("_us") => "us",
        n if n.ends_with("_s") => "s",
        n if n.ends_with("bytes_per_vertex") => "B/vertex",
        n if n.ends_with("_bytes") => "B",
        n if n.ends_with("_frac")
            || n.ends_with("coverage")
            || n.ends_with("skew")
            || n.ends_with("fraction") =>
        {
            "ratio"
        }
        _ => "count",
    }
}

/// Metrics in report order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn median_of(records: &[&Record], key: &str) -> f64 {
    median(&records.iter().map(|r| r.get(key)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Edit-to-visible latency percentile over every edit of every trial, in
/// milliseconds.
fn visible_ms(records: &[&Record], p: f64) -> f64 {
    let pooled: Vec<f64> = records
        .iter()
        .flat_map(|r| {
            r.get_text("samples.visible_us")
                .unwrap_or("")
                .split_whitespace()
        })
        .filter_map(|v| v.parse::<f64>().ok())
        .map(|us| us / 1e3)
        .collect();
    nearest_rank(&pooled, p).unwrap_or(0.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.trial {
        Some(traced) => trial_main(args.workload, args.seed, traced),
        None => run_main(&args),
    }
}

fn run_main(args: &Args) -> ExitCode {
    let w = args.workload;
    let (steal0, total0) = host::cpu_ticks();
    let started = Instant::now();
    let inputs = w.inputs(args.seed);
    let detector = w.config(args.seed, None).detector;
    let oracle = oracle::replay(&inputs, detector);
    let final_n = oracle.final_graph.num_vertices();
    let scratch = oracle::from_scratch(oracle.final_graph.clone(), detector);
    // Every trial's served cover is checked equal to the oracle's, so the
    // oracle's cover stands for the served one here.
    let onmi = overlapping_nmi(&oracle.cover, &scratch.cover, final_n);
    let want_cover = format!("{:016x}", cover_digest(&oracle.cover));
    let want_weights = format!("{:016x}", oracle.weights_fingerprint);
    println!(
        "workload {} seed {}: n={} m={} flushes={} edits={} shards={} loop={:?} reader={:?}",
        w.name,
        args.seed,
        inputs.graph.num_vertices(),
        inputs.graph.num_edges(),
        inputs.batches.len(),
        inputs.num_ops(),
        w.shards,
        w.looping,
        w.reader,
    );
    println!(
        "oracle: {} communities, weights {want_weights}, ONMI vs from-scratch {onmi:.4}; \
         inputs, oracle and from-scratch took {:.2}s",
        oracle.cover.len(),
        started.elapsed().as_secs_f64()
    );
    drop(inputs);

    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let measure_started = Instant::now();
    let mut trials: Vec<(bool, Record)> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let traced = args.trace && trials.len().is_multiple_of(2);
        let trial_started = Instant::now();
        let rec = match spawn_trial(args, traced) {
            Ok(rec) => rec,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let took = trial_started.elapsed();
        let i = trials.len();
        let matches = rec.get_text("check.cover_digest") == Some(want_cover.as_str())
            && rec.get_text("check.weights_fingerprint") == Some(want_weights.as_str());
        attempted +=
            (rec.get("check.client_ops") + rec.get("check.snapshots_published")) as u64 + 1;
        failed += (rec.get("check.closed_errors") + rec.get("check.publish_failures")) as u64
            + u64::from(!matches);
        if !matches {
            problems.push(format!(
                "trial {i}: final roster or weights differ from the oracle"
            ));
        }
        if rec.get("check.visible_samples") != rec.get("check.expected_samples") {
            problems.push(format!(
                "trial {i}: {} of {} edits have a visibility sample",
                rec.get("check.visible_samples"),
                rec.get("check.expected_samples")
            ));
        }
        if rec.get("check.query_blocks") == 0.0 {
            problems.push(format!(
                "trial {i}: no query ran while writes were in flight"
            ));
        }
        if traced && rec.get("layer.trace.lost_records") > 0.0 {
            problems.push(format!(
                "trial {i}: the flight recorder lost {} records",
                rec.get("layer.trace.lost_records")
            ));
        }
        println!(
            "trial {i}{}: setup {:.4} s, ingest {:.0} edits/s, query p50 {:.4} us, peak rss {:.1} MiB",
            if traced { " (traced)" } else { "" },
            rec.get("e2e.setup_s"),
            rec.get("e2e.ingest_eps"),
            rec.get("e2e.query_p50_us"),
            rec.get("e2e.peak_rss_mb"),
        );
        trials.push((traced, rec));
        let elapsed = measure_started.elapsed();
        let enough = trials.len() >= MIN_TRIALS;
        if (elapsed >= budget && enough) || elapsed + took > HARD_STOP {
            break;
        }
    }
    let measured_s = measure_started.elapsed().as_secs_f64();
    let (steal1, total1) = host::cpu_ticks();

    // Work counters: exact across trials, except the mesh's
    // schedule-dependent ones, which are reported as a range.
    let counters = |r: &Record| -> Vec<(String, String)> {
        r.with_prefix("count.")
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let is_exact = |name: &str| w.shards == 1 || !SCHEDULE_DEPENDENT.contains(&name);
    let first = counters(&trials[0].1);
    let exact: Vec<&(String, String)> = first.iter().filter(|(k, _)| is_exact(k)).collect();
    for (i, (_, rec)) in trials.iter().enumerate().skip(1) {
        let differ: Vec<String> = counters(rec)
            .iter()
            .zip(&first)
            .filter(|((k, a), (_, b))| is_exact(k) && a != b)
            .map(|((k, a), (_, b))| format!("{k} {b} -> {a}"))
            .collect();
        if !differ.is_empty() {
            problems.push(format!(
                "trial {i}: work counters differ from trial 0: {}",
                differ.join(", ")
            ));
        }
    }
    let digest = fnv1a(
        exact
            .iter()
            .flat_map(|(_, v)| v.bytes().chain([b' ']))
            .map(u64::from),
    );

    let plain: Vec<&Record> = trials.iter().filter(|t| !t.0).map(|t| &t.1).collect();
    let traced: Vec<&Record> = trials.iter().filter(|t| t.0).map(|t| &t.1).collect();
    let mut e2e = Metrics::default();
    e2e.put("setup_s", median_of(&plain, "e2e.setup_s"), "s");
    e2e.put("ingest_eps", median_of(&plain, "e2e.ingest_eps"), "1/s");
    e2e.put("visible_p50_ms", visible_ms(&plain, 50.0), "ms");
    e2e.put("visible_p90_ms", visible_ms(&plain, 90.0), "ms");
    e2e.put("query_p50_us", median_of(&plain, "e2e.query_p50_us"), "us");
    e2e.put("query_p90_us", median_of(&plain, "e2e.query_p90_us"), "us");
    e2e.put("peak_rss_mb", median_of(&plain, "e2e.peak_rss_mb"), "MiB");

    let mut layers = Metrics::default();
    if let Some(first) = traced.first() {
        for (name, _) in first.with_prefix("layer.") {
            layers.put(
                name,
                median_of(&traced, &format!("layer.{name}")),
                unit_of(name),
            );
        }
        layers.put("oracle.apply_ms", oracle.apply_s * 1e3, "ms");
        layers.put("scratch.propagate_s", scratch.propagate_s, "s");
        layers.put("scratch.detect_s", scratch.detect_s, "s");
        layers.put("onmi_vs_scratch", onmi, "ratio");
        let overhead = visible_ms(&traced, 50.0) / visible_ms(&plain, 50.0).max(1e-9) - 1.0;
        layers.put("trace.overhead_frac", overhead, "ratio");
        layers.put(
            "client.send_late_p99_us",
            median_of(&traced, "late.p99_us"),
            "us",
        );
        layers.put(
            "client.send_late_max_us",
            median_of(&traced, "late.max_us"),
            "us",
        );
    }

    // The report.
    let sum = |key: &str| trials.iter().map(|t| t.1.get(key)).sum::<f64>();
    println!(
        "trials {} ({} traced) in {measured_s:.1}s; edit samples {}, visibility events {}, \
         query blocks in flight {}",
        trials.len(),
        traced.len(),
        sum("check.visible_samples"),
        sum("check.visibility_events"),
        sum("check.query_blocks"),
    );
    if let workload::Loop::Open { rate, .. } = w.looping {
        println!(
            "open loop at {rate} edits/s: generator late p99 {:.1} us, max {:.1} us (median over trials)",
            median_of(&plain, "late.p99_us"),
            median_of(&plain, "late.max_us"),
        );
    }
    let listed: Vec<String> = exact.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("work counters: {}", listed.join(" "));
    println!("work counter digest: {digest:016x}");
    if w.shards > 1 {
        let ranges: Vec<String> = SCHEDULE_DEPENDENT
            .iter()
            .map(|name| {
                let key = format!("count.{name}");
                let values: Vec<f64> = trials.iter().map(|t| t.1.get(&key)).collect();
                let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = values.iter().copied().fold(0.0, f64::max);
                format!("{name}={lo}..{hi}")
            })
            .collect();
        println!(
            "schedule-dependent counters over trials: {}",
            ranges.join(" ")
        );
    }
    println!(
        "failed_frac {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "host: nproc {}, steal {:.4} of cpu time, git {}, source digest {:016x}",
        host::nproc(),
        (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
        host::git_revision(),
        host::source_digest(std::path::Path::new(".")),
    );
    if let Some(line) = traced.first().and_then(|r| r.get_text("dominant")) {
        println!("dominant layer (first traced trial): {line}");
    }
    for p in &problems {
        println!("FAILED CHECK {p}");
    }
    let shown = if args.trace { &layers } else { &e2e };
    for (name, value, unit) in &shown.0 {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let correct = failed == 0 && problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        shown.json()
    );
    ExitCode::SUCCESS
}
