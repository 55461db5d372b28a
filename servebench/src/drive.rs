//! One trial: start a fresh service, drive the whole script through its
//! public API with one writer and (optionally) one reader thread, and
//! collect raw client-side samples.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rslpa_graph::{Cover, DetRng, VertexId};
use rslpa_serve::trace::Dump;
use rslpa_serve::{CommunityService, IngestHandle, QueryEngine, StatsReport, TraceOptions};

use crate::host;
use crate::stats::open_loop_visibility;
use crate::workload::{Inputs, Loop, Reader, Workload};

/// Queries per timed block; one latency sample is a block's mean.
pub const BLOCK: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Membership,
    Overlap,
    Roster,
}

/// The `i`-th query kind of the 60/25/15 membership/overlap/roster mix
/// of `repro serve`, as a 20-slot cycle.
fn kind_at(i: usize) -> Kind {
    match i % 20 {
        0..=11 => Kind::Membership,
        12..=16 => Kind::Overlap,
        _ => Kind::Roster,
    }
}

/// A timed query block.
pub struct Block {
    pub start_ns: u64,
    pub end_ns: u64,
    /// `Some` when every query in the block was of one kind.
    pub kind: Option<Kind>,
}

impl Block {
    /// Mean time per query, in microseconds.
    pub fn mean_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / BLOCK as f64 / 1e3
    }
}

/// Everything one trial measured. Times are nanoseconds since the
/// trial's base instant unless named otherwise.
#[derive(Default)]
pub struct Trial {
    pub setup_s: f64,
    pub write_start_ns: u64,
    pub write_end_ns: u64,
    /// The write phase in the flight recorder's clock.
    pub write_window_trace_ns: (u64, u64),
    pub peak_rss_mb: f64,
    /// Edit-to-visible latency of every edit, in nanoseconds.
    pub visible_ns: Vec<u64>,
    /// Snapshot observations that advanced `batches_applied` (open loop)
    /// or barrier returns (closed loop).
    pub visibility_events: usize,
    pub blocks: Vec<Block>,
    /// Per-edit client submit cost, in nanoseconds (closed loop: a
    /// batch's submit time spread over its edits).
    pub submit_ns: Vec<f64>,
    /// How late the open-loop generator sent each edit, in nanoseconds.
    pub send_late_ns: Vec<u64>,
    /// When each open-loop edit was due.
    pub due_ns: Vec<u64>,
    /// `ServiceClosed` errors on submit or barrier.
    pub closed_errors: u64,
    /// Submits plus barriers attempted.
    pub client_ops: u64,
    pub cover: Cover,
    pub weights_fingerprint: u64,
    pub report: StatsReport,
    pub dump: Option<Dump>,
}

impl Trial {
    pub fn write_s(&self) -> f64 {
        (self.write_end_ns - self.write_start_ns) as f64 / 1e9
    }

    /// Query blocks that ran entirely inside the write phase.
    pub fn blocks_in_flight(&self) -> impl Iterator<Item = &Block> {
        self.blocks
            .iter()
            .filter(|b| b.start_ns >= self.write_start_ns && b.end_ns <= self.write_end_ns)
    }
}

/// What the reader thread hands back.
#[derive(Default)]
struct ReaderLog {
    blocks: Vec<Block>,
    events: Vec<(u64, usize)>,
}

fn ns_since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// Run one trial of `w` over `inputs`.
pub fn run(w: &Workload, inputs: &Inputs, seed: u64, trace: Option<TraceOptions>) -> Trial {
    let config = w.config(seed, trace);
    let graph = inputs.graph.clone();
    let n = graph.num_vertices() as u64;

    let rss_before = host::reset_peak_rss_mb();
    let started = Instant::now();
    let service = CommunityService::start(graph, config);
    let setup_s = started.elapsed().as_secs_f64();

    let base = Instant::now();
    let tracer = service.tracer();
    let communities = service.latest().cover.len().max(1) as u64;
    let stop = AtomicBool::new(false);
    let observed = AtomicUsize::new(0);
    let per_kind = trace.is_some();
    let mut out = std::thread::scope(|s| {
        let reader = {
            let queries = service.query();
            let (stop, observed) = (&stop, &observed);
            let pace = match w.reader {
                Reader::Continuous => None,
                Reader::Paced(p) => Some(p),
            };
            s.spawn(move || {
                let sampler = Sampler {
                    rng: DetRng::new(seed ^ 0xdead_beef),
                    n,
                    communities,
                };
                read_loop(queries, sampler, base, stop, observed, per_kind, pace)
            })
        };
        let ingest = service.ingest();
        let mut t = match w.looping {
            Loop::Closed => closed_loop(&ingest, inputs, base, &tracer),
            Loop::Open { rate, .. } => open_loop(&ingest, inputs, rate, base, &tracer),
        };
        // Let the reader see the final epoch before it stops, so every
        // open-loop edit has an observation covering it.
        let final_batches = service.latest().batches_applied;
        let wait_until = Instant::now() + Duration::from_secs(5);
        while observed.load(Ordering::Acquire) < final_batches && Instant::now() < wait_until {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        let log = reader.join().expect("reader thread panicked");
        if let Loop::Open { per_flush, .. } = w.looping {
            t.visible_ns = open_loop_visibility(&t.due_ns, per_flush, &log.events);
            t.visibility_events = log.events.len();
        }
        t.blocks = log.blocks;
        t
    });

    let latest = service.latest();
    out.cover = latest.cover.clone();
    out.weights_fingerprint = latest.weights_fingerprint;
    drop(latest);
    out.report = service.shutdown();
    out.peak_rss_mb = host::peak_rss_mb() - rss_before;
    out.setup_s = setup_s;
    if trace.is_some() {
        out.dump = Some(tracer.drain());
    }
    out
}

/// Closed loop: submit a batch, barrier, repeat. Every edit of a batch
/// becomes visible when its barrier returns.
fn closed_loop(
    ingest: &IngestHandle,
    inputs: &Inputs,
    base: Instant,
    tracer: &rslpa_serve::trace::Tracer,
) -> Trial {
    let mut t = Trial {
        visible_ns: Vec::with_capacity(inputs.num_ops()),
        ..Trial::default()
    };
    let mut stamps: Vec<u64> = Vec::new();
    t.write_start_ns = ns_since(base);
    let trace_start = tracer.now_ns();
    for batch in &inputs.batches {
        stamps.clear();
        let submit_start = ns_since(base);
        for op in Inputs::ops(batch) {
            stamps.push(ns_since(base));
            t.client_ops += 1;
            if ingest.submit(op).is_err() {
                t.closed_errors += 1;
            }
        }
        let submit_end = ns_since(base);
        t.submit_ns
            .push((submit_end - submit_start) as f64 / stamps.len().max(1) as f64);
        t.client_ops += 1;
        if ingest.barrier().is_err() {
            t.closed_errors += 1;
        }
        let visible = ns_since(base);
        t.visible_ns.extend(stamps.iter().map(|&s| visible - s));
        t.visibility_events += 1;
    }
    t.write_end_ns = ns_since(base);
    t.write_window_trace_ns = (trace_start, tracer.now_ns());
    t
}

/// Open loop: edit `i` is due at `start + i / rate`; the generator sleeps
/// until then, or sends at once when running late. A final barrier closes
/// the write phase.
fn open_loop(
    ingest: &IngestHandle,
    inputs: &Inputs,
    rate: f64,
    base: Instant,
    tracer: &rslpa_serve::trace::Tracer,
) -> Trial {
    let ops = inputs.all_ops();
    let mut t = Trial {
        due_ns: Vec::with_capacity(ops.len()),
        submit_ns: Vec::with_capacity(ops.len()),
        send_late_ns: Vec::with_capacity(ops.len()),
        ..Trial::default()
    };
    let interval = 1e9 / rate;
    let start = ns_since(base) + 1_000_000;
    let mut trace_start = None;
    for (i, &op) in ops.iter().enumerate() {
        let due = start + (i as f64 * interval) as u64;
        let now = ns_since(base);
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let sent = ns_since(base);
        trace_start.get_or_insert_with(|| tracer.now_ns());
        t.client_ops += 1;
        if ingest.submit(op).is_err() {
            t.closed_errors += 1;
        }
        t.submit_ns.push((ns_since(base) - sent) as f64);
        t.send_late_ns.push(sent.saturating_sub(due));
        t.due_ns.push(due);
    }
    t.client_ops += 1;
    if ingest.barrier().is_err() {
        t.closed_errors += 1;
    }
    t.write_start_ns = start;
    t.write_end_ns = ns_since(base);
    t.write_window_trace_ns = (trace_start.unwrap_or(0), tracer.now_ns());
    t
}

/// Draws query arguments from the seed graph's id space.
struct Sampler {
    rng: DetRng,
    n: u64,
    communities: u64,
}

impl Sampler {
    fn vertex(&mut self) -> VertexId {
        self.rng.bounded(self.n) as VertexId
    }
}

/// Query blocks until `stop`, noting every snapshot that advanced
/// `batches_applied` before each block. Mixed blocks follow the mix
/// query by query; per-kind blocks follow it block by block.
fn read_loop(
    mut queries: QueryEngine,
    mut sampler: Sampler,
    base: Instant,
    stop: &AtomicBool,
    observed: &AtomicUsize,
    per_kind: bool,
    pace: Option<Duration>,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut last_batches = None;
    let mut args = [(0 as VertexId, 0 as VertexId, 0u32); BLOCK];
    let mut block_no = 0usize;
    while !stop.load(Ordering::Acquire) {
        let batches = queries.pin().batches_applied;
        if last_batches != Some(batches) {
            last_batches = Some(batches);
            log.events.push((ns_since(base), batches));
            observed.store(batches, Ordering::Release);
        }
        for a in args.iter_mut() {
            let c = sampler.rng.bounded(sampler.communities) as u32;
            *a = (sampler.vertex(), sampler.vertex(), c);
        }
        let block_kind = per_kind.then(|| kind_at(block_no));
        let start_ns = ns_since(base);
        for (j, &(u, v, c)) in args.iter().enumerate() {
            match block_kind.unwrap_or_else(|| kind_at(j)) {
                Kind::Membership => {
                    black_box(queries.membership(u));
                }
                Kind::Overlap => {
                    black_box(queries.overlap(u, v));
                }
                Kind::Roster => {
                    black_box(queries.roster(c));
                }
            }
        }
        let end_ns = ns_since(base);
        log.blocks.push(Block {
            start_ns,
            end_ns,
            kind: block_kind,
        });
        block_no += 1;
        if let Some(p) = pace {
            std::thread::sleep(p);
        }
    }
    log
}
