//! The repair engine behind the maintenance loop: a single-writer
//! detector, or the peer-to-peer mailbox mesh, in front of one counter
//! store.
//!
//! * [`Repair::Single`] — the pre-sharding hot path: one
//!   [`RslpaDetector`] owned by the maintenance thread, repairing with
//!   the Correction Propagation kernel over every vertex. Default
//!   (`shards = 1`).
//! * [`Repair::Mailbox`] — the decentralized engine for `shards > 1`:
//!   each worker owns the label rows of its vertices and runs the same
//!   kernel over them, and workers exchange the envelopes of cross-shard
//!   steps **directly** over a [`MailboxPort`] mesh in BSP supersteps
//!   (each round's batches go through shared mailbox cells, one hop per
//!   envelope; rounds synchronize on a shared barrier with a monotone
//!   sent-counter for termination, with no coordinator traffic per
//!   round). Every flush, the coordinator posts one `Flush` with its
//!   routed deltas (possibly none) to every worker; each runs Phase A
//!   and its damping releases, joins the exchange, and sends back one
//!   reply carrying its counts and the slot changes it made.
//!
//! Either way the coordinator keeps the one [`EdgeCounters`] store: every
//! flush folds the repair's slot-change stream into it, and every publish
//! reads the weight list off it. The mesh's streams arrive shard by
//! shard, in reply order; the store needs only each `(v, slot)` chain in
//! application order, and a vertex's chain comes whole from its one
//! owner's reply.
//!
//! Both engines produce **bit-identical** label state, weights, and
//! rosters for the same batch sequence (pinned by `rslpa_core::shard` /
//! `edge_counters` tests and the cross-shard roster tests in this
//! crate), so the shard count is purely a throughput knob.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rslpa_core::shard::{build_mesh, MailboxPort, MeshPoisoner, ShardRepairState, VertexRowData};
use rslpa_core::{
    result_from_weights, EdgeCounters, PostprocessResult, RslpaConfig, RslpaDetector, UpdateReport,
};
use rslpa_graph::sharding::split_deltas;
use rslpa_graph::Cover;
use rslpa_graph::{
    AdjacencyGraph, AppliedBatch, BoundaryTracker, DynamicGraph, EditBatch, HubPull, MemAccounted,
    MemFootprint, Partitioner, PlannedPartitioner, SlotDelta, VertexId,
};
use rslpa_trace::{names, TraceWriter, Tracer};

use crate::stats::{nanos, ServeStats};

/// How long the coordinator waits for a worker reply before concluding the
/// worker died (a worker panic would otherwise deadlock the loop).
const WORKER_REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Commands the coordinator posts into a mesh worker's sub-queue.
enum MeshCmd {
    /// Phase A for this shard's slice of the flush (posted to every
    /// shard, with an empty slice if none is routed to it), then the
    /// mesh exchange to quiescence.
    Flush(Vec<(VertexId, rslpa_graph::VertexDelta)>),
    /// Hand over the rows of vertices this shard no longer owns.
    Extract(Vec<VertexId>),
    /// Install the new ownership map and any rows migrating in.
    Adopt {
        partitioner: Arc<dyn Partitioner>,
        rows: Vec<(VertexId, VertexRowData)>,
    },
    /// Exit the worker thread.
    Shutdown,
}

/// Mesh worker replies.
enum MeshReply {
    /// Phase A and the mesh exchange ran to quiescence. `envelopes_sent`
    /// is counted by the port at its mailbox cells — independent of the
    /// route-side `report.boundary_msgs`, so the coordinator can
    /// cross-check the two. `slot_deltas` are the flush's label-slot
    /// changes on this shard, in application order.
    Flushed {
        shard: usize,
        report: UpdateReport,
        rounds: u64,
        envelopes_sent: u64,
        slot_deltas: Vec<SlotDelta>,
    },
    Extracted {
        rows: Vec<(VertexId, VertexRowData)>,
    },
    Adopted,
}

fn mesh_worker_loop(
    mut state: ShardRepairState,
    mut port: MailboxPort,
    cmds: Receiver<MeshCmd>,
    replies: Sender<MeshReply>,
    stats: Arc<ServeStats>,
    trace: TraceWriter,
) {
    let idx = state.shard();
    let wall_started = Instant::now();
    // If this worker panics mid-command its peers could park on the mesh
    // round barrier forever waiting for an arrival that will never come.
    // Poison the barrier on the way out of an unwind so they bail with
    // `poisoned` set instead (the coordinator's reply wait then fails
    // rather than deadlocks).
    struct PoisonOnPanic(MeshPoisoner);
    impl Drop for PoisonOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.poison();
            }
        }
    }
    let _poison_guard = PoisonOnPanic(port.poisoner());
    loop {
        let wait_t0 = trace.enabled().then(|| trace.now_ns());
        let waited = Instant::now();
        let Ok(cmd) = cmds.recv() else { break };
        let wait = nanos(waited.elapsed());
        stats.update(|r| r.shards[idx].mailbox_wait_ns += wait);
        if let Some(t0) = wait_t0 {
            trace.record_span(
                names::MAILBOX_WAIT,
                t0,
                trace.now_ns().saturating_sub(t0),
                0,
            );
        }
        let work_started = Instant::now();
        // Barrier time is attributed separately from work, so the
        // per-shard stats split "repairing" from "synchronizing" — and
        // the barrier park further splits into arrive (stragglers) vs
        // depart (wakeup latency).
        let mut barrier_arrive = Duration::ZERO;
        let mut barrier_depart = Duration::ZERO;
        let reply = match cmd {
            MeshCmd::Flush(deltas) => {
                let mut out = Vec::new();
                let mut report = {
                    let _span = trace.span_with(names::SHARD_FLUSH, deltas.len() as u64);
                    state.apply_deltas(&deltas, &mut out)
                };
                let mesh = {
                    let _span = trace.span(names::EXCHANGE);
                    port.exchange_to_quiescence(&mut state, out, &mut report)
                };
                for &depth in &mesh.inbox_depths {
                    stats.mailbox_depth.record_value(depth);
                }
                stats.barrier_wait.record(mesh.barrier_wait);
                barrier_arrive = mesh.barrier_arrive;
                barrier_depart = mesh.barrier_depart;
                MeshReply::Flushed {
                    shard: idx,
                    report,
                    rounds: mesh.rounds,
                    envelopes_sent: mesh.envelopes_sent,
                    slot_deltas: state.take_slot_deltas(),
                }
            }
            MeshCmd::Extract(ids) => {
                let _span = trace.span_with(names::MIGRATE, ids.len() as u64);
                MeshReply::Extracted {
                    rows: state.extract_rows(&ids),
                }
            }
            MeshCmd::Adopt { partitioner, rows } => {
                let _span = trace.span_with(names::MIGRATE, rows.len() as u64);
                state.set_partitioner(partitioner);
                state.adopt_rows(rows);
                MeshReply::Adopted
            }
            MeshCmd::Shutdown => break,
        };
        if replies.send(reply).is_err() {
            break;
        }
        let work = nanos(
            work_started
                .elapsed()
                .saturating_sub(barrier_arrive + barrier_depart),
        );
        let (arrive, depart) = (nanos(barrier_arrive), nanos(barrier_depart));
        stats.update(|r| {
            let s = &mut r.shards[idx];
            s.work_ns += work;
            s.barrier_wait_ns += arrive + depart;
            s.barrier_arrive_ns += arrive;
            s.barrier_depart_ns += depart;
        });
    }
    let wall = nanos(wall_started.elapsed());
    stats.update(|r| r.shards[idx].wall_ns = wall);
}

/// Decentralized engine: coordinator state for the peer-to-peer mailbox
/// mesh. Label exchange lives on the workers; the coordinator routes
/// flush deltas and gathers the workers' slot-change streams for the
/// counter store.
struct MailboxEngine {
    /// Topology mirror (net-op resolution, delta routing, and the counter
    /// store's adjacency).
    graph: DynamicGraph,
    partitioner: Arc<dyn Partitioner>,
    boundary: BoundaryTracker,
    workers: Vec<Sender<MeshCmd>>,
    replies: Receiver<MeshReply>,
    handles: Vec<JoinHandle<()>>,
    batches_applied: usize,
    /// Per-flush delta scratch, retained across batches.
    applied: AppliedBatch,
    /// Poison handle for the workers' round barrier: unblocks peers
    /// parked mid-exchange when the engine unwinds.
    poisoner: MeshPoisoner,
}

/// Who repairs the label state.
enum Repair {
    /// The single writer: one detector on the maintenance thread.
    Single(Box<RslpaDetector>),
    /// The mailbox mesh coordinator (`shards > 1`).
    Mailbox(Box<MailboxEngine>),
}

impl Repair {
    fn graph(&self) -> &AdjacencyGraph {
        match self {
            Repair::Single(d) => d.graph(),
            Repair::Mailbox(e) => e.graph.graph(),
        }
    }
}

/// The maintenance loop's repair backend plus the counter store it keeps
/// up to date.
pub(crate) struct RepairEngine {
    repair: Repair,
    /// Streaming edge-weight counters (histograms seeded, weights read at
    /// publish).
    counters: EdgeCounters,
    /// The last flush's label-slot changes, drained into `counters` by
    /// [`upkeep`](Self::upkeep). Capacity is retained across flushes.
    slot_deltas: Vec<SlotDelta>,
}

/// What `start` hands the service: the engine and the genesis detection
/// result.
pub(crate) struct Bootstrap {
    pub(crate) engine: RepairEngine,
    pub(crate) genesis: rslpa_core::PostprocessResult,
}

impl RepairEngine {
    /// Run initial propagation on `graph` and stand up the engine. Shard
    /// worker `s` records into flight-recorder lane `1 + s` (lane 0 is the
    /// maintenance thread's).
    pub(crate) fn bootstrap(
        graph: AdjacencyGraph,
        config: &RslpaConfig,
        shards: usize,
        stats: &Arc<ServeStats>,
        tracer: &Arc<Tracer>,
    ) -> Bootstrap {
        let n = graph.num_vertices();
        if shards <= 1 {
            let detector = RslpaDetector::new(graph, *config);
            let mut counters = EdgeCounters::new(detector.state());
            let weights = counters.refresh_weights(detector.graph(), 1);
            return Bootstrap {
                engine: RepairEngine {
                    repair: Repair::Single(Box::new(detector)),
                    counters,
                    slot_deltas: Vec::new(),
                },
                genesis: result_from_weights(n, weights),
            };
        }
        let state = rslpa_core::run_propagation(&graph, config.iterations, config.seed);
        let mut counters = EdgeCounters::new(&state);
        // The genesis weight pass runs once, here, before the workers
        // exist, so it borrows the shard budget — capped at the machine's
        // actual parallelism (extra threads on a small host only add
        // switches).
        let hw = std::thread::available_parallelism().map_or(1, usize::from);
        let weights = counters.refresh_weights(&graph, shards.min(hw));
        let genesis = result_from_weights(n, weights);
        // Shard along the communities the genesis detection just found:
        // correction cascades follow edges, and community-aligned shards
        // keep most edges — hence most cascade hops — shard-local. (BFS
        // chunking is useless here: on a small-world graph its layers
        // straddle every community; hashing is worse still.)
        let partitioner: Arc<dyn Partitioner> = Arc::new(PlannedPartitioner::from_cover(
            &genesis.cover,
            graph.num_vertices(),
            shards,
        ));
        let boundary = BoundaryTracker::new(&graph, partitioner.as_ref());
        let (cut, frontier) = boundary_gauges(&boundary);
        stats.update(|r| (r.cut_edges, r.boundary_vertices) = (cut, frontier));
        let (reply_tx, replies) = std::sync::mpsc::channel();
        let mut workers = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let ports = build_mesh(shards);
        let poisoner = ports[0].poisoner();
        for (s, mut port) in ports.into_iter().enumerate() {
            let mut shard =
                ShardRepairState::from_state(&state, &graph, s, Arc::clone(&partitioner));
            shard.set_damping(config.damping);
            let (cmd_tx, cmd_rx) = std::sync::mpsc::channel();
            let reply_tx = reply_tx.clone();
            let stats = Arc::clone(stats);
            // Port and loop share the worker's lane: both record only from
            // the worker thread, so the single-writer ring contract holds.
            let trace = tracer.writer(1 + s);
            port.set_trace(trace.clone());
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rslpa-serve-shard-{s}"))
                    .spawn(move || mesh_worker_loop(shard, port, cmd_rx, reply_tx, stats, trace))
                    .expect("spawn mesh shard worker"),
            );
            workers.push(cmd_tx);
        }
        Bootstrap {
            engine: RepairEngine {
                repair: Repair::Mailbox(Box::new(MailboxEngine {
                    graph: DynamicGraph::new(graph),
                    partitioner,
                    boundary,
                    workers,
                    replies,
                    handles,
                    batches_applied: 0,
                    applied: AppliedBatch::default(),
                    poisoner,
                })),
                counters,
                slot_deltas: Vec::new(),
            },
            genesis,
        }
    }

    /// Current graph topology.
    pub(crate) fn graph(&self) -> &AdjacencyGraph {
        self.repair.graph()
    }

    /// Grow the vertex id space to `n`.
    pub(crate) fn ensure_vertices(&mut self, n: usize) {
        self.counters.ensure_vertices(n);
        match &mut self.repair {
            Repair::Single(d) => d.ensure_vertices(n),
            Repair::Mailbox(e) => {
                e.graph.ensure_vertices(n);
                e.boundary.ensure_vertices(n);
            }
        }
    }

    /// Batches applied since service start.
    pub(crate) fn batches_applied(&self) -> usize {
        match &self.repair {
            Repair::Single(d) => d.batches_applied(),
            Repair::Mailbox(e) => e.batches_applied,
        }
    }

    /// Coordinator-resident memory footprint: the storage this thread
    /// itself holds live — the graph, the counter store and, for the
    /// single writer, the label state (mesh label rows live on the
    /// workers).
    pub(crate) fn mem_footprint(&self) -> MemFootprint {
        let repair = match &self.repair {
            Repair::Single(d) => d.graph().mem_footprint().plus(d.state().mem_footprint()),
            Repair::Mailbox(e) => e.graph.graph().mem_footprint(),
        };
        repair.plus(self.counters.mem_footprint())
    }

    /// Apply one net-resolved batch and repair the label state, keeping
    /// the repair's slot-change stream for [`upkeep`](Self::upkeep).
    /// Returns `(eta, dirty_vertices)`: total repaired slots (η) and the
    /// number of distinct vertices whose stored labels changed (the
    /// flush's dirty region — vertex ownership is disjoint, so per-shard
    /// counts sum exactly). Per-shard and exchange counters are recorded
    /// into `stats`.
    pub(crate) fn apply(&mut self, batch: &EditBatch, stats: &ServeStats) -> (u64, u64) {
        self.slot_deltas.clear();
        match &mut self.repair {
            Repair::Single(d) => {
                let report = d
                    .apply_batch_streaming(batch, &mut self.slot_deltas)
                    .expect("net-resolved batch validates by construction");
                stats.update(|r| {
                    r.shards[0].edits_routed += report.affected_vertices as u64;
                    r.shards[0].slots_repaired += report.eta as u64;
                    r.damped_deferrals += report.damped_deferrals as u64;
                });
                (report.eta as u64, report.dirty_vertices as u64)
            }
            Repair::Mailbox(e) => e.apply(batch, stats, &mut self.slot_deltas),
        }
    }

    /// Counter upkeep for the batch [`apply`](Self::apply) just repaired:
    /// retire the deleted edges' counters, then fold the compacted
    /// slot-delta stream in with one neighbor sweep — `O(deg)` per dirty
    /// vertex, each neighbor histogram read once per flush. Inserted edges
    /// need nothing here — they are merged lazily (and exactly) at the
    /// next publish. Timed into the `counters` histogram.
    pub(crate) fn upkeep(&mut self, batch: &EditBatch, stats: &ServeStats, trace: &TraceWriter) {
        let _span = trace.span(names::COUNTER_UPKEEP);
        let started = Instant::now();
        for &(u, v) in batch.deletions() {
            self.counters.delete_edge(u, v);
        }
        let net = self
            .counters
            .apply_slot_deltas(self.repair.graph(), &self.slot_deltas) as u64;
        stats.counters.record(started.elapsed());
        stats.update(|r| r.slot_deltas_net += net);
    }

    /// Produce the publish-time detection result: threshold selection and
    /// extraction over the weight list read off the counter store.
    pub(crate) fn refresh(&mut self, trace: &TraceWriter) -> PostprocessResult {
        let _span = trace.span(names::PUBLISH_WEIGHTS);
        let graph = self.repair.graph();
        let weights = self.counters.refresh_weights(graph, 1);
        result_from_weights(graph.num_vertices(), weights)
    }

    /// Re-plan the ownership map around the just-published cover —
    /// pinning each forming hub and its spoke frontier to one shard first
    /// (see [`PlannedPartitioner::rebalance_with_hubs`]) — and migrate
    /// rows accordingly (no-op for a single writer). Must run between
    /// flushes, when no envelope is in flight.
    pub(crate) fn repartition(&mut self, cover: &Cover, pulls: &[HubPull], stats: &ServeStats) {
        if let Repair::Mailbox(e) = &mut self.repair {
            e.repartition(cover, pulls, stats);
        }
    }
}

impl MailboxEngine {
    fn recv_reply(&self) -> MeshReply {
        self.replies
            .recv_timeout(WORKER_REPLY_TIMEOUT)
            .expect("mesh shard worker unresponsive (panicked?)")
    }

    /// One flush over the mesh: post every shard its slice of the deltas,
    /// then collect one reply per shard. Every reply's slot-change stream
    /// is appended to `slot_deltas` as it arrives.
    fn apply(
        &mut self,
        batch: &EditBatch,
        stats: &ServeStats,
        slot_deltas: &mut Vec<SlotDelta>,
    ) -> (u64, u64) {
        self.graph
            .apply_into(batch, &mut self.applied)
            .expect("net-resolved batch validates by construction");
        self.boundary.apply(batch, self.partitioner.as_ref());
        let per_shard = split_deltas(&self.applied, self.partitioner.as_ref());
        let routed: Vec<u64> = per_shard.iter().map(|d| d.len() as u64).collect();
        for (worker, deltas) in self.workers.iter().zip(per_shard) {
            worker
                .send(MeshCmd::Flush(deltas))
                .expect("mesh worker alive");
        }
        let mut reports = vec![UpdateReport::default(); self.workers.len()];
        let mut rounds = 0u64;
        let mut delivered = 0u64;
        for _ in 0..self.workers.len() {
            match self.recv_reply() {
                MeshReply::Flushed {
                    shard,
                    report,
                    rounds: r,
                    envelopes_sent,
                    slot_deltas: wave,
                } => {
                    reports[shard] = report;
                    rounds = rounds.max(r);
                    delivered += envelopes_sent;
                    slot_deltas.extend(wave);
                }
                _ => unreachable!("only flush replies in flight"),
            }
        }
        let mut total = UpdateReport::default();
        for report in &reports {
            total.absorb(report);
        }
        let envelopes = total.boundary_msgs as u64;
        // Route-side staging and port-side delivery count the same
        // envelopes through independent code paths.
        debug_assert_eq!(envelopes, delivered, "mesh lost or invented envelopes");
        let (cut, frontier) = boundary_gauges(&self.boundary);
        stats.update(|r| {
            for ((s, report), routed) in r.shards.iter_mut().zip(&reports).zip(routed) {
                s.edits_routed += routed;
                s.slots_repaired += report.eta as u64;
            }
            r.damped_deferrals += total.damped_deferrals as u64;
            r.exchange_rounds += rounds;
            r.boundary_msgs += envelopes;
            // Mesh delivery is direct: one cell hop per envelope. Counted
            // from the ports' own send tallies — independent of the
            // route-side `boundary_msgs` above, so the two stats
            // cross-check each other (the shard-consistency tests assert
            // equality).
            r.envelope_hops += delivered;
            (r.cut_edges, r.boundary_vertices) = (cut, frontier);
        });
        self.batches_applied += 1;
        (total.eta as u64, total.dirty_vertices as u64)
    }

    /// Re-plan ownership stickily around `cover` and migrate rows. Runs
    /// at publish time, between flushes, when no envelope or undrained
    /// slot delta is in flight; the counter store on this thread is
    /// untouched.
    fn repartition(&mut self, cover: &Cover, pulls: &[HubPull], stats: &ServeStats) {
        let shards = self.workers.len();
        let n = self.graph.graph().num_vertices();
        let next: Arc<dyn Partitioner> = Arc::new(PlannedPartitioner::rebalance_with_hubs(
            self.partitioner.as_ref(),
            cover,
            n,
            shards,
            pulls,
        ));
        let mut leaving: Vec<Vec<VertexId>> = vec![Vec::new(); shards];
        let mut moved = 0u64;
        for v in 0..n as VertexId {
            let old = self.partitioner.assign(v);
            if old != next.assign(v) {
                leaving[old].push(v);
                moved += 1;
            }
        }
        // Even a zero-move re-plan installs the new map everywhere:
        // routing and worker-local `owns()` must never disagree.
        for (worker, ids) in self.workers.iter().zip(leaving) {
            worker
                .send(MeshCmd::Extract(ids))
                .expect("mesh worker alive");
        }
        let mut incoming: Vec<Vec<(VertexId, VertexRowData)>> = vec![Vec::new(); shards];
        for _ in 0..shards {
            match self.recv_reply() {
                MeshReply::Extracted { rows } => {
                    for (v, row) in rows {
                        incoming[next.assign(v)].push((v, row));
                    }
                }
                _ => unreachable!("only extracts in flight during repartition"),
            }
        }
        for (worker, rows) in self.workers.iter().zip(incoming) {
            worker
                .send(MeshCmd::Adopt {
                    partitioner: Arc::clone(&next),
                    rows,
                })
                .expect("mesh worker alive");
        }
        for _ in 0..shards {
            match self.recv_reply() {
                MeshReply::Adopted => {}
                _ => unreachable!("only adopts in flight during repartition"),
            }
        }
        self.partitioner = next;
        self.boundary = BoundaryTracker::new(self.graph.graph(), self.partitioner.as_ref());
        let (cut, frontier) = boundary_gauges(&self.boundary);
        stats.update(|r| {
            r.repartitions += 1;
            r.vertices_migrated += moved;
            (r.cut_edges, r.boundary_vertices) = (cut, frontier);
        });
    }
}

/// `(cut_edges, boundary_vertices)` for the stats gauges.
fn boundary_gauges(boundary: &BoundaryTracker) -> (u64, u64) {
    (
        boundary.cut_edges() as u64,
        boundary.boundary_vertices() as u64,
    )
}

impl Drop for MailboxEngine {
    fn drop(&mut self) {
        for worker in &self.workers {
            let _ = worker.send(MeshCmd::Shutdown);
        }
        // If we are unwinding, survivors may be parked on the mesh round
        // barrier waiting for an arrival that will never come. The sense
        // barrier poisons: wake them so they bail out of the exchange,
        // observe the Shutdown above, and exit — joining can no longer
        // hang, even mid-panic (a dead worker's handle joins immediately
        // with its panic payload).
        if std::thread::panicking() {
            self.poisoner.poison();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dropping the engine after a mesh worker died must not hang: the
    /// surviving workers still get their shutdown and exit.
    #[test]
    fn dropping_the_engine_after_a_worker_dies_does_not_hang() {
        let graph = AdjacencyGraph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (2, 3)]);
        let stats = Arc::new(ServeStats::with_shards(2));
        let tracer = Arc::new(Tracer::disabled());
        let config = RslpaConfig::quick(20, 7);
        let mut engine = RepairEngine::bootstrap(graph, &config, 2, &stats, &tracer).engine;
        let Repair::Mailbox(e) = &mut engine.repair else {
            unreachable!("shards > 1 bootstraps the mailbox engine")
        };
        // Kill worker 0 and wait for its channel to actually close, as if
        // it had died of a panic.
        e.workers[0].send(MeshCmd::Shutdown).unwrap();
        e.handles.remove(0).join().unwrap();
        drop(engine);
    }
}
