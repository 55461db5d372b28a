//! The repair engine behind the maintenance loop: a single-writer
//! detector, or the peer-to-peer mailbox mesh.
//!
//! * [`RepairEngine::Single`] — the pre-sharding hot path: one
//!   [`RslpaDetector`] owned by the maintenance thread, repairing via
//!   centralized Correction Propagation, plus the central
//!   [`EdgeCounters`] store it keeps up to date.
//!   Default (`shards = 1`).
//! * [`RepairEngine::Mailbox`] — the decentralized engine for
//!   `shards > 1`: workers exchange envelopes **directly** over a
//!   [`MailboxPort`] mesh, rounds synchronize on a shared barrier with a
//!   monotone sent-counter for termination (no coordinator traffic per
//!   round, 1 channel hop per envelope), and each worker owns the
//!   [`CounterPartition`] of its own vertices (one counter row per owned
//!   vertex, the central store's layout) so slot-delta upkeep runs
//!   inside the workers in parallel. The coordinator posts a flush into
//!   the sub-queues of only the shards with routed deltas; the full mesh
//!   wakes only when some shard actually staged boundary traffic
//!   (interior flushes never wake idle shards). At publish, workers ship
//!   their interior-edge counters and boundary-vertex histograms, and
//!   the coordinator assembles the canonical weight list
//!   ([`assemble_partitioned_weights`]) — boundary edges are merged
//!   there, per the cross-shard edge ownership rule.
//!
//! Both engines produce **bit-identical** label state, weights, and
//! rosters for the same batch sequence (pinned by `rslpa_core::shard` /
//! `edge_counters` tests and the cross-shard roster tests in this
//! crate), so the shard count is purely a throughput knob.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rslpa_core::shard::{
    build_mesh, Envelope, MailboxPort, MeshPoisoner, ShardFlushReport, ShardRepairState,
    VertexRowData,
};
use rslpa_core::{
    assemble_partitioned_weights, result_from_weights, CounterPartition, EdgeCounters,
    PostprocessResult, RslpaConfig, RslpaDetector,
};
use rslpa_graph::sharding::split_deltas;
use rslpa_graph::{
    AdjacencyGraph, AppliedBatch, BoundaryTracker, DynamicGraph, EditBatch, FxHashMap, FxHashSet,
    HubPull, MemAccounted, MemFootprint, Partitioner, PlannedPartitioner, SlotDelta, VertexId,
};
use rslpa_graph::{Cover, Label};
use rslpa_trace::{names, TraceWriter, Tracer};

use crate::stats::ServeStats;

/// How long the coordinator waits for a worker reply before concluding the
/// worker died (a worker panic would otherwise deadlock the loop).
const WORKER_REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Commands the coordinator posts into a mesh worker's sub-queue.
enum MeshCmd {
    /// Phase A for this shard's slice of flush `epoch` (posted only to
    /// shards with routed deltas). The worker stages boundary envelopes
    /// locally and runs its own counter upkeep — no further coordination
    /// unless an `Exchange` follows.
    Flush {
        epoch: u64,
        deltas: Vec<(VertexId, rslpa_graph::VertexDelta)>,
    },
    /// Join the mesh exchange for flush `epoch` (broadcast to every shard
    /// once any shard reported staged boundary traffic). A shard that got
    /// no `Flush` for this epoch resets its per-flush η accounting here.
    Exchange { epoch: u64 },
    /// Ship this partition's publish contribution: interior-edge counters
    /// plus boundary-vertex histograms.
    Collect,
    /// Hand over the rows (and forget the counters) of vertices this
    /// shard no longer owns.
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
    /// Phase A + local cascade done; `boundary` envelopes are staged for
    /// the mesh (0 means this shard needs no exchange). `pending` reports
    /// whether damping left parked cascade work on this shard — the
    /// coordinator must keep posting (possibly empty) flushes until it
    /// drains, since the normal wake rule skips shards with no routed
    /// deltas.
    Local {
        shard: usize,
        boundary: u64,
        report: ShardFlushReport,
        pending: bool,
    },
    /// Mesh exchange ran to quiescence. `envelopes_sent` is counted by
    /// the port at its peer channels — independent of the route-side
    /// `report.boundary_msgs`, so the coordinator can cross-check the
    /// two. `pending` as in [`MeshReply::Local`] (exchange deliveries can
    /// park new slots at over-cap receivers).
    Exchanged {
        shard: usize,
        report: ShardFlushReport,
        rounds: u64,
        envelopes_sent: u64,
        pending: bool,
    },
    Collected {
        shard: usize,
        interior: Vec<(VertexId, VertexId, u64)>,
        boundary_hists: Vec<(VertexId, Vec<(Label, u32)>)>,
    },
    Extracted {
        rows: Vec<(VertexId, VertexRowData)>,
    },
    Adopted,
}

/// Drain this worker's slot-delta stream into its own counter partition
/// (shard-owned upkeep — runs inside the worker, in parallel with peers,
/// overlapped with whatever the coordinator does next). Returns the time
/// spent so the caller can subtract it out of its work attribution.
fn mesh_upkeep(
    state: &mut ShardRepairState,
    counters: &mut CounterPartition,
    stats: &ServeStats,
    shard: usize,
    trace: &TraceWriter,
) -> Duration {
    let deltas = state.take_slot_deltas();
    if deltas.is_empty() {
        return Duration::ZERO;
    }
    let _span = trace.span_with(names::UPKEEP, deltas.len() as u64);
    let started = Instant::now();
    let net = counters.apply_own_deltas(state, &deltas);
    let took = started.elapsed();
    stats.note_shard_upkeep(shard, net as u64, took);
    took
}

fn mesh_worker_loop(
    mut state: ShardRepairState,
    mut counters: CounterPartition,
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
    // `poisoned` set instead (the coordinator then surfaces the failure
    // as a publish error rather than a deadlock).
    struct PoisonOnPanic(MeshPoisoner);
    impl Drop for PoisonOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.poison();
            }
        }
    }
    let _poison_guard = PoisonOnPanic(port.poisoner());
    // Boundary envelopes staged by the last Flush, awaiting the
    // coordinator's exchange decision. Non-empty only between a Flush
    // that staged traffic and the Exchange broadcast that must follow.
    let mut pending_out: Vec<Envelope> = Vec::new();
    // Flush epoch this worker last ran Phase A for; an Exchange for a
    // different epoch means this shard had no routed deltas and must
    // reset its per-flush η accounting itself.
    let mut flushed_epoch: Option<u64> = None;
    loop {
        let wait_t0 = trace.enabled().then(|| trace.now_ns());
        let waited = Instant::now();
        let Ok(cmd) = cmds.recv() else { break };
        stats.note_shard_mailbox_wait(idx, waited.elapsed());
        if let Some(t0) = wait_t0 {
            trace.record_span(
                names::MAILBOX_WAIT,
                t0,
                trace.now_ns().saturating_sub(t0),
                0,
            );
        }
        let work_started = Instant::now();
        // Barrier and upkeep time are attributed separately from work, so
        // the per-shard stats split "repairing" from "synchronizing" —
        // and the barrier park further splits into arrive (stragglers)
        // vs depart (wakeup latency).
        let mut barrier_arrive = Duration::ZERO;
        let mut barrier_depart = Duration::ZERO;
        let mut upkeep = Duration::ZERO;
        match cmd {
            MeshCmd::Flush { epoch, deltas } => {
                debug_assert!(pending_out.is_empty(), "flush while exchange pending");
                flushed_epoch = Some(epoch);
                {
                    let _span = trace.span_with(names::SHARD_FLUSH, deltas.len() as u64);
                    // Retire interior deleted-edge counters first — the same
                    // delete-before-deltas order the central store requires.
                    for (v, delta) in &deltas {
                        for &w in &delta.removed {
                            if state.owns(w) {
                                counters.retire_edge(*v, w);
                            }
                        }
                    }
                    let mut out = Vec::new();
                    let report = state.apply_deltas(&deltas, &mut out);
                    let boundary = out.len() as u64;
                    pending_out = out;
                    if replies
                        .send(MeshReply::Local {
                            shard: idx,
                            boundary,
                            report,
                            pending: state.has_pending(),
                        })
                        .is_err()
                    {
                        break;
                    }
                }
                // Upkeep for the Phase-A wave runs now, before we even
                // know whether an exchange follows: a later wave only
                // appends to the per-(v, slot) chains, and both waves'
                // vertex diffs compose exactly.
                upkeep = mesh_upkeep(&mut state, &mut counters, &stats, idx, &trace);
            }
            MeshCmd::Exchange { epoch } => {
                if flushed_epoch != Some(epoch) {
                    // No Phase A this flush: the distinct-η set still
                    // holds the previous flush's slots.
                    state.begin_flush();
                }
                {
                    let _span = trace.span(names::EXCHANGE);
                    let mut report = ShardFlushReport::default();
                    let mesh = port.exchange_to_quiescence(
                        &mut state,
                        std::mem::take(&mut pending_out),
                        &mut report,
                    );
                    stats.note_mesh(&mesh.inbox_depths, mesh.barrier_wait);
                    barrier_arrive = mesh.barrier_arrive;
                    barrier_depart = mesh.barrier_depart;
                    if replies
                        .send(MeshReply::Exchanged {
                            shard: idx,
                            report,
                            rounds: mesh.rounds,
                            envelopes_sent: mesh.envelopes_sent,
                            pending: state.has_pending(),
                        })
                        .is_err()
                    {
                        break;
                    }
                }
                upkeep = mesh_upkeep(&mut state, &mut counters, &stats, idx, &trace);
            }
            MeshCmd::Collect => {
                let _span = trace.span(names::COLLECT);
                let interior = counters.collect_interior(&state);
                // Ship only the boundary histograms that changed since the
                // last collect (plus first-time boundary entrants); the
                // coordinator overlays them onto its cache.
                let mut boundary_hists = Vec::new();
                let ship = counters.dirty_boundary_hists_into(&state, &mut boundary_hists);
                let bytes = interior.len() as u64
                    * std::mem::size_of::<(VertexId, VertexId, u64)>() as u64
                    + boundary_hists
                        .iter()
                        .map(|(_, h)| {
                            (std::mem::size_of::<VertexId>()
                                + h.len() * std::mem::size_of::<(Label, u32)>())
                                as u64
                        })
                        .sum::<u64>();
                stats.note_collect(ship.shipped, ship.boundary, ship.dirty, bytes);
                if replies
                    .send(MeshReply::Collected {
                        shard: idx,
                        interior,
                        boundary_hists,
                    })
                    .is_err()
                {
                    break;
                }
            }
            MeshCmd::Extract(ids) => {
                let _span = trace.span_with(names::MIGRATE, ids.len() as u64);
                counters.drop_vertices(&state, &ids);
                if replies
                    .send(MeshReply::Extracted {
                        rows: state.extract_rows(&ids),
                    })
                    .is_err()
                {
                    break;
                }
            }
            MeshCmd::Adopt { partitioner, rows } => {
                let _span = trace.span_with(names::MIGRATE, rows.len() as u64);
                state.set_partitioner(partitioner);
                for (v, data) in &rows {
                    counters.adopt_hist(*v, &data.labels);
                }
                state.adopt_rows(rows);
                if replies.send(MeshReply::Adopted).is_err() {
                    break;
                }
            }
            MeshCmd::Shutdown => break,
        }
        stats.note_shard_cmd(
            idx,
            work_started
                .elapsed()
                .saturating_sub(barrier_arrive + barrier_depart + upkeep),
            barrier_arrive,
            barrier_depart,
        );
    }
    stats.set_shard_wall(idx, wall_started.elapsed());
}

/// Why a publish failed: a shard worker died (its command channel closed,
/// its reply never came, or an earlier failure already left the engine's
/// collect bookkeeping unrecoverable). Surfaced to the maintenance loop,
/// which logs it, skips the snapshot, and keeps the epoch dirty — instead
/// of the panic-and-deadlock the old `expect` path produced.
#[derive(Clone, Debug)]
pub(crate) struct PublishError(pub(crate) String);

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PublishError {}

/// Single-writer engine: the pre-sharding maintenance path. It owns the
/// central counter store, the only one left once the label state is
/// sharded (mesh workers each own a partition of it instead).
pub(crate) struct SingleEngine {
    detector: RslpaDetector,
    /// Streaming edge-weight counters (histograms seeded, weights read at
    /// publish).
    counters: EdgeCounters,
    /// The last flush's label-slot changes in application order, drained
    /// into `counters` by [`RepairEngine::upkeep`]. Capacity is retained
    /// across flushes.
    slot_deltas: Vec<SlotDelta>,
}

/// Decentralized engine: coordinator state for the peer-to-peer mailbox
/// mesh. Label exchange and counter upkeep live on the workers; the
/// coordinator only routes flush deltas, decides whether the mesh must
/// wake, and assembles publish-time weights.
pub(crate) struct MailboxEngine {
    /// Topology mirror (net-op resolution, delta routing, and the edge
    /// iteration order of publish assembly).
    graph: DynamicGraph,
    partitioner: Arc<dyn Partitioner>,
    boundary: BoundaryTracker,
    workers: Vec<Sender<MeshCmd>>,
    replies: Receiver<MeshReply>,
    handles: Vec<JoinHandle<()>>,
    batches_applied: usize,
    /// Per-flush delta scratch, retained across batches.
    applied: AppliedBatch,
    /// Draws per label sequence (`T + 1`), the weight denominator's root.
    draws: usize,
    /// τ1 grid threaded into publish-time threshold selection.
    grid: Option<f64>,
    /// Publish-time boundary-histogram cache: vertex → the histogram its
    /// owner last shipped. Workers ship only dirty diffs at collect; this
    /// overlay reconstructs the full map `assemble_partitioned_weights`
    /// needs. Entries are evicted when their vertex migrates — the
    /// adopter marks it dirty and re-ships at the next collect.
    hist_cache: FxHashMap<VertexId, Vec<(Label, u32)>>,
    /// Which shards reported parked (damped) cascade work after their
    /// last command. The flush wake rule normally skips shards with no
    /// routed deltas; a shard with pending work gets a possibly-empty
    /// `Flush` anyway so its release budget keeps draining. Conservatively
    /// all-true after a repartition (pending rows may have migrated to
    /// any shard); each flush reply then settles the flag to truth.
    pending_shards: Vec<bool>,
    /// Sticky publish failure: once a worker dies mid-collect, the
    /// shipped/dirty bookkeeping on the surviving workers no longer
    /// matches `hist_cache` (their diffs were consumed but never cached),
    /// so every later publish must fail too rather than assemble from a
    /// stale overlay.
    failed: Option<String>,
    /// Poison handle for the workers' round barrier: unblocks peers
    /// parked mid-exchange when a worker dies or the engine unwinds.
    poisoner: MeshPoisoner,
}

/// The maintenance loop's repair backend.
pub(crate) enum RepairEngine {
    Single(Box<SingleEngine>),
    Mailbox(Box<MailboxEngine>),
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
                engine: RepairEngine::Single(Box::new(SingleEngine {
                    detector,
                    counters,
                    slot_deltas: Vec::new(),
                })),
                genesis: result_from_weights(n, weights, config.tau1_grid),
            };
        }
        let state = rslpa_core::run_propagation(&graph, config.iterations, config.seed);
        let mut counters = EdgeCounters::new(&state);
        // The genesis weight pass runs once, here, before the workers
        // exist, so it borrows the shard budget — capped at the machine's
        // actual parallelism (extra threads on a small host only add
        // switches). Every later publish reads weights off the worker
        // partitions instead.
        let hw = std::thread::available_parallelism().map_or(1, usize::from);
        let weights = counters.refresh_weights(&graph, shards.min(hw));
        let genesis = result_from_weights(n, weights, config.tau1_grid);
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
        stats.set_boundary_gauges(
            boundary.cut_edges() as u64,
            boundary.boundary_vertices() as u64,
        );
        let (reply_tx, replies) = std::sync::mpsc::channel();
        let mut workers = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let ports = build_mesh(shards);
        let poisoner = ports[0].poisoner();
        for (s, mut port) in ports.into_iter().enumerate() {
            let mut shard =
                ShardRepairState::from_state(&state, &graph, s, Arc::clone(&partitioner));
            shard.set_value_pruned(config.value_pruned_cascade);
            shard.set_damping(config.damping);
            // Carve this worker's counter partition out of the
            // genesis-refreshed central store, so the genesis weight pass
            // is never repeated. The central store itself is dropped once
            // every partition is carved: the workers hold the only live
            // counter state.
            let partition = CounterPartition::carve(&counters, &shard);
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
                    .spawn(move || {
                        mesh_worker_loop(shard, partition, port, cmd_rx, reply_tx, stats, trace)
                    })
                    .expect("spawn mesh shard worker"),
            );
            workers.push(cmd_tx);
        }
        Bootstrap {
            engine: RepairEngine::Mailbox(Box::new(MailboxEngine {
                graph: DynamicGraph::new(graph),
                partitioner,
                boundary,
                workers,
                replies,
                handles,
                batches_applied: 0,
                applied: AppliedBatch::default(),
                draws: config.iterations + 1,
                grid: config.tau1_grid,
                hist_cache: FxHashMap::default(),
                pending_shards: vec![false; shards],
                failed: None,
                poisoner,
            })),
            genesis,
        }
    }

    /// Current graph topology.
    pub(crate) fn graph(&self) -> &AdjacencyGraph {
        match self {
            RepairEngine::Single(e) => e.detector.graph(),
            RepairEngine::Mailbox(e) => e.graph.graph(),
        }
    }

    /// Grow the vertex id space to `n`.
    pub(crate) fn ensure_vertices(&mut self, n: usize) {
        match self {
            RepairEngine::Single(e) => {
                e.detector.ensure_vertices(n);
                e.counters.ensure_vertices(n);
            }
            RepairEngine::Mailbox(e) => {
                e.graph.ensure_vertices(n);
                e.boundary.ensure_vertices(n);
            }
        }
    }

    /// Batches applied since service start.
    pub(crate) fn batches_applied(&self) -> usize {
        match self {
            RepairEngine::Single(e) => e.detector.batches_applied(),
            RepairEngine::Mailbox(e) => e.batches_applied,
        }
    }

    /// Coordinator-resident memory footprint: the storage this thread
    /// itself holds live. Single writer: graph + label state + central
    /// counters. Mailbox: topology mirror only (label rows *and* counter
    /// partitions live on the workers).
    pub(crate) fn mem_footprint(&self) -> MemFootprint {
        match self {
            RepairEngine::Single(e) => e
                .detector
                .graph()
                .mem_footprint()
                .plus(e.detector.state().mem_footprint())
                .plus(e.counters.mem_footprint()),
            RepairEngine::Mailbox(e) => e.graph.graph().mem_footprint(),
        }
    }

    /// Apply one net-resolved batch and repair the label state. Returns
    /// `(eta, dirty_vertices)`: total repaired slots (η) and the number
    /// of distinct vertices whose stored labels changed (the flush's
    /// dirty region — vertex ownership is disjoint, so per-shard counts
    /// sum exactly). Per-shard and exchange counters are recorded into
    /// `stats`.
    pub(crate) fn apply(&mut self, batch: &EditBatch, stats: &ServeStats) -> (u64, u64) {
        match self {
            RepairEngine::Single(e) => {
                let mut dirty = FxHashSet::default();
                e.slot_deltas.clear();
                let report = e
                    .detector
                    .apply_batch_streaming(batch, &mut dirty, &mut e.slot_deltas)
                    .expect("net-resolved batch validates by construction");
                stats.note_shard_flush(0, report.affected_vertices as u64, report.eta as u64);
                stats.note_damped_deferrals(report.damped_deferrals as u64);
                (report.eta as u64, dirty.len() as u64)
            }
            RepairEngine::Mailbox(e) => e.apply(batch, stats),
        }
    }

    /// Counter upkeep for the batch [`apply`](Self::apply) just repaired:
    /// retire the deleted edges' counters, then fold the compacted
    /// slot-delta stream in at `O(deg)` per net change. Inserted edges
    /// need nothing here — they are merged lazily (and exactly) at the
    /// next publish. The single writer runs it centrally, timed into the
    /// `counters` histogram; the mesh workers already folded their own
    /// streams into their own partitions, so there is nothing to do.
    pub(crate) fn upkeep(&mut self, batch: &EditBatch, stats: &ServeStats, trace: &TraceWriter) {
        let RepairEngine::Single(e) = self else {
            return;
        };
        let _span = trace.span(names::COUNTER_UPKEEP);
        let started = Instant::now();
        for &(u, v) in batch.deletions() {
            e.counters.delete_edge(u, v);
        }
        let net = e
            .counters
            .apply_slot_deltas(e.detector.graph(), &e.slot_deltas);
        stats.note_counters(net as u64, started.elapsed());
    }

    /// Produce the publish-time detection result: threshold selection and
    /// extraction over this epoch's weight list. The single writer reads
    /// its central counter store; the mailbox engine collects its
    /// workers' partitions and assembles the list (bit-identical either
    /// way). Fails — instead of panicking — when a mailbox worker died;
    /// the caller skips the publish and keeps the epoch dirty.
    pub(crate) fn refresh(
        &mut self,
        trace: &TraceWriter,
    ) -> Result<PostprocessResult, PublishError> {
        match self {
            RepairEngine::Single(e) => {
                let _span = trace.span(names::PUBLISH_WEIGHTS);
                let graph = e.detector.graph();
                let weights = e.counters.refresh_weights(graph, 1);
                Ok(result_from_weights(
                    graph.num_vertices(),
                    weights,
                    e.detector.config().tau1_grid,
                ))
            }
            RepairEngine::Mailbox(e) => e.collect_and_refresh(trace),
        }
    }

    /// Re-plan the ownership map around the just-published cover —
    /// pinning each forming hub and its spoke frontier to one shard first
    /// (see [`PlannedPartitioner::rebalance_with_hubs`]) — and migrate
    /// rows accordingly (no-op for a single writer). Must run between
    /// flushes, when no envelope is in flight.
    pub(crate) fn repartition(&mut self, cover: &Cover, pulls: &[HubPull], stats: &ServeStats) {
        match self {
            RepairEngine::Single(_) => {}
            RepairEngine::Mailbox(e) => e.repartition(cover, pulls, stats),
        }
    }
}

impl MailboxEngine {
    fn recv_reply(&self) -> MeshReply {
        self.replies
            .recv_timeout(WORKER_REPLY_TIMEOUT)
            .expect("mesh shard worker unresponsive (panicked?)")
    }

    /// Fallible reply wait for the publish path: a timeout or closed
    /// channel becomes an error value with phase context instead of a
    /// panic.
    fn try_recv_reply(&self, phase: &str) -> Result<MeshReply, String> {
        self.replies
            .recv_timeout(WORKER_REPLY_TIMEOUT)
            .map_err(|e| {
                format!(
                    "mesh shard worker unresponsive during {phase}: {e} (worker died or panicked?)"
                )
            })
    }

    /// Record a publish failure: poison the mesh so no surviving worker
    /// stays parked waiting for the dead one, and make the failure sticky
    /// — the collect bookkeeping (worker-side shipped sets vs the
    /// coordinator cache) is no longer coherent after a half-consumed
    /// collect, so later publishes must not assemble from it.
    fn fail(&mut self, why: String) -> PublishError {
        self.poisoner.poison();
        self.failed = Some(why.clone());
        PublishError(why)
    }

    /// One flush over the mesh: post deltas into the sub-queues of shards
    /// that have any, collect their Phase-A replies, and wake the full
    /// mesh for direct peer exchange only if someone staged boundary
    /// traffic. Counter upkeep never touches this thread — each worker
    /// folds its own slot deltas into its own partition.
    fn apply(&mut self, batch: &EditBatch, stats: &ServeStats) -> (u64, u64) {
        self.graph
            .apply_into(batch, &mut self.applied)
            .expect("net-resolved batch validates by construction");
        self.boundary.apply(batch, self.partitioner.as_ref());
        stats.set_boundary_gauges(
            self.boundary.cut_edges() as u64,
            self.boundary.boundary_vertices() as u64,
        );
        let shards = self.workers.len();
        let epoch = self.batches_applied as u64;
        let per_shard = split_deltas(&self.applied, self.partitioner.as_ref());
        let mut routed = vec![0u64; shards];
        let mut participants = 0usize;
        for (s, deltas) in per_shard.into_iter().enumerate() {
            if deltas.is_empty() && !self.pending_shards[s] {
                continue; // sub-queue stays empty; the shard sleeps
            }
            // A shard with parked damped work gets a (possibly empty)
            // flush so its release budget keeps draining — exactly the
            // per-flush release the centralized path runs unconditionally.
            routed[s] = deltas.len() as u64;
            participants += 1;
            self.workers[s]
                .send(MeshCmd::Flush { epoch, deltas })
                .expect("mesh worker alive");
        }
        let mut reports = vec![ShardFlushReport::default(); shards];
        let mut staged = 0u64;
        for _ in 0..participants {
            match self.recv_reply() {
                MeshReply::Local {
                    shard,
                    boundary,
                    report,
                    pending,
                } => {
                    reports[shard].absorb(&report);
                    staged += boundary;
                    self.pending_shards[shard] = pending;
                }
                _ => unreachable!("only flush replies in flight"),
            }
        }
        let mut rounds = 0u64;
        let mut envelopes = 0u64;
        let mut delivered = 0u64;
        if staged > 0 {
            for worker in &self.workers {
                worker
                    .send(MeshCmd::Exchange { epoch })
                    .expect("mesh worker alive");
            }
            for _ in 0..shards {
                match self.recv_reply() {
                    MeshReply::Exchanged {
                        shard,
                        report,
                        rounds: r,
                        envelopes_sent,
                        pending,
                    } => {
                        envelopes += report.boundary_msgs as u64;
                        delivered += envelopes_sent;
                        reports[shard].absorb(&report);
                        rounds = rounds.max(r);
                        self.pending_shards[shard] = pending;
                    }
                    _ => unreachable!("only exchange replies in flight"),
                }
            }
            // Phase-A outboxes were staged before the Local reply and
            // counted there; they travel in the exchange's first round.
            envelopes += staged;
            // Route-side staging and port-side delivery count the same
            // envelopes through independent code paths.
            debug_assert_eq!(envelopes, delivered, "mesh lost or invented envelopes");
        }
        let mut eta = 0u64;
        let mut dirty = 0u64;
        let mut deferred = 0u64;
        for (s, report) in reports.iter().enumerate() {
            stats.note_shard_flush(s, routed[s], report.eta as u64);
            eta += report.eta as u64;
            dirty += report.dirty_vertices as u64;
            deferred += report.damped_deferrals as u64;
        }
        stats.note_damped_deferrals(deferred);
        stats.note_exchange(rounds, envelopes);
        // Mesh delivery is direct: one channel hop per envelope. Counted
        // from the ports' own send tallies — independent of the
        // route-side `boundary_msgs` above, so the two stats cross-check
        // each other (the shard-consistency tests assert equality).
        stats.note_envelope_hops(delivered);
        self.batches_applied += 1;
        (eta, dirty)
    }

    /// Publish-time weight assembly: collect every worker's interior-edge
    /// counters and **dirty** boundary-vertex histograms, overlay the
    /// diffs onto the persistent `hist_cache`, stitch the canonical
    /// weight list (boundary edges merged here, per the ownership rule),
    /// and run threshold selection + extraction. The cache makes the map
    /// handed to [`assemble_partitioned_weights`] identical to what a
    /// ship-everything collect would build: an entry is only *absent*
    /// from a worker's diff when that worker already shipped the current
    /// histogram (its `shipped` set mirrors this cache), and migration
    /// evicts here while marking dirty on the adopter.
    ///
    /// Fails with context — instead of panicking — when a worker died;
    /// the failure is sticky (see [`MailboxEngine::fail`]).
    fn collect_and_refresh(
        &mut self,
        trace: &TraceWriter,
    ) -> Result<PostprocessResult, PublishError> {
        if let Some(why) = &self.failed {
            return Err(PublishError(format!(
                "publish disabled after earlier failure: {why}"
            )));
        }
        let shards = self.workers.len();
        let mut interior: Vec<Vec<(VertexId, VertexId, u64)>> = vec![Vec::new(); shards];
        {
            let _span = trace.span_with(names::PUBLISH_COLLECT, shards as u64);
            for s in 0..shards {
                if self.workers[s].send(MeshCmd::Collect).is_err() {
                    return Err(self.fail(format!(
                        "mesh worker {s} dead at publish collect (command channel closed)"
                    )));
                }
            }
            for _ in 0..shards {
                let reply = match self.try_recv_reply("publish collect") {
                    Ok(reply) => reply,
                    Err(why) => return Err(self.fail(why)),
                };
                match reply {
                    MeshReply::Collected {
                        shard,
                        interior: part,
                        boundary_hists: hists,
                    } => {
                        interior[shard] = part;
                        for (v, hist) in hists {
                            self.hist_cache.insert(v, hist);
                        }
                    }
                    _ => {
                        return Err(
                            self.fail("unexpected reply kind during publish collect".to_string())
                        )
                    }
                }
            }
        }
        let _span = trace.span(names::PUBLISH_WEIGHTS);
        let graph = self.graph.graph();
        let partitioner = Arc::clone(&self.partitioner);
        let wlist = assemble_partitioned_weights(
            graph,
            |v| partitioner.assign(v),
            self.draws,
            &interior,
            &self.hist_cache,
        );
        Ok(result_from_weights(graph.num_vertices(), wlist, self.grid))
    }

    /// Re-plan ownership stickily around `cover` and migrate rows *and*
    /// counter partitions: leaving vertices take their histograms with
    /// them (recomputed from the row on adoption) and drop every incident
    /// counter — edges co-owned again later are re-merged lazily at the
    /// next collect. Runs at publish time, between flushes, when no
    /// envelope or undrained slot delta is in flight.
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
                // Invalidate the publish cache for migrating vertices: the
                // old owner forgets them (`drop_vertices`) and the adopter
                // marks them dirty, so the next collect re-ships a fresh
                // histogram to fill this slot back in.
                self.hist_cache.remove(&v);
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
                        // A migrating row can carry parked damped slots;
                        // its adopter must keep getting flushes so the
                        // release budget drains there.
                        if !row.pending.is_empty() {
                            self.pending_shards[next.assign(v)] = true;
                        }
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
        stats.note_repartition(moved);
        stats.set_boundary_gauges(
            self.boundary.cut_edges() as u64,
            self.boundary.boundary_vertices() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn mesh_engine(shards: usize) -> (RepairEngine, Arc<ServeStats>) {
        let graph = AdjacencyGraph::from_edges(
            12,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (3, 4),
                (4, 5),
                (3, 5),
                (2, 3),
                (6, 7),
                (7, 8),
                (6, 8),
                (9, 10),
                (10, 11),
                (9, 11),
                (8, 9),
                (5, 6),
            ],
        );
        let config = RslpaConfig::quick(20, 7);
        let stats = Arc::new(ServeStats::with_shards(shards));
        let tracer = Arc::new(Tracer::disabled());
        let boot = RepairEngine::bootstrap(graph, &config, shards, &stats, &tracer);
        (boot.engine, stats)
    }

    /// Satellite: a dead mesh worker fails the publish with context (and
    /// stays failed) instead of panicking the maintenance thread.
    #[test]
    fn dead_mesh_worker_fails_publish_instead_of_panicking() {
        let (mut engine, _stats) = mesh_engine(2);
        let trace = Arc::new(Tracer::disabled()).writer(0);
        // A healthy publish first: the error path must not fire spuriously.
        assert!(engine.refresh(&trace).is_ok());
        let RepairEngine::Mailbox(e) = &mut engine else {
            unreachable!("shards > 1 bootstraps the mailbox engine")
        };
        // Kill worker 0 and wait for its channel to actually close, as if
        // it had died of a panic.
        e.workers[0].send(MeshCmd::Shutdown).unwrap();
        e.handles.remove(0).join().unwrap();
        let err = engine
            .refresh(&trace)
            .expect_err("publish with a dead worker must fail");
        assert!(err.0.contains("mesh worker 0 dead"), "got: {}", err.0);
        // The failure is sticky: the collect bookkeeping is torn, so a
        // retry reports the original cause rather than assembling stale
        // weights.
        let err = engine
            .refresh(&trace)
            .expect_err("publish must stay failed");
        assert!(err.0.contains("earlier failure"), "got: {}", err.0);
        // Dropping the engine (with one worker gone and the mesh poisoned)
        // must not hang the test.
    }

    /// The dirty-diff collect ships every boundary histogram once, then
    /// nothing while the label state is quiescent — and the detection
    /// output stays bit-identical to the first (full) collect's.
    #[test]
    fn quiescent_collect_ships_no_histograms() {
        let (mut engine, stats) = mesh_engine(2);
        let trace = Arc::new(Tracer::disabled()).writer(0);
        let first = engine.refresh(&trace).unwrap();
        let shipped = stats.boundary_hists_shipped.load(Ordering::Relaxed);
        let total = stats.boundary_hists_total.load(Ordering::Relaxed);
        assert!(shipped > 0, "first collect ships the full boundary");
        assert_eq!(
            shipped, total,
            "nothing was cached before the first collect"
        );
        let second = engine.refresh(&trace).unwrap();
        assert_eq!(
            stats.boundary_hists_shipped.load(Ordering::Relaxed),
            shipped,
            "no label changed, so no histogram re-ships"
        );
        assert_eq!(
            stats.boundary_hists_total.load(Ordering::Relaxed),
            2 * total,
            "the ship-everything baseline doubles"
        );
        assert_eq!(first.cover, second.cover, "cache-assembled cover drifted");
    }
}

impl Drop for MailboxEngine {
    fn drop(&mut self) {
        for worker in &self.workers {
            let _ = worker.send(MeshCmd::Shutdown);
        }
        // If a worker died or we are unwinding, survivors may be parked
        // on the mesh round barrier waiting for an arrival that will
        // never come. The sense barrier poisons: wake them so they bail
        // out of the exchange, observe the Shutdown above, and exit —
        // joining can no longer hang, even mid-panic (a dead worker's
        // handle joins immediately with its panic payload).
        if std::thread::panicking() || self.failed.is_some() {
            self.poisoner.poison();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
