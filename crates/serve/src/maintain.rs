//! The maintenance loop: the coordinator that drains the ingestion queue,
//! applies micro-batches through the repair engine, and publishes
//! snapshots.
//!
//! One thread drives the loop. With `shards = 1` it owns the
//! [`RslpaDetector`](rslpa_core::RslpaDetector) outright (the pre-sharding
//! single-writer path); with `shards > 1` it routes each flush to the
//! per-partition workers of the mailbox mesh (see the private `shards`
//! module), which hand back the slot changes they made. Either way, every
//! flush streams the repair's label-slot changes into one store of exact
//! integer edge-weight counters on this thread,
//! [`rslpa_core::EdgeCounters`] (`O(deg)` per net slot change), so
//! snapshot publishing reads each edge weight off a counter instead of
//! re-merging histograms. The store keeps each numerator once, in a
//! sorted counter row of the edge's lower endpoint, so a publish is one
//! sequential pass over the rows that merges only the edges inserted
//! since the last publish, then a counting-sort τ1 sweep and a linear
//! extraction: no hash lookup per edge, merging tracks the insertions,
//! and what remains is a few linear passes over the edge list. Readers
//! interact only through the epoch-swapped [`SnapshotStore`].
//!
//! Live streams are messier than the paper's curated batches: clients may
//! insert an edge that already exists, delete one that does not, or emit
//! insert/delete pairs that cancel within one batch. `resolve_ops`
//! folds the op sequence into its *net effect* against the current graph,
//! so the strict [`EditBatch`] contract (§IV premise) always holds and
//! no-op edits are counted as rejected instead of crashing the loop.

use std::sync::Arc;
use std::time::Instant;

use rslpa_core::DetectionResult;
use rslpa_graph::{AdjacencyGraph, EditBatch, FxHashMap, VertexId};
use rslpa_trace::{names, TraceWriter};

use crate::hubs::HubTracker;
use crate::policy::FlushPolicy;
use crate::queue::{Command, EditOp, EditQueue};
use crate::shards::RepairEngine;
use crate::snapshot::{CommunitySnapshot, SnapshotStore};
use crate::stats::ServeStats;

/// Fold an op sequence into the net `EditBatch` it amounts to against
/// `graph`. Returns the batch plus the number of ops that had no effect
/// (already-present inserts, absent deletes, self-loops).
///
/// Out-of-range endpoints on *inserts* are fine — the loop grows the
/// vertex space before applying — but deletes of never-seen vertices are
/// no-ops.
#[cfg(test)]
pub(crate) fn resolve_ops(graph: &AdjacencyGraph, ops: &[EditOp]) -> (EditBatch, u64) {
    let mut desired = FxHashMap::default();
    resolve_ops_into(graph, ops, &mut desired)
}

/// [`resolve_ops`] with a caller-owned scratch map, so the steady-state
/// flush path allocates no per-flush hash table (the map's capacity is
/// retained across batches).
pub(crate) fn resolve_ops_into(
    graph: &AdjacencyGraph,
    ops: &[EditOp],
    desired: &mut FxHashMap<(VertexId, VertexId), bool>,
) -> (EditBatch, u64) {
    let n = graph.num_vertices();
    let in_graph = |u: VertexId, v: VertexId| -> bool {
        (u as usize) < n && (v as usize) < n && graph.has_edge(u, v)
    };
    // Edge -> desired presence after the batch, in op order.
    desired.clear();
    let mut rejected = 0u64;
    for &op in ops {
        let (u, v) = op.endpoints();
        if u == v {
            rejected += 1;
            continue;
        }
        let key = (u.min(v), u.max(v));
        let present = *desired.entry(key).or_insert_with(|| in_graph(key.0, key.1));
        let want = matches!(op, EditOp::Insert(..));
        if present == want {
            rejected += 1;
        } else {
            desired.insert(key, want);
        }
    }
    let mut insertions = Vec::new();
    let mut deletions = Vec::new();
    for (&(u, v), &present) in desired.iter() {
        let was = in_graph(u, v);
        if present && !was {
            insertions.push((u, v));
        } else if !present && was {
            deletions.push((u, v));
        }
    }
    (EditBatch::from_lists(insertions, deletions), rejected)
}

/// State owned by the maintenance thread.
pub(crate) struct MaintenanceLoop {
    pub(crate) engine: RepairEngine,
    pub(crate) queue: Arc<EditQueue>,
    pub(crate) store: Arc<SnapshotStore>,
    pub(crate) stats: Arc<ServeStats>,
    pub(crate) policy: Box<dyn FlushPolicy>,
    /// Publish a snapshot every this many flushes (barriers and shutdown
    /// always publish). Detection (post-processing) dominates flush cost,
    /// so this is the freshness/throughput knob.
    pub(crate) snapshot_every: usize,
    pub(crate) flushes_since_snapshot: usize,
    pub(crate) dirty_since_snapshot: bool,
    /// Net-resolution scratch, retained across flushes ([`resolve_ops_into`]).
    pub(crate) resolve_scratch: FxHashMap<(VertexId, VertexId), bool>,
    /// Per-window degree-delta tracker feeding hub-aware repartitioning.
    pub(crate) hubs: HubTracker,
    /// Flight-recorder handle for lane 0 (this thread). A writer against a
    /// disabled tracer costs one relaxed load per span site.
    pub(crate) trace: TraceWriter,
}

impl MaintenanceLoop {
    /// Run until shutdown. Consumes the loop; the detector dies with it.
    pub(crate) fn run(mut self) {
        // If this thread panics (a bug, not a data condition), close the
        // queue and open any still-queued barrier gates so clients get
        // `ServiceClosed` / a stale epoch instead of deadlocking forever.
        let _disconnect = DisconnectGuard {
            queue: Arc::clone(&self.queue),
            store: Arc::clone(&self.store),
        };
        let mut pending: Vec<EditOp> = Vec::new();
        let mut oldest_at: Option<Instant> = None;
        loop {
            let timeout = if pending.is_empty() {
                None
            } else {
                let age = oldest_at.map(|t| t.elapsed()).unwrap_or_default();
                self.policy.poll_timeout(pending.len(), age)
            };
            // Drain whole chunks per lock acquisition; command semantics
            // stay per-op (the policy sees every edit individually, and
            // barriers/shutdown act exactly where they sit in the order).
            let chunk = {
                let mut span = self.trace.span(names::QUEUE_DRAIN);
                let chunk = self.queue.pop_chunk(timeout);
                span.set_aux(chunk.len() as u64);
                chunk
            };
            if chunk.is_empty() && self.queue.is_closed() {
                // Closed and drained (shutdown command consumed by an
                // earlier iteration, or queue dropped).
                self.flush(&mut pending);
                self.publish_snapshot();
                return;
            }
            for cmd in chunk {
                match cmd {
                    Command::Edit(op) => {
                        if pending.is_empty() {
                            oldest_at = Some(Instant::now());
                        }
                        pending.push(op);
                        let age = oldest_at.map(|t| t.elapsed()).unwrap_or_default();
                        if self.policy.should_flush(pending.len(), age) {
                            self.flush(&mut pending);
                            oldest_at = None;
                            self.flushes_since_snapshot += 1;
                            if self.flushes_since_snapshot >= self.snapshot_every {
                                self.publish_snapshot();
                            }
                        }
                    }
                    Command::Barrier(gate) => {
                        // Opens on drop, so a panic mid-flush cannot strand
                        // the waiting client (it sees the pre-flush epoch
                        // instead).
                        let opener = OpenOnDrop {
                            gate,
                            store: Arc::clone(&self.store),
                        };
                        self.flush(&mut pending);
                        oldest_at = None;
                        self.publish_snapshot();
                        self.stats.update(|r| r.barriers += 1);
                        drop(opener); // open with the freshly published epoch
                    }
                    Command::Shutdown => {
                        self.flush(&mut pending);
                        self.publish_snapshot();
                        return;
                    }
                }
            }
            // Timed out (or drained) without a size flush: give the
            // policy's linger bound its say.
            let age = oldest_at.map(|t| t.elapsed()).unwrap_or_default();
            if self.policy.should_flush(pending.len(), age) {
                self.flush(&mut pending);
                oldest_at = None;
                self.flushes_since_snapshot += 1;
                if self.flushes_since_snapshot >= self.snapshot_every {
                    self.publish_snapshot();
                }
            }
        }
    }

    /// Apply the pending ops as one net batch, then let the engine fold
    /// the repair's slot changes into its edge-weight counters (so
    /// publish never re-merges a histogram).
    fn flush(&mut self, pending: &mut Vec<EditOp>) {
        if pending.is_empty() {
            return;
        }
        let _flush_span = self.trace.span_with(names::FLUSH, pending.len() as u64);
        let started = Instant::now();
        let resolve_span = self.trace.span(names::RESOLVE);
        let (batch, rejected) =
            resolve_ops_into(self.engine.graph(), pending, &mut self.resolve_scratch);
        drop(resolve_span);
        // Grow the vertex space only for inserts that survived net
        // resolution — an insert/delete pair referencing a huge fresh id
        // must not permanently inflate the graph.
        if let Some(m) = batch.insertions().iter().map(|&(_, v)| v).max() {
            if (m as usize) >= self.engine.graph().num_vertices() {
                self.engine.ensure_vertices(m as usize + 1);
            }
        }
        let applied = batch.len() as u64;
        // An empty batch repairs nothing and spans no dirty region.
        let (eta, dirty, dirty_span) = if batch.is_empty() {
            (0, 0, 0)
        } else {
            let _span = self.trace.span_with(names::REPAIR, applied);
            let (eta, dirty) = self.engine.apply(&batch, &self.stats);
            (eta, dirty, self.engine.graph().num_vertices() as u64)
        };
        self.stats.flushes.record(started.elapsed());
        self.stats.update(|r| {
            r.batches_flushed += 1;
            r.edits_applied += applied;
            r.edits_rejected += rejected;
            r.slots_repaired += eta;
            r.dirty_vertices += dirty;
            r.dirty_span += dirty_span;
        });
        // Upkeep runs after the flush is timed, so flush latency excludes
        // it; the engine records its own timing.
        if !batch.is_empty() {
            self.hubs.note_batch(&batch);
            self.engine.upkeep(&batch, &self.stats, &self.trace);
            // Only a batch that actually changed something warrants a new
            // epoch — a flush of fully-rejected ops must not make the next
            // barrier publish a duplicate snapshot.
            self.dirty_since_snapshot = true;
        }
        pending.clear();
    }

    /// Read weights off the streaming counters, re-threshold, and publish
    /// the next epoch. Skipped when no flush happened since the last
    /// publish (barriers on a quiet stream must not churn out identical
    /// epochs).
    fn publish_snapshot(&mut self) {
        self.flushes_since_snapshot = 0;
        if !self.dirty_since_snapshot {
            return;
        }
        self.dirty_since_snapshot = false;
        let publish_span = self.trace.span(names::PUBLISH);
        let started = Instant::now();
        let detection = DetectionResult {
            result: self.engine.refresh(&self.trace),
        };
        let roster_span = self.trace.span(names::PUBLISH_ROSTER);
        let snapshot = CommunitySnapshot::build(
            self.store.latest_epoch() + 1,
            self.engine.graph(),
            &detection,
            self.engine.batches_applied(),
        );
        self.store.publish(snapshot);
        drop(roster_span);
        // The snapshot histogram covers post-processing + build + swap
        // only, so close it before repartitioning.
        self.stats.snapshots.record(started.elapsed());
        // Sample the coordinator-resident memory gauges while the state
        // is quiescent; readers see them via the stats JSON.
        let mem = self.engine.mem_footprint();
        let vertices = self.engine.graph().num_vertices() as u64;
        // Re-shard around the communities just published: the ownership
        // map tracks the structure it serves, so cascade locality does
        // not decay as the graph drifts from the genesis partition.
        // Forming hubs (top degree gainers since the last repartition)
        // are pulled — spokes and all — onto single shards first.
        let max_degree_delta = self.hubs.max_degree_delta().max(0) as u64;
        let pulls = {
            let _span = self.trace.span(names::PUBLISH_MIGRATE);
            let pulls = self.hubs.take_hubs(self.engine.graph());
            self.engine
                .repartition(&detection.result.cover, &pulls, &self.stats);
            pulls.len() as u64
        };
        drop(publish_span);
        // Publish is the natural low-rate point to fold the recorder's
        // overwrite loss into the stats report.
        let dropped = self.trace.enabled().then(|| self.trace.dropped_records());
        self.stats.update(|r| {
            r.mem_live_bytes = mem.live_bytes as u64;
            r.mem_capacity_bytes = mem.capacity_bytes as u64;
            r.mem_vertices = vertices;
            r.max_degree_delta = max_degree_delta;
            r.hub_pulls += pulls;
            if let Some(dropped) = dropped {
                r.trace_dropped_records = dropped;
            }
        });
    }
}

/// Opens a barrier gate when dropped — normally with the freshly published
/// epoch, or (during a panic unwind) with whatever epoch is current so the
/// waiting client is released rather than stranded.
struct OpenOnDrop {
    gate: Arc<crate::queue::BarrierGate>,
    store: Arc<SnapshotStore>,
}

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.gate.open(self.store.latest_epoch());
    }
}

/// Runs when the maintenance loop exits — normally or by panic. Closes the
/// queue (later submissions get `ServiceClosed`) and opens every barrier
/// gate still queued so no client blocks forever.
struct DisconnectGuard {
    queue: Arc<EditQueue>,
    store: Arc<SnapshotStore>,
}

impl Drop for DisconnectGuard {
    fn drop(&mut self) {
        self.queue.close();
        while let Some(cmd) = self.queue.pop_wait(Some(std::time::Duration::ZERO)) {
            if let Command::Barrier(gate) = cmd {
                gate.open(self.store.latest_epoch());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> AdjacencyGraph {
        AdjacencyGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn resolve_ops_nets_out_cancelling_pairs() {
        let g = path_graph();
        let ops = [
            EditOp::Insert(0, 2),
            EditOp::Delete(0, 2), // cancels the insert
            EditOp::Delete(1, 2),
            EditOp::Insert(1, 2), // cancels the delete
            EditOp::Insert(0, 3),
        ];
        let (batch, rejected) = resolve_ops(&g, &ops);
        assert_eq!(batch.insertions(), &[(0, 3)]);
        assert!(batch.deletions().is_empty());
        assert_eq!(rejected, 0, "cancelling pairs are valid op sequences");
    }

    #[test]
    fn resolve_ops_counts_noops_as_rejected() {
        let g = path_graph();
        let ops = [
            EditOp::Insert(0, 1),  // already present
            EditOp::Delete(0, 3),  // absent
            EditOp::Insert(2, 2),  // self-loop
            EditOp::Delete(9, 10), // out-of-range delete
            EditOp::Insert(0, 1),  // still present
        ];
        let (batch, rejected) = resolve_ops(&g, &ops);
        assert!(batch.is_empty());
        assert_eq!(rejected, 5);
    }

    #[test]
    fn resolve_ops_duplicate_inserts_reject_the_second() {
        let g = path_graph();
        let ops = [EditOp::Insert(0, 2), EditOp::Insert(2, 0)];
        let (batch, rejected) = resolve_ops(&g, &ops);
        assert_eq!(batch.insertions(), &[(0, 2)]);
        assert_eq!(rejected, 1);
    }

    #[test]
    fn resolve_ops_batch_always_validates() {
        // Randomized churn: whatever op soup comes in, the net batch must
        // satisfy the strict EditBatch contract.
        let mut rng = rslpa_graph::DetRng::new(9);
        for _ in 0..200 {
            let g = path_graph();
            let ops: Vec<EditOp> = (0..20)
                .map(|_| {
                    let u = rng.bounded(5) as VertexId;
                    let v = rng.bounded(5) as VertexId;
                    if rng.bounded(2) == 0 {
                        EditOp::Insert(u, v)
                    } else {
                        EditOp::Delete(u, v)
                    }
                })
                .collect();
            let (batch, _) = resolve_ops(&g, &ops);
            // Inserts referencing vertex 4 are out of range for validate();
            // the loop grows the graph first, so mirror that here.
            let mut g2 = g.clone();
            while g2.num_vertices() < 5 {
                g2.add_vertex();
            }
            batch.validate(&g2).expect("net batch must validate");
        }
    }
}
