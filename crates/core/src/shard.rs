//! Per-shard Correction Propagation: the repair state one maintenance
//! shard owns, the boundary-exchange message protocol between shards, and
//! the peer-to-peer mailbox mesh the shards exchange over.
//!
//! The serve subsystem partitions the vertex space with a
//! [`Partitioner`]; each shard owns the adjacency rows, label sequences,
//! pick provenance and receiver records of *its* vertices, in dense
//! [`LabelState`] rows addressed by a local index. A shard repairs with the
//! same Algorithm-2 kernel as the single writer
//! ([`crate::incremental`]): Phase A over its affected vertices, then the
//! ascending iteration-bucket sweep. Only a correction that crosses a
//! partition boundary — a pick source or a receiver another shard owns —
//! becomes a [`ShardMsg`] addressed to the owner of the remote vertex.
//! The serve subsystem delivers them over **the peer-to-peer mailbox
//! mesh** ([`MailboxPort`]) in BSP supersteps: in round r every port
//! writes its outbox into shared mailbox cells, one cell per (round
//! parity, sender, receiver), and after the round's barrier each port
//! reads its own column in sender order, applies those envelopes, then
//! sweeps — so round r applies exactly the batches sent in round r (one
//! hop per envelope). Rounds synchronize on a shared sense-reversing
//! barrier ([`SenseBarrier`]) and terminate by a monotone sent-envelope
//! counter: **one** barrier wait per round, with the last arriver (the
//! leader) publishing the counter snapshot from inside the barrier's
//! pre-release closure. Nobody can be sending while the leader reads (all
//! ports have arrived), and nobody can read a stale snapshot (the release
//! publishes it), so all ports agree — without any coordinator traffic or
//! second barrier — on whether anything was sent and when to stop.
//!
//! [`ShardRepairState::exchange`] also accepts an inbox directly, so the
//! unit tests below can drive the shards round by round on one thread:
//! regroup every outbox by owner, hand each shard its inbox, repeat until
//! no envelope is left. That sequential driver is the reference the mesh
//! is checked against.
//!
//! The protocol is the same three-message scheme as the BSP vertex program
//! ([`crate::incremental_bsp`]): `Unrecord` detaches a stale receiver
//! record, `Fetch` registers a new pick and requests its label, `Value`
//! carries a corrected label guarded by its origin `(src, pos)` so stale
//! deliveries are dropped. Because every pick is a pure function of
//! `(seed, vertex, iteration, epoch)` and slot dependencies point strictly
//! backwards in iteration time (`pos < t`), the repaired fixed point is
//! unique — independent of shard count, message ordering and transport.
//! The tests below pin that claim against the single writer's
//! [`apply_correction`](crate::incremental::apply_correction) bit for bit,
//! for both the sequential driver and the mesh, and pin the work counts of
//! a one-shard state (no envelope exists there) to the single writer's.
//! Superstep delivery makes the path there deterministic as well: the
//! envelope, round, deferral and dirty-vertex counts of a flush are a
//! function of the batch sequence alone, whatever the thread schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use rslpa_graph::{AdjacencyGraph, Label, Partitioner, SlotDelta, VertexDelta, VertexId};
use rslpa_trace::{names, TraceWriter};

use crate::barrier::SenseBarrier;
use crate::config::DampingConfig;
use crate::incremental::{CascadeDamper, Flush, Kernel, Locality, UpdateReport};
use crate::state::{LabelState, Record, NO_SOURCE};

/// A boundary-exchange message between shards (same protocol as the BSP
/// correction program, carried in the mesh's mailbox cells instead of the
/// simulator's per-vertex mailboxes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardMsg {
    /// "Forget that I picked your slot `slot` for my iteration `k`."
    Unrecord {
        /// Slot at the (old) source.
        slot: u32,
        /// Iteration at the sender.
        k: u32,
    },
    /// "Register me for your slot `pos` and send me its label for my
    /// iteration `k`."
    Fetch {
        /// Requested slot at the destination.
        pos: u32,
        /// Iteration at the sender.
        k: u32,
    },
    /// A label value for the destination's slot `t`, read from the
    /// sender's slot `origin_pos` (staleness guard).
    Value {
        /// Slot at the destination this value fills.
        t: u32,
        /// Slot at the sender it was read from.
        origin_pos: u32,
        /// The label.
        label: Label,
    },
}

/// An addressed [`ShardMsg`]: the routing unit of the exchange protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Destination vertex (owner shard = `partitioner.assign(to)`).
    pub to: VertexId,
    /// Sending vertex.
    pub from: VertexId,
    /// Payload.
    pub msg: ShardMsg,
}

/// The full provenance rows of one vertex: what repartitioning moves
/// between shards. Nothing else ever crosses outside the message
/// protocol.
#[derive(Clone, Debug)]
pub struct VertexRowData {
    /// `T + 1` labels (`labels[0]` is the immutable initial label).
    pub labels: Vec<Label>,
    /// `(src, pos)` per pick slot, index `t - 1`.
    pub picks: Vec<(VertexId, u32)>,
    /// Repick epoch per slot, index `t - 1`.
    pub epochs: Vec<u32>,
    /// Receiver records of this vertex (who picked my slots).
    pub records: Vec<Record>,
    /// Sorted neighbor list (the shard-owned adjacency row).
    pub neighbors: Vec<VertexId>,
    /// Damping: sorted slots whose receivers may be out of date, awaiting
    /// a budgeted unmute release (empty without damping).
    pub pending: Vec<u32>,
}

impl VertexRowData {
    /// A fresh, isolated vertex: every slot repeats the own label.
    fn fresh(v: VertexId, t_max: usize) -> Self {
        Self {
            labels: vec![v as Label; t_max + 1],
            picks: vec![(NO_SOURCE, 0); t_max],
            epochs: vec![0; t_max],
            records: Vec::new(),
            neighbors: Vec::new(),
            pending: Vec::new(),
        }
    }
}

/// Marks a vertex id with no local row.
const VACANT: u32 = u32::MAX;

/// A shard's [`Locality`]: which local row holds which owned vertex, and
/// the owned vertices' adjacency rows.
struct ShardRows {
    /// Vertex id per local row (`NO_SOURCE` for a vacated row).
    ids: Vec<VertexId>,
    /// Local row per vertex id (`VACANT` unless this shard holds it).
    index: Vec<u32>,
    /// Sorted neighbor list per local row.
    adj: Vec<Vec<VertexId>>,
    /// Rows vacated by migration, reused before the arrays grow.
    free: Vec<u32>,
}

impl Locality for ShardRows {
    #[inline]
    fn local(&self, v: VertexId) -> Option<u32> {
        self.index.get(v as usize).copied().filter(|&i| i != VACANT)
    }

    #[inline]
    fn global(&self, i: u32) -> VertexId {
        self.ids[i as usize]
    }

    #[inline]
    fn neighbors(&self, i: u32) -> &[VertexId] {
        &self.adj[i as usize]
    }
}

/// Repair state owned by one maintenance shard.
pub struct ShardRepairState {
    shard: usize,
    partitioner: Arc<dyn Partitioner>,
    /// Labels, picks, epochs and receiver records of the owned vertices,
    /// one dense row each.
    state: LabelState,
    rows: ShardRows,
    /// Degree-capped cascade damping; `None` (default) forwards every
    /// correction immediately, like the paper's Algorithm 2.
    damper: Option<CascadeDamper>,
    /// The running flush's working sets (its distinct-slot and
    /// dirty-vertex counts span every exchange round).
    flush: Flush,
    /// Label-slot value changes since the last
    /// [`take_slot_deltas`](Self::take_slot_deltas), in application order
    /// — the stream a central
    /// [`EdgeCounters`](crate::edge_counters::EdgeCounters) consumes.
    slot_deltas: Vec<SlotDelta>,
}

impl ShardRepairState {
    /// Carve shard `shard`'s rows out of a globally propagated state.
    pub fn from_state(
        state: &LabelState,
        graph: &AdjacencyGraph,
        shard: usize,
        partitioner: Arc<dyn Partitioner>,
    ) -> Self {
        let n = state.num_vertices();
        let owned: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| partitioner.assign(v) == shard)
            .collect();
        let mut local = LabelState::new(owned.len(), state.iterations(), state.seed());
        let mut index = vec![VACANT; n];
        for (i, &v) in owned.iter().enumerate() {
            index[v as usize] = i as u32;
            local.set_row(
                i as VertexId,
                state.label_sequence(v),
                state.picks(v),
                state.epochs(v),
                state.records(v),
            );
        }
        let adj = owned.iter().map(|&v| graph.neighbors(v).to_vec()).collect();
        Self {
            shard,
            partitioner,
            state: local,
            rows: ShardRows {
                ids: owned,
                index,
                adj,
                free: Vec::new(),
            },
            damper: None,
            flush: Flush::new(state.iterations()),
            slot_deltas: Vec::new(),
        }
    }

    /// Enable (or disable) degree-capped cascade damping. Must be set
    /// identically on every shard of an engine, before the first flush.
    pub fn set_damping(&mut self, damping: Option<DampingConfig>) {
        self.damper = damping.map(CascadeDamper::new);
    }

    /// Shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Whether this shard owns `v` under the current partitioner.
    #[inline]
    pub fn owns(&self, v: VertexId) -> bool {
        self.partitioner.assign(v) == self.shard
    }

    /// Owner shard of `v` under the current partitioner.
    #[inline]
    pub fn owner_of(&self, v: VertexId) -> usize {
        self.partitioner.assign(v)
    }

    /// Start a flush: bring this shard's adjacency rows to the post-batch
    /// topology, then run the kernel's damping releases, Phase A and
    /// sweep; envelopes for other shards are appended to `out`. Every
    /// shard runs it once per flush, with an empty slice if no delta is
    /// routed to it: that also runs its damping releases, as the single
    /// writer does every flush.
    pub fn apply_deltas(
        &mut self,
        deltas: &[(VertexId, VertexDelta)],
        out: &mut Vec<Envelope>,
    ) -> UpdateReport {
        let t_max = self.state.iterations();
        let fresh: Vec<VertexId> = deltas
            .iter()
            .map(|&(v, _)| v)
            .filter(|&v| self.rows.local(v).is_none())
            .collect();
        self.reserve(fresh.len());
        for v in fresh {
            self.install(v, VertexRowData::fresh(v, t_max));
        }
        // Every muting decision of this flush — the release gate included
        // — reads post-batch degrees, like the single writer's
        // `graph_after`.
        for (v, delta) in deltas {
            debug_assert!(self.owns(*v), "delta routed to the wrong shard");
            let i = self.rows.local(*v).expect("the row was installed above");
            let row = &mut self.rows.adj[i as usize];
            for gone in &delta.removed {
                if let Ok(i) = row.binary_search(gone) {
                    row.remove(i);
                }
            }
            for new in &delta.added {
                if let Err(i) = row.binary_search(new) {
                    row.insert(i, *new);
                }
            }
        }
        self.flush.reset();
        let mut report = UpdateReport::default();
        let mut kernel = self.kernel(&mut report, out);
        kernel.phase_a(deltas.iter().map(|(v, delta)| (*v, delta)));
        kernel.sweep();
        report
    }

    /// Deliver a round of inbound envelopes (all addressed to owned
    /// vertices), sweep the cascade they start, and append outbound
    /// cross-shard envelopes to `out`.
    pub fn exchange(&mut self, inbox: Vec<Envelope>, out: &mut Vec<Envelope>) -> UpdateReport {
        let mut report = UpdateReport::default();
        let mut kernel = self.kernel(&mut report, out);
        kernel.receive(&inbox);
        kernel.sweep();
        report
    }

    fn kernel<'k>(
        &'k mut self,
        report: &'k mut UpdateReport,
        out: &'k mut Vec<Envelope>,
    ) -> Kernel<'k, ShardRows> {
        Kernel {
            rows: &self.rows,
            state: &mut self.state,
            damper: self.damper.as_mut(),
            flush: &mut self.flush,
            report,
            slot_deltas: &mut self.slot_deltas,
            out,
        }
    }

    /// Replace the ownership map (repartitioning). The caller is
    /// responsible for moving rows via [`extract_rows`](Self::extract_rows)
    /// / [`adopt_rows`](Self::adopt_rows) so that every vertex's row lives
    /// on its (new) owner exactly once.
    pub fn set_partitioner(&mut self, partitioner: Arc<dyn Partitioner>) {
        self.partitioner = partitioner;
    }

    /// Remove and return the rows of `ids` (vertices this shard no longer
    /// owns), parked damping slots included. Must only be called between
    /// flushes (no envelopes in flight).
    pub fn extract_rows(&mut self, ids: &[VertexId]) -> Vec<(VertexId, VertexRowData)> {
        debug_assert!(
            self.slot_deltas.is_empty(),
            "slot deltas must be drained before rows migrate"
        );
        ids.iter()
            .map(|&v| {
                let i = self.rows.local(v).expect("extracting a row we own");
                let row = VertexRowData {
                    labels: self.state.label_sequence(i).to_vec(),
                    picks: self.state.picks(i).collect(),
                    epochs: self.state.epochs(i).to_vec(),
                    records: self.state.records(i).to_vec(),
                    neighbors: std::mem::take(&mut self.rows.adj[i as usize]),
                    pending: self.damper.as_mut().map_or_else(Vec::new, |d| d.take(v)),
                };
                self.state.clear_records(i);
                self.rows.index[v as usize] = VACANT;
                self.rows.ids[i as usize] = NO_SOURCE;
                self.rows.free.push(i);
                (v, row)
            })
            .collect()
    }

    /// Install rows migrated from other shards into the rows
    /// [`extract_rows`](Self::extract_rows) vacated, then close the
    /// vacated rows left over, so a shard that exports rows shrinks.
    pub fn adopt_rows(&mut self, rows: Vec<(VertexId, VertexRowData)>) {
        debug_assert!(
            self.slot_deltas.is_empty(),
            "slot deltas must be drained before rows migrate"
        );
        self.reserve(rows.len());
        for (v, row) in rows {
            debug_assert!(self.owns(v), "adopting a row we do not own");
            self.install(v, row);
        }
        if !self.rows.free.is_empty() {
            self.compact();
        }
    }

    /// Move the last rows into the vacated ones, then truncate the arrays
    /// and hand their spare capacity back to the allocator.
    fn compact(&mut self) {
        let mut holes = std::mem::take(&mut self.rows.free);
        holes.sort_unstable();
        let rows = &mut self.rows;
        let mut len = rows.ids.len();
        for hole in holes {
            while len > 0 && rows.ids[len - 1] == NO_SOURCE {
                len -= 1;
            }
            if hole as usize >= len {
                break;
            }
            let last = len - 1;
            let v = std::mem::replace(&mut rows.ids[last], NO_SOURCE);
            self.state.move_row(last as u32, hole);
            rows.adj.swap(hole as usize, last);
            rows.ids[hole as usize] = v;
            rows.index[v as usize] = hole;
            len = last;
        }
        rows.ids.truncate(len);
        rows.ids.shrink_to_fit();
        rows.adj.truncate(len);
        rows.adj.shrink_to_fit();
        self.state.truncate(len);
    }

    /// Make room for `rows` more installs: vacated rows first, then exact
    /// growth (no doubling slack).
    fn reserve(&mut self, rows: usize) {
        let more = rows.saturating_sub(self.rows.free.len());
        self.state.reserve_rows(more);
        self.rows.ids.reserve_exact(more);
        self.rows.adj.reserve_exact(more);
    }

    /// Give `v` a local row holding `row`.
    fn install(&mut self, v: VertexId, row: VertexRowData) {
        debug_assert!(
            self.rows.local(v).is_none(),
            "installed row collides with a live one"
        );
        let i = self.rows.free.pop().unwrap_or_else(|| {
            let i = self.rows.ids.len();
            self.state.grow(i + 1);
            self.rows.ids.push(NO_SOURCE);
            self.rows.adj.push(Vec::new());
            i as u32
        });
        if self.rows.index.len() <= v as usize {
            self.rows.index.resize(v as usize + 1, VACANT);
        }
        self.rows.index[v as usize] = i;
        self.rows.ids[i as usize] = v;
        self.rows.adj[i as usize] = row.neighbors;
        self.state.set_row(
            i,
            &row.labels,
            row.picks.iter().copied(),
            &row.epochs,
            &row.records,
        );
        if let Some(d) = self.damper.as_mut() {
            d.restore(v, row.pending);
        }
    }

    /// Take the label-slot changes accumulated since the last call, in
    /// application order — the counter-maintenance stream for a central
    /// [`EdgeCounters`](crate::edge_counters::EdgeCounters) store.
    ///
    /// Must be drained **once per flush, before any row migration**: a
    /// vertex's deltas chain across drains only if the drains happen in
    /// emission order, and migration hands the vertex (and its future
    /// deltas) to a different shard. [`extract_rows`](Self::extract_rows)
    /// / [`adopt_rows`](Self::adopt_rows) assert the queue is empty.
    pub fn take_slot_deltas(&mut self) -> Vec<SlotDelta> {
        std::mem::take(&mut self.slot_deltas)
    }

    /// Copy this shard's rows back into a global [`LabelState`] (test and
    /// inspection support; `state` must be sized to cover the owned ids).
    pub fn export_into(&self, state: &mut LabelState) {
        for (v, &i) in self.rows.index.iter().enumerate() {
            if i != VACANT {
                state.set_row(
                    v as VertexId,
                    self.state.label_sequence(i),
                    self.state.picks(i),
                    self.state.epochs(i),
                    self.state.records(i),
                );
            }
        }
    }
}

/// Shared state of a peer-to-peer mailbox mesh: the round barrier, a
/// **monotone** count of envelopes ever written into mailbox cells, and
/// the cells themselves. The counter is never reset — each port diffs
/// successive snapshots — so no reset has to be ordered against anyone's
/// sends.
struct MeshCore {
    barrier: SenseBarrier,
    sent: AtomicU64,
    /// The round's agreed snapshot of `sent`, stored by the barrier leader
    /// inside the pre-release closure (so it is taken after every arrival,
    /// i.e. after every send of the round) and published to all ports by
    /// the barrier's release. Relaxed accesses suffice: the sense flip's
    /// release/acquire edge orders them.
    snapshot: AtomicU64,
    /// Port count.
    shards: usize,
    /// One mailbox cell per (round parity, sender, receiver), flat in that
    /// order. A sender writes its cell before the round's barrier, the
    /// receiver empties it after; the next write to the cell comes two
    /// rounds later, past the barrier that follows the read, so the locks
    /// are never contended.
    cells: Vec<Mutex<Vec<Envelope>>>,
}

impl MeshCore {
    /// The cell `from` writes for `to` in rounds of parity `parity`.
    fn cell(&self, parity: usize, from: usize, to: usize) -> MutexGuard<'_, Vec<Envelope>> {
        self.cells[(parity * self.shards + from) * self.shards + to]
            .lock()
            .expect("no port panics while holding a mailbox cell")
    }
}

/// Per-flush accounting of one port's mesh exchange (summable across
/// flushes; the serve layer folds these into its stats histograms).
#[derive(Clone, Debug, Default)]
pub struct MeshExchangeReport {
    /// Exchange rounds that delivered at least one envelope somewhere.
    pub rounds: u64,
    /// Envelopes this port sent.
    pub envelopes_sent: u64,
    /// Inbox depth (envelopes read) per delivering round.
    pub inbox_depths: Vec<u64>,
    /// Wall time this port spent parked on the round barrier
    /// (`barrier_arrive + barrier_depart`).
    pub barrier_wait: Duration,
    /// Barrier time spent waiting for stragglers to arrive (protocol /
    /// imbalance cost).
    pub barrier_arrive: Duration,
    /// Barrier time between the leader's release and this port actually
    /// resuming (wakeup/scheduling latency).
    pub barrier_depart: Duration,
    /// The mesh barrier was poisoned mid-exchange (a peer worker died);
    /// the session bailed out without reaching quiescence.
    pub poisoned: bool,
}

/// A cloneable handle that poisons a mesh's round barrier from any
/// thread. A dying worker (or the coordinator that noticed it die) uses
/// this to make sure no surviving peer stays parked on the barrier
/// waiting for an arrival that will never come.
#[derive(Clone)]
pub struct MeshPoisoner(Arc<MeshCore>);

impl MeshPoisoner {
    /// Poison the mesh barrier (idempotent, one-way).
    pub fn poison(&self) {
        self.0.barrier.poison();
    }
}

/// One shard's endpoint of the peer-to-peer mailbox mesh: its row and
/// column of the shared mailbox cells, the shared round barrier, and this
/// port's last sent-counter snapshot.
///
/// Every exchange session must involve **every** port of the mesh (the
/// barrier is sized to the shard count), and each session leaves all
/// ports with the same snapshot and every cell empty — the invariant that
/// lets the mesh be reused across flushes without a reset.
pub struct MailboxPort {
    shard: usize,
    core: Arc<MeshCore>,
    last_snapshot: u64,
    /// This port's private sense flag for the mesh barrier (flipped every
    /// round; see [`SenseBarrier`]). It flips on every port alike, so it
    /// doubles as the round parity that selects the mailbox cells.
    sense: bool,
    /// Flight-recorder handle for this port's lane (the owning worker
    /// thread's), attached by the serve layer; `None` leaves the port
    /// uninstrumented.
    trace: Option<TraceWriter>,
}

/// Build a fully-connected mailbox mesh for `shards` ports (index `i` of
/// the returned vector belongs to shard `i`).
pub fn build_mesh(shards: usize) -> Vec<MailboxPort> {
    let core = Arc::new(MeshCore {
        barrier: SenseBarrier::new(shards),
        sent: AtomicU64::new(0),
        snapshot: AtomicU64::new(0),
        shards,
        cells: (0..2 * shards * shards).map(|_| Mutex::default()).collect(),
    });
    (0..shards)
        .map(|shard| MailboxPort {
            shard,
            core: Arc::clone(&core),
            last_snapshot: 0,
            sense: false,
            trace: None,
        })
        .collect()
}

impl MailboxPort {
    /// Shard index this port belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Attach a flight-recorder handle. The writer must be bound to the
    /// lane of the thread that will drive this port — the lane rings are
    /// single-writer, and the port records from the owning worker thread.
    pub fn set_trace(&mut self, trace: TraceWriter) {
        self.trace = Some(trace);
    }

    /// Detachable poison handle for this port's mesh: poisons the round
    /// barrier without borrowing the port, so a coordinator (or a worker's
    /// panic guard) can unblock parked peers from another thread.
    pub fn poisoner(&self) -> MeshPoisoner {
        MeshPoisoner(Arc::clone(&self.core))
    }

    /// Drive boundary exchange to quiescence in BSP supersteps. `first_out`
    /// is this shard's Phase-A outbox; corrections received along the way
    /// are applied to `state` and their follow-up envelopes sent in the
    /// next round.
    ///
    /// Round protocol (identical on every port, which is what keeps the
    /// barrier deadlock-free):
    ///
    /// 1. **send** — group the staged outbox by owner shard, write each
    ///    peer's batch into this round's cell for it, and add the envelope
    ///    count to the shared monotone counter;
    /// 2. **one barrier wait** — the last arriver (leader) copies the
    ///    shared counter into the round-snapshot slot *inside the
    ///    pre-release closure*: every send of the round is already counted
    ///    (its port has arrived), no port can be sending (none released),
    ///    and the release publishes the snapshot — and every cell written
    ///    before it — to every port;
    /// 3. if the snapshot did not advance, nobody sent anything this round
    ///    and every earlier round's batches were read in their own round:
    ///    **quiescent**. Otherwise read this round's cells addressed to
    ///    this port in sender order, apply them
    ///    ([`ShardRepairState::exchange`]), and loop.
    ///
    /// Round r therefore applies exactly the batches sent in round r, in
    /// an order fixed by the senders' outboxes, so the rounds, envelope
    /// counts and transient labels of a flush do not depend on the thread
    /// schedule. Cells alternate by round parity: a peer already sending
    /// round r+1 writes the other parity, and a cell is written again only
    /// after every port has passed the barrier that follows its read.
    ///
    /// If the mesh barrier is poisoned (a peer worker panicked), the
    /// session bails out with `poisoned` set instead of waiting for an
    /// arrival that will never come.
    pub fn exchange_to_quiescence(
        &mut self,
        state: &mut ShardRepairState,
        first_out: Vec<Envelope>,
        report: &mut UpdateReport,
    ) -> MeshExchangeReport {
        let mut mesh = MeshExchangeReport::default();
        let mut staged = first_out;
        loop {
            let core = &*self.core;
            if core.barrier.is_poisoned() {
                mesh.poisoned = true;
                return mesh;
            }
            let parity = usize::from(self.sense);
            let mut by_peer: Vec<Vec<Envelope>> = vec![Vec::new(); core.shards];
            for env in staged.drain(..) {
                let owner = state.owner_of(env.to);
                debug_assert_ne!(owner, self.shard, "boundary envelope addressed to self");
                by_peer[owner].push(env);
            }
            let mut sent_now = 0u64;
            for (peer, mut batch) in by_peer.into_iter().enumerate() {
                if !batch.is_empty() {
                    sent_now += batch.len() as u64;
                    core.cell(parity, self.shard, peer).append(&mut batch);
                }
            }
            mesh.envelopes_sent += sent_now;
            if sent_now > 0 {
                core.sent.fetch_add(sent_now, Ordering::Release);
            }
            let bw_t0 = self
                .trace
                .as_ref()
                .filter(|t| t.enabled())
                .map(|t| t.now_ns());
            // Single barrier: the leader snapshots the sent counter in the
            // pre-release slot (all arrived, none released), and the
            // release's happens-before edge makes both the snapshot and
            // every round send (cell write + counter add sequenced before
            // the sender's arrival) visible to every port.
            let wait = core.barrier.wait_then(&mut self.sense, || {
                core.snapshot
                    .store(core.sent.load(Ordering::Acquire), Ordering::Relaxed);
            });
            if wait.poisoned {
                mesh.poisoned = true;
                return mesh;
            }
            let snapshot = core.snapshot.load(Ordering::Relaxed);
            mesh.barrier_wait += wait.total();
            mesh.barrier_arrive += wait.arrive;
            mesh.barrier_depart += wait.depart;
            if let (Some(t), Some(t0)) = (&self.trace, bw_t0) {
                let arrive_ns = wait.arrive.as_nanos() as u64;
                let depart_ns = wait.depart.as_nanos() as u64;
                // The total barrier_wait span, plus its two phases as
                // adjacent sub-spans (arrive then depart).
                t.record_span(
                    names::BARRIER_WAIT,
                    t0,
                    t.now_ns().saturating_sub(t0),
                    mesh.rounds,
                );
                t.record_span(names::BARRIER_ARRIVE, t0, arrive_ns, mesh.rounds);
                t.record_span(
                    names::BARRIER_DEPART,
                    t0 + arrive_ns,
                    depart_ns,
                    mesh.rounds,
                );
            }
            let round_sent = snapshot - self.last_snapshot;
            self.last_snapshot = snapshot;
            if round_sent == 0 {
                debug_assert!(
                    (0..core.shards).all(|from| core.cell(parity, from, self.shard).is_empty()),
                    "mesh quiescent with undelivered envelopes"
                );
                return mesh;
            }
            mesh.rounds += 1;
            let round_t0 = self
                .trace
                .as_ref()
                .filter(|t| t.enabled())
                .map(|t| t.now_ns());
            let mut inbound: Vec<Envelope> = Vec::new();
            for from in 0..core.shards {
                inbound.append(&mut core.cell(parity, from, self.shard));
            }
            let drained = inbound.len() as u64;
            mesh.inbox_depths.push(drained);
            if !inbound.is_empty() {
                report.absorb(&state.exchange(inbound, &mut staged));
            }
            if let (Some(t), Some(t0)) = (&self.trace, round_t0) {
                t.record_span(
                    names::EXCHANGE_ROUND,
                    t0,
                    t.now_ns().saturating_sub(t0),
                    drained,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::apply_correction;
    use crate::propagation::run_propagation;
    use crate::verify::check_consistency;
    use rslpa_graph::compact_slot_deltas;
    use rslpa_graph::{DynamicGraph, EditBatch, HashPartitioner};

    /// Drive a set of shards over one applied batch until quiescence,
    /// mirroring what the serve coordinator does (including the per-flush
    /// slot-delta drain). Returns the flush report; the drained deltas
    /// are discarded here — `run_shards_streaming` keeps them.
    fn run_shards(
        shards: &mut [ShardRepairState],
        partitioner: &dyn Partitioner,
        applied: &rslpa_graph::AppliedBatch,
    ) -> UpdateReport {
        run_shards_streaming(shards, partitioner, applied).0
    }

    fn run_shards_streaming(
        shards: &mut [ShardRepairState],
        partitioner: &dyn Partitioner,
        applied: &rslpa_graph::AppliedBatch,
    ) -> (UpdateReport, Vec<SlotDelta>) {
        let per_shard = rslpa_graph::sharding::split_deltas(applied, partitioner);
        let mut total = UpdateReport::default();
        let mut outbox = Vec::new();
        for (shard, deltas) in shards.iter_mut().zip(&per_shard) {
            total.absorb(&shard.apply_deltas(deltas, &mut outbox));
        }
        while !outbox.is_empty() {
            let mut inboxes: Vec<Vec<Envelope>> = vec![Vec::new(); shards.len()];
            for env in outbox.drain(..) {
                inboxes[partitioner.assign(env.to)].push(env);
            }
            for (shard, inbox) in shards.iter_mut().zip(inboxes) {
                if !inbox.is_empty() {
                    total.absorb(&shard.exchange(inbox, &mut outbox));
                }
            }
        }
        // Drain the flush's slot-delta stream the way the serve
        // coordinator does (before any migration can happen). Shard
        // concatenation order is irrelevant to counter maintenance — one
        // vertex's deltas all come from its single owner shard.
        let mut deltas = Vec::new();
        for shard in shards.iter_mut() {
            deltas.extend(shard.take_slot_deltas());
        }
        (total, deltas)
    }

    fn assemble(shards: &[ShardRepairState], n: usize, t_max: usize, seed: u64) -> LabelState {
        let mut state = LabelState::new(n, t_max, seed);
        for shard in shards {
            shard.export_into(&mut state);
        }
        state
    }

    fn compare_states(a: &LabelState, b: &LabelState, n: usize, t_max: u32) {
        for v in 0..n as VertexId {
            assert_eq!(
                a.label_sequence(v),
                b.label_sequence(v),
                "labels differ at {v}"
            );
            for t in 1..=t_max {
                assert_eq!(a.pick(v, t), b.pick(v, t), "picks differ at ({v}, {t})");
                assert_eq!(a.epoch(v, t), b.epoch(v, t), "epochs differ at ({v}, {t})");
            }
        }
        assert_eq!(a.total_records(), b.total_records());
    }

    fn cube_graph() -> AdjacencyGraph {
        AdjacencyGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
                (0, 4),
                (2, 6),
            ],
        )
    }

    /// The single writer's undamped repair of one batch.
    fn central_repair(
        state: &mut LabelState,
        graph: &AdjacencyGraph,
        applied: &rslpa_graph::AppliedBatch,
    ) -> Vec<SlotDelta> {
        let mut deltas = Vec::new();
        apply_correction(state, graph, applied, None, &mut deltas);
        deltas
    }

    /// A slot-change stream's net movement, in a canonical order.
    fn net(deltas: &[SlotDelta]) -> Vec<SlotDelta> {
        let mut net = compact_slot_deltas(deltas);
        net.sort_unstable_by_key(|d| (d.v, d.slot));
        net
    }

    fn exercise(batch: EditBatch, seed: u64, parts: usize) {
        let t_max = 10usize;
        let mut dg = DynamicGraph::new(cube_graph());
        let state0 = run_propagation(dg.graph(), t_max, seed);
        let applied = dg.apply(&batch).unwrap();

        let mut central = state0.clone();
        central_repair(&mut central, dg.graph(), &applied);

        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
        let pre_batch = cube_graph(); // pre-batch adjacency
        let mut shards: Vec<ShardRepairState> = (0..parts)
            .map(|s| ShardRepairState::from_state(&state0, &pre_batch, s, Arc::clone(&partitioner)))
            .collect();
        run_shards(&mut shards, partitioner.as_ref(), &applied);
        let sharded = assemble(&shards, 8, t_max, seed);
        check_consistency(&sharded, dg.graph()).unwrap();
        compare_states(&central, &sharded, 8, t_max as u32);
    }

    #[test]
    fn matches_centralized_on_deletion() {
        for seed in 0..5 {
            for parts in [1, 2, 4] {
                exercise(EditBatch::from_lists([], [(0, 1)]), seed, parts);
            }
        }
    }

    #[test]
    fn matches_centralized_on_insertion() {
        for seed in 0..5 {
            for parts in [1, 2, 4] {
                exercise(EditBatch::from_lists([(1, 5)], []), seed, parts);
            }
        }
    }

    #[test]
    fn matches_centralized_on_mixed_batch() {
        for seed in 0..5 {
            for parts in [1, 2, 4] {
                exercise(
                    EditBatch::from_lists([(1, 7), (3, 5)], [(0, 1), (5, 6)]),
                    seed,
                    parts,
                );
            }
        }
    }

    #[test]
    fn multi_batch_continuity_across_shard_counts() {
        // Apply a sequence of batches; shard repair must stay bit-aligned
        // with the centralized state at every step, for every shard count.
        let t_max = 8usize;
        let seed = 5u64;
        let batches = [
            EditBatch::from_lists([(0, 2)], [(3, 0)]),
            EditBatch::from_lists([(1, 3)], [(0, 2)]),
            EditBatch::from_lists([(0, 6), (3, 7)], [(4, 5)]),
        ];
        for parts in [1, 2, 4] {
            let mut dg_c = DynamicGraph::new(cube_graph());
            let mut central = run_propagation(dg_c.graph(), t_max, seed);
            let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
            let mut shards: Vec<ShardRepairState> = (0..parts)
                .map(|s| {
                    ShardRepairState::from_state(
                        &central,
                        dg_c.graph(),
                        s,
                        Arc::clone(&partitioner),
                    )
                })
                .collect();
            for batch in &batches {
                let applied = dg_c.apply(batch).unwrap();
                central_repair(&mut central, dg_c.graph(), &applied);
                run_shards(&mut shards, partitioner.as_ref(), &applied);
                let sharded = assemble(&shards, 8, t_max, seed);
                compare_states(&central, &sharded, 8, t_max as u32);
            }
        }
    }

    #[test]
    fn migration_between_batches_preserves_bit_equality() {
        // Repartition mid-stream (extract + adopt + new ownership map) and
        // keep repairing: the final state must still match the
        // centralized reference bit for bit.
        let t_max = 8usize;
        let seed = 7u64;
        let parts = 3usize;
        let mut dg_c = DynamicGraph::new(cube_graph());
        let mut central = run_propagation(dg_c.graph(), t_max, seed);
        let p_old: Arc<dyn Partitioner> = Arc::new(HashPartitioner::with_seed(parts, 1));
        let mut shards: Vec<ShardRepairState> = (0..parts)
            .map(|s| ShardRepairState::from_state(&central, dg_c.graph(), s, Arc::clone(&p_old)))
            .collect();

        let batch1 = EditBatch::from_lists([(0, 2)], [(6, 7)]);
        let applied = dg_c.apply(&batch1).unwrap();
        central_repair(&mut central, dg_c.graph(), &applied);
        run_shards(&mut shards, p_old.as_ref(), &applied);

        // Migrate to a different ownership map, the way the coordinator
        // does between flushes.
        let p_new: Arc<dyn Partitioner> = Arc::new(HashPartitioner::with_seed(parts, 99));
        let mut in_flight: Vec<Vec<(VertexId, VertexRowData)>> = vec![Vec::new(); parts];
        for shard in shards.iter_mut() {
            let leaving: Vec<VertexId> = (0..8u32)
                .filter(|&v| p_old.assign(v) == shard.shard() && p_new.assign(v) != shard.shard())
                .collect();
            for (v, row) in shard.extract_rows(&leaving) {
                in_flight[p_new.assign(v)].push((v, row));
            }
        }
        for (shard, rows) in shards.iter_mut().zip(in_flight) {
            shard.set_partitioner(Arc::clone(&p_new));
            shard.adopt_rows(rows);
        }

        let batch2 = EditBatch::from_lists([(1, 6), (5, 7)], [(0, 2)]);
        let applied = dg_c.apply(&batch2).unwrap();
        central_repair(&mut central, dg_c.graph(), &applied);
        run_shards(&mut shards, p_new.as_ref(), &applied);
        let sharded = assemble(&shards, 8, t_max, seed);
        compare_states(&central, &sharded, 8, t_max as u32);
    }

    #[test]
    fn fresh_vertex_attaches_identically() {
        // Vertex 8 does not exist at propagation time; the shard creates
        // its row lazily and must land exactly where the centralized
        // grow-then-repair path lands.
        let t_max = 9usize;
        let seed = 11u64;
        let mut dg = DynamicGraph::new(cube_graph());
        let state0 = run_propagation(dg.graph(), t_max, seed);
        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(3));
        let mut shards: Vec<ShardRepairState> = (0..3)
            .map(|s| ShardRepairState::from_state(&state0, dg.graph(), s, Arc::clone(&partitioner)))
            .collect();

        let mut central = state0.clone();
        dg.ensure_vertices(9);
        central.grow(9);
        let applied = dg
            .apply(&EditBatch::from_lists([(8, 0), (8, 5)], []))
            .unwrap();
        central_repair(&mut central, dg.graph(), &applied);
        run_shards(&mut shards, partitioner.as_ref(), &applied);
        let sharded = assemble(&shards, 9, t_max, seed);
        compare_states(&central, &sharded, 9, t_max as u32);
    }

    #[test]
    fn sharded_slot_deltas_match_centralized_net_movement() {
        // The coordinator feeds shard-emitted deltas to a central counter
        // store; their compacted net effect must equal the centralized
        // engine's, whatever the shard count or message interleaving.
        for seed in 0..4u64 {
            for parts in [1usize, 2, 4] {
                let t_max = 10usize;
                let mut dg = DynamicGraph::new(cube_graph());
                let state0 = run_propagation(dg.graph(), t_max, seed);
                let applied = dg
                    .apply(&EditBatch::from_lists([(1, 7), (3, 5)], [(0, 1), (5, 6)]))
                    .unwrap();

                let mut central = state0.clone();
                let central_deltas = central_repair(&mut central, dg.graph(), &applied);

                let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
                let pre_batch = cube_graph();
                let mut shards: Vec<ShardRepairState> = (0..parts)
                    .map(|s| {
                        ShardRepairState::from_state(
                            &state0,
                            &pre_batch,
                            s,
                            Arc::clone(&partitioner),
                        )
                    })
                    .collect();
                let (_, sharded_deltas) =
                    run_shards_streaming(&mut shards, partitioner.as_ref(), &applied);

                assert_eq!(
                    net(&central_deltas),
                    net(&sharded_deltas),
                    "net slot movement diverged at {parts} shards (seed {seed})"
                );
            }
        }
    }

    /// Drive one applied batch through real worker threads exchanging
    /// over a [`MailboxPort`] mesh (no coordinator in the loop).
    fn run_shards_mesh(
        shards: Vec<ShardRepairState>,
        applied: &rslpa_graph::AppliedBatch,
        partitioner: &dyn Partitioner,
    ) -> (Vec<ShardRepairState>, UpdateReport, Vec<SlotDelta>) {
        let per_shard = rslpa_graph::sharding::split_deltas(applied, partitioner);
        let ports = build_mesh(shards.len());
        let mut joined: Vec<(usize, ShardRepairState, UpdateReport, Vec<SlotDelta>)> =
            std::thread::scope(|s| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .zip(ports)
                    .zip(&per_shard)
                    .map(|((mut shard, mut port), deltas)| {
                        s.spawn(move || {
                            let mut out = Vec::new();
                            let mut report = shard.apply_deltas(deltas, &mut out);
                            port.exchange_to_quiescence(&mut shard, out, &mut report);
                            let deltas = shard.take_slot_deltas();
                            (port.shard(), shard, report, deltas)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("mesh worker"))
                    .collect()
            });
        joined.sort_unstable_by_key(|(idx, ..)| *idx);
        let mut total = UpdateReport::default();
        let mut all_deltas = Vec::new();
        let shards = joined
            .into_iter()
            .map(|(_, shard, report, deltas)| {
                total.absorb(&report);
                all_deltas.extend(deltas);
                shard
            })
            .collect();
        (shards, total, all_deltas)
    }

    #[test]
    fn mesh_exchange_matches_centralized_and_coordinator_paths() {
        for seed in 0..5u64 {
            for parts in [1usize, 2, 4] {
                let t_max = 10usize;
                let batch = EditBatch::from_lists([(1, 7), (3, 5)], [(0, 1), (5, 6)]);
                let mut dg = DynamicGraph::new(cube_graph());
                let state0 = run_propagation(dg.graph(), t_max, seed);
                let applied = dg.apply(&batch).unwrap();

                let mut central = state0.clone();
                central_repair(&mut central, dg.graph(), &applied);

                let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
                let pre_batch = cube_graph();
                let shards: Vec<ShardRepairState> = (0..parts)
                    .map(|s| {
                        ShardRepairState::from_state(
                            &state0,
                            &pre_batch,
                            s,
                            Arc::clone(&partitioner),
                        )
                    })
                    .collect();
                let (shards, report, _) = run_shards_mesh(shards, &applied, partitioner.as_ref());
                let meshed = assemble(&shards, 8, t_max, seed);
                check_consistency(&meshed, dg.graph()).unwrap();
                compare_states(&central, &meshed, 8, t_max as u32);
                if parts == 1 {
                    assert_eq!(report.boundary_msgs, 0);
                }
            }
        }
    }

    #[test]
    fn mesh_survives_consecutive_flushes_without_reset() {
        // The monotone sent counter is never reset; a second flush over
        // the same mesh must terminate and stay bit-identical.
        let t_max = 8usize;
        let seed = 3u64;
        let parts = 3usize;
        let batches = [
            EditBatch::from_lists([(0, 2)], [(3, 0)]),
            EditBatch::from_lists([(1, 3)], [(0, 2)]),
        ];
        let mut dg = DynamicGraph::new(cube_graph());
        let mut central = run_propagation(dg.graph(), t_max, seed);
        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
        let mut shards: Vec<ShardRepairState> = (0..parts)
            .map(|s| {
                ShardRepairState::from_state(&central, dg.graph(), s, Arc::clone(&partitioner))
            })
            .collect();
        // One mesh, reused across flushes the way the serve engine does.
        let mut ports = build_mesh(parts);
        for batch in &batches {
            let applied = dg.apply(batch).unwrap();
            central_repair(&mut central, dg.graph(), &applied);
            let per_shard = rslpa_graph::sharding::split_deltas(&applied, partitioner.as_ref());
            std::thread::scope(|s| {
                for ((shard, port), deltas) in
                    shards.iter_mut().zip(ports.iter_mut()).zip(&per_shard)
                {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut report = shard.apply_deltas(deltas, &mut out);
                        port.exchange_to_quiescence(shard, out, &mut report);
                        shard.take_slot_deltas();
                    });
                }
            });
            let meshed = assemble(&shards, 8, t_max, seed);
            compare_states(&central, &meshed, 8, t_max as u32);
        }
    }

    /// A 10-spoke hub (vertex 0) with a ring through the spokes — degree
    /// 10 at the hub, ≥ 3 elsewhere, so a small cap makes the hub (and
    /// only the hub) defer.
    fn hub_graph() -> AdjacencyGraph {
        let mut edges: Vec<(VertexId, VertexId)> = (1..=10).map(|i| (0, i)).collect();
        edges.extend((1..10).map(|i| (i, i + 1)));
        AdjacencyGraph::from_edges(11, edges)
    }

    /// The centralized damped reference: per-batch states for a script,
    /// and per batch the number of vertices the damper holds parked.
    fn central_damped_script(
        batches: &[EditBatch],
        seed: u64,
        t_max: usize,
        cfg: DampingConfig,
    ) -> (Vec<LabelState>, Vec<usize>) {
        let mut dg = DynamicGraph::new(hub_graph());
        let mut state = run_propagation(dg.graph(), t_max, seed);
        let mut damper = crate::incremental::CascadeDamper::new(cfg);
        batches
            .iter()
            .map(|batch| {
                let applied = dg.apply(batch).unwrap();
                apply_correction(
                    &mut state,
                    dg.graph(),
                    &applied,
                    Some(&mut damper),
                    &mut Vec::new(),
                );
                (state.clone(), damper.pending_vertices())
            })
            .unzip()
    }

    fn damped_script() -> Vec<EditBatch> {
        vec![
            EditBatch::from_lists([], [(0, 3)]),
            EditBatch::from_lists([(0, 3), (2, 9)], [(0, 7)]),
            EditBatch::from_lists([(0, 7)], [(1, 2)]),
            // Pure-release flushes: pending hub slots drain on a budget.
            EditBatch::new(),
            EditBatch::new(),
            EditBatch::new(),
        ]
    }

    #[test]
    fn damped_repair_matches_centralized_across_shard_counts() {
        // The damped fixed point after every flush — including
        // budget-limited partial releases mid-drain — must be a pure
        // function of the batch sequence, whatever the shard count.
        let cfg = DampingConfig {
            degree_cap: 4,
            flush_budget: 3,
        };
        let t_max = 10usize;
        let batches = damped_script();
        for seed in 0..4u64 {
            let (reference, _) = central_damped_script(&batches, seed, t_max, cfg);
            for parts in [1usize, 2, 4, 8] {
                let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
                let state0 = run_propagation(&hub_graph(), t_max, seed);
                let mut shards: Vec<ShardRepairState> = (0..parts)
                    .map(|s| {
                        let mut sh = ShardRepairState::from_state(
                            &state0,
                            &hub_graph(),
                            s,
                            Arc::clone(&partitioner),
                        );
                        sh.set_damping(Some(cfg));
                        sh
                    })
                    .collect();
                let mut dg = DynamicGraph::new(hub_graph());
                let mut deferred = 0usize;
                for (i, batch) in batches.iter().enumerate() {
                    let applied = dg.apply(batch).unwrap();
                    let report = run_shards(&mut shards, partitioner.as_ref(), &applied);
                    deferred += report.damped_deferrals;
                    let sharded = assemble(&shards, 11, t_max, seed);
                    compare_states(&reference[i], &sharded, 11, t_max as u32);
                }
                assert!(
                    deferred > 0,
                    "hub degree 10 over cap 4 must defer (seed {seed}, {parts} shards)"
                );
            }
        }
    }

    #[test]
    fn damped_repair_matches_centralized_over_the_mesh() {
        let cfg = DampingConfig {
            degree_cap: 4,
            flush_budget: 3,
        };
        let t_max = 10usize;
        let batches = damped_script();
        for seed in 0..3u64 {
            let (reference, _) = central_damped_script(&batches, seed, t_max, cfg);
            for parts in [2usize, 4] {
                let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
                let state0 = run_propagation(&hub_graph(), t_max, seed);
                let mut shards: Vec<ShardRepairState> = (0..parts)
                    .map(|s| {
                        let mut sh = ShardRepairState::from_state(
                            &state0,
                            &hub_graph(),
                            s,
                            Arc::clone(&partitioner),
                        );
                        sh.set_damping(Some(cfg));
                        sh
                    })
                    .collect();
                let mut dg = DynamicGraph::new(hub_graph());
                for (i, batch) in batches.iter().enumerate() {
                    let applied = dg.apply(batch).unwrap();
                    let (back, _, _) = run_shards_mesh(shards, &applied, partitioner.as_ref());
                    shards = back;
                    let meshed = assemble(&shards, 11, t_max, seed);
                    compare_states(&reference[i], &meshed, 11, t_max as u32);
                }
            }
        }
    }

    #[test]
    fn pending_rows_survive_migration_bit_exactly() {
        // Repartition mid-drain — while hub slots are still parked — and
        // keep flushing: parked entries must travel with their rows.
        let cfg = DampingConfig {
            degree_cap: 4,
            flush_budget: 2,
        };
        let t_max = 10usize;
        let seed = 9u64;
        let parts = 3usize;
        let batches = damped_script();
        let (reference, parked) = central_damped_script(&batches, seed, t_max, cfg);
        // Every shard count matches the centralized damper, whose parked
        // vertices are the pending rows the migration below must carry.
        assert!(parked[1] > 0, "script must leave pending work at batch 1");

        let p_old: Arc<dyn Partitioner> = Arc::new(HashPartitioner::with_seed(parts, 1));
        let state0 = run_propagation(&hub_graph(), t_max, seed);
        let mut shards: Vec<ShardRepairState> = (0..parts)
            .map(|s| {
                let mut sh =
                    ShardRepairState::from_state(&state0, &hub_graph(), s, Arc::clone(&p_old));
                sh.set_damping(Some(cfg));
                sh
            })
            .collect();
        let mut dg = DynamicGraph::new(hub_graph());
        for (i, batch) in batches.iter().enumerate() {
            let applied = dg.apply(batch).unwrap();
            run_shards(&mut shards, p_old.as_ref(), &applied);
            compare_states(
                &reference[i],
                &assemble(&shards, 11, t_max, seed),
                11,
                t_max as u32,
            );
            if i == 1 {
                // Mid-drain migration: the hub has parked slots here.
                let p_new: Arc<dyn Partitioner> = Arc::new(HashPartitioner::with_seed(parts, 99));
                let mut in_flight: Vec<Vec<(VertexId, VertexRowData)>> = vec![Vec::new(); parts];
                for shard in shards.iter_mut() {
                    let leaving: Vec<VertexId> = (0..11u32)
                        .filter(|&v| {
                            p_old.assign(v) == shard.shard() && p_new.assign(v) != shard.shard()
                        })
                        .collect();
                    for (v, row) in shard.extract_rows(&leaving) {
                        in_flight[p_new.assign(v)].push((v, row));
                    }
                }
                for (shard, rows) in shards.iter_mut().zip(in_flight) {
                    shard.set_partitioner(Arc::clone(&p_new));
                    shard.adopt_rows(rows);
                }
                // Later flushes run under the new map.
                return pending_migration_tail(
                    shards,
                    p_new,
                    dg,
                    &batches[2..],
                    &reference[2..],
                    t_max,
                    seed,
                );
            }
        }
    }

    /// Continuation of [`pending_rows_survive_migration_bit_exactly`]
    /// after the mid-drain repartition.
    fn pending_migration_tail(
        mut shards: Vec<ShardRepairState>,
        partitioner: Arc<dyn Partitioner>,
        mut dg: DynamicGraph,
        batches: &[EditBatch],
        reference: &[LabelState],
        t_max: usize,
        seed: u64,
    ) {
        for (i, batch) in batches.iter().enumerate() {
            let applied = dg.apply(batch).unwrap();
            run_shards(&mut shards, partitioner.as_ref(), &applied);
            compare_states(
                &reference[i],
                &assemble(&shards, 11, t_max, seed),
                11,
                t_max as u32,
            );
        }
    }

    #[test]
    fn damped_cap_crossing_churn_matches_centralized() {
        // Drive the hub over and back under the cap repeatedly (burst /
        // calm cycles) with random peripheral churn mixed in: the
        // sharded damped state must track the centralized damped
        // reference bit for bit at every flush, including the unmute
        // release windows. (Regression: full-scale skew_burst first
        // diverged at the window where a burst vertex dropped back
        // under the cap.)
        let t_max = 8usize;
        for seed in 0..6u64 {
            let batches = cap_crossing_script(seed);
            let (reference, _) = central_damped_script(&batches, seed, t_max, CAP_CROSSING);
            for parts in [2usize, 3, 4] {
                let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
                let state0 = run_propagation(&hub_graph(), t_max, seed);
                let mut shards: Vec<ShardRepairState> = (0..parts)
                    .map(|s| {
                        let mut sh = ShardRepairState::from_state(
                            &state0,
                            &hub_graph(),
                            s,
                            Arc::clone(&partitioner),
                        );
                        sh.set_damping(Some(CAP_CROSSING));
                        sh
                    })
                    .collect();
                let mut dg = DynamicGraph::new(hub_graph());
                for (i, batch) in batches.iter().enumerate() {
                    let applied = dg.apply(batch).unwrap();
                    run_shards(&mut shards, partitioner.as_ref(), &applied);
                    let sharded = assemble(&shards, 11, t_max, seed);
                    compare_states(&reference[i], &sharded, 11, t_max as u32);
                }
            }
        }
    }

    /// The damping of [`cap_crossing_script`]: cap 4, budget 2.
    const CAP_CROSSING: DampingConfig = DampingConfig {
        degree_cap: 4,
        flush_budget: 2,
    };

    /// Twelve windows that drive the hub of [`hub_graph`] over and back
    /// under the cap (burst / calm cycles), each with one random
    /// peripheral toggle.
    fn cap_crossing_script(seed: u64) -> Vec<EditBatch> {
        let mut rng_state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut rng = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        // Script the windows against a shadow graph.
        let mut shadow = DynamicGraph::new(hub_graph());
        let mut batches = Vec::new();
        for w in 0..12usize {
            let mut ins: Vec<(VertexId, VertexId)> = Vec::new();
            let mut del: Vec<(VertexId, VertexId)> = Vec::new();
            let g = shadow.graph();
            if w % 4 < 2 {
                // Burst: wire the hub to every current non-neighbor.
                for u in 1..11u32 {
                    if g.neighbors(0).binary_search(&u).is_err() {
                        ins.push((0, u));
                    }
                }
            } else {
                // Calm: unwire every other hub edge.
                for (i, &u) in g.neighbors(0).iter().enumerate() {
                    if i % 2 == w % 2 {
                        del.push((0, u));
                    }
                }
            }
            // Peripheral churn: toggle one random non-hub pair.
            let a = 1 + (rng() % 10) as u32;
            let b = 1 + (rng() % 10) as u32;
            if a != b {
                let (a, b) = (a.min(b), a.max(b));
                if g.neighbors(a).binary_search(&b).is_ok() {
                    del.push((a, b));
                } else {
                    ins.push((a, b));
                }
            }
            let batch = EditBatch::from_lists(ins, del);
            shadow.apply(&batch).unwrap();
            batches.push(batch);
        }
        batches
    }

    #[test]
    fn one_shard_counts_exactly_the_single_writers_work() {
        // At one shard every vertex is local, so no envelope exists and
        // the shard runs the single writer's code. After every flush of
        // the damped hub script and of the cap-crossing churn script, its
        // work counts, its slot-change stream and its state must equal
        // the single writer's.
        let scripts = |seed| {
            [
                (
                    damped_script(),
                    10usize,
                    DampingConfig {
                        degree_cap: 4,
                        flush_budget: 3,
                    },
                ),
                (cap_crossing_script(seed), 8, CAP_CROSSING),
            ]
        };
        for seed in 0..6u64 {
            for (batches, t_max, cfg) in scripts(seed) {
                let mut dg = DynamicGraph::new(hub_graph());
                let mut central = run_propagation(dg.graph(), t_max, seed);
                let mut damper = crate::incremental::CascadeDamper::new(cfg);
                let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(1));
                let mut shards = [ShardRepairState::from_state(
                    &central,
                    dg.graph(),
                    0,
                    Arc::clone(&partitioner),
                )];
                shards[0].set_damping(Some(cfg));
                for (i, batch) in batches.iter().enumerate() {
                    let applied = dg.apply(batch).unwrap();
                    let mut want_deltas = Vec::new();
                    let want = apply_correction(
                        &mut central,
                        dg.graph(),
                        &applied,
                        Some(&mut damper),
                        &mut want_deltas,
                    );
                    let (got, deltas) =
                        run_shards_streaming(&mut shards, partitioner.as_ref(), &applied);
                    assert_eq!(got, want, "work counts differ at flush {i} (seed {seed})");
                    assert_eq!(net(&deltas), net(&want_deltas), "flush {i} (seed {seed})");
                    let sharded = assemble(&shards, 11, t_max, seed);
                    compare_states(&central, &sharded, 11, t_max as u32);
                }
            }
        }
    }

    #[test]
    fn boundary_message_count_is_zero_for_single_shard() {
        let mut dg = DynamicGraph::new(cube_graph());
        let state0 = run_propagation(dg.graph(), 8, 1);
        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(1));
        let mut shards = vec![ShardRepairState::from_state(
            &state0,
            dg.graph(),
            0,
            Arc::clone(&partitioner),
        )];
        let applied = dg.apply(&EditBatch::from_lists([(1, 6)], [])).unwrap();
        let report = run_shards(&mut shards, partitioner.as_ref(), &applied);
        assert_eq!(report.boundary_msgs, 0);
        assert!(report.repicks > 0 || report.coins > 0);
    }
}
