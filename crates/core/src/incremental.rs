//! Algorithm 2 — Correction Propagation, written once for the single
//! writer and for every mesh shard.
//!
//! After an edit batch, every affected vertex re-examines its `T` picks
//! (paper §IV-A):
//!
//! * **Category 1** (neighborhood unchanged): nothing to do — such
//!   vertices never appear in the batch deltas.
//! * **Category 2** (only lost neighbors): a pick whose source edge was
//!   deleted is re-drawn uniformly from the remaining neighbors; surviving
//!   picks are kept (Theorem 4: they are still uniform on the new set).
//! * **Category 3** (gained neighbors, possibly lost some): picks through
//!   deleted edges re-draw from all current neighbors; surviving picks are
//!   kept with probability `n_u / (n_u + n_a)` and otherwise re-drawn from
//!   the **new** neighbors only (Theorem 5 shows the composite is uniform
//!   on the new neighborhood).
//!
//! Then changes cascade (§IV-B): when `l_v^t` is updated, every receiver
//! recorded in `R_v^t` updates its own slot and forwards in turn. As in the
//! paper's Algorithm 2 (lines 18–22 carry no value comparison), every
//! delivery forwards, changed or not — the cascade §IV-D's η counts.
//!
//! Because every slot's receivers sit at strictly later iterations, one
//! ascending sweep over iteration buckets delivers every correction
//! exactly once.
//!
//! ## One kernel, two row layouts
//!
//! The kernel runs over a [`LabelState`] addressed by *local* row index,
//! and a `Locality` that maps vertex ids to local rows. The single
//! writer ([`apply_correction`]) holds every vertex at its own id; a
//! [`ShardRepairState`](crate::shard::ShardRepairState) holds the vertices
//! it owns at dense local indices. Where a pick source or a receiver has no
//! local row, the kernel hands the step to its owner as an
//! `Unrecord`/`Fetch`/`Value` [`Envelope`] instead; an inbound envelope is
//! applied and scheduled into the same sweep. With every vertex local no
//! envelope exists, so a one-shard mesh does exactly the single writer's
//! work.
//!
//! ## Degree-capped cascade damping
//!
//! A forming hub turns every edit into an `O(hub-degree)` re-spray: each
//! delivery at the hub forwards through *all* of its recorded receivers,
//! which is exactly the flash-crowd blowup the churn suite measured.
//! With a [`DampingConfig`], a vertex whose degree exceeds the cap is
//! **muted as a label source**:
//!
//! * forwarding out of it is suppressed for the rest of the flush, and
//!   the changed slot is parked in the [`CascadeDamper`];
//! * a re-pick (or a fetch from another shard) that lands on one of its
//!   slots keeps the listener's own previous value (the classic
//!   hub-resistance move — a thousand fresh spokes must not all echo the
//!   hub), and the slot is parked so the new record is re-delivered once
//!   the hub calms down.
//!
//! Parked slots are released only once the vertex's degree is back at or
//! under the cap, under a per-hub delivery budget in ascending (vertex,
//! slot) order — a canonical schedule every shard count reproduces — and
//! the release cascades normally from there. The damped fixed point after
//! each flush is therefore the same pure function of the batch sequence
//! regardless of shard count or exchange transport, and once every
//! parked vertex has dropped under the cap and drained, the state
//! converges to the undamped fixed point (picks are label-independent,
//! so only label values ever lag).

use rslpa_graph::rng::{PickKey, Stream};
use rslpa_graph::{
    AdjacencyGraph, AppliedBatch, FxHashMap, FxHashSet, Label, SlotDelta, VertexDelta, VertexId,
};

use crate::config::DampingConfig;
use crate::propagation::draw_pick;
use crate::shard::{Envelope, ShardMsg};
use crate::state::{LabelState, NO_SOURCE};

/// Deferred-cascade state: per muted hub vertex, the slots whose receivers
/// may be out of date — because the slot changed while the hub was over
/// the cap, or because a listener picked it and kept its own value
/// instead. Keyed by vertex id, so a shard's parked slots migrate with
/// their rows.
#[derive(Clone, Debug, Default)]
pub struct CascadeDamper {
    config: DampingConfig,
    /// vertex → sorted slots needing re-delivery once the vertex drops
    /// back under the cap.
    pending: FxHashMap<VertexId, Vec<u32>>,
}

impl CascadeDamper {
    /// A damper enforcing `config`.
    pub fn new(config: DampingConfig) -> Self {
        Self {
            config,
            pending: Default::default(),
        }
    }

    /// The cap/budget this damper enforces.
    pub fn config(&self) -> DampingConfig {
        self.config
    }

    /// Is a vertex of this degree past the cap?
    #[inline]
    pub fn over_cap(&self, deg: usize) -> bool {
        deg > self.config.degree_cap
    }

    /// Vertices with at least one parked slot.
    pub fn pending_vertices(&self) -> usize {
        self.pending.len()
    }

    /// Mark `(v, t)` as needing re-delivery on unmute: either its value
    /// changed while `v` was over the cap, or a listener picked it and
    /// kept its own value.
    fn park(&mut self, v: VertexId, t: u32) {
        let slots = self.pending.entry(v).or_default();
        if let Err(i) = slots.binary_search(&t) {
            slots.insert(i, t);
        }
    }

    /// Forget a parked slot (its receivers are up to date again — the
    /// slot was forwarded normally after the vertex dropped below the
    /// cap, or a release just delivered it).
    fn clear(&mut self, v: VertexId, t: u32) {
        if let Some(slots) = self.pending.get_mut(&v) {
            if let Ok(i) = slots.binary_search(&t) {
                slots.remove(i);
                if slots.is_empty() {
                    self.pending.remove(&v);
                }
            }
        }
    }

    /// Remove and return `v`'s parked slots (a migrating row takes them).
    pub(crate) fn take(&mut self, v: VertexId) -> Vec<u32> {
        self.pending.remove(&v).unwrap_or_default()
    }

    /// Park `slots` of `v` again (a migrated row brings them along).
    pub(crate) fn restore(&mut self, v: VertexId, slots: Vec<u32>) {
        if !slots.is_empty() {
            self.pending.insert(v, slots);
        }
    }

    /// Might a parked slot still hide a value from its receivers?
    /// (While true, the state may be inconsistent in the
    /// `check_consistency` sense; parked slots don't record the
    /// receiver-held values, so this is conservatively any pending
    /// work at all.)
    pub fn masks_inconsistency(&self, _state: &LabelState) -> bool {
        !self.pending.is_empty()
    }
}

/// Work accounting for one incremental repair — the measured counterpart
/// of §IV-D's η. A shard reports each kernel call separately; the reports
/// of one flush sum with [`absorb`](Self::absorb) (vertex ownership is
/// disjoint, so per-shard distinct counts sum exactly).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Vertices whose neighborhood changed (Categories 2–3).
    pub affected_vertices: usize,
    /// Picks re-drawn in the adjacent-edge phase.
    pub repicks: usize,
    /// Category-3 keep/redraw coins flipped.
    pub coins: usize,
    /// Corrections delivered through receiver records (stale ones
    /// excluded).
    pub deliveries: usize,
    /// Distinct label slots updated (η: repicked or corrected).
    pub eta: usize,
    /// Deliveries whose value actually differed (≤ `deliveries`).
    pub value_changes: usize,
    /// Suppressions at over-cap vertices: receiver re-sprays deferred
    /// plus picks of a muted slot that kept the listener's own value
    /// (always 0 without a [`CascadeDamper`]).
    pub damped_deferrals: usize,
    /// Distinct vertices whose stored labels changed (the dirty region).
    pub dirty_vertices: usize,
    /// Envelopes sent to another shard (always 0 for the single writer).
    pub boundary_msgs: usize,
}

impl UpdateReport {
    /// Accumulate another report into this one.
    pub fn absorb(&mut self, other: &UpdateReport) {
        self.affected_vertices += other.affected_vertices;
        self.repicks += other.repicks;
        self.coins += other.coins;
        self.deliveries += other.deliveries;
        self.eta += other.eta;
        self.value_changes += other.value_changes;
        self.damped_deferrals += other.damped_deferrals;
        self.dirty_vertices += other.dirty_vertices;
        self.boundary_msgs += other.boundary_msgs;
    }
}

/// Apply Correction Propagation to `state` for a batch already applied to
/// the graph (`graph_after` is the post-edit topology, `applied` the
/// per-vertex deltas), with optional degree-capped cascade damping.
///
/// One [`SlotDelta`] per label-slot *value* change is appended to
/// `slot_deltas` in application order — the input stream for
/// [`EdgeCounters`](crate::edge_counters::EdgeCounters). A slot rewritten
/// several times in one repair emits one delta per rewrite (callers
/// compact with [`compact_slot_deltas`](rslpa_graph::compact_slot_deltas)
/// before paying `O(deg)` per delta); unchanged-value writes emit
/// nothing, so the stream is exactly the histogram movement of this
/// repair, and its distinct vertices are the report's `dirty_vertices`.
///
/// With `damper = None` this is the paper's unbounded repair. With a
/// damper, the flush runs in four steps:
///
/// 1. **Release**: pending slots of vertices whose degree dropped back
///    to the cap or under are delivered to their receivers in ascending
///    (vertex, slot) order, at most `flush_budget` deliveries per hub
///    (always at least one slot, so pending work cannot starve).
///    Vertices still over the cap stay parked untouched. Deliveries are
///    staged here (pre-Phase-A receiver records) but applied after Phase
///    A under a pick-staleness guard, as an envelope to another shard is.
/// 2. **Phase A** as usual, except a re-pick that lands on an over-cap
///    source keeps the listener's previous value (the source slot is
///    parked so the unmute release catches the new record up), and any
///    value change on an over-cap vertex parks the slot.
/// 3. The staged release deliveries apply, scheduling cascades.
/// 4. **Phase B** as usual, except forwarding out of an over-cap vertex
///    is suppressed (counted in `damped_deferrals`); a formerly-capped
///    vertex that dropped back under the cap forwards normally and its
///    parked entry is cleared.
pub fn apply_correction(
    state: &mut LabelState,
    graph_after: &AdjacencyGraph,
    applied: &AppliedBatch,
    damper: Option<&mut CascadeDamper>,
    slot_deltas: &mut Vec<SlotDelta>,
) -> UpdateReport {
    let mut report = UpdateReport::default();
    let mut flush = Flush::new(state.iterations());
    let mut out = Vec::new();
    let mut kernel = Kernel {
        rows: graph_after,
        state,
        damper,
        flush: &mut flush,
        report: &mut report,
        slot_deltas,
        out: &mut out,
    };
    let affected = applied.affected_vertices();
    kernel.phase_a(affected.iter().map(|v| (*v, &applied.deltas[v])));
    kernel.sweep();
    debug_assert!(
        kernel.out.is_empty(),
        "every vertex is local to the single writer"
    );
    debug_assert!(
        kernel
            .damper
            .as_deref()
            .is_some_and(|d| d.masks_inconsistency(kernel.state))
            || crate::verify::check_consistency(kernel.state, graph_after).is_ok()
    );
    report
}

/// Where the kernel finds a vertex's rows: the single writer holds every
/// vertex at its own id (so [`AdjacencyGraph`] is its locality), a shard
/// the vertices it owns at dense local indices.
pub(crate) trait Locality {
    /// Local row of `v`, or `None` when another shard owns it.
    fn local(&self, v: VertexId) -> Option<u32>;
    /// Vertex id of local row `i`.
    fn global(&self, i: u32) -> VertexId;
    /// Post-batch neighbors of local row `i`, sorted.
    fn neighbors(&self, i: u32) -> &[VertexId];
}

impl Locality for AdjacencyGraph {
    #[inline]
    fn local(&self, v: VertexId) -> Option<u32> {
        Some(v)
    }

    #[inline]
    fn global(&self, i: u32) -> VertexId {
        i
    }

    #[inline]
    fn neighbors(&self, i: u32) -> &[VertexId] {
        AdjacencyGraph::neighbors(self, i)
    }
}

/// One flush's working sets, by local row. A shard's flush spans several
/// kernel calls (Phase A, then one per exchange round), so it keeps them
/// in between.
#[derive(Default)]
pub(crate) struct Flush {
    /// Rows to forward from, per iteration.
    buckets: Vec<Vec<u32>>,
    /// `(row, slot)` pairs waiting in `buckets`.
    scheduled: FxHashSet<(u32, u32)>,
    /// `(row, slot)` pairs written this flush (η).
    touched: FxHashSet<(u32, u32)>,
    /// Rows whose labels changed this flush.
    dirty: FxHashSet<u32>,
    /// The receivers of the slot being forwarded, one buffer reused for
    /// every slot of the sweep.
    receivers: Vec<(VertexId, u32)>,
}

impl Flush {
    pub(crate) fn new(t_max: usize) -> Self {
        let mut flush = Self::default();
        flush.buckets.resize_with(t_max + 1, Vec::new);
        flush
    }

    /// Start a new flush: forget what the last one wrote.
    pub(crate) fn reset(&mut self) {
        debug_assert!(self.scheduled.is_empty(), "a sweep left work behind");
        self.touched.clear();
        self.dirty.clear();
    }
}

/// Algorithm 2 over one row store: Phase A, inbound envelopes, and the
/// ascending iteration-bucket sweep, with the damping rules applied at
/// every step.
pub(crate) struct Kernel<'k, L: Locality> {
    pub(crate) rows: &'k L,
    pub(crate) state: &'k mut LabelState,
    pub(crate) damper: Option<&'k mut CascadeDamper>,
    pub(crate) flush: &'k mut Flush,
    pub(crate) report: &'k mut UpdateReport,
    pub(crate) slot_deltas: &'k mut Vec<SlotDelta>,
    /// Envelopes for vertices other shards own.
    pub(crate) out: &'k mut Vec<Envelope>,
}

impl<L: Locality> Kernel<'_, L> {
    /// Damping releases, Phase A over the affected local vertices in the
    /// given order (Algorithm 2 lines 1–12), then the staged release
    /// deliveries. Every vertex of `deltas` must have a local row holding
    /// its post-batch neighbors.
    pub(crate) fn phase_a<'d>(
        &mut self,
        deltas: impl IntoIterator<Item = (VertexId, &'d VertexDelta)>,
    ) {
        let released = self.release_parked();
        let rows = self.rows;
        let t_max = self.state.iterations() as u32;
        let seed = self.state.seed();
        for (v, delta) in deltas {
            self.report.affected_vertices += 1;
            let i = rows.local(v).expect("a delta is routed to its owner");
            let nbrs = rows.neighbors(i);
            for t in 1..=t_max {
                let (old_src, old_pos) = self.state.pick(i, t);
                if nbrs.is_empty() {
                    // Lost every neighbor: the slot reverts to the own label.
                    if old_src != NO_SOURCE {
                        self.unrecord(old_src, old_pos, v, t);
                        self.state.set_pick(i, t, NO_SOURCE, 0);
                        self.report.repicks += 1;
                        let own = self.state.label(i, 0);
                        self.store(i, t, own);
                    }
                    continue;
                }
                if old_src == NO_SOURCE || delta.removed_contains(old_src) {
                    // Was isolated, or the source edge is gone: redraw.
                    self.repick(i, v, t, (old_src, old_pos), nbrs);
                    continue;
                }
                if delta.added.is_empty() {
                    continue; // Category 2, source survived: keep (Theorem 4).
                }
                // Category 3, source survived: keep with probability n_u / deg.
                let (deg, na) = (nbrs.len(), delta.added.len());
                debug_assert!(na <= deg);
                let key = PickKey {
                    seed,
                    vertex: v,
                    iteration: t,
                    epoch: self.state.bump_epoch(i, t),
                };
                self.report.coins += 1;
                if key.unit_f64(Stream::Cat3Coin) < na as f64 / deg as f64 {
                    // Redraw from the *new* neighbors only (Theorem 5).
                    self.repick(i, v, t, (old_src, old_pos), &delta.added);
                }
            }
        }
        // The staged releases apply after Phase A; a pick that Phase A
        // re-drew discards its delivery.
        for (src, t, r, k, l) in released {
            match rows.local(r) {
                Some(j) if self.state.pick(j, k) == (src, t) => self.deliver(j, k, l),
                Some(_) => {}
                None => self.send(
                    r,
                    src,
                    ShardMsg::Value {
                        t: k,
                        origin_pos: t,
                        label: l,
                    },
                ),
            }
        }
    }

    /// Damping release: for every parked vertex whose degree dropped back
    /// to the cap or under, in ascending (vertex, slot) order, stage the
    /// current value of each parked slot for its (pre-Phase-A) receivers
    /// under the per-hub `flush_budget`. Returns `(source, slot,
    /// receiver, k, label)` deliveries.
    fn release_parked(&mut self) -> Vec<(VertexId, u32, VertexId, u32, Label)> {
        let mut released = Vec::new();
        let Some(d) = self.damper.as_deref_mut() else {
            return released;
        };
        let budget = d.config.flush_budget.max(1);
        let mut vids: Vec<VertexId> = d.pending.keys().copied().collect();
        vids.sort_unstable();
        for v in vids {
            let i = self
                .rows
                .local(v)
                .expect("parked slots live with their row");
            if d.over_cap(self.rows.neighbors(i).len()) {
                continue; // still muted: receivers keep waiting
            }
            // Once a slot stays parked, every later one does too.
            let mut kept: Vec<u32> = Vec::new();
            let (mut used, mut released_any) = (0usize, false);
            for t in d.take(v) {
                if !kept.is_empty() {
                    kept.push(t);
                    continue;
                }
                // Stage the slot, then take it back if it overruns the budget.
                let mark = released.len();
                let current = self.state.label(i, t);
                released.extend(
                    self.state
                        .receivers_of(i, t)
                        .map(|(r, k)| (v, t, r, k, current)),
                );
                let fanout = released.len() - mark;
                if released_any && used + fanout > budget {
                    released.truncate(mark);
                    kept.push(t);
                    continue;
                }
                used += fanout;
                released_any = true;
            }
            d.restore(v, kept);
        }
        released
    }

    /// Apply one exchange round's envelopes, all addressed to local rows:
    /// unrecords, then values (staleness-guarded, scheduled into the next
    /// sweep), then fetches. A fetch registers its record and is answered
    /// with the slot's current value — unless the slot is muted, or is
    /// already scheduled, whose forward will reach the new record.
    pub(crate) fn receive(&mut self, inbox: &[Envelope]) {
        let rows = self.rows;
        let row = |v: VertexId| rows.local(v).expect("envelope routed to its owner");
        for env in inbox {
            if let ShardMsg::Unrecord { slot, k } = env.msg {
                self.state.remove_record(row(env.to), slot, env.from, k);
            }
        }
        for env in inbox {
            if let ShardMsg::Value {
                t,
                origin_pos,
                label,
            } = env.msg
            {
                let i = row(env.to);
                if self.state.pick(i, t) == (env.from, origin_pos) {
                    self.deliver(i, t, label);
                }
            }
        }
        for env in inbox {
            if let ShardMsg::Fetch { pos, k } = env.msg {
                let j = row(env.to);
                self.state.add_record(j, pos, env.from, k);
                if self.mutes(j, pos) || self.flush.scheduled.contains(&(j, pos)) {
                    continue;
                }
                let label = self.state.label(j, pos);
                self.send(
                    env.from,
                    env.to,
                    ShardMsg::Value {
                        t: k,
                        origin_pos: pos,
                        label,
                    },
                );
            }
        }
    }

    /// Phase B (Algorithm 2 lines 13–24): forward every scheduled slot to
    /// its receivers in ascending iteration order. A local receiver is
    /// written directly and scheduled in a later bucket of this same
    /// sweep; a remote one gets a `Value` envelope.
    pub(crate) fn sweep(&mut self) {
        let rows = self.rows;
        // Collect each slot's receivers first: delivering mutates the state.
        let mut receivers = std::mem::take(&mut self.flush.receivers);
        for t in 1..=self.state.iterations() as u32 {
            let bucket = std::mem::take(&mut self.flush.buckets[t as usize]);
            for i in bucket {
                let v = rows.global(i);
                if let Some(d) = self.damper.as_deref_mut() {
                    if d.over_cap(rows.neighbors(i).len()) {
                        // Over the cap: the re-spray is deferred. Any value
                        // change was already parked at its change site.
                        self.report.damped_deferrals += 1;
                        continue;
                    }
                    // Back under the cap: forward the current value
                    // normally — its receivers are up to date after this.
                    d.clear(v, t);
                }
                let l = self.state.label(i, t);
                receivers.clear();
                receivers.extend(self.state.receivers_of(i, t));
                for &(r, k) in &receivers {
                    debug_assert!(k > t);
                    match rows.local(r) {
                        Some(j) => self.deliver(j, k, l),
                        None => self.send(
                            r,
                            v,
                            ShardMsg::Value {
                                t: k,
                                origin_pos: t,
                                label: l,
                            },
                        ),
                    }
                }
            }
        }
        self.flush.receivers = receivers;
        self.flush.scheduled.clear();
    }

    /// Re-draw the pick of `(v, t)` (local row `i`) uniformly from
    /// `candidates`, move its receiver record, and read the new source's
    /// label — directly if the source is local, by `Fetch` otherwise.
    fn repick(
        &mut self,
        i: u32,
        v: VertexId,
        t: u32,
        (old_src, old_pos): (VertexId, u32),
        candidates: &[VertexId],
    ) {
        if old_src != NO_SOURCE {
            self.unrecord(old_src, old_pos, v, t);
        }
        let epoch = self.state.bump_epoch(i, t);
        let (src, pos) = draw_pick(self.state.seed(), v, t, epoch, candidates);
        self.state.set_pick(i, t, src, pos);
        self.report.repicks += 1;
        let Some(j) = self.rows.local(src) else {
            return self.send(src, v, ShardMsg::Fetch { pos, k: t });
        };
        self.state.add_record(j, pos, v, t);
        if !self.mutes(j, pos) {
            let l = self.state.label(j, pos);
            self.store(i, t, l);
        }
    }

    /// Drop the record `(src, pos) → (v, t)` at the source's owner.
    fn unrecord(&mut self, src: VertexId, pos: u32, v: VertexId, t: u32) {
        match self.rows.local(src) {
            Some(j) => self.state.remove_record(j, pos, v, t),
            None => self.send(src, v, ShardMsg::Unrecord { slot: pos, k: t }),
        }
    }

    /// A muted source (over the degree cap) serves nothing: the listener
    /// of its slot `pos` keeps its own previous value, and the slot is
    /// parked so the unmute release catches the new record up.
    fn mutes(&mut self, j: u32, pos: u32) -> bool {
        let Some(d) = self.damper.as_deref_mut() else {
            return false;
        };
        if !d.over_cap(self.rows.neighbors(j).len()) {
            return false;
        }
        d.park(self.rows.global(j), pos);
        self.report.damped_deferrals += 1;
        true
    }

    /// A correction reaching local slot `(j, k)` through its receiver
    /// record.
    fn deliver(&mut self, j: u32, k: u32, l: Label) {
        self.report.deliveries += 1;
        if self.store(j, k, l) {
            self.report.value_changes += 1;
        }
    }

    /// Write `l` into local slot `(i, t)` and schedule its forward;
    /// returns whether the value changed. A change is streamed as a
    /// [`SlotDelta`], and parked if the vertex is over the cap.
    fn store(&mut self, i: u32, t: u32, l: Label) -> bool {
        let old = self.state.label(i, t);
        let changed = old != l;
        if changed {
            let v = self.rows.global(i);
            self.state.set_label(i, t, l);
            self.slot_deltas.push(SlotDelta {
                v,
                slot: t,
                old,
                new: l,
            });
            if self.flush.dirty.insert(i) {
                self.report.dirty_vertices += 1;
            }
            if let Some(d) = self.damper.as_deref_mut() {
                if d.over_cap(self.rows.neighbors(i).len()) {
                    d.park(v, t);
                }
            }
        }
        if self.flush.touched.insert((i, t)) {
            self.report.eta += 1;
        }
        if self.flush.scheduled.insert((i, t)) {
            self.flush.buckets[t as usize].push(i);
        }
        changed
    }

    fn send(&mut self, to: VertexId, from: VertexId, msg: ShardMsg) {
        self.report.boundary_msgs += 1;
        self.out.push(Envelope { to, from, msg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::run_propagation;
    use crate::verify::check_consistency;
    use rslpa_graph::{DynamicGraph, EditBatch};

    /// Run a batch through graph + state, returning the report.
    fn step(dg: &mut DynamicGraph, state: &mut LabelState, batch: EditBatch) -> UpdateReport {
        step_damped(dg, state, batch, None)
    }

    fn star_plus_ring() -> AdjacencyGraph {
        // Vertex 0 is a hub over 1..=4; 1-2-3-4-1 ring around it.
        AdjacencyGraph::from_edges(
            5,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 1),
            ],
        )
    }

    #[test]
    fn consistency_after_single_deletion() {
        for seed in 0..10 {
            let g = star_plus_ring();
            let mut dg = DynamicGraph::new(g);
            let mut state = run_propagation(dg.graph(), 12, seed);
            step(&mut dg, &mut state, EditBatch::from_lists([], [(0, 3)]));
            check_consistency(&state, dg.graph()).unwrap();
        }
    }

    #[test]
    fn consistency_after_single_insertion() {
        for seed in 0..10 {
            let g = star_plus_ring();
            let mut dg = DynamicGraph::new(g);
            let mut state = run_propagation(dg.graph(), 12, seed);
            step(&mut dg, &mut state, EditBatch::from_lists([(1, 3)], []));
            check_consistency(&state, dg.graph()).unwrap();
        }
    }

    #[test]
    fn consistency_after_mixed_batches_both_modes() {
        let g = star_plus_ring();
        let mut dg = DynamicGraph::new(g);
        let mut state = run_propagation(dg.graph(), 10, 7);
        step(
            &mut dg,
            &mut state,
            EditBatch::from_lists([(1, 3)], [(0, 2)]),
        );
        step(
            &mut dg,
            &mut state,
            EditBatch::from_lists([(2, 4)], [(1, 2), (3, 4)]),
        );
        step(
            &mut dg,
            &mut state,
            EditBatch::from_lists([(0, 2)], [(2, 4)]),
        );
        check_consistency(&state, dg.graph()).unwrap();
    }

    /// Paper Fig. 4a: a pick through a *preserved* edge survives deletion
    /// of a different edge (Category 2 keep).
    #[test]
    fn fig4a_preserved_edge_pick_is_kept() {
        let g = star_plus_ring();
        let mut dg = DynamicGraph::new(g);
        let mut state = run_propagation(dg.graph(), 8, 3);
        // Find a slot of the hub whose source is vertex 1.
        let slot = (1..=8u32)
            .find(|&t| state.pick(0, t).0 == 1)
            .expect("some pick from 1");
        let before = state.pick(0, slot);
        // Delete hub edge to a *different* neighbor (pick an unused one).
        let victim = (2..=4u32).find(|&u| u != before.0).unwrap();
        step(
            &mut dg,
            &mut state,
            EditBatch::from_lists([], [(0, victim)]),
        );
        assert_eq!(
            state.pick(0, slot),
            before,
            "pick through preserved edge kept"
        );
    }

    /// Paper Fig. 4b: a pick through a *deleted* edge must be re-drawn
    /// from the remaining neighbors.
    #[test]
    fn fig4b_deleted_edge_pick_is_redrawn() {
        let g = star_plus_ring();
        let mut dg = DynamicGraph::new(g);
        let mut state = run_propagation(dg.graph(), 8, 3);
        let slot = (1..=8u32)
            .find(|&t| state.pick(0, t).0 == 1)
            .expect("some pick from 1");
        step(&mut dg, &mut state, EditBatch::from_lists([], [(0, 1)]));
        let (new_src, _) = state.pick(0, slot);
        assert_ne!(new_src, 1, "deleted source must be replaced");
        assert!(dg.graph().neighbors(0).contains(&new_src));
    }

    /// Paper Fig. 5a / Theorem 5: with one new neighbor among `deg`
    /// current ones, a surviving pick is kept with probability
    /// `(deg-1)/deg`; across seeds the keep rate must match.
    #[test]
    fn fig5a_category3_keep_rate() {
        let mut kept = 0u32;
        let trials = 2000;
        for seed in 0..trials {
            // Path 1-0-2 plus insertion of (0,3): deg becomes 3, na = 1.
            let g = AdjacencyGraph::from_edges(4, [(0, 1), (0, 2)]);
            let mut dg = DynamicGraph::new(g);
            let mut state = run_propagation(dg.graph(), 1, seed as u64);
            let before = state.pick(0, 1);
            step(&mut dg, &mut state, EditBatch::from_lists([(0, 3)], []));
            let after = state.pick(0, 1);
            if after == before {
                kept += 1;
            } else {
                assert_eq!(after.0, 3, "redraw must target the new neighbor");
            }
        }
        let rate = f64::from(kept) / f64::from(trials);
        assert!((rate - 2.0 / 3.0).abs() < 0.04, "keep rate {rate} vs 2/3");
    }

    /// Paper Fig. 6: a propagation chain 5→4→3→2→1; deleting the first
    /// edge updates every downstream label. Built by hand so the chain
    /// shape is exact.
    #[test]
    fn fig6_propagation_tree_cascade() {
        // Path graph 1-2-3-4-5 (ids 0..4 = vertices 1..5).
        let g = AdjacencyGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut state = LabelState::new(5, 4, 99);
        // Hand-craft: at t=1, vertex 3 (id) picks (4, 0) — label "5" (id 4).
        // t=2: vertex 2 picks (3, 1); t=3: vertex 1 picks (2, 2);
        // t=4: vertex 0 picks (1, 3). All other slots: self-ish picks.
        let chain = [
            (3u32, 1u32, 4u32, 0u32),
            (2, 2, 3, 1),
            (1, 3, 2, 2),
            (0, 4, 1, 3),
        ];
        // Fill every slot with a valid default first: pick left neighbor pos 0.
        for v in 0..5u32 {
            for t in 1..=4u32 {
                let src = g.neighbors(v)[0];
                state.set_pick(v, t, src, 0);
                state.set_label(v, t, state.label(src, 0));
                state.add_record(src, 0, v, t);
            }
        }
        for &(v, t, src, pos) in &chain {
            let (os, op) = state.pick(v, t);
            state.remove_record(os, op, v, t);
            state.set_pick(v, t, src, pos);
            state.set_label(v, t, state.label(src, pos));
            state.add_record(src, pos, v, t);
        }
        check_consistency(&state, &g).unwrap();
        assert_eq!(state.label(0, 4), 4, "label 5 reached vertex 1");
        // Delete edge (4,5) i.e. ids (3,4).
        let mut dg = DynamicGraph::new(g);
        let applied = dg.apply(&EditBatch::from_lists([], [(3, 4)])).unwrap();
        let report = apply_correction(&mut state, dg.graph(), &applied, None, &mut Vec::new());
        check_consistency(&state, dg.graph()).unwrap();
        // Vertex 3's t=1 slot was repicked; the chain must have been
        // corrected all the way down (3 deliveries along the chain).
        assert!(report.repicks >= 1);
        assert!(
            report.deliveries >= 3,
            "chain of 3 downstream labels, got {report:?}"
        );
        let l = state.label(3, 1);
        assert_eq!(state.label(2, 2), l);
        assert_eq!(state.label(1, 3), l);
        assert_eq!(state.label(0, 4), l);
        assert_ne!(
            state.label(0, 4),
            4,
            "old label 5 must be gone from the chain"
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let g = star_plus_ring();
        let mut dg = DynamicGraph::new(g);
        let mut state = run_propagation(dg.graph(), 6, 1);
        let before: Vec<_> = (0..5).map(|v| state.label_sequence(v).to_vec()).collect();
        let report = step(&mut dg, &mut state, EditBatch::new());
        assert_eq!(report, UpdateReport::default());
        let after: Vec<_> = (0..5).map(|v| state.label_sequence(v).to_vec()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn vertex_losing_all_neighbors_reverts_to_own_label() {
        let g = AdjacencyGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let mut dg = DynamicGraph::new(g);
        let mut state = run_propagation(dg.graph(), 6, 2);
        step(
            &mut dg,
            &mut state,
            EditBatch::from_lists([], [(0, 1), (0, 2)]),
        );
        assert!(state.label_sequence(0).iter().all(|&l| l == 0));
        check_consistency(&state, dg.graph()).unwrap();
    }

    #[test]
    fn previously_isolated_vertex_joins() {
        let mut g = AdjacencyGraph::new(4);
        g.insert_edge(0, 1);
        g.insert_edge(1, 2);
        let mut dg = DynamicGraph::new(g);
        let mut state = run_propagation(dg.graph(), 6, 2);
        assert!(state.label_sequence(3).iter().all(|&l| l == 3));
        step(&mut dg, &mut state, EditBatch::from_lists([(3, 1)], []));
        check_consistency(&state, dg.graph()).unwrap();
        // All picks of vertex 3 now come from its only neighbor 1.
        for t in 1..=6u32 {
            assert_eq!(state.pick(3, t).0, 1);
        }
    }

    #[test]
    fn slot_delta_stream_replays_the_repair_exactly() {
        // Replaying the emitted deltas over the pre-repair sequences must
        // land on the post-repair sequences — the property the streaming
        // counter store builds on.
        for seed in 0..6u64 {
            let g = star_plus_ring();
            let mut dg = DynamicGraph::new(g);
            let mut state = run_propagation(dg.graph(), 12, seed);
            let before: Vec<Vec<u32>> = (0..5).map(|v| state.label_sequence(v).to_vec()).collect();
            let applied = dg
                .apply(&EditBatch::from_lists([(1, 3)], [(0, 1)]))
                .unwrap();
            let mut deltas = Vec::new();
            let report = apply_correction(&mut state, dg.graph(), &applied, None, &mut deltas);
            let mut replayed = before.clone();
            for d in &deltas {
                let slot = d.slot as usize;
                assert_eq!(
                    replayed[d.v as usize][slot], d.old,
                    "delta chain broken at {d:?}"
                );
                assert_ne!(d.old, d.new, "no-op delta emitted");
                replayed[d.v as usize][slot] = d.new;
            }
            for v in 0..5u32 {
                assert_eq!(replayed[v as usize], state.label_sequence(v));
            }
            // The stream names exactly the changed vertices, and the
            // report counts them.
            let streamed: FxHashSet<VertexId> = deltas.iter().map(|d| d.v).collect();
            let changed: FxHashSet<VertexId> = (0..5u32)
                .filter(|&v| before[v as usize] != state.label_sequence(v))
                .collect();
            assert_eq!(streamed, changed);
            assert_eq!(report.dirty_vertices, changed.len());
            // Compaction preserves the net movement.
            let net = rslpa_graph::compact_slot_deltas(&deltas);
            let mut compact_replay = before.clone();
            for d in &net {
                compact_replay[d.v as usize][d.slot as usize] = d.new;
            }
            for (v, seq) in compact_replay.iter().enumerate() {
                assert_eq!(*seq, state.label_sequence(v as u32));
            }
        }
    }

    /// Apply one batch with an optional damper, mirroring the detector's
    /// streaming call.
    fn step_damped(
        dg: &mut DynamicGraph,
        state: &mut LabelState,
        batch: EditBatch,
        damper: Option<&mut CascadeDamper>,
    ) -> UpdateReport {
        let applied = dg.apply(&batch).expect("valid batch");
        apply_correction(state, dg.graph(), &applied, damper, &mut Vec::new())
    }

    #[test]
    fn damping_with_a_huge_cap_is_bit_identical_to_no_damping() {
        // A cap no degree reaches must not change a single bit — the
        // damped path degenerates to the plain repair.
        for seed in 0..6u64 {
            let batches = [
                EditBatch::from_lists([(1, 3)], [(0, 1)]),
                EditBatch::from_lists([(0, 1)], [(2, 3)]),
                EditBatch::from_lists([], [(0, 4)]),
            ];
            let mut dg_a = DynamicGraph::new(star_plus_ring());
            let mut plain = run_propagation(dg_a.graph(), 12, seed);
            let mut dg_b = DynamicGraph::new(star_plus_ring());
            let mut damped = run_propagation(dg_b.graph(), 12, seed);
            let mut damper = CascadeDamper::new(DampingConfig {
                degree_cap: 1_000,
                flush_budget: 1,
            });
            for batch in &batches {
                let rep_plain = step_damped(&mut dg_a, &mut plain, batch.clone(), None);
                let rep_damped =
                    step_damped(&mut dg_b, &mut damped, batch.clone(), Some(&mut damper));
                assert_eq!(rep_plain, rep_damped, "reports diverged");
                assert_eq!(rep_damped.damped_deferrals, 0);
            }
            assert_eq!(damper.pending_vertices(), 0);
            for v in 0..5u32 {
                assert_eq!(plain.label_sequence(v), damped.label_sequence(v));
                for t in 1..=12u32 {
                    assert_eq!(plain.pick(v, t), damped.pick(v, t));
                }
            }
        }
    }

    #[test]
    fn damped_state_converges_to_the_undamped_fixed_point() {
        // Picks are label-independent, so damping only lets label values
        // lag: listeners on a muted source keep their own value until
        // the unmute release. Once every parked vertex drops back under
        // the cap (the relief batch) and the pending work drains (empty
        // batches trigger pure release flushes), the damped state must
        // equal the undamped one bit for bit.
        let mut deferred_any = 0usize;
        for seed in 0..6u64 {
            let batches = [
                EditBatch::from_lists([(1, 3)], [(0, 1)]),
                EditBatch::from_lists([(0, 1), (2, 4)], [(2, 3)]),
                // Relief: every degree ends at or below the cap.
                EditBatch::from_lists([], [(0, 3), (0, 4), (1, 3)]),
            ];
            let mut dg_a = DynamicGraph::new(star_plus_ring());
            let mut plain = run_propagation(dg_a.graph(), 12, seed);
            let mut dg_b = DynamicGraph::new(star_plus_ring());
            let mut damped = run_propagation(dg_b.graph(), 12, seed);
            // Cap 3: the hub (degree 4) and whichever ring vertex the
            // insertions push to degree 4 mute; budget 1 stretches the
            // drain over many flushes.
            let mut damper = CascadeDamper::new(DampingConfig {
                degree_cap: 3,
                flush_budget: 1,
            });
            for batch in &batches {
                step_damped(&mut dg_a, &mut plain, batch.clone(), None);
                let rep = step_damped(&mut dg_b, &mut damped, batch.clone(), Some(&mut damper));
                deferred_any += rep.damped_deferrals;
            }
            // Drain: empty batches release pending work budget by budget.
            let mut rounds = 0;
            while damper.masks_inconsistency(&damped) {
                step_damped(&mut dg_b, &mut damped, EditBatch::new(), Some(&mut damper));
                rounds += 1;
                assert!(rounds < 200, "pending work failed to drain");
            }
            crate::verify::check_consistency(&damped, dg_b.graph()).unwrap();
            for v in 0..5u32 {
                assert_eq!(
                    plain.label_sequence(v),
                    damped.label_sequence(v),
                    "drained damped state diverged at {v} (seed {seed})"
                );
                for t in 1..=12u32 {
                    assert_eq!(plain.pick(v, t), damped.pick(v, t));
                    assert_eq!(plain.epoch(v, t), damped.epoch(v, t));
                }
            }
        }
        assert!(deferred_any > 0, "cap 3 must actually defer somewhere");
    }

    #[test]
    fn eta_counts_distinct_slots() {
        let g = star_plus_ring();
        let mut dg = DynamicGraph::new(g);
        let mut state = run_propagation(dg.graph(), 15, 4);
        let report = step(&mut dg, &mut state, EditBatch::from_lists([], [(0, 1)]));
        assert!(report.eta <= report.repicks + report.deliveries);
        assert!(report.eta >= report.repicks);
        assert!(report.value_changes <= report.deliveries);
    }
}
