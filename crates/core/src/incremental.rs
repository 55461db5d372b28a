//! Algorithm 2 — Correction Propagation (centralized semantics).
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
//! recorded in `R_v^t` updates its own slot and forwards in turn. The
//! paper's Algorithm 2 forwards *unconditionally* (lines 18–22 carry no
//! value comparison) — that unpruned cascade is what the §IV-D analysis
//! counts, so it is the default here; `value_pruned` stops at
//! value-identical updates as a measured ablation.
//!
//! Because every slot's receivers sit at strictly later iterations, one
//! ascending sweep over iteration buckets delivers every correction
//! exactly once.
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
//! * a re-pick that lands on one of its slots keeps the listener's own
//!   previous value (the classic hub-resistance move — a thousand fresh
//!   spokes must not all echo the hub), and the slot is parked so the
//!   new record is re-delivered once the hub calms down;
//! * fetch replies in the sharded engines are suppressed the same way,
//!   so the requester keeps its value by silence.
//!
//! Parked slots are released only once the vertex's degree is back at or
//! under the cap, under a per-hub delivery budget in ascending (vertex,
//! slot) order — a canonical schedule every engine reproduces — and the
//! release cascades normally from there. The damped fixed point after
//! each flush is therefore the same pure function of the batch sequence
//! regardless of shard count or exchange transport, and once every
//! parked vertex has dropped under the cap and drained, the state
//! converges to the undamped fixed point (picks are label-independent,
//! so only label values ever lag).

use rslpa_graph::rng::{PickKey, Stream};
use rslpa_graph::{AdjacencyGraph, AppliedBatch, FxHashSet, Label, SlotDelta, VertexId};

use crate::config::DampingConfig;
use crate::propagation::draw_pick;
use crate::state::{LabelState, NO_SOURCE};

/// Deferred-cascade state for the centralized engine: per muted hub
/// vertex, the slots whose receivers may be out of date — because the
/// slot changed while the hub was over the cap, or because a listener
/// re-picked onto it and kept its own value instead. Owned by
/// [`RslpaDetector`](crate::RslpaDetector) and threaded through
/// [`apply_correction_damped`].
#[derive(Clone, Debug, Default)]
pub struct CascadeDamper {
    config: DampingConfig,
    /// vertex → sorted slots needing re-delivery once the vertex drops
    /// back under the cap.
    pending: rslpa_graph::FxHashMap<VertexId, Vec<u32>>,
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
    /// changed while `v` was over the cap, or a listener re-picked onto
    /// it and kept its own value.
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
/// of §IV-D's η.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Vertices whose neighborhood changed (Categories 2–3).
    pub affected_vertices: usize,
    /// Picks re-drawn in the adjacent-edge phase.
    pub repicks: usize,
    /// Category-3 keep/redraw coins flipped.
    pub coins: usize,
    /// Corrections delivered through receiver records.
    pub deliveries: usize,
    /// Distinct label slots updated (η: repicked or corrected).
    pub eta: usize,
    /// Deliveries whose value actually differed (≤ `deliveries`).
    pub value_changes: usize,
    /// Suppressions at over-cap vertices: receiver re-sprays deferred
    /// plus re-pick reads that kept the listener's own value (damping
    /// only; always 0 without a [`CascadeDamper`]).
    pub damped_deferrals: usize,
    /// Distinct vertices whose stored labels changed (the dirty region,
    /// counted like the sharded engine's
    /// [`ShardFlushReport::dirty_vertices`](crate::shard::ShardFlushReport::dirty_vertices)).
    pub dirty_vertices: usize,
}

/// Apply Correction Propagation to `state` for a batch already applied to
/// the graph (`graph_after` is the post-edit topology, `applied` the
/// per-vertex deltas).
pub fn apply_correction(
    state: &mut LabelState,
    graph_after: &AdjacencyGraph,
    applied: &AppliedBatch,
    value_pruned: bool,
) -> UpdateReport {
    apply_correction_damped(
        state,
        graph_after,
        applied,
        value_pruned,
        None,
        &mut Vec::new(),
    )
}

/// [`apply_correction`] with optional degree-capped cascade damping,
/// reporting what the repair changed.
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
/// With `damper = None` this is bit-for-bit the undamped repair. With a
/// damper, the flush runs in four steps:
///
/// 1. **Release**: pending slots of vertices whose degree dropped back
///    to the cap or under are delivered to their receivers in ascending
///    (vertex, slot) order, at most `flush_budget` deliveries per hub
///    (always at least one slot, so pending work cannot starve).
///    Vertices still over the cap stay parked untouched. Deliveries are
///    staged here (pre-Phase-A receiver records) but applied after Phase
///    A under a pick-staleness guard, mirroring the envelope timing of
///    the sharded engines.
/// 2. **Phase A** as usual, except a re-pick that lands on an over-cap
///    source keeps the listener's previous value (the source slot is
///    parked so the unmute release catches the new record up), and any
///    value change on an over-cap vertex parks the slot.
/// 3. The staged release deliveries apply, scheduling cascades.
/// 4. **Phase B** as usual, except forwarding out of an over-cap vertex
///    is suppressed (counted in `damped_deferrals`); a formerly-capped
///    vertex that dropped back under the cap forwards normally and its
///    parked entry is cleared.
pub fn apply_correction_damped(
    state: &mut LabelState,
    graph_after: &AdjacencyGraph,
    applied: &AppliedBatch,
    value_pruned: bool,
    mut damper: Option<&mut CascadeDamper>,
    slot_deltas: &mut Vec<SlotDelta>,
) -> UpdateReport {
    let first_delta = slot_deltas.len();
    let t_max = state.iterations() as u32;
    let seed = state.seed();
    let mut report = UpdateReport {
        affected_vertices: applied.deltas.len(),
        ..Default::default()
    };
    // Per-iteration buckets of slots to forward from, deduplicated.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); t_max as usize + 1];
    let mut scheduled: FxHashSet<(VertexId, u32)> = FxHashSet::default();
    let mut touched: FxHashSet<(VertexId, u32)> = FxHashSet::default();

    let schedule = |v: VertexId,
                    t: u32,
                    buckets: &mut Vec<Vec<VertexId>>,
                    scheduled: &mut FxHashSet<(VertexId, u32)>| {
        if scheduled.insert((v, t)) {
            buckets[t as usize].push(v);
        }
    };

    // --- Release: drain parked slots of unmuted vertices under the
    // per-hub budget --- Canonical ascending (vertex, slot) order keeps
    // this identical in every engine. A vertex still over the cap stays
    // parked; deliveries are staged against the *pre-Phase-A* receiver
    // records and applied after Phase A with a staleness guard, exactly
    // like a routed envelope in the sharded engines.
    let mut released: Vec<(VertexId, u32, VertexId, u32, Label)> = Vec::new();
    if let Some(d) = damper.as_deref_mut() {
        if !d.pending.is_empty() {
            let budget = d.config.flush_budget.max(1);
            let mut vids: Vec<VertexId> = d.pending.keys().copied().collect();
            vids.sort_unstable();
            for v in vids {
                if d.over_cap(graph_after.neighbors(v).len()) {
                    continue; // still muted: receivers keep waiting
                }
                let slots = d.pending.remove(&v).unwrap_or_default();
                let mut kept: Vec<u32> = Vec::new();
                let mut used = 0usize;
                let mut released_any = false;
                let mut stopped = false;
                for t in slots {
                    if stopped {
                        kept.push(t);
                        continue;
                    }
                    let receivers: Vec<(VertexId, u32)> = state.receivers_of(v, t).collect();
                    if released_any && used + receivers.len() > budget {
                        stopped = true;
                        kept.push(t);
                        continue;
                    }
                    used += receivers.len();
                    released_any = true;
                    let current = state.label(v, t);
                    for (r, k) in receivers {
                        released.push((v, t, r, k, current));
                    }
                }
                if !kept.is_empty() {
                    d.pending.insert(v, kept);
                }
            }
        }
    }

    // --- Phase A: adjacent edge changes (Algorithm 2 lines 1–12) ---
    for v in applied.affected_vertices() {
        let delta = &applied.deltas[&v];
        let nbrs = graph_after.neighbors(v);
        for t in 1..=t_max {
            let (old_src, old_pos) = state.pick(v, t);
            if nbrs.is_empty() {
                // Lost every neighbor: the slot reverts to the own label.
                if old_src != NO_SOURCE {
                    state.remove_record(old_src, old_pos, v, t);
                    state.set_pick(v, t, NO_SOURCE, 0);
                    let own = state.label(v, 0);
                    let old = state.label(v, t);
                    let changed = old != own;
                    state.set_label(v, t, own);
                    report.repicks += 1;
                    touched.insert((v, t));
                    if changed {
                        slot_deltas.push(SlotDelta {
                            v,
                            slot: t,
                            old,
                            new: own,
                        });
                    }
                    if !value_pruned || changed {
                        schedule(v, t, &mut buckets, &mut scheduled);
                    }
                }
                continue;
            }
            let needs_full_repick = if old_src == NO_SOURCE {
                true // was isolated; every neighbor is effectively new
            } else {
                delta.removed_contains(old_src)
            };
            if needs_full_repick {
                repick(
                    state,
                    graph_after,
                    v,
                    t,
                    old_src,
                    old_pos,
                    nbrs,
                    value_pruned,
                    &mut damper,
                    &mut report,
                    &mut touched,
                    slot_deltas,
                    |v, t| schedule(v, t, &mut buckets, &mut scheduled),
                );
                continue;
            }
            if delta.added.is_empty() {
                continue; // Category 2, source survived: keep (Theorem 4).
            }
            // Category 3, source survived: keep with probability n_u / deg.
            let deg = nbrs.len();
            let na = delta.added.len();
            debug_assert!(na <= deg);
            let epoch = state.bump_epoch(v, t);
            let key = PickKey {
                seed,
                vertex: v,
                iteration: t,
                epoch,
            };
            report.coins += 1;
            if key.unit_f64(Stream::Cat3Coin) < na as f64 / deg as f64 {
                // Redraw from the *new* neighbors only (Theorem 5).
                repick(
                    state,
                    graph_after,
                    v,
                    t,
                    old_src,
                    old_pos,
                    &delta.added,
                    value_pruned,
                    &mut damper,
                    &mut report,
                    &mut touched,
                    slot_deltas,
                    |v, t| schedule(v, t, &mut buckets, &mut scheduled),
                );
            }
        }
    }

    // --- Apply staged release deliveries (post-Phase-A, like routed
    // envelopes). A pick that Phase A re-drew discards the delivery.
    for (src, t, r, k, l) in released {
        if state.pick(r, k) != (src, t) {
            continue; // receiver re-picked away during Phase A
        }
        report.deliveries += 1;
        let old = state.label(r, k);
        let changed = old != l;
        if changed {
            state.set_label(r, k, l);
            report.value_changes += 1;
            slot_deltas.push(SlotDelta {
                v: r,
                slot: k,
                old,
                new: l,
            });
            if let Some(d) = damper.as_deref_mut() {
                if d.over_cap(graph_after.neighbors(r).len()) {
                    d.park(r, k);
                }
            }
        }
        touched.insert((r, k));
        if !value_pruned || changed {
            schedule(r, k, &mut buckets, &mut scheduled);
        }
    }

    // --- Phase B: cascade through receiver records (lines 13–24) ---
    for t in 1..=t_max {
        let bucket = std::mem::take(&mut buckets[t as usize]);
        for v in bucket {
            if let Some(d) = damper.as_deref_mut() {
                if d.over_cap(graph_after.neighbors(v).len()) {
                    // Over the cap: the re-spray is deferred. Any value
                    // change was already parked at its change site.
                    report.damped_deferrals += 1;
                    continue;
                }
                // Back under the cap: forward the current value normally
                // — its receivers are up to date after this, so drop any
                // parked entry.
                d.clear(v, t);
            }
            let l = state.label(v, t);
            // Collect receivers first: delivering mutates the state.
            let receivers: Vec<(VertexId, u32)> = state.receivers_of(v, t).collect();
            for (r, k) in receivers {
                debug_assert!(k > t);
                report.deliveries += 1;
                let old = state.label(r, k);
                let changed = old != l;
                if changed {
                    state.set_label(r, k, l);
                    report.value_changes += 1;
                    slot_deltas.push(SlotDelta {
                        v: r,
                        slot: k,
                        old,
                        new: l,
                    });
                    if let Some(d) = damper.as_deref_mut() {
                        if d.over_cap(graph_after.neighbors(r).len()) {
                            d.park(r, k);
                        }
                    }
                }
                touched.insert((r, k));
                if !value_pruned || changed {
                    schedule(r, k, &mut buckets, &mut scheduled);
                }
            }
        }
    }

    report.eta = touched.len();
    report.dirty_vertices = slot_deltas[first_delta..]
        .iter()
        .map(|d| d.v)
        .collect::<FxHashSet<_>>()
        .len();
    debug_assert!(
        damper
            .as_deref()
            .is_some_and(|d| d.masks_inconsistency(state))
            || crate::verify::check_consistency(state, graph_after).is_ok()
    );
    report
}

/// Re-draw the pick of `(v, t)` uniformly from `candidates`, maintain the
/// reverse records, and schedule the slot for cascade forwarding.
#[allow(clippy::too_many_arguments)]
fn repick(
    state: &mut LabelState,
    graph_after: &AdjacencyGraph,
    v: VertexId,
    t: u32,
    old_src: VertexId,
    old_pos: u32,
    candidates: &[VertexId],
    value_pruned: bool,
    damper: &mut Option<&mut CascadeDamper>,
    report: &mut UpdateReport,
    touched: &mut FxHashSet<(VertexId, u32)>,
    slot_deltas: &mut Vec<SlotDelta>,
    mut schedule: impl FnMut(VertexId, u32),
) {
    if old_src != NO_SOURCE {
        state.remove_record(old_src, old_pos, v, t);
    }
    let epoch = state.bump_epoch(v, t);
    let (src, pos) = draw_pick(state.seed(), v, t, epoch, candidates);
    state.set_pick(v, t, src, pos);
    state.add_record(src, pos, v, t);
    report.repicks += 1;
    // A muted source (over the degree cap) serves nothing: the listener
    // keeps its previous value, and the source slot is parked so the
    // unmute release catches this record up. The sharded engines do the
    // same by suppressing the fetch reply.
    if let Some(d) = damper.as_deref_mut() {
        if d.over_cap(graph_after.neighbors(src).len()) {
            d.park(src, pos);
            report.damped_deferrals += 1;
            return;
        }
    }
    let new_label = state.label(src, pos);
    let old = state.label(v, t);
    let changed = old != new_label;
    state.set_label(v, t, new_label);
    touched.insert((v, t));
    if changed {
        slot_deltas.push(SlotDelta {
            v,
            slot: t,
            old,
            new: new_label,
        });
        if let Some(d) = damper.as_deref_mut() {
            if d.over_cap(graph_after.neighbors(v).len()) {
                d.park(v, t);
            }
        }
    }
    if !value_pruned || changed {
        schedule(v, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::run_propagation;
    use crate::verify::check_consistency;
    use rslpa_graph::{DynamicGraph, EditBatch};

    /// Run a batch through graph + state, returning the report.
    fn step(
        dg: &mut DynamicGraph,
        state: &mut LabelState,
        batch: EditBatch,
        pruned: bool,
    ) -> UpdateReport {
        let applied = dg.apply(&batch).expect("valid batch");
        apply_correction(state, dg.graph(), &applied, pruned)
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
            step(
                &mut dg,
                &mut state,
                EditBatch::from_lists([], [(0, 3)]),
                false,
            );
            check_consistency(&state, dg.graph()).unwrap();
        }
    }

    #[test]
    fn consistency_after_single_insertion() {
        for seed in 0..10 {
            let g = star_plus_ring();
            let mut dg = DynamicGraph::new(g);
            let mut state = run_propagation(dg.graph(), 12, seed);
            step(
                &mut dg,
                &mut state,
                EditBatch::from_lists([(1, 3)], []),
                false,
            );
            check_consistency(&state, dg.graph()).unwrap();
        }
    }

    #[test]
    fn consistency_after_mixed_batches_both_modes() {
        for pruned in [false, true] {
            let g = star_plus_ring();
            let mut dg = DynamicGraph::new(g);
            let mut state = run_propagation(dg.graph(), 10, 7);
            step(
                &mut dg,
                &mut state,
                EditBatch::from_lists([(1, 3)], [(0, 2)]),
                pruned,
            );
            step(
                &mut dg,
                &mut state,
                EditBatch::from_lists([(2, 4)], [(1, 2), (3, 4)]),
                pruned,
            );
            step(
                &mut dg,
                &mut state,
                EditBatch::from_lists([(0, 2)], [(2, 4)]),
                pruned,
            );
            check_consistency(&state, dg.graph()).unwrap();
        }
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
            false,
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
        step(
            &mut dg,
            &mut state,
            EditBatch::from_lists([], [(0, 1)]),
            false,
        );
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
            step(
                &mut dg,
                &mut state,
                EditBatch::from_lists([(0, 3)], []),
                false,
            );
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
        let report = apply_correction(&mut state, dg.graph(), &applied, false);
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
        let report = step(&mut dg, &mut state, EditBatch::new(), false);
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
            false,
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
        step(
            &mut dg,
            &mut state,
            EditBatch::from_lists([(3, 1)], []),
            false,
        );
        check_consistency(&state, dg.graph()).unwrap();
        // All picks of vertex 3 now come from its only neighbor 1.
        for t in 1..=6u32 {
            assert_eq!(state.pick(3, t).0, 1);
        }
    }

    #[test]
    fn pruned_mode_touches_no_more_than_faithful() {
        for seed in 0..8u64 {
            let make = || {
                let g = star_plus_ring();
                let dg = DynamicGraph::new(g);
                let state = run_propagation(dg.graph(), 15, seed);
                (dg, state)
            };
            let batch = EditBatch::from_lists([(1, 3)], [(0, 1)]);
            let (mut dg_f, mut st_f) = make();
            let rep_f = step(&mut dg_f, &mut st_f, batch.clone(), false);
            let (mut dg_p, mut st_p) = make();
            let rep_p = step(&mut dg_p, &mut st_p, batch, true);
            assert!(
                rep_p.deliveries <= rep_f.deliveries,
                "{rep_p:?} vs {rep_f:?}"
            );
            assert_eq!(rep_p.repicks, rep_f.repicks, "phase A identical");
            // Both end bit-identical: pruning only skips no-op deliveries.
            for v in 0..5u32 {
                assert_eq!(st_f.label_sequence(v), st_p.label_sequence(v));
                for t in 1..=15u32 {
                    assert_eq!(st_f.pick(v, t), st_p.pick(v, t));
                }
            }
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
            let report =
                apply_correction_damped(&mut state, dg.graph(), &applied, false, None, &mut deltas);
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
        apply_correction_damped(state, dg.graph(), &applied, false, damper, &mut Vec::new())
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
        let report = step(
            &mut dg,
            &mut state,
            EditBatch::from_lists([], [(0, 1)]),
            false,
        );
        assert!(report.eta <= report.repicks + report.deliveries);
        assert!(report.eta >= report.repicks);
        assert!(report.value_changes <= report.deliveries);
    }
}
