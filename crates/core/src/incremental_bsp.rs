//! Algorithm 2 as a BSP vertex program — the paper's actual distributed
//! Correction Propagation loop.
//!
//! Superstep 0 (Algorithm 2 lines 1–12): every affected vertex re-examines
//! its picks; repicks send an `Unrecord` to the old source and a `Fetch`
//! to the new one. Subsequent supersteps (lines 13–24): sources serve
//! fetches (registering the receiver), corrected labels travel as `Value`
//! messages, and each applied `Value` forwards to the slot's recorded
//! receivers, changed or not, as in the paper.
//!
//! A `Value` carries its origin position and is applied only if the
//! receiving slot still picks `(sender, origin_pos)` — the message-passing
//! analogue of the sequencing the centralized version gets for free (a
//! correction can race with a repick of the same slot).
//!
//! The decision sequence (epoch bumps, coins, draws) replicates
//! [`crate::incremental::apply_correction`] exactly. This program is
//! written independently of that kernel, which the single writer and every
//! mesh shard share, so the bit-equality of the two — asserted by the
//! tests below — checks the kernel against something other than itself.
//! It has no damping; the damped kernel is checked against its own
//! undamped fixed point instead.

use rslpa_distsim::{BspEngine, Ctx, Executor, RunStats, VertexProgram};
use rslpa_graph::rng::{PickKey, Stream};
use rslpa_graph::{AppliedBatch, CsrGraph, Label, Partitioner, VertexDelta, VertexId};

use crate::propagation::draw_pick;
use crate::state::{LabelState, Record, NO_SOURCE};

/// Messages of the correction protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorrMsg {
    /// "Forget that I picked your slot `slot` for my iteration `k`."
    Unrecord {
        /// Slot at the (old) source.
        slot: u32,
        /// Iteration at the sender.
        k: u32,
    },
    /// "Register me for your slot `pos` and send its label for my
    /// iteration `k`."
    Fetch {
        /// Requested slot at the receiver of this message.
        pos: u32,
        /// Iteration at the sender.
        k: u32,
    },
    /// A label value for the receiver's slot `t`, originating from the
    /// sender's slot `origin_pos`.
    Value {
        /// Slot at the receiver this value fills.
        t: u32,
        /// Slot at the sender it was read from (staleness guard).
        origin_pos: u32,
        /// The label.
        label: Label,
    },
}

/// Per-vertex correction state: the full provenance rows.
#[derive(Clone, Debug, Default)]
pub struct CorrState {
    labels: Vec<Label>,
    picks: Vec<(VertexId, u32)>,
    epochs: Vec<u32>,
    records: Vec<Record>,
}

/// The correction program, parameterized by the pre-batch state and the
/// batch deltas.
pub struct CorrectionProgram<'a> {
    prev: &'a LabelState,
    applied: &'a AppliedBatch,
}

impl<'a> CorrectionProgram<'a> {
    /// New program over the previous state and an applied batch.
    pub fn new(prev: &'a LabelState, applied: &'a AppliedBatch) -> Self {
        Self { prev, applied }
    }

    fn t_max(&self) -> u32 {
        self.prev.iterations() as u32
    }

    /// Phase A for one vertex (superstep 0). Mirrors the centralized
    /// decision sequence exactly — same epoch bumps, same streams.
    fn phase_a(&self, ctx: &mut Ctx<'_, CorrMsg>, state: &mut CorrState, delta: &VertexDelta) {
        let v = ctx.vertex();
        let seed = self.prev.seed();
        let nbrs = ctx.neighbors();
        for t in 1..=self.t_max() {
            let ti = t as usize - 1;
            let (old_src, old_pos) = state.picks[ti];
            if nbrs.is_empty() {
                if old_src != NO_SOURCE {
                    ctx.send(
                        old_src,
                        CorrMsg::Unrecord {
                            slot: old_pos,
                            k: t,
                        },
                    );
                    state.picks[ti] = (NO_SOURCE, 0);
                    let own = state.labels[0];
                    state.labels[t as usize] = own;
                    // The reverted slot has no incoming Value to trigger
                    // forwarding (unlike repicks), so notify receivers now.
                    for r in &state.records {
                        if r.slot() == t {
                            ctx.send(
                                r.receiver(),
                                CorrMsg::Value {
                                    t: r.k(),
                                    origin_pos: t,
                                    label: own,
                                },
                            );
                        }
                    }
                }
                continue;
            }
            let needs_full_repick =
                old_src == NO_SOURCE || delta.removed.binary_search(&old_src).is_ok();
            if needs_full_repick {
                self.repick(ctx, state, t, old_src, old_pos, None);
                continue;
            }
            if delta.added.is_empty() {
                continue;
            }
            let deg = nbrs.len();
            let na = delta.added.len();
            state.epochs[ti] += 1;
            let key = PickKey {
                seed,
                vertex: v,
                iteration: t,
                epoch: state.epochs[ti],
            };
            if key.unit_f64(Stream::Cat3Coin) < na as f64 / deg as f64 {
                self.repick(ctx, state, t, old_src, old_pos, Some(&delta.added));
            }
        }
    }

    /// Re-draw `(v, t)`; `candidates = None` means all current neighbors.
    fn repick(
        &self,
        ctx: &mut Ctx<'_, CorrMsg>,
        state: &mut CorrState,
        t: u32,
        old_src: VertexId,
        old_pos: u32,
        candidates: Option<&[VertexId]>,
    ) {
        let ti = t as usize - 1;
        if old_src != NO_SOURCE {
            ctx.send(
                old_src,
                CorrMsg::Unrecord {
                    slot: old_pos,
                    k: t,
                },
            );
        }
        state.epochs[ti] += 1;
        let pool = candidates.unwrap_or_else(|| ctx.neighbors());
        let (src, pos) = draw_pick(self.prev.seed(), ctx.vertex(), t, state.epochs[ti], pool);
        state.picks[ti] = (src, pos);
        ctx.send(src, CorrMsg::Fetch { pos, k: t });
    }
}

impl VertexProgram for CorrectionProgram<'_> {
    type Msg = CorrMsg;
    type State = CorrState;

    fn init(&self, ctx: &mut Ctx<'_, CorrMsg>) -> CorrState {
        let v = ctx.vertex();
        let mut state = CorrState {
            labels: self.prev.label_sequence(v).to_vec(),
            picks: self.prev.picks(v).collect(),
            epochs: self.prev.epochs(v).to_vec(),
            records: self.prev.records(v).to_vec(),
        };
        if let Some(delta) = self.applied.deltas.get(&v) {
            self.phase_a(ctx, &mut state, delta);
        }
        state
    }

    fn step(
        &self,
        ctx: &mut Ctx<'_, CorrMsg>,
        state: &mut CorrState,
        inbox: &[(VertexId, CorrMsg)],
    ) {
        // 1. Unrecords first: detach receivers that repicked away.
        for &(from, msg) in inbox {
            if let CorrMsg::Unrecord { slot, k } = msg {
                let key = Record::new(slot, from, k);
                if let Some(i) = state.records.iter().position(|&r| r == key) {
                    state.records.swap_remove(i);
                }
            }
        }
        // 2. Apply Values (staleness-guarded), collecting slots to forward.
        let mut changed_slots: Vec<u32> = Vec::new();
        for &(from, msg) in inbox {
            if let CorrMsg::Value {
                t,
                origin_pos,
                label,
            } = msg
            {
                let ti = t as usize - 1;
                if state.picks[ti] != (from, origin_pos) {
                    continue; // stale: the slot was repicked meanwhile
                }
                state.labels[t as usize] = label;
                changed_slots.push(t);
            }
        }
        changed_slots.sort_unstable();
        changed_slots.dedup();
        // 3. Serve fetches with post-update labels; snapshot the record
        //    count first so step 4 does not double-deliver to them.
        let pre_fetch_records = state.records.len();
        for &(from, msg) in inbox {
            if let CorrMsg::Fetch { pos, k } = msg {
                state.records.push(Record::new(pos, from, k));
                ctx.send(
                    from,
                    CorrMsg::Value {
                        t: k,
                        origin_pos: pos,
                        label: state.labels[pos as usize],
                    },
                );
            }
        }
        // 4. Forward corrections to previously-registered receivers.
        for &t in &changed_slots {
            let label = state.labels[t as usize];
            for i in 0..pre_fetch_records {
                let r = state.records[i];
                if r.slot() == t {
                    ctx.send(
                        r.receiver(),
                        CorrMsg::Value {
                            t: r.k(),
                            origin_pos: t,
                            label,
                        },
                    );
                }
            }
        }
    }

    fn msg_bytes(&self, _msg: &CorrMsg) -> u64 {
        12 // three u32 words
    }
}

/// Run distributed correction propagation, returning the repaired state.
///
/// `graph_after` must be the post-batch topology; `prev` the state before
/// the batch. Superstep 0's activations are state residency (every vertex
/// re-materializes its rows), so callers measuring repair cost should look
/// at `stats.supersteps[1..]` plus the affected-vertex work.
pub fn run_correction_bsp(
    prev: &LabelState,
    graph_after: &CsrGraph,
    applied: &AppliedBatch,
    partitioner: &dyn Partitioner,
    executor: Executor,
) -> (LabelState, RunStats) {
    let program = CorrectionProgram::new(prev, applied);
    let mut engine = BspEngine::new(graph_after, program, partitioner, executor);
    // Worst case: a correction travels one iteration per two supersteps.
    engine.run(2 * prev.iterations() + 4);
    let stats = engine.stats().clone();
    let n = graph_after.num_vertices();
    let t_max = prev.iterations();
    let mut state = LabelState::new(n, t_max, prev.seed());
    for (v, cs) in engine.into_states().into_iter().enumerate() {
        // Epochs come along, so later batches keep drawing fresh values.
        state.set_row(
            v as VertexId,
            &cs.labels,
            cs.picks.iter().copied(),
            &cs.epochs,
            &cs.records,
        );
    }
    (state, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::apply_correction;
    use crate::propagation::run_propagation;
    use crate::verify::check_consistency;
    use rslpa_graph::{AdjacencyGraph, DynamicGraph, EditBatch, HashPartitioner};

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

    fn exercise(batch: EditBatch, seed: u64) {
        let g = AdjacencyGraph::from_edges(
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
        );
        let t_max = 10usize;
        let mut dg = DynamicGraph::new(g);
        let state0 = run_propagation(dg.graph(), t_max, seed);
        let applied = dg.apply(&batch).unwrap();
        // Centralized repair.
        let mut central = state0.clone();
        apply_correction(&mut central, dg.graph(), &applied, None, &mut Vec::new());
        // Distributed repair.
        let csr = CsrGraph::from_adjacency(dg.graph());
        let (bsp, _) = run_correction_bsp(
            &state0,
            &csr,
            &applied,
            &HashPartitioner::new(3),
            Executor::Sequential,
        );
        check_consistency(&bsp, dg.graph()).unwrap();
        compare_states(&central, &bsp, 8, t_max as u32);
    }

    #[test]
    fn matches_centralized_on_deletion() {
        for seed in 0..6 {
            exercise(EditBatch::from_lists([], [(0, 1)]), seed);
        }
    }

    #[test]
    fn matches_centralized_on_insertion() {
        for seed in 0..6 {
            exercise(EditBatch::from_lists([(1, 5)], []), seed);
        }
    }

    #[test]
    fn matches_centralized_on_mixed_batch() {
        for seed in 0..6 {
            exercise(
                EditBatch::from_lists([(1, 7), (3, 5)], [(0, 1), (5, 6)]),
                seed,
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = AdjacencyGraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let mut dg = DynamicGraph::new(g);
        let state0 = run_propagation(dg.graph(), 8, 3);
        let applied = dg
            .apply(&EditBatch::from_lists([(0, 3)], [(1, 2)]))
            .unwrap();
        let csr = CsrGraph::from_adjacency(dg.graph());
        let p = HashPartitioner::new(3);
        let (a, _) = run_correction_bsp(&state0, &csr, &applied, &p, Executor::Sequential);
        let (b, _) = run_correction_bsp(&state0, &csr, &applied, &p, Executor::Parallel);
        compare_states(&a, &b, 6, 8);
    }

    #[test]
    fn message_cost_scales_with_batch_not_graph() {
        // A 200-vertex ring: one deleted edge must touch a small fraction
        // of all labels, and correction traffic must be far below a fresh
        // propagation's 2·n·T messages.
        let n = 200usize;
        let g = AdjacencyGraph::from_edges(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32)));
        let t_max = 10usize;
        let mut dg = DynamicGraph::new(g);
        let state0 = run_propagation(dg.graph(), t_max, 1);
        let applied = dg.apply(&EditBatch::from_lists([], [(0, 1)])).unwrap();
        let csr = CsrGraph::from_adjacency(dg.graph());
        let (_, stats) = run_correction_bsp(
            &state0,
            &csr,
            &applied,
            &HashPartitioner::new(4),
            Executor::Sequential,
        );
        let scratch_cost = (2 * n * t_max) as u64;
        assert!(
            stats.total_messages() < scratch_cost / 4,
            "incremental {} vs scratch {scratch_cost}",
            stats.total_messages()
        );
    }

    #[test]
    fn multi_batch_continuity() {
        // Epochs must survive assembly so a second batch stays aligned
        // with the centralized implementation.
        let g = AdjacencyGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mut dg_c = DynamicGraph::new(g.clone());
        let mut central = run_propagation(&g, 8, 5);
        let mut dg_b = DynamicGraph::new(g);
        let mut bsp_state = central.clone();
        for (ins, del) in [
            (vec![(0u32, 2u32)], vec![(3u32, 4u32)]),
            (vec![(1, 3)], vec![(0, 2)]),
        ] {
            let batch = EditBatch::from_lists(ins, del);
            let applied_c = dg_c.apply(&batch).unwrap();
            apply_correction(
                &mut central,
                dg_c.graph(),
                &applied_c,
                None,
                &mut Vec::new(),
            );
            let applied_b = dg_b.apply(&batch).unwrap();
            let csr = CsrGraph::from_adjacency(dg_b.graph());
            let (next, _) = run_correction_bsp(
                &bsp_state,
                &csr,
                &applied_b,
                &HashPartitioner::new(2),
                Executor::Sequential,
            );
            bsp_state = next;
        }
        compare_states(&central, &bsp_state, 5, 8);
    }
}
