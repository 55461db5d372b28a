//! Algorithm 1 as a BSP vertex program (request/reply).
//!
//! The paper's Algorithm 1 is a MapReduce job: each vertex emits
//! `(src, pos, i)`, sources answer with the requested label, reducers
//! append. Here that is two supersteps per iteration — requests on even
//! supersteps, replies on odd ones — moving **one request and one reply
//! per vertex per iteration** (`O(|V|)` traffic; SLPA moves `O(|E|)`).
//!
//! The same [`draw_pick`] drives both this program and the centralized
//! [`run_propagation`](crate::propagation::run_propagation), so the two
//! produce bit-identical states (asserted in tests). Receiver records are
//! registered at the source when it serves the request, exactly as the
//! paper notes ("recorded during the label propagation process with no
//! additional operations required").

use rslpa_distsim::{BspEngine, Ctx, Executor, RunStats, VertexProgram};
use rslpa_graph::{CsrGraph, Label, Partitioner, VertexId};

use crate::propagation::draw_pick;
use crate::state::{LabelState, Record, NO_SOURCE};

/// Messages of the propagation protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropMsg {
    /// "Send me your label at `pos`; I am storing it at my iteration `t`."
    Request {
        /// Requested slot in the source's sequence.
        pos: u32,
        /// The requester's iteration.
        t: u32,
    },
    /// Answer carrying the label for the requester's iteration `t`.
    Reply {
        /// The requester's iteration this label fills.
        t: u32,
        /// The label value.
        label: Label,
    },
}

/// Per-vertex state of the BSP propagation.
#[derive(Clone, Debug, Default)]
pub struct PropState {
    /// Labels appended so far (index = iteration).
    pub labels: Vec<Label>,
    /// Pick provenance per iteration `t ∈ 1..=T` (index `t − 1`).
    pub picks: Vec<(VertexId, u32)>,
    /// Receiver records owned by this vertex.
    pub records: Vec<Record>,
}

/// The propagation program.
pub struct PropagationProgram {
    /// Iterations `T`.
    pub t_max: usize,
    /// Run seed (shared with the centralized implementation).
    pub seed: u64,
}

impl PropagationProgram {
    fn request(&self, ctx: &mut Ctx<'_, PropMsg>, state: &mut PropState, t: u32) {
        let nbrs = ctx.neighbors();
        let (src, pos) = draw_pick(self.seed, ctx.vertex(), t, 0, nbrs);
        state.picks.push((src, pos));
        ctx.send(src, PropMsg::Request { pos, t });
    }
}

impl VertexProgram for PropagationProgram {
    type Msg = PropMsg;
    type State = PropState;

    fn init(&self, ctx: &mut Ctx<'_, PropMsg>) -> PropState {
        let v = ctx.vertex();
        let mut state = PropState {
            labels: Vec::with_capacity(self.t_max + 1),
            picks: Vec::with_capacity(self.t_max),
            records: Vec::new(),
        };
        state.labels.push(v);
        if ctx.neighbors().is_empty() {
            // Isolated: the whole sequence is the own label, no traffic.
            state.labels.resize(self.t_max + 1, v);
            state.picks.resize(self.t_max, (NO_SOURCE, 0));
        } else if self.t_max > 0 {
            self.request(ctx, &mut state, 1);
        }
        state
    }

    fn step(
        &self,
        ctx: &mut Ctx<'_, PropMsg>,
        state: &mut PropState,
        inbox: &[(VertexId, PropMsg)],
    ) {
        for &(from, msg) in inbox {
            match msg {
                PropMsg::Request { pos, t } => {
                    state.records.push(Record::new(pos, from, t));
                    let label = state.labels[pos as usize];
                    ctx.send(from, PropMsg::Reply { t, label });
                }
                PropMsg::Reply { t, label } => {
                    debug_assert_eq!(t as usize, state.labels.len(), "replies arrive in order");
                    state.labels.push(label);
                    if (t as usize) < self.t_max {
                        self.request(ctx, state, t + 1);
                    }
                }
            }
        }
    }

    fn msg_bytes(&self, _msg: &PropMsg) -> u64 {
        8 // pos/t or t/label: two u32 words on the wire
    }
}

/// Run BSP propagation and assemble a [`LabelState`].
pub fn run_propagation_bsp(
    graph: &CsrGraph,
    t_max: usize,
    seed: u64,
    partitioner: &dyn Partitioner,
    executor: Executor,
) -> (LabelState, RunStats) {
    let mut engine = BspEngine::new(
        graph,
        PropagationProgram { t_max, seed },
        partitioner,
        executor,
    );
    engine.run(2 * t_max + 2);
    let stats = engine.stats().clone();
    let n = graph.num_vertices();
    let mut state = LabelState::new(n, t_max, seed);
    for (v, ps) in engine.into_states().into_iter().enumerate() {
        let v = v as VertexId;
        assert_eq!(ps.labels.len(), t_max + 1, "vertex {v} incomplete");
        for t in 1..=t_max as u32 {
            state.set_label(v, t, ps.labels[t as usize]);
            let (src, pos) = ps.picks[t as usize - 1];
            state.set_pick(v, t, src, pos);
        }
        for r in ps.records {
            state.add_record(v, r.slot(), r.receiver(), r.k());
        }
    }
    (state, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::run_propagation;
    use crate::verify::check_consistency;
    use rslpa_graph::{AdjacencyGraph, HashPartitioner};

    fn ring_with_chords(n: usize) -> AdjacencyGraph {
        let mut g = AdjacencyGraph::from_edges(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32)));
        for i in 0..(n as u32) / 2 {
            g.insert_edge(i, i + n as u32 / 2);
        }
        g
    }

    #[test]
    fn bsp_matches_centralized_bitwise() {
        let g = ring_with_chords(16);
        let csr = CsrGraph::from_adjacency(&g);
        let central = run_propagation(&g, 12, 9);
        let (bsp, _) =
            run_propagation_bsp(&csr, 12, 9, &HashPartitioner::new(4), Executor::Sequential);
        for v in 0..16u32 {
            assert_eq!(
                central.label_sequence(v),
                bsp.label_sequence(v),
                "vertex {v}"
            );
            for t in 1..=12u32 {
                assert_eq!(central.pick(v, t), bsp.pick(v, t));
            }
        }
        check_consistency(&bsp, &g).unwrap();
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = ring_with_chords(24);
        let csr = CsrGraph::from_adjacency(&g);
        let p = HashPartitioner::new(4);
        let (a, _) = run_propagation_bsp(&csr, 10, 1, &p, Executor::Sequential);
        let (b, _) = run_propagation_bsp(&csr, 10, 1, &p, Executor::Parallel);
        for v in 0..24u32 {
            assert_eq!(a.label_sequence(v), b.label_sequence(v));
        }
    }

    #[test]
    fn traffic_is_two_messages_per_vertex_per_iteration() {
        let g = ring_with_chords(20);
        let csr = CsrGraph::from_adjacency(&g);
        let t_max = 8;
        let (_, stats) = run_propagation_bsp(
            &csr,
            t_max,
            2,
            &HashPartitioner::new(4),
            Executor::Sequential,
        );
        // One request + one reply per vertex per iteration, no isolated
        // vertices in this graph.
        assert_eq!(stats.total_messages(), (2 * 20 * t_max) as u64);
        // Compare against SLPA's 2|E| per iteration: with 30 edges this
        // graph would cost 60/iteration there vs our 40.
        assert!(stats.total_messages() < (2 * csr.num_edges() * t_max) as u64);
    }

    #[test]
    fn isolated_vertices_cost_nothing() {
        let mut g = AdjacencyGraph::new(5);
        g.insert_edge(0, 1);
        let csr = CsrGraph::from_adjacency(&g);
        let (state, stats) =
            run_propagation_bsp(&csr, 6, 3, &HashPartitioner::new(2), Executor::Sequential);
        assert_eq!(stats.total_messages(), 2 * 2 * 6);
        for v in 2..5u32 {
            assert!(state.label_sequence(v).iter().all(|&l| l == v));
        }
        check_consistency(&state, &g).unwrap();
    }
}
