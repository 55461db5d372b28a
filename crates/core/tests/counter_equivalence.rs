//! Property: streaming [`EdgeCounters`] fed by shard-emitted
//! [`SlotDelta`]s equal a fresh `edge_weights` merge — bit for bit —
//! after an arbitrary interleaving of slot updates (driven by random
//! edge insertions/deletions through Correction Propagation), eager edge
//! deletions, and mid-stream shard row migrations, at both 1 and 4
//! shards.
//!
//! Two harnesses pin it:
//!
//! * the **sequential** harness: the round driver (every outbox
//!   regrouped by owner on one thread) feeds one [`EdgeCounters`] store;
//! * the **mesh** harness: real worker threads deliver envelopes
//!   peer-to-peer over a [`build_mesh`], and each hands back its flush's
//!   slot-change stream the way a serve worker's one flush reply carries
//!   it. The streams are appended to one store in an arrival order the
//!   proptest picks — any permutation of the shards — and a second store
//!   fed in shard order must match it in weights and in memory layout.
//!
//! Both must equal the centralized repair engine plus the full merge
//! pass, under random edit/migration/barrier interleavings — any drift
//! would silently corrupt every published snapshot.

use std::sync::Arc;

use proptest::prelude::*;
use rslpa_core::postprocess::edge_weights;
use rslpa_core::shard::{build_mesh, Envelope, ShardRepairState};
use rslpa_core::{apply_correction, run_propagation, EdgeCounters};
use rslpa_graph::{
    AdjacencyGraph, DynamicGraph, EditBatch, FxHashSet, HashPartitioner, MemAccounted, Partitioner,
    SlotDelta, VertexId,
};

/// Vertex-id space: three 4-cliques (0..12) plus two initially isolated
/// vertices that rounds may attach (the fresh-vertex path).
const N: u32 = 14;
const T_MAX: usize = 8;

fn seed_graph() -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new(N as usize);
    for base in [0u32, 4, 8] {
        for i in base..base + 4 {
            for j in (i + 1)..base + 4 {
                g.insert_edge(i, j);
            }
        }
    }
    g.insert_edge(3, 4);
    g.insert_edge(7, 8);
    g
}

/// Split arbitrary candidate pairs into a batch valid against `g`:
/// present edges become deletions, absent ones insertions.
fn batch_against(g: &AdjacencyGraph, pairs: &[(VertexId, VertexId)]) -> EditBatch {
    let mut ins = Vec::new();
    let mut del = Vec::new();
    let mut seen = FxHashSet::default();
    for &(u, v) in pairs {
        if u == v || !seen.insert((u.min(v), u.max(v))) {
            continue;
        }
        if g.has_edge(u, v) {
            del.push((u, v));
        } else {
            ins.push((u, v));
        }
    }
    EditBatch::from_lists(ins, del)
}

/// One sharded flush: route deltas, Phase A everywhere, pump exchange
/// rounds to quiescence, drain the slot-delta stream in shard order.
fn sharded_flush(
    shards: &mut [ShardRepairState],
    partitioner: &dyn Partitioner,
    applied: &rslpa_graph::AppliedBatch,
) -> Vec<SlotDelta> {
    let per_shard = rslpa_graph::sharding::split_deltas(applied, partitioner);
    let mut outbox = Vec::new();
    for (shard, deltas) in shards.iter_mut().zip(&per_shard) {
        shard.apply_deltas(deltas, &mut outbox);
    }
    while !outbox.is_empty() {
        let mut inboxes: Vec<Vec<Envelope>> = vec![Vec::new(); shards.len()];
        for env in outbox.drain(..) {
            inboxes[partitioner.assign(env.to)].push(env);
        }
        for (shard, inbox) in shards.iter_mut().zip(inboxes) {
            if !inbox.is_empty() {
                shard.exchange(inbox, &mut outbox);
            }
        }
    }
    let mut deltas = Vec::new();
    for shard in shards.iter_mut() {
        deltas.extend(shard.take_slot_deltas());
    }
    deltas
}

/// Migrate every row whose owner changes under `next` (the coordinator's
/// publish-time repartition, between flushes).
fn migrate(
    shards: &mut [ShardRepairState],
    old: &Arc<dyn Partitioner>,
    next: &Arc<dyn Partitioner>,
) {
    let parts = shards.len();
    let mut in_flight: Vec<Vec<(VertexId, rslpa_core::VertexRowData)>> = vec![Vec::new(); parts];
    for shard in shards.iter_mut() {
        let leaving: Vec<VertexId> = (0..N)
            .filter(|&v| old.assign(v) == shard.shard() && next.assign(v) != shard.shard())
            .collect();
        for (v, row) in shard.extract_rows(&leaving) {
            in_flight[next.assign(v)].push((v, row));
        }
    }
    for (shard, rows) in shards.iter_mut().zip(in_flight) {
        shard.set_partitioner(Arc::clone(next));
        shard.adopt_rows(rows);
    }
}

fn assert_weights_equal(a: &[(VertexId, VertexId, f64)], b: &[(VertexId, VertexId, f64)]) {
    assert_eq!(a.len(), b.len(), "edge counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!((x.0, x.1), (y.0, y.1), "edge order drifted");
        assert_eq!(x.2.to_bits(), y.2.to_bits(), "weight drifted at {x:?}");
    }
}

/// Run one generated script at the given shard count.
fn exercise(seed: u64, rounds: &[(Vec<(VertexId, VertexId)>, u8)], parts: usize) {
    let mut dg = DynamicGraph::new(seed_graph());
    let mut central = run_propagation(dg.graph(), T_MAX, seed);
    let mut partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
    let mut shards: Vec<ShardRepairState> = (0..parts)
        .map(|s| ShardRepairState::from_state(&central, dg.graph(), s, Arc::clone(&partitioner)))
        .collect();
    let mut counters = EdgeCounters::new(&central);
    counters.refresh_weights(dg.graph(), 1);

    for (round, (pairs, control)) in rounds.iter().enumerate() {
        if control & 1 != 0 {
            // Mid-stream row migration (between flushes, deltas drained).
            let next: Arc<dyn Partitioner> =
                Arc::new(HashPartitioner::with_seed(parts, round as u64 + 1));
            migrate(&mut shards, &partitioner, &next);
            partitioner = next;
        }
        let batch = batch_against(dg.graph(), pairs);
        if batch.is_empty() {
            continue;
        }
        let applied = dg.apply(&batch).expect("batch built to validate");
        apply_correction(&mut central, dg.graph(), &applied, None, &mut Vec::new());
        let deltas = sharded_flush(&mut shards, partitioner.as_ref(), &applied);

        // Feed the counter store the way the serve loop does: eager
        // deletion retirement, then the compacted slot-delta stream.
        for &(u, v) in batch.deletions() {
            counters.delete_edge(u, v);
        }
        counters.apply_slot_deltas(dg.graph(), &deltas);
        if control & 2 != 0 {
            assert_weights_equal(
                &counters.refresh_weights(dg.graph(), 1),
                &edge_weights(dg.graph(), &central),
            );
        }
    }
    // Always compare at the end of the script.
    assert_weights_equal(
        &counters.refresh_weights(dg.graph(), 1),
        &edge_weights(dg.graph(), &central),
    );
}

/// Append the workers' per-shard `streams` into one, in an arrival order
/// drawn from `picks`: each step takes the stream of one shard not taken
/// yet.
fn arrival_order(
    streams: &mut [Vec<SlotDelta>],
    picks: &mut impl Iterator<Item = usize>,
) -> Vec<SlotDelta> {
    let mut open: Vec<usize> = (0..streams.len()).collect();
    let mut arrived = Vec::new();
    while !open.is_empty() {
        let s = open.remove(picks.next().unwrap_or(0) % open.len());
        arrived.append(&mut streams[s]);
    }
    arrived
}

/// The mesh harness: peer-to-peer delivery over a real threaded mesh;
/// the workers' slot-change streams reach one counter store in the
/// arrival order `order` picks, and a second store in shard order.
/// Migrations re-partition rows between flushes; every `control & 2`
/// round is a publish barrier comparing the store's weight list against
/// the centralized reference bit for bit, and the two stores' memory
/// footprints against each other.
fn exercise_mesh(
    seed: u64,
    rounds: &[(Vec<(VertexId, VertexId)>, u8)],
    order: &[usize],
    parts: usize,
) {
    let mut dg = DynamicGraph::new(seed_graph());
    let mut central = run_propagation(dg.graph(), T_MAX, seed);
    let mut partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
    let mut shards: Vec<ShardRepairState> = (0..parts)
        .map(|s| ShardRepairState::from_state(&central, dg.graph(), s, Arc::clone(&partitioner)))
        .collect();
    // The genesis-refreshed store the serve bootstrap keeps, twice (a
    // clone would not copy the buffers' capacities).
    let genesis = || {
        let mut store = EdgeCounters::new(&central);
        store.refresh_weights(dg.graph(), 1);
        store
    };
    let (mut counters, mut in_shard_order) = (genesis(), genesis());
    let mut ports = build_mesh(parts);
    let mut picks = order.iter().copied().cycle();

    let barrier = |counters: &mut EdgeCounters,
                   in_shard_order: &mut EdgeCounters,
                   graph: &AdjacencyGraph,
                   central: &rslpa_core::LabelState| {
        let weights = counters.refresh_weights(graph, 1);
        assert_weights_equal(&weights, &edge_weights(graph, central));
        assert_weights_equal(&weights, &in_shard_order.refresh_weights(graph, 1));
        assert_eq!(
            counters.mem_footprint(),
            in_shard_order.mem_footprint(),
            "arrival order changed the store's layout"
        );
    };

    for (round, (pairs, control)) in rounds.iter().enumerate() {
        if control & 1 != 0 {
            let next: Arc<dyn Partitioner> =
                Arc::new(HashPartitioner::with_seed(parts, round as u64 + 1));
            migrate(&mut shards, &partitioner, &next);
            partitioner = next;
        }
        let batch = batch_against(dg.graph(), pairs);
        if batch.is_empty() {
            continue;
        }
        let applied = dg.apply(&batch).expect("batch built to validate");
        apply_correction(&mut central, dg.graph(), &applied, None, &mut Vec::new());

        // Phase A + p2p exchange on real threads; each worker drains its
        // stream once per flush, as its one flush reply does.
        let per_shard = rslpa_graph::sharding::split_deltas(&applied, partitioner.as_ref());
        let mut streams: Vec<Vec<SlotDelta>> = std::thread::scope(|s| {
            let workers: Vec<_> = shards
                .iter_mut()
                .zip(ports.iter_mut())
                .zip(&per_shard)
                .map(|((shard, port), deltas)| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut report = shard.apply_deltas(deltas, &mut out);
                        port.exchange_to_quiescence(shard, out, &mut report);
                        shard.take_slot_deltas()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("mesh worker"))
                .collect()
        });
        let shard_order: Vec<SlotDelta> = streams.concat();
        let arrived = arrival_order(&mut streams, &mut picks);

        for store in [&mut counters, &mut in_shard_order] {
            for &(u, v) in batch.deletions() {
                store.delete_edge(u, v);
            }
        }
        counters.apply_slot_deltas(dg.graph(), &arrived);
        in_shard_order.apply_slot_deltas(dg.graph(), &shard_order);
        if control & 2 != 0 {
            barrier(&mut counters, &mut in_shard_order, dg.graph(), &central);
        }
    }
    barrier(&mut counters, &mut in_shard_order, dg.graph(), &central);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_counters_equal_fresh_merge_under_interleaving(
        seed in 0u64..64,
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u32..N, 0u32..N), 1..8), 0u8..4),
            1..8,
        ),
    ) {
        for parts in [1usize, 4] {
            exercise(seed, &rounds, parts);
        }
    }

    #[test]
    fn mesh_streams_in_any_reply_order_equal_centralized(
        seed in 0u64..64,
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u32..N, 0u32..N), 1..8), 0u8..4),
            1..8,
        ),
        order in proptest::collection::vec(0usize..8, 1..16),
    ) {
        for parts in [1usize, 4] {
            exercise_mesh(seed, &rounds, &order, parts);
        }
    }
}
