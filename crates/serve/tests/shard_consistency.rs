//! Cross-shard consistency: replaying the same edit log (with barriers)
//! must yield identical epoch rosters **and bit-identical weight lists**
//! for every shard count — and must match the pre-sharding reference (a
//! plain [`RslpaDetector`] applying the same batches with full
//! post-processing per epoch).
//!
//! This is the end-to-end guarantee the sharded maintenance path rests
//! on: partitioning is a throughput knob, never a semantics knob. The
//! runs are genuinely threaded — each service spawns its maintenance
//! coordinator, and the sharded ones add one mailbox-mesh worker thread
//! per shard, whose slot-change streams feed the coordinator's counter
//! store. Publish-time repartitioning fires at every epoch, so these
//! replays exercise mid-stream row migration continuously.

use rslpa_core::{postprocess, RslpaConfig, RslpaDetector};
use rslpa_gen::edits::uniform_batch;
use rslpa_gen::lfr::LfrParams;
use rslpa_gen::{named_scenarios, ChurnScenario};
use rslpa_graph::{AdjacencyGraph, Cover, DynamicGraph, EditBatch};
use rslpa_serve::{fingerprint_weights, BarrierOnly, CommunityService, ServeConfig, StatsReport};

const ITERATIONS: usize = 25;
const SEED: u64 = 2024;

fn seed_graph() -> AdjacencyGraph {
    LfrParams {
        seed: SEED,
        ..LfrParams::scaled(150)
    }
    .generate()
    .expect("LFR generation")
    .graph
}

/// A deterministic script of valid batches against the evolving graph.
fn edit_script(graph: &AdjacencyGraph, batches: usize, batch_size: usize) -> Vec<EditBatch> {
    let mut shadow = DynamicGraph::new(graph.clone());
    (0..batches)
        .map(|i| {
            let batch = uniform_batch(shadow.graph(), batch_size, SEED.wrapping_add(i as u64));
            shadow.apply(&batch).expect("uniform batch validates");
            batch
        })
        .collect()
}

/// Per-barrier observation: the published roster plus the weight-list
/// fingerprint of that epoch (equal fingerprints ⇔ bit-identical weights).
type Epochs = Vec<(Cover, u64)>;

/// Replay the script through a service at `shards`, collecting the roster
/// and weights fingerprint published at every barrier, plus the final
/// stats.
fn replay(graph: AdjacencyGraph, script: &[EditBatch], shards: usize) -> (Epochs, StatsReport) {
    let service = CommunityService::start(
        graph,
        ServeConfig::quick(ITERATIONS, SEED)
            .with_policy(BarrierOnly)
            .with_shards(shards),
    );
    let ingest = service.ingest();
    let mut epochs = Vec::with_capacity(script.len());
    for batch in script {
        for &(u, v) in batch.deletions() {
            ingest.delete(u, v).expect("service alive");
        }
        for &(u, v) in batch.insertions() {
            ingest.insert(u, v).expect("service alive");
        }
        ingest.barrier().expect("service alive");
        let snap = service.latest();
        epochs.push((snap.cover.clone(), snap.weights_fingerprint));
    }
    (epochs, service.shutdown())
}

/// [`replay`] at 1 shard and at `shards`, plus the activity checks of
/// the sharded run. Returns both runs' observations. Adversarial windows
/// can legitimately leave a shard idle (a cascade confined to one block,
/// a delete-only window), so the scenario test calls [`replay`]
/// directly: idleness is not the property under test there —
/// bit-identity is.
fn replay_active(graph: AdjacencyGraph, script: &[EditBatch], shards: usize) -> [Epochs; 2] {
    let (single, single_report) = replay(graph.clone(), script, 1);
    let (epochs, report) = replay(graph, script, shards);
    assert_eq!(report.shards.len(), shards);
    if shards > 1 {
        // Work must actually be distributed: every shard repaired slots.
        for (i, s) in report.shards.iter().enumerate() {
            assert!(s.slots_repaired > 0, "shard {i} idle: {report:?}");
        }
        // The workers' gathered streams must fold exactly the single
        // writer's net slot changes into the counter store: none lost,
        // none invented.
        assert!(single_report.slot_deltas_net > 0, "no slot changed");
        assert_eq!(
            report.slot_deltas_net, single_report.slot_deltas_net,
            "mesh counter stream diverged from the single writer's: {report:?}"
        );
        // Single-hop delivery, cross-checked through independent
        // counters: `boundary_msgs` is staged route-side by the repair
        // states, `envelope_hops` is tallied port-side at the mailbox
        // cells — equality means every staged envelope was sent exactly
        // once and nothing else was.
        assert!(report.boundary_msgs > 0, "no boundary traffic: {report:?}");
        assert_eq!(
            report.envelope_hops, report.boundary_msgs,
            "mesh delivery must be single-hop: {report:?}"
        );
    }
    [single, epochs]
}

/// The pre-sharding reference: detector + full detect per barrier, with
/// the weight fingerprint computed by the same function snapshots use.
/// The id space grows the way the service grows it: to the largest
/// inserted endpoint.
fn replay_reference(graph: AdjacencyGraph, script: &[EditBatch], config: RslpaConfig) -> Epochs {
    let mut detector = RslpaDetector::new(graph, config);
    script
        .iter()
        .map(|batch| {
            if let Some(m) = batch.insertions().iter().map(|&(u, v)| u.max(v)).max() {
                if m as usize >= detector.graph().num_vertices() {
                    detector.ensure_vertices(m as usize + 1);
                }
            }
            detector.apply_batch(batch).expect("valid batch");
            let result = postprocess(detector.graph(), detector.state());
            let fp = fingerprint_weights(&result.weights);
            (result.cover, fp)
        })
        .collect()
}

/// Assert two per-barrier observation series are identical.
fn assert_same_epochs(served: &Epochs, reference: &Epochs, what: &str) {
    assert_eq!(served.len(), reference.len(), "{what}: barrier count");
    for (epoch, ((served_cover, served_fp), (reference_cover, reference_fp))) in
        served.iter().zip(reference).enumerate()
    {
        assert_eq!(
            served_cover, reference_cover,
            "{what}: roster diverged at barrier {epoch}"
        );
        assert_eq!(
            served_fp, reference_fp,
            "{what}: weights diverged at barrier {epoch}"
        );
    }
}

#[test]
fn rosters_and_weights_identical_across_shard_counts_and_vs_reference() {
    let graph = seed_graph();
    let script = edit_script(&graph, 8, 40);
    let reference = replay_reference(graph.clone(), &script, RslpaConfig::quick(ITERATIONS, SEED));
    for shards in [2usize, 4] {
        let [single, served] = replay_active(graph.clone(), &script, shards);
        assert_same_epochs(&single, &reference, "1 shard");
        assert_same_epochs(&served, &reference, &format!("{shards} shards"));
    }
}

#[test]
fn eight_shard_mesh_is_deadlock_free_on_one_core() {
    // The deadlock-freedom smoke the mesh barrier protocol must pass: 8
    // worker threads + the maintenance coordinator on whatever cores the
    // host has (CI runs this single-core), barrier-only policy so every
    // flush is as large — and as boundary-heavy — as the barrier allows.
    // Termination of every barrier() call *is* the assertion; equality
    // with the single-writer replay makes the run meaningful.
    let graph = seed_graph();
    let script = edit_script(&graph, 4, 60);
    let [single, meshed] = replay_active(graph, &script, 8);
    assert_eq!(single, meshed, "8-shard mesh diverged from single writer");
}

/// Every count of a stats report that is not a duration, per shard in
/// shard order. The mesh delivers in supersteps (round r applies exactly
/// the batches sent in round r), so each is a function of the script and
/// the shard count alone, whatever the thread schedule.
fn schedule_free_counts(r: &StatsReport) -> Vec<(&'static str, u64)> {
    let mut counts = vec![
        ("snapshots_published", r.snapshots_published),
        ("edits_enqueued", r.edits_enqueued),
        ("edits_applied", r.edits_applied),
        ("edits_rejected", r.edits_rejected),
        ("batches_flushed", r.batches_flushed),
        ("slots_repaired", r.slots_repaired),
        ("slot_deltas_net", r.slot_deltas_net),
        ("barriers", r.barriers),
        ("exchange_rounds", r.exchange_rounds),
        ("boundary_msgs", r.boundary_msgs),
        ("envelope_hops", r.envelope_hops),
        ("mailbox_depth.count", r.mailbox_depth.count),
        ("mailbox_depth.max", r.mailbox_depth.max_ns),
        ("barrier_wait.count", r.barrier_wait.count),
        ("flushes.count", r.flushes.count),
        ("counters.count", r.counters.count),
        ("cut_edges", r.cut_edges),
        ("boundary_vertices", r.boundary_vertices),
        ("repartitions", r.repartitions),
        ("vertices_migrated", r.vertices_migrated),
        ("hub_pulls", r.hub_pulls),
        ("damped_deferrals", r.damped_deferrals),
        ("max_degree_delta", r.max_degree_delta),
        ("mem_live_bytes", r.mem_live_bytes),
        ("mem_capacity_bytes", r.mem_capacity_bytes),
        ("mem_vertices", r.mem_vertices),
        ("dirty_vertices", r.dirty_vertices),
        ("dirty_span", r.dirty_span),
    ];
    for shard in &r.shards {
        counts.push(("shard.edits_routed", shard.edits_routed));
        counts.push(("shard.slots_repaired", shard.slots_repaired));
    }
    counts
}

#[test]
fn mesh_counters_are_identical_across_repeated_runs() {
    // Twenty replays of one script per shard count must agree on every
    // work counter, not only on rosters: exchange rounds, envelopes,
    // deferrals and the dirty region included.
    let graph = seed_graph();
    let script = edit_script(&graph, 6, 40);
    for shards in [2usize, 4, 8] {
        let (_, first) = replay(graph.clone(), &script, shards);
        let want = schedule_free_counts(&first);
        assert!(first.exchange_rounds > 0, "no exchange at {shards} shards");
        for repeat in 1..20 {
            let (_, again) = replay(graph.clone(), &script, shards);
            assert_eq!(
                schedule_free_counts(&again),
                want,
                "{shards} shards: repeat {repeat} diverged from the first run"
            );
        }
    }
}

#[test]
fn genesis_snapshots_agree_across_shard_counts() {
    let graph = seed_graph();
    let reference = RslpaDetector::new(graph.clone(), RslpaConfig::quick(ITERATIONS, SEED))
        .detect()
        .result;
    for shards in [1usize, 2, 4] {
        let service = CommunityService::start(
            graph.clone(),
            ServeConfig::quick(ITERATIONS, SEED).with_shards(shards),
        );
        let snap = service.latest();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.cover, reference.cover, "{shards} shards");
        assert_eq!(snap.tau1.to_bits(), reference.tau1.to_bits());
        assert_eq!(snap.tau2.to_bits(), reference.tau2.to_bits());
        service.shutdown();
    }
}

#[test]
fn zero_and_oversized_shard_counts_work_instead_of_panicking() {
    // `with_shards(0)` clamps to the single-writer path at the builder;
    // a raw config with `shards: 0` clamps at start-up. Counts *above*
    // the seed vertex count are honored as-is — streams grow the id
    // space, so a small genesis graph may legitimately want more shards
    // than it has vertices today (empty shards idle until repartitioning
    // hands them rows).
    let graph = AdjacencyGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
    let zero = ServeConfig::quick(10, 1).with_shards(0);
    assert_eq!(zero.shards, 1, "builder clamps zero to single-writer");

    let raw_zero = ServeConfig {
        shards: 0,
        ..ServeConfig::quick(10, 1)
    };
    let service = CommunityService::start(graph.clone(), raw_zero);
    service.ingest().insert(0, 2).unwrap();
    service.ingest().barrier().unwrap();
    assert_eq!(service.shutdown().shards.len(), 1);

    // 8 shards over 4 vertices: honored, half the shards start empty,
    // and edits (including ones growing the id space) still apply.
    let oversized = ServeConfig::quick(10, 1).with_shards(8);
    let service = CommunityService::start(graph, oversized);
    service.ingest().insert(0, 2).unwrap();
    service.ingest().insert(7, 1).unwrap(); // grows past the seed n=4
    service.ingest().barrier().unwrap();
    let snapshot = service.latest();
    assert_eq!(snapshot.num_vertices, 8);
    assert_eq!(service.shutdown().shards.len(), 8);
}

/// Unroll an adversarial scenario into its seed graph and a replayable
/// window script (one barrier per window when replayed).
fn scenario_script(
    scenario: &mut dyn ChurnScenario,
    windows: usize,
) -> (AdjacencyGraph, Vec<EditBatch>) {
    let (graph, _truth) = scenario.seed_graph();
    let mut shadow = DynamicGraph::new(graph.clone());
    let script = (0..windows)
        .map(|_| {
            let window = scenario.next_window(shadow.graph());
            if let Some(m) = window
                .batch
                .insertions()
                .iter()
                .map(|&(u, v)| u.max(v))
                .max()
            {
                shadow.ensure_vertices((m as usize + 1).max(shadow.graph().num_vertices()));
            }
            shadow
                .apply(&window.batch)
                .expect("scenario batch validates");
            window.batch
        })
        .collect();
    (graph, script)
}

#[test]
fn adversarial_scenarios_bit_identical_across_shards_and_vs_reference() {
    // The break-it streams must not break determinism: every named
    // adversarial scenario, replayed at shards {1, 2, 4, 8}, publishes
    // the reference's rosters AND bit-identical weight lists at every
    // barrier window. Hub pile-ups (FlashCrowd), truth-churning splits
    // (SplitMergeStorm), delete-only windows (CascadeDelete), and id-space
    // growth under skew (SkewBurst) all ride through the same engines the
    // uniform pins cover. The reference runs the serve default's damping,
    // since hubs here cross the degree cap.
    let damped = ServeConfig::quick(ITERATIONS, SEED).detector;
    for scenario in &mut named_scenarios(true, 0xC0FFEE) {
        let (graph, script) = scenario_script(scenario.as_mut(), 4);
        let reference = replay_reference(graph.clone(), &script, damped);
        for shards in [1usize, 2, 4, 8] {
            let (served, _) = replay(graph.clone(), &script, shards);
            assert_same_epochs(
                &served,
                &reference,
                &format!("{}: {shards} shards", scenario.name()),
            );
        }
    }
}

#[test]
fn fresh_vertices_and_churn_stay_consistent_when_sharded() {
    // Wire brand-new vertices in mid-stream (the lazy shard-row path) and
    // verify sharded results still match the reference.
    let graph = seed_graph();
    let n = graph.num_vertices() as u32;
    let mut script = edit_script(&graph, 3, 25);
    script.push(EditBatch::from_lists([(n, 0), (n, 1), (n + 1, n)], []));
    let mut shadow = DynamicGraph::new(graph.clone());
    for batch in &script[..3] {
        shadow.apply(batch).unwrap();
    }
    shadow.ensure_vertices(n as usize + 2);
    shadow.apply(&script[3]).unwrap();
    script.push(uniform_batch(shadow.graph(), 20, SEED ^ 0xff));

    let reference = replay_reference(graph.clone(), &script, RslpaConfig::quick(ITERATIONS, SEED));
    let [single, served] = replay_active(graph, &script, 4);
    assert_same_epochs(&single, &reference, "1 shard");
    assert_same_epochs(&served, &reference, "4 shards");
}
