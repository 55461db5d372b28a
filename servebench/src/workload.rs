//! The workloads: their shapes, the service configuration each runs, and
//! the inputs (seed graph plus the whole edit script) each generates from
//! a seed before anything is timed.

use std::time::Duration;

use rslpa_gen::edits::{localized_batch, uniform_batch};
use rslpa_gen::lfr::LfrParams;
use rslpa_gen::webgraph::{rmat, RmatChurn, RmatParams};
use rslpa_graph::{AdjacencyGraph, DynamicGraph, EditBatch};
use rslpa_serve::{BarrierOnly, BySize, EditOp, ServeConfig, TraceOptions};

/// Label-propagation iterations `T` of every workload's service.
pub const ITERATIONS: usize = 50;

/// How the client offers edits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Loop {
    /// Submit one whole batch, then wait on a barrier; the next batch
    /// goes out when the barrier returns. The service flushes only at
    /// barriers, so each batch is exactly one flush.
    Closed,
    /// Submit edits one at a time on a fixed schedule of `rate` edits/s,
    /// whether or not the service keeps up. The service flushes every
    /// `per_flush` edits and never on a timer, so flush boundaries depend
    /// only on the edit count.
    Open { rate: f64, per_flush: usize },
}

/// What the reader thread does while edits are in flight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reader {
    /// Query blocks back to back.
    Continuous,
    /// One query block, then a sleep of this length.
    Paced(Duration),
}

/// The seed graph family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Graph {
    /// `LfrParams::scaled(n)`.
    Lfr { n: usize },
    /// `RmatParams::web(scale)`.
    Rmat { scale: u32 },
}

/// How each flush's batch is drawn against the evolving graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Edits {
    /// `uniform_batch`: half random inserts, half random deletes (§V-B1).
    Uniform { size: usize },
    /// `localized_batch`: every endpoint in a hot-spot window.
    Localized { size: usize },
    /// `RmatChurn`: corner-walk inserts, degree-biased deletes, and
    /// `grow` fresh vertices per batch.
    RmatChurn {
        inserts: usize,
        deletes: usize,
        grow: usize,
    },
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub graph: Graph,
    pub edits: Edits,
    /// Flushes in one trial's edit script. In a closed loop every edit of
    /// a batch becomes visible at its barrier, so visibility samples come
    /// in one cluster per batch; a count ending in 5 puts the 50th and
    /// 90th percentiles inside a cluster instead of on the edge between
    /// two, where they would jump from run to run.
    pub flushes: usize,
    pub looping: Loop,
    pub shards: usize,
    pub reader: Reader,
}

/// Each workload stresses a different layer; a change to one layer should
/// move its workload and leave the others alone.
pub const WORKLOADS: [Workload; 3] = [
    // The paper's §V-B1 batches: repair plus counter upkeep take about 70%
    // of the maintenance thread's busy time, the publish the rest.
    Workload {
        name: "uniform_batch",
        graph: Graph::Lfr { n: 20_000 },
        edits: Edits::Uniform { size: 1_000 },
        flushes: 15,
        looping: Loop::Closed,
        shards: 1,
        reader: Reader::Continuous,
    },
    // Small hot-spot repairs, but every 100-edit flush publishes weights
    // and rosters for the whole graph, so the publish dominates. At 2000
    // edits/s the maintenance thread still waits on the queue for about
    // 40% of the write phase on two vCPUs, so no backlog builds.
    Workload {
        name: "hotspot_stream",
        graph: Graph::Lfr { n: 20_000 },
        edits: Edits::Localized { size: 100 },
        flushes: 20,
        looping: Loop::Open {
            rate: 2_000.0,
            per_flush: 100,
        },
        shards: 1,
        reader: Reader::Continuous,
    },
    // The only workload on the mailbox mesh: exchange rounds, publish
    // collect, repartition with migration, hub pulls and damping. The
    // coordinator and two workers fill both vCPUs, so the reader wakes for
    // one query block every 2 ms instead of querying back to back.
    Workload {
        name: "rmat_sharded",
        graph: Graph::Rmat { scale: 14 },
        edits: Edits::RmatChurn {
            inserts: 3_000,
            deletes: 2_000,
            grow: 64,
        },
        flushes: 5,
        looping: Loop::Closed,
        shards: 2,
        reader: Reader::Paced(Duration::from_millis(2)),
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated run input: the seed graph and one valid batch per flush.
pub struct Inputs {
    pub graph: AdjacencyGraph,
    pub batches: Vec<EditBatch>,
}

impl Inputs {
    /// The edit operations of one batch in submission order: deletions,
    /// then insertions.
    pub fn ops(batch: &EditBatch) -> impl Iterator<Item = EditOp> + '_ {
        let dels = batch.deletions().iter().map(|&(u, v)| EditOp::Delete(u, v));
        let ins = batch
            .insertions()
            .iter()
            .map(|&(u, v)| EditOp::Insert(u, v));
        dels.chain(ins)
    }

    /// Every edit operation of the script, in submission order.
    pub fn all_ops(&self) -> Vec<EditOp> {
        self.batches.iter().flat_map(Self::ops).collect()
    }

    /// Total edit operations in the script.
    pub fn num_ops(&self) -> usize {
        self.batches.iter().map(EditBatch::len).sum()
    }
}

impl Workload {
    /// The service configuration: `ServeConfig::quick` (damping on, the
    /// serve default) with this workload's policy and shard count.
    pub fn config(&self, seed: u64, trace: Option<TraceOptions>) -> ServeConfig {
        let config = ServeConfig::quick(ITERATIONS, seed).with_shards(self.shards);
        let config = match self.looping {
            Loop::Closed => config.with_policy(BarrierOnly),
            Loop::Open { per_flush, .. } => config.with_policy(BySize {
                max_edits: per_flush,
                // Longer than any run: flushes are cut by count alone.
                max_linger: Duration::from_secs(24 * 3600),
            }),
        };
        match trace {
            Some(t) => config.with_trace(t),
            None => config,
        }
    }

    /// Generate the seed graph and the whole edit script from `seed`.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let graph = match self.graph {
            Graph::Lfr { n } => {
                LfrParams {
                    seed,
                    ..LfrParams::scaled(n)
                }
                .generate()
                .expect("LFR parameters are feasible")
                .graph
            }
            Graph::Rmat { scale } => rmat(&RmatParams::web(scale, seed)),
        };
        let mut shadow = DynamicGraph::new(graph.clone());
        let mut churn = match self.edits {
            // The churn stream reads only the corner weights of its params.
            Edits::RmatChurn { grow, .. } => {
                Some(RmatChurn::new(RmatParams::web(0, seed), grow, seed))
            }
            _ => None,
        };
        let mut batches = Vec::with_capacity(self.flushes);
        for i in 0..self.flushes {
            let batch_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
            let batch = match self.edits {
                Edits::Uniform { size } => uniform_batch(shadow.graph(), size, batch_seed),
                Edits::Localized { size } => localized_batch(shadow.graph(), size, batch_seed),
                Edits::RmatChurn {
                    inserts, deletes, ..
                } => churn
                    .as_mut()
                    .expect("churn stream exists for R-MAT edits")
                    .next_batch(shadow.graph(), inserts, deletes),
            };
            if let Loop::Open { per_flush, .. } = self.looping {
                assert_eq!(batch.len(), per_flush, "open-loop batches fill one flush");
            }
            if let Some(n) = needed_vertices(&batch) {
                shadow.ensure_vertices(n);
            }
            shadow.apply(&batch).expect("generated batches validate");
            batches.push(batch);
        }
        Inputs { graph, batches }
    }
}

/// The vertex count `batch` needs: one past its largest inserted endpoint
/// (insertions are canonical, so that is the second endpoint).
pub fn needed_vertices(batch: &EditBatch) -> Option<usize> {
    batch
        .insertions()
        .iter()
        .map(|&(_, v)| v as usize + 1)
        .max()
}
