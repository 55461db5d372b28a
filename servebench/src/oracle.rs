//! The centralized reference: the same script replayed through
//! `RslpaDetector`, and a from-scratch detection on the final graph.

use std::time::Instant;

use rslpa_core::{RslpaConfig, RslpaDetector};
use rslpa_graph::{AdjacencyGraph, Cover};
use rslpa_serve::fingerprint_weights;

use crate::workload::{needed_vertices, Inputs};

/// The served state every trial must end in.
pub struct Oracle {
    pub cover: Cover,
    pub weights_fingerprint: u64,
    /// Total time of `apply_batch` over the script: the single-threaded
    /// repair baseline.
    pub apply_s: f64,
    pub final_graph: AdjacencyGraph,
}

/// Replay the script's flush boundaries, one `apply_batch` per flush.
pub fn replay(inputs: &Inputs, config: RslpaConfig) -> Oracle {
    let mut detector = RslpaDetector::new(inputs.graph.clone(), config);
    let mut apply_s = 0.0;
    for batch in &inputs.batches {
        let started = Instant::now();
        if let Some(n) = needed_vertices(batch) {
            detector.ensure_vertices(n);
        }
        detector
            .apply_batch(batch)
            .expect("generated batches validate");
        apply_s += started.elapsed().as_secs_f64();
    }
    let result = detector.detect().result;
    Oracle {
        weights_fingerprint: fingerprint_weights(&result.weights),
        cover: result.cover,
        apply_s,
        final_graph: detector.graph().clone(),
    }
}

/// A from-scratch detection and what each half of it cost.
pub struct Scratch {
    pub cover: Cover,
    pub propagate_s: f64,
    pub detect_s: f64,
}

/// `RslpaDetector::new(graph, config).detect()`, timed in two parts.
pub fn from_scratch(graph: AdjacencyGraph, config: RslpaConfig) -> Scratch {
    let started = Instant::now();
    let detector = RslpaDetector::new(graph, config);
    let propagate_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let cover = detector.detect().result.cover;
    Scratch {
        cover,
        propagate_s,
        detect_s: started.elapsed().as_secs_f64(),
    }
}
