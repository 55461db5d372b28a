//! High-level API: an rSLPA detector over a dynamic graph.
//!
//! ```
//! use rslpa_core::{RslpaConfig, RslpaDetector};
//! use rslpa_graph::{AdjacencyGraph, EditBatch};
//!
//! // Two triangles joined by a bridge.
//! let graph = AdjacencyGraph::from_edges(6, [
//!     (0, 1), (1, 2), (0, 2),
//!     (3, 4), (4, 5), (3, 5),
//!     (2, 3),
//! ]);
//! let mut detector = RslpaDetector::new(graph, RslpaConfig::quick(40, 7));
//! let initial = detector.detect();
//! assert!(initial.result.cover.len() >= 1);
//!
//! // The graph changes; the detector repairs its state incrementally.
//! let batch = EditBatch::from_lists([(0, 3)], [(2, 3)]);
//! let report = detector.apply_batch(&batch).unwrap();
//! assert!(report.eta > 0);
//! let updated = detector.detect();
//! assert_eq!(updated.result.cover.covered_vertices().len(), 6);
//! ```

use rslpa_graph::{AdjacencyGraph, DynamicGraph, EditBatch, EditError, SlotDelta};

use crate::config::RslpaConfig;
use crate::incremental::{apply_correction, CascadeDamper, UpdateReport};
use crate::postprocess::{postprocess, PostprocessResult};
use crate::propagation::run_propagation;
use crate::state::LabelState;

/// A community-detection snapshot.
#[derive(Clone, Debug)]
pub struct DetectionResult {
    /// Thresholds, entropy, weights and the extracted cover.
    pub result: PostprocessResult,
}

/// Stateful rSLPA detector: owns the graph, the label state, and applies
/// edit batches incrementally.
///
/// The intended deployment (paper §V-B3): "let the algorithm handle
/// changes continuously, and calculate the communities once per hour" —
/// i.e. cheap [`apply_batch`](Self::apply_batch) calls as edits stream in,
/// and [`detect`](Self::detect) (post-processing) on demand.
#[derive(Clone, Debug)]
pub struct RslpaDetector {
    graph: DynamicGraph,
    state: LabelState,
    config: RslpaConfig,
    batches_applied: usize,
    /// Deferred-cascade state when `config.damping` is set.
    damper: Option<CascadeDamper>,
}

impl RslpaDetector {
    /// Run the initial label propagation on `graph`.
    pub fn new(graph: AdjacencyGraph, config: RslpaConfig) -> Self {
        let state = run_propagation(&graph, config.iterations, config.seed);
        Self {
            graph: DynamicGraph::new(graph),
            state,
            config,
            batches_applied: 0,
            damper: config.damping.map(CascadeDamper::new),
        }
    }

    /// Current graph.
    pub fn graph(&self) -> &AdjacencyGraph {
        self.graph.graph()
    }

    /// Current label state (provenance included).
    pub fn state(&self) -> &LabelState {
        &self.state
    }

    /// Configuration.
    pub fn config(&self) -> &RslpaConfig {
        &self.config
    }

    /// Number of batches applied since construction.
    pub fn batches_applied(&self) -> usize {
        self.batches_applied
    }

    /// Grow the vertex space to `n` (isolated new vertices); required
    /// before inserting edges that reference fresh vertex ids.
    pub fn ensure_vertices(&mut self, n: usize) {
        self.graph.ensure_vertices(n);
        if self.state.num_vertices() < n {
            self.state.grow(n);
        }
    }

    /// Apply an edit batch and incrementally repair the label state
    /// (Correction Propagation). Returns the work report.
    pub fn apply_batch(&mut self, batch: &EditBatch) -> Result<UpdateReport, EditError> {
        self.apply_batch_streaming(batch, &mut Vec::new())
    }

    /// [`apply_batch`](Self::apply_batch) that additionally emits the
    /// repair's label-slot changes as [`SlotDelta`]s, in application
    /// order — what a streaming
    /// [`EdgeCounters`](crate::edge_counters::EdgeCounters) store consumes
    /// to keep edge weights exact without ever re-merging histograms.
    pub fn apply_batch_streaming(
        &mut self,
        batch: &EditBatch,
        slot_deltas: &mut Vec<SlotDelta>,
    ) -> Result<UpdateReport, EditError> {
        let applied = self.graph.apply(batch)?;
        let report = apply_correction(
            &mut self.state,
            self.graph.graph(),
            &applied,
            self.damper.as_mut(),
            slot_deltas,
        );
        self.batches_applied += 1;
        Ok(report)
    }

    /// Extract communities from the current label state (post-processing).
    pub fn detect(&self) -> DetectionResult {
        DetectionResult {
            result: postprocess(self.graph.graph(), &self.state),
        }
    }

    /// Rebuild the label state from scratch on the current graph (the
    /// baseline the incremental path is measured against).
    pub fn recompute_from_scratch(&mut self) {
        self.state = run_propagation(self.graph.graph(), self.config.iterations, self.config.seed);
        // A from-scratch state is fully consistent; nothing is pending.
        self.damper = self.config.damping.map(CascadeDamper::new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_consistency;

    fn two_triangles() -> AdjacencyGraph {
        AdjacencyGraph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn detects_triangles_and_survives_batches() {
        let mut d = RslpaDetector::new(two_triangles(), RslpaConfig::quick(40, 11));
        let r0 = d.detect();
        assert!(!r0.result.cover.is_empty());
        d.apply_batch(&EditBatch::from_lists([(1, 4)], [])).unwrap();
        d.apply_batch(&EditBatch::from_lists([], [(1, 4)])).unwrap();
        assert_eq!(d.batches_applied(), 2);
        check_consistency(d.state(), d.graph()).unwrap();
    }

    #[test]
    fn invalid_batch_is_rejected_without_damage() {
        let mut d = RslpaDetector::new(two_triangles(), RslpaConfig::quick(20, 1));
        let before = d.state().label_sequence(0).to_vec();
        assert!(d.apply_batch(&EditBatch::from_lists([(0, 1)], [])).is_err());
        assert_eq!(d.state().label_sequence(0), &before[..]);
        assert_eq!(d.batches_applied(), 0);
    }

    #[test]
    fn vertex_growth_and_attachment() {
        let mut d = RslpaDetector::new(two_triangles(), RslpaConfig::quick(25, 3));
        d.ensure_vertices(7);
        let report = d
            .apply_batch(&EditBatch::from_lists([(6, 0), (6, 1)], []))
            .unwrap();
        assert!(report.repicks >= 25, "new vertex repicks all its slots");
        check_consistency(d.state(), d.graph()).unwrap();
        // The new vertex should join the left triangle's community.
        let r = d.detect();
        let joined = r
            .result
            .cover
            .communities()
            .iter()
            .any(|c| c.contains(&6) && c.contains(&0));
        assert!(joined, "{:?}", r.result.cover.communities());
    }

    #[test]
    fn recompute_from_scratch_matches_fresh_detector() {
        let mut d = RslpaDetector::new(two_triangles(), RslpaConfig::quick(30, 5));
        d.apply_batch(&EditBatch::from_lists([(0, 4)], [(2, 3)]))
            .unwrap();
        d.recompute_from_scratch();
        let fresh = RslpaDetector::new(d.graph().clone(), RslpaConfig::quick(30, 5));
        for v in 0..6u32 {
            assert_eq!(d.state().label_sequence(v), fresh.state().label_sequence(v));
        }
    }
}
