//! Structural invariants of [`LabelState`] against a graph.
//!
//! Used by property tests and (in debug builds) after every incremental
//! repair: if Correction Propagation is correct, these invariants hold
//! after *any* sequence of batches, and the state is indistinguishable
//! from one produced by a fresh run on the final graph.

use rslpa_graph::{AdjacencyGraph, FxHashSet, VertexId};

use crate::state::{LabelState, NO_SOURCE};

/// Check all structural invariants; returns the first violation.
pub fn check_consistency(state: &LabelState, graph: &AdjacencyGraph) -> Result<(), String> {
    let n = state.num_vertices();
    if n != graph.num_vertices() {
        return Err(format!(
            "state has {n} vertices, graph {}",
            graph.num_vertices()
        ));
    }
    let t_max = state.iterations() as u32;
    let mut expected_records = 0usize;
    for v in 0..n as VertexId {
        if state.label(v, 0) != v {
            return Err(format!("vertex {v}: initial label {}", state.label(v, 0)));
        }
        let nbrs = graph.neighbors(v);
        for t in 1..=t_max {
            let (src, pos) = state.pick(v, t);
            if nbrs.is_empty() || src == NO_SOURCE {
                if !nbrs.is_empty() {
                    return Err(format!("vertex {v} t={t}: sentinel pick but has neighbors"));
                }
                if src != NO_SOURCE {
                    return Err(format!("vertex {v} t={t}: pick {src} but no neighbors"));
                }
                if state.label(v, t) != v {
                    return Err(format!(
                        "isolated vertex {v} t={t}: label {}",
                        state.label(v, t)
                    ));
                }
                continue;
            }
            if nbrs.binary_search(&src).is_err() {
                return Err(format!(
                    "vertex {v} t={t}: src {src} is not a current neighbor"
                ));
            }
            if pos >= t {
                return Err(format!("vertex {v} t={t}: pos {pos} >= t"));
            }
            if state.label(v, t) != state.label(src, pos) {
                return Err(format!(
                    "vertex {v} t={t}: label {} != source label {} at ({src}, {pos})",
                    state.label(v, t),
                    state.label(src, pos)
                ));
            }
            // The reverse record must exist exactly once.
            let hits = state
                .receivers_of(src, pos)
                .filter(|&(r, k)| r == v && k == t)
                .count();
            if hits != 1 {
                return Err(format!(
                    "vertex {v} t={t}: {hits} records at ({src}, {pos})"
                ));
            }
            expected_records += 1;
        }
    }
    // No dangling records: every record corresponds to a live pick.
    let mut total = 0usize;
    for owner in 0..n as VertexId {
        let mut seen: FxHashSet<(u32, VertexId, u32)> = FxHashSet::default();
        for r in state.records(owner) {
            if !seen.insert((r.slot(), r.receiver(), r.k())) {
                return Err(format!("duplicate record {r:?} at owner {owner}"));
            }
            let (src, pos) = state.pick(r.receiver(), r.k());
            if src != owner || pos != r.slot() {
                return Err(format!(
                    "dangling record {r:?} at owner {owner}: receiver picks ({src}, {pos})"
                ));
            }
            total += 1;
        }
    }
    if total != expected_records {
        return Err(format!(
            "record count {total} != expected {expected_records}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::run_propagation;

    #[test]
    fn fresh_propagation_is_consistent() {
        let g = AdjacencyGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        let s = run_propagation(&g, 15, 3);
        check_consistency(&s, &g).unwrap();
    }

    #[test]
    fn detects_wrong_source() {
        let g = AdjacencyGraph::from_edges(3, [(0, 1), (1, 2)]);
        let mut s = run_propagation(&g, 5, 1);
        // Corrupt: vertex 0 claims to have picked from non-neighbor 2.
        let (_, pos) = s.pick(0, 3);
        s.set_pick(0, 3, 2, pos);
        assert!(check_consistency(&s, &g).is_err());
    }

    #[test]
    fn detects_label_mismatch() {
        let g = AdjacencyGraph::from_edges(3, [(0, 1), (1, 2)]);
        let mut s = run_propagation(&g, 5, 1);
        s.set_label(0, 2, 999);
        assert!(check_consistency(&s, &g).is_err());
    }

    #[test]
    fn detects_missing_record() {
        let g = AdjacencyGraph::from_edges(3, [(0, 1), (1, 2)]);
        let mut s = run_propagation(&g, 5, 1);
        let (src, pos) = s.pick(0, 4);
        s.remove_record(src, pos, 0, 4);
        assert!(check_consistency(&s, &g).is_err());
    }

    #[test]
    fn detects_vertex_count_mismatch() {
        let g = AdjacencyGraph::from_edges(3, [(0, 1), (1, 2)]);
        let s = run_propagation(&g, 5, 1);
        let bigger = AdjacencyGraph::new(4);
        assert!(check_consistency(&s, &bigger).is_err());
    }
}
