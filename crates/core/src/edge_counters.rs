//! Streaming per-edge common-label counters — the weight pass without the
//! merge.
//!
//! Post-processing needs one number per edge: the similarity
//! `w_uv = P(l_u = l_v) = Σ_l f_u(l)·f_v(l) / m²` (paper §III-B), where
//! `f_v` is the histogram of `v`'s length-`m` label sequence. Recomputing
//! the numerator by merging two histograms costs `O(T)` per edge, and a
//! churn-heavy stream dirties enough endpoints that the per-publish merge
//! pass becomes the snapshot floor (ROADMAP bottleneck #2). This module
//! keeps the numerator **as state** instead:
//!
//! > `common_uv = Σ_l f_u(l)·f_v(l)` — an exact integer, maintained
//! > incrementally.
//!
//! Each numerator is stored once, as `(hi, common)` in the sorted
//! **counter row** of the edge's lower endpoint — one payload per arc in
//! adjacency order, as in an arc-labelled graph. A row holds only edges
//! that are still live, so it is always a subsequence of its vertex's
//! upper adjacency (the neighbors above it).
//!
//! * A label-slot change `(v, slot, a → b)` moves every incident counter
//!   by `f_w(b) − f_w(a)` — `O(deg(v))` and no merge. Slot changes arrive
//!   as [`SlotDelta`]s from the repair engines (Correction Propagation
//!   already knows exactly which slots it rewrote), and upkeep folds a
//!   whole flush in one sweep grouped by the histogram it reads: every
//!   visit of a changed `v` to a neighbor `w` is bucketed under `w`, so
//!   each neighbor histogram is read once per flush, however many changed
//!   vertices it borders. A visit to an upper neighbor carries its
//!   counter's position in `v`'s own row; the visits to a lower neighbor
//!   `w` find theirs in one ascending walk of `w`'s row.
//! * An edge insertion costs one histogram merge — **once**, lazily at
//!   the next [`refresh_weights`](EdgeCounters::refresh_weights), with
//!   whatever the endpoint histograms are then (exact by definition).
//! * An edge deletion drops the counter, and must do so before the next
//!   upkeep: a counter left behind would miss the slot changes applied
//!   while its edge is absent.
//! * A refresh syncs each row against its vertex's upper adjacency: it
//!   keeps every counter and merges only the edges the row lacks, so the
//!   rows, concatenated in vertex order, are the canonical weight list.
//!
//! Because the counter is an exact integer and the weight is derived as
//! `common as f64 / (m as f64 · m as f64)` — the same expression
//! [`sequence_similarity`](crate::postprocess::sequence_similarity)
//! evaluates — streaming weights are **bit-identical** to a fresh merge
//! at every point where the histograms agree. The tests here and the
//! cross-engine proptest in `tests/counter_equivalence.rs` pin that.
//!
//! One store serves every engine: the single writer feeds it its own
//! repair stream, and the mesh coordinator feeds it the streams its
//! workers return with their flush replies.
//!
//! # Worked example
//!
//! `m = 4`, `f_u = {x:2, y:2}`, `f_v = {x:1, y:3}`, edge `(u,v)`:
//! `common = 2·1 + 2·3 = 8`, so `w_uv = 8/16 = 0.5`. Now a correction
//! rewrites one slot of `u` from `y` to `x`: the streaming update is
//! `common += f_v(x) − f_v(y) = 1 − 3`, giving `6`; the merge of the new
//! histograms `f_u = {x:3, y:1}`, `f_v = {x:1, y:3}` is `3·1 + 1·3 = 6`.
//! Same integer, same derived weight — no merge was run.

use rslpa_graph::edits::canonical;
use rslpa_graph::{
    compact_slot_deltas, AdjacencyGraph, Label, MemAccounted, MemFootprint, SlotDelta, VertexId,
};

use crate::rows::{HistRow, HistRows};
use crate::state::{histogram_of, LabelState};

/// The counters of one vertex's upper edges: `(hi, common)`, sorted by
/// `hi`. A numerator never exceeds `m² < 2³²` (`m` fits `u16`, see
/// [`HistRows`]), so it is stored as a `u32`.
type CounterRow = Vec<(VertexId, u32)>;

/// One vertex's sparse histogram diff: `(label, Δcount)` pairs.
type VertexDiff = (VertexId, Vec<(Label, i64)>);

/// Compact a slot-delta stream and aggregate it to one sparse histogram
/// diff per vertex (`Σ` of `-1` at each net `old`, `+1` at each net
/// `new`), so every dirty vertex visits each neighbor once no matter how
/// many of its slots moved. Returns the net slot-change count alongside
/// the per-vertex diffs, in ascending vertex order.
///
/// The net changes are taken in `(v, slot)` order, so each diff lists
/// its labels in an order fixed by the net change set alone: the order
/// in which [`HistRows::fold_diff`] grows and shrinks a row (and so the
/// store's page layout) cannot follow the order the stream arrived in.
fn aggregate_vertex_diffs(deltas: &[SlotDelta]) -> (usize, Vec<VertexDiff>) {
    let mut net = compact_slot_deltas(deltas);
    if net.is_empty() {
        return (0, Vec::new());
    }
    let count = net.len();
    net.sort_unstable_by_key(|d| (d.v, d.slot));
    let bump = |diff: &mut Vec<(Label, i64)>, l: Label, dl: i64| match diff
        .iter_mut()
        .find(|e| e.0 == l)
    {
        Some(e) => e.1 += dl,
        None => diff.push((l, dl)),
    };
    let mut out: Vec<VertexDiff> = Vec::new();
    let mut i = 0;
    while i < net.len() {
        let v = net[i].v;
        let mut diff: Vec<(Label, i64)> = Vec::new();
        while i < net.len() && net[i].v == v {
            bump(&mut diff, net[i].old, -1);
            bump(&mut diff, net[i].new, 1);
            i += 1;
        }
        diff.retain(|&(_, dl)| dl != 0);
        out.push((v, diff));
    }
    (count, out)
}

/// The row position carried by a visit from above: its neighbor `y` lies
/// below the dirty vertex, so the counter sits in `y`'s own row.
const FROM_ABOVE: u32 = u32::MAX;

/// Upkeep half of the row kernel: add every dirty vertex's histogram diff
/// to the counters of its edges, reading each neighbor's histogram once.
///
/// `diffs` holds the dirty vertices in ascending order, `hists` the
/// pre-flush histograms `f`. A counting sort buckets every visit of a
/// dirty `x` to a neighbor `y` under `y`. `x`'s upper neighbors come from
/// its own counter row (an edge without a counter yet is merged at the
/// next refresh), its lower neighbors from the graph. The buckets are
/// swept in ascending `y`. Each scatters `f_y` once into a label-indexed
/// scratch, then every visit adds `d_x·f_y` to counter `{x, y}`, plus
/// `d_x·d_y` when `y` is dirty too and `x < y`. So an edge `lo < hi` with
/// two dirty endpoints gains `d_hi·f_lo + d_lo·f_hi + d_lo·d_hi`, the
/// change of `f_lo·f_hi`. The two rules — ascending buckets, cross term
/// in the higher endpoint's bucket — make every write an exact numerator
/// of real histograms (bucket `lo` leaves `f_lo·f'_hi`, bucket `hi` leaves
/// `f'_lo·f'_hi`), so each write can check its range.
fn sweep_diffs(
    hists: &HistRows,
    counters: &mut [CounterRow],
    graph: &AdjacencyGraph,
    diffs: &[VertexDiff],
) {
    // A visit is the dirty vertex's index in `diffs` and, when the
    // neighbor lies above it, the neighbor's position in the dirty
    // vertex's counter row.
    let visits_of = |place: &mut dyn FnMut(VertexId, (u32, u32))| {
        for (k, (x, diff)) in (0..).zip(diffs) {
            if diff.is_empty() {
                continue;
            }
            for &y in split_neighbors(graph, *x).0 {
                place(y, (k, FROM_ABOVE));
            }
            for (i, &(y, _)) in (0..).zip(&counters[*x as usize]) {
                place(y, (k, i));
            }
        }
    };
    let n = counters.len();
    let mut starts = vec![0usize; n + 1];
    visits_of(&mut |y, _| starts[y as usize + 1] += 1);
    for y in 0..n {
        starts[y + 1] += starts[y];
    }
    let mut next = starts.clone();
    let mut visits = vec![(0, 0); starts[n]];
    visits_of(&mut |y, visit| {
        visits[next[y as usize]] = visit;
        next[y as usize] += 1;
    });

    // Labels are vertex ids, so the scratch spans at most the id space.
    let labels = diffs.iter().flat_map(|(_, diff)| diff.iter().map(|e| e.0));
    let mut scratch = vec![0i64; labels.max().map_or(0, |l| l as usize + 1)];
    let shift = |scratch: &mut [i64], diff: &[(Label, i64)], sign: i64| {
        for &(l, dl) in diff {
            scratch[l as usize] += sign * dl;
        }
    };
    let moved = |c: &mut u32, diff: &[(Label, i64)], scratch: &[i64]| {
        let delta: i64 = diff.iter().map(|&(l, dl)| dl * scratch[l as usize]).sum();
        *c = u32::try_from(i64::from(*c) + delta)
            .expect("exact maintenance keeps counters within 0..=m²");
    };
    for y in 0..n as VertexId {
        let bucket = &visits[starts[y as usize]..starts[y as usize + 1]];
        if bucket.is_empty() {
            continue;
        }
        let dy = match diffs.binary_search_by_key(&y, |d| d.0) {
            Ok(k) => diffs[k].1.as_slice(),
            Err(_) => &[],
        };
        // Only the labels some diff names can contribute.
        let fy = hists.row(y);
        let fy_labels = &fy.labels[..fy.labels.partition_point(|&l| (l as usize) < scratch.len())];
        for (&l, &c) in fy_labels.iter().zip(fy.counts) {
            scratch[l as usize] = i64::from(c);
        }
        // Visits from below come first (ascending `x`) and read `f'_y`;
        // their counters sit in the visitors' rows.
        let split = bucket.partition_point(|&(_, i)| i != FROM_ABOVE);
        shift(&mut scratch, dy, 1);
        for &(k, i) in &bucket[..split] {
            let (x, dx) = &diffs[k as usize];
            moved(&mut counters[*x as usize][i as usize].1, dx, &scratch);
        }
        shift(&mut scratch, dy, -1);
        // Visits from above read `f_y`; their counters sit in `y`'s row,
        // in the same ascending order.
        let row = &mut counters[y as usize];
        let mut from = 0;
        for &(k, _) in &bucket[split..] {
            let (x, dx) = &diffs[k as usize];
            match row[from..].binary_search_by_key(x, |e| e.0) {
                Ok(i) => {
                    moved(&mut row[from + i].1, dx, &scratch);
                    from += i + 1;
                }
                Err(i) => from += i,
            }
        }
        for &l in fy_labels {
            scratch[l as usize] = 0;
        }
    }
}

/// Publish half of the row kernel: bring `row` up to `upper`, its
/// vertex's current upper adjacency in the same sorted order, keeping
/// every counter and calling `merge` only for the edges the row lacks.
fn sync_row(row: &mut CounterRow, upper: &[VertexId], mut merge: impl FnMut(VertexId) -> u64) {
    debug_assert!(
        {
            let mut rest = upper.iter();
            row.iter().all(|&(hi, _)| rest.any(|&w| w == hi))
        },
        "counter row is not a subsequence of its upper adjacency: \
         an edge was deleted without retiring its counter"
    );
    if row.len() == upper.len() {
        return;
    }
    let mut kept = std::mem::replace(row, Vec::with_capacity(upper.len()))
        .into_iter()
        .peekable();
    for &hi in upper {
        let c = match kept.next_if(|&(w, _)| w == hi) {
            Some((_, c)) => c,
            None => u32::try_from(merge(hi)).expect("a numerator is at most m²"),
        };
        row.push((hi, c));
    }
}

/// `v`'s neighbors below and above it.
fn split_neighbors(graph: &AdjacencyGraph, v: VertexId) -> (&[VertexId], &[VertexId]) {
    let row = graph.neighbors(v);
    row.split_at(row.partition_point(|&w| w < v))
}

/// Cut `0..n` into contiguous vertex ranges holding about equal shares of
/// upper edges — the genesis merge's unit of work. Equal vertex ranges
/// would not do: on a skewed graph (R-MAT) the low ids hold most edges.
fn edge_balanced_ranges(graph: &AdjacencyGraph, parts: usize) -> Vec<std::ops::Range<usize>> {
    let share = graph.num_edges().div_ceil(parts).max(1);
    let mut ranges = Vec::with_capacity(parts);
    let (mut start, mut load) = (0, 0);
    for v in 0..graph.num_vertices() {
        load += split_neighbors(graph, v as VertexId).1.len();
        if load >= share {
            ranges.push(start..v + 1);
            (start, load) = (v + 1, 0);
        }
    }
    if start < graph.num_vertices() {
        ranges.push(start..graph.num_vertices());
    }
    ranges
}

/// The streaming counter store: per-vertex label histograms plus the
/// exact common-label numerator of every live edge, in one counter row
/// per vertex (see the module docs).
///
/// Callers fold each repair in as it happens: first
/// [`delete_edge`](Self::delete_edge) for every deleted edge, then
/// [`apply_slot_deltas`](Self::apply_slot_deltas) with the repair's
/// slot-change stream.
///
/// ```
/// use rslpa_core::postprocess::edge_weights;
/// use rslpa_core::{run_propagation, EdgeCounters};
/// use rslpa_graph::{AdjacencyGraph, SlotDelta};
///
/// let g = AdjacencyGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let mut state = run_propagation(&g, 6, 42);
/// let mut counters = EdgeCounters::new(&state);
/// counters.refresh_weights(&g, 1); // genesis pass: one merge per edge
///
/// // A repair rewrites one label slot; stream the change instead of
/// // re-merging any histogram.
/// let (v, slot, new) = (2, 3, 0);
/// let old = state.label(v, slot);
/// state.set_label(v, slot, new);
/// counters.apply_slot_deltas(&g, &[SlotDelta { v, slot, old, new }]);
///
/// // Bit-identical to a fresh full merge pass.
/// let streamed = counters.refresh_weights(&g, 1);
/// let merged = edge_weights(&g, &state);
/// assert_eq!(streamed.len(), merged.len());
/// for (s, m) in streamed.iter().zip(&merged) {
///     assert_eq!(s.2.to_bits(), m.2.to_bits());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct EdgeCounters {
    /// Draws per sequence (`T + 1`) — the denominator's square root.
    m: usize,
    /// Packed sorted histogram rows, one per vertex (allocated in vertex
    /// order, so a vertex's row handle is its id).
    hists: HistRows,
    /// `counters[v]`: the counter row of `v`'s upper edges that the last
    /// refresh saw and no deletion has retired since.
    counters: Vec<CounterRow>,
}

impl EdgeCounters {
    /// Seed histograms from a propagated state. Counters start cold; the
    /// first [`refresh_weights`](Self::refresh_weights) merges every edge
    /// once (equivalent to one full weight pass), after which merges only
    /// happen for newly inserted edges.
    pub fn new(state: &LabelState) -> Self {
        let m = state.iterations() + 1;
        let mut hists = HistRows::new(m);
        for v in 0..state.num_vertices() as VertexId {
            hists.alloc_from(&histogram_of(state.label_sequence(v)));
        }
        Self {
            m,
            counters: vec![Vec::new(); hists.num_slots()],
            hists,
        }
    }

    /// Draws per sequence (`T + 1`).
    pub fn draws(&self) -> usize {
        self.m
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.hists.num_slots()
    }

    /// Number of live counters (diagnostics).
    pub fn num_counters(&self) -> usize {
        self.counters.iter().map(Vec::len).sum()
    }

    /// Current histogram of `v` as a packed row view.
    pub fn row(&self, v: VertexId) -> HistRow<'_> {
        self.hists.row(v)
    }

    /// Current histogram of `v`, materialized (diagnostics; hot paths
    /// read [`row`](Self::row) instead).
    pub fn hist(&self, v: VertexId) -> Vec<(Label, u32)> {
        self.hists.row(v).to_vec()
    }

    /// The exact numerator for edge `(u, v)`, if a counter is live.
    pub fn common_of(&self, u: VertexId, v: VertexId) -> Option<u64> {
        let (lo, hi) = canonical(u, v);
        let row = self.counters.get(lo as usize)?;
        let i = row.binary_search_by_key(&hi, |e| e.0).ok()?;
        Some(u64::from(row[i].1))
    }

    /// Grow the vertex space to `n`; fresh vertices get the own-label
    /// histogram their untouched sequence has (`{v: m}`).
    pub fn ensure_vertices(&mut self, n: usize) {
        while self.hists.num_slots() < n {
            let v = self.hists.num_slots() as VertexId;
            let slot = self.hists.alloc_default(v as Label);
            debug_assert_eq!(slot, v, "row handles track vertex ids");
        }
        self.counters.resize_with(self.hists.num_slots(), Vec::new);
    }

    /// Drop the counter of a deleted edge (no-op if the edge never earned
    /// one). **Must be called for every deletion, before the next
    /// upkeep**: a counter that survives a delete/re-insert cycle would
    /// miss the slot deltas applied while the edge was absent, and a
    /// refresh rejects (in debug builds) a row holding an absent edge.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) {
        let (lo, hi) = canonical(u, v);
        if let Some(row) = self.counters.get_mut(lo as usize) {
            if let Ok(i) = row.binary_search_by_key(&hi, |e| e.0) {
                row.remove(i);
            }
        }
    }

    /// Fold a repair's slot-delta stream into the counters: the stream is
    /// [compacted](rslpa_graph::compact_slot_deltas), grouped by vertex,
    /// and aggregated to one sparse histogram diff per vertex, so each
    /// dirty vertex visits each neighbor once no matter how many of its
    /// slots moved. The visits then run as **one neighbor sweep** grouped
    /// by the histogram they read, so each neighbor histogram is read once
    /// per call; the diffs fold into the histograms afterwards, in vertex
    /// order. Deltas for one `(v, slot)` must arrive in application order;
    /// anything else may interleave freely, without changing a counter, a
    /// histogram or the store's page layout. `graph` must be the
    /// post-repair topology, with every deleted edge already retired
    /// through [`delete_edge`](Self::delete_edge). Returns the number of
    /// net slot changes folded in.
    pub fn apply_slot_deltas(&mut self, graph: &AdjacencyGraph, deltas: &[SlotDelta]) -> usize {
        let (count, diffs) = aggregate_vertex_diffs(deltas);
        if let Some(max) = diffs.iter().map(|&(v, _)| v).max() {
            self.ensure_vertices(max as usize + 1);
        }
        sweep_diffs(&self.hists, &mut self.counters, graph, &diffs);
        for (v, diff) in &diffs {
            self.hists.fold_diff(*v, diff);
        }
        count
    }

    /// Produce the canonical weight list for `graph`: sync every counter
    /// row against its vertex's upper adjacency — counters are kept, and
    /// each edge without one (new since the last refresh, or every edge
    /// on the first call) is merged — then read the rows out in vertex
    /// order. The sync fans out over `threads` workers on vertex ranges
    /// of about equal edge counts (worth it for the genesis pass, where
    /// every edge merges); each merge is a pure function of two
    /// histograms, so the thread count cannot change a bit of the output.
    pub fn refresh_weights(
        &mut self,
        graph: &AdjacencyGraph,
        threads: usize,
    ) -> Vec<(VertexId, VertexId, f64)> {
        let n = graph.num_vertices();
        self.ensure_vertices(n);
        let hists = &self.hists;
        let sync = |start: usize, rows: &mut [CounterRow]| {
            for (u, row) in (start as VertexId..).zip(rows) {
                sync_row(row, split_neighbors(graph, u).1, |v| hists.common(u, v));
            }
        };
        if threads <= 1 || graph.num_edges() < 256 {
            sync(0, &mut self.counters[..n]);
        } else {
            std::thread::scope(|s| {
                let mut rest = &mut self.counters[..n];
                for range in edge_balanced_ranges(graph, threads) {
                    let (rows, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                    rest = tail;
                    s.spawn(move || sync(range.start, rows));
                }
            });
        }
        let mm = self.m as f64 * self.m as f64;
        let mut wlist = Vec::with_capacity(graph.num_edges());
        for (u, row) in (0..).zip(&self.counters[..n]) {
            wlist.extend(row.iter().map(|&(v, c)| (u, v, f64::from(c) / mm)));
        }
        wlist
    }
}

impl MemAccounted for EdgeCounters {
    fn mem_footprint(&self) -> MemFootprint {
        let entry = std::mem::size_of::<(VertexId, u32)>();
        let rows = &self.counters;
        self.hists.mem_footprint().plus(MemFootprint {
            live_bytes: std::mem::size_of_val(rows.as_slice())
                + rows.iter().map(Vec::len).sum::<usize>() * entry,
            capacity_bytes: rows.capacity() * std::mem::size_of::<CounterRow>()
                + rows.iter().map(Vec::capacity).sum::<usize>() * entry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RslpaConfig;
    use crate::detector::RslpaDetector;
    use crate::postprocess::{edge_weights, postprocess, result_from_weights, PostprocessResult};
    use crate::propagation::run_propagation;
    use rslpa_graph::rng::DetRng;
    use rslpa_graph::{EditBatch, FxHashSet};

    fn assert_weights_equal(a: &[(VertexId, VertexId, f64)], b: &[(VertexId, VertexId, f64)]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!((x.0, x.1), (y.0, y.1), "edge order drifted");
            assert_eq!(x.2.to_bits(), y.2.to_bits(), "weight drifted at {x:?}");
        }
    }

    fn ring_graph(n: u32) -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(n as usize);
        for v in 0..n {
            g.insert_edge(v, (v + 1) % n);
        }
        g
    }

    #[test]
    fn first_refresh_matches_full_merge_pass() {
        let g = ring_graph(8);
        let state = run_propagation(&g, 10, 3);
        let mut counters = EdgeCounters::new(&state);
        assert_eq!(counters.num_counters(), 0);
        let w = counters.refresh_weights(&g, 1);
        assert_weights_equal(&w, &edge_weights(&g, &state));
        assert_eq!(counters.num_counters(), g.num_edges());
        // A second refresh with no changes reads every counter (no merge)
        // and reproduces the same bits.
        assert_weights_equal(&counters.refresh_weights(&g, 1), &w);
    }

    #[test]
    fn worked_example_from_module_docs() {
        // m = 4, labels x = 0 and y = 1, edge (0, 1) with
        // f_0 = {x:2, y:2} (sequence [0, 0, 1, 1] — slot 0 is the fixed
        // own label 0) and f_1 = {x:1, y:3} (sequence [1, 0, 1, 1]).
        let mut g = AdjacencyGraph::new(2);
        g.insert_edge(0, 1);
        let mut state = LabelState::new(2, 3, 1);
        state.set_label(0, 1, 0);
        state.set_label(0, 2, 1);
        state.set_label(0, 3, 1);
        state.set_label(1, 1, 0);
        state.set_label(1, 2, 1);
        state.set_label(1, 3, 1);
        let mut counters = EdgeCounters::new(&state);
        counters.refresh_weights(&g, 1);
        assert_eq!(counters.common_of(0, 1), Some(8)); // 2·1 + 2·3

        // One correction rewrites slot 2 of vertex 0 from y to x: the
        // streaming update is common += f_1(x) − f_1(y) = 1 − 3.
        let rewrite = SlotDelta {
            v: 0,
            slot: 2,
            old: 1,
            new: 0,
        };
        counters.apply_slot_deltas(&g, &[rewrite]);
        // Fresh merge of f_0 = {x:3, y:1}, f_1 = {x:1, y:3}: 3·1 + 1·3.
        assert_eq!(counters.common_of(0, 1), Some(6)); // 3·1 + 1·3
        assert_eq!(counters.hist(0), &[(0, 3), (1, 1)]);
        let w = counters.refresh_weights(&g, 1);
        assert_eq!(w[0].2.to_bits(), (6.0f64 / 16.0).to_bits());
    }

    #[test]
    fn slot_deltas_track_a_fresh_merge() {
        // Hand-apply flushes of slot rewrites `(v, slot, new)` to both the
        // state and the counters; weights must stay bit-identical to a
        // fresh merge. The ring flushes one rewrite at a time. K6 flushes
        // one rewrite of every vertex at once, all to a label no vertex
        // holds yet, so each of its edges has two dirty endpoints whose
        // diffs overlap: the sweep lands on the merge only if it adds the
        // cross term d_lo·d_hi exactly once per edge.
        let mut k6 = AdjacencyGraph::new(6);
        for u in 0..6 {
            for v in u + 1..6 {
                k6.insert_edge(u, v);
            }
        }
        let cases = [
            (
                ring_graph(6),
                vec![
                    vec![(0u32, 3u32, 4u32)],
                    vec![(1, 1, 4)],
                    vec![(0, 5, 1)],
                    vec![(4, 2, 0)],
                ],
            ),
            (k6, vec![(0..6).map(|v| (v, 1 + v, 6)).collect()]),
        ];
        for (g, flushes) in cases {
            let mut state = run_propagation(&g, 8, 5);
            let mut counters = EdgeCounters::new(&state);
            counters.refresh_weights(&g, 1);
            for rewrites in flushes {
                let deltas: Vec<SlotDelta> = rewrites
                    .into_iter()
                    .map(|(v, slot, new)| {
                        let old = state.label(v, slot);
                        state.set_label(v, slot, new);
                        SlotDelta { v, slot, old, new }
                    })
                    .collect();
                counters.apply_slot_deltas(&g, &deltas);
                assert_weights_equal(&counters.refresh_weights(&g, 1), &edge_weights(&g, &state));
            }
        }
    }

    #[test]
    fn noop_delta_changes_nothing() {
        let g = ring_graph(4);
        let state = run_propagation(&g, 6, 1);
        let mut counters = EdgeCounters::new(&state);
        let before = counters.refresh_weights(&g, 1);
        let noop = SlotDelta {
            v: 2,
            slot: 1,
            old: 9,
            new: 9,
        };
        assert_eq!(counters.apply_slot_deltas(&g, &[noop]), 0);
        assert_weights_equal(&counters.refresh_weights(&g, 1), &before);
    }

    #[test]
    fn slot_order_of_a_net_change_set_changes_nothing() {
        // T = 3: vertex 0 holds four distinct labels, so its histogram row
        // fills its 4-entry page. Slot 1 moves 1 → 5 (a label new to the
        // row) and slot 2 moves 2 → 1, a legal pair of changes in either
        // order. Folding the insertion of 5 before the removal of 2 would
        // move the row to an 8-entry page; the store must pick one order
        // whatever order the stream brings.
        let mut g = AdjacencyGraph::new(2);
        g.insert_edge(0, 1);
        let mut state = LabelState::new(2, 3, 1);
        for (t, l) in [(1, 1), (2, 2), (3, 3)] {
            state.set_label(0, t, l);
        }
        state.set_label(1, 1, 5);
        let genesis = |state: &LabelState| {
            let mut store = EdgeCounters::new(state);
            store.refresh_weights(&g, 1);
            store
        };
        let mut stores = [genesis(&state), genesis(&state)];
        let a_to_b = SlotDelta {
            v: 0,
            slot: 1,
            old: 1,
            new: 5,
        };
        let c_to_a = SlotDelta {
            v: 0,
            slot: 2,
            old: 2,
            new: 1,
        };
        state.set_label(0, 1, 5);
        state.set_label(0, 2, 1);
        stores[0].apply_slot_deltas(&g, &[a_to_b, c_to_a]);
        stores[1].apply_slot_deltas(&g, &[c_to_a, a_to_b]);
        let [first, second] = &mut stores;
        let w = first.refresh_weights(&g, 1);
        assert_weights_equal(&w, &second.refresh_weights(&g, 1));
        assert_weights_equal(&w, &edge_weights(&g, &state));
        assert_eq!(first.mem_footprint(), second.mem_footprint());
    }

    #[test]
    fn lazy_merge_covers_inserted_edges_and_sweep_covers_deletions() {
        let mut g = ring_graph(6);
        let state = run_propagation(&g, 8, 7);
        let mut counters = EdgeCounters::new(&state);
        counters.refresh_weights(&g, 1);
        // Mutate topology without touching any histogram.
        g.remove_edge(0, 1);
        g.insert_edge(0, 3);
        counters.delete_edge(0, 1);
        let w = counters.refresh_weights(&g, 1);
        assert_weights_equal(&w, &edge_weights(&g, &state));
        assert_eq!(counters.num_counters(), g.num_edges());
        assert_eq!(counters.common_of(0, 1), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not a subsequence of its upper adjacency")]
    fn unreported_deletion_trips_the_row_invariant() {
        let mut g = ring_graph(5);
        let state = run_propagation(&g, 6, 2);
        let mut counters = EdgeCounters::new(&state);
        counters.refresh_weights(&g, 1);
        g.remove_edge(1, 2); // no delete_edge call
        counters.refresh_weights(&g, 1);
    }

    #[test]
    fn threaded_and_serial_first_refresh_agree() {
        // > 256 missing edges so the parallel path actually runs.
        let n = 300u32;
        let mut g = ring_graph(n);
        for v in 0..n {
            g.insert_edge(v, (v + 5) % n);
        }
        let state = run_propagation(&g, 12, 13);
        let mut serial = EdgeCounters::new(&state);
        let mut threaded = EdgeCounters::new(&state);
        assert_weights_equal(
            &serial.refresh_weights(&g, 1),
            &threaded.refresh_weights(&g, 4),
        );
    }

    /// Fold one batch into `det` and the counters the way the serve path
    /// does: repair with a slot-delta stream, retire deleted edges' counters,
    /// then apply the stream against the post-batch graph.
    fn flush(det: &mut RslpaDetector, counters: &mut EdgeCounters, batch: &EditBatch) {
        let mut deltas = Vec::new();
        det.apply_batch_streaming(batch, &mut deltas).unwrap();
        for &(u, v) in batch.deletions() {
            counters.delete_edge(u, v);
        }
        counters.apply_slot_deltas(det.graph(), &deltas);
    }

    #[test]
    fn index_survives_delete_and_reinsert_with_quiet_endpoints() {
        let mut g = ring_graph(8);
        let mut state = run_propagation(&g, 8, 21);
        let mut counters = EdgeCounters::new(&state);
        counters.refresh_weights(&g, 1);
        // A notified delete/re-insert cycle re-merges the edge; an
        // un-notified one with no upkeep in between leaves an exact
        // counter behind. Neither endpoint's histogram moves meanwhile.
        g.remove_edge(0, 1);
        counters.delete_edge(0, 1);
        g.insert_edge(0, 1);
        g.remove_edge(4, 5);
        g.insert_edge(4, 5);
        assert_weights_equal(&counters.refresh_weights(&g, 1), &edge_weights(&g, &state));
        assert_eq!(counters.num_counters(), g.num_edges());
        // The re-merged counter must be live again for later upkeep.
        let (v, slot, new) = (1, 4, 6);
        let old = state.label(v, slot);
        state.set_label(v, slot, new);
        counters.apply_slot_deltas(&g, &[SlotDelta { v, slot, old, new }]);
        assert_weights_equal(&counters.refresh_weights(&g, 1), &edge_weights(&g, &state));
    }

    #[test]
    fn index_covers_fresh_vertices() {
        let mut det = RslpaDetector::new(ring_graph(8), RslpaConfig::quick(12, 5));
        let mut counters = EdgeCounters::new(det.state());
        counters.refresh_weights(det.graph(), 1);
        det.ensure_vertices(11);
        counters.ensure_vertices(11);
        // Isolated fresh vertices first, then edges onto them.
        assert_weights_equal(
            &counters.refresh_weights(det.graph(), 1),
            &edge_weights(det.graph(), det.state()),
        );
        let batch = EditBatch::from_lists([(8, 0), (9, 8), (10, 3), (10, 9)], [(2, 3)]);
        flush(&mut det, &mut counters, &batch);
        assert_weights_equal(
            &counters.refresh_weights(det.graph(), 1),
            &edge_weights(det.graph(), det.state()),
        );
    }

    #[test]
    fn index_spans_several_flushes_per_refresh() {
        let mut det = RslpaDetector::new(ring_graph(10), RslpaConfig::quick(12, 8));
        let mut counters = EdgeCounters::new(det.state());
        counters.refresh_weights(det.graph(), 1);
        let rounds = [
            vec![
                EditBatch::from_lists([(0, 5)], [(1, 2)]),
                EditBatch::from_lists([(1, 2), (3, 8)], [(0, 5)]),
            ],
            vec![
                EditBatch::from_lists([(2, 7)], [(6, 7)]),
                EditBatch::from_lists([(6, 7)], [(3, 8)]),
                EditBatch::from_lists([(0, 5)], [(2, 7)]),
            ],
        ];
        for flushes in &rounds {
            for batch in flushes {
                flush(&mut det, &mut counters, batch);
            }
            assert_weights_equal(
                &counters.refresh_weights(det.graph(), 1),
                &edge_weights(det.graph(), det.state()),
            );
        }
    }

    #[test]
    fn fresh_vertices_get_own_label_histograms() {
        let g = ring_graph(3);
        let state = run_propagation(&g, 4, 1);
        let mut counters = EdgeCounters::new(&state);
        counters.ensure_vertices(5);
        assert_eq!(counters.hist(4), &[(4, 5)]);
        assert_eq!(counters.num_vertices(), 5);
    }

    // The single-writer publish path: counters read through the shared
    // threshold-and-extract tail must reproduce the full pipeline's
    // `PostprocessResult` bit for bit.

    fn publish(
        counters: &mut EdgeCounters,
        g: &AdjacencyGraph,
        threads: usize,
    ) -> PostprocessResult {
        result_from_weights(g.num_vertices(), counters.refresh_weights(g, threads))
    }

    fn assert_results_equal(a: &PostprocessResult, b: &PostprocessResult) {
        assert_eq!(a.tau1.to_bits(), b.tau1.to_bits(), "tau1 drifted");
        assert_eq!(a.tau2.to_bits(), b.tau2.to_bits(), "tau2 drifted");
        assert_eq!(a.entropy.to_bits(), b.entropy.to_bits(), "entropy drifted");
        assert_eq!(a.cover, b.cover, "cover drifted");
        assert_weights_equal(&a.weights, &b.weights);
    }

    /// Three 4-cliques chained by two bridges.
    fn clique_chain() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(12);
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

    /// A random valid batch against `g`: flip `k` random vertex pairs.
    fn random_batch(g: &AdjacencyGraph, rng: &mut DetRng, k: usize) -> EditBatch {
        let n = g.num_vertices() as u64;
        let mut ins = Vec::new();
        let mut del = Vec::new();
        let mut seen = FxHashSet::default();
        while ins.len() + del.len() < k {
            let u = rng.bounded(n) as VertexId;
            let v = rng.bounded(n) as VertexId;
            if u == v || !seen.insert(canonical(u, v)) {
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

    #[test]
    fn first_refresh_matches_full_postprocess() {
        let g = clique_chain();
        let det = RslpaDetector::new(g.clone(), RslpaConfig::quick(30, 7));
        let mut counters = EdgeCounters::new(det.state());
        let full = postprocess(&g, det.state());
        assert_results_equal(&publish(&mut counters, &g, 1), &full);
        // A second refresh with nothing dirty is identical again.
        assert_results_equal(&publish(&mut counters, &g, 1), &full);
    }

    #[test]
    fn eager_path_stays_bit_identical_under_random_churn() {
        // The serve wiring: slot deltas + delete notifications, and
        // several flushes per refresh.
        for seed in [5u64, 13, 31] {
            let mut det = RslpaDetector::new(clique_chain(), RslpaConfig::quick(25, seed));
            let mut counters = EdgeCounters::new(det.state());
            let mut rng = DetRng::new(seed ^ 0xeade);
            for round in 0..12 {
                for _ in 0..1 + round % 3 {
                    let batch = random_batch(det.graph(), &mut rng, 2 + round % 6);
                    flush(&mut det, &mut counters, &batch);
                }
                assert_results_equal(
                    &publish(&mut counters, det.graph(), 1),
                    &postprocess(det.graph(), det.state()),
                );
            }
        }
    }

    #[test]
    fn survives_edge_delete_then_reinsert() {
        // The regression the eager delete notification exists for: an
        // edge whose endpoint histograms change *while the edge is
        // absent* must be re-merged when it re-enters the graph.
        let mut det = RslpaDetector::new(clique_chain(), RslpaConfig::quick(20, 9));
        let mut counters = EdgeCounters::new(det.state());
        publish(&mut counters, det.graph(), 1);
        let steps = [
            EditBatch::from_lists([], [(3, 4)]),
            EditBatch::from_lists([(0, 8)], [(1, 2)]), // churn histograms
            EditBatch::from_lists([(3, 4)], [(0, 8)]), // re-insert
        ];
        for batch in &steps {
            flush(&mut det, &mut counters, batch);
            assert_results_equal(
                &publish(&mut counters, det.graph(), 1),
                &postprocess(det.graph(), det.state()),
            );
        }
    }

    #[test]
    fn vertex_growth_seeds_own_label_histograms() {
        let mut det = RslpaDetector::new(clique_chain(), RslpaConfig::quick(20, 5));
        let mut counters = EdgeCounters::new(det.state());
        publish(&mut counters, det.graph(), 1);
        det.ensure_vertices(14);
        counters.ensure_vertices(14);
        let batch = EditBatch::from_lists([(12, 0), (12, 1), (13, 12)], []);
        flush(&mut det, &mut counters, &batch);
        assert_results_equal(
            &publish(&mut counters, det.graph(), 1),
            &postprocess(det.graph(), det.state()),
        );
    }

    #[test]
    fn threaded_new_edge_merges_are_bit_identical() {
        // More than 256 edges, so every refresh with 4 threads splits the
        // sync. The ring with chords is uniform; the hub graph is skewed
        // like R-MAT (its low ids hold most edges), so an equal split by
        // vertex would not balance it.
        let n = 400u32;
        let mut ring = AdjacencyGraph::new(n as usize);
        let mut hubs = AdjacencyGraph::new(n as usize);
        for v in 0..n {
            ring.insert_edge(v, (v + 1) % n);
            ring.insert_edge(v, (v + 7) % n);
            hubs.insert_edge(v, (v + 1) % n);
            for hub in 0..4 {
                if hub != v {
                    hubs.insert_edge(hub, v);
                }
            }
        }
        for g in [ring, hubs] {
            let mut det = RslpaDetector::new(g, RslpaConfig::quick(20, 17));
            let mut serial = EdgeCounters::new(det.state());
            let mut threaded = EdgeCounters::new(det.state());
            let full = postprocess(det.graph(), det.state());
            assert_results_equal(&publish(&mut serial, det.graph(), 1), &full);
            assert_results_equal(&publish(&mut threaded, det.graph(), 4), &full);
            let mut rng = DetRng::new(99);
            for _ in 0..3 {
                let batch = random_batch(det.graph(), &mut rng, 60);
                let mut deltas = Vec::new();
                det.apply_batch_streaming(&batch, &mut deltas).unwrap();
                for store in [&mut serial, &mut threaded] {
                    for &(u, v) in batch.deletions() {
                        store.delete_edge(u, v);
                    }
                    store.apply_slot_deltas(det.graph(), &deltas);
                }
                let full = postprocess(det.graph(), det.state());
                assert_results_equal(&publish(&mut serial, det.graph(), 1), &full);
                assert_results_equal(&publish(&mut threaded, det.graph(), 4), &full);
            }
        }
    }

    #[test]
    fn genesis_split_follows_edge_counts() {
        // Four hubs joined to every vertex: each hub holds about a quarter
        // of the upper edges and every other vertex none, so the hubs get
        // ranges of their own and the remaining 396 vertices share one.
        let n = 400u32;
        let mut g = AdjacencyGraph::new(n as usize);
        for hub in 0..4 {
            for v in hub + 1..n {
                g.insert_edge(hub, v);
            }
        }
        assert_eq!(
            edge_balanced_ranges(&g, 4),
            vec![0..1, 1..2, 2..4, 4..n as usize]
        );
    }

    #[test]
    fn refresh_after_churn_merges_only_new_edges() {
        // Steady-state refreshes never re-merge surviving edges, no matter
        // how dirty their endpoints are.
        let g = clique_chain();
        let edges_before = g.num_edges();
        let mut det = RslpaDetector::new(g, RslpaConfig::quick(25, 3));
        let mut counters = EdgeCounters::new(det.state());
        counters.refresh_weights(det.graph(), 1);
        assert_eq!(counters.num_counters(), edges_before);
        let batch = EditBatch::from_lists([(0, 9), (2, 6)], [(3, 4)]);
        flush(&mut det, &mut counters, &batch);
        // Before refresh: only the deleted edge's counter is gone; the
        // two inserted edges have no counter yet.
        assert_eq!(counters.num_counters(), edges_before - 1);
        counters.refresh_weights(det.graph(), 1);
        assert_eq!(counters.num_counters(), det.graph().num_edges());
    }
}
