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
//! > `common_uv = Σ_l f_u(l)·f_v(l)` — an exact `u64`, maintained
//! > incrementally.
//!
//! * A label-slot change `(v, slot, a → b)` moves every incident counter
//!   by `f_w(b) − f_w(a)`: `O(deg(v))` lookups, no merge. Slot changes
//!   arrive as [`SlotDelta`]s from the repair engines (Correction
//!   Propagation already knows exactly which slots it rewrote).
//! * An edge insertion costs one histogram merge — **once**, lazily at
//!   the next [`refresh_weights`](EdgeCounters::refresh_weights), with
//!   whatever the endpoint histograms are then (exact by definition).
//! * An edge deletion drops the counter.
//! * A refresh walks the sorted adjacency rows next to the previous
//!   refresh's canonical `(u, v, common)` index. Every vertex whose
//!   histogram moved, or that lost a counter, since then is marked; an
//!   edge with both endpoints unmarked copies its indexed numerator, and
//!   only edges at a marked endpoint pay a counter lookup. A publish thus
//!   costs one sequential merge of two sorted lists plus hash work in
//!   proportion to the dirty region, for about 16 bytes of index per edge.
//!
//! Because the counter is an exact integer and the weight is derived as
//! `common as f64 / (m as f64 · m as f64)` — the same expression
//! [`sequence_similarity`](crate::postprocess::sequence_similarity)
//! evaluates — streaming weights are **bit-identical** to a fresh merge
//! at every point where the histograms agree. The tests here and the
//! cross-engine proptest in `tests/counter_equivalence.rs` pin that.
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
    compact_slot_deltas, AdjacencyGraph, FxHashMap, FxHashSet, Label, MemAccounted, MemFootprint,
    SlotDelta, VertexId,
};

use crate::shard::ShardRepairState;

/// Pack a canonical edge into one `u64` map key: hashing a single integer
/// is measurably cheaper than a tuple on the upkeep hot path (one
/// counter lookup per incident edge per dirty vertex per flush).
#[inline]
fn edge_key(u: VertexId, v: VertexId) -> u64 {
    let (lo, hi) = canonical(u, v);
    (u64::from(lo) << 32) | u64::from(hi)
}

use crate::postprocess::common_labels;
use crate::rows::{HistRow, HistRows};
use crate::state::{histogram_of, LabelState};

/// Compact a slot-delta stream and aggregate it to one sparse histogram
/// diff per vertex (`Σ` of `-1` at each net `old`, `+1` at each net
/// `new`), so every dirty vertex costs one neighbor sweep no matter how
/// many of its slots moved. Returns the net slot-change count alongside
/// the per-vertex diffs. Shared by the central store and the shard
/// partitions.
fn aggregate_vertex_diffs(deltas: &[SlotDelta]) -> (usize, Vec<(VertexId, Vec<(Label, i64)>)>) {
    let mut net = compact_slot_deltas(deltas);
    if net.is_empty() {
        return (0, Vec::new());
    }
    let count = net.len();
    net.sort_unstable_by_key(|d| d.v);
    let bump = |diff: &mut Vec<(Label, i64)>, l: Label, dl: i64| match diff
        .iter_mut()
        .find(|e| e.0 == l)
    {
        Some(e) => e.1 += dl,
        None => diff.push((l, dl)),
    };
    let mut out: Vec<(VertexId, Vec<(Label, i64)>)> = Vec::new();
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

/// Sparse signed difference `new − old` of a packed row vs a sorted run.
fn hist_diff(old: HistRow<'_>, new: &[(Label, u32)]) -> Vec<(Label, i64)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    let old_at = |i: usize| (old.labels[i], u32::from(old.counts[i]));
    while i < old.len() || j < new.len() {
        match ((i < old.len()).then(|| old_at(i)), new.get(j).copied()) {
            (Some((lo, co)), Some((ln, cn))) if lo == ln => {
                if co != cn {
                    out.push((lo, i64::from(cn) - i64::from(co)));
                }
                i += 1;
                j += 1;
            }
            (Some((lo, co)), Some((ln, _))) if lo < ln => {
                out.push((lo, -i64::from(co)));
                i += 1;
            }
            (Some(_), Some((ln, cn))) => {
                out.push((ln, i64::from(cn)));
                j += 1;
            }
            (Some((lo, co)), None) => {
                out.push((lo, -i64::from(co)));
                i += 1;
            }
            (None, Some((ln, cn))) => {
                out.push((ln, i64::from(cn)));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    out
}

/// The streaming counter store: per-vertex label histograms plus the
/// exact common-label numerator of every live edge.
///
/// Maintained by a mix of **eager** updates
/// ([`apply_slot_deltas`](Self::apply_slot_deltas) /
/// [`delete_edge`](Self::delete_edge), the serve path) and **deferred**
/// ones ([`set_sequence`](Self::set_sequence), applied against the final
/// graph; stale counters of silently-deleted edges are swept at refresh).
/// Both are exact, so they may be combined as long as each vertex's
/// history flows through only one of them between refreshes.
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
    /// Packed sorted histogram rows, one slot per vertex (slots are
    /// allocated in vertex order and never released, so `slot == v`).
    hists: HistRows,
    /// [`edge_key`]`(u, v)` → `Σ_l f_u(l)·f_v(l)` for every edge seen by
    /// the last refresh and not deleted since.
    common: FxHashMap<u64, u64>,
    /// The last refresh's canonical `(u, v, common)` list, sorted by
    /// `(u, v)`. An entry whose endpoints are both unmarked in `touched`
    /// still equals its live counter, so refresh copies it instead of
    /// looking the counter up.
    index: Vec<(VertexId, VertexId, u64)>,
    /// `touched[v]`: `v`'s histogram moved, or a counter incident to `v`
    /// was retired, since the last refresh.
    touched: Vec<bool>,
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
            touched: vec![false; hists.num_slots()],
            hists,
            common: FxHashMap::default(),
            index: Vec::new(),
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
        self.common.len()
    }

    /// Current histogram of `v` as a packed row view.
    pub fn row(&self, v: VertexId) -> HistRow<'_> {
        self.hists.row(v)
    }

    /// Current histogram of `v`, materialized (diagnostics / shipping;
    /// hot paths read [`row`](Self::row) instead).
    pub fn hist(&self, v: VertexId) -> Vec<(Label, u32)> {
        self.hists.row(v).to_vec()
    }

    /// The exact numerator for edge `(u, v)`, if a counter is live.
    pub fn common_of(&self, u: VertexId, v: VertexId) -> Option<u64> {
        self.common.get(&edge_key(u, v)).copied()
    }

    /// Grow the vertex space to `n`; fresh vertices get the own-label
    /// histogram their untouched sequence has (`{v: m}`).
    pub fn ensure_vertices(&mut self, n: usize) {
        while self.hists.num_slots() < n {
            let v = self.hists.num_slots() as VertexId;
            let slot = self.hists.alloc_default(v as Label);
            debug_assert_eq!(slot, v, "dense store slots track vertex ids");
        }
        self.touched.resize(self.hists.num_slots(), false);
    }

    /// Drop the counter of a deleted edge (no-op if the edge never earned
    /// one). **Eager users must call this for every deletion**: a counter
    /// that survives a delete/re-insert cycle would miss the slot deltas
    /// applied while the edge was absent.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) {
        if self.common.remove(&edge_key(u, v)).is_some() {
            self.touched[u as usize] = true;
            self.touched[v as usize] = true;
        }
    }

    /// Apply one label-slot change in `O(deg)`: every live counter
    /// incident to `d.v` moves by `f_w(new) − f_w(old)`, then the
    /// histogram itself shifts one unit of mass. Deltas for one
    /// `(v, slot)` must arrive in application order; anything else may
    /// interleave freely (the updates commute).
    pub fn apply_slot_delta(&mut self, graph: &AdjacencyGraph, d: SlotDelta) {
        if d.old == d.new {
            return;
        }
        self.ensure_vertices(d.v as usize + 1);
        for &w in graph.neighbors(d.v) {
            if let Some(c) = self.common.get_mut(&edge_key(d.v, w)) {
                let fw = self.hists.row(w);
                let delta = i64::from(fw.count_of(d.new)) - i64::from(fw.count_of(d.old));
                *c = c
                    .checked_add_signed(delta)
                    .expect("exact maintenance keeps counters non-negative");
            }
        }
        self.hists.shift(d.v, d.old, d.new);
        self.touched[d.v as usize] = true;
    }

    /// Push one vertex's aggregated histogram difference through every
    /// live incident counter, then fold it into the histogram itself —
    /// the shared core of [`set_sequence`](Self::set_sequence) and
    /// [`apply_slot_deltas`](Self::apply_slot_deltas). One neighbor sweep
    /// (one counter lookup per incident edge) covers the whole diff.
    fn apply_vertex_diff(&mut self, graph: &AdjacencyGraph, v: VertexId, diff: &[(Label, i64)]) {
        if diff.is_empty() {
            return;
        }
        for &w in graph.neighbors(v) {
            if let Some(c) = self.common.get_mut(&edge_key(v, w)) {
                let fw = self.hists.row(w);
                let delta: i64 = diff
                    .iter()
                    .map(|&(l, dl)| dl * i64::from(fw.count_of(l)))
                    .sum();
                *c = c
                    .checked_add_signed(delta)
                    .expect("exact maintenance keeps counters non-negative");
            }
        }
        self.hists.fold_diff(v, diff);
        self.touched[v as usize] = true;
    }

    /// Fold a repair's slot-delta stream into the counters: the stream is
    /// [compacted](rslpa_graph::compact_slot_deltas), grouped by vertex,
    /// and aggregated to one sparse histogram diff per vertex, so each
    /// dirty vertex costs **one** neighbor sweep no matter how many of
    /// its slots moved. `graph` must be the post-repair topology. Returns
    /// the number of net slot changes folded in.
    pub fn apply_slot_deltas(&mut self, graph: &AdjacencyGraph, deltas: &[SlotDelta]) -> usize {
        let (count, diffs) = aggregate_vertex_diffs(deltas);
        if count == 0 {
            return 0;
        }
        if let Some(max) = diffs.iter().map(|&(v, _)| v).max() {
            self.ensure_vertices(max as usize + 1);
        }
        for (v, diff) in &diffs {
            self.apply_vertex_diff(graph, *v, diff);
        }
        count
    }

    /// Replace `v`'s whole label sequence (the deferred path): the sparse
    /// histogram difference is pushed through every live incident counter
    /// against the **final** graph, which is exactly why deferred updates
    /// tolerate un-notified edge deletions — a deleted edge is absent
    /// from `graph.neighbors(v)` and its stale counter is swept at the
    /// next refresh.
    pub fn set_sequence(&mut self, graph: &AdjacencyGraph, v: VertexId, labels: &[Label]) {
        debug_assert_eq!(labels.len(), self.m, "sequence length mismatch");
        self.ensure_vertices(v as usize + 1);
        let new_hist = histogram_of(labels);
        let diff = hist_diff(self.hists.row(v), &new_hist);
        self.apply_vertex_diff(graph, v, &diff);
    }

    /// Produce the canonical weight list for `graph`. Rows are walked in
    /// canonical order alongside the last refresh's numerator index: an
    /// edge whose endpoints are both untouched since then copies its
    /// indexed numerator, any other edge reads its counter (one `O(1)`
    /// lookup), and an edge with no counter yet (new since the last
    /// refresh — or every edge, on the first call) is merged. Merges fan
    /// out over `threads` workers when there are enough of them; each
    /// merge is a pure function of two histograms, so the thread count
    /// cannot change a bit of the output. Counters of edges no longer
    /// present are swept.
    pub fn refresh_weights(
        &mut self,
        graph: &AdjacencyGraph,
        threads: usize,
    ) -> Vec<(VertexId, VertexId, f64)> {
        let n = graph.num_vertices();
        self.ensure_vertices(n);
        let mm = self.m as f64 * self.m as f64;
        let mut wlist: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(graph.num_edges());
        let mut index = Vec::with_capacity(graph.num_edges());
        let mut missing: Vec<usize> = Vec::new();
        let old = &self.index;
        let mut at = 0;
        for u in 0..n as VertexId {
            let row = graph.neighbors(u);
            let u_touched = self.touched[u as usize];
            for &v in &row[row.partition_point(|&v| v < u)..] {
                while at < old.len() && (old[at].0, old[at].1) < (u, v) {
                    at += 1;
                }
                let copied = (!u_touched
                    && !self.touched[v as usize]
                    && at < old.len()
                    && (old[at].0, old[at].1) == (u, v))
                    .then(|| old[at].2);
                let c = copied.or_else(|| self.common.get(&edge_key(u, v)).copied());
                if c.is_none() {
                    missing.push(index.len());
                }
                let c = c.unwrap_or(0);
                index.push((u, v, c));
                wlist.push((u, v, c as f64 / mm));
            }
        }
        let commons: Vec<u64> = if threads <= 1 || missing.len() < 256 {
            missing
                .iter()
                .map(|&i| {
                    let (u, v, _) = index[i];
                    self.hists.common(u, v)
                })
                .collect()
        } else {
            let mut out = vec![0u64; missing.len()];
            let chunk = missing.len().div_ceil(threads).max(1);
            let hists = &self.hists;
            let index_ref = &index;
            std::thread::scope(|s| {
                for (idx, slice) in missing.chunks(chunk).zip(out.chunks_mut(chunk)) {
                    s.spawn(move || {
                        for (&i, o) in idx.iter().zip(slice.iter_mut()) {
                            let (u, v, _) = index_ref[i];
                            *o = hists.common(u, v);
                        }
                    });
                }
            });
            out
        };
        for (&i, &c) in missing.iter().zip(&commons) {
            let (u, v, _) = index[i];
            self.common.insert(edge_key(u, v), c);
            index[i].2 = c;
            wlist[i].2 = c as f64 / mm;
        }
        // Counters in excess of the edge count belong to deleted edges a
        // deferred user never notified us about.
        if self.common.len() > graph.num_edges() {
            self.common
                .retain(|&key, _| graph.has_edge((key >> 32) as VertexId, key as u32));
        }
        debug_assert_eq!(
            self.common.len(),
            index.len(),
            "a live edge lacks a counter"
        );
        debug_assert!(
            index
                .iter()
                .all(|&(u, v, c)| self.common.get(&edge_key(u, v)) == Some(&c)),
            "numerator index drifted from the live counters"
        );
        self.touched.fill(false);
        self.index = index;
        wlist
    }
}

impl MemAccounted for EdgeCounters {
    fn mem_footprint(&self) -> MemFootprint {
        let entry = std::mem::size_of::<(u64, u64)>();
        let indexed = std::mem::size_of::<(VertexId, VertexId, u64)>();
        self.hists.mem_footprint().plus(MemFootprint {
            live_bytes: self.common.len() * entry + self.index.len() * indexed + self.touched.len(),
            capacity_bytes: self.common.capacity() * entry
                + self.index.capacity() * indexed
                + self.touched.capacity(),
        })
    }
}

/// The shard-owned slice of the streaming counter store: histograms of
/// the shard's own vertices plus the exact `common_uv` counter of every
/// **interior** edge (both endpoints owned by this shard).
///
/// # Cross-shard edge ownership rule
///
/// An edge's counter is maintained incrementally **only while both
/// endpoints live on the same shard** — then every slot delta that can
/// move it originates on that shard, the neighbor histogram it needs is
/// local, and upkeep runs inside the worker with no cross-shard reads.
/// Boundary edges (endpoints on different shards) carry no incremental
/// counter; their numerator is **merged at publish** from the two
/// endpoint histograms the owners ship with their
/// [`collect_interior`](Self::collect_interior) /
/// [`boundary_hists`](Self::boundary_hists) replies. A merge of exact
/// histograms is exact by definition, so the assembled weight list
/// ([`assemble_partitioned_weights`]) is bit-identical to the central
/// [`EdgeCounters`] path — both divide the same integer by the same
/// `(T+1)²`.
///
/// Migration follows the same rule: when a vertex changes owner, its
/// histogram is recomputed from the migrated row's label sequence
/// (a pure function, exact), and every counter incident to it is dropped
/// — edges that end up co-owned again are re-merged lazily at the next
/// publish, exactly like freshly inserted edges.
#[derive(Clone, Debug)]
pub struct CounterPartition {
    /// Draws per sequence (`T + 1`).
    m: usize,
    /// Packed histogram rows of owned vertices (slots released on
    /// migration, recycled by later adoptions).
    rows: HistRows,
    /// Owned vertex id → row slot.
    slots: FxHashMap<VertexId, u32>,
    /// [`edge_key`] → `Σ_l f_u(l)·f_v(l)` for interior edges only.
    common: FxHashMap<u64, u64>,
    /// Owned vertices whose histogram changed since their last
    /// dirty-diff ship (fed by the same slot-delta stream as counter
    /// upkeep, plus migration adoptions). Interior dirty vertices stay in
    /// the set — they must ship if they ever become boundary.
    dirty: FxHashSet<VertexId>,
    /// Owned vertices whose **current** histogram the publish coordinator
    /// already holds in its boundary cache (shipped at some collect and
    /// unchanged since). The ship rule is: ship `v` iff `v` is boundary
    /// and (`v ∈ dirty` or `v ∉ shipped`).
    shipped: FxHashSet<VertexId>,
}

/// Accounting of one dirty-diff boundary ship
/// ([`CounterPartition::dirty_boundary_hists_into`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct BoundaryShipReport {
    /// Histograms actually shipped (changed since the last ship, or never
    /// shipped before).
    pub shipped: u64,
    /// Boundary vertices in total — what the pre-diff protocol shipped
    /// every publish.
    pub boundary: u64,
    /// Dirty-vertex count at ship time: vertices whose histogram changed
    /// since their last ship (interior or boundary), plus never-shipped
    /// boundary vertices. `shipped <= dirty` always holds — the CI gate
    /// that proves diffs ship no more than the churn touched.
    pub dirty: u64,
}

impl BoundaryShipReport {
    /// Accumulate another shard's report into this one.
    pub fn absorb(&mut self, other: &BoundaryShipReport) {
        self.shipped += other.shipped;
        self.boundary += other.boundary;
        self.dirty += other.dirty;
    }
}

impl CounterPartition {
    /// Carve this shard's slice out of a populated central store:
    /// histograms of owned vertices, counters of interior edges. Used at
    /// bootstrap so the genesis weight pass is never repeated.
    pub fn carve(central: &EdgeCounters, rows: &ShardRepairState) -> Self {
        let mut packed = HistRows::new(central.m);
        let mut slots = FxHashMap::default();
        for v in rows.owned_sorted() {
            if (v as usize) < central.hists.num_slots() {
                let hist = central.hists.row(v).to_vec();
                slots.insert(v, packed.alloc_from(&hist));
            }
        }
        let common = central
            .common
            .iter()
            .filter(|(&key, _)| {
                rows.owns((key >> 32) as VertexId) && rows.owns(key as u32 as VertexId)
            })
            .map(|(&key, &c)| (key, c))
            .collect();
        Self {
            m: central.m,
            rows: packed,
            slots,
            common,
            dirty: FxHashSet::default(),
            shipped: FxHashSet::default(),
        }
    }

    /// An empty partition (tests; counters and histograms fill lazily).
    pub fn new(m: usize) -> Self {
        Self {
            m,
            rows: HistRows::new(m),
            slots: FxHashMap::default(),
            common: FxHashMap::default(),
            dirty: FxHashSet::default(),
            shipped: FxHashSet::default(),
        }
    }

    /// Draws per sequence (`T + 1`).
    pub fn draws(&self) -> usize {
        self.m
    }

    /// Live interior-edge counters (diagnostics).
    pub fn num_counters(&self) -> usize {
        self.common.len()
    }

    /// Row slot of owned vertex `v`, creating the own-label histogram a
    /// fresh untouched sequence has (`{v: m}`) on first sight.
    fn slot_entry(&mut self, v: VertexId) -> u32 {
        if let Some(&slot) = self.slots.get(&v) {
            return slot;
        }
        let slot = self.rows.alloc_default(v as Label);
        self.slots.insert(v, slot);
        slot
    }

    /// Drop the counter of an interior edge that was just deleted.
    /// **Must be called for every interior deletion** — a counter that
    /// survives a delete/re-insert cycle would miss the slot deltas
    /// applied while the edge was absent. (Boundary deletions have no
    /// counter; calling this for them is a no-op.)
    pub fn retire_edge(&mut self, u: VertexId, v: VertexId) {
        self.common.remove(&edge_key(u, v));
    }

    /// Install the histogram of a vertex migrating in, recomputed from
    /// its row's label sequence (exact — the histogram is a pure function
    /// of the sequence).
    pub fn adopt_hist(&mut self, v: VertexId, labels: &[Label]) {
        debug_assert_eq!(labels.len(), self.m, "sequence length mismatch");
        let hist = histogram_of(labels);
        match self.slots.get(&v) {
            Some(&slot) => self.rows.set_from(slot, &hist),
            None => {
                let slot = self.rows.alloc_from(&hist);
                self.slots.insert(v, slot);
            }
        }
        // A migrated-in vertex must re-ship: whatever the coordinator's
        // cache holds for it was shipped by the previous owner and may be
        // stale (and the repartition evicted it anyway).
        self.shipped.remove(&v);
        self.dirty.insert(v);
    }

    /// Forget everything about vertices migrating out: their histograms
    /// and every counter incident to them (see the ownership rule above).
    pub fn drop_vertices(&mut self, leaving: &[VertexId]) {
        if leaving.is_empty() {
            return;
        }
        let gone: FxHashSet<VertexId> = leaving.iter().copied().collect();
        for v in leaving {
            if let Some(slot) = self.slots.remove(v) {
                self.rows.release(slot);
            }
            // Dirtiness travels with the row: the adopter marks the vertex
            // dirty unconditionally (`adopt_hist`), so dropping it here
            // loses nothing.
            self.dirty.remove(v);
            self.shipped.remove(v);
        }
        self.common.retain(|&key, _| {
            !gone.contains(&((key >> 32) as VertexId)) && !gone.contains(&(key as u32))
        });
    }

    /// Fold this shard's flush deltas into its own partition: the stream
    /// is compacted and aggregated per vertex exactly like the central
    /// [`EdgeCounters::apply_slot_deltas`], but the neighbor sweep only
    /// touches **interior** counters (the neighbor histogram is then
    /// guaranteed local). Every delta must target an owned vertex, in
    /// application order per `(v, slot)` — which the emitting
    /// [`ShardRepairState`] guarantees, being the vertex's single owner.
    /// Returns the number of net slot changes folded in.
    pub fn apply_own_deltas(&mut self, rows: &ShardRepairState, deltas: &[SlotDelta]) -> usize {
        let (count, diffs) = aggregate_vertex_diffs(deltas);
        if count == 0 {
            return 0;
        }
        for (v, diff) in &diffs {
            let v = *v;
            debug_assert!(
                rows.owns(v),
                "slot delta for a vertex this shard does not own"
            );
            if diff.is_empty() {
                continue;
            }
            let slot_v = self.slot_entry(v);
            for &w in rows.neighbors_of(v) {
                if !rows.owns(w) {
                    continue; // boundary edge: merged at publish
                }
                if let Some(c) = self.common.get_mut(&edge_key(v, w)) {
                    let slot_w = *self
                        .slots
                        .get(&w)
                        .expect("interior neighbor histogram is local");
                    let fw = self.rows.row(slot_w);
                    let delta: i64 = diff
                        .iter()
                        .map(|&(l, dl)| dl * i64::from(fw.count_of(l)))
                        .sum();
                    *c = c
                        .checked_add_signed(delta)
                        .expect("exact maintenance keeps counters non-negative");
                }
            }
            self.rows.fold_diff(slot_v, diff);
            // Same stream feeds the ship bookkeeping: the histogram just
            // moved, so the coordinator's cached copy (if any) is stale.
            self.dirty.insert(v);
        }
        count
    }

    /// The publish-time contribution of this partition: one
    /// `(u, v, common)` triple per interior edge, sorted canonically —
    /// an `O(1)` counter read per live counter, one local histogram merge
    /// per interior edge with no counter yet (new since the last collect,
    /// or re-interiorized by migration). Stale counters (belt and braces;
    /// the eager retire path should leave none) are swept.
    pub fn collect_interior(&mut self, rows: &ShardRepairState) -> Vec<(VertexId, VertexId, u64)> {
        let mut out: Vec<(VertexId, VertexId, u64)> = Vec::new();
        for v in rows.owned_sorted() {
            for &w in rows.neighbors_of(v) {
                if w <= v || !rows.owns(w) {
                    continue;
                }
                let key = edge_key(v, w);
                let c = match self.common.get(&key) {
                    Some(&c) => c,
                    None => {
                        // Histograms materialize only where a merge needs
                        // them — not for every owned vertex per publish.
                        let slot_v = self.slot_entry(v);
                        let slot_w = self.slot_entry(w);
                        let c = self.rows.common(slot_v, slot_w);
                        self.common.insert(key, c);
                        c
                    }
                };
                out.push((v, w, c));
            }
        }
        if self.common.len() > out.len() {
            let live: FxHashSet<u64> = out.iter().map(|&(u, v, _)| edge_key(u, v)).collect();
            self.common.retain(|key, _| live.contains(key));
        }
        out
    }

    /// Histograms of this shard's boundary vertices (owned vertices with
    /// at least one off-shard neighbor), sorted by vertex — what the
    /// publish assembly needs to merge boundary edges. Appends into a
    /// caller-owned buffer so the per-publish allocation can be reused.
    pub fn boundary_hists_into(
        &mut self,
        rows: &ShardRepairState,
        out: &mut Vec<(VertexId, Vec<(Label, u32)>)>,
    ) {
        for v in rows.owned_sorted() {
            if rows.neighbors_of(v).iter().any(|&w| !rows.owns(w)) {
                let slot = self.slot_entry(v);
                out.push((v, self.rows.row(slot).to_vec()));
            }
        }
    }

    /// [`boundary_hists_into`](Self::boundary_hists_into), allocating.
    pub fn boundary_hists(
        &mut self,
        rows: &ShardRepairState,
    ) -> Vec<(VertexId, Vec<(Label, u32)>)> {
        let mut out = Vec::new();
        self.boundary_hists_into(rows, &mut out);
        out
    }

    /// Dirty-diff variant of [`boundary_hists_into`](Self::boundary_hists_into):
    /// ship only the boundary vertices the publish coordinator's cache
    /// does not already hold current histograms for — those whose
    /// histogram changed since their last ship (`dirty`, maintained from
    /// the same slot-delta stream that feeds counter upkeep, plus
    /// migration adoptions) and those never shipped before (fresh
    /// boundary, carve-time rows, post-migration adoptions).
    ///
    /// # Cache-coherence argument
    ///
    /// The coordinator overlays every shipped `(v, hist)` into a
    /// vertex-keyed cache and hands the whole cache to
    /// [`assemble_partitioned_weights`], which reads it **only for
    /// endpoints of cross-shard edges** — i.e. current boundary vertices.
    /// For any such `v` (owned by exactly one shard), after this call:
    ///
    /// * `v ∉ shipped` → shipped now, cache holds the current histogram;
    /// * `v ∈ shipped` and the histogram changed since the last ship →
    ///   the change passed through [`apply_own_deltas`](Self::apply_own_deltas)
    ///   or [`adopt_hist`](Self::adopt_hist), both of which marked `v`
    ///   dirty → shipped now;
    /// * `v ∈ shipped` and unchanged → the cached copy **is** the current
    ///   histogram (this covers interior vertices that became boundary
    ///   through pure topology churn with no label movement).
    ///
    /// Stale cache entries can only exist for vertices that are not
    /// boundary any more — never read. So the assembled map is identical
    /// to a full [`boundary_hists`](Self::boundary_hists) ship, which the
    /// equivalence proptest pins bit-for-bit.
    pub fn dirty_boundary_hists_into(
        &mut self,
        rows: &ShardRepairState,
        out: &mut Vec<(VertexId, Vec<(Label, u32)>)>,
    ) -> BoundaryShipReport {
        let mut report = BoundaryShipReport {
            dirty: self.dirty.len() as u64,
            ..BoundaryShipReport::default()
        };
        for v in rows.owned_sorted() {
            if !rows.neighbors_of(v).iter().any(|&w| !rows.owns(w)) {
                continue;
            }
            report.boundary += 1;
            let is_dirty = self.dirty.remove(&v);
            if !self.shipped.insert(v) && !is_dirty {
                continue; // already shipped, unchanged since
            }
            if !is_dirty {
                report.dirty += 1; // first ship counts as a dirty vertex
            }
            let slot = self.slot_entry(v);
            out.push((v, self.rows.row(slot).to_vec()));
            report.shipped += 1;
        }
        report
    }
}

impl MemAccounted for CounterPartition {
    fn mem_footprint(&self) -> MemFootprint {
        let entry = std::mem::size_of::<(u64, u64)>();
        self.rows.mem_footprint().plus(MemFootprint {
            live_bytes: self.common.len() * entry,
            capacity_bytes: self.common.capacity() * entry,
        })
    }
}

/// Stitch per-shard publish contributions into the canonical weight list
/// for `graph`: interior edges come off the owners' sorted
/// [`collect_interior`](CounterPartition::collect_interior) lists via one
/// cursor per shard; boundary edges are merged from the shipped endpoint
/// histograms. Bit-identical to the central
/// [`EdgeCounters::refresh_weights`] — every numerator is the same exact
/// integer, divided by the same `m²`.
pub fn assemble_partitioned_weights(
    graph: &AdjacencyGraph,
    owner_of: impl Fn(VertexId) -> usize,
    m: usize,
    interior: &[Vec<(VertexId, VertexId, u64)>],
    boundary_hists: &FxHashMap<VertexId, Vec<(Label, u32)>>,
) -> Vec<(VertexId, VertexId, f64)> {
    let mm = m as f64 * m as f64;
    let mut cursors = vec![0usize; interior.len()];
    let mut wlist = Vec::with_capacity(graph.num_edges());
    for (u, v) in graph.edges() {
        debug_assert!(u < v, "edges() must yield canonical pairs");
        let (ou, ov) = (owner_of(u), owner_of(v));
        let c = if ou == ov {
            let cur = &mut cursors[ou];
            let (iu, iv, c) = interior[ou][*cur];
            debug_assert_eq!((iu, iv), (u, v), "interior cursor drifted");
            *cur += 1;
            c
        } else {
            let fu = &boundary_hists[&u];
            let fv = &boundary_hists[&v];
            common_labels(fu, fv)
        };
        wlist.push((u, v, c as f64 / mm));
    }
    debug_assert!(
        cursors
            .iter()
            .zip(interior)
            .all(|(&c, list)| c == list.len()),
        "interior weights left unconsumed"
    );
    wlist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RslpaConfig;
    use crate::detector::RslpaDetector;
    use crate::postprocess::edge_weights;
    use crate::propagation::run_propagation;
    use rslpa_graph::EditBatch;

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
        assert_eq!(counters.common_of(0, 1), Some(2 * 1 + 2 * 3)); // = 8
                                                                   // One correction rewrites slot 2 of vertex 0 from y to x: the
                                                                   // streaming update is common += f_1(x) − f_1(y) = 1 − 3.
        counters.apply_slot_delta(
            &g,
            SlotDelta {
                v: 0,
                slot: 2,
                old: 1,
                new: 0,
            },
        );
        // Fresh merge of f_0 = {x:3, y:1}, f_1 = {x:1, y:3}: 3·1 + 1·3.
        assert_eq!(counters.common_of(0, 1), Some(3 * 1 + 1 * 3)); // = 6
        assert_eq!(counters.hist(0), &[(0, 3), (1, 1)]);
        let w = counters.refresh_weights(&g, 1);
        assert_eq!(w[0].2.to_bits(), (6.0f64 / 16.0).to_bits());
    }

    #[test]
    fn slot_deltas_track_a_fresh_merge() {
        let g = ring_graph(6);
        let mut state = run_propagation(&g, 8, 5);
        let mut counters = EdgeCounters::new(&state);
        counters.refresh_weights(&g, 1);
        // Hand-apply a few slot rewrites to both the state and the
        // counters; weights must stay bit-identical to a fresh merge.
        for (v, t, new) in [(0u32, 3u32, 4u32), (1, 1, 4), (0, 5, 1), (4, 2, 0)] {
            let old = state.label(v, t);
            state.set_label(v, t, new);
            counters.apply_slot_delta(
                &g,
                SlotDelta {
                    v,
                    slot: t,
                    old,
                    new,
                },
            );
        }
        assert_weights_equal(&counters.refresh_weights(&g, 1), &edge_weights(&g, &state));
    }

    #[test]
    fn noop_delta_changes_nothing() {
        let g = ring_graph(4);
        let state = run_propagation(&g, 6, 1);
        let mut counters = EdgeCounters::new(&state);
        let before = counters.refresh_weights(&g, 1);
        counters.apply_slot_delta(
            &g,
            SlotDelta {
                v: 2,
                slot: 1,
                old: 9,
                new: 9,
            },
        );
        assert_weights_equal(&counters.refresh_weights(&g, 1), &before);
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

    #[test]
    fn unnotified_deletion_is_swept_by_refresh() {
        let mut g = ring_graph(5);
        let state = run_propagation(&g, 6, 2);
        let mut counters = EdgeCounters::new(&state);
        counters.refresh_weights(&g, 1);
        g.remove_edge(1, 2); // deferred user: no delete_edge call
        counters.refresh_weights(&g, 1);
        assert_eq!(counters.num_counters(), g.num_edges());
        assert_eq!(counters.common_of(1, 2), None);
    }

    #[test]
    fn set_sequence_diff_matches_fresh_merge() {
        let g = ring_graph(7);
        let mut state = run_propagation(&g, 9, 11);
        let mut counters = EdgeCounters::new(&state);
        counters.refresh_weights(&g, 1);
        // Replace two whole sequences (the deferred path).
        for v in [2u32, 3] {
            for t in 1..=9u32 {
                state.set_label(v, t, (v + t) % 5);
            }
            counters.set_sequence(&g, v, state.label_sequence(v));
        }
        assert_weights_equal(&counters.refresh_weights(&g, 1), &edge_weights(&g, &state));
    }

    #[test]
    fn threaded_and_serial_first_refresh_agree() {
        // > 256 missing edges so the parallel path actually runs.
        let n = 300u32;
        let mut g = ring_graph(n as u32);
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
        let (mut dirty, mut deltas) = (FxHashSet::default(), Vec::new());
        det.apply_batch_streaming(batch, &mut dirty, &mut deltas)
            .unwrap();
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
        // Notified and un-notified delete/re-insert cycles, neither
        // endpoint's histogram moving in between.
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
        counters.apply_slot_delta(&g, SlotDelta { v, slot, old, new });
        assert_weights_equal(&counters.refresh_weights(&g, 1), &edge_weights(&g, &state));
    }

    #[test]
    fn index_follows_deferred_sequences_with_unnotified_deletions() {
        let mut g = ring_graph(9);
        g.insert_edge(0, 4);
        let mut state = run_propagation(&g, 9, 17);
        let mut counters = EdgeCounters::new(&state);
        counters.refresh_weights(&g, 1);
        // Deferred user: edges vanish without `delete_edge`, one at a
        // changed vertex and one between quiet vertices, and sequences are
        // replaced against the final graph.
        g.remove_edge(3, 4);
        g.remove_edge(6, 7);
        for v in [4u32, 8] {
            for t in 1..=9u32 {
                state.set_label(v, t, (v * t) % 4);
            }
            counters.set_sequence(&g, v, state.label_sequence(v));
        }
        assert_weights_equal(&counters.refresh_weights(&g, 1), &edge_weights(&g, &state));
        assert_eq!(counters.num_counters(), g.num_edges());
        assert_eq!(counters.common_of(6, 7), None);
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

    mod partition {
        use super::*;
        use crate::shard::ShardRepairState;
        use rslpa_graph::{DynamicGraph, EditBatch, HashPartitioner, Partitioner};
        use std::sync::Arc;

        fn run_partitioned(
            parts: usize,
            seed: u64,
            batches: &[EditBatch],
        ) -> (
            Vec<(VertexId, VertexId, f64)>,
            Vec<(VertexId, VertexId, f64)>,
        ) {
            let t_max = 8usize;
            let g0 = ring_graph(8);
            let mut dg = DynamicGraph::new(g0.clone());
            let mut central_state = run_propagation(dg.graph(), t_max, seed);
            let mut central = EdgeCounters::new(&central_state);
            central.refresh_weights(dg.graph(), 1);

            let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
            let mut shards: Vec<ShardRepairState> = (0..parts)
                .map(|s| {
                    ShardRepairState::from_state(&central_state, &g0, s, Arc::clone(&partitioner))
                })
                .collect();
            let mut partitions: Vec<CounterPartition> = shards
                .iter()
                .map(|rows| CounterPartition::carve(&central, rows))
                .collect();

            for batch in batches {
                let applied = dg.apply(batch).unwrap();
                let mut central_deltas = Vec::new();
                let mut dirty = rslpa_graph::FxHashSet::default();
                crate::incremental::apply_correction_damped(
                    &mut central_state,
                    dg.graph(),
                    &applied,
                    false,
                    None,
                    &mut dirty,
                    &mut central_deltas,
                );
                for &(u, v) in batch.deletions() {
                    central.delete_edge(u, v);
                }
                central.apply_slot_deltas(dg.graph(), &central_deltas);

                // Sharded side: coordinator-style exchange loop, then each
                // shard retires its interior deletions and folds its own
                // deltas into its own partition.
                let per_shard = rslpa_graph::sharding::split_deltas(&applied, partitioner.as_ref());
                for (shard, partition) in shards.iter_mut().zip(partitions.iter_mut()) {
                    for (v, delta) in &per_shard[shard.shard()] {
                        for &w in &delta.removed {
                            if shard.owns(w) {
                                partition.retire_edge(*v, w);
                            }
                        }
                    }
                }
                let mut outbox = Vec::new();
                for shard in shards.iter_mut() {
                    shard.apply_deltas(&per_shard[shard.shard()], &mut outbox);
                }
                while !outbox.is_empty() {
                    let mut inboxes: Vec<Vec<crate::shard::Envelope>> = vec![Vec::new(); parts];
                    for env in outbox.drain(..) {
                        inboxes[partitioner.assign(env.to)].push(env);
                    }
                    for (shard, inbox) in shards.iter_mut().zip(inboxes) {
                        if !inbox.is_empty() {
                            shard.exchange(inbox, &mut outbox);
                        }
                    }
                }
                // Feed the partitions the *central* engine's stream routed
                // by owner instead of the shard-emitted one: per-vertex
                // chains and net effect are identical (each vertex has a
                // single owner), so the partitions must land on the same
                // counters either way.
                let routed = rslpa_graph::split_slot_deltas(&central_deltas, partitioner.as_ref());
                for (shard, partition) in shards.iter_mut().zip(partitions.iter_mut()) {
                    shard.take_slot_deltas(); // drained as the serve worker would
                    partition.apply_own_deltas(shard, &routed[shard.shard()]);
                }
            }

            let interior: Vec<Vec<(VertexId, VertexId, u64)>> = shards
                .iter()
                .zip(partitions.iter_mut())
                .map(|(rows, p)| p.collect_interior(rows))
                .collect();
            let mut bh: FxHashMap<VertexId, Vec<(Label, u32)>> = FxHashMap::default();
            for (rows, p) in shards.iter().zip(partitions.iter_mut()) {
                for (v, hist) in p.boundary_hists(rows) {
                    bh.insert(v, hist);
                }
            }
            let assembled = assemble_partitioned_weights(
                dg.graph(),
                |v| partitioner.assign(v),
                t_max + 1,
                &interior,
                &bh,
            );
            let reference = central.refresh_weights(dg.graph(), 1);
            assert_weights_equal(&reference, &edge_weights(dg.graph(), &central_state));
            (assembled, reference)
        }

        #[test]
        fn partitioned_collect_matches_central_store() {
            let batches = [
                EditBatch::from_lists([(0, 3)], [(1, 2)]),
                EditBatch::from_lists([(2, 6), (1, 5)], [(0, 3)]),
                EditBatch::from_lists([(1, 2)], [(4, 5)]),
            ];
            for seed in 0..4u64 {
                for parts in [1usize, 2, 3] {
                    let (assembled, reference) = run_partitioned(parts, seed, &batches);
                    assert_weights_equal(&assembled, &reference);
                }
            }
        }

        #[test]
        fn drop_and_adopt_follow_migration() {
            // Carve two partitions, migrate a vertex, and verify the
            // ownership rule: dropped counters reappear via lazy merge,
            // the adopted histogram is exact.
            let g = ring_graph(6);
            let state = run_propagation(&g, 6, 9);
            let mut central = EdgeCounters::new(&state);
            central.refresh_weights(&g, 1);
            let p_old: Arc<dyn Partitioner> = Arc::new(HashPartitioner::with_seed(2, 1));
            let mut shards: Vec<ShardRepairState> = (0..2)
                .map(|s| ShardRepairState::from_state(&state, &g, s, Arc::clone(&p_old)))
                .collect();
            let mut partitions: Vec<CounterPartition> = shards
                .iter()
                .map(|rows| CounterPartition::carve(&central, rows))
                .collect();
            let p_new: Arc<dyn Partitioner> = Arc::new(HashPartitioner::with_seed(2, 77));
            let mut in_flight: Vec<Vec<(VertexId, crate::shard::VertexRowData)>> =
                vec![Vec::new(); 2];
            for (shard, partition) in shards.iter_mut().zip(partitions.iter_mut()) {
                let leaving: Vec<VertexId> = (0..6u32)
                    .filter(|&v| {
                        p_old.assign(v) == shard.shard() && p_new.assign(v) != shard.shard()
                    })
                    .collect();
                partition.drop_vertices(&leaving);
                for (v, row) in shard.extract_rows(&leaving) {
                    in_flight[p_new.assign(v)].push((v, row));
                }
            }
            for ((shard, partition), rows) in
                shards.iter_mut().zip(partitions.iter_mut()).zip(in_flight)
            {
                shard.set_partitioner(Arc::clone(&p_new));
                for (v, data) in &rows {
                    partition.adopt_hist(*v, &data.labels);
                }
                shard.adopt_rows(rows);
            }
            let interior: Vec<Vec<(VertexId, VertexId, u64)>> = shards
                .iter()
                .zip(partitions.iter_mut())
                .map(|(rows, p)| p.collect_interior(rows))
                .collect();
            let mut bh: FxHashMap<VertexId, Vec<(Label, u32)>> = FxHashMap::default();
            for (rows, p) in shards.iter().zip(partitions.iter_mut()) {
                for (v, hist) in p.boundary_hists(rows) {
                    bh.insert(v, hist);
                }
            }
            let assembled =
                assemble_partitioned_weights(&g, |v| p_new.assign(v), 7, &interior, &bh);
            assert_weights_equal(&assembled, &central.refresh_weights(&g, 1));
        }
    }
}
