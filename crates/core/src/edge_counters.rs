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
//!   by `f_w(b) − f_w(a)`: `v`'s own row is walked for its upper edges,
//!   and `v` is binary-searched in each lower neighbor's row — `O(deg(v))`
//!   and no merge. Slot changes arrive as [`SlotDelta`]s from the repair
//!   engines (Correction Propagation already knows exactly which slots it
//!   rewrote).
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

use crate::postprocess::common_labels;
use crate::rows::{HistRow, HistRows};
use crate::shard::ShardRepairState;
use crate::state::{histogram_of, LabelState};

/// The counters of one vertex's upper edges: `(hi, common)`, sorted by
/// `hi`. A numerator never exceeds `m² < 2³²` (`m` fits `u16`, see
/// [`HistRows`]), so it is stored as a `u32`.
type CounterRow = Vec<(VertexId, u32)>;

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

/// Upkeep half of the row kernel: push vertex `v`'s histogram diff
/// through every counter incident to it. `v`'s own row (at `slot_v`)
/// holds its upper edges; each `lower` neighbor with a slot holds `v` in
/// its row. `slot_of` maps a vertex to its histogram and counter slot;
/// rows past the end of `counters` are empty.
fn push_diff(
    hists: &HistRows,
    counters: &mut [CounterRow],
    (v, slot_v): (VertexId, u32),
    lower: impl Iterator<Item = VertexId>,
    slot_of: impl Fn(VertexId) -> Option<u32>,
    diff: &[(Label, i64)],
) {
    let moved = |c: &mut u32, slot_w: u32| {
        let fw = hists.row(slot_w);
        let delta: i64 = diff
            .iter()
            .map(|&(l, dl)| dl * i64::from(fw.count_of(l)))
            .sum();
        *c = u32::try_from(i64::from(*c) + delta)
            .expect("exact maintenance keeps counters within 0..=m²");
    };
    if let Some(row) = counters.get_mut(slot_v as usize) {
        for (w, c) in row.iter_mut() {
            moved(
                c,
                slot_of(*w).expect("a counter's endpoints have histograms"),
            );
        }
    }
    for w in lower {
        let Some(slot_w) = slot_of(w) else { continue };
        let Some(row) = counters.get_mut(slot_w as usize) else {
            continue;
        };
        if let Ok(i) = row.binary_search_by_key(&v, |e| e.0) {
            moved(&mut row[i].1, slot_w);
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

/// Drop the counter of edge `(lo, hi)` from `lo`'s row, if it has one.
fn retire(row: &mut CounterRow, hi: VertexId) {
    if let Ok(i) = row.binary_search_by_key(&hi, |e| e.0) {
        row.remove(i);
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

/// Bytes held by a store's counter rows, with room for `reserved` row
/// headers.
fn counter_bytes(rows: &[CounterRow], reserved: usize) -> MemFootprint {
    let entry = std::mem::size_of::<(VertexId, u32)>();
    MemFootprint {
        live_bytes: std::mem::size_of_val(rows) + rows.iter().map(Vec::len).sum::<usize>() * entry,
        capacity_bytes: reserved * std::mem::size_of::<CounterRow>()
            + rows.iter().map(Vec::capacity).sum::<usize>() * entry,
    }
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
    /// Packed sorted histogram rows, one slot per vertex (slots are
    /// allocated in vertex order and never released, so `slot == v`).
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

    /// Current histogram of `v`, materialized (diagnostics / shipping;
    /// hot paths read [`row`](Self::row) instead).
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
            debug_assert_eq!(slot, v, "dense store slots track vertex ids");
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
            retire(row, hi);
        }
    }

    /// Fold a repair's slot-delta stream into the counters: the stream is
    /// [compacted](rslpa_graph::compact_slot_deltas), grouped by vertex,
    /// and aggregated to one sparse histogram diff per vertex, so each
    /// dirty vertex costs **one** neighbor sweep no matter how many of
    /// its slots moved. Deltas for one `(v, slot)` must arrive in
    /// application order; anything else may interleave freely. `graph`
    /// must be the post-repair topology, with every deleted edge already
    /// retired through [`delete_edge`](Self::delete_edge). Returns the
    /// number of net slot changes folded in.
    pub fn apply_slot_deltas(&mut self, graph: &AdjacencyGraph, deltas: &[SlotDelta]) -> usize {
        let (count, diffs) = aggregate_vertex_diffs(deltas);
        if let Some(max) = diffs.iter().map(|&(v, _)| v).max() {
            self.ensure_vertices(max as usize + 1);
        }
        for (v, diff) in &diffs {
            if diff.is_empty() {
                continue;
            }
            // Dense store: a vertex's slot is its id.
            let lower = split_neighbors(graph, *v).0.iter().copied();
            push_diff(&self.hists, &mut self.counters, (*v, *v), lower, Some, diff);
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
        self.hists
            .mem_footprint()
            .plus(counter_bytes(&self.counters, self.counters.capacity()))
    }
}

/// The shard-owned slice of the streaming counter store: histograms of
/// the shard's own vertices plus the exact `common_uv` counter of every
/// **interior** edge (both endpoints owned by this shard), in one counter
/// row per histogram slot — the same rows and row kernel as
/// [`EdgeCounters`].
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
    hists: HistRows,
    /// Owned vertex id → histogram and counter slot.
    slots: FxHashMap<VertexId, u32>,
    /// `counters[slot]`: the counter row of the interior upper edges of
    /// the vertex at `slot`. Slots past the end have empty rows.
    counters: Vec<CounterRow>,
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

/// Slot of owned vertex `v`, creating the own-label histogram a fresh
/// untouched sequence has (`{v: m}`) on first sight.
fn slot_entry(hists: &mut HistRows, slots: &mut FxHashMap<VertexId, u32>, v: VertexId) -> u32 {
    *slots
        .entry(v)
        .or_insert_with(|| hists.alloc_default(v as Label))
}

impl CounterPartition {
    /// Carve this shard's slice out of a populated central store:
    /// histograms of owned vertices, counters of interior edges. Used at
    /// bootstrap so the genesis weight pass is never repeated.
    pub fn carve(central: &EdgeCounters, rows: &ShardRepairState) -> Self {
        let mut part = Self::new(central.m);
        for v in rows.owned_sorted() {
            if (v as usize) < central.hists.num_slots() {
                let slot = part.hists.alloc_from(&central.hists.row(v).to_vec());
                debug_assert_eq!(slot as usize, part.counters.len());
                part.slots.insert(v, slot);
                part.counters.push(
                    central.counters[v as usize]
                        .iter()
                        .copied()
                        .filter(|&(w, _)| rows.owns(w))
                        .collect(),
                );
            }
        }
        part
    }

    /// An empty partition; histograms and counters fill lazily.
    pub fn new(m: usize) -> Self {
        Self {
            m,
            hists: HistRows::new(m),
            slots: FxHashMap::default(),
            counters: Vec::new(),
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
        self.counters.iter().map(Vec::len).sum()
    }

    /// The counter row at `v`'s slot, if `v` has one.
    fn row_mut(&mut self, v: VertexId) -> Option<&mut CounterRow> {
        let slot = *self.slots.get(&v)?;
        self.counters.get_mut(slot as usize)
    }

    /// Drop the counter of an interior edge that was just deleted.
    /// **Must be called for every interior deletion** — a counter that
    /// survives a delete/re-insert cycle would miss the slot deltas
    /// applied while the edge was absent. (Boundary deletions have no
    /// counter; calling this for them is a no-op.)
    pub fn retire_edge(&mut self, u: VertexId, v: VertexId) {
        let (lo, hi) = canonical(u, v);
        if let Some(row) = self.row_mut(lo) {
            retire(row, hi);
        }
    }

    /// Install the histogram of a vertex migrating in, recomputed from
    /// its row's label sequence (exact — the histogram is a pure function
    /// of the sequence).
    pub fn adopt_hist(&mut self, v: VertexId, labels: &[Label]) {
        debug_assert_eq!(labels.len(), self.m, "sequence length mismatch");
        let hist = histogram_of(labels);
        match self.slots.get(&v) {
            Some(&slot) => self.hists.set_from(slot, &hist),
            None => {
                let slot = self.hists.alloc_from(&hist);
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
    /// `rows` must still hold the leaving vertices' adjacency.
    pub fn drop_vertices(&mut self, rows: &ShardRepairState, leaving: &[VertexId]) {
        for &v in leaving {
            // Counters of `v`'s lower edges sit in its neighbors' rows.
            for &w in rows.neighbors_of(v).iter().take_while(|&&w| w < v) {
                if let Some(row) = self.row_mut(w) {
                    retire(row, v);
                }
            }
            if let Some(slot) = self.slots.remove(&v) {
                if let Some(row) = self.counters.get_mut(slot as usize) {
                    *row = Vec::new();
                }
                self.hists.release(slot);
            }
            // Dirtiness travels with the row: the adopter marks the vertex
            // dirty unconditionally (`adopt_hist`), so dropping it here
            // loses nothing.
            self.dirty.remove(&v);
            self.shipped.remove(&v);
        }
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
        for (v, diff) in &diffs {
            let v = *v;
            debug_assert!(
                rows.owns(v),
                "slot delta for a vertex this shard does not own"
            );
            if diff.is_empty() {
                continue;
            }
            let slot_v = slot_entry(&mut self.hists, &mut self.slots, v);
            // Only owned neighbors have slots: boundary edges carry no
            // counter (merged at publish).
            let lower = rows.neighbors_of(v).iter().copied().take_while(|&w| w < v);
            let slots = &self.slots;
            let slot_of = |w: VertexId| slots.get(&w).copied();
            push_diff(
                &self.hists,
                &mut self.counters,
                (v, slot_v),
                lower,
                slot_of,
                diff,
            );
            self.hists.fold_diff(slot_v, diff);
            // Same stream feeds the ship bookkeeping: the histogram just
            // moved, so the coordinator's cached copy (if any) is stale.
            self.dirty.insert(v);
        }
        count
    }

    /// The publish-time contribution of this partition: one
    /// `(u, v, common)` triple per interior edge, sorted canonically. Each
    /// owned vertex's counter row is synced against its interior upper
    /// neighbors — the central refresh's sync — so a live counter is
    /// copied and only an interior edge with no counter yet (new since
    /// the last collect, or re-interiorized by migration) pays one local
    /// histogram merge.
    pub fn collect_interior(&mut self, rows: &ShardRepairState) -> Vec<(VertexId, VertexId, u64)> {
        let mut out: Vec<(VertexId, VertexId, u64)> = Vec::new();
        let mut upper: Vec<VertexId> = Vec::new();
        for v in rows.owned_sorted() {
            upper.clear();
            upper.extend(
                rows.neighbors_of(v)
                    .iter()
                    .copied()
                    .filter(|&w| w > v && rows.owns(w)),
            );
            if upper.is_empty() {
                continue;
            }
            // A vertex without a slot has no counters yet: its histogram,
            // like a fresh neighbor's, materializes here for the merges.
            let Self {
                hists,
                slots,
                counters,
                ..
            } = self;
            let slot_v = slot_entry(hists, slots, v);
            if counters.len() <= slot_v as usize {
                counters.resize_with(slot_v as usize + 1, Vec::new);
            }
            let row = &mut counters[slot_v as usize];
            sync_row(row, &upper, |w| {
                let slot_w = slot_entry(hists, slots, w);
                hists.common(slot_v, slot_w)
            });
            out.extend(row.iter().map(|&(w, c)| (v, w, u64::from(c))));
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
                let slot = slot_entry(&mut self.hists, &mut self.slots, v);
                out.push((v, self.hists.row(slot).to_vec()));
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
            let slot = slot_entry(&mut self.hists, &mut self.slots, v);
            out.push((v, self.hists.row(slot).to_vec()));
            report.shipped += 1;
        }
        report
    }
}

impl MemAccounted for CounterPartition {
    fn mem_footprint(&self) -> MemFootprint {
        self.hists
            .mem_footprint()
            .plus(counter_bytes(&self.counters, self.counters.capacity()))
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
    use crate::postprocess::{edge_weights, postprocess, result_from_weights, PostprocessResult};
    use crate::propagation::run_propagation;
    use rslpa_graph::rng::DetRng;
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
        let rewrite = SlotDelta {
            v: 0,
            slot: 2,
            old: 1,
            new: 0,
        };
        counters.apply_slot_deltas(&g, &[rewrite]);
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
            counters.apply_slot_deltas(
                &g,
                &[SlotDelta {
                    v,
                    slot: t,
                    old,
                    new,
                }],
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
        result_from_weights(g.num_vertices(), counters.refresh_weights(g, threads), None)
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
        let full = postprocess(&g, det.state(), None);
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
                    &postprocess(det.graph(), det.state(), None),
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
                &postprocess(det.graph(), det.state(), None),
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
            &postprocess(det.graph(), det.state(), None),
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
            let full = postprocess(det.graph(), det.state(), None);
            assert_results_equal(&publish(&mut serial, det.graph(), 1), &full);
            assert_results_equal(&publish(&mut threaded, det.graph(), 4), &full);
            let mut rng = DetRng::new(99);
            for _ in 0..3 {
                let batch = random_batch(det.graph(), &mut rng, 60);
                let (mut dirty, mut deltas) = (FxHashSet::default(), Vec::new());
                det.apply_batch_streaming(&batch, &mut dirty, &mut deltas)
                    .unwrap();
                for store in [&mut serial, &mut threaded] {
                    for &(u, v) in batch.deletions() {
                        store.delete_edge(u, v);
                    }
                    store.apply_slot_deltas(det.graph(), &deltas);
                }
                let full = postprocess(det.graph(), det.state(), None);
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
    fn grid_configuration_is_respected() {
        let g = clique_chain();
        let det = RslpaDetector::new(g.clone(), RslpaConfig::quick(30, 13));
        let mut counters = EdgeCounters::new(det.state());
        let weights = counters.refresh_weights(&g, 1);
        assert_results_equal(
            &result_from_weights(g.num_vertices(), weights, Some(0.001)),
            &postprocess(&g, det.state(), Some(0.001)),
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

    mod partition {
        use super::*;
        use crate::shard::ShardRepairState;
        use rslpa_graph::{
            BlockPartitioner, DynamicGraph, EditBatch, HashPartitioner, Partitioner,
        };
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
            // Carve two partitions, migrate vertices from contiguous
            // blocks to odd/even ownership, and verify the ownership rule:
            // dropped counters reappear via lazy merge, the adopted
            // histogram is exact. A leaving vertex keeps co-owned lower
            // neighbors, whose rows must lose its counter.
            for g in [ring_graph(6), clique_chain()] {
                let state = run_propagation(&g, 6, 9);
                let mut central = EdgeCounters::new(&state);
                central.refresh_weights(&g, 1);
                let p_old: Arc<dyn Partitioner> =
                    Arc::new(BlockPartitioner::new(g.num_vertices(), 2));
                let mut shards: Vec<ShardRepairState> = (0..2)
                    .map(|s| ShardRepairState::from_state(&state, &g, s, Arc::clone(&p_old)))
                    .collect();
                let mut partitions: Vec<CounterPartition> = shards
                    .iter()
                    .map(|rows| CounterPartition::carve(&central, rows))
                    .collect();
                let p_new: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(2));
                assert!(
                    (0..g.num_vertices() as VertexId).any(|v| p_old.assign(v) != p_new.assign(v))
                );
                let mut in_flight: Vec<Vec<(VertexId, crate::shard::VertexRowData)>> =
                    vec![Vec::new(); 2];
                for (shard, partition) in shards.iter_mut().zip(partitions.iter_mut()) {
                    let leaving: Vec<VertexId> = (0..g.num_vertices() as VertexId)
                        .filter(|&v| {
                            p_old.assign(v) == shard.shard() && p_new.assign(v) != shard.shard()
                        })
                        .collect();
                    partition.drop_vertices(shard, &leaving);
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
}
