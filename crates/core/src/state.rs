//! The label-propagation state with full provenance.
//!
//! For every vertex `v` and iteration `t ∈ 1..=T` the state stores the
//! appended label `l_v^t`, its provenance `(src_v^t, pos_v^t)`, and a
//! repick epoch (how many times this slot has been re-drawn — the input to
//! the counter-based RNG). The reverse index `R_v^t` — *who picked my
//! label at slot `t`, and at which of their iterations* — is the paper's
//! receiver-record structure (§IV-B), stored as one flat list per vertex
//! (`≈ T` entries on average, one per outgoing pick).
//!
//! Layout is struct-of-arrays over a flattened `[n × (T+1)]` (labels) /
//! `[n × T]` (picks) index space: the propagation and cascade inner loops
//! touch one row at a time, and flat `Vec<u32>`s keep that row contiguous.
//! Receiver records live in one [`SlabRows`] arena with a per-vertex span
//! (see `rslpa_graph::slab`) instead of `n` separate `Vec`s — same
//! `&[Record]` row surface, no per-vertex heap allocation, and record
//! mutation mirrors `Vec` push/swap-remove exactly so cascade iteration
//! order (and with it every downstream pick) is unchanged.

use rslpa_graph::{Label, MemAccounted, MemFootprint, SlabRows, VertexId};

/// Sentinel `src` for slots picked while the vertex had no neighbors.
pub const NO_SOURCE: VertexId = VertexId::MAX;

/// Sorted `(label, count)` histogram of one label sequence — the single
/// definition every consumer (state queries, post-processing caches) must
/// share, or cached histograms drift from freshly-built ones.
pub fn histogram_of(labels: &[Label]) -> Vec<(Label, u32)> {
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    let mut out: Vec<(Label, u32)> = Vec::new();
    for l in sorted {
        match out.last_mut() {
            Some((prev, c)) if *prev == l => *c += 1,
            _ => out.push((l, 1)),
        }
    }
    out
}

/// One receiver record: `receiver` picked this vertex's label at slot
/// `slot`, storing it at the receiver's iteration `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// Slot (iteration index into this vertex's label sequence) picked.
    pub slot: u32,
    /// The picking vertex.
    pub receiver: VertexId,
    /// The iteration at which the receiver stored the label (`k > slot`).
    pub k: u32,
}

/// Full provenance state after `T` iterations (and any number of
/// incremental repairs).
#[derive(Clone, Debug)]
pub struct LabelState {
    n: usize,
    t_max: usize,
    seed: u64,
    /// `labels[v * (T+1) + t]`, `t ∈ 0..=T`.
    labels: Vec<Label>,
    /// `src[v * T + (t-1)]`, `t ∈ 1..=T`.
    src: Vec<VertexId>,
    /// `pos[v * T + (t-1)]`.
    pos: Vec<u32>,
    /// Repick epoch per pick slot, same indexing as `src`.
    epoch: Vec<u32>,
    /// Receiver records, one arena-backed span per vertex.
    records: SlabRows<Record>,
}

/// Fill value for reserved-but-unwritten record arena space (never read).
const RECORD_FILL: Record = Record {
    slot: 0,
    receiver: 0,
    k: 0,
};

impl LabelState {
    /// Fresh state before propagation: `l_v^0 = v`, all picks unset.
    pub fn new(n: usize, t_max: usize, seed: u64) -> Self {
        let mut labels = vec![0 as Label; n * (t_max + 1)];
        for v in 0..n {
            labels[v * (t_max + 1)] = v as Label;
        }
        Self {
            n,
            t_max,
            seed,
            labels,
            src: vec![NO_SOURCE; n * t_max],
            pos: vec![0; n * t_max],
            epoch: vec![0; n * t_max],
            records: SlabRows::with_rows(n, RECORD_FILL),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Iteration count `T`.
    #[inline]
    pub fn iterations(&self) -> usize {
        self.t_max
    }

    /// Run seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    #[inline]
    fn lidx(&self, v: VertexId, t: u32) -> usize {
        debug_assert!(t as usize <= self.t_max);
        v as usize * (self.t_max + 1) + t as usize
    }

    #[inline]
    fn pidx(&self, v: VertexId, t: u32) -> usize {
        debug_assert!((1..=self.t_max as u32).contains(&t));
        v as usize * self.t_max + (t as usize - 1)
    }

    /// Label of `v` at iteration `t` (`t = 0` is the initial label).
    #[inline]
    pub fn label(&self, v: VertexId, t: u32) -> Label {
        self.labels[self.lidx(v, t)]
    }

    /// Set label of `v` at iteration `t ≥ 1`.
    #[inline]
    pub fn set_label(&mut self, v: VertexId, t: u32, l: Label) {
        let i = self.lidx(v, t);
        self.labels[i] = l;
    }

    /// The full label sequence of `v` (`T + 1` entries).
    #[inline]
    pub fn label_sequence(&self, v: VertexId) -> &[Label] {
        let base = v as usize * (self.t_max + 1);
        &self.labels[base..base + self.t_max + 1]
    }

    /// Provenance of the pick at `(v, t)`: `(src, pos)`.
    #[inline]
    pub fn pick(&self, v: VertexId, t: u32) -> (VertexId, u32) {
        let i = self.pidx(v, t);
        (self.src[i], self.pos[i])
    }

    /// Record a pick (does not touch records — see [`Self::add_record`]).
    #[inline]
    pub fn set_pick(&mut self, v: VertexId, t: u32, src: VertexId, pos: u32) {
        let i = self.pidx(v, t);
        self.src[i] = src;
        self.pos[i] = pos;
    }

    /// Picks `(src, pos)` of `v` for `t ∈ 1..=T`.
    pub(crate) fn picks(&self, v: VertexId) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        let base = v as usize * self.t_max;
        let span = base..base + self.t_max;
        self.src[span.clone()]
            .iter()
            .copied()
            .zip(self.pos[span].iter().copied())
    }

    /// Repick epochs of `v` for `t ∈ 1..=T`.
    pub(crate) fn epochs(&self, v: VertexId) -> &[u32] {
        let base = v as usize * self.t_max;
        &self.epoch[base..base + self.t_max]
    }

    /// Overwrite every row of `v`: its `T + 1` labels (the initial one
    /// included), picks, epochs and receiver records. A shard copies
    /// vertices into and out of its dense rows with this.
    pub(crate) fn set_row(
        &mut self,
        v: VertexId,
        labels: &[Label],
        picks: impl IntoIterator<Item = (VertexId, u32)>,
        epochs: &[u32],
        records: &[Record],
    ) {
        let base = v as usize * self.t_max;
        let l = self.lidx(v, 0);
        self.labels[l..l + self.t_max + 1].copy_from_slice(labels);
        for (i, (src, pos)) in picks.into_iter().enumerate() {
            self.src[base + i] = src;
            self.pos[base + i] = pos;
        }
        self.epoch[base..base + self.t_max].copy_from_slice(epochs);
        self.records.set_row(v as usize, records);
    }

    /// Empty the receiver records of `v` (a shard vacating its row).
    pub(crate) fn clear_records(&mut self, v: VertexId) {
        self.records.clear(v as usize);
    }

    /// Move row `from` into row `to`, whose records must be empty;
    /// `from` is left without records.
    pub(crate) fn move_row(&mut self, from: VertexId, to: VertexId) {
        let (f, d, t1) = (from as usize, to as usize, self.t_max + 1);
        self.labels.copy_within(f * t1..(f + 1) * t1, d * t1);
        for flat in [&mut self.src, &mut self.pos, &mut self.epoch] {
            flat.copy_within(f * self.t_max..(f + 1) * self.t_max, d * self.t_max);
        }
        self.records.move_row(f, d);
    }

    /// Drop the rows from `n` on (their records must be empty) and hand
    /// every spare byte back to the allocator, receiver-record pages
    /// included (a shard that migrated rows away shrinks).
    pub(crate) fn truncate(&mut self, n: usize) {
        self.labels.truncate(n * (self.t_max + 1));
        self.labels.shrink_to_fit();
        for flat in [&mut self.src, &mut self.pos, &mut self.epoch] {
            flat.truncate(n * self.t_max);
            flat.shrink_to_fit();
        }
        self.records.compact(n);
        self.n = n;
    }

    /// Current repick epoch of `(v, t)`.
    #[inline]
    pub fn epoch(&self, v: VertexId, t: u32) -> u32 {
        self.epoch[self.pidx(v, t)]
    }

    /// Bump and return the new epoch of `(v, t)` (fresh randomness for a
    /// repick or a Category-3 coin).
    #[inline]
    pub fn bump_epoch(&mut self, v: VertexId, t: u32) -> u32 {
        let i = self.pidx(v, t);
        self.epoch[i] += 1;
        self.epoch[i]
    }

    /// Register that `receiver` picked `(owner, slot)` at iteration `k`.
    #[inline]
    pub fn add_record(&mut self, owner: VertexId, slot: u32, receiver: VertexId, k: u32) {
        debug_assert!(slot < k, "receivers pick strictly earlier slots");
        self.records
            .push(owner as usize, Record { slot, receiver, k });
    }

    /// Remove the record `(owner, slot) -> (receiver, k)`; panics if absent
    /// (that would mean the reverse index is corrupt).
    pub fn remove_record(&mut self, owner: VertexId, slot: u32, receiver: VertexId, k: u32) {
        let idx = self
            .records
            .row(owner as usize)
            .iter()
            .position(|r| r.slot == slot && r.receiver == receiver && r.k == k)
            .expect("record to remove must exist");
        self.records.swap_remove(owner as usize, idx);
    }

    /// All records of `owner` (unordered).
    #[inline]
    pub fn records(&self, owner: VertexId) -> &[Record] {
        self.records.row(owner as usize)
    }

    /// Receivers of `(owner, slot)`, i.e. `R_owner^slot`.
    pub fn receivers_of(
        &self,
        owner: VertexId,
        slot: u32,
    ) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        self.records
            .row(owner as usize)
            .iter()
            .filter(move |r| r.slot == slot)
            .map(|r| (r.receiver, r.k))
    }

    /// Total number of records (should equal the number of non-isolated
    /// picks, `≤ n·T`).
    pub fn total_records(&self) -> usize {
        self.records.live_entries()
    }

    /// Label frequency histogram of `v` as a sorted `(label, count)` list —
    /// the input to post-processing similarity.
    pub fn histogram(&self, v: VertexId) -> Vec<(Label, u32)> {
        histogram_of(self.label_sequence(v))
    }

    /// Replace a vertex's whole pick row with "isolated" state (used when a
    /// vertex loses all neighbors); caller is responsible for record
    /// cleanup and cascade scheduling.
    pub fn clear_picks(&mut self, v: VertexId) {
        for t in 1..=self.t_max as u32 {
            let i = self.pidx(v, t);
            self.src[i] = NO_SOURCE;
            self.pos[i] = 0;
        }
    }

    /// Approximate resident memory of the state in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.mem_footprint().capacity_bytes
    }

    /// Reserve room for `rows` more vertices, without the doubling slack a
    /// [`grow`](Self::grow) by a few rows would leave (a shard adds the
    /// rows one flush or one migration brings).
    pub(crate) fn reserve_rows(&mut self, rows: usize) {
        self.labels.reserve_exact(rows * (self.t_max + 1));
        for flat in [&mut self.src, &mut self.pos, &mut self.epoch] {
            flat.reserve_exact(rows * self.t_max);
        }
    }

    /// Grow the state to `n_new ≥ n` vertices (vertex insertion support);
    /// new vertices start isolated with `l^t = id` for all `t`.
    pub fn grow(&mut self, n_new: usize) {
        assert!(n_new >= self.n, "cannot shrink");
        let t1 = self.t_max + 1;
        let old_n = self.n;
        self.labels.resize(n_new * t1, 0);
        for v in old_n..n_new {
            for t in 0..t1 {
                self.labels[v * t1 + t] = v as Label;
            }
        }
        self.src.resize(n_new * self.t_max, NO_SOURCE);
        self.pos.resize(n_new * self.t_max, 0);
        self.epoch.resize(n_new * self.t_max, 0);
        self.records.ensure_rows(n_new);
        self.n = n_new;
    }
}

impl MemAccounted for LabelState {
    fn mem_footprint(&self) -> MemFootprint {
        let flat_live =
            (self.labels.len() + self.src.len() + self.pos.len() + self.epoch.len()) * 4;
        let flat_cap = (self.labels.capacity()
            + self.src.capacity()
            + self.pos.capacity()
            + self.epoch.capacity())
            * 4;
        MemFootprint {
            live_bytes: flat_live,
            capacity_bytes: flat_cap,
        }
        .plus(self.records.mem_footprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_labels_are_vertex_ids() {
        let s = LabelState::new(4, 3, 1);
        for v in 0..4u32 {
            assert_eq!(s.label(v, 0), v);
            assert_eq!(s.label_sequence(v).len(), 4);
        }
    }

    #[test]
    fn pick_round_trip() {
        let mut s = LabelState::new(3, 5, 1);
        s.set_pick(1, 3, 2, 1);
        assert_eq!(s.pick(1, 3), (2, 1));
        assert_eq!(s.pick(1, 1), (NO_SOURCE, 0));
    }

    #[test]
    fn epochs_bump() {
        let mut s = LabelState::new(2, 2, 1);
        assert_eq!(s.epoch(0, 1), 0);
        assert_eq!(s.bump_epoch(0, 1), 1);
        assert_eq!(s.bump_epoch(0, 1), 2);
        assert_eq!(s.epoch(1, 1), 0, "other slots unaffected");
    }

    #[test]
    fn records_add_remove_query() {
        let mut s = LabelState::new(4, 4, 1);
        s.add_record(2, 1, 3, 2);
        s.add_record(2, 1, 0, 4);
        s.add_record(2, 3, 3, 4);
        let r: Vec<_> = s.receivers_of(2, 1).collect();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&(3, 2)) && r.contains(&(0, 4)));
        assert_eq!(s.total_records(), 3);
        s.remove_record(2, 1, 3, 2);
        assert_eq!(s.receivers_of(2, 1).count(), 1);
        assert_eq!(s.total_records(), 2);
    }

    #[test]
    #[should_panic(expected = "must exist")]
    fn removing_missing_record_panics() {
        let mut s = LabelState::new(2, 2, 1);
        s.remove_record(0, 1, 1, 2);
    }

    #[test]
    fn histogram_counts() {
        let mut s = LabelState::new(1, 4, 1);
        // Sequence: [0, 7, 7, 0, 9]
        s.set_label(0, 1, 7);
        s.set_label(0, 2, 7);
        s.set_label(0, 3, 0);
        s.set_label(0, 4, 9);
        assert_eq!(s.histogram(0), vec![(0, 2), (7, 2), (9, 1)]);
    }

    #[test]
    fn grow_adds_isolated_vertices() {
        let mut s = LabelState::new(2, 3, 1);
        s.set_label(1, 2, 9);
        s.grow(4);
        assert_eq!(s.num_vertices(), 4);
        assert_eq!(s.label(1, 2), 9, "existing data preserved");
        for t in 0..=3 {
            assert_eq!(s.label(3, t), 3);
        }
        assert_eq!(s.pick(3, 1), (NO_SOURCE, 0));
    }

    #[test]
    fn memory_accounting_positive() {
        let s = LabelState::new(10, 5, 1);
        assert!(s.memory_bytes() > 10 * 6 * 4);
    }
}
