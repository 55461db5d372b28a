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
//! `&[Record]` row surface, no per-vertex heap allocation.
//!
//! A [`Record`] is one 8-byte word, `receiver << 32 | slot << 16 | k`, so
//! `slot` and `k` (both at most `T`) must fit in 16 bits:
//! [`LabelState::new`] rejects `T` above [`MAX_ITERATIONS`] (65,535)
//! before it allocates. [`LabelState::remove_record`] finds a record by
//! whole-word equality over fixed-width chunks with no early exit inside a
//! chunk, so the compares run branch-free: SIMD lane compares where the
//! target has 64-bit lane equality (SSE4.1 on x86-64), an unrolled scalar
//! run on baseline x86-64. The scan is still O(row).
//! Record mutation mirrors `Vec` push/swap-remove exactly, so a row's
//! order is a pure function of its mutation sequence. That order decides
//! only the order of the cascade's deliveries and of the slot-delta
//! stream, never a pick: picks depend on the seed, the epochs and the
//! neighbor rows alone.

use std::fmt;

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

/// Largest iteration count `T` a [`LabelState`] holds: a [`Record`]
/// packs `slot` and `k` into 16 bits each.
pub const MAX_ITERATIONS: usize = u16::MAX as usize;

/// One receiver record: `receiver` picked this vertex's label at slot
/// `slot`, storing it at the receiver's iteration `k`. Packed into one
/// word, `receiver << 32 | slot << 16 | k`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Record(u64);

impl Record {
    /// The record of `receiver` picking slot `slot` at its iteration `k`;
    /// `slot` and `k` must be at most [`MAX_ITERATIONS`].
    #[inline]
    pub fn new(slot: u32, receiver: VertexId, k: u32) -> Self {
        debug_assert!(slot as usize <= MAX_ITERATIONS && k as usize <= MAX_ITERATIONS);
        Self(u64::from(receiver) << 32 | u64::from(slot) << 16 | u64::from(k))
    }

    /// Slot (iteration index into this vertex's label sequence) picked.
    #[inline]
    pub fn slot(self) -> u32 {
        u32::from((self.0 >> 16) as u16)
    }

    /// The picking vertex.
    #[inline]
    pub fn receiver(self) -> VertexId {
        (self.0 >> 32) as VertexId
    }

    /// The iteration at which the receiver stored the label (`k > slot`).
    #[inline]
    pub fn k(self) -> u32 {
        u32::from(self.0 as u16)
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Record")
            .field("slot", &self.slot())
            .field("receiver", &self.receiver())
            .field("k", &self.k())
            .finish()
    }
}

/// Records compared per step of [`position_of`]'s scan.
const SCAN_CHUNK: usize = 32;

/// Position of `key` in `row`. Each full chunk is tested with no early
/// exit, so its compares run branch-free; only the chunk holding the
/// match is searched for its index.
fn position_of(row: &[Record], key: Record) -> Option<usize> {
    let mut chunks = row.chunks_exact(SCAN_CHUNK);
    for (c, chunk) in chunks.by_ref().enumerate() {
        if chunk.iter().fold(false, |hit, &x| hit | (x == key)) {
            return chunk
                .iter()
                .position(|&x| x == key)
                .map(|i| c * SCAN_CHUNK + i);
        }
    }
    let tail = chunks.remainder();
    let base = row.len() - tail.len();
    tail.iter().position(|&x| x == key).map(|i| base + i)
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
const RECORD_FILL: Record = Record(0);

impl LabelState {
    /// Fresh state before propagation: `l_v^0 = v`, all picks unset.
    /// Panics if `t_max` exceeds [`MAX_ITERATIONS`].
    pub fn new(n: usize, t_max: usize, seed: u64) -> Self {
        assert!(
            t_max <= MAX_ITERATIONS,
            "T = {t_max} exceeds the iteration bound {MAX_ITERATIONS}"
        );
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
            .push(owner as usize, Record::new(slot, receiver, k));
    }

    /// Remove the record `(owner, slot) -> (receiver, k)`; panics if absent
    /// (that would mean the reverse index is corrupt).
    pub fn remove_record(&mut self, owner: VertexId, slot: u32, receiver: VertexId, k: u32) {
        let key = Record::new(slot, receiver, k);
        let idx = position_of(self.records.row(owner as usize), key)
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
            .filter(move |r| r.slot() == slot)
            .map(|r| (r.receiver(), r.k()))
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
    use proptest::prelude::*;

    /// A record as its three fields.
    type Fields = (u32, VertexId, u32);

    fn fields(s: &LabelState, v: VertexId) -> Vec<Fields> {
        s.records(v)
            .iter()
            .map(|r| (r.slot(), r.receiver(), r.k()))
            .collect()
    }

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
    #[should_panic(expected = "iteration bound 65535")]
    fn iterations_above_the_bound_panic() {
        LabelState::new(1, 65_536, 1);
    }

    #[test]
    fn record_packs_every_field_in_one_word() {
        assert_eq!(std::mem::size_of::<Record>(), 8);
        let t = MAX_ITERATIONS as u32;
        for want in [
            (0, 0, 0),
            (t, u32::MAX - 1, 0),
            (0, u32::MAX, t),
            (t, 7, t),
            (0xAAAA, 0x5555_5555, 0x5555),
        ] {
            let r = Record::new(want.0, want.1, want.2);
            assert_eq!((r.slot(), r.receiver(), r.k()), want);
        }
        assert_eq!(
            format!("{:?}", Record::new(3, 9, 4)),
            "Record { slot: 3, receiver: 9, k: 4 }"
        );
    }

    #[test]
    fn records_differing_in_one_field_are_told_apart() {
        let t = MAX_ITERATIONS as u32;
        // Each pair shares two fields. The 16-bit values overlap in their
        // set bits, so a packing that let `slot` and `k` share bits would
        // give both records of a pair one word.
        let pairs: [(Fields, Fields); 3] = [
            ((1, 5, t), (2, 5, t)),                     // another slot
            ((1, 0, t), (1, u32::MAX - 1, t)),          // another receiver
            ((0x00FF, 5, 0x0100), (0x00FF, 5, 0x0200)), // another k
        ];
        for (a, b) in pairs {
            let mut s = LabelState::new(2, MAX_ITERATIONS, 1);
            s.add_record(1, a.0, a.1, a.2);
            s.add_record(1, b.0, b.1, b.2);
            for slot in [a.0, b.0] {
                let want: Vec<_> = [a, b]
                    .iter()
                    .filter(|e| e.0 == slot)
                    .map(|e| (e.1, e.2))
                    .collect();
                assert_eq!(s.receivers_of(1, slot).collect::<Vec<_>>(), want);
            }
            for (gone, kept) in [(a, b), (b, a)] {
                let mut left = s.clone();
                left.remove_record(1, gone.0, gone.1, gone.2);
                assert_eq!(fields(&left, 1), vec![kept], "removing {gone:?}");
            }
        }
    }

    #[test]
    fn remove_finds_a_record_in_every_chunk() {
        // Three full scan chunks and a partial one.
        let n = 3 * SCAN_CHUNK + 5;
        for idx in [
            0,
            SCAN_CHUNK - 1,
            SCAN_CHUNK,
            3 * SCAN_CHUNK - 1,
            3 * SCAN_CHUNK,
            n - 1,
        ] {
            let mut s = LabelState::new(1, 4, 1);
            let mut model: Vec<Fields> = (0..n as u32).map(|i| (i % 3, i, 4)).collect();
            for &(slot, r, k) in &model {
                s.add_record(0, slot, r, k);
            }
            let (slot, r, k) = model[idx];
            s.remove_record(0, slot, r, k);
            model.swap_remove(idx);
            assert_eq!(fields(&s, 0), model, "removing position {idx}");
        }
    }

    const ROWS: usize = 3;

    /// A record with `slot < k ≤ t`, biased towards the edges of every
    /// field: `slot` 0 and `t - 1`, `k` `slot + 1` and `t`, receivers 0,
    /// `u32::MAX - 1` and a small pool that repeats.
    fn draw_record(t: u32, x: u64, y: u32) -> Fields {
        let lo = x as u32;
        let slot = match lo % 4 {
            0 => 0,
            1 => t - 1,
            _ => (lo >> 2) % t,
        };
        let hi = (x >> 32) as u32;
        let k = match hi % 4 {
            0 => t,
            1 => slot + 1,
            _ => slot + 1 + (hi >> 2) % (t - slot),
        };
        let receiver = match y % 8 {
            0 => 0,
            1 => u32::MAX - 1,
            2..=4 => (y >> 3) % 5,
            _ => y.min(u32::MAX - 1),
        };
        (slot, receiver, k)
    }

    /// `e` with one field changed (which one picked by `x`), keeping
    /// `slot < k ≤ t`.
    fn near(e: Fields, t: u32, x: u64) -> Fields {
        let (slot, r, k) = e;
        match x % 3 {
            0 if slot > 0 => (slot - 1, r, k),
            0 if slot + 1 < k => (slot + 1, r, k),
            2 if k < t => (slot, r, k + 1),
            2 if k > slot + 1 => (slot, r, k - 1),
            _ if r == u32::MAX - 1 => (slot, r - 1, k),
            _ => (slot, r ^ 1, k),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random record mutations of every kind — add, add a record one
        /// field away from a live one, remove, query, set a row from
        /// another row's words, move a row, clear, truncate and grow —
        /// agree with a `Vec<Vec>` model that uses `Vec::swap_remove`,
        /// so row order must match exactly. Rows start with up to 160
        /// records each, past three scan chunks, and `T` reaches 65,535.
        #[test]
        fn records_match_a_vec_model(
            t_pick in 0usize..4,
            fill in 0usize..160,
            ops in proptest::collection::vec(
                (0u16..1000, 0usize..ROWS, 0u64..=u64::MAX, 0u32..=u32::MAX),
                1..500,
            ),
        ) {
            let t_max = [1, 50, MAX_ITERATIONS - 1, MAX_ITERATIONS][t_pick];
            let t = t_max as u32;
            let mut s = LabelState::new(ROWS, t_max, 1);
            let mut model: Vec<Vec<Fields>> = vec![Vec::new(); ROWS];
            for i in 0..fill * ROWS {
                let x = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let e = draw_record(t, x, (x >> 17) as u32);
                s.add_record((i % ROWS) as VertexId, e.0, e.1, e.2);
                model[i % ROWS].push(e);
            }
            for (op, row, x, y) in ops {
                let v = row as VertexId;
                let len = model[row].len();
                let live = (len > 0).then(|| model[row][y as usize % len]);
                match op {
                    0..=599 => {
                        let e = match live {
                            Some(e) if op >= 500 => near(e, t, x),
                            _ => draw_record(t, x, y),
                        };
                        s.add_record(v, e.0, e.1, e.2);
                        model[row].push(e);
                    }
                    600..=849 => {
                        if let Some(e) = live {
                            s.remove_record(v, e.0, e.1, e.2);
                            let first = model[row].iter().position(|&m| m == e).unwrap();
                            model[row].swap_remove(first);
                        }
                    }
                    850..=989 => {
                        let slot = live.map_or(draw_record(t, x, y).0, |e| e.0);
                        let want: Vec<_> = model[row]
                            .iter()
                            .filter(|e| e.0 == slot)
                            .map(|e| (e.1, e.2))
                            .collect();
                        prop_assert_eq!(s.receivers_of(v, slot).collect::<Vec<_>>(), want);
                    }
                    990..=993 => {
                        let other = y as usize % ROWS;
                        let words = s.records(other as VertexId).to_vec();
                        let labels = s.label_sequence(v).to_vec();
                        let picks: Vec<_> = s.picks(v).collect();
                        let epochs = s.epochs(v).to_vec();
                        s.set_row(v, &labels, picks, &epochs, &words);
                        model[row] = model[other].clone();
                    }
                    994..=996 => {
                        let to = (row + 1) % ROWS;
                        s.clear_records(to as VertexId);
                        s.move_row(v, to as VertexId);
                        model[to] = std::mem::take(&mut model[row]);
                    }
                    _ => {
                        let last = ROWS - 1;
                        s.clear_records(last as VertexId);
                        s.truncate(last);
                        s.grow(ROWS);
                        model[last].clear();
                    }
                }
                prop_assert_eq!(s.total_records(), model.iter().map(Vec::len).sum::<usize>());
                for (r, want) in model.iter().enumerate() {
                    prop_assert_eq!(&fields(&s, r as VertexId), want);
                }
            }
        }
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
