//! Packed per-vertex histogram rows for the counter store.
//!
//! A label histogram is a short sorted run of `(label, count)` pairs with
//! `count ≤ m = T+1`. The legacy stores kept one `Vec<(Label, u32)>` per
//! vertex — 8 bytes per entry plus a 24-byte header plus allocator slack,
//! scattered across the heap. [`HistRows`] packs every row into **two
//! parallel arenas** (`labels: u32`, `counts: u16` — 6 bytes per entry,
//! counts provably fit `u16` because `m ≤ 65535` is asserted) managed
//! with the same size-class page / free-list rules as
//! [`rslpa_graph::slab`]. Counter upkeep — the per-flush neighbor sweep
//! of `EdgeCounters`' row kernel, which reads each neighbor's row once, in
//! ascending vertex order — then reads cache-contiguous rows instead of
//! chasing one pointer per vertex.
//!
//! Rows are addressed by a `u32` handle, allocated in order and never
//! released; the counter store allocates one per vertex in vertex order,
//! so a vertex's handle is its id. [`fold_diff`](HistRows::fold_diff)
//! reproduces the exact semantics of the legacy `Vec` helpers, so counter
//! maintenance stays bit-identical.

use rslpa_graph::slab::{class_cap, class_for};
use rslpa_graph::{Label, MemAccounted, MemFootprint};

/// One row's page over both arenas: `labels[head..head+len]` /
/// `counts[head..head+len]`, inside a page of `class_cap(class)` entries.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    head: u32,
    len: u16,
    class: u8,
}

/// A borrowed histogram row: sorted labels with parallel counts.
#[derive(Clone, Copy, Debug)]
pub struct HistRow<'a> {
    /// Sorted distinct labels.
    pub labels: &'a [Label],
    /// Count per label, parallel to `labels`.
    pub counts: &'a [u16],
}

impl HistRow<'_> {
    /// Number of distinct labels.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the row has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Materialize the legacy `(label, count)` representation
    /// (diagnostics).
    pub fn to_vec(&self) -> Vec<(Label, u32)> {
        self.labels
            .iter()
            .zip(self.counts)
            .map(|(&l, &c)| (l, u32::from(c)))
            .collect()
    }

    /// Exact common-label numerator `Σ_l f_a(l)·f_b(l)` of two rows —
    /// the same merge-scan as `postprocess::common_labels`, over packed
    /// rows.
    pub fn common(&self, other: &HistRow<'_>) -> u64 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0u64;
        while i < self.labels.len() && j < other.labels.len() {
            match self.labels[i].cmp(&other.labels[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += u64::from(self.counts[i]) * u64::from(other.counts[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }
}

/// Packed histogram rows (see module docs).
#[derive(Clone, Debug)]
pub struct HistRows {
    /// Draws per sequence (`T + 1`) — the default count of a fresh row.
    m: u32,
    labels: Vec<Label>,
    counts: Vec<u16>,
    spans: Vec<Span>,
    /// Recycled page heads per size class (shared by both arenas — they
    /// move in lockstep).
    free_pages: Vec<Vec<u32>>,
    /// Σ span.len over all rows.
    live: usize,
}

impl HistRows {
    /// An empty store for sequences of `m` draws.
    pub fn new(m: usize) -> Self {
        assert!(m <= u16::MAX as usize, "draw count must fit u16 counts");
        Self {
            m: m as u32,
            labels: Vec::new(),
            counts: Vec::new(),
            spans: Vec::new(),
            free_pages: Vec::new(),
            live: 0,
        }
    }

    /// Draws per sequence.
    #[inline]
    pub fn draws(&self) -> usize {
        self.m as usize
    }

    /// Number of rows allocated.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.spans.len()
    }

    /// Borrow row `slot`.
    #[inline]
    pub fn row(&self, slot: u32) -> HistRow<'_> {
        let s = self.spans[slot as usize];
        let (a, b) = (s.head as usize, (s.head + u32::from(s.len)) as usize);
        HistRow {
            labels: &self.labels[a..b],
            counts: &self.counts[a..b],
        }
    }

    /// Exact common-label numerator of two rows.
    #[inline]
    pub fn common(&self, a: u32, b: u32) -> u64 {
        self.row(a).common(&self.row(b))
    }

    fn alloc_page(&mut self, class: u8) -> u32 {
        debug_assert!(class > 0);
        if let Some(head) = self
            .free_pages
            .get_mut(class as usize)
            .and_then(|list| list.pop())
        {
            return head;
        }
        let head = self.labels.len() as u32;
        let cap = class_cap(class) as usize;
        self.labels.resize(self.labels.len() + cap, 0);
        self.counts.resize(self.counts.len() + cap, 0);
        head
    }

    fn recycle_page(&mut self, head: u32, class: u8) {
        debug_assert!(class > 0);
        if self.free_pages.len() <= class as usize {
            self.free_pages.resize(class as usize + 1, Vec::new());
        }
        self.free_pages[class as usize].push(head);
    }

    /// Allocate a row holding `hist` (sorted `(label, count)` run).
    pub fn alloc_from(&mut self, hist: &[(Label, u32)]) -> u32 {
        self.spans.push(Span::default());
        let slot = (self.spans.len() - 1) as u32;
        self.write_row(slot, hist);
        slot
    }

    /// Allocate a row with the own-label histogram a fresh untouched
    /// sequence has (`{v: m}`).
    pub fn alloc_default(&mut self, v: Label) -> u32 {
        let m = self.m;
        self.alloc_from(&[(v, m)])
    }

    /// Write `hist` into a fresh (empty-span) slot.
    fn write_row(&mut self, slot: u32, hist: &[(Label, u32)]) {
        debug_assert!(hist.windows(2).all(|w| w[0].0 < w[1].0), "sorted run");
        let len = hist.len() as u32;
        let class = class_for(len);
        let head = if class > 0 { self.alloc_page(class) } else { 0 };
        for (i, &(l, c)) in hist.iter().enumerate() {
            debug_assert!(c <= u32::from(u16::MAX));
            self.labels[head as usize + i] = l;
            self.counts[head as usize + i] = c as u16;
        }
        self.live += hist.len();
        self.spans[slot as usize] = Span {
            head,
            len: len as u16,
            class,
        };
    }

    /// Move row `slot` to a page with room for one more entry.
    fn grow_row(&mut self, slot: u32) {
        let s = self.spans[slot as usize];
        let new_class = class_for(u32::from(s.len) + 1).max(s.class + 1);
        let new_head = self.alloc_page(new_class);
        let (from, to) = (s.head as usize, new_head as usize);
        let len = usize::from(s.len);
        self.labels.copy_within(from..from + len, to);
        self.counts.copy_within(from..from + len, to);
        if s.class > 0 {
            self.recycle_page(s.head, s.class);
        }
        self.spans[slot as usize] = Span {
            head: new_head,
            class: new_class,
            ..s
        };
    }

    /// Insert `(l, c)` at sorted position `idx` of row `slot`.
    fn insert_at(&mut self, slot: u32, idx: usize, l: Label, c: u16) {
        let s = self.spans[slot as usize];
        if u32::from(s.len) == class_cap(s.class) {
            self.grow_row(slot);
        }
        let s = self.spans[slot as usize];
        let (head, len) = (s.head as usize, usize::from(s.len));
        self.labels
            .copy_within(head + idx..head + len, head + idx + 1);
        self.counts
            .copy_within(head + idx..head + len, head + idx + 1);
        self.labels[head + idx] = l;
        self.counts[head + idx] = c;
        self.spans[slot as usize].len += 1;
        self.live += 1;
    }

    /// Remove the entry at `idx` of row `slot` (order-preserving).
    fn remove_at(&mut self, slot: u32, idx: usize) {
        let s = self.spans[slot as usize];
        let (head, len) = (s.head as usize, usize::from(s.len));
        self.labels
            .copy_within(head + idx + 1..head + len, head + idx);
        self.counts
            .copy_within(head + idx + 1..head + len, head + idx);
        self.spans[slot as usize].len -= 1;
        self.live -= 1;
    }

    /// Fold a sparse signed diff into row `slot` — the packed equivalent
    /// of the legacy `fold_diff_into_hist`.
    pub fn fold_diff(&mut self, slot: u32, diff: &[(Label, i64)]) {
        for &(l, dl) in diff {
            match self.row(slot).labels.binary_search(&l) {
                Ok(i) => {
                    let head = self.spans[slot as usize].head as usize;
                    let next = i64::from(self.counts[head + i]) + dl;
                    debug_assert!(next >= 0, "histogram count went negative");
                    if next == 0 {
                        self.remove_at(slot, i);
                    } else {
                        self.counts[head + i] = next as u16;
                    }
                }
                Err(i) => {
                    debug_assert!(dl > 0, "negative diff for absent label");
                    self.insert_at(slot, i, l, dl as u16);
                }
            }
        }
    }
}

impl MemAccounted for HistRows {
    fn mem_footprint(&self) -> MemFootprint {
        let entry = 4 + 2; // u32 label + u16 count
        let span = std::mem::size_of::<Span>();
        MemFootprint {
            live_bytes: self.live * entry + self.spans.len() * span,
            capacity_bytes: self.labels.capacity() * 4
                + self.counts.capacity() * 2
                + self.spans.capacity() * span
                + self.free_pages.iter().map(Vec::capacity).sum::<usize>() * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The legacy Vec-based reference ops (verbatim semantics).
    fn model_shift(hist: &mut Vec<(Label, u32)>, old: Label, new: Label) {
        let i = hist.binary_search_by_key(&old, |e| e.0).unwrap();
        if hist[i].1 == 1 {
            hist.remove(i);
        } else {
            hist[i].1 -= 1;
        }
        match hist.binary_search_by_key(&new, |e| e.0) {
            Ok(j) => hist[j].1 += 1,
            Err(j) => hist.insert(j, (new, 1)),
        }
    }

    #[test]
    fn alloc_read_round_trip() {
        let mut rows = HistRows::new(10);
        let a = rows.alloc_from(&[(1, 4), (7, 6)]);
        let b = rows.alloc_default(3);
        assert_eq!(rows.row(a).to_vec(), vec![(1, 4), (7, 6)]);
        assert_eq!(rows.row(b).to_vec(), vec![(3, 10)]);
    }

    #[test]
    fn common_matches_manual_product() {
        let mut rows = HistRows::new(6);
        let a = rows.alloc_from(&[(0, 2), (1, 2), (5, 2)]);
        let b = rows.alloc_from(&[(1, 3), (5, 1), (9, 2)]);
        assert_eq!(rows.common(a, b), 8); // 2·3 + 2·1
    }

    #[test]
    fn shift_and_fold_mirror_legacy_helpers() {
        let mut rows = HistRows::new(8);
        let mut model = vec![(2u32, 3u32), (4, 4), (9, 1)];
        let s = rows.alloc_from(&model);
        model_shift(&mut model, 9, 4);
        rows.fold_diff(s, &[(9, -1), (4, 1)]);
        assert_eq!(rows.row(s).to_vec(), model);
        rows.fold_diff(s, &[(2, -3), (7, 2), (4, 1)]);
        assert_eq!(rows.row(s).to_vec(), vec![(4, 6), (7, 2)]);
    }

    #[test]
    #[should_panic(expected = "fit u16")]
    fn oversized_draw_count_rejected() {
        HistRows::new(70_000);
    }

    proptest! {
        /// Packed rows stay equal to the Vec model under random shift
        /// streams (exercises page growth and page recycling across rows).
        #[test]
        fn packed_rows_match_vec_model(ops in proptest::collection::vec(
            (0usize..6, 0u32..12, 0u32..12), 1..300))
        {
            let m = 40usize;
            let mut rows = HistRows::new(m);
            let mut model: Vec<(u32, Vec<(Label, u32)>)> = Vec::new();
            for i in 0..6u32 {
                let slot = rows.alloc_default(i);
                model.push((slot, vec![(i, m as u32)]));
            }
            for (who, a, b) in ops {
                // Shift mass from an existing label to label b.
                let (slot, hist) = &mut model[who];
                let old = hist[(a as usize) % hist.len()].0;
                if old == b { continue; }
                model_shift(hist, old, b);
                rows.fold_diff(*slot, &[(old, -1), (b, 1)]);
            }
            for (slot, hist) in &model {
                prop_assert_eq!(rows.row(*slot).to_vec(), hist.clone());
            }
        }
    }
}
