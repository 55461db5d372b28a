//! Size-class slab arena: many small growable rows in one allocation.
//!
//! The layout of the receiver records in `rslpa_core::state`, whose
//! size classes `rslpa_core::rows::HistRows` shares. A
//! [`SlabRows<T>`] keeps all rows' entries in **one** backing `Vec<T>`
//! (the arena). Each row owns a contiguous *page* — a block whose
//! capacity is a power-of-two size class — described by a span
//! `(head, len, class)`. Rows stay contiguous, so readers get plain
//! `&[T]` slices with no per-row heap allocation, no 24-byte `Vec`
//! header, and no allocator slack beyond the class rounding.
//!
//! * **Growth** moves a row to a page of the next class (copy `len`
//!   entries) and *recycles* the old page onto a per-class free list —
//!   later growths of other rows reuse it before the arena extends.
//! * **Shrinking** ([`SlabRows::swap_remove`]) happens in place: a row
//!   keeps its page, so the next push into it needs no allocation.
//!
//! Invariants (checked by [`SlabRows::check_invariants`]):
//! * `len ≤ class_cap(class)` for every span, and `class == 0` implies
//!   the row has no page (`len == 0`);
//! * live pages and free pages never overlap, and every page lies inside
//!   the arena;
//! * `live_entries` equals the sum of span lengths.

use crate::mem::{MemAccounted, MemFootprint};

/// Capacity of the smallest (class 1) page.
const BASE_CAP: u32 = 4;

/// Page capacity of a size class (class 0 = no page).
#[inline]
pub fn class_cap(class: u8) -> u32 {
    if class == 0 {
        0
    } else {
        BASE_CAP << (class - 1)
    }
}

/// Smallest class whose page fits `len` entries.
#[inline]
pub fn class_for(len: u32) -> u8 {
    if len == 0 {
        return 0;
    }
    let mut c = 1u8;
    while class_cap(c) < len {
        c += 1;
    }
    c
}

/// One row's page: `arena[head .. head + class_cap(class)]`, of which the
/// first `len` entries are live.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    head: u32,
    len: u32,
    class: u8,
}

/// A slab of growable rows sharing one arena (see module docs).
#[derive(Clone, Debug)]
pub struct SlabRows<T: Copy> {
    /// Value used to pad freshly reserved pages (never read while padding).
    fill: T,
    arena: Vec<T>,
    spans: Vec<Span>,
    /// Recycled page heads per size class.
    free: Vec<Vec<u32>>,
    /// Σ span.len — live entry count.
    live: usize,
}

impl<T: Copy> SlabRows<T> {
    /// A slab with `rows` empty rows; `fill` pads reserved-but-unwritten
    /// arena space.
    pub fn with_rows(rows: usize, fill: T) -> Self {
        Self {
            fill,
            arena: Vec::new(),
            spans: vec![Span::default(); rows],
            free: Vec::new(),
            live: 0,
        }
    }

    /// Total live entries across all rows.
    #[inline]
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Grow to at least `rows` rows (new rows empty).
    pub fn ensure_rows(&mut self, rows: usize) {
        if self.spans.len() < rows {
            self.spans.resize(rows, Span::default());
        }
    }

    /// Live entries of row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        let s = self.spans[i];
        &self.arena[s.head as usize..(s.head + s.len) as usize]
    }

    /// Take a page of `class` off the free list or reserve one at the
    /// arena tail.
    fn alloc_page(&mut self, class: u8) -> u32 {
        debug_assert!(class > 0);
        if let Some(head) = self
            .free
            .get_mut(class as usize)
            .and_then(|list| list.pop())
        {
            return head;
        }
        let head = self.arena.len() as u32;
        let cap = class_cap(class) as usize;
        // Grow in ~12.5% chunks instead of letting `Vec` double: the
        // arena is the dominant allocation of a large graph, and a 2×
        // growth step right after a tight bulk build would hold twice
        // the graph's footprint in dead capacity. A gentler factor costs
        // amortized O(1/f) extra copies per entry and keeps reserved
        // bytes within ~1/8 of the live arena.
        if self.arena.len() + cap > self.arena.capacity() {
            let slack = (self.arena.len() / 8).max(cap).max(1024);
            self.arena.reserve_exact(slack);
        }
        self.arena.resize(self.arena.len() + cap, self.fill);
        head
    }

    /// Recycle a page onto its class free list.
    fn recycle_page(&mut self, head: u32, class: u8) {
        debug_assert!(class > 0);
        if self.free.len() <= class as usize {
            self.free.resize(class as usize + 1, Vec::new());
        }
        self.free[class as usize].push(head);
    }

    /// Move row `i` to a page with room for at least one more entry.
    fn grow_row(&mut self, i: usize) {
        let s = self.spans[i];
        let new_class = class_for(s.len + 1).max(s.class + 1);
        let new_head = self.alloc_page(new_class);
        self.arena.copy_within(
            s.head as usize..(s.head + s.len) as usize,
            new_head as usize,
        );
        if s.class > 0 {
            self.recycle_page(s.head, s.class);
        }
        self.spans[i] = Span {
            head: new_head,
            len: s.len,
            class: new_class,
        };
    }

    /// Append `x` to row `i`.
    pub fn push(&mut self, i: usize, x: T) {
        if self.spans[i].len == class_cap(self.spans[i].class) {
            self.grow_row(i);
        }
        let s = &mut self.spans[i];
        self.arena[(s.head + s.len) as usize] = x;
        s.len += 1;
        self.live += 1;
    }

    /// Remove and return the entry at position `idx` of row `i` by moving
    /// the last entry into its place — exactly `Vec::swap_remove`, so
    /// consumers that relied on `Vec` ordering see the same order here.
    pub fn swap_remove(&mut self, i: usize, idx: usize) -> T {
        let s = self.spans[i];
        debug_assert!(idx < s.len as usize);
        let head = s.head as usize;
        let out = self.arena[head + idx];
        self.arena[head + idx] = self.arena[head + s.len as usize - 1];
        self.spans[i].len -= 1;
        self.live -= 1;
        out
    }

    /// Empty row `i` and recycle its page.
    pub fn clear(&mut self, i: usize) {
        let s = std::mem::take(&mut self.spans[i]);
        if s.class > 0 {
            self.recycle_page(s.head, s.class);
        }
        self.live -= s.len as usize;
    }

    /// Replace row `i` with `items`, on one page of the class they need.
    pub fn set_row(&mut self, i: usize, items: &[T]) {
        self.clear(i);
        let len = items.len() as u32;
        let class = class_for(len);
        if class > 0 {
            let head = self.alloc_page(class);
            self.arena[head as usize..(head + len) as usize].copy_from_slice(items);
            self.spans[i] = Span { head, len, class };
            self.live += len as usize;
        }
    }

    /// Move row `from`'s page to the empty row `to`, leaving `from` empty.
    pub fn move_row(&mut self, from: usize, to: usize) {
        debug_assert_eq!(self.spans[to].class, 0, "moving onto a live row");
        self.spans[to] = std::mem::take(&mut self.spans[from]);
    }

    /// Keep rows `..rows` (the rest must be empty), slide every live page
    /// down over the free ones, and hand the spare arena back to the
    /// allocator.
    pub fn compact(&mut self, rows: usize) {
        debug_assert!(self.spans[rows..].iter().all(|s| s.class == 0));
        self.spans.truncate(rows);
        self.spans.shrink_to_fit();
        let mut order: Vec<usize> = (0..rows).filter(|&i| self.spans[i].class > 0).collect();
        order.sort_unstable_by_key(|&i| self.spans[i].head);
        let mut next = 0u32;
        for i in order {
            let s = &mut self.spans[i];
            let live = s.head as usize..(s.head + s.len) as usize;
            self.arena.copy_within(live, next as usize);
            s.head = next;
            next += class_cap(s.class);
        }
        self.arena.truncate(next as usize);
        self.arena.shrink_to_fit();
        self.free.clear();
    }

    /// Verify every structural invariant (tests and debug assertions).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut live = 0usize;
        let mut pages: Vec<(u32, u32)> = Vec::new(); // (head, cap)
        for (i, s) in self.spans.iter().enumerate() {
            if s.class == 0 && s.len != 0 {
                return Err(format!("row {i}: class 0 with non-empty span"));
            }
            let cap = class_cap(s.class);
            if s.len > cap {
                return Err(format!("row {i}: len {} > cap {cap}", s.len));
            }
            if s.class > 0 {
                if (s.head + cap) as usize > self.arena.len() {
                    return Err(format!("row {i}: page out of arena"));
                }
                pages.push((s.head, cap));
            }
            live += s.len as usize;
        }
        for (class, list) in self.free.iter().enumerate() {
            for &head in list {
                let cap = class_cap(class as u8);
                if (head + cap) as usize > self.arena.len() {
                    return Err(format!("free page at {head} out of arena"));
                }
                pages.push((head, cap));
            }
        }
        pages.sort_unstable();
        for w in pages.windows(2) {
            if w[0].0 + w[0].1 > w[1].0 {
                return Err(format!("overlapping pages at {} and {}", w[0].0, w[1].0));
            }
        }
        if live != self.live {
            return Err(format!("live count {} != cached {}", live, self.live));
        }
        Ok(())
    }
}

impl<T: Copy> MemAccounted for SlabRows<T> {
    fn mem_footprint(&self) -> MemFootprint {
        let elem = std::mem::size_of::<T>();
        let span = std::mem::size_of::<Span>();
        MemFootprint {
            live_bytes: self.live * elem + self.spans.len() * span,
            capacity_bytes: self.arena.capacity() * elem
                + self.spans.capacity() * span
                + self
                    .free
                    .iter()
                    .map(|l| l.capacity() * std::mem::size_of::<u32>())
                    .sum::<usize>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn class_math() {
        assert_eq!(class_cap(0), 0);
        assert_eq!(class_cap(1), 4);
        assert_eq!(class_cap(2), 8);
        assert_eq!(class_for(0), 0);
        assert_eq!(class_for(1), 1);
        assert_eq!(class_for(4), 1);
        assert_eq!(class_for(5), 2);
        assert_eq!(class_for(9), 3);
    }

    #[test]
    fn push_and_grow_preserve_contents() {
        let mut s = SlabRows::with_rows(3, 0u32);
        for x in 0..20u32 {
            s.push(1, x);
        }
        assert_eq!(s.row(1), (0..20).collect::<Vec<_>>().as_slice());
        assert_eq!(s.row(0), &[] as &[u32]);
        assert_eq!(s.live_entries(), 20);
        s.check_invariants().unwrap();
    }

    #[test]
    fn swap_remove_mirrors_vec() {
        let mut s = SlabRows::with_rows(1, 0u32);
        let mut model = vec![10u32, 20, 30, 40];
        for &x in &model {
            s.push(0, x);
        }
        assert_eq!(s.swap_remove(0, 1), model.swap_remove(1));
        assert_eq!(s.row(0), model.as_slice());
    }

    #[test]
    fn growth_recycles_pages_for_reuse() {
        let mut s = SlabRows::with_rows(2, 0u32);
        for x in 0..5u32 {
            s.push(0, x); // the fifth push moves row 0 to a class-2 page
        }
        let before = s.arena.len();
        for x in 0..4u32 {
            s.push(1, x); // must reuse row 0's recycled class-1 page
        }
        assert_eq!(s.arena.len(), before, "arena must not grow");
        assert_eq!(s.row(0), &[0, 1, 2, 3, 4]);
        assert_eq!(s.row(1), &[0, 1, 2, 3]);
        s.check_invariants().unwrap();
    }

    proptest! {
        /// Random push / swap-remove / clear / set-row / move-row /
        /// compact streams — the mutations receiver records make, and a
        /// shard row's migration — agree with a `Vec<Vec>` model and keep
        /// every invariant after each op, while rows grow through several
        /// size classes and recycle the pages they leave behind.
        #[test]
        fn random_ops_match_vec_model(ops in proptest::collection::vec(
            (0usize..8, 0u8..10, 0u32..1000), 1..400))
        {
            let mut s = SlabRows::with_rows(8, 0u32);
            let mut model: Vec<Vec<u32>> = vec![Vec::new(); 8];
            for (row, op, x) in ops {
                if op < 5 {
                    s.push(row, x);
                    model[row].push(x);
                } else if op == 8 {
                    s.clear(row);
                    model[row].clear();
                } else if op == 7 {
                    let items: Vec<u32> = (0..x % 40).collect();
                    s.set_row(row, &items);
                    model[row] = items;
                } else if op == 6 {
                    s.compact(8);
                } else if op == 9 {
                    // A row moves onto a cleared one, as a shard's rows do.
                    let to = x as usize % 8;
                    if to != row {
                        s.clear(to);
                        s.move_row(row, to);
                        model[to] = std::mem::take(&mut model[row]);
                        prop_assert_eq!(s.row(to), model[to].as_slice());
                    }
                } else if !model[row].is_empty() {
                    let idx = x as usize % model[row].len();
                    prop_assert_eq!(s.swap_remove(row, idx), model[row].swap_remove(idx));
                }
                prop_assert_eq!(s.row(row), model[row].as_slice());
                prop_assert!(s.check_invariants().is_ok());
            }
            for (i, r) in model.iter().enumerate() {
                prop_assert_eq!(s.row(i), r.as_slice());
            }
            prop_assert_eq!(s.live_entries(), model.iter().map(Vec::len).sum::<usize>());
        }
    }
}
