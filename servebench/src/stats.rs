//! Order statistics over raw client-side samples, and the open-loop
//! visibility mapping.

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for an empty sample.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median by nearest rank (the lower middle for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 50.0)
}

/// For each flush `c` (0-based), the time the client first observed a
/// snapshot covering it, i.e. with `batches_applied >= c + 1`.
///
/// `events` are the reader's observations `(time, batches_applied)` in
/// observation order; `batches_applied` never decreases along them. A
/// flush no observation covers maps to `None`.
pub fn first_covering(events: &[(u64, usize)], flushes: usize) -> Vec<Option<u64>> {
    let mut out = Vec::with_capacity(flushes);
    let mut next = 0;
    for c in 0..flushes {
        while next < events.len() && events[next].1 < c + 1 {
            next += 1;
        }
        out.push(events.get(next).map(|&(t, _)| t));
    }
    out
}

/// Visibility latency of every edit of an open-loop stream cut into
/// flushes of `per_flush` edits: edit `i` is covered by flush
/// `i / per_flush`, and its latency runs from its scheduled send time
/// `due[i]` to the first observation of that flush. Edits never seen
/// covered are left out.
pub fn open_loop_visibility(due: &[u64], per_flush: usize, events: &[(u64, usize)]) -> Vec<u64> {
    let flushes = due.len().div_ceil(per_flush);
    let seen = first_covering(events, flushes);
    due.iter()
        .enumerate()
        .filter_map(|(i, &d)| seen[i / per_flush].map(|t| t.saturating_sub(d)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(nearest_rank(&rev, 90.0), Some(9.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn edits_map_to_the_first_snapshot_covering_their_flush() {
        // Observations: flush 1 seen at t=50, flushes 2 and 3 first seen
        // together at t=90 (the reader missed the epoch in between).
        let events = [(10, 0), (50, 1), (70, 1), (90, 3)];
        assert_eq!(
            first_covering(&events, 4),
            vec![Some(50), Some(90), Some(90), None]
        );
        // Two edits per flush, due every 5 ticks.
        let due = [0, 5, 10, 15, 20, 25, 30, 35];
        assert_eq!(
            open_loop_visibility(&due, 2, &events),
            vec![50, 45, 80, 75, 70, 65]
        );
    }

    #[test]
    fn edit_at_a_flush_boundary_belongs_to_the_later_flush() {
        // Edit 100 is the first of flush 1, so it needs batches_applied >= 2.
        let due: Vec<u64> = (0..101).collect();
        let events = [(200, 1), (300, 2)];
        let lat = open_loop_visibility(&due, 100, &events);
        assert_eq!(lat.len(), 101);
        assert_eq!(lat[99], 200 - 99);
        assert_eq!(lat[100], 300 - 100);
    }
}
