//! Micro-batching policies: when does the maintenance loop stop
//! accumulating edits and flush an [`EditBatch`](rslpa_graph::EditBatch)?
//!
//! The trade-off is the classic one: larger batches amortize the repair
//! cascade (Correction Propagation touches a region once per batch, not
//! once per edit), smaller batches tighten the staleness window of the
//! published snapshots. Barriers always force a flush regardless of
//! policy, so explicit synchronization points stay exact.

use std::time::Duration;

/// A pluggable flush decision. Implementations are driven by the single
/// maintenance thread, so `&mut self` is fine and no interior mutability
/// is needed.
pub trait FlushPolicy: Send {
    /// Should the pending batch (`pending` edits, oldest waiting
    /// `oldest_age`) be flushed now?
    fn should_flush(&mut self, pending: usize, oldest_age: Duration) -> bool;

    /// How long the loop may block waiting for the next command while
    /// `pending` edits are buffered whose oldest has already waited
    /// `oldest_age`. `None` = wait indefinitely (only safe when
    /// `pending == 0` or the policy flushes purely by size/barrier).
    fn poll_timeout(&self, pending: usize, oldest_age: Duration) -> Option<Duration>;
}

/// Flush when the batch reaches `max_edits`, or when a partial batch has
/// lingered `max_linger` without reaching it (so a quiet stream still
/// converges). The default policy.
#[derive(Clone, Copy, Debug)]
pub struct BySize {
    /// Flush threshold in edit operations.
    pub max_edits: usize,
    /// Upper bound on how long a partial batch may wait.
    pub max_linger: Duration,
}

impl BySize {
    /// Size-triggered flushing with a 5 ms linger for partial batches.
    pub fn new(max_edits: usize) -> Self {
        Self {
            max_edits: max_edits.max(1),
            max_linger: Duration::from_millis(5),
        }
    }
}

impl Default for BySize {
    fn default() -> Self {
        Self::new(256)
    }
}

impl FlushPolicy for BySize {
    fn should_flush(&mut self, pending: usize, oldest_age: Duration) -> bool {
        pending >= self.max_edits || (pending > 0 && oldest_age >= self.max_linger)
    }

    fn poll_timeout(&self, pending: usize, oldest_age: Duration) -> Option<Duration> {
        // Sleep only for the *remaining* linger so the oldest buffered
        // edit is flushed on time, not one full window late.
        (pending > 0).then(|| self.max_linger.saturating_sub(oldest_age))
    }
}

/// Never flush on its own: batches are cut only by explicit barriers (and
/// shutdown). Useful for replay drivers that want exact batch boundaries.
#[derive(Clone, Copy, Debug, Default)]
pub struct BarrierOnly;

impl FlushPolicy for BarrierOnly {
    fn should_flush(&mut self, _pending: usize, _oldest_age: Duration) -> bool {
        false
    }

    fn poll_timeout(&self, _pending: usize, _oldest_age: Duration) -> Option<Duration> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_size_flushes_at_threshold() {
        let mut p = BySize::new(4);
        assert!(!p.should_flush(3, Duration::ZERO));
        assert!(p.should_flush(4, Duration::ZERO));
        assert!(p.should_flush(9, Duration::ZERO));
    }

    #[test]
    fn by_size_linger_flushes_partial_batches() {
        let mut p = BySize::new(1000);
        assert!(!p.should_flush(1, Duration::from_millis(1)));
        assert!(p.should_flush(1, Duration::from_millis(10)));
        assert!(!p.should_flush(0, Duration::from_secs(1)));
        assert_eq!(p.poll_timeout(0, Duration::ZERO), None);
        assert_eq!(p.poll_timeout(1, Duration::ZERO), Some(p.max_linger));
        // The wait shrinks as the oldest edit ages, so the linger bound
        // holds end to end rather than restarting at every wakeup.
        assert_eq!(
            p.poll_timeout(1, p.max_linger / 2),
            Some(p.max_linger - p.max_linger / 2)
        );
        assert_eq!(p.poll_timeout(1, p.max_linger * 3), Some(Duration::ZERO));
    }

    #[test]
    fn barrier_only_never_flushes() {
        let mut p = BarrierOnly;
        assert!(!p.should_flush(10_000, Duration::from_secs(60)));
    }

    #[test]
    fn zero_size_is_clamped() {
        let p = BySize::new(0);
        assert_eq!(p.max_edits, 1);
    }
}
