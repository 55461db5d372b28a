//! Ingestion queue: the MPSC channel between writers and the maintenance
//! loop.
//!
//! Writers enqueue individual [`EditOp`]s (plus control commands); the
//! single maintenance thread drains them and decides batch boundaries via
//! the [flush policy](crate::policy). A hand-rolled `Mutex<VecDeque>` +
//! `Condvar` is used instead of `std::sync::mpsc` because the loop needs
//! queue-depth visibility and timed waits keyed off the batching deadline.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rslpa_graph::VertexId;

/// One edge edit, as submitted by a client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Insert undirected edge `{u, v}`.
    Insert(VertexId, VertexId),
    /// Delete undirected edge `{u, v}`.
    Delete(VertexId, VertexId),
}

impl EditOp {
    /// The edge endpoints.
    pub fn endpoints(self) -> (VertexId, VertexId) {
        match self {
            EditOp::Insert(u, v) | EditOp::Delete(u, v) => (u, v),
        }
    }
}

/// Commands carried by the queue, in submission order.
#[derive(Clone, Debug)]
pub(crate) enum Command {
    Edit(EditOp),
    /// Flush everything enqueued before this point, publish a snapshot,
    /// then open the gate with the published epoch.
    Barrier(Arc<BarrierGate>),
    /// Final flush + publish, then exit the maintenance loop.
    Shutdown,
}

/// A one-shot gate a client blocks on until the maintenance loop has
/// processed its barrier.
#[derive(Debug, Default)]
pub(crate) struct BarrierGate {
    epoch: Mutex<Option<u64>>,
    opened: Condvar,
}

impl BarrierGate {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Open the gate, waking the waiting client (maintenance side).
    pub(crate) fn open(&self, epoch: u64) {
        *self.epoch.lock().unwrap() = Some(epoch);
        self.opened.notify_all();
    }

    /// Block until the gate opens; returns the snapshot epoch that covers
    /// every edit enqueued before the barrier (client side).
    pub(crate) fn wait(&self) -> u64 {
        let mut guard = self.epoch.lock().unwrap();
        loop {
            if let Some(e) = *guard {
                return e;
            }
            guard = self.opened.wait(guard).unwrap();
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    queue: VecDeque<Command>,
    closed: bool,
    /// Edits accepted so far, counted under the lock that accepts them.
    edits_accepted: u64,
}

/// The shared MPSC command queue.
#[derive(Debug, Default)]
pub(crate) struct EditQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
}

impl EditQueue {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Enqueue a command; returns `false` if the queue was closed by
    /// shutdown (the command is dropped).
    pub(crate) fn push(&self, cmd: Command) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return false;
        }
        match cmd {
            Command::Edit(_) => inner.edits_accepted += 1,
            Command::Shutdown => inner.closed = true,
            Command::Barrier(_) => {}
        }
        inner.queue.push_back(cmd);
        drop(inner);
        self.not_empty.notify_one();
        true
    }

    /// Dequeue the oldest command, blocking up to `timeout` (forever when
    /// `None`). Returns `None` on timeout or when the queue is closed and
    /// drained.
    pub(crate) fn pop_wait(&self, timeout: Option<Duration>) -> Option<Command> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(cmd) = inner.queue.pop_front() {
                return Some(cmd);
            }
            if inner.closed {
                return None;
            }
            match timeout {
                None => inner = self.not_empty.wait(inner).unwrap(),
                Some(d) => {
                    let (guard, res) = self.not_empty.wait_timeout(inner, d).unwrap();
                    inner = guard;
                    if res.timed_out() {
                        return inner.queue.pop_front();
                    }
                }
            }
        }
    }

    /// Dequeue *everything* currently waiting, blocking up to `timeout`
    /// (forever when `None`) for the first command. Returns an empty vec
    /// on timeout or when the queue is closed and drained. One lock
    /// acquisition per busy-loop iteration instead of one per op — the
    /// maintenance loop's answer to high-rate writers.
    pub(crate) fn pop_chunk(&self, timeout: Option<Duration>) -> Vec<Command> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if !inner.queue.is_empty() {
                return std::mem::take(&mut inner.queue).into();
            }
            if inner.closed {
                return Vec::new();
            }
            match timeout {
                None => inner = self.not_empty.wait(inner).unwrap(),
                Some(d) => {
                    let (guard, res) = self.not_empty.wait_timeout(inner, d).unwrap();
                    inner = guard;
                    if res.timed_out() {
                        return std::mem::take(&mut inner.queue).into();
                    }
                }
            }
        }
    }

    /// Close the queue without enqueueing anything: later pushes fail and
    /// blocked consumers wake. Used by the maintenance loop's disconnect
    /// guard so a dying worker can't leave producers submitting into void.
    pub(crate) fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
    }

    /// Commands currently waiting.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Edit commands accepted by [`push`](Self::push) so far.
    pub(crate) fn edits_accepted(&self) -> u64 {
        let inner = self
            .inner
            .lock()
            .expect("no queue operation panics holding the lock");
        inner.edits_accepted
    }

    /// True once a shutdown command has been enqueued.
    pub(crate) fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let q = EditQueue::new();
        assert!(q.push(Command::Edit(EditOp::Insert(0, 1))));
        assert!(q.push(Command::Edit(EditOp::Delete(2, 3))));
        assert_eq!(q.len(), 2);
        match q.pop_wait(None).unwrap() {
            Command::Edit(EditOp::Insert(0, 1)) => {}
            other => panic!("wrong head: {other:?}"),
        }
        match q.pop_wait(None).unwrap() {
            Command::Edit(EditOp::Delete(2, 3)) => {}
            other => panic!("wrong second: {other:?}"),
        }
    }

    #[test]
    fn push_after_shutdown_is_rejected() {
        let q = EditQueue::new();
        assert!(q.push(Command::Shutdown));
        assert!(!q.push(Command::Edit(EditOp::Insert(0, 1))));
        assert!(q.is_closed());
        // The shutdown command itself still drains.
        assert!(matches!(q.pop_wait(None), Some(Command::Shutdown)));
        assert!(q.pop_wait(Some(Duration::from_millis(1))).is_none());
    }

    #[test]
    fn timed_pop_returns_none_when_idle() {
        let q = EditQueue::new();
        let start = std::time::Instant::now();
        assert!(q.pop_wait(Some(Duration::from_millis(10))).is_none());
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = EditQueue::new();
        std::thread::scope(|s| {
            let q2 = Arc::clone(&q);
            let h = s.spawn(move || q2.pop_wait(None));
            std::thread::sleep(Duration::from_millis(5));
            q.push(Command::Edit(EditOp::Insert(7, 8)));
            let got = h.join().unwrap();
            assert!(matches!(got, Some(Command::Edit(EditOp::Insert(7, 8)))));
        });
    }

    #[test]
    fn barrier_gate_hands_over_epoch() {
        let gate = BarrierGate::new();
        std::thread::scope(|s| {
            let g = Arc::clone(&gate);
            let h = s.spawn(move || g.wait());
            std::thread::sleep(Duration::from_millis(2));
            gate.open(17);
            assert_eq!(h.join().unwrap(), 17);
        });
        // Re-waiting after open returns immediately.
        assert_eq!(gate.wait(), 17);
    }

    #[test]
    fn close_rejects_pushes_but_drains_backlog() {
        let q = EditQueue::new();
        assert!(q.push(Command::Edit(EditOp::Insert(0, 1))));
        q.close();
        assert!(!q.push(Command::Edit(EditOp::Insert(2, 3))));
        assert!(matches!(
            q.pop_wait(Some(Duration::ZERO)),
            Some(Command::Edit(EditOp::Insert(0, 1)))
        ));
        assert!(q.pop_wait(Some(Duration::ZERO)).is_none());
    }

    #[test]
    fn only_accepted_edits_are_counted() {
        let q = EditQueue::new();
        assert!(q.push(Command::Edit(EditOp::Insert(0, 1))));
        assert!(q.push(Command::Barrier(BarrierGate::new())));
        assert!(q.push(Command::Edit(EditOp::Delete(0, 1))));
        q.pop_chunk(Some(Duration::ZERO));
        assert_eq!(q.edits_accepted(), 2, "draining keeps the count");
        assert!(q.push(Command::Shutdown));
        assert!(!q.push(Command::Edit(EditOp::Insert(2, 3))));
        assert_eq!(q.edits_accepted(), 2);
    }

    #[test]
    fn edit_op_endpoints() {
        assert_eq!(EditOp::Insert(3, 9).endpoints(), (3, 9));
        assert_eq!(EditOp::Delete(4, 1).endpoints(), (4, 1));
    }
}
