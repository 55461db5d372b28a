//! A sense-reversing barrier for the mailbox mesh.
//!
//! `std::sync::Barrier` costs one mutex/condvar handshake per wait, and the
//! mesh round protocol needed **two** waits per round (one to publish the
//! round's sent-counter snapshot, one to keep a fast thread from lapping the
//! snapshot). [`SenseBarrier`] replaces both: a single atomic arrival counter
//! plus a per-thread *sense* flag, with a leader-run closure
//! ([`SenseBarrier::wait_then`]) that executes between "everyone has arrived"
//! and "anyone may leave" — exactly the slot the second barrier used to
//! protect. Waiters spin briefly and then park, so the barrier stays cheap
//! on a loaded 1-core host without burning cycles.
//!
//! # Why sense reversal (the interleaving argument)
//!
//! A naive reusable barrier keeps one counter and has the leader *release
//! first, reset after*:
//!
//! ```text
//! (BROKEN)  leader:  observe arrived == parties
//!           leader:  flip release flag            // waiters may now leave
//!           waiter W: leaves, re-enters next round, arrived.fetch_add -> 1
//!           leader:  arrived.store(0)             // W's arrival CLOBBERED
//!           ... round r+1 waits for `parties` arrivals but only
//!               `parties - 1` will ever be counted: deadlock.
//! ```
//!
//! The race is leader-side reset vs. a fast waiter's next-round arrival.
//! Sense reversal closes it by making the *order* safe instead of trying to
//! make the reset atomic with the release:
//!
//! 1. Each thread carries a private `sense: bool`, flipped every round.
//!    Round r's release condition is "the shared sense equals my flipped
//!    sense", so round r+1's release condition is *different* from round
//!    r's — a stale observation of round r's flip can never release a
//!    round-r+1 waiter.
//! 2. The leader resets the counter **before** flipping the shared sense
//!    (both stores are sequenced in leader program order, and the flip is a
//!    `Release` store). A waiter only re-enters round r+1 after its
//!    `Acquire` load observes the flip, which happens-after the reset —
//!    so no round-r+1 `fetch_add` can be overwritten. The lost-arrival
//!    interleaving above is impossible by construction.
//! 3. The shared sense itself can be a single bool (not a round counter)
//!    because every party participates in every round: a thread still
//!    parked in round r prevents round r+1 from completing (it has not
//!    arrived), so the sense cannot flip twice while anyone still waits on
//!    the old value.
//!
//! The `Release` flip / `Acquire` observation pair also carries the data:
//! everything the leader wrote in `wait_then`'s closure (and everything any
//! thread wrote before arriving, via the `AcqRel` `fetch_add` chain)
//! happens-before every waiter's return. That is what lets the mesh publish
//! its sent-counter snapshot through a plain relaxed store inside the
//! closure.
//!
//! # Parking
//!
//! Waiters spin a bounded number of iterations and then park. The classic
//! lost-wakeup window (leader flips between the waiter's last check and its
//! `park()`) is closed with a registration mutex: a waiter re-checks the
//! sense *while holding the lock* before pushing itself onto the waiter
//! list, and the leader flips the sense *before* taking the lock to drain
//! the list. So either the waiter sees the flip and never parks, or its
//! registration is complete before the leader drains — in which case the
//! leader unparks it. Spurious wakeups and stale park tokens (a waiter
//! registered twice in one round gets two unparks) are absorbed by the
//! re-check loop around `park()`.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Spin iterations before a waiter gives up and parks. Small on purpose:
/// on an oversubscribed host (CI, the 1-core bench box) long spins steal
/// the timeslice the leader needs to finish the round.
const SPIN_LIMIT: u32 = 64;

/// What one [`SenseBarrier::wait`] observed, split into the two phases the
/// stats layer attributes separately.
#[derive(Clone, Copy, Debug, Default)]
pub struct WaitReport {
    /// Time from entering the wait until the leader released the round —
    /// waiting for stragglers, i.e. protocol/imbalance cost.
    pub arrive: Duration,
    /// Time from the leader's release until this thread actually resumed —
    /// wakeup/scheduling latency (the share a 1-core host serializes).
    pub depart: Duration,
    /// This thread was the last arriver and ran the release (and the
    /// `wait_then` closure, if any).
    pub is_leader: bool,
    /// The barrier was poisoned; the round did not complete and the caller
    /// must bail out of the exchange.
    pub poisoned: bool,
}

impl WaitReport {
    /// Total blocked time (arrive + depart), the pre-split `barrier_wait`.
    pub fn total(&self) -> Duration {
        self.arrive + self.depart
    }
}

/// A reusable sense-reversing barrier with a leader closure and poisoning.
///
/// Each participating thread owns a `bool` sense flag (start `false`, pass
/// `&mut` to every wait). All `parties` threads must call [`wait`] for any
/// to proceed; the barrier is immediately reusable with no reset.
///
/// [`wait`]: SenseBarrier::wait
pub struct SenseBarrier {
    parties: usize,
    /// Arrivals this round. Reset by the leader *before* the sense flip —
    /// see the module docs for why that order is load-bearing.
    arrived: AtomicUsize,
    /// The shared sense. Waiters of round r leave when this equals their
    /// flipped private sense.
    sense: AtomicBool,
    /// Parked waiters awaiting unpark. The mutex closes the check-then-park
    /// lost-wakeup window (see module docs).
    waiters: Mutex<Vec<Thread>>,
    /// Once set, every current and future wait returns `poisoned` without
    /// blocking. One-way.
    poisoned: AtomicBool,
    /// Leader-stamped release time (nanos since `base`), read by waiters to
    /// split arrive from depart. Stable for the whole round: a round-r
    /// waiter reads it before returning, and round r+1 cannot release
    /// (overwriting the stamp) until every round-r waiter has returned and
    /// re-arrived.
    release_stamp: AtomicU64,
    base: Instant,
}

impl SenseBarrier {
    /// A barrier for `parties` threads (must be at least 1).
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one party");
        SenseBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            waiters: Mutex::new(Vec::new()),
            poisoned: AtomicBool::new(false),
            release_stamp: AtomicU64::new(0),
            base: Instant::now(),
        }
    }

    /// Number of participating threads.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Block until all parties arrive. Equivalent to
    /// [`wait_then`](Self::wait_then) with a no-op closure.
    pub fn wait(&self, sense: &mut bool) -> WaitReport {
        self.wait_then(sense, || {})
    }

    /// Block until all parties arrive; the last arriver (the *leader*) runs
    /// `pre_release` after everyone has arrived but before anyone is
    /// released. Everything the closure writes is visible to every waiter
    /// on return (release/acquire via the sense flip).
    pub fn wait_then(&self, sense: &mut bool, pre_release: impl FnOnce()) -> WaitReport {
        let entered = Instant::now();
        let next = !*sense;
        if self.poisoned.load(Ordering::Acquire) {
            return WaitReport {
                poisoned: true,
                ..WaitReport::default()
            };
        }
        // AcqRel: the increment publishes this thread's pre-barrier writes
        // to the leader (which observes the final count) and, transitively,
        // to every other party after the release.
        let pos = self.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        debug_assert!(pos <= self.parties, "more waiters than parties");
        if pos == self.parties {
            // Leader. Everyone has arrived; nobody can leave until the
            // sense flips, so the closure runs in mutual exclusion over
            // the whole barrier population.
            pre_release();
            self.release_stamp
                .store(self.base.elapsed().as_nanos() as u64, Ordering::Relaxed);
            // Reset BEFORE the flip — the order the module docs argue for.
            self.arrived.store(0, Ordering::Release);
            self.sense.store(next, Ordering::Release);
            // Flip first, then drain: a waiter that checked the sense under
            // the lock before the flip is registered and gets unparked
            // here; one that checks after never parks.
            let mut parked = self.waiters.lock().unwrap_or_else(|e| e.into_inner());
            for t in parked.drain(..) {
                t.unpark();
            }
            drop(parked);
            *sense = next;
            return WaitReport {
                arrive: entered.elapsed(),
                depart: Duration::ZERO,
                is_leader: true,
                poisoned: false,
            };
        }
        // Waiter: spin briefly, then park until the sense flips.
        let mut spins = 0u32;
        loop {
            if self.sense.load(Ordering::Acquire) == next {
                break;
            }
            if self.poisoned.load(Ordering::Acquire) {
                return WaitReport {
                    poisoned: true,
                    ..WaitReport::default()
                };
            }
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            {
                let mut parked = self.waiters.lock().unwrap_or_else(|e| e.into_inner());
                // Re-check under the lock: the leader flips before it takes
                // this lock, so seeing the old sense here guarantees the
                // leader has not yet drained — our registration will be
                // seen.
                if self.sense.load(Ordering::Acquire) == next
                    || self.poisoned.load(Ordering::Acquire)
                {
                    continue;
                }
                parked.push(std::thread::current());
            }
            std::thread::park();
        }
        *sense = next;
        // Split: depart = now - leader's release stamp (clamped to total;
        // clock reads are monotone but the stamp and `entered` come from
        // different threads' clock reads). One read of `now` serves both
        // sides, so a preemption here cannot move time from arrive to
        // depart.
        let now = Instant::now();
        let total = now - entered;
        let now_ns = (now - self.base).as_nanos() as u64;
        let release_ns = self.release_stamp.load(Ordering::Relaxed);
        let depart = Duration::from_nanos(now_ns.saturating_sub(release_ns)).min(total);
        WaitReport {
            arrive: total - depart,
            depart,
            is_leader: false,
            poisoned: false,
        }
    }

    /// Poison the barrier: every thread currently parked or arriving later
    /// returns immediately with `poisoned = true`. Used by a panicking mesh
    /// worker so its peers bail out of the exchange instead of waiting
    /// forever for an arrival that will never come.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let mut parked = self.waiters.lock().unwrap_or_else(|e| e.into_inner());
        for t in parked.drain(..) {
            t.unpark();
        }
    }

    /// Whether [`poison`](Self::poison) has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;
    use std::sync::Arc;

    #[test]
    fn single_party_returns_immediately() {
        let b = SenseBarrier::new(1);
        let mut sense = false;
        for _ in 0..100 {
            let r = b.wait(&mut sense);
            assert!(r.is_leader);
            assert!(!r.poisoned);
        }
    }

    #[test]
    fn stress_eight_threads_ten_k_rounds_without_reset() {
        // The ISSUE's stress shape: 8 threads × 10_000 rounds over ONE
        // barrier, no reset between rounds. Each round every thread
        // increments a shared counter before the wait; after the wait the
        // counter must read exactly `round * threads` — a lost arrival
        // deadlocks, a leaked release shows a short count.
        const THREADS: usize = 8;
        const ROUNDS: u64 = 10_000;
        let barrier = Arc::new(SenseBarrier::new(THREADS));
        let hits = Arc::new(Counter::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let barrier = Arc::clone(&barrier);
                let hits = Arc::clone(&hits);
                s.spawn(move || {
                    let mut sense = false;
                    for round in 1..=ROUNDS {
                        hits.fetch_add(1, Ordering::Relaxed);
                        let mut seen = 0;
                        let r = barrier.wait_then(&mut sense, || {
                            // Leader closure runs with all parties arrived.
                            seen = hits.load(Ordering::Relaxed);
                        });
                        assert!(!r.poisoned);
                        if r.is_leader {
                            assert_eq!(seen, round * THREADS as u64);
                        }
                        // Every thread observes the full round's increments
                        // (release/acquire via the sense flip).
                        assert!(hits.load(Ordering::Relaxed) >= round * THREADS as u64);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), ROUNDS * THREADS as u64);
    }

    #[test]
    fn leader_closure_publishes_to_all_waiters() {
        const THREADS: usize = 4;
        let barrier = Arc::new(SenseBarrier::new(THREADS));
        let slot = Arc::new(Counter::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let barrier = Arc::clone(&barrier);
                let slot = Arc::clone(&slot);
                s.spawn(move || {
                    let mut sense = false;
                    for round in 1..=500u64 {
                        barrier.wait_then(&mut sense, || slot.store(round, Ordering::Relaxed));
                        // Relaxed read is enough: the closure's store
                        // happens-before the sense flip we acquired.
                        assert_eq!(slot.load(Ordering::Relaxed), round);
                        barrier.wait(&mut sense); // keep rounds in lock-step
                    }
                });
            }
        });
    }

    #[test]
    fn exactly_one_leader_per_round() {
        const THREADS: usize = 6;
        let barrier = Arc::new(SenseBarrier::new(THREADS));
        let leaders = Arc::new(Counter::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let barrier = Arc::clone(&barrier);
                let leaders = Arc::clone(&leaders);
                s.spawn(move || {
                    let mut sense = false;
                    for round in 1..=1_000u64 {
                        let r = barrier.wait(&mut sense);
                        if r.is_leader {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                        let r2 = barrier.wait(&mut sense); // round boundary
                        if r2.is_leader {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                        assert!(leaders.load(Ordering::Relaxed) <= 2 * round);
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 2 * 1_000);
    }

    #[test]
    fn shutdown_while_parked_unblocks_waiters() {
        // Two of three parties arrive and park; the third never arrives and
        // instead poisons the barrier. Both parked waiters must return with
        // `poisoned = true` (not hang), and later waits must refuse to block.
        let barrier = Arc::new(SenseBarrier::new(3));
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..2 {
                let barrier = Arc::clone(&barrier);
                handles.push(s.spawn(move || {
                    let mut sense = false;
                    barrier.wait(&mut sense)
                }));
            }
            // Give the waiters time to pass the spin phase and park.
            std::thread::sleep(Duration::from_millis(20));
            barrier.poison();
            for h in handles {
                let r = h.join().expect("waiter must not panic");
                assert!(r.poisoned, "parked waiter must observe the poison");
            }
        });
        let mut sense = false;
        assert!(barrier.wait(&mut sense).poisoned, "poison is permanent");
        assert!(barrier.is_poisoned());
    }

    #[test]
    fn report_phases_sum_to_total() {
        let barrier = Arc::new(SenseBarrier::new(2));
        std::thread::scope(|s| {
            let b = Arc::clone(&barrier);
            let h = s.spawn(move || {
                let mut sense = false;
                b.wait(&mut sense)
            });
            // Make the spawned thread the waiter whatever the schedule:
            // arrive only once it has, and late enough that it parks.
            while barrier.arrived.load(Ordering::Acquire) != 1 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(10));
            let mut sense = false;
            let lead = barrier.wait(&mut sense);
            assert!(lead.is_leader);
            assert_eq!(lead.depart, Duration::ZERO);
            let waited = h.join().unwrap();
            assert!(!waited.is_leader);
            assert_eq!(waited.total(), waited.arrive + waited.depart);
            // The waiter blocked at least as long as we slept (minus
            // scheduling slack); sanity-check the split is not nonsense.
            assert!(waited.arrive >= Duration::from_millis(5));
        });
    }
}
