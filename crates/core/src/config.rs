//! rSLPA configuration.

/// Degree-capped cascade damping: the flash-crowd containment rule.
///
/// A vertex whose degree exceeds `degree_cap` is *muted as a label
/// source*: its cascade re-sprays are suppressed (the changed slots are
/// parked in a per-vertex pending set), and a re-pick or fetch that
/// lands on one of its slots serves nothing — the listener keeps its
/// own previous value, and the slot is parked so the new record is
/// caught up later. Parked slots release at the start of later flushes
/// once the vertex's degree is back at or under the cap, at most
/// `flush_budget` receiver deliveries per hub per flush, in ascending
/// (vertex, slot) order. Both the muting rule and the release schedule
/// are pure functions of the batch sequence, so the damped fixed point
/// stays bit-identical across shard counts and exchange engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DampingConfig {
    /// Degrees strictly above this are muted as label sources.
    pub degree_cap: usize,
    /// Receiver deliveries released per unmuted hub per flush (at least
    /// one slot always releases, so pending work cannot starve).
    pub flush_budget: usize,
}

impl Default for DampingConfig {
    fn default() -> Self {
        Self {
            degree_cap: 64,
            flush_budget: 64,
        }
    }
}

/// Configuration shared by the centralized and BSP implementations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RslpaConfig {
    /// Label-propagation iterations `T`. The paper's convergence study
    /// (Fig. 7a) settles on 200 for rSLPA (vs 100 for SLPA). At most
    /// [`MAX_ITERATIONS`](crate::MAX_ITERATIONS) (65,535): a receiver
    /// record packs its slot and iteration into 16 bits each.
    pub iterations: usize,
    /// Run-level RNG seed; every random pick is a pure function of this.
    pub seed: u64,
    /// Degree-capped cascade damping. `None` (the default) keeps the
    /// paper's unbounded cascade; the serve path turns it on (see
    /// `ServeConfig` in `rslpa-serve`).
    pub damping: Option<DampingConfig>,
}

impl Default for RslpaConfig {
    fn default() -> Self {
        Self {
            iterations: 200,
            seed: 42,
            damping: None,
        }
    }
}

impl RslpaConfig {
    /// Paper defaults with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Shrunk iteration count for tests.
    pub fn quick(iterations: usize, seed: u64) -> Self {
        Self {
            iterations,
            seed,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RslpaConfig::default();
        assert_eq!(c.iterations, 200);
    }

    #[test]
    fn constructors() {
        assert_eq!(RslpaConfig::with_seed(7).seed, 7);
        let q = RslpaConfig::quick(10, 3);
        assert_eq!((q.iterations, q.seed), (10, 3));
        assert_eq!(q.damping, None, "damping is off everywhere by default");
    }

    #[test]
    fn damping_defaults() {
        let d = DampingConfig::default();
        assert_eq!((d.degree_cap, d.flush_budget), (64, 64));
    }
}
