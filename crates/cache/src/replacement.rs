//! Replacement policies for set-associative organizations.
//!
//! The paper (§2.1) notes that serial vector access "dictates against LRU"
//! — with a vector longer than the set, LRU evicts exactly the line about
//! to be reused. Having multiple policies lets the ablation benchmarks
//! test that remark.

use serde::{Deserialize, Serialize};

/// Which line of a full set is evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used line.
    #[default]
    Lru,
    /// Evict the line resident longest, ignoring reuse.
    Fifo,
    /// Evict a uniformly random line (deterministic seeded RNG).
    Random,
}

impl core::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Lru => f.write_str("LRU"),
            Self::Fifo => f.write_str("FIFO"),
            Self::Random => f.write_str("random"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheSim, LineAddr, StreamId, WordAddr};

    /// Fills a 3-line fully-associative cache with lines 0, 1, 2, re-uses
    /// line 0, then misses on line 3; returns the line evicted.
    fn evict_after_reuse(policy: ReplacementPolicy) -> Option<LineAddr> {
        let mut c = CacheSim::fully_associative(3, 1, policy).unwrap();
        for w in [0, 1, 2, 0] {
            c.access(WordAddr::new(w), StreamId::new(0));
        }
        c.access(WordAddr::new(3), StreamId::new(0)).evicted
    }

    #[test]
    fn lru_picks_least_recently_used() {
        assert_eq!(
            evict_after_reuse(ReplacementPolicy::Lru),
            Some(LineAddr::new(1))
        );
    }

    #[test]
    fn fifo_picks_oldest_fill() {
        assert_eq!(
            evict_after_reuse(ReplacementPolicy::Fifo),
            Some(LineAddr::new(0))
        );
    }

    #[test]
    fn random_is_deterministic_under_seed() {
        let run = || {
            let mut c = CacheSim::fully_associative(4, 1, ReplacementPolicy::Random).unwrap();
            (0..64u64)
                .map(|i| {
                    c.access(WordAddr::new(i * 7 % 11), StreamId::new(0))
                        .evicted
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn display_names() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "LRU");
        assert_eq!(ReplacementPolicy::Fifo.to_string(), "FIFO");
        assert_eq!(ReplacementPolicy::Random.to_string(), "random");
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }
}
