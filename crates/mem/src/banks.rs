//! Bank-level state: configuration, address-to-bank mapping, busy tracking.

use core::fmt;

use serde::{Deserialize, Serialize};
use vcache_mersenne::numtheory::is_prime;

/// How word addresses are distributed over banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BankingScheme {
    /// Classic low-order-bit interleave: bank = `addr mod M`, `M = 2^m`.
    /// This is the only scheme the paper analyses for the MM-model.
    LowOrderInterleave,
    /// Prime number of banks (Budnik–Kuck / Burroughs BSP style):
    /// bank = `addr mod M` with `M` prime. Included as an ablation baseline
    /// for the memory side of the prime-modulus idea.
    PrimeBanked,
}

impl fmt::Display for BankingScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LowOrderInterleave => f.write_str("low-order interleave"),
            Self::PrimeBanked => f.write_str("prime-banked"),
        }
    }
}

/// Error constructing a [`MemoryConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryConfigError {
    /// Bank count incompatible with the chosen scheme.
    BadBankCount {
        /// Requested number of banks.
        banks: u64,
        /// The scheme the count was checked against.
        scheme: BankingScheme,
    },
    /// `t_m` must be at least one cycle.
    ZeroAccessTime,
}

impl fmt::Display for MemoryConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadBankCount { banks, scheme } => write!(
                f,
                "bank count {banks} is invalid for {scheme} (power of two required for \
                 low-order interleave, prime required for prime-banked)"
            ),
            Self::ZeroAccessTime => f.write_str("memory access time must be at least 1 cycle"),
        }
    }
}

impl std::error::Error for MemoryConfigError {}

/// Static description of an interleaved memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryConfig {
    banks: u64,
    access_time: u64,
    scheme: BankingScheme,
}

impl MemoryConfig {
    /// Creates a memory configuration with `banks` banks of `access_time`
    /// cycles each.
    ///
    /// # Errors
    ///
    /// * [`MemoryConfigError::BadBankCount`] if the bank count does not fit
    ///   the scheme (power of two for [`BankingScheme::LowOrderInterleave`],
    ///   prime for [`BankingScheme::PrimeBanked`]);
    /// * [`MemoryConfigError::ZeroAccessTime`] if `access_time == 0`.
    pub fn new(
        banks: u64,
        access_time: u64,
        scheme: BankingScheme,
    ) -> Result<Self, MemoryConfigError> {
        let ok = match scheme {
            BankingScheme::LowOrderInterleave => banks.is_power_of_two(),
            BankingScheme::PrimeBanked => is_prime(banks),
        };
        if !ok {
            return Err(MemoryConfigError::BadBankCount { banks, scheme });
        }
        if access_time == 0 {
            return Err(MemoryConfigError::ZeroAccessTime);
        }
        Ok(Self {
            banks,
            access_time,
            scheme,
        })
    }

    /// Number of banks `M`.
    #[must_use]
    pub fn banks(&self) -> u64 {
        self.banks
    }

    /// Bank access time `t_m` in processor cycles.
    #[must_use]
    #[inline]
    pub fn access_time(&self) -> u64 {
        self.access_time
    }

    /// The banking scheme.
    #[must_use]
    pub fn scheme(&self) -> BankingScheme {
        self.scheme
    }

    /// The bank holding word address `addr`.
    #[must_use]
    #[inline]
    pub fn bank_of(&self, addr: u64) -> u64 {
        addr % self.banks
    }
}

/// Counters accumulated by an [`InterleavedMemory`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Total accesses issued.
    pub accesses: u64,
    /// Total stall cycles waiting for busy banks.
    pub stall_cycles: u64,
    /// Accesses that found their bank busy (each contributes ≥ 1 stall).
    pub bank_conflicts: u64,
}

/// Result of issuing one access into the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the access actually entered its bank.
    pub issue_time: u64,
    /// Cycle at which the data is available (`issue_time + t_m`).
    pub complete_time: u64,
    /// Cycles spent waiting for the bank (`issue_time - requested_time`).
    pub stall_cycles: u64,
}

/// Dynamic state of an interleaved memory: one busy-until timestamp per
/// bank, plus counters.
///
/// The simulator is intentionally simple — exactly the machine the paper
/// analyses: a bank accepts one access at a time and is busy for `t_m`
/// cycles; requests to a busy bank wait. Bus pipelining is modelled by the
/// callers in [`simulate_single_stream`](crate::simulate_single_stream), which issue at most one element per bus
/// per cycle.
///
/// # Example
///
/// ```
/// use vcache_mem::{BankingScheme, InterleavedMemory, MemoryConfig};
///
/// let cfg = MemoryConfig::new(8, 4, BankingScheme::LowOrderInterleave)?;
/// let mut mem = InterleavedMemory::new(cfg);
/// let first = mem.access(0, 0);
/// assert_eq!(first.complete_time, 4);
/// // Same bank immediately afterwards: waits out the 4-cycle busy window.
/// let second = mem.access(8, 1);
/// assert_eq!(second.issue_time, 4);
/// assert_eq!(second.stall_cycles, 3);
/// # Ok::<(), vcache_mem::MemoryConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InterleavedMemory {
    config: MemoryConfig,
    busy_until: Vec<u64>,
    stats: MemStats,
}

impl InterleavedMemory {
    /// Creates an idle memory system.
    #[must_use]
    #[inline]
    pub fn new(config: MemoryConfig) -> Self {
        Self {
            config,
            busy_until: vec![0; config.banks() as usize],
            stats: MemStats::default(),
        }
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Issues an access to word `addr`, requested at cycle `requested_time`.
    ///
    /// If the bank is busy the access waits; the outcome records when it
    /// actually issued, when it completes, and how long it stalled.
    #[inline]
    pub fn access(&mut self, addr: u64, requested_time: u64) -> AccessOutcome {
        let bank = self.config.bank_of(addr) as usize;
        let issue_time = requested_time.max(self.busy_until[bank]);
        let stall_cycles = issue_time - requested_time;
        let complete_time = issue_time + self.config.access_time();
        self.busy_until[bank] = complete_time;
        self.stats.accesses += 1;
        self.stats.stall_cycles += stall_cycles;
        if stall_cycles > 0 {
            self.stats.bank_conflicts += 1;
        }
        AccessOutcome {
            issue_time,
            complete_time,
            stall_cycles,
        }
    }

    /// The cycle at which the bank of `addr` becomes free.
    #[must_use]
    #[inline]
    pub fn bank_free_at(&self, addr: u64) -> u64 {
        self.busy_until[self.config.bank_of(addr) as usize]
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Returns all banks to idle and clears counters.
    pub fn reset(&mut self) {
        self.busy_until.fill(0);
        self.stats = MemStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(banks: u64, tm: u64) -> MemoryConfig {
        MemoryConfig::new(banks, tm, BankingScheme::LowOrderInterleave).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(MemoryConfig::new(32, 4, BankingScheme::LowOrderInterleave).is_ok());
        assert_eq!(
            MemoryConfig::new(12, 4, BankingScheme::LowOrderInterleave).unwrap_err(),
            MemoryConfigError::BadBankCount {
                banks: 12,
                scheme: BankingScheme::LowOrderInterleave
            }
        );
        assert!(MemoryConfig::new(31, 4, BankingScheme::PrimeBanked).is_ok());
        assert!(MemoryConfig::new(32, 4, BankingScheme::PrimeBanked).is_err());
        assert_eq!(
            MemoryConfig::new(32, 0, BankingScheme::LowOrderInterleave).unwrap_err(),
            MemoryConfigError::ZeroAccessTime
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = MemoryConfig::new(12, 4, BankingScheme::LowOrderInterleave).unwrap_err();
        assert!(e.to_string().contains("12"));
        assert!(MemoryConfigError::ZeroAccessTime
            .to_string()
            .contains("1 cycle"));
    }

    #[test]
    fn bank_mapping_low_order() {
        let c = cfg(8, 4);
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(7), 7);
        assert_eq!(c.bank_of(8), 0);
        assert_eq!(c.bank_of(13), 5);
    }

    #[test]
    fn idle_bank_issues_immediately() {
        let mut mem = InterleavedMemory::new(cfg(8, 4));
        let out = mem.access(3, 10);
        assert_eq!(out.issue_time, 10);
        assert_eq!(out.complete_time, 14);
        assert_eq!(out.stall_cycles, 0);
    }

    #[test]
    fn busy_bank_stalls_subsequent_access() {
        let mut mem = InterleavedMemory::new(cfg(8, 4));
        mem.access(3, 0); // bank 3 busy until 4
        let out = mem.access(11, 1); // same bank, requested at 1
        assert_eq!(out.issue_time, 4);
        assert_eq!(out.stall_cycles, 3);
        assert_eq!(out.complete_time, 8);
        let s = mem.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.stall_cycles, 3);
        assert_eq!(s.bank_conflicts, 1);
    }

    #[test]
    fn different_banks_overlap_fully() {
        let mut mem = InterleavedMemory::new(cfg(8, 4));
        for i in 0..8u64 {
            let out = mem.access(i, i);
            assert_eq!(out.stall_cycles, 0, "bank {i}");
        }
        assert_eq!(mem.stats().bank_conflicts, 0);
    }

    #[test]
    fn reset_restores_idle_state() {
        let mut mem = InterleavedMemory::new(cfg(8, 4));
        mem.access(0, 0);
        mem.reset();
        assert_eq!(mem.stats(), MemStats::default());
        let out = mem.access(0, 0);
        assert_eq!(out.stall_cycles, 0);
    }

    #[test]
    fn prime_banked_stride_equal_bank_count_still_spreads() {
        // With 31 prime banks, stride 32 walks all banks (32 ≡ 1 mod 31).
        let c = MemoryConfig::new(31, 4, BankingScheme::PrimeBanked).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..31u64 {
            seen.insert(c.bank_of(i * 32));
        }
        assert_eq!(seen.len(), 31);
    }

    #[test]
    fn bank_free_at_tracks_busy_window() {
        let mut mem = InterleavedMemory::new(cfg(8, 4));
        assert_eq!(mem.bank_free_at(5), 0);
        mem.access(5, 2);
        assert_eq!(mem.bank_free_at(5), 6);
        assert_eq!(mem.bank_free_at(4), 0);
    }
}
