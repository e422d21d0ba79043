//! Configuration of caches, TLBs, page-walk caches, and the latency model.
//!
//! Defaults follow the paper's evaluation platform (Table 2): dual Intel Xeon
//! E5-2630v4 (Broadwell). Per-core L1D 32 KB/8-way and L2 256 KB/8-way,
//! shared LLC 25 MB/20-way, L1 DTLB 64-entry/4-way, STLB 1536-entry/12-way.

use serde::{Deserialize, Serialize};
use vmsim_types::CACHE_LINE_SIZE;

use crate::set_assoc::valid_shape;

/// Geometry of one set-associative cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (64 across the workspace).
    pub line_size: u64,
}

impl CacheConfig {
    /// Builds a config from capacity in bytes and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the implied set count is zero or not a power of two.
    pub fn from_capacity(bytes: u64, ways: usize) -> Self {
        let config = Self::sized(bytes, ways);
        assert!(config.is_valid(), "bad cache geometry");
        config
    }

    /// The geometry of a `bytes`-byte, `ways`-way cache, built or not:
    /// [`CacheConfig::is_valid`] says whether a cache can have it.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn sized(bytes: u64, ways: usize) -> Self {
        Self {
            sets: (bytes / CACHE_LINE_SIZE / ways as u64) as usize,
            ways,
            line_size: CACHE_LINE_SIZE,
        }
    }

    /// Whether a [`SetAssoc`](crate::SetAssoc) array can have this
    /// geometry (see [`valid_shape`]).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        valid_shape(self.sets, self.ways)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_size
    }
}

/// Access latencies in CPU cycles for each level of the hierarchy.
///
/// Values are the load-to-use latencies commonly reported for Broadwell-class
/// parts; only the *relative* spread matters for reproducing the paper's
/// trends (a DRAM access is ~5× an LLC hit and ~50× an L1 hit).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// L1 hit latency.
    pub l1: u64,
    /// L2 hit latency.
    pub l2: u64,
    /// LLC hit latency.
    pub llc: u64,
    /// Main-memory access latency.
    pub memory: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            l1: 4,
            l2: 12,
            llc: 42,
            memory: 200,
        }
    }
}

/// TLB geometry (two levels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// L1 DTLB entries.
    pub l1_entries: usize,
    /// L1 DTLB associativity.
    pub l1_ways: usize,
    /// L2 STLB entries.
    pub l2_entries: usize,
    /// L2 STLB associativity.
    pub l2_ways: usize,
}

impl TlbConfig {
    /// Whether [`Tlb::new`](crate::Tlb::new) accepts this geometry: each
    /// level's set count (`entries / ways`) passes [`valid_shape`].
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let level = |entries: usize, ways: usize| ways > 0 && valid_shape(entries / ways, ways);
        level(self.l1_entries, self.l1_ways) && level(self.l2_entries, self.l2_ways)
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self {
            l1_entries: 64,
            l1_ways: 4,
            l2_entries: 1536,
            l2_ways: 12,
        }
    }
}

/// Page-walk-cache and nested-TLB geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PwcConfig {
    /// Entries per guest-PT intermediate level cache (levels 0..=2).
    pub guest_entries: usize,
    /// Entries in the nested TLB (guest-frame → host-frame translations).
    pub nested_tlb_entries: usize,
    /// Associativity of both structures.
    pub ways: usize,
}

impl PwcConfig {
    /// Whether [`PageWalkCaches::new`](crate::PageWalkCaches::new) accepts
    /// this geometry: each structure's set count (`entries / ways`, at
    /// least 1) passes [`valid_shape`].
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let sets = |entries: usize| (entries / self.ways).max(1);
        self.ways > 0
            && valid_shape(sets(self.guest_entries), self.ways)
            && valid_shape(sets(self.nested_tlb_entries), self.ways)
    }
}

impl Default for PwcConfig {
    fn default() -> Self {
        Self {
            guest_entries: 32,
            nested_tlb_entries: 64,
            ways: 4,
        }
    }
}

/// Full hierarchy configuration: per-core private levels plus shared LLC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Number of simulated cores (each gets a private L1 + L2).
    pub cores: usize,
    /// Private L1 data cache geometry.
    pub l1: CacheConfig,
    /// Private L2 geometry.
    pub l2: CacheConfig,
    /// Shared last-level cache geometry.
    pub llc: CacheConfig,
    /// Cycle costs.
    pub latency: LatencyModel,
}

impl HierarchyConfig {
    /// The paper's Broadwell Xeon E5-2630v4 configuration with `cores`
    /// simulated cores.
    pub fn broadwell(cores: usize) -> Self {
        Self {
            cores,
            l1: CacheConfig::from_capacity(32 * 1024, 8),
            l2: CacheConfig::from_capacity(256 * 1024, 8),
            // 25 MB isn't a power-of-two set count at 20 ways; use 16 ways /
            // 16 MB which keeps the set count a power of two while staying in
            // the same capacity class.
            llc: CacheConfig::from_capacity(16 * 1024 * 1024, 16),
            latency: LatencyModel::default(),
        }
    }

    /// A deliberately tiny hierarchy for fast unit tests.
    pub fn tiny(cores: usize) -> Self {
        Self {
            cores,
            l1: CacheConfig::from_capacity(4 * 1024, 2),
            l2: CacheConfig::from_capacity(16 * 1024, 4),
            llc: CacheConfig::from_capacity(64 * 1024, 4),
            latency: LatencyModel::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_round_trips() {
        let c = CacheConfig::from_capacity(32 * 1024, 8);
        assert_eq!(c.capacity(), 32 * 1024);
        assert_eq!(c.sets, 64);
    }

    #[test]
    #[should_panic(expected = "bad cache geometry")]
    fn rejects_non_power_of_two_sets() {
        CacheConfig::from_capacity(3 * 1024, 8);
    }

    #[test]
    fn broadwell_shape() {
        let h = HierarchyConfig::broadwell(4);
        assert_eq!(h.cores, 4);
        assert_eq!(h.l1.capacity(), 32 * 1024);
        assert_eq!(h.l2.capacity(), 256 * 1024);
        assert_eq!(h.llc.capacity(), 16 * 1024 * 1024);
        assert!(h.latency.memory > h.latency.llc);
        assert!(h.latency.llc > h.latency.l2);
        assert!(h.latency.l2 > h.latency.l1);
    }

    #[test]
    fn default_tlb_matches_broadwell() {
        let t = TlbConfig::default();
        assert_eq!(t.l1_entries, 64);
        assert_eq!(t.l2_entries, 1536);
    }
}
