//! Three-level cache hierarchy: per-core private L1/L2 and a shared LLC.
//!
//! The hierarchy is modelled at cache-line granularity over **host-physical**
//! addresses, which is where page-table nodes and application data ultimately
//! live. The model is mostly-inclusive (fills install the line at every
//! level), write-allocate, with true-LRU replacement per set — adequate for
//! reproducing hit/miss behaviour of PTE lines, which is the quantity the
//! paper's phenomenon depends on.

use serde::{Deserialize, Serialize};
use vmsim_types::HostPhysAddr;

use crate::config::HierarchyConfig;
use crate::counters::{AccessKind, MemCounters};
use crate::set_assoc::SetAssoc;

/// The level of the hierarchy that served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HitLevel {
    /// Served by the private L1.
    L1,
    /// Served by the private L2.
    L2,
    /// Served by the shared last-level cache.
    Llc,
    /// Served by main memory (DRAM).
    Memory,
}

/// Outcome of a single access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Where the line was found.
    pub served_by: HitLevel,
    /// Cycles charged for the access.
    pub cycles: u64,
}

/// One core's private cache levels.
#[derive(Clone, Debug)]
struct CoreCaches {
    l1: SetAssoc<()>,
    l2: SetAssoc<()>,
}

/// The simulated cache hierarchy.
///
/// Lines are identified by their host-physical cache-line index. The unit
/// value stored per line keeps the model a pure presence/recency tracker.
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    cores: Vec<CoreCaches>,
    llc: SetAssoc<()>,
    config: HierarchyConfig,
    /// Per-core counters: apps are pinned to cores, so this gives
    /// per-application attribution of the paper's metrics.
    counters: Vec<MemCounters>,
}

impl CacheHierarchy {
    /// Builds the hierarchy described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` has no cores, or a level's geometry is not
    /// [`CacheConfig::is_valid`](crate::CacheConfig::is_valid).
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(config.cores > 0, "need at least one core");
        Self {
            cores: (0..config.cores)
                .map(|_| CoreCaches {
                    l1: SetAssoc::new(config.l1.sets, config.l1.ways),
                    l2: SetAssoc::new(config.l2.sets, config.l2.ways),
                })
                .collect(),
            llc: SetAssoc::new(config.llc.sets, config.llc.ways),
            counters: vec![MemCounters::default(); config.cores],
            config,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Performs one access from `core` to host-physical address `addr`,
    /// tagged `kind` for accounting. Missing levels are filled on the way
    /// back (write-allocate, mostly-inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, addr: HostPhysAddr, kind: AccessKind) -> AccessResult {
        let line = addr.cache_line();
        let lat = self.config.latency;
        let cc = &mut self.cores[core];

        // Each level's lookup-and-fill is fused into one set scan: a miss
        // at a level always ends with the line filled there, whichever
        // lower level serves it, so the fill can ride the lookup's scan.
        let (served_by, cycles) = if cc.l1.access_fill(line, ()) {
            (HitLevel::L1, lat.l1)
        } else if cc.l2.access_fill(line, ()) {
            (HitLevel::L2, lat.l2)
        } else if self.llc.access_fill(line, ()) {
            (HitLevel::Llc, lat.llc)
        } else {
            (HitLevel::Memory, lat.memory)
        };

        self.counters[core].record(kind, served_by, cycles);
        AccessResult { served_by, cycles }
    }

    /// Index of the L1 set that `addr`'s line maps to on `core`.
    #[inline]
    pub fn l1_set_index(&self, core: usize, addr: HostPhysAddr) -> u32 {
        self.cores[core].l1.set_index(addr.cache_line())
    }

    /// Mutation epoch of `core`'s L1 set `index` (see
    /// [`SetAssoc::set_epoch_at`]). Unchanged-since-fill proves that a line
    /// observed as the set's MRU is still resident and still MRU, so its hit
    /// can be replayed via [`CacheHierarchy::replay_l1_hit`].
    #[inline]
    pub fn l1_set_epoch_at(&self, core: usize, index: u32) -> u64 {
        self.cores[core].l1.set_epoch_at(index)
    }

    /// Records the counter effect of an L1 hit whose LRU promotion is a
    /// proven no-op (line is MRU, set epoch unchanged since the proof was
    /// captured). Observable counters move exactly as in
    /// [`CacheHierarchy::access`]; cache state is untouched by construction.
    /// Returns the cycles charged.
    #[inline]
    pub fn replay_l1_hit(&mut self, core: usize, kind: AccessKind) -> u64 {
        let cycles = self.config.latency.l1;
        self.counters[core].record(kind, HitLevel::L1, cycles);
        cycles
    }

    /// Checks residency of `addr` for `core` without modifying any state.
    pub fn probe(&self, core: usize, addr: HostPhysAddr) -> HitLevel {
        let line = addr.cache_line();
        let cc = &self.cores[core];
        if cc.l1.peek(line).is_some() {
            HitLevel::L1
        } else if cc.l2.peek(line).is_some() {
            HitLevel::L2
        } else if self.llc.peek(line).is_some() {
            HitLevel::Llc
        } else {
            HitLevel::Memory
        }
    }

    /// Access counters aggregated across all cores.
    pub fn counters(&self) -> MemCounters {
        let mut total = MemCounters::default();
        for c in &self.counters {
            total.merge(c);
        }
        total
    }

    /// Access counters of one core (one pinned application).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_counters(&self, core: usize) -> &MemCounters {
        &self.counters[core]
    }

    /// Resets the counters (cache contents are preserved). Used to exclude a
    /// warm-up or allocation phase from measurement, as the paper does when
    /// it stops the co-runner before measuring (§3.3).
    pub fn reset_counters(&mut self) {
        for c in &mut self.counters {
            *c = MemCounters::default();
        }
    }

    /// Number of simulated cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Drops all cached lines on all cores and the LLC.
    pub fn flush_all(&mut self) {
        for cc in &mut self.cores {
            cc.l1.flush();
            cc.l2.flush();
        }
        self.llc.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::tiny(2))
    }

    #[test]
    fn cold_access_goes_to_memory_then_hits_l1() {
        let mut h = hierarchy();
        let a = HostPhysAddr::new(0x1000);
        assert_eq!(h.access(0, a, AccessKind::Data).served_by, HitLevel::Memory);
        assert_eq!(h.access(0, a, AccessKind::Data).served_by, HitLevel::L1);
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut h = hierarchy();
        h.access(0, HostPhysAddr::new(0x1000), AccessKind::Data);
        // 0x1020 is in the same 64-byte line as 0x1000.
        assert_eq!(
            h.access(0, HostPhysAddr::new(0x1020), AccessKind::Data)
                .served_by,
            HitLevel::L1
        );
    }

    #[test]
    fn llc_is_shared_between_cores_but_l1_is_private() {
        let mut h = hierarchy();
        let a = HostPhysAddr::new(0x2000);
        h.access(0, a, AccessKind::Data);
        // Core 1 misses privately but hits the shared LLC.
        assert_eq!(h.access(1, a, AccessKind::Data).served_by, HitLevel::Llc);
        // And now core 1 has it in L1 too.
        assert_eq!(h.access(1, a, AccessKind::Data).served_by, HitLevel::L1);
    }

    #[test]
    fn latencies_are_ordered() {
        let mut h = hierarchy();
        let a = HostPhysAddr::new(0x3000);
        let mem = h.access(0, a, AccessKind::Data).cycles;
        let l1 = h.access(0, a, AccessKind::Data).cycles;
        assert!(mem > l1);
    }

    #[test]
    fn capacity_pressure_evicts() {
        let mut h = hierarchy();
        // Touch far more distinct lines than the tiny LLC holds.
        for i in 0..8192u64 {
            h.access(0, HostPhysAddr::new(i * 64), AccessKind::Data);
        }
        // The very first line is long gone.
        assert_eq!(
            h.access(0, HostPhysAddr::new(0), AccessKind::Data)
                .served_by,
            HitLevel::Memory
        );
    }

    #[test]
    fn counters_accumulate_by_kind() {
        let mut h = hierarchy();
        let a = HostPhysAddr::new(0x1000);
        h.access(0, a, AccessKind::host_pt(3));
        h.access(0, a, AccessKind::host_pt(3));
        let c = h.counters();
        assert_eq!(c.host_pt.accesses, 2);
        assert_eq!(c.host_pt.memory, 1);
        assert_eq!(c.host_pt.l1_hits, 1);
        assert_eq!(c.data.accesses, 0);
    }

    #[test]
    fn reset_counters_keeps_cache_contents() {
        let mut h = hierarchy();
        let a = HostPhysAddr::new(0x1000);
        h.access(0, a, AccessKind::Data);
        h.reset_counters();
        assert_eq!(h.counters().data.accesses, 0);
        // Contents survived: the next access is an L1 hit.
        assert_eq!(h.access(0, a, AccessKind::Data).served_by, HitLevel::L1);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut h = hierarchy();
        let a = HostPhysAddr::new(0x9000);
        assert_eq!(h.probe(0, a), HitLevel::Memory);
        assert_eq!(h.counters().data.accesses, 0);
        h.access(0, a, AccessKind::Data);
        assert_eq!(h.probe(0, a), HitLevel::L1);
        assert_eq!(h.probe(1, a), HitLevel::Llc);
    }

    #[test]
    fn flush_all_empties_hierarchy() {
        let mut h = hierarchy();
        let a = HostPhysAddr::new(0x1000);
        h.access(0, a, AccessKind::Data);
        h.flush_all();
        assert_eq!(h.probe(0, a), HitLevel::Memory);
    }
}
