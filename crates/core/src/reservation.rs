//! The PTEMagnet reservation allocator (paper §4.1–§4.2).
//!
//! Plugs into the guest OS through [`GuestFrameAllocator`]. On the first
//! fault to a group of 2^order pages it takes an aligned chunk of that
//! order from the buddy allocator, grants the faulting page, and parks the
//! rest in the process's [`PaRt`]. Later faults in the group are PaRT hits
//! — no buddy call at all, which is why allocation gets (slightly) *faster*
//! with PTEMagnet (§6.4) while guaranteeing guest-physical contiguity.
//!
//! PTEMagnet's order is 3 (eight pages, one cache line of PTEs, §4.1). The
//! granularity ablation builds the same allocator at orders 0 to 4
//! ([`ReservationAllocator::granular`]), so every hook — the §4.3 daemon,
//! the §4.4 swap target, fork inheritance, exit drain and metrics — is the
//! same at every group size.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmsim_os::{AllocCost, GuestBuddy, GuestFrameAllocator, Pid};
use vmsim_types::{GuestFrame, GuestVirtPage, Result, GROUP_SHIFT};

use crate::part::{PaRt, ReleaseOutcome, TakeOutcome, MAX_GROUP_ORDER};
use crate::policy::EnablePolicy;

/// Cumulative counters of the reservation allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReservationStats {
    /// Faults served from an existing reservation (fast path).
    pub reservation_hits: u64,
    /// New reservations installed (buddy allocations of the group order).
    pub reservations_created: u64,
    /// Faults that fell back to order-0 allocation (no aligned chunk
    /// available, or PTEMagnet disabled for the process by policy).
    pub fallbacks: u64,
    /// Frames returned to the buddy allocator by reclamation.
    pub reclaimed_frames: u64,
}

impl vmsim_obs::MetricSource for ReservationStats {
    fn source_name(&self) -> &'static str {
        "reservation"
    }

    fn emit(&self, out: &mut Vec<vmsim_obs::Metric>) {
        out.push(vmsim_obs::Metric::u64("hits", self.reservation_hits));
        out.push(vmsim_obs::Metric::u64("created", self.reservations_created));
        out.push(vmsim_obs::Metric::u64("fallbacks", self.fallbacks));
        out.push(vmsim_obs::Metric::u64(
            "reclaimed_frames",
            self.reclaimed_frames,
        ));
    }
}

/// The PTEMagnet guest frame allocator.
///
/// Each process owns a [`PaRt`] of the allocator's group order; forked
/// children additionally hold `Arc` references to their ancestors' tables so
/// a child fault can be served from a parent reservation, while children
/// never *create* reservations in the parent's table (§4.4).
///
/// # Examples
///
/// ```
/// use ptemagnet::ReservationAllocator;
/// use vmsim_os::{GuestBuddy, GuestFrameAllocator, Pid};
/// use vmsim_types::GuestVirtPage;
///
/// # fn main() -> Result<(), vmsim_types::MemError> {
/// let mut alloc = ReservationAllocator::new();
/// let mut buddy = GuestBuddy::new(256);
/// let (first, _) = alloc.allocate(Pid(1), GuestVirtPage::new(8), &mut buddy)?;
/// let (second, cost) = alloc.allocate(Pid(1), GuestVirtPage::new(9), &mut buddy)?;
/// // Adjacent virtual pages are guaranteed adjacent physical frames.
/// assert_eq!(second.raw(), first.raw() + 1);
/// assert!(cost.reservation_hit);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReservationAllocator {
    /// log2 of the pages per reservation group, shared by every table.
    order: u32,
    /// Report label (see [`GuestFrameAllocator::name`]).
    name: &'static str,
    /// Per-process reservation tables.
    parts: HashMap<Pid, Arc<PaRt>>,
    /// Ancestor tables visible to each process (fork inheritance chain).
    inherited: HashMap<Pid, Vec<Arc<PaRt>>>,
    policy: EnablePolicy,
    /// Declared memory limits for the policy check (cgroup model, §4.4).
    memory_limits: HashMap<Pid, u64>,
    /// Reverse index: chunk base frame -> (owner pid, group), for the swap
    /// hook (§4.4). Entries are validated lazily against the owning PaRT,
    /// so stale entries (retired/drained groups) are harmless.
    chunk_owner: HashMap<u64, (Pid, u64)>,
    stats: ReservationStats,
    /// Victim selection for reclamation ("randomly selected application",
    /// §4.3) — seeded for reproducibility.
    rng: StdRng,
}

impl Default for ReservationAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl ReservationAllocator {
    /// Creates an allocator with PTEMagnet enabled for every process.
    pub fn new() -> Self {
        Self::with_policy(EnablePolicy::Always)
    }

    /// Creates an allocator with a conditional enablement policy.
    pub fn with_policy(policy: EnablePolicy) -> Self {
        Self {
            order: GROUP_SHIFT,
            name: "ptemagnet",
            parts: HashMap::new(),
            inherited: HashMap::new(),
            policy,
            memory_limits: HashMap::new(),
            chunk_owner: HashMap::new(),
            stats: ReservationStats::default(),
            rng: StdRng::seed_from_u64(0x9e37_79b9),
        }
    }

    /// Creates the granularity ablation's allocator: PTEMagnet with
    /// 2^`order`-page groups, labelled `granular-reservation`. At order
    /// [`GROUP_SHIFT`] it is [`ReservationAllocator::new`] under that label.
    ///
    /// # Panics
    ///
    /// Panics if `order` exceeds [`MAX_GROUP_ORDER`].
    pub fn granular(order: u32) -> Self {
        assert!(
            order <= MAX_GROUP_ORDER,
            "group order {order} exceeds {MAX_GROUP_ORDER}"
        );
        Self {
            order,
            name: "granular-reservation",
            ..Self::new()
        }
    }

    /// Registers a process's declared memory limit (the cgroup
    /// `memory.limit_in_bytes` the policy inspects).
    pub fn set_memory_limit(&mut self, pid: Pid, bytes: u64) {
        self.memory_limits.insert(pid, bytes);
    }

    /// Allocator counters.
    pub fn stats(&self) -> ReservationStats {
        self.stats
    }

    /// The reservation table of `pid`, if it has one.
    pub fn part_of(&self, pid: Pid) -> Option<&Arc<PaRt>> {
        self.parts.get(&pid)
    }

    /// Reserved-but-unused frames across all processes (the §6.2 metric).
    pub fn total_unused_frames(&self) -> u64 {
        self.parts.values().map(|p| p.unused_frames()).sum()
    }

    fn part(&mut self, pid: Pid) -> Arc<PaRt> {
        let order = self.order;
        Arc::clone(
            self.parts
                .entry(pid)
                .or_insert_with(|| Arc::new(PaRt::with_order(order))),
        )
    }

    /// The group holding `vpn` and the page's offset in it.
    fn locate(&self, vpn: GuestVirtPage) -> (u64, u64) {
        (vpn.raw() >> self.order, vpn.raw() & ((1 << self.order) - 1))
    }

    /// The base of the aligned chunk holding `gfn`.
    fn chunk_of(&self, gfn: GuestFrame) -> u64 {
        gfn.raw() & !((1 << self.order) - 1)
    }

    fn fallback(&mut self, buddy: &mut GuestBuddy) -> Result<(GuestFrame, AllocCost)> {
        let gfn = buddy.alloc(0)?;
        self.stats.fallbacks += 1;
        Ok((
            gfn,
            AllocCost {
                buddy_calls: 1,
                fallback: true,
                ..AllocCost::default()
            },
        ))
    }
}

impl GuestFrameAllocator for ReservationAllocator {
    fn name(&self) -> &'static str {
        self.name
    }

    fn emit_metrics(&self, reg: &mut vmsim_obs::Registry) {
        reg.record(&self.stats);
        let mut parts = crate::part::PartStats::default();
        for part in self.parts.values() {
            parts.merge(&part.stats());
        }
        reg.record(&parts);
        reg.gauge_u64("part.tables", self.parts.len() as u64);
    }

    fn allocate(
        &mut self,
        pid: Pid,
        vpn: GuestVirtPage,
        buddy: &mut GuestBuddy,
    ) -> Result<(GuestFrame, AllocCost)> {
        if !self.policy.enabled(self.memory_limits.get(&pid).copied()) {
            return self.fallback(buddy);
        }
        let (group, offset) = self.locate(vpn);

        // A child first consults ancestor tables (§4.4): if the page is
        // covered by a live parental reservation and not itself mapped by
        // the ancestor (e.g. the child is COW-breaking a shared page), take
        // it from there.
        if let Some(chain) = self.inherited.get(&pid) {
            for ancestor in chain.clone() {
                if let Some(gfn) = ancestor.try_take(group, offset) {
                    self.stats.reservation_hits += 1;
                    return Ok((
                        gfn,
                        AllocCost {
                            part_lookups: 1,
                            reservation_hit: true,
                            ..AllocCost::default()
                        },
                    ));
                }
            }
        }

        let part = self.part(pid);
        // Fast path: the group already has a reservation with this page
        // available.
        if let Some(gfn) = part.try_take(group, offset) {
            self.stats.reservation_hits += 1;
            return Ok((
                gfn,
                AllocCost {
                    part_lookups: 1,
                    reservation_hit: true,
                    ..AllocCost::default()
                },
            ));
        }
        // An entry exists but this page is live in it: the process is
        // COW-breaking a page it still shares through that reservation, so
        // the copy needs a fresh frame from the default path.
        if part.peek(group).is_some() {
            let (gfn, mut cost) = self.fallback(buddy)?;
            cost.part_lookups = 1;
            return Ok((gfn, cost));
        }
        // No reservation: install one. The chunk factory runs under the
        // group's leaf lock, exactly like the kernel patch calls the buddy
        // allocator from the fault handler.
        let mut buddy_calls = 0u32;
        let order = self.order;
        let outcome = part.take_or_install(group, offset, || {
            buddy_calls += 1;
            match buddy.alloc(order) {
                Ok(base) => {
                    // Reservations are handed back frame-by-frame later, so
                    // convert the chunk's bookkeeping to order-0 pieces now.
                    buddy
                        .fragment_allocation(base, order)
                        .expect("freshly allocated chunk can be fragmented");
                    Some(base)
                }
                Err(_) => None,
            }
        });
        match outcome {
            TakeOutcome::FromReservation(gfn) => {
                self.stats.reservation_hits += 1;
                Ok((
                    gfn,
                    AllocCost {
                        part_lookups: 1,
                        reservation_hit: true,
                        ..AllocCost::default()
                    },
                ))
            }
            TakeOutcome::FromNewReservation(gfn) => {
                self.stats.reservations_created += 1;
                self.chunk_owner.insert(self.chunk_of(gfn), (pid, group));
                Ok((
                    gfn,
                    AllocCost {
                        buddy_calls,
                        part_lookups: 1,
                        reservation_new: true,
                        ..AllocCost::default()
                    },
                ))
            }
            TakeOutcome::Unavailable => {
                // No aligned chunk available: behave like the default kernel.
                self.fallback(buddy)
            }
        }
    }

    fn free(
        &mut self,
        pid: Pid,
        vpn: GuestVirtPage,
        gfn: GuestFrame,
        buddy: &mut GuestBuddy,
    ) -> Result<()> {
        let (group, offset) = self.locate(vpn);
        // The page may be tracked by the process's own table or an
        // ancestor's (if granted from an inherited reservation).
        let own = self.parts.get(&pid);
        let chain = self.inherited.get(&pid).map_or(&[][..], |c| c.as_slice());
        for table in own.into_iter().chain(chain) {
            // Only the table whose reservation covers this exact frame may
            // account the release.
            let covers = table
                .peek(group)
                .is_some_and(|r| r.base.raw() + offset == gfn.raw());
            if !covers {
                continue;
            }
            match table.release(group, offset) {
                ReleaseOutcome::Released {
                    unused_frames,
                    entry_deleted,
                } => {
                    // While the entry lives, the freed page stays parked in
                    // the reservation (re-grantable without a buddy call);
                    // only entry death returns frames — all of them — to
                    // the buddy allocator.
                    if entry_deleted {
                        for f in unused_frames {
                            buddy.free(f, 0)?;
                        }
                    }
                    return Ok(());
                }
                ReleaseOutcome::NotTracked => {}
            }
        }
        // Not covered by any reservation (entry retired, reclaimed, or
        // allocated via fallback): default kernel path.
        buddy.free(gfn, 0)
    }

    fn fork(&mut self, parent: Pid, child: Pid) {
        // The child sees the parent's table plus everything the parent
        // inherited, but creates new reservations only in its own table.
        let mut chain = Vec::new();
        if let Some(p) = self.parts.get(&parent) {
            chain.push(Arc::clone(p));
        }
        if let Some(pchain) = self.inherited.get(&parent) {
            chain.extend(pchain.iter().cloned());
        }
        if !chain.is_empty() {
            self.inherited.insert(child, chain);
        }
        if let Some(limit) = self.memory_limits.get(&parent).copied() {
            self.memory_limits.insert(child, limit);
        }
    }

    fn exit(&mut self, pid: Pid, buddy: &mut GuestBuddy) {
        self.inherited.remove(&pid);
        self.memory_limits.remove(&pid);
        if let Some(part) = self.parts.remove(&pid) {
            // Return every frame still parked in reservations. Live pages
            // were already freed by the OS unmap path (release() handled
            // them), so only never-granted frames remain here.
            part.drain_unused(|f| {
                buddy
                    .free(f, 0)
                    .expect("reserved frames are live order-0 allocations");
                true
            });
        }
    }

    fn reclaim(&mut self, buddy: &mut GuestBuddy, target_frames: u64) -> u64 {
        // Walk the reservations of randomly selected processes until the
        // target is met (§4.3).
        let mut released = 0u64;
        let mut candidates: Vec<Pid> = self
            .parts
            .iter()
            .filter(|(_, p)| p.unused_frames() > 0)
            .map(|(&pid, _)| pid)
            .collect();
        // HashMap iteration order is arbitrary; sort before applying the
        // seeded RNG so victim selection is reproducible across runs.
        candidates.sort_unstable();
        while released < target_frames && !candidates.is_empty() {
            let idx = self.rng.random_range(0..candidates.len());
            let victim = candidates.swap_remove(idx);
            let part = Arc::clone(&self.parts[&victim]);
            let mut remaining = target_frames - released;
            released += part.drain_unused(|f| {
                buddy
                    .free(f, 0)
                    .expect("reserved frames are live order-0 allocations");
                remaining = remaining.saturating_sub(1);
                remaining > 0
            });
        }
        self.stats.reclaimed_frames += released;
        released
    }

    fn on_frame_targeted(&mut self, gfn: GuestFrame, buddy: &mut GuestBuddy) -> u64 {
        let chunk = self.chunk_of(gfn);
        let Some(&(pid, group)) = self.chunk_owner.get(&chunk) else {
            return 0;
        };
        let covers = self
            .parts
            .get(&pid)
            .and_then(|p| p.peek(group))
            .is_some_and(|r| r.base.raw() == chunk);
        if !covers {
            // Stale: the reservation retired, emptied, or was reclaimed.
            self.chunk_owner.remove(&chunk);
            return 0;
        }
        let part = Arc::clone(&self.parts[&pid]);
        let mut released = 0u64;
        for f in part.drain_group(group) {
            buddy
                .free(f, 0)
                .expect("reserved frames are live order-0 allocations");
            released += 1;
        }
        self.chunk_owner.remove(&chunk);
        self.stats.reclaimed_frames += released;
        released
    }

    fn reserved_unused_frames(&self) -> u64 {
        self.total_unused_frames()
    }

    fn any_reserved_unused_frame(&self) -> Option<GuestFrame> {
        // Lowest frame number across every table: a min is independent of
        // map/tree iteration order, so the pick is deterministic.
        let mut best: Option<u64> = None;
        for part in self.parts.values() {
            part.for_each(|_group, r| {
                for f in r.unused_frames() {
                    best = Some(best.map_or(f.raw(), |b| b.min(f.raw())));
                }
            });
        }
        best.map(GuestFrame::new)
    }

    fn reserved_unused_frames_of(&self, pid: Pid) -> u64 {
        self.parts.get(&pid).map_or(0, |p| p.unused_frames())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmsim_types::{MemError, GROUP_PAGES};

    fn setup() -> (ReservationAllocator, GuestBuddy) {
        (ReservationAllocator::new(), GuestBuddy::new(1024))
    }

    #[test]
    fn first_fault_reserves_whole_group() {
        let (mut a, mut buddy) = setup();
        let pid = Pid(1);
        let (gfn, cost) = a.allocate(pid, GuestVirtPage::new(8), &mut buddy).unwrap();
        assert_eq!(gfn.raw() % GROUP_PAGES, 0);
        assert_eq!(cost.buddy_calls, 1);
        assert!(!cost.reservation_hit);
        // 8 frames left the pool even though one page was granted.
        assert_eq!(buddy.free_frames(), 1024 - 8);
        assert_eq!(a.reserved_unused_frames(), 7);
    }

    #[test]
    fn later_faults_hit_reservation_and_are_contiguous() {
        let (mut a, mut buddy) = setup();
        let pid = Pid(1);
        let (first, _) = a.allocate(pid, GuestVirtPage::new(16), &mut buddy).unwrap();
        for off in 1..GROUP_PAGES {
            let (gfn, cost) = a
                .allocate(pid, GuestVirtPage::new(16 + off), &mut buddy)
                .unwrap();
            assert_eq!(gfn.raw(), first.raw() + off, "contiguity guaranteed");
            assert!(cost.reservation_hit);
            assert_eq!(cost.buddy_calls, 0);
        }
        assert_eq!(a.stats().reservation_hits, 7);
        assert_eq!(a.reserved_unused_frames(), 0);
    }

    #[test]
    fn interleaved_processes_stay_contiguous() {
        // The headline property: colocation does NOT fragment groups.
        let (mut a, mut buddy) = setup();
        let p1 = Pid(1);
        let p2 = Pid(2);
        let mut frames1 = Vec::new();
        for off in 0..GROUP_PAGES {
            let (f1, _) = a.allocate(p1, GuestVirtPage::new(off), &mut buddy).unwrap();
            let (_f2, _) = a.allocate(p2, GuestVirtPage::new(off), &mut buddy).unwrap();
            frames1.push(f1.raw());
        }
        assert!(frames1.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn fallback_when_no_aligned_chunk() {
        let (mut a, mut buddy) = setup();
        // Shred the pool: allocate everything, free every other frame —
        // plenty of free memory, no order-3 block.
        let mut held = Vec::new();
        for _ in 0..1024 {
            held.push(buddy.alloc(0).unwrap());
        }
        for f in held.iter().skip(1).step_by(2) {
            buddy.free(*f, 0).unwrap();
        }
        let (gfn, cost) = a
            .allocate(Pid(1), GuestVirtPage::new(0), &mut buddy)
            .unwrap();
        assert_eq!(cost.buddy_calls, 1);
        assert!(!cost.reservation_hit);
        assert_eq!(a.stats().fallbacks, 1);
        // Frame is usable and freeable.
        a.free(Pid(1), GuestVirtPage::new(0), gfn, &mut buddy)
            .unwrap();
    }

    #[test]
    fn oom_propagates() {
        let mut a = ReservationAllocator::new();
        let mut buddy = GuestBuddy::new(8);
        a.allocate(Pid(1), GuestVirtPage::new(0), &mut buddy)
            .unwrap();
        assert!(matches!(
            a.allocate(Pid(1), GuestVirtPage::new(64), &mut buddy),
            Err(MemError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn free_of_all_granted_pages_returns_unused_frames() {
        let (mut a, mut buddy) = setup();
        let pid = Pid(1);
        let (g0, _) = a.allocate(pid, GuestVirtPage::new(0), &mut buddy).unwrap();
        let (g1, _) = a.allocate(pid, GuestVirtPage::new(1), &mut buddy).unwrap();
        assert_eq!(buddy.free_frames(), 1024 - 8);
        a.free(pid, GuestVirtPage::new(0), g0, &mut buddy).unwrap();
        // Entry still alive: the freed frame stays parked in the
        // reservation (re-grantable), not in the buddy pool.
        assert_eq!(buddy.free_frames(), 1024 - 8);
        assert_eq!(a.reserved_unused_frames(), 7);
        a.free(pid, GuestVirtPage::new(1), g1, &mut buddy).unwrap();
        // Last live page freed: entry deleted, all 8 frames back.
        assert_eq!(buddy.free_frames(), 1024);
        assert_eq!(a.reserved_unused_frames(), 0);
    }

    #[test]
    fn free_after_full_grant_uses_default_path() {
        let (mut a, mut buddy) = setup();
        let pid = Pid(1);
        let mut frames = Vec::new();
        for off in 0..GROUP_PAGES {
            frames.push(
                a.allocate(pid, GuestVirtPage::new(off), &mut buddy)
                    .unwrap()
                    .0,
            );
        }
        for (off, gfn) in frames.into_iter().enumerate() {
            a.free(pid, GuestVirtPage::new(off as u64), gfn, &mut buddy)
                .unwrap();
        }
        assert_eq!(buddy.free_frames(), 1024);
    }

    #[test]
    fn child_takes_from_parent_reservation() {
        let (mut a, mut buddy) = setup();
        let parent = Pid(1);
        let child = Pid(2);
        let (pf, _) = a
            .allocate(parent, GuestVirtPage::new(0), &mut buddy)
            .unwrap();
        a.fork(parent, child);
        // Child faults page 1 of the same group: granted from the parent's
        // reservation, adjacent to the parent's frame.
        let (cf, cost) = a
            .allocate(child, GuestVirtPage::new(1), &mut buddy)
            .unwrap();
        assert_eq!(cf.raw(), pf.raw() + 1);
        assert!(cost.reservation_hit);
        // A fault in a fresh group creates a reservation in the CHILD's own
        // table, not the parent's.
        a.allocate(child, GuestVirtPage::new(64), &mut buddy)
            .unwrap();
        assert_eq!(a.part_of(child).unwrap().live_entries(), 1);
        assert_eq!(a.part_of(parent).unwrap().live_entries(), 1);
    }

    #[test]
    fn exit_returns_all_reserved_frames() {
        let (mut a, mut buddy) = setup();
        let pid = Pid(1);
        let (gfn, _) = a.allocate(pid, GuestVirtPage::new(0), &mut buddy).unwrap();
        // The OS frees the mapped page first (unmap path), then exits.
        a.free(pid, GuestVirtPage::new(0), gfn, &mut buddy).unwrap();
        a.exit(pid, &mut buddy);
        assert_eq!(buddy.free_frames(), 1024);
    }

    #[test]
    fn exit_with_live_pages_still_drains_unused() {
        let (mut a, mut buddy) = setup();
        let pid = Pid(1);
        a.allocate(pid, GuestVirtPage::new(0), &mut buddy).unwrap();
        a.exit(pid, &mut buddy);
        // 7 unused frames drained; the granted one is owned by the OS layer.
        assert_eq!(buddy.free_frames(), 1024 - 1);
    }

    #[test]
    fn reclaim_meets_target_and_counts() {
        let (mut a, mut buddy) = setup();
        for g in 0..4u64 {
            a.allocate(Pid(1), GuestVirtPage::new(g * 8), &mut buddy)
                .unwrap();
        }
        assert_eq!(a.reserved_unused_frames(), 28);
        let released = a.reclaim(&mut buddy, 10);
        assert!(released >= 10, "met the target, got {released}");
        assert!(a.reserved_unused_frames() <= 28 - released);
        assert_eq!(a.stats().reclaimed_frames, released);
    }

    #[test]
    fn reclaimed_groups_no_longer_grant() {
        let (mut a, mut buddy) = setup();
        let pid = Pid(1);
        let (f0, _) = a.allocate(pid, GuestVirtPage::new(0), &mut buddy).unwrap();
        a.reclaim(&mut buddy, 100);
        // Fault page 1: the old reservation is gone, so a new chunk (or
        // fallback) serves it — and the frame is NOT adjacent-by-guarantee.
        let (f1, _) = a.allocate(pid, GuestVirtPage::new(1), &mut buddy).unwrap();
        assert_ne!(f1.raw(), f0.raw());
        // Frame 0 can still be freed through the default path.
        a.free(pid, GuestVirtPage::new(0), f0, &mut buddy).unwrap();
    }

    #[test]
    fn policy_disables_reservations_for_small_processes() {
        let mut a = ReservationAllocator::with_policy(EnablePolicy::MemoryLimitAbove(1024 * 1024));
        let mut buddy = GuestBuddy::new(1024);
        let small = Pid(1);
        let big = Pid(2);
        a.set_memory_limit(small, 4096);
        a.set_memory_limit(big, 64 * 1024 * 1024);
        let (_f, cost) = a
            .allocate(small, GuestVirtPage::new(0), &mut buddy)
            .unwrap();
        assert!(!cost.reservation_hit);
        assert_eq!(a.stats().fallbacks, 1);
        assert_eq!(a.reserved_unused_frames(), 0);
        a.allocate(big, GuestVirtPage::new(0), &mut buddy).unwrap();
        assert_eq!(a.reserved_unused_frames(), 7);
    }

    #[test]
    fn cow_break_on_live_page_falls_back_to_fresh_frame() {
        // Regression (found by tests/stress.rs): after fork, a process
        // COW-breaking a page that is still live in a covering reservation
        // must get a *new* frame, not panic or double-grant.
        let (mut a, mut buddy) = setup();
        let parent = Pid(1);
        let child = Pid(2);
        let (orig, _) = a
            .allocate(parent, GuestVirtPage::new(0), &mut buddy)
            .unwrap();
        a.fork(parent, child);
        // Parent COW-breaks its own page 0 (own-table path).
        let (copy_p, cost) = a
            .allocate(parent, GuestVirtPage::new(0), &mut buddy)
            .unwrap();
        assert_ne!(copy_p, orig);
        assert!(!cost.reservation_hit);
        // Child COW-breaks the same page (inherited-table path).
        let (copy_c, _) = a
            .allocate(child, GuestVirtPage::new(0), &mut buddy)
            .unwrap();
        assert_ne!(copy_c, orig);
        assert_ne!(copy_c, copy_p);
        // Everything remains freeable without leaks.
        a.free(parent, GuestVirtPage::new(0), copy_p, &mut buddy)
            .unwrap();
        a.free(child, GuestVirtPage::new(0), copy_c, &mut buddy)
            .unwrap();
        a.free(parent, GuestVirtPage::new(0), orig, &mut buddy)
            .unwrap();
        a.exit(child, &mut buddy);
        a.exit(parent, &mut buddy);
        assert_eq!(buddy.free_frames(), 1024);
    }

    #[test]
    fn swap_target_reclaims_covering_reservation() {
        let (mut a, mut buddy) = setup();
        let pid = Pid(1);
        let (gfn, _) = a.allocate(pid, GuestVirtPage::new(0), &mut buddy).unwrap();
        assert_eq!(a.reserved_unused_frames(), 7);
        // The OS targets a *reserved* (unmapped) frame of the same chunk.
        let target = GuestFrame::new(gfn.raw() + 3);
        let released = a.on_frame_targeted(target, &mut buddy);
        assert_eq!(released, 7, "whole reservation reclaimed");
        assert_eq!(a.reserved_unused_frames(), 0);
        // The mapped page is untouched and still freeable (default path).
        a.free(pid, GuestVirtPage::new(0), gfn, &mut buddy).unwrap();
        assert_eq!(buddy.free_frames(), 1024);
        // Re-targeting is a no-op.
        assert_eq!(a.on_frame_targeted(target, &mut buddy), 0);
    }

    #[test]
    fn swap_target_on_unreserved_frame_is_noop() {
        let (mut a, mut buddy) = setup();
        assert_eq!(a.on_frame_targeted(GuestFrame::new(500), &mut buddy), 0);
    }

    #[test]
    fn adversarial_every_eighth_page_wastes_seven_eighths() {
        // The pathological pattern discussed in §6.2: touching only every
        // eighth page reserves 8x the application's footprint.
        let (mut a, mut buddy) = setup();
        let pid = Pid(1);
        for g in 0..8u64 {
            a.allocate(pid, GuestVirtPage::new(g * 8), &mut buddy)
                .unwrap();
        }
        assert_eq!(a.reserved_unused_frames(), 7 * 8);
        assert_eq!(buddy.free_frames(), 1024 - 64);
    }

    #[test]
    fn one_page_groups_behave_like_default() {
        let mut a = ReservationAllocator::granular(0);
        let mut default = vmsim_os::DefaultAllocator::new();
        let (mut buddy, mut default_buddy) = (GuestBuddy::new(64), GuestBuddy::new(64));
        let (f, cost) = a
            .allocate(Pid(1), GuestVirtPage::new(0), &mut buddy)
            .unwrap();
        assert_eq!(cost.buddy_calls, 1);
        assert_eq!(a.reserved_unused_frames(), 0);
        let (g, _) = default
            .allocate(Pid(1), GuestVirtPage::new(0), &mut default_buddy)
            .unwrap();
        assert_eq!(f, g, "the same frame as the default kernel");
        a.free(Pid(1), GuestVirtPage::new(0), f, &mut buddy)
            .unwrap();
        assert_eq!(buddy.free_frames(), 64);
    }

    #[test]
    fn sixteen_page_groups_reserve_sixteen() {
        let mut a = ReservationAllocator::granular(4);
        let mut buddy = GuestBuddy::new(64);
        let (f0, _) = a
            .allocate(Pid(1), GuestVirtPage::new(0), &mut buddy)
            .unwrap();
        assert_eq!(buddy.free_frames(), 48);
        assert_eq!(a.reserved_unused_frames(), 15);
        let (f5, cost) = a
            .allocate(Pid(1), GuestVirtPage::new(5), &mut buddy)
            .unwrap();
        assert!(cost.reservation_hit);
        assert_eq!(f5.raw(), f0.raw() + 5);
    }

    #[test]
    fn contiguity_holds_under_interleaving_at_each_order() {
        for order in 1..=MAX_GROUP_ORDER {
            let pages = 1u64 << order;
            let mut a = ReservationAllocator::granular(order);
            let mut buddy = GuestBuddy::new(1024);
            let mut frames = Vec::new();
            for vpn in 0..pages {
                let (f, _) = a
                    .allocate(Pid(1), GuestVirtPage::new(vpn), &mut buddy)
                    .unwrap();
                // Interleave a churner.
                a.allocate(Pid(2), GuestVirtPage::new(1000 + vpn * 100), &mut buddy)
                    .unwrap();
                frames.push(f.raw());
            }
            assert!(
                frames.windows(2).all(|w| w[1] == w[0] + 1),
                "order {order} keeps groups contiguous"
            );
        }
    }

    #[test]
    fn free_cycle_is_leak_free_at_each_order() {
        for order in 0..=MAX_GROUP_ORDER {
            let pages = 1u64 << order;
            let mut a = ReservationAllocator::granular(order);
            let mut buddy = GuestBuddy::new(256);
            let mut got = Vec::new();
            for vpn in 0..pages + 3 {
                got.push((
                    vpn,
                    a.allocate(Pid(1), GuestVirtPage::new(vpn), &mut buddy)
                        .unwrap()
                        .0,
                ));
            }
            for (vpn, f) in got {
                a.free(Pid(1), GuestVirtPage::new(vpn), f, &mut buddy)
                    .unwrap();
            }
            assert_eq!(buddy.free_frames(), 256, "order {order} leaks");
        }
    }

    /// Host- and guest-PT fragmentation of process `a` after it and a second
    /// process fault 64 pages each in lockstep.
    fn interleaved_fragmentation(mut m: vmsim_os::Machine) -> (f64, f64) {
        use vmsim_types::GuestVirtAddr;
        let a = m.guest_mut().spawn();
        let b = m.guest_mut().spawn();
        let va_a = m.guest_mut().mmap(a, 64).unwrap();
        let va_b = m.guest_mut().mmap(b, 64).unwrap();
        for i in 0..64 {
            m.touch(0, a, GuestVirtAddr::new(va_a.raw() + i * 4096), false)
                .unwrap();
            m.touch(1, b, GuestVirtAddr::new(va_b.raw() + i * 4096), false)
                .unwrap();
        }
        (
            m.host_pt_fragmentation(a).unwrap().mean(),
            m.guest_pt_fragmentation(a).unwrap().mean(),
        )
    }

    #[test]
    fn interleaved_faulting_keeps_host_fragmentation_at_one() {
        let (host, guest) = interleaved_fragmentation(vmsim_os::Machine::with_allocator(
            vmsim_os::MachineConfig::small(),
            Box::new(ReservationAllocator::new()),
        ));
        assert!((host - 1.0).abs() < 1e-9, "got {host}");
        assert!((guest - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interleaved_faulting_fragments_the_default_kernel() {
        let (host, guest) =
            interleaved_fragmentation(vmsim_os::Machine::new(vmsim_os::MachineConfig::small()));
        assert!(host / guest > 1.5, "got {}", host / guest);
    }
}
