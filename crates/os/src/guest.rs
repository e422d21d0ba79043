//! The guest kernel: lazy physical allocation, fork/COW, and the pluggable
//! frame allocator.
//!
//! Physical memory is allocated **lazily**: `mmap` only creates a VMA, and a
//! frame is assigned on the first faulting touch (paper §2.2). *Which* frame
//! is assigned is decided by the pluggable [`GuestFrameAllocator`]:
//!
//! * [`DefaultAllocator`] — the stock Linux behaviour: one order-0 buddy call
//!   per fault. Under colocation, interleaved faults from different
//!   processes receive interleaved frames, fragmenting each process's memory
//!   in guest-physical space (§2.4).
//! * `ptemagnet::ReservationAllocator` (in the `ptemagnet` crate) — the
//!   paper's contribution, plugging in through the same trait.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use vmsim_buddy::BuddyAllocator;
use vmsim_pt::Pte;
use vmsim_types::{GuestFrame, GuestVirtAddr, GuestVirtPage, MemError, Result, PT_ENTRIES};

use crate::frames::FrameRefTable;
use crate::process::{Pid, Process};

/// The guest-physical buddy allocator.
pub type GuestBuddy = BuddyAllocator<GuestFrame>;

/// Software cost of serving one allocation, for the §6.4 latency model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocCost {
    /// Calls into the buddy allocator.
    pub buddy_calls: u32,
    /// PaRT radix-tree lookups (PTEMagnet only).
    pub part_lookups: u32,
    /// Whether the request was served from an existing reservation.
    pub reservation_hit: bool,
    /// Whether serving the request installed a *new* reservation.
    pub reservation_new: bool,
    /// Whether a reservation-capable allocator degraded to a single-frame
    /// fallback allocation (no aligned chunk available, or denied by
    /// policy/fault injection) — the §4.2 graceful-degradation path.
    pub fallback: bool,
}

/// What an allocator granted for a faulting page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocGrant {
    /// One 4 KB frame for the faulting page.
    Small(GuestFrame),
    /// A 512-aligned 2 MB chunk covering the faulting page's aligned 2 MB
    /// virtual region (THP-style). The value is the chunk base.
    Huge(GuestFrame),
}

/// Strategy deciding which guest-physical frame backs a faulting page.
///
/// Implementations own whatever bookkeeping they need (PTEMagnet owns its
/// Page Reservation Table) but draw frames exclusively from the provided
/// buddy allocator, like any kernel allocation path.
pub trait GuestFrameAllocator: core::fmt::Debug {
    /// Short name used in experiment reports (e.g. `"default"`,
    /// `"ptemagnet"`).
    fn name(&self) -> &'static str;

    /// Picks a frame for the faulting page (`pid`, `vpn`).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] when the pool is exhausted.
    fn allocate(
        &mut self,
        pid: Pid,
        vpn: GuestVirtPage,
        buddy: &mut GuestBuddy,
    ) -> Result<(GuestFrame, AllocCost)>;

    /// Releases the frame backing (`pid`, `vpn`).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidFree`] for frames this allocator does not
    /// consider live.
    fn free(
        &mut self,
        pid: Pid,
        vpn: GuestVirtPage,
        gfn: GuestFrame,
        buddy: &mut GuestBuddy,
    ) -> Result<()>;

    /// Picks a grant for the faulting page, possibly a huge (2 MB) one.
    ///
    /// `huge_candidate` tells the allocator whether the kernel could install
    /// a huge mapping over the page's aligned 2 MB region (the region lies
    /// wholly inside one VMA and nothing in it is mapped yet). Allocators
    /// that never use huge pages keep the default, which delegates to
    /// [`Self::allocate`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] when the pool is exhausted.
    fn allocate_grant(
        &mut self,
        pid: Pid,
        vpn: GuestVirtPage,
        _huge_candidate: bool,
        buddy: &mut GuestBuddy,
    ) -> Result<(AllocGrant, AllocCost)> {
        let (gfn, cost) = self.allocate(pid, vpn, buddy)?;
        Ok((AllocGrant::Small(gfn), cost))
    }

    /// Notifies the allocator of a fork so reservation state can be shared
    /// with the child (paper §4.4). Default: nothing to share.
    fn fork(&mut self, _parent: Pid, _child: Pid) {}

    /// Releases all per-process state on exit (e.g. undrained reservations).
    fn exit(&mut self, _pid: Pid, _buddy: &mut GuestBuddy) {}

    /// Releases up to `target_frames` of reserved-but-unused memory back to
    /// the buddy allocator (memory-pressure reclamation, §4.3). Returns the
    /// number of frames actually released.
    fn reclaim(&mut self, _buddy: &mut GuestBuddy, _target_frames: u64) -> u64 {
        0
    }

    /// The OS selected `gfn` as a swap or compaction target. If the frame
    /// is parked inside a reservation, the allocator reclaims that whole
    /// reservation (§4.4 "Swap and THP"). Returns frames released to the
    /// buddy allocator (0 when the frame was not reserved).
    fn on_frame_targeted(&mut self, _gfn: GuestFrame, _buddy: &mut GuestBuddy) -> u64 {
        0
    }

    /// Frames currently reserved but not yet handed to any application
    /// (the §6.2 overhead metric). Zero for non-reserving allocators.
    fn reserved_unused_frames(&self) -> u64 {
        0
    }

    /// Per-process variant of [`Self::reserved_unused_frames`].
    fn reserved_unused_frames_of(&self, _pid: Pid) -> u64 {
        0
    }

    /// A deterministic reserved-but-unused frame, if any exist — the
    /// lowest-numbered one, so the choice is independent of internal map
    /// iteration order. Used by the fault-injection driver to pick host
    /// swap-out targets (§4.4). `None` for non-reserving allocators.
    fn any_reserved_unused_frame(&self) -> Option<GuestFrame> {
        None
    }

    /// Contributes allocator-internal metrics (e.g. PTEMagnet's reservation
    /// and PaRT counters) to an observability snapshot. Default: nothing.
    fn emit_metrics(&self, _reg: &mut vmsim_obs::Registry) {}
}

/// The stock Linux allocation policy: one order-0 buddy call per fault.
#[derive(Clone, Copy, Debug, Default)]
pub struct DefaultAllocator;

impl DefaultAllocator {
    /// Creates the default allocator.
    pub fn new() -> Self {
        Self
    }
}

impl GuestFrameAllocator for DefaultAllocator {
    fn name(&self) -> &'static str {
        "default"
    }

    fn allocate(
        &mut self,
        _pid: Pid,
        _vpn: GuestVirtPage,
        buddy: &mut GuestBuddy,
    ) -> Result<(GuestFrame, AllocCost)> {
        let gfn = buddy.alloc(0)?;
        Ok((
            gfn,
            AllocCost {
                buddy_calls: 1,
                ..AllocCost::default()
            },
        ))
    }

    fn free(
        &mut self,
        _pid: Pid,
        _vpn: GuestVirtPage,
        gfn: GuestFrame,
        buddy: &mut GuestBuddy,
    ) -> Result<()> {
        buddy.free(gfn, 0)
    }
}

/// Outcome of serving a page fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultInfo {
    /// The frame now backing the faulting page.
    pub gfn: GuestFrame,
    /// Allocator cost of the fault.
    pub cost: AllocCost,
    /// Guest-physical frames newly allocated for page-table nodes.
    pub pt_node_allocs: u32,
    /// Whether the fault installed a huge (2 MB) mapping.
    pub huge: bool,
}

/// Cumulative guest-kernel event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuestStats {
    /// Page faults served.
    pub faults: u64,
    /// Copy-on-write breaks.
    pub cow_breaks: u64,
    /// Forks performed.
    pub forks: u64,
    /// Pages unmapped.
    pub unmaps: u64,
    /// Total buddy calls made by the pluggable allocator.
    pub allocator_buddy_calls: u64,
    /// Total PaRT lookups made by the pluggable allocator.
    pub allocator_part_lookups: u64,
}

impl vmsim_obs::MetricSource for GuestStats {
    fn source_name(&self) -> &'static str {
        "guest"
    }

    fn emit(&self, out: &mut Vec<vmsim_obs::Metric>) {
        out.push(vmsim_obs::Metric::u64("faults", self.faults));
        out.push(vmsim_obs::Metric::u64("cow_breaks", self.cow_breaks));
        out.push(vmsim_obs::Metric::u64("forks", self.forks));
        out.push(vmsim_obs::Metric::u64("unmaps", self.unmaps));
        out.push(vmsim_obs::Metric::u64(
            "allocator_buddy_calls",
            self.allocator_buddy_calls,
        ));
        out.push(vmsim_obs::Metric::u64(
            "allocator_part_lookups",
            self.allocator_part_lookups,
        ));
    }
}

/// The guest operating system: processes, the guest-physical pool, and the
/// pluggable allocation policy.
#[derive(Debug)]
pub struct GuestOs {
    buddy: GuestBuddy,
    allocator: Box<dyn GuestFrameAllocator>,
    processes: BTreeMap<Pid, Process>,
    next_pid: u64,
    /// Reference counts for frames shared across address spaces (fork/COW),
    /// indexed densely by guest frame number (0 = untracked).
    frame_refs: FrameRefTable,
    stats: GuestStats,
    /// Per-process translation generations, indexed by `pid.0`. Bumped by
    /// every operation that changes an *existing* mapping of that process
    /// (COW break or restore-write, fork's COW downgrade, munmap, exit).
    /// Faults that only fill previously-empty slots do not bump: no cached
    /// translation can exist for an unmapped page. The machine's memo layer
    /// uses these to cheaply prove a cached translation is still current.
    xlate_gens: Vec<u64>,
}

impl GuestOs {
    /// Creates a guest OS managing `total_frames` of guest-physical memory
    /// with the given allocation policy.
    pub fn new(total_frames: u64, allocator: Box<dyn GuestFrameAllocator>) -> Self {
        Self {
            buddy: GuestBuddy::new(total_frames),
            allocator,
            processes: BTreeMap::new(),
            next_pid: 1,
            frame_refs: FrameRefTable::new(total_frames),
            stats: GuestStats::default(),
            xlate_gens: Vec::new(),
        }
    }

    /// The translation generation of `pid` (see the field docs). Unknown
    /// pids read as generation 0.
    #[inline]
    pub fn xlate_gen(&self, pid: Pid) -> u64 {
        self.xlate_gens.get(pid.0 as usize).copied().unwrap_or(0)
    }

    /// Bumps `pid`'s translation generation, invalidating any memoized
    /// translations for that process.
    fn bump_xlate_gen(xlate_gens: &mut Vec<u64>, pid: Pid) {
        let i = pid.0 as usize;
        if xlate_gens.len() <= i {
            xlate_gens.resize(i + 1, 0);
        }
        xlate_gens[i] += 1;
    }

    /// Spawns a new, empty process and returns its pid.
    ///
    /// # Panics
    ///
    /// Panics if guest memory is so exhausted that not even a page-table
    /// root can be allocated.
    pub fn spawn(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let buddy = &mut self.buddy;
        // Process creation is not a fault-servicing path: injected
        // allocation failures target the degradation paths (§4.2–§4.3),
        // not the ability to construct a process at all.
        if let Some(inj) = buddy.fault_injector_mut() {
            inj.push_suppress();
        }
        let proc = Process::new(pid, || buddy.alloc(0)).expect("guest OOM while spawning");
        if let Some(inj) = buddy.fault_injector_mut() {
            inj.pop_suppress();
        }
        self.processes.insert(pid, proc);
        pid
    }

    /// Allocates `pages` of virtual address space for `pid` (like `mmap`).
    /// Physical memory is not touched.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchProcess`] for unknown pids.
    pub fn mmap(&mut self, pid: Pid, pages: u64) -> Result<GuestVirtAddr> {
        let proc = self.process_mut(pid)?;
        let start = proc.place_mmap(pages);
        proc.vmas.insert(start, pages, true)?;
        Ok(start.base_addr())
    }

    /// Handles a page fault at (`pid`, `vpn`): the pluggable allocator picks
    /// a frame and the page table is extended.
    ///
    /// # Errors
    ///
    /// * [`MemError::Unmapped`] — `vpn` is outside every VMA (a real fault
    ///   would segfault);
    /// * [`MemError::AlreadyMapped`] — the page already has a frame;
    /// * [`MemError::OutOfMemory`] — the pool is exhausted.
    pub fn page_fault(&mut self, pid: Pid, vpn: GuestVirtPage) -> Result<FaultInfo> {
        let Self {
            buddy,
            allocator,
            processes,
            frame_refs,
            stats,
            ..
        } = self;
        let proc = processes
            .get_mut(&pid)
            .ok_or(MemError::NoSuchProcess { pid: pid.0 })?;
        let vma = *proc
            .vmas
            .find(vpn)
            .ok_or(MemError::Unmapped { vpn: vpn.raw() })?;
        if proc.page_table.lookup(vpn).is_some() {
            return Err(MemError::AlreadyMapped { vpn: vpn.raw() });
        }
        // Could a THP-style allocator install a 2 MB mapping here? Only if
        // the aligned region lies wholly inside this VMA and its level-2
        // slot is still empty.
        let region_base = GuestVirtPage::new(vpn.raw() & !(PT_ENTRIES - 1));
        let huge_candidate = vma.start <= region_base
            && region_base.raw() + PT_ENTRIES <= vma.end().raw()
            && proc.page_table.can_map_large(vpn);

        let (grant, cost) = allocator.allocate_grant(pid, vpn, huge_candidate, buddy)?;
        let nodes_before = proc.page_table.stats().total_nodes();
        let (gfn, huge) = match grant {
            AllocGrant::Small(gfn) => {
                proc.page_table.map(vpn, gfn, || buddy.alloc(0))?;
                proc.rss_pages += 1;
                frame_refs.set_one(gfn.raw());
                (gfn, false)
            }
            AllocGrant::Huge(chunk) => {
                debug_assert!(huge_candidate, "allocator granted huge without a candidate");
                proc.page_table
                    .map_large(region_base, chunk, || buddy.alloc(0))?;
                proc.rss_pages += PT_ENTRIES;
                for i in 0..PT_ENTRIES {
                    frame_refs.set_one(chunk.raw() + i);
                }
                (
                    GuestFrame::new(chunk.raw() + (vpn.raw() & (PT_ENTRIES - 1))),
                    true,
                )
            }
        };
        let pt_node_allocs = (proc.page_table.stats().total_nodes() - nodes_before) as u32;
        stats.faults += 1;
        stats.allocator_buddy_calls += u64::from(cost.buddy_calls) + u64::from(pt_node_allocs);
        stats.allocator_part_lookups += u64::from(cost.part_lookups);
        Ok(FaultInfo {
            gfn,
            cost,
            pt_node_allocs,
            huge,
        })
    }

    /// Handles a write to a COW-mapped page: the mapping is privatized.
    ///
    /// Returns the (possibly new) backing frame and whether a copy happened.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unmapped`] if the page has no present mapping.
    pub fn write_fault(&mut self, pid: Pid, vpn: GuestVirtPage) -> Result<(GuestFrame, bool)> {
        let Self {
            buddy,
            allocator,
            processes,
            frame_refs,
            stats,
            xlate_gens,
            ..
        } = self;
        let proc = processes
            .get_mut(&pid)
            .ok_or(MemError::NoSuchProcess { pid: pid.0 })?;
        let pte = proc
            .page_table
            .lookup(vpn)
            .ok_or(MemError::Unmapped { vpn: vpn.raw() })?;
        if !pte.is_cow() {
            // translate() rather than pte.frame(): for a huge mapping the
            // entry's frame is the 2 MB chunk base, not this page's frame.
            // Nothing mutates, so the translation generation stays put.
            let gfn = proc.page_table.translate(vpn).expect("present mapping");
            return Ok((gfn, false));
        }
        // Huge mappings are demoted at fork time, so a COW entry is always a
        // 4 KB leaf entry here.
        debug_assert!(!pte.is_huge(), "huge mappings never carry COW");
        let old = pte.frame();
        debug_assert!(frame_refs.get(old.raw()) > 0, "cow frame is tracked");
        if !frame_refs.is_shared(old.raw()) {
            // Sole owner: just restore write access.
            proc.page_table
                .update(vpn, |p| p.with_cow(false).with_writable(true))?;
            Self::bump_xlate_gen(xlate_gens, pid);
            return Ok((old, false));
        }
        frame_refs.decr(old.raw());
        let (new_gfn, cost) = allocator.allocate(pid, vpn, buddy)?;
        frame_refs.set_one(new_gfn.raw());
        proc.page_table.unmap(vpn)?;
        proc.page_table.map(vpn, new_gfn, || buddy.alloc(0))?;
        stats.cow_breaks += 1;
        stats.allocator_buddy_calls += u64::from(cost.buddy_calls);
        stats.allocator_part_lookups += u64::from(cost.part_lookups);
        Self::bump_xlate_gen(xlate_gens, pid);
        Ok((new_gfn, true))
    }

    /// Forks `parent`: the child shares all mapped pages copy-on-write.
    ///
    /// Both parent and child PTEs are downgraded to read-only + COW, exactly
    /// like `fork(2)`. Reservation state is shared per the allocator's
    /// [`GuestFrameAllocator::fork`] hook (§4.4).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchProcess`] for unknown parents and
    /// propagates allocation failures for the child's page-table nodes.
    pub fn fork(&mut self, parent: Pid) -> Result<Pid> {
        let child_pid = Pid(self.next_pid);
        self.next_pid += 1;
        let Self {
            buddy,
            allocator,
            processes,
            frame_refs,
            stats,
            ..
        } = self;
        // Like spawn: fork is process management, not fault servicing —
        // a mid-copy injected denial would tear down the child half-built.
        if let Some(inj) = buddy.fault_injector_mut() {
            inj.push_suppress();
        }
        let result = Self::fork_inner(
            child_pid, parent, buddy, allocator, processes, frame_refs, stats,
        );
        if let Some(inj) = buddy.fault_injector_mut() {
            inj.pop_suppress();
        }
        if result.is_ok() {
            // The parent's live PTEs were downgraded to COW (and any huge
            // mappings split), so its cached translations' write permissions
            // are stale.
            Self::bump_xlate_gen(&mut self.xlate_gens, parent);
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn fork_inner(
        child_pid: Pid,
        parent: Pid,
        buddy: &mut GuestBuddy,
        allocator: &mut Box<dyn GuestFrameAllocator>,
        processes: &mut BTreeMap<Pid, Process>,
        frame_refs: &mut FrameRefTable,
        stats: &mut GuestStats,
    ) -> Result<Pid> {
        let parent_proc = processes
            .get_mut(&parent)
            .ok_or(MemError::NoSuchProcess { pid: parent.0 })?;

        // Huge mappings are split before COW-sharing (THP splitting at
        // fork: sharing 2 MB units copy-on-write would copy 2 MB per write,
        // so the model splits eagerly like khugepaged-less kernels do).
        let vmas = parent_proc.vmas.clone();
        for vma in &vmas {
            for vpn in vma.iter_pages() {
                if parent_proc.page_table.is_huge_mapping(vpn) {
                    parent_proc.page_table.demote(vpn, || buddy.alloc(0))?;
                }
            }
        }

        // Collect the parent's live mappings and downgrade them to COW.
        let mut mappings: Vec<(GuestVirtPage, GuestFrame)> = Vec::new();
        for vma in &vmas {
            for vpn in vma.iter_pages() {
                if let Some(pte) = parent_proc.page_table.lookup(vpn) {
                    mappings.push((vpn, pte.frame()));
                    parent_proc
                        .page_table
                        .update(vpn, |p| p.with_cow(true).with_writable(false))?;
                }
            }
        }
        let mmap_cursor = parent_proc.mmap_cursor;

        let mut child = Process::new(child_pid, || buddy.alloc(0))?;
        child.vmas = vmas;
        child.mmap_cursor = mmap_cursor;
        child.parent = Some(parent);
        for (vpn, gfn) in &mappings {
            child.page_table.map_entry(
                *vpn,
                Pte::present(*gfn).with_cow(true).with_writable(false),
                || buddy.alloc(0),
            )?;
            frame_refs.incr(gfn.raw());
        }
        child.rss_pages = mappings.len() as u64;
        processes.insert(child_pid, child);
        allocator.fork(parent, child_pid);
        stats.forks += 1;
        Ok(child_pid)
    }

    /// Unmaps `[start, start+pages)` from `pid`, freeing frames whose last
    /// reference this was. Returns the pages that actually had mappings (for
    /// TLB shootdown by the machine).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidVma`] if the range is not fully covered by
    /// VMAs.
    pub fn munmap(
        &mut self,
        pid: Pid,
        start: GuestVirtPage,
        pages: u64,
    ) -> Result<Vec<GuestVirtPage>> {
        let Self {
            buddy,
            allocator,
            processes,
            frame_refs,
            stats,
            xlate_gens,
            ..
        } = self;
        let proc = processes
            .get_mut(&pid)
            .ok_or(MemError::NoSuchProcess { pid: pid.0 })?;
        proc.vmas.remove(start, pages)?;
        Self::bump_xlate_gen(xlate_gens, pid);
        // Partial unmap of a huge mapping requires demotion first (the
        // THP-split cost the paper's §2.3 discussion refers to). Hugeness
        // is a property of the level-2 entry, so one check covers each
        // aligned 2 MB region.
        let mut vpn_raw = start.raw();
        let end = start.raw() + pages;
        while vpn_raw < end {
            let vpn = GuestVirtPage::new(vpn_raw);
            if proc.page_table.is_huge_mapping(vpn) {
                proc.page_table.demote(vpn, || buddy.alloc(0))?;
            }
            vpn_raw = (vpn_raw | (PT_ENTRIES - 1)) + 1;
        }
        let mut unmapped = Vec::with_capacity(pages as usize);
        for vpn in start.span(pages) {
            let Some(old) = proc.page_table.take(vpn) else {
                continue;
            };
            proc.rss_pages -= 1;
            let gfn = old.frame();
            if frame_refs.decr(gfn.raw()) == 0 {
                allocator.free(pid, vpn, gfn, buddy)?;
            }
            unmapped.push(vpn);
            stats.unmaps += 1;
        }
        Ok(unmapped)
    }

    /// Terminates `pid`, releasing its entire address space and any
    /// allocator-side per-process state.
    ///
    /// Returns the pages that had mappings (for TLB shootdown).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchProcess`] for unknown pids.
    pub fn exit(&mut self, pid: Pid) -> Result<Vec<GuestVirtPage>> {
        let regions: Vec<(GuestVirtPage, u64)> = self
            .process(pid)?
            .vmas
            .iter()
            .map(|v| (v.start, v.pages))
            .collect();
        let mut unmapped = Vec::new();
        for (start, pages) in regions {
            unmapped.extend(self.munmap(pid, start, pages)?);
        }
        // Free the page-table node frames.
        let proc = self.processes.remove(&pid).expect("checked above");
        for (frame, _level) in proc.page_table.node_frames() {
            self.buddy
                .free(frame, 0)
                .expect("PT node frames are order-0 buddy allocations");
        }
        self.allocator.exit(pid, &mut self.buddy);
        Self::bump_xlate_gen(&mut self.xlate_gens, pid);
        Ok(unmapped)
    }

    /// Immutable access to a process.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchProcess`] for unknown pids.
    pub fn process(&self, pid: Pid) -> Result<&Process> {
        self.processes
            .get(&pid)
            .ok_or(MemError::NoSuchProcess { pid: pid.0 })
    }

    /// Mutable access to a process.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchProcess`] for unknown pids.
    pub fn process_mut(&mut self, pid: Pid) -> Result<&mut Process> {
        self.processes
            .get_mut(&pid)
            .ok_or(MemError::NoSuchProcess { pid: pid.0 })
    }

    /// Iterates over all live processes in pid order.
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.processes.values()
    }

    /// Calls `f` for every mapped page of `pid`, in address order.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchProcess`] for unknown pids.
    pub fn for_each_mapped(
        &self,
        pid: Pid,
        mut f: impl FnMut(GuestVirtPage, GuestFrame),
    ) -> Result<()> {
        let proc = self.process(pid)?;
        for vma in &proc.vmas {
            for vpn in vma.iter_pages() {
                if let Some(gfn) = proc.page_table.translate(vpn) {
                    f(vpn, gfn);
                }
            }
        }
        Ok(())
    }

    /// The guest-physical buddy allocator.
    pub fn buddy(&self) -> &GuestBuddy {
        &self.buddy
    }

    /// Mutable access to the guest-physical buddy allocator — used by the
    /// fault-injection driver to install injectors and apply fragmentation
    /// shocks.
    pub fn buddy_mut(&mut self) -> &mut GuestBuddy {
        &mut self.buddy
    }

    /// The pluggable frame allocator.
    pub fn allocator(&self) -> &dyn GuestFrameAllocator {
        self.allocator.as_ref()
    }

    /// Kernel event counters.
    pub fn stats(&self) -> GuestStats {
        self.stats
    }

    /// The guest-frame reference-count table (fork/COW sharing).
    pub fn frame_refs(&self) -> &FrameRefTable {
        &self.frame_refs
    }

    /// Releases up to `target_frames` of reserved-but-unused frames
    /// (memory-pressure reclamation, §4.3).
    pub fn reclaim_reservations(&mut self, target_frames: u64) -> u64 {
        self.allocator.reclaim(&mut self.buddy, target_frames)
    }

    /// The §4.3 daemon's watermark target: the frames a pass must free to
    /// lift free memory back to `restore_to` of the guest, or 0 while the
    /// free fraction is at or above `threshold`.
    #[must_use]
    pub fn reclaim_target(&self, threshold: f64, restore_to: f64) -> u64 {
        if self.buddy.free_fraction() >= threshold {
            return 0;
        }
        let want = (restore_to * self.buddy.total_frames() as f64) as u64;
        want.saturating_sub(self.buddy.free_frames())
    }

    /// Notifies the allocator that the OS targeted `gfn` for swap or
    /// compaction (§4.4): a covering reservation, if any, is reclaimed.
    /// Returns the number of frames released to the buddy allocator.
    pub fn swap_target(&mut self, gfn: GuestFrame) -> u64 {
        self.allocator.on_frame_targeted(gfn, &mut self.buddy)
    }

    /// Whether [`GuestOs::hold_fragmenting_pattern`] accepts `run_length`:
    /// a nonzero power of two.
    #[must_use]
    pub fn valid_run_length(run_length: u64) -> bool {
        run_length.is_power_of_two()
    }

    /// Artificially fragments free physical memory: allocates everything,
    /// then frees alternating aligned runs of `run_length` frames, keeping
    /// the rest pinned. Models a long-running VM whose free memory is
    /// externally fragmented — blocks up to order log2(`run_length`) remain
    /// available, larger ones do not. Returns the pinned frames; they stay
    /// unavailable until freed by the caller.
    ///
    /// # Panics
    ///
    /// Panics if `run_length` is zero or not a power of two.
    pub fn hold_fragmenting_pattern(&mut self, run_length: u64) -> Vec<GuestFrame> {
        assert!(
            Self::valid_run_length(run_length),
            "run length must be a power of two"
        );
        let mut taken = Vec::new();
        while let Ok(f) = self.buddy.alloc(0) {
            taken.push(f);
        }
        let mut held = Vec::new();
        for f in taken {
            if (f.raw() / run_length).is_multiple_of(2) {
                self.buddy.free(f, 0).expect("just allocated");
            } else {
                held.push(f);
            }
        }
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os() -> GuestOs {
        GuestOs::new(4096, Box::new(DefaultAllocator::new()))
    }

    #[test]
    fn spawn_assigns_fresh_pids() {
        let mut g = os();
        let a = g.spawn();
        let b = g.spawn();
        assert_ne!(a, b);
        assert!(g.process(a).is_ok());
        assert!(g.process(Pid(999)).is_err());
    }

    #[test]
    fn mmap_creates_vma_without_touching_memory() {
        let mut g = os();
        let pid = g.spawn();
        let free_before = g.buddy().free_frames();
        let va = g.mmap(pid, 100).unwrap();
        assert_eq!(g.buddy().free_frames(), free_before);
        assert!(g.process(pid).unwrap().vmas.find(va.page()).is_some());
    }

    #[test]
    fn fault_maps_one_page_lazily() {
        let mut g = os();
        let pid = g.spawn();
        let va = g.mmap(pid, 8).unwrap();
        let info = g.page_fault(pid, va.page()).unwrap();
        assert_eq!(info.cost.buddy_calls, 1);
        assert!(info.pt_node_allocs >= 3, "fresh PT path built");
        assert_eq!(g.process(pid).unwrap().rss_pages, 1);
        assert_eq!(
            g.process(pid).unwrap().page_table.translate(va.page()),
            Some(info.gfn)
        );
    }

    #[test]
    fn fault_outside_vma_is_segfault() {
        let mut g = os();
        let pid = g.spawn();
        assert!(matches!(
            g.page_fault(pid, GuestVirtPage::new(0x1)),
            Err(MemError::Unmapped { .. })
        ));
    }

    #[test]
    fn double_fault_is_rejected() {
        let mut g = os();
        let pid = g.spawn();
        let va = g.mmap(pid, 1).unwrap();
        g.page_fault(pid, va.page()).unwrap();
        assert!(matches!(
            g.page_fault(pid, va.page()),
            Err(MemError::AlreadyMapped { .. })
        ));
    }

    #[test]
    fn colocated_faults_interleave_frames() {
        // The phenomenon under study: two processes faulting alternately get
        // interleaved guest-physical frames with the default allocator.
        let mut g = os();
        let a = g.spawn();
        let b = g.spawn();
        let va_a = g.mmap(a, 8).unwrap();
        let va_b = g.mmap(b, 8).unwrap();
        let mut a_frames = Vec::new();
        for i in 0..8 {
            let fa = g
                .page_fault(a, GuestVirtPage::new(va_a.page().raw() + i))
                .unwrap();
            g.page_fault(b, GuestVirtPage::new(va_b.page().raw() + i))
                .unwrap();
            a_frames.push(fa.gfn.raw());
        }
        // A's frames are not contiguous (gaps where B's faults landed).
        assert!(a_frames.windows(2).any(|w| w[1] - w[0] > 1));
    }

    #[test]
    fn munmap_frees_frames_and_reports_pages() {
        let mut g = os();
        let pid = g.spawn();
        let va = g.mmap(pid, 4).unwrap();
        for i in 0..4 {
            g.page_fault(pid, GuestVirtPage::new(va.page().raw() + i))
                .unwrap();
        }
        let free_before = g.buddy().free_frames();
        let unmapped = g.munmap(pid, va.page(), 4).unwrap();
        assert_eq!(unmapped.len(), 4);
        assert_eq!(g.buddy().free_frames(), free_before + 4);
        assert_eq!(g.process(pid).unwrap().rss_pages, 0);
    }

    #[test]
    fn fork_shares_pages_cow() {
        let mut g = os();
        let parent = g.spawn();
        let va = g.mmap(parent, 2).unwrap();
        let f = g.page_fault(parent, va.page()).unwrap();
        let child = g.fork(parent).unwrap();
        // Same frame, both COW.
        let p_pte = g
            .process(parent)
            .unwrap()
            .page_table
            .lookup(va.page())
            .unwrap();
        let c_pte = g
            .process(child)
            .unwrap()
            .page_table
            .lookup(va.page())
            .unwrap();
        assert_eq!(p_pte.frame(), f.gfn);
        assert_eq!(c_pte.frame(), f.gfn);
        assert!(p_pte.is_cow() && c_pte.is_cow());
        assert!(!p_pte.is_writable() && !c_pte.is_writable());
        assert_eq!(g.process(child).unwrap().parent, Some(parent));
    }

    #[test]
    fn cow_break_copies_once() {
        let mut g = os();
        let parent = g.spawn();
        let va = g.mmap(parent, 1).unwrap();
        let f = g.page_fault(parent, va.page()).unwrap();
        let child = g.fork(parent).unwrap();
        // Child writes: gets a private copy.
        let (child_gfn, copied) = g.write_fault(child, va.page()).unwrap();
        assert!(copied);
        assert_ne!(child_gfn, f.gfn);
        // Parent writes: now sole owner, no copy needed.
        let (parent_gfn, copied2) = g.write_fault(parent, va.page()).unwrap();
        assert!(!copied2);
        assert_eq!(parent_gfn, f.gfn);
        let p_pte = g
            .process(parent)
            .unwrap()
            .page_table
            .lookup(va.page())
            .unwrap();
        assert!(p_pte.is_writable() && !p_pte.is_cow());
        assert_eq!(g.stats().cow_breaks, 1);
    }

    #[test]
    fn write_fault_on_private_page_is_noop() {
        let mut g = os();
        let pid = g.spawn();
        let va = g.mmap(pid, 1).unwrap();
        let f = g.page_fault(pid, va.page()).unwrap();
        let (gfn, copied) = g.write_fault(pid, va.page()).unwrap();
        assert_eq!(gfn, f.gfn);
        assert!(!copied);
    }

    #[test]
    fn shared_frame_freed_only_at_last_unmap() {
        let mut g = os();
        let parent = g.spawn();
        let va = g.mmap(parent, 1).unwrap();
        g.page_fault(parent, va.page()).unwrap();
        let child = g.fork(parent).unwrap();
        let free_before = g.buddy().free_frames();
        g.munmap(parent, va.page(), 1).unwrap();
        // Child still holds the frame.
        assert_eq!(g.buddy().free_frames(), free_before);
        g.munmap(child, va.page(), 1).unwrap();
        assert_eq!(g.buddy().free_frames(), free_before + 1);
    }

    #[test]
    fn exit_releases_everything() {
        let mut g = os();
        let pid = g.spawn();
        let va = g.mmap(pid, 16).unwrap();
        for i in 0..16 {
            g.page_fault(pid, GuestVirtPage::new(va.page().raw() + i))
                .unwrap();
        }
        let total = g.buddy().total_frames();
        g.exit(pid).unwrap();
        assert_eq!(g.buddy().free_frames(), total);
        assert!(g.process(pid).is_err());
    }

    #[test]
    fn for_each_mapped_visits_only_mapped_pages() {
        let mut g = os();
        let pid = g.spawn();
        let va = g.mmap(pid, 8).unwrap();
        g.page_fault(pid, va.page()).unwrap();
        g.page_fault(pid, GuestVirtPage::new(va.page().raw() + 3))
            .unwrap();
        let mut seen = Vec::new();
        g.for_each_mapped(pid, |vpn, _| seen.push(vpn.raw() - va.page().raw()))
            .unwrap();
        assert_eq!(seen, vec![0, 3]);
    }

    /// A toy THP-like allocator for exercising the huge-grant OS paths
    /// without depending on the `ptemagnet` crate (which sits above us).
    #[derive(Debug, Default)]
    struct ToyHuge;

    impl GuestFrameAllocator for ToyHuge {
        fn name(&self) -> &'static str {
            "toy-huge"
        }

        fn allocate(
            &mut self,
            _pid: Pid,
            _vpn: GuestVirtPage,
            buddy: &mut GuestBuddy,
        ) -> Result<(GuestFrame, AllocCost)> {
            Ok((buddy.alloc(0)?, AllocCost::default()))
        }

        fn allocate_grant(
            &mut self,
            pid: Pid,
            vpn: GuestVirtPage,
            huge_candidate: bool,
            buddy: &mut GuestBuddy,
        ) -> Result<(crate::guest::AllocGrant, AllocCost)> {
            if huge_candidate {
                if let Ok(chunk) = buddy.alloc(9) {
                    buddy.fragment_allocation(chunk, 9).unwrap();
                    return Ok((crate::guest::AllocGrant::Huge(chunk), AllocCost::default()));
                }
            }
            let (g, c) = self.allocate(pid, vpn, buddy)?;
            Ok((crate::guest::AllocGrant::Small(g), c))
        }

        fn free(
            &mut self,
            _pid: Pid,
            _vpn: GuestVirtPage,
            gfn: GuestFrame,
            buddy: &mut GuestBuddy,
        ) -> Result<()> {
            buddy.free(gfn, 0)
        }
    }

    fn huge_os() -> GuestOs {
        GuestOs::new(4096, Box::new(ToyHuge))
    }

    #[test]
    fn huge_fault_maps_whole_region() {
        let mut g = huge_os();
        let pid = g.spawn();
        let va = g.mmap(pid, 1024).unwrap();
        let info = g.page_fault(pid, va.page()).unwrap();
        assert!(info.huge);
        assert_eq!(g.process(pid).unwrap().rss_pages, 512);
        // Every page of the region translates without further faults.
        let pt = &g.process(pid).unwrap().page_table;
        assert!(pt.is_huge_mapping(va.page()));
        for i in 0..512u64 {
            assert!(pt
                .translate(GuestVirtPage::new(va.page().raw() + i))
                .is_some());
        }
        // Faulting inside the region again is AlreadyMapped.
        assert!(matches!(
            g.page_fault(pid, GuestVirtPage::new(va.page().raw() + 7)),
            Err(MemError::AlreadyMapped { .. })
        ));
    }

    #[test]
    fn small_region_is_not_a_huge_candidate() {
        let mut g = huge_os();
        let pid = g.spawn();
        let va = g.mmap(pid, 8).unwrap(); // smaller than 2 MB
        let info = g.page_fault(pid, va.page()).unwrap();
        assert!(!info.huge);
        assert_eq!(g.process(pid).unwrap().rss_pages, 1);
    }

    #[test]
    fn munmap_demotes_then_frees_everything() {
        let mut g = huge_os();
        let pid = g.spawn();
        let va = g.mmap(pid, 1024).unwrap();
        g.page_fault(pid, va.page()).unwrap();
        let before = g.buddy().free_frames();
        // Unmap half the huge region: demotion, then 256 frees.
        let unmapped = g.munmap(pid, va.page(), 256).unwrap();
        assert_eq!(unmapped.len(), 256);
        // 256 frames back, minus the new leaf node taken for demotion.
        assert_eq!(g.buddy().free_frames(), before + 256 - 1);
        assert_eq!(g.process(pid).unwrap().rss_pages, 256);
        assert!(!g
            .process(pid)
            .unwrap()
            .page_table
            .is_huge_mapping(GuestVirtPage::new(va.page().raw() + 300)));
    }

    #[test]
    fn fork_splits_huge_mappings_for_cow() {
        let mut g = huge_os();
        let parent = g.spawn();
        let va = g.mmap(parent, 1024).unwrap();
        g.page_fault(parent, va.page()).unwrap();
        let child = g.fork(parent).unwrap();
        // Post-fork both sides see 4 KB COW mappings of the same frames.
        let p_pte = g
            .process(parent)
            .unwrap()
            .page_table
            .lookup(va.page())
            .unwrap();
        assert!(!p_pte.is_huge());
        assert!(p_pte.is_cow());
        let (gfn, copied) = g.write_fault(child, va.page()).unwrap();
        assert!(copied);
        assert_ne!(gfn, p_pte.frame());
        // Exit both; everything returns.
        let total = g.buddy().total_frames();
        g.exit(child).unwrap();
        g.exit(parent).unwrap();
        assert_eq!(g.buddy().free_frames(), total);
    }

    #[test]
    fn xlate_gen_moves_only_on_mapping_mutations() {
        let mut g = os();
        let pid = g.spawn();
        assert_eq!(g.xlate_gen(pid), 0);
        let va = g.mmap(pid, 4).unwrap();
        // Filling empty slots never invalidates a cached translation.
        g.page_fault(pid, va.page()).unwrap();
        assert_eq!(g.xlate_gen(pid), 0);
        // Write fault on a private page mutates nothing.
        g.write_fault(pid, va.page()).unwrap();
        assert_eq!(g.xlate_gen(pid), 0);
        // Fork downgrades the parent's PTEs to COW.
        let child = g.fork(pid).unwrap();
        let after_fork = g.xlate_gen(pid);
        assert!(after_fork > 0);
        assert_eq!(g.xlate_gen(child), 0);
        // COW break (child) and restore-write (parent, sole owner) both bump.
        g.write_fault(child, va.page()).unwrap();
        assert_eq!(g.xlate_gen(child), 1);
        g.write_fault(pid, va.page()).unwrap();
        assert_eq!(g.xlate_gen(pid), after_fork + 1);
        // munmap and exit bump.
        let before = g.xlate_gen(pid);
        g.munmap(pid, va.page(), 1).unwrap();
        assert!(g.xlate_gen(pid) > before);
        let before = g.xlate_gen(child);
        g.exit(child).unwrap();
        assert!(g.xlate_gen(child) > before);
    }

    #[test]
    fn stats_count_events() {
        let mut g = os();
        let pid = g.spawn();
        let va = g.mmap(pid, 2).unwrap();
        g.page_fault(pid, va.page()).unwrap();
        g.fork(pid).unwrap();
        let s = g.stats();
        assert_eq!(s.faults, 1);
        assert_eq!(s.forks, 1);
        assert!(s.allocator_buddy_calls >= 1);
    }
}
