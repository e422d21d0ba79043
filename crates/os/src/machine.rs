//! The assembled virtual machine: guest OS + host OS + hardware models,
//! including the nested (2D) page-walk engine.
//!
//! [`Machine::touch`] is the simulator's inner loop: it plays one memory
//! access by one guest process on one core, serving guest/host page faults,
//! consulting the TLB, performing the nested walk on a miss (charging every
//! page-table access to the cache hierarchy), and finally accessing the data
//! line — returning the total cycle cost. The up-to-24-access structure of a
//! 2D walk (paper §2.5: 4 guest-PT accesses, each needing up to 4 host-PT
//! accesses, plus a final host walk for the data page) arises naturally;
//! page-walk caches and the nested TLB short-circuit most upper-level
//! accesses exactly as hardware does, leaving leaf PTE fetches dominant.

use serde::{Deserialize, Serialize};
use vmsim_buddy::FragmentationIndex;
use vmsim_cache::{
    AccessKind, CacheHierarchy, HierarchyConfig, Histogram, PageWalkCaches, PwcConfig, Tlb,
    TlbConfig,
};
use vmsim_obs::Phase;
use vmsim_pt::LineCensus;
use vmsim_types::{
    FaultInjector, FaultPlan, GuestFrame, GuestVirtAddr, GuestVirtPage, HostFrame, HostPhysAddr,
    HostVirtPage, MemError, Result, GROUP_PAGES, PAGE_SHIFT, PTE_SIZE, PT_LEVELS,
};

use crate::cost::CostModel;
use crate::guest::{DefaultAllocator, GuestFrameAllocator, GuestOs};
use crate::host::HostOs;
use crate::process::Pid;

/// Full machine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Guest-physical frames (VM RAM size in pages).
    pub guest_frames: u64,
    /// Host-physical frames (machine RAM size in pages).
    pub host_frames: u64,
    /// Host-virtual page where the VM's guest-physical range is mapped.
    pub vm_base: u64,
    /// Cache hierarchy geometry and latencies.
    pub hierarchy: HierarchyConfig,
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// Page-walk-cache / nested-TLB geometry.
    pub pwc: PwcConfig,
    /// Software event costs.
    pub cost: CostModel,
}

impl MachineConfig {
    /// Most cores one machine simulates.
    pub const MAX_CORES: usize = 64;

    /// Most simulated memory one machine holds, in frames: the guest frames
    /// of every VM plus the host pool (2^26 frames, 256 GiB).
    pub const MAX_FRAMES: u64 = 1 << 26;

    /// A small configuration for unit tests and examples: 64 MB guest RAM,
    /// tiny caches, 2 cores.
    pub fn small() -> Self {
        Self {
            guest_frames: 1 << 14,
            host_frames: 1 << 15,
            vm_base: 1 << 20,
            hierarchy: HierarchyConfig::tiny(2),
            tlb: TlbConfig::default(),
            pwc: PwcConfig::default(),
            cost: CostModel::default(),
        }
    }

    /// A scaled-down version of the paper's platform (Table 2): Broadwell
    /// cache geometry with `cores` cores and `guest_mb` of VM RAM (the
    /// evaluation scales the paper's 64 GB VM by keeping the ratio of
    /// workload footprint to LLC capacity in the same regime). Sizes past
    /// `u64` saturate; [`MachineConfig::check`] rejects them.
    pub fn paper(cores: usize, guest_mb: u64) -> Self {
        let guest_frames = guest_mb.saturating_mul(256); // 256 pages per MB
        Self {
            guest_frames,
            host_frames: guest_frames.saturating_mul(2),
            vm_base: 1 << 24,
            hierarchy: HierarchyConfig::broadwell(cores),
            tlb: TlbConfig::default(),
            pwc: PwcConfig::default(),
            cost: CostModel::default(),
        }
    }

    /// Checks the shape a [`Machine`] of `vms` guest VMs needs, the rules
    /// its constructors assert: 1..=[`MachineConfig::MAX_CORES`] cores,
    /// every cache, TLB and walk-cache level with a power-of-two set count,
    /// at least one guest and one host frame, and at most
    /// [`MachineConfig::MAX_FRAMES`] frames of simulated memory in all.
    ///
    /// # Errors
    ///
    /// Returns the first rule the configuration breaks.
    pub fn check(&self, vms: usize) -> core::result::Result<(), ShapeError> {
        let cores = self.hierarchy.cores;
        if cores == 0 || cores > Self::MAX_CORES {
            return Err(ShapeError::Cores(cores));
        }
        let caches = [
            ("L1", self.hierarchy.l1),
            ("L2", self.hierarchy.l2),
            ("LLC", self.hierarchy.llc),
        ];
        if let Some((level, _)) = caches.iter().find(|(_, c)| !c.is_valid()) {
            return Err(ShapeError::Cache(level));
        }
        if !self.tlb.is_valid() {
            return Err(ShapeError::Tlb);
        }
        if !self.pwc.is_valid() {
            return Err(ShapeError::WalkCaches);
        }
        if self.guest_frames == 0 || self.host_frames == 0 {
            return Err(ShapeError::NoFrames);
        }
        let frames = (vms as u64)
            .saturating_mul(self.guest_frames)
            .saturating_add(self.host_frames);
        if frames > Self::MAX_FRAMES {
            return Err(ShapeError::Memory(frames));
        }
        Ok(())
    }
}

/// A rule of [`MachineConfig::check`] that a configuration breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeError {
    /// The core count is zero or above [`MachineConfig::MAX_CORES`].
    Cores(usize),
    /// The named cache level's set count is zero or not a power of two.
    Cache(&'static str),
    /// A TLB level's set count is zero or not a power of two.
    Tlb,
    /// A page-walk cache's or the nested TLB's set count is not a power of
    /// two.
    WalkCaches,
    /// The guest or the host has no frames.
    NoFrames,
    /// This many frames of simulated memory exceed
    /// [`MachineConfig::MAX_FRAMES`].
    Memory(u64),
}

impl core::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Cores(n) => write!(
                f,
                "{n} cores: a machine has 1..={} cores",
                MachineConfig::MAX_CORES
            ),
            Self::Cache(level) => write!(
                f,
                "bad cache geometry: the {level} set count must be a power of two"
            ),
            Self::Tlb => f.write_str(
                "bad TLB geometry: each level's set count (entries / ways) must be a power of two",
            ),
            Self::WalkCaches => f.write_str(
                "bad walk-cache geometry: each page-walk cache's and the nested TLB's set count \
                 (entries / ways) must be a power of two",
            ),
            Self::NoFrames => f.write_str("a machine needs at least one guest and one host frame"),
            Self::Memory(frames) => write!(
                f,
                "{frames} frames of simulated memory (every VM's guest frames plus the host pool) \
                 exceed the cap of {} frames",
                MachineConfig::MAX_FRAMES
            ),
        }
    }
}

impl std::error::Error for ShapeError {}

/// Outcome of one [`Machine::touch`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TouchOutcome {
    /// Total cycles charged for the access (software + hardware).
    pub cycles: u64,
    /// Whether the translation hit in the TLB.
    pub tlb_hit: bool,
    /// Whether a guest page fault was served.
    pub faulted: bool,
    /// Whether a COW break copied the page.
    pub cow_break: bool,
    /// Host faults served while backing frames for this access.
    pub host_faults: u32,
}

/// Number of slots in each core's direct-mapped memo table (power of two).
const MEMO_SLOTS: usize = 4096;

/// One memoized translation: the proof that a repeat touch of `va` by `pid`
/// is a pure TLB-L1 + data-L1 hit whose only observable effects are counter
/// increments and a fixed cycle charge.
///
/// The proof is a fingerprint of everything the warm path depends on:
/// the process's translation generation (mapping + COW state unchanged),
/// the TLB-L1 set epoch (entry still resident and still MRU, so its LRU
/// promotion is a no-op), and the data-L1 set epoch (likewise for the data
/// line). Any intervening activity that could change the outcome bumps one
/// of the three, and the slot silently stops matching.
#[derive(Clone, Copy, Debug)]
struct MemoSlot {
    /// Owning process; 0 marks an empty slot (pids start at 1).
    pid: u64,
    /// The exact virtual address (page + offset: the offset picks the data
    /// cache line).
    va: u64,
    /// [`GuestOs::xlate_gen`] of `pid` at fill time.
    gen: u64,
    /// L1 TLB set of the translation, captured at fill so validation needs
    /// no lookup.
    tlb_set: u32,
    /// L1 data-cache set of the data line, likewise.
    data_set: u32,
    /// [`Tlb::l1_set_epoch_at`] of `tlb_set` at fill time.
    tlb_epoch: u64,
    /// [`CacheHierarchy::l1_set_epoch_at`] of `data_set` at fill time.
    data_epoch: u64,
    /// Whether a *write* can replay: the page is mapped writable (not COW).
    /// Reads replay regardless.
    write_ok: bool,
}

impl MemoSlot {
    const EMPTY: Self = Self {
        pid: 0,
        va: 0,
        gen: 0,
        tlb_set: 0,
        data_set: 0,
        tlb_epoch: 0,
        data_epoch: 0,
        write_ok: false,
    };
}

/// Counters of the memo layer, reported separately from
/// [`Machine::metrics_snapshot`] so memoization stays invisible to the
/// simulation's observable state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Touches replayed from a memo slot (full fingerprint validation).
    pub hits: u64,
    /// Always 0: every replay is a memo-slot replay, counted in `hits`.
    /// Kept only so existing readers of the field still compile.
    pub streak_hits: u64,
    /// Memo slots (re)filled after a slow-path touch.
    pub fills: u64,
    /// Touches served by the full naive path (faults, TLB, walks).
    pub naive_walks: u64,
    /// Whole-table clears (fault-plan trigger fired, translation state
    /// flushed, or a plan was installed).
    pub clears: u64,
}

/// One tenant VM on the host: its guest kernel plus its slot in the host's
/// virtual address space. A classic single-guest [`Machine`] is simply a
/// host with one `GuestVm` whose slot starts at `config.vm_base`.
#[derive(Debug)]
pub struct GuestVm {
    guest: GuestOs,
    /// First host-virtual page of this VM's guest-physical slot; guest
    /// frame `g` of this VM lives at host-virtual page `base + g`.
    base: HostVirtPage,
    /// Guest frames pinned by the balloon driver: allocated from the guest
    /// buddy (so the guest cannot use them) with their host backing
    /// released (so the host can hand the frames to other VMs).
    ballooned: Vec<GuestFrame>,
    /// Times this VM slot has booted (1 after construction).
    boots: u64,
    /// False between a kill and the next boot.
    running: bool,
}

impl GuestVm {
    fn new(guest: GuestOs, base: HostVirtPage) -> Self {
        Self {
            guest,
            base,
            ballooned: Vec::new(),
            boots: 1,
            running: true,
        }
    }
}

/// Per-VM allocator factory for multi-tenant machines: rebooting a VM slot
/// needs a fresh policy instance, so the machine keeps the recipe, not just
/// the product.
struct AllocFactory(Box<dyn Fn(usize) -> Box<dyn GuestFrameAllocator>>);

impl std::fmt::Debug for AllocFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AllocFactory")
    }
}

/// The assembled machine: one host plus its tenant VMs and hardware state.
///
/// The classic constructors ([`Machine::new`], [`Machine::with_allocator`])
/// build a single-tenant machine and every historical accessor
/// ([`Machine::guest`], [`Machine::touch`], …) operates on VM 0, so
/// existing callers observe bit-identical behaviour. A multi-tenant host
/// is built with [`Machine::multi_tenant`] and driven through the
/// `*_vm` methods plus the VM lifecycle API ([`Machine::kill_vm`],
/// [`Machine::boot_vm`], [`Machine::balloon_vm`]).
#[derive(Debug)]
pub struct Machine {
    vms: Vec<GuestVm>,
    host: HostOs,
    /// Recipe for per-VM allocators; present only on multi-tenant machines
    /// (needed to reboot a killed VM slot with a fresh policy instance).
    factory: Option<AllocFactory>,
    caches: CacheHierarchy,
    tlbs: Vec<Tlb>,
    pwcs: Vec<PageWalkCaches>,
    /// Per-core direct-mapped memo tables (see [`MemoSlot`]).
    memos: Vec<Box<[MemoSlot]>>,
    /// When false, every touch takes the naive path (the reference the
    /// memo layer is checked against).
    memo_enabled: bool,
    memo_stats: MemoStats,
    /// Per-core nested-walk latency distributions.
    walk_hist: Vec<Histogram>,
    /// Per-core fault-service latency distributions (guest fault + backing).
    fault_hist: Vec<Histogram>,
    cost: CostModel,
    config: MachineConfig,
    /// Monotonic count of [`Machine::touch`] calls — the sim-op clock that
    /// timestamps observability snapshots and trace events.
    ops: u64,
    /// Optional event tracer. `None` (the default) costs one branch per
    /// event site and keeps the simulation outcome bit-identical.
    tracer: Option<vmsim_obs::Tracer>,
    /// Optional phase profiler. Same contract as the tracer: `None` costs
    /// one branch per span site and the simulation outcome is
    /// bit-identical with profiling on or off (the profiler only reads
    /// wall clocks and already-computed cycle charges).
    prof: Option<vmsim_obs::Profiler>,
    /// Optional fault-injection driver. `None` (the default) costs one
    /// branch per op; the probabilistic injector itself lives inside the
    /// guest buddy allocator.
    faults: Option<FaultDriver>,
    /// Simulated guest threads declared by the driving engine. 1 (the
    /// default) keeps the serial fault path bit-identical: no per-thread
    /// bookkeeping runs and no `threads.*` gauges are emitted.
    guest_threads: u32,
    /// Thread the engine reports as currently executing (`<
    /// guest_threads`); guest faults are attributed to it.
    active_thread: u32,
    /// Guest page faults taken while each thread was active.
    thread_faults: Vec<u64>,
    /// Ring of recent fault origins, as (group key, thread): a fault into
    /// an 8-page reservation group another thread faulted recently is a
    /// *contended* group — the interleaving the lock-free PaRT exists to
    /// serve without serializing.
    recent_fault_groups: [(u64, u32); RECENT_FAULT_GROUPS],
    recent_fault_pos: usize,
    /// Faults landing in a recently-cross-thread-faulted group.
    contended_group_faults: u64,
}

/// Depth of the recent-fault-group ring used for contention detection.
const RECENT_FAULT_GROUPS: usize = 16;

/// Ring sentinel: no real group key uses thread `u32::MAX`.
const NO_RECENT_FAULT: (u64, u32) = (u64::MAX, u32::MAX);

/// Machine-level state of an installed [`vmsim_types::FaultPlan`]: the
/// scheduled triggers (fragmentation shocks, reclaim storms, swap-outs,
/// daemon passes) and their counters. Per-allocation denial rolls live in
/// the injector installed into the guest buddy allocator.
#[derive(Clone, Copy, Debug)]
struct FaultDriver {
    plan: FaultPlan,
    frag_shocks: u64,
    reclaim_storms: u64,
    swap_outs: u64,
    daemon_passes: u64,
    oom_retries: u64,
    /// Frames released by storms, daemon passes, swap-outs, and OOM-retry
    /// reclaims driven by the plan.
    reclaimed_frames: u64,
}

impl FaultDriver {
    fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            frag_shocks: 0,
            reclaim_storms: 0,
            swap_outs: 0,
            daemon_passes: 0,
            oom_retries: 0,
            reclaimed_frames: 0,
        }
    }
}

impl Machine {
    /// Builds a machine with the stock Linux-like allocator.
    pub fn new(config: MachineConfig) -> Self {
        Self::with_allocator(config, Box::new(DefaultAllocator::new()))
    }

    /// Builds a machine with a custom guest frame allocator (PTEMagnet plugs
    /// in here).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`MachineConfig::check`].
    pub fn with_allocator(config: MachineConfig, allocator: Box<dyn GuestFrameAllocator>) -> Self {
        if let Err(e) = config.check(1) {
            panic!("invalid machine config: {e}");
        }
        let cores = config.hierarchy.cores;
        Self {
            vms: vec![GuestVm::new(
                GuestOs::new(config.guest_frames, allocator),
                HostVirtPage::new(config.vm_base),
            )],
            host: HostOs::new(config.host_frames, HostVirtPage::new(config.vm_base)),
            factory: None,
            caches: CacheHierarchy::new(config.hierarchy),
            tlbs: (0..cores).map(|_| Tlb::new(config.tlb)).collect(),
            pwcs: (0..cores)
                .map(|_| PageWalkCaches::new(config.pwc))
                .collect(),
            memos: (0..cores)
                .map(|_| vec![MemoSlot::EMPTY; MEMO_SLOTS].into_boxed_slice())
                .collect(),
            memo_enabled: true,
            memo_stats: MemoStats::default(),
            walk_hist: (0..cores).map(|_| Histogram::new()).collect(),
            fault_hist: (0..cores).map(|_| Histogram::new()).collect(),
            cost: config.cost,
            config,
            ops: 0,
            tracer: None,
            prof: None,
            faults: None,
            guest_threads: 1,
            active_thread: 0,
            thread_faults: vec![0],
            recent_fault_groups: [NO_RECENT_FAULT; RECENT_FAULT_GROUPS],
            recent_fault_pos: 0,
            contended_group_faults: 0,
        }
    }

    /// Builds a multi-tenant host: `vm_count` independent guest VMs, each
    /// with `config.guest_frames` of guest-physical memory and its own
    /// allocator built by `factory(vm)`, all sharing one host pool of
    /// `config.host_frames` frames (the caller sizes the pool for the
    /// desired overcommit ratio). VM `i`'s guest-physical slot is mapped at
    /// host-virtual page `config.vm_base + i * config.guest_frames`.
    ///
    /// A 1-VM multi-tenant machine behaves bit-identically to
    /// [`Machine::with_allocator`] with the same config and allocator.
    ///
    /// # Panics
    ///
    /// Panics if `vm_count` is zero or `config` fails
    /// [`MachineConfig::check`] for `vm_count` VMs.
    pub fn multi_tenant(
        config: MachineConfig,
        vm_count: usize,
        factory: impl Fn(usize) -> Box<dyn GuestFrameAllocator> + 'static,
    ) -> Self {
        assert!(vm_count > 0, "a host needs at least one VM");
        if let Err(e) = config.check(vm_count) {
            panic!("invalid machine config: {e}");
        }
        let mut machine = Self::with_allocator(config, factory(0));
        for vm in 1..vm_count {
            machine.vms.push(GuestVm::new(
                GuestOs::new(config.guest_frames, factory(vm)),
                HostVirtPage::new(config.vm_base + vm as u64 * config.guest_frames),
            ));
        }
        machine.factory = Some(AllocFactory(Box::new(factory)));
        machine
    }

    /// Composed TLB/PWC address-space id for (`vm`, `pid`): VM 0 keeps the
    /// raw pid, so single-tenant machines are bit-compatible with the
    /// historical single-guest encoding.
    #[inline]
    fn asid_of(vm: usize, pid: Pid) -> u64 {
        ((vm as u64) << 32) | pid.0
    }

    /// Host-virtual page backing guest frame `gfn` of VM `vm`.
    #[inline]
    fn hvpn_in(&self, vm: usize, gfn: GuestFrame) -> HostVirtPage {
        HostVirtPage::new(self.vms[vm].base.raw() + gfn.raw())
    }

    /// Nested-TLB/PWC key for guest frame `gfn` of VM `vm`: guest-frame
    /// numbers collide across VMs, so the key is namespaced by the VM's
    /// slot index (identity for VM 0).
    #[inline]
    fn nested_key(&self, vm: usize, gfn: GuestFrame) -> GuestFrame {
        GuestFrame::new(vm as u64 * self.config.guest_frames + gfn.raw())
    }

    /// Number of [`Machine::touch`] calls played so far (the sim-op clock).
    pub fn ops_executed(&self) -> u64 {
        self.ops
    }

    /// Installs an event tracer; subsequent faults, walks, and reservation
    /// activity emit typed events into it.
    pub fn install_tracer(&mut self, tracer: vmsim_obs::Tracer) {
        self.tracer = Some(tracer);
    }

    /// Removes and returns the tracer (with every retained event), if one
    /// was installed.
    pub fn take_tracer(&mut self) -> Option<vmsim_obs::Tracer> {
        self.tracer.take()
    }

    /// The installed tracer, if any.
    pub fn tracer(&self) -> Option<&vmsim_obs::Tracer> {
        self.tracer.as_ref()
    }

    /// Installs a phase profiler; translation phases accrue wall-clock
    /// self-time and simulated cycles into it until it is taken back.
    pub fn install_profiler(&mut self, prof: vmsim_obs::Profiler) {
        self.prof = Some(prof);
    }

    /// Removes and returns the profiler (with its accumulated phase
    /// totals), if one was installed.
    pub fn take_profiler(&mut self) -> Option<vmsim_obs::Profiler> {
        self.prof.take()
    }

    /// The installed profiler, if any.
    pub fn profiler(&self) -> Option<&vmsim_obs::Profiler> {
        self.prof.as_ref()
    }

    /// Opens a profiler span for caller-side phases (the engine's
    /// workload loop, the scenario's epoch sampling). No-op when no
    /// profiler is installed.
    #[inline]
    pub fn prof_enter(&mut self, phase: vmsim_obs::Phase) {
        if let Some(p) = self.prof.as_mut() {
            p.begin(phase);
        }
    }

    /// Closes the innermost profiler span opened by [`Machine::prof_enter`]
    /// (or internally). No-op when no profiler is installed.
    #[inline]
    pub fn prof_exit(&mut self) {
        if let Some(p) = self.prof.as_mut() {
            p.end();
        }
    }

    /// Charges simulated cycles to a phase. No-op when no profiler is
    /// installed.
    #[inline]
    fn prof_cycles(&mut self, phase: vmsim_obs::Phase, cycles: u64) {
        if let Some(p) = self.prof.as_mut() {
            p.add_cycles(phase, cycles);
        }
    }

    /// Installs a fault plan: a seeded injector goes into the guest buddy
    /// allocator (per-allocation denial rolls) and this machine drives the
    /// plan's scheduled triggers on every [`Machine::touch`]. The decision
    /// stream is a pure function of `(plan, run_seed)`, so faulted runs are
    /// bit-reproducible regardless of worker-pool width.
    ///
    /// On a multi-tenant host the plan arms VM 0's guest only: the injector
    /// sits in VM 0's buddy allocator and every scheduled trigger acts on
    /// VM 0. Other VMs, and VMs rebooted by [`Machine::boot_vm`], never roll
    /// denials. The triggers still fire on the host-wide op clock, so a
    /// neighbour's touches advance the schedule.
    pub fn install_faults(&mut self, plan: FaultPlan, run_seed: u64) {
        self.vms[0]
            .guest
            .buddy_mut()
            .set_fault_injector(FaultInjector::new(&plan, run_seed));
        self.faults = Some(FaultDriver::new(plan));
        self.clear_memos();
    }

    /// Enables or disables the translation memo layer. Disabling clears the
    /// tables so a later re-enable starts from a clean slate. Memoization
    /// is validated to be bit-invisible, so this only affects wall-clock
    /// speed.
    pub fn set_memo_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.clear_memos();
            self.memo_stats = MemoStats::default();
        }
        self.memo_enabled = enabled;
    }

    /// Whether the memo layer is active.
    pub fn memo_enabled(&self) -> bool {
        self.memo_enabled
    }

    /// Declares how many simulated guest threads the driving engine
    /// interleaves. With `threads == 1` (the default) the machine does no
    /// per-thread bookkeeping and its observable state is bit-identical to
    /// a machine that never heard of threads; above 1 it attributes guest
    /// faults to the active thread and tracks cross-thread group
    /// contention. Resets any previous per-thread tallies.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn set_guest_threads(&mut self, threads: u32) {
        assert!(threads >= 1, "a guest needs at least one thread");
        self.guest_threads = threads;
        self.active_thread = 0;
        self.thread_faults = vec![0; threads as usize];
        self.recent_fault_groups = [NO_RECENT_FAULT; RECENT_FAULT_GROUPS];
        self.recent_fault_pos = 0;
        self.contended_group_faults = 0;
    }

    /// Declared simulated guest thread count (1 unless an engine raised it).
    pub fn guest_threads(&self) -> u32 {
        self.guest_threads
    }

    /// Marks `thread` as the one currently executing; subsequent guest
    /// faults are attributed to it.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is outside the declared thread count.
    pub fn set_active_thread(&mut self, thread: u32) {
        assert!(
            thread < self.guest_threads,
            "thread {thread} out of range (guest has {} threads)",
            self.guest_threads
        );
        self.active_thread = thread;
    }

    /// The thread faults are currently attributed to.
    pub fn active_thread(&self) -> u32 {
        self.active_thread
    }

    /// Guest faults taken per thread (index = thread id).
    pub fn thread_faults(&self) -> &[u64] {
        &self.thread_faults
    }

    /// Faults that landed in an 8-page reservation group another thread
    /// had faulted into recently — the interleavings that contend on one
    /// PaRT leaf word.
    pub fn contended_group_faults(&self) -> u64 {
        self.contended_group_faults
    }

    /// Attributes a fresh guest fault at (`vm`, `vpn`) to the active
    /// thread and updates the contended-group ring. Only called when
    /// `guest_threads > 1`.
    fn note_thread_fault(&mut self, vm: usize, vpn: GuestVirtPage) {
        self.thread_faults[self.active_thread as usize] += 1;
        // Namespace the group key by VM: guest page numbers collide across
        // tenants, and cross-VM faults never share a PaRT.
        let group = ((vm as u64) << 48) | (vpn.raw() / GROUP_PAGES);
        if self
            .recent_fault_groups
            .iter()
            .any(|&(g, t)| g == group && t != self.active_thread)
        {
            self.contended_group_faults += 1;
        }
        self.recent_fault_groups[self.recent_fault_pos] = (group, self.active_thread);
        self.recent_fault_pos = (self.recent_fault_pos + 1) % RECENT_FAULT_GROUPS;
    }

    /// Memo-layer counters. Deliberately *not* part of
    /// [`Machine::metrics_snapshot`]: snapshots must be bit-identical with
    /// the memo layer on, off, or absent.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo_stats
    }

    /// Invalidates every memo slot on every core.
    fn clear_memos(&mut self) {
        for table in &mut self.memos {
            table.fill(MemoSlot::EMPTY);
        }
        self.memo_stats.clears += 1;
    }

    /// Direct-mapped memo slot index for `va`.
    #[inline]
    fn memo_index(va: GuestVirtAddr) -> usize {
        ((va.raw() >> PAGE_SHIFT) as usize) & (MEMO_SLOTS - 1)
    }

    /// The guest OS (of VM 0 — the only VM on single-tenant machines).
    pub fn guest(&self) -> &GuestOs {
        &self.vms[0].guest
    }

    /// Mutable access to VM 0's guest OS (spawn processes, mmap, …).
    pub fn guest_mut(&mut self) -> &mut GuestOs {
        &mut self.vms[0].guest
    }

    /// The guest OS of VM `vm`.
    pub fn vm_guest(&self, vm: usize) -> &GuestOs {
        &self.vms[vm].guest
    }

    /// Mutable access to VM `vm`'s guest OS.
    pub fn vm_guest_mut(&mut self, vm: usize) -> &mut GuestOs {
        &mut self.vms[vm].guest
    }

    /// Number of VM slots on this host (running or not).
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Whether VM `vm` is currently running.
    pub fn vm_running(&self, vm: usize) -> bool {
        self.vms[vm].running
    }

    /// Times VM slot `vm` has booted.
    pub fn vm_boots(&self, vm: usize) -> u64 {
        self.vms[vm].boots
    }

    /// Frames currently pinned by VM `vm`'s balloon.
    pub fn vm_ballooned(&self, vm: usize) -> u64 {
        self.vms[vm].ballooned.len() as u64
    }

    /// Base of VM `vm`'s guest-physical slot in host-virtual space.
    pub fn vm_base_of(&self, vm: usize) -> HostVirtPage {
        self.vms[vm].base
    }

    /// Free frames left in the host-physical pool.
    pub fn host_free_frames(&self) -> u64 {
        self.host.buddy().free_frames()
    }

    /// The host OS.
    pub fn host(&self) -> &HostOs {
        &self.host
    }

    /// The cache hierarchy (for counters).
    pub fn caches(&self) -> &CacheHierarchy {
        &self.caches
    }

    /// The TLB of `core`.
    pub fn tlb(&self, core: usize) -> &Tlb {
        &self.tlbs[core]
    }

    /// The configuration the machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Plays one memory access: (`core`, `pid`) touches guest-virtual `va`.
    ///
    /// Serves guest/host faults as needed, models the TLB lookup, the nested
    /// walk on a miss, and the data access itself.
    ///
    /// # Examples
    ///
    /// ```
    /// use vmsim_os::{Machine, MachineConfig};
    ///
    /// # fn main() -> Result<(), vmsim_types::MemError> {
    /// let mut m = Machine::new(MachineConfig::small());
    /// let pid = m.guest_mut().spawn();
    /// let va = m.guest_mut().mmap(pid, 1)?;
    /// let cold = m.touch(0, pid, va, true)?; // faults, walks, fills caches
    /// let warm = m.touch(0, pid, va, false)?; // pure TLB + L1 hit
    /// assert!(cold.faulted && warm.tlb_hit);
    /// assert!(warm.cycles < cold.cycles / 10);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unmapped`] for addresses outside every VMA and
    /// [`MemError::OutOfMemory`] when a fault cannot be served.
    pub fn touch(
        &mut self,
        core: usize,
        pid: Pid,
        va: GuestVirtAddr,
        is_write: bool,
    ) -> Result<TouchOutcome> {
        self.touch_in(0, core, pid, va, is_write)
    }

    /// [`Machine::touch`] against VM `vm` of a multi-tenant host.
    ///
    /// # Errors
    ///
    /// As for [`Machine::touch`].
    ///
    /// # Panics
    ///
    /// Panics if the VM slot is not running.
    #[inline]
    pub fn touch_vm(
        &mut self,
        vm: usize,
        core: usize,
        pid: Pid,
        va: GuestVirtAddr,
        is_write: bool,
    ) -> Result<TouchOutcome> {
        assert!(self.vms[vm].running, "touch of a stopped VM");
        self.touch_in(vm, core, pid, va, is_write)
    }

    /// The one per-access sequence: fault driver, memo-slot replay, else
    /// the slow path followed by a memo fill.
    #[inline]
    fn touch_in(
        &mut self,
        vm: usize,
        core: usize,
        pid: Pid,
        va: GuestVirtAddr,
        is_write: bool,
    ) -> Result<TouchOutcome> {
        self.ops += 1;
        // Scheduled fault triggers fire before the access is served, so a
        // fragmentation shock can deny this very op's reservation chunk. A
        // fired trigger may mutate translation-relevant state wholesale, so
        // it drops every memo.
        if self.faults.is_some() {
            self.prof_enter(Phase::FaultDriver);
            let fired = self.drive_fault_schedule();
            self.prof_exit();
            if fired {
                self.clear_memos();
            }
        }
        if self.memo_enabled {
            self.prof_enter(Phase::MemoProbe);
            let replayed = self.memo_replay(vm, core, pid, va, is_write);
            self.prof_exit();
            if let Some(out) = replayed {
                self.prof_cycles(Phase::MemoProbe, out.cycles);
                return Ok(out);
            }
        }
        let (out, write_ok, data_hpa) = self.touch_slow(vm, core, pid, va, is_write)?;
        if self.memo_enabled {
            self.prof_enter(Phase::Fill);
            self.memo_fill(vm, core, pid, va, write_ok, data_hpa);
            self.prof_exit();
        }
        Ok(out)
    }

    /// Attempts to replay a memoized warm touch. `None` means the slot does
    /// not prove this access; take the slow path. On a hit, returns the
    /// outcome and applies the warm path's exact observable side effects:
    /// the TLB L1-hit counter, the data L1 MemCounters record, and the
    /// fixed warm-cycle charge. No tracer events, no histogram samples, no
    /// PWC activity — precisely what the naive warm path does.
    #[inline]
    fn memo_replay(
        &mut self,
        vm: usize,
        core: usize,
        pid: Pid,
        va: GuestVirtAddr,
        is_write: bool,
    ) -> Option<TouchOutcome> {
        let slot = &self.memos[core][Self::memo_index(va)];
        if slot.pid != Self::asid_of(vm, pid)
            || slot.va != va.raw()
            || (is_write && !slot.write_ok)
            || slot.gen != self.vms[vm].guest.xlate_gen(pid)
            || slot.tlb_epoch != self.tlbs[core].l1_set_epoch_at(slot.tlb_set)
            || slot.data_epoch != self.caches.l1_set_epoch_at(core, slot.data_set)
        {
            return None;
        }
        self.memo_stats.hits += 1;
        self.tlbs[core].replay_l1_hit();
        let data_cycles = self.caches.replay_l1_hit(core, AccessKind::Data);
        Some(TouchOutcome {
            cycles: self.cost.work_cycles_per_access + data_cycles,
            tlb_hit: true,
            ..TouchOutcome::default()
        })
    }

    /// Fills the memo slot for `va` after a successful slow-path touch. The
    /// touch itself guarantees the preconditions: its data access left the
    /// line MRU in `core`'s L1, and its translation ended MRU in the L1 TLB
    /// (promoted by the hit, or freshly inserted by the walk).
    #[inline]
    fn memo_fill(
        &mut self,
        vm: usize,
        core: usize,
        pid: Pid,
        va: GuestVirtAddr,
        write_ok: bool,
        data_hpa: HostPhysAddr,
    ) {
        let asid = Self::asid_of(vm, pid);
        let tlb_set = self.tlbs[core].l1_set_index(asid, va.page());
        let data_set = self.caches.l1_set_index(core, data_hpa);
        self.memos[core][Self::memo_index(va)] = MemoSlot {
            pid: asid,
            va: va.raw(),
            gen: self.vms[vm].guest.xlate_gen(pid),
            tlb_set,
            data_set,
            tlb_epoch: self.tlbs[core].l1_set_epoch_at(tlb_set),
            data_epoch: self.caches.l1_set_epoch_at(core, data_set),
            write_ok,
        };
        self.memo_stats.fills += 1;
    }

    /// The full (naive) touch path: fault service, TLB lookup, nested walk,
    /// data access. Also returns whether the page ended up writable without
    /// a COW break (for memo filling) and the data line's host-physical
    /// address.
    fn touch_slow(
        &mut self,
        vm: usize,
        core: usize,
        pid: Pid,
        va: GuestVirtAddr,
        is_write: bool,
    ) -> Result<(TouchOutcome, bool, HostPhysAddr)> {
        let vpn = va.page();
        let asid = Self::asid_of(vm, pid);
        self.memo_stats.naive_walks += 1;
        let mut out = TouchOutcome {
            cycles: self.cost.work_cycles_per_access,
            ..TouchOutcome::default()
        };
        // Buddy counters before the fault section, so tracing can report
        // split/merge activity caused by this access. Read only when a
        // tracer is installed — the disabled path stays a single branch.
        let buddy_before = self
            .tracer
            .as_ref()
            .map(|_| *self.vms[vm].guest.buddy().stats());
        let injector_before = if self.tracer.is_some() {
            self.vms[vm]
                .guest
                .buddy()
                .fault_injector()
                .map(|i| i.stats())
        } else {
            None
        };

        // 1. Ensure the page is mapped (guest fault) and writable if needed
        //    (COW break). Profiled as the alloc phase: buddy allocations,
        //    reservations, COW copies, and host backing all happen here.
        // An error propagating out of this section leaks the span; that is
        // fine — touch errors abort the run and `Profiler::finish` closes
        // dangling spans.
        self.prof_enter(Phase::Alloc);
        let cycles_before_fault = out.cycles;
        let pte = self.vms[vm].guest.process(pid)?.page_table.lookup(vpn);
        // Whether, after the fault section, the page is writable without
        // further kernel involvement (feeds the memo's write permission).
        let write_ok;
        match pte {
            None => {
                // A fresh fault installs a private, writable mapping.
                write_ok = true;
                let info = match self.vms[vm].guest.page_fault(pid, vpn) {
                    Ok(info) => info,
                    Err(MemError::OutOfMemory { .. }) if self.faults.is_some() => {
                        self.absorb_oom_and_retry(vm, pid, vpn, |g, p, v| g.page_fault(p, v))?
                    }
                    Err(e) => return Err(e),
                };
                out.faulted = true;
                if self.guest_threads > 1 {
                    self.note_thread_fault(vm, vpn);
                }
                out.cycles += self.cost.guest_fault_cycles
                    + u64::from(info.cost.buddy_calls + info.pt_node_allocs)
                        * self.cost.buddy_call_cycles
                    + u64::from(info.cost.part_lookups) * self.cost.part_lookup_cycles;
                if info.huge {
                    // Zeroing a 2 MB chunk on first touch.
                    out.cycles += self.cost.huge_fault_extra_cycles;
                }
                // The faulting instruction touches the page immediately, so
                // the host backs the data frame right away.
                let hvpn = self.hvpn_in(vm, info.gfn);
                let (_hfn, host_faulted) = self.host.back_page(hvpn)?;
                if host_faulted {
                    out.host_faults += 1;
                    out.cycles += self.cost.host_fault_cycles;
                }
                if let Some(tracer) = self.tracer.as_mut() {
                    let op = self.ops;
                    tracer.emit(
                        op,
                        vmsim_obs::EventKind::PageFault {
                            pid: pid.0,
                            vpn: vpn.raw(),
                            gfn: info.gfn.raw(),
                            huge: info.huge,
                        },
                    );
                    if info.cost.reservation_hit {
                        tracer.emit(
                            op,
                            vmsim_obs::EventKind::ReservationHit {
                                pid: pid.0,
                                vpn: vpn.raw(),
                                gfn: info.gfn.raw(),
                            },
                        );
                    }
                    if info.cost.reservation_new {
                        tracer.emit(
                            op,
                            vmsim_obs::EventKind::ReservationTake {
                                pid: pid.0,
                                vpn: vpn.raw(),
                                gfn: info.gfn.raw(),
                            },
                        );
                    }
                    if info.cost.fallback {
                        tracer.emit(
                            op,
                            vmsim_obs::EventKind::ReservationFallback {
                                pid: pid.0,
                                vpn: vpn.raw(),
                                gfn: info.gfn.raw(),
                            },
                        );
                    }
                    if info.huge {
                        tracer.emit(
                            op,
                            vmsim_obs::EventKind::ThpCollapse {
                                pid: pid.0,
                                vpn: vpn.raw() & !(vmsim_types::PT_ENTRIES - 1),
                            },
                        );
                    }
                }
            }
            Some(pte) if is_write && pte.is_cow() => {
                // Whether a copy happened or write access was restored, the
                // page is now privately writable.
                write_ok = true;
                let (new_gfn, copied) = match self.vms[vm].guest.write_fault(pid, vpn) {
                    Ok(r) => r,
                    Err(MemError::OutOfMemory { .. }) if self.faults.is_some() => {
                        self.absorb_oom_and_retry(vm, pid, vpn, |g, p, v| g.write_fault(p, v))?
                    }
                    Err(e) => return Err(e),
                };
                out.cow_break = copied;
                out.cycles += self.cost.guest_fault_cycles;
                if copied {
                    out.cycles += self.cost.buddy_call_cycles;
                    let hvpn = self.hvpn_in(vm, new_gfn);
                    let (_hfn, host_faulted) = self.host.back_page(hvpn)?;
                    if host_faulted {
                        out.host_faults += 1;
                        out.cycles += self.cost.host_fault_cycles;
                    }
                    if let Some(tracer) = self.tracer.as_mut() {
                        let op = self.ops;
                        tracer.emit(
                            op,
                            vmsim_obs::EventKind::PageFault {
                                pid: pid.0,
                                vpn: vpn.raw(),
                                gfn: new_gfn.raw(),
                                huge: false,
                            },
                        );
                    }
                }
                // The mapping changed: shoot down stale translations.
                for tlb in &mut self.tlbs {
                    tlb.invalidate(asid, vpn);
                }
            }
            Some(pte) => {
                write_ok = !pte.is_cow();
            }
        }
        if out.faulted || out.cow_break {
            self.fault_hist[core].record(out.cycles - cycles_before_fault);
        }
        if let Some(before) = buddy_before {
            let after = *self.vms[vm].guest.buddy().stats();
            let (splits, merges) = (after.splits - before.splits, after.merges - before.merges);
            let tracer = self.tracer.as_mut().expect("buddy_before implies tracer");
            if splits > 0 {
                tracer.emit(self.ops, vmsim_obs::EventKind::BuddySplit { count: splits });
            }
            if merges > 0 {
                tracer.emit(self.ops, vmsim_obs::EventKind::BuddyMerge { count: merges });
            }
        }
        if let Some(before) = injector_before {
            let after = self.vms[vm]
                .guest
                .buddy()
                .fault_injector()
                .expect("injector persists once installed")
                .stats();
            let chunk_denials = after.chunk_denials - before.chunk_denials;
            let oom_denials = after.oom_denials - before.oom_denials;
            if chunk_denials + oom_denials > 0 {
                let tracer = self
                    .tracer
                    .as_mut()
                    .expect("injector_before implies tracer");
                tracer.emit(
                    self.ops,
                    vmsim_obs::EventKind::FaultInjected {
                        chunk_denials,
                        oom_denials,
                    },
                );
            }
        }
        self.prof_cycles(Phase::Alloc, out.cycles - cycles_before_fault);
        self.prof_exit();

        // 2. Translate.
        self.prof_enter(Phase::TlbLookup);
        let looked_up = self.tlbs[core].lookup(asid, vpn);
        self.prof_exit();
        let hfn = match looked_up {
            Some(hfn) => {
                out.tlb_hit = true;
                hfn
            }
            None => {
                let (hfn, walk_cycles, host_faults) = self.nested_walk_in(vm, core, pid, vpn)?;
                out.cycles += walk_cycles;
                out.host_faults += host_faults;
                hfn
            }
        };

        // 3. Access the data itself. The base per-op work and the data
        // access are the workload's own execution, not translation.
        let data_hpa = HostPhysAddr::new((hfn.raw() << PAGE_SHIFT) + va.page_offset());
        let data_cycles = self.caches.access(core, data_hpa, AccessKind::Data).cycles;
        out.cycles += data_cycles;
        self.prof_cycles(
            Phase::Workload,
            self.cost.work_cycles_per_access + data_cycles,
        );
        Ok((out, write_ok, data_hpa))
    }

    /// Fires the installed plan's scheduled triggers due at the current op:
    /// fragmentation shocks, reclaim storms, host swap-outs, and the
    /// watermark-driven daemon pass. Everything here is a deterministic
    /// function of the op clock and guest state. Returns whether any
    /// trigger actually executed (the caller drops its memos if so).
    fn drive_fault_schedule(&mut self) -> bool {
        let Some(mut driver) = self.faults else {
            return false;
        };
        let op = self.ops;
        let due = |every: Option<u64>| matches!(every, Some(n) if n > 0 && op.is_multiple_of(n));
        let mut fired = false;

        if due(driver.plan.frag_shock_every) {
            let max_order = driver.plan.frag_shock_order;
            let splits = self.vms[0].guest.buddy_mut().shatter(max_order);
            driver.frag_shocks += 1;
            fired = true;
            if let Some(tracer) = self.tracer.as_mut() {
                tracer.emit(op, vmsim_obs::EventKind::FragShock { max_order, splits });
            }
        }
        if due(driver.plan.reclaim_storm_every) {
            let frames = self.vms[0]
                .guest
                .reclaim_reservations(driver.plan.reclaim_storm_frames);
            driver.reclaim_storms += 1;
            driver.reclaimed_frames += frames;
            fired = true;
            if let Some(tracer) = self.tracer.as_mut() {
                tracer.emit(op, vmsim_obs::EventKind::ReclaimStorm { frames });
            }
        }
        if due(driver.plan.swap_out_every) {
            // The host picks a reserved-unused frame (there is nothing to
            // swap out otherwise) and the §4.4 hook releases its covering
            // reservation.
            if let Some(gfn) = self.vms[0].guest.allocator().any_reserved_unused_frame() {
                let frames = self.vms[0].guest.swap_target(gfn);
                driver.swap_outs += 1;
                driver.reclaimed_frames += frames;
                fired = true;
                if let Some(tracer) = self.tracer.as_mut() {
                    tracer.emit(
                        op,
                        vmsim_obs::EventKind::SwapOut {
                            gfn: gfn.raw(),
                            frames,
                        },
                    );
                }
            }
        }
        if let Some(threshold) = driver.plan.daemon_threshold {
            // The §4.3 daemon: restore free memory to the high watermark
            // by draining reserved-unused frames.
            let restore_to = driver.plan.daemon_restore_to.unwrap_or(threshold);
            let target = self.vms[0].guest.reclaim_target(threshold, restore_to);
            if target > 0 {
                let freed = self.reclaim_reservations(target);
                driver.daemon_passes += 1;
                driver.reclaimed_frames += freed;
                fired = true;
            }
        }
        self.faults = Some(driver);
        fired
    }

    /// Graceful degradation for an out-of-memory fault under an installed
    /// plan: reclaim reserved-unused frames, then retry the faulting
    /// operation exactly once with injection suppressed, so an injected
    /// denial cannot re-deny its own recovery. A second failure (memory
    /// genuinely exhausted) propagates.
    fn absorb_oom_and_retry<T>(
        &mut self,
        vm: usize,
        pid: Pid,
        vpn: GuestVirtPage,
        retry: impl FnOnce(&mut GuestOs, Pid, GuestVirtPage) -> Result<T>,
    ) -> Result<T> {
        let reclaimed = self.vms[vm].guest.reclaim_reservations(GROUP_PAGES * 4);
        if let Some(driver) = self.faults.as_mut() {
            driver.oom_retries += 1;
            driver.reclaimed_frames += reclaimed;
        }
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.emit(self.ops, vmsim_obs::EventKind::OomRetry { reclaimed });
        }
        if let Some(inj) = self.vms[vm].guest.buddy_mut().fault_injector_mut() {
            inj.push_suppress();
        }
        let result = retry(&mut self.vms[vm].guest, pid, vpn);
        if let Some(inj) = self.vms[vm].guest.buddy_mut().fault_injector_mut() {
            inj.pop_suppress();
        }
        result
    }

    /// Performs a nested (2D) page walk for (`pid`, `vpn`) of VM `vm` on
    /// `core`, charging every PT access to the cache hierarchy. Returns the
    /// host frame, the cycles spent, and any host faults taken for PT-node
    /// backing.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unmapped`] if the guest translation does not
    /// exist (the caller must fault first).
    fn nested_walk_in(
        &mut self,
        vm: usize,
        core: usize,
        pid: Pid,
        vpn: GuestVirtPage,
    ) -> Result<(HostFrame, u64, u32)> {
        let asid = Self::asid_of(vm, pid);
        let mut cycles = 0u64;
        let mut host_faults = 0u32;

        let (path, data_gfn) = {
            let pt = &self.vms[vm].guest.process(pid)?.page_table;
            let (path, gfn) = pt.walk_translate(vpn);
            match gfn {
                Some(gfn) => (path, gfn),
                None => return Err(MemError::Unmapped { vpn: vpn.raw() }),
            }
        };
        self.prof_enter(Phase::GuestWalk);

        // The guest PWC may let us skip upper guest levels (and the host
        // walks needed to locate those nodes).
        self.prof_enter(Phase::Pwc);
        let guest_pwc_hit = self.pwcs[core].guest_lookup(asid, vpn);
        self.prof_exit();
        let start_level = match guest_pwc_hit {
            Some((level, _gfn, _hfn)) => level + 1,
            None => 0,
        };

        // A huge guest mapping produces a 3-step path (the PS entry is the
        // translation), a 4 KB mapping a 4-step path; iterate whatever the
        // table gave us. The path is an inline copy, so no allocation here.
        let levels_walked = path.len().saturating_sub(start_level) as u32;
        for i in start_level..path.len() {
            let step = path.steps()[i];
            // Locate this gPT node in host-physical memory (2nd dimension).
            let (node_hfn, hf) = self.host_frame_of(vm, core, step.node, &mut cycles)?;
            host_faults += hf;
            // Touch the gPT entry itself.
            let entry_hpa =
                HostPhysAddr::new((node_hfn.raw() << PAGE_SHIFT) + step.index * PTE_SIZE);
            let entry_cycles = self
                .caches
                .access(core, entry_hpa, AccessKind::guest_pt(step.level))
                .cycles;
            cycles += entry_cycles;
            self.prof_cycles(Phase::GuestWalk, entry_cycles);
            // Cache the walk prefix completed at this node.
            if step.level > 0 {
                self.pwcs[core].guest_insert(asid, vpn, step.level - 1, step.node, node_hfn);
            }
        }

        // Final host walk: translate the data page itself.
        let (data_hfn, hf) = self.host_frame_of(vm, core, data_gfn, &mut cycles)?;
        host_faults += hf;
        self.prof_enter(Phase::Fill);
        self.tlbs[core].insert(asid, vpn, data_hfn);
        self.walk_hist[core].record(cycles);
        self.prof_exit();
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.emit(
                self.ops,
                vmsim_obs::EventKind::PtWalk {
                    levels: levels_walked,
                    cycles,
                    pwc_hits: start_level as u32,
                },
            );
        }
        self.prof_exit();
        Ok((data_hfn, cycles, host_faults))
    }

    /// Per-core nested-walk latency distribution (cycles per walk).
    pub fn walk_latency(&self, core: usize) -> &Histogram {
        &self.walk_hist[core]
    }

    /// Per-core fault-service latency distribution (cycles per guest fault
    /// or COW break, including host backing).
    pub fn fault_latency(&self, core: usize) -> &Histogram {
        &self.fault_hist[core]
    }

    /// Translates guest frame `gfn` to its backing host frame, walking the
    /// host page table (with cache charging) unless the nested TLB has it.
    /// Faults the backing in if the host has not yet populated it.
    fn host_frame_of(
        &mut self,
        vm: usize,
        core: usize,
        gfn: GuestFrame,
        cycles: &mut u64,
    ) -> Result<(HostFrame, u32)> {
        let nkey = self.nested_key(vm, gfn);
        self.prof_enter(Phase::Pwc);
        let nested_hit = self.pwcs[core].nested_lookup(nkey);
        self.prof_exit();
        if let Some(hfn) = nested_hit {
            return Ok((hfn, 0));
        }
        self.prof_enter(Phase::HostWalk);
        let hvpn = self.hvpn_in(vm, gfn);
        let mut host_faults = 0u32;
        let (path, hfn) = match self.host.walk_translate(hvpn) {
            (path, Some(hfn)) => (path, hfn),
            (_, None) => {
                self.host.fault_unchecked(hvpn)?;
                host_faults += 1;
                *cycles += self.cost.host_fault_cycles;
                self.prof_cycles(Phase::HostWalk, self.cost.host_fault_cycles);
                let (path, hfn) = self.host.walk_translate(hvpn);
                (path, hfn.expect("faulted in above"))
            }
        };
        debug_assert!(path.complete);
        self.prof_enter(Phase::Pwc);
        let host_pwc_hit = self.pwcs[core].host_lookup(hvpn);
        self.prof_exit();
        let start_level = match host_pwc_hit {
            Some((level, _node)) => level + 1,
            None => 0,
        };
        for level in start_level..PT_LEVELS {
            let step = path.steps()[level];
            // Host PT nodes live in host-physical frames, so the entry
            // address is directly host-physical.
            let hpa = HostPhysAddr::new(step.entry_addr_raw());
            let entry_cycles = self
                .caches
                .access(core, hpa, AccessKind::host_pt(level))
                .cycles;
            *cycles += entry_cycles;
            self.prof_cycles(Phase::HostWalk, entry_cycles);
            if level > 0 {
                self.pwcs[core].host_insert(hvpn, level - 1, step.node);
            }
        }
        self.pwcs[core].nested_insert(nkey, hfn);
        self.prof_exit();
        Ok((hfn, host_faults))
    }

    /// Unmaps a range, performing TLB shootdown on every core.
    ///
    /// # Errors
    ///
    /// Propagates [`GuestOs::munmap`] errors.
    pub fn munmap(&mut self, pid: Pid, start: GuestVirtPage, pages: u64) -> Result<()> {
        self.munmap_vm(0, pid, start, pages)
    }

    /// [`Machine::munmap`] against VM `vm` of a multi-tenant host.
    ///
    /// # Errors
    ///
    /// As for [`Machine::munmap`].
    pub fn munmap_vm(
        &mut self,
        vm: usize,
        pid: Pid,
        start: GuestVirtPage,
        pages: u64,
    ) -> Result<()> {
        let asid = Self::asid_of(vm, pid);
        let unmapped = self.vms[vm].guest.munmap(pid, start, pages)?;
        for vpn in unmapped {
            for tlb in &mut self.tlbs {
                tlb.invalidate(asid, vpn);
            }
        }
        Ok(())
    }

    /// Terminates a process, flushing its translations everywhere.
    ///
    /// # Errors
    ///
    /// Propagates [`GuestOs::exit`] errors.
    pub fn exit(&mut self, pid: Pid) -> Result<()> {
        let asid = Self::asid_of(0, pid);
        self.vms[0].guest.exit(pid)?;
        for tlb in &mut self.tlbs {
            tlb.flush_asid(asid);
        }
        Ok(())
    }

    /// Computes the paper's host-PT fragmentation metric for `pid` (§3.2):
    /// the mean number of distinct cache lines holding the host PTEs that
    /// correspond to each fully/partially mapped aligned 8-page group.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchProcess`] for unknown pids.
    pub fn host_pt_fragmentation(&self, pid: Pid) -> Result<LineCensus> {
        let mut census = LineCensus::default();
        let proc = self.vms[0].guest.process(pid)?;
        for vma in &proc.vmas {
            let first_group = vma.start.raw() / GROUP_PAGES;
            let last_group = (vma.end().raw() - 1) / GROUP_PAGES;
            for group in first_group..=last_group {
                let base = group * GROUP_PAGES;
                let addrs: Vec<u64> = (base..base + GROUP_PAGES)
                    .map(GuestVirtPage::new)
                    .filter(|p| vma.contains(*p))
                    .filter_map(|p| proc.page_table.translate(p))
                    .filter_map(|gfn| self.host.hpte_addr_raw(self.hvpn_in(0, gfn)))
                    .collect();
                census.record_group(addrs);
            }
        }
        Ok(census)
    }

    /// The guest-PT analogue of [`Machine::host_pt_fragmentation`]. By
    /// construction this is 1.0 whenever anything is mapped: gPTEs of a group
    /// always share a line (paper Figure 3).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchProcess`] for unknown pids.
    pub fn guest_pt_fragmentation(&self, pid: Pid) -> Result<LineCensus> {
        let mut census = LineCensus::default();
        let proc = self.vms[0].guest.process(pid)?;
        for vma in &proc.vmas {
            let first_group = vma.start.raw() / GROUP_PAGES;
            let last_group = (vma.end().raw() - 1) / GROUP_PAGES;
            for group in first_group..=last_group {
                let base = group * GROUP_PAGES;
                let addrs: Vec<u64> = (base..base + GROUP_PAGES)
                    .map(GuestVirtPage::new)
                    .filter(|p| vma.contains(*p) && proc.page_table.lookup(*p).is_some())
                    .filter_map(|p| proc.page_table.pte_addr_raw(p))
                    .collect();
                census.record_group(addrs);
            }
        }
        Ok(census)
    }

    /// Releases up to `target_frames` of reserved-but-unused guest memory
    /// back to the buddy allocator (memory-pressure reclamation, §4.3),
    /// emitting a [`vmsim_obs::EventKind::ReservationReclaim`] event when a
    /// tracer is installed. Returns frames actually released.
    pub fn reclaim_reservations(&mut self, target_frames: u64) -> u64 {
        let freed = self.vms[0].guest.reclaim_reservations(target_frames);
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.emit(
                self.ops,
                vmsim_obs::EventKind::ReservationReclaim { frames: freed },
            );
        }
        freed
    }

    /// Kills VM `vm`: every host frame backing its guest-physical slot is
    /// released back to the host pool (through the ref-count table), the
    /// balloon deflates, and the slot is marked stopped until the next
    /// [`Machine::boot_vm`]. All translation state is flushed — a VM
    /// teardown is a host-wide shootdown event. Returns the host frames
    /// released.
    ///
    /// # Panics
    ///
    /// Panics if the VM is not running.
    pub fn kill_vm(&mut self, vm: usize) -> u64 {
        assert!(self.vms[vm].running, "kill of a stopped VM");
        let base = self.vms[vm].base.raw();
        let mut released = 0u64;
        for gfn in 0..self.config.guest_frames {
            if self
                .host
                .unback_page(HostVirtPage::new(base + gfn))
                .is_some()
            {
                released += 1;
            }
        }
        self.vms[vm].ballooned.clear();
        self.vms[vm].running = false;
        self.flush_translation_state();
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.emit(
                self.ops,
                vmsim_obs::EventKind::VmKill {
                    vm: vm as u32,
                    frames: released,
                },
            );
        }
        released
    }

    /// Boots (or reboots) VM slot `vm` with a fresh guest OS whose
    /// allocator comes from the machine's per-VM factory.
    ///
    /// # Panics
    ///
    /// Panics if the VM is already running or the machine was built
    /// without a factory ([`Machine::multi_tenant`] installs one).
    pub fn boot_vm(&mut self, vm: usize) {
        assert!(!self.vms[vm].running, "boot of a running VM");
        let allocator = {
            let factory = self
                .factory
                .as_ref()
                .expect("rebooting a VM needs the multi-tenant allocator factory");
            (factory.0)(vm)
        };
        self.vms[vm].guest = GuestOs::new(self.config.guest_frames, allocator);
        self.vms[vm].running = true;
        self.vms[vm].boots += 1;
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.emit(
                self.ops,
                vmsim_obs::EventKind::VmBoot {
                    vm: vm as u32,
                    boot: self.vms[vm].boots,
                },
            );
        }
    }

    /// Inflates VM `vm`'s balloon by up to `frames` order-0 frames: each is
    /// allocated from the guest buddy (so the guest cannot use it) and its
    /// host backing, if any, is released to the host pool. Stops early if
    /// the guest pool runs dry. Returns the frames actually pinned.
    /// Translation state is flushed when any host backing was dropped (the
    /// hypervisor's unmap shootdown).
    pub fn balloon_vm(&mut self, vm: usize, frames: u64) -> u64 {
        let mut inflated = 0u64;
        let mut unbacked = false;
        while inflated < frames {
            let Ok(gfn) = self.vms[vm].guest.buddy_mut().alloc(0) else {
                break;
            };
            let hvpn = self.hvpn_in(vm, gfn);
            if self.host.unback_page(hvpn).is_some() {
                unbacked = true;
            }
            self.vms[vm].ballooned.push(gfn);
            inflated += 1;
        }
        if unbacked {
            self.flush_translation_state();
        }
        if inflated > 0 {
            if let Some(tracer) = self.tracer.as_mut() {
                tracer.emit(
                    self.ops,
                    vmsim_obs::EventKind::Balloon {
                        vm: vm as u32,
                        frames: inflated,
                        inflate: true,
                    },
                );
            }
        }
        inflated
    }

    /// Deflates VM `vm`'s balloon by up to `frames`, returning the frames
    /// to the guest buddy (their host backing is re-faulted lazily on next
    /// touch). Returns the frames actually released.
    pub fn deflate_vm(&mut self, vm: usize, frames: u64) -> u64 {
        let mut deflated = 0u64;
        while deflated < frames {
            let Some(gfn) = self.vms[vm].ballooned.pop() else {
                break;
            };
            self.vms[vm]
                .guest
                .buddy_mut()
                .free(gfn, 0)
                .expect("ballooned frames are live order-0 allocations");
            deflated += 1;
        }
        if deflated > 0 {
            if let Some(tracer) = self.tracer.as_mut() {
                tracer.emit(
                    self.ops,
                    vmsim_obs::EventKind::Balloon {
                        vm: vm as u32,
                        frames: deflated,
                        inflate: false,
                    },
                );
            }
        }
        deflated
    }

    /// Nested-walk latency distribution merged across every core.
    pub fn merged_walk_latency(&self) -> Histogram {
        let mut merged = Histogram::new();
        for h in &self.walk_hist {
            merged.merge(h);
        }
        merged
    }

    /// Fault-service latency distribution merged across every core.
    pub fn merged_fault_latency(&self) -> Histogram {
        let mut merged = Histogram::new();
        for h in &self.fault_hist {
            merged.merge(h);
        }
        merged
    }

    /// Captures one observability snapshot covering every stats struct in
    /// the machine: cache counters, guest/host kernel counters, both buddy
    /// allocators, both page tables (guest PTs merged across processes),
    /// TLB totals, latency histograms, and whatever the pluggable frame
    /// allocator contributes (PTEMagnet adds reservation + PaRT counters).
    pub fn metrics_snapshot(&self) -> vmsim_obs::Snapshot {
        let mut reg = vmsim_obs::Registry::new();
        reg.record(&self.caches.counters());
        reg.record(&self.vms[0].guest.stats());
        reg.record(&self.host.stats());
        reg.record_as("guest_buddy", self.vms[0].guest.buddy().stats());
        reg.record_as("host_buddy", self.host.buddy().stats());
        reg.record_as("host_pt", &self.host.host_pt().stats());
        let mut guest_pt = vmsim_pt::PtStats::default();
        for proc in self.vms[0].guest.processes() {
            guest_pt.merge(&proc.page_table.stats());
        }
        reg.record_as("guest_pt", &guest_pt);
        let (lookups, misses) = self
            .tlbs
            .iter()
            .fold((0, 0), |(l, m), t| (l + t.lookups(), m + t.misses()));
        reg.gauge_u64("tlb.lookups", lookups);
        reg.gauge_u64("tlb.misses", misses);
        reg.record_as("walk_latency", &self.merged_walk_latency());
        reg.record_as("fault_latency", &self.merged_fault_latency());
        reg.gauge_u64(
            "allocator.reserved_unused_frames",
            self.vms[0].guest.allocator().reserved_unused_frames(),
        );
        // The faults.* gauges are always present (all zero without a plan),
        // so installing a fault plan never changes the snapshot's key set.
        let injected = self.vms[0]
            .guest
            .buddy()
            .fault_injector()
            .map(|i| i.stats())
            .unwrap_or_default();
        let driver = self
            .faults
            .unwrap_or_else(|| FaultDriver::new(FaultPlan::default()));
        reg.gauge_u64("faults.injected", injected.injected());
        reg.gauge_u64("faults.chunk_denials", injected.chunk_denials);
        reg.gauge_u64("faults.oom_denials", injected.oom_denials);
        reg.gauge_u64("faults.frag_shocks", driver.frag_shocks);
        reg.gauge_u64("faults.reclaim_storms", driver.reclaim_storms);
        reg.gauge_u64("faults.swap_outs", driver.swap_outs);
        reg.gauge_u64("faults.daemon_passes", driver.daemon_passes);
        reg.gauge_u64("faults.oom_retries", driver.oom_retries);
        reg.gauge_u64("faults.reclaimed_frames", driver.reclaimed_frames);
        self.vms[0].guest.allocator().emit_metrics(&mut reg);
        // Multi-tenant hosts additionally expose host-pool pressure and
        // per-VM occupancy. Single-tenant machines emit nothing here, so
        // the historical snapshot key set is untouched. The VM count is
        // fixed for the machine's lifetime (kills mark slots stopped, they
        // never remove them), so the key set stays constant across a run.
        if self.vms.len() > 1 {
            reg.gauge_u64("host.free_frames", self.host.buddy().free_frames());
            reg.gauge_u64(
                "host.backed_frames",
                self.host.frame_refs().referenced_frames(),
            );
            reg.gauge_f64(
                "host.frag",
                FragmentationIndex::measure(self.host.buddy(), 3).unusable_fraction(),
            );
            reg.gauge_u64(
                "host.vms_running",
                self.vms.iter().filter(|v| v.running).count() as u64,
            );
            for (i, vm) in self.vms.iter().enumerate() {
                reg.gauge_u64(format!("vm.{i}.running"), u64::from(vm.running));
                reg.gauge_u64(format!("vm.{i}.boots"), vm.boots);
                reg.gauge_u64(
                    format!("vm.{i}.ballooned_frames"),
                    vm.ballooned.len() as u64,
                );
                reg.gauge_u64(
                    format!("vm.{i}.free_frames"),
                    vm.guest.buddy().free_frames(),
                );
                reg.gauge_u64(format!("vm.{i}.faults"), vm.guest.stats().faults);
                reg.gauge_u64(
                    format!("vm.{i}.rss_pages"),
                    vm.guest.processes().map(|p| p.rss_pages).sum::<u64>(),
                );
            }
        }
        // Multi-threaded guests additionally expose per-thread fault
        // attribution and PaRT-group contention. Serial guests (the
        // default) emit nothing here, so the historical snapshot key set —
        // and every `threads: 1` differential proof — is untouched. The
        // thread count is fixed per run, so the key set stays constant.
        if self.guest_threads > 1 {
            reg.gauge_u64("threads.count", u64::from(self.guest_threads));
            reg.gauge_u64(
                "threads.contended_group_faults",
                self.contended_group_faults,
            );
            for (t, faults) in self.thread_faults.iter().enumerate() {
                reg.gauge_u64(format!("threads.{t}.faults"), *faults);
            }
        }
        reg.snapshot(self.ops)
    }

    /// Flushes all translation state (TLBs, page-walk caches, nested TLBs)
    /// on every core, forcing subsequent accesses to re-walk. Models a
    /// full TLB shootdown / context-switch storm; also useful to observe
    /// cold-walk behaviour of an existing layout.
    pub fn flush_translation_state(&mut self) {
        for tlb in &mut self.tlbs {
            tlb.flush_all();
        }
        for pwc in &mut self.pwcs {
            pwc.flush();
        }
        // The TLB flush bumps every set epoch, which already invalidates all
        // memos; clearing keeps the tables from carrying dead entries.
        self.clear_memos();
    }

    /// Resets all hardware measurement counters (cache + TLB), preserving
    /// cache/TLB *contents*. Used to exclude a warm-up or allocation phase
    /// from measurement, like the paper's §3.3 methodology.
    pub fn reset_measurement(&mut self) {
        self.caches.reset_counters();
        for tlb in &mut self.tlbs {
            tlb.reset_counters();
        }
        for h in &mut self.walk_hist {
            *h = Histogram::new();
        }
        for h in &mut self.fault_hist {
            *h = Histogram::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::small())
    }

    #[test]
    fn first_touch_faults_then_hits_tlb() {
        let mut m = machine();
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 4).unwrap();
        let first = m.touch(0, pid, va, false).unwrap();
        assert!(first.faulted);
        assert!(!first.tlb_hit);
        assert!(first.host_faults >= 1);
        let second = m.touch(0, pid, va, false).unwrap();
        assert!(second.tlb_hit);
        assert!(!second.faulted);
        assert!(second.cycles < first.cycles);
    }

    #[test]
    fn serial_machines_emit_no_thread_gauges() {
        let mut m = machine();
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 4).unwrap();
        m.touch(0, pid, va, true).unwrap();
        let snap = m.metrics_snapshot();
        assert!(snap.get("threads.count").is_none());
        assert!(snap.get("threads.0.faults").is_none());
        assert_eq!(m.guest_threads(), 1);
        assert_eq!(m.contended_group_faults(), 0);
    }

    #[test]
    fn multi_threaded_faults_attribute_and_detect_group_contention() {
        let mut m = machine();
        m.set_guest_threads(2);
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 16).unwrap();
        // Thread 0 faults page 0; thread 1 faults page 1 of the *same*
        // 8-page group (contended), then page 8 of the next group (not).
        m.touch(0, pid, va, false).unwrap();
        m.set_active_thread(1);
        m.touch(
            0,
            pid,
            GuestVirtAddr::new(va.raw() + (1 << PAGE_SHIFT)),
            false,
        )
        .unwrap();
        m.touch(
            0,
            pid,
            GuestVirtAddr::new(va.raw() + (8 << PAGE_SHIFT)),
            false,
        )
        .unwrap();
        assert_eq!(m.thread_faults(), &[1, 2]);
        assert_eq!(m.contended_group_faults(), 1);
        let snap = m.metrics_snapshot();
        assert_eq!(snap.get("threads.count").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(
            snap.get("threads.contended_group_faults")
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            snap.get("threads.1.faults").and_then(|v| v.as_u64()),
            Some(2)
        );
    }

    #[test]
    fn touch_outside_vma_fails() {
        let mut m = machine();
        let pid = m.guest_mut().spawn();
        assert!(matches!(
            m.touch(0, pid, GuestVirtAddr::new(0x1000), false),
            Err(MemError::Unmapped { .. })
        ));
    }

    #[test]
    fn nested_walk_charges_guest_and_host_pt_accesses() {
        let mut m = machine();
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 4).unwrap();
        m.touch(0, pid, va, false).unwrap();
        let c = m.caches().counters();
        assert!(c.guest_pt.accesses >= 4, "full guest walk on cold caches");
        assert!(c.host_pt.accesses >= 4, "host walks for nodes + data");
        assert!(c.data.accesses == 1);
    }

    #[test]
    fn walk_of_unmapped_page_errors() {
        let mut m = machine();
        let pid = m.guest_mut().spawn();
        m.guest_mut().mmap(pid, 4).unwrap();
        assert!(matches!(
            m.nested_walk_in(0, 0, pid, GuestVirtPage::new(0)),
            Err(MemError::Unmapped { .. })
        ));
    }

    #[test]
    fn isolated_process_has_low_host_pt_fragmentation() {
        // One process alone: the default allocator hands out mostly
        // contiguous frames, but page-table node allocations interleave with
        // data frames, so the metric sits a little above 1 — the paper
        // measures 2.8 in isolation (§3.3), not 1.0.
        let mut m = machine();
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 16).unwrap();
        for i in 0..16 {
            m.touch(0, pid, GuestVirtAddr::new(va.raw() + i * 4096), false)
                .unwrap();
        }
        let frag = m.host_pt_fragmentation(pid).unwrap();
        assert_eq!(frag.groups, 2);
        assert!(frag.mean() >= 1.0);
        assert!(
            frag.mean() <= 3.0,
            "isolation stays low, got {}",
            frag.mean()
        );
        // Guest PTEs, indexed by virtual address, are always packed.
        let gfrag = m.guest_pt_fragmentation(pid).unwrap();
        assert!((gfrag.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interleaved_processes_fragment_host_pt() {
        // Two colocated processes faulting alternately: each one's host PTEs
        // scatter across lines while guest PTEs stay packed — the paper's
        // core observation.
        let mut m = machine();
        let a = m.guest_mut().spawn();
        let b = m.guest_mut().spawn();
        let va_a = m.guest_mut().mmap(a, 32).unwrap();
        let va_b = m.guest_mut().mmap(b, 32).unwrap();
        for i in 0..32 {
            m.touch(0, a, GuestVirtAddr::new(va_a.raw() + i * 4096), false)
                .unwrap();
            m.touch(1, b, GuestVirtAddr::new(va_b.raw() + i * 4096), false)
                .unwrap();
        }
        let frag_a = m.host_pt_fragmentation(a).unwrap();
        assert!(
            frag_a.mean() > 1.5,
            "interleaving must scatter hPTEs, got {}",
            frag_a.mean()
        );
        let guest_frag = m.guest_pt_fragmentation(a).unwrap();
        assert!((guest_frag.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn huge_mappings_walk_one_level_shorter() {
        use crate::guest::{AllocCost, AllocGrant, GuestBuddy, GuestFrameAllocator};

        #[derive(Debug)]
        struct AlwaysHuge;
        impl GuestFrameAllocator for AlwaysHuge {
            fn name(&self) -> &'static str {
                "always-huge"
            }
            fn allocate(
                &mut self,
                _pid: Pid,
                _vpn: GuestVirtPage,
                buddy: &mut GuestBuddy,
            ) -> Result<(vmsim_types::GuestFrame, AllocCost)> {
                Ok((buddy.alloc(0)?, AllocCost::default()))
            }
            fn allocate_grant(
                &mut self,
                pid: Pid,
                vpn: GuestVirtPage,
                huge_candidate: bool,
                buddy: &mut GuestBuddy,
            ) -> Result<(AllocGrant, AllocCost)> {
                if huge_candidate {
                    let chunk = buddy.alloc(9)?;
                    buddy.fragment_allocation(chunk, 9).unwrap();
                    return Ok((AllocGrant::Huge(chunk), AllocCost::default()));
                }
                let (g, c) = self.allocate(pid, vpn, buddy)?;
                Ok((AllocGrant::Small(g), c))
            }
            fn free(
                &mut self,
                _pid: Pid,
                _vpn: GuestVirtPage,
                gfn: vmsim_types::GuestFrame,
                buddy: &mut GuestBuddy,
            ) -> Result<()> {
                buddy.free(gfn, 0)
            }
        }

        let mut m = Machine::with_allocator(MachineConfig::small(), Box::new(AlwaysHuge));
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 1024).unwrap();
        let out = m.touch(0, pid, va, true).unwrap();
        assert!(out.faulted);
        assert!(out.cycles >= m.config().cost.huge_fault_extra_cycles);
        // Cold walk of a huge mapping: exactly 3 guest-PT accesses.
        m.reset_measurement();
        m.flush_translation_state();
        let far = GuestVirtAddr::new(va.raw() + 100 * 4096);
        m.touch(0, pid, far, false).unwrap();
        let c = m.caches().counters();
        assert_eq!(c.guest_pt.accesses, 3, "huge walks stop at the PS entry");
        // And the data page translates to chunk base + offset.
        let again = m.touch(0, pid, far, false).unwrap();
        assert!(again.tlb_hit);
    }

    #[test]
    fn munmap_sheds_tlb_entries() {
        let mut m = machine();
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 1).unwrap();
        m.touch(0, pid, va, false).unwrap();
        m.touch(0, pid, va, false).unwrap(); // in TLB now
        m.munmap(pid, va.page(), 1).unwrap();
        // Page gone: touching again is a segfault, not a stale TLB hit.
        assert!(m.touch(0, pid, va, false).is_err());
    }

    #[test]
    fn cow_write_via_touch() {
        let mut m = machine();
        let parent = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(parent, 1).unwrap();
        m.touch(0, parent, va, true).unwrap();
        let child = m.guest_mut().fork(parent).unwrap();
        let w = m.touch(0, child, va, true).unwrap();
        assert!(w.cow_break);
        // Parent's subsequent write breaks nothing (sole owner path).
        let w2 = m.touch(0, parent, va, true).unwrap();
        assert!(!w2.cow_break);
        let p_pte = m
            .guest()
            .process(parent)
            .unwrap()
            .page_table
            .lookup(va.page())
            .unwrap();
        assert!(p_pte.is_writable());
    }

    #[test]
    fn exit_flushes_process_state() {
        let mut m = machine();
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 2).unwrap();
        m.touch(0, pid, va, false).unwrap();
        m.exit(pid).unwrap();
        assert!(m.guest().process(pid).is_err());
        assert_eq!(
            m.guest().buddy().free_frames(),
            m.guest().buddy().total_frames()
        );
    }

    #[test]
    fn latency_histograms_record_walks_and_faults() {
        let mut m = machine();
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 8).unwrap();
        for i in 0..8 {
            m.touch(0, pid, GuestVirtAddr::new(va.raw() + i * 4096), true)
                .unwrap();
        }
        assert_eq!(m.fault_latency(0).count(), 8);
        assert!(m.walk_latency(0).count() >= 1);
        assert!(m.fault_latency(0).mean() >= m.config().cost.guest_fault_cycles as f64);
        // Walk tail is bounded by a full cold 2D walk at DRAM latency plus
        // a handful of host faults backing fresh PT-node frames.
        assert!(m.walk_latency(0).max() < 24 * 250 + 5 * 6000);
        m.reset_measurement();
        assert_eq!(m.fault_latency(0).count(), 0);
        assert_eq!(m.walk_latency(0).count(), 0);
    }

    #[test]
    fn metrics_snapshot_covers_every_subsystem() {
        let mut m = machine();
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 8).unwrap();
        for i in 0..8 {
            m.touch(0, pid, GuestVirtAddr::new(va.raw() + i * 4096), true)
                .unwrap();
        }
        let snap = m.metrics_snapshot();
        assert_eq!(snap.op, 8);
        for name in [
            "mem.data.accesses",
            "guest.faults",
            "host.faults",
            "guest_buddy.allocs",
            "host_buddy.allocs",
            "guest_pt.total_nodes",
            "host_pt.total_nodes",
            "tlb.lookups",
            "walk_latency.count",
            "fault_latency.count",
            "faults.injected",
            "faults.chunk_denials",
            "faults.oom_denials",
            "faults.frag_shocks",
            "faults.reclaim_storms",
            "faults.swap_outs",
            "faults.daemon_passes",
            "faults.oom_retries",
            "faults.reclaimed_frames",
        ] {
            assert!(snap.get(name).is_some(), "snapshot missing {name}");
        }
        assert_eq!(snap.get("guest.faults").unwrap().as_u64(), Some(8));
    }

    #[test]
    fn tracer_records_fault_and_walk_events_without_changing_outcomes() {
        let run = |traced: bool| {
            let mut m = machine();
            if traced {
                m.install_tracer(vmsim_obs::Tracer::new());
            }
            let pid = m.guest_mut().spawn();
            let va = m.guest_mut().mmap(pid, 8).unwrap();
            let mut outcomes = Vec::new();
            for i in 0..8 {
                outcomes.push(
                    m.touch(0, pid, GuestVirtAddr::new(va.raw() + i * 4096), true)
                        .unwrap(),
                );
            }
            (outcomes, m.metrics_snapshot(), m.take_tracer())
        };
        let (plain_out, plain_snap, plain_tracer) = run(false);
        let (traced_out, traced_snap, traced_tracer) = run(true);
        // Tracing must not perturb the simulation.
        assert_eq!(plain_out, traced_out);
        assert_eq!(plain_snap, traced_snap);
        assert!(plain_tracer.is_none());
        let tracer = traced_tracer.expect("tracer was installed");
        assert_eq!(tracer.count_kind("page_fault"), 8);
        assert!(tracer.count_kind("pt_walk") >= 1);
        assert!(
            tracer.count_kind("buddy_split") >= 1,
            "cold pool must split"
        );
        assert!(tracer.events().all(|e| e.op >= 1 && e.op <= 8));
    }

    #[test]
    fn reclaim_wrapper_emits_reclaim_event() {
        let mut m = machine();
        m.install_tracer(vmsim_obs::Tracer::new());
        m.reclaim_reservations(64);
        let tracer = m.take_tracer().unwrap();
        assert_eq!(tracer.count_kind("reservation_reclaim"), 1);
    }

    #[test]
    fn zero_fault_plan_changes_nothing() {
        let run = |faulted: bool| {
            let mut m = machine();
            if faulted {
                m.install_faults(FaultPlan::default(), 42);
            }
            let pid = m.guest_mut().spawn();
            let va = m.guest_mut().mmap(pid, 8).unwrap();
            let mut outcomes = Vec::new();
            for i in 0..8 {
                outcomes.push(
                    m.touch(0, pid, GuestVirtAddr::new(va.raw() + i * 4096), true)
                        .unwrap(),
                );
            }
            (outcomes, m.metrics_snapshot())
        };
        let (plain_out, plain_snap) = run(false);
        let (faulted_out, faulted_snap) = run(true);
        assert_eq!(plain_out, faulted_out, "zero plan must be invisible");
        assert_eq!(plain_snap, faulted_snap, "same snapshot incl. key set");
    }

    #[test]
    fn injected_oom_is_absorbed_by_reclaim_and_retry() {
        let mut m = machine();
        m.install_tracer(vmsim_obs::Tracer::new());
        m.install_faults(
            FaultPlan {
                oom_rate: 1.0,
                ..FaultPlan::default()
            },
            0,
        );
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 4).unwrap();
        for i in 0..4 {
            // Every data-frame allocation is denied once, absorbed, and
            // retried with injection suppressed — the touch still succeeds.
            let out = m
                .touch(0, pid, GuestVirtAddr::new(va.raw() + i * 4096), false)
                .unwrap();
            assert!(out.faulted);
        }
        let snap = m.metrics_snapshot();
        assert!(snap.get("faults.oom_denials").unwrap().as_u64().unwrap() >= 4);
        assert!(snap.get("faults.oom_retries").unwrap().as_u64().unwrap() >= 4);
        let tracer = m.take_tracer().unwrap();
        assert!(tracer.count_kind("oom_retry") >= 4);
        assert!(tracer.count_kind("fault_injected") >= 4);
        assert_eq!(tracer.count_kind("page_fault"), 4);
    }

    #[test]
    fn frag_shock_fires_on_schedule_and_is_survivable() {
        let mut m = machine();
        m.install_tracer(vmsim_obs::Tracer::new());
        m.install_faults(
            FaultPlan {
                frag_shock_every: Some(2),
                frag_shock_order: 0,
                ..FaultPlan::default()
            },
            0,
        );
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 8).unwrap();
        for i in 0..8 {
            m.touch(0, pid, GuestVirtAddr::new(va.raw() + i * 4096), false)
                .unwrap();
        }
        let snap = m.metrics_snapshot();
        assert_eq!(snap.get("faults.frag_shocks").unwrap().as_u64(), Some(4));
        let tracer = m.take_tracer().unwrap();
        assert_eq!(tracer.count_kind("frag_shock"), 4);
    }

    /// A little workload with warm re-touches, a fork, COW breaks, and an
    /// unmap — enough to exercise every memo validation clause.
    fn mixed_workload(m: &mut Machine) -> Vec<TouchOutcome> {
        let mut outcomes = Vec::new();
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 8).unwrap();
        for round in 0..3 {
            for i in 0..8 {
                let a = GuestVirtAddr::new(va.raw() + i * 4096);
                outcomes.push(m.touch(0, pid, a, round == 2).unwrap());
                outcomes.push(m.touch(0, pid, a, false).unwrap());
            }
        }
        let child = m.guest_mut().fork(pid).unwrap();
        for i in 0..8 {
            let a = GuestVirtAddr::new(va.raw() + i * 4096);
            outcomes.push(m.touch(0, pid, a, false).unwrap());
            outcomes.push(m.touch(1, child, a, true).unwrap());
            outcomes.push(m.touch(1, child, a, true).unwrap());
        }
        m.munmap(pid, va.page(), 2).unwrap();
        for i in 2..8 {
            let a = GuestVirtAddr::new(va.raw() + i * 4096);
            outcomes.push(m.touch(0, pid, a, true).unwrap());
        }
        outcomes
    }

    #[test]
    fn memo_layer_is_bit_invisible() {
        let run = |memo: bool| {
            let mut m = machine();
            m.set_memo_enabled(memo);
            let outcomes = mixed_workload(&mut m);
            (outcomes, m.metrics_snapshot(), m.memo_stats())
        };
        let (naive_out, naive_snap, naive_stats) = run(false);
        let (memo_out, memo_snap, memo_stats) = run(true);
        assert_eq!(naive_out, memo_out, "outcomes must be bit-identical");
        assert_eq!(naive_snap, memo_snap, "snapshots must be bit-identical");
        assert_eq!(naive_stats.hits, 0, "disabled layer never replays");
        assert!(memo_stats.hits > 0, "warm re-touches must replay");
    }

    #[test]
    fn memo_layer_is_bit_invisible_under_tracing() {
        let run = |memo: bool| {
            let mut m = machine();
            m.set_memo_enabled(memo);
            m.install_tracer(vmsim_obs::Tracer::new());
            let outcomes = mixed_workload(&mut m);
            let tracer = m.take_tracer().unwrap();
            let events: Vec<String> = tracer
                .events()
                .map(|e| format!("{}:{:?}", e.op, e.kind))
                .collect();
            (outcomes, m.metrics_snapshot(), events)
        };
        let (naive_out, naive_snap, naive_events) = run(false);
        let (memo_out, memo_snap, memo_events) = run(true);
        assert_eq!(naive_out, memo_out);
        assert_eq!(naive_snap, memo_snap);
        assert_eq!(naive_events, memo_events, "trace streams must match");
    }

    #[test]
    fn profiler_is_bit_invisible_and_accounts_every_cycle() {
        use vmsim_obs::Phase;
        let run = |profile: bool| {
            let mut m = machine();
            if profile {
                m.install_profiler(vmsim_obs::Profiler::new());
            }
            let outcomes = mixed_workload(&mut m);
            let profile = m.take_profiler().map(|p| p.finish(0));
            (outcomes, m.metrics_snapshot(), profile)
        };
        let (plain_out, plain_snap, none) = run(false);
        let (prof_out, prof_snap, profile) = run(true);
        assert!(none.is_none());
        assert_eq!(plain_out, prof_out, "outcomes must be bit-identical");
        assert_eq!(plain_snap, prof_snap, "snapshots must be bit-identical");

        // The per-phase cycle ledger partitions the total cycle cost.
        let profile = profile.expect("profiler installed");
        let total_cycles: u64 = plain_out.iter().map(|o| o.cycles).sum();
        let attributed: u64 = profile.phases.iter().map(|p| p.cycles).sum();
        assert_eq!(attributed, total_cycles, "phase cycles must partition");
        // The workload faults, walks, memo-replays, and allocates.
        for phase in [
            Phase::MemoProbe,
            Phase::GuestWalk,
            Phase::HostWalk,
            Phase::Alloc,
            Phase::Workload,
        ] {
            assert!(
                profile.get(phase).cycles > 0,
                "phase {} accrued no cycles",
                phase.name()
            );
        }
        // Span accounting: every touch probes the TLB or replays a memo.
        assert!(profile.get(Phase::TlbLookup).enters > 0);
        assert!(profile.get(Phase::Fill).enters > 0);
    }

    #[test]
    fn memo_invalidated_by_cow_and_unmap() {
        let mut m = machine();
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 1).unwrap();
        m.touch(0, pid, va, false).unwrap();
        m.touch(0, pid, va, false).unwrap();
        assert!(m.memo_stats().hits >= 1, "warm read replays");
        // Fork downgrades the parent's PTE to COW: a memoized *write* must
        // not replay (it needs a COW break), and even reads revalidate.
        let child = m.guest_mut().fork(pid).unwrap();
        let hits_before = m.memo_stats().hits;
        let w = m.touch(0, pid, va, true).unwrap();
        assert!(w.cow_break || w.cycles > m.config().cost.work_cycles_per_access + 10);
        assert_eq!(m.memo_stats().hits, hits_before, "stale memo must miss");
        // Unmap in the child: its memoized touch goes slow and segfaults.
        m.touch(1, child, va, false).unwrap();
        m.munmap(child, va.page(), 1).unwrap();
        assert!(m.touch(1, child, va, false).is_err(), "no stale replay");
    }

    #[test]
    fn memo_cleared_by_fault_plan_triggers() {
        let mut m = machine();
        m.install_faults(
            FaultPlan {
                frag_shock_every: Some(4),
                frag_shock_order: 0,
                ..FaultPlan::default()
            },
            0,
        );
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 1).unwrap();
        let clears_start = m.memo_stats().clears;
        for _ in 0..8 {
            m.touch(0, pid, va, false).unwrap();
        }
        assert!(
            m.memo_stats().clears >= clears_start + 2,
            "each fired shock clears the memo tables"
        );
    }

    #[test]
    fn reset_measurement_clears_counters_not_contents() {
        let mut m = machine();
        let pid = m.guest_mut().spawn();
        let va = m.guest_mut().mmap(pid, 1).unwrap();
        m.touch(0, pid, va, false).unwrap();
        m.reset_measurement();
        assert_eq!(m.caches().counters().data.accesses, 0);
        assert_eq!(m.tlb(0).lookups(), 0);
        // TLB contents survived.
        let again = m.touch(0, pid, va, false).unwrap();
        assert!(again.tlb_hit);
    }

    /// A small colocated host: `vms` guests at 2x memory overcommit.
    fn tiny_multi_config(vms: u64) -> MachineConfig {
        let mut c = MachineConfig::small();
        c.guest_frames = 1 << 10;
        c.host_frames = vms * (1 << 9);
        c
    }

    fn multi(config: MachineConfig, vms: usize) -> Machine {
        Machine::multi_tenant(config, vms, |_| Box::new(DefaultAllocator::new()))
    }

    #[test]
    fn one_vm_multi_tenant_matches_single_tenant_bitwise() {
        let mut single = machine();
        let mut host = multi(MachineConfig::small(), 1);
        let single_out = mixed_workload(&mut single);
        let host_out = mixed_workload(&mut host);
        assert_eq!(single_out, host_out, "outcomes must be bit-identical");
        assert_eq!(
            single.metrics_snapshot(),
            host.metrics_snapshot(),
            "snapshots must be bit-identical"
        );
    }

    #[test]
    fn colocated_vms_never_share_host_frames() {
        let mut m = multi(tiny_multi_config(4), 4);
        for vm in 0..4 {
            let pid = m.vm_guest_mut(vm).spawn();
            let va = m.vm_guest_mut(vm).mmap(pid, 16).unwrap();
            for i in 0..16 {
                let a = GuestVirtAddr::new(va.raw() + i * 4096);
                m.touch_vm(vm, 0, pid, a, true).unwrap();
            }
        }
        let refs = m.host().frame_refs();
        assert!(refs.referenced_frames() >= 64, "each VM faulted 16 pages");
        assert_eq!(
            refs.total_refs(),
            refs.referenced_frames(),
            "no host frame may back two guest-physical pages"
        );
    }

    #[test]
    fn vm_kill_releases_host_frames_and_reboot_starts_fresh() {
        let mut m = multi(tiny_multi_config(2), 2);
        let p0 = m.vm_guest_mut(0).spawn();
        let va0 = m.vm_guest_mut(0).mmap(p0, 4).unwrap();
        m.touch_vm(0, 0, p0, va0, false).unwrap();
        let p1 = m.vm_guest_mut(1).spawn();
        let va1 = m.vm_guest_mut(1).mmap(p1, 8).unwrap();
        for i in 0..8 {
            let a = GuestVirtAddr::new(va1.raw() + i * 4096);
            m.touch_vm(1, 0, p1, a, false).unwrap();
        }
        let free_before = m.host_free_frames();
        let released = m.kill_vm(1);
        assert!(released >= 8, "data pages plus PT backing come home");
        assert_eq!(m.host_free_frames(), free_before + released);
        assert!(!m.vm_running(1));
        // The survivor keeps its guest mapping (no fault), but the
        // teardown shootdown forces a fresh walk.
        let out = m.touch_vm(0, 0, p0, va0, false).unwrap();
        assert!(!out.faulted);
        assert!(!out.tlb_hit);
        // The rebooted slot is a fresh guest: everything faults anew.
        m.boot_vm(1);
        assert!(m.vm_running(1));
        assert_eq!(m.vm_boots(1), 2);
        let p1 = m.vm_guest_mut(1).spawn();
        let va1 = m.vm_guest_mut(1).mmap(p1, 1).unwrap();
        assert!(m.touch_vm(1, 0, p1, va1, false).unwrap().faulted);
    }

    #[test]
    fn balloon_pins_guest_frames_and_deflate_returns_them() {
        let mut m = multi(tiny_multi_config(2), 2);
        let pid = m.vm_guest_mut(1).spawn();
        let va = m.vm_guest_mut(1).mmap(pid, 8).unwrap();
        for i in 0..8 {
            let a = GuestVirtAddr::new(va.raw() + i * 4096);
            m.touch_vm(1, 0, pid, a, false).unwrap();
        }
        let guest_free = m.vm_guest(1).buddy().free_frames();
        let host_free = m.host_free_frames();
        assert_eq!(m.balloon_vm(1, 64), 64);
        assert_eq!(m.vm_ballooned(1), 64);
        assert_eq!(m.vm_guest(1).buddy().free_frames(), guest_free - 64);
        assert!(
            m.host_free_frames() >= host_free,
            "inflation never consumes host memory"
        );
        assert_eq!(m.deflate_vm(1, 64), 64);
        assert_eq!(m.vm_ballooned(1), 0);
        assert_eq!(m.vm_guest(1).buddy().free_frames(), guest_free);
    }

    #[test]
    fn multi_tenant_snapshot_adds_host_and_vm_gauges() {
        let single = machine();
        let snap = single.metrics_snapshot();
        assert!(
            snap.get("host.free_frames").is_none(),
            "single-tenant key set must not change"
        );
        let m = multi(tiny_multi_config(2), 2);
        let snap = m.metrics_snapshot();
        assert!(snap.get("host.free_frames").is_some());
        assert!(snap.get("host.backed_frames").is_some());
        assert!(snap.get("host.frag").is_some());
        assert_eq!(snap.get("host.vms_running").unwrap().as_u64(), Some(2));
        for vm in 0..2 {
            assert_eq!(
                snap.get(&format!("vm.{vm}.running")).unwrap().as_u64(),
                Some(1)
            );
            assert!(snap.get(&format!("vm.{vm}.rss_pages")).is_some());
        }
    }

    #[test]
    fn lifecycle_events_are_traced() {
        let mut m = multi(tiny_multi_config(2), 2);
        m.install_tracer(vmsim_obs::Tracer::new());
        assert!(m.balloon_vm(1, 4) == 4);
        assert!(m.deflate_vm(1, 4) == 4);
        m.kill_vm(1);
        m.boot_vm(1);
        let t = m.take_tracer().unwrap();
        assert_eq!(t.count_kind("balloon"), 2);
        assert_eq!(t.count_kind("vm_kill"), 1);
        assert_eq!(t.count_kind("vm_boot"), 1);
    }
}
