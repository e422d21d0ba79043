//! The colocation engine: the one app scheduler of every run.
//!
//! Apps live in VM slots of one [`Machine`]. A single-guest run puts every
//! app in VM 0; a fleet adds one neighbour app per VM `1..` of a
//! [`Machine::multi_tenant`] host. Either way the same round-robin loop
//! interleaves them.

use vmsim_os::{Machine, Pid};
use vmsim_types::{GuestVirtAddr, MemError, Result, PAGE_SHIFT};
use vmsim_workloads::{Op, Phase, Workload};

/// Deterministic guest-thread interleaver: models one app's ops as issued
/// by `count` simulated threads, switching the active thread round-robin
/// after seeded quanta of 1–8 ops. Touch ops are striped so thread `t`
/// works `t` stripes ahead in the region — distinct threads fault distinct
/// pages (a page faults once), while neighbouring stripes land in shared
/// 8-page reservation groups, which is exactly the PaRT contention under
/// study. The schedule is a pure function of the seed and the op stream,
/// so `threads: N` runs are bit-reproducible.
#[derive(Debug)]
pub(crate) struct GuestThreads {
    count: u32,
    /// Currently executing thread.
    current: u32,
    /// Ops left in the current thread's quantum.
    left: u64,
    /// xorshift64* state drawing quantum lengths (self-contained, like the
    /// fault injector's generator — no RNG crate in the workspace).
    state: u64,
}

impl GuestThreads {
    pub(crate) fn new(count: u32, seed: u64) -> Self {
        assert!(count >= 2, "an interleaver needs at least two threads");
        // SplitMix64 finalizer; xorshift state must be nonzero.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self {
            count,
            // First switch wraps to thread 0.
            current: count - 1,
            left: 0,
            state: if z == 0 { 0x2545_F491_4F6C_DD1D } else { z },
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The thread currently issuing ops.
    pub(crate) fn current(&self) -> u32 {
        self.current
    }

    /// The thread executing the next op, switching (round-robin, with a
    /// fresh 1–8 op quantum) when the current quantum is spent. Returns
    /// `Some(next)` when this op starts a new thread's quantum.
    pub(crate) fn advance(&mut self) -> Option<u32> {
        let switched = if self.left == 0 {
            self.current = (self.current + 1) % self.count;
            self.left = 1 + self.next_u64() % 8;
            Some(self.current)
        } else {
            None
        };
        self.left -= 1;
        switched
    }

    /// Region-striped page index for the current thread: thread `t` shifts
    /// the workload's access stream by `t` stripes of `ceil(pages/count)`
    /// pages, wrapping at the region end.
    pub(crate) fn stripe(&self, page_idx: u64, pages: u64) -> u64 {
        let stripe = pages.div_ceil(u64::from(self.count));
        (page_idx + u64::from(self.current) * stripe) % pages
    }
}

/// One application running inside a VM of the host.
struct App {
    /// The VM slot the app runs in (0 unless it is a fleet neighbour).
    vm: usize,
    pid: Pid,
    core: usize,
    workload: Box<dyn Workload>,
    /// Region handle -> (base address, pages), indexed by handle. Workloads
    /// hand out small dense handles (streaming: 0..n fixed; churn:
    /// monotonically increasing, never reused), so a flat table beats a
    /// hash map on the per-op `Touch` path: slot lookup is one bounds check
    /// and a load, no hashing.
    regions: Vec<Option<(GuestVirtAddr, u64)>>,
    /// Cycles this app has accumulated.
    cycles: u64,
    /// Operations this app has executed.
    ops: u64,
    /// Whether the app is scheduled.
    running: bool,
    /// Ops per scheduling round (relative execution rate).
    weight: u32,
    /// Simulated guest threads. `None` (the default) executes the literal
    /// serial path — results are byte-identical to an engine without the
    /// field.
    threads: Option<GuestThreads>,
}

impl App {
    fn region(&self, handle: u32) -> Result<(GuestVirtAddr, u64)> {
        self.regions
            .get(handle as usize)
            .copied()
            .flatten()
            .ok_or(MemError::InvalidVma)
    }

    fn set_region(&mut self, handle: u32, base: GuestVirtAddr, pages: u64) {
        let slot = handle as usize;
        if slot >= self.regions.len() {
            self.regions.resize(slot + 1, None);
        }
        self.regions[slot] = Some((base, pages));
    }

    fn take_region(&mut self, handle: u32) -> Result<(GuestVirtAddr, u64)> {
        let region = self.region(handle)?;
        self.regions[handle as usize] = None;
        Ok(region)
    }
}

/// A set of colocated applications driven round-robin over a [`Machine`].
///
/// Each app is pinned to its own core (the paper pins application and
/// co-runner threads to distinct cores, §6.1); the engine interleaves their
/// operations to model concurrent execution, which is what interleaves their
/// page faults at the buddy allocator. A round runs the apps in the order
/// they were added, which is VM order and then app order within a VM; the
/// apps of a VM that is not running sit the round out.
///
/// # Examples
///
/// ```
/// use vmsim_os::{Machine, MachineConfig};
/// use vmsim_sim::Colocation;
/// use vmsim_workloads::{benchmark, corunner, BenchId, CoId};
///
/// # fn main() -> Result<(), vmsim_types::MemError> {
/// let mut colo = Colocation::new(Machine::new(MachineConfig::small()));
/// let app = colo.add_app(Box::new(benchmark(BenchId::Gcc, 0)), 1);
/// colo.add_app(corunner(CoId::Pyaes, 1), 2);
/// // Run until gcc finishes initializing, then measure 100 more of its ops.
/// colo.run_until_steady(app)?;
/// colo.run_ops(app, 100, |_| {})?;
/// assert!(colo.cycles(app) > 0);
/// # Ok(())
/// # }
/// ```
pub struct Colocation {
    machine: Machine,
    apps: Vec<App>,
    /// Reusable buffer for coalesced touch runs (see [`Colocation::round`]):
    /// keeps the batching path allocation-free across rounds.
    touch_buf: Vec<(GuestVirtAddr, bool)>,
}

impl Colocation {
    /// Creates an engine over `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no cores.
    pub fn new(machine: Machine) -> Self {
        assert!(machine.caches().core_count() > 0);
        Self {
            machine,
            apps: Vec::new(),
            touch_buf: Vec::new(),
        }
    }

    /// Adds an application to VM 0, pinning it to the next core (wrapping
    /// if there are more apps than cores). Returns its app index.
    pub fn add_app(&mut self, workload: Box<dyn Workload>, weight: u32) -> usize {
        self.add_vm_app(0, workload, weight)
    }

    /// Adds an application to VM `vm`. Apps are added in VM order, so a
    /// round visits VMs in order. Cores are assigned by global app index
    /// modulo the core count, whatever the VM.
    pub(crate) fn add_vm_app(
        &mut self,
        vm: usize,
        workload: Box<dyn Workload>,
        weight: u32,
    ) -> usize {
        debug_assert!(
            self.apps.last().is_none_or(|last| last.vm <= vm),
            "apps are added in VM order"
        );
        let core = self.apps.len() % self.machine.caches().core_count();
        let pid = self.machine.vm_guest_mut(vm).spawn();
        self.apps.push(App {
            vm,
            pid,
            core,
            workload,
            regions: Vec::new(),
            cycles: 0,
            ops: 0,
            running: true,
            weight: weight.max(1),
            threads: None,
        });
        self.apps.len() - 1
    }

    /// Models app `idx` as `threads` simulated guest threads whose page
    /// faults interleave deterministically (seeded round-robin quanta, see
    /// `GuestThreads`). `threads <= 1` keeps the serial path — ops,
    /// cycles, and machine state stay byte-identical to an untouched app.
    /// Raises the machine's declared guest-thread count so faults are
    /// attributed per thread.
    pub fn set_app_threads(&mut self, idx: usize, threads: u32, seed: u64) {
        if threads <= 1 {
            self.apps[idx].threads = None;
            return;
        }
        self.apps[idx].threads = Some(GuestThreads::new(threads, seed));
        if threads > self.machine.guest_threads() {
            self.machine.set_guest_threads(threads);
        }
    }

    /// The machine under simulation.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine (e.g. to reset counters between
    /// phases).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Restarts app `idx` as a fresh process running `workload` in the same
    /// VM, on the same core and at the same weight: what a rebooted VM runs.
    /// The app starts serial; [`Colocation::set_app_threads`] re-arms it.
    pub(crate) fn respawn(&mut self, idx: usize, workload: Box<dyn Workload>) {
        let app = &mut self.apps[idx];
        app.pid = self.machine.vm_guest_mut(app.vm).spawn();
        app.workload = workload;
        app.regions.clear();
        app.cycles = 0;
        app.ops = 0;
        app.running = true;
        app.threads = None;
    }

    /// Number of apps added so far.
    pub(crate) fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// The guest pid of app `idx`.
    pub fn pid(&self, idx: usize) -> Pid {
        self.apps[idx].pid
    }

    /// The core app `idx` is pinned to.
    pub fn core(&self, idx: usize) -> usize {
        self.apps[idx].core
    }

    /// Cycles accumulated by app `idx`.
    pub fn cycles(&self, idx: usize) -> u64 {
        self.apps[idx].cycles
    }

    /// Operations executed by app `idx`.
    pub fn ops(&self, idx: usize) -> u64 {
        self.apps[idx].ops
    }

    /// Current phase of app `idx`'s workload.
    pub fn phase(&self, idx: usize) -> Phase {
        self.apps[idx].workload.phase()
    }

    /// Stops scheduling app `idx` (the paper stops the co-runner before
    /// measuring in §3.3).
    pub fn stop(&mut self, idx: usize) {
        self.apps[idx].running = false;
    }

    /// Resumes scheduling app `idx`.
    pub fn resume(&mut self, idx: usize) {
        self.apps[idx].running = true;
    }

    /// Executes one operation of app `idx`.
    ///
    /// # Errors
    ///
    /// Propagates machine errors (OOM, invalid region use). Workload streams
    /// only reference regions they allocated, so errors indicate a resource
    /// exhaustion problem rather than a workload bug.
    pub fn step_app(&mut self, idx: usize) -> Result<()> {
        let app = &mut self.apps[idx];
        let op = app.workload.next_op();
        match op {
            Op::Alloc { region, pages } => {
                let base = self.machine.vm_guest_mut(app.vm).mmap(app.pid, pages)?;
                app.set_region(region, base, pages);
            }
            Op::Touch {
                region,
                page_idx,
                write,
            } => {
                let (base, pages) = app.region(region)?;
                debug_assert!(page_idx < pages);
                let va = GuestVirtAddr::new(base.raw() + (page_idx << PAGE_SHIFT));
                let out = self
                    .machine
                    .touch_vm(app.vm, app.core, app.pid, va, write)?;
                app.cycles += out.cycles;
            }
            Op::Free { region } => {
                let (base, pages) = app.take_region(region)?;
                self.machine
                    .munmap_vm(app.vm, app.pid, base.page(), pages)?;
            }
        }
        app.ops += 1;
        Ok(())
    }

    /// Runs one scheduling round: every running app executes `weight` ops.
    ///
    /// Each app's quantum is executed in batched form: consecutive `Touch`
    /// ops are coalesced and played through [`Machine::touch_run_vm`], which
    /// is bit-identical to per-op [`Machine::touch_vm`] calls but replays
    /// same-page streaks without revalidation. Alloc/Free ops flush the
    /// pending batch first, so the machine sees exactly the per-op order.
    ///
    /// # Errors
    ///
    /// Propagates the first step error. On an error mid-quantum, `ops`
    /// counts every operation pulled from the workload this quantum (the
    /// whole run is abandoned on error, so the distinction is unobservable).
    pub fn round(&mut self) -> Result<()> {
        for idx in 0..self.apps.len() {
            let app = &self.apps[idx];
            if !app.running || !self.machine.vm_running(app.vm) {
                continue;
            }
            let quantum = u64::from(app.weight);
            self.run_quantum(idx, quantum)?;
        }
        Ok(())
    }

    /// Executes `count` ops of app `idx` with touch batching.
    fn run_quantum(&mut self, idx: usize, count: u64) -> Result<()> {
        let mut batch = std::mem::take(&mut self.touch_buf);
        batch.clear();
        let mut threads = self.apps[idx].threads.take();
        let result = self.run_quantum_inner(idx, count, &mut batch, threads.as_mut());
        self.apps[idx].threads = threads;
        self.touch_buf = batch;
        result
    }

    /// The op loop of one quantum. With an interleaver (`threads` is
    /// `Some`), each op is issued by its current simulated thread: Touch
    /// pages are striped per thread, and the pending batch is flushed on
    /// every thread switch so fault attribution follows the issuing thread.
    /// Alloc and Free take no page faults, so they need no attribution.
    /// With `None` no thread state is read or written, which keeps
    /// `threads: 1` byte-identical to an engine without threads.
    fn run_quantum_inner(
        &mut self,
        idx: usize,
        count: u64,
        batch: &mut Vec<(GuestVirtAddr, bool)>,
        mut threads: Option<&mut GuestThreads>,
    ) -> Result<()> {
        if let Some(th) = threads.as_deref() {
            // Another VM's app may have moved the machine's active thread
            // since this app last ran.
            self.machine.set_active_thread(th.current());
        }
        for _ in 0..count {
            if let Some(next) = threads.as_deref_mut().and_then(GuestThreads::advance) {
                self.flush_batch(idx, batch)?;
                self.machine.set_active_thread(next);
            }
            let app = &mut self.apps[idx];
            let op = app.workload.next_op();
            app.ops += 1;
            match op {
                Op::Touch {
                    region,
                    page_idx,
                    write,
                } => {
                    let (base, pages) = app.region(region)?;
                    debug_assert!(page_idx < pages);
                    let page = threads
                        .as_deref()
                        .map_or(page_idx, |th| th.stripe(page_idx, pages));
                    batch.push((GuestVirtAddr::new(base.raw() + (page << PAGE_SHIFT)), write));
                }
                Op::Alloc { region, pages } => {
                    self.flush_batch(idx, batch)?;
                    let app = &mut self.apps[idx];
                    let base = self.machine.vm_guest_mut(app.vm).mmap(app.pid, pages)?;
                    app.set_region(region, base, pages);
                }
                Op::Free { region } => {
                    self.flush_batch(idx, batch)?;
                    let app = &mut self.apps[idx];
                    let (base, pages) = app.take_region(region)?;
                    self.machine
                        .munmap_vm(app.vm, app.pid, base.page(), pages)?;
                }
            }
        }
        self.flush_batch(idx, batch)
    }

    /// Plays the pending touch batch of app `idx` through the machine.
    fn flush_batch(&mut self, idx: usize, batch: &mut Vec<(GuestVirtAddr, bool)>) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let app = &mut self.apps[idx];
        app.cycles += self
            .machine
            .touch_run_vm(app.vm, app.core, app.pid, batch)?;
        batch.clear();
        Ok(())
    }

    /// Runs rounds until app `idx` leaves its [`Phase::Init`] phase.
    ///
    /// # Errors
    ///
    /// Propagates step errors.
    pub fn run_until_steady(&mut self, idx: usize) -> Result<()> {
        while self.apps[idx].workload.phase() == Phase::Init {
            self.round()?;
        }
        Ok(())
    }

    /// Runs rounds until app `idx` has executed `ops` more operations.
    /// Calls `sample` after every round (for §6.2-style periodic sampling).
    ///
    /// With a profiler installed, the scheduling rounds run under a
    /// `workload` span and each sampling callback under a `sample` span, so
    /// engine-side time (op generation, region lookup, sampling) is
    /// attributed rather than left as unaccounted remainder. Each call is a
    /// single branch when no profiler is installed.
    ///
    /// # Errors
    ///
    /// Propagates step errors.
    pub fn run_ops(
        &mut self,
        idx: usize,
        ops: u64,
        mut sample: impl FnMut(&Machine),
    ) -> Result<()> {
        let target = self.apps[idx].ops + ops;
        while self.apps[idx].ops < target {
            self.machine.prof_enter(vmsim_obs::Phase::Workload);
            let round = self.round();
            self.machine.prof_exit();
            round?;
            self.machine.prof_enter(vmsim_obs::Phase::Sample);
            sample(&self.machine);
            self.machine.prof_exit();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmsim_os::MachineConfig;
    use vmsim_workloads::{ChurnConfig, ChurnWorkload, StreamConfig, StreamingWorkload};

    fn small_stream() -> Box<dyn Workload> {
        Box::new(StreamingWorkload::new(
            StreamConfig {
                name: "s",
                regions: vec![32],
                seq_prob: 0.7,
                near_prob: 0.5,
                write_ratio: 0.2,
                touches_per_page: 2,
            },
            1,
        ))
    }

    fn small_churn() -> Box<dyn Workload> {
        Box::new(ChurnWorkload::new(
            ChurnConfig {
                name: "c",
                min_region_pages: 4,
                max_region_pages: 8,
                live_regions: 2,
                touch_fraction: 1.0,
                steady_touches_per_cycle: 1,
            },
            2,
        ))
    }

    #[test]
    fn apps_get_distinct_pids_and_cores() {
        let mut c = Colocation::new(Machine::new(MachineConfig::small()));
        let a = c.add_app(small_stream(), 1);
        let b = c.add_app(small_churn(), 1);
        assert_ne!(c.pid(a), c.pid(b));
        assert_ne!(c.core(a), c.core(b));
    }

    #[test]
    fn init_completes_and_footprint_is_resident() {
        let mut c = Colocation::new(Machine::new(MachineConfig::small()));
        let a = c.add_app(small_stream(), 1);
        c.run_until_steady(a).unwrap();
        let pid = c.pid(a);
        assert_eq!(c.machine().guest().process(pid).unwrap().rss_pages, 32);
        assert!(c.cycles(a) > 0);
    }

    #[test]
    fn churn_app_allocates_and_frees() {
        let mut c = Colocation::new(Machine::new(MachineConfig::small()));
        let idx = c.add_app(small_churn(), 1);
        for _ in 0..200 {
            c.round().unwrap();
        }
        let stats = c.machine().guest().stats();
        assert!(stats.faults > 0);
        assert!(stats.unmaps > 0);
        assert!(c.ops(idx) >= 200);
    }

    #[test]
    fn stopped_apps_do_not_progress() {
        let mut c = Colocation::new(Machine::new(MachineConfig::small()));
        let a = c.add_app(small_stream(), 1);
        let b = c.add_app(small_churn(), 1);
        c.stop(b);
        let before = c.ops(b);
        for _ in 0..10 {
            c.round().unwrap();
        }
        assert_eq!(c.ops(b), before);
        assert!(c.ops(a) > 0);
        c.resume(b);
        c.round().unwrap();
        assert!(c.ops(b) > before);
    }

    #[test]
    fn weights_bias_interleaving() {
        let mut c = Colocation::new(Machine::new(MachineConfig::small()));
        let a = c.add_app(small_stream(), 1);
        let b = c.add_app(small_churn(), 4);
        for _ in 0..50 {
            c.round().unwrap();
        }
        assert!(c.ops(b) >= 4 * c.ops(a));
    }

    #[test]
    fn batched_rounds_match_per_op_stepping() {
        let build = || {
            let mut c = Colocation::new(Machine::new(MachineConfig::small()));
            c.add_app(small_stream(), 1);
            c.add_app(small_churn(), 4);
            c
        };
        let mut batched = build();
        for _ in 0..100 {
            batched.round().unwrap();
        }
        let mut stepped = build();
        for _ in 0..100 {
            for (idx, weight) in [(0, 1), (1, 4)] {
                for _ in 0..weight {
                    stepped.step_app(idx).unwrap();
                }
            }
        }
        for idx in 0..2 {
            assert_eq!(batched.cycles(idx), stepped.cycles(idx));
            assert_eq!(batched.ops(idx), stepped.ops(idx));
        }
        assert_eq!(
            batched.machine().metrics_snapshot(),
            stepped.machine().metrics_snapshot(),
            "batched execution must be bit-identical to per-op stepping"
        );
    }

    #[test]
    fn one_thread_is_the_literal_serial_path() {
        let build = || {
            let mut c = Colocation::new(Machine::new(MachineConfig::small()));
            c.add_app(small_stream(), 1);
            c.add_app(small_churn(), 2);
            c
        };
        let mut serial = build();
        let mut routed = build();
        // threads <= 1 must not install an interleaver at all.
        routed.set_app_threads(0, 1, 42);
        for _ in 0..100 {
            serial.round().unwrap();
            routed.round().unwrap();
        }
        assert_eq!(serial.cycles(0), routed.cycles(0));
        assert_eq!(
            serial.machine().metrics_snapshot(),
            routed.machine().metrics_snapshot(),
            "threads: 1 must be byte-identical to the serial engine"
        );
        assert_eq!(routed.machine().guest_threads(), 1);
    }

    #[test]
    fn threaded_runs_are_seed_deterministic() {
        let build = |seed| {
            let mut c = Colocation::new(Machine::new(MachineConfig::small()));
            let a = c.add_app(small_stream(), 1);
            c.set_app_threads(a, 4, seed);
            c
        };
        let mut x = build(9);
        let mut y = build(9);
        for _ in 0..150 {
            x.round().unwrap();
            y.round().unwrap();
        }
        assert_eq!(x.cycles(0), y.cycles(0));
        assert_eq!(
            x.machine().metrics_snapshot(),
            y.machine().metrics_snapshot(),
            "same seed, same interleaving, same machine"
        );
        // A different seed draws different quanta, so the interleaved
        // fault stream (and the cycle total) diverges.
        let mut z = build(10);
        for _ in 0..150 {
            z.round().unwrap();
        }
        assert_ne!(x.cycles(0), z.cycles(0));
    }

    #[test]
    fn threaded_faults_are_attributed_across_threads() {
        let mut c = Colocation::new(Machine::new(MachineConfig::small()));
        let a = c.add_app(small_stream(), 1);
        c.set_app_threads(a, 4, 3);
        c.run_until_steady(a).unwrap();
        let faults = c.machine().thread_faults();
        assert_eq!(faults.len(), 4);
        assert!(
            faults.iter().filter(|&&f| f > 0).count() >= 2,
            "interleaved init faults come from several threads: {faults:?}"
        );
        assert_eq!(
            faults.iter().sum::<u64>(),
            c.machine().guest().stats().faults,
            "every fault is attributed to exactly one thread"
        );
        let snap = c.machine().metrics_snapshot();
        assert_eq!(snap.get("threads.count").and_then(|v| v.as_u64()), Some(4));
    }

    #[test]
    fn apps_of_a_stopped_vm_sit_out_until_respawned() {
        let machine = Machine::multi_tenant(MachineConfig::small(), 2, |_| {
            Box::new(vmsim_os::DefaultAllocator::new())
        });
        let mut c = Colocation::new(machine);
        let a = c.add_app(small_stream(), 1);
        let b = c.add_vm_app(1, small_churn(), 1);
        assert_ne!(c.core(a), c.core(b), "cores follow the global app index");
        for _ in 0..10 {
            c.round().unwrap();
        }
        assert!(c.machine().vm_guest(1).stats().faults > 0);
        c.machine_mut().kill_vm(1);
        let before = c.ops(b);
        for _ in 0..10 {
            c.round().unwrap();
        }
        assert_eq!(c.ops(b), before, "a killed VM's apps do not run");
        c.machine_mut().boot_vm(1);
        c.respawn(b, small_churn());
        c.round().unwrap();
        assert_eq!(c.ops(b), 1, "the rebooted VM runs a fresh app");
        assert_eq!(c.ops(a), 21);
    }

    #[test]
    fn run_ops_executes_exactly_enough_rounds() {
        let mut c = Colocation::new(Machine::new(MachineConfig::small()));
        let a = c.add_app(small_stream(), 1);
        c.run_until_steady(a).unwrap();
        let before = c.ops(a);
        let mut samples = 0;
        c.run_ops(a, 100, |_| samples += 1).unwrap();
        assert!(c.ops(a) >= before + 100);
        assert!(samples > 0);
    }
}
