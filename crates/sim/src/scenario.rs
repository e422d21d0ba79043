//! Declarative description of one experimental run.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use vmsim_os::{GuestFrameAllocator, Machine, MachineConfig};
use vmsim_types::{FaultPlan, Result, RunError};
use vmsim_workloads::{benchmark, corunner, BenchId, CoId, Phase};

use vmsim_config::VmsSpec;

use crate::engine::Colocation;
use crate::fleet::{self, Fleet};
use crate::obs::{ObsConfig, ObservedRun};
use crate::progress::Pulse;

/// Per-cell resource budgets the supervised runtime enforces on a run.
///
/// The op budget is deterministic (it just shortens the measured phase);
/// the soft wall budget is deliberately wall-clock-dependent — it exists to
/// stop a hung cell — and any effect it has is marked as truncation, never
/// silent.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellBudget {
    /// Cap on measured ops; a scenario asking for more is truncated here.
    pub max_ops: Option<u64>,
    /// Soft wall-clock limit for the whole run (init + measurement).
    pub soft_wall: Option<Duration>,
}

impl CellBudget {
    /// No budgets: the run executes exactly as scripted.
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// Wall-budget bookkeeping: checks the clock every `CHECK_ROUNDS` scheduler
/// rounds so the hot loop never syscalls per round.
struct WallBudget {
    deadline: Option<Instant>,
    rounds: u32,
}

impl WallBudget {
    const CHECK_ROUNDS: u32 = 64;

    fn start(limit: Option<Duration>) -> Self {
        Self {
            deadline: limit.map(|d| Instant::now() + d),
            rounds: 0,
        }
    }

    /// True when the deadline has passed (checked at most every
    /// `CHECK_ROUNDS` calls).
    fn expired(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        self.rounds += 1;
        if self.rounds < Self::CHECK_ROUNDS {
            return false;
        }
        self.rounds = 0;
        Instant::now() >= deadline
    }

    /// True when the deadline has passed, checked immediately (for the
    /// chunked measured phase, where calls are already infrequent).
    fn expired_now(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Which guest frame allocator a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocatorKind {
    /// The stock Linux-like order-0 allocator (the paper's baseline).
    Default,
    /// PTEMagnet's reservation allocator (the paper's contribution).
    PteMagnet,
    /// Best-effort contiguity baseline (CA-paging-like, §7).
    CaPagingLike,
    /// Transparent huge pages (THP=always), the §2.3 "big hammer" baseline.
    Thp,
}

impl AllocatorKind {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::Default => "default",
            AllocatorKind::PteMagnet => "ptemagnet",
            AllocatorKind::CaPagingLike => "ca-paging-like",
            AllocatorKind::Thp => "thp",
        }
    }

    /// Instantiates the allocator through the policy registry — the single
    /// name → allocator mapping every layer shares.
    pub fn build(self) -> Box<dyn GuestFrameAllocator> {
        ptemagnet::registry::resolve(self.name()).expect("built-in kinds are registered")
    }
}

impl core::fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything measured about one run. Field names follow the rows of the
/// paper's Tables 1 and 4.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Benchmark name.
    pub benchmark: String,
    /// Allocator label.
    pub allocator: String,
    /// Steady-state operations measured.
    pub measure_ops: u64,
    /// "Execution time": cycles the benchmark spent over `measure_ops`.
    pub cycles: u64,
    /// TLB lookups during measurement (benchmark core).
    pub tlb_lookups: u64,
    /// Full TLB misses during measurement (each triggers a nested walk).
    pub tlb_misses: u64,
    /// Data accesses during measurement.
    pub data_accesses: u64,
    /// Data accesses served by main memory ("cache misses").
    pub data_misses: u64,
    /// "Page walk cycles": cycles in guest+host PT accesses.
    pub page_walk_cycles: u64,
    /// "Cycles spent traversing the host page table".
    pub host_pt_cycles: u64,
    /// Guest PT accesses (all levels).
    pub guest_pt_accesses: u64,
    /// "Guest page table accesses served by main memory".
    pub guest_pt_memory: u64,
    /// Host PT accesses (all levels).
    pub host_pt_accesses: u64,
    /// "Host page table accesses served by main memory".
    pub host_pt_memory: u64,
    /// Host-PT fragmentation metric (§3.2), measured after the allocation
    /// phase.
    pub host_frag: f64,
    /// Guest-PT fragmentation (≈1.0 by construction).
    pub guest_frag: f64,
    /// Cycles spent in the allocation/init phase (for §6.4).
    pub init_cycles: u64,
    /// Benchmark's resident footprint in pages.
    pub footprint_pages: u64,
    /// Peak reserved-but-unused frames observed during the run (§6.2).
    pub reserved_unused_peak: u64,
    /// Mean reserved-but-unused frames over per-round samples (§6.2).
    pub reserved_unused_mean: f64,
    /// Guest page faults taken by all apps over the whole run.
    pub total_faults: u64,
    /// Reservation faults degraded to single-frame fallbacks (§4.2), whole
    /// run. Zero for non-reservation allocators.
    pub reservation_fallbacks: u64,
    /// Frames released by reservation reclaim (daemon passes, storms, and
    /// swap-out hooks), whole run. Zero for non-reservation allocators.
    pub reclaimed_frames: u64,
    /// Allocations denied by the fault injector, whole run. Zero when the
    /// scenario carries no fault plan.
    pub faults_injected: u64,
}

impl RunMetrics {
    /// Fractional execution-time improvement of `self` over `baseline`
    /// (positive = faster).
    pub fn improvement_over(&self, baseline: &RunMetrics) -> f64 {
        1.0 - self.cycles as f64 / baseline.cycles as f64
    }

    /// Peak reserved-unused memory as a fraction of the footprint (§6.2).
    pub fn reserved_unused_fraction(&self) -> f64 {
        if self.footprint_pages == 0 {
            0.0
        } else {
            self.reserved_unused_peak as f64 / self.footprint_pages as f64
        }
    }
}

/// A single experimental run: benchmark + co-runners + allocator + protocol.
#[derive(Debug)]
pub struct Scenario {
    benchmark: BenchId,
    corunners: Vec<CoId>,
    allocator: AllocatorKind,
    /// Overrides `allocator` with an arbitrary implementation (used by the
    /// ablation benches, e.g. non-standard reservation granularities).
    custom_allocator: Option<Box<dyn GuestFrameAllocator>>,
    stop_corunners_after_init: bool,
    measure_ops: u64,
    corunner_weight: u32,
    seed: u64,
    machine: Option<MachineConfig>,
    /// If set, pre-fragment free guest memory into alternating runs of this
    /// many frames before anything runs (power of two).
    prefragment_run: Option<u64>,
    /// If set, install deterministic fault injection before the workloads
    /// start (seeded from the plan seed and the scenario seed). The plan
    /// arms VM 0's guest only.
    faults: Option<FaultPlan>,
    /// Overrides the `VMSIM_MEMO` environment default for this run (the
    /// differential suite runs memo-on and memo-off side by side in one
    /// process, where a global env var cannot express both).
    memo: Option<bool>,
    /// If set *and* active, the run executes on a multi-tenant host: VM 0
    /// runs this scenario's apps and `count - 1` neighbour VMs each run
    /// the benchmark, sharing an overcommitted host pool. An inactive spec
    /// (1 VM, no overcommit, no churn, no balloon) is the single-guest
    /// shape, bit-identically.
    vms: Option<VmsSpec>,
    /// Simulated guest threads of the benchmark app. 1 (the default)
    /// routes through the serial engine bit-identically; above 1 the
    /// engine interleaves the app's faults with a seeded round-robin
    /// interleaver.
    threads: u32,
}

impl Scenario {
    /// Creates a scenario with defaults: no co-runners, default allocator,
    /// co-runners running throughout, 200k measured ops, seed 0.
    pub fn new(benchmark: BenchId) -> Self {
        Self {
            benchmark,
            corunners: Vec::new(),
            allocator: AllocatorKind::Default,
            custom_allocator: None,
            stop_corunners_after_init: false,
            measure_ops: 200_000,
            corunner_weight: 1,
            seed: 0,
            machine: None,
            prefragment_run: None,
            faults: None,
            memo: None,
            vms: None,
            threads: 1,
        }
    }

    /// Sets the colocated co-runners.
    pub fn corunners(mut self, cos: &[CoId]) -> Self {
        self.corunners = cos.to_vec();
        self
    }

    /// Sets the guest frame allocator.
    pub fn allocator(mut self, kind: AllocatorKind) -> Self {
        self.allocator = kind;
        self
    }

    /// Uses an arbitrary allocator implementation, labelled by its
    /// [`GuestFrameAllocator::name`]. Overrides [`Scenario::allocator`].
    pub fn custom_allocator(mut self, allocator: Box<dyn GuestFrameAllocator>) -> Self {
        self.custom_allocator = Some(allocator);
        self
    }

    /// Stops co-runners once the benchmark finishes allocating (the §3.3
    /// protocol that isolates fragmentation effects from cache contention).
    pub fn stop_corunners_after_init(mut self, stop: bool) -> Self {
        self.stop_corunners_after_init = stop;
        self
    }

    /// Sets how many steady-state benchmark operations are measured.
    pub fn measure_ops(mut self, ops: u64) -> Self {
        self.measure_ops = ops;
        self
    }

    /// Sets co-runner scheduling weight (ops per benchmark op).
    pub fn corunner_weight(mut self, weight: u32) -> Self {
        self.corunner_weight = weight;
        self
    }

    /// Sets the RNG seed (stands in for the paper's 40-run averaging).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the machine configuration.
    pub fn machine(mut self, config: MachineConfig) -> Self {
        self.machine = Some(config);
        self
    }

    /// Pre-fragments free guest memory into alternating runs of
    /// `run_length` frames before the workloads start — a long-running VM
    /// whose largest free blocks are `run_length` frames. Used to study how
    /// allocators degrade under external fragmentation (THP needs order-9
    /// blocks; PTEMagnet only order-3).
    pub fn prefragment_run(mut self, run_length: u64) -> Self {
        self.prefragment_run = Some(run_length);
        self
    }

    /// Installs a deterministic fault plan for the run. A
    /// [`FaultPlan::is_zero`] plan leaves the run bit-identical to a
    /// fault-free one. On a multi-tenant host the plan arms VM 0's guest
    /// only: neighbours, and VMs rebooted by churn, never roll denials and
    /// never see the plan's scheduled triggers.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Forces the walk-memo layer on or off for this run, overriding the
    /// `VMSIM_MEMO` environment default. The memo layer is validated
    /// bit-invisible, so this only affects wall-clock time.
    pub fn memo(mut self, enabled: bool) -> Self {
        self.memo = Some(enabled);
        self
    }

    /// Runs the scenario on a multi-tenant host shaped by `spec`: `count`
    /// VMs, each under its own guest kernel and a fresh instance of the
    /// allocator policy, share one host pool sized by the overcommit ratio,
    /// with optional VM churn and balloon pressure. VM 0 runs this
    /// scenario's benchmark and co-runners; every other VM runs one
    /// neighbour instance of the benchmark. An inactive spec
    /// ([`VmsSpec::is_active`] is false) is the single-guest shape,
    /// bit-identically.
    pub fn vms(mut self, spec: VmsSpec) -> Self {
        self.vms = Some(spec);
        self
    }

    /// Models the benchmark as `threads` simulated guest threads whose
    /// page faults interleave deterministically (seeded by the scenario
    /// seed). `threads: 1` — the default — executes the literal serial
    /// engine path, byte-identically at every artifact level; `threads: N`
    /// is seed-deterministic. The interleaver only reshapes *when and
    /// where* faults land; it spawns no OS threads, so results stay
    /// invariant across `VMSIM_THREADS` worker-pool widths.
    pub fn threads(mut self, threads: u32) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs the scenario.
    ///
    /// # Panics
    ///
    /// Panics on simulation resource exhaustion (misconfigured machine). Use
    /// [`Scenario::try_run`] to handle errors.
    pub fn run(self) -> RunMetrics {
        self.try_run().expect("scenario execution failed")
    }

    /// Runs the scenario, propagating simulation errors.
    ///
    /// # Errors
    ///
    /// Returns [`vmsim_types::MemError`] on resource exhaustion.
    pub fn try_run(self) -> Result<RunMetrics> {
        Ok(self.try_run_observed(ObsConfig::disabled())?.metrics)
    }

    /// Runs the scenario with observability enabled per `obs`.
    ///
    /// # Panics
    ///
    /// Panics on simulation resource exhaustion (misconfigured machine). Use
    /// [`Scenario::try_run_observed`] to handle errors.
    pub fn run_observed(self, obs: ObsConfig) -> ObservedRun {
        self.try_run_observed(obs)
            .expect("scenario execution failed")
    }

    /// Runs the scenario with observability enabled per `obs`, propagating
    /// simulation errors. The returned [`ObservedRun::metrics`] is
    /// bit-identical to what [`Scenario::try_run`] would produce for the
    /// same scenario.
    ///
    /// # Errors
    ///
    /// Returns [`vmsim_types::MemError`] on resource exhaustion.
    pub fn try_run_observed(self, obs: ObsConfig) -> Result<ObservedRun> {
        self.try_run_supervised(obs, CellBudget::unlimited())
            .map_err(|e| match e {
                RunError::Sim { error } => error,
                // With no budgets installed the only failure source is the
                // simulation itself.
                other => unreachable!("unbudgeted run failed with {other}"),
            })
    }

    /// Runs the scenario under supervisor budgets, with observability per
    /// `obs`. With [`CellBudget::unlimited`] the result is bit-identical to
    /// [`Scenario::try_run_observed`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Sim`] on resource exhaustion, and
    /// [`RunError::BudgetExceeded`] when the soft wall budget expires during
    /// the allocation/init phase — before any measurable result exists. A
    /// budget expiring during the measured phase is *not* an error: the run
    /// stops early and comes back with [`ObservedRun::truncated`] set.
    pub fn try_run_supervised(
        self,
        obs: ObsConfig,
        budget: CellBudget,
    ) -> core::result::Result<ObservedRun, RunError> {
        self.run_inner(obs, budget, u64::MAX, &mut |_| {})
    }

    /// Like [`Scenario::try_run_supervised`], but invokes `on_pulse` at
    /// heartbeat cadence during the measured phase: at the first measured
    /// chunk boundary past each multiple of `heartbeat_ops`, plus once when
    /// the phase ends. Which ops pulse is deterministic (a pure function of
    /// the scenario and the interval); the pulse payload carries only
    /// op-space state, so telemetry sinks add wall-clock data themselves.
    /// The callback cannot affect the run: results are bit-identical to
    /// [`Scenario::try_run_supervised`].
    ///
    /// # Errors
    ///
    /// Identical to [`Scenario::try_run_supervised`].
    pub fn try_run_supervised_with_progress(
        self,
        obs: ObsConfig,
        budget: CellBudget,
        heartbeat_ops: u64,
        on_pulse: &mut dyn FnMut(Pulse),
    ) -> core::result::Result<ObservedRun, RunError> {
        self.run_inner(obs, budget, heartbeat_ops.max(1), on_pulse)
    }

    fn run_inner(
        self,
        obs: ObsConfig,
        budget: CellBudget,
        heartbeat_ops: u64,
        on_pulse: &mut dyn FnMut(Pulse),
    ) -> core::result::Result<ObservedRun, RunError> {
        let cores = 1 + self.corunners.len();
        let mut config = self
            .machine
            .unwrap_or_else(|| MachineConfig::paper(cores, 1024));
        // The fleet shape, resolved once: every rule that sets a fleet
        // apart from a single guest reads this.
        let vms = self.vms.filter(VmsSpec::is_active);
        config.host_frames = fleet::host_frames(vms.as_ref(), &config);
        let (allocator, allocator_name) = match self.custom_allocator {
            Some(custom) => {
                let name = custom.name();
                (custom, name)
            }
            None => (self.allocator.build(), self.allocator.name()),
        };
        let mut machine = match &vms {
            None => Machine::with_allocator(config, allocator),
            // Every VM of a fleet, and every reboot, gets a fresh instance
            // of the policy from the registry.
            Some(spec) => Machine::multi_tenant(config, fleet::vm_count(spec), move |_| {
                ptemagnet::registry::resolve(allocator_name)
                    .expect("policy pre-validated by the driver")
            }),
        };
        // VMSIM_MEMO escape hatch: the memo layer is validated bit-invisible
        // (see the differential suite), so this only affects wall-clock.
        machine.set_memo_enabled(
            self.memo
                .unwrap_or_else(vmsim_config::env::memo_enabled_or_default),
        );
        if obs.trace {
            machine.install_tracer(vmsim_obs::Tracer::with_capacity(obs.trace_capacity));
        }
        let _held = self
            .prefragment_run
            .map(|run| machine.guest_mut().hold_fragmenting_pattern(run));
        // After the prefragment hold so machine setup is never a fault
        // target; process spawns suppress injection on their own.
        if let Some(plan) = self.faults {
            machine.install_faults(plan, self.seed);
        }
        let mut colo = Colocation::new(machine);

        let seed = fleet::workload_seed(vms.as_ref(), self.seed, 0, 1);
        let primary = colo.add_app(Box::new(benchmark(self.benchmark, seed)), 1);
        colo.set_app_threads(primary, self.threads, seed);
        let co_idxs: Vec<usize> = self
            .corunners
            .iter()
            .enumerate()
            .map(|(i, &co)| {
                colo.add_app(
                    corunner(co, self.seed.wrapping_mul(31).wrapping_add(i as u64 + 1)),
                    self.corunner_weight,
                )
            })
            .collect();
        let mut fleet =
            vms.map(|spec| Fleet::spawn(spec, self.benchmark, self.seed, self.threads, &mut colo));

        // Phase A: allocation/init, with co-runner faults interleaving. The
        // wall budget is checked on a coarse round cadence; expiring here —
        // before any measurable result exists — fails the cell.
        let wall_limit_ms = budget.soft_wall.map_or(0, |d| d.as_millis() as u64);
        let mut wall = WallBudget::start(budget.soft_wall);
        while colo.phase(primary) == Phase::Init {
            colo.round()?;
            if let Some(fleet) = fleet.as_mut() {
                fleet.after_init_round(&mut colo);
            }
            if wall.expired() {
                return Err(RunError::BudgetExceeded {
                    budget: "wall",
                    limit: wall_limit_ms,
                });
            }
        }
        let init_cycles = colo.cycles(primary);

        if self.stop_corunners_after_init {
            for &i in &co_idxs {
                colo.stop(i);
            }
        }

        // Fragmentation is a property of the layout created during
        // allocation: measure it now (Figure 5 protocol).
        let pid = colo.pid(primary);
        let host_frag = colo.machine().host_pt_fragmentation(pid)?;
        let guest_frag = colo.machine().guest_pt_fragmentation(pid)?;
        let footprint_pages = colo.machine().guest().process(pid)?.rss_pages;

        // Phase B: measured steady state. The profiler covers exactly this
        // phase: installed after the measurement reset, harvested right
        // after the loop, with the same stopwatch bounding total wall time
        // so the unattributed remainder is reported rather than hidden.
        colo.machine_mut().reset_measurement();
        if obs.profile {
            colo.machine_mut()
                .install_profiler(vmsim_obs::Profiler::new());
        }
        let measured_wall = Instant::now();
        let cycles_before = colo.cycles(primary);
        let mut unused_peak = 0u64;
        let mut unused_sum = 0u128;
        let mut samples = 0u64;
        let mut series = vmsim_obs::TimeSeries::new();
        let mut next_epoch = None;
        if let Some(interval) = obs.epoch_ops {
            // Anchor the series at the phase-B start so a run always yields
            // at least two samples (start + end).
            series.push(colo.machine().metrics_snapshot());
            next_epoch = Some(colo.machine().ops_executed() + interval);
        }
        let mut sample = |m: &Machine| {
            let unused = m.guest().allocator().reserved_unused_frames();
            unused_peak = unused_peak.max(unused);
            unused_sum += u128::from(unused);
            samples += 1;
            if let (Some(interval), Some(next)) = (obs.epoch_ops, next_epoch.as_mut()) {
                while m.ops_executed() >= *next {
                    series.push(m.metrics_snapshot());
                    *next += interval;
                }
            }
        };
        // The op budget shortens the measured phase up front; the wall
        // budget is polled between chunks and stops it mid-flight. Either
        // way the run comes back marked truncated, with `measure_ops`
        // recording what actually executed. The chunking itself changes
        // nothing: the primary app runs one op per round, so N chunked
        // rounds replay exactly the same schedule as one run_ops(N) call.
        let requested_ops = self.measure_ops;
        let effective_ops = budget
            .max_ops
            .map_or(requested_ops, |cap| cap.min(requested_ops));
        let mut truncated = effective_ops < requested_ops;
        const CHUNK_OPS: u64 = 1024;
        let mut executed_ops = 0u64;
        let mut pulsed_at = 0u64;
        let pulse = |colo: &Colocation, done: u64| {
            let memo = colo.machine().memo_stats();
            Pulse {
                ops_done: done,
                ops_total: effective_ops,
                memo_hits: memo.hits + memo.streak_hits,
                memo_misses: memo.naive_walks,
            }
        };
        while executed_ops < effective_ops {
            if wall.expired_now() {
                truncated = true;
                break;
            }
            let chunk = CHUNK_OPS.min(effective_ops - executed_ops);
            colo.run_ops(primary, chunk, &mut sample)?;
            executed_ops += chunk;
            if let Some(fleet) = fleet.as_mut() {
                fleet.after_chunk(&mut colo, executed_ops);
            }
            if executed_ops / heartbeat_ops > pulsed_at / heartbeat_ops {
                pulsed_at = executed_ops;
                on_pulse(pulse(&colo, executed_ops));
            }
        }
        // Terminal pulse: the phase ended (completed or truncated) since
        // the last cadence crossing.
        if executed_ops > 0 && pulsed_at != executed_ops {
            on_pulse(pulse(&colo, executed_ops));
        }
        if obs.epoch_ops.is_some() {
            let last_op = series.last().map(|s| s.op);
            if last_op != Some(colo.machine().ops_executed()) {
                series.push(colo.machine().metrics_snapshot());
            }
        }
        let profile = colo
            .machine_mut()
            .take_profiler()
            .map(|p| p.finish(measured_wall.elapsed().as_nanos() as u64));

        let core = colo.core(primary);
        let counters = *colo.machine().caches().core_counters(core);
        let tlb = colo.machine().tlb(core);
        let snapshot = colo.machine().metrics_snapshot();
        let gauge = |name: &str| snapshot.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
        let metrics = RunMetrics {
            benchmark: self.benchmark.name().to_string(),
            allocator: allocator_name.to_string(),
            measure_ops: executed_ops,
            cycles: colo.cycles(primary) - cycles_before,
            tlb_lookups: tlb.lookups(),
            tlb_misses: tlb.misses(),
            data_accesses: counters.data.accesses,
            data_misses: counters.data.memory,
            page_walk_cycles: counters.page_walk_cycles(),
            host_pt_cycles: counters.host_pt_cycles(),
            guest_pt_accesses: counters.guest_pt.accesses,
            guest_pt_memory: counters.guest_pt_memory_accesses(),
            host_pt_accesses: counters.host_pt.accesses,
            host_pt_memory: counters.host_pt_memory_accesses(),
            host_frag: host_frag.mean(),
            guest_frag: guest_frag.mean(),
            init_cycles,
            footprint_pages,
            reserved_unused_peak: unused_peak,
            reserved_unused_mean: if samples == 0 {
                0.0
            } else {
                (unused_sum / u128::from(samples)) as f64
            },
            total_faults: (0..colo.machine().vm_count())
                .map(|vm| colo.machine().vm_guest(vm).stats().faults)
                .sum(),
            reservation_fallbacks: gauge("reservation.fallbacks"),
            reclaimed_frames: gauge("reservation.reclaimed_frames"),
            faults_injected: gauge("faults.injected"),
        };

        let walk_latency = colo.machine().merged_walk_latency();
        let fault_latency = colo.machine().merged_fault_latency();
        let (events, trace_dropped) = match colo.machine_mut().take_tracer() {
            Some(mut tracer) => {
                let dropped = tracer.dropped();
                (tracer.drain(), dropped)
            }
            None => (Vec::new(), 0),
        };
        Ok(ObservedRun {
            metrics,
            snapshot,
            series,
            events,
            trace_dropped,
            walk_latency,
            fault_latency,
            profile,
            truncated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(bench: BenchId) -> Scenario {
        // Small machine + short measurement for fast unit tests.
        Scenario::new(bench)
            .machine(MachineConfig::paper(2, 256))
            .measure_ops(5_000)
    }

    #[test]
    fn allocator_kinds_build() {
        assert_eq!(AllocatorKind::Default.build().name(), "default");
        assert_eq!(AllocatorKind::PteMagnet.build().name(), "ptemagnet");
        assert_eq!(AllocatorKind::CaPagingLike.build().name(), "ca-paging-like");
    }

    #[test]
    fn solo_gcc_runs_and_reports() {
        let m = quick(BenchId::Gcc).run();
        assert_eq!(m.benchmark, "gcc");
        assert!(m.cycles > 0);
        assert!(m.tlb_lookups > 0);
        assert!(m.footprint_pages >= 6_144);
        assert!((m.guest_frag - 1.0).abs() < 1e-9);
    }

    #[test]
    fn colocated_default_fragespects_more_than_ptemagnet() {
        let base = quick(BenchId::Gcc)
            .corunners(&[CoId::StressNg])
            .corunner_weight(4)
            .run();
        let pm = quick(BenchId::Gcc)
            .corunners(&[CoId::StressNg])
            .corunner_weight(4)
            .allocator(AllocatorKind::PteMagnet)
            .run();
        assert!(
            base.host_frag > 1.5,
            "baseline fragments: {}",
            base.host_frag
        );
        assert!(
            (pm.host_frag - 1.0).abs() < 0.05,
            "ptemagnet pins fragmentation to ~1: {}",
            pm.host_frag
        );
    }

    #[test]
    fn improvement_math() {
        let mut a = quick(BenchId::Gcc).run();
        let mut b = a.clone();
        a.cycles = 100;
        b.cycles = 93;
        assert!((b.improvement_over(&a) - 0.07).abs() < 1e-9);
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_plain_run() {
        let plain = quick(BenchId::Gcc).run();
        let supervised = quick(BenchId::Gcc)
            .try_run_supervised(ObsConfig::disabled(), CellBudget::unlimited())
            .expect("clean run");
        assert!(!supervised.truncated);
        assert_eq!(supervised.metrics, plain);
    }

    #[test]
    fn op_budget_truncates_into_a_partial_result() {
        let run = quick(BenchId::Gcc)
            .try_run_supervised(
                ObsConfig::disabled(),
                CellBudget {
                    max_ops: Some(1_000),
                    soft_wall: None,
                },
            )
            .expect("truncation is not an error");
        assert!(run.truncated);
        assert_eq!(run.metrics.measure_ops, 1_000);
        assert!(run.metrics.cycles > 0, "partial measurement still counted");
    }

    #[test]
    fn wall_budget_expiring_in_init_is_a_typed_error() {
        let err = quick(BenchId::Gcc)
            .try_run_supervised(
                ObsConfig::disabled(),
                CellBudget {
                    max_ops: None,
                    soft_wall: Some(Duration::ZERO),
                },
            )
            .expect_err("zero wall budget cannot survive init");
        assert_eq!(err.kind(), "budget_exceeded");
    }

    #[test]
    fn profiled_run_is_bit_identical_and_accounts_the_measured_phase() {
        let plain = quick(BenchId::Gcc).run();
        let prof = quick(BenchId::Gcc).run_observed(ObsConfig::profiled());
        assert_eq!(prof.metrics, plain, "profiler must be bit-invisible");
        let profile = prof.profile.expect("profiled run carries a profile");
        assert!(profile.total_wall_ns > 0);
        // The deterministic cycle ledger partitions the measured cycles
        // exactly: every cycle the primary app accumulated in phase B is
        // attributed to exactly one phase.
        let ledger: u64 = vmsim_obs::Phase::ALL
            .iter()
            .map(|&p| profile.get(p).cycles)
            .sum();
        assert_eq!(ledger, plain.cycles);
        // The engine-side spans account the wall time of the measured loop;
        // anything else is reported as an explicit remainder.
        assert!(
            profile.attributed_fraction() > 0.5,
            "attributed only {}",
            profile.attributed_fraction()
        );
        let off = quick(BenchId::Gcc).run_observed(ObsConfig::disabled());
        assert!(off.profile.is_none(), "no profile unless requested");
    }

    #[test]
    fn ptemagnet_reports_reserved_unused() {
        let m = quick(BenchId::Gcc)
            .allocator(AllocatorKind::PteMagnet)
            .run();
        // Benchmarks touch every page during init, so steady-state unused
        // reservations are tiny (§6.2: < 0.2 % of footprint).
        assert!(
            m.reserved_unused_fraction() < 0.002 + 1e-9,
            "got {}",
            m.reserved_unused_fraction()
        );
    }
}
