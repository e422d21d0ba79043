//! The multi-tenant side of a run: N guest VMs on one overcommitted host.
//!
//! A scenario with an active `vms` section runs on a
//! [`Machine::multi_tenant`] host. VM 0 holds the measured benchmark and
//! its co-runners. Every other VM runs one neighbour instance of the same
//! benchmark under its own guest kernel and a fresh instance of the
//! allocator policy. All of them are apps of the one [`Colocation`]
//! engine, driven by the one run loop of the scenario layer. The
//! interference under study is between VMs at the host buddy allocator:
//! the public-cloud setting of the paper's introduction.
//!
//! A fleet differs from a single guest in three rules, each resolved from
//! the scenario's `Option<VmsSpec>`:
//!
//! * the host pool size, [`host_frames`];
//! * the workload seed of each benchmark instance, [`workload_seed`];
//! * core pinning, which is the engine's global app index modulo the core
//!   count in both shapes (see [`Colocation`]).
//!
//! On top of the shared loop, [`Fleet`] drives two host-level pressure
//! sources from the spec:
//!
//! * **churn**: every `churn_period_ops` measured primary ops, the next
//!   `churn_kills` VMs in a seeded rotation (never VM 0) are killed, and
//!   every VM found dead at a tick is rebooted with a fresh guest kernel
//!   and a fresh workload, re-running its allocation phase against
//!   whatever fragmentation the fleet has built up;
//! * **ballooning**: when host free memory drops below
//!   `balloon_watermark` of the pool, neighbour balloons inflate (guest
//!   frames pinned, host backing released) until the watermark is
//!   restored, and deflate once the host is comfortably above it.
//!
//! A spec that [`VmsSpec::is_active`] rejects (1 VM, no overcommit, no
//! churn, no balloon) resolves to no fleet: the single-guest shape,
//! byte-identical to a scenario without a spec.

use vmsim_config::VmsSpec;
use vmsim_os::{Machine, MachineConfig};
use vmsim_workloads::{benchmark, BenchId, Workload};

use crate::engine::Colocation;

/// Guest frames moved per balloon inflate/deflate call (order-0 grabs
/// inside [`Machine::balloon_vm`], so the chunk is just a batching factor).
const BALLOON_CHUNK: u64 = 64;

/// Allocation-phase rounds between two balloon passes.
const INIT_BALLOON_ROUNDS: u64 = 64;

/// VM slots on a fleet's host.
pub(crate) fn vm_count(spec: &VmsSpec) -> usize {
    spec.count.max(1) as usize
}

/// Host-physical pool size in frames. A fleet gets
/// `floor(count × guest_frames / overcommit)`: at 1.0 the fleet's guest
/// RAM fits exactly, above it the VMs compete. A single guest keeps
/// `config.host_frames`, which is twice the guest for paper configs.
pub(crate) fn host_frames(fleet: Option<&VmsSpec>, config: &MachineConfig) -> u64 {
    fleet.map_or(config.host_frames, |spec| {
        ((vm_count(spec) as u64 * config.guest_frames) as f64 / spec.overcommit).floor() as u64
    })
}

/// Seed of the benchmark instance VM `vm` runs at boot `boot` (1 for the
/// first boot); it also seeds the instance's thread interleaver. A fleet
/// mixes the VM index and the boot count into the base seed, so a
/// rebooted VM replays a new stream rather than its predecessor's. A
/// single guest's benchmark uses the base seed. Co-runners are seeded
/// `seed·31 + i + 1` in both shapes.
pub(crate) fn workload_seed(fleet: Option<&VmsSpec>, seed: u64, vm: usize, boot: u64) -> u64 {
    match fleet {
        None => seed,
        Some(_) => seed
            .wrapping_add((vm as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(boot.wrapping_mul(0x2545_F491_4F6C_DD1D)),
    }
}

/// The neighbour VMs of a fleet and the churn and balloon pressure on
/// them. VM 0 is never killed or ballooned: it carries the measurement.
pub(crate) struct Fleet {
    spec: VmsSpec,
    bench: BenchId,
    seed: u64,
    threads: u32,
    /// App index of VM 1's neighbour; VM `v`'s is `first + v - 1`.
    first: usize,
    /// Churn rotation cursor over VMs `1..count`.
    victim: usize,
    /// Balloon rotation cursor over VMs `1..count`.
    squeeze: usize,
    /// Measured ops at which the next churn tick is due.
    next_churn: u64,
    /// Allocation-phase rounds seen so far.
    init_rounds: u64,
}

impl Fleet {
    /// Adds one neighbour app running `bench` to each VM `1..` of `colo`'s
    /// host. VM 0's apps must already be in place.
    pub(crate) fn spawn(
        spec: VmsSpec,
        bench: BenchId,
        seed: u64,
        threads: u32,
        colo: &mut Colocation,
    ) -> Self {
        let fleet = Self {
            spec,
            bench,
            seed,
            threads,
            first: colo.app_count(),
            victim: 0,
            squeeze: 0,
            next_churn: spec.churn_period_ops.unwrap_or(u64::MAX),
            init_rounds: 0,
        };
        for vm in 1..colo.machine().vm_count() {
            let (workload, seed) = fleet.instance(colo.machine(), vm);
            let idx = colo.add_vm_app(vm, workload, 1);
            colo.set_app_threads(idx, threads, seed);
        }
        fleet
    }

    /// The benchmark instance VM `vm` runs at its current boot, and its
    /// seed.
    fn instance(&self, machine: &Machine, vm: usize) -> (Box<dyn Workload>, u64) {
        let seed = workload_seed(Some(&self.spec), self.seed, vm, machine.vm_boots(vm));
        (Box::new(benchmark(self.bench, seed)), seed)
    }

    /// The allocation-phase step, called after every round: a balloon pass
    /// every [`INIT_BALLOON_ROUNDS`] rounds. With tight overcommit the
    /// fleet may need squeezing to get everyone through allocation.
    pub(crate) fn after_init_round(&mut self, colo: &mut Colocation) {
        self.init_rounds += 1;
        if self.init_rounds.is_multiple_of(INIT_BALLOON_ROUNDS) {
            self.balloon_pass(colo.machine_mut());
        }
    }

    /// The measured-phase step, called after every chunk with the measured
    /// ops executed so far: every churn tick now due, then one balloon
    /// pass. Deterministic: a pure function of the spec and the chunk
    /// cadence.
    pub(crate) fn after_chunk(&mut self, colo: &mut Colocation, executed_ops: u64) {
        if let Some(period) = self.spec.churn_period_ops {
            while executed_ops >= self.next_churn {
                self.churn_tick(colo);
                self.next_churn += period;
            }
        }
        self.balloon_pass(colo.machine_mut());
    }

    /// One churn tick: reboot every dead VM with a fresh benchmark
    /// instance, then kill the next `churn_kills` rotation victims.
    fn churn_tick(&mut self, colo: &mut Colocation) {
        let count = colo.machine().vm_count();
        for vm in 1..count {
            if !colo.machine().vm_running(vm) {
                colo.machine_mut().boot_vm(vm);
                let (workload, seed) = self.instance(colo.machine(), vm);
                let idx = self.first + vm - 1;
                colo.respawn(idx, workload);
                colo.set_app_threads(idx, self.threads, seed);
            }
        }
        for _ in 0..self.spec.churn_kills.min(count as u32 - 1) {
            let vm = 1 + (self.seed as usize + self.victim) % (count - 1);
            self.victim += 1;
            if colo.machine().vm_running(vm) {
                colo.machine_mut().kill_vm(vm);
            }
        }
    }

    /// Balloon governor: below the low watermark, squeeze neighbours until
    /// the host is back above it; above twice the watermark, give one
    /// chunk back. Bounded to one rotation pass per call.
    fn balloon_pass(&mut self, machine: &mut Machine) {
        let Some(watermark) = self.spec.balloon_watermark else {
            return;
        };
        let count = machine.vm_count();
        if count < 2 {
            return;
        }
        let low = (watermark * machine.config().host_frames as f64) as u64;
        let free = machine.host_free_frames();
        if free < low {
            for _ in 1..count {
                let vm = 1 + self.squeeze % (count - 1);
                self.squeeze += 1;
                if !machine.vm_running(vm) {
                    continue;
                }
                machine.balloon_vm(vm, BALLOON_CHUNK);
                if machine.host_free_frames() >= low {
                    break;
                }
            }
        } else if free > 2 * low {
            for vm in 1..count {
                if machine.vm_running(vm) && machine.vm_ballooned(vm) > 0 {
                    machine.deflate_vm(vm, BALLOON_CHUNK);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use vmsim_config::VmsSpec;
    use vmsim_obs::json;
    use vmsim_os::MachineConfig;
    use vmsim_workloads::BenchId;

    use crate::obs::ObsConfig;
    use crate::scenario::Scenario;

    /// A small fleet that runs in well under a second.
    fn fleet(spec: VmsSpec) -> Scenario {
        Scenario::new(BenchId::Gcc)
            .machine(MachineConfig::paper(2, 48))
            .measure_ops(4_000)
            .vms(spec)
    }

    #[test]
    fn inactive_spec_is_the_single_guest_shape() {
        let plain = Scenario::new(BenchId::Gcc)
            .machine(MachineConfig::paper(2, 256))
            .measure_ops(4_000)
            .run_observed(ObsConfig::enabled(1_000));
        let tenant = Scenario::new(BenchId::Gcc)
            .machine(MachineConfig::paper(2, 256))
            .measure_ops(4_000)
            .vms(VmsSpec::default())
            .run_observed(ObsConfig::enabled(1_000));
        assert_eq!(tenant.metrics, plain.metrics);
        assert_eq!(tenant.snapshot, plain.snapshot);
        assert_eq!(tenant.series.to_csv(), plain.series.to_csv());
    }

    #[test]
    fn fleet_runs_and_reports_host_gauges() {
        let run = fleet(VmsSpec {
            count: 3,
            overcommit: 1.2,
            churn_period_ops: None,
            churn_kills: 1,
            balloon_watermark: None,
        })
        .run_observed(ObsConfig::enabled(1_000));
        assert_eq!(run.metrics.benchmark, "gcc");
        assert!(run.metrics.cycles > 0);
        assert!(run.metrics.footprint_pages >= 6_144);
        // Every VM initialized, so the fleet faulted at least 3x the
        // measured VM's footprint.
        assert!(run.metrics.total_faults >= 3 * 6_144);
        let host_free = run
            .snapshot
            .get("host.vms_running")
            .and_then(|v| v.as_u64());
        assert_eq!(host_free, Some(3));
        assert!(run.series.len() >= 2);
    }

    #[test]
    fn rules_resolve_to_the_single_guest_values_without_a_fleet() {
        let config = MachineConfig::paper(2, 48);
        assert_eq!(super::host_frames(None, &config), config.host_frames);
        assert_eq!(super::workload_seed(None, 7, 0, 1), 7);
        let spec = VmsSpec {
            count: 3,
            overcommit: 1.5,
            ..VmsSpec::default()
        };
        assert_eq!(
            super::host_frames(Some(&spec), &config),
            3 * config.guest_frames * 2 / 3
        );
        assert_eq!(
            super::workload_seed(Some(&spec), 7, 0, 1),
            7 + 0x2545_F491_4F6C_DD1D
        );
        // A reboot replays a new stream.
        assert_ne!(
            super::workload_seed(Some(&spec), 7, 1, 1),
            super::workload_seed(Some(&spec), 7, 1, 2)
        );
    }

    #[test]
    fn churn_kills_and_reboots_neighbours_not_the_primary() {
        let mut obs = ObsConfig::enabled(1_000);
        obs.trace = true;
        let run = fleet(VmsSpec {
            count: 3,
            overcommit: 1.2,
            churn_period_ops: Some(1_024),
            churn_kills: 1,
            balloon_watermark: None,
        })
        .run_observed(obs);
        let jsonl = run.events_jsonl();
        let kills = jsonl.lines().filter(|l| l.contains("vm_kill")).count();
        let boots = jsonl.lines().filter(|l| l.contains("vm_boot")).count();
        assert!(kills >= 2, "churn ticked: {kills} kills");
        assert!(boots >= 1, "dead VMs reboot: {boots} boots");
        for line in jsonl.lines().filter(|l| l.contains("vm_kill")) {
            let doc = json::parse(line).expect("event parses");
            assert_ne!(
                doc.get("vm").and_then(json::Json::as_u64),
                Some(0),
                "VM 0 is never killed"
            );
        }
        assert!(run.metrics.cycles > 0);
    }

    #[test]
    fn balloon_governor_fires_under_host_pressure() {
        // 3 VMs of 48 MB whose resident fleet footprint leaves the host
        // below the watermark: the governor must start squeezing the
        // neighbours (pinning their free guest frames) while VM 0 keeps
        // running.
        let run = fleet(VmsSpec {
            count: 3,
            overcommit: 1.8,
            churn_period_ops: None,
            churn_kills: 1,
            balloon_watermark: Some(0.12),
        })
        .try_run_observed(ObsConfig::enabled(1_000))
        .expect("pressured fleet still completes");
        let ballooned: u64 = (1..3)
            .filter_map(|vm| {
                run.snapshot
                    .get(&format!("vm.{vm}.ballooned_frames"))
                    .and_then(|v| v.as_u64())
            })
            .sum();
        assert!(ballooned > 0, "the governor inflated neighbour balloons");
        assert!(run.metrics.cycles > 0);
    }
}
