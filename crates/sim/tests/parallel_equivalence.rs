//! Determinism invariant of the parallel harness: replicating a scenario
//! across seeds on the worker pool must produce **bit-identical** metrics to
//! running the same seeds serially, in the same (seed) order — regardless of
//! thread count or scheduling.

use proptest::prelude::*;
use vmsim_os::MachineConfig;
use vmsim_sim::{
    AllocatorKind, ObsConfig, ObservedRun, Parallelism, Replication, RunMetrics, Scenario,
};
use vmsim_types::FaultPlan;
use vmsim_workloads::BenchId;

fn run_scenario(bench: BenchId, alloc: AllocatorKind, seed: u64) -> RunMetrics {
    Scenario::new(bench)
        .machine(MachineConfig::paper(1, 128))
        .allocator(alloc)
        .measure_ops(2_000)
        .seed(seed)
        .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn parallel_replication_is_bit_identical_to_serial(
        seed0 in 0u64..1_000,
        stride in 1u64..50,
        threads in 2usize..6,
    ) {
        let seeds: Vec<u64> = (0..4).map(|i| seed0 + i * stride).collect();
        let run = |seed| run_scenario(BenchId::Gcc, AllocatorKind::Default, seed);
        let serial = Replication::across_with(Parallelism::Serial, seeds.clone(), run);
        let parallel = Replication::across_with(Parallelism::Threads(threads), seeds, run);
        // RunMetrics equality is field-exact (counters, cycles, floats), so
        // this checks bit-identical output per seed, in seed order.
        prop_assert_eq!(&serial.runs, &parallel.runs);
    }

    #[test]
    fn paired_improvement_is_thread_count_invariant(
        seed0 in 0u64..1_000,
    ) {
        let seeds: Vec<u64> = (seed0..seed0 + 3).collect();
        let mk = |par: Parallelism, alloc: AllocatorKind| {
            Replication::across_with(par, seeds.clone(), move |seed| {
                run_scenario(BenchId::Gcc, alloc, seed)
            })
        };
        let base_serial = mk(Parallelism::Serial, AllocatorKind::Default);
        let pm_serial = mk(Parallelism::Serial, AllocatorKind::PteMagnet);
        let base_parallel = mk(Parallelism::Threads(4), AllocatorKind::Default);
        let pm_parallel = mk(Parallelism::Threads(4), AllocatorKind::PteMagnet);
        let serial = pm_serial.improvement_over(&base_serial);
        let parallel = pm_parallel.improvement_over(&base_parallel);
        prop_assert_eq!(serial, parallel);
    }
}

fn run_observed(bench: BenchId, alloc: AllocatorKind, seed: u64) -> ObservedRun {
    Scenario::new(bench)
        .machine(MachineConfig::paper(1, 128))
        .allocator(alloc)
        .measure_ops(2_000)
        .seed(seed)
        .run_observed(ObsConfig::enabled(500))
}

#[test]
fn epoch_time_series_is_thread_count_invariant() {
    // Observability must not weaken the determinism invariant: with epoch
    // sampling (and tracing) enabled, the captured time series — every
    // sample, every metric, every op stamp — must be field-identical
    // between serial and pooled execution, and each series must actually
    // sample the run (≥ 2 snapshots).
    let seeds: [u64; 3] = [3, 17, 92];
    let run = |i: usize| run_observed(BenchId::Gcc, AllocatorKind::PteMagnet, seeds[i]);
    let serial = vmsim_sim::parallel::run_indexed(Parallelism::Serial, seeds.len(), run);
    let parallel = vmsim_sim::parallel::run_indexed(Parallelism::Threads(4), seeds.len(), run);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.metrics, p.metrics);
        assert_eq!(s.series, p.series, "epoch series must be field-identical");
        assert_eq!(s.snapshot, p.snapshot);
        assert_eq!(s.events, p.events);
        assert!(s.series.len() >= 2, "series samples the run endpoints");
    }
}

fn run_observed_with_faults(faults: Option<FaultPlan>, seed: u64) -> ObservedRun {
    let mut scenario = Scenario::new(BenchId::Gcc)
        .machine(MachineConfig::paper(1, 128))
        .allocator(AllocatorKind::PteMagnet)
        .measure_ops(2_000)
        .seed(seed);
    if let Some(plan) = faults {
        scenario = scenario.faults(plan);
    }
    scenario.run_observed(ObsConfig::enabled(500))
}

#[test]
fn zero_rate_fault_plan_is_differentially_invisible() {
    // Differential invariant of the fault layer: installing a FaultPlan whose
    // every rate is zero and every schedule disabled must be bit-identical to
    // never installing one — metrics, epoch time series, final snapshot, and
    // event trace — under both serial and pooled execution. Anything less
    // means the injector perturbs the RNG stream or the allocator even when
    // "off", and faulted experiments would not be comparable to baselines.
    let observed = |faults: Option<FaultPlan>, par: Parallelism| {
        vmsim_sim::parallel::run_indexed(par, 2, move |i| {
            run_observed_with_faults(faults, 11 + i as u64 * 31)
        })
    };
    let bare = observed(None, Parallelism::Serial);
    for par in [Parallelism::Serial, Parallelism::Threads(4)] {
        let zeroed = observed(Some(FaultPlan::none()), par);
        for (b, z) in bare.iter().zip(&zeroed) {
            assert_eq!(
                b.metrics, z.metrics,
                "zero-rate plan must not perturb metrics"
            );
            assert_eq!(
                b.series, z.series,
                "zero-rate plan must not perturb the epoch series"
            );
            assert_eq!(
                b.snapshot, z.snapshot,
                "zero-rate plan must not perturb the snapshot"
            );
            assert_eq!(
                b.events, z.events,
                "zero-rate plan must not emit or displace events"
            );
            assert_eq!(z.metrics.faults_injected, 0);
        }
    }
}

#[test]
fn faulted_runs_are_bit_identical_across_pool_widths() {
    // A *live* fault schedule must stay deterministic under the worker pool:
    // the injector RNG is derived from (plan seed, run seed) only, never from
    // thread identity or scheduling order.
    let plan = FaultPlan {
        seed: 0xFA17,
        chunk_fail_rate: 0.5,
        oom_rate: 0.02,
        frag_shock_every: Some(700),
        frag_shock_order: 0,
        reclaim_storm_every: Some(500),
        reclaim_storm_frames: 64,
        swap_out_every: Some(900),
        daemon_threshold: Some(0.05),
        daemon_restore_to: Some(0.1),
    };
    let run = |par: Parallelism| {
        vmsim_sim::parallel::run_indexed(par, 3, move |i| {
            run_observed_with_faults(Some(plan), 5 + i as u64 * 17)
        })
    };
    let serial = run(Parallelism::Serial);
    let pooled = run(Parallelism::Threads(4));
    let mut injected = 0;
    for (s, p) in serial.iter().zip(&pooled) {
        assert_eq!(s.metrics, p.metrics);
        assert_eq!(s.series, p.series);
        assert_eq!(s.snapshot, p.snapshot);
        assert_eq!(s.events, p.events);
        injected += s.metrics.faults_injected;
    }
    assert!(
        injected > 0,
        "a 50% chunk-fail plan must actually inject faults"
    );
}

#[test]
fn experiment_functions_are_thread_count_invariant() {
    // The driver reads VMSIM_THREADS itself; run the smallest paper
    // manifest at two pool sizes and require identical output.
    let mut manifest = vmsim_config::builtin::by_name("table4").expect("checked-in manifest");
    manifest.seeds = vec![7];
    manifest.measure_ops = 2_000;
    let table4 = || match vmsim_sim::run_manifest(&manifest).expect("runs").outcome {
        vmsim_sim::Outcome::Table4(t) => t,
        other => panic!("table4 manifest produced {other:?}"),
    };
    std::env::set_var("VMSIM_THREADS", "1");
    let serial = table4();
    std::env::set_var("VMSIM_THREADS", "4");
    let parallel = table4();
    std::env::remove_var("VMSIM_THREADS");
    assert_eq!(serial.default, parallel.default);
    assert_eq!(serial.ptemagnet, parallel.ptemagnet);
}
