//! Refactor-parity proof: the manifest-driven engine must reproduce the
//! pre-refactor experiment code **bit-identically**.
//!
//! The "legacy" halves of these tests are verbatim inlinings of the
//! experiment loops as they existed before the driver/registry refactor
//! (hand-constructed `Scenario`s, hand-picked `AllocatorKind`s); the other
//! halves run the corresponding checked-in manifest through
//! [`vmsim_sim::driver::run_manifest`]. Same seeds, same machine — the
//! `RunMetrics` must be field-exact equal, and the emitted `results/` JSON
//! must be byte-stable across runs.
//!
//! Scaled down (small guest, few ops) so the proof runs in debug-mode CI;
//! the scale knobs are applied identically on both paths.

use vmsim_config::{builtin, ExperimentManifest, SimConfig};
use vmsim_os::{GuestFrameAllocator, GuestOs};
use vmsim_sim::driver::run_manifest;
use vmsim_sim::{AllocatorKind, RunMetrics, Scenario};
use vmsim_types::{GuestFrame, GuestVirtPage};
use vmsim_workloads::{BenchId, CoId};

const OPS: u64 = 2_000;
const SEED: u64 = 7;

/// The checked-in manifest `name` at one seed and a reduced op count.
fn checked_in(name: &str, seed: u64, ops: u64) -> ExperimentManifest {
    let mut manifest = builtin::by_name(name).expect("checked-in manifest");
    manifest.seeds = vec![seed];
    manifest.measure_ops = ops;
    manifest
}

/// The reduced platform both paths run on: 256 MB guest (enough for the
/// colocated footprints), paper defaults otherwise. The driver resolves
/// `manifest.sim` through `SimConfig::to_machine_config(1 + corunners)`;
/// the legacy path calls the same resolution explicitly.
fn small() -> SimConfig {
    SimConfig {
        guest_mb: Some(256),
        ..SimConfig::default()
    }
}

#[test]
fn table4_matches_prerefactor_code_bit_for_bit() {
    // Pre-refactor table4(): default and PTEMagnet variants of
    // pagerank + objdet (weight 4), co-runner running throughout.
    let legacy = |alloc: AllocatorKind| -> RunMetrics {
        Scenario::new(BenchId::Pagerank)
            .corunners(&[CoId::Objdet])
            .corunner_weight(4)
            .allocator(alloc)
            .machine(small().to_machine_config(2))
            .measure_ops(OPS)
            .seed(SEED)
            .run()
    };
    let legacy_default = legacy(AllocatorKind::Default);
    let legacy_ptemagnet = legacy(AllocatorKind::PteMagnet);

    let mut manifest = checked_in("table4", SEED, OPS);
    manifest.sim = Some(small());
    let runs = run_manifest(&manifest)
        .expect("checked-in manifest runs")
        .metrics();
    assert_eq!(runs.len(), 2, "table4 runs one cell per policy");
    assert_eq!(runs[0], legacy_default, "default run diverged");
    assert_eq!(runs[1], legacy_ptemagnet, "ptemagnet run diverged");
}

#[test]
fn fig6_matches_prerefactor_code_bit_for_bit() {
    // Pre-refactor sweep(): one job per (benchmark, allocator) with objdet
    // at weight 4, reassembled into per-benchmark (default, ptemagnet)
    // pairs.
    let legacy: Vec<(BenchId, RunMetrics, RunMetrics)> = BenchId::ALL
        .iter()
        .map(|&bench| {
            let run = |alloc: AllocatorKind| {
                Scenario::new(bench)
                    .corunners(&[CoId::Objdet])
                    .corunner_weight(4)
                    .allocator(alloc)
                    .machine(small().to_machine_config(2))
                    .measure_ops(OPS)
                    .seed(SEED)
                    .run()
            };
            (
                bench,
                run(AllocatorKind::Default),
                run(AllocatorKind::PteMagnet),
            )
        })
        .collect();

    let mut manifest = checked_in("fig6", SEED, OPS);
    manifest.sim = Some(small());
    let runs = run_manifest(&manifest)
        .expect("checked-in manifest runs")
        .metrics();
    // Workload-major: each benchmark's default run, then its ptemagnet run.
    assert_eq!(runs.len(), 2 * legacy.len());
    for (pair, (bench, default, ptemagnet)) in runs.chunks(2).zip(&legacy) {
        assert_eq!(pair[0].benchmark, bench.name());
        assert_eq!(
            &pair[0], default,
            "{}: default run diverged",
            pair[0].benchmark
        );
        assert_eq!(
            &pair[1], ptemagnet,
            "{}: ptemagnet run diverged",
            pair[0].benchmark
        );
    }
}

#[test]
fn results_json_is_byte_stable_across_runs() {
    let mut manifest = checked_in("table4", SEED, OPS);
    manifest.sim = Some(small());
    let first = run_manifest(&manifest).expect("runs").results_json();
    let second = run_manifest(&manifest).expect("runs").results_json();
    assert_eq!(first, second, "results artifact must be deterministic");
    vmsim_obs::json::parse(&first).expect("results artifact re-parses");
}

#[test]
fn registry_policies_are_bit_identical_to_hand_constructed_allocators() {
    // Every built-in kind: resolving its name through the registry must
    // produce the same allocator the enum hand-constructs — proven by
    // field-exact RunMetrics (including the `allocator` label).
    for kind in [
        AllocatorKind::Default,
        AllocatorKind::PteMagnet,
        AllocatorKind::CaPagingLike,
        AllocatorKind::Thp,
    ] {
        let base = Scenario::new(BenchId::Gcc)
            .machine(small().to_machine_config(1))
            .allocator(kind)
            .measure_ops(OPS)
            .seed(SEED)
            .run();
        let via_registry = Scenario::new(BenchId::Gcc)
            .machine(small().to_machine_config(1))
            .policy(kind.name())
            .expect("registered")
            .measure_ops(OPS)
            .seed(SEED)
            .run();
        assert_eq!(base, via_registry, "{}: registry diverged", kind.name());
    }

    // Parameterized entries resolve too, to the documented construction:
    // the same faults get the same frames from both allocators.
    let faults = |allocator: Box<dyn GuestFrameAllocator>| {
        let mut guest = GuestOs::new(1 << 14, allocator);
        let pid = guest.spawn();
        let base = guest.mmap(pid, 4096).expect("mmap").page().raw();
        let served: Vec<(GuestFrame, u32)> = (0..4096u64)
            .map(|i| {
                let vpn = GuestVirtPage::new(base + i * 37 % 4096);
                let info = guest.page_fault(pid, vpn).expect("fault");
                (info.gfn, info.pt_node_allocs)
            })
            .collect();
        (guest.allocator().name(), served)
    };
    let via_name = faults(ptemagnet::registry::resolve("granular:8").expect("registered"));
    let by_hand = faults(Box::new(ptemagnet::ReservationAllocator::granular(3)));
    assert_eq!(via_name, by_hand, "granular:8 != order-3 reservation");
}
