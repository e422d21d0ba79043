//! The granularity ablation runs PTEMagnet's own mechanism.
//!
//! `granular:N` resolves to the PaRT-backed reservation allocator at group
//! order log2 N, so at N = 8 it is PTEMagnet under another label: every
//! hook (the §4.3 daemon and reclaim storms, the §4.4 swap target, fork
//! inheritance, exit drain and metrics) must behave the same. These tests
//! run cells that exercise those hooks both ways and compare the artifacts
//! and the metric snapshots. At N = 1 a group is a single page, so the
//! ablation's measured numbers equal the default kernel's.

use vmsim_config::{builtin, ExperimentManifest, ExperimentSpec};
use vmsim_sim::driver::{run_manifest, ManifestRun};

/// `manifest` reduced to its `keep` workloads (by index), `ops` measured
/// operations and the single policy `policy`.
fn cells(name: &str, keep: &[usize], ops: u64, policy: &str) -> ExperimentManifest {
    let mut m = builtin::by_name(name).expect("checked-in manifest");
    m.measure_ops = ops;
    let ExperimentSpec::Matrix(matrix) = &mut m.experiment else {
        panic!("{name} is a matrix");
    };
    matrix.policies = vec![policy.into()];
    matrix.workloads = keep.iter().map(|&i| matrix.workloads[i].clone()).collect();
    m
}

fn run(manifest: &ExperimentManifest) -> ManifestRun {
    let run = run_manifest(manifest).expect("manifest runs");
    assert_eq!(run.supervision.quarantined, 0, "{:?}", run.outcome);
    run
}

/// Runs the cells under `ptemagnet` and under `granular:8`; both must write
/// the same results (up to the policy name and allocator label) and end
/// every cell with the same metric snapshot and epoch series. Returns the
/// `ptemagnet` run.
fn assert_granular_8_is_ptemagnet(name: &str, keep: &[usize], ops: u64) -> ManifestRun {
    let magnet = run(&cells(name, keep, ops, "ptemagnet"));
    let granular = run(&cells(name, keep, ops, "granular:8"));
    assert_eq!(
        granular
            .results_json()
            .replace("granular-reservation", "ptemagnet")
            .replace("granular:8", "ptemagnet"),
        magnet.results_json(),
        "{name}: results diverge"
    );
    for (g, m) in granular.cells.iter().zip(&magnet.cells) {
        let (g, m) = (g.observed().expect("ran"), m.observed().expect("ran"));
        assert_eq!(g.snapshot, m.snapshot, "{name}: metric snapshots diverge");
        assert_eq!(g.series, m.series, "{name}: epoch series diverge");
    }
    magnet
}

#[test]
fn granular_8_is_ptemagnet_under_fault_plans() {
    // Baseline and the three severities: chunk failures, OOM retries,
    // fragmentation shocks, reclaim storms, swap targets and the daemon.
    assert_granular_8_is_ptemagnet("pressure", &[0, 1, 2, 3], 2_000);
}

#[test]
fn granular_8_is_ptemagnet_in_a_churned_fleet() {
    // Eight VMs on 1.5x overcommit, churn killing and rebooting guests.
    let run = assert_granular_8_is_ptemagnet("colocation", &[1], 5_000);
    let snapshot = &run.cells[0].observed().expect("ran").snapshot;
    let boots: u64 = (0..8)
        .map(|vm| snapshot.get(&format!("vm.{vm}.boots")))
        .map(|boots| boots.and_then(|v| v.as_u64()).expect("fleet gauge"))
        .sum();
    assert!(boots > 8, "churn rebooted a VM");
}

#[test]
fn granular_8_is_ptemagnet_with_guest_threads() {
    // Four guest threads faulting into one address space.
    assert_granular_8_is_ptemagnet("threads", &[2], 2_000);
}

#[test]
fn granular_1_measures_like_the_default_kernel() {
    let manifest = |policy| cells("ablate_granularity", &[0], 2_000, policy);
    let default = run(&manifest("default"));
    let granular = run(&manifest("granular:1"));
    let (d, g) = (
        default.cells[0].metrics().expect("ran"),
        granular.cells[0].metrics().expect("ran"),
    );
    assert_eq!(g.allocator, "granular-reservation");
    assert_eq!(g.cycles, d.cycles, "cycles");
    assert_eq!(g.host_frag, d.host_frag, "host-PT fragmentation");
    assert_eq!(g.guest_frag, d.guest_frag, "guest-PT fragmentation");
    // Initialisation is not measured: every primary fault also pays one
    // PaRT lookup.
    assert!(g.init_cycles > d.init_cycles);
}
