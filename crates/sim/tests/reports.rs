//! The text of every report, pinned by digest.
//!
//! Each matrix report kind runs one checked-in manifest through the driver,
//! cut to the smallest shape its validation accepts: one workload (two for
//! `table1` and `pressure`, one STLB and one nested-TLB row for `hw`), one
//! seed (two for `variance`), a two-VM fleet for `colocation`, at most
//! 1,000 measured ops, and a 256 MB guest where the manifest sets no `sim`.
//! The §6.4 microbenchmark runs at a small array, and two smoke runs cover
//! the supervisor's texts: one degraded by a chaos drill, one truncated by
//! an op budget. The FNV-1a digests of each run's results JSON and report
//! text are pinned, so a change to the report layer that moves one byte of
//! either shows up here. `breakdown.rs` pins the walk breakdown.
//!
//! The last test reorders the policies of the THP study and of Figure 5:
//! each number must stay under its own policy's name.

use vmsim_config::{
    builtin, ChaosPlan, ExperimentManifest, ExperimentSpec, PolicySpec, SimConfig, SupervisorSpec,
};
use vmsim_sim::driver::{run_manifest, run_supervised, ManifestRun, Supervisor};
use vmsim_sim::journal::fnv1a;

/// The checked-in manifest `name` with only the workloads at `keep` (in
/// that order) and its first `seeds` seeds, at most 1,000 measured ops and
/// a 256 MB guest unless the manifest sets its own `sim`.
fn cut(name: &str, keep: &[usize], seeds: usize) -> ExperimentManifest {
    let mut manifest = builtin::by_name(name).expect("checked-in manifest");
    manifest.seeds.truncate(seeds);
    manifest.measure_ops = manifest.measure_ops.min(1_000);
    manifest.sim.get_or_insert(SimConfig {
        guest_mb: Some(256),
        ..SimConfig::default()
    });
    let ExperimentSpec::Matrix(matrix) = &mut manifest.experiment else {
        panic!("{name} is not a matrix manifest");
    };
    matrix.workloads = keep.iter().map(|&w| matrix.workloads[w].clone()).collect();
    manifest
}

/// The hex FNV-1a digests of a run's results JSON and report text.
fn digests(run: &ManifestRun) -> [String; 2] {
    [run.results_json(), run.report()].map(|text| format!("{:016x}", fnv1a(text.as_bytes())))
}

/// Asserts that a finished run's results JSON and report text hash to
/// `golden`.
fn assert_run(run: &ManifestRun, golden: [&str; 2]) {
    assert_eq!(
        digests(run),
        golden,
        "{} artifact bytes moved; report:\n{}",
        run.manifest.name,
        run.report()
    );
}

/// Runs `manifest` and asserts its digests.
fn assert_digests(manifest: &ExperimentManifest, golden: [&str; 2]) {
    assert_run(&run_manifest(manifest).expect("cut manifest runs"), golden);
}

#[test]
fn runs_listing() {
    assert_digests(
        &cut("smoke", &[0], 1),
        ["f25dc4db639df794", "ce56e539e76df381"],
    );
}

#[test]
fn csv_dump() {
    assert_digests(
        &cut("csv", &[0], 1),
        ["db1eb355ac85c4cd", "d7b8745baa915e71"],
    );
}

#[test]
fn table1() {
    assert_digests(
        &cut("table1", &[0, 1], 1),
        ["fd0210588901db70", "2f276fa6bfe3bad9"],
    );
}

#[test]
fn table4() {
    assert_digests(
        &cut("table4", &[0], 1),
        ["e358da98201caeae", "a751f8c0b7e3ce1f"],
    );
}

#[test]
fn fig5() {
    assert_digests(
        &cut("fig5", &[0], 1),
        ["7158ef528d7a5d5b", "302d05e9b7d25335"],
    );
}

#[test]
fn fig6() {
    assert_digests(
        &cut("fig6", &[0], 1),
        ["9816a0a397d0b779", "83556681e0480a9f"],
    );
}

#[test]
fn fig7() {
    // The combination colocation fits a 256 MB guest with gcc measured.
    assert_digests(
        &cut("fig7", &[4], 1),
        ["b339d9f674a3caed", "56ea1100d67443f5"],
    );
}

#[test]
fn sec62() {
    assert_digests(
        &cut("sec62", &[0], 1),
        ["1a2a8cd321ba435b", "11a4170f048ee99e"],
    );
}

#[test]
fn thp() {
    assert_digests(
        &cut("thp", &[0], 1),
        ["06438e960a80ccc0", "6c31026b0dca1347"],
    );
}

#[test]
fn specint() {
    assert_digests(
        &cut("specint", &[0], 1),
        ["5facaa39628739c7", "bbdd9d40af11f3c1"],
    );
}

#[test]
fn variance() {
    assert_digests(
        &cut("variance", &[0], 2),
        ["4a6a6c50772a521f", "04a3735c509ad2ae"],
    );
}

#[test]
fn llc() {
    assert_digests(
        &cut("llc", &[0], 1),
        ["75e60900175a89c8", "841374e322bbd168"],
    );
}

#[test]
fn hw() {
    // Workload 0 varies the STLB, workload 3 the nested TLB.
    assert_digests(
        &cut("hw", &[0, 3], 1),
        ["1b3f4258fb2df83b", "06d6afdcf6c853a4"],
    );
}

#[test]
fn pressure() {
    assert_digests(
        &cut("pressure", &[0, 1], 1),
        ["415f2b13b9e555fa", "8f591d60b6f2c87e"],
    );
}

#[test]
fn colocation() {
    let mut manifest = cut("colocation", &[0], 1);
    let ExperimentSpec::Matrix(matrix) = &mut manifest.experiment else {
        unreachable!("cut returns matrix manifests");
    };
    let vms = matrix.workloads[0]
        .vms
        .as_mut()
        .expect("colocation workloads carry vms");
    vms.count = 2;
    assert_digests(&manifest, ["518dfbc024cf5a78", "0158da1601f17da7"]);
}

#[test]
fn sec64() {
    let mut manifest = builtin::by_name("sec64").expect("checked-in manifest");
    manifest.experiment = ExperimentSpec::AllocLatency { pages: 1_024 };
    assert_digests(&manifest, ["8a2860fa409631b0", "4e052fe265242002"]);
}

#[test]
fn degraded_smoke() {
    let sup = Supervisor {
        chaos: Some(ChaosPlan {
            cell: 1,
            fail_attempts: None,
        }),
        ..Supervisor::default()
    };
    let run = run_supervised(&cut("smoke", &[0], 1), &sup).expect("degraded run");
    assert_eq!(run.supervision.quarantined, 1);
    assert_run(&run, ["e6e277d45e87bde2", "d26e5045ac1e4079"]);
}

#[test]
fn truncated_smoke() {
    let mut manifest = cut("smoke", &[0], 1);
    manifest.supervisor = Some(SupervisorSpec {
        retries: 0,
        seed_stride: 0,
        max_cell_ops: Some(500),
        soft_wall_ms: None,
    });
    let run = run_manifest(&manifest).expect("budgeted run");
    assert_eq!(run.supervision.truncated, 2);
    assert_run(&run, ["341d581289061283", "599dbaeee9a2b296"]);
}

/// `manifest` with its policies replaced by `names`, in that order.
fn with_policies(mut manifest: ExperimentManifest, names: &[&str]) -> ExperimentManifest {
    let ExperimentSpec::Matrix(matrix) = &mut manifest.experiment else {
        unreachable!("cut returns matrix manifests");
    };
    matrix.policies = names.iter().map(|&name| PolicySpec::new(name)).collect();
    manifest
}

#[test]
fn thp_and_fig5_label_each_number_with_its_policy() {
    // THP keeps 8 pages resident per touched page, the other two keep 1.
    let thp = with_policies(cut("thp", &[0], 1), &["default", "ptemagnet", "thp"]);
    let text = run_manifest(&thp).expect("reordered thp runs").report();
    assert_eq!(
        text.lines().last(),
        Some("default 1.0   ptemagnet 1.0   thp 8.0"),
        "{text}"
    );

    let fig5 = with_policies(cut("fig5", &[0], 1), &["default", "granular:4"]);
    let text = run_manifest(&fig5).expect("reordered fig5 runs").report();
    assert_eq!(
        text.lines().nth(1),
        Some("benchmark    default granular:4"),
        "{text}"
    );
}
