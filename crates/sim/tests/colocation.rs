//! Multi-tenant colocation: driver-level behaviour of the `vms` manifest
//! section.
//!
//! The load-bearing test is the golden parity proof: a manifest whose
//! `vms` section spells out the implicit single-guest shape (1 VM, no
//! overcommit, no churn, no balloon) must produce **byte-identical**
//! artifacts — results JSON, epoch-series CSV, event trace — to the same
//! manifest with no `vms` section at all. That is the compatibility
//! contract that lets every pre-multi-tenant manifest keep its results
//! unchanged.

use vmsim_config::{builtin, SimConfig, VmsSpec};
use vmsim_sim::driver::{run_manifest, Outcome};
use vmsim_sim::ObsConfig;

/// A small two-cell manifest (gcc x {default, ptemagnet}) with full
/// observability, cheap enough for debug-mode CI.
fn small_manifest() -> vmsim_config::ExperimentManifest {
    let mut m = builtin::smoke();
    m.obs = ObsConfig::enabled(1_000);
    m.obs.trace = true;
    m.measure_ops = 2_000;
    m
}

#[test]
fn explicit_single_guest_vms_section_is_byte_identical() {
    let plain = run_manifest(&small_manifest()).expect("no-vms manifest runs");
    let mut manifest = small_manifest();
    manifest.vms = Some(VmsSpec::default());
    assert!(
        !VmsSpec::default().is_active(),
        "default spec is the compat shape"
    );
    let tenant = run_manifest(&manifest).expect("1-VM manifest runs");

    assert_eq!(
        tenant.results_json(),
        plain.results_json(),
        "results artifact diverged"
    );
    for (t, p) in tenant.cells.iter().zip(&plain.cells) {
        assert_eq!(t.metrics(), p.metrics(), "cell metrics diverged");
        assert_eq!(t.series_csv(), p.series_csv(), "epoch series diverged");
        assert_eq!(t.events_jsonl(), p.events_jsonl(), "event trace diverged");
    }
}

#[test]
fn colocation_manifest_sweeps_fleets_and_reports_rows() {
    // A scaled-down version of the checked-in colocation manifest: two
    // fleet sizes x churn off/on, both policies, one seed.
    let mut manifest = builtin::by_name("colocation").expect("checked-in manifest");
    manifest.measure_ops = 2_000;
    manifest.sim = Some(SimConfig {
        guest_mb: Some(48),
        cores: Some(2),
        ..SimConfig::default()
    });
    if let vmsim_config::ExperimentSpec::Matrix(matrix) = &mut manifest.experiment {
        matrix.workloads.truncate(2); // keep the two 8-VM fleets
        for w in &mut matrix.workloads {
            let mut spec = w.vms.expect("colocation workloads carry vms");
            spec.count = 4;
            w.vms = Some(spec);
        }
    }
    let run = run_manifest(&manifest).expect("colocation manifest runs");
    let rows = match &run.outcome {
        Outcome::Colocation(rows) => rows,
        other => panic!("colocation manifest produced {other:?}"),
    };
    assert_eq!(rows.len(), 4, "2 fleets x 2 policies");
    for row in rows {
        assert_eq!(row.vms, 4);
        assert!(row.cycles > 0);
        assert!(row.total_faults > 0);
    }
    assert!(!rows[0].churn && rows[2].churn);
    // The baseline policy's improvement over itself is exactly zero.
    assert_eq!(rows[0].improvement, 0.0);
    assert_eq!(rows[2].improvement, 0.0);
    // The artifact re-parses and carries all four runs.
    let doc = vmsim_obs::json::parse(&run.results_json()).expect("artifact parses");
    assert_eq!(
        doc.get("runs").and_then(|r| r.as_arr()).map(<[_]>::len),
        Some(4)
    );
    // Fleet snapshots carry the host/vm gauge groups in the epoch series.
    let series = run.cells[0].series_csv().expect("cell completed");
    assert!(
        series
            .lines()
            .next()
            .is_some_and(|h| h.contains("host.free_frames")),
        "epoch header misses host gauges: {}",
        series.lines().next().unwrap_or_default()
    );
}

#[test]
fn workload_vms_section_overrides_the_manifest_level_one() {
    // Manifest-level 1-VM compat spec, workload-level active fleet: the
    // workload wins (wholesale, like fault plans).
    let mut fleet_manifest = small_manifest();
    fleet_manifest.vms = Some(VmsSpec::default());
    if let vmsim_config::ExperimentSpec::Matrix(matrix) = &mut fleet_manifest.experiment {
        let spec = VmsSpec {
            count: 3,
            overcommit: 1.2,
            churn_period_ops: None,
            churn_kills: 1,
            balloon_watermark: None,
        };
        matrix.workloads[0] = matrix.workloads[0].clone().with_vms(spec);
    }
    let fleet_run = run_manifest(&fleet_manifest).expect("fleet manifest runs");
    let single_run = run_manifest(&small_manifest()).expect("single manifest runs");
    let fleet = fleet_run.cells[0].metrics().expect("fleet cell completed");
    let single = single_run.cells[0]
        .metrics()
        .expect("single cell completed");
    // Three VMs each initialized a gcc instance: fleet-wide faults dwarf
    // the single-guest run's.
    assert!(
        fleet.total_faults > 2 * single.total_faults,
        "fleet faults {} vs single {}",
        fleet.total_faults,
        single.total_faults
    );
}
