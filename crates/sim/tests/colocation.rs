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
use vmsim_sim::driver::run_manifest;
use vmsim_sim::journal::fnv1a;
use vmsim_sim::{ObsConfig, ObservedRun};

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
    let runs = run.metrics();
    assert_eq!(runs.len(), 4, "2 fleets x 2 policies");
    for r in &runs {
        assert!(r.cycles > 0);
        assert!(r.total_faults > 0);
    }
    // The report's rows, read from the right: faults, host-frag,
    // improvement, cycles, churn, vms (the fleet label may hold spaces).
    let report = run.report();
    let rows: Vec<Vec<&str>> = report
        .lines()
        .skip(2)
        .map(|line| line.split_whitespace().rev().take(6).collect())
        .collect();
    assert_eq!(rows.len(), 4, "2 fleets x 2 policies:\n{report}");
    for row in &rows {
        assert_eq!(row[5], "4", "{report}");
    }
    assert!(rows[0][4] == "off" && rows[2][4] == "on", "{report}");
    // The baseline policy's improvement over itself is zero.
    assert_eq!(rows[0][2], "+0.0%", "{report}");
    assert_eq!(rows[2][2], "+0.0%", "{report}");
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

/// A reduced fleet cell with every host-level mechanism live: 4 VMs on
/// 2.5x overcommit, churn, the balloon governor, two simulated guest
/// threads per VM, and trace plus epoch series on.
fn golden_fleet_manifest() -> vmsim_config::ExperimentManifest {
    let mut m = small_manifest();
    m.measure_ops = 4_000;
    m.sim = Some(SimConfig {
        guest_mb: Some(48),
        cores: Some(2),
        ..SimConfig::default()
    });
    if let vmsim_config::ExperimentSpec::Matrix(matrix) = &mut m.experiment {
        let spec = VmsSpec {
            count: 4,
            overcommit: 2.5,
            churn_period_ops: Some(2_000),
            churn_kills: 1,
            balloon_watermark: Some(0.12),
        };
        matrix.workloads[0] = matrix.workloads[0].clone().with_vms(spec).with_threads(2);
    }
    m
}

#[test]
fn fleet_artifacts_match_their_golden_digests() {
    let run = run_manifest(&golden_fleet_manifest()).expect("fleet manifest runs");
    let trace: Vec<&str> = run
        .cells
        .iter()
        .map(|c| c.events_jsonl().expect("cell completed"))
        .collect();
    // The cell really exercises churn, ballooning, and the interleaver.
    assert!(trace.iter().any(|t| t.contains("\"event\":\"vm_kill\"")));
    assert!(trace.iter().any(|t| t.contains("\"event\":\"vm_boot\"")));
    assert!(trace.iter().any(|t| t.contains("\"event\":\"balloon\"")));
    let mut digests = vec![fnv1a(run.results_json().as_bytes())];
    for (cell, trace) in run.cells.iter().zip(&trace) {
        let series = cell.series_csv().expect("cell completed");
        assert!(series.contains("threads.contended_group_faults"));
        digests.push(fnv1a(series.as_bytes()));
        digests.push(fnv1a(trace.as_bytes()));
    }
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    assert_eq!(hex, GOLDEN_FLEET_DIGESTS, "fleet artifact bytes moved");
}

/// FNV-1a digests of the golden fleet's results JSON, then each cell's
/// epoch CSV and trace JSONL in run order.
const GOLDEN_FLEET_DIGESTS: [&str; 5] = [
    "a209d554565335b8",
    "fbff0c0280226257",
    "611ae580e2320550",
    "62c7f68411dbf432",
    "bedc4a9f6814c64e",
];

#[test]
fn fleet_workloads_run_their_corunners_in_vm_0() {
    let fleet = |corunners: &[&str]| {
        let mut m = small_manifest();
        if let vmsim_config::ExperimentSpec::Matrix(matrix) = &mut m.experiment {
            let mut w = matrix.workloads[0].clone().with_vms(VmsSpec {
                count: 3,
                overcommit: 1.2,
                ..VmsSpec::default()
            });
            w.corunners = corunners.iter().map(ToString::to_string).collect();
            w.corunner_weight = 2;
            matrix.workloads[0] = w;
        }
        run_manifest(&m).expect("fleet manifest runs")
    };
    let solo = fleet(&[]);
    let with_co = fleet(&["stress-ng"]);
    let gauge = |run: &ObservedRun, name: &str| {
        run.snapshot
            .get(name)
            .and_then(|v| v.as_u64())
            .expect("fleet gauge")
    };
    for (s, c) in solo.cells.iter().zip(&with_co.cells) {
        let (s, c) = (s.observed().expect("ran"), c.observed().expect("ran"));
        assert_ne!(c.metrics, s.metrics, "the co-runner must change the run");
        // The co-runner faults inside VM 0, next to the benchmark...
        assert!(gauge(c, "vm.0.faults") > gauge(s, "vm.0.faults"));
        // ...and nowhere else: a neighbour runs the same ops either way.
        assert_eq!(gauge(c, "vm.1.faults"), gauge(s, "vm.1.faults"));
    }
}

#[test]
fn fleet_resolves_parameterised_policies_by_registry_name() {
    // Every VM, and every VM rebooted by churn, resolves its allocator
    // from the policy's registry name (`granular:8`), not from the
    // allocator's report label (`granular-reservation`).
    let mut m = small_manifest();
    m.obs = ObsConfig::disabled();
    m.sim = Some(SimConfig {
        guest_mb: Some(48),
        cores: Some(2),
        ..SimConfig::default()
    });
    if let vmsim_config::ExperimentSpec::Matrix(matrix) = &mut m.experiment {
        matrix.policies = vec!["default".into(), "granular:8".into()];
        matrix.workloads[0] = matrix.workloads[0].clone().with_vms(VmsSpec {
            count: 4,
            overcommit: 1.5,
            churn_period_ops: Some(1_000),
            churn_kills: 1,
            balloon_watermark: Some(0.1),
        });
    }
    let run = run_manifest(&m).expect("fleet manifest runs");
    assert_eq!(run.supervision.quarantined, 0, "{:?}", run.outcome);
    let labels: Vec<&str> = run
        .cells
        .iter()
        .map(|c| c.metrics().expect("cell completed").allocator.as_str())
        .collect();
    assert_eq!(labels, ["default", "granular-reservation"]);
    let granular = run.cells[1].observed().expect("cell ran");
    let reboots: u64 = (1..4)
        .map(|vm| {
            let boots = granular.snapshot.get(&format!("vm.{vm}.boots"));
            boots.and_then(|v| v.as_u64()).expect("fleet gauge") - 1
        })
        .sum();
    assert!(reboots > 0, "churn rebooted a VM under granular:8");
}
