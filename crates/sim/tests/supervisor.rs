//! Contract of the supervised experiment runtime, end to end through the
//! driver: panic quarantine leaves survivors bit-identical at any worker
//! count, deterministic retry recovers transient failures, budgets
//! truncate into marked partial results, and an interrupted run resumed
//! from its journal reproduces the uninterrupted artifacts byte for byte.
//!
//! `VMSIM_THREADS` is process-global, so every assertion that varies it
//! lives in the single proptest below; the remaining tests are
//! thread-count agnostic (that is the property being proven).

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use vmsim_config::{builtin, ChaosPlan, ExperimentManifest, SupervisorSpec};
use vmsim_sim::driver::{run_manifest, run_supervised, Supervisor};
use vmsim_sim::{Journal, RunMetrics};

/// A 4-cell matrix (1 workload x 2 policies x 2 seeds) with observability
/// on — small enough to run repeatedly, wide enough to quarantine one cell
/// while three survive.
fn test_manifest() -> ExperimentManifest {
    let mut m = builtin::smoke();
    m.seeds = vec![0, 7];
    m
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmsim-supervisor-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Clean-run metrics for [`test_manifest`], computed once.
fn baseline() -> &'static Vec<RunMetrics> {
    static BASELINE: OnceLock<Vec<RunMetrics>> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let run = run_manifest(&test_manifest()).expect("clean run");
        assert!(run.supervision.is_clean());
        run.metrics()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any single panicking cell is quarantined with its typed error while
    /// every surviving cell's metrics stay bit-identical to the unfailed
    /// run — serial and pooled alike.
    #[test]
    fn single_panicking_cell_leaves_survivors_bit_identical(cell in 0usize..4) {
        let manifest = test_manifest();
        let clean = baseline();
        for threads in ["1", "4"] {
            std::env::set_var("VMSIM_THREADS", threads);
            let sup = Supervisor {
                journal: None,
                chaos: Some(ChaosPlan { cell, fail_attempts: None }),
                progress: None,
            };
            let run = run_supervised(&manifest, &sup).expect("degraded run");
            std::env::remove_var("VMSIM_THREADS");
            prop_assert_eq!(run.supervision.quarantined, 1);
            let err = run.cells[cell].error().expect("chaos cell quarantined");
            prop_assert_eq!(err.kind(), "machine_panic");
            for (i, clean_metrics) in clean.iter().enumerate() {
                if i == cell {
                    prop_assert!(run.cells[i].metrics().is_none());
                } else {
                    prop_assert_eq!(
                        run.cells[i].metrics().expect("survivor completed"),
                        clean_metrics,
                        "cell {} diverged at {} threads", i, threads
                    );
                }
            }
        }
    }
}

/// Interrupt-after-k-cells then `--resume` reproduces the uninterrupted
/// run byte for byte: results JSON, per-cell trace and series artifacts,
/// and the report text.
#[test]
fn interrupted_run_resumed_from_journal_is_byte_identical() {
    let manifest = test_manifest();
    let dir = scratch("resume");
    let jpath = dir.join("run.journal.jsonl");

    let clean = run_manifest(&manifest).expect("clean run");
    let clean_json = clean.results_json();

    // "Interrupt" the run after three cells: the chaos drill permanently
    // fails cell 3, so exactly cells 0..3 land in the journal — the same
    // journal state a SIGKILL mid-cell-3 leaves behind.
    {
        let journal = Journal::create(&jpath, &manifest).expect("create journal");
        let sup = Supervisor {
            journal: Some(&journal),
            chaos: Some(ChaosPlan {
                cell: 3,
                fail_attempts: None,
            }),
            progress: None,
        };
        let run = run_supervised(&manifest, &sup).expect("interrupted run");
        assert!(run.supervision.quarantined > 0);
        assert!(journal.io_error().is_none());
    }

    let journal = Journal::resume(&jpath, &manifest).expect("resume journal");
    assert_eq!(journal.completed(), 3);
    let resumed = run_supervised(
        &manifest,
        &Supervisor {
            journal: Some(&journal),
            chaos: None,
            progress: None,
        },
    )
    .expect("resumed run");

    assert_eq!(resumed.supervision.resumed, 3);
    assert_eq!(resumed.supervision.quarantined, 0);
    assert!(
        resumed.supervision.is_clean(),
        "resumption is not degradation"
    );
    assert!(matches!(
        resumed.supervisor_events.first().map(|e| &e.kind),
        Some(vmsim_obs::EventKind::RunResumed { cells: 3 })
    ));
    // The merged outputs are byte-identical to the uninterrupted run.
    assert_eq!(resumed.results_json(), clean_json);
    assert_eq!(resumed.report(), clean.report());
    for i in 0..4 {
        assert_eq!(
            resumed.cells[i].events_jsonl(),
            clean.cells[i].events_jsonl(),
            "trace artifact {i}"
        );
        assert_eq!(
            resumed.cells[i].series_csv(),
            clean.cells[i].series_csv(),
            "series artifact {i}"
        );
    }
}

/// A per-cell op budget truncates the measured phase into a partial result
/// with explicit markers — never an error, never a degraded outcome.
#[test]
fn op_budget_truncates_into_marked_partial_results() {
    let mut manifest = test_manifest();
    manifest.supervisor = Some(SupervisorSpec {
        retries: 0,
        seed_stride: 0,
        max_cell_ops: Some(500),
        soft_wall_ms: None,
    });
    let run = run_manifest(&manifest).expect("budgeted run");
    assert_eq!(run.supervision.quarantined, 0, "truncation is graceful");
    assert_eq!(run.supervision.truncated, 4);
    for cell in &run.cells {
        assert!(cell.truncated());
        assert_eq!(cell.metrics().expect("completed").measure_ops, 500);
    }
    let doc = vmsim_obs::json::parse(&run.results_json()).expect("artifact parses");
    let runs = doc.get("runs").and_then(|r| r.as_arr()).expect("runs");
    assert_eq!(
        runs[0].get("truncated").and_then(|t| t.as_bool()),
        Some(true)
    );
    assert_eq!(
        doc.get("supervisor")
            .and_then(|s| s.get("truncated"))
            .and_then(|t| t.as_u64()),
        Some(4)
    );
    assert!(run.report().contains("truncated 4"), "{}", run.report());
}

/// Retry decisions are a pure function of (manifest hash, cell index,
/// attempt): two identical degraded runs produce identical artifacts,
/// including with seed perturbation enabled.
#[test]
fn degraded_runs_are_deterministic_across_repetitions() {
    let mut manifest = test_manifest();
    manifest.supervisor = Some(SupervisorSpec {
        retries: 2,
        seed_stride: 17,
        max_cell_ops: None,
        soft_wall_ms: None,
    });
    let sup = || Supervisor {
        journal: None,
        chaos: Some(ChaosPlan {
            cell: 1,
            fail_attempts: None,
        }),
        progress: None,
    };
    let a = run_supervised(&manifest, &sup()).expect("first run");
    let b = run_supervised(&manifest, &sup()).expect("second run");
    assert_eq!(a.cells[1].attempts, 3, "full retry allowance consumed");
    assert_eq!(a.supervision, b.supervision);
    assert_eq!(a.results_json(), b.results_json());
    assert_eq!(a.report(), b.report());
    assert_eq!(a.supervisor_events, b.supervisor_events);
}
