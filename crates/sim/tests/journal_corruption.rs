//! Journal-corruption property: arbitrary byte-level damage to a run
//! journal must never make a resumed run emit wrong artifact bytes.
//!
//! A journal interrupted by `SIGKILL` loses its tail; a journal damaged on
//! disk can lose or change *any* byte. The contract under test is the one
//! `vmsim run --resume` exposes:
//!
//! * if [`Journal::resume`] accepts the file, the resumed run replays only
//!   entries whose per-line checksum verifies, so the merged results JSON,
//!   report text, and per-cell trace/series artifacts are byte-identical
//!   to an uninterrupted run (dropped cells simply re-execute);
//! * otherwise resume fails with a typed `artifact_io` diagnostic — the
//!   CLI maps an unusable `--resume` journal to exit 2.
//!
//! There is no third outcome: "resumes but produces different bytes" is
//! the bug class the version-2 per-entry checksums exist to kill (a
//! flipped digit inside a journaled metric still parses as JSON).

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use vmsim_config::{builtin, ExperimentManifest};
use vmsim_sim::driver::{run_manifest, run_supervised, ManifestRun, Supervisor};
use vmsim_sim::Journal;

/// The 2-cell smoke matrix (1 workload x 2 policies x 1 seed) with
/// observability on, so trace and series artifacts participate in the
/// byte-identity check.
fn manifest() -> ExperimentManifest {
    builtin::smoke()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vmsim-journal-corruption-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

struct Golden {
    /// A pristine, fully populated journal file.
    journal_bytes: Vec<u8>,
    /// Artifacts of the uninterrupted run.
    results_json: String,
    report: String,
    traces: Vec<Option<String>>,
    series: Vec<Option<String>>,
}

fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let m = manifest();
        let clean = run_manifest(&m).expect("clean run");
        assert!(clean.supervision.is_clean());

        let jpath = scratch("golden").join("run.journal.jsonl");
        let journal = Journal::create(&jpath, &m).expect("create journal");
        let run = run_supervised(
            &m,
            &Supervisor {
                journal: Some(&journal),
                chaos: None,
                progress: None,
            },
        )
        .expect("journaled run");
        assert!(journal.io_error().is_none());
        assert_eq!(run.results_json(), clean.results_json());
        drop(journal);

        Golden {
            journal_bytes: std::fs::read(&jpath).expect("read journal"),
            results_json: clean.results_json(),
            report: clean.report(),
            traces: clean
                .cells
                .iter()
                .map(|c| c.events_jsonl().map(str::to_owned))
                .collect(),
            series: clean
                .cells
                .iter()
                .map(|c| c.series_csv().map(str::to_owned))
                .collect(),
        }
    })
}

/// Asserts a resumed run's artifacts are byte-identical to the clean ones.
fn assert_byte_identical(run: &ManifestRun, g: &Golden) {
    assert!(run.supervision.is_clean(), "resumption is not degradation");
    assert_eq!(run.results_json(), g.results_json, "results JSON diverged");
    assert_eq!(run.report(), g.report, "report text diverged");
    for (i, cell) in run.cells.iter().enumerate() {
        assert_eq!(
            cell.events_jsonl(),
            g.traces[i].as_deref(),
            "trace artifact {i}"
        );
        assert_eq!(
            cell.series_csv(),
            g.series[i].as_deref(),
            "series artifact {i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Truncate the journal at an arbitrary byte offset (what a crashed
    /// writer or a torn copy leaves behind): resume either replays the
    /// clean prefix byte-identically or rejects the file outright.
    #[test]
    fn truncation_at_any_offset_never_corrupts_artifacts(pick in 0u64..1_000_000) {
        let g = golden();
        let cut = (pick as usize) % (g.journal_bytes.len() + 1);
        let m = manifest();
        let path = scratch("trunc").join(format!("cut{cut}.journal.jsonl"));
        std::fs::write(&path, &g.journal_bytes[..cut]).expect("write truncated");

        match Journal::resume(&path, &m) {
            Err(e) => {
                // The exit-2 path: an unusable --resume journal with a
                // typed diagnostic, never a silent fallback.
                prop_assert_eq!(e.kind(), "artifact_io");
                prop_assert!(!e.to_string().is_empty());
            }
            Ok(journal) => {
                let run = run_supervised(&m, &Supervisor {
                    journal: Some(&journal),
                    chaos: None,
                    progress: None,
                }).expect("resumed run");
                assert_byte_identical(&run, g);
            }
        }
    }

    /// Corrupt a single byte at an arbitrary offset (flip or zero — the
    /// parseable-but-wrong case checksums exist for): same contract.
    #[test]
    fn single_byte_corruption_never_corrupts_artifacts(
        pick in 0u64..1_000_000,
        zero in 0u64..2,
    ) {
        let g = golden();
        let idx = (pick as usize) % g.journal_bytes.len();
        let zero = zero == 1;
        let mut bytes = g.journal_bytes.clone();
        bytes[idx] = if zero { 0 } else { bytes[idx] ^ 0x04 };
        let m = manifest();
        let path = scratch("flip").join(format!("at{idx}-{zero}.journal.jsonl"));
        std::fs::write(&path, &bytes).expect("write corrupted");

        match Journal::resume(&path, &m) {
            Err(e) => {
                prop_assert_eq!(e.kind(), "artifact_io");
                prop_assert!(!e.to_string().is_empty());
            }
            Ok(journal) => {
                let run = run_supervised(&m, &Supervisor {
                    journal: Some(&journal),
                    chaos: None,
                    progress: None,
                }).expect("resumed run");
                assert_byte_identical(&run, g);
            }
        }
    }
}

/// The pristine journal itself resumes with zero re-execution — the
/// baseline the corrupted variants degrade from.
#[test]
fn pristine_journal_replays_every_cell() {
    let g = golden();
    let m = manifest();
    let path = scratch("pristine").join("run.journal.jsonl");
    std::fs::write(&path, &g.journal_bytes).expect("write journal");
    let journal = Journal::resume(&path, &m).expect("resume");
    assert_eq!(journal.completed(), 2, "both smoke cells replay");
    let run = run_supervised(
        &m,
        &Supervisor {
            journal: Some(&journal),
            chaos: None,
            progress: None,
        },
    )
    .expect("resumed run");
    assert_eq!(run.supervision.resumed, 2);
    assert_byte_identical(&run, g);
}
