//! Artifact emission shared by `vmsim run` and `vmsim serve`.
//!
//! One executed [`ManifestRun`] fans out into a fixed artifact set under
//! an output directory:
//!
//! * `<name>.json` — the merged results JSON (re-parsed after writing);
//! * `trace_<name>_<i>.jsonl` / `series_<name>_<i>.csv` — per-cell
//!   observability artifacts when the manifest enables them;
//! * `profile_<name>_<i>.json` + `profile_<name>.folded` — phase profiles
//!   when profiling is on (fresh cells only; journals don't persist them);
//! * `trace_<name>_supervisor.jsonl` — only when supervision degraded the
//!   run, so a clean run's artifact set is unchanged.
//!
//! [`write_all`] is the single writer both front-ends call, which is what
//! makes the serve crash-recovery proof meaningful: a job recovered from
//! a journal goes through exactly this code, so "byte-identical artifacts"
//! compares like with like. Every failure is diagnosed through the caller's
//! `log` sink (one preformatted line per event) and counted, never panicked
//! on.
//!
//! Every JSON document written is checked against the parser's grammar.
//! The results JSON is parsed, because its run count is reported; every
//! trace line, series and profile is only validated ([`json::validate`]),
//! which builds no tree. A fresh cell's trace text is the one its pool
//! worker rendered for the journal, not a second rendering. A cell whose
//! trace ring overflowed gets one log line saying how many events were
//! dropped; the artifacts do not change.

use std::path::{Path, PathBuf};

use vmsim_obs::{json, trace, PhaseProfile};

use crate::driver::ManifestRun;

/// Outcome of writing one run's artifact set.
pub struct ArtifactSet {
    /// Artifacts that failed to write or re-parse.
    pub failures: u32,
    /// Path of the merged results JSON.
    pub results_path: PathBuf,
    /// The results JSON bytes (what a result cache serves back).
    pub results_json: String,
    /// Run count the re-parsed results JSON reported; `None` when the
    /// write or re-parse failed.
    pub runs: Option<usize>,
}

/// Writes the full artifact set for `run` into `out_dir`.
///
/// `elapsed_secs` is the wall time the caller attributes to the run (it
/// only decorates the "wrote results" log line; nothing in any artifact
/// depends on it). Diagnostics and progress lines go through `log`.
pub fn write_all(
    run: &ManifestRun,
    out_dir: &Path,
    elapsed_secs: f64,
    log: &mut dyn FnMut(&str),
) -> ArtifactSet {
    let manifest = &run.manifest;
    let mut failures = 0u32;

    let results_path = out_dir.join(format!("{}.json", manifest.name));
    let artifact = run.results_json();
    let mut runs = None;
    if let Err(e) = std::fs::write(&results_path, &artifact) {
        log(&format!(
            "FAIL {}: cannot write: {e}",
            results_path.display()
        ));
        failures += 1;
    } else {
        match json::parse(&artifact) {
            Ok(doc) => {
                let n = doc
                    .get("runs")
                    .and_then(|r| r.as_arr())
                    .map_or(0, <[_]>::len);
                runs = Some(n);
                log(&format!(
                    "vmsim: wrote {} ({n} runs, {elapsed_secs:.1}s)",
                    results_path.display()
                ));
            }
            Err(e) => {
                log(&format!("FAIL {}: {e:?}", results_path.display()));
                failures += 1;
            }
        }
    }

    if manifest.obs.is_enabled() {
        // Profiles exist only on freshly executed cells (the journal does
        // not persist them); the folded artifact merges every profiled
        // cell into one flamegraph-ready file.
        let mut merged: Option<PhaseProfile> = None;
        for cell in &run.cells {
            if let Some(profile) = cell.observed().and_then(|o| o.profile.as_ref()) {
                let i = cell.index;
                let path = out_dir.join(format!("profile_{}_{i}.json", manifest.name));
                let mut text = profile.to_json();
                text.push('\n');
                if let Err(e) = std::fs::write(&path, &text) {
                    log(&format!("FAIL {}: cannot write: {e}", path.display()));
                    failures += 1;
                } else if let Err(e) = json::validate(&text) {
                    log(&format!("FAIL {}: {e:?}", path.display()));
                    failures += 1;
                }
                match merged.as_mut() {
                    None => merged = Some(profile.clone()),
                    Some(m) => {
                        m.total_wall_ns += profile.total_wall_ns;
                        for (acc, t) in m.phases.iter_mut().zip(&profile.phases) {
                            acc.wall_ns += t.wall_ns;
                            acc.cycles += t.cycles;
                            acc.enters += t.enters;
                        }
                    }
                }
            }
        }
        if let Some(m) = &merged {
            let path = out_dir.join(format!("profile_{}.folded", manifest.name));
            if let Err(e) = std::fs::write(&path, m.to_folded()) {
                log(&format!("FAIL {}: cannot write: {e}", path.display()));
                failures += 1;
            } else {
                log(&format!(
                    "vmsim: wrote {} ({:.1}% of wall time attributed)",
                    path.display(),
                    m.attributed_fraction() * 100.0
                ));
            }
        }
        for cell in &run.cells {
            let (Some(jsonl), Some(csv)) = (cell.events_jsonl(), cell.series_csv()) else {
                continue; // quarantined: no artifacts to write
            };
            let i = cell.index;
            let trace_path = out_dir.join(format!("trace_{}_{i}.jsonl", manifest.name));
            if let Err(e) = std::fs::write(&trace_path, jsonl) {
                log(&format!("FAIL {}: cannot write: {e}", trace_path.display()));
                failures += 1;
            } else {
                for (n, line) in jsonl.lines().enumerate() {
                    if let Err(e) = json::validate(line) {
                        log(&format!(
                            "FAIL {}: line {} unparseable: {e:?}",
                            trace_path.display(),
                            n + 1
                        ));
                        failures += 1;
                    }
                }
            }
            if let Some(o) = cell.observed().filter(|o| o.trace_dropped > 0) {
                log(&format!(
                    "vmsim: {}: the trace ring dropped {} earlier events and kept the \
                     last {} (trace_capacity {})",
                    trace_path.display(),
                    o.trace_dropped,
                    o.events.len(),
                    manifest.obs.trace_capacity
                ));
            }
            let series_path = out_dir.join(format!("series_{}_{i}.csv", manifest.name));
            if let Err(e) = std::fs::write(&series_path, csv) {
                log(&format!(
                    "FAIL {}: cannot write: {e}",
                    series_path.display()
                ));
                failures += 1;
            }
            // Fresh cells also verify the series' JSON rendering (replayed
            // cells were verified when they originally ran).
            if let Some(observed) = cell.observed() {
                if let Err(e) = json::validate(&observed.series.to_json()) {
                    log(&format!("FAIL series {}_{i}: {e:?}", manifest.name));
                    failures += 1;
                }
            }
        }
    }

    // The supervisor trace exists only when something degraded the run, so
    // a clean (or cleanly resumed) run's artifact set is unchanged.
    if !run.supervision.is_clean() && !run.supervisor_events.is_empty() {
        let jsonl = trace::to_jsonl(&run.supervisor_events);
        let path = out_dir.join(format!("trace_{}_supervisor.jsonl", manifest.name));
        if let Err(e) = std::fs::write(&path, &jsonl) {
            log(&format!("FAIL {}: cannot write: {e}", path.display()));
            failures += 1;
        }
    }

    ArtifactSet {
        failures,
        results_path,
        results_json: artifact,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_supervised, Supervisor};
    use vmsim_config::builtin;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vmsim-artifacts-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn clean_run_writes_results_and_obs_artifacts() {
        let manifest = builtin::smoke();
        let run = run_supervised(&manifest, &Supervisor::default()).expect("run");
        let out = scratch("clean");
        let mut lines = Vec::new();
        let set = write_all(&run, &out, 0.0, &mut |l| lines.push(l.to_string()));

        assert_eq!(set.failures, 0);
        assert_eq!(set.runs, Some(2), "smoke is a 2-cell matrix");
        assert_eq!(
            std::fs::read_to_string(&set.results_path).expect("results on disk"),
            set.results_json
        );
        // Obs is on in smoke: per-cell trace and series artifacts exist.
        for i in 0..2 {
            assert!(out
                .join(format!("trace_{}_{i}.jsonl", manifest.name))
                .exists());
            assert!(out
                .join(format!("series_{}_{i}.csv", manifest.name))
                .exists());
        }
        // No degradation: no supervisor trace.
        assert!(!out
            .join(format!("trace_{}_supervisor.jsonl", manifest.name))
            .exists());
        assert!(lines.iter().any(|l| l.starts_with("vmsim: wrote")));
        assert!(lines.iter().all(|l| !l.starts_with("FAIL")));
    }

    #[test]
    fn a_trace_ring_overflow_is_logged_and_leaves_the_artifacts_alone() {
        let mut manifest = builtin::smoke();
        let clean = run_supervised(&manifest, &Supervisor::default()).expect("run");
        let mut lines = Vec::new();
        let set = write_all(&clean, &scratch("ring-default"), 0.0, &mut |l| {
            lines.push(l.to_string());
        });
        assert_eq!(set.failures, 0);
        assert!(lines.iter().all(|l| !l.contains("dropped")), "{lines:?}");

        manifest.obs.trace_capacity = 64;
        let run = run_supervised(&manifest, &Supervisor::default()).expect("run");
        assert_eq!(run.results_json(), clean.results_json());
        let out = scratch("ring-small");
        let mut lines = Vec::new();
        let set = write_all(&run, &out, 0.0, &mut |l| lines.push(l.to_string()));
        assert_eq!(set.failures, 0);
        let drops: Vec<&String> = lines.iter().filter(|l| l.contains("dropped")).collect();
        assert_eq!(drops.len(), 2, "one line per cell: {lines:?}");
        for (i, (line, cell)) in drops.iter().zip(&run.cells).enumerate() {
            let observed = cell.observed().expect("fresh cell");
            assert!(observed.trace_dropped > 0);
            assert!(!line.starts_with("FAIL"), "{line}");
            assert!(line.contains(&format!("trace_{}_{i}.jsonl", manifest.name)));
            assert!(
                line.contains(&format!("dropped {} ", observed.trace_dropped)),
                "{line}"
            );
            assert!(line.contains("kept the last 64 "), "{line}");
            assert!(line.contains("(trace_capacity 64)"), "{line}");
            // The trace artifact holds exactly the retained window.
            let trace =
                std::fs::read_to_string(out.join(format!("trace_{}_{i}.jsonl", manifest.name)))
                    .expect("trace artifact");
            assert_eq!(trace, observed.events_jsonl());
            assert_eq!(trace.lines().count(), 64);
        }
    }

    #[test]
    fn unwritable_out_dir_counts_failures_instead_of_panicking() {
        let manifest = builtin::smoke();
        let run = run_supervised(&manifest, &Supervisor::default()).expect("run");
        let out = scratch("missing").join("does").join("not").join("exist");
        let mut lines = Vec::new();
        let set = write_all(&run, &out, 0.0, &mut |l| lines.push(l.to_string()));
        assert!(set.failures > 0);
        assert_eq!(set.runs, None);
        assert!(lines.iter().any(|l| l.starts_with("FAIL")));
    }
}
