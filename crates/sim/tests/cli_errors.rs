//! Error-path contract of the `vmsim` CLI: every bad input — unknown
//! subcommand, unknown policy, malformed manifest, unknown fault kind,
//! unwritable output — must exit nonzero with a diagnostic on stderr,
//! never a success code and never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn vmsim(args: &[&str]) -> Output {
    vmsim_env(args, &[])
}

/// Spawn `vmsim` with explicit supervisor environment; `VMSIM_CHAOS_CELL`
/// is cleared first so tests never inherit a drill from the outer shell.
fn vmsim_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vmsim"));
    cmd.env_remove("VMSIM_CHAOS_CELL");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.args(args).output().expect("spawn vmsim")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch directory unique to this test binary invocation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmsim-cli-errors-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The canonical table4 manifest as JSON, for targeted corruption.
fn table4_json() -> String {
    vmsim_config::builtin::by_name("table4")
        .expect("table4 is a builtin")
        .to_json()
}

fn write_manifest(dir: &Path, name: &str, body: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, body).expect("write manifest");
    path.to_string_lossy().into_owned()
}

#[test]
fn no_subcommand_prints_usage_and_exits_2() {
    let out = vmsim(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("usage:"));
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    let out = vmsim(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("usage:"));
}

#[test]
fn run_without_manifests_exits_2() {
    let out = vmsim(&["run"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("no manifests given"));
}

#[test]
fn run_with_dangling_out_flag_exits_2() {
    let out = vmsim(&["run", "table4", "--out"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--out needs a directory"));
}

#[test]
fn missing_manifest_is_a_diagnostic_not_a_panic() {
    let out = vmsim(&["run", "no-such-manifest-anywhere"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("no such file and no builtin manifest"));
}

#[test]
fn malformed_manifest_fails_validate_and_run() {
    let dir = scratch("malformed");
    let path = write_manifest(&dir, "broken.json", "{\"name\": \"oops\", \"seeds\": [");
    for sub in ["validate", "run"] {
        let out = vmsim(&[sub, &path]);
        assert_ne!(out.status.code(), Some(0), "vmsim {sub} must fail");
        assert!(
            stderr_of(&out).contains(&path),
            "diagnostic names the offending file"
        );
    }
}

#[test]
fn unknown_policy_is_rejected_with_catalog() {
    let dir = scratch("policy");
    let body = table4_json().replace("\"ptemagnet\"", "\"wizardry\"");
    let path = write_manifest(&dir, "policy.json", &body);
    for sub in ["validate", "run"] {
        let out = vmsim(&[sub, &path]);
        assert_ne!(out.status.code(), Some(0), "vmsim {sub} must fail");
        let err = stderr_of(&out);
        assert!(
            err.contains("unknown policy") && err.contains("wizardry"),
            "diagnostic names the bad policy: {err}"
        );
    }
}

#[test]
fn unknown_fault_kind_is_rejected() {
    let dir = scratch("faultkind");
    // First manifest-level "faults": null becomes an object with a fault
    // kind the schema does not know.
    let body = table4_json().replacen("\"faults\": null", "\"faults\": {\"meteor\": 1}", 1);
    let path = write_manifest(&dir, "faultkind.json", &body);
    for sub in ["validate", "run"] {
        let out = vmsim(&[sub, &path]);
        assert_ne!(out.status.code(), Some(0), "vmsim {sub} must fail");
        let err = stderr_of(&out);
        assert!(
            err.contains("unknown fault kind") && err.contains("meteor"),
            "diagnostic names the unknown fault kind: {err}"
        );
    }
}

#[test]
fn invalid_daemon_watermarks_are_rejected() {
    let dir = scratch("watermarks");
    // restore_to below threshold violates 0 <= threshold <= restore_to <= 1.
    let body = table4_json().replacen(
        "\"faults\": null",
        "\"faults\": {\"seed\": 1, \"chunk_fail_rate\": 0.0, \"oom_rate\": 0.0, \
         \"frag_shock_every\": null, \"frag_shock_order\": 0, \
         \"reclaim_storm_every\": null, \"reclaim_storm_frames\": 0, \
         \"swap_out_every\": null, \"daemon_threshold\": 0.9, \
         \"daemon_restore_to\": 0.1}",
        1,
    );
    let path = write_manifest(&dir, "watermarks.json", &body);
    let out = vmsim(&["validate", &path]);
    assert_ne!(out.status.code(), Some(0));
    assert!(
        stderr_of(&out).contains("daemon_threshold <= daemon_restore_to"),
        "diagnostic states the watermark invariant"
    );
}

#[test]
fn run_with_unwritable_out_dir_fails() {
    let dir = scratch("outdir");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").expect("write blocker");
    let target = blocker.join("results");
    let out = vmsim(&["run", "table4", "--out", &target.to_string_lossy()]);
    assert_ne!(out.status.code(), Some(0));
    assert!(stderr_of(&out).contains("cannot create"));
}

#[test]
fn malformed_chaos_env_is_a_usage_error() {
    let dir = scratch("chaos-env");
    for bad in ["banana", "3:0", "3:", ":1", "-1", "1:2:3"] {
        let out = vmsim_env(
            &["run", "smoke", "--out", &dir.to_string_lossy()],
            &[("VMSIM_CHAOS_CELL", bad)],
        );
        assert_eq!(out.status.code(), Some(2), "{bad:?} must be a usage error");
        assert!(
            stderr_of(&out).contains("VMSIM_CHAOS_CELL"),
            "diagnostic names the variable for {bad:?}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn quarantined_cells_exit_3_distinct_from_usage_errors() {
    let dir = scratch("chaos-exit");
    let out = vmsim_env(
        &["run", "smoke", "--out", &dir.to_string_lossy()],
        &[("VMSIM_CHAOS_CELL", "0")],
    );
    // Degraded science (exit 3) is distinguishable from bad input (exit 2)
    // and from a clean run (exit 0).
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("quarantined"));
    // The degraded artifact still exists and names the failed cell.
    let artifact = std::fs::read_to_string(dir.join("smoke.json")).expect("results written");
    assert!(artifact.contains("\"status\": \"failed\""));
    assert!(artifact.contains("\"error_kind\": \"machine_panic\""));
}

#[test]
fn resume_flag_misuse_is_a_usage_error() {
    // Dangling flag.
    let out = vmsim(&["run", "smoke", "--resume"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--resume needs a journal file"));

    // More than one manifest under --resume is ambiguous.
    let out = vmsim(&["run", "smoke", "table4", "--resume", "whatever.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--resume takes exactly one manifest"));

    // A journal that does not exist.
    let dir = scratch("resume-misuse");
    let out = vmsim(&[
        "run",
        "smoke",
        "--out",
        &dir.to_string_lossy(),
        "--resume",
        "/no/such/journal.jsonl",
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
}

#[test]
fn resume_rejects_a_journal_from_a_different_manifest() {
    let dir = scratch("resume-mismatch");
    let out = vmsim(&["run", "smoke", "--out", &dir.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let journal = dir.join("smoke.journal.jsonl");
    assert!(journal.exists(), "clean matrix run leaves a journal behind");

    // The mismatch is detected before any simulation starts, so resuming
    // the (much larger) table4 manifest against smoke's journal is cheap.
    let out = vmsim(&[
        "run",
        "table4",
        "--out",
        &dir.to_string_lossy(),
        "--resume",
        &journal.to_string_lossy(),
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("different manifest"));
}

#[test]
fn invalid_manifest_never_clobbers_an_existing_journal() {
    let dir = scratch("journal-clobber");
    // Leave a (crashed) run's journal behind.
    let out = vmsim_env(
        &["run", "smoke", "--out", &dir.to_string_lossy()],
        &[("VMSIM_CHAOS_CELL", "1")],
    );
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    let journal = dir.join("smoke.journal.jsonl");
    let before = std::fs::read(&journal).expect("journal survives the crash");
    assert!(before.len() > 100, "journal holds the completed cell");

    // A rerun with a *broken* manifest of the same name must fail before
    // the journal is opened for truncation.
    let body = table4_json()
        .replace("\"table4\"", "\"smoke\"")
        .replace("\"ptemagnet\"", "\"wizardry\"");
    let path = write_manifest(&dir, "bad-smoke.json", &body);
    let out = vmsim(&["run", &path, "--out", &dir.to_string_lossy()]);
    assert_ne!(out.status.code(), Some(0));
    let after = std::fs::read(&journal).expect("journal still exists");
    assert_eq!(before, after, "invalid input must not touch the journal");
}

/// Interrupts a reduced table4 run in `dir` after its first cell and
/// returns the journal path and the journal text it left behind.
fn interrupted_table4(dir: &Path) -> (PathBuf, String) {
    let out = vmsim_env(
        &["run", "table4", "--out", &dir.to_string_lossy()],
        &[("VMSIM_OPS", "2000"), ("VMSIM_CHAOS_CELL", "1")],
    );
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    let journal = dir.join("table4.journal.jsonl");
    let text = std::fs::read_to_string(&journal).expect("journal survives the crash");
    assert_eq!(
        text.lines().count(),
        2,
        "journal holds its header and the completed cell"
    );
    (journal, text)
}

#[test]
fn unknown_policy_never_clobbers_an_interrupted_journal() {
    let dir = scratch("journal-policy");
    let (journal, before) = interrupted_table4(&dir);
    // A manifest of the same name that passes shape validation but names
    // a policy the registry does not know must fail before the journal is
    // opened for truncation.
    let body = table4_json().replace("\"ptemagnet\"", "\"wizardry\"");
    let path = write_manifest(&dir, "wizardry.json", &body);
    let out = vmsim_env(
        &["run", &path, "--out", &dir.to_string_lossy()],
        &[("VMSIM_OPS", "2000")],
    );
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown policy \"wizardry\""));
    let after = std::fs::read_to_string(&journal).expect("journal still exists");
    assert_eq!(
        before, after,
        "an unknown policy must not touch the journal"
    );
}

#[test]
fn unusable_progress_path_never_clobbers_an_interrupted_journal() {
    let dir = scratch("journal-progress");
    let (journal, before) = interrupted_table4(&dir);
    let unwritable = dir.join("no-such-dir").join("p.jsonl");
    let out = vmsim_env(
        &[
            "run",
            "table4",
            "--out",
            &dir.to_string_lossy(),
            "--progress",
            &unwritable.to_string_lossy(),
        ],
        &[("VMSIM_OPS", "2000")],
    );
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let after = std::fs::read_to_string(&journal).expect("journal still exists");
    assert_eq!(before, after, "a usage error must not touch the journal");
}

#[test]
fn chaos_then_resume_reproduces_clean_results_byte_for_byte() {
    let clean_dir = scratch("roundtrip-clean");
    let crash_dir = scratch("roundtrip-crash");

    let out = vmsim(&["run", "smoke", "--out", &clean_dir.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));

    // Kill the last cell; the survivors are already journaled.
    let out = vmsim_env(
        &["run", "smoke", "--out", &crash_dir.to_string_lossy()],
        &[("VMSIM_CHAOS_CELL", "1")],
    );
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));

    let journal = crash_dir.join("smoke.journal.jsonl");
    let out = vmsim(&[
        "run",
        "smoke",
        "--out",
        &crash_dir.to_string_lossy(),
        "--resume",
        &journal.to_string_lossy(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));

    for name in ["smoke.json", "trace_smoke_0.jsonl", "trace_smoke_1.jsonl"] {
        let clean = std::fs::read(clean_dir.join(name)).expect(name);
        let resumed = std::fs::read(crash_dir.join(name)).expect(name);
        assert_eq!(clean, resumed, "{name} must be byte-identical after resume");
    }
}

/// The checked-in `manifests/smoke.json`, byte for byte.
fn smoke_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../manifests/smoke.json");
    std::fs::read_to_string(path).expect("smoke.json is checked in")
}

/// `manifests/smoke.json` with the one line carrying `key` at `indent`
/// spaces removed; a line-final key also takes the comma off the line
/// before it, so the document stays well-formed JSON.
fn smoke_without(indent: usize, key: &str) -> String {
    let text = smoke_json();
    let needle = format!("{}\"{key}\": ", " ".repeat(indent));
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with(&needle))
        .unwrap_or_else(|| panic!("smoke.json has no {needle:?} line"));
    let removed = lines.remove(at);
    if !removed.ends_with(',') {
        let prev = &mut lines[at - 1];
        *prev = prev.trim_end_matches(',').to_string();
    }
    lines.join("\n") + "\n"
}

#[test]
fn manifest_missing_a_formerly_optional_key_is_rejected() {
    // Keys older manifests were allowed to omit are now required like
    // every other: `run` exits 2 and `validate` exits 1, both naming the
    // missing key by its path.
    let dir = scratch("missing-key");
    let profile_free = smoke_json().replace(", \"profile\": false", "");
    let cases = [
        ("faults", smoke_without(2, "faults"), "$.faults"),
        ("vms", smoke_without(2, "vms"), "$.vms"),
        ("supervisor", smoke_without(2, "supervisor"), "$.supervisor"),
        ("profile", profile_free, "$.obs.profile"),
        (
            "workload-faults",
            smoke_without(8, "faults"),
            "$.experiment.workloads[0].faults",
        ),
        (
            "workload-vms",
            smoke_without(8, "vms"),
            "$.experiment.workloads[0].vms",
        ),
        (
            "workload-threads",
            smoke_without(8, "threads"),
            "$.experiment.workloads[0].threads",
        ),
    ];
    for (tag, body, path) in cases {
        let file = write_manifest(&dir, &format!("{tag}.json"), &body);
        let expected = format!("{path}: missing field");
        let out = vmsim(&["run", &file, "--out", &dir.to_string_lossy()]);
        assert_eq!(out.status.code(), Some(2), "vmsim run without {path}");
        assert!(
            stderr_of(&out).contains(&expected),
            "{tag}: {}",
            stderr_of(&out)
        );
        let out = vmsim(&["validate", &file]);
        assert_eq!(out.status.code(), Some(1), "vmsim validate without {path}");
        assert!(
            stderr_of(&out).contains(&expected),
            "{tag}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn values_that_cannot_run_as_written_are_refused_up_front() {
    // Each edit of smoke.json used to pass `validate`. A zero epoch period
    // made the sampler loop until memory ran out, a zero trace ring kept
    // one event anyway, and a shock order above the buddy's top order ran
    // as that top order. `validate` is asserted first, so a regression
    // fails here instead of exhausting memory in `run`.
    let dir = scratch("unrunnable");
    let smoke = smoke_json();
    let shock = "\"faults\": {\"seed\": 1, \"chunk_fail_rate\": 0.0, \"oom_rate\": 0.0, \
                 \"frag_shock_every\": 100, \"frag_shock_order\": 40, \
                 \"reclaim_storm_every\": null, \"reclaim_storm_frames\": 0, \
                 \"swap_out_every\": null, \"daemon_threshold\": null, \
                 \"daemon_restore_to\": null}";
    let cases = [
        (
            "epoch-ops",
            smoke.replace("\"epoch_ops\": 1000", "\"epoch_ops\": 0"),
            "$.obs.epoch_ops",
        ),
        (
            "trace-capacity",
            smoke.replace("\"trace_capacity\": 65536", "\"trace_capacity\": 0"),
            "$.obs.trace_capacity",
        ),
        (
            "frag-shock-order",
            smoke.replacen("\"faults\": null", shock, 1),
            "$.faults.frag_shock_order",
        ),
    ];
    for (tag, body, path) in cases {
        assert_ne!(body, smoke, "{tag}: the edit applies");
        let file = write_manifest(&dir, &format!("{tag}.json"), &body);
        let out = vmsim(&["validate", &file]);
        assert_eq!(out.status.code(), Some(1), "vmsim validate, {tag}");
        assert!(stderr_of(&out).contains(path), "{tag}: {}", stderr_of(&out));
        let out_dir = dir.join(tag);
        let out = vmsim(&["run", &file, "--out", &out_dir.to_string_lossy()]);
        assert_eq!(out.status.code(), Some(2), "vmsim run, {tag}");
        assert!(stderr_of(&out).contains(path), "{tag}: {}", stderr_of(&out));
        assert!(
            !out_dir.join("smoke.journal.jsonl").exists(),
            "{tag}: a refused run leaves no journal"
        );
    }
}

#[test]
fn validate_accepts_every_builtin_and_shipped_manifest() {
    // The happy path that CI leans on: every checked-in manifest
    // (including pressure) validates cleanly by name.
    let names: Vec<String> = vmsim_config::builtin::all()
        .iter()
        .map(|m| m.name.clone())
        .collect();
    let args: Vec<&str> = std::iter::once("validate")
        .chain(names.iter().map(String::as_str))
        .collect();
    let out = vmsim(&args);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
}

#[test]
fn perf_unknown_argument_exits_2() {
    let out = vmsim(&["perf", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown argument"));

    let out = vmsim(&["perf", "--out"]);
    assert_eq!(out.status.code(), Some(2), "dangling --out");

    let out = vmsim(&["perf", "--baseline", "x.json"]);
    assert_eq!(out.status.code(), Some(2), "--baseline is not an option");
    assert!(stderr_of(&out).contains("unknown argument: --baseline"));
}

#[test]
fn perf_check_on_malformed_trajectory_exits_2() {
    let dir = scratch("perf-check");
    for (tag, body) in [
        ("garbage", "not json at all"),
        (
            "schema",
            "{\"schema\": \"something-else\", \"entries\": []}",
        ),
        ("noschema", "{\"entries\": []}"),
    ] {
        let path = dir.join(format!("{tag}.json"));
        std::fs::write(&path, body).expect("write trajectory");
        let out = vmsim(&["perf", "--check", "--out", &path.to_string_lossy()]);
        assert_eq!(out.status.code(), Some(2), "{tag} must be invalid input");
        assert!(stderr_of(&out).contains("vmsim perf"), "{tag} diagnostic");
    }

    // A missing file is also a usage error: --check never measures.
    let out = vmsim(&[
        "perf",
        "--check",
        "--out",
        &dir.join("absent.json").to_string_lossy(),
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn perf_check_needs_two_entries_to_compare() {
    let dir = scratch("perf-single");
    let path = dir.join("one-entry.json");
    std::fs::write(
        &path,
        "{\n  \"schema\": \"bench-trajectory-v1\",\n  \"entries\": [\n    \
         {\"stamp\": 0, \"measure_ops\": 20000, \"cells\": [], \"kernels\": []}\n  ]\n}\n",
    )
    .expect("write trajectory");
    let out = vmsim(&["perf", "--check", "--out", &path.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("two entries"));
}

#[test]
fn progress_flag_misuse_is_a_usage_error() {
    let dir = scratch("progress-misuse");
    let manifest = write_manifest(&dir, "t4.json", &table4_json());

    let out = vmsim(&["run", &manifest, "--progress"]);
    assert_eq!(out.status.code(), Some(2), "dangling --progress");

    let unwritable = dir.join("no-such-dir").join("p.jsonl");
    let out = vmsim(&[
        "run",
        &manifest,
        "--progress",
        &unwritable.to_string_lossy(),
    ]);
    assert_eq!(out.status.code(), Some(2), "unwritable progress path");
    assert!(!stderr_of(&out).is_empty());

    let out = vmsim(&[
        "run",
        &manifest,
        &manifest,
        "--progress",
        &dir.join("p.jsonl").to_string_lossy(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--progress takes exactly one manifest"
    );
}

#[test]
fn malformed_heartbeat_env_is_a_usage_error() {
    let dir = scratch("heartbeat-env");
    let manifest = write_manifest(&dir, "t4.json", &table4_json());
    for bad in ["0", "x", "-5"] {
        let out = vmsim_env(&["run", &manifest], &[("VMSIM_HEARTBEAT_OPS", bad)]);
        assert_eq!(out.status.code(), Some(2), "VMSIM_HEARTBEAT_OPS={bad}");
        assert!(
            stderr_of(&out).contains("VMSIM_HEARTBEAT_OPS"),
            "diagnostic names the variable"
        );
    }
}

#[test]
fn manifest_with_out_of_range_threads_exits_2() {
    let dir = scratch("threads-manifest");
    for bad in ["0", "65"] {
        let body = table4_json().replacen("\"threads\": 1,", &format!("\"threads\": {bad},"), 1);
        assert_ne!(body, table4_json(), "corruption must have applied");
        let path = write_manifest(&dir, &format!("threads-{bad}.json"), &body);
        // `run` treats an invalid manifest as a usage error (exit 2);
        // `validate` reports it as a validation failure (exit 1). Both
        // must carry the range diagnostic and neither may succeed.
        let out = vmsim(&["run", &path]);
        assert_eq!(out.status.code(), Some(2), "vmsim run threads={bad}");
        assert!(
            stderr_of(&out).contains("threads must be in 1..=64"),
            "run diagnostic states the valid range (threads={bad})"
        );
        let out = vmsim(&["validate", &path]);
        assert_eq!(out.status.code(), Some(1), "vmsim validate threads={bad}");
        assert!(
            stderr_of(&out).contains("threads must be in 1..=64"),
            "validate diagnostic states the valid range (threads={bad})"
        );
    }
}

/// Manifests whose machine cannot be built: each used to pass `validate`,
/// then panic inside every cell (exit 3), abort on a failed allocation, or
/// overflow outside the supervised loop (exit 101). Now `validate` fails
/// and `run` exits 2 before any cell runs, both naming the JSON path.
#[test]
fn manifests_that_build_an_impossible_machine_exit_2() {
    let dir = scratch("impossible-machine");
    // The checked-in manifest `name` with its first `from` replaced.
    let edit = |name: &str, from: &str, to: &str| {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../manifests/{name}.json"));
        let text = std::fs::read_to_string(path).expect("manifest is checked in");
        assert!(text.contains(from), "{name}.json has {from}");
        text.replacen(from, to, 1)
    };
    let pages = |n: u64| edit("sec64", "\"pages\": 65536", &format!("\"pages\": {n}"));
    let cases = [
        (
            "guest-0",
            edit("smoke", "\"guest_mb\": 256", "\"guest_mb\": 0"),
            "$.sim.guest_mb",
        ),
        (
            "cores-0",
            edit("smoke", "\"cores\": 2", "\"cores\": 0"),
            "$.sim.cores",
        ),
        (
            "llc-3",
            edit("smoke", "\"llc_mb\": null", "\"llc_mb\": 3"),
            "$.sim.llc_mb",
        ),
        (
            "workload-llc-3",
            edit("llc", "\"llc_mb\": 1,", "\"llc_mb\": 3,"),
            "$.experiment.workloads[0].sim.llc_mb",
        ),
        (
            "stlb-3",
            edit("smoke", "\"stlb_entries\": null", "\"stlb_entries\": 3"),
            "$.sim.stlb_entries",
        ),
        (
            "prefragment-3",
            edit(
                "smoke",
                "\"prefragment_run\": null",
                "\"prefragment_run\": 3",
            ),
            "$.experiment.workloads[0].prefragment_run",
        ),
        (
            "guest-2^32",
            edit("smoke", "\"guest_mb\": 256", "\"guest_mb\": 4294967296"),
            "$.sim.guest_mb",
        ),
        (
            "cores-10^8",
            edit("smoke", "\"cores\": 2", "\"cores\": 100000000"),
            "$.sim.cores",
        ),
        ("pages-2^40", pages(1 << 40), "$.experiment.pages"),
        ("pages-2^61+1", pages((1 << 61) + 1), "$.experiment.pages"),
    ];
    for (tag, body, path) in cases {
        let file = write_manifest(&dir, &format!("{tag}.json"), &body);
        let out = vmsim(&["validate", &file]);
        assert_eq!(out.status.code(), Some(1), "vmsim validate {tag}");
        assert!(stderr_of(&out).contains(path), "{tag}: {}", stderr_of(&out));
        let out = vmsim(&["run", &file, "--out", &dir.to_string_lossy()]);
        assert_eq!(out.status.code(), Some(2), "vmsim run {tag}");
        assert!(stderr_of(&out).contains(path), "{tag}: {}", stderr_of(&out));
    }
}

#[test]
fn malformed_guest_threads_env_is_a_usage_error() {
    let dir = scratch("guest-threads-env");
    let manifest = write_manifest(&dir, "t4.json", &table4_json());
    for bad in ["abc", "0", "65", "-1", "4.5"] {
        let out = vmsim_env(&["run", &manifest], &[("VMSIM_GUEST_THREADS", bad)]);
        assert_eq!(out.status.code(), Some(2), "VMSIM_GUEST_THREADS={bad}");
        assert!(
            stderr_of(&out).contains("VMSIM_GUEST_THREADS"),
            "diagnostic names the variable (VMSIM_GUEST_THREADS={bad})"
        );
    }
}

#[test]
fn malformed_serve_bind_env_is_a_usage_error() {
    let dir = scratch("serve-bind-env");
    // Non-loopback TCP, a bare word, and a port-less address: each must
    // stop the server before it binds anything, naming the variable.
    for bad in ["8.8.8.8:53", "nonsense", "127.0.0.1"] {
        let out = vmsim_env(
            &["serve", "--out", dir.to_str().expect("utf8 path")],
            &[("VMSIM_SERVE_BIND", bad)],
        );
        assert_eq!(out.status.code(), Some(2), "VMSIM_SERVE_BIND={bad}");
        assert!(
            stderr_of(&out).contains("VMSIM_SERVE_BIND"),
            "diagnostic names the variable (VMSIM_SERVE_BIND={bad})"
        );
    }
}

#[test]
fn malformed_serve_queue_env_is_a_usage_error() {
    let dir = scratch("serve-queue-env");
    for bad in ["abc", "0", "4097", "-1", "2.5"] {
        let out = vmsim_env(
            &["serve", "--out", dir.to_str().expect("utf8 path")],
            &[("VMSIM_SERVE_QUEUE", bad)],
        );
        assert_eq!(out.status.code(), Some(2), "VMSIM_SERVE_QUEUE={bad}");
        assert!(
            stderr_of(&out).contains("VMSIM_SERVE_QUEUE"),
            "diagnostic names the variable (VMSIM_SERVE_QUEUE={bad})"
        );
    }
}

#[test]
fn malformed_serve_drain_and_deadline_env_are_usage_errors() {
    let dir = scratch("serve-timeout-env");
    for (var, bad) in [
        ("VMSIM_SERVE_DRAIN_MS", "soon"),
        ("VMSIM_SERVE_DRAIN_MS", "0"),
        ("VMSIM_SERVE_DRAIN_MS", "-5"),
        ("VMSIM_SERVE_DEADLINE_MS", "later"),
        ("VMSIM_SERVE_DEADLINE_MS", "0"),
    ] {
        let out = vmsim_env(
            &["serve", "--out", dir.to_str().expect("utf8 path")],
            &[(var, bad)],
        );
        assert_eq!(out.status.code(), Some(2), "{var}={bad}");
        assert!(
            stderr_of(&out).contains(var),
            "diagnostic names the variable ({var}={bad})"
        );
    }
}

#[test]
fn submit_with_unparseable_address_exits_2() {
    let out = vmsim(&["submit", "--addr", "not-an-address", "smoke"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("not-an-address"));
}

#[test]
fn submit_to_unreachable_server_exits_1() {
    // Port 1 on loopback is valid syntax but nothing listens there.
    let out = vmsim(&["submit", "--addr", "127.0.0.1:1", "smoke"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("cannot connect"));
}

#[test]
fn submit_without_a_manifest_exits_2() {
    let out = vmsim(&["submit", "--addr", "127.0.0.1:7171"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("exactly one manifest"));
}

/// Spawns `vmsim serve` on an ephemeral loopback port and waits at most
/// `limit` for it to exit. A server still running then is killed, and its
/// exit code is reported as `None`.
fn serve_exit(dir: &Path, envs: &[(&str, &str)], limit: Duration) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vmsim"));
    cmd.env_remove("VMSIM_CHAOS_CELL")
        .env("VMSIM_SERVE_BIND", "127.0.0.1:0")
        .envs(envs.iter().copied())
        .args(["serve", "--out", &dir.to_string_lossy()])
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn vmsim serve");
    let deadline = Instant::now() + limit;
    let code = loop {
        if let Some(status) = child.try_wait().expect("poll vmsim serve") {
            break status.code();
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = child.wait_with_output().expect("reap vmsim serve");
    (code, stderr_of(&out))
}

/// The four removed knobs and a misspelt one: each is an unknown `VMSIM_*`
/// variable, so every command that consumes the environment refuses it
/// by name before it touches a journal, a result or a socket.
#[test]
fn unknown_vmsim_variables_are_usage_errors() {
    let smoke = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../manifests/smoke.json");
    let smoke = smoke.to_string_lossy();
    for (var, value) in [
        ("VMSIM_TRACE", "1"),
        ("VMSIM_EPOCH_OPS", "1000"),
        ("VMSIM_PROFILE", "1"),
        ("VMSIM_GUEST_THREADS", "4"),
        ("VMSIM_OPPS", "10"),
    ] {
        let dir = scratch(&format!("unknown-{var}"));
        let env = [(var, value)];

        let out = vmsim_env(&["run", &smoke, "--out", &dir.to_string_lossy()], &env);
        assert_eq!(out.status.code(), Some(2), "run with {var}={value}");
        assert!(stderr_of(&out).contains(var), "run: {}", stderr_of(&out));
        for name in ["smoke.journal.jsonl", "smoke.json"] {
            assert!(!dir.join(name).exists(), "run with {var} wrote {name}");
        }

        // Port 1 refuses connections, so a submit that got past the
        // environment would exit 1, not 2.
        let out = vmsim_env(&["submit", "--addr", "127.0.0.1:1", &smoke], &env);
        assert_eq!(out.status.code(), Some(2), "submit with {var}={value}");
        assert!(stderr_of(&out).contains(var), "submit: {}", stderr_of(&out));

        let out = vmsim_env(&["validate", &smoke], &env);
        assert_eq!(out.status.code(), Some(1), "validate with {var}={value}");
        assert!(
            stderr_of(&out).contains(var),
            "validate: {}",
            stderr_of(&out)
        );

        let (code, err) = serve_exit(&dir, &env, Duration::from_secs(10));
        assert_eq!(code, Some(2), "serve with {var}={value}: {err}");
        assert!(err.contains(var), "serve: {err}");
        assert!(!dir.join("serve.addr").exists(), "serve with {var} bound");
    }
}
