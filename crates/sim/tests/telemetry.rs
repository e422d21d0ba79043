//! Acceptance tests for the live-telemetry layer (ISSUE 7):
//!
//! * heartbeat cadence is deterministic in op space: the same scenario
//!   pulses at the same `ops_done` marks with the same memo counters on
//!   every run;
//! * the phase profiler and an attached progress stream are differentially
//!   invisible — results and reports byte-identical with them on or off,
//!   at `VMSIM_THREADS` 1 and 4;
//! * end-to-end: `vmsim run --progress` leaves the results artifact
//!   byte-identical and writes a parseable heartbeat stream whose op-space
//!   cadence (`VMSIM_HEARTBEAT_OPS`) is reproducible run to run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

use vmsim_config::builtin;
use vmsim_obs::json;
use vmsim_sim::{run_supervised, CellBudget, ObsConfig, Pulse, Scenario, Supervisor};
use vmsim_workloads::{BenchId, CoId};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmsim-telemetry-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn pulses(heartbeat_ops: u64) -> Vec<Pulse> {
    let mut seen = Vec::new();
    Scenario::new(BenchId::Gcc)
        .corunners(&[CoId::StressNg])
        .measure_ops(20_000)
        .try_run(
            ObsConfig::disabled(),
            CellBudget::unlimited(),
            Some((heartbeat_ops, &mut |pulse| seen.push(pulse))),
        )
        .expect("scenario runs");
    seen
}

#[test]
fn heartbeat_cadence_is_deterministic_in_op_space() {
    let first = pulses(3_000);
    let again = pulses(3_000);
    // Pulse carries only op-space state (ops, memo counters), so the whole
    // sequence — marks and payloads — must reproduce exactly.
    assert_eq!(first, again, "heartbeat cadence drifted between runs");
    assert!(first.len() >= 20_000 / 3_000, "too few pulses: {first:?}");
    for pair in first.windows(2) {
        assert!(pair[0].ops_done < pair[1].ops_done, "non-monotone pulses");
        assert!(pair[0].memo_hits <= pair[1].memo_hits);
    }
    let last = first.last().expect("terminal pulse");
    assert_eq!(last.ops_done, last.ops_total, "missing terminal pulse");

    // A finer cadence pulses strictly more often but reports the same
    // memo state wherever the op marks coincide.
    let fine = pulses(1_000);
    assert!(fine.len() > first.len());
    for p in &first {
        if let Some(q) = fine.iter().find(|q| q.ops_done == p.ops_done) {
            assert_eq!(p, q, "same op mark, different payload");
        }
    }
}

#[test]
fn profiler_and_progress_are_differentially_invisible() {
    let mut plain = builtin::by_name("table4").expect("checked-in manifest");
    plain.measure_ops = 2_000;
    let mut profiled = plain.clone();
    profiled.obs.profile = true;

    let bare = Supervisor {
        journal: None,
        chaos: None,
        progress: None,
    };
    std::env::set_var("VMSIM_THREADS", "1");
    let baseline = run_supervised(&plain, &bare).expect("baseline run");
    let (base_json, base_report) = (baseline.results_json(), baseline.report());

    for threads in ["1", "4"] {
        std::env::set_var("VMSIM_THREADS", threads);
        let prof = run_supervised(&profiled, &bare).expect("profiled run");
        assert_eq!(prof.results_json(), base_json, "profiler changed results");
        assert_eq!(prof.report(), base_report, "profiler changed the report");

        let dir = scratch(&format!("inproc-{threads}"));
        let stream = vmsim_sim::Progress::create(&dir.join("progress.jsonl"), &plain, 500)
            .expect("progress stream");
        let sup = Supervisor {
            journal: None,
            chaos: None,
            progress: Some(&stream),
        };
        let streamed = run_supervised(&plain, &sup).expect("streamed run");
        assert_eq!(
            streamed.results_json(),
            base_json,
            "heartbeats changed results"
        );
        assert_eq!(
            streamed.report(),
            base_report,
            "heartbeats changed the report"
        );
        assert!(stream.io_error().is_none());
    }
    std::env::remove_var("VMSIM_THREADS");
}

fn vmsim_run(out_dir: &PathBuf, progress: Option<&PathBuf>, heartbeat_ops: &str) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vmsim"));
    cmd.env_remove("VMSIM_CHAOS_CELL")
        .env("VMSIM_HEARTBEAT_OPS", heartbeat_ops)
        .args(["run", "manifests/smoke.json", "--out"])
        .arg(out_dir)
        .current_dir(env!("CARGO_MANIFEST_DIR").to_string() + "/../..");
    if let Some(path) = progress {
        cmd.arg("--progress").arg(path);
    }
    cmd.output().expect("spawn vmsim")
}

#[test]
fn cli_progress_stream_leaves_results_byte_identical_and_reproduces_cadence() {
    let dir = scratch("cli");
    let plain_dir = dir.join("plain");
    let out = vmsim_run(&plain_dir, None, "1000");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let plain = std::fs::read(plain_dir.join("smoke.json")).expect("plain results");

    // Two streamed runs: results byte-identical to the plain run, streams
    // parse, and the op-space cadence reproduces exactly (wall-derived
    // fields — ops/sec, ETA — are free to differ). Cells run concurrently
    // and interleave their lines in wall-clock order, so the cadence is
    // compared per cell, each in its own stream order.
    let mut cadences = Vec::new();
    for tag in ["a", "b"] {
        let out_dir = dir.join(format!("streamed-{tag}"));
        let stream_path = dir.join(format!("progress-{tag}.jsonl"));
        let out = vmsim_run(&out_dir, Some(&stream_path), "1000");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let streamed = std::fs::read(out_dir.join("smoke.json")).expect("streamed results");
        assert_eq!(streamed, plain, "--progress changed the results artifact");

        let text = std::fs::read_to_string(&stream_path).expect("stream exists");
        let mut lines = text.lines();
        let header = json::parse(lines.next().expect("header")).expect("header parses");
        assert_eq!(header.get("progress").and_then(json::Json::as_u64), Some(1));
        assert!(header.get("manifest_hash").is_some());
        let mut cadence: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        let mut statuses = 0usize;
        for line in lines {
            let doc = json::parse(line).expect("stream line parses");
            if doc.get("status").is_some() {
                statuses += 1;
            } else {
                let cell = doc.get("cell").and_then(json::Json::as_u64).expect("cell");
                cadence.entry(cell).or_default().push((
                    doc.get("ops_done")
                        .and_then(json::Json::as_u64)
                        .expect("ops_done"),
                    doc.get("memo_hits")
                        .and_then(json::Json::as_u64)
                        .expect("memo_hits"),
                ));
                assert!(doc.get("ops_per_sec").is_some());
                assert!(doc.get("eta_ms").is_some());
            }
        }
        // smoke = 2 cells x 5000 ops at a 1000-op cadence: several pulses
        // per cell plus one "done" status line per cell.
        let heartbeats: usize = cadence.values().map(Vec::len).sum();
        assert!(heartbeats >= 8, "too few heartbeats: {cadence:?}");
        assert_eq!(statuses, 2, "one terminal status line per cell");
        cadences.push(cadence);
    }
    assert_eq!(cadences[0], cadences[1], "op-space cadence drifted");
}

/// Turning the profiler on in the manifest adds the profile artifacts and
/// keeps the rest of the `obs` block: the trace and the epoch series are
/// still written in full.
#[test]
fn cli_profiled_manifest_keeps_trace_and_series() {
    let dir = scratch("profiled");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let smoke = std::fs::read_to_string(root.join("manifests/smoke.json")).expect("smoke.json");
    let profiled = smoke.replacen("\"profile\": false", "\"profile\": true", 1);
    assert_ne!(profiled, smoke, "smoke.json has an obs.profile key");
    // Not `<out>/smoke.json`: that is where the run writes its results.
    let manifest = dir.join("smoke-profiled.json");
    std::fs::write(&manifest, profiled).expect("write profiled manifest");

    let out = Command::new(env!("CARGO_BIN_EXE_vmsim"))
        .env_remove("VMSIM_CHAOS_CELL")
        .arg("run")
        .arg(&manifest)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("spawn vmsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let size = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
    for name in [
        "trace_smoke_0.jsonl",
        "profile_smoke_0.json",
        "profile_smoke.folded",
    ] {
        assert!(size(name) > 0, "{name} is empty or missing");
    }
    let series = std::fs::read_to_string(dir.join("series_smoke_0.csv")).expect("series");
    assert!(series.lines().count() > 1, "series has no rows: {series:?}");
}
