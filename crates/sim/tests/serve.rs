//! Integration contract of `vmsim serve`: an in-process [`Server`] on an
//! ephemeral loopback port, driven through the real line protocol over
//! `TcpStream` — exactly what `vmsim submit` speaks.
//!
//! What must hold:
//!
//! * a submitted job's artifacts are **byte-identical** to the same
//!   manifest run through the plain `vmsim run` pipeline (shared writer);
//! * resubmitting a completed manifest is answered from the
//!   content-addressed cache — same results path, no re-execution;
//! * a full admission queue refuses with the typed `overloaded` rejection,
//!   deterministically (same bytes every time);
//! * `drain` finishes the in-flight job, answers queued jobs `deferred`,
//!   exits 0, and the deferred work is recovered by the next server start
//!   from the admission journal;
//! * malformed requests and unknown ops get the typed `invalid` answer;
//! * `health`/`status` expose the full `serve.*` gauge group.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vmsim_config::{builtin, ExperimentManifest, ExperimentSpec, ServeBind};
use vmsim_obs::json::{self, Json};
use vmsim_sim::driver::{run_supervised, Supervisor};
use vmsim_sim::{artifacts, ServeConfig, Server};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmsim-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn config(out_dir: &Path, queue_depth: usize) -> ServeConfig {
    ServeConfig {
        bind: ServeBind::parse("127.0.0.1:0").expect("loopback parses"),
        queue_depth,
        drain_ms: 120_000,
        deadline_ms: None,
        out_dir: out_dir.to_path_buf(),
    }
}

/// A server running its accept loop on a background thread.
struct Running {
    addr: String,
    handle: std::thread::JoinHandle<u8>,
}

fn start(cfg: &ServeConfig) -> Running {
    let server = Server::new(cfg).expect("server starts");
    let addr = server.addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    Running { addr, handle }
}

impl Running {
    /// Sends the drain op and returns the server's exit code.
    fn drain(self) -> u8 {
        let resp = request_line(&self.addr, "{\"op\": \"drain\"}");
        assert!(resp.contains("draining"), "drain ack: {resp}");
        self.handle.join().expect("server thread")
    }
}

/// One request line, one response line (health/status/drain/rejections).
fn request_line(addr: &str, req: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(req.as_bytes()).expect("send request");
    stream.write_all(b"\n").expect("send newline");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("response line");
    line.trim().to_string()
}

fn submit_request(manifest: &ExperimentManifest, wait: bool) -> String {
    let mut req = String::from("{\"op\": \"submit\", \"manifest_json\": ");
    json::write_str(&mut req, &manifest.to_json());
    req.push_str(if wait {
        ", \"wait\": true}"
    } else {
        ", \"wait\": false}"
    });
    req
}

/// Submits with `wait: true` and reads protocol lines (accepted,
/// heartbeats) until the final state: `done`, `deferred`, or a rejection.
fn submit_and_wait(addr: &str, manifest: &ExperimentManifest) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(submit_request(manifest, true).as_bytes())
        .expect("send request");
    stream.write_all(b"\n").expect("send newline");
    let mut reader = BufReader::new(stream);
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read response") > 0,
            "server closed the stream before a final state"
        );
        let doc = json::parse(line.trim()).expect("response is one JSON object");
        if doc.get("ok").and_then(Json::as_bool) == Some(false) {
            return doc;
        }
        if matches!(
            doc.get("state").and_then(|s| s.as_str()),
            Some("done" | "deferred")
        ) {
            return doc;
        }
    }
}

fn state_of(doc: &Json) -> Option<&str> {
    doc.get("state").and_then(|s| s.as_str())
}

fn gauge(doc: &Json, key: &str) -> Option<u64> {
    doc.get("serve")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
}

/// Runs `manifest` through the plain pipeline (the `vmsim run` path) and
/// returns the reference artifact directory.
fn reference_run(manifest: &ExperimentManifest, tag: &str) -> PathBuf {
    let dir = scratch(tag);
    let run = run_supervised(manifest, &Supervisor::default()).expect("reference run");
    let set = artifacts::write_all(&run, &dir, 0.0, &mut |_| {});
    assert_eq!(set.failures, 0, "reference artifacts write cleanly");
    dir
}

/// A served job's artifacts are byte-for-byte what `vmsim run` would have
/// produced, and resubmitting the same manifest hits the cache instead of
/// re-executing.
#[test]
fn served_artifacts_match_a_clean_run_and_resubmission_hits_the_cache() {
    let out = scratch("identity");
    let run = start(&config(&out, 8));
    let m = builtin::smoke();

    let doc = submit_and_wait(&run.addr, &m);
    assert_eq!(state_of(&doc), Some("done"));
    assert_eq!(doc.get("exit").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
    let results = doc
        .get("results")
        .and_then(|r| r.as_str())
        .expect("results path")
        .to_string();
    let job_dir = PathBuf::from(&results)
        .parent()
        .expect("job dir")
        .to_path_buf();

    let reference = reference_run(&m, "identity-ref");
    for name in [
        "smoke.json",
        "trace_smoke_0.jsonl",
        "trace_smoke_1.jsonl",
        "series_smoke_0.csv",
        "series_smoke_1.csv",
    ] {
        let served = std::fs::read(job_dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let golden = std::fs::read(reference.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(served, golden, "{name} diverged from the vmsim run bytes");
    }

    // Same manifest again: answered from the cache, same results path.
    let doc2 = submit_and_wait(&run.addr, &m);
    assert_eq!(state_of(&doc2), Some("done"));
    assert_eq!(doc2.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        doc2.get("results").and_then(|r| r.as_str()),
        Some(results.as_str())
    );
    let status = json::parse(&request_line(&run.addr, "{\"op\": \"status\"}")).expect("status");
    assert_eq!(
        gauge(&status, "completed"),
        Some(1),
        "cache hit must not re-execute"
    );
    assert_eq!(gauge(&status, "cache_hits"), Some(1));

    assert_eq!(run.drain(), 0, "clean drain");
    assert!(!out.join("serve.addr").exists(), "endpoint file removed");
}

/// A job whose cell journal can be neither resumed nor created still
/// runs, but ends like `vmsim run` does in that case: exit 1 with the
/// journal failure as its message. The result is not cached, so a
/// resubmission executes again instead of answering as a clean run.
#[test]
fn unjournalable_job_fails_and_is_not_cached() {
    let out = scratch("nojournal");
    let m = builtin::smoke();
    let id = format!("{:016x}", vmsim_sim::journal::manifest_hash(&m));
    std::fs::create_dir_all(out.join(&id).join("smoke.journal.jsonl"))
        .expect("a directory where the journal goes");
    let run = start(&config(&out, 8));

    for attempt in 0..2 {
        let doc = submit_and_wait(&run.addr, &m);
        assert_eq!(state_of(&doc), Some("done"), "attempt {attempt}");
        assert_eq!(doc.get("exit").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
        let message = doc.get("message").and_then(|m| m.as_str()).unwrap_or("");
        assert!(
            message.starts_with("FAIL journal") && message.contains("smoke.journal.jsonl"),
            "message names the journal: {message}"
        );
    }
    run.drain();
}

/// A full queue answers with the typed `overloaded` rejection — and with
/// exactly the same bytes on every attempt (deterministic backpressure).
#[test]
fn full_queue_rejects_with_typed_overloaded_response() {
    let out = scratch("overload");
    let run = start(&config(&out, 0));
    let m = builtin::smoke();

    let first = request_line(&run.addr, &submit_request(&m, false));
    let second = request_line(&run.addr, &submit_request(&m, false));
    assert_eq!(first, second, "rejection must be deterministic");

    let doc = json::parse(&first).expect("rejection is JSON");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("error").and_then(|e| e.as_str()),
        Some("overloaded")
    );
    assert_eq!(doc.get("queue_depth").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("limit").and_then(Json::as_u64), Some(0));

    let health = json::parse(&request_line(&run.addr, "{\"op\": \"health\"}")).expect("health");
    assert_eq!(gauge(&health, "rejected"), Some(2));
    assert_eq!(gauge(&health, "accepted"), Some(0));
    assert_eq!(run.drain(), 0);
}

/// Unknown ops, unparseable requests, and manifests that fail validation
/// all get the typed `invalid` answer (and count on the `invalid` gauge).
#[test]
fn malformed_requests_get_typed_invalid_responses() {
    let out = scratch("invalid");
    let run = start(&config(&out, 8));

    let unknown = request_line(&run.addr, "{\"op\": \"frobnicate\"}");
    assert!(unknown.contains("\"error\": \"invalid\""), "{unknown}");
    assert!(unknown.contains("unknown op"), "{unknown}");

    let garbage = request_line(&run.addr, "this is not json");
    assert!(garbage.contains("\"error\": \"invalid\""), "{garbage}");

    let mut bad_manifest = String::from("{\"op\": \"submit\", \"manifest_json\": ");
    json::write_str(&mut bad_manifest, "{\"not\": \"a manifest\"}");
    bad_manifest.push('}');
    let resp = request_line(&run.addr, &bad_manifest);
    assert!(resp.contains("\"error\": \"invalid\""), "{resp}");

    let health = json::parse(&request_line(&run.addr, "{\"op\": \"health\"}")).expect("health");
    assert!(gauge(&health, "invalid").is_some_and(|n| n >= 1));
    assert_eq!(run.drain(), 0);
}

/// A manifest that parses and passes shape validation but names a policy
/// the registry does not know is refused at admission with the typed
/// `invalid` answer: nothing is journaled, queued or given a job directory.
#[test]
fn unknown_policy_submit_is_invalid_and_never_admitted() {
    let out = scratch("unknownpolicy");
    let run = start(&config(&out, 8));
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(&out)
            .expect("out dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        names.sort();
        names
    };
    let jobs = out.join("serve.jobs.jsonl");
    let journal_before = std::fs::read(&jobs).unwrap_or_default();
    let dir_before = listing();

    let manifest = builtin::smoke()
        .to_json()
        .replace("\"ptemagnet\"", "\"wizardry\"");
    let mut req = String::from("{\"op\": \"submit\", \"manifest_json\": ");
    json::write_str(&mut req, &manifest);
    req.push_str(", \"wait\": true}");
    let doc = json::parse(&request_line(&run.addr, &req)).expect("answer is JSON");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("error").and_then(|e| e.as_str()), Some("invalid"));
    assert!(doc
        .get("message")
        .and_then(|m| m.as_str())
        .is_some_and(|m| m.contains("unknown policy \"wizardry\"")));

    let health = json::parse(&request_line(&run.addr, "{\"op\": \"health\"}")).expect("health");
    assert_eq!(gauge(&health, "invalid"), Some(1));
    assert_eq!(gauge(&health, "accepted"), Some(0));
    assert_eq!(
        std::fs::read(&jobs).unwrap_or_default(),
        journal_before,
        "nothing is appended to the admission journal"
    );
    assert_eq!(listing(), dir_before, "no job directory is created");
    assert_eq!(run.drain(), 0);
}

/// A manifest whose machine cannot be built (an alloc-latency array whose
/// VM size overflows) is refused `invalid` before it is journaled, and the
/// executor goes on to run the next job.
#[test]
fn impossible_machine_submit_is_invalid_and_the_server_keeps_serving() {
    let out = scratch("impossible");
    let run = start(&config(&out, 8));
    let jobs = out.join("serve.jobs.jsonl");
    let journal_before = std::fs::read(&jobs).unwrap_or_default();

    let mut m = builtin::by_name("sec64").expect("checked-in manifest");
    m.experiment = ExperimentSpec::AllocLatency {
        pages: (1 << 61) + 1,
    };
    let doc = json::parse(&request_line(&run.addr, &submit_request(&m, false))).expect("JSON");
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(false),
        "{doc:?}"
    );
    assert_eq!(doc.get("error").and_then(|e| e.as_str()), Some("invalid"));
    assert!(doc
        .get("message")
        .and_then(|m| m.as_str())
        .is_some_and(|m| m.contains("$.experiment.pages")));
    assert_eq!(
        std::fs::read(&jobs).unwrap_or_default(),
        journal_before,
        "nothing is appended to the admission journal"
    );

    let doc = submit_and_wait(&run.addr, &builtin::smoke());
    assert_eq!(state_of(&doc), Some("done"));
    assert_eq!(doc.get("exit").and_then(Json::as_u64), Some(0));
    assert_eq!(run.drain(), 0);
}

/// `health` and `status` expose the whole `serve.*` gauge group; `status`
/// adds the queue view.
#[test]
fn health_and_status_expose_the_serve_gauge_group() {
    let out = scratch("health");
    let run = start(&config(&out, 8));

    let health = json::parse(&request_line(&run.addr, "{\"op\": \"health\"}")).expect("health");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(state_of(&health), Some("ready"));
    for key in [
        "queue_depth",
        "accepted",
        "rejected",
        "recovered",
        "completed",
        "cache_hits",
        "quarantined",
        "invalid",
        "draining",
    ] {
        assert!(gauge(&health, key).is_some(), "missing serve.{key} gauge");
    }

    let status = json::parse(&request_line(&run.addr, "{\"op\": \"status\"}")).expect("status");
    assert!(
        status.get("in_flight").is_some(),
        "status reports in_flight"
    );
    assert!(
        status.get("queued").and_then(Json::as_arr).is_some(),
        "status reports the queue contents"
    );
    assert_eq!(run.drain(), 0);
}

/// The accept loop wakes as soon as a connection is pending: 40 sequential
/// `health` round trips take far less than 40 accept-poll timeouts
/// (40 × 25 ms = 1 s).
#[test]
fn sequential_health_round_trips_do_not_wait_for_the_accept_poll() {
    let out = scratch("acceptlatency");
    let run = start(&config(&out, 8));
    // One round trip first, so the accept loop is running when timing starts.
    assert!(request_line(&run.addr, "{\"op\": \"health\"}").contains("ready"));

    let start = Instant::now();
    for _ in 0..40 {
        let health = request_line(&run.addr, "{\"op\": \"health\"}");
        assert!(health.contains("ready"), "health answer: {health}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "40 health round trips took {elapsed:?}"
    );
    assert_eq!(run.drain(), 0);
}

/// A torn final write in the admission journal (the tail a `kill -9`
/// leaves mid-append) is repaired on startup: the file is rewritten as
/// its clean parsed prefix before appending resumes, so the `done` entry
/// the recovered job appends lands on its own line and the journal stays
/// replayable across later restarts — nothing journaled after the first
/// crash is ever lost to a merged junk line.
#[test]
fn torn_admission_journal_tail_is_repaired_on_restart() {
    let out = scratch("tornjournal");
    let cfg = config(&out, 8);
    let m = builtin::smoke();
    let id = format!("{:016x}", vmsim_sim::journal::manifest_hash(&m));
    let mut accepted = format!("{{\"event\": \"accepted\", \"job\": \"{id}\", \"name\": ");
    json::write_str(&mut accepted, &m.name);
    accepted.push_str(", \"manifest_json\": ");
    json::write_str(&mut accepted, &m.to_json());
    accepted.push_str("}\n");
    let clean = format!("{{\"serve_jobs\": 1}}\n{accepted}");
    std::fs::write(
        out.join("serve.jobs.jsonl"),
        format!("{clean}{{\"event\": \"acc"),
    )
    .expect("write torn journal");

    let server = Server::new(&cfg).expect("server starts on a torn journal");
    assert_eq!(server.recovered(), 1, "the accepted job is recovered");
    // The executor may already be appending the recovered job's `done`
    // entry, so assert structure rather than exact bytes: the clean
    // prefix survives, the torn fragment is gone, and every line —
    // including anything appended since — parses on its own line.
    let repaired = std::fs::read_to_string(out.join("serve.jobs.jsonl")).expect("journal");
    assert!(
        repaired.starts_with(&clean),
        "clean prefix rewritten: {repaired}"
    );
    assert!(repaired.ends_with('\n'), "newline-terminated: {repaired}");
    for line in repaired.lines() {
        json::parse(line).unwrap_or_else(|e| panic!("unparseable line after repair: {line} {e:?}"));
    }

    // Let the recovered job finish (attaching to it by resubmitting),
    // then restart: the replay must get past the old crash point and see
    // the job as done — the cache answers instead of re-executing.
    let addr = server.addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let doc = submit_and_wait(&addr, &m);
    assert_eq!(state_of(&doc), Some("done"));
    assert_eq!(doc.get("exit").and_then(Json::as_u64), Some(0));
    let resp = request_line(&addr, "{\"op\": \"drain\"}");
    assert!(resp.contains("draining"), "drain ack: {resp}");
    assert_eq!(handle.join().expect("server thread"), 0);

    let restarted = Server::new(&cfg).expect("restart replays the repaired journal");
    assert_eq!(restarted.recovered(), 0, "the done entry replayed cleanly");
    let addr = restarted.addr().to_string();
    let handle = std::thread::spawn(move || restarted.run());
    let doc = submit_and_wait(&addr, &m);
    assert_eq!(state_of(&doc), Some("done"));
    assert_eq!(
        doc.get("cached").and_then(Json::as_bool),
        Some(true),
        "the post-crash done entry seeds the cache on restart"
    );
    let resp = request_line(&addr, "{\"op\": \"drain\"}");
    assert!(resp.contains("draining"), "drain ack: {resp}");
    assert_eq!(handle.join().expect("server thread"), 0);
}

/// An `accepted` line whose job id is not its own manifest's hash is a
/// corrupt record: the replay drops it (and everything after it), logs the
/// drop and rewrites the file. A submit of the manifest the id names then
/// runs that manifest, instead of being answered with the results of the
/// manifest on the line.
#[test]
fn accepted_line_whose_id_is_not_its_manifest_hash_is_dropped() {
    let out = scratch("forgedid");
    let cfg = config(&out, 8);
    let m = builtin::smoke();
    let id = format!("{:016x}", vmsim_sim::journal::manifest_hash(&m));
    let mut other = m.clone();
    other.measure_ops = 4_000;
    let mut accepted = format!("{{\"event\": \"accepted\", \"job\": \"{id}\", \"name\": ");
    json::write_str(&mut accepted, &other.name);
    accepted.push_str(", \"manifest_json\": ");
    json::write_str(&mut accepted, &other.to_json());
    accepted.push_str("}\n");
    let header = "{\"serve_jobs\": 1}\n";
    std::fs::write(out.join("serve.jobs.jsonl"), format!("{header}{accepted}"))
        .expect("write journal");

    let server = Server::new(&cfg).expect("server starts");
    assert_eq!(server.recovered(), 0, "the mismatched line is not replayed");
    assert_eq!(
        std::fs::read_to_string(out.join("serve.jobs.jsonl")).expect("journal"),
        header,
        "the mismatched line is dropped from the file"
    );
    let addr = server.addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let doc = submit_and_wait(&addr, &m);
    assert_eq!(state_of(&doc), Some("done"));
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
    let results = doc
        .get("results")
        .and_then(|r| r.as_str())
        .expect("results");
    let results = json::parse(&std::fs::read_to_string(results).expect("results file"))
        .expect("results parse");
    assert_eq!(
        results.get("measure_ops").and_then(Json::as_u64),
        Some(m.measure_ops),
        "the submitted manifest ran, not the one on the journal line"
    );
    let resp = request_line(&addr, "{\"op\": \"drain\"}");
    assert!(resp.contains("draining"), "drain ack: {resp}");
    assert_eq!(handle.join().expect("server thread"), 0);
}

/// An admission journal whose header declares a version this server does
/// not speak is rotated aside (preserved byte-for-byte) and a fresh
/// current-version journal is started — never a mixed-version file, and
/// never silently discarded work.
#[test]
fn version_mismatched_admission_journal_is_rotated_aside() {
    let out = scratch("jobsversion");
    let cfg = config(&out, 8);
    let old = "{\"serve_jobs\": 999}\n{\"event\": \"accepted\", \"job\": \"0\"}\n";
    std::fs::write(out.join("serve.jobs.jsonl"), old).expect("write old journal");

    let server = Server::new(&cfg).expect("server starts past the old journal");
    assert_eq!(server.recovered(), 0, "old-version jobs are not replayed");
    let bak = std::fs::read_to_string(out.join("serve.jobs.jsonl.bak")).expect("rotated aside");
    assert_eq!(bak, old, "old journal preserved byte-for-byte");
    let fresh = std::fs::read_to_string(out.join("serve.jobs.jsonl")).expect("fresh journal");
    assert_eq!(
        fresh, "{\"serve_jobs\": 1}\n",
        "fresh journal starts with the current header"
    );

    let addr = server.addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let resp = request_line(&addr, "{\"op\": \"drain\"}");
    assert!(resp.contains("draining"), "drain ack: {resp}");
    assert_eq!(handle.join().expect("server thread"), 0);
}

/// A waiting client that disconnects loses only its stream: the job it
/// was waiting on still executes to completion (the executor's `finish`
/// never depends on a client socket write).
#[test]
fn a_dead_waiter_does_not_block_job_execution() {
    let out = scratch("deadclient");
    let run = start(&config(&out, 8));
    let m = builtin::smoke();

    {
        let mut stream = TcpStream::connect(&run.addr).expect("connect");
        stream
            .write_all(submit_request(&m, true).as_bytes())
            .expect("send request");
        stream.write_all(b"\n").expect("send newline");
        let mut first = String::new();
        BufReader::new(&stream)
            .read_line(&mut first)
            .expect("accepted line");
        assert!(first.contains("accepted"), "{first}");
    } // the waiter's connection drops here, before the job finishes

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let health = json::parse(&request_line(&run.addr, "{\"op\": \"health\"}")).expect("health");
        if gauge(&health, "completed") == Some(1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "job never completed after its waiter disconnected"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(run.drain(), 0);
}

/// Drain with work queued behind the in-flight job: the running job
/// finishes and persists, the queued job is answered `deferred`, the
/// server exits 0 — and a fresh server on the same output directory
/// recovers the deferred job from the admission journal and completes it
/// with the same bytes `vmsim run` would produce.
#[test]
fn drain_defers_queued_work_which_recovers_on_restart() {
    let out = scratch("drain");
    let cfg = config(&out, 8);
    let run = start(&cfg);

    // Job A: slow enough (superlinear in measure_ops) to still be in
    // flight while we queue, drain, and defer behind it.
    let mut slow = builtin::smoke();
    slow.name = "slowjob".to_string();
    slow.measure_ops = 150_000;
    let accepted = json::parse(&request_line(&run.addr, &submit_request(&slow, false)))
        .expect("accepted line");
    assert_eq!(state_of(&accepted), Some("accepted"));

    // Wait until A is actually in flight, so B can only queue behind it.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = json::parse(&request_line(&run.addr, "{\"op\": \"status\"}")).expect("status");
        let busy = status
            .get("in_flight")
            .is_some_and(|j| j.as_str().is_some());
        if busy {
            break;
        }
        assert!(Instant::now() < deadline, "job A never started");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Job B waits on its result from a second connection.
    let fast = builtin::smoke();
    let addr = run.addr.clone();
    let fast2 = fast.clone();
    let waiter = std::thread::spawn(move || submit_and_wait(&addr, &fast2));

    // Make sure B is admitted (journaled + queued) before the drain lands.
    loop {
        let status = json::parse(&request_line(&run.addr, "{\"op\": \"status\"}")).expect("status");
        if gauge(&status, "accepted") == Some(2) {
            break;
        }
        assert!(Instant::now() < deadline, "job B never admitted");
        std::thread::sleep(Duration::from_millis(20));
    }

    assert_eq!(run.drain(), 0, "in-flight work finished inside the budget");
    let deferred = waiter.join().expect("waiter thread");
    assert_eq!(state_of(&deferred), Some("deferred"));

    // A completed and persisted before exit; B stayed accepted-without-done
    // in the admission journal.
    let jobs = std::fs::read_to_string(out.join("serve.jobs.jsonl")).expect("admission journal");
    assert!(jobs.contains("\"event\": \"accepted\""));
    assert!(jobs.contains("slowjob"));

    // Restart on the same output directory: B comes back as recovered work
    // and completes; attaching to it returns the vmsim run bytes.
    let restarted = Server::new(&cfg).expect("server restarts");
    assert_eq!(restarted.recovered(), 1, "the deferred job is recovered");
    let addr = restarted.addr().to_string();
    let handle = std::thread::spawn(move || restarted.run());
    let doc = submit_and_wait(&addr, &fast);
    assert_eq!(state_of(&doc), Some("done"));
    assert_eq!(doc.get("exit").and_then(Json::as_u64), Some(0));
    let results = doc
        .get("results")
        .and_then(|r| r.as_str())
        .expect("results path");
    let served = std::fs::read_to_string(results).expect("recovered results file");
    let reference = reference_run(&fast, "drain-ref");
    let golden = std::fs::read_to_string(reference.join("smoke.json")).expect("reference results");
    assert_eq!(served, golden, "recovered job bytes diverged");

    let resp = request_line(&addr, "{\"op\": \"drain\"}");
    assert!(resp.contains("draining"), "drain ack: {resp}");
    assert_eq!(handle.join().expect("server thread"), 0);
}
