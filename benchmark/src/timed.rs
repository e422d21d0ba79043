//! End-to-end metrics: the real `vmsim` CLI and server, timed from
//! outside with tracing off.
//!
//! A batch workload runs its set-up job several times, one discarded
//! warm-up job, then the job back to back until the next one would end
//! past `--seconds`. The serve workload starts the server several times
//! for set-up, completes the cache pool, then runs the closed loop for
//! `--seconds`; its job is one client round of three submissions.

use std::fs::OpenOptions;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use vmsim_config::ExperimentManifest;

use crate::procs::{self, Usage};
use crate::serve::{self, Round, Server};
use crate::workloads::{self, ServeStream, Workload, SERVE_POOL};
use crate::{Ctx, Measured, Tally};

/// Longest one `vmsim run` may take before it is killed.
const JOB_LIMIT: Duration = Duration::from_secs(150);

/// Set-up is repeated at least this often, and up to [`SETUP_MAX_REPS`]
/// times while the repetitions together take under [`SETUP_BUDGET`].
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 21;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

pub fn run(ctx: &Ctx, w: Workload, tally: &mut Tally) -> Result<Vec<Measured>, String> {
    match w {
        Workload::Serve => serve_timed(ctx, tally),
        _ => batch(ctx, w, tally),
    }
}

/// Writes a manifest into the run directory and returns its path.
pub fn write_manifest(ctx: &Ctx, file: &str, m: &ExperimentManifest) -> Result<String, String> {
    let path = ctx.dir.join(file);
    std::fs::write(&path, m.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// `vmsim run <manifest> --out <out>`, timed from spawn to reap.
pub fn cli(ctx: &Ctx, manifest: &str, out: &Path) -> Result<Usage, String> {
    let log = OpenOptions::new()
        .create(true)
        .append(true)
        .open(ctx.dir.join("vmsim.log"))
        .map_err(|e| format!("vmsim.log: {e}"))?;
    procs::run(
        Command::new(&ctx.vmsim)
            .arg("run")
            .arg(manifest)
            .arg("--out")
            .arg(out)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log),
        JOB_LIMIT,
    )
    .map_err(|e| format!("vmsim run: {e}"))
}

fn read(path: impl AsRef<Path>) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Repeats `once` (which returns one set-up time) per the set-up rule.
fn repeat_setup(mut once: impl FnMut() -> Result<Duration, String>) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    while times.len() < SETUP_MIN_REPS || (times.len() < SETUP_MAX_REPS && total < SETUP_BUDGET) {
        let t = once()?;
        total += t;
        times.push(t.as_secs_f64());
    }
    Ok(times)
}

fn batch(ctx: &Ctx, w: Workload, tally: &mut Tally) -> Result<Vec<Measured>, String> {
    let job = workloads::job(w, ctx.seed);
    let job_path = write_manifest(ctx, "job.json", &job)?;
    let setup_path = write_manifest(ctx, "setup.json", &workloads::setup_job(&job))?;

    let setup_out = ctx.dir.join("setup-out");
    let setups = repeat_setup(|| {
        let u = cli(ctx, &setup_path, &setup_out)?;
        tally.check(u.exit == Some(0), "set-up run exits 0");
        Ok(u.wall)
    })?;

    let out = ctx.dir.join("out");
    let results_path = out.join(format!("{}.json", job.name));
    let warm = cli(ctx, &job_path, &out)?;
    tally.check(warm.exit == Some(0), "warm-up run exits 0");
    let reference = read(&results_path);
    workloads::check_results(w, &reference, tally);

    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let t0 = Instant::now();
    loop {
        let u = cli(ctx, &job_path, &out)?;
        tally.check(u.exit == Some(0), "run exits 0");
        tally.check(
            read(&results_path) == reference,
            "results JSON is byte-identical across runs",
        );
        walls.push(u.wall.as_secs_f64() * 1e3);
        rss.push(u.maxrss_kb as f64 / 1024.0);
        if t0.elapsed() + u.wall > ctx.seconds {
            break;
        }
    }
    Ok(vec![
        Measured::lower_quartile("job_ms_p25", &walls),
        Measured::median("peak_rss_mb", &rss),
        Measured::median("setup_s", &setups),
    ])
}

fn serve_timed(ctx: &Ctx, tally: &mut Tally) -> Result<Vec<Measured>, String> {
    let setup_dir = ctx.dir.join("serve-setup");
    let setups = repeat_setup(|| {
        let (server, setup) = Server::start(&ctx.vmsim, &setup_dir)?;
        server.stop()?;
        Ok(setup)
    })?;
    let run = serve_session(ctx, tally)?;
    let rounds: Vec<f64> = run
        .rounds
        .iter()
        .filter(|r| r.samples.iter().all(|s| s.reply.is_ok()))
        .map(|r| r.wall.as_secs_f64() * 1e3)
        .collect();
    Ok(vec![
        Measured::lower_quartile("job_ms_p25", &rounds),
        Measured::new(
            "peak_rss_mb",
            run.server.maxrss_kb as f64 / 1024.0,
            "server process",
        ),
        Measured::median("setup_s", &setups),
    ])
}

/// A finished serve session.
pub struct Session {
    pub rounds: Vec<Round>,
    pub server: Usage,
    /// Results JSON of pool manifest 0, as served.
    pub first_answer: String,
}

/// Starts a server, completes the cache pool cold, runs the closed loop
/// of two clients for `--seconds`, drains the server, and checks every
/// answer: each submission finishes with exit 0, new manifests execute
/// and resubmissions hit the cache, a hit returns the same results file
/// as the cold run of its manifest, every results file parses with no
/// failed cell, and the first answer equals what the driver computes
/// in-process for the same manifest.
pub fn serve_session(ctx: &Ctx, tally: &mut Tally) -> Result<Session, String> {
    let stream = ServeStream::new(ctx.seed);
    let (server, _) = Server::start(&ctx.vmsim, &ctx.dir.join("serve"))?;
    let mut pool = Vec::new();
    for k in 0..SERVE_POOL {
        let reply = serve::submit(&server.addr, &stream.pool(k))?;
        tally.check(
            !reply.cached && reply.exit == Some(0),
            "pool job executes cold and exits 0",
        );
        pool.push((reply.results.clone(), read(&reply.results)));
    }
    let expected = vmsim_sim::run_manifest(&stream.pool(0))
        .map_err(|e| format!("in-process run: {e}"))?
        .results_json();
    tally.check(
        pool[0].1 == expected,
        "served results equal driver::run_manifest",
    );

    let rounds = serve::session(&server.addr, &stream, ctx.seconds);
    let usage = server.stop()?;

    for s in rounds.iter().flat_map(|r| &r.samples) {
        let reply = match &s.reply {
            Ok(r) => r,
            Err(e) => {
                tally.check(false, e);
                continue;
            }
        };
        tally.check(reply.exit == Some(0), "served job exits 0");
        tally.check(
            reply.cached == s.hit_of.is_some(),
            "new manifests execute and resubmissions hit the cache",
        );
        match s.hit_of {
            Some(k) => {
                tally.check(
                    reply.results == pool[k as usize].0,
                    "a hit answers with its manifest's results",
                );
            }
            None => {
                workloads::check_results(Workload::Serve, &read(&reply.results), tally);
            }
        }
    }
    for (path, text) in &pool {
        tally.check(
            !text.is_empty() && read(path) == *text,
            "cached results keep the cold answer's bytes",
        );
    }
    Ok(Session {
        rounds,
        server: usage,
        first_answer: pool.swap_remove(0).1,
    })
}
