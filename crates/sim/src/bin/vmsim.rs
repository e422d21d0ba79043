//! The unified `vmsim` CLI: validate and execute experiment manifests.
//!
//! ```text
//! vmsim run <manifest.json|builtin-name>... [--out DIR] [--resume JOURNAL]
//!           [--progress FILE]
//! vmsim serve [--out DIR]
//! vmsim submit <manifest.json|builtin-name> [--addr ADDR|--addr-file FILE]
//!              [--no-wait]
//! vmsim submit (--health|--status|--drain) [--addr ADDR|--addr-file FILE]
//! vmsim perf [--check] [--out FILE]
//! vmsim list
//! vmsim validate <manifest.json>...
//! ```
//!
//! `run` executes each manifest through the `vmsim-sim` supervised driver,
//! prints the paper-style report, writes `DIR/<name>.json` (default
//! `results/`) with every run's metrics, and — when the manifest enables
//! observability — per-cell `trace_<name>_<i>.jsonl`,
//! `series_<name>_<i>.csv`, and (with profiling on) `profile_<name>_<i>.json`
//! plus `profile_<name>.folded` artifacts. Every JSON artifact is re-parsed
//! after writing; failures are diagnosed per path, never panicked on.
//!
//! `--progress FILE` streams live JSONL heartbeats (ops done, ops/sec,
//! ETA, memo hit rate, retry state) to FILE while cells execute, plus a
//! one-line stderr summary per beat. The stream is wall-clock telemetry
//! only: results are bit-identical with and without it. Cadence is
//! deterministic in op space (`VMSIM_HEARTBEAT_OPS` ops between beats).
//!
//! `serve` runs the resident experiment server (`vmsim_sim::serve`): a
//! bounded admission queue, journal-backed crash recovery, a
//! content-addressed result cache, and graceful drain on SIGTERM or the
//! `drain` op. Configuration comes from the strict `VMSIM_SERVE_*` knobs
//! (bind endpoint, queue depth, drain budget, per-job deadline); the
//! actual bound address is advertised in `DIR/serve.addr`. `submit` is the
//! matching client: it sends one manifest (applying the same `VMSIM_OPS`
//! override `run` would) and by default streams status lines until the
//! job finishes, exiting with the job's own `run`-style code — or `4`
//! when the server refuses (overloaded, draining, journal unavailable) or
//! defers the job. `--health`/`--status`/`--drain` send bare probe ops.
//!
//! `perf` runs the pinned trajectory cells and appends a stamped entry to
//! the checked-in perf trajectory (`BENCH_trajectory.json`); `--check`
//! instead compares the newest entry against the previous one and fails on
//! deterministic-counter regressions (see `vmsim_sim::perf`).
//!
//! Matrix runs are crash-safe: each completed cell is appended to
//! `DIR/<name>.journal.jsonl` as it finishes, and `--resume <journal>`
//! replays completed cells so a killed run picks up where it left off with
//! byte-identical merged artifacts. A cell that panics or exhausts its
//! fault plan is quarantined (recorded in the results JSON with its typed
//! error) while the rest of the matrix completes.
//!
//! Exit-code contract for `run`:
//!
//! * `0` — every cell completed and every artifact verified;
//! * `1` — the experiment ran but one or more artifacts failed to write
//!   or re-parse;
//! * `2` — invalid input: bad usage, unreadable/invalid manifest,
//!   malformed or unknown `VMSIM_*` variable, or an unusable `--resume`
//!   journal;
//! * `3` — the run completed but one or more cells were quarantined
//!   (takes precedence over `1`).
//!
//! Environment overrides (parsed strictly by `vmsim_config::env`; malformed
//! values are errors here, not silent defaults): `VMSIM_OPS` (measured ops),
//! `VMSIM_THREADS` (worker pool), `VMSIM_CHAOS_CELL` (`i` or `i:k`:
//! deterministically panic matrix cell `i`, every attempt or only the first
//! `k` — the supervised-runtime failure drill), `VMSIM_HEARTBEAT_OPS`
//! (heartbeat cadence), and the `VMSIM_SERVE_*` group (`_BIND`, `_QUEUE`,
//! `_DRAIN_MS`, `_DEADLINE_MS`) for `serve`/`submit`. Observability and
//! guest threads come only from the manifest (`obs`, `threads`). Any other
//! set `VMSIM_*` variable is a usage error, so a misspelt knob is never
//! silently ignored.
//!
//! `validate` checks manifest shape, resolves every policy against the
//! registry, and reports malformed or unknown `VMSIM_*` variables. `list`
//! shows the checked-in manifests (runnable by name), report kinds, and the
//! policy catalog.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vmsim_config::{builtin, env, ChaosPlan, ExperimentManifest, ExperimentSpec};
use vmsim_sim::driver::{self, Supervisor};
use vmsim_sim::{artifacts, serve, Journal, Progress};

const USAGE: &str = "usage:
  vmsim run <manifest.json|builtin-name>... [--out DIR] [--resume JOURNAL] [--progress FILE]
  vmsim serve [--out DIR]
  vmsim submit <manifest.json|builtin-name> [--addr ADDR|--addr-file FILE] [--no-wait]
  vmsim submit (--health|--status|--drain) [--addr ADDR|--addr-file FILE]
  vmsim perf [--check] [--out FILE]
  vmsim list
  vmsim validate <manifest.json>...";

/// Exit code for a run that completed with quarantined cells.
const EXIT_DEGRADED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("perf") => vmsim_sim::perf::cmd_perf(&args[1..]),
        Some("list") => cmd_list(),
        Some("validate") => cmd_validate(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Loads a manifest from a file path, falling back to the checked-in
/// manifest of that name (`vmsim run table4` == `vmsim run
/// manifests/table4.json`).
fn load(source: &str) -> Result<ExperimentManifest, String> {
    let path = Path::new(source);
    if path.exists() {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{source}: cannot read: {e}"))?;
        return ExperimentManifest::from_json(&text).map_err(|e| format!("{source}: {e}"));
    }
    builtin::by_name(source)
        .ok_or_else(|| format!("{source}: no such file and no builtin manifest of that name"))
}

/// Applies the one environment override of a manifest key (`VMSIM_OPS`)
/// to a loaded manifest, after rejecting any unknown `VMSIM_*` variable.
fn apply_env(manifest: &mut ExperimentManifest) -> Result<(), env::EnvError> {
    env::reject_unknown()?;
    if let Some(ops) = env::measure_ops()? {
        manifest.measure_ops = ops;
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut out_dir = PathBuf::from("results");
    let mut resume: Option<PathBuf> = None;
    let mut progress_path: Option<PathBuf> = None;
    let mut sources: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("vmsim run: --out needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--resume" => match it.next() {
                Some(path) => resume = Some(PathBuf::from(path)),
                None => {
                    eprintln!("vmsim run: --resume needs a journal file\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--progress" => match it.next() {
                Some(path) => progress_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("vmsim run: --progress needs a stream file\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            _ => sources.push(arg),
        }
    }
    if sources.is_empty() {
        eprintln!("vmsim run: no manifests given\n{USAGE}");
        return ExitCode::from(2);
    }
    if resume.is_some() && sources.len() != 1 {
        eprintln!("vmsim run: --resume takes exactly one manifest\n{USAGE}");
        return ExitCode::from(2);
    }
    if progress_path.is_some() && sources.len() != 1 {
        eprintln!("vmsim run: --progress takes exactly one manifest\n{USAGE}");
        return ExitCode::from(2);
    }
    let heartbeat_ops = match env::heartbeat_ops() {
        Ok(interval) => interval.unwrap_or(vmsim_sim::DEFAULT_HEARTBEAT_OPS),
        Err(e) => {
            eprintln!("vmsim run: {e}");
            return ExitCode::from(2);
        }
    };
    let chaos = match env::chaos_cell() {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("vmsim run: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("vmsim run: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let mut artifact_failures = 0u32;
    let mut quarantined = 0u64;
    for source in sources {
        match run_one(
            source,
            &out_dir,
            resume.as_deref(),
            progress_path.as_deref(),
            heartbeat_ops,
            chaos,
        ) {
            Ok(stats) => {
                artifact_failures += stats.artifact_failures;
                quarantined += stats.quarantined;
            }
            Err(msg) => {
                eprintln!("vmsim run: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    if quarantined > 0 {
        eprintln!("vmsim run: {quarantined} cell(s) quarantined (see results JSON)");
        return ExitCode::from(EXIT_DEGRADED);
    }
    if artifact_failures > 0 {
        eprintln!("vmsim run: {artifact_failures} artifact(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// What one manifest's execution degraded into (usage errors return `Err`
/// from [`run_one`] instead).
#[derive(Default)]
struct RunStats {
    artifact_failures: u32,
    quarantined: u64,
}

fn run_one(
    source: &str,
    out_dir: &Path,
    resume: Option<&Path>,
    progress_path: Option<&Path>,
    heartbeat_ops: u64,
    chaos: Option<ChaosPlan>,
) -> Result<RunStats, String> {
    let mut manifest = load(source)?;
    apply_env(&mut manifest).map_err(|e| e.to_string())?;
    // Pre-flight before the journal is opened: creating the journal
    // truncates `<out>/<name>.journal.jsonl`, and a manifest that cannot run
    // must never clobber the journal a previous (interrupted) run left.
    driver::preflight(&manifest).map_err(|e| format!("{source}: {e}"))?;
    let mut stats = RunStats::default();

    // An unusable --progress path is a usage error, like an unusable
    // --resume journal: the user named a stream they cannot have. It is
    // checked before the journal is created, for the same reason as the
    // pre-flight above.
    let progress = match progress_path {
        Some(path) => {
            Some(Progress::create(path, &manifest, heartbeat_ops).map_err(|e| e.to_string())?)
        }
        None => None,
    };

    // Matrix runs journal each completed cell for crash-safe resumption.
    // An unusable --resume journal is a usage error; a journal that merely
    // cannot be *created* degrades to an unjournaled run.
    let journal = if matches!(manifest.experiment, ExperimentSpec::Matrix(_)) {
        match resume {
            Some(path) => Some(Journal::resume(path, &manifest).map_err(|e| e.to_string())?),
            None => {
                let path = out_dir.join(format!("{}.journal.jsonl", manifest.name));
                match Journal::create(&path, &manifest) {
                    Ok(j) => Some(j),
                    Err(e) => {
                        eprintln!("vmsim: journal disabled: {e}");
                        stats.artifact_failures += 1;
                        None
                    }
                }
            }
        }
    } else {
        None
    };
    if let Some(j) = &journal {
        if j.completed() > 0 {
            eprintln!(
                "vmsim: resuming {} completed cell(s) from {}",
                j.completed(),
                j.path().display()
            );
        }
    }

    let t0 = std::time::Instant::now();
    let sup = Supervisor {
        journal: journal.as_ref(),
        chaos,
        progress: progress.as_ref(),
    };
    let run = driver::run_supervised(&manifest, &sup).map_err(|e| e.to_string())?;
    print!("{}", run.report());
    stats.quarantined = run.supervision.quarantined;

    // The artifact writer is shared with `vmsim serve` — one code path, so
    // served and recovered jobs emit byte-identical files.
    let set = artifacts::write_all(&run, out_dir, t0.elapsed().as_secs_f64(), &mut |line| {
        eprintln!("{line}");
    });
    stats.artifact_failures += set.failures;

    if !run.supervision.is_clean() {
        let sv = &run.supervision;
        eprintln!(
            "vmsim: supervisor: {} quarantined, {} retried, {} truncated",
            sv.quarantined, sv.retried, sv.truncated
        );
    }
    if let Some(err) = journal.as_ref().and_then(Journal::io_error) {
        eprintln!("FAIL journal: {err}");
        stats.artifact_failures += 1;
    }
    if let Some(err) = progress.as_ref().and_then(Progress::io_error) {
        // A latched telemetry error never interrupts the run, but it must
        // not stay silent either: report the first error, how many lines
        // the stream lost, and count it as an artifact failure.
        let lost = progress.as_ref().map_or(0, |p| p.io_errors());
        eprintln!("FAIL progress: {err} ({lost} telemetry line(s) lost)");
        stats.artifact_failures += 1;
    }
    Ok(stats)
}

/// `vmsim serve`: bring up the resident job server (see
/// `vmsim_sim::serve`). Knobs come from the strict `VMSIM_SERVE_*`
/// environment; a malformed value is exit 2, a bind/setup failure exit 1,
/// and the server's own drain outcome decides the rest.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut out_dir = PathBuf::from("results");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("vmsim serve: --out needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("vmsim serve: unknown argument {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let config = match serve::ServeConfig::from_env(&out_dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("vmsim serve: {e}");
            return ExitCode::from(2);
        }
    };
    serve::install_sigterm_handler();
    let server = match serve::Server::new(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vmsim serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "vmsim serve: listening on {} (queue {}, {} job(s) recovered)",
        server.addr(),
        config.queue_depth,
        server.recovered()
    );
    ExitCode::from(server.run())
}

/// `vmsim submit`: client side of the serve line protocol. Submits one
/// manifest (waiting for its result by default) or sends a bare
/// health/status/drain probe.
fn cmd_submit(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut addr_file: Option<PathBuf> = None;
    let mut wait = true;
    let mut probe: Option<&str> = None;
    let mut sources: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = Some(a.clone()),
                None => {
                    eprintln!("vmsim submit: --addr needs an address\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--addr-file" => match it.next() {
                Some(f) => addr_file = Some(PathBuf::from(f)),
                None => {
                    eprintln!("vmsim submit: --addr-file needs a file\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--no-wait" => wait = false,
            "--health" => probe = Some("health"),
            "--status" => probe = Some("status"),
            "--drain" => probe = Some("drain"),
            _ => sources.push(arg),
        }
    }

    // Address resolution: --addr, else --addr-file (the server's
    // serve.addr endpoint file), else VMSIM_SERVE_BIND, else the default.
    let addr_text = match (addr, addr_file) {
        (Some(a), _) => a,
        (None, Some(file)) => match std::fs::read_to_string(&file) {
            Ok(text) => text.trim().to_string(),
            Err(e) => {
                eprintln!("vmsim submit: cannot read {}: {e}", file.display());
                return ExitCode::from(2);
            }
        },
        (None, None) => match env::serve_bind() {
            Ok(Some(bind)) => bind.to_string(),
            Ok(None) => env::DEFAULT_SERVE_BIND.to_string(),
            Err(e) => {
                eprintln!("vmsim submit: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let bind = match vmsim_config::ServeBind::parse(&addr_text) {
        Ok(b) => b,
        Err(reason) => {
            eprintln!("vmsim submit: {addr_text}: {reason}");
            return ExitCode::from(2);
        }
    };

    if let Some(op) = probe {
        if !sources.is_empty() {
            eprintln!("vmsim submit: --{op} takes no manifest\n{USAGE}");
            return ExitCode::from(2);
        }
        return match serve::client_request(&bind, op) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("vmsim submit: {e}");
                return ExitCode::FAILURE;
            }
        };
    }

    let [source] = sources[..] else {
        eprintln!("vmsim submit: exactly one manifest\n{USAGE}");
        return ExitCode::from(2);
    };
    // The env override (VMSIM_OPS) is applied client-side before sending,
    // exactly as `vmsim run` would: the server executes what was sent, and
    // the content address reflects what will actually run.
    let text = match load(source) {
        Ok(mut manifest) => {
            if let Err(e) = apply_env(&mut manifest) {
                eprintln!("vmsim submit: {e}");
                return ExitCode::from(2);
            }
            manifest.to_json()
        }
        Err(msg) => {
            eprintln!("vmsim submit: {msg}");
            return ExitCode::from(2);
        }
    };
    ExitCode::from(serve::client_submit(&bind, &text, wait))
}

fn cmd_validate(args: &[String]) -> ExitCode {
    if args.is_empty() {
        eprintln!("vmsim validate: no manifests given\n{USAGE}");
        return ExitCode::from(2);
    }
    let mut errors = 0u32;

    // The environment is part of what a run would consume: surface strict
    // parse errors and unknown `VMSIM_*` variables here.
    for e in env::check() {
        eprintln!("env: {e}");
        errors += 1;
    }

    for source in args {
        match validate_one(source) {
            Ok(runs) => println!("ok {source} ({runs} runs)"),
            Err(msg) => {
                eprintln!("FAIL {source}: {msg}");
                errors += 1;
            }
        }
    }
    if errors > 0 {
        eprintln!("vmsim validate: {errors} error(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn validate_one(source: &str) -> Result<usize, String> {
    let manifest = load(source)?;
    driver::preflight(&manifest).map_err(|e| e.to_string())?;
    let runs = match &manifest.experiment {
        ExperimentSpec::Matrix(matrix) => matrix.runs_per_seed() * manifest.seeds.len(),
        _ => 1,
    };
    Ok(runs)
}

fn cmd_list() -> ExitCode {
    println!("checked-in manifests (vmsim run manifests/<name>.json, or just <name>):");
    for m in builtin::all() {
        println!(
            "  {:<10} {:<15} {}",
            m.name,
            m.experiment.kind(),
            m.description
        );
    }
    println!("\nreport kinds:");
    let names: Vec<&str> = vmsim_config::ReportKind::ALL
        .iter()
        .map(|k| k.as_str())
        .collect();
    println!("  {}", names.join(", "));
    println!("\npolicies (plus granular:N for N in {{1, 2, 4, 8, 16}}):");
    println!("  {}", ptemagnet::registry::catalog().join(", "));
    ExitCode::SUCCESS
}
