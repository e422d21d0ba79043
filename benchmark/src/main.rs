//! Host-time benchmark for vmsim: end-to-end numbers for the real CLI and
//! job server, and per-layer numbers from a traced in-process pass.
//!
//! ```text
//! vmsim-benchmark --vmsim PATH --work DIR [--workload fig6|fault|fleet|serve]
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `benchmark/run.sh` builds everything and supplies `--vmsim`/`--work`.
//! One invocation runs one workload: `--trace 0` times the program from
//! outside and prints the end-to-end metrics, `--trace 1` runs the traced
//! passes and prints the per-layer metrics. Without `--workload` it runs
//! every workload both ways, each in a process of its own. Each metric is printed as a row with its unit
//! and sample count; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, also written to
//! `DIR/result.json`. Exit 2 is a usage error and exit 1 a run that could
//! not be measured; output checks that fail set `"correct": false`.

mod procs;
mod serve;
mod spec;
mod stats;
mod timed;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use vmsim_obs::json::{self, Json};
use workloads::Workload;

/// Worker threads of every vmsim process and pass: the whole load comes
/// from one process with at most two threads, matching a two-CPU host.
const THREADS: &str = "2";

/// Output checks: every one counts as attempted, a false one as failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }
}

/// What one workload run needs.
pub struct Ctx {
    pub vmsim: PathBuf,
    /// Scratch directory of this run, emptied before and after it.
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
}

/// One metric value with a human note (sample count, spread).
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub note: String,
}

impl Measured {
    pub fn new(name: &'static str, value: f64, note: impl Into<String>) -> Measured {
        Measured {
            name,
            value,
            note: note.into(),
        }
    }

    /// The median of `samples`, noting their count and spread.
    pub fn median(name: &'static str, samples: &[f64]) -> Measured {
        let value = stats::median(samples).unwrap_or(f64::NAN);
        let spread =
            stats::iqr_share(samples).map_or(String::new(), |s| format!(", IQR {:.1}%", 100.0 * s));
        Measured::new(name, value, format!("median of {}{spread}", samples.len()))
    }

    /// The lower quartile of `samples`, noting their count and median.
    /// On a shared host other tenants only ever slow a job down, so the
    /// fast quartile tracks the program's own cost: between runs of one
    /// commit it moved about half as much as the median did.
    pub fn lower_quartile(name: &'static str, samples: &[f64]) -> Measured {
        let value = stats::quartiles(samples).map_or(f64::NAN, |q| q[0]);
        let median = stats::median(samples).unwrap_or(f64::NAN);
        Measured::new(
            name,
            value,
            format!("p25 of {}, median {median:.1}", samples.len()),
        )
    }
}

struct Opts {
    vmsim: PathBuf,
    work: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: vmsim-benchmark --vmsim PATH --work DIR \
    [--workload fig6|fault|fleet|serve] [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        vmsim: PathBuf::new(),
        work: PathBuf::new(),
        workload: None,
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--vmsim" => opts.vmsim = PathBuf::from(value),
            "--work" => opts.work = PathBuf::from(value),
            "--workload" => {
                opts.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .ok()
                    .filter(|&s| s <= workloads::MAX_SEED)
                    .ok_or_else(|| format!("--seed wants 0..={}", workloads::MAX_SEED))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds wants 1..=600")?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if opts.vmsim.as_os_str().is_empty() || opts.work.as_os_str().is_empty() {
        return Err("--vmsim and --work are required".into());
    }
    Ok(opts)
}

/// The environment every pass and child sees: no inherited `VMSIM_*`
/// override may change what runs, and the worker pool is fixed.
fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy().into_owned();
        if key.starts_with("VMSIM_") || key == "PTEMAGNET_OPS" {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("VMSIM_THREADS", THREADS);
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vmsim-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !opts.vmsim.is_file() {
        eprintln!("vmsim-benchmark: {} is not a file", opts.vmsim.display());
        return ExitCode::from(2);
    }
    pin_environment();
    match opts.workload {
        Some(w) => run_one(&opts, w),
        None => run_all(&opts),
    }
}

/// Appends `"key": {"value": v, "unit": "u"}` to a JSON object body.
fn push_metric(body: &mut String, key: &str, value: f64, unit: &str) {
    if !body.is_empty() {
        body.push_str(", ");
    }
    json::write_str(body, key);
    let _ = write!(body, ": {{\"value\": {value}, \"unit\": ");
    json::write_str(body, unit);
    body.push('}');
}

/// Writes `DIR/result.json` and prints the result line last.
fn finish(opts: &Opts, correct: bool, attempted: u64, failed: u64, metrics: &str) -> ExitCode {
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    );
    if let Err(e) = std::fs::write(opts.work.join("result.json"), format!("{line}\n")) {
        eprintln!("vmsim-benchmark: result.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    ExitCode::SUCCESS
}

fn run_one(opts: &Opts, w: Workload) -> ExitCode {
    let ctx = Ctx {
        vmsim: opts.vmsim.clone(),
        dir: opts.work.join(w.name()),
        seed: opts.seed,
        seconds: Duration::from_secs(opts.seconds),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("vmsim-benchmark: {}: {e}", ctx.dir.display());
        return ExitCode::FAILURE;
    }
    let mut tally = Tally::default();
    let result = if opts.trace {
        traced::run(&ctx, w, &mut tally)
    } else {
        timed::run(&ctx, w, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let measured = match result.and_then(|m| complete(m, opts.trace)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("vmsim-benchmark: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    let mut metrics = String::new();
    for (m, spec) in measured.iter().zip(spec::table(opts.trace)) {
        println!(
            "{:<6} {:<28} {:>18} {:<8} {:<7} {}",
            w.name(),
            m.name,
            m.value,
            spec.unit,
            spec.better.as_str(),
            m.note
        );
        push_metric(&mut metrics, m.name, m.value, spec.unit);
    }
    finish(
        opts,
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        &metrics,
    )
}

/// Every workload untraced and traced, each in a process of its own: a
/// child's `ru_maxrss` starts from its parent's peak, so a parent grown by
/// earlier in-process passes would inflate `peak_rss_mb`. Metrics are
/// keyed `workload/metric`.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("vmsim-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = String::new();
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .arg("--vmsim")
                .arg(&opts.vmsim)
                .arg("--work")
                .arg(&opts.work)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .stderr(Stdio::inherit())
                .output();
            let stdout = match out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!(
                        "vmsim-benchmark: {} --trace {trace}: {}",
                        w.name(),
                        o.status
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("vmsim-benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().and_then(|l| json::parse(l).ok());
            let Some(Json::Obj(fields)) = result.as_ref().and_then(|r| r.get("metrics")) else {
                eprintln!(
                    "vmsim-benchmark: {} --trace {trace}: no result line",
                    w.name()
                );
                return ExitCode::FAILURE;
            };
            for line in lines {
                println!("{line}");
            }
            let result = result.as_ref().expect("parsed above");
            correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
            for (name, m) in fields {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                push_metric(&mut metrics, &format!("{}/{name}", w.name()), value, unit);
            }
        }
    }
    finish(opts, correct, attempted, failed, &metrics)
}

/// Puts the measured values in declaration order and refuses a run that
/// misses a declared metric, repeats one, or measured a non-finite value.
fn complete(mut measured: Vec<Measured>, trace: bool) -> Result<Vec<Measured>, String> {
    let table = spec::table(trace);
    let mut ordered = Vec::with_capacity(table.len());
    for spec in table {
        let i = measured
            .iter()
            .position(|m| m.name == spec.name)
            .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
        let m = measured.swap_remove(i);
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        ordered.push(m);
    }
    match measured.first() {
        Some(extra) => Err(format!("metric {} is not declared", extra.name)),
        None => Ok(ordered),
    }
}
