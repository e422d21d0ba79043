//! Live run telemetry: the `--progress` heartbeat stream.
//!
//! A [`Progress`] sink appends one JSON line per heartbeat to a stream
//! file while a supervised run executes, so a long matrix run can be
//! watched (`tail -f`) without touching any result artifact. The stream
//! is pure wall-clock metadata: nothing in it feeds back into
//! [`crate::scenario::RunMetrics`], the results JSON, or the journal, and
//! the differential suite asserts a run with a progress sink attached is
//! bit-identical to one without.
//!
//! Layout mirrors the journal: a header line identifying the manifest by
//! its FNV-1a hash, then heartbeat lines. Unlike the journal the stream
//! is *never resumed* — every run truncates and rewrites it — so a
//! corrupt or truncated leftover from a killed run is tolerated by
//! construction.
//!
//! Heartbeat *cadence* is deterministic in op space: a cell pulses at the
//! first measured-chunk boundary after each multiple of the configured
//! op interval (`VMSIM_HEARTBEAT_OPS`, default
//! [`DEFAULT_HEARTBEAT_OPS`]), plus once at completion. Which ops pulse
//! is therefore a pure function of the manifest and the interval; only
//! the ops/sec and ETA *values* on each line come from the wall clock.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use vmsim_config::ExperimentManifest;
use vmsim_obs::json;
use vmsim_types::RunError;

use crate::journal;

/// Default heartbeat interval in measured ops (`VMSIM_HEARTBEAT_OPS`
/// overrides).
pub const DEFAULT_HEARTBEAT_OPS: u64 = 50_000;

/// Format version of the progress stream.
const PROGRESS_VERSION: u64 = 1;

/// One deterministic progress pulse from a cell's measured phase.
///
/// Everything here is op-space state the simulation already computed;
/// the sink adds the wall-derived rate and ETA at write time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pulse {
    /// Measured ops completed so far.
    pub ops_done: u64,
    /// Measured ops this cell will execute (after budget capping).
    pub ops_total: u64,
    /// Touches replayed from a walk-memo slot.
    pub memo_hits: u64,
    /// Touches that took the full naive path.
    pub memo_misses: u64,
}

impl Pulse {
    /// Fraction of touches the memo layer absorbed (0 when nothing ran).
    #[must_use]
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

/// Per-cell pacing state: when we first heard from the cell and at how
/// many ops, so rate and ETA reflect the cell's own progress rather than
/// the whole run's.
struct Pace {
    first_seen: Instant,
    first_ops: u64,
}

struct Sink {
    file: Option<File>,
    error: Option<String>,
    /// Lines lost to the stream: the write that latched the error plus
    /// every line dropped afterwards.
    lost: u64,
    pace: HashMap<u64, Pace>,
}

/// An append-only heartbeat stream bound to one manifest.
///
/// Shared by reference across the worker pool (all mutable state behind
/// one mutex, like the journal). I/O errors are latched: the first one is
/// remembered and reported by [`Progress::io_error`], later writes are
/// dropped — telemetry must never take down the run it watches. The loss
/// is *not* silent: every dropped line is counted
/// ([`Progress::io_errors`]), so the final run summary can report how
/// much telemetry went missing.
pub struct Progress {
    path: PathBuf,
    heartbeat_ops: u64,
    sink: Mutex<Sink>,
}

impl Progress {
    /// Creates (truncating) the stream file and writes the header line.
    /// Any leftover content — including a corrupt tail from a killed run —
    /// is discarded, which is what makes resume-with-progress safe.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::ArtifactIo`] when the file cannot be created
    /// or the header cannot be written.
    pub fn create(
        path: &Path,
        manifest: &ExperimentManifest,
        heartbeat_ops: u64,
    ) -> Result<Self, RunError> {
        let mut file = File::create(path).map_err(|e| artifact(path, &format!("create: {e}")))?;
        let header = header(&manifest.name, journal::manifest_hash(manifest));
        file.write_all(header.as_bytes())
            .map_err(|e| artifact(path, &format!("write header: {e}")))?;
        Ok(Self {
            path: path.to_path_buf(),
            heartbeat_ops: heartbeat_ops.max(1),
            sink: Mutex::new(Sink {
                file: Some(file),
                error: None,
                lost: 0,
                pace: HashMap::new(),
            }),
        })
    }

    /// The stream file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The op interval cells should pulse at.
    #[must_use]
    pub fn heartbeat_ops(&self) -> u64 {
        self.heartbeat_ops
    }

    /// Appends one heartbeat line and prints the stderr summary.
    pub fn heartbeat(
        &self,
        cell: u64,
        workload: &str,
        policy: &str,
        seed: u64,
        attempt: u32,
        pulse: &Pulse,
    ) {
        let now = Instant::now();
        let mut sink = self.sink.lock().expect("progress lock");
        let pace = sink.pace.entry(cell).or_insert(Pace {
            first_seen: now,
            first_ops: 0,
        });
        let elapsed = now.duration_since(pace.first_seen).as_secs_f64();
        let ops_per_sec = if elapsed > 0.0 {
            (pulse.ops_done.saturating_sub(pace.first_ops)) as f64 / elapsed
        } else {
            0.0
        };
        let eta_ms = if ops_per_sec > 0.0 {
            ((pulse.ops_total.saturating_sub(pulse.ops_done)) as f64 / ops_per_sec * 1e3) as u64
        } else {
            0
        };
        let mut line = String::with_capacity(192);
        let _ = write!(
            line,
            "{{\"cell\": {cell}, \"workload\": {}, \"policy\": {}, \"seed\": {seed}, \
             \"attempt\": {attempt}, \"ops_done\": {}, \"ops_total\": {}, \
             \"memo_hits\": {}, \"memo_misses\": {}, \"memo_hit_rate\": ",
            json_str(workload),
            json_str(policy),
            pulse.ops_done,
            pulse.ops_total,
            pulse.memo_hits,
            pulse.memo_misses,
        );
        json::write_f64(&mut line, pulse.memo_hit_rate());
        line.push_str(", \"ops_per_sec\": ");
        json::write_f64(&mut line, ops_per_sec);
        let _ = writeln!(line, ", \"eta_ms\": {eta_ms}}}");
        write_line(&mut sink, &self.path, &line);
        eprintln!(
            "vmsim: cell {cell} {workload}/{policy} seed {seed}: {}/{} ops \
             ({ops_per_sec:.0} ops/s, memo {:.0}%, eta {:.1}s)",
            pulse.ops_done,
            pulse.ops_total,
            pulse.memo_hit_rate() * 100.0,
            eta_ms as f64 / 1e3
        );
    }

    /// Appends a terminal status line for a cell (`done`, `resumed`, or
    /// `quarantined`) and drops its pacing state.
    pub fn cell_status(
        &self,
        cell: u64,
        workload: &str,
        policy: &str,
        seed: u64,
        attempts: u32,
        status: &str,
    ) {
        let mut sink = self.sink.lock().expect("progress lock");
        sink.pace.remove(&cell);
        let mut line = String::with_capacity(128);
        let _ = writeln!(
            line,
            "{{\"cell\": {cell}, \"workload\": {}, \"policy\": {}, \"seed\": {seed}, \
             \"attempts\": {attempts}, \"status\": {}}}",
            json_str(workload),
            json_str(policy),
            json_str(status),
        );
        write_line(&mut sink, &self.path, &line);
    }

    /// The first I/O error the stream hit, if any.
    #[must_use]
    pub fn io_error(&self) -> Option<String> {
        self.sink.lock().expect("progress lock").error.clone()
    }

    /// Telemetry lines lost to I/O errors (0 on a healthy stream).
    #[must_use]
    pub fn io_errors(&self) -> u64 {
        self.sink.lock().expect("progress lock").lost
    }

    /// Replaces the sink with a read-only handle so the next write fails —
    /// test hook for the error-latching path.
    #[cfg(test)]
    fn break_sink(&self) {
        let mut sink = self.sink.lock().expect("progress lock");
        sink.file = Some(File::open(&self.path).expect("reopen read-only"));
    }
}

/// Appends `line`, latching the first error and disabling the stream.
/// Every line lost — the failing write and every drop after the latch —
/// is counted so the loss is reportable at the end of the run.
fn write_line(sink: &mut Sink, path: &Path, line: &str) {
    let Some(file) = sink.file.as_mut() else {
        sink.lost += 1;
        return;
    };
    if let Err(e) = file.write_all(line.as_bytes()).and_then(|()| file.flush()) {
        sink.error = Some(format!("{}: append: {e}", path.display()));
        sink.file = None;
        sink.lost += 1;
    }
}

/// The stream header: version, manifest name, and manifest hash — same
/// identification scheme as the journal header.
fn header(name: &str, hash: u64) -> String {
    format!(
        "{{\"progress\": {PROGRESS_VERSION}, \"name\": {}, \"manifest_hash\": \"{hash:016x}\"}}\n",
        json_str(name)
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json::write_str(&mut out, s);
    out
}

fn artifact(path: &Path, msg: &str) -> RunError {
    RunError::ArtifactIo {
        path: path.display().to_string(),
        message: msg.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmsim_config::builtin;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vmsim-progress-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn stream_has_a_hashed_header_and_parseable_lines() {
        let path = scratch("lines").join("p.jsonl");
        let manifest = builtin::smoke();
        let progress = Progress::create(&path, &manifest, 1000).expect("create");
        assert_eq!(progress.heartbeat_ops(), 1000);
        progress.heartbeat(
            0,
            "gcc",
            "default",
            7,
            1,
            &Pulse {
                ops_done: 1024,
                ops_total: 2000,
                memo_hits: 900,
                memo_misses: 100,
            },
        );
        progress.cell_status(0, "gcc", "default", 7, 1, "done");
        assert!(progress.io_error().is_none());
        drop(progress);

        let text = std::fs::read_to_string(&path).expect("read stream");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let head = json::parse(lines[0]).expect("header parses");
        assert_eq!(head.get("progress").and_then(json::Json::as_u64), Some(1));
        assert_eq!(
            head.get("manifest_hash").and_then(|h| h.as_str()),
            Some(format!("{:016x}", journal::manifest_hash(&manifest)).as_str())
        );
        let beat = json::parse(lines[1]).expect("heartbeat parses");
        assert_eq!(
            beat.get("ops_done").and_then(json::Json::as_u64),
            Some(1024)
        );
        assert_eq!(
            beat.get("memo_hit_rate").and_then(json::Json::as_f64),
            Some(0.9)
        );
        assert!(beat.get("ops_per_sec").is_some());
        let done = json::parse(lines[2]).expect("status parses");
        assert_eq!(done.get("status").and_then(|s| s.as_str()), Some("done"));
    }

    #[test]
    fn create_truncates_a_corrupt_leftover_stream() {
        let path = scratch("corrupt").join("p.jsonl");
        std::fs::write(&path, "{\"progress\": 1, \"nam\u{0}garbage\ntrunc").expect("seed garbage");
        let manifest = builtin::smoke();
        let progress = Progress::create(&path, &manifest, 50).expect("create over garbage");
        drop(progress);
        let text = std::fs::read_to_string(&path).expect("read stream");
        assert_eq!(text.lines().count(), 1, "only the fresh header remains");
        json::parse(text.lines().next().unwrap()).expect("header parses");
    }

    #[test]
    fn io_errors_are_latched_counted_and_exported() {
        let path = scratch("latch").join("p.jsonl");
        let manifest = builtin::smoke();
        let progress = Progress::create(&path, &manifest, 50).expect("create");
        assert_eq!(progress.io_errors(), 0);
        progress.break_sink();

        let pulse = Pulse {
            ops_done: 10,
            ops_total: 100,
            memo_hits: 0,
            memo_misses: 10,
        };
        // First failing write latches the error and counts the lost line.
        progress.heartbeat(0, "gcc", "default", 0, 1, &pulse);
        let first = progress.io_error().expect("error latched");
        assert_eq!(progress.io_errors(), 1);
        // Later writes are dropped but still counted; the first error wins.
        progress.heartbeat(0, "gcc", "default", 0, 1, &pulse);
        progress.cell_status(0, "gcc", "default", 0, 1, "done");
        assert_eq!(progress.io_errors(), 3);
        assert_eq!(progress.io_error().as_deref(), Some(first.as_str()));
    }

    #[test]
    fn pulse_hit_rate_handles_zero() {
        let p = Pulse {
            ops_done: 0,
            ops_total: 0,
            memo_hits: 0,
            memo_misses: 0,
        };
        assert_eq!(p.memo_hit_rate(), 0.0);
    }
}
