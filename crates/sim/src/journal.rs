//! Crash-safe run journaling for supervised manifest execution.
//!
//! `vmsim run` appends one JSON line per completed matrix cell as it
//! finishes, keyed by a content hash of (canonical manifest JSON, cell
//! index, seed). `vmsim run --resume <journal>` replays completed cells
//! from the journal and only executes the missing ones; because the
//! journal stores each cell's [`RunMetrics`] plus its trace/series
//! artifact text verbatim, the merged output of a resumed run is
//! byte-identical to an uninterrupted one.
//!
//! File format (JSON Lines):
//!
//! ```text
//! {"journal": 2, "name": "<manifest name>", "manifest_hash": "<16 hex>"}
//! {"key": "<16 hex>", "cell": N, "attempts": N, "truncated": B,
//!  "run": {<run object, exactly as results JSON emits it>},
//!  "events": "<trace JSONL>", "series": "<epoch CSV>", "crc": "<16 hex>"}
//! ```
//!
//! A process killed mid-append leaves a partial last line; [`Journal::resume`]
//! keeps every parseable entry, drops the corrupt tail, and rewrites the
//! file so subsequent appends never extend a truncated line. Every entry
//! line carries a trailing FNV-1a checksum over its own payload (format
//! version 2): a *parseable but tampered* line — a flipped digit inside a
//! metric, say — fails the checksum and is dropped with the tail rather
//! than replayed into wrong artifact bytes. The dropped cells simply
//! re-execute, and determinism makes the merged output byte-identical to
//! an uninterrupted run either way. Only *successful* cells are journaled —
//! quarantined cells are retried on the next run. Numbers ride through the
//! shared `vmsim_obs::json` parser (f64-backed), so metric values must
//! stay below 2^53; every simulator counter does by a wide margin.
//!
//! A traced cell's entry holds its whole trace as one escaped `events`
//! string — several megabytes for a fleet cell. [`Journal::record`]
//! streams the entry to the file through a 64 KiB buffer: the head is
//! formatted, the trace and series are escaped straight from the cell's
//! rendered text (the same text the artifact writer writes), and the
//! checksum folds in each byte on its way out. Appending a cell therefore
//! holds no copy of its entry in memory; a journal's own memory is that
//! buffer plus the entries it replays. The checksum and the parser are both
//! linear, so resuming a traced run takes time linear in the journal's
//! size: a reduced colocation sweep's 46 MB journal replays in about a
//! second on a 2-vCPU host.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use vmsim_config::ExperimentManifest;
use vmsim_obs::json::{self, Json};
use vmsim_types::RunError;

use crate::driver::FreshCell;
use crate::scenario::RunMetrics;

/// Journal format version (the header's `"journal"` field). Version 2
/// added the per-entry `"crc"` checksum; version-1 journals are rejected
/// on resume (their entries carry no integrity proof).
pub const JOURNAL_VERSION: u64 = 2;

/// Size of the buffer an entry streams through on its way to the file.
const SINK_BUFFER: usize = 64 << 10;

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash, the journal's content-hash primitive.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_BASIS, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content hash identifying a manifest: FNV-1a over its canonical JSON.
/// Environment overrides are applied before hashing, so a journal cannot
/// be resumed under a different `VMSIM_OPS` without noticing.
#[must_use]
pub fn manifest_hash(manifest: &ExperimentManifest) -> u64 {
    fnv1a(manifest.to_json().as_bytes())
}

/// Journal key for one matrix cell: the manifest hash folded with the
/// cell's matrix index and base seed.
#[must_use]
pub fn cell_key(manifest_hash: u64, index: u64, seed: u64) -> u64 {
    let h = fnv1a_extend(manifest_hash, &index.to_le_bytes());
    fnv1a_extend(h, &seed.to_le_bytes())
}

/// One journaled cell: everything needed to replay it without re-running.
#[derive(Clone, Debug)]
pub struct JournalEntry {
    /// Attempts the cell took when it originally ran (1 = no retry).
    pub attempts: u32,
    /// Whether a budget truncated the cell's measured phase.
    pub truncated: bool,
    /// The cell's end-of-run aggregates.
    pub metrics: RunMetrics,
    /// The cell's trace artifact text (empty when tracing was off).
    pub events_jsonl: String,
    /// The cell's epoch-series CSV artifact text.
    pub series_csv: String,
}

#[derive(Debug)]
struct Sink {
    file: Option<BufWriter<File>>,
    error: Option<String>,
}

impl Sink {
    fn open(file: File) -> Mutex<Sink> {
        Mutex::new(Sink {
            file: Some(BufWriter::with_capacity(SINK_BUFFER, file)),
            error: None,
        })
    }
}

/// Passes writes through to `inner`, folding every byte written into an
/// FNV-1a hash.
struct Fnv1aWriter<'a, W> {
    inner: &'a mut W,
    hash: u64,
}

impl<W: io::Write> io::Write for Fnv1aWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash = fnv1a_extend(self.hash, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// An append-only run journal bound to one manifest.
///
/// `lookup` serves completed cells to the driver; `record` appends newly
/// completed ones. Appends happen from pool workers (the whole point is
/// surviving a kill mid-matrix), so the file handle sits behind a mutex;
/// I/O errors are latched and surfaced once via [`Journal::io_error`]
/// rather than failing the run.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    hash: u64,
    entries: HashMap<u64, JournalEntry>,
    sink: Mutex<Sink>,
}

impl Journal {
    /// Starts a fresh journal at `path` (truncating any previous file) for
    /// `manifest`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::ArtifactIo`] if the file cannot be created.
    pub fn create(path: &Path, manifest: &ExperimentManifest) -> Result<Journal, RunError> {
        let hash = manifest_hash(manifest);
        let mut file = File::create(path).map_err(|e| artifact(path, &e.to_string()))?;
        file.write_all(header(&manifest.name, hash).as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| artifact(path, &e.to_string()))?;
        Ok(Journal {
            path: path.to_path_buf(),
            hash,
            entries: HashMap::new(),
            sink: Sink::open(file),
        })
    }

    /// Reopens the journal at `path`, replaying every valid entry and
    /// dropping a corrupt tail (the signature of a `SIGKILL` mid-append).
    /// The file is rewritten without the dropped tail so later appends
    /// start on a clean line.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::ArtifactIo`] if the file is unreadable, is not
    /// a journal, or was written for a different manifest (content-hash
    /// mismatch).
    pub fn resume(path: &Path, manifest: &ExperimentManifest) -> Result<Journal, RunError> {
        let hash = manifest_hash(manifest);
        let text = std::fs::read_to_string(path).map_err(|e| artifact(path, &e.to_string()))?;
        let mut lines = text.lines();
        let head = lines
            .next()
            .and_then(|line| json::parse(line).ok())
            .ok_or_else(|| artifact(path, "not a run journal (missing header line)"))?;
        if head.get("journal").and_then(Json::as_u64) != Some(JOURNAL_VERSION) {
            return Err(artifact(path, "not a run journal (bad version field)"));
        }
        let recorded = head
            .get("manifest_hash")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| artifact(path, "not a run journal (bad manifest_hash)"))?;
        if recorded != hash {
            return Err(artifact(
                path,
                &format!(
                    "journal was written for a different manifest \
                     (hash {recorded:016x}, this manifest is {hash:016x})"
                ),
            ));
        }

        // Keep the raw text of every checksummed, parseable entry; stop at
        // the first malformed or tampered line (a killed writer's partial
        // tail, or on-disk corruption).
        let mut entries = HashMap::new();
        let mut kept = header(&manifest.name, hash);
        let mut dropped = false;
        for line in lines {
            let valid = if entry_crc_valid(line) {
                json::parse(line).ok().and_then(|doc| parse_entry(&doc))
            } else {
                None
            };
            match valid {
                Some((key, entry)) => {
                    entries.insert(key, entry);
                    kept.push_str(line);
                    kept.push('\n');
                }
                None => {
                    dropped = true;
                    break;
                }
            }
        }
        if dropped {
            eprintln!(
                "vmsim: {}: dropping corrupt journal tail (interrupted append)",
                path.display()
            );
        }
        let mut file = File::create(path).map_err(|e| artifact(path, &e.to_string()))?;
        file.write_all(kept.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| artifact(path, &e.to_string()))?;
        Ok(Journal {
            path: path.to_path_buf(),
            hash,
            entries,
            sink: Sink::open(file),
        })
    }

    /// The manifest content hash this journal is bound to.
    #[must_use]
    pub fn manifest_hash(&self) -> u64 {
        self.hash
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Completed cells replayable from this journal.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.entries.len()
    }

    /// The entry for `key` (see [`cell_key`]), if the cell already ran.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<&JournalEntry> {
        self.entries.get(&key)
    }

    /// Appends a completed cell. Called from pool workers; the first I/O
    /// error closes the sink and is reported by [`Journal::io_error`].
    pub fn record(
        &self,
        index: u64,
        workload: &str,
        policy: &str,
        seed: u64,
        attempts: u32,
        cell: &FreshCell,
    ) {
        let key = cell_key(self.hash, index, seed);
        let mut head = String::with_capacity(1024);
        let _ = write!(
            head,
            "{{\"key\": \"{key:016x}\", \"cell\": {index}, \"attempts\": {attempts}, \
             \"truncated\": {}, \"run\": ",
            cell.run.truncated
        );
        crate::driver::run_json(&mut head, workload, policy, seed, &cell.run.metrics);
        head.push_str(", \"events\": ");

        let mut sink = self.sink.lock().expect("journal sink poisoned");
        if sink.error.is_some() {
            return;
        }
        let Some(file) = sink.file.as_mut() else {
            return;
        };
        if let Err(e) = write_entry(file, &head, cell) {
            sink.error = Some(format!("{}: {e}", self.path.display()));
            sink.file = None;
        }
    }

    /// The latched append error, if any write failed during the run.
    #[must_use]
    pub fn io_error(&self) -> Option<String> {
        self.sink
            .lock()
            .expect("journal sink poisoned")
            .error
            .clone()
    }
}

/// Streams one entry line: `head` (everything up to the `events` value),
/// the escaped trace and series, then the crc field. The crc is FNV-1a
/// over everything before `, "crc"`, folded in as the bytes are written,
/// so resume can tell a tampered-but-parseable line from a genuine one.
fn write_entry(file: &mut BufWriter<File>, head: &str, cell: &FreshCell) -> io::Result<()> {
    let mut out = Fnv1aWriter {
        inner: file,
        hash: FNV1A_BASIS,
    };
    out.write_all(head.as_bytes())?;
    json::write_str_to(&mut out, &cell.events_jsonl)?;
    out.write_all(b", \"series\": ")?;
    json::write_str_to(&mut out, &cell.series_csv)?;
    let crc = out.hash;
    writeln!(file, ", \"crc\": \"{crc:016x}\"}}")?;
    file.flush()
}

fn header(name: &str, hash: u64) -> String {
    let mut out = String::from("{\"journal\": ");
    let _ = write!(out, "{JOURNAL_VERSION}, \"name\": ");
    json::write_str(&mut out, name);
    let _ = writeln!(out, ", \"manifest_hash\": \"{hash:016x}\"}}");
    out
}

/// Verifies an entry line's trailing checksum. [`Journal::record`] always
/// writes the crc field last in the fixed form `, "crc": "<16 hex>"}`, so
/// validation is a suffix strip plus an FNV-1a over the rest — no JSON
/// canonicalization needed.
fn entry_crc_valid(line: &str) -> bool {
    // `, "crc": "` + 16 hex digits + `"}` = 28 bytes.
    const TAIL: usize = 28;
    const MARKER: &str = ", \"crc\": \"";
    if line.len() < TAIL || !line.ends_with("\"}") {
        return false;
    }
    let split = line.len() - TAIL;
    if !line.is_char_boundary(split) || !line[split..].starts_with(MARKER) {
        return false;
    }
    let hex = &line[split + MARKER.len()..line.len() - 2];
    match u64::from_str_radix(hex, 16) {
        Ok(recorded) => recorded == fnv1a(&line.as_bytes()[..split]),
        Err(_) => false,
    }
}

fn artifact(path: &Path, message: &str) -> RunError {
    RunError::ArtifactIo {
        path: path.display().to_string(),
        message: message.to_string(),
    }
}

fn parse_entry(doc: &Json) -> Option<(u64, JournalEntry)> {
    let key = u64::from_str_radix(doc.get("key")?.as_str()?, 16).ok()?;
    let attempts = u32::try_from(doc.get("attempts")?.as_u64()?).ok()?;
    let truncated = doc.get("truncated")?.as_bool()?;
    let metrics = metrics_from_json(doc.get("run")?)?;
    let events_jsonl = doc.get("events")?.as_str()?.to_string();
    let series_csv = doc.get("series")?.as_str()?.to_string();
    Some((
        key,
        JournalEntry {
            attempts,
            truncated,
            metrics,
            events_jsonl,
            series_csv,
        },
    ))
}

/// Rebuilds [`RunMetrics`] from a results-JSON run object. Exact because
/// both sides of the round trip go through `vmsim_obs::json` (shortest
/// round-trip f64 formatting, `str::parse::<f64>` reading).
fn metrics_from_json(run: &Json) -> Option<RunMetrics> {
    let u = |k: &str| run.get(k).and_then(Json::as_u64);
    let f = |k: &str| run.get(k).and_then(Json::as_f64);
    Some(RunMetrics {
        benchmark: run.get("benchmark")?.as_str()?.to_string(),
        allocator: run.get("allocator")?.as_str()?.to_string(),
        measure_ops: u("measure_ops")?,
        cycles: u("cycles")?,
        tlb_lookups: u("tlb_lookups")?,
        tlb_misses: u("tlb_misses")?,
        data_accesses: u("data_accesses")?,
        data_misses: u("data_misses")?,
        page_walk_cycles: u("page_walk_cycles")?,
        host_pt_cycles: u("host_pt_cycles")?,
        guest_pt_accesses: u("guest_pt_accesses")?,
        guest_pt_memory: u("guest_pt_memory")?,
        host_pt_accesses: u("host_pt_accesses")?,
        host_pt_memory: u("host_pt_memory")?,
        host_frag: f("host_frag")?,
        guest_frag: f("guest_frag")?,
        init_cycles: u("init_cycles")?,
        footprint_pages: u("footprint_pages")?,
        reserved_unused_peak: u("reserved_unused_peak")?,
        reserved_unused_mean: f("reserved_unused_mean")?,
        total_faults: u("total_faults")?,
        reservation_fallbacks: u("reservation_fallbacks")?,
        reclaimed_frames: u("reclaimed_frames")?,
        faults_injected: u("faults_injected")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmsim_config::builtin;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vmsim-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn smoke_cell() -> FreshCell {
        let manifest = builtin::smoke();
        let run = crate::driver::build_scenario(
            &manifest,
            match &manifest.experiment {
                vmsim_config::ExperimentSpec::Matrix(m) => &m.workloads[0],
                _ => unreachable!("smoke is a matrix"),
            },
            match &manifest.experiment {
                vmsim_config::ExperimentSpec::Matrix(m) => &m.policies[0],
                _ => unreachable!("smoke is a matrix"),
            },
            manifest.seeds[0],
        )
        .expect("smoke scenario")
        .try_run(manifest.obs, crate::scenario::CellBudget::unlimited(), None)
        .expect("smoke run");
        FreshCell::new(run)
    }

    #[test]
    fn record_then_resume_replays_the_entry_exactly() {
        let dir = scratch("roundtrip");
        let path = dir.join("j.jsonl");
        let manifest = builtin::smoke();
        let cell = smoke_cell();

        let journal = Journal::create(&path, &manifest).expect("create");
        journal.record(0, "gcc", "buddy", manifest.seeds[0], 2, &cell);
        assert!(journal.io_error().is_none());
        drop(journal);

        let resumed = Journal::resume(&path, &manifest).expect("resume");
        assert_eq!(resumed.completed(), 1);
        let key = cell_key(manifest_hash(&manifest), 0, manifest.seeds[0]);
        let entry = resumed.lookup(key).expect("entry present");
        assert_eq!(entry.attempts, 2);
        assert_eq!(entry.truncated, cell.run.truncated);
        assert_eq!(entry.metrics, cell.run.metrics);
        assert_eq!(entry.events_jsonl, cell.run.events_jsonl());
        assert_eq!(entry.series_csv, cell.run.series.to_csv());
    }

    #[test]
    fn streamed_entry_matches_a_line_built_whole() {
        let dir = scratch("streamed");
        let path = dir.join("j.jsonl");
        let manifest = builtin::smoke();
        let cell = smoke_cell();
        assert!(cell.events_jsonl.lines().count() > 1_000, "smoke is traced");

        let journal = Journal::create(&path, &manifest).expect("create");
        journal.record(3, "gcc", "buddy", manifest.seeds[0], 1, &cell);
        assert!(journal.io_error().is_none());
        drop(journal);

        // The reference: the whole line built as one string with
        // `write_str`, then sealed with `fnv1a` over it.
        let key = cell_key(manifest_hash(&manifest), 3, manifest.seeds[0]);
        let mut line = format!(
            "{{\"key\": \"{key:016x}\", \"cell\": 3, \"attempts\": 1, \
             \"truncated\": {}, \"run\": ",
            cell.run.truncated
        );
        crate::driver::run_json(
            &mut line,
            "gcc",
            "buddy",
            manifest.seeds[0],
            &cell.run.metrics,
        );
        line.push_str(", \"events\": ");
        json::write_str(&mut line, &cell.run.events_jsonl());
        line.push_str(", \"series\": ");
        json::write_str(&mut line, &cell.run.series.to_csv());
        let crc = fnv1a(line.as_bytes());
        let _ = writeln!(line, ", \"crc\": \"{crc:016x}\"}}");

        let text = std::fs::read_to_string(&path).expect("read journal");
        let expected = header(&manifest.name, manifest_hash(&manifest)) + &line;
        assert!(
            text == expected,
            "streamed entry differs from the reference"
        );
    }

    #[test]
    fn multi_mebibyte_traced_entry_resumes_in_linear_time() {
        use std::time::{Duration, Instant};

        let dir = scratch("large");
        let path = dir.join("j.jsonl");
        let manifest = builtin::smoke();
        let mut run = smoke_cell().run;
        // Repeat the smoke cell's trace until its `events` text is at least
        // 4 MiB, the size a traced fleet cell journals.
        let once = run.events.clone();
        let copies = (4 << 20) / run.events_jsonl().len() + 1;
        for _ in 1..copies {
            run.events.extend_from_slice(&once);
        }
        let events = run.events_jsonl();
        assert!(events.len() >= 4 << 20, "only {} bytes", events.len());

        let journal = Journal::create(&path, &manifest).expect("create");
        let cell = FreshCell::new(run);
        journal.record(0, "gcc", "buddy", manifest.seeds[0], 1, &cell);
        let run = cell.run;
        assert!(journal.io_error().is_none());
        drop(journal);

        let start = Instant::now();
        let resumed = Journal::resume(&path, &manifest).expect("resume");
        let elapsed = start.elapsed();
        let key = cell_key(manifest_hash(&manifest), 0, manifest.seeds[0]);
        let entry = resumed.lookup(key).expect("entry present");
        assert_eq!(entry.metrics, run.metrics);
        assert!(entry.events_jsonl == events, "events text differs");
        assert_eq!(entry.series_csv, run.series.to_csv());
        assert!(
            elapsed < Duration::from_secs(10),
            "resuming a {}-byte entry took {elapsed:?}",
            events.len()
        );
    }

    #[test]
    fn corrupt_tail_is_dropped_and_file_rewritten() {
        let dir = scratch("tail");
        let path = dir.join("j.jsonl");
        let manifest = builtin::smoke();
        let cell = smoke_cell();

        let journal = Journal::create(&path, &manifest).expect("create");
        journal.record(0, "gcc", "buddy", manifest.seeds[0], 1, &cell);
        drop(journal);
        // Simulate a SIGKILL mid-append: a partial second entry.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"key\": \"0000");
        std::fs::write(&path, &text).expect("write");

        let resumed = Journal::resume(&path, &manifest).expect("resume");
        assert_eq!(resumed.completed(), 1);
        drop(resumed);
        let rewritten = std::fs::read_to_string(&path).expect("reread");
        assert!(
            !rewritten.contains("\"0000"),
            "tail not dropped:\n{rewritten}"
        );
        assert!(rewritten.ends_with('\n'));
    }

    #[test]
    fn tampered_entry_fails_its_checksum_and_is_dropped() {
        let dir = scratch("tamper");
        let path = dir.join("j.jsonl");
        let manifest = builtin::smoke();
        let cell = smoke_cell();

        let journal = Journal::create(&path, &manifest).expect("create");
        journal.record(0, "gcc", "buddy", manifest.seeds[0], 1, &cell);
        drop(journal);

        // Flip one digit inside the entry's metrics: the line still parses
        // as JSON, but replaying it would emit wrong artifact bytes.
        let text = std::fs::read_to_string(&path).expect("read");
        let idx = text.find("\"cycles\": ").expect("cycles field") + "\"cycles\": ".len();
        let mut bytes = text.into_bytes();
        bytes[idx] = if bytes[idx] == b'9' { b'1' } else { b'9' };
        std::fs::write(&path, &bytes).expect("write tampered");

        let resumed = Journal::resume(&path, &manifest).expect("resume");
        assert_eq!(
            resumed.completed(),
            0,
            "a tampered entry must never be replayed"
        );
    }

    #[test]
    fn resume_rejects_a_journal_for_a_different_manifest() {
        let dir = scratch("mismatch");
        let path = dir.join("j.jsonl");
        Journal::create(&path, &builtin::smoke()).expect("create");
        let table4 = builtin::by_name("table4").expect("checked-in manifest");
        let err = Journal::resume(&path, &table4).expect_err("hash mismatch");
        assert_eq!(err.kind(), "artifact_io");
        assert!(err.to_string().contains("different manifest"), "{err}");
    }

    #[test]
    fn resume_rejects_a_non_journal_file() {
        let dir = scratch("notjournal");
        let path = dir.join("j.jsonl");
        std::fs::write(&path, "{\"hello\": 1}\n").expect("write");
        let err = Journal::resume(&path, &builtin::smoke()).expect_err("not a journal");
        assert_eq!(err.kind(), "artifact_io");
    }

    #[test]
    fn cell_keys_separate_cells_and_seeds() {
        let h = 0xdead_beef_u64;
        assert_ne!(cell_key(h, 0, 1), cell_key(h, 1, 0));
        assert_ne!(cell_key(h, 0, 1), cell_key(h, 0, 2));
        assert_ne!(cell_key(h, 0, 1), cell_key(h ^ 1, 0, 1));
    }
}
