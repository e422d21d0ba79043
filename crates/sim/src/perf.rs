//! The perf trajectory: `vmsim perf`, the CI-tracked performance history
//! of the translation core.
//!
//! Four pinned scenario cells — gcc and mcf under the default and
//! ptemagnet allocators, fig6 protocol with an objdet co-runner — plus
//! wall-clock microkernels of the translation core, the PaRT, the JSON
//! parser and the trace renderer. Each cell reports two ledgers:
//!
//! * **deterministic** — cost-model counters (cycles, TLB traffic, memo
//!   coverage) and the phase profiler's cycle attribution: identical on
//!   every machine. Regressions in these are gated.
//! * **informational** — wall-clock numbers (cell milliseconds, kernel
//!   ns/op, profiler wall attribution): machine-dependent, recorded for
//!   trend-watching, never gated.
//!
//! `vmsim perf` appends one stamped entry to `BENCH_trajectory.json` (a
//! growing, checked-in history; one entry per line inside the `entries`
//! array). `vmsim perf --check` diffs the newest entry against the one
//! before it and exits 1 when a gated counter (`cycles`, `tlb_misses`,
//! `naive_walks` — all higher-is-worse) grew by more than 5% in any cell.
//! A malformed trajectory file is exit 2, like any other invalid input.

use std::fmt::Write as _;

use std::process::ExitCode;
use std::time::Instant;

use vmsim_obs::{json, trace, Event, EventKind, Phase, PhaseProfile};
use vmsim_os::{Machine, MachineConfig, MemoStats};
use vmsim_types::{GuestFrame, GuestVirtAddr, GROUP_PAGES, PAGE_SIZE};
use vmsim_workloads::{BenchId, CoId};

use crate::obs::ObsConfig;
use crate::scenario::Scenario;

/// Measured steady-state ops per cell. Deliberately small: an entry must
/// regenerate in seconds, and the deterministic counters are exact at any
/// scale.
pub const CELL_OPS: u64 = 20_000;

/// Schema tag of the trajectory file.
pub const TRAJECTORY_SCHEMA: &str = "bench-trajectory-v1";

/// Default trajectory path (checked in at the repo root).
pub const TRAJECTORY_PATH: &str = "BENCH_trajectory.json";

/// The tracked cells: the fig6 protocol (objdet co-runner at weight 4) for
/// one low-TLB-pressure benchmark (gcc) and one walk-heavy one (mcf),
/// under both allocators.
const CELLS: [(BenchId, &str); 4] = [
    (BenchId::Gcc, "default"),
    (BenchId::Gcc, "ptemagnet"),
    (BenchId::Mcf, "default"),
    (BenchId::Mcf, "ptemagnet"),
];

/// Deterministic counters gated by `--check`; all are higher-is-worse.
const GATED: [&str; 3] = ["cycles", "tlb_misses", "naive_walks"];

/// One measured trajectory cell.
pub struct PerfCell {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Allocator name.
    pub allocator: &'static str,
    /// Measured-phase cycles of the primary app.
    pub cycles: u64,
    /// TLB lookups on the primary core over the measured phase.
    pub tlb_lookups: u64,
    /// TLB misses on the primary core over the measured phase.
    pub tlb_misses: u64,
    /// Memo-layer counter deltas over the measured phase.
    pub memo: MemoStats,
    /// Wall-clock milliseconds the measured phase took (informational).
    pub wall_ms: f64,
    /// Phase-attributed self-profile of the measured phase.
    pub profile: PhaseProfile,
}

/// One wall-clock microkernel result (informational).
pub struct Kernel {
    /// Kernel name.
    pub name: &'static str,
    /// Median nanoseconds per operation over three samples.
    pub ns_per_op: f64,
}

/// Runs one tracked cell: the fig6 protocol through [`Scenario`], with the
/// phase profiler on over the measured phase.
fn run_cell(bench: BenchId, alloc: &'static str) -> PerfCell {
    let run = Scenario::new(bench)
        .corunners(&[CoId::Objdet])
        .corunner_weight(4)
        .policy(alloc)
        .expect("tracked allocators are registered")
        .measure_ops(CELL_OPS)
        .seed(0)
        .run_observed(ObsConfig::profiled());
    let profile = run.profile.expect("a profiled run carries a profile");
    PerfCell {
        benchmark: bench.name(),
        allocator: alloc,
        cycles: run.metrics.cycles,
        tlb_lookups: run.metrics.tlb_lookups,
        tlb_misses: run.metrics.tlb_misses,
        memo: run.memo,
        wall_ms: profile.total_wall_ns as f64 / 1e6,
        profile,
    }
}

/// Runs the four tracked cells, reporting progress on stderr.
pub fn run_cells() -> Vec<PerfCell> {
    CELLS
        .iter()
        .map(|&(bench, alloc)| {
            eprintln!("running {} x {alloc} ...", bench.name());
            run_cell(bench, alloc)
        })
        .collect()
}

/// Median nanoseconds per op of `op` over `iters` calls, sampled three
/// times (scaled so an entry regenerates in seconds).
fn median_ns_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[1]
}

/// The microkernels: cold full walks, memo-hit replays, a round-robin
/// touch over an 8-VM multi-tenant host, PaRT take/release throughput
/// under real threads, lock-free vs globally locked, the parse of one
/// traced run-journal entry, and the render and validation of its trace.
pub fn run_kernels() -> Vec<Kernel> {
    let pages = 4096u64;
    let mut out = Vec::new();

    // full_walk_cold: stride far beyond TLB and memo reach, memo disabled.
    let mut m = Machine::new(MachineConfig::paper(1, 1024));
    m.set_memo_enabled(false);
    let pid = m.guest_mut().spawn();
    let base = m.guest_mut().mmap(pid, pages).expect("mmap");
    for i in 0..pages {
        m.touch(0, pid, GuestVirtAddr::new(base.raw() + i * PAGE_SIZE), true)
            .expect("prefault");
    }
    let mut i = 0u64;
    out.push(Kernel {
        name: "full_walk_cold",
        ns_per_op: median_ns_per_op(20_000, || {
            // Large prime stride defeats TLB and cache locality.
            i = (i + 257) % pages;
            m.touch(
                0,
                pid,
                GuestVirtAddr::new(base.raw() + i * PAGE_SIZE),
                false,
            )
            .expect("touch");
        }),
    });

    // full_walk_memo_hit: one warm page replayed from its memo slot.
    let mut m = Machine::new(MachineConfig::paper(1, 1024));
    let pid = m.guest_mut().spawn();
    let base = m.guest_mut().mmap(pid, 8).expect("mmap");
    m.touch(0, pid, base, true).expect("warm");
    m.touch(0, pid, base, false).expect("fill memo");
    out.push(Kernel {
        name: "full_walk_memo_hit",
        ns_per_op: median_ns_per_op(200_000, || {
            m.touch(0, pid, base, false).expect("replay");
        }),
    });

    // multi_vm_round: one warm touch per VM, round-robin across an 8-VM
    // host — the per-op cost of the multi-tenant dispatch path (composed
    // ASIDs, per-VM hvpn rebasing, shared host structures).
    let vm_count = 8usize;
    let mut config = MachineConfig::paper(1, 16);
    config.host_frames = vm_count as u64 * config.guest_frames;
    let mut m = Machine::multi_tenant(config, vm_count, |_| {
        ptemagnet::registry::resolve("default").expect("default allocator is registered")
    });
    let mut slots = Vec::with_capacity(vm_count);
    for vm in 0..vm_count {
        let pid = m.vm_guest_mut(vm).spawn();
        let base = m.vm_guest_mut(vm).mmap(pid, 64).expect("mmap");
        for p in 0..64u64 {
            m.touch_vm(
                vm,
                0,
                pid,
                GuestVirtAddr::new(base.raw() + p * PAGE_SIZE),
                true,
            )
            .expect("prefault");
        }
        slots.push((pid, base));
    }
    let mut i = 0u64;
    out.push(Kernel {
        name: "multi_vm_round",
        ns_per_op: median_ns_per_op(20_000, || {
            let vm = (i % vm_count as u64) as usize;
            let (pid, base) = slots[vm];
            let page = (i / vm_count as u64 * 7) % 64;
            m.touch_vm(
                vm,
                0,
                pid,
                GuestVirtAddr::new(base.raw() + page * PAGE_SIZE),
                false,
            )
            .expect("touch");
            i += 1;
        }),
    });

    // part_concurrent / part_global_lock: raw take-or-install/release
    // throughput of the lock-free PaRT and of the same tree behind one
    // global lock (the §4.2 locking ablation), under real OS threads, at
    // 1/4/8 simulated faulting threads. `shared` variants contend on one
    // leaf's words (every thread cycles the same 64 groups, each owning
    // its own page offset); `disjoint` variants give each thread its own
    // leaf, the never-contend case the fine-grained design promises
    // scales and the global lock serializes anyway.
    for (name, threads, contended) in PART_KERNELS {
        out.push(Kernel {
            name,
            ns_per_op: part_concurrent_ns::<ptemagnet::PaRt>(threads, contended),
        });
    }
    for (name, threads, contended) in GLOBAL_LOCK_KERNELS {
        out.push(Kernel {
            name,
            ns_per_op: part_concurrent_ns::<ptemagnet::GlobalLockPart>(threads, contended),
        });
    }

    // json_parse_journal_entry: `vmsim run --resume` parses every entry
    // line of the journal; a traced cell's line carries its whole trace.
    let events = trace::to_jsonl(&kernel_events());
    let line = journal_entry_line(&events);
    out.push(Kernel {
        name: "json_parse_journal_entry",
        ns_per_op: median_ns_per_op(10, || {
            std::hint::black_box(json::parse(&line).expect("journal line parses"));
        }),
    });

    // journal_entry_build: what `Journal::record` does before it takes the
    // journal file's lock: escape a traced cell's trace and series into
    // its entry line and checksum the line.
    out.push(Kernel {
        name: "journal_entry_build",
        ns_per_op: median_ns_per_op(10, || {
            std::hint::black_box(journal_entry_line(std::hint::black_box(&events)));
        }),
    });

    // trace_render_validate: what a traced cell's trace costs between the
    // simulation and its artifact: one rendering to JSONL in the pool
    // worker, then `json::validate` on every line in the artifact writer.
    let events = kernel_events();
    out.push(Kernel {
        name: "trace_render_validate",
        ns_per_op: median_ns_per_op(10, || {
            let text = trace::to_jsonl(std::hint::black_box(&events));
            for line in text.lines() {
                json::validate(line).expect("a rendered event validates");
            }
        }),
    });

    out
}

/// The fixed event stream behind the trace kernels: fault, reservation
/// and walk events whose JSONL rendering is about 1 MiB.
fn kernel_events() -> Vec<Event> {
    let mut events = Vec::new();
    let mut text = String::with_capacity(1 << 20);
    let mut op = 0u64;
    while text.len() < 1 << 20 {
        let (pid, vpn, gfn) = (1 + op % 4, op * 7, op * 13);
        let kind = match op % 4 {
            0 => EventKind::PageFault {
                pid,
                vpn,
                gfn,
                huge: false,
            },
            1 => EventKind::ReservationTake { pid, vpn, gfn },
            2 => EventKind::ReservationHit { pid, vpn, gfn },
            _ => EventKind::PtWalk {
                levels: 24,
                cycles: 100 + op % 900,
                pwc_hits: 2,
            },
        };
        let event = Event { op, kind };
        event.write_json(&mut text);
        text.push('\n');
        events.push(event);
        op += 1;
    }
    events
}

/// A fixed run-journal entry line, built by `journal::entry_line` as
/// `Journal::record` builds one, whose `events` string holds `events`
/// (the trace kernels use [`kernel_events`] rendered as JSONL).
fn journal_entry_line(events: &str) -> String {
    const HEAD: &str = "{\"key\": \"0123456789abcdef\", \"cell\": 0, \"attempts\": 1, \
         \"truncated\": false, \"run\": {\"workload\": \"8 VMs\", \"policy\": \"default\", \
         \"seed\": 0, \"benchmark\": \"gcc\", \"allocator\": \"default\", \
         \"measure_ops\": 20000, \"cycles\": 592626, \"tlb_lookups\": 80000, \
         \"tlb_misses\": 6655, \"data_accesses\": 80000, \"data_misses\": 6577, \
         \"page_walk_cycles\": 668372, \"host_pt_cycles\": 354686, \
         \"guest_pt_accesses\": 6655, \"guest_pt_memory\": 1376, \
         \"host_pt_accesses\": 8843, \"host_pt_memory\": 1437, \"host_frag\": 1.91796875, \
         \"guest_frag\": 1.0, \"init_cycles\": 70216418, \"footprint_pages\": 6144, \
         \"reserved_unused_peak\": 0, \"reserved_unused_mean\": 0.0, \
         \"total_faults\": 49152, \"reservation_fallbacks\": 0, \"reclaimed_frames\": 0, \
         \"faults_injected\": 0}, \"events\": ";
    const SERIES: &str = "op,host.free_frames\n0,1024\n20000,512\n";
    crate::journal::entry_line(HEAD, events, SERIES)
}

/// The lock-free PaRT kernel grid: (name, threads, contended).
const PART_KERNELS: [(&str, usize, bool); 6] = [
    ("part_concurrent_disjoint_t1", 1, false),
    ("part_concurrent_shared_t1", 1, true),
    ("part_concurrent_disjoint_t4", 4, false),
    ("part_concurrent_shared_t4", 4, true),
    ("part_concurrent_disjoint_t8", 8, false),
    ("part_concurrent_shared_t8", 8, true),
];

/// The same grid over the globally locked PaRT.
const GLOBAL_LOCK_KERNELS: [(&str, usize, bool); 6] = [
    ("part_global_lock_disjoint_t1", 1, false),
    ("part_global_lock_shared_t1", 1, true),
    ("part_global_lock_disjoint_t4", 4, false),
    ("part_global_lock_shared_t4", 4, true),
    ("part_global_lock_disjoint_t8", 8, false),
    ("part_global_lock_shared_t8", 8, true),
];

/// The two PaRT operations the concurrency kernels time, over either the
/// lock-free tree or its globally locked ablation.
trait PartOps: Default + Send + Sync + 'static {
    fn take(&self, group: u64, offset: u64, chunk: impl FnOnce() -> Option<GuestFrame>);
    fn release(&self, group: u64, offset: u64);
}

impl PartOps for ptemagnet::PaRt {
    fn take(&self, group: u64, offset: u64, chunk: impl FnOnce() -> Option<GuestFrame>) {
        self.take_or_install(group, offset, chunk);
    }
    fn release(&self, group: u64, offset: u64) {
        ptemagnet::PaRt::release(self, group, offset);
    }
}

impl PartOps for ptemagnet::GlobalLockPart {
    fn take(&self, group: u64, offset: u64, chunk: impl FnOnce() -> Option<GuestFrame>) {
        self.take_or_install(group, offset, chunk);
    }
    fn release(&self, group: u64, offset: u64) {
        ptemagnet::GlobalLockPart::release(self, group, offset);
    }
}

/// Median ns per PaRT operation (a take-or-install/release pair) with
/// `threads` OS threads hammering one shared tree. Contended runs route
/// every thread through the same 64 groups — same leaf words, distinct
/// page offsets, so the CAS loops race without ever violating the
/// one-fault-per-mapped-page contract; disjoint runs separate threads by
/// whole leaves.
fn part_concurrent_ns<P: PartOps>(threads: usize, contended: bool) -> f64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const OPS_PER_THREAD: u64 = 30_000;
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let part = Arc::new(P::default());
            let next_chunk = Arc::new(AtomicU64::new(0));
            let start = Instant::now();
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let part = Arc::clone(&part);
                    let next_chunk = Arc::clone(&next_chunk);
                    std::thread::spawn(move || {
                        // Each thread owns page offset `t` of whichever
                        // group it visits: grants never collide on a live
                        // page, while shared-mode leaf words are contended.
                        let offset = t as u64 % GROUP_PAGES;
                        for i in 0..OPS_PER_THREAD {
                            let group = if contended {
                                i % 64
                            } else {
                                (t as u64) << 10 | (i % 64)
                            };
                            part.take(group, offset, || {
                                Some(GuestFrame::new(
                                    next_chunk.fetch_add(GROUP_PAGES, Ordering::Relaxed),
                                ))
                            });
                            part.release(group, offset);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("kernel thread");
            }
            let total_ops = threads as u64 * OPS_PER_THREAD;
            start.elapsed().as_secs_f64() * 1e9 / total_ops as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[1]
}

/// Renders one trajectory entry as a single JSON line (no trailing
/// newline). `stamp` is seconds since the Unix epoch.
#[must_use]
pub fn entry_json(cells: &[PerfCell], kernels: &[Kernel], stamp: u64) -> String {
    let mut s = String::with_capacity(1024);
    let _ = write!(
        s,
        "{{\"stamp\": {stamp}, \"measure_ops\": {CELL_OPS}, \"cells\": ["
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{{\"benchmark\": \"{}\", \"allocator\": \"{}\", \"deterministic\": {{\
             \"cycles\": {}, \"tlb_lookups\": {}, \"tlb_misses\": {}, \"memo_hits\": {}, \
             \"memo_fills\": {}, \"naive_walks\": {}, \"memo_clears\": {}}}, \
             \"informational\": {{\"wall_ms\": {:.1}}}, \
             \"profile_cycles\": {{",
            c.benchmark,
            c.allocator,
            c.cycles,
            c.tlb_lookups,
            c.tlb_misses,
            c.memo.hits,
            c.memo.fills,
            c.memo.naive_walks,
            c.memo.clears,
            c.wall_ms,
        );
        let mut first = true;
        for phase in Phase::ALL {
            let totals = c.profile.get(phase);
            if totals.cycles == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(s, "\"{}\": {}", phase.name(), totals.cycles);
        }
        s.push_str("}, \"profile_attributed\": ");
        json::write_f64(&mut s, round4(c.profile.attributed_fraction()));
        s.push('}');
    }
    s.push_str("], \"kernels\": [");
    for (i, k) in kernels.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{{\"name\": \"{}\", \"informational_ns_per_op\": {:.1}}}",
            k.name, k.ns_per_op
        );
    }
    s.push_str("]}");
    s
}

fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

/// Reads a trajectory file and returns its entry lines (verbatim, one
/// JSON object each).
///
/// # Errors
///
/// Returns a diagnostic when the file does not parse, carries the wrong
/// schema, or its entries are not one-per-line objects — any of which
/// means the checked-in history was corrupted and needs human attention.
pub fn read_trajectory(text: &str) -> Result<Vec<String>, String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(TRAJECTORY_SCHEMA) => {}
        Some(other) => return Err(format!("schema {other:?}, expected {TRAJECTORY_SCHEMA:?}")),
        None => return Err("missing schema field".to_string()),
    }
    let count = doc
        .get("entries")
        .and_then(|e| e.as_arr())
        .ok_or("missing entries array")?
        .len();
    // Entries are one per line by construction; recover the verbatim lines
    // so appending preserves history byte-for-byte.
    let mut lines = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim().trim_end_matches(',');
        if trimmed.starts_with("{\"stamp\"") {
            json::parse(trimmed).map_err(|e| format!("entry line does not parse: {e:?}"))?;
            lines.push(trimmed.to_string());
        }
    }
    if lines.len() != count {
        return Err(format!(
            "found {} entry lines but the entries array holds {count} \
             (entries must be one per line)",
            lines.len()
        ));
    }
    Ok(lines)
}

/// Renders a whole trajectory file from entry lines.
#[must_use]
pub fn render_trajectory(entries: &[String]) -> String {
    let mut s = String::with_capacity(256 + entries.iter().map(String::len).sum::<usize>());
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{TRAJECTORY_SCHEMA}\",");
    s.push_str("  \"entries\": [\n");
    for (i, entry) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(s, "    {entry}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

/// Compares the two newest entries: any gated deterministic counter
/// (`cycles`, `tlb_misses`, `naive_walks`) growing by more than 5% in any
/// cell is a regression. Returns the regression count.
///
/// # Errors
///
/// Returns a diagnostic when the trajectory has fewer than two entries or
/// an entry is structurally unusable.
pub fn check_entries(entries: &[String]) -> Result<u32, String> {
    if entries.len() < 2 {
        return Err(format!(
            "need at least two entries to compare, found {} — run `vmsim perf` first",
            entries.len()
        ));
    }
    let prev = json::parse(&entries[entries.len() - 2]).map_err(|e| format!("{e:?}"))?;
    let newest = json::parse(&entries[entries.len() - 1]).map_err(|e| format!("{e:?}"))?;
    let cells_of = |doc: &json::Json| -> Result<Vec<json::Json>, String> {
        Ok(doc
            .get("cells")
            .and_then(|c| c.as_arr())
            .ok_or("entry has no cells array")?
            .to_vec())
    };
    let prev_cells = cells_of(&prev)?;
    let new_cells = cells_of(&newest)?;
    let ident = |cell: &json::Json| -> (String, String) {
        (
            cell.get("benchmark")
                .and_then(|b| b.as_str())
                .unwrap_or_default()
                .to_string(),
            cell.get("allocator")
                .and_then(|a| a.as_str())
                .unwrap_or_default()
                .to_string(),
        )
    };
    let mut failed = 0u32;
    for old in &prev_cells {
        let (bench, alloc) = ident(old);
        let Some(new) = new_cells
            .iter()
            .find(|c| ident(c) == (bench.clone(), alloc.clone()))
        else {
            eprintln!("MISSING: cell {bench} x {alloc} absent from the newest entry");
            failed += 1;
            continue;
        };
        for counter in GATED {
            let value = |cell: &json::Json| {
                cell.get("deterministic")
                    .and_then(|d| d.get(counter))
                    .and_then(json::Json::as_u64)
            };
            let (Some(base), Some(now)) = (value(old), value(new)) else {
                eprintln!("MISSING: {bench} x {alloc}: counter {counter} absent");
                failed += 1;
                continue;
            };
            let limit = base + base / 20;
            let verdict = if now > limit { "FAIL" } else { "ok" };
            eprintln!(
                "{verdict}: {bench} x {alloc}: {counter} {now} (previous {base}, limit {limit})"
            );
            failed += u32::from(now > limit);
        }
    }
    Ok(failed)
}

const PERF_USAGE: &str = "usage:
  vmsim perf [--out FILE]        run the tracked cells, append a trajectory entry
  vmsim perf --check [--out FILE]  compare the two newest entries (no run)";

/// The `vmsim perf` subcommand.
#[must_use]
pub fn cmd_perf(args: &[String]) -> ExitCode {
    let mut check = false;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("vmsim perf: --out needs a file\n{PERF_USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("vmsim perf: unknown argument: {other}\n{PERF_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let path = out.unwrap_or_else(|| TRAJECTORY_PATH.to_string());

    if check {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("vmsim perf: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let entries = match read_trajectory(&text) {
            Ok(entries) => entries,
            Err(msg) => {
                eprintln!("vmsim perf: {path}: {msg}");
                return ExitCode::from(2);
            }
        };
        return match check_entries(&entries) {
            Ok(0) => {
                eprintln!("vmsim perf check passed");
                ExitCode::SUCCESS
            }
            Ok(n) => {
                eprintln!("vmsim perf check FAILED: {n} gated counter(s) regressed over 5%");
                ExitCode::FAILURE
            }
            Err(msg) => {
                eprintln!("vmsim perf: {path}: {msg}");
                ExitCode::from(2)
            }
        };
    }

    let cells = run_cells();
    eprintln!("running microkernels ...");
    let kernels = run_kernels();
    for c in &cells {
        eprintln!(
            "{} x {}: {} cycles, {} naive walks, {:.1} ms \
             ({:.1}% wall attributed)",
            c.benchmark,
            c.allocator,
            c.cycles,
            c.memo.naive_walks,
            c.wall_ms,
            c.profile.attributed_fraction() * 100.0
        );
    }

    // Append to the trajectory. A missing file starts a fresh history; a
    // malformed one is an error (never silently overwrite the record).
    let mut entries = match std::fs::read_to_string(&path) {
        Ok(text) => match read_trajectory(&text) {
            Ok(entries) => entries,
            Err(msg) => {
                eprintln!("vmsim perf: {path}: {msg}");
                return ExitCode::from(2);
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            eprintln!("vmsim perf: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    entries.push(entry_json(&cells, &kernels, stamp));
    match std::fs::write(&path, render_trajectory(&entries)) {
        Ok(()) => {
            eprintln!("appended entry {} to {path}", entries.len() - 1);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vmsim perf: cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmsim_obs::Profiler;

    fn fake_cell(benchmark: &'static str, allocator: &'static str, cycles: u64) -> PerfCell {
        let mut prof = Profiler::new();
        prof.add_cycles(Phase::MemoProbe, cycles / 2);
        prof.add_cycles(Phase::GuestWalk, cycles - cycles / 2);
        PerfCell {
            benchmark,
            allocator,
            cycles,
            tlb_lookups: 20_000,
            tlb_misses: 1_000,
            memo: MemoStats {
                hits: 17_000,
                fills: 80_000,
                naive_walks: 80_000,
                ..MemoStats::default()
            },
            wall_ms: 50.0,
            profile: prof.finish(1_000_000),
        }
    }

    fn fake_entry(cycles: u64, stamp: u64) -> String {
        let cells = [
            fake_cell("gcc", "default", cycles),
            fake_cell("mcf", "default", 2_000),
        ];
        let kernels = [Kernel {
            name: "full_walk_cold",
            ns_per_op: 300.0,
        }];
        entry_json(&cells, &kernels, stamp)
    }

    #[test]
    fn kernel_journal_line_is_a_traced_journal_entry() {
        let rendered = trace::to_jsonl(&kernel_events());
        let line = journal_entry_line(&rendered);
        let doc = json::parse(&line).expect("parses");
        let events = doc
            .get("events")
            .and_then(json::Json::as_str)
            .expect("events");
        assert!(events.len() >= 1 << 20 && events.lines().count() > 10_000);
        assert_eq!(events, rendered);
        assert_eq!(
            doc.get("crc").and_then(json::Json::as_str).map(str::len),
            Some(16)
        );
    }

    #[test]
    fn entry_round_trips_through_the_trajectory_renderer() {
        let entries = vec![fake_entry(1000, 1), fake_entry(1010, 2)];
        let text = render_trajectory(&entries);
        let doc = json::parse(&text).expect("trajectory parses");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some(TRAJECTORY_SCHEMA)
        );
        let recovered = read_trajectory(&text).expect("entries recovered");
        assert_eq!(recovered, entries, "byte-for-byte entry preservation");
        let entry = json::parse(&entries[0]).expect("entry parses");
        assert_eq!(
            entry.get("cells").and_then(|c| c.as_arr()).map(<[_]>::len),
            Some(2)
        );
        let cell = &entry.get("cells").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            cell.get("profile_cycles")
                .and_then(|p| p.get("memo_probe"))
                .and_then(json::Json::as_u64),
            Some(500)
        );
    }

    #[test]
    fn check_passes_within_five_percent_and_fails_beyond() {
        // 1000 -> 1050 is exactly the limit (ok); 1000 -> 1051 regresses.
        let ok = vec![fake_entry(1000, 1), fake_entry(1050, 2)];
        assert_eq!(check_entries(&ok).expect("comparable"), 0);
        let bad = vec![fake_entry(1000, 1), fake_entry(1051, 2)];
        assert_eq!(check_entries(&bad).expect("comparable"), 1, "gcc cell only");
        let single = vec![fake_entry(1000, 1)];
        assert!(check_entries(&single).is_err(), "one entry is not a trend");
    }

    #[test]
    fn malformed_trajectories_are_rejected_with_diagnostics() {
        assert!(read_trajectory("not json at all").is_err());
        assert!(read_trajectory("{\"schema\": \"other\", \"entries\": []}").is_err());
        assert!(read_trajectory("{\"entries\": []}").is_err());
        // Parseable but entries not one-per-line: the count cross-check
        // catches it.
        let squashed = format!(
            "{{\"schema\": \"{TRAJECTORY_SCHEMA}\", \"entries\": [{}]}}",
            fake_entry(1000, 1)
        );
        assert!(read_trajectory(&squashed).is_err());
    }
}
