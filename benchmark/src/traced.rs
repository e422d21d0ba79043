//! Per-layer metrics: spans the benchmark records around public calls,
//! plus the phase profiler the program already has.
//!
//! Every workload first gets its reference answer from outside: the CLI
//! (batch workloads, which are then also served once cold and resubmitted
//! as cache hits) or a full serve session (`serve`). Then, until
//! `--seconds` have passed, it repeats two in-process passes over the same
//! manifest. The plain pass mirrors `vmsim run` with the profiler off
//! (parse and validate, `Journal::create`, `run_supervised`,
//! `results_json`, `artifacts::write_all`) and re-times the JSON parse
//! over every emitted document. The profiled pass repeats the run with
//! `obs.profile` on and supplies the phase rows; its wall against the
//! plain pass's is the profiler's overhead. The allocation microbenchmark
//! has no profiler hook, so its profiled pass replays the same first-touch
//! loop on the public `Machine` API with a profiler installed, and checks
//! the cycles against the driver's answer. Every pass's results must equal
//! the reference byte for byte.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use vmsim_config::{ExperimentManifest, ExperimentSpec};
use vmsim_obs::json::{self, Json};
use vmsim_obs::{Phase, PhaseProfile, Profiler, PHASE_COUNT};
use vmsim_os::{Machine, MachineConfig};
use vmsim_sim::{artifacts, run_supervised, AllocatorKind, Journal, Progress, Supervisor};
use vmsim_types::{GuestVirtAddr, PAGE_SIZE};

use crate::serve::{self, Reply, Server};
use crate::stats;
use crate::timed::{self, write_manifest};
use crate::workloads::{self, Model, Workload};
use crate::{Ctx, Measured, Tally};

/// Cache hits sent after the cold submission of a batch workload's job.
const SERVED_HITS: usize = 10;

/// Manifest parses timed per pass (one parse is microseconds).
const PARSES: u32 = 200;

pub fn run(ctx: &Ctx, w: Workload, tally: &mut Tally) -> Result<Vec<Measured>, String> {
    let (job, reference, cold, hits) = match w {
        Workload::Serve => {
            let session = timed::serve_session(ctx, tally)?;
            let (mut cold, mut hits) = (Vec::new(), Vec::new());
            for s in session.rounds.into_iter().flat_map(|r| r.samples) {
                if let Ok(r) = s.reply {
                    match s.hit_of {
                        Some(_) => hits.push(r),
                        None => cold.push(r),
                    }
                }
            }
            let job = workloads::ServeStream::new(ctx.seed).pool(0);
            (job, session.first_answer, cold, hits)
        }
        _ => {
            let job = workloads::job(w, ctx.seed);
            let (reference, cold, hits) = reference_and_served(ctx, &job, tally)?;
            (job, reference, vec![cold], hits)
        }
    };
    let model = workloads::check_results(w, &reference, tally);

    let mut reps = Vec::new();
    let t0 = Instant::now();
    loop {
        let started = Instant::now();
        let plain = plain_pass(ctx, &job, &reference, tally)?;
        let profiled = profiled_pass(ctx, &job, &reference, tally)?;
        reps.push((plain, profiled));
        if t0.elapsed() + started.elapsed() > ctx.seconds {
            break;
        }
    }
    Ok(assemble(&reps, &model, &reference, &cold, &hits))
}

/// The CLI's answer for `job`, then the same job served once cold and
/// [`SERVED_HITS`] times from the cache, each checked against it.
fn reference_and_served(
    ctx: &Ctx,
    job: &ExperimentManifest,
    tally: &mut Tally,
) -> Result<(String, Reply, Vec<Reply>), String> {
    let path = write_manifest(ctx, "job.json", job)?;
    let out = ctx.dir.join("out");
    let u = timed::cli(ctx, &path, &out)?;
    tally.check(u.exit == Some(0), "run exits 0");
    let reference = std::fs::read_to_string(out.join(format!("{}.json", job.name)))
        .map_err(|e| format!("CLI results: {e}"))?;

    let (server, _) = Server::start(&ctx.vmsim, &ctx.dir.join("serve"))?;
    let cold = serve::submit(&server.addr, job)?;
    let hits = (0..SERVED_HITS)
        .map(|_| serve::submit(&server.addr, job))
        .collect::<Result<Vec<_>, _>>()?;
    server.stop()?;
    tally.check(
        !cold.cached && cold.exit == Some(0),
        "served job executes and exits 0",
    );
    tally.check(
        std::fs::read_to_string(&cold.results).is_ok_and(|t| t == reference),
        "served results equal the CLI's",
    );
    for hit in &hits {
        tally.check(
            hit.cached && hit.results == cold.results,
            "resubmissions hit the cache",
        );
    }
    Ok((reference, cold, hits))
}

/// Numbers from one plain (unprofiled) pass.
struct Plain {
    parse_us: f64,
    run_ms: f64,
    cpu_ms: f64,
    results_json_ms: f64,
    write_ms: f64,
    artifact_bytes: u64,
    journal_bytes: u64,
    parse_ms: f64,
    parse_ns_per_byte: f64,
    trace_events: u64,
    series_samples: u64,
    ops: u64,
    faults: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn fresh_dir(ctx: &Ctx, name: &str) -> Result<std::path::PathBuf, String> {
    let dir = ctx.dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn journal_for(dir: &Path, m: &ExperimentManifest) -> Result<Option<Journal>, String> {
    match m.experiment {
        ExperimentSpec::Matrix(_) => {
            Journal::create(&dir.join(format!("{}.journal.jsonl", m.name)), m)
                .map(Some)
                .map_err(|e| format!("journal: {e}"))
        }
        _ => Ok(None),
    }
}

fn plain_pass(
    ctx: &Ctx,
    job: &ExperimentManifest,
    reference: &str,
    tally: &mut Tally,
) -> Result<Plain, String> {
    let text = job.to_json();
    let t = Instant::now();
    for _ in 0..PARSES {
        let m = ExperimentManifest::from_json(black_box(&text)).map_err(|e| e.to_string())?;
        m.validate().map_err(|e| e.to_string())?;
        black_box(m);
    }
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(PARSES);

    let dir = fresh_dir(ctx, "pass")?;
    let journal = journal_for(&dir, job)?;
    let sup = Supervisor {
        journal: journal.as_ref(),
        ..Supervisor::default()
    };
    let cpu0 = crate::procs::self_cpu();
    let t = Instant::now();
    let run = run_supervised(job, &sup).map_err(|e| e.to_string())?;
    let run_ms = ms(t.elapsed());
    let cpu_ms = ms(crate::procs::self_cpu().saturating_sub(cpu0));

    let t = Instant::now();
    let results = run.results_json();
    let results_json_ms = ms(t.elapsed());
    tally.check(results == reference, "in-process results equal the CLI's");

    let t = Instant::now();
    let set = artifacts::write_all(&run, &dir, 0.0, &mut |_| {});
    let write_ms = ms(t.elapsed());
    tally.check(set.failures == 0, "every artifact writes and re-parses");
    tally.check(
        journal.as_ref().and_then(Journal::io_error).is_none(),
        "the journal writes",
    );

    let (mut artifact_bytes, mut journal_bytes) = (0, 0);
    for entry in std::fs::read_dir(&dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let len = entry.metadata().map_err(|e| e.to_string())?.len();
        if entry
            .file_name()
            .to_string_lossy()
            .ends_with(".journal.jsonl")
        {
            journal_bytes += len;
        } else {
            artifact_bytes += len;
        }
    }

    // Re-time the parse of every document `write_all` parses: the results
    // JSON and, with observability on, each trace line and each series.
    let mut docs = vec![results];
    let mut lines = String::new();
    let (mut trace_events, mut series_samples) = (0, 0);
    if job.obs.is_enabled() {
        for cell in &run.cells {
            if let Some(observed) = cell.observed() {
                lines.push_str(&observed.events_jsonl());
                docs.push(observed.series.to_json());
                series_samples += observed.series.len() as u64;
            }
        }
    }
    let mut parse = Duration::ZERO;
    let mut parse_ns_per_byte = 0.0;
    let mut largest = 0;
    for doc in &docs {
        let t = Instant::now();
        let ok = json::parse(black_box(doc)).is_ok();
        let took = t.elapsed();
        tally.check(ok, "emitted JSON re-parses");
        parse += took;
        if doc.len() > largest {
            largest = doc.len();
            parse_ns_per_byte = took.as_nanos() as f64 / doc.len() as f64;
        }
    }
    let t = Instant::now();
    for line in lines.lines() {
        trace_events += 1;
        if json::parse(black_box(line)).is_err() {
            tally.check(false, "trace line re-parses");
        }
    }
    parse += t.elapsed();

    let (ops, faults) = match job.experiment {
        ExperimentSpec::AllocLatency { pages } => (2 * pages, 2 * pages),
        _ => run
            .cells
            .iter()
            .filter_map(|c| c.metrics())
            .fold((0, 0), |(o, f), m| (o + m.measure_ops, f + m.total_faults)),
    };
    Ok(Plain {
        parse_us,
        run_ms,
        cpu_ms,
        results_json_ms,
        write_ms,
        artifact_bytes,
        journal_bytes,
        parse_ms: ms(parse),
        parse_ns_per_byte,
        trace_events,
        series_samples,
        ops,
        faults,
    })
}

/// Numbers from one profiled pass: per-phase wall summed over cells (so
/// thread time when cells run in parallel), and the translation counters
/// the in-process run exposes.
struct Profiled {
    wall_ms: f64,
    phase_ms: [f64; PHASE_COUNT],
    unattributed_ms: f64,
    memo_hits: u64,
    memo_misses: u64,
    /// Only for the allocation microbenchmark, whose results JSON carries
    /// no per-run counters: the replay's own model numbers.
    replay: Option<Model>,
}

impl Profiled {
    fn add(&mut self, profile: &PhaseProfile) {
        for (acc, p) in self.phase_ms.iter_mut().zip(&profile.phases) {
            *acc += p.wall_ns as f64 / 1e6;
        }
        self.unattributed_ms += profile.unattributed_wall_ns() as f64 / 1e6;
    }
}

fn profiled_pass(
    ctx: &Ctx,
    job: &ExperimentManifest,
    reference: &str,
    tally: &mut Tally,
) -> Result<Profiled, String> {
    let mut out = Profiled {
        wall_ms: 0.0,
        phase_ms: [0.0; PHASE_COUNT],
        unattributed_ms: 0.0,
        memo_hits: 0,
        memo_misses: 0,
        replay: None,
    };
    if let ExperimentSpec::AllocLatency { pages } = job.experiment {
        replay_first_touch(pages, reference, &mut out, tally)?;
        return Ok(out);
    }
    let mut m = job.clone();
    m.obs.profile = true;
    let dir = fresh_dir(ctx, "pass-profiled")?;
    let journal = journal_for(&dir, &m)?;
    // A heartbeat interval no run reaches: one terminal pulse per cell,
    // carrying the cell's memo counters.
    let progress_path = dir.join("progress.jsonl");
    let progress = Progress::create(&progress_path, &m, u64::MAX).map_err(|e| e.to_string())?;
    let sup = Supervisor {
        journal: journal.as_ref(),
        progress: Some(&progress),
        ..Supervisor::default()
    };
    let t = Instant::now();
    let run = run_supervised(&m, &sup).map_err(|e| e.to_string())?;
    out.wall_ms = ms(t.elapsed());
    tally.check(
        run.results_json() == reference,
        "profiled results equal the unprofiled ones",
    );
    for cell in &run.cells {
        match cell.observed().and_then(|o| o.profile.as_ref()) {
            Some(profile) => out.add(profile),
            None => {
                tally.check(false, "every profiled cell has a profile");
            }
        }
    }
    let stream = std::fs::read_to_string(&progress_path).map_err(|e| e.to_string())?;
    for line in stream.lines().skip(1) {
        let doc = json::parse(line).map_err(|e| format!("progress line: {e}"))?;
        if let (Some(hits), Some(misses)) = (
            doc.get("memo_hits").and_then(Json::as_u64),
            doc.get("memo_misses").and_then(Json::as_u64),
        ) {
            out.memo_hits += hits;
            out.memo_misses += misses;
        }
    }
    Ok(out)
}

/// What one replayed first-touch run measured.
struct Replayed {
    cycles: u64,
    profile: PhaseProfile,
    host_frag: f64,
    tlb_lookups: u64,
    tlb_misses: u64,
    data_accesses: u64,
    data_misses: u64,
    memo_hits: u64,
    memo_misses: u64,
}

/// The §6.4 loop of `vmsim_sim::experiments::sec64` on the public machine
/// API, with a profiler installed around the touches.
fn replay_one(kind: AllocatorKind, pages: u64) -> Result<Replayed, String> {
    let guest_mb = (pages * 8 / 256).max(64);
    let mut m = Machine::with_allocator(MachineConfig::paper(1, guest_mb), kind.build());
    let pid = m.guest_mut().spawn();
    let base = m.guest_mut().mmap(pid, pages).map_err(|e| e.to_string())?;
    m.install_profiler(Profiler::new());
    let t = Instant::now();
    m.prof_enter(Phase::Workload);
    let mut cycles = 0u64;
    for i in 0..pages {
        let va = GuestVirtAddr::new(base.raw() + i * PAGE_SIZE);
        cycles += m.touch(0, pid, va, true).map_err(|e| e.to_string())?.cycles;
    }
    m.prof_exit();
    let profile = m
        .take_profiler()
        .expect("installed above")
        .finish(t.elapsed().as_nanos() as u64);
    let host_frag = m
        .host_pt_fragmentation(pid)
        .map_err(|e| e.to_string())?
        .mean();
    let data = m.caches().core_counters(0).data;
    let memo = m.memo_stats();
    Ok(Replayed {
        cycles,
        profile,
        host_frag,
        tlb_lookups: m.tlb(0).lookups(),
        tlb_misses: m.tlb(0).misses(),
        data_accesses: data.accesses,
        data_misses: data.memory,
        memo_hits: memo.hits + memo.streak_hits,
        memo_misses: memo.naive_walks,
    })
}

fn replay_first_touch(
    pages: u64,
    reference: &str,
    out: &mut Profiled,
    tally: &mut Tally,
) -> Result<(), String> {
    let t = Instant::now();
    let (default, ptemagnet) = std::thread::scope(|s| {
        let d = s.spawn(|| replay_one(AllocatorKind::Default, pages));
        let p = replay_one(AllocatorKind::PteMagnet, pages);
        (d.join().expect("replay thread"), p)
    });
    out.wall_ms = ms(t.elapsed());
    let (default, ptemagnet) = (default?, ptemagnet?);
    let expected = json::parse(reference)
        .ok()
        .and_then(|d| workloads::alloc_latency(&d));
    tally.check(
        expected == Some((pages, default.cycles, ptemagnet.cycles)),
        "replayed first-touch cycles equal the driver's",
    );
    for r in [&default, &ptemagnet] {
        out.add(&r.profile);
        out.memo_hits += r.memo_hits;
        out.memo_misses += r.memo_misses;
    }
    let both = |f: fn(&Replayed) -> u64| f(&default) + f(&ptemagnet);
    out.replay = Some(Model {
        gain_pct: 0.0, // taken from the results JSON
        host_frag_default: default.host_frag,
        host_frag_ptemagnet: ptemagnet.host_frag,
        tlb_lookups: both(|r| r.tlb_lookups),
        tlb_misses: both(|r| r.tlb_misses),
        data_accesses: both(|r| r.data_accesses),
        data_misses: both(|r| r.data_misses),
    });
    Ok(())
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn assemble(
    reps: &[(Plain, Profiled)],
    results_model: &Model,
    reference: &str,
    cold: &[Reply],
    hits: &[Reply],
) -> Vec<Measured> {
    let med = |name: &'static str, f: &dyn Fn(&Plain, &Profiled) -> f64| {
        let xs: Vec<f64> = reps.iter().map(|(a, b)| f(a, b)).collect();
        Measured::median(name, &xs)
    };
    let (last, last_profiled) = reps.last().expect("at least one pass");
    let phase = |p: Phase| move |_: &Plain, q: &Profiled| q.phase_ms[p as usize];

    // Deterministic model numbers: from the results JSON, or, for the
    // allocation microbenchmark, its replay.
    let model = match &last_profiled.replay {
        Some(replay) => Model {
            gain_pct: results_model.gain_pct,
            ..*replay
        },
        None => *results_model,
    };
    let exact = |name: &'static str, value: f64| Measured::new(name, value, "deterministic");
    let count = |name: &'static str, value: u64| Measured::new(name, value as f64, "count");

    let ms_of = |rs: &[Reply], f: fn(&Reply) -> Duration| -> Vec<f64> {
        rs.iter().map(|r| ms(f(r))).collect()
    };
    let tail = |name: &'static str, xs: &[f64]| match stats::tail(xs) {
        Some((pct, v)) => Measured::new(name, v, format!("p{pct:.1} of {}", xs.len())),
        None => Measured::new(name, f64::NAN, "no samples"),
    };
    let cold_done = ms_of(cold, |r| r.done);
    let hit_done = ms_of(hits, |r| r.done);

    vec![
        med("config.parse_us", &|a, _| a.parse_us),
        med("sim.run_ms", &|a, _| a.run_ms),
        med("sim.cpu_ms", &|a, _| a.cpu_ms),
        med("sim.ns_per_op", &|a, _| {
            a.run_ms * 1e6 / a.ops.max(1) as f64
        }),
        med("os.ns_per_fault", &|a, _| {
            a.run_ms * 1e6 / a.faults.max(1) as f64
        }),
        med("report.results_json_ms", &|a, _| a.results_json_ms),
        med("artifacts.write_ms", &|a, _| a.write_ms),
        count("artifacts.bytes", last.artifact_bytes),
        count("journal.bytes", last.journal_bytes),
        med("obs.json_parse_ms", &|a, _| a.parse_ms),
        med("obs.json_parse_ns_per_byte", &|a, _| a.parse_ns_per_byte),
        count("obs.trace_events", last.trace_events),
        count("obs.series_samples", last.series_samples),
        med("cache.tlb_ms", &phase(Phase::TlbLookup)),
        med("cache.pwc_ms", &phase(Phase::Pwc)),
        med("cache.fill_ms", &phase(Phase::Fill)),
        med("pt.guest_walk_ms", &phase(Phase::GuestWalk)),
        med("pt.host_walk_ms", &phase(Phase::HostWalk)),
        med("os.memo_probe_ms", &phase(Phase::MemoProbe)),
        med("core.alloc_ms", &phase(Phase::Alloc)),
        med("engine.loop_ms", &|_, q| {
            q.phase_ms[Phase::Workload as usize] + q.phase_ms[Phase::Sample as usize]
        }),
        med("prof.unattributed_ms", &|_, q| q.unattributed_ms),
        med("prof.overhead_pct", &|a, q| {
            100.0 * (q.wall_ms / a.run_ms - 1.0)
        }),
        exact(
            "cache.tlb_miss_ratio",
            ratio(model.tlb_misses, model.tlb_lookups),
        ),
        exact(
            "cache.data_miss_ratio",
            ratio(model.data_misses, model.data_accesses),
        ),
        exact(
            "os.memo_hit_ratio",
            ratio(
                last_profiled.memo_hits,
                last_profiled.memo_hits + last_profiled.memo_misses,
            ),
        ),
        exact("model.ptemagnet_gain_pct", model.gain_pct),
        exact("model.host_frag_default", model.host_frag_default),
        exact("model.host_frag_ptemagnet", model.host_frag_ptemagnet),
        exact("model.digest", workloads::digest(reference) as f64),
        Measured::median("serve.admit_ms_p50", &ms_of(cold, |r| r.first)),
        Measured::median(
            "serve.exec_ms_p50",
            &cold
                .iter()
                .map(|r| ms(r.done - r.first))
                .collect::<Vec<_>>(),
        ),
        Measured::median("serve.hit_ms_p50", &hit_done),
        tail("serve.cold_ms_tail", &cold_done),
        tail("serve.hit_ms_tail", &hit_done),
        count(
            "serve.queue_pos_max",
            cold.iter().filter_map(|r| r.position).max().unwrap_or(0),
        ),
    ]
}
