//! The manifest execution engine: runs an [`ExperimentManifest`] on the
//! worker pool under panic supervision. A matrix run's result is its cells;
//! [`crate::report::render`] writes its report from them.
//!
//! This is the single path every experiment takes: `vmsim run`, `vmsim
//! serve` and the library entry points [`run_manifest`] /
//! [`run_supervised`] all hand a manifest here. A matrix manifest expands
//! to one job per (workload, policy, seed) cell, in workload-major order
//! (`index = (w·P + p)·S + s`); jobs run on the deterministic pool
//! ([`crate::parallel`]) and come back in job order, so a run is
//! bit-identical at any worker count and to the same cells run serially.
//! The two special kinds run here: [`sec64`] (the §6.4 allocation-latency
//! microbenchmark, a first-touch loop on a bare machine) and
//! [`walk_breakdown`] (two [`Scenario`] runs whose primary core's
//! per-level counters are the result; the objdet co-runner is seeded
//! `seed·31 + 1`, the scenario rule).
//!
//! Each cell runs inside its own `catch_unwind`: a panicking or resource-
//! exhausted cell is **quarantined** — recorded as a [`CellRun`] carrying
//! its typed [`RunError`] — while every other cell completes bit-identical
//! to an unfailed run at any `VMSIM_THREADS`. The manifest's optional
//! `supervisor` block adds deterministic bounded retry (the seed for
//! attempt *a* is a pure function of manifest hash, cell index, and
//! attempt — no wall clock) and per-cell budgets
//! ([`crate::scenario::CellBudget`]). Completed cells stream into an
//! optional [`Journal`] so a killed run can be resumed with
//! `vmsim run --resume`.
//!
//! Policy names resolve through `ptemagnet::registry`; allocator labels in
//! the resulting [`RunMetrics`] come from the allocator itself
//! ([`vmsim_os::GuestFrameAllocator::name`]), which the registry guarantees
//! to match the catalog names of `AllocatorKind`.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use ptemagnet::UnknownPolicy;
use vmsim_cache::MemCounters;
use vmsim_config::{
    ChaosPlan, ExperimentManifest, ExperimentSpec, ManifestError, MatrixSpec, PolicySpec,
    SimConfig, SupervisorSpec, WorkloadSpec,
};
use vmsim_obs::{json, Event, EventKind, Metric, MetricSource};
use vmsim_os::{GuestOs, Machine, MachineConfig, ShapeError};
use vmsim_types::{GuestVirtAddr, MemError, RunError, PAGE_SIZE};
use vmsim_workloads::{BenchId, CoId};

use crate::fleet;
use crate::journal::{self, Journal, JournalEntry};
use crate::obs::{ObsConfig, ObservedRun};
use crate::parallel::{self, Parallelism};
use crate::progress::Progress;
use crate::report::{self, AllocLatency};
use crate::scenario::{AllocatorKind, CellBudget, RunMetrics, Scenario};

/// Why a manifest could not be executed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriverError {
    /// The manifest is structurally or semantically invalid.
    Manifest(ManifestError),
    /// A policy name does not resolve in the registry.
    Policy(UnknownPolicy),
}

impl core::fmt::Display for DriverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Manifest(e) => write!(f, "{e}"),
            Self::Policy(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<ManifestError> for DriverError {
    fn from(e: ManifestError) -> Self {
        Self::Manifest(e)
    }
}

impl From<UnknownPolicy> for DriverError {
    fn from(e: UnknownPolicy) -> Self {
        Self::Policy(e)
    }
}

/// What a manifest run holds besides its matrix cells.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A matrix run: its result is [`ManifestRun::cells`], and
    /// [`report::render`] writes its report from their metrics.
    Matrix,
    /// §6.4 allocation-latency microbenchmark.
    AllocLatency(AllocLatency),
    /// §1/§3.2 walk-source breakdown.
    Breakdown(Vec<(String, MemCounters)>),
}

/// A matrix cell executed in this process: its observed run plus its
/// trace and series artifact text, rendered once in the pool worker. The
/// journal entry and the artifact writer both use that one text.
#[derive(Debug)]
pub struct FreshCell {
    /// The full observability payload.
    pub(crate) run: ObservedRun,
    /// The trace artifact text (empty when tracing was off).
    pub(crate) events_jsonl: String,
    /// The epoch-series CSV artifact text.
    pub(crate) series_csv: String,
}

impl FreshCell {
    /// Renders `run`'s artifact text.
    #[must_use]
    pub fn new(run: ObservedRun) -> FreshCell {
        FreshCell {
            events_jsonl: run.events_jsonl(),
            series_csv: run.series.to_csv(),
            run,
        }
    }
}

/// The payload of a completed matrix cell: a freshly executed run or one
/// replayed from a [`Journal`].
#[derive(Debug)]
pub enum CellData {
    /// Executed in this process; full observability payload available.
    Fresh(Box<FreshCell>),
    /// Replayed from a journal: metrics plus the original artifact text.
    Resumed(Box<JournalEntry>),
}

impl CellData {
    /// The cell's end-of-run aggregates.
    #[must_use]
    pub fn metrics(&self) -> &RunMetrics {
        match self {
            CellData::Fresh(cell) => &cell.run.metrics,
            CellData::Resumed(entry) => &entry.metrics,
        }
    }
}

/// One supervised matrix cell: either completed data or the typed error
/// that quarantined it after every allowed attempt.
#[derive(Debug)]
pub struct CellRun {
    /// Matrix index (`(w·P + p)·S + s`).
    pub index: usize,
    /// Attempts consumed (1 = first try succeeded; for a quarantined cell
    /// this is the full retry allowance).
    pub attempts: u32,
    /// Whether the cell was replayed from a journal instead of executed.
    pub resumed: bool,
    /// The completed run, or the error from the final attempt.
    pub data: Result<CellData, RunError>,
}

impl CellRun {
    /// The cell's metrics, if it completed.
    #[must_use]
    pub fn metrics(&self) -> Option<&RunMetrics> {
        self.data.as_ref().ok().map(CellData::metrics)
    }

    /// The freshly executed run, if the cell ran in this process.
    #[must_use]
    pub fn observed(&self) -> Option<&ObservedRun> {
        match &self.data {
            Ok(CellData::Fresh(cell)) => Some(&cell.run),
            _ => None,
        }
    }

    /// The quarantining error, if the cell failed.
    #[must_use]
    pub fn error(&self) -> Option<&RunError> {
        self.data.as_ref().err()
    }

    /// Whether a budget truncated the cell's measured phase.
    #[must_use]
    pub fn truncated(&self) -> bool {
        match &self.data {
            Ok(CellData::Fresh(cell)) => cell.run.truncated,
            Ok(CellData::Resumed(entry)) => entry.truncated,
            Err(_) => false,
        }
    }

    /// The cell's trace artifact text, if it completed (empty string when
    /// tracing was off).
    #[must_use]
    pub fn events_jsonl(&self) -> Option<&str> {
        match &self.data {
            Ok(CellData::Fresh(cell)) => Some(&cell.events_jsonl),
            Ok(CellData::Resumed(entry)) => Some(&entry.events_jsonl),
            Err(_) => None,
        }
    }

    /// The cell's epoch-series CSV artifact text, if it completed.
    #[must_use]
    pub fn series_csv(&self) -> Option<&str> {
        match &self.data {
            Ok(CellData::Fresh(cell)) => Some(&cell.series_csv),
            Ok(CellData::Resumed(entry)) => Some(&entry.series_csv),
            Err(_) => None,
        }
    }
}

/// What the supervisor did across a whole manifest run. Registers as the
/// `supervisor.*` gauge group ([`MetricSource`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Supervision {
    /// Cells that failed every allowed attempt.
    pub quarantined: u64,
    /// Total retry attempts across all cells (recovered or not).
    pub retried: u64,
    /// Cells whose measured phase a budget stopped early.
    pub truncated: u64,
    /// Cells replayed from a journal instead of executed.
    pub resumed: u64,
}

impl Supervision {
    /// True when nothing degraded the run. Resumption is deliberately not
    /// counted: a resumed run's outputs are byte-identical to a clean one,
    /// so nothing in the artifacts may depend on it.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.quarantined == 0 && self.retried == 0 && self.truncated == 0
    }
}

impl MetricSource for Supervision {
    fn source_name(&self) -> &'static str {
        "supervisor"
    }

    fn emit(&self, out: &mut Vec<Metric>) {
        out.push(Metric::u64("quarantined", self.quarantined));
        out.push(Metric::u64("retried", self.retried));
        out.push(Metric::u64("truncated", self.truncated));
        out.push(Metric::u64("resumed", self.resumed));
    }
}

/// Supervised-execution inputs beyond the manifest itself.
#[derive(Default)]
pub struct Supervisor<'a> {
    /// Journal to replay completed cells from and append new ones to.
    pub journal: Option<&'a Journal>,
    /// Deterministic failure drill (`VMSIM_CHAOS_CELL`): panic the given
    /// cell on its first `fail_attempts` attempts (every attempt if
    /// unbounded).
    pub chaos: Option<ChaosPlan>,
    /// Heartbeat stream to pulse while cells execute (`--progress`).
    /// Telemetry only: attaching one leaves every result byte-identical.
    pub progress: Option<&'a Progress>,
}

/// A fully executed manifest: the input, every supervised cell (matrix
/// kinds), the supervisor's tally, and the special kinds' payload.
#[derive(Debug)]
pub struct ManifestRun {
    /// The manifest that was executed (after any environment override).
    pub manifest: ExperimentManifest,
    /// Every matrix cell in run order (empty for the special kinds).
    pub cells: Vec<CellRun>,
    /// Quarantine/retry/truncation/resume counters for the whole run.
    pub supervision: Supervision,
    /// Supervisor trace events (`cell_quarantined`, `cell_retried`,
    /// `run_resumed`), deterministic in cell-index order.
    pub supervisor_events: Vec<Event>,
    /// The special kinds' payload, or the matrix marker.
    pub outcome: Outcome,
}

/// Builds the [`Scenario`] for one (workload, policy, seed) cell of a
/// manifest, with the allocator resolved through the registry.
///
/// # Errors
///
/// Returns [`DriverError`] for unknown benchmark/co-runner/policy names.
pub fn build_scenario(
    manifest: &ExperimentManifest,
    workload: &WorkloadSpec,
    policy: &PolicySpec,
    seed: u64,
) -> Result<Scenario, DriverError> {
    let bench = workload.bench_id()?;
    let corunners = workload.co_ids()?;
    let mut scenario = Scenario::new(bench)
        .corunners(&corunners)
        .corunner_weight(workload.corunner_weight)
        .threads(workload.threads)
        .stop_corunners_after_init(workload.stop_corunners_after_init)
        .policy(policy.name())?
        .measure_ops(manifest.measure_ops)
        .seed(seed);
    if let Some(run) = workload.prefragment_run {
        scenario = scenario.prefragment_run(run);
    }
    // A workload's plan replaces the manifest-level plan wholesale (no
    // field-wise overlay — a fault plan is one coherent condition).
    if let Some(plan) = workload.faults.or(manifest.faults) {
        scenario = scenario.faults(plan);
    }
    let sim = manifest
        .sim
        .unwrap_or_default()
        .overlaid(&workload.sim.unwrap_or_default());
    if !sim.is_vanilla() {
        scenario = scenario.machine(sim.to_machine_config(1 + corunners.len()));
    }
    // Like fault plans, a workload's vms section replaces the manifest-level
    // one wholesale (a tenancy shape is one coherent condition).
    if let Some(spec) = workload.vms.or(manifest.vms) {
        scenario = scenario.vms(spec);
    }
    Ok(scenario)
}

/// Checks that a manifest can run, before anything acts on it: the shape
/// checks of [`ExperimentManifest::validate`], every matrix policy
/// resolving through the registry, and every machine a cell would build
/// passing [`MachineConfig::check`] (with each workload's
/// `prefragment_run` a length [`GuestOs::valid_run_length`] accepts).
/// `vmsim run` calls this before it opens (and truncates) the run journal,
/// and `vmsim serve` before it admits a job.
///
/// # Errors
///
/// Returns [`DriverError`] for the first invalid field or unknown policy.
pub fn preflight(manifest: &ExperimentManifest) -> Result<(), DriverError> {
    manifest.validate()?;
    match &manifest.experiment {
        ExperimentSpec::Matrix(matrix) => {
            for policy in &matrix.policies {
                ptemagnet::registry::resolve(policy.name())?;
            }
            for (i, workload) in matrix.workloads.iter().enumerate() {
                if workload
                    .prefragment_run
                    .is_some_and(|run| !GuestOs::valid_run_length(run))
                {
                    return Err(ManifestError::new(
                        format!("$.experiment.workloads[{i}].prefragment_run"),
                        "run length must be a power of two",
                    )
                    .into());
                }
                let scenario =
                    build_scenario(manifest, workload, &matrix.policies[0], manifest.seeds[0])?;
                let (config, vms) = scenario.host_shape();
                config
                    .check(vms.as_ref().map_or(1, fleet::vm_count))
                    .map_err(|e| {
                        let path = sim_path(manifest.sim.as_ref(), workload.sim.as_ref(), i, e);
                        ManifestError::new(path, e.to_string())
                    })?;
            }
        }
        ExperimentSpec::AllocLatency { pages } => {
            sec64_machine(*pages)
                .map_err(|e| ManifestError::new("$.experiment.pages", e.to_string()))?;
        }
        ExperimentSpec::WalkBreakdown => {}
    }
    Ok(())
}

/// The manifest path of the `sim` knob behind a machine of workload `i`
/// that breaks `rule`: the workload's own `sim` override, else the
/// manifest-wide `sim` value, else (the knob is at its default) the
/// workload itself.
fn sim_path(
    manifest_sim: Option<&SimConfig>,
    workload_sim: Option<&SimConfig>,
    i: usize,
    rule: ShapeError,
) -> String {
    let (knob, set): (&str, fn(&SimConfig) -> bool) = match rule {
        ShapeError::Cores(_) => ("cores", |s| s.cores.is_some()),
        ShapeError::Cache(_) => ("llc_mb", |s| s.llc_mb.is_some()),
        ShapeError::Tlb => ("stlb_entries", |s| s.stlb_entries.is_some()),
        ShapeError::WalkCaches => ("nested_tlb_entries", |s| s.nested_tlb_entries.is_some()),
        ShapeError::NoFrames | ShapeError::Memory(_) => ("guest_mb", |s| s.guest_mb.is_some()),
    };
    let workload = format!("$.experiment.workloads[{i}]");
    if workload_sim.is_some_and(set) {
        format!("{workload}.sim.{knob}")
    } else if manifest_sim.is_some_and(set) {
        format!("$.sim.{knob}")
    } else {
        workload
    }
}

/// Validates and executes a manifest with no journal and no chaos drill.
/// Equivalent to [`run_supervised`] with a default [`Supervisor`].
///
/// # Errors
///
/// Returns [`DriverError`] if the manifest fails validation or a policy
/// does not resolve. Matrix cells never panic out of this function: a
/// failing cell is quarantined into its [`CellRun`] and counted in
/// [`Supervision::quarantined`].
///
/// # Panics
///
/// The special kinds (alloc-latency, walk-breakdown) still panic on
/// simulation resource exhaustion: they run outside the supervised cell loop.
pub fn run_manifest(manifest: &ExperimentManifest) -> Result<ManifestRun, DriverError> {
    run_supervised(manifest, &Supervisor::default())
}

/// Validates and executes a manifest under full supervision: per-cell
/// panic isolation, deterministic bounded retry, budgets, and optional
/// journal replay/append.
///
/// # Errors
///
/// Returns [`DriverError`] if the manifest fails validation or a policy
/// does not resolve.
///
/// # Panics
///
/// The special kinds (alloc-latency, walk-breakdown) still panic on
/// simulation resource exhaustion: they run outside the supervised cell loop.
pub fn run_supervised(
    manifest: &ExperimentManifest,
    sup: &Supervisor<'_>,
) -> Result<ManifestRun, DriverError> {
    // Name errors surface before any simulation work, so the pool closure
    // cannot fail on names.
    preflight(manifest)?;
    match &manifest.experiment {
        ExperimentSpec::AllocLatency { pages } => Ok(ManifestRun {
            manifest: manifest.clone(),
            cells: Vec::new(),
            supervision: Supervision::default(),
            supervisor_events: Vec::new(),
            outcome: Outcome::AllocLatency(sec64(*pages)),
        }),
        ExperimentSpec::WalkBreakdown => Ok(ManifestRun {
            manifest: manifest.clone(),
            cells: Vec::new(),
            supervision: Supervision::default(),
            supervisor_events: Vec::new(),
            outcome: Outcome::Breakdown(walk_breakdown(manifest.seeds[0], manifest.measure_ops)),
        }),
        ExperimentSpec::Matrix(matrix) => run_matrix(manifest, matrix, sup),
    }
}

fn run_matrix(
    manifest: &ExperimentManifest,
    matrix: &MatrixSpec,
    sup: &Supervisor<'_>,
) -> Result<ManifestRun, DriverError> {
    let spec = manifest.supervisor.unwrap_or_default();
    let budget = CellBudget {
        max_ops: spec.max_cell_ops,
        soft_wall: spec.soft_wall_ms.map(Duration::from_millis),
    };
    let hash = journal::manifest_hash(manifest);
    let (pn, sn) = (matrix.policies.len(), manifest.seeds.len());
    let total = matrix.workloads.len() * pn * sn;
    let raw = parallel::run_supervised(Parallelism::from_env(), total, |i| {
        run_cell(manifest, matrix, i, spec, budget, hash, sup)
    });
    // The outer supervised join is a safety net for panics escaping the
    // per-attempt `catch_unwind` inside `run_cell` (it should never fire).
    let cells: Vec<CellRun> = raw
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.unwrap_or_else(|panic| CellRun {
                index: i,
                attempts: 1,
                resumed: false,
                data: Err(RunError::MachinePanic {
                    payload: panic.payload,
                }),
            })
        })
        .collect();
    let (supervision, supervisor_events) = supervise(&cells);
    Ok(ManifestRun {
        manifest: manifest.clone(),
        cells,
        supervision,
        supervisor_events,
        outcome: Outcome::Matrix,
    })
}

/// Executes one matrix cell through its retry allowance. Every attempt is
/// individually `catch_unwind`-isolated, so neighbouring cells on the same
/// worker thread are unaffected by a panic here.
fn run_cell(
    manifest: &ExperimentManifest,
    matrix: &MatrixSpec,
    i: usize,
    spec: SupervisorSpec,
    budget: CellBudget,
    hash: u64,
    sup: &Supervisor<'_>,
) -> CellRun {
    let (pn, sn) = (matrix.policies.len(), manifest.seeds.len());
    let (s, p, w) = (i % sn, (i / sn) % pn, i / (sn * pn));
    let workload = &matrix.workloads[w];
    let policy = &matrix.policies[p];
    let base_seed = manifest.seeds[s];

    let label = workload.display_label();
    if let Some(journal) = sup.journal {
        if let Some(entry) = journal.lookup(journal::cell_key(hash, i as u64, base_seed)) {
            if let Some(progress) = sup.progress {
                progress.cell_status(
                    i as u64,
                    &label,
                    policy.name(),
                    base_seed,
                    entry.attempts,
                    "resumed",
                );
            }
            return CellRun {
                index: i,
                attempts: entry.attempts,
                resumed: true,
                data: Ok(CellData::Resumed(Box::new(entry.clone()))),
            };
        }
    }

    let faulted = workload.faults.or(manifest.faults).is_some();
    let max_attempts = spec.retries + 1;
    let mut last = None;
    for attempt in 0..max_attempts {
        let seed = retry_seed(base_seed, hash, i as u64, attempt, spec.seed_stride);
        let chaos_hit = sup
            .chaos
            .is_some_and(|c| c.cell == i && c.fail_attempts.is_none_or(|k| attempt < k));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            assert!(
                !chaos_hit,
                "chaos drill: injected panic at cell {i} (attempt {attempt})"
            );
            let scenario =
                build_scenario(manifest, workload, policy, seed).expect("manifest pre-validated");
            match sup.progress {
                Some(progress) => scenario.try_run(
                    manifest.obs,
                    budget,
                    Some((progress.heartbeat_ops(), &mut |pulse| {
                        progress.heartbeat(
                            i as u64,
                            &label,
                            policy.name(),
                            base_seed,
                            attempt + 1,
                            &pulse,
                        );
                    })),
                ),
                None => scenario.try_run(manifest.obs, budget, None),
            }
        }));
        last = Some(match outcome {
            Ok(Ok(run)) => {
                let fresh = FreshCell::new(run);
                if let Some(journal) = sup.journal {
                    journal.record(
                        i as u64,
                        &label,
                        policy.name(),
                        base_seed,
                        attempt + 1,
                        &fresh,
                    );
                }
                let cell = CellRun {
                    index: i,
                    attempts: attempt + 1,
                    resumed: false,
                    data: Ok(CellData::Fresh(Box::new(fresh))),
                };
                if let Some(progress) = sup.progress {
                    progress.cell_status(
                        i as u64,
                        &label,
                        policy.name(),
                        base_seed,
                        cell.attempts,
                        "done",
                    );
                }
                return cell;
            }
            Ok(Err(e)) => classify(e, faulted),
            Err(payload) => RunError::from_panic(payload.as_ref()),
        });
    }
    if let Some(progress) = sup.progress {
        progress.cell_status(
            i as u64,
            &label,
            policy.name(),
            base_seed,
            max_attempts,
            "quarantined",
        );
    }
    CellRun {
        index: i,
        attempts: max_attempts,
        resumed: false,
        data: Err(last.expect("at least one attempt ran")),
    }
}

/// Sharpens a generic out-of-memory failure into the fault-plan taxonomy:
/// under an active fault plan, pool exhaustion means the plan drove the
/// machine past what graceful degradation could absorb.
fn classify(e: RunError, faulted: bool) -> RunError {
    match e {
        RunError::Sim {
            error: MemError::OutOfMemory { order },
        } if faulted => RunError::FaultPlanExhausted { order },
        other => other,
    }
}

/// The seed for retry `attempt` of cell `index`: the base seed perturbed
/// by `seed_stride` times a pure mix of (manifest hash, cell index,
/// attempt). Attempt 0 — and any attempt with stride 0 — runs the
/// canonical seed, so clean runs are untouched and retry decisions never
/// consult the wall clock.
#[must_use]
pub fn retry_seed(base: u64, manifest_hash: u64, index: u64, attempt: u32, stride: u64) -> u64 {
    if attempt == 0 || stride == 0 {
        return base;
    }
    let mut x = manifest_hash ^ index.rotate_left(32) ^ u64::from(attempt);
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    base.wrapping_add(stride.wrapping_mul(x | 1))
}

/// Tallies the supervisor counters and builds the supervisor trace —
/// deterministic because it walks cells in index order after the join.
fn supervise(cells: &[CellRun]) -> (Supervision, Vec<Event>) {
    let mut sv = Supervision::default();
    let mut events = Vec::new();
    for cell in cells {
        let idx = cell.index as u64;
        if cell.resumed {
            sv.resumed += 1;
        }
        if cell.truncated() {
            sv.truncated += 1;
        }
        // Resumed cells replay their recorded attempts so a resumed run's
        // counters (and results JSON) match the uninterrupted run's.
        sv.retried += u64::from(cell.attempts.saturating_sub(1));
        for attempt in 1..cell.attempts {
            events.push(Event {
                op: idx,
                kind: EventKind::CellRetried { cell: idx, attempt },
            });
        }
        if cell.data.is_err() {
            sv.quarantined += 1;
            events.push(Event {
                op: idx,
                kind: EventKind::CellQuarantined {
                    cell: idx,
                    attempts: cell.attempts,
                },
            });
        }
    }
    if sv.resumed > 0 {
        events.insert(
            0,
            Event {
                op: 0,
                kind: EventKind::RunResumed { cells: sv.resumed },
            },
        );
    }
    (sv, events)
}

/// The §6.4 VM for an array of `pages`: room for the array plus page
/// tables (8 frames a page, at least 64 MB).
///
/// # Errors
///
/// Returns the [`MachineConfig::check`] rule that VM breaks.
fn sec64_machine(pages: u64) -> Result<MachineConfig, ShapeError> {
    let guest_mb = pages.checked_mul(8).map_or(u64::MAX, |frames| frames / 256);
    let config = MachineConfig::paper(1, guest_mb.max(64));
    config.check(1)?;
    Ok(config)
}

/// The §6.4 allocation-latency microbenchmark: allocate an array of
/// `pages` and first-touch every page once, with and without PTEMagnet.
/// (The paper uses a 60 GB array; `pages` scales it to the simulated VM.)
///
/// # Panics
///
/// Panics if `pages` is zero or its VM exceeds
/// [`MachineConfig::MAX_FRAMES`].
pub fn sec64(pages: u64) -> AllocLatency {
    assert!(pages > 0);
    let config = sec64_machine(pages).expect("array fits the simulated memory cap");
    let run = |kind: AllocatorKind| -> u64 {
        let mut m = Machine::with_allocator(config, kind.build());
        let pid = m.guest_mut().spawn();
        let base = m.guest_mut().mmap(pid, pages).expect("VM sized to fit");
        let mut cycles = 0u64;
        for i in 0..pages {
            let va = GuestVirtAddr::new(base.raw() + i * PAGE_SIZE);
            cycles += m.touch(0, pid, va, true).expect("first touch").cycles;
        }
        cycles
    };
    let kinds = [AllocatorKind::Default, AllocatorKind::PteMagnet];
    let mut cycles = parallel::run_indexed(Parallelism::from_env(), kinds.len(), |i| run(kinds[i]));
    let ptemagnet_cycles = cycles.pop().expect("two runs");
    let default_cycles = cycles.pop().expect("two runs");
    AllocLatency {
        pages,
        default_cycles,
        ptemagnet_cycles,
    }
}

/// The paper's motivating analysis (§1/§3.2): per-PT-level hit-source
/// breakdown of nested-walk accesses for pagerank + objdet, with and
/// without PTEMagnet. Returns `(allocator name, measured counters)` pairs.
///
/// Guest-PT accesses are served close to the core at every level; host-PT
/// *leaf* (level 3) accesses are the ones fragmentation pushes out to
/// LLC/DRAM, and PTEMagnet pulls them back in. Each policy is one
/// [`Scenario`] run (objdet at weight 4, seeded `seed·31 + 1` like every
/// scenario co-runner) on the default `paper(2, 1024)` machine; the rows
/// are the primary core's counters over the measured phase.
pub fn walk_breakdown(seed: u64, measure_ops: u64) -> Vec<(String, MemCounters)> {
    let kinds = [AllocatorKind::Default, AllocatorKind::PteMagnet];
    parallel::run_indexed(Parallelism::from_env(), kinds.len(), |i| {
        let run = Scenario::new(BenchId::Pagerank)
            .corunners(&[CoId::Objdet])
            .corunner_weight(4)
            .allocator(kinds[i])
            .measure_ops(measure_ops)
            .seed(seed)
            .run_observed(ObsConfig::disabled());
        (kinds[i].name().to_string(), *run.counters)
    })
}

impl ManifestRun {
    /// The metrics of every *completed* cell in matrix order (empty for
    /// the special kinds; quarantined cells are skipped).
    pub fn metrics(&self) -> Vec<RunMetrics> {
        self.cells
            .iter()
            .filter_map(|c| c.metrics().cloned())
            .collect()
    }

    /// Renders the result as the paper-style text `vmsim run` prints. A
    /// run with quarantined cells gets a per-cell status listing; any other
    /// run with retried or truncated cells gets the supervisor summary
    /// appended to its report (clean runs are byte-identical to before).
    pub fn report(&self) -> String {
        match &self.outcome {
            Outcome::AllocLatency(r) => report::format_sec64(r),
            Outcome::Breakdown(rows) => rows
                .iter()
                .map(|(allocator, counters)| report::format_breakdown(allocator, counters))
                .collect(),
            Outcome::Matrix if self.supervision.quarantined > 0 => self.degraded_listing(),
            Outcome::Matrix => {
                let mut text = report::render(&self.manifest, &self.metrics());
                if !self.supervision.is_clean() {
                    text.push_str(&self.supervision_summary());
                }
                text
            }
        }
    }

    /// The report for a run with quarantined cells: a per-cell status
    /// listing plus the supervisor summary.
    fn degraded_listing(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.manifest.description);
        let _ = writeln!(out, "supervised run completed with quarantined cells");
        let _ = writeln!(
            out,
            "{:<24} {:<14} {:>6} {:<11} detail",
            "workload", "policy", "seed", "status"
        );
        self.for_each_cell(|workload, policy, seed, cell| {
            let (status, detail) = match &cell.data {
                Ok(data) => (
                    if cell.truncated() { "truncated" } else { "ok" },
                    format!("{} cycles", data.metrics().cycles),
                ),
                Err(e) => ("failed", format!("[{}] {e}", e.kind())),
            };
            let _ = writeln!(
                out,
                "{:<24} {:<14} {:>6} {:<11} {}",
                workload.display_label(),
                policy.name(),
                seed,
                status,
                detail
            );
        });
        out.push_str(&self.supervision_summary());
        out
    }

    fn supervision_summary(&self) -> String {
        format!(
            "\nsupervisor: quarantined {}  retried {}  truncated {}\n",
            self.supervision.quarantined, self.supervision.retried, self.supervision.truncated
        )
    }

    /// Calls `f` for every matrix cell in run order with its coordinates.
    fn for_each_cell(&self, mut f: impl FnMut(&WorkloadSpec, &PolicySpec, u64, &CellRun)) {
        let ExperimentSpec::Matrix(matrix) = &self.manifest.experiment else {
            return;
        };
        let (pn, sn) = (matrix.policies.len(), self.manifest.seeds.len());
        for (i, cell) in self.cells.iter().enumerate() {
            let (s, p, w) = (i % sn, (i / sn) % pn, i / (sn * pn));
            f(
                &matrix.workloads[w],
                &matrix.policies[p],
                self.manifest.seeds[s],
                cell,
            );
        }
    }

    /// The machine-readable `results/<name>.json` artifact: manifest
    /// identity plus every run's metrics (or the special-kind payload),
    /// parseable by `vmsim_obs::json`.
    pub fn results_json(&self) -> String {
        let m = &self.manifest;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"name\": {},", json_str(&m.name));
        let _ = writeln!(out, "  \"description\": {},", json_str(&m.description));
        let _ = writeln!(out, "  \"kind\": {},", json_str(m.experiment.kind()));
        let _ = writeln!(out, "  \"measure_ops\": {},", m.measure_ops);
        let mut seeds = String::from("[");
        for (i, s) in m.seeds.iter().enumerate() {
            if i > 0 {
                seeds.push_str(", ");
            }
            let _ = write!(seeds, "{s}");
        }
        seeds.push(']');
        let _ = writeln!(out, "  \"seeds\": {seeds},");
        match &self.outcome {
            Outcome::AllocLatency(r) => {
                out.push_str("  \"runs\": [],\n");
                let _ = writeln!(
                    out,
                    "  \"alloc_latency\": {{\"pages\": {}, \"default_cycles\": {}, \"ptemagnet_cycles\": {}}}",
                    r.pages, r.default_cycles, r.ptemagnet_cycles
                );
            }
            Outcome::Breakdown(rows) => {
                out.push_str("  \"runs\": [],\n");
                out.push_str("  \"breakdown\": [\n");
                for (i, (allocator, c)) in rows.iter().enumerate() {
                    let _ = write!(
                        out,
                        "    {{\"allocator\": {}, \"guest_pt_accesses\": {}, \"guest_pt_memory\": {}, \"host_pt_accesses\": {}, \"host_pt_memory\": {}}}",
                        json_str(allocator),
                        c.guest_pt.accesses,
                        c.guest_pt.memory,
                        c.host_pt.accesses,
                        c.host_pt.memory
                    );
                    out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]\n");
            }
            Outcome::Matrix => {
                if self.cells.is_empty() {
                    out.push_str("  \"runs\": []");
                } else {
                    out.push_str("  \"runs\": [\n");
                    let total = self.cells.len();
                    let mut i = 0usize;
                    self.for_each_cell(|workload, policy, seed, cell| {
                        out.push_str("    ");
                        cell_json(
                            &mut out,
                            &workload.display_label(),
                            policy.name(),
                            seed,
                            cell,
                        );
                        out.push_str(if i + 1 < total { ",\n" } else { "\n" });
                        i += 1;
                    });
                    out.push_str("  ]");
                }
                // The summary appears only when something degraded the run,
                // so clean artifacts stay byte-identical to the pre-
                // supervisor format (and resumption alone adds nothing).
                if self.supervision.is_clean() {
                    out.push('\n');
                } else {
                    let sv = &self.supervision;
                    out.push_str(",\n");
                    let _ = writeln!(
                        out,
                        "  \"supervisor\": {{\"quarantined\": {}, \"retried\": {}, \"truncated\": {}}}",
                        sv.quarantined, sv.retried, sv.truncated
                    );
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Writes one cell as a results-JSON entry: completed cells reuse the
/// classic run object (plus `"attempts"`/`"truncated"` markers only when a
/// retry or budget fired, keeping clean artifacts byte-stable); failed
/// cells get an explicit `"status": "failed"` record with the typed error.
fn cell_json(out: &mut String, workload: &str, policy: &str, seed: u64, cell: &CellRun) {
    match &cell.data {
        Ok(data) => {
            let mut body = String::new();
            run_json(&mut body, workload, policy, seed, data.metrics());
            if cell.attempts > 1 || cell.truncated() {
                body.pop();
                if cell.attempts > 1 {
                    let _ = write!(body, ", \"attempts\": {}", cell.attempts);
                }
                if cell.truncated() {
                    body.push_str(", \"truncated\": true");
                }
                body.push('}');
            }
            out.push_str(&body);
        }
        Err(e) => {
            let _ = write!(
                out,
                "{{\"workload\": {}, \"policy\": {}, \"seed\": {seed}, \"status\": \"failed\", \
                 \"error_kind\": {}, \"error\": {}, \"attempts\": {}}}",
                json_str(workload),
                json_str(policy),
                json_str(e.kind()),
                json_str(&e.to_string()),
                cell.attempts
            );
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json::write_str(&mut out, s);
    out
}

/// Writes one run's metrics as a single-line JSON object (all
/// [`RunMetrics`] fields in declaration order, prefixed with the matrix
/// coordinates). Shared with the journal, which stores this object
/// verbatim so resumed results splice back byte-identically.
pub(crate) fn run_json(out: &mut String, workload: &str, policy: &str, seed: u64, r: &RunMetrics) {
    let _ = write!(
        out,
        "{{\"workload\": {}, \"policy\": {}, \"seed\": {seed}, \"benchmark\": {}, \"allocator\": {}, ",
        json_str(workload),
        json_str(policy),
        json_str(&r.benchmark),
        json_str(&r.allocator)
    );
    let _ = write!(
        out,
        "\"measure_ops\": {}, \"cycles\": {}, \"tlb_lookups\": {}, \"tlb_misses\": {}, \
         \"data_accesses\": {}, \"data_misses\": {}, \"page_walk_cycles\": {}, \
         \"host_pt_cycles\": {}, \"guest_pt_accesses\": {}, \"guest_pt_memory\": {}, \
         \"host_pt_accesses\": {}, \"host_pt_memory\": {}, ",
        r.measure_ops,
        r.cycles,
        r.tlb_lookups,
        r.tlb_misses,
        r.data_accesses,
        r.data_misses,
        r.page_walk_cycles,
        r.host_pt_cycles,
        r.guest_pt_accesses,
        r.guest_pt_memory,
        r.host_pt_accesses,
        r.host_pt_memory
    );
    out.push_str("\"host_frag\": ");
    json::write_f64(out, r.host_frag);
    out.push_str(", \"guest_frag\": ");
    json::write_f64(out, r.guest_frag);
    let _ = write!(
        out,
        ", \"init_cycles\": {}, \"footprint_pages\": {}, \"reserved_unused_peak\": {}, ",
        r.init_cycles, r.footprint_pages, r.reserved_unused_peak
    );
    out.push_str("\"reserved_unused_mean\": ");
    json::write_f64(out, r.reserved_unused_mean);
    let _ = write!(
        out,
        ", \"total_faults\": {}, \"reservation_fallbacks\": {}, \"reclaimed_frames\": {}, \
         \"faults_injected\": {}}}",
        r.total_faults, r.reservation_fallbacks, r.reclaimed_frames, r.faults_injected
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmsim_config::builtin;

    #[test]
    fn sec64_ptemagnet_is_not_slower() {
        // The paper's §6.4 claim: the reservation mechanism is overhead-free
        // for allocation (in fact ~0.5 % faster).
        let r = sec64(4096);
        assert!(
            r.change() <= 0.001,
            "PTEMagnet allocation must not be slower, change = {:+.3}%",
            r.change() * 100.0
        );
        assert!(
            r.change() > -0.05,
            "and the delta is small, change = {:+.3}%",
            r.change() * 100.0
        );
    }

    #[test]
    fn smoke_manifest_runs_and_serializes() {
        let run = run_manifest(&builtin::smoke()).expect("smoke manifest");
        assert_eq!(run.cells.len(), 2);
        assert!(matches!(run.outcome, Outcome::Matrix));
        assert!(run.supervision.is_clean());
        assert!(run.supervisor_events.is_empty());
        // Observability was on; metrics stay bit-identical regardless.
        assert!(run.cells[0].observed().expect("fresh cell").series.len() >= 2);
        let text = run.report();
        assert!(text.contains("gcc") && text.contains("ptemagnet"), "{text}");
        assert!(!text.contains("supervisor:"), "{text}");
        let artifact = run.results_json();
        let doc = json::parse(&artifact).expect("artifact parses");
        assert_eq!(doc.get("name").and_then(|n| n.as_str()), Some("smoke"));
        assert_eq!(
            doc.get("runs").and_then(|r| r.as_arr()).map(<[_]>::len),
            Some(2)
        );
        assert!(doc.get("supervisor").is_none(), "clean run has no summary");
    }

    #[test]
    fn chaos_quarantines_one_cell_and_leaves_the_rest_bit_identical() {
        let manifest = builtin::smoke();
        let clean = run_manifest(&manifest).expect("clean run");
        let sup = Supervisor {
            journal: None,
            chaos: Some(ChaosPlan {
                cell: 1,
                fail_attempts: None,
            }),
            progress: None,
        };
        let run = run_supervised(&manifest, &sup).expect("degraded run");
        assert_eq!(run.supervision.quarantined, 1);
        let err = run.cells[1].error().expect("cell 1 quarantined");
        assert_eq!(err.kind(), "machine_panic");
        assert!(err.to_string().contains("chaos drill"), "{err}");
        // The surviving cell is bit-identical to the unfailed run.
        assert_eq!(
            run.cells[0].metrics().expect("cell 0 survived"),
            clean.cells[0].metrics().expect("clean cell 0")
        );
        assert_eq!(
            run.supervisor_events,
            vec![Event {
                op: 1,
                kind: EventKind::CellQuarantined {
                    cell: 1,
                    attempts: 1
                },
            }]
        );
        // The degraded artifact records the failure explicitly.
        let doc = json::parse(&run.results_json()).expect("artifact parses");
        let runs = doc.get("runs").and_then(|r| r.as_arr()).expect("runs");
        assert_eq!(
            runs[1].get("status").and_then(|s| s.as_str()),
            Some("failed")
        );
        assert_eq!(
            runs[1].get("error_kind").and_then(|s| s.as_str()),
            Some("machine_panic")
        );
        assert_eq!(
            doc.get("supervisor")
                .and_then(|s| s.get("quarantined"))
                .and_then(vmsim_obs::json::Json::as_u64),
            Some(1)
        );
        let text = run.report();
        assert!(text.contains("quarantined"), "{text}");
    }

    #[test]
    fn transient_chaos_recovers_through_deterministic_retry() {
        let mut manifest = builtin::smoke();
        manifest.supervisor = Some(SupervisorSpec {
            retries: 2,
            seed_stride: 0,
            max_cell_ops: None,
            soft_wall_ms: None,
        });
        let sup = Supervisor {
            journal: None,
            chaos: Some(ChaosPlan {
                cell: 0,
                fail_attempts: Some(1),
            }),
            progress: None,
        };
        let run = run_supervised(&manifest, &sup).expect("recovered run");
        assert_eq!(run.cells[0].attempts, 2);
        assert_eq!(run.supervision.quarantined, 0, "not degraded");
        assert_eq!(run.supervision.retried, 1);
        assert_eq!(
            run.supervisor_events,
            vec![Event {
                op: 0,
                kind: EventKind::CellRetried {
                    cell: 0,
                    attempt: 1
                },
            }]
        );
        // With stride 0 the retry reran the canonical seed: metrics match
        // an unfailed run exactly, and the artifact gains only the
        // attempts marker plus the summary.
        let clean = run_manifest(&manifest).expect("clean run");
        assert_eq!(
            run.cells[0].metrics().expect("recovered"),
            clean.cells[0].metrics().expect("clean")
        );
        let doc = json::parse(&run.results_json()).expect("artifact parses");
        let runs = doc.get("runs").and_then(|r| r.as_arr()).expect("runs");
        assert_eq!(
            runs[0]
                .get("attempts")
                .and_then(vmsim_obs::json::Json::as_u64),
            Some(2)
        );
        assert!(runs[0].get("status").is_none());
        let text = run.report();
        assert!(
            text.contains("supervisor: quarantined 0  retried 1"),
            "{text}"
        );
    }

    #[test]
    fn retry_seed_is_pure_and_stride_scaled() {
        // Pure: same inputs, same output.
        assert_eq!(retry_seed(7, 99, 3, 2, 13), retry_seed(7, 99, 3, 2, 13));
        // Attempt 0 and stride 0 leave the base seed untouched.
        assert_eq!(retry_seed(7, 99, 3, 0, 13), 7);
        assert_eq!(retry_seed(7, 99, 3, 2, 0), 7);
        // Perturbations differ across attempts, cells, and manifests.
        assert_ne!(retry_seed(7, 99, 3, 1, 13), retry_seed(7, 99, 3, 2, 13));
        assert_ne!(retry_seed(7, 99, 3, 1, 13), retry_seed(7, 99, 4, 1, 13));
        assert_ne!(retry_seed(7, 99, 3, 1, 13), retry_seed(7, 98, 3, 1, 13));
    }

    #[test]
    fn supervision_registers_supervisor_gauges() {
        let sv = Supervision {
            quarantined: 2,
            retried: 3,
            truncated: 1,
            resumed: 4,
        };
        let mut registry = vmsim_obs::Registry::new();
        registry.record(&sv);
        let snapshot = registry.snapshot(0);
        let get = |name: &str| {
            snapshot
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .clone()
        };
        assert_eq!(
            get("supervisor.quarantined"),
            Metric::u64("supervisor.quarantined", 2)
        );
        assert_eq!(
            get("supervisor.retried"),
            Metric::u64("supervisor.retried", 3)
        );
        assert_eq!(
            get("supervisor.truncated"),
            Metric::u64("supervisor.truncated", 1)
        );
        assert_eq!(
            get("supervisor.resumed"),
            Metric::u64("supervisor.resumed", 4)
        );
    }

    #[test]
    fn unknown_policy_is_a_driver_error() {
        let mut m = builtin::smoke();
        if let ExperimentSpec::Matrix(matrix) = &mut m.experiment {
            matrix.policies[1] = PolicySpec::new("warp-drive");
        }
        match run_manifest(&m) {
            Err(DriverError::Policy(p)) => assert_eq!(p.name, "warp-drive"),
            other => panic!("expected policy error, got {other:?}"),
        }
    }

    #[test]
    fn invalid_manifest_is_a_driver_error() {
        let mut m = builtin::smoke();
        m.seeds.clear();
        assert!(matches!(run_manifest(&m), Err(DriverError::Manifest(_))));
    }
}
